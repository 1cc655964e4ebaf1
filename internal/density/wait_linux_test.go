package density

import (
	"syscall"
	"time"
)

// waitFor blocks the calling goroutine's thread in nanosleep for d, so
// the fake server's latency is the same on every call. time.Sleep is
// not: when no goroutine is runnable the runtime waits in the
// netpoller, whose epoll timeout rounds sub-millisecond waits up to
// 1 ms, so a 200 µs sleep takes either 200 µs or about 1.07 ms — a
// p99/p50 spread the knee detector rightly reads as a knee. A
// spin-wait is constant only while the host has a spare CPU per
// client.
func waitFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
