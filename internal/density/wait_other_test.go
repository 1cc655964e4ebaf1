//go:build !linux

package density

import "time"

// waitFor falls back to time.Sleep where nanosleep is not in package
// syscall; see wait_linux_test.go for why Linux avoids it.
func waitFor(d time.Duration) { time.Sleep(d) }
