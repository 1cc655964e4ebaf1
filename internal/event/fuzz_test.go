package event

import "testing"

// FuzzQueue interprets the input as an (op, arg) byte stream driving
// the queue and the sorted-slice oracle in lockstep — the same
// interpreter as TestQueueModelRandomized, so anything the fuzzer
// finds reproduces as a unit-test seed corpus entry. Wired into the
// nightly check-long job (see Makefile).
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0})                   // schedule, pop
	f.Add([]byte{1, 3, 1, 4, 1, 5, 2, 0, 2, 0}) // same-instant trio, FIFO pops
	f.Add([]byte{0, 9, 1, 2, 2, 0, 1, 2, 2, 0}) // re-schedule an id after it pops
	f.Add([]byte{0, 1, 0, 7, 0, 13, 0, 19, 0, 25, 0, 31, 0, 37, 3, 0})
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 0, 2, 0}) // pop past empty
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		m := newModel(t)
		for i := 0; i+1 < len(data); i += 2 {
			m.applyOp(data[i], data[i+1])
		}
		m.finish()
	})
}
