// Package event is the simulator's event queue. It answers one
// question: which core acts next.
//
// In the sim engine a core either wakes at batch start or completes the
// one task it is running, so a core never has more than one event
// pending. The queue makes that its contract: it is a fixed-capacity
// min-heap over ids 0..n-1, and each id has at most one pending event.
// Events pop in (time, scheduling order), so events due at the same
// instant pop first-in first-out — including ones scheduled at that
// instant while it is being drained. That keeps simulation runs fully
// deterministic, a property every scheduler test in this repository
// relies on.
//
// Heap entries are plain values (time, sequence number, id): no
// callback, no pointer, no allocation after New.
//
// Time is a float64 measured in seconds. The queue attaches no unit
// semantics; the machine model defines them.
package event

import (
	"fmt"
	"math"
)

// entry is one pending event. seq is the global scheduling order, the
// tie-break that makes same-time events FIFO.
type entry struct {
	t   float64
	seq uint64
	id  int32
}

func (a entry) less(b entry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Queue is a discrete-event queue with its own simulated clock. A Queue
// is not safe for concurrent use: the simulator is single-threaded by
// design (determinism beats parallel speed for a scheduler model of
// this size).
type Queue struct {
	now     float64
	seq     uint64
	heap    []entry
	pending []bool // pending[id]: id has an event in heap
}

// New returns an empty queue for ids 0..n-1 with the clock at zero.
func New(n int) *Queue {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("event: capacity %d out of range", n))
	}
	return &Queue{heap: make([]entry, 0, n), pending: make([]bool, n)}
}

// Now returns the current simulated time in seconds: the time of the
// last popped event.
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Schedule makes id due at absolute simulated time t. Scheduling in
// the past, at a non-finite time, for an id out of range or for an id
// that is already pending is a programming error, so it panics.
func (q *Queue) Schedule(t float64, id int32) {
	if id < 0 || int(id) >= len(q.pending) {
		panic(fmt.Sprintf("event: id %d out of range [0,%d)", id, len(q.pending)))
	}
	if q.pending[id] {
		panic(fmt.Sprintf("event: id %d already pending", id))
	}
	if t < q.now {
		panic(fmt.Sprintf("event: scheduling at %g before now %g", t, q.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("event: non-finite time %g", t))
	}
	q.pending[id] = true
	e := entry{t: t, seq: q.seq, id: id}
	q.seq++

	// Sift up: move parents down into the hole until e fits.
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.heap = h
}

// Pop removes the earliest pending event, advances the clock to its
// time and returns its id. It returns false when nothing is pending.
func (q *Queue) Pop() (int32, bool) {
	h := q.heap
	n := len(h) - 1
	if n < 0 {
		return -1, false
	}
	top := h[0]
	last := h[n]
	h = h[:n]

	// Sift down: move the smaller child up into the hole until last fits.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	q.heap = h
	q.pending[top.id] = false
	q.now = top.t
	return top.id, true
}
