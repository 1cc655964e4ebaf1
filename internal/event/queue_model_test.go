package event

import (
	"math/rand"
	"testing"
)

// modelIDs is the model's id space: small, so schedules often find
// their id already pending and must pick another.
const modelIDs = 6

// oracleEv mirrors one pending event.
type oracleEv struct {
	id int32
	t  float64
}

// model drives a Queue and a sorted-slice oracle in lockstep. The
// oracle keeps pending events sorted by time, a new event going after
// every event with the same or an earlier time — exactly the queue's
// (time, scheduling order) contract.
type model struct {
	t      *testing.T
	q      *Queue
	oracle []oracleEv
	now    float64
}

func newModel(t *testing.T) *model {
	return &model{t: t, q: New(modelIDs)}
}

func (m *model) pending(id int32) bool {
	for _, e := range m.oracle {
		if e.id == id {
			return true
		}
	}
	return false
}

// schedule makes the first free id at or after arg (mod modelIDs) due
// dt after now; a no-op when every id is pending.
func (m *model) schedule(arg byte, dt float64) {
	for k := 0; k < modelIDs; k++ {
		id := int32((int(arg) + k) % modelIDs)
		if m.pending(id) {
			continue
		}
		tm := m.now + dt
		m.q.Schedule(tm, id)
		i := len(m.oracle)
		for i > 0 && m.oracle[i-1].t > tm {
			i--
		}
		m.oracle = append(m.oracle, oracleEv{})
		copy(m.oracle[i+1:], m.oracle[i:])
		m.oracle[i] = oracleEv{id: id, t: tm}
		return
	}
}

func (m *model) pop() {
	id, ok := m.q.Pop()
	if len(m.oracle) == 0 {
		if ok {
			m.t.Fatalf("Pop = %d on an (oracle-)empty queue", id)
		}
		return
	}
	want := m.oracle[0]
	m.oracle = m.oracle[1:]
	m.now = want.t
	if !ok || id != want.id {
		m.t.Fatalf("Pop = %d,%v; oracle expected id %d at %g", id, ok, want.id, want.t)
	}
}

// verify checks every observable against the oracle.
func (m *model) verify() {
	if got, want := m.q.Len(), len(m.oracle); got != want {
		m.t.Fatalf("Len = %d, oracle has %d pending", got, want)
	}
	if m.q.Now() != m.now {
		m.t.Fatalf("Now = %g, oracle clock = %g", m.q.Now(), m.now)
	}
}

// applyOp interprets one fuzz/random operation. Times are drawn from a
// small grid (multiples of 0.5 ahead of now) and half the schedules
// land exactly at now, so same-time FIFO across interleaved ids and
// re-scheduling a just-popped id at the current instant occur
// constantly.
func (m *model) applyOp(op, arg byte) {
	switch op % 4 {
	case 0:
		m.schedule(arg, float64(arg/modelIDs%4)*0.5)
	case 1:
		m.schedule(arg, 0)
	default:
		m.pop()
	}
	m.verify()
}

func (m *model) finish() {
	for len(m.oracle) > 0 {
		m.pop()
		m.verify()
	}
	if id, ok := m.q.Pop(); ok {
		m.t.Fatalf("oracle drained but the queue still popped %d", id)
	}
}

func TestQueueModelRandomized(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModel(t)
		ops := 200 + rng.Intn(300)
		for i := 0; i < ops; i++ {
			m.applyOp(byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		m.finish()
	}
}
