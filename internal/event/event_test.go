package event

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// drain pops every pending event and returns the ids in pop order.
func drain(q *Queue) []int32 {
	var ids []int32
	for {
		id, ok := q.Pop()
		if !ok {
			return ids
		}
		ids = append(ids, id)
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	q := New(4)
	for _, id := range []int32{3, 1, 2, 0} {
		q.Schedule(1, id)
	}
	if got := drain(q); !slices.Equal(got, []int32{3, 1, 2, 0}) {
		t.Errorf("same-time pops %v, want scheduling order [3 1 2 0]", got)
	}
}

func TestTimeOrdering(t *testing.T) {
	q := New(3)
	q.Schedule(3, 0)
	q.Schedule(1, 1)
	q.Schedule(2, 2)
	for _, want := range []struct {
		id int32
		t  float64
	}{{1, 1}, {2, 2}, {0, 3}} {
		id, ok := q.Pop()
		if !ok || id != want.id || q.Now() != want.t {
			t.Fatalf("Pop = %d,%v at %g; want %d at %g", id, ok, q.Now(), want.id, want.t)
		}
	}
}

func TestPopReturnsFalseWhenEmpty(t *testing.T) {
	q := New(1)
	if id, ok := q.Pop(); ok {
		t.Fatalf("Pop on a fresh queue = %d,true", id)
	}
	q.Schedule(2, 0)
	q.Pop()
	if id, ok := q.Pop(); ok {
		t.Fatalf("Pop on a drained queue = %d,true", id)
	}
	if q.Now() != 2 {
		t.Errorf("an empty Pop moved the clock to %g, want 2", q.Now())
	}
}

func TestLenCountsPending(t *testing.T) {
	q := New(3)
	if q.Len() != 0 {
		t.Fatalf("fresh queue Len = %d", q.Len())
	}
	q.Schedule(1, 0)
	q.Schedule(1, 1)
	q.Schedule(2, 2)
	for want := 3; want >= 0; want-- {
		if q.Len() != want {
			t.Fatalf("Len = %d, want %d", q.Len(), want)
		}
		q.Pop()
	}
}

// Same-time FIFO holds across interleaved ids, and an id re-scheduled
// after it pops queues behind the events already due at that instant.
func TestInterleavedIDsFIFO(t *testing.T) {
	q := New(3)
	q.Schedule(1, 0)
	q.Schedule(2, 1)
	q.Schedule(1, 2)
	if id, _ := q.Pop(); id != 0 {
		t.Fatalf("first pop = %d, want 0", id)
	}
	q.Schedule(1, 0)
	if got := drain(q); !slices.Equal(got, []int32{2, 0, 1}) {
		t.Errorf("pops %v, want [2 0 1]", got)
	}
}

// Each popped core schedules its next event, the way the engine drains
// a batch: a completion at the current instant runs before anything
// later, and after the same-time events already pending.
func TestCascadingSchedule(t *testing.T) {
	q := New(2)
	q.Schedule(0.5, 0)
	q.Schedule(0.5, 1)
	id, _ := q.Pop()
	q.Schedule(q.Now(), id) // same instant: queues behind id 1
	var got []int32
	for len(got) < 100 {
		id, ok := q.Pop()
		if !ok {
			t.Fatalf("queue ran dry after %d pops", len(got))
		}
		got = append(got, id)
		q.Schedule(q.Now()+0.5, id)
	}
	if !slices.Equal(got[:4], []int32{1, 0, 1, 0}) {
		t.Errorf("cascade starts %v, want [1 0 1 0]", got[:4])
	}
	if q.Now() != 25 {
		t.Errorf("clock = %g, want 25", q.Now())
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	q := New(2)
	q.Schedule(5, 0)
	q.Pop()
	mustPanic(t, "past", func() { q.Schedule(1, 0) })
	mustPanic(t, "nan", func() { q.Schedule(math.NaN(), 0) })
	mustPanic(t, "inf", func() { q.Schedule(math.Inf(1), 0) })
	mustPanic(t, "negative id", func() { q.Schedule(6, -1) })
	mustPanic(t, "id past capacity", func() { q.Schedule(6, 2) })
	q.Schedule(6, 1)
	mustPanic(t, "already pending", func() { q.Schedule(7, 1) })
	mustPanic(t, "negative capacity", func() { New(-1) })
	if q.Len() != 1 {
		t.Errorf("rejected schedules changed Len to %d, want 1", q.Len())
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// Property: for any random set of event times, pops come out in
// non-decreasing time and every id pops exactly once.
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int(n%64) + 1
		q := New(total)
		for i := 0; i < total; i++ {
			q.Schedule(rng.Float64()*100, int32(i))
		}
		var times []float64
		seen := make([]bool, total)
		for {
			id, ok := q.Pop()
			if !ok {
				break
			}
			if seen[id] {
				return false
			}
			seen[id] = true
			times = append(times, q.Now())
		}
		return len(times) == total && sort.Float64sAreSorted(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkQueue measures one Pop plus the popped id's re-Schedule with
// m ids pending — the engine's per-task cost at m cores.
func BenchmarkQueue(b *testing.B) {
	for _, m := range []int{16, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]float64, 4096)
			for i := range delays {
				delays[i] = rng.Float64()
			}
			q := New(m)
			for id := 0; id < m; id++ {
				q.Schedule(delays[id%len(delays)], int32(id))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, _ := q.Pop()
				q.Schedule(q.Now()+delays[i%len(delays)], id)
			}
		})
	}
}
