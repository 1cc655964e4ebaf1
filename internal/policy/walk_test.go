package policy

import (
	"slices"
	"testing"

	"repro/internal/cgroup"
	"repro/internal/xrand"
)

// walkWorld is one copy of a miniature engine: per-pool task counts,
// per-group pending counts, one walker and one victim RNG per core, and
// the number of groups its walks skipped.
type walkWorld struct {
	u       int
	tasks   []int // tasks[c*u+g]
	pending []int32
	walkers []*VictimWalker
	rngs    []*xrand.RNG
	skips   int
}

func newWalkWorld(so *StealOrder, cores, u int, tasks []int, seed uint64) *walkWorld {
	w := &walkWorld{u: u, tasks: slices.Clone(tasks), pending: make([]int32, u)}
	for i, n := range tasks {
		w.pending[i%u] += int32(n)
	}
	root := xrand.New(seed)
	for c := 0; c < cores; c++ {
		w.walkers = append(w.walkers, so.Walker(c))
		w.rngs = append(w.rngs, root.Split())
	}
	return w
}

// walkStep is what one acquire observed: the victim pool it stole
// from (-1, -1 when none), total probes and probes per group.
type walkStep struct {
	found         bool
	victim, group int
	probes        int
	perGroup      []int
}

// acquire pops core self's local pool or walks for a victim, taking the
// stolen task out of its pool, exactly as the simulator's acquire does.
// skip selects the pending-count walk.
func (w *walkWorld) acquire(self, myG int, skip bool) walkStep {
	st := walkStep{victim: -1, group: -1, probes: 1, perGroup: make([]int, w.u)}
	if w.tasks[self*w.u+myG] > 0 {
		w.tasks[self*w.u+myG]--
		w.pending[myG]--
		st.found, st.victim, st.group = true, self, myG
		return st
	}
	var pending []int32
	if skip {
		pending = w.pending
	}
	st.found = w.walkers[self].ForEachVictim(w.rngs[self], pending, func(v, g int) bool {
		st.probes++
		st.perGroup[g]++
		if w.tasks[v*w.u+g] == 0 {
			return false
		}
		w.tasks[v*w.u+g]--
		w.pending[g]--
		st.victim, st.group = v, g
		return true
	}, func(g, n int) {
		w.skips++
		st.probes += n
		st.perGroup[g] += n
	})
	return st
}

// checkWalkSkip decodes one case — a plan over up to 16 cores and four
// levels, a pool occupancy pattern, a victim-stream seed — and runs the
// pending-count walk and the full walk side by side, acquire after
// acquire, until every pool has drained and each core has walked dry at
// least once. Every step must agree on the victim and group found, the
// total and per-group probe counts, and the RNG state afterwards. It
// returns the number of skips the pending walks reported.
func checkWalkSkip(t *testing.T, seed uint64, coresRaw uint8, levelBits, occ uint64, groupMask uint8, random bool) int {
	t.Helper()
	cores := 1 + int(coresRaw%16)
	levels := make([]int, cores)
	for c := range levels {
		levels[c] = int(levelBits>>(2*c)) & 3
	}
	asn, err := cgroup.FromLevels(levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := asn.U()
	so := NewStealOrder(&Plan{Assignment: asn, RandomSteal: random}, cores)

	// Random plans place into each core's own-group pool only, as
	// scatter placement does; preference plans may fill any pool.
	tasks := make([]int, cores*u)
	fill := xrand.New(occ)
	for c := 0; c < cores; c++ {
		for g := 0; g < u; g++ {
			if random && g != asn.CoreGroup[c] {
				continue
			}
			if groupMask>>g&1 == 1 && occ>>((c*u+g)%64)&1 == 1 {
				tasks[c*u+g] = 1 + fill.Intn(3)
			}
		}
	}

	full := newWalkWorld(so, cores, u, tasks, seed)
	skip := newWalkWorld(so, cores, u, tasks, seed)
	dry := make([]bool, cores)
	order := xrand.New(seed ^ occ)
	for step := 0; ; step++ {
		if step > 10000 {
			t.Fatal("walk did not drain")
		}
		self := order.Intn(cores)
		myG := asn.CoreGroup[self]
		a := full.acquire(self, myG, false)
		b := skip.acquire(self, myG, true)
		if a.found != b.found || a.victim != b.victim || a.group != b.group {
			t.Fatalf("step %d core %d: full walk found (%v, %d, %d), pending walk (%v, %d, %d)",
				step, self, a.found, a.victim, a.group, b.found, b.victim, b.group)
		}
		if a.probes != b.probes || !slices.Equal(a.perGroup, b.perGroup) {
			t.Fatalf("step %d core %d: full walk probes %d %v, pending walk %d %v",
				step, self, a.probes, a.perGroup, b.probes, b.perGroup)
		}
		if *full.rngs[self] != *skip.rngs[self] {
			t.Fatalf("step %d core %d: victim streams diverged", step, self)
		}
		if !slices.Equal(full.tasks, skip.tasks) {
			t.Fatalf("step %d: pools diverged", step)
		}
		if !a.found {
			dry[self] = true
		}
		if !slices.Contains(dry, false) && !slices.ContainsFunc(full.tasks, func(n int) bool { return n > 0 }) {
			return skip.skips
		}
	}
}

// TestVictimWalkSkipMatchesFullWalk runs the differential check over
// random plans, occupancy patterns and streams, and checks that the
// cases really exercised skipping in both disciplines.
func TestVictimWalkSkipMatchesFullWalk(t *testing.T) {
	r := xrand.New(2014)
	skipped := map[bool]int{}
	for i := 0; i < 3000; i++ {
		random := r.Intn(2) == 0
		skipped[random] += checkWalkSkip(t, r.Uint64(), uint8(r.Uint64()), r.Uint64(), r.Uint64(), uint8(r.Uint64()), random)
	}
	if skipped[true] == 0 || skipped[false] == 0 {
		t.Errorf("skips (random, preference) = (%d, %d): a discipline never skipped", skipped[true], skipped[false])
	}
}

// FuzzVictimWalkSkip is the fuzzing form of the same differential
// check; `make check-long` runs it.
func FuzzVictimWalkSkip(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint64(0x5555), uint64(0xffff), uint8(1), false)
	f.Add(uint64(2), uint8(15), uint64(0xe4e4e4e4), ^uint64(0), uint8(0x5), false)
	f.Add(uint64(3), uint8(7), uint64(0), uint64(0xf0f0), uint8(0xf), true)
	f.Add(uint64(4), uint8(0), uint64(0), uint64(0), uint8(0), true)
	f.Add(uint64(5), uint8(3), uint64(0x1b), uint64(0), uint8(0xf), false)
	f.Fuzz(func(t *testing.T, seed uint64, cores uint8, levelBits, occ uint64, groupMask uint8, random bool) {
		checkWalkSkip(t, seed, cores, levelBits, occ, groupMask, random)
	})
}
