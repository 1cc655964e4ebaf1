package density

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers every POST with a fixed status after a latency
// that can grow with concurrent callers — enough to exercise the ramp,
// the tallies, and the knee cutoff without a real serve stack.
type fakeServer struct {
	inflight atomic.Int64
	perCall  time.Duration
	crowd    time.Duration // extra latency per concurrent caller
	status   int
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	waitFor(f.perCall + time.Duration(n-1)*f.crowd)
	w.WriteHeader(f.status)
}

func fastCfg(h http.Handler, clients []int) ClosedLoopConfig {
	return ClosedLoopConfig{
		NewHandler:     func() (http.Handler, func()) { return h, func() {} },
		BodyFor:        func(int) []byte { return []byte(`{}`) },
		JobsPerRequest: 1,
		TasksPerJob:    4,
		Clients:        clients,
		Warmup:         10 * time.Millisecond,
		Step:           60 * time.Millisecond,
		KneeThreshold:  3,
	}
}

func TestClosedLoopRampCompletes(t *testing.T) {
	srv := &fakeServer{perCall: 200 * time.Microsecond, status: http.StatusOK}
	res, err := ClosedLoop(fastCfg(srv, []int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("got %d steps, want 2 (constant latency must not knee)", len(res.Steps))
	}
	if res.KneeFound {
		t.Error("constant-latency server reported a knee")
	}
	for _, s := range res.Steps {
		if s.Jobs == 0 {
			t.Fatalf("step clients=%d completed no jobs", s.Clients)
		}
		if s.JobsPerSec <= 0 || s.NsPerJob <= 0 {
			t.Errorf("step clients=%d rate=%g ns/job=%g", s.Clients, s.JobsPerSec, s.NsPerJob)
		}
		if s.P99S < s.P50S {
			t.Errorf("step clients=%d p99 %g < p50 %g", s.Clients, s.P99S, s.P50S)
		}
	}
	if res.MaxJobsPerSec <= 0 {
		t.Fatal("no max sustained rate reported")
	}
}

func TestClosedLoopDetectsKnee(t *testing.T) {
	// Latency scales with concurrency: 1 client ~1ms, 8 clients ~15ms
	// p99 — far past the 3x threshold even with coarse sleep timers, so
	// the ramp must stop early and exclude the kneed step from the
	// sustained maximum.
	srv := &fakeServer{perCall: time.Millisecond, crowd: 2 * time.Millisecond, status: http.StatusOK}
	res, err := ClosedLoop(fastCfg(srv, []int{1, 8, 64}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.KneeFound {
		t.Fatal("scaling latency did not knee")
	}
	if res.KneeClients != 8 {
		t.Fatalf("knee at clients=%d, want 8", res.KneeClients)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("ramp ran %d steps past the knee, want 2", len(res.Steps))
	}
	if res.MaxStep != 0 {
		t.Errorf("sustained max taken from kneed step %d", res.MaxStep)
	}
}

func TestClosedLoopTalliesRejections(t *testing.T) {
	srv := &fakeServer{perCall: 100 * time.Microsecond, status: http.StatusTooManyRequests}
	res, err := ClosedLoop(fastCfg(srv, []int{2}))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Steps[0]
	if s.Jobs != 0 || s.Rejected == 0 {
		t.Fatalf("jobs=%d rejected=%d, want all rejected", s.Jobs, s.Rejected)
	}
	cell := s.Cell("eewa", 1, 4, 1)
	if cell.Mode != "closed" || cell.Clients != 2 || cell.Rejected != s.Rejected {
		t.Errorf("cell = %+v", cell)
	}
}

func TestClosedStepCellMapping(t *testing.T) {
	s := ClosedStep{
		Clients: 4, Jobs: 1000, WallS: 2,
		JobsPerSec: 500, NsPerJob: 2e6, AllocsPerJob: 40,
		P50S: 0.001, P95S: 0.002, P99S: 0.003,
	}
	c := s.Cell("eewa", 2, 8, 16)
	if c.Engine != "serve" || c.Shards != 2 || c.BatchSubmit != 16 {
		t.Fatalf("cell = %+v", c)
	}
	if c.Tasks != 8000 || c.RateTPS != 4000 || c.AchievedTPS != 4000 {
		t.Errorf("tasks=%d rate=%g achieved=%g", c.Tasks, c.RateTPS, c.AchievedTPS)
	}
	if c.AllocsPerJob != 40 || c.AllocsPerTask != 5 {
		t.Errorf("allocs/job=%g allocs/task=%g", c.AllocsPerJob, c.AllocsPerTask)
	}
	if axis, at := c.Axis(); axis != "clients" || at != 4 {
		t.Errorf("axis = %s@%g, want clients@4", axis, at)
	}
}
