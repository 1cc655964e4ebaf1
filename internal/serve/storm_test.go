package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// A concurrent multi-tenant submit storm through the full HTTP stack:
// every submission must resolve to exactly one of 200/429, per-tenant
// accounting must close (submitted == ok + rejected), and after drain
// the task ledger must balance — no admitted task lost or double-run
// by the admission queue. Run under -race (see the race-serve target).
func TestConcurrentSubmitStormConservesTasks(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) {
		c.Obs = reg
		c.QueueDepth = 32
		c.MaxInFlight = 128
		c.MaxBatch = 32
		c.FlushEvery = 2 * time.Millisecond
	})

	const (
		nTenants    = 6
		goroutines  = 18
		jobsEach    = 25
		tasksPerJob = 2
	)
	type counts struct{ submitted, ok, rejected, other int64 }
	perTenant := make([]counts, nTenants)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var local [nTenants]counts
			for i := 0; i < jobsEach; i++ {
				tn := (g + i) % nTenants
				resp, body := submit(t, ts.URL, JobRequest{
					Tenant:    fmt.Sprintf("tenant-%d", tn),
					Func:      "md5",
					Count:     tasksPerJob,
					SizeBytes: 256,
					Seed:      uint64(g*1000 + i),
				})
				local[tn].submitted++
				switch resp.StatusCode {
				case 200:
					local[tn].ok++
				case 429:
					local[tn].rejected++
				default:
					local[tn].other++
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
			mu.Lock()
			for tn := range local {
				perTenant[tn].submitted += local[tn].submitted
				perTenant[tn].ok += local[tn].ok
				perTenant[tn].rejected += local[tn].rejected
				perTenant[tn].other += local[tn].other
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	drain(t, s)

	var totalOK, totalSubmitted int64
	for tn := range perTenant {
		c := perTenant[tn]
		if c.submitted != c.ok+c.rejected+c.other {
			t.Errorf("tenant %d: %d submitted != %d ok + %d rejected + %d other",
				tn, c.submitted, c.ok, c.rejected, c.other)
		}
		totalOK += c.ok
		totalSubmitted += c.submitted
	}
	if totalSubmitted != goroutines*jobsEach {
		t.Fatalf("submitted %d, want %d", totalSubmitted, goroutines*jobsEach)
	}

	// Task ledger: every admitted job (no deadlines here) completes all
	// its tasks; nothing queued or in flight survives the drain.
	st := s.Stats()
	if st.Admitted != uint64(totalOK) {
		t.Errorf("admitted %d, want %d (the 200 count)", st.Admitted, totalOK)
	}
	if st.Completed != uint64(totalOK) {
		t.Errorf("completed %d, want %d", st.Completed, totalOK)
	}
	if st.Tasks != uint64(totalOK)*tasksPerJob {
		t.Errorf("tasks run %d, want %d", st.Tasks, uint64(totalOK)*tasksPerJob)
	}
	if st.Queued != 0 || st.Inflight != 0 {
		t.Errorf("post-drain backlog: queued %d, inflight %d, want 0/0", st.Queued, st.Inflight)
	}
	if st.Timeouts != 0 {
		t.Errorf("timeouts %d, want 0", st.Timeouts)
	}
}
