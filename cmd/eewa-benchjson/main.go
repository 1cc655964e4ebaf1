// Command eewa-benchjson measures the simulator across every policy
// and writes a machine-readable benchmark record (BENCH_sched.json),
// optionally checking it against a committed baseline.
//
// Four gates on the build:
//
//   - makespan/energy are deterministic sim outputs and must match the
//     baseline almost exactly — a drift means the scheduler's decisions
//     changed;
//   - tasks_per_sec is host throughput of the simulator, normalized to
//     the cilk policy of the *same run* so machine speed cancels; the
//     cilk-relative ratio may not regress more than -max-regress;
//   - the serve cell drives a single-shard routed job service
//     closed-loop through its HTTP handler and normalizes its tasks/s
//     against the same run's cilk sim throughput; the ratio may not
//     regress more than -max-serve-regress (the router-overhead gate:
//     the routing tier must stay within a few percent of the
//     pre-router server this baseline was seeded from). The same cell
//     budgets allocs/job against the baseline (-max-alloc-regress plus
//     2 allocs of slack) — the ingest path's pooled jobs and
//     preallocated responses must not leak allocations back onto the
//     request path;
//   - the soa cells run a deep synthetic backlog (-soa-depth tasks per
//     batch) through the simulator's struct-of-arrays hot path, where
//     per-task costs dominate per-batch setup. They gate like the sim
//     cells — best-of-reps cilk-normalized throughput against twice
//     -max-regress (a single-policy ratio is noisier than the sim
//     gate's four-policy geomean) — plus a hard allocation budget:
//     allocs/task may
//     not grow past the baseline by more than -max-alloc-regress (the
//     SoA path allocates nothing per task, so any growth is a leak
//     back onto the hot path, not noise).
//
// Usage:
//
//	eewa-benchjson                          # check against BENCH_sched.json, then rewrite it
//	eewa-benchjson -check-only              # CI: compare, never write
//	eewa-benchjson -out BENCH_sched.json -seeds 3 -max-regress 0.05
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/workloads"
)

// PolicyRecord is one policy's measured row.
type PolicyRecord struct {
	MakespanS   float64 `json:"makespan_s"`
	EnergyJ     float64 `json:"energy_j"`
	HostNS      int64   `json:"host_ns"`
	TasksPerSec float64 `json:"tasks_per_sec"`
	// NormThroughput is the median across repetitions of this policy's
	// throughput relative to cilk measured in the *same* repetition —
	// the machine-independent number the regression check gates on.
	NormThroughput float64 `json:"norm_throughput"`
	// HostNSPerRep lists every repetition's host duration (HostNS is
	// their minimum) — the per-cell wall-clock record the allocation
	// diet is judged against.
	HostNSPerRep []int64 `json:"host_ns_per_rep"`
	// AllocsPerTask and BytesPerTask are the median per-repetition heap
	// allocation counts and bytes divided by tasks simulated, from
	// runtime.MemStats deltas around the rep. Informational: host-noise
	// sensitive, so the regression gate does not fire on them.
	AllocsPerTask float64 `json:"allocs_per_task"`
	BytesPerTask  float64 `json:"bytes_per_task"`
}

// ServeRecord is the job service's throughput cell: a single-shard
// routed server driven closed-loop through its HTTP handler (decode →
// router → shard batcher → runtime → response).
type ServeRecord struct {
	TasksPerSec float64 `json:"tasks_per_sec"`
	// NormThroughput is serve tasks/s over a cilk sim reference timed
	// back-to-back within the same repetition, so host speed and load
	// cancel; the router-overhead gate compares this ratio against the
	// baseline's.
	NormThroughput float64 `json:"norm_throughput"`
	// AllocsPerJob is the median per-repetition heap allocation count
	// over completed jobs — the whole process during the closed-loop
	// drive, so it covers decode, admission, batching and response
	// encoding. The ingest path's pooling (DESIGN.md §12) budgets this.
	AllocsPerJob float64 `json:"allocs_per_job,omitempty"`
}

// SoACell is one policy's deep-backlog scheduling-rate measurement:
// batches large enough that the SoA hot path (pool pushes, indexed
// events, profiler refs) dominates per-batch planning. Rates are best
// repetition; the normalized ratio is within-rep against cilk.
type SoACell struct {
	Depth          int     `json:"depth"`
	TasksPerSec    float64 `json:"tasks_per_sec"`
	NormThroughput float64 `json:"norm_throughput"`
	AllocsPerTask  float64 `json:"allocs_per_task"`
}

// Record is the whole benchmark file.
type Record struct {
	Benchmark string                  `json:"benchmark"`
	Cores     int                     `json:"cores"`
	Seeds     int                     `json:"seeds"`
	Policies  map[string]PolicyRecord `json:"policies"`
	Serve     *ServeRecord            `json:"serve,omitempty"`
	SoA       map[string]SoACell      `json:"soa,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-benchjson: ")
	out := flag.String("out", "BENCH_sched.json", "output (and default baseline) path")
	benchName := flag.String("bench", "all", "Table II benchmark to measure, or all (larger sample, steadier throughput)")
	cores := flag.Int("cores", 16, "machine size")
	seeds := flag.Int("seeds", 3, "seeds per policy (averaged)")
	reps := flag.Int("reps", 7, "repetitions per seed; fastest rep is kept (reduces host noise)")
	baseline := flag.String("baseline", "", "baseline path (defaults to -out when it exists)")
	maxRegress := flag.Float64("max-regress", 0.05, "max allowed relative drop in cilk-normalized throughput")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.15, "max allowed relative growth in per-task heap allocations (geomean)")
	// The serve cell drives 2*workers goroutines of real sha1 work
	// through the HTTP handler, so unlike the single-threaded sim cells
	// its best-of-reps rate still jitters ~10% run-to-run with host
	// scheduling. The budget sits above that floor; real router
	// regressions (contention, an extra hop) cost well over 15%.
	maxServeRegress := flag.Float64("max-serve-regress", 0.15, "max allowed relative drop in the single-shard serve throughput cell (cilk-sim-normalized)")
	serveMS := flag.Int("serve-ms", 600, "serve cell: closed-loop drive time per repetition, milliseconds (0 disables the cell)")
	serveReps := flag.Int("serve-reps", 7, "serve cell: repetitions (fastest kept, like the sim cells)")
	soaDepth := flag.Int("soa-depth", 1024, "soa cells: synthetic backlog depth per batch (0 disables the cells)")
	checkOnly := flag.Bool("check-only", false, "compare against the baseline without rewriting it")
	flag.Parse()

	rec, err := measure(*benchName, *cores, *seeds, *reps)
	if err != nil {
		log.Fatal(err)
	}
	if *serveMS > 0 {
		tps, norm, apj, err := measureServe(*cores, time.Duration(*serveMS)*time.Millisecond, *serveReps)
		if err != nil {
			log.Fatal(err)
		}
		rec.Serve = &ServeRecord{TasksPerSec: tps, NormThroughput: norm, AllocsPerJob: apj}
	}
	if *soaDepth > 0 {
		soa, err := measureSoA(*cores, *soaDepth, *reps)
		if err != nil {
			log.Fatal(err)
		}
		rec.SoA = soa
	}

	basePath := *baseline
	if basePath == "" {
		basePath = *out
	}
	if prev, err := load(basePath); err == nil {
		if err := check(prev, rec, *maxRegress, *maxAllocRegress, *maxServeRegress); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline %s: all policies within %.0f%% of recorded throughput, %.0f%% of recorded allocs/task\n",
			basePath, 100**maxRegress, 100**maxAllocRegress)
	} else if *checkOnly {
		log.Fatalf("baseline %s unreadable: %v", basePath, err)
	} else {
		fmt.Printf("no baseline at %s — recording fresh numbers\n", basePath)
	}

	if *checkOnly {
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func measure(benchName string, cores, seeds, reps int) (*Record, error) {
	var benches []workloads.Benchmark
	if benchName == "all" {
		benches = workloads.All()
	} else {
		b, err := workloads.ByName(benchName)
		if err != nil {
			return nil, err
		}
		benches = []workloads.Benchmark{b}
	}
	cfg := machine.Generic(cores)
	rec := &Record{Benchmark: benchName, Cores: cores, Seeds: seeds, Policies: map[string]PolicyRecord{}}

	type acc struct {
		makespan, energy float64
		tasks            int
		durs             []time.Duration
		allocs, bytes    []float64 // per task, one sample per rep
	}
	accs := map[string]*acc{}
	for _, name := range policy.IDs() {
		accs[name] = &acc{}
	}
	// Repetitions are the outer loop so every rep measures all policies
	// back-to-back under the same host conditions: the regression gate
	// compares cilk-relative ratios computed *within* a rep, which makes
	// host noise common-mode, and then takes the median across reps.
	// Rep -1 is an untimed warmup that lets the Go runtime settle; it
	// also calibrates `inner`, the number of back-to-back suite passes
	// per rep that fill a ~200 ms floor — one pass is ~10 ms on the SoA
	// engine, and wall timings that short are dominated by host
	// scheduler jitter, not the simulator.
	inner := 1
	var warmMax time.Duration
	for rep := -1; rep < reps; rep++ {
		for _, name := range policy.IDs() {
			a := accs[name]
			var repMakespan, repEnergy float64
			repTasks := 0
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for it := 0; it < inner; it++ {
				repMakespan, repEnergy = 0, 0
				repTasks = 0
				for _, b := range benches {
					for s := 1; s <= seeds; s++ {
						w := b.Workload(uint64(s))
						p, err := policy.New(name, cfg)
						if err != nil {
							return nil, err
						}
						res, err := sched.Run(cfg, w, p, sched.DefaultParams())
						if err != nil {
							return nil, err
						}
						repMakespan += res.Makespan
						repEnergy += res.Energy
						repTasks += w.TotalTasks()
					}
				}
			}
			// Per-pass duration: passes are identical, so the mean over
			// `inner` of them is the low-noise estimate of one pass.
			host := time.Since(start) / time.Duration(inner)
			runtime.ReadMemStats(&m1)
			if rep >= 0 {
				a.durs = append(a.durs, host)
				a.allocs = append(a.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(repTasks*inner))
				a.bytes = append(a.bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(repTasks*inner))
			} else if host > warmMax {
				warmMax = host
			}
			a.makespan, a.energy, a.tasks = repMakespan, repEnergy, repTasks
		}
		if rep == -1 && warmMax > 0 {
			inner = int(200*time.Millisecond/warmMax) + 1
		}
	}
	cilkDurs := accs[policy.IDCilk].durs
	for name, a := range accs {
		best := a.durs[0]
		ratios := make([]float64, len(a.durs))
		for i, d := range a.durs {
			if d < best {
				best = d
			}
			// Same task count per rep for every policy, so the
			// throughput ratio is the inverse duration ratio.
			ratios[i] = cilkDurs[i].Seconds() / d.Seconds()
		}
		perRep := make([]int64, len(a.durs))
		for i, d := range a.durs {
			perRep[i] = d.Nanoseconds()
		}
		rec.Policies[name] = PolicyRecord{
			MakespanS:      a.makespan / float64(seeds),
			EnergyJ:        a.energy / float64(seeds),
			HostNS:         best.Nanoseconds(),
			TasksPerSec:    float64(a.tasks) / best.Seconds(),
			NormThroughput: median(ratios),
			HostNSPerRep:   perRep,
			AllocsPerTask:  median(a.allocs),
			BytesPerTask:   median(a.bytes),
		}
	}
	return rec, nil
}

// measureServe drives a single-shard routed server closed-loop:
// 2×workers submitters each keep one 8-task sha1 job outstanding
// through the in-process HTTP handler for dur, then the server drains
// and the rep's throughput is completed tasks over wall time. Each rep
// also times a cilk sim reference back-to-back, so the normalized
// ratio the gate compares is computed within one rep — host noise hits
// both sides and cancels, exactly like the sim gate's within-rep
// cilk-relative ratios. Returns the fastest rep's raw tasks/s, the
// best-of-reps ratio, and the median per-rep allocs per completed job
// (process-wide MemStats deltas over the drive + drain, so decode,
// admission, batching and encoding are all inside the budget).
func measureServe(workers int, dur time.Duration, reps int) (tps, norm, allocsPerJob float64, err error) {
	bench, err := workloads.ByName("sha1")
	if err != nil {
		return 0, 0, 0, err
	}
	cfg := machine.Generic(workers)
	// simRef measures the cilk simulator's tasks/s under the host
	// conditions of this rep. A single run is sub-millisecond on the
	// SoA engine, so it repeats back-to-back for a ~50 ms budget and
	// keeps the best run — single-shot sub-ms wall timings swing with
	// host noise, which would leak straight into the normalized ratio
	// the serve gate compares.
	simRef := func() (float64, error) {
		var best time.Duration
		tasks := 0
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
			w := bench.Workload(1)
			p, err := policy.New(policy.IDCilk, cfg)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if _, err := sched.Run(cfg, w, p, sched.DefaultParams()); err != nil {
				return 0, err
			}
			if el := time.Since(start); best == 0 || el < best {
				best = el
			}
			tasks = w.TotalTasks()
		}
		return float64(tasks) / best.Seconds(), nil
	}

	var seq atomic.Uint64
	var bestSim float64
	var allocSamples []float64
	for rep := 0; rep < reps; rep++ {
		simRate, err := simRef()
		if err != nil {
			return 0, 0, 0, err
		}
		if simRate > bestSim {
			bestSim = simRate
		}
		srv, err := serve.New(serve.Config{
			Workers:    workers,
			Policy:     policy.IDCilk,
			FlushEvery: 2 * time.Millisecond,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		h := srv.Handler()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		begin := time.Now()
		stop := begin.Add(dur)
		var wg sync.WaitGroup
		for i := 0; i < 2*workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					body, _ := json.Marshal(serve.JobRequest{
						Tenant: "bench", Func: "sha1",
						Count: 8, SizeBytes: 4096,
						Seed: seq.Add(1),
					})
					r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
					h.ServeHTTP(httptest.NewRecorder(), r)
				}
			}()
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = srv.Drain(ctx)
		cancel()
		if err != nil {
			return 0, 0, 0, err
		}
		wall := time.Since(begin).Seconds()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		st := srv.Stats()
		if st.Tasks == 0 {
			return 0, 0, 0, fmt.Errorf("serve cell completed no tasks in %s", dur)
		}
		if st.Completed > 0 {
			allocSamples = append(allocSamples, float64(m1.Mallocs-m0.Mallocs)/float64(st.Completed))
		}
		rate := float64(st.Tasks) / wall
		if rate > tps {
			tps = rate
		}
	}
	// Best-of-reps for both sides of the ratio, matching every other
	// cell in this file: host noise only ever slows a rep down, so the
	// fastest rep is the low-variance estimate of true capability, and
	// pairing best serve with best sim keeps the normalized ratio from
	// inheriting per-rep jitter on either side.
	return tps, tps / bestSim, median(allocSamples), nil
}

// measureSoA times the simulator's deep-backlog hot path for cilk and
// eewa: 3 batches of `depth` same-class tasks, where per-task work (SoA
// arrays, pool pushes, indexed completion events) dwarfs per-batch
// planning. One run is sub-millisecond, so each repetition times enough
// back-to-back runs to fill ~150 ms of wall; the best rep sets the rate
// and the best-of-reps cilk ratio feeds the -max-regress gate. Allocs per
// task come from MemStats deltas over a rep — the hot path allocates
// nothing per task, so this is (per-run fixed cost)/tasks and stable.
func measureSoA(cores, depth, reps int) (map[string]SoACell, error) {
	cfg := machine.Generic(cores)
	w, err := task.Generate("soa-depth", 3, []task.ClassSpec{
		{Name: "dens", Count: depth, MeanWork: 1e-4, JitterFrac: 0.2},
	}, 1)
	if err != nil {
		return nil, err
	}
	tasks := w.TotalTasks()
	pols := []string{policy.IDCilk, policy.IDEEWA}

	runOnce := func(pol string) (time.Duration, error) {
		p, err := policy.New(pol, cfg)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := sched.Run(cfg, w, p, sched.DefaultParams()); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}

	// Calibrate the inner repeat count off a cilk warmup run.
	warm, err := runOnce(policy.IDCilk)
	if err != nil {
		return nil, err
	}
	inner := int(150*time.Millisecond/warm) + 1

	type acc struct {
		durs   []time.Duration
		allocs []float64
	}
	accs := map[string]*acc{}
	for _, pol := range pols {
		accs[pol] = &acc{}
	}
	for rep := 0; rep < reps; rep++ {
		for _, pol := range pols {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for i := 0; i < inner; i++ {
				if _, err := runOnce(pol); err != nil {
					return nil, err
				}
			}
			dur := time.Since(start)
			runtime.ReadMemStats(&m1)
			a := accs[pol]
			a.durs = append(a.durs, dur)
			a.allocs = append(a.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(tasks*inner))
		}
	}
	bestDur := func(a *acc) time.Duration {
		best := a.durs[0]
		for _, d := range a.durs {
			if d < best {
				best = d
			}
		}
		return best
	}
	// The cilk ratio pairs each policy's best rep with cilk's best rep:
	// host noise only slows a rep down, so the minima are low-variance
	// floors, whereas a per-rep ratio compounds the jitter of two ~50 ms
	// timed blocks.
	bestCilk := bestDur(accs[policy.IDCilk])
	cells := map[string]SoACell{}
	for _, pol := range pols {
		a := accs[pol]
		best := bestDur(a)
		cells[pol] = SoACell{
			Depth:          depth,
			TasksPerSec:    float64(tasks*inner) / best.Seconds(),
			NormThroughput: bestCilk.Seconds() / best.Seconds(),
			AllocsPerTask:  median(a.allocs),
		}
	}
	return cells, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func load(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rec Record
	if err := json.NewDecoder(f).Decode(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// check compares the fresh measurement against the baseline: decisions
// (makespan/energy) must be stable; the geometric mean of the
// cilk-normalized throughput ratios may not regress beyond maxRegress,
// and the geometric mean of per-task heap allocations may not grow
// beyond maxAllocRegress (an allocation on the task hot path moves
// every policy's count together, just like a slowdown). The gates are
// on the means, not per policy: an engine-level change is full signal,
// while per-policy host jitter averages out. The serve cell gates
// separately on maxServeRegress — router overhead shows up there and
// nowhere else.
func check(base, cur *Record, maxRegress, maxAllocRegress, maxServeRegress float64) error {
	if base.Benchmark != cur.Benchmark || base.Cores != cur.Cores || base.Seeds != cur.Seeds {
		fmt.Printf("baseline setup differs (%s/%d cores/%d seeds vs %s/%d/%d) — skipping comparison\n",
			base.Benchmark, base.Cores, base.Seeds, cur.Benchmark, cur.Cores, cur.Seeds)
		return nil
	}
	baseG, curG, n := 1.0, 1.0, 0
	baseA, curA, nA := 1.0, 1.0, 0
	for _, name := range policy.IDs() {
		b, ok := base.Policies[name]
		if !ok {
			continue
		}
		c := cur.Policies[name]
		if drift := relDiff(c.MakespanS, b.MakespanS); drift > 1e-9 {
			fmt.Printf("note: %s makespan drifted %.2g%% (%.6f → %.6f s) — scheduler decisions changed\n",
				name, 100*drift, b.MakespanS, c.MakespanS)
		}
		if drift := relDiff(c.EnergyJ, b.EnergyJ); drift > 1e-9 {
			fmt.Printf("note: %s energy drifted %.2g%% (%.2f → %.2f J)\n", name, 100*drift, b.EnergyJ, c.EnergyJ)
		}
		if b.NormThroughput > 0 && c.NormThroughput > 0 {
			baseG *= b.NormThroughput
			curG *= c.NormThroughput
			n++
			if loss := 1 - c.NormThroughput/b.NormThroughput; loss > maxRegress {
				fmt.Printf("note: %s cilk-normalized throughput %.3f → %.3f (%.1f%% below baseline)\n",
					name, b.NormThroughput, c.NormThroughput, 100*loss)
			}
		}
		if b.AllocsPerTask > 0 && c.AllocsPerTask > 0 {
			baseA *= b.AllocsPerTask
			curA *= c.AllocsPerTask
			nA++
			if growth := c.AllocsPerTask/b.AllocsPerTask - 1; growth > maxAllocRegress {
				fmt.Printf("note: %s allocs/task %.2f → %.2f (%.1f%% above baseline)\n",
					name, b.AllocsPerTask, c.AllocsPerTask, 100*growth)
			}
		}
	}
	if nA > 0 {
		baseA = math.Pow(baseA, 1/float64(nA))
		curA = math.Pow(curA, 1/float64(nA))
		if growth := curA/baseA - 1; growth > maxAllocRegress {
			return fmt.Errorf("sim allocations regressed %.1f%% (allocs/task geomean %.2f → %.2f), budget %.0f%%",
				100*growth, baseA, curA, 100*maxAllocRegress)
		}
	}
	for _, pol := range policy.IDs() {
		b, ok := base.SoA[pol]
		c, ok2 := cur.SoA[pol]
		if !ok || !ok2 || b.Depth != c.Depth {
			continue
		}
		if b.NormThroughput > 0 && c.NormThroughput > 0 {
			// A single-policy ratio swings roughly twice as much as the
			// four-policy geomean the sim gate averages over, so the
			// soa cells get double the budget.
			if loss := 1 - c.NormThroughput/b.NormThroughput; loss > 2*maxRegress {
				return fmt.Errorf("soa cell %s throughput regressed %.1f%% (cilk-normalized %.3f → %.3f), budget %.0f%%",
					pol, 100*loss, b.NormThroughput, c.NormThroughput, 100*2*maxRegress)
			}
		}
		// Absolute slack of 0.1 allocs/task keeps per-run fixed-cost
		// jitter (GC bookkeeping, map growth boundaries) from tripping a
		// relative gate on a near-zero baseline.
		if c.AllocsPerTask > b.AllocsPerTask*(1+maxAllocRegress)+0.1 {
			return fmt.Errorf("soa cell %s allocs/task regressed %.2f → %.2f, budget %.0f%% + 0.1",
				pol, b.AllocsPerTask, c.AllocsPerTask, 100*maxAllocRegress)
		}
	}
	if base.Serve != nil && cur.Serve != nil &&
		base.Serve.NormThroughput > 0 && cur.Serve.NormThroughput > 0 {
		if loss := 1 - cur.Serve.NormThroughput/base.Serve.NormThroughput; loss > maxServeRegress {
			return fmt.Errorf("serve throughput regressed %.1f%% (sim-normalized %.3f → %.3f), budget %.0f%%",
				100*loss, base.Serve.NormThroughput, cur.Serve.NormThroughput, 100*maxServeRegress)
		}
	} else if cur.Serve != nil && base.Serve == nil {
		fmt.Printf("note: baseline has no serve cell — recording %.0f tasks/s (norm %.3f) fresh\n",
			cur.Serve.TasksPerSec, cur.Serve.NormThroughput)
	}
	if base.Serve != nil && cur.Serve != nil && cur.Serve.AllocsPerJob > 0 {
		if base.Serve.AllocsPerJob > 0 {
			// Absolute slack of 2 allocs/job keeps fixed-cost jitter
			// (GC bookkeeping, ticker wakeups at low job counts) from
			// tripping a relative gate on the near-zero ingest path.
			if cur.Serve.AllocsPerJob > base.Serve.AllocsPerJob*(1+maxAllocRegress)+2 {
				return fmt.Errorf("serve allocs/job regressed %.1f → %.1f, budget %.0f%% + 2",
					base.Serve.AllocsPerJob, cur.Serve.AllocsPerJob, 100*maxAllocRegress)
			}
		} else {
			fmt.Printf("note: baseline has no serve allocs/job — recording %.1f fresh\n",
				cur.Serve.AllocsPerJob)
		}
	}
	if n == 0 {
		return nil
	}
	baseG = math.Pow(baseG, 1/float64(n))
	curG = math.Pow(curG, 1/float64(n))
	if loss := 1 - curG/baseG; loss > maxRegress {
		return fmt.Errorf("sim throughput regressed %.1f%% (cilk-normalized geomean %.3f → %.3f), budget %.0f%%",
			100*loss, baseG, curG, 100*maxRegress)
	}
	return nil
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}
