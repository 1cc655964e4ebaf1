package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/workloads"
)

// simRun is one simulation: a workload instance under one policy.
// Consecutive runs with the same job index form one job.
type simRun struct {
	job    int
	bench  string
	policy string
	seed   uint64
	w      *task.Workload
	tasks  int
}

// simOutcome is what determinism compares: a run's makespan and energy
// bits, plus the counts the per-layer metrics sum.
type simOutcome struct {
	makespan, energy     uint64 // math.Float64bits
	steals, probes, dvfs int
	batches, tasks       int
}

// planStats is filled by timedPolicy: host time inside BeginBatch and
// what the plans report.
type planStats struct {
	batches, steps, adjusted, hits int
	elapsed                        time.Duration
}

// timedPolicy times calls into the policy it wraps; the engine sees the
// same decisions.
type timedPolicy struct {
	policy.Policy
	st *planStats
}

func (p timedPolicy) BeginBatch(bi int, prof *profile.Profiler, env *policy.Env) policy.Plan {
	start := time.Now()
	plan := p.Policy.BeginBatch(bi, prof, env)
	p.st.elapsed += time.Since(start)
	p.st.batches++
	p.st.steps += plan.SearchSteps
	if plan.Adjusted {
		p.st.adjusted++
		if plan.CacheHit {
			p.st.hits++
		}
	}
	return plan
}

// simSuite runs a list of simulations sequentially on the calling
// goroutine, pass after pass, checking every pass against the first.
// Latency and CPU are per job: for sim-table2 a job is the seven
// Table II benchmarks under the four policies at one seed, so every job
// is the same mix and the latency tail is not a cliff between
// benchmarks. A job's latency is its process CPU time: the loop is one
// goroutine that never waits, so CPU time is its wall time minus what
// the host took away (steal), which would otherwise set the tail.
type simSuite struct {
	cfg  machine.Config
	runs []simRun
	plan *planStats // non-nil: wrap policies in timedPolicy

	first      []simOutcome // reference pass
	lat        []float64    // per-job process CPU time (ms) of measured passes
	rates      []float64    // per measured pass: simulated tasks per process CPU second
	sims, jobs int          // simulations and jobs in measured passes
	sum        simOutcome   // counts summed over measured passes
	mismatches int
}

func newSimSuite(cfg machine.Config, runs []simRun) *simSuite {
	return &simSuite{cfg: cfg, runs: runs}
}

// pass runs every simulation once. The first pass is the reference the
// later ones must reproduce bit for bit; it is not measured.
func (s *simSuite) pass() error {
	measured := s.first != nil
	cpu0 := cpuTime()
	jobStart := cpu0
	tasks := 0
	for i, r := range s.runs {
		p, err := policy.New(r.policy, s.cfg)
		if err != nil {
			return err
		}
		if s.plan != nil && measured {
			p = timedPolicy{p, s.plan}
		}
		params := sched.DefaultParams()
		params.Seed = r.seed
		res, err := sched.Run(s.cfg, r.w, p, params)
		if err != nil {
			return fmt.Errorf("%s/%s seed %d: %w", r.bench, r.policy, r.seed, err)
		}
		o := simOutcome{
			makespan: math.Float64bits(res.Makespan), energy: math.Float64bits(res.Energy),
			steals: res.Steals, probes: res.Probes, dvfs: res.DVFSTransitions,
			batches: len(res.BatchTimes), tasks: r.tasks,
		}
		if !measured {
			s.first = append(s.first, o)
			continue
		}
		if o != s.first[i] {
			s.mismatches++
		}
		if i+1 == len(s.runs) || s.runs[i+1].job != r.job {
			now := cpuTime()
			s.lat = append(s.lat, float64(now-jobStart)/1e6)
			jobStart = now
			s.jobs++
		}
		s.sims++
		s.sum.steals += o.steals
		s.sum.probes += o.probes
		s.sum.dvfs += o.dvfs
		s.sum.batches += o.batches
		s.sum.tasks += o.tasks
		tasks += r.tasks
	}
	if measured {
		s.rates = append(s.rates, float64(tasks)/(cpuTime()-cpu0).Seconds())
	}
	return nil
}

// runFor runs the reference pass if needed, then measured passes until
// d has elapsed and at least minPasses were measured.
func (s *simSuite) runFor(d time.Duration, minPasses int) error {
	if s.first == nil {
		if err := s.pass(); err != nil {
			return err
		}
	}
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < d; n++ {
		if err := s.pass(); err != nil {
			return err
		}
	}
	return nil
}

// simVerdict is the paper's comparison over a suite's reference pass:
// per benchmark, EEWA's mean energy and makespan over Cilk's, averaged
// over benchmarks as Fig. 6 does.
type simVerdict struct {
	savingPct, slowdownPct float64 // 100·(1−E_eewa/E_cilk), 100·T_eewa/T_cilk
	jPerJob                float64 // modelled energy per job (all its runs)
	eewaAboveCilk          []string
}

func (s *simSuite) verdict() simVerdict {
	type acc struct{ e, t float64 }
	per := map[string]map[string]*acc{}
	var order []string
	var v simVerdict
	jobs := 0
	for i, r := range s.runs {
		o := s.first[i]
		if per[r.bench] == nil {
			per[r.bench] = map[string]*acc{}
			order = append(order, r.bench)
		}
		a := per[r.bench][r.policy]
		if a == nil {
			a = &acc{}
			per[r.bench][r.policy] = a
		}
		e := math.Float64frombits(o.energy)
		a.e += e
		a.t += math.Float64frombits(o.makespan)
		v.jPerJob += e
		if i+1 == len(s.runs) || s.runs[i+1].job != r.job {
			jobs++
		}
	}
	v.jPerJob /= float64(jobs)
	var eRatio, tRatio float64
	for _, b := range order {
		c, e := per[b][policy.IDCilk], per[b][policy.IDEEWA]
		eRatio += e.e / c.e
		tRatio += e.t / c.t
		if e.e >= c.e {
			v.eewaAboveCilk = append(v.eewaAboveCilk, b)
		}
	}
	n := float64(len(order))
	v.savingPct = 100 * (1 - eRatio/n)
	v.slowdownPct = 100 * tRatio / n
	return v
}

// table2Runs instantiates the sim-table2 inputs: every Table II
// benchmark at seeds seed, seed+1, seed+2 (seed 1 is the paper
// harness's seeds 1–3), each under the four policies.
func table2Runs(seed uint64) []simRun {
	var runs []simRun
	for job := 0; job < 3; job++ {
		s := seed + uint64(job)
		for _, b := range workloads.All() {
			w := b.Workload(s)
			n := w.TotalTasks()
			for _, pol := range policy.IDs() {
				runs = append(runs, simRun{job: job, bench: b.Name, policy: pol, seed: s, w: w, tasks: n})
			}
		}
	}
	return runs
}

// simPhase is one measured stretch of a suite.
type simPhase struct {
	suite  *simSuite
	cpu    time.Duration
	allocs uint64
	prof   []stackSample
}

func (p *simPhase) tasksPerS() float64 { return median(p.suite.rates) }
func (p *simPhase) p50() float64       { return quantile(p.suite.lat, 0.50) }
func (p *simPhase) p99() float64       { return quantile(p.suite.lat, 0.99) }
func (p *simPhase) cpuPerJob() float64 {
	return float64(p.cpu) / 1e3 / float64(p.suite.jobs)
}

// measureSim runs suite for d. With traced set it profiles the phase
// and times every BeginBatch.
func measureSim(suite *simSuite, d time.Duration, traced bool) (*simPhase, error) {
	if err := suite.runFor(0, 0); err != nil { // reference pass, unmeasured
		return nil, err
	}
	runtime.GC() // so one phase's garbage is not charged to the next
	ph := &simPhase{suite: suite}
	var prof *cpuProfiler
	if traced {
		suite.plan = &planStats{}
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	allocs0, cpu0 := heapAllocs(), cpuTime()
	err := suite.runFor(d, 2)
	ph.cpu, ph.allocs = cpuTime()-cpu0, heapAllocs()-allocs0
	if prof != nil {
		samples, perr := prof.stop()
		if err == nil {
			err = perr
		}
		ph.prof = samples
	}
	return ph, err
}

// checkSim records the determinism check of a measured phase.
func checkSim(rep *report, name string, ph *simPhase) {
	rep.attempted += ph.suite.sims
	rep.failed += ph.suite.mismatches
	rep.check(ph.suite.mismatches == 0, "%s: %d of %d runs did not reproduce the reference makespan/energy bits",
		name, ph.suite.mismatches, ph.suite.sims)
}

// reportSimE2E sets the end-to-end metrics a sim phase measures.
func reportSimE2E(rep *report, ph *simPhase, v simVerdict) {
	rep.setN("sim_tasks_per_s", ph.tasksPerS(), len(ph.suite.rates))
	rep.set("sim_energy_saving_pct", v.savingPct)
	rep.set("sim_slowdown_pct", v.slowdownPct)
}

// reportSimLayers sets the sim.* per-layer metrics of a traced phase.
func reportSimLayers(rep *report, ph *simPhase) layerCPU {
	s := ph.suite
	tasks := float64(s.sum.tasks)
	lc := attribute(ph.prof, simLayers, float64(ph.cpu))
	for _, g := range simLayers {
		rep.setN(g.metric, lc.groupNS[g.metric]/tasks, lc.groupSamples[g.metric])
	}
	rep.set("sim.allocs_per_task", float64(ph.allocs)/tasks)
	st := s.plan
	rep.setN("sim.plan.us_per_batch", float64(st.elapsed)/1e3/float64(st.batches), st.batches)
	rep.setN("sim.plan.search_steps_per_batch", float64(st.steps)/float64(st.batches), st.batches)
	if st.adjusted > 0 {
		rep.setN("sim.plan.cache_hit_ratio", float64(st.hits)/float64(st.adjusted), st.adjusted)
	}
	rep.set("sim.steal.steals_per_task", float64(s.sum.steals)/tasks)
	if s.sum.probes > 0 {
		rep.set("sim.steal.success_ratio", float64(s.sum.steals)/float64(s.sum.probes))
	}
	rep.set("sim.machine.dvfs_per_batch", float64(s.sum.dvfs)/float64(s.sum.batches))
	return lc
}

func runSimTable2(seed uint64, d time.Duration, trace bool, rep *report) error {
	cfg := machine.Opteron16()
	var runs []simRun
	var setups []float64
	for k := 0; k < 9; k++ {
		start := time.Now()
		runs = table2Runs(seed)
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.setN("setup_s", median(setups), len(setups))

	if !trace {
		ph, err := measureSim(newSimSuite(cfg, runs), d, false)
		if err != nil {
			return err
		}
		checkSim(rep, "sim-table2", ph)
		v := ph.suite.verdict()
		rep.check(len(v.eewaAboveCilk) == 0, "EEWA energy not below Cilk on %v", v.eewaAboveCilk)
		reportSimE2E(rep, ph, v)
		rep.setN("p50_ms", ph.p50(), len(ph.suite.lat))
		rep.setN("p99_ms", ph.p99(), len(ph.suite.lat))
		rep.setN("cpu_us_per_job", ph.cpuPerJob(), ph.suite.jobs)
		rep.set("j_per_job", v.jPerJob)
		return nil
	}

	// Traced: an untraced half, then a profiled half with timed
	// planning; the difference is the tracing overhead.
	un, err := measureSim(newSimSuite(cfg, runs), d/2, false)
	if err != nil {
		return err
	}
	tr, err := measureSim(newSimSuite(cfg, runs), d/2, true)
	if err != nil {
		return err
	}
	checkSim(rep, "sim-table2 untraced", un)
	checkSim(rep, "sim-table2 traced", tr)
	lc := reportSimLayers(rep, tr)
	reportProfile(rep, lc)
	jobs := float64(tr.suite.jobs)
	rep.setN("gen.cpu_us_per_job", float64(tr.cpu)*lc.unitShare(uGen)/1e3/jobs, lc.byUnit[uGen])
	rep.set("gen.sent", float64(tr.suite.sims))
	rep.set("gen.ok", float64(tr.suite.sims-tr.suite.mismatches))
	rep.set("trace.overhead.p50_ms_pct", pctChange(un.p50(), tr.p50()))
	rep.set("trace.overhead.p99_ms_pct", pctChange(un.p99(), tr.p99()))
	rep.set("trace.overhead.cpu_us_per_job_pct", pctChange(un.cpuPerJob(), tr.cpuPerJob()))
	rep.set("trace.overhead.sim_tasks_per_s_pct", pctChange(un.tasksPerS(), tr.tasksPerS()))
	return nil
}

// reportProfile sets the profile's own metrics and notes where the
// unattributed samples went.
func reportProfile(rep *report, lc layerCPU) {
	rep.set("profile.samples", float64(lc.samples))
	rep.setN("profile.unattributed_share", lc.unattributed, lc.samples)
	rep.set("profile.coverage", lc.coverage)
	for u, n := range lc.unmapped {
		rep.note("unattributed: %d samples in %q", n, u)
	}
}
