// Package rt is the live work-stealing runtime: EEWA's scheduling
// algorithms running on real goroutines with lock-free Chase–Lev
// deques, executing real task payloads (e.g. the internal/kernels
// compressors and hashes).
//
// All scheduling *decisions* — per-batch planning, task placement,
// steal preference order, out-of-work behaviour — come from
// internal/policy, the same code the discrete-event simulator
// executes; this package only supplies the execution substrate. All
// four policies (Cilk, Cilk-D, WATS, EEWA) therefore run live.
//
// Real DVFS needs root access and specific hardware, and Go cannot pin
// goroutines to cores, so the runtime emulates frequency scaling with
// *duty-cycle throttling*: a worker logically clocked at Fj runs each
// payload at native speed and then idles for (F0/Fj − 1)× the measured
// run time, making its effective throughput Fj/F0 of a full-speed
// worker. Everything the paper's scheduler observes — execution times,
// Eq. 1 normalization, class profiles, CC tables, c-groups, preference
// stealing — is then exercised for real, under true concurrency.
// Energy is accounted from the same power model the simulator uses,
// integrated over measured wall time per (state, level).
//
// The runtime is batch-structured like the paper's programs:
//
//	rt, _ := rt.New(cfg)
//	for i := 0; i < batches; i++ {
//	    stats := rt.RunBatch(tasks)   // blocks until the barrier
//	}
//	total := rt.Stats()
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgroup"
	"repro/internal/check"
	"repro/internal/deque"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/xrand"
)

// Task is one unit of live work.
type Task struct {
	// Class is the function name used for task-class profiling.
	Class string
	// Run is the payload, executed exactly once.
	Run func()
	// Cancelled, when non-nil, is consulted once after the task is
	// acquired and before Run: returning true skips the payload (the
	// task still counts as acquired exactly once, so task conservation
	// holds, and it is reported in BatchStats.Cancelled). This is the
	// cancellation hook a submission layer uses to drop
	// queued-but-unstarted work whose deadline expired after the batch
	// was formed. It must be safe to call from the worker goroutine.
	Cancelled func() bool
}

// Policy selects the scheduling discipline. The values mirror the
// canonical policy set of internal/policy; String returns the
// canonical identifier ("cilk", "cilk-d", "wats", "eewa").
type Policy int

const (
	// PolicyCilk: classic random stealing, all workers at full speed.
	PolicyCilk Policy = iota
	// PolicyEEWA: the paper's scheduler — profile, adjust virtual
	// frequencies per batch, preference stealing.
	PolicyEEWA
	// PolicyCilkD: Cilk with workers that run dry down-clocking to the
	// lowest frequency until the barrier.
	PolicyCilkD
	// PolicyWATS: workload-aware stealing on a frozen asymmetric
	// configuration (policy.DefaultWATSLevels).
	PolicyWATS
)

// String returns the canonical policy identifier.
func (p Policy) String() string {
	switch p {
	case PolicyCilk:
		return policy.IDCilk
	case PolicyCilkD:
		return policy.IDCilkD
	case PolicyWATS:
		return policy.IDWATS
	case PolicyEEWA:
		return policy.IDEEWA
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a canonical policy identifier (see policy.IDs) to
// the Policy enum.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case policy.IDCilk:
		return PolicyCilk, nil
	case policy.IDCilkD:
		return PolicyCilkD, nil
	case policy.IDWATS:
		return PolicyWATS, nil
	case policy.IDEEWA:
		return PolicyEEWA, nil
	default:
		return 0, fmt.Errorf("rt: unknown policy %q (want one of %v)", name, policy.IDs())
	}
}

// Policies returns every live policy in canonical order.
func Policies() []Policy {
	return []Policy{PolicyCilk, PolicyCilkD, PolicyWATS, PolicyEEWA}
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines ("cores").
	Workers int
	// Machine supplies the frequency ladder and power model; its core
	// count is overridden by Workers.
	Machine machine.Config
	// Policy selects the scheduling discipline (ignored when Impl is
	// set).
	Policy Policy
	// Impl, when non-nil, supplies the policy implementation directly
	// — e.g. a policy.EEWA with an offline profile, or a recording
	// wrapper in the parity tests.
	Impl policy.Policy
	// Seed drives victim selection.
	Seed uint64
	// Obs, when non-nil, receives the runtime's metrics: per-batch wall
	// time, worker busy/idle/barrier seconds, placement pool depths,
	// emulated DVFS transitions, census gauges and modeled energy (see
	// internal/obs). All observations happen at batch boundaries; the
	// worker hot loop is untouched, and a nil registry costs nothing.
	Obs *obs.Registry
	// Invariants enables the internal/check batch invariants: task
	// conservation (every spawned task acquired exactly once — executed,
	// or skipped through its Cancelled hook), the per-worker energy
	// identity, and plan feasibility. Violations are collected on the
	// runtime (Violations) and counted on the
	// eewa_rt_invariant_violations_total metric. Building with
	// -tags eewa_check forces this on for every runtime.
	Invariants bool
	// Hooks receives batch-lifecycle callbacks (both run on the
	// RunBatch caller's goroutine). A zero Hooks is inert.
	Hooks Hooks
}

// Hooks are the runtime's batch-lifecycle callbacks — the submission
// hook surface a serving layer (internal/serve) builds on. BatchStart
// fires after planning, immediately before workers launch; BatchEnd
// fires after the barrier with the batch's statistics. Either field may
// be nil. Empty batches fire neither.
type Hooks struct {
	BatchStart func(batch, tasks int)
	BatchEnd   func(batch int, stats BatchStats)
}

// WorkerSecs is one worker's wall-time decomposition for a batch, in
// seconds. The accounting identity is
//
//	Busy + Search + Dry + Halt − Residual = batch wall time
//
// exactly: Halt is the barrier-wait remainder, and Residual is the
// amount the remainder had to be clipped by because the modeled states
// overran the measured wall (it should be ≈0; a large value means a
// state is double-counted and the energy integral is wrong).
type WorkerSecs struct {
	// Busy is duty-cycle-stretched payload execution at the plan level.
	Busy float64
	// Search is work-search time (probe/steal/sleep) at the plan level.
	Search float64
	// Dry is post-out-of-work spin at the policy's out-of-work level.
	Dry float64
	// Halt is the barrier-wait remainder, clipped at zero.
	Halt float64
	// Residual is the clipped overrun (accounted, never silently lost).
	Residual float64
}

// ClassStats is one task class's share of a batch: executed tasks,
// duty-cycle-stretched busy seconds, and the busy-state energy those
// seconds drew at the executing workers' frequency levels. Summed over
// classes, EnergyJ is the attributable part of BatchStats.Energy; the
// remainder (search, dry spin, barrier halt, base draw) is scheduling
// overhead no single class caused.
type ClassStats struct {
	// Tasks is the number of payloads of this class that ran (cancelled
	// tasks are not counted).
	Tasks int
	// BusySecs is the summed duty-cycle-stretched execution time.
	BusySecs float64
	// EnergyJ is the busy-state energy integral over BusySecs.
	EnergyJ float64
}

// BatchStats summarizes one batch.
type BatchStats struct {
	// Wall is the batch's wall-clock duration.
	Wall time.Duration
	// Tasks is the number of tasks executed.
	Tasks int
	// Census is the number of workers at each frequency level.
	Census []int
	// Levels is the per-worker frequency level the plan assigned for
	// the batch.
	Levels []int
	// Steals counts non-local task acquisitions.
	Steals int
	// Cancelled counts tasks skipped through their Cancelled hook.
	Cancelled int
	// Energy is the modeled energy for the batch (joules).
	Energy float64
	// Workers is the per-worker wall-time decomposition the energy was
	// integrated from.
	Workers []WorkerSecs
	// Residual is the summed per-worker accounting residual (seconds).
	Residual float64
	// Classes attributes execution time and busy energy to each task
	// class that ran in the batch — the per-class half of the energy
	// attribution the serving layer turns into per-tenant counters.
	Classes map[string]ClassStats
}

// RunStats accumulates across batches.
type RunStats struct {
	Batches int
	Tasks   int
	Wall    time.Duration
	Energy  float64
	Steals  int
}

// Runtime executes batches of tasks under a policy.
type Runtime struct {
	cfg    Config
	ladder machine.FreqLadder
	pol    policy.Policy
	prof   *profile.Profiler
	profMu sync.Mutex

	plan   policy.Plan
	asn    *cgroup.Assignment
	levels []int // per-worker frequency level for the current batch

	// pools[worker][group] — reused across batches while the worker
	// count and the plan's group count u hold (a completed batch drains
	// every deque, so only a shape change forces a rebuild). RunBatch is
	// single-caller, so no synchronization is needed between batches.
	pools [][]*deque.Chase[*Task]
	// walkers[worker] — each worker's victim walker, rebound to the new
	// steal order every batch, so searching for work allocates nothing.
	walkers []*policy.VictimWalker

	batchIndex int
	idealTime  time.Duration

	ro rtObs

	inv        bool
	violations []check.Violation

	stats RunStats
}

// New validates cfg and builds a runtime. Workers must be ≥ 1.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("rt: need at least one worker, got %d", cfg.Workers)
	}
	mc := cfg.Machine
	mc.Cores = cfg.Workers
	if err := mc.Validate(); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	cfg.Machine = mc
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	pol := cfg.Impl
	if pol == nil {
		var err error
		pol, err = policy.New(cfg.Policy.String(), mc)
		if err != nil {
			return nil, fmt.Errorf("rt: %w", err)
		}
	}
	r := &Runtime{
		cfg:    cfg,
		ladder: mc.Freqs,
		pol:    pol,
		prof:   profile.New(mc.Freqs),
		levels: make([]int, cfg.Workers),
		asn:    cgroup.AllFast(cfg.Workers, nil),
		ro:     newRTObs(cfg.Obs, len(mc.Freqs)),
		inv:    cfg.Invariants || check.BuildEnabled,
	}
	return r, nil
}

// Stats returns the accumulated run statistics.
func (r *Runtime) Stats() RunStats { return r.stats }

// Violations returns the invariant violations collected so far (always
// empty unless Config.Invariants or the eewa_check build tag enabled
// checking). A healthy runtime returns an empty slice forever.
func (r *Runtime) Violations() []check.Violation {
	return append([]check.Violation(nil), r.violations...)
}

// record registers invariant violations on the runtime and the metrics
// registry.
func (r *Runtime) record(vs []check.Violation) {
	if len(vs) == 0 {
		return
	}
	r.violations = append(r.violations, vs...)
	for _, v := range vs {
		r.ro.violation(v.Invariant)
	}
}

// Census returns the current per-level worker counts.
func (r *Runtime) Census() []int {
	census := make([]int, len(r.ladder))
	for _, l := range r.levels {
		census[l]++
	}
	return census
}

// RunBatch executes one batch of tasks and blocks until all complete.
// Between batches the policy plans: under EEWA that means running the
// workload-aware frequency adjuster on the previous batch's profile.
func (r *Runtime) RunBatch(tasks []Task) BatchStats {
	if len(tasks) == 0 {
		return BatchStats{Census: r.Census()}
	}
	r.planBatch()
	bi := r.batchIndex // stable across the increment below
	if h := r.cfg.Hooks.BatchStart; h != nil {
		h(bi, len(tasks))
	}

	n := r.cfg.Workers
	u := r.asn.U()
	if len(r.pools) != n || len(r.pools[0]) != u {
		r.pools = make([][]*deque.Chase[*Task], n)
		for w := 0; w < n; w++ {
			r.pools[w] = make([]*deque.Chase[*Task], u)
			for g := 0; g < u; g++ {
				r.pools[w][g] = deque.NewChase[*Task]()
			}
		}
	}
	pools := r.pools

	// Placement per the plan's discipline (scatter or by class over
	// each class's reserved placement cores) — shared with the sim.
	placer := policy.NewPlacer(&r.plan, n)
	var depths []int // per-worker placement count, metrics only
	if r.ro.reg != nil {
		depths = make([]int, n)
	}
	// Task-conservation bookkeeping: execution counts indexed through a
	// read-only pointer→index map built during (single-threaded)
	// placement. Nil and untouched unless invariants are on.
	var execs []atomic.Int32
	var taskIdx map[*Task]int
	if r.inv {
		execs = make([]atomic.Int32, len(tasks))
		taskIdx = make(map[*Task]int, len(tasks))
	}
	for i := range tasks {
		t := &tasks[i]
		w, g := placer.Place(t.Class)
		pools[w][g].PushBottom(t)
		if depths != nil {
			depths[w]++
		}
		if taskIdx != nil {
			taskIdx[t] = i
		}
	}

	stealOrder := policy.NewStealOrder(&r.plan, n)
	if r.walkers == nil {
		r.walkers = make([]*policy.VictimWalker, n)
		for w := range r.walkers {
			r.walkers[w] = stealOrder.Walker(w)
		}
	} else {
		for _, w := range r.walkers {
			w.Bind(stealOrder)
		}
	}
	var (
		steals    atomic.Int64
		cancelled atomic.Int64
		dvfs      atomic.Int64
		remain    atomic.Int64
		busyNS    = make([]atomic.Int64, n)
		spinNS    = make([]atomic.Int64, n) // out-of-work spin at idleLevels[w]
		idleNS    = make([]atomic.Int64, n) // work-search lead-in at levels[w]
	)
	idleLevels := make([]int, n)
	copy(idleLevels, r.levels)
	// Per-worker class attribution: each worker owns its map (no
	// contention in the hot loop); the per-class histogram handle is
	// resolved once per class per worker, after which Observe is a
	// lock-free atomic add. Folded into BatchStats.Classes at the
	// barrier.
	classAggs := make([]map[string]*classAgg, n)
	remain.Store(int64(len(tasks)))
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New(r.cfg.Seed + uint64(id)*0x9E3779B97F4A7C15 + uint64(r.batchIndex))
			walker := r.walkers[id]
			aggs := map[string]*classAgg{}
			classAggs[id] = aggs
			myG := r.asn.CoreGroup[id]
			level := r.levels[id]
			ratio := r.ladder.Ratio(level)
			outOfWork := false
			spinStart := time.Now()
			for remain.Load() > 0 {
				t, stolen := acquire(pools, walker, id, myG, rng)
				if t == nil {
					// Every reachable pool looked empty: apply the
					// policy's out-of-work action once. Pools only
					// drain mid-batch, so from here until the barrier
					// (or until a racing steal surfaces a stray task)
					// the worker spins at the action's level — that is
					// what Cilk-D and EEWA down-clock.
					if !outOfWork {
						outOfWork = true
						idleNS[id].Add(int64(time.Since(spinStart)))
						spinStart = time.Now()
						if act := r.pol.OutOfWork(id); act.FreqLevel >= 0 && act.FreqLevel != idleLevels[id] {
							idleLevels[id] = act.FreqLevel
							dvfs.Add(1)
						}
					}
					time.Sleep(20 * time.Microsecond)
					continue
				}
				if stolen {
					steals.Add(1)
				}
				search := int64(time.Since(spinStart))
				if outOfWork {
					// A racing steal lost earlier; the worker is back.
					outOfWork = false
					spinNS[id].Add(search)
				} else {
					idleNS[id].Add(search)
				}

				if execs != nil {
					execs[taskIdx[t]].Add(1)
				}
				// Acquired-but-cancelled: the submission layer withdrew
				// the task (e.g. its deadline expired while it waited in
				// a pool). It still counts as acquired exactly once.
				if t.Cancelled != nil && t.Cancelled() {
					cancelled.Add(1)
					remain.Add(-1)
					spinStart = time.Now()
					continue
				}

				t0 := time.Now()
				t.Run()
				dur := time.Since(t0)
				// Duty-cycle throttle: stretch to dur × F0/Flevel.
				if ratio > 1 {
					time.Sleep(time.Duration(float64(dur) * (ratio - 1)))
				}
				wall := time.Duration(float64(dur) * ratio)
				busyNS[id].Add(int64(wall))
				a := aggs[t.Class]
				if a == nil {
					a = &classAgg{hist: r.ro.execHist(t.Class)}
					aggs[t.Class] = a
				}
				a.secs += wall.Seconds()
				a.tasks++
				a.hist.Observe(wall.Seconds())

				r.profMu.Lock()
				r.prof.Record(t.Class, wall.Seconds(), level, 0)
				r.profMu.Unlock()

				remain.Add(-1)
				spinStart = time.Now()
			}
			if outOfWork {
				spinNS[id].Add(int64(time.Since(spinStart)))
			} else {
				idleNS[id].Add(int64(time.Since(spinStart)))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	// Energy accounting from the shared power model: busy and
	// work-search spin at the worker's level, post-dry spin at the
	// out-of-work level the policy chose, the barrier-wait remainder
	// as halted. When the modeled states overrun the measured wall
	// (duty-cycle stretch rounding, timer overshoot) the overrun is
	// accounted as an explicit residual — clipping it silently would
	// hide search/dry double-counting from the energy identity.
	pm := r.cfg.Machine.Power
	energy := pm.Base * wall.Seconds()
	workers := make([]WorkerSecs, n)
	classes := make(map[string]ClassStats, 4)
	var busyTot, spinTot, haltTot, residTot float64
	for w := 0; w < n; w++ {
		level := r.levels[w]
		busyPower := pm.CorePower(machine.Busy, level, level, r.ladder)
		for name, a := range classAggs[w] {
			cs := classes[name]
			cs.Tasks += a.tasks
			cs.BusySecs += a.secs
			cs.EnergyJ += a.secs * busyPower
			classes[name] = cs
		}
		busy := time.Duration(busyNS[w].Load()).Seconds()
		search := time.Duration(idleNS[w].Load()).Seconds()
		dry := time.Duration(spinNS[w].Load()).Seconds()
		halt := wall.Seconds() - busy - search - dry
		var residual float64
		if halt < 0 {
			residual = -halt
			halt = 0
		}
		workers[w] = WorkerSecs{Busy: busy, Search: search, Dry: dry, Halt: halt, Residual: residual}
		busyTot += busy
		spinTot += search + dry
		haltTot += halt
		residTot += residual
		// The live runtime has no package topology: use own-level
		// voltage (PackageSize 1 semantics).
		energy += busy * busyPower
		energy += search * pm.CorePower(machine.Spinning, level, level, r.ladder)
		energy += dry * pm.CorePower(machine.Spinning, idleLevels[w], idleLevels[w], r.ladder)
		energy += halt * pm.CorePower(machine.Halted, level, level, r.ladder)
	}

	if r.batchIndex == 0 {
		r.idealTime = wall
	}
	r.batchIndex++
	r.ro.dvfs.Add(float64(dvfs.Load()))

	bs := BatchStats{
		Wall:      wall,
		Tasks:     len(tasks),
		Census:    r.Census(),
		Levels:    append([]int(nil), r.levels...),
		Steals:    int(steals.Load()),
		Cancelled: int(cancelled.Load()),
		Energy:    energy,
		Workers:   workers,
		Residual:  residTot,
		Classes:   classes,
	}
	r.stats.Batches++
	r.stats.Tasks += len(tasks)
	r.stats.Wall += wall
	r.stats.Energy += energy
	r.stats.Steals += bs.Steals
	r.ro.observeBatch(bs, busyTot, spinTot, haltTot, depths)
	if r.inv {
		r.record(check.TaskConservation(execCounts(execs)))
		// Tolerance: the identity is exact by construction up to float
		// rounding; the residual itself must stay negligible. Timer
		// quantization bounds per-interval error at well under a
		// millisecond per task, so a whole millisecond plus a small
		// fraction of the wall is a conservative ceiling.
		tol := 1e-3 + 0.01*wall.Seconds()
		for w := range workers {
			ws := workers[w]
			r.record(check.EnergyIdentity(w, wall.Seconds(), ws.Busy, ws.Search, ws.Dry, ws.Halt, ws.Residual, tol))
		}
	}
	if h := r.cfg.Hooks.BatchEnd; h != nil {
		h(bi, bs)
	}
	return bs
}

// classAgg is one worker's running attribution for one task class: the
// stretched busy seconds and task count, plus the worker's cached
// handle on the class's execution-latency histogram (nil when
// observability is off — Observe on a nil handle no-ops).
type classAgg struct {
	secs  float64
	tasks int
	hist  *obs.LogHistogram
}

// execCounts copies the atomic per-task execution counters into the
// plain slice the invariant checker takes.
func execCounts(execs []atomic.Int32) []int32 {
	out := make([]int32, len(execs))
	for i := range execs {
		out[i] = execs[i].Load()
	}
	return out
}

// planBatch asks the policy for the batch's plan (under EEWA: the
// frequency adjuster over the previous batch's profile) and applies
// the resulting assignment to the workers.
func (r *Runtime) planBatch() {
	env := &policy.Env{Cfg: r.cfg.Machine, IdealTime: r.idealTime.Seconds()}
	r.profMu.Lock()
	plan := r.pol.BeginBatch(r.batchIndex, r.prof, env)
	r.prof.Reset()
	r.profMu.Unlock()
	if plan.Assignment == nil {
		plan.Assignment = cgroup.AllFast(r.cfg.Workers, nil)
	}
	r.plan = plan
	r.asn = plan.Assignment
	if plan.Adjusted && r.ro.reg != nil {
		r.ro.adjInv.Inc()
		r.ro.adjHost.Add(plan.HostTime.Seconds())
		if plan.CacheHit {
			r.ro.planHits.Inc()
		} else {
			r.ro.planMisses.Inc()
		}
	}
	if r.inv {
		r.record(check.PlanFeasible(r.plan.Assignment, r.cfg.Workers, len(r.ladder)))
	}
	r.applyLevels()
}

func (r *Runtime) applyLevels() {
	transitions := 0
	for w := range r.levels {
		next := r.asn.FreqOf(w)
		if next != r.levels[w] {
			transitions++
		}
		r.levels[w] = next
	}
	// The very first application clocks workers from their zero-value
	// level, which is not a transition.
	if r.batchIndex > 0 {
		r.ro.dvfs.Add(float64(transitions))
	}
}

// acquire finds the next task for worker id: local pool first, then
// remote pools in the policy's victim order, walked by the worker's own
// walker so a failed search allocates nothing. Returns nil when every
// reachable pool is empty right now. The walk gets no pending counts:
// workers race on the pools, so no exact count exists to skip by.
func acquire(pools [][]*deque.Chase[*Task], walker *policy.VictimWalker, id, myG int, rng *xrand.RNG) (*Task, bool) {
	if t, ok := pools[id][myG].PopBottom(); ok {
		return t, false
	}
	var got *Task
	walker.ForEachVictim(rng, nil, func(v, g int) bool {
		t, ok := pools[v][g].Steal()
		if !ok {
			return false
		}
		got = t
		return true
	}, nil)
	return got, got != nil
}
