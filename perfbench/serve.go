package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// serveSpec is an open-loop serve workload: Poisson arrivals from
// `tenants` equal cohorts sharing one class mix, measured over `lives`
// independent server lifetimes, each warmed up first.
//
// EEWA takes its target batch time T from a server's first batch, so
// one server's energy hinges on which jobs happen to arrive first;
// pooling several lives measures the expectation over starts, while
// longer lives keep start-up transients out of the latency tail.
type serveSpec struct {
	name      string
	tenants   int
	rateJPS   float64 // total over all tenants
	mix       []traffic.ClassMix
	deadlineS float64
	lives     int
	warmup    time.Duration // traffic sent before measuring, on the same server
}

// Work hints are per-task seconds at F0: each kernel's measured time at
// its size on a 2-vCPU x86-64 host at 2.0 GHz, with a 10% spread. The
// batcher packs heavier-hinted jobs first and the simulator replays
// them as task work.
var ingestSpec = serveSpec{
	name: "serve-ingest", tenants: 8, rateJPS: 2000, lives: 6, warmup: time.Second,
	mix: []traffic.ClassMix{{Class: "sha1", Weight: 1, Count: 1, SizeBytes: 256, MeanWorkS: 3.5e-6, StddevWorkS: 0.35e-6}},
}

var mixedSpec = serveSpec{
	name: "serve-mixed", tenants: 8, rateJPS: 80, deadlineS: 2, lives: 16, warmup: 250 * time.Millisecond,
	mix: []traffic.ClassMix{
		{Class: "sha1", Weight: 1, Count: 4, SizeBytes: 32 << 10, MeanWorkS: 330e-6, StddevWorkS: 33e-6},
		{Class: "md5", Weight: 1, Count: 4, SizeBytes: 32 << 10, MeanWorkS: 230e-6, StddevWorkS: 23e-6},
		{Class: "lzw", Weight: 1, Count: 2, SizeBytes: 16 << 10, MeanWorkS: 1e-3, StddevWorkS: 100e-6},
		{Class: "bzip2", Weight: 1, Count: 2, SizeBytes: 16 << 10, MeanWorkS: 21e-3, StddevWorkS: 2.1e-3},
		{Class: "dmc", Weight: 1, Count: 2, SizeBytes: 8 << 10, MeanWorkS: 2.8e-3, StddevWorkS: 280e-6},
	},
}

const (
	flushEvery = 25 * time.Millisecond
	maxBatch   = 64
	// lateLimit flags a phase whose generator fell behind: its median
	// request went out more than a flush interval after its due time,
	// so arrivals land in later batches than the schedule says.
	lateLimit = flushEvery
)

// serveInputs are one phase's generated requests: the warm-up events
// and the measured events (offsets relative to the measured start),
// with their JSON bodies.
type serveInputs struct {
	warm, events       []traffic.Event
	warmBodies, bodies [][]byte
}

// genInputs generates the arrival schedule from seed with
// internal/traffic and encodes every request body up front.
func genInputs(sp serveSpec, seed uint64, measured time.Duration) (*serveInputs, error) {
	spec := traffic.Spec{Name: sp.name, DurationS: (sp.warmup + measured).Seconds(), Seed: seed}
	for i := 0; i < sp.tenants; i++ {
		spec.Cohorts = append(spec.Cohorts, traffic.Cohort{
			Tenant:        fmt.Sprintf("tenant-%d", i),
			Arrival:       traffic.Arrival{Kind: traffic.ArrivalPoisson, RateJPS: sp.rateJPS / float64(sp.tenants)},
			Mix:           sp.mix,
			DeadlineMeanS: sp.deadlineS,
		})
	}
	tr, err := traffic.Generate(spec)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{}
	for _, ev := range tr.Events {
		body, err := json.Marshal(serve.JobRequest{
			Tenant: ev.Tenant, Func: ev.Class, SizeBytes: ev.SizeBytes, Count: ev.Count,
			Seed: ev.Seed, DeadlineMS: ev.DeadlineMS, WorkHintS: ev.WorkHintS,
		})
		if err != nil {
			return nil, err
		}
		if ev.OffsetS < sp.warmup.Seconds() {
			in.warm = append(in.warm, ev)
			in.warmBodies = append(in.warmBodies, body)
			continue
		}
		ev.OffsetS -= sp.warmup.Seconds()
		in.events = append(in.events, ev)
		in.bodies = append(in.bodies, body)
	}
	if len(in.events) == 0 {
		return nil, fmt.Errorf("%s: empty schedule", sp.name)
	}
	return in, nil
}

// newServer builds the server eewa-serve deploys by default: one
// shard, Workers = CPUs, 25 ms flush, MaxBatch 64, an obs registry
// unless withObs is false.
func newServer(seed uint64, withObs, invariants bool) (*serve.Server, *obs.Registry, error) {
	var reg *obs.Registry
	if withObs {
		reg = obs.NewRegistry()
	}
	srv, err := serve.New(serve.Config{
		Workers:    runtime.NumCPU(),
		Machine:    machine.Opteron16(),
		Policy:     *servePolicy,
		Seed:       seed,
		MaxBatch:   maxBatch,
		FlushEvery: flushEvery,
		Obs:        reg,
		Invariants: invariants,
	})
	return srv, reg, err
}

func drain(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// reqRec is one request's record; it is also the request's
// http.ResponseWriter, so a handler writing twice is visible.
type reqRec struct {
	late    time.Duration // dispatched − due
	lat     time.Duration // answered − due
	handler time.Duration // inside ServeHTTP
	hdr     http.Header
	status  int
	headers int // WriteHeader calls
	body    []byte
	res     serve.JobResult
}

func (r *reqRec) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *reqRec) WriteHeader(code int) {
	r.headers++
	if r.status == 0 {
		r.status = code
	}
}

func (r *reqRec) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	r.body = append(r.body, b...)
	return len(b), nil
}

var jobsURL = &url.URL{Path: "/v1/jobs"}

// dispatch sends every event at its due time, one goroutine per
// request as net/http would, and returns once every request has been
// answered. Latency runs from the due time, so a stall also charges
// the requests it delayed.
func dispatch(h http.Handler, evs []traffic.Event, bodies [][]byte) []reqRec {
	recs := make([]reqRec, len(evs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range evs {
		due := time.Duration(evs[i].OffsetS * 1e9)
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		rec := &recs[i]
		rec.late = time.Since(start) - due
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			req := &http.Request{Method: http.MethodPost, URL: jobsURL, Header: http.Header{},
				Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
			t := time.Now()
			h.ServeHTTP(rec, req)
			rec.handler = time.Since(t)
			rec.lat = time.Since(start) - due
		}(bodies[i])
	}
	wg.Wait()
	return recs
}

// outcomes counts a phase's responses by kind. tasksRun sums the
// tasks_run the responses report (200 bodies and 504 partials);
// unreported counts non-200 responses without a partial result, whose
// job may still have run tasks.
type outcomes struct{ sent, ok, rejected, expired, errored, tasksRun, unreported int }

// checkRecs applies the per-response checks: answered exactly once,
// and every 200 body decodes with tasks_run == tasks == count and
// echoes func and tenant. It decodes res for later use.
func checkRecs(rep *report, phase string, evs []traffic.Event, recs []reqRec) outcomes {
	var o outcomes
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		if bad <= 5 {
			rep.check(false, phase+": "+format, args...)
		}
	}
	for i := range recs {
		r, ev := &recs[i], evs[i]
		o.sent++
		if r.headers != 1 {
			fail("request %d answered %d times", i, r.headers)
			continue
		}
		switch r.status {
		case http.StatusOK:
			o.ok++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			o.rejected++
		case http.StatusGatewayTimeout:
			o.expired++
		default:
			o.errored++
		}
		if r.status != http.StatusOK {
			var partial struct{ Partial *serve.JobResult }
			if json.Unmarshal(r.body, &partial) == nil && partial.Partial != nil {
				o.tasksRun += partial.Partial.TasksRun
			} else {
				o.unreported++
			}
			continue
		}
		if err := json.Unmarshal(r.body, &r.res); err != nil {
			fail("request %d: undecodable 200 body: %v", i, err)
			continue
		}
		o.tasksRun += r.res.TasksRun
		if r.res.TasksRun != r.res.Tasks || r.res.Tasks != ev.Count || r.res.Func != ev.Class || r.res.Tenant != ev.Tenant {
			fail("request %d: body %+v does not match request (%s/%s ×%d)", i, r.res, ev.Tenant, ev.Class, ev.Count)
		}
	}
	rep.check(bad <= 5, "%s: %d more failed responses", phase, bad-5)
	return o
}

// regSnap is the subset of the obs registry the ledger reads.
type regSnap struct {
	rtBatches, rtTasks, rtSteals, adjSecs float64
	batchTaskCount, batchTaskSum          float64
}

func snapRegistry(reg *obs.Registry) regSnap {
	val := func(name string) float64 {
		if c, ok := reg.At(name).(*obs.Counter); ok {
			return c.Value()
		}
		return 0
	}
	s := regSnap{
		rtBatches: val("eewa_rt_batches_total"),
		rtTasks:   val("eewa_rt_tasks_total"),
		rtSteals:  val("eewa_rt_steals_total"),
		adjSecs:   val("eewa_rt_adjuster_host_seconds_total"),
	}
	if h, ok := reg.At("eewa_serve_batch_tasks").(*obs.Histogram); ok {
		s.batchTaskCount, s.batchTaskSum = float64(h.Count()), h.Sum()
	}
	return s
}

// addDelta adds b − a to s.
func (s *regSnap) addDelta(a, b regSnap) {
	s.rtBatches += b.rtBatches - a.rtBatches
	s.rtTasks += b.rtTasks - a.rtTasks
	s.rtSteals += b.rtSteals - a.rtSteals
	s.adjSecs += b.adjSecs - a.adjSecs
	s.batchTaskCount += b.batchTaskCount - a.batchTaskCount
	s.batchTaskSum += b.batchTaskSum - a.batchTaskSum
}

// livePhase pools the measured windows of one or more server lives
// run under the same configuration.
type livePhase struct {
	name    string
	recs    []reqRec
	out     outcomes
	wall    time.Duration
	cpu     time.Duration
	allocs  uint64
	prof    []stackSample
	energy  serve.EnergyRollup // measured-window deltas
	batches uint64
	reg     regSnap // measured-window deltas
	lates   []float64
}

// runLife drives a fresh server through in: warm-up, the measured
// window (CPU-profiled when traced), drain, then the server-wide
// checks.
func (ph *livePhase) runLife(rep *report, srv *serve.Server, reg *obs.Registry, in *serveInputs, traced bool) error {
	h := srv.Handler()
	warmRecs := dispatch(h, in.warm, in.warmBodies)
	warmOut := checkRecs(rep, ph.name+" warm-up", in.warm, warmRecs)

	st0, e0 := srv.Stats(), srv.EnergyRollup()
	var r0 regSnap
	if reg != nil {
		r0 = snapRegistry(reg)
	}
	runtime.GC() // so one phase's garbage is not charged to the next
	var prof *cpuProfiler
	if traced {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	allocs0, cpu0, t0 := heapAllocs(), cpuTime(), time.Now()
	recs := dispatch(h, in.events, in.bodies)
	ph.wall += time.Since(t0)
	ph.cpu += cpuTime() - cpu0
	ph.allocs += heapAllocs() - allocs0
	if prof != nil {
		samples, err := prof.stop()
		if err != nil {
			return err
		}
		ph.prof = append(ph.prof, samples...)
	}
	st1, e1 := srv.Stats(), srv.EnergyRollup()
	if reg != nil {
		ph.reg.addDelta(r0, snapRegistry(reg))
	}
	ph.energy.TotalJ += e1.TotalJ - e0.TotalJ
	ph.energy.AttributedJ += e1.AttributedJ - e0.AttributedJ
	ph.energy.OverheadJ += e1.OverheadJ - e0.OverheadJ
	ph.batches += st1.Batches - st0.Batches

	if err := drain(srv); err != nil {
		return fmt.Errorf("%s: drain: %w", ph.name, err)
	}
	out := checkRecs(rep, ph.name, in.events, recs)
	fin, ef := srv.Stats(), srv.EnergyRollup()
	// A job answered without a result (a handler-side deadline) may
	// still have run tasks, so then the responses only bound the count.
	reported := uint64(warmOut.tasksRun + out.tasksRun)
	rep.check(fin.Tasks == reported || (warmOut.unreported+out.unreported > 0 && fin.Tasks > reported),
		"%s: Stats().Tasks = %d, responses report %d tasks run", ph.name, fin.Tasks, reported)
	rep.check(math.Abs(ef.AttributedJ+ef.OverheadJ-ef.TotalJ) <= 1e-9*math.Max(1, ef.TotalJ),
		"%s: energy roll-up attributed %.9g + overhead %.9g != total %.9g", ph.name, ef.AttributedJ, ef.OverheadJ, ef.TotalJ)
	if traced {
		vs := srv.Violations()
		rep.check(len(vs) == 0, "%s: %d invariant violations, first %v", ph.name, len(vs), vs)
	}
	lat := make([]float64, 0, len(recs))
	for _, r := range recs {
		ph.lates = append(ph.lates, float64(r.late)/1e6)
		lat = append(lat, float64(r.lat)/1e6)
	}
	rep.note("%s life: %d jobs, p50 %.2f ms, p99 %.2f ms, %.4f J/job", ph.name, len(recs),
		quantile(lat, 0.5), quantile(lat, 0.99), (e1.TotalJ-e0.TotalJ)/float64(out.ok))
	ph.recs = append(ph.recs, recs...)
	ph.out.sent += out.sent
	ph.out.ok += out.ok
	ph.out.rejected += out.rejected
	ph.out.expired += out.expired
	ph.out.errored += out.errored
	ph.out.tasksRun += out.tasksRun
	return nil
}

// finish counts the phase's requests into rep and notes its
// generator's validity.
func (ph *livePhase) finish(rep *report) {
	rep.attempted += ph.out.sent
	rep.failed += ph.out.sent - ph.out.ok
	genCPU := "not profiled"
	if len(ph.prof) > 0 {
		share := attribute(ph.prof, nil, 0).unitShare(uGen)
		genCPU = fmt.Sprintf("%.3f s", share*ph.cpu.Seconds())
	}
	rep.note("%s: sent %d ok %d rejected %d expired %d error %d; generator late p50 %.3f ms p99 %.3f ms, generator cpu %s; process cpu %.3f s over %.3f s",
		ph.name, ph.out.sent, ph.out.ok, ph.out.rejected, ph.out.expired, ph.out.errored,
		quantile(ph.lates, 0.50), quantile(ph.lates, 0.99), genCPU, ph.cpu.Seconds(), ph.wall.Seconds())
	if ph.behind() {
		rep.note("FLAG %s: the generator fell behind its schedule (late p50 %.3f ms > %v); its latencies include that lag",
			ph.name, quantile(ph.lates, 0.50), lateLimit)
	}
}

// latencies returns due-to-answer latencies in ms; a request that did
// not succeed counts as +Inf, missing every limit.
func (ph *livePhase) latencies() []float64 {
	xs := make([]float64, len(ph.recs))
	for i, r := range ph.recs {
		xs[i] = math.Inf(1)
		if r.status == http.StatusOK {
			xs[i] = float64(r.lat) / 1e6
		}
	}
	return xs
}

func (ph *livePhase) behind() bool {
	return quantile(ph.lates, 0.50) > float64(lateLimit)/1e6
}
func (ph *livePhase) okJobs() float64    { return float64(ph.out.ok) }
func (ph *livePhase) p50() float64       { return quantile(ph.latencies(), 0.50) }
func (ph *livePhase) p99() float64       { return quantile(ph.latencies(), 0.99) }
func (ph *livePhase) cpuPerJob() float64 { return float64(ph.cpu) / 1e3 / ph.okJobs() }
func (ph *livePhase) jPerJob() float64   { return ph.energy.TotalJ / ph.okJobs() }

// replayRuns turns a measured schedule into a simulator workload —
// arrivals bucketed at the flush interval, each task's work its hint —
// and pairs it under EEWA and Cilk on the paper's machine.
func replayRuns(job int, name string, seed uint64, evs []traffic.Event) []simRun {
	var batches []task.Batch
	cur, id := -1, 0
	for _, ev := range evs {
		if w := int(ev.OffsetS / flushEvery.Seconds()); w != cur {
			batches = append(batches, task.Batch{})
			cur = w
		}
		b := &batches[len(batches)-1]
		for k := 0; k < ev.Count; k++ {
			b.Tasks = append(b.Tasks, task.Task{ID: id, Class: ev.Class, Work: ev.WorkHintS})
			id++
		}
	}
	w := &task.Workload{Name: name, Batches: batches}
	return []simRun{
		{job: job, bench: name, policy: policy.IDEEWA, seed: seed, w: w, tasks: id},
		{job: job, bench: name, policy: policy.IDCilk, seed: seed, w: w, tasks: id},
	}
}

// replayTime bounds the simulator replay of a run's schedules.
const replayTime = time.Second

// lifeSeed derives life i's input and server seed from the run seed.
func lifeSeed(seed uint64, i int) uint64 { return xrand.Split(seed, uint64(i)) }

func runServe(sp serveSpec, seed uint64, d time.Duration, trace bool, rep *report) error {
	perLife := d / time.Duration(sp.lives)
	ins := make([]*serveInputs, sp.lives)
	var setups []float64
	// setup builds life i's inputs and a server, timing both.
	setup := func(i int, withObs, invariants bool) (*serve.Server, *obs.Registry, error) {
		start := time.Now()
		if ins[i] == nil {
			in, err := genInputs(sp, lifeSeed(seed, i), perLife)
			if err != nil {
				return nil, nil, err
			}
			ins[i] = in
		}
		srv, reg, err := newServer(lifeSeed(seed, i), withObs, invariants)
		setups = append(setups, time.Since(start).Seconds())
		return srv, reg, err
	}
	replay := func(n int, traced bool) (*simPhase, error) {
		var runs []simRun
		for i := 0; i < n; i++ {
			runs = append(runs, replayRuns(i, fmt.Sprintf("%s/%d", sp.name, i), lifeSeed(seed, i), ins[i].events)...)
		}
		ph, err := measureSim(newSimSuite(machine.Opteron16(), runs), replayTime, traced)
		if err == nil {
			checkSim(rep, sp.name+" replay", ph)
		}
		return ph, err
	}

	if !trace {
		un := &livePhase{name: sp.name}
		for i := 0; i < sp.lives; i++ {
			srv, reg, err := setup(i, true, false)
			if err != nil {
				return err
			}
			if err := un.runLife(rep, srv, reg, ins[i], false); err != nil {
				return err
			}
		}
		un.finish(rep)
		rep.setN("setup_s", median(setups), len(setups))
		lat := un.latencies()
		rep.setN("p50_ms", quantile(lat, 0.50), len(lat))
		rep.setN("p99_ms", quantile(lat, 0.99), len(lat))
		rep.setN("cpu_us_per_job", un.cpuPerJob(), un.out.ok)
		rep.setN("j_per_job", un.jPerJob(), un.out.ok)
		// The replay runs last, once the live records are dead, so its
		// collections do not mark them.
		rsim, err := replay(sp.lives, false)
		if err != nil {
			return err
		}
		reportSimE2E(rep, rsim, rsim.suite.verdict())
		return nil
	}

	// Traced: half the lives profiled with invariants on; a quarter
	// untraced and a quarter profiled without the obs registry, both
	// replaying the first quarter's schedules, interleaved so host
	// drift hits all three alike.
	un := &livePhase{name: sp.name + " untraced"}
	tr := &livePhase{name: sp.name + " traced"}
	noObs := &livePhase{name: sp.name + " traced without obs"}
	traced, paired := (sp.lives+1)/2, max(1, sp.lives/4)
	for i := 0; i < traced; i++ {
		type variant struct {
			ph                  *livePhase
			withObs, invariants bool
		}
		vs := []variant{{tr, true, true}}
		if i < paired {
			vs = append(vs, variant{un, true, false}, variant{noObs, false, true})
		}
		for _, v := range vs {
			srv, reg, err := setup(i, v.withObs, v.invariants)
			if err != nil {
				return err
			}
			if err := v.ph.runLife(rep, srv, reg, ins[i], v.ph != un); err != nil {
				return err
			}
		}
	}
	for _, ph := range []*livePhase{un, tr, noObs} {
		ph.finish(rep)
	}

	jobs := tr.okJobs()
	lc := attribute(tr.prof, serveLayers, float64(tr.cpu))
	for _, g := range serveLayers {
		rep.setN(g.metric, lc.groupNS[g.metric]/1e3/jobs, lc.groupSamples[g.metric])
	}
	reportProfile(rep, lc)
	rep.set("go.allocs_per_job", float64(tr.allocs)/jobs)

	var ingest, queue, batch []float64
	for _, r := range tr.recs {
		if r.status != http.StatusOK {
			continue
		}
		ingest = append(ingest, float64(r.handler)/1e3-(r.res.QueueMS+r.res.BatchMS)*1e3)
		queue = append(queue, r.res.QueueMS)
		batch = append(batch, r.res.BatchMS)
	}
	rep.setN("serve.ingest_us_p50", median(ingest), len(ingest))
	rep.setN("serve.queue_ms_p50", median(queue), len(queue))
	rep.setN("serve.queue_ms_p99", quantile(queue, 0.99), len(queue))
	rep.setN("serve.batch_ms_p50", median(batch), len(batch))
	rg := tr.reg
	if rg.batchTaskCount > 0 {
		rep.setN("serve.batch.fill", rg.batchTaskSum/rg.batchTaskCount/maxBatch, int(rg.batchTaskCount))
	}
	rep.setN("serve.batch.per_s", float64(tr.batches)/tr.wall.Seconds(), int(tr.batches))
	if rg.rtTasks > 0 {
		rep.set("rt.steals_per_task", rg.rtSteals/rg.rtTasks)
	}
	if rg.rtBatches > 0 {
		rep.setN("plan.adjuster_us_per_batch", rg.adjSecs*1e6/rg.rtBatches, int(rg.rtBatches))
	}
	if tr.energy.TotalJ > 0 {
		rep.set("energy.overhead_share", tr.energy.OverheadJ/tr.energy.TotalJ)
	}
	rep.set("energy.attr_j_per_job", tr.energy.AttributedJ/jobs)
	rep.set("obs.overhead_cpu_us_per_job", tr.cpuPerJob()-noObs.cpuPerJob())

	var lates []float64
	var sum outcomes
	behind := 0.0
	for _, ph := range []*livePhase{un, tr, noObs} {
		lates = append(lates, ph.lates...)
		sum.sent += ph.out.sent
		sum.ok += ph.out.ok
		sum.rejected += ph.out.rejected
		sum.expired += ph.out.expired
		sum.errored += ph.out.errored
		if ph.behind() {
			behind = 1
		}
	}
	rep.setN("gen.late_ms_p99", quantile(lates, 0.99), len(lates))
	rep.set("gen.behind", behind)
	rep.set("gen.sent", float64(sum.sent))
	rep.set("gen.ok", float64(sum.ok))
	rep.set("gen.rejected", float64(sum.rejected))
	rep.set("gen.expired", float64(sum.expired))
	rep.set("gen.error", float64(sum.errored))

	rep.set("trace.overhead.p50_ms_pct", pctChange(un.p50(), tr.p50()))
	rep.set("trace.overhead.p99_ms_pct", pctChange(un.p99(), tr.p99()))
	rep.set("trace.overhead.cpu_us_per_job_pct", pctChange(un.cpuPerJob(), tr.cpuPerJob()))
	rep.set("trace.overhead.j_per_job_pct", pctChange(un.jPerJob(), tr.jPerJob()))

	rsim, err := replay(traced, false) // last, as above
	if err != nil {
		return err
	}
	tsim, err := replay(traced, true)
	if err != nil {
		return err
	}
	reportSimLayers(rep, tsim)
	rep.set("trace.overhead.sim_tasks_per_s_pct", pctChange(rsim.tasksPerS(), tsim.tasksPerS()))
	return nil
}
