package density

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Closed-loop serve capacity harness.
//
// The open-loop sweep (cmd/eewa-density's owed-arrivals driver) asks
// "does the server keep up with rate R" — useful for finding the load
// knee, but its throughput column is just the offered rate echoed back
// whenever the answer is yes. This driver asks the complementary
// question: "how fast can the server go". Each of N clients keeps
// exactly one request outstanding (submit, wait, submit again), so the
// server is never idle and never buried past N requests; ramping N
// until tail latency knees finds the maximum *sustained* job rate, the
// per-job heap allocation count, and wall nanoseconds per job.
//
// The driver itself stays off the profile: request bodies are built
// once per client and replayed through a rewound bytes.Reader, the
// response writer is a reused status-only sink, and latency lands in a
// lock-free log-histogram. What remains — ServeMux routing and the
// server's own ingest path — is exactly the cost being measured.

// ClosedLoopConfig drives one capacity ramp.
type ClosedLoopConfig struct {
	// NewHandler returns a fresh server handler for one ramp step and a
	// stop function that drains it. A fresh server per step keeps one
	// step's backlog from polluting the next step's latency.
	NewHandler func() (http.Handler, func())

	// Path is the submit endpoint ("/v1/jobs", or "/v1/jobs:batch" when
	// JobsPerRequest > 1).
	Path string

	// BodyFor returns the constant request body for one client. Clients
	// should carry distinct tenants so per-tenant admission is
	// exercised; the body is built once and replayed for the whole ramp.
	BodyFor func(client int) []byte

	// JobsPerRequest is how many jobs one HTTP request submits (1 for
	// /v1/jobs, the batch size for /v1/jobs:batch).
	JobsPerRequest int

	// TasksPerJob converts completed jobs to completed tasks for the
	// density cells.
	TasksPerJob int

	// Clients is the concurrency ramp, in order. Empty picks a default
	// doubling ramp.
	Clients []int

	// Warmup runs before the measurement window of each step (JIT,
	// pools, steady queue). Step is the measurement window itself.
	Warmup time.Duration
	Step   time.Duration

	// KneeThreshold is the p99 multiple over the 1-client baseline that
	// marks saturation (<=1 picks 2).
	KneeThreshold float64
}

// ClosedStep is one measured concurrency step.
type ClosedStep struct {
	Clients      int
	Jobs         uint64 // jobs completed (HTTP 200) inside the window
	Rejected     uint64 // 429/503 responses inside the window
	Expired      uint64 // 504 responses inside the window
	Errors       uint64 // anything else (4xx decode errors, 5xx)
	WallS        float64
	JobsPerSec   float64
	NsPerJob     float64
	AllocsPerJob float64
	P50S         float64
	P95S         float64
	P99S         float64
}

// ClosedResult is the full ramp: every step, plus the detected knee
// and the maximum sustained rate at or below it.
type ClosedResult struct {
	Steps         []ClosedStep
	KneeClients   int  // first step past the p99 knee (last step if none)
	KneeFound     bool // whether any step crossed the threshold
	MaxJobsPerSec float64
	MaxStep       int // index into Steps of the max sustained rate
}

// phase values coordinate clients with the measurement window.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// clientSlot is one client's tally, padded so neighbors never share a
// cache line (clients bump these once per request).
type clientSlot struct {
	jobs     uint64
	rejected uint64
	expired  uint64
	errors   uint64
	_        [32]byte
}

// nullResponseWriter records the status code and discards the body —
// the cheapest http.ResponseWriter that still satisfies the handler.
type nullResponseWriter struct {
	hdr    http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header { return w.hdr }

func (w *nullResponseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *nullResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

func (w *nullResponseWriter) reset() {
	w.status = 0
	clear(w.hdr)
}

// nopCloserReader rewinds instead of allocating a new body per
// request: Close is a no-op, and the driver Seeks back to 0 between
// submissions.
type nopCloserReader struct{ *bytes.Reader }

func (nopCloserReader) Close() error { return nil }

// ClosedLoop runs the ramp and returns the per-step measurements.
func ClosedLoop(cfg ClosedLoopConfig) (*ClosedResult, error) {
	if cfg.NewHandler == nil || cfg.BodyFor == nil {
		return nil, fmt.Errorf("density: closed loop needs NewHandler and BodyFor")
	}
	if cfg.Path == "" {
		cfg.Path = "/v1/jobs"
	}
	if cfg.JobsPerRequest <= 0 {
		cfg.JobsPerRequest = 1
	}
	if cfg.TasksPerJob <= 0 {
		cfg.TasksPerJob = 1
	}
	if len(cfg.Clients) == 0 {
		cfg.Clients = []int{1, 2, 4, 8, 16, 32}
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 300 * time.Millisecond
	}
	if cfg.Step <= 0 {
		cfg.Step = time.Second
	}
	if cfg.KneeThreshold <= 1 {
		cfg.KneeThreshold = 2
	}
	target, err := url.Parse("http://closed.loop" + cfg.Path)
	if err != nil {
		return nil, fmt.Errorf("density: closed loop path: %w", err)
	}

	res := &ClosedResult{}
	for _, n := range cfg.Clients {
		step := runClosedStep(cfg, target, n)
		res.Steps = append(res.Steps, step)
		// Stop ramping once the knee is crossed: deeper steps only
		// measure queueing, not capacity.
		base := res.Steps[0].P99S
		if base > 0 && step.P99S > cfg.KneeThreshold*base {
			res.KneeFound = true
			res.KneeClients = n
			break
		}
		res.KneeClients = n
	}
	for i, s := range res.Steps {
		past := res.KneeFound && s.Clients == res.KneeClients
		if !past && s.JobsPerSec > res.MaxJobsPerSec {
			res.MaxJobsPerSec = s.JobsPerSec
			res.MaxStep = i
		}
	}
	// A one-step ramp that immediately kneed still has to report its
	// only measurement.
	if res.MaxJobsPerSec == 0 && len(res.Steps) > 0 {
		res.MaxJobsPerSec = res.Steps[0].JobsPerSec
		res.MaxStep = 0
	}
	return res, nil
}

func runClosedStep(cfg ClosedLoopConfig, target *url.URL, clients int) ClosedStep {
	h, stop := cfg.NewHandler()
	defer stop()

	var phase atomic.Int32
	slots := make([]clientSlot, clients)
	var lat obs.LogHistogram

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			body := bytes.NewReader(cfg.BodyFor(idx))
			req := &http.Request{
				Method:     http.MethodPost,
				URL:        target,
				Proto:      "HTTP/1.1",
				ProtoMajor: 1,
				ProtoMinor: 1,
				Header:     http.Header{},
				Host:       target.Host,
				Body:       nopCloserReader{body},
			}
			w := &nullResponseWriter{hdr: http.Header{}}
			slot := &slots[idx]
			for {
				before := phase.Load()
				if before == phaseStop {
					return
				}
				body.Seek(0, io.SeekStart)
				w.reset()
				start := time.Now()
				h.ServeHTTP(w, req)
				elapsed := time.Since(start)
				// Tally only requests that ran wholly inside the window.
				if before != phaseMeasure || phase.Load() != phaseMeasure {
					continue
				}
				lat.Observe(elapsed.Seconds())
				switch w.status {
				case http.StatusOK:
					slot.jobs += uint64(cfg.JobsPerRequest)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					slot.rejected += uint64(cfg.JobsPerRequest)
				case http.StatusGatewayTimeout:
					slot.expired += uint64(cfg.JobsPerRequest)
				default:
					slot.errors++
				}
			}
		}(c)
	}

	time.Sleep(cfg.Warmup)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	phase.Store(phaseMeasure)
	time.Sleep(cfg.Step)
	phase.Store(phaseStop)
	wall := time.Since(t0)
	wg.Wait()
	runtime.ReadMemStats(&m1)

	st := ClosedStep{Clients: clients, WallS: wall.Seconds()}
	for i := range slots {
		st.Jobs += slots[i].jobs
		st.Rejected += slots[i].rejected
		st.Expired += slots[i].expired
		st.Errors += slots[i].errors
	}
	st.P50S = lat.Quantile(0.50)
	st.P95S = lat.Quantile(0.95)
	st.P99S = lat.Quantile(0.99)
	if st.Jobs > 0 {
		st.JobsPerSec = float64(st.Jobs) / st.WallS
		st.NsPerJob = float64(wall.Nanoseconds()) / float64(st.Jobs)
		// Mallocs covers the window plus each client's in-flight tail
		// request — driver and server together, which is what a capacity
		// budget has to hold.
		st.AllocsPerJob = float64(m1.Mallocs-m0.Mallocs) / float64(st.Jobs)
	}
	return st
}

// Cell converts one measured step into a density cell for the report.
func (s ClosedStep) Cell(policy string, shards, tasksPerJob, batchSubmit int) Cell {
	c := Cell{
		Engine:      "serve",
		Policy:      policy,
		Mode:        "closed",
		Clients:     s.Clients,
		BatchSubmit: batchSubmit,
		Tasks:       int(s.Jobs) * tasksPerJob,
		WallS:       s.WallS,
		P50S:        s.P50S,
		P95S:        s.P95S,
		P99S:        s.P99S,
		JobsPerSec:  s.JobsPerSec,
		NsPerJob:    s.NsPerJob,
		Rejected:    s.Rejected + s.Expired,
	}
	if shards > 1 {
		c.Shards = shards
	}
	if s.WallS > 0 {
		c.RateTPS = float64(c.Tasks) / s.WallS
		c.AchievedTPS = c.RateTPS
	}
	if tasksPerJob > 0 {
		c.AllocsPerTask = s.AllocsPerJob / float64(tasksPerJob)
	}
	c.AllocsPerJob = s.AllocsPerJob
	return c
}
