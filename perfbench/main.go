// Command perfbench is the repository's performance ledger: one
// command that runs a named workload from a seed, checks the
// program's outputs, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Workloads (README.md says why each exists):
//
//	sim-table2    the seven Table II benchmarks × {cilk, cilk-d, wats, eewa} in the simulator
//	serve-ingest  open-loop Poisson, ~2,000 tiny sha1 jobs/s through serve's HTTP handler
//	serve-mixed   open-loop Poisson, ~80 heterogeneous jobs/s through serve's HTTP handler
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload sim-table2 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric of the ledger; BENCHMARK.json lists the same
// names and units (TestCatalogueMatchesBenchmarkJSON pins that).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_tasks_per_s", "1/s"},
	{"sim_energy_saving_pct", "%"},
	{"sim_slowdown_pct", "%"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_us_per_job", "us"},
	{"j_per_job", "J"},
	{"max_rss_mb", "MB"},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, g := range simLayers {
		defs = append(defs, metricDef{g.metric, "ns"})
	}
	defs = append(defs,
		metricDef{"sim.allocs_per_task", "count"},
		metricDef{"sim.plan.us_per_batch", "us"},
		metricDef{"sim.plan.search_steps_per_batch", "count"},
		metricDef{"sim.plan.cache_hit_ratio", "ratio"},
		metricDef{"sim.steal.steals_per_task", "count"},
		metricDef{"sim.steal.success_ratio", "ratio"},
		metricDef{"sim.machine.dvfs_per_batch", "count"},
	)
	for _, g := range serveLayers {
		defs = append(defs, metricDef{g.metric, "us"})
	}
	defs = append(defs,
		metricDef{"go.allocs_per_job", "count"},
		metricDef{"serve.ingest_us_p50", "us"},
		metricDef{"serve.queue_ms_p50", "ms"},
		metricDef{"serve.queue_ms_p99", "ms"},
		metricDef{"serve.batch_ms_p50", "ms"},
		metricDef{"serve.batch.fill", "ratio"},
		metricDef{"serve.batch.per_s", "1/s"},
		metricDef{"rt.steals_per_task", "count"},
		metricDef{"plan.adjuster_us_per_batch", "us"},
		metricDef{"energy.overhead_share", "ratio"},
		metricDef{"energy.attr_j_per_job", "J"},
		metricDef{"obs.overhead_cpu_us_per_job", "us"},
		metricDef{"gen.late_ms_p99", "ms"},
		metricDef{"gen.behind", "count"},
		metricDef{"gen.sent", "count"},
		metricDef{"gen.ok", "count"},
		metricDef{"gen.rejected", "count"},
		metricDef{"gen.expired", "count"},
		metricDef{"gen.error", "count"},
		metricDef{"profile.samples", "count"},
		metricDef{"profile.unattributed_share", "ratio"},
		metricDef{"profile.coverage", "ratio"},
		metricDef{"trace.overhead.p50_ms_pct", "%"},
		metricDef{"trace.overhead.p99_ms_pct", "%"},
		metricDef{"trace.overhead.cpu_us_per_job_pct", "%"},
		metricDef{"trace.overhead.j_per_job_pct", "%"},
		metricDef{"trace.overhead.sim_tasks_per_s_pct", "%"},
	)
	return defs
}()

// runners maps a workload name to its runner. A runner measures for
// about the given duration and fills rep; trace selects the per-layer
// run.
var runners = map[string]func(seed uint64, d time.Duration, trace bool, rep *report) error{
	"sim-table2": runSimTable2,
	"serve-ingest": func(seed uint64, d time.Duration, trace bool, rep *report) error {
		return runServe(ingestSpec, seed, d, trace, rep)
	},
	"serve-mixed": func(seed uint64, d time.Duration, trace bool, rep *report) error {
		return runServe(mixedSpec, seed, d, trace, rep)
	},
}

// servePolicy is the live server's policy; -policy cilk measures the
// baseline figures README.md quotes.
var servePolicy = flag.String("policy", "eewa", "serve workloads: scheduling policy of the live server (cilk, cilk-d, wats, eewa)")

func main() {
	workload := flag.String("workload", "", "workload: sim-table2, serve-ingest or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed (the same seed gives the same inputs)")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	flag.Parse()

	run, ok := runners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload sim-table2|serve-ingest|serve-mixed --seed N --seconds N>0 --trace 0|1\n")
		os.Exit(2)
	}
	rep := newReport()
	if err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *trace == 0 {
		rep.set("max_rss_mb", maxRSSMB())
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := rep.emit(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

// report collects a run's metrics, its attempt/failure counts and the
// check failures; human-readable notes go to standard output ahead of
// the JSON line.
type report struct {
	attempted, failed int
	checkErrs         []string
	values            map[string]float64
	samples           map[string]int // sample count behind a metric, where one exists
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// check records a failed output check; the run then reports
// correct=false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// emit prints one line per metric in defs, then the result JSON. A
// metric the run did not produce is 0; a non-finite value is a failed
// check.
func (r *report) emit(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
		if n, ok := r.samples[d.name]; ok {
			fmt.Fprintf(w, "%-38s %16.6g %-6s n=%d\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(w, "%-38s %16.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, e := range r.checkErrs {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", e)
	}
	out.Correct = len(r.checkErrs) == 0
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pctChange is how far traced moved from untraced, in percent; 0 when
// either is undefined (no successes, or a percentile beyond the
// successes, which reads +Inf and is already counted as failures).
func pctChange(untraced, traced float64) float64 {
	if untraced == 0 || math.IsInf(untraced, 0) || math.IsInf(traced, 0) {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
