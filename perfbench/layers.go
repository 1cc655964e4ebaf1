package main

import (
	"path"
	"strings"
)

// Layer units. Every CPU profile sample is charged to exactly one unit
// (or to none, the unattributed remainder); a workload's per-layer
// metrics are sums of units (simLayers, serveLayers). README.md
// documents the map.
const (
	uEvent   = "event"   // internal/event
	uMachine = "machine" // internal/machine
	uProfile = "profile" // internal/profile
	uEngine  = "engine"  // internal/sched, internal/task
	uSteal   = "steal"   // policy VictimWalker/StealOrder, internal/xrand, internal/deque
	uPlan    = "plan"    // the rest of internal/policy, internal/core, cctable, cgroup
	uRT      = "rt"      // internal/rt, internal/check, serve's taskSlot wrapper
	uKernels = "kernels" // internal/kernels
	uObs     = "obs"     // internal/obs, internal/serve/obs.go
	uDecode  = "decode"  // internal/serve/decode.go
	uEncode  = "encode"  // internal/serve/encode.go
	uHTTP    = "http"    // internal/serve/http.go, net/http (ServeMux, Header)
	uAdmit   = "admit"   // internal/serve job.go, serve.go, shard.go admission
	uRouter  = "router"  // internal/serve/router.go, shard.view
	uBatcher = "batcher" // internal/serve/shard.go batcher functions
	uGen     = "gen"     // the benchmark itself, its profiler, internal/traffic, internal/workloads
	uGC      = "go.gc"   // Go runtime: garbage collector, no repo frame on the stack
	uSched   = "go.sched"
)

// batcherFuncs are the shard.go methods that run on the batcher
// goroutine (batch formation, the runtime's batch-end hook and span
// bookkeeping). LayerMapNamesExist pins that each still exists.
var batcherFuncs = []string{"batcher", "flushAll", "popMin", "flushOnce", "spanSetFor", "batchEnd", "backlogEmpty"}

// internalUnits maps a repro/internal package to its unit; internal/serve
// and internal/policy are split further by unitOfInternal.
var internalUnits = map[string]string{
	"event":     uEvent,
	"machine":   uMachine,
	"profile":   uProfile,
	"sched":     uEngine,
	"task":      uEngine,
	"xrand":     uSteal,
	"deque":     uSteal,
	"core":      uPlan,
	"cctable":   uPlan,
	"cgroup":    uPlan,
	"rt":        uRT,
	"check":     uRT,
	"kernels":   uKernels,
	"obs":       uObs,
	"traffic":   uGen,
	"workloads": uGen,
}

// serveFileUnits maps internal/serve source files to units; job.go and
// shard.go are split by function in unitOfInternal.
var serveFileUnits = map[string]string{
	"decode.go": uDecode,
	"encode.go": uEncode,
	"http.go":   uHTTP,
	"router.go": uRouter,
	"obs.go":    uObs,
	"serve.go":  uAdmit,
	"job.go":    uAdmit,
	"shard.go":  uAdmit,
}

// unitOf charges a sample to the innermost frame that belongs to the
// repository (repro/internal/...), the benchmark (package main) or the
// HTTP library. A stack with none of these is garbage collection when
// any frame is a collector function, scheduler work when every frame
// is the runtime's (or sync's and time's, which park and wake through
// it), and otherwise unattributed ("").
func unitOf(stack []frame) string {
	for _, f := range stack {
		pkg := pkgOf(f.fn)
		switch {
		case strings.HasPrefix(pkg, "repro/internal/"):
			return unitOfInternal(strings.TrimPrefix(pkg, "repro/internal/"), f)
		case pkg == "main", pkg == "repro/perfbench", pkg == "runtime/pprof":
			return uGen // the benchmark (named repro/perfbench in its test binary) and its profiler
		case pkg == "net/http", pkg == "net/textproto":
			return uHTTP
		}
	}
	runtimeOnly := len(stack) > 0
	for _, f := range stack {
		if isGCFunc(f.fn) {
			return uGC
		}
		switch pkg := pkgOf(f.fn); {
		case strings.HasPrefix(pkg, "runtime"), strings.HasPrefix(pkg, "internal/"),
			pkg == "syscall", pkg == "sync", pkg == "time":
		default:
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return uSched
	}
	return ""
}

// unitOfInternal maps a frame in repro/internal/<pkg> to its unit, or
// to "internal/<pkg>" for a package no layer claims.
func unitOfInternal(pkg string, f frame) string {
	switch pkg {
	case "policy":
		if strings.Contains(f.fn, "VictimWalker") || strings.Contains(f.fn, "StealOrder") {
			return uSteal
		}
		return uPlan
	case "serve":
		u, ok := serveFileUnits[path.Base(f.file)]
		if !ok {
			return "internal/serve"
		}
		switch {
		case strings.Contains(f.fn, "(*taskSlot)"):
			return uRT
		case strings.Contains(f.fn, "(*shard).view"):
			return uRouter
		case strings.Contains(f.fn, "(*shard)."):
			for _, b := range batcherFuncs {
				if strings.Contains(f.fn, "(*shard)."+b) {
					return uBatcher
				}
			}
		}
		return u
	}
	if u, ok := internalUnits[pkg]; ok {
		return u
	}
	return "internal/" + pkg
}

func isGCFunc(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime._GC", "runtime.(*gcWork)", "runtime.(*mheap).reclaim"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// A layerGroup is one reported per-layer CPU metric: the units it sums.
type layerGroup struct {
	metric string
	units  []string
}

// simLayers are the simulator's layers, reported as CPU ns per
// simulated task.
var simLayers = []layerGroup{
	{"sim.event.cpu_ns_per_task", []string{uEvent}},
	{"sim.machine.cpu_ns_per_task", []string{uMachine}},
	{"sim.profile.cpu_ns_per_task", []string{uProfile}},
	{"sim.engine.cpu_ns_per_task", []string{uEngine}},
	{"sim.steal.cpu_ns_per_task", []string{uSteal}},
	{"sim.plan.cpu_ns_per_task", []string{uPlan}},
	{"sim.gc.cpu_ns_per_task", []string{uGC}},
}

// serveLayers are the live service's layers, reported as CPU µs per
// job. In the live engine the machine model, the steal walk and the
// deques are the runtime's own machinery, and the profiler feeds the
// plan.
var serveLayers = []layerGroup{
	{"serve.decode.cpu_us_per_job", []string{uDecode}},
	{"serve.encode.cpu_us_per_job", []string{uEncode}},
	{"serve.http.cpu_us_per_job", []string{uHTTP}},
	{"serve.admit.cpu_us_per_job", []string{uAdmit}},
	{"serve.router.cpu_us_per_job", []string{uRouter}},
	{"serve.batcher.cpu_us_per_job", []string{uBatcher}},
	{"obs.cpu_us_per_job", []string{uObs}},
	{"rt.cpu_us_per_job", []string{uRT, uMachine, uSteal, uEngine, uEvent}},
	{"kernels.cpu_us_per_job", []string{uKernels}},
	{"plan.cpu_us_per_job", []string{uPlan, uProfile}},
	{"go.sched.cpu_us_per_job", []string{uSched}},
	{"go.gc.cpu_us_per_job", []string{uGC}},
	{"gen.cpu_us_per_job", []string{uGen}},
}

// layerCPU is one profiled phase split by layer.
type layerCPU struct {
	samples      int                // profile samples in the phase
	groupSamples map[string]int     // per metric
	groupNS      map[string]float64 // per metric, scaled to the phase's process CPU
	unattributed float64            // share of samples in no group
	coverage     float64            // profiled CPU / process CPU (getrusage)
	unmapped     map[string]int     // samples per unit outside every group
	byUnit       map[string]int     // samples per unit
}

// unitShare is the share of the phase's samples charged to unit u.
func (lc layerCPU) unitShare(u string) float64 {
	if lc.samples == 0 {
		return 0
	}
	return float64(lc.byUnit[u]) / float64(lc.samples)
}

// attribute splits a phase's process CPU (cpuNS, from getrusage) over
// groups in proportion to profile samples. Scaling to getrusage makes
// the groups plus the unattributed share sum to the measured CPU, and
// coverage reports how much of that CPU the profiler saw.
func attribute(samples []stackSample, groups []layerGroup, cpuNS float64) layerCPU {
	byUnit := map[string]int{}
	var profNS float64
	for _, s := range samples {
		u := unitOf(s.stack)
		if u == "" && len(s.stack) > 0 {
			u = "unknown:" + s.stack[len(s.stack)-1].fn // name the goroutine's root
		}
		byUnit[u]++
		profNS += float64(s.ns)
	}
	lc := layerCPU{samples: len(samples), groupSamples: map[string]int{}, groupNS: map[string]float64{},
		unmapped: map[string]int{}, byUnit: byUnit}
	claimed := map[string]bool{}
	attributed := 0
	for _, g := range groups {
		n := 0
		for _, u := range g.units {
			n += byUnit[u]
			claimed[u] = true
		}
		lc.groupSamples[g.metric] = n
		attributed += n
		if len(samples) > 0 {
			lc.groupNS[g.metric] = cpuNS * float64(n) / float64(len(samples))
		}
	}
	for u, n := range byUnit {
		if !claimed[u] {
			lc.unmapped[u] = n
		}
	}
	if len(samples) > 0 {
		lc.unattributed = 1 - float64(attributed)/float64(len(samples))
	}
	if cpuNS > 0 {
		lc.coverage = profNS / cpuNS
	}
	return lc
}
