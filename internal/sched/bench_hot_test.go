package sched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/workloads"
)

// benchHotPath measures the simulator's per-task cost on a deep
// single-class backlog: 3 batches × 1024 tasks on 4 cores, the regime
// where the SoA hot path (pool pushes, indexed completion events,
// profiler refs) dominates per-batch planning. It is the profiling
// companion of eewa-benchjson's soa cells; allocs/op is per full run —
// per-task allocations are zero once the slabs have grown.
func benchHotPath(b *testing.B, p policy.Policy) {
	cfg := machine.Generic(4)
	w := task.MustGenerate("dens", 3, []task.ClassSpec{
		{Name: "dens", Count: 1024, MeanWork: 1e-4, JitterFrac: 0.2},
	}, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, w, p, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimHotPath(b *testing.B)     { benchHotPath(b, policy.NewCilk()) }
func BenchmarkSimHotPathEEWA(b *testing.B) { benchHotPath(b, policy.NewEEWA()) }

// BenchmarkSimTable2 measures the simulator on the perf ledger's
// sim-table2 traffic: one seed of the seven Table II benchmarks under
// every policy on Opteron16, a fresh policy per run. Unlike the
// hot-path benchmarks above it exercises EEWA's multi-group preference
// walk, which dominates that workload. One op is the whole suite; the
// rate is reported as simulated tasks per second.
func BenchmarkSimTable2(b *testing.B) {
	cfg := machine.Opteron16()
	const seed = 1
	var ws []*task.Workload
	tasks := 0
	for _, bm := range workloads.All() {
		w := bm.Workload(seed)
		ws = append(ws, w)
		tasks += w.TotalTasks() * len(policy.IDs())
	}
	params := DefaultParams()
	params.Seed = seed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			for _, id := range policy.IDs() {
				p, err := policy.New(id, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(cfg, w, p, params); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}
