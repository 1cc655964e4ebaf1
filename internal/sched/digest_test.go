package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/workloads"
)

// goldenDigest pins the simulator's observable behaviour: every
// Table II benchmark under every policy at seeds 1–3 on Opteron16 and
// Generic(4), plus the deep-backlog hot-path workload. A refactor of
// the engine, its event queue or the policy core must leave it
// unchanged; a deliberate behaviour change regenerates it once and
// says so. The float bits are amd64's: Go may fuse multiply-adds on
// other architectures.
const goldenDigest = "031a73b1d426b93ff4547aac7941455bca7991745eea99f231ab0d6a1c09c4f9"

// digestResult folds the behaviour-bearing fields of one run into h:
// makespan, energy and core-time float bits, every batch duration and
// frequency census, and the steal/probe/migration/DVFS counters.
func digestResult(h hash.Hash, r *Result) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	h.Write([]byte(r.Policy))
	h.Write([]byte{0})
	h.Write([]byte(r.Workload))
	h.Write([]byte{0})
	for _, v := range []float64{r.Makespan, r.Energy, r.BusyTime, r.SpinTime, r.HaltTime} {
		f64(v)
	}
	u64(uint64(len(r.BatchTimes)))
	for _, v := range r.BatchTimes {
		f64(v)
	}
	u64(uint64(len(r.BatchCensus)))
	for _, row := range r.BatchCensus {
		u64(uint64(len(row)))
		for _, n := range row {
			u64(uint64(n))
		}
	}
	for _, n := range []int{r.Steals, r.Probes, r.Migrated, r.DVFSTransitions} {
		u64(uint64(n))
	}
}

func TestGoldenBehaviourDigest(t *testing.T) {
	h := sha256.New()
	run := func(cfg machine.Config, w *task.Workload, id string) {
		p, err := policy.New(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, w, p, DefaultParams())
		if err != nil {
			t.Fatalf("%s/%s: %v", w.Name, id, err)
		}
		digestResult(h, res)
	}
	for _, cfg := range []machine.Config{machine.Opteron16(), machine.Generic(4)} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, b := range workloads.All() {
				w := b.Workload(seed)
				for _, id := range policy.IDs() {
					run(cfg, w, id)
				}
			}
		}
	}
	dens := task.MustGenerate("dens", 3, []task.ClassSpec{
		{Name: "dens", Count: 1024, MeanWork: 1e-4, JitterFrac: 0.2},
	}, 42)
	for _, id := range policy.IDs() {
		run(machine.Generic(4), dens, id)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("behaviour digest changed:\n got %s\nwant %s", got, goldenDigest)
	}
}
