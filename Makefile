# EEWA reproduction — convenience targets. Everything is plain `go`.

GO ?= go

.PHONY: all build vet test race race-serve ledger-test bench bench-check sweep sweep-parity cluster-sweep cluster-demo check check-long cover experiments examples obs-demo serve-demo density density-smoke serve-capacity-smoke traffic-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The ingest/admission packages twice under the race detector: the
# admission queue, pooled jobs, batch-disconnect and concurrent storm
# tests are where a lifecycle bug would surface.
race-serve:
	$(GO) test -race -count=2 ./internal/serve/ ./internal/traffic/

# The perf ledger's layer map names files, packages and shard.go
# methods of this module by hand; these perfbench tests fail when a
# rename or deletion detaches a layer (offline, about a second).
ledger-test:
	cd perfbench && $(GO) test -run 'TestLayerMapNamesExist|TestUnitOfInnermostFrame|TestCatalogueMatchesBenchmarkJSON' .

# Full bench harness: Go benchmarks plus the machine-readable
# policy × {makespan, energy, host-ns} record. BENCH_sched.json is the
# committed baseline; the tool checks the fresh run against it (≤5%
# cilk-normalized sim-throughput regression) before rewriting it.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...
	$(GO) run ./cmd/eewa-benchjson -out BENCH_sched.json

# CI variant: compare against the committed baseline, never rewrite.
bench-check:
	$(GO) run ./cmd/eewa-benchjson -check-only

# Design-space sweep across all cores (-j defaults to GOMAXPROCS).
sweep:
	$(GO) run ./cmd/eewa-sweep -csv sweep.csv -json sweep_cells.json

# Determinism gate for the parallel sweep driver: the same small grid
# run sequentially and with maximal fan-out must produce byte-identical
# CSVs (per-cell wall-clock lives only in the JSON output).
sweep-parity:
	$(GO) run ./cmd/eewa-sweep -j 1 -bench md5,lzw -cores 8,16 -seeds 2 -csv sweep_j1.csv
	$(GO) run ./cmd/eewa-sweep -bench md5,lzw -cores 8,16 -seeds 2 -csv sweep_jN.csv
	cmp sweep_j1.csv sweep_jN.csv
	rm -f sweep_j1.csv sweep_jN.csv
	@echo "sweep parity OK: -j 1 and -j GOMAXPROCS byte-identical"

# Cluster topology sweep: shard count × ladder split × routing policy.
cluster-sweep:
	$(GO) run ./cmd/eewa-sweep -cluster -csv cluster.csv -json cluster_cells.json

# Cluster smoke for CI: a 3-shard tiered router survives a demo burst
# and drains cleanly, and a small cluster sweep is byte-identical
# across worker counts (the -cluster parity acceptance clause).
cluster-demo:
	$(GO) run ./cmd/eewa-serve -demo -shards 3 -routing class -ladder-split tiered \
		-flush-ms 10 -queue-depth 24 -max-inflight 96
	$(GO) run ./cmd/eewa-sweep -cluster -j 1 -bench md5,lzw -cores 8 -seeds 2 \
		-shards 1,2,4 -routing class,rr,least -csv cluster_j1.csv
	$(GO) run ./cmd/eewa-sweep -cluster -bench md5,lzw -cores 8 -seeds 2 \
		-shards 1,2,4 -routing class,rr,least -csv cluster_jN.csv
	cmp cluster_j1.csv cluster_jN.csv
	rm -f cluster_j1.csv cluster_jN.csv
	@echo "cluster demo OK: 3-shard drain clean, cluster sweep -j parity byte-identical"

# Concurrency-correctness harness, tier-1 budget: the deque model
# checker (with its mutant self-test), the short stress mode and the
# runtime invariants, all under the race detector. DESIGN.md §8
# documents what each side proves.
check:
	$(GO) vet ./internal/check/ ./internal/deque/
	$(GO) test -race ./internal/check/ ./internal/deque/

# Nightly variant: long randomized stress (60 s per stress test) and
# repeated -race runs across the concurrency-sensitive packages, plus
# the whole tree with runtime invariants forced on via the eewa_check
# build tag, plus two coverage-guided fuzz targets: the one-event-per-id
# heap against its sorted-slice oracle over interleaved ids,
# same-instant schedules and re-scheduled popped ids (the same
# interpreter as TestQueueModelRandomized), and serve's pooled response
# encoder against encoding/json.
check-long:
	EEWA_STRESS_SECONDS=60 $(GO) test -race -count=2 -timeout 30m \
		./internal/check/ ./internal/deque/ ./internal/event/ ./internal/policy/ ./internal/rt/ ./internal/serve/
	$(GO) test -tags eewa_check -race ./internal/rt/ ./internal/check/ ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzQueue -fuzztime 60s ./internal/event/
	$(GO) test -run '^$$' -fuzz FuzzEncodeMatchesStdlib -fuzztime 60s ./internal/serve/

cover:
	$(GO) test -cover ./...

# Text tables for every experiment (Figs. 1/6/7/8/9, Table III,
# memory-bound extension, ablations).
experiments:
	$(GO) run ./cmd/eewa-bench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/energysweep
	$(GO) run ./examples/asymmetric
	$(GO) run ./examples/memorybound
	$(GO) run ./examples/liveruntime -workers 4 -batches 3

# Observability demo: one instrumented simulation producing a
# Prometheus metrics snapshot and a Perfetto-compatible trace (open
# obs_trace.json at https://ui.perfetto.dev).
obs-demo:
	$(GO) run ./cmd/eewa-sim -bench sha1 -policy eewa \
		-metrics-out obs_metrics.prom -trace-out obs_trace.json -gantt

# Serving demo: start eewa-serve, fire a burst of submissions that
# overflows the admission bounds (showing 429/Retry-After
# backpressure), drain gracefully and write a final metrics snapshot.
serve-demo:
	$(GO) run ./cmd/eewa-serve -demo -flush-ms 10 \
		-queue-depth 24 -max-inflight 96 -metrics-out serve_metrics.prom

# Saturation/density harness: sweep backlog depth (sim) and offered
# load (serve) for cilk and eewa, record p50/p95/p99 + scheduling rate
# + allocs/task per cell, and detect the saturation knee. Writes the
# versioned BENCH_density.json artifact.
density:
	$(GO) run ./cmd/eewa-density -serve-mode both -out BENCH_density.json

# CI variant: a small grid (seconds, not minutes) that still exercises
# both engines, both policies, and the knee detector end to end.
density-smoke:
	$(GO) run ./cmd/eewa-density -engines sim,serve -policies cilk,eewa \
		-cores 4 -depths 16,128,1024 -load-mults 0.25,2,6 \
		-cell-ms 800 -calib-ms 300 -out BENCH_density.json
	@grep -q '"version": 1' BENCH_density.json
	@echo "density smoke OK: BENCH_density.json written"

# Closed-loop serve capacity smoke for CI: ramp closed-loop clients
# through the ingest path and fail unless the sustained step stays
# within the alloc/job budget. Pooled jobs and the pooled response
# encoder hold it: ~23 allocs/job at 16 clients, about 10 of them the
# encoding/json request decode, and ~11 through /v1/jobs:batch, where
# one decode serves 16 jobs. The pre-pooling path ran 75-113, so 25
# still catches a lost pool or encoder fast path. The second pass
# exercises /v1/jobs:batch coalescing, which lifts the RTT-bound
# single-client rate ~8x on the same budget.
serve-capacity-smoke:
	$(GO) run ./cmd/eewa-density -engines serve -serve-mode closed \
		-policies eewa -cores 2 -func sha1 -size-bytes 256 -job-tasks 1 \
		-capacity-clients 16 -capacity-step-ms 700 -capacity-warmup-ms 200 \
		-max-allocs-per-job 25 -out BENCH_capacity_smoke.json
	$(GO) run ./cmd/eewa-density -engines serve -serve-mode closed \
		-policies eewa -cores 2 -func sha1 -size-bytes 256 -job-tasks 1 \
		-capacity-clients 1 -capacity-batch 16 -capacity-step-ms 700 -capacity-warmup-ms 200 \
		-max-allocs-per-job 25 -out BENCH_capacity_smoke.json
	@grep -q '"mode": "closed"' BENCH_capacity_smoke.json
	@rm -f BENCH_capacity_smoke.json
	@echo "serve capacity smoke OK: sustained steps within the alloc/job budget"

# Traffic harness smoke: generate the 5 s golden diurnal trace, verify
# it is byte-identical to the checked-in fixture (generator/RNG drift
# gate), then replay it through the sim and the real serve pipeline
# with -check, which replays each engine twice and fails unless the
# canonical per-tenant outcome logs (200/429/504 counts, batch
# composition) are byte-identical. Outcome conservation — every event
# resolving to exactly one status — is asserted inside the replayers.
traffic-smoke:
	$(GO) run ./cmd/eewa-traffic generate -golden -out traffic_golden.json
	cmp traffic_golden.json internal/traffic/testdata/golden.json
	$(GO) run ./cmd/eewa-traffic replay -in traffic_golden.json -engine sim -check -out /dev/null
	$(GO) run ./cmd/eewa-traffic replay -in traffic_golden.json -engine serve -check -workers 4 -out /dev/null
	rm -f traffic_golden.json
	@echo "traffic smoke OK: golden fixture stable, sim + serve replays deterministic"

# Reproduction artifacts referenced from EXPERIMENTS.md.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt obs_metrics.prom obs_trace.json serve_metrics.prom
	rm -f sweep.csv sweep_cells.json sweep_j1.csv sweep_jN.csv
	rm -f cluster.csv cluster_cells.json cluster_j1.csv cluster_jN.csv
	rm -f traffic_golden.json
