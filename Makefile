# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. CI and pre-commit both run `make check`.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet build test bench-test bench-smoke bench bench-roll bench-decode bench-query bench-plan bench-sketch bench-serve bench-cluster bench-repair smoke-serve chaos chaos-cluster fuzz loc

check: fmt vet build test

fmt:
	@out="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ is its own module (it is the BENCHMARK.json harness), so ./... never
# reaches it; vet it too, or an API-breaking refactor passes here and fails
# the benchmark run.
vet:
	go vet ./...
	go vet -C bench ./...

build:
	go build ./...

test:
	go test -race ./...

# The benchmark harness's own tests (~35 s): they serve the real stack.
bench-test:
	go test -C bench ./...

# Two seconds of each BENCHMARK.json workload through the real runner. The
# runner exits non-zero when its correctness gate fails (or it cannot build or
# serve), which is the check here; the timings of so short a run are advisory.
bench-smoke:
	@for w in merge-warm range-cold ingest-roll roll-query; do \
		echo "bench-smoke: $$w"; \
		bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

# The figure benches and the instrumentation-overhead comparison.
bench:
	go test -run XXX -bench . -benchtime 1s .

# The write side's micro-benchmarks: one RollIn+RollOut cycle over a 64-partition
# file store (ns and catalog bytes per cycle) and the sidecar build inside it.
bench-roll:
	go test -run XXX -bench 'BenchmarkRollCycle|BenchmarkFromSample' -benchtime=50x .

# The cold read's micro-benchmarks: decoding one 8192-entry HR sample, stored
# in value order and in the insertion order older files have, and cloning its
# histogram (what a consuming merge pays per input).
bench-decode:
	go test -run XXX -bench 'BenchmarkDecodeSample|BenchmarkHistogramClone' -benchmem -benchtime=200x .

# Read-path benchmark (DESIGN.md §9): cold vs warm cache and merge
# parallelism at 64 partitions, written to BENCH_query.json.
bench-query:
	go run ./cmd/swbench -exp querypath -qparts 16,64 -qworkers 1,4,16 -json BENCH_query.json

# Bounded-query benchmark (DESIGN.md §14): maxerr ladder over a file-backed
# warehouse; partitions loaded and latency must fall as the bound loosens.
bench-plan:
	go run ./cmd/swbench -exp plan -pparts 32 -pmaxerr 0.05,0.1,0.2,0.3 -json BENCH_plan.json

# Sketch sidecar benchmark (DESIGN.md §15): prove-pruning ladder (fails
# unless the prune ratio grows with selectivity and estimates stay
# byte-identical) plus KMV-union vs sample-GEE distinct estimation on a
# skewed workload, written to BENCH_sketch.json.
bench-sketch:
	go run ./cmd/swbench -exp sketch -skparts 32 -json BENCH_sketch.json

# Serving-layer benchmark (DESIGN.md §10): closed-loop client ladder against
# a live loopback server — latency quantiles and shed rate per client count,
# written to BENCH_serve.json.
bench-serve:
	go run ./cmd/swbench -exp serve -sclients 1,2,4,8,16,32 -sdur 2s -json BENCH_serve.json

# Cluster benchmark (DESIGN.md §13): replicated scatter-gather ladder over
# shard counts plus a one-shard-down kill drill through the survivors,
# written to BENCH_cluster.json.
bench-cluster:
	go run ./cmd/swbench -exp cluster -clshards 1,2,4 -clclients 8 -cldur 2s -json BENCH_cluster.json

# Self-healing replication drill (DESIGN.md §16): kill a replica, ingest
# through the survivors, restart it, and measure convergence time; fails
# unless the healed cluster answers strict full-coverage queries with samples
# identical to a never-failed control. Written to BENCH_repair.json.
bench-repair:
	go run ./cmd/swbench -exp repair -rshards 3 -rparts 8 -json BENCH_repair.json

# Boot a real swd, hit every endpoint once with curl + swcli query, then
# SIGTERM it and require a clean drain (exit 0). The one-query-per-endpoint
# pass is the serving subsystem's CI smoke test.
smoke-serve:
	./scripts/smoke-serve.sh

# Crash-recovery drill (DESIGN.md §11): SIGKILL a live swd CHAOS_CYCLES
# times under concurrent keyed ingest, then verify every acknowledged batch
# survived exactly once and estimates stay inside their intervals.
CHAOS_CYCLES ?= 20
CHAOS_WORKERS ?= 4

chaos:
	./scripts/chaos-ingest.sh $(CHAOS_CYCLES) $(CHAOS_WORKERS)

# Cluster kill drill: boot a 3-shard swd cluster (replication 2), SIGKILL one
# shard under concurrent keyed ingest and queries, and require exactly-once
# acknowledged batches plus error-free (possibly degraded) answers throughout.
chaos-cluster:
	./scripts/chaos-cluster.sh

# Short fuzz passes over the decoders that read bytes the program did not
# write this run — the binary sample codec (decode must never panic, must
# reject corrupted inputs and must never hold a value twice), the manifest
# (load → catalog records → save must never panic, and a saved catalog is a
# fixed point) and a partition's sidecar blob (what loads validates or reads
# as absent) — and over the histogram, whose lazily built index must leave
# every operation sequence observably what the eager reference makes of it.
# The manifest seeds are ~40 KB, so minimizing each new corpus entry would eat
# the whole budget. Override FUZZTIME for longer campaigns.
FUZZTIME ?= 15s

fuzz:
	go test -run NONE -fuzz FuzzDecodeSample -fuzztime $(FUZZTIME) ./internal/storage
	go test -run NONE -fuzz FuzzHistogramOps -fuzztime $(FUZZTIME) ./internal/histogram
	go test -run NONE -fuzz FuzzLoadManifest -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/warehouse
	go test -run NONE -fuzz FuzzLoadSidecar -fuzztime $(FUZZTIME) ./internal/warehouse

# Non-test Go lines per internal package — the count ROADMAP aim 2 and its
# simplification items gate on (raw lines: code, comments and blanks alike).
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' "$$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l)" "$$d"; \
	done
