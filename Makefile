# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. CI and pre-commit both run `make check`.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet build test bench-test bench-smoke bench bench-roll bench-decode bench-merge bench-cluster smoke-serve chaos chaos-cluster fuzz loc

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


# The cold read's micro-benchmarks: decoding one 8192-entry HR sample, stored
# in value order and in the insertion order older files have, and cloning its
# histogram (what a consuming merge pays per input).
bench-decode:
	go test -run XXX -bench 'BenchmarkDecodeSample|BenchmarkHistogramClone' -benchmem -benchtime=200x .

# The warm read's micro-benchmark: one k-way merge of 16 cached 8192-entry HR
# samples beside the clone + pairwise tree it replaced, over HB inputs, with an
# exhaustive input, and in value order as the store serves them, each
# single-threaded and at full parallelism. CI runs it with BENCHTIME=20x as a
# smoke test.
BENCHTIME ?= 200x

bench-merge:
	go test -run XXX -bench BenchmarkMergeK -benchmem -benchtime=$(BENCHTIME) .

# The write side's micro-benchmarks, with the same BENCHTIME (CI: 20x): one
# served PUT of a 65 536-row body without network (scan, FeedAll, finalize,
# roll-in with its sidecar build) into an in-memory store, and into a file
# store with a journal as swd runs it, HR fed 4096-value chunks through
# core.FeedAll, one RollIn+RollOut cycle over a 64-partition file store (ns and
# catalog bytes per cycle) and the sidecar build inside it.
bench-roll:
	go test -run XXX -bench 'BenchmarkIngestBody|BenchmarkSamplerThroughput/HR-FeedAll|BenchmarkRollCycle|BenchmarkFromSample' -benchmem -benchtime=$(BENCHTIME) .

# Cluster benchmark (DESIGN.md §13): replicated scatter-gather ladder over
# shard counts plus a one-shard-down kill drill through the survivors; the
# JSON document goes to stdout.
bench-cluster:
	go run ./cmd/swbench -exp cluster -clshards 1,2,4 -clclients 8 -cldur 2s -json -

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
# write this run — the binary sample codec and a shard's GET sample body
# (decode must never panic, must reject corrupted inputs, must never hold a
# value twice, and what is accepted must merge without a panic), the manifest
# (load → catalog records → save must never panic, and a saved catalog is a
# fixed point), a partition's sidecar blob (what loads validates or reads as
# absent), the query grammar (an accepted query re-renders to itself) and a
# read's URL parameters (an accepted read has a supported confidence and
# in-range bounds) and an ingest body (read exactly as TrimSpace + ParseInt
# read it: the same values, or the same status and message) — and over the
# histogram, whose lazily built index must leave every operation sequence
# observably what the eager reference makes of it.
# The manifest seeds are ~40 KB and one ingest-body seed is 1 MiB, so
# minimizing each new corpus entry would eat the whole budget. Override
# FUZZTIME for longer campaigns.
FUZZTIME ?= 15s

fuzz:
	go test -run NONE -fuzz FuzzDecodeSample -fuzztime $(FUZZTIME) ./internal/storage
	go test -run NONE -fuzz FuzzSampleFromWire -fuzztime $(FUZZTIME) ./internal/server
	go test -run NONE -fuzz FuzzHistogramOps -fuzztime $(FUZZTIME) ./internal/histogram
	go test -run NONE -fuzz FuzzLoadManifest -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/warehouse
	go test -run NONE -fuzz FuzzLoadSidecar -fuzztime $(FUZZTIME) ./internal/warehouse
	go test -run NONE -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/estimate
	go test -run NONE -fuzz FuzzParseReadQuery -fuzztime $(FUZZTIME) ./internal/server
	go test -run NONE -fuzz FuzzIngestBody -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/server

# Non-test Go lines per internal package, per command and in the root facade —
# the count ROADMAP aim 2 and its simplification items gate on (raw lines:
# code, comments and blanks alike).
loc:
	@for d in internal/*/ cmd/*/ ./; do \
		printf '%6d %s\n' "$$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l)" "$$d"; \
	done
