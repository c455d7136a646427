#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -campaign        ten seeds x every workload, twice, then the verdict
#
# Everything the Go tool-chain writes — build cache, module cache, temp files,
# its own configuration — goes under .bench_build/ in the checkout, and the
# benchmark is exec'ed, so a signal sent to this script reaches it.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=$PWD/.bench_build
bin=$build/bench

# Go telemetry's default "local" mode leaves a detached sidecar process behind
# the first go command. The mode lives in the tool-chain's configuration
# directory, so give it one of its own with the mode already off.
mkdir -p "$build/config/go/telemetry" "$build/tmp"
echo off >"$build/config/go/telemetry/mode"
export XDG_CONFIG_HOME=$build/config
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -C bench -o "$bin" .

BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

if [ "${1:-}" != "-campaign" ]; then
	exec "$bin" "$@"
fi

# The campaign is the builder's mirror of the driver's check: two sets of ten
# seeds, the workloads interleaved seed by seed, one process per run.
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
workloads=$(grep -o '{"name": *"[a-z-]*", *"why"' BENCHMARK.json | cut -d'"' -f4)
stamp=$(date +%Y%m%d-%H%M%S)
out=bench/out/campaign-$stamp.tsv
mkdir -p "bench/out/campaign-$stamp"
for set in 1 2; do
	for i in 1 2 3 4 5 6 7 8 9 10; do
		seed=$(((set - 1) * 10 + i))
		for w in $workloads; do
			line=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) ||
				echo "campaign: $w seed $seed exited non-zero" >&2
			printf '%s\t%s\t%s\t%s\n' "$set" "$w" "$seed" "$line" >>"$out"
			cp "bench/out/$w.result.json" "bench/out/campaign-$stamp/$set-$w-$seed.result.json"
		done
	done
done
echo "campaign: result lines in $out, each run's results file under bench/out/campaign-$stamp/"
exec "$bin" -campaign-report "$out"
