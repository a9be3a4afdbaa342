#!/bin/sh
# Regenerates cmd/experiments/default.pgo, the CPU profile Go's default
# -pgo=auto build reads for that main package (go build, go run, and
# the -isolate workers, which re-exec the same binary). The profile is
# taken from the default user command at quick scale: a sequential
# `-exp all`, run twice from a -pgo=off build and merged. Each run's
# stdout must still equal the quick golden.
#
# PGO changes inlining and devirtualization only, never results, so a
# stale profile costs speed, not correctness. Refresh it after a change
# that moves the hot path (docs/PERF.md, "Compact lines and PGO").
#
# Usage: scripts/pgo.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -pgo=off -o "$tmp/experiments" ./cmd/experiments
for run in 1 2; do
	"$tmp/experiments" -exp all -parallel 1 -warmup 200000 -instr 200000 -seed 42 -quiet \
		-cpuprofile "$tmp/cpu$run.pprof" > "$tmp/out$run"
	diff docs/golden/quick_all.golden "$tmp/out$run"
done
go tool pprof -proto "$tmp/experiments" "$tmp/cpu1.pprof" "$tmp/cpu2.pprof" > "$tmp/merged.pgo"
mv "$tmp/merged.pgo" cmd/experiments/default.pgo
echo "wrote cmd/experiments/default.pgo"
