#!/bin/sh
# Repository health check: formatting, vet, full test suite, and a
# single-iteration pass over every benchmark (so the whole evaluation
# pipeline is exercised). Used before publishing results.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "unformatted files:" "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (short mode) =="
go test -race -short ./...

# One simlint invocation covers both output contracts: the text and
# NDJSON formats are locked by cmd/simlint's CLI tests, so running the
# module twice here only doubled the type-check cost. The default rule
# set includes hotpath, so this is also the hot-path self-lint gate.
echo "== simlint (incl. hotpath self-lint) =="
go run ./cmd/simlint ./...

# All hand-seeded mutant gates (protocol, unit, hot-path, sync)
# live in one script so this file and CI cannot drift apart.
echo "== seeded-mutant gates (scripts/mutants.sh) =="
scripts/mutants.sh

echo "== generated-mutant kill ratio vs MUTATION_quick.json (docs/ANALYSIS.md) =="
go run ./cmd/mutcheck -quiet -diff MUTATION_quick.json

echo "== bench trajectory vs BENCH_quick.json (docs/PERF.md) =="
scripts/bench.sh

echo "== protocheck (protocol model checker) =="
go run ./cmd/protocheck

echo "== experiments quick scale vs golden, byte-identical at -parallel 1/4/8 =="
# One selection, three worker counts: the golden diff pins the bytes,
# and the cross-diffs pin that the worker count is unobservable in
# them (docs/PARALLEL.md) — the scheduler-equivalence contract the
# synccheck determinism bridge enforces statically.
go run ./cmd/experiments -exp table1,fig5 -parallel 1 -warmup 200000 -instr 200000 -quiet > /tmp/quick_check_p1.out
go run ./cmd/experiments -exp table1,fig5 -parallel 4 -warmup 200000 -instr 200000 -quiet > /tmp/quick_check_p4.out
go run ./cmd/experiments -exp table1,fig5 -parallel 8 -warmup 200000 -instr 200000 -quiet > /tmp/quick_check_p8.out
diff docs/golden/quick_table1_fig5.golden /tmp/quick_check_p4.out
diff /tmp/quick_check_p1.out /tmp/quick_check_p4.out
diff /tmp/quick_check_p1.out /tmp/quick_check_p8.out

echo "== experiments quick scale -exp all vs golden at -parallel 1/2 =="
# Every figure and table at quick scale, seed 42: a change meant to
# keep the output bytes (a faster sampler, a smaller tag line) must
# leave all of them identical, not only table1,fig5.
go run ./cmd/experiments -exp all -parallel 1 -warmup 200000 -instr 200000 -seed 42 -quiet > /tmp/quick_all_p1.out
go run ./cmd/experiments -exp all -parallel 2 -warmup 200000 -instr 200000 -seed 42 -quiet > /tmp/quick_all_p2.out
diff docs/golden/quick_all.golden /tmp/quick_all_p1.out
diff docs/golden/quick_all.golden /tmp/quick_all_p2.out

echo "== experiments quick scale opt-in selection vs golden at -parallel 1/2 =="
# The ablations and sweeps -exp all leaves out (private-update,
# bandwidth, sens-size, ...) get the same byte-level pin.
optin=abl-promotion,abl-tags,abl-replication,abl-optimizations,abl-cmigration,abl-update,abl-dnuca,bandwidth,capacity,sens-size,sens-seed
go run ./cmd/experiments -exp "$optin" -parallel 1 -warmup 200000 -instr 200000 -seed 42 -quiet > /tmp/quick_optin_p1.out
go run ./cmd/experiments -exp "$optin" -parallel 2 -warmup 200000 -instr 200000 -seed 42 -quiet > /tmp/quick_optin_p2.out
diff docs/golden/quick_optin.golden /tmp/quick_optin_p1.out
diff docs/golden/quick_optin.golden /tmp/quick_optin_p2.out

echo "== experiments built with -pgo=off: quick -exp all vs golden =="
# The runs above use cmd/experiments/default.pgo (Go's default
# -pgo=auto). The same bytes without it prove the profile is purely a
# speed input.
go run -pgo=off ./cmd/experiments -exp all -parallel 1 -warmup 200000 -instr 200000 -seed 42 -quiet > /tmp/quick_all_nopgo.out
diff docs/golden/quick_all.golden /tmp/quick_all_nopgo.out

echo "== chaos: fault-injection sweep under race (docs/ROBUSTNESS.md) =="
go test -race -short -run 'TestChaosSweep|TestControlInjectorIsBitIdentical' ./internal/simguard

echo "== chaos: watchdog catches the seeded livelock mutant =="
go test -race -run 'TestWatchdogCatchesLivelockMutant|TestWatchdogTripsOnZeroWorkStream' ./internal/simguard ./internal/cmpsim

echo "== farm: chaos sweep (worker kills/stalls) under race =="
go test -race -short -run 'TestChaosSweep|TestChaosFailureReportIsDeterministic' ./internal/farm

echo "== farm: SIGKILLed workers, sweep still byte-identical to golden =="
go run ./cmd/experiments -exp table1,fig5 -parallel 4 -warmup 200000 -instr 200000 -quiet \
	-isolate -no-store -chaos-kill-frac 0.5 -retries 3 > /tmp/farm_chaos.out 2>/dev/null
diff docs/golden/quick_table1_fig5.golden /tmp/farm_chaos.out

echo "== farm: interrupted sweep resumes from the store =="
farm_store=$(mktemp -d)
go run ./cmd/experiments -exp table1,fig5 -warmup 50000 -instr 50000 -quiet > /tmp/farm_base.out
set +e
go run ./cmd/experiments -exp table1,fig5 -warmup 50000 -instr 50000 -quiet \
	-isolate -store "$farm_store" -chaos-kill-frac 0.5 -retries 0 > /tmp/farm_interrupted.out 2>/dev/null
farm_code=$?
set -e
if [ "$farm_code" -ne 1 ]; then
	echo "expected the interrupted sweep to exit 1, got $farm_code"
	exit 1
fi
go run ./cmd/experiments -exp table1,fig5 -warmup 50000 -instr 50000 -quiet \
	-isolate -store "$farm_store" > /tmp/farm_resumed.out 2> /tmp/farm_resumed.err
grep 'farm: ' /tmp/farm_resumed.err | grep -vq ' 0 store hits'
diff /tmp/farm_base.out /tmp/farm_resumed.out
rm -rf "$farm_store"

echo "== chaos: graceful degradation on cell failure =="
set +e
go run ./cmd/experiments -exp table1,fig7 -warmup 500 -instr 500 -max-cycles 500 -quiet > /tmp/chaos_smoke.out 2>/dev/null
chaos_code=$?
set -e
if [ "$chaos_code" -ne 1 ]; then
	echo "expected exit 1 on cell failure, got $chaos_code"
	exit 1
fi
grep -q "Table 1" /tmp/chaos_smoke.out
grep -q "ERR fig7:" /tmp/chaos_smoke.out
grep -q "FAILURE REPORT:" /tmp/chaos_smoke.out

echo "== benchmarks (1 iteration each) =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "== full reproduction (optional, ~3 min): CMPNURAPID_FULL=1 go test -run TestFullReproduction -timeout 30m . =="
echo "OK"
