#!/bin/bash
# Run every figure/table/micro benchmark and write one combined log,
# per-bench JSON row files (results/<bench>.json, tmemc-bench-v1),
# plus a per-bench pass/fail summary at the end. Exits nonzero if any
# bench failed, so CI can gate on it.
#
# Usage: results/run_all.sh [OPS] [TRIALS]
#        results/run_all.sh --rebaseline
#
# --rebaseline runs only the CI perf-gate pair (bench_fig4 --quick and
# bench_net) and refreshes results/baseline.json from their JSON; run
# it on the runner class the gate will compare on, then commit the
# baseline together with the change that moved the numbers.
set -euo pipefail

# Resolve the repo root from this script's location instead of
# hard-coding a checkout path.
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

BENCH_DIR=build/bench

if [[ ${1:-} == --rebaseline ]]; then
    "$BENCH_DIR/bench_fig4" --quick --trials 3 --threads 1,4 \
        --json results/gate_fig4.json
    "$BENCH_DIR/bench_net" --ops 3000 --trials 3 --threads 1,4 \
        --json results/gate_net.json
    # The IP-onCommit ASCII rows and the invisible-reader rows gate
    # too.
    "$BENCH_DIR/bench_net" --branch IP-onCommit --ascii --ops 3000 \
        --trials 3 --threads 1,4 --json results/gate_net_ascii.json
    "$BENCH_DIR/bench_ro_tx" --trials 3 --threads 1,4 \
        --json results/gate_ro_tx.json
    python3 scripts/perf_gate.py rebaseline --out results/baseline.json \
        results/gate_fig4.json results/gate_net.json \
        results/gate_net_ascii.json results/gate_ro_tx.json
    exit 0
fi

OPS=${1:-10000}
TRIALS=${2:-2}
OUT=results/bench_default.txt

if [[ ! -d "$BENCH_DIR" ]]; then
    echo "error: $BENCH_DIR not found; build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 2
fi

: > "$OUT"
declare -a names=()
declare -a statuses=()

run_bench() {
    # run_bench NAME TIMEOUT CMD...: append output to $OUT, record
    # pass/fail without aborting the sweep (set -e stays active for
    # everything else).
    local name=$1 tmo=$2
    shift 2
    echo "=== $name ===" >> "$OUT"
    local rc=0
    timeout "$tmo" "$@" >> "$OUT" 2>&1 || rc=$?
    names+=("$name")
    if [[ $rc -eq 0 ]]; then
        statuses+=("pass")
    else
        statuses+=("FAIL(rc=$rc)")
    fi
}

for b in fig4 table1 fig6 table2 fig8 table3 fig9 table4 fig10 fig11 \
         lockprof ext_fused ablation_callable; do
    run_bench "bench_$b" 2400 \
        "$BENCH_DIR/bench_$b" --ops "$OPS" --trials "$TRIALS" \
        --json "results/bench_$b.json"
done

# Shard-count scaling sweep (ops/s at shards 1/4/16) and the loopback
# serving gate, both added with the sharded cache.
run_bench bench_shard_scaling 2400 \
    "$BENCH_DIR/bench_shard_scaling" --ops "$OPS" --trials "$TRIALS" \
    --threads 1,4,8,12 --json results/bench_shard_scaling.json
run_bench bench_net 1200 "$BENCH_DIR/bench_net" --ops 5000 \
    --json results/bench_net.json
run_bench bench_net_sharded 1200 \
    "$BENCH_DIR/bench_net" --ops 5000 --shards 16 \
    --json results/bench_net_sharded.json

# The text-protocol serving path on a GET-heavy mix and the
# invisible-reader read-only-transaction ablation.
run_bench bench_net_ascii 1200 \
    "$BENCH_DIR/bench_net" --branch IP-onCommit --ascii --ops 5000 \
    --json results/bench_net_ascii.json
run_bench bench_ro_tx 1200 \
    "$BENCH_DIR/bench_ro_tx" --ops "$OPS" --trials "$TRIALS" \
    --threads 1,4,8 --json results/bench_ro_tx.json

# Plain-double min_time: the "0.05s" suffix form needs benchmark >= 1.8.
run_bench bench_micro_tm 1200 \
    "$BENCH_DIR/bench_micro_tm" --benchmark_min_time=0.05
run_bench bench_micro_tmsafe 1200 \
    "$BENCH_DIR/bench_micro_tmsafe" --benchmark_min_time=0.05

echo ALL_BENCHES_DONE >> "$OUT"

failed=0
for st in "${statuses[@]}"; do
    [[ $st == pass ]] || failed=1
done
{
    echo
    echo "=== summary ==="
    for i in "${!names[@]}"; do
        printf '%-24s %s\n' "${names[$i]}" "${statuses[$i]}"
    done
} | tee -a "$OUT"
exit $failed
