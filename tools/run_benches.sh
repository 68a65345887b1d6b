#!/usr/bin/env sh
# Build the default (RelWithDebInfo) tree and run every figure-reproduction
# bench, teeing each log and collecting the BENCH_*.json artifacts into one
# output directory for cross-PR comparison.
#
# Usage: tools/run_benches.sh [outdir]          (default: bench-out/)
#
# The usual bench knobs apply and are simply inherited from the
# environment: SEED, FULL, THREADS, RTT_ENGINE, ORACLE_ROWS (see
# bench/common.hpp and docs/performance.md). Same SEED and THREADS give
# byte-identical tables and JSON on every run.
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-bench-out}

cmake --preset default
cmake --build --preset default -j "$(nproc)"

mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)

BENCHES="
fig02_ecan_vs_can
fig03_06_nn_search
fig10_13_stretch_vs_rtts
fig14_15_stretch_vs_nodes
fig16_condense_rate
tacan_imbalance
ablation_landmark_opts
maintenance_pubsub
taxonomy_techniques
chord_pns
pastry_pns
overhead_costs
churn_lifecycle
scale_sweep
fault_sweep
join_sweep
load_sweep
recovery_sweep
micro_benchmarks
"

# scale_sweep's full sizes take minutes; the sweep here runs the 1k smoke
# configuration unless the caller already scaled it (SCALE_NODES/FULL).
if [ -z "${SCALE_NODES:-}" ] && [ -z "${FULL:-}" ]; then
  SCALE_NODES=1000
  export SCALE_NODES
fi

# fault_sweep likewise: the 1k-node smoke grid unless the caller scaled it.
if [ -z "${FAULT_NODES:-}" ] && [ -z "${FULL:-}" ]; then
  FAULT_NODES=1000
  FAULT_SMOKE=1
  export FAULT_NODES FAULT_SMOKE
fi

# join_sweep likewise: 1k joins unless the caller scaled it. The full run
# (FULL=1 or explicit JOIN_NODES) also covers the committed 10k trajectory
# point.
if [ -z "${JOIN_NODES:-}" ] && [ -z "${FULL:-}" ]; then
  JOIN_NODES=1000
  export JOIN_NODES
fi

# load_sweep likewise: the 1k-node three-level smoke grid unless the
# caller scaled it. This matches the committed trajectory baseline, so
# the perf_diff gate below engages.
if [ -z "${LOAD_NODES:-}" ] && [ -z "${FULL:-}" ]; then
  LOAD_NODES=1000
  LOAD_SMOKE=1
  export LOAD_NODES LOAD_SMOKE
fi

# recovery_sweep likewise: the 1k-node acceptance + churn pairs unless
# the caller scaled it. This matches the committed trajectory baseline,
# so the perf_diff gate below engages.
if [ -z "${RECOVERY_NODES:-}" ] && [ -z "${FULL:-}" ]; then
  RECOVERY_NODES=1000
  RECOVERY_SMOKE=1
  export RECOVERY_NODES RECOVERY_SMOKE
fi

# Run from a scratch dir so the JSON emitters drop their files where we
# can sweep them up, regardless of each bench's default output path.
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

ROOT=$(pwd)
for bench in $BENCHES; do
  echo "== $bench =="
  (cd "$SCRATCH" && "$ROOT/build/bench/$bench") 2>&1 | tee "$OUT/$bench.log"
done

for json in "$SCRATCH"/BENCH_*.json; do
  [ -e "$json" ] && cp "$json" "$OUT/"
done

# Gate the scalar join path against the committed trajectory point: a
# >10% throughput regression (or a moved join state) fails the run.
if [ -e "$OUT/BENCH_join.json" ] && [ -e bench/trajectory/BENCH_join.json ]; then
  python3 tools/perf_diff.py "$OUT/BENCH_join.json"
fi

# Gate traffic-plane goodput and queue delay the same way: these are
# simulated quantities, so a drift from the committed baseline means the
# model or the loop changed, not the machine.
if [ -e "$OUT/BENCH_load.json" ] && [ -e bench/trajectory/BENCH_load.json ]; then
  python3 tools/perf_diff.py "$OUT/BENCH_load.json"
fi

# Gate the scale sweep: throughput floors, a peak-RSS ceiling, sharded
# bit-identity and the >= 4x memory-diet ratio (at sizes that run the
# memory-comparison leg).
if [ -e "$OUT/BENCH_scale.json" ] && [ -e bench/trajectory/BENCH_scale.json ]; then
  python3 tools/perf_diff.py "$OUT/BENCH_scale.json"
fi

# Gate replica recovery: anti-entropy legs must keep converging within
# the committed baseline's interval count (plus one interval of slack)
# without overspending on delta traffic, and the engine-less acceptance
# twin must stay diverged.
if [ -e "$OUT/BENCH_recovery.json" ] && [ -e bench/trajectory/BENCH_recovery.json ]; then
  python3 tools/perf_diff.py "$OUT/BENCH_recovery.json"
fi

echo
echo "logs and JSON artifacts in $OUT:"
ls -l "$OUT"
