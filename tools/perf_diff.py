#!/usr/bin/env python3
"""Compare a freshly produced bench JSON against a committed baseline.

Usage: tools/perf_diff.py CANDIDATE [BASELINE]

The artifact kind is read from the candidate's `bench` field:

join_sweep — BASELINE defaults to bench/trajectory/BENCH_join.json. Rows
match by overlay size n; the scalar-leg join throughput must stay within
JOIN_TOLERANCE of the baseline's scalar figure. When seed and host count
match the baseline, the simulated state the joins leave behind (map
entries, subscriptions, notifications, route hops, probes) must equal the
baseline's exactly — a faster join that lands in a different final state
is a bug, not a win. Absolute joins/s moves with the machine, so the
throughput gate is deliberately loose (10%); regenerate the baseline on a
quiet machine via
  JOIN_NODES=1000,10000 BENCH_JSON=bench/trajectory/BENCH_join.json \
      build/bench/join_sweep

load_sweep — BASELINE defaults to bench/trajectory/BENCH_load.json. Rows
match by (offered, loop); goodput must not fall more than GOODPUT_DROP
below the baseline and queue delays must not exceed the baseline by more
than QUEUE_TOLERANCE. These are simulated quantities — same SEED and
knobs reproduce them exactly on any machine — so the tolerances only
leave room for intentional tuning. The gate is skipped (exit 0) when the
candidate ran with a different nodes/queries configuration than the
baseline, since rows would not be comparable. Regenerate via
  LOAD_NODES=1000 LOAD_SMOKE=1 SEED=42 \
      BENCH_JSON=bench/trajectory/BENCH_load.json build/bench/load_sweep

scale_sweep — BASELINE defaults to bench/trajectory/BENCH_scale.json.
Rows match by overlay size n. Per row: the indexed leg must report
`invariants_ok`, every sharded leg must report `identical` (store digest
equal to the sequential run — the bit-identity witness for the sharded
engine), join/publish/lookup throughput must stay within SCALE_TOLERANCE
of the baseline, peak RSS must not exceed the baseline by more than
RSS_TOLERANCE plus a small absolute grace, and rows of 100k nodes and up
that carry the memory comparison must hold the >= 4x full-to-compact
ratio the memory diet claims. The gate is skipped when the candidate ran
a different store configuration than the baseline. Regenerate via
  SCALE_NODES=1000,10000 SEED=42 \
      BENCH_JSON=bench/trajectory/BENCH_scale.json build/bench/scale_sweep

recovery — BASELINE defaults to bench/trajectory/BENCH_recovery.json.
Rows match by (message_loss, partition_fraction, churn, anti_entropy).
Every matched row must report zero invariant violations; anti-entropy
rows must still converge whenever the baseline row converged, within the
baseline's convergence-interval count plus a one-interval slack, and
must not spend more than DELTA_FRACTION_CEILING of full-state bytes on
deltas; engine-less acceptance rows must stay diverged (convergence
there would mean the scenario no longer isolates the engine). These are
simulated quantities — same SEED and knobs reproduce them exactly — and
the gate is skipped when the candidate ran a different
nodes/seed/replicas/retries configuration than the baseline. Regenerate
via
  RECOVERY_NODES=1000 RECOVERY_SMOKE=1 SEED=42 \\
      BENCH_JSON=bench/trajectory/BENCH_recovery.json \\
      build/bench/recovery_sweep

Exit status: 0 when every matched row holds (or the load/recovery gate
was skipped for a config mismatch), 1 on a regression or equivalence
failure, 2 on missing/garbled input.
"""

import json
import sys

JOIN_TOLERANCE = 0.10  # fail on >10% join-throughput regression
GOODPUT_DROP = 0.02    # fail when goodput falls >2pp below baseline
QUEUE_TOLERANCE = 0.10  # fail when queue delay exceeds baseline by >10%
SCALE_TOLERANCE = 0.10  # fail on >10% scale-sweep throughput regression
RSS_TOLERANCE = 0.20    # fail when peak RSS exceeds baseline by >20%
RSS_GRACE_BYTES = 32 << 20  # absolute grace under the relative RSS gate
MEMORY_RATIO_FLOOR = 4.0  # full/compact soft-state bytes at n >= 100k
MEMORY_RATIO_MIN_N = 100_000
RECOVERY_INTERVAL_SLACK = 1  # extra post-heal intervals tolerated
DELTA_FRACTION_CEILING = 0.25  # anti-entropy delta bytes / full-state bytes
NO_AE_CONVERGENCE_FLOOR = 5  # engine-less acceptance twin must stay diverged


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_diff: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if (doc.get("bench") not in
            ("join_sweep", "load_sweep", "scale_sweep", "recovery")
            or "results" not in doc):
        print(f"perf_diff: {path} is not a known bench artifact", file=sys.stderr)
        sys.exit(2)
    return doc


JOIN_STATE_FIELDS = ("map_entries", "subscriptions", "notifications",
                     "route_hops", "probes")


def diff_join(candidate, baseline):
    same_world = all(candidate.get(knob) == baseline.get(knob)
                     for knob in ("seed", "host_count"))
    cand_rows = {row["n"]: row for row in candidate["results"]}
    base_rows = {row["n"]: row for row in baseline["results"]}

    failures = []
    compared = 0
    for n, base_row in sorted(base_rows.items()):
        cand_row = cand_rows.get(n)
        if cand_row is None:
            continue  # smoke runs cover a subset of the baseline sizes
        compared += 1
        cand_leg = cand_row["scalar"]
        base_leg = base_row["scalar"]
        if same_world:
            moved = [field for field in JOIN_STATE_FIELDS
                     if cand_leg[field] != base_leg[field]]
            if moved:
                failures.append(
                    f"n={n}: join state differs from baseline in "
                    + ", ".join(moved))
        base = base_leg["join_per_s"]
        cand = cand_leg["join_per_s"]
        ratio = cand / base if base > 0 else 0.0
        verdict = "ok" if ratio >= 1.0 - JOIN_TOLERANCE else "REGRESSION"
        print(f"n={n}: scalar {cand:.0f} joins/s vs baseline {base:.0f} "
              f"({ratio:.2f}x) {verdict}")
        if verdict != "ok":
            failures.append(
                f"n={n}: scalar throughput {ratio:.2f}x of baseline "
                f"(floor {1.0 - JOIN_TOLERANCE:.2f}x)")

    if compared == 0:
        print("perf_diff: no overlapping sizes between candidate and baseline",
              file=sys.stderr)
        return 2, failures
    if not failures:
        print(f"perf_diff: {compared} size(s) within "
              f"{JOIN_TOLERANCE:.0%} of baseline")
    return (1 if failures else 0), failures


def diff_load(candidate, baseline):
    for knob in ("nodes", "queries", "seed"):
        if candidate.get(knob) != baseline.get(knob):
            print(f"perf_diff: load_sweep {knob} differs "
                  f"({candidate.get(knob)} vs baseline {baseline.get(knob)}); "
                  "rows not comparable, skipping gate")
            return 0, []

    def key(row):
        return (row["offered"], row["loop"])

    cand_rows = {key(row): row for row in candidate["results"]}
    base_rows = {key(row): row for row in baseline["results"]}

    failures = []
    compared = 0
    for row_key, base_row in sorted(base_rows.items()):
        cand_row = cand_rows.get(row_key)
        if cand_row is None:
            continue  # smoke runs cover a subset of the offered levels
        compared += 1
        offered, loop = row_key
        label = f"offered={offered} loop={'on' if loop else 'off'}"

        goodput = cand_row["goodput"]
        goodput_floor = base_row["goodput"] - GOODPUT_DROP
        ok = goodput >= goodput_floor
        print(f"{label}: goodput {goodput:.3f} vs baseline "
              f"{base_row['goodput']:.3f} {'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(
                f"{label}: goodput {goodput:.3f} below floor {goodput_floor:.3f}")

        for field in ("queue_mean_ms", "queue_p99_ms"):
            cand = cand_row[field]
            # Small absolute grace so near-zero idle rows cannot trip the
            # relative gate on rounding.
            ceiling = base_row[field] * (1.0 + QUEUE_TOLERANCE) + 0.1
            if cand > ceiling:
                failures.append(
                    f"{label}: {field} {cand:.2f} ms above ceiling "
                    f"{ceiling:.2f} ms (baseline {base_row[field]:.2f})")

    if compared == 0:
        print("perf_diff: no overlapping rows between candidate and baseline",
              file=sys.stderr)
        return 2, failures
    if not failures:
        print(f"perf_diff: {compared} row(s) within goodput -{GOODPUT_DROP} / "
              f"queue +{QUEUE_TOLERANCE:.0%} of baseline")
    return (1 if failures else 0), failures


def diff_scale(candidate, baseline):
    for knob in ("store", "quantize", "seed"):
        if candidate.get(knob) != baseline.get(knob):
            print(f"perf_diff: scale_sweep {knob} differs "
                  f"({candidate.get(knob)} vs baseline {baseline.get(knob)}); "
                  "rows not comparable, skipping gate")
            return 0, []

    cand_rows = {row["n"]: row for row in candidate["results"]}
    base_rows = {row["n"]: row for row in baseline["results"]}

    failures = []
    compared = 0
    for n, base_row in sorted(base_rows.items()):
        cand_row = cand_rows.get(n)
        if cand_row is None:
            continue  # smoke runs cover a subset of the baseline sizes
        compared += 1

        if not cand_row["indexed"].get("invariants_ok", False):
            failures.append(f"n={n}: overlay/store invariants failed")
        for leg in cand_row.get("sharded", []):
            if not leg.get("identical", False):
                failures.append(
                    f"n={n} shards={leg['shards']}: store digest diverged "
                    "from the sequential run")

        for field in ("join_per_s", "publish_per_s", "lookup_per_s"):
            base = base_row["indexed"][field]
            cand = cand_row["indexed"][field]
            ratio = cand / base if base > 0 else 0.0
            verdict = "ok" if ratio >= 1.0 - SCALE_TOLERANCE else "REGRESSION"
            print(f"n={n}: {field} {cand:.0f} vs baseline {base:.0f} "
                  f"({ratio:.2f}x) {verdict}")
            if verdict != "ok":
                failures.append(
                    f"n={n}: {field} {ratio:.2f}x of baseline "
                    f"(floor {1.0 - SCALE_TOLERANCE:.2f}x)")

        base_rss = base_row["peak_rss_bytes"]
        cand_rss = cand_row["peak_rss_bytes"]
        ceiling = base_rss * (1.0 + RSS_TOLERANCE) + RSS_GRACE_BYTES
        if cand_rss > ceiling:
            failures.append(
                f"n={n}: peak RSS {cand_rss / 2**20:.1f} MiB above ceiling "
                f"{ceiling / 2**20:.1f} MiB "
                f"(baseline {base_rss / 2**20:.1f} MiB)")

        memory = cand_row.get("memory", {})
        ratio = memory.get("full_to_compact_ratio", 0.0)
        if n >= MEMORY_RATIO_MIN_N and ratio > 0.0:
            verdict = "ok" if ratio >= MEMORY_RATIO_FLOOR else "REGRESSION"
            print(f"n={n}: full/compact memory ratio {ratio:.2f}x {verdict}")
            if verdict != "ok":
                failures.append(
                    f"n={n}: memory ratio {ratio:.2f}x below the "
                    f"{MEMORY_RATIO_FLOOR:.1f}x memory-diet floor")

    if compared == 0:
        print("perf_diff: no overlapping sizes between candidate and baseline",
              file=sys.stderr)
        return 2, failures
    if not failures:
        print(f"perf_diff: {compared} size(s) within {SCALE_TOLERANCE:.0%} "
              f"throughput / +{RSS_TOLERANCE:.0%} RSS of baseline, "
              "all sharded legs identical")
    return (1 if failures else 0), failures


def diff_recovery(candidate, baseline):
    for knob in ("nodes", "seed", "replicas", "retries"):
        if candidate.get(knob) != baseline.get(knob):
            print(f"perf_diff: recovery {knob} differs "
                  f"({candidate.get(knob)} vs baseline {baseline.get(knob)}); "
                  "rows not comparable, skipping gate")
            return 0, []

    def key(row):
        return (row["message_loss"], row["partition_fraction"],
                row["churn"], row["anti_entropy"])

    cand_rows = {key(row): row for row in candidate["results"]}
    base_rows = {key(row): row for row in baseline["results"]}

    failures = []
    compared = 0
    for row_key, base_row in sorted(base_rows.items()):
        cand_row = cand_rows.get(row_key)
        if cand_row is None:
            continue  # smoke runs cover a subset of the baseline grid
        compared += 1
        loss, partition, churn, ae = row_key
        label = (f"loss={loss} partition={partition} "
                 f"churn={'on' if churn else 'off'} "
                 f"ae={'on' if ae else 'off'}")

        if cand_row.get("invariant_violations", 1) != 0:
            failures.append(f"{label}: invariant violations in the leg")
            continue

        if ae:
            converged = cand_row.get("converged", False)
            intervals = cand_row.get("convergence_intervals", 0)
            delta = cand_row.get("delta_fraction", 1.0)
            print(f"{label}: converged={'yes' if converged else 'NO'} "
                  f"intervals={intervals} delta_fraction={delta:.3f} "
                  f"(baseline intervals="
                  f"{base_row.get('convergence_intervals', 0)})")
            if base_row.get("converged", False) and not converged:
                failures.append(
                    f"{label}: no longer converges (baseline converged in "
                    f"{base_row.get('convergence_intervals', 0)} intervals)")
            elif (converged and base_row.get("converged", False)
                  and intervals > (base_row["convergence_intervals"]
                                   + RECOVERY_INTERVAL_SLACK)):
                failures.append(
                    f"{label}: converged in {intervals} intervals vs "
                    f"baseline {base_row['convergence_intervals']} "
                    f"(+{RECOVERY_INTERVAL_SLACK} slack)")
            if delta > DELTA_FRACTION_CEILING:
                failures.append(
                    f"{label}: delta traffic {delta:.3f} of full-state "
                    f"bytes above the {DELTA_FRACTION_CEILING} ceiling")
        elif (cand_row.get("acceptance", False)
              and cand_row.get("converged", False)
              and (cand_row.get("convergence_intervals", 0)
                   <= NO_AE_CONVERGENCE_FLOOR)):
            failures.append(
                f"{label}: engine-less twin converged in "
                f"{cand_row['convergence_intervals']} intervals — the "
                "scenario no longer isolates the engine")

    if compared == 0:
        print("perf_diff: no overlapping rows between candidate and baseline",
              file=sys.stderr)
        return 2, failures
    if not failures:
        print(f"perf_diff: {compared} row(s) converge within baseline "
              f"+{RECOVERY_INTERVAL_SLACK} interval(s), delta traffic under "
              f"{DELTA_FRACTION_CEILING:.0%} of full-state bytes")
    return (1 if failures else 0), failures


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    candidate = load(argv[1])
    kind = candidate["bench"]
    default_baseline = {
        "join_sweep": "bench/trajectory/BENCH_join.json",
        "load_sweep": "bench/trajectory/BENCH_load.json",
        "scale_sweep": "bench/trajectory/BENCH_scale.json",
        "recovery": "bench/trajectory/BENCH_recovery.json",
    }[kind]
    baseline_path = argv[2] if len(argv) == 3 else default_baseline
    baseline = load(baseline_path)
    if baseline["bench"] != kind:
        print(f"perf_diff: baseline {baseline_path} is "
              f"{baseline['bench']}, candidate is {kind}", file=sys.stderr)
        return 2

    differ = {
        "join_sweep": diff_join,
        "load_sweep": diff_load,
        "scale_sweep": diff_scale,
        "recovery": diff_recovery,
    }[kind]
    status, failures = differ(candidate, baseline)
    for failure in failures:
        print(f"perf_diff: FAIL {failure}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
