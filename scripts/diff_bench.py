#!/usr/bin/env python3
"""Diff freshly produced BENCH_*.json against the committed trajectory.

For every BENCH_*.json present in --current that also exists in --committed,
rows are matched by their "config" value and two kinds of fields are gated:

  * throughput: fields starting with "items_per_sec" — a drop of more than
    --tolerance (default 0.2, i.e. >20% regression) fails the run;
  * tail latency: fields starting with "p99" — an INCREASE beyond
    --lat-tolerance (default 1.0, i.e. p99 more than doubling) fails the
    run. The wide band absorbs open-loop tail noise while still catching a
    batching/admission change that wrecks the SLO story.

Improvements and new rows/files are fine.

Rows are only comparable when they were measured under the same shape: any
field that is not a measured metric (keys, nodes, reps, hw_threads, ...) must
match on both sides, otherwise the row is skipped with a per-row warning.
This is what makes the CI smoke runs (SDG_BENCH_SCALE / different core
counts) safe to diff against the full-run numbers committed from the dev box
— mismatched rows are reported as skipped, never as regressions. But a diff
that skips more than half of the baseline rows is not a diff at all (a
renamed shape field silently waves every regression through), so that fails
the run outright.

Usage: scripts/diff_bench.py [--committed DIR] [--current DIR] [--tolerance F]
"""

import argparse
import glob
import json
import os
import sys

# Fields with one of these prefixes are measurements; everything else in a row
# describes the workload shape and must match for the row to be comparable.
METRIC_PREFIXES = (
    "items_per_sec",
    "wall_ms",
    "bytes_per_epoch",
    "records_per_epoch",
    "full_over",
    "speedup",
    "overhead",
    "mib_per_sec",
    "send_p",
    "items",        # raw items moved (covers items_per_sec too)
    "peak_unacked",
    "bytes",
    # Serve front door (BENCH_serve.json).
    "p50",
    "p99",
    "overloaded",
    "errors",
    "replica_answers",
    "batch_mean",
)


def is_metric(field):
    return any(field.startswith(p) for p in METRIC_PREFIXES)


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    return {row["config"]: row for row in data if "config" in row}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--committed", default=".", help="dir with committed BENCH_*.json")
    ap.add_argument("--current", default="build/bench", help="dir with fresh BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="max allowed fractional drop in items_per_sec fields")
    ap.add_argument("--lat-tolerance", type=float, default=1.0,
                    help="max allowed fractional increase in p99 fields")
    ap.add_argument("--max-skip-frac", type=float, default=0.5,
                    help="fail when more than this fraction of baseline rows "
                         "is skipped as shape-mismatched (smoke runs, which "
                         "mismatch on purpose, pass 1.0)")
    args = ap.parse_args()

    current_files = sorted(glob.glob(os.path.join(args.current, "BENCH_*.json")))
    if not current_files:
        print(f"diff_bench: no BENCH_*.json under {args.current}", file=sys.stderr)
        return 1

    failures = []
    compared = 0
    baseline_rows = 0
    skipped_rows = 0
    for cur_path in current_files:
        name = os.path.basename(cur_path)
        ref_path = os.path.join(args.committed, name)
        if not os.path.exists(ref_path):
            print(f"  {name}: no committed baseline, skipped")
            continue
        ref_rows = load_rows(ref_path)
        cur_rows = load_rows(cur_path)
        for config, ref in ref_rows.items():
            baseline_rows += 1
            cur = cur_rows.get(config)
            if cur is None:
                print(f"  {name}:{config}: row missing from current run")
                failures.append(f"{name}:{config} disappeared")
                continue
            mismatch = [
                f"{k} {ref[k]} -> {cur[k]}"
                for k in sorted(set(ref) & set(cur))
                if k != "config" and not is_metric(k) and ref[k] != cur[k]
            ]
            if mismatch:
                print(f"  WARNING {name}:{config}: shape mismatch "
                      f"({', '.join(mismatch)}), not comparable, skipped",
                      file=sys.stderr)
                skipped_rows += 1
                continue
            for field, ref_val in ref.items():
                gate_up = field.startswith("items_per_sec")
                gate_down = field.startswith("p99")
                if not gate_up and not gate_down:
                    continue
                cur_val = cur.get(field)
                if not isinstance(cur_val, (int, float)) or ref_val <= 0:
                    continue
                ratio = cur_val / ref_val
                compared += 1
                status = "ok"
                if gate_up and ratio < 1.0 - args.tolerance:
                    status = "REGRESSION"
                elif gate_down and ratio > 1.0 + args.lat_tolerance:
                    status = "REGRESSION"
                if status == "REGRESSION":
                    failures.append(
                        f"{name}:{config}.{field} {ref_val:.0f} -> {cur_val:.0f} "
                        f"({ratio:.2f}x)")
                print(f"  {name}:{config}.{field}: {ref_val:.0f} -> "
                      f"{cur_val:.0f} ({ratio:.2f}x) {status}")

    if baseline_rows > 0 and skipped_rows > baseline_rows * args.max_skip_frac:
        failures.append(
            f"{skipped_rows}/{baseline_rows} baseline rows skipped as "
            f"shape-mismatched — the diff gated almost nothing")
    print(f"diff_bench: {compared} fields compared, {skipped_rows}/"
          f"{baseline_rows} rows skipped, {len(failures)} failures "
          f"(tolerance {args.tolerance:.0%})")
    for f in failures:
        print(f"  FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
