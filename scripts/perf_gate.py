#!/usr/bin/env python3
"""CI performance gate over tmemc-bench-v1 JSON files.

Benchmark binaries emit rows via --json (see bench/figure_harness.h):

    {"schema": "tmemc-bench-v1",
     "rows": [{"bench": ..., "branch": ..., "threads": N, "shards": N,
               "secs": S, "ops_per_sec": R, "p99_us": P,
               "aborts_per_commit": A, "serial_pct": C}, ...]}

Rows are keyed by (bench, branch, threads, shards). Four subcommands:

  check       compare current run(s) against a checked-in baseline;
              exits 1 on a throughput regression beyond --threshold
              (default 25%), on a serialization-taxonomy band change,
              or on a baseline row missing from the current run.
  rebaseline  merge run files into a fresh baseline document.
  ab          paired A/B of two bench_micro_tm builds (a base and a
              head): ten alternating rounds of the empty- and
              single-location-transaction rows on one pinned core;
              exits 1 when, for any row, the head is slower in at
              least 9 of 10 pairs AND its median time exceeds the
              base's by more than 1.05x.
  selftest    verify the gate's own behaviour on synthetic data
              (identity passes, a 2x slowdown fails, a taxonomy shift
              fails, a missing row fails, an A/B 2x slowdown fails,
              A/B noise passes).

The taxonomy bands mirror the paper's serialization story: a branch is
"none" (serial_pct < 0.5, e.g. the lock-based Baseline), "some"
(< 50), or "dominant" (>= 50, e.g. IT before the Callable fix). A
branch drifting between bands means the reproduction changed shape,
not just speed, and no throughput threshold should excuse that.

Absolute ops/s thresholds are noisy across heterogeneous runners;
--normalize [PREFIX=]KEY (KEY = "bench:branch:threads:shards",
repeatable) divides each row's throughput by a reference row from the
same side before comparing, gating on relative shape instead. PREFIX
scopes a reference to the benches whose name starts with it — use one
reference per bench *binary* (e.g. bench_fig4=... and bench_net=...),
because the load noise normalization cancels is only shared within a
single binary's run. CI uses exactly that two-reference form.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys


BANDS = (("none", 0.5), ("some", 50.0))  # else "dominant"


def band(serial_pct):
    for name, upper in BANDS:
        if serial_pct < upper:
            return name
    return "dominant"


def key_of(row):
    return (row["bench"], row["branch"], int(row["threads"]),
            int(row["shards"]))


def key_str(key):
    return "%s:%s:%d:%d" % key


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "tmemc-bench-v1":
        raise SystemExit("%s: not a tmemc-bench-v1 file" % path)
    return doc["rows"]


def index_rows(row_lists):
    out = {}
    for rows in row_lists:
        for row in rows:
            out[key_of(row)] = row
    return out


def normalize(rows_by_key, refs):
    """Rescale ops_per_sec by reference rows from the same side.

    refs is a list of (bench_prefix, ref_key): rows whose bench name
    starts with bench_prefix are divided by that side's reference
    row's ops_per_sec (first matching prefix wins; an empty prefix
    matches everything). Scoping matters because the noise that
    normalization removes is only shared within one binary's run —
    dividing a bench_net row by a bench_fig4 reference *adds* the two
    runs' noise instead of cancelling it.
    """
    scales = []
    for prefix, ref_key in refs:
        ref = rows_by_key.get(ref_key)
        if ref is None or ref["ops_per_sec"] <= 0:
            raise SystemExit("normalize reference row %s missing or "
                             "zero" % key_str(ref_key))
        scales.append((prefix, ref["ops_per_sec"]))
    out = {}
    for k, r in rows_by_key.items():
        for prefix, scale in scales:
            if k[0].startswith(prefix):
                out[k] = dict(r, ops_per_sec=r["ops_per_sec"] / scale)
                break
        else:
            out[k] = dict(r)
    return out


def compare(baseline, current, threshold):
    """Return (failures, entries): failure strings plus one diff entry
    per baseline row."""
    failures = []
    entries = []
    for key, base in sorted(baseline.items()):
        name = key_str(key)
        cur = current.get(key)
        if cur is None:
            failures.append("missing row: %s" % name)
            entries.append({"key": name, "status": "missing",
                            "baseline_ops_per_sec":
                                base["ops_per_sec"]})
            continue
        ratio = (cur["ops_per_sec"] / base["ops_per_sec"]
                 if base["ops_per_sec"] > 0 else 1.0)
        base_band = band(base.get("serial_pct", 0.0))
        cur_band = band(cur.get("serial_pct", 0.0))
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "regression"
            failures.append(
                "throughput regression: %s %.4g -> %.4g ops/s "
                "(%.1f%% of baseline, floor %.1f%%)"
                % (name, base["ops_per_sec"], cur["ops_per_sec"],
                   100.0 * ratio, 100.0 * (1.0 - threshold)))
        if base_band != cur_band:
            status = "taxonomy"
            failures.append(
                "serialization taxonomy changed: %s %s (%.2f%%) -> "
                "%s (%.2f%%)"
                % (name, base_band, base.get("serial_pct", 0.0),
                   cur_band, cur.get("serial_pct", 0.0)))
        entries.append({
            "key": name,
            "status": status,
            "baseline_ops_per_sec": base["ops_per_sec"],
            "current_ops_per_sec": cur["ops_per_sec"],
            "ratio": round(ratio, 4),
            "baseline_band": base_band,
            "current_band": cur_band,
            "baseline_p99_us": base.get("p99_us"),
            "current_p99_us": cur.get("p99_us"),
        })
    for key in sorted(set(current) - set(baseline)):
        entries.append({"key": key_str(key), "status": "new"})
    return failures, entries


def cmd_check(args):
    baseline = index_rows([load_rows(args.baseline)])
    current = index_rows([load_rows(p) for p in args.current])
    if args.normalize:
        refs = []
        for spec in args.normalize:
            prefix, _, keypart = spec.rpartition("=")
            parts = keypart.split(":")
            if len(parts) != 4:
                raise SystemExit("--normalize wants [PREFIX=]bench:"
                                 "branch:threads:shards")
            refs.append((prefix, (parts[0], parts[1], int(parts[2]),
                                  int(parts[3]))))
        baseline = normalize(baseline, refs)
        current = normalize(current, refs)
    failures, entries = compare(baseline, current, args.threshold)
    if args.diff_out:
        with open(args.diff_out, "w") as f:
            json.dump({"schema": "tmemc-perf-diff-v1",
                       "threshold": args.threshold,
                       "failures": failures,
                       "rows": entries}, f, indent=2)
            f.write("\n")
    for entry in entries:
        if "ratio" in entry:
            print("%-60s %-10s %6.1f%%"
                  % (entry["key"], entry["status"],
                     100.0 * entry["ratio"]))
        else:
            print("%-60s %s" % (entry["key"], entry["status"]))
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        return 1
    print("\nperf gate OK (%d rows within %.0f%%)"
          % (len(entries), 100.0 * args.threshold))
    return 0


def cmd_rebaseline(args):
    merged = index_rows([load_rows(p) for p in args.inputs])
    rows = [merged[k] for k in sorted(merged)]
    with open(args.out, "w") as f:
        json.dump({"schema": "tmemc-bench-v1", "rows": rows}, f,
                  indent=2)
        f.write("\n")
    print("wrote %s (%d rows)" % (args.out, len(rows)))
    return 0


# The disarmed-overhead A/B: which bench_micro_tm rows, how many
# alternating rounds, the core both sides are pinned to, and the
# verdict (slower in at least 9 of 10 pairs and median above 1.05x).
AB_FILTER = "BM_EmptyTxn|BM_SingleLocationTxnExpr"
AB_ROUNDS = 10
AB_CPU = 1
AB_LOSE_SHARE = 0.9
AB_MAX_RATIO = 1.05


def ab_verdict(base_times, head_times):
    """Paired verdict for one benchmark's per-round times (lower is
    better). Returns (failed, losses, ratio): the head fails only when
    it is slower in at least AB_LOSE_SHARE of the pairs *and* its
    median exceeds the base's by more than AB_MAX_RATIO — either alone
    is what noise on a shared runner produces."""
    pairs = list(zip(base_times, head_times))
    losses = sum(1 for b, h in pairs if h > b)
    ratio = statistics.median(head_times) / statistics.median(base_times)
    failed = losses >= AB_LOSE_SHARE * len(pairs) and ratio > AB_MAX_RATIO
    return failed, losses, ratio


def run_gbench(binary):
    """One run of a google-benchmark binary: {name: real_time_ns}."""
    cmd = [binary, "--benchmark_filter=" + AB_FILTER,
           "--benchmark_format=json"]
    if shutil.which("taskset"):
        cmd = ["taskset", "-c", str(AB_CPU)] + cmd
    out = subprocess.run(cmd, check=True, capture_output=True,
                         text=True).stdout
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return {b["name"]: b["real_time"] * scale[b.get("time_unit", "ns")]
            for b in json.loads(out)["benchmarks"]}


def cmd_ab(args):
    runs = {"base": [], "head": []}
    for rnd in range(AB_ROUNDS):
        # Alternate which side runs first so drift over the run
        # (thermal, a neighbour's load) lands on both sides equally.
        order = ("base", "head") if rnd % 2 == 0 else ("head", "base")
        for side in order:
            binary = args.base if side == "base" else args.head
            runs[side].append(run_gbench(binary))
    names = sorted(runs["base"][0])
    failures = []
    print("%-32s %s" % ("benchmark", "per-round ns base/head ..."))
    for name in names:
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        failed, losses, ratio = ab_verdict(base, head)
        print("%-32s %s" % (name, " ".join(
            "%.1f/%.1f" % pair for pair in zip(base, head))))
        print("%-32s head slower in %d of %d pairs, median ratio %.3f%s"
              % ("", losses, len(base), ratio,
                 "  FAIL" if failed else ""))
        if failed:
            failures.append(name)
    with open(args.out, "w") as f:
        json.dump({"schema": "tmemc-ab-v1", "filter": AB_FILTER,
                   "rounds": runs, "failures": failures}, f, indent=2)
        f.write("\n")
    if failures:
        print("\nA/B gate FAILED: %s" % ", ".join(failures),
              file=sys.stderr)
        return 1
    print("\nA/B gate OK (%d benchmarks, %d rounds)"
          % (len(names), AB_ROUNDS))
    return 0


def synthetic(ops_scale=1.0, serial_pct=None, drop=None):
    rows = {
        ("bench_fig4", "Baseline", 4, 1): (2.5e6, 0.0),
        ("bench_fig4", "IP", 4, 1): (4.4e4, 29.8),
        ("bench_fig4", "IT", 4, 1): (6.4e4, 64.0),
        ("bench_net_loopback", "IT-onCommit", 4, 1): (8.4e4, 0.0),
    }
    out = {}
    for key, (ops, pct) in rows.items():
        if key == drop:
            continue
        if serial_pct is not None:
            pct = serial_pct.get(key, pct)
        out[key] = {"bench": key[0], "branch": key[1],
                    "threads": key[2], "shards": key[3],
                    "secs": 1.0, "ops_per_sec": ops * ops_scale,
                    "p99_us": 5.0, "aborts_per_commit": 0.1,
                    "serial_pct": pct}
    return out


def cmd_selftest(_args):
    base = synthetic()
    cases = [
        ("identity passes", synthetic(), 0),
        ("2x slowdown fails", synthetic(ops_scale=0.5), 1),
        ("10% dip passes at 25% threshold",
         synthetic(ops_scale=0.9), 0),
        ("taxonomy shift fails",
         synthetic(serial_pct={("bench_fig4", "IP", 4, 1): 75.0}), 1),
        ("missing row fails",
         synthetic(drop=("bench_fig4", "IT", 4, 1)), 1),
    ]
    ok = True
    for name, current, want in cases:
        failures, _ = compare(base, current, 0.25)
        got = 1 if failures else 0
        status = "pass" if got == want else "FAIL"
        ok = ok and got == want
        print("selftest: %-35s %s" % (name, status))
        if got == want and failures:
            for failure in failures:
                print("          (expected) " + failure)
    # Paired A/B: ten rounds of a ~200 ns benchmark with 5% jitter.
    jitter = [1.00, 1.04, 0.97, 1.02, 0.99, 1.05, 0.96, 1.01, 1.03, 0.98]
    base_ns = [200.0 * j for j in jitter]
    ab_cases = [
        ("A/B identity passes", base_ns, 0),
        ("A/B 2x slowdown fails", [2 * t for t in base_ns], 1),
        ("A/B noise passes",
         [200.0 * j for j in reversed(jitter)], 0),
        ("A/B 3% slowdown passes (under 1.05x)",
         [1.03 * t for t in base_ns], 0),
    ]
    for name, head_ns, want in ab_cases:
        got = 1 if ab_verdict(base_ns, head_ns)[0] else 0
        ok = ok and got == want
        print("selftest: %-35s %s"
              % (name, "pass" if got == want else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check")
    p.add_argument("--baseline", required=True)
    p.add_argument("--current", nargs="+", required=True)
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--diff-out")
    p.add_argument("--normalize", action="append",
                   help="reference row [PREFIX=]bench:branch:threads:"
                        "shards; repeatable, PREFIX scopes it to "
                        "benches whose name starts with PREFIX")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("rebaseline")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(fn=cmd_rebaseline)

    p = sub.add_parser("ab")
    p.add_argument("--base", required=True,
                   help="google-benchmark binary built at the base")
    p.add_argument("--head", required=True,
                   help="the same benchmark built at the head")
    p.add_argument("--out", required=True,
                   help="write every round as JSON to this path")
    p.set_defaults(fn=cmd_ab)

    p = sub.add_parser("selftest")
    p.set_defaults(fn=cmd_selftest)

    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
