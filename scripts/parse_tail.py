#!/usr/bin/env python3
"""Render tmemc-tail-v1 dumps: per-request timelines + tail blame.

The tail tracer (src/obs/tail.h) keeps the K slowest requests with
their full parse->exec->tx-attempts->flush span chains (plus wait
spans, e.g. a commit's quiescence wait); tmemc_server
--tail-json (or the `tail` admin command, or bench_net --tail-json)
dumps them as:

    {"schema": "tmemc-tail-v1", "branch": ..., "algo": ...,
     "armed": B, "k": K, "considered": N, "kept": M,
     "requests": [{"id", "worker", "shard", "binary", "start_ns",
                   "total_ns", "overflow",
                   "spans": [{"kind", "shard", "t0_ns", "dur_ns",
                              tx only: "attempt", "outcome",
                              "serial", "site", "cause";
                              wait only: "cause"}, ...]}, ...]}

This script answers "where did the tail go": it draws an ASCII
timeline for the slowest requests and aggregates per-shard blame —
what fraction of each shard's tail time sat in discarded transaction
attempts (aborts/retries), in serial-mode execution (in-flight
switches, ro-fast promotions, and commits under the global lock), and
in flush waits, versus useful parse+exec work.

--assert-top-shard S exits 1 unless the shard owning the most tail
time is S — the nightly soak injects a slow shard and requires the
blame to land on it. --selftest checks the blame math on synthetic
data and needs no input file.
"""

import argparse
import json
import sys


# Span-time categories, keyed on the exact outcome strings
# txOutcomeName() emits (src/obs/tail.cc). A tx attempt that did not
# commit is wasted time: conflict aborts and retries are "abort"
# blame; serial switches and ro-fast promotions restart in serial
# mode, so they and committed-serial attempts are "serial" blame.
ABORT_OUTCOMES = ("abort", "retry")
SERIAL_OUTCOMES = ("serial-switch", "ro-promote", "serial-commit")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "tmemc-tail-v1":
        raise SystemExit("%s: not a tmemc-tail-v1 file" % path)
    return doc


def classify(span):
    """Blame category for one span: abort, serial, flush, or None
    (time already covered by the enclosing exec span — which includes
    wait spans, since every wait sits inside a tx attempt)."""
    kind = span["kind"]
    if kind == "flush":
        return "flush"
    if kind != "tx":
        return None
    outcome = span.get("outcome", "")
    if outcome in ABORT_OUTCOMES:
        return "abort"
    if outcome in SERIAL_OUTCOMES or span.get("serial"):
        return "serial"
    return None


def request_blame(req):
    """Split one request's total_ns into blame buckets.

    tx spans nest inside the exec span, so the buckets are carved out
    of the total and the remainder ("work") is parse + exec time not
    attributable to aborts/serial/flush.
    """
    buckets = {"abort": 0, "serial": 0, "flush": 0}
    for span in req["spans"]:
        cat = classify(span)
        if cat is not None:
            buckets[cat] += span["dur_ns"]
    blamed = sum(buckets.values())
    buckets["work"] = max(0, req["total_ns"] - blamed)
    return buckets


def shard_blame(requests):
    """Aggregate request_blame by the shard each request ran on."""
    shards = {}
    for req in requests:
        agg = shards.setdefault(
            req["shard"],
            {"requests": 0, "total": 0,
             "abort": 0, "serial": 0, "flush": 0, "work": 0})
        agg["requests"] += 1
        agg["total"] += req["total_ns"]
        for cat, ns in request_blame(req).items():
            agg[cat] += ns
    return shards


def us(ns):
    return ns / 1000.0


def print_timeline(req, rank, width=48):
    spans = req["spans"]
    total = max(req["total_ns"], 1)
    print("#%-2d id=%d worker=%d shard=%d %s total=%.0fus%s"
          % (rank, req["id"], req["worker"], req["shard"],
             "binary" if req.get("binary") else "ascii",
             us(req["total_ns"]),
             " [overflow]" if req.get("overflow") else ""))
    for span in spans:
        lo = min(width - 1, span["t0_ns"] * width // total)
        hi = min(width, (span["t0_ns"] + span["dur_ns"]) * width
                 // total)
        bar = " " * lo + "#" * max(1, hi - lo)
        bar = bar[:width].ljust(width)
        if span["kind"] == "tx":
            label = "tx#%d %-7s %s" % (
                span.get("attempt", 0), span.get("outcome", "?"),
                span.get("site", ""))
            if span.get("serial"):
                label += " [serial]"
            if span.get("cause"):
                label += " (%s)" % span["cause"]
        elif span["kind"] == "wait":
            label = "wait:%s" % span.get("cause", "?")
        else:
            label = span["kind"]
        print("  |%s| %8.1fus %8.1fus  s%-2d %s"
              % (bar, us(span["t0_ns"]), us(span["dur_ns"]),
                 span["shard"], label))


def print_blame(shards):
    print("%6s %9s %12s %8s %8s %8s %8s"
          % ("shard", "requests", "tail_ms", "abort%", "serial%",
             "flush%", "work%"))
    for shard in sorted(shards):
        agg = shards[shard]
        total = max(agg["total"], 1)
        print("%6d %9d %12.2f %7.1f%% %7.1f%% %7.1f%% %7.1f%%"
              % (shard, agg["requests"], agg["total"] / 1e6,
                 100.0 * agg["abort"] / total,
                 100.0 * agg["serial"] / total,
                 100.0 * agg["flush"] / total,
                 100.0 * agg["work"] / total))


def top_shard(shards):
    """The shard owning the most tail time (ties: lowest shard id)."""
    return min(shards,
               key=lambda s: (-shards[s]["total"], s)) if shards \
        else None


def run(doc, args):
    requests = doc.get("requests", [])
    print("tail dump: branch=%s algo=%s armed=%s k=%d considered=%d "
          "kept=%d"
          % (doc.get("branch", "?"), doc.get("algo", "?"),
             doc.get("armed"), doc.get("k", 0),
             doc.get("considered", 0), len(requests)))
    if not requests:
        print("no requests kept (tracer never armed, or no traffic)")
        return 1 if args.assert_top_shard is not None else 0

    ordered = sorted(requests, key=lambda r: -r["total_ns"])
    if not args.no_timelines:
        print("\nslowest %d of %d kept requests:"
              % (min(args.top, len(ordered)), len(ordered)))
        for rank, req in enumerate(ordered[:args.top]):
            print_timeline(req, rank)

    shards = shard_blame(requests)
    print("\nper-shard tail blame (% of that shard's tail time):")
    print_blame(shards)
    top = top_shard(shards)
    print("top blamed shard: %d (%.2fms of tail across %d requests)"
          % (top, shards[top]["total"] / 1e6,
             shards[top]["requests"]))

    if args.assert_top_shard is not None \
            and top != args.assert_top_shard:
        print("FAILED: expected shard %d to own the tail, got %d"
              % (args.assert_top_shard, top), file=sys.stderr)
        return 1
    return 0


def synthetic_doc():
    """Two shards; shard 3's requests are slow because of aborts."""
    def tx(t0, dur, outcome, serial=False, attempt=1):
        return {"kind": "tx", "shard": 3, "t0_ns": t0, "dur_ns": dur,
                "attempt": attempt, "outcome": outcome,
                "serial": serial, "site": "mc:test", "cause": ""}

    slow = {"id": 1, "worker": 0, "shard": 3, "binary": True,
            "start_ns": 0, "total_ns": 1000000, "overflow": False,
            "spans": [
                {"kind": "parse", "shard": 0, "t0_ns": 0,
                 "dur_ns": 1000},
                {"kind": "exec", "shard": 3, "t0_ns": 1000,
                 "dur_ns": 990000},
                tx(2000, 600000, "abort"),
                tx(610000, 100000, "serial-commit", serial=True,
                   attempt=2),
                {"kind": "flush", "shard": 3, "t0_ns": 991000,
                 "dur_ns": 9000}]}
    fast = {"id": 2, "worker": 1, "shard": 1, "binary": True,
            "start_ns": 0, "total_ns": 50000, "overflow": False,
            "spans": [
                {"kind": "parse", "shard": 0, "t0_ns": 0,
                 "dur_ns": 500},
                {"kind": "exec", "shard": 1, "t0_ns": 500,
                 "dur_ns": 49000},
                {"kind": "tx", "shard": 1, "t0_ns": 1000,
                 "dur_ns": 20000, "attempt": 1, "outcome": "commit",
                 "serial": False, "site": "mc:test", "cause": ""},
                {"kind": "flush", "shard": 1, "t0_ns": 49500,
                 "dur_ns": 500}]}
    return {"schema": "tmemc-tail-v1", "branch": "IT-onCommit",
            "algo": "gcc-eager", "armed": True, "k": 32,
            "considered": 2, "kept": 2, "requests": [slow, fast]}


def selftest():
    doc = synthetic_doc()
    shards = shard_blame(doc["requests"])
    checks = [
        ("shard 3 owns the tail", top_shard(shards) == 3),
        ("abort blame is the 600us discarded attempt",
         shards[3]["abort"] == 600000),
        ("serial blame is the 100us serial commit",
         shards[3]["serial"] == 100000),
        ("flush blame counted", shards[3]["flush"] == 9000),
        ("buckets sum to the request total",
         sum(shards[3][c] for c in
             ("abort", "serial", "flush", "work")) == 1000000),
        ("committed optimistic attempt is work, not blame",
         shards[1]["abort"] == 0 and shards[1]["serial"] == 0),
    ]
    # A quiescence wait nests inside its tx attempt: it renders as its
    # own timeline row but must not move any blame bucket.
    waited = json.loads(json.dumps(doc))
    waited["requests"][0]["spans"].insert(
        4, {"kind": "wait", "shard": 3, "t0_ns": 650000,
            "dur_ns": 40000, "cause": "quiesce"})
    checks.append(("wait span leaves the blame buckets unchanged",
                   shard_blame(waited["requests"]) == shards))
    print_timeline(waited["requests"][0], 0)
    ok = True
    for name, passed in checks:
        print("selftest: %-45s %s"
              % (name, "pass" if passed else "FAIL"))
        ok = ok and passed
    ns = argparse.Namespace(top=3, no_timelines=False,
                            assert_top_shard=3)
    ok = ok and run(doc, ns) == 0
    ns.assert_top_shard = 1
    ok = ok and run(doc, ns) == 1
    print("selftest: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json", nargs="?",
                        help="tmemc-tail-v1 file to render")
    parser.add_argument("--top", type=int, default=5,
                        help="timelines to draw (default 5)")
    parser.add_argument("--no-timelines", action="store_true",
                        help="blame table only")
    parser.add_argument("--assert-top-shard", type=int,
                        help="exit 1 unless this shard owns the most "
                             "tail time")
    parser.add_argument("--selftest", action="store_true",
                        help="check the blame math on synthetic data")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if args.json is None:
        parser.error("need a tmemc-tail-v1 file (or --selftest)")
    sys.exit(run(load(args.json), args))


if __name__ == "__main__":
    main()
