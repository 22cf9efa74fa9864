"""One workload in one single-threaded process.

Started by run.py, never by hand.  It imports linpath, builds the
workload's items from the seed, runs whole rounds of them for the given
number of seconds, checks every output outside the timed rounds, and
prints one JSON line.  With --setup-only it stops at its first timed item
and reports only the set-up time.  With --trace 1 it follows the untraced
rounds with a traced set-up and as many traced rounds, and reports the
per-layer figures and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import ItemError

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Rounds:
    first: list  # the first round's outputs
    round_times: list
    item_times: list  # per item, its time in each round
    differs: list  # per item, rounds whose output summary differs from the expected
    peak_rss_mb: float  # peak resident set through the end of the first round


def run_rounds(items, seconds=None, rounds=None, expect=None) -> Rounds:
    """Whole rounds of items until `seconds` of wall time have passed, or
    exactly `rounds` rounds.  Outputs are compared with `expect`, by default
    the first round's summaries."""
    clock = time.perf_counter
    result = Rounds(None, [], [[] for _ in items], [0] * len(items), 0.0)
    start = clock()
    while True:
        outs = []
        begun = clock()
        for item, times in zip(items, result.item_times):
            t0 = clock()
            try:
                out = item.call()
            except Exception as exc:  # the run goes on; the item counts as failed
                traceback.print_exc()
                out = ItemError(exc)
            times.append(clock() - t0)
            outs.append(out)
        result.round_times.append(clock() - begun)
        if result.first is None:
            # later rounds are not counted: the oracle's dead-state memos
            # outlive their calls, so the peak would grow with run length
            result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result.first = outs
            if expect is None:
                expect = [item.summary(out) for item, out in zip(items, outs)]
        for i, (item, out) in enumerate(zip(items, outs)):
            result.differs[i] += item.summary(out) != expect[i]
        del outs
        if rounds is not None:
            if len(result.round_times) == rounds:
                break
        elif clock() - start >= seconds:
            break
    return result


def check_outputs(items, first, differs, rounds):
    """Failed items over all rounds, and whether the self-test passed: the
    first item of each group must have its corrupted outputs rejected."""
    failed = 0
    selftest_ok = True
    tested = set()
    for item, out, diff in zip(items, first, differs):
        reason = item.check(out)
        if reason is not None:
            print(f"FAILED {item.label}: {reason}", file=sys.stderr)
            failed += rounds
            continue
        failed += diff
        if diff:
            print(f"FAILED {item.label}: {diff} rounds differ from the first",
                  file=sys.stderr)
        if item.group in tested:
            continue
        tested.add(item.group)
        for bad in item.corrupt(out):
            if item.check(bad) is None:
                print(f"SELF-TEST {item.label}: a corrupted output passed",
                      file=sys.stderr)
                selftest_ok = False
    return failed, selftest_ok


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    items = build(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    timed = run_rounds(items, seconds=args.seconds)
    rounds = len(timed.round_times)
    # each item's median over the rounds, so that a burst of load from
    # elsewhere on the machine moves one sample, not the figure
    typical = [statistics.median(times) for times in timed.item_times]
    report = {
        "rounds": rounds,
        "items_per_round": len(items),
        "setup_s": setup_s,
        "items_per_s": len(items) / sum(typical),
        "item_p50_ms": statistics.median(typical) * 1e3,
        "peak_rss_mb": timed.peak_rss_mb,
    }
    attempted = rounds * len(items)
    differs = timed.differs

    if args.trace:
        import tracer
        traced = tracer.Tracer()
        traced.install()
        try:
            started = time.perf_counter()
            traced_items = build(args.seed)
            traced_setup_s = time.perf_counter() - started
        finally:
            traced.uninstall()
        setup_snap = traced.snapshot()
        traced = tracer.Tracer()
        traced.install()
        try:
            expect = [i.summary(o) for i, o in zip(items, timed.first)]
            traced_run = run_rounds(traced_items, rounds=rounds, expect=expect)
        finally:
            traced.uninstall()
        timed_snap = traced.snapshot()
        differs = [a + b for a, b in zip(differs, traced_run.differs)]
        traced_times = traced_run.round_times
        attempted *= 2
        overhead_pct = (statistics.median(traced_times)
                        / statistics.median(timed.round_times) - 1) * 100
        layers = tracer.layer_metrics(setup_snap, timed_snap, rounds)
        layers["trace.overhead_pct"] = (overhead_pct, "%")
        shares = tracer.self_shares(timed_snap, sum(traced_times))
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "untraced_round_seconds": timed.round_times, "traced_round_seconds": traced_times,
            "traced_setup_seconds": traced_setup_s,
            "setup": setup_snap, "timed": timed_snap, "self_shares": shares,
            "metrics": {k: v for k, (v, _) in layers.items()},
        })
        for name, share in shares.items():
            print(f"  {args.workload:9s} {name:32s} {share * 100:6.2f}% self",
                  file=sys.stderr)
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    failed, selftest_ok = check_outputs(items, timed.first, differs,
                                        attempted // len(items))
    report.update(attempted=attempted, failed=failed, correct=selftest_ok)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
