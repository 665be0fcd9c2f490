"""One benchmark workload in a fresh interpreter.

Run by ``perfbench/run.py``; prints ``READY`` once set up (imports, parser,
fixtures, seeded inputs) and, after the timed phase, one JSON line with the
raw measurements.  Items run one at a time in seeded order (a closed loop
with a single caller).  A group of items starts only while the run expects
it to end within ``--seconds``, judged from the time per work unit so far;
the first group always runs.  ``--items`` replays the given item indices
instead, without a time limit, so a traced run can repeat an untraced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def run_items(items, seconds, replay=None, tracer=None):
    """Run and check items; returns the per-item records and the wall time."""
    group_units = Counter()
    for item in items:
        group_units[item.group] += item.units
    order = replay if replay is not None else range(len(items))
    records = []
    units_done = 0
    busy = 0.0
    running = None
    t0 = time.perf_counter()
    for ix in order:
        item = items[ix]
        if replay is None and item.group != running:
            elapsed = time.perf_counter() - t0
            if units_done and elapsed + busy / units_done * group_units[item.group] > seconds:
                continue
            running = item.group
        if tracer is not None:
            tracer.current_item = ix
        start = time.perf_counter()
        try:
            out = item.run()
        except Exception:
            traceback.print_exc()
            out = None
        took = time.perf_counter() - start
        if tracer is not None:
            tracer.current_item = -1
        try:
            failed = item.units if out is None else item.check(out)
        except Exception:
            traceback.print_exc()
            failed = item.units
        if failed:
            print(f"perfbench: item {item.label} failed its check ({failed} units)",
                  file=sys.stderr)
        records.append({"ix": ix, "units": item.units, "seconds": took, "failed": failed})
        units_done += item.units
        busy += took
    return records, time.perf_counter() - t0


def ratio(num, den) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", help="comma-separated item indices to replay")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="file for the span records of a traced run")
    args = ap.parse_args(argv)

    from hyperk3 import cli

    cli.make_parser()
    items = workloads.build_items(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        from hyperk3.polyring import resultant

        tracer = Tracer()
        tracer.install()
        cache_before = resultant.cache_info()
    replay = [int(x) for x in args.items.split(",")] if args.items else None
    records, wall = run_items(items, args.seconds, replay, tracer)
    result = {
        "records": records,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        cache_after = resultant.cache_info()
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
        layer = tracer.summary()
        layer["polyring.resultant.cache_hit_ratio"] = ratio(hits, hits + misses)
        layer["k3class.k3_certificate.accept_ratio"] = ratio(
            layer.get("k3class.k3_certificate_explain.accepted", 0),
            layer["k3class.k3_certificate_explain.calls"])
        layer["search.hit_ratio"] = ratio(
            layer.get("search.scan_deg22.entries", 0),
            tracer.children_calls("search", "k3class.k3_certificate"))
        result["layer"] = layer
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
