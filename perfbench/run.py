"""hyperk3 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload runs single-process
in a fresh interpreter (``perfbench/worker.py``) with ``HYPERK3_THREADS``
unset, so the package uses no worker pool.  Every output is checked against
the reference tables in ``tests/data``.

With ``--trace 0`` the run prints the end-to-end metrics.  ``setup_s`` is the
median over four fresh interpreters (three that only set up, and the
measured one) of the time from spawn to ready.

With ``--trace 1`` the run makes an untraced pass of ``--seconds / 2``,
replays the same items in a fresh traced interpreter, and prints the
per-layer metrics; ``trace.overhead_s`` is the traced wall time minus the
untraced one for those items.  Span records go to
``.perfbench_out/spans-<workload>.tsv.gz``.

The last line of the output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
RUN_LIMIT_S = 170          # every worker of one run must have ended by then

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = [
    ("picard.enumerate_root_system.calls", "count", "lower"),
    ("picard.enumerate_root_system.self_s", "s", "lower"),
    ("picard.enumerate_root_system.roots", "count", "lower"),
    ("picard.bring_back.self_s", "s", "lower"),
    ("picard.bring_back.steps", "count", "lower"),
    ("picard.picard_gram.self_s", "s", "lower"),
    ("picard.positive_simple_roots.self_s", "s", "lower"),
    ("linalg.charpoly.self_s", "s", "lower"),
    ("linalg.mat_mul.calls", "count", "lower"),
    ("linalg.mat_mul.self_s", "s", "lower"),
    ("polyring.resultant.calls", "count", "lower"),
    ("polyring.resultant.self_s", "s", "lower"),
    ("polyring.resultant.cache_hit_ratio", "ratio", "higher"),
    ("linalg.bareiss_det.calls", "count", "lower"),
    ("linalg.bareiss_det.self_s", "s", "lower"),
    ("hyplattice.is_unimodular.calls", "count", "lower"),
    ("hyplattice.is_unimodular.self_s", "s", "lower"),
    ("clusters.compute_trace_clusters.calls", "count", "lower"),
    ("clusters.compute_trace_clusters.self_s", "s", "lower"),
    ("clusters.index.self_s", "s", "lower"),
    ("polyring.isolate_real_roots.calls", "count", "lower"),
    ("polyring.isolate_real_roots.self_s", "s", "lower"),
    ("polyring.isolate_with_known_factors.self_s", "s", "lower"),
    ("polyring.trace_polynomial_pair.self_s", "s", "lower"),
    ("k3class.k3_certificate.calls", "count", "lower"),
    ("k3class.k3_certificate.self_s", "s", "lower"),
    ("k3class.k3_certificate.accept_ratio", "ratio", "higher"),
    ("search.hit_ratio", "ratio", "higher"),
    ("siegel.siegel_test.calls", "count", "lower"),
    ("siegel.siegel_test.self_s", "s", "lower"),
    ("siegel.threshold_classify_deg22.calls", "count", "lower"),
    ("siegel.threshold_classify_deg22.self_s", "s", "lower"),
    ("numfield.unit_from_gram.self_s", "s", "lower"),
    ("numfield.verify_unit.self_s", "s", "lower"),
    ("numfield.trace_form_gram.self_s", "s", "lower"),
    ("numfield.recover_phi.self_s", "s", "lower"),
    ("linalg.mat_inverse.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
] + [(f"{layer}.{key}", unit, "lower") for layer in LAYERS
     for key, unit in (("calls", "count"), ("self_s", "s"), ("incl_s", "s"))] + [
    ("trace.overhead_s", "s", "lower"),
]


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPERK3_THREADS", None)
    env.pop("HYPERK3_TEST_JOBS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float):
    """Run one worker; returns (spawn-to-ready seconds, result dict or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the {RUN_LIMIT_S} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    if "--setup-only" in args:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def item_times_ms(records: list[dict]) -> list[float]:
    """Per-item times per work unit: an R_i scan counts as its time per candidate."""
    return [1000 * r["seconds"] / r["units"] for r in records]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below twenty samples no percentile above the median has ten beyond it;
    the maximum is reported, as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    probes = [spawn(args + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    setup_s, res = spawn(args, deadline)
    records = res["records"]
    times = item_times_ms(records)
    tail_ms, tail_pct = tail(times)
    attempted = sum(r["units"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {
        "setup_s": statistics.median(probes + [setup_s]),
        "wall_s": res["wall_s"],
        "items_per_s": attempted / res["wall_s"],
        "item_p50_ms": statistics.median(times),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"items: {len(records)} ({attempted} work units), item_tail_ms is p{tail_pct:.2f} "
        f"of {len(times)} samples",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in probes + [setup_s])}",
    ]
    return attempted, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    _, plain = spawn(base + ["--seconds", str(seconds / 2)], deadline)
    replay = ",".join(str(r["ix"]) for r in plain["records"])
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}.tsv.gz"
    _, traced = spawn(base + ["--seconds", str(seconds), "--trace", "1", "--items", replay,
                              "--spans-out", str(spans)], deadline)
    layer = traced["layer"]
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    records = plain["records"] + traced["records"]
    attempted = sum(r["units"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {name: (layer.get(name, 0), unit) for name, unit, _ in PER_LAYER}
    notes = [
        f"items: {len(traced['records'])} replayed; untraced wall_s {plain['wall_s']:.4f} s, "
        f"traced wall_s {traced['wall_s']:.4f} s, {int(layer['trace.spans'])} spans in {spans}",
    ]
    return attempted, failed, metrics, notes


def check_checkout() -> None:
    for need in (ROOT / "src" / "hyperk3" / "cli.py", ROOT / "tests" / "data" / "svh_tables.tsv"):
        if not need.is_file():
            raise BenchError(f"{need.relative_to(ROOT)} is missing: run from a hyperk3 checkout")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        check_checkout()
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics, notes = measure(args.workload, args.seed, args.seconds,
                                                    deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in notes + [f"fail_ratio = {failed / attempted:.6f} ratio "
                         f"({failed} of {attempted} failed)"]:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
