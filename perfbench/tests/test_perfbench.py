"""Tests of the benchmark itself: reference checks, tracing, metric names, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return workloads.load_svh_table()


@pytest.fixture(scope="module")
def candidates():
    return workloads.deg22_candidates()


def test_reference_table_is_deduplicated(table, candidates):
    assert len(table) == 255
    assert sum(len(c) for c in candidates.values()) == 7579
    assert all(ks in candidates[i] for i, ks in table)


def _corrupt(table, key):
    case, st, verdict = table[key]
    bad = dict(table)
    bad[key] = (case + 1, st, verdict)
    return bad


def test_corrupted_row_fails_scan_check(table, candidates):
    entries = [SimpleNamespace(psi_label="R7", k_multiset=ks, case=c, st_label=st, verdict=v)
               for (i, ks), (c, st, v) in sorted(table.items()) if i == 7]
    assert workloads._scan_item(7, table, len(candidates[7]), 0).check(entries) == 0
    bad = _corrupt(table, (7, entries[0].k_multiset))
    assert workloads._scan_item(7, bad, len(candidates[7]), 0).check(entries) == 1
    assert workloads._scan_item(7, table, len(candidates[7]), 0).check(entries[1:]) == 1


def _label(key):
    return f"R{key[0]}:{','.join(map(str, key[1]))}"


def test_corrupted_row_fails_certify_check(table, candidates):
    key = sorted(table)[0]
    for tab, failed in ((table, 0), (_corrupt(table, key), 1)):
        item = next(it for it in workloads.certify_items(1, tab, candidates)
                    if it.label == _label(key))
        assert item.check(item.run()) == failed


def test_unit_check_compares_the_recovered_phi(table):
    from hyperk3.polyring import parse_poly

    i, ks = sorted(table)[0]
    item = workloads._unit_item(i, ks, 0)
    phi = parse_poly(workloads.phi_text(ks))[1].format("w")

    def out(verified, recovered):
        return 0, {"unit_verified": verified}, json.dumps({"result": {"Phi": recovered}})

    assert item.check(out(True, phi)) == 0
    assert item.check(out(True, phi + " + 1")) == 1
    assert item.check(out(False, phi)) == 1
    assert item.check((3, None, None)) == 1


def test_certify_sample_is_a_quarter_table_rows(table, candidates):
    items = workloads.certify_items(5, table, candidates)
    assert len(items) == workloads.TABLE_SHARE * len(table)
    assert len({it.label for it in items}) == len(items)
    other = workloads.certify_items(6, table, candidates)
    assert [it.label for it in items] != [it.label for it in other]


def test_run_items_counts_failures(table, candidates):
    from worker import run_items

    key = sorted(table)[0]
    items = workloads.certify_items(1, _corrupt(table, key), candidates)
    target = next(ix for ix, it in enumerate(items) if it.label == _label(key))
    records, wall = run_items(items, 60, replay=[target, (target + 1) % len(items)])
    assert [r["failed"] for r in records] == [1, 0]
    assert wall > 0


def test_scan_groups_are_balanced(candidates):
    sizes = [sum(len(candidates[i]) for i in g) for g in workloads.SCAN_GROUPS]
    assert sorted(i for g in workloads.SCAN_GROUPS for i in g) == list(range(1, 11))
    assert max(sizes) < 1.02 * min(sizes)


def test_scan_order_keeps_groups_together(table, candidates):
    items = workloads.scan_items(4, table, candidates)
    assert sorted(int(it.label[1:]) for it in items) == list(range(1, 11))
    groups = [it.group for it in items]
    assert groups == sorted(groups)
    assert {tuple(sorted(int(it.label[1:]) for it in items if it.group == g))
            for g in set(groups)} == {tuple(g) for g in workloads.SCAN_GROUPS}
    other = workloads.scan_items(5, table, candidates)
    assert [it.label for it in items] != [it.label for it in other]


def test_time_limit_admits_whole_groups():
    from worker import run_items

    def item(group):
        return workloads.Item("x", 1, lambda: time.sleep(0.05), lambda out: 0, group)

    records, _ = run_items([item(0), item(0), item(1), item(1), item(2)], 0.17)
    assert [r["ix"] for r in records] == [0, 1, 4]


def test_tail_percentile():
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0)
    assert run.tail([float(x) for x in range(19)]) == (18.0, 100.0)
    assert run.tail([float(x) for x in range(20)]) == (9.0, 50.0)
    value, pct = run.tail([float(x) for x in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_tracer_self_time_and_restore():
    import hyperk3.linalg as linalg
    import hyperk3.polyring.poly as poly
    from hyperk3.polyring import IntPoly, resultant

    original = poly.bareiss_det
    tracer = Tracer()
    tracer.install()
    try:
        assert poly.bareiss_det is linalg.bareiss_det is not original
        resultant.__wrapped__(IntPoly((1, 2, 3, 4)), IntPoly((5, 0, 1)))
    finally:
        tracer.uninstall()
    assert poly.bareiss_det is original
    layer = tracer.summary()
    assert layer["linalg.bareiss_det.calls"] >= 1
    assert layer["polyring.resultant.calls"] == 0          # the call bypassed the wrapper
    total = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert sum(tracer.self_times()) == pytest.approx(total)


def _bench(args, cwd=ROOT):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc, time.perf_counter() - t0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_the_declared_metrics(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc, took = _bench(["--workload", "certify-cold", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    assert took < 30
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "seed=3" in proc.stdout


def test_declared_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _bench(["--workload", "unit-recover", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
