"""Seeded inputs, item runners and reference checks for the hyperk3 benchmark.

Each workload is a list of items.  An item has a weight in work units (the
candidates an R_i scan examines, or 1 for a query or a row), a runner that
calls the package through its public functions or ``hyperk3.cli.run``, and a
check against the reference tables in ``tests/data``, which are only read.
A check returns the number of work units that failed, so ``failed /
attempted`` is the workload's fail ratio.  Items of one group run together:
the run's time limit admits or skips a whole group.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

WORKLOADS = ("scan-deg22", "certify-cold", "unit-recover")

TABLE_SHARE = 4          # certify-cold: one query in four is a table row

# scan-deg22 runs whole groups of R_i.  The R_i alone range from 272 to 1,125
# candidates; these four groups have 1,879 to 1,910 each, so a run does about
# the same work whichever group its seed puts first.  Time per candidate is
# about the same for every R_i scanned in a fresh interpreter (15 to 17 ms at
# the commit that introduced the benchmark, on a 2-vCPU Xeon).
SCAN_GROUPS = ((1, 8), (2, 4, 7), (3, 9), (5, 6, 10))


@dataclass
class Item:
    label: str
    units: int
    run: Callable[[], Any]
    check: Callable[[Any], int]   # failed units, 0 when the output matches
    group: int                    # items of one group are admitted together


def multiset(text: str) -> tuple[int, ...]:
    return tuple(sorted(int(x) for x in text.split(",")))


def load_svh_table() -> dict[tuple[int, tuple[int, ...]], tuple]:
    """Deduplicated deg22 table: (R index, k multiset) -> (case, st, verdict)."""
    out = {}
    for line in (DATA / "svh_tables.tsv").read_text().splitlines():
        if not line.strip():
            continue
        psi, case, ks, st, verdict = line.split("\t")
        key = (int(psi[1:]), multiset(ks))
        row = (int(case), st, verdict)
        if out.setdefault(key, row) != row:
            raise ValueError(f"conflicting table rows for {key}")
    return out


def phi_text(ks: tuple[int, ...]) -> str:
    """The cyclotomic-trace product as a w-polynomial expression, e.g. CT(1)^3*CT(16)."""
    return "*".join(f"CT({k})^{c}" if c > 1 else f"CT({k})"
                    for k, c in sorted(Counter(ks).items()))


def deg22_candidates() -> dict[int, list[tuple[int, ...]]]:
    """Every deg22 scan candidate per R index, generated as the scan does.

    A CT product qualifies for R_i when each of its factors has a unit
    resultant with R_i; the scan certifies exactly these candidates.
    """
    from hyperk3.polyring import cyclotomic_trace, resultant, salem_trace_deg11
    from hyperk3.search import ct_catalog, enumerate_ct_products

    products = enumerate_ct_products(10, "one_multiple_le3")
    out = {}
    for i in range(1, 11):
        R = salem_trace_deg11(i)
        ok = {k: abs(resultant(cyclotomic_trace(k), R)) == 1 for k, _d in ct_catalog()}
        out[i] = [m for m in products if all(ok[k] for k in set(m))]
    return out


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process and return (exit code, stdout)."""
    from hyperk3 import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# scan-deg22: search.scan_deg22(i) for the ten R_i in seeded order
# ---------------------------------------------------------------------------


def scan_items(seed: int, table: dict, candidates: dict) -> list[Item]:
    """The ten R_i scans; the seed orders the groups and the R_i within each."""
    rng = random.Random(seed)
    groups = [list(g) for g in SCAN_GROUPS]
    rng.shuffle(groups)
    for g in groups:
        rng.shuffle(g)
    return [_scan_item(i, table, len(candidates[i]), gi)
            for gi, g in enumerate(groups) for i in g]


def _scan_item(i: int, table: dict, n_candidates: int, group: int) -> Item:
    from hyperk3 import search

    expected = {ks: row for (r, ks), row in table.items() if r == i}

    def run():
        return search.scan_deg22(i, jobs=1)

    def check(entries):
        got = {}
        for e in entries:
            if e.psi_label != f"R{i}" or e.k_multiset in got:
                return n_candidates
            got[e.k_multiset] = (e.case, e.st_label, e.verdict)
        wrong = {ks for ks in expected.keys() | got.keys() if expected.get(ks) != got.get(ks)}
        return min(len(wrong), n_candidates)

    return Item(f"R{i}", n_candidates, run, check, group)


# ---------------------------------------------------------------------------
# certify-cold: `hyperk3 certify` without --side and without root hints
# ---------------------------------------------------------------------------


def certify_items(seed: int, table: dict, candidates: dict) -> list[Item]:
    """All table rows plus three times as many rejected candidates, shuffled."""
    rng = random.Random(seed)
    rejected = [(i, ks) for i in sorted(candidates) for ks in candidates[i]
                if (i, ks) not in table]
    keys = sorted(table) + rng.sample(rejected, (TABLE_SHARE - 1) * len(table))
    rng.shuffle(keys)
    return [_certify_item(i, ks, table.get((i, ks)), n) for n, (i, ks) in enumerate(keys)]


def _certify_item(i: int, ks: tuple[int, ...], row, group: int) -> Item:
    argv = ["certify", "--phi", phi_text(ks), "--psi", f"R({i})"]

    def check(out):
        code, text = out
        if code != 0:
            return 1
        res = json.loads(text)["result"]
        on_b = res["certified"] and res["side"] == "B"
        if row is None:
            return int(on_b)                # the scan rejects it on side B
        return int(not (on_b and res["case"] == row[0]))

    return Item(f"R{i}:{','.join(map(str, ks))}", 1, lambda: call_cli(argv), check, group)


# ---------------------------------------------------------------------------
# unit-recover: `hyperk3 unit` then `hyperk3 recover` on table rows
# ---------------------------------------------------------------------------


def unit_items(seed: int, table: dict, candidates: dict) -> list[Item]:
    keys = sorted(table)
    random.Random(seed).shuffle(keys)
    return [_unit_item(i, ks, n) for n, (i, ks) in enumerate(keys)]


def _unit_item(i: int, ks: tuple[int, ...], group: int) -> Item:
    from hyperk3.polyring import parse_poly

    phi = phi_text(ks)
    expected = parse_poly(phi)[1].format("w")

    def run():
        code, text = call_cli(["unit", "--phi", phi, "--psi", f"R({i})"])
        if code != 0:
            return code, None, None
        unit = json.loads(text)["result"]
        code, text = call_cli(["recover", f"--unit={unit['U']}", "--salem", f"R({i})"])
        return code, unit, text

    def check(out):
        code, unit, text = out
        if code != 0 or not unit["unit_verified"]:
            return 1
        return int(json.loads(text)["result"]["Phi"] != expected)

    return Item(f"R{i}:{','.join(map(str, ks))}", 1, run, check, group)


BUILDERS = {
    "scan-deg22": scan_items,
    "certify-cold": certify_items,
    "unit-recover": unit_items,
}


def build_items(workload: str, seed: int) -> list[Item]:
    """Load the reference table and generate the workload's seeded items."""
    table = load_svh_table()
    return BUILDERS[workload](seed, table, deg22_candidates())
