"""Shared fixtures: golden-table loaders and session-wide scan results."""

import os
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def load_tsv(name):
    rows = []
    for line in (DATA / name).read_text().splitlines():
        if line.strip():
            rows.append(line.split("\t"))
    return rows


def multiset(text):
    return tuple(sorted(int(x) for x in text.split(",")))


@pytest.fixture(scope="session")
def svh_fixture():
    """(psi, case, k-multiset, st, verdict) rows as printed, duplicates kept."""
    return [(r[0], int(r[1]), multiset(r[2]), r[3], r[4]) for r in load_tsv("svh_tables.tsv")]


@pytest.fixture(scope="session")
def min_a_fixture():
    return [(r[0], multiset(r[1]), r[2], tuple(r[3].split("+")), r[4], int(r[5]), r[6])
            for r in load_tsv("min_a.tsv")]


@pytest.fixture(scope="session")
def min_b_fixture():
    return [(r[0], int(r[1]), multiset(r[2]), r[3], tuple(r[4].split("+")), r[5],
             int(r[6]), r[7]) for r in load_tsv("min_b.tsv")]


@pytest.fixture(scope="session")
def roots_fixture():
    """{(R-label, y-label): printed decimal string}."""
    return {(r[0], r[1]): r[2] for r in load_tsv("roots_table.tsv")}


@pytest.fixture(scope="session")
def catalog_fixture():
    """[(degree, sorted indices, unramified subset)]."""
    out = []
    for r in load_tsv("ct_catalog.tsv"):
        ks = tuple(int(x) for x in r[1].split(","))
        unram = tuple(int(x) for x in r[2].split(",")) if len(r) > 2 and r[2] else ()
        out.append((int(r[0]), ks, unram))
    return out


def _jobs():
    return int(os.environ.get("HYPERK3_TEST_JOBS", os.environ.get("HYPERK3_THREADS", "1")))


@pytest.fixture(scope="session")
def deg22_entries():
    from hyperk3.search import scan_deg22

    return {i: scan_deg22(i, jobs=_jobs()) for i in range(1, 11)}


@pytest.fixture(scope="session")
def lehmer_a_entries():
    from hyperk3.search import scan_lehmer

    return scan_lehmer("A", jobs=_jobs())


@pytest.fixture(scope="session")
def lehmer_b_entries():
    from hyperk3.search import scan_lehmer

    return scan_lehmer("B", jobs=_jobs())


@pytest.fixture(scope="session")
def unpruned_side_b():
    """Every deg22 and lehmerB candidate of ``_qualifying``, pruned or not, through the
    scan worker: {family: (entries, rejected)}, with the entries canonically sorted and
    ``rejected`` the (Psi index, multiset) pairs trace_certificate_explain rejects.
    About 12,850 certifications, run once per session."""
    from hyperk3 import search
    from hyperk3.polyring import lehmer_nf, salem_trace_deg11

    real, certs = search.trace_certificate_explain, []

    def recording(Phi, Psi, side):
        out = real(Phi, Psi, side)
        certs.append(out[0])
        return out

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "trace_certificate_explain", recording)
        for family, worker, psis in (
                ("deg22", search._worker_deg22, {i: salem_trace_deg11(i) for i in range(1, 11)}),
                ("lehmerB", search._worker_lehmer_b, {i: lehmer_nf(i) for i in range(1, 9)})):
            entries, rejected = [], set()
            for i, Psi in psis.items():
                for ms in search._qualifying(Psi, 10, "one_multiple_le3"):
                    del certs[:]
                    entry = worker((i, ms))
                    if len(certs) != 1:
                        raise AssertionError("one certification per candidate expected")
                    if certs[0] is None:
                        rejected.add((i, ms))
                    if entry is not None:
                        entries.append(entry)
            out[family] = (sorted(entries, key=search._entry_key), rejected)
    return out
