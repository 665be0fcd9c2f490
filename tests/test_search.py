"""Search harness against the golden transcriptions of the reference tables."""

import functools

from hyperk3.polyring import (
    cyclotomic_trace,
    is_unramified,
    lehmer_nf,
    lehmer_trace,
    pair_from_trace,
    parse_poly,
    resultant,
    salem_trace_deg11,
)
import pytest

from hyperk3 import search
from hyperk3.hyplattice import is_unimodular
from hyperk3.search import (
    _qualifying,
    ct_product,
    enumerate_ct_products,
    list_ct_catalog,
    resolve_jobs,
    scan_deg22,
)


def test_catalog_against_fixture(catalog_fixture):
    rows = list_ct_catalog()
    assert len(rows) == 41
    assert sum(1 for _k, _d, u in rows if u) == 15
    by_degree = {}
    for k, d, u in rows:
        by_degree.setdefault(d, ([], []))
        by_degree[d][0].append(k)
        if u:
            by_degree[d][1].append(k)
    expect = {d: (list(ks), list(unram)) for d, ks, unram in catalog_fixture}
    assert by_degree == expect


def test_enumerate_examples():
    sets5 = enumerate_ct_products(5, "sets_only")
    assert (4, 6, 7) in sets5
    assert enumerate_ct_products(0, "sets_only") == [()]
    deg10 = enumerate_ct_products(10, "one_multiple_le3")
    assert (1, 1, 1, 3, 4, 6, 16) in deg10
    # multiplicity rules: no repeated element outside {1,2,3,4,6}, none above 3
    for m in deg10:
        counts = {}
        for k in m:
            counts[k] = counts.get(k, 0) + 1
        rep = [(k, c) for k, c in counts.items() if c > 1]
        assert len(rep) <= 1
        for k, c in rep:
            assert k in (1, 2, 3, 4, 6) and c <= 3
    # sets_only output is a subset
    assert set(enumerate_ct_products(10, "sets_only")) <= set(deg10)


def test_scans_enumerate_once_per_degree_and_rule():
    """_qualifying enumerates the multisets once per degree and rule; the public
    enumeration still returns a fresh list, and the scans' candidates keep its order."""
    search._ct_products.cache_clear()
    for R in (salem_trace_deg11(3), salem_trace_deg11(8), lehmer_nf(2)):
        got = _qualifying(R, 10, "one_multiple_le3")
        ok = {k for k, _d in search.ct_catalog() if abs(resultant(cyclotomic_trace(k), R)) == 1}
        assert got == [m for m in enumerate_ct_products(10, "one_multiple_le3") if set(m) <= ok]
    info = search._ct_products.cache_info()
    assert (info.misses, info.hits) == (1, 2) and info.maxsize is not None
    first = enumerate_ct_products(10, "one_multiple_le3")
    first.clear()
    assert len(enumerate_ct_products(10, "one_multiple_le3")) == 7562


def test_salem_traces_all_minus_one():
    for i in range(1, 11):
        assert salem_trace_deg11(i).trace() == -1


def test_deg22_scans_match_fixture(svh_fixture, deg22_entries):
    assert len(svh_fixture) == 263
    assert sum(1 for r in svh_fixture if r[4] == "S") == 230
    assert sum(1 for r in svh_fixture if r[4] == "H") == 33
    deduped = sorted(set(svh_fixture))
    produced = sorted(
        (e.psi_label, e.case, e.k_multiset, e.st_label, e.verdict)
        for i in range(1, 11) for e in deg22_entries[i]
    )
    assert produced == deduped


def test_deg22_fixture_duplicates_are_r7(svh_fixture):
    seen = {}
    dupes = []
    for row in svh_fixture:
        if row in seen:
            dupes.append(row)
        seen[row] = True
    assert len(dupes) == 8
    assert all(r[0] == "R7" for r in dupes)


def test_deg22_certificates_consistent(deg22_entries):
    for i in (1, 6):
        for e in deg22_entries[i]:
            cert = e.certificate
            assert cert.side == "B" and cert.table == "hyp-B"
            assert cert.rho == 0 and not cert.projective
            assert cert.chi0 == cert.psi


def test_scan_deterministic():
    a = scan_deg22(4)
    b = scan_deg22(4)
    assert [e.row() for e in a] == [e.row() for e in b]


def test_lehmer_a_matches_fixture(min_a_fixture, lehmer_a_entries):
    assert len(lehmer_a_entries) == 15
    got_cmp = sorted(
        (e.psi_label, e.k_multiset, e.st_label, "+".join(e.dynkin),
         e.chi1_tilde.format("z"), e.trace_tilde, e.verdict)
        for e in lehmer_a_entries
    )
    expect_cmp = sorted(
        (p, k, st, "+".join(d), parse_poly(c)[1].format("z"), t, v)
        for p, k, st, d, c, t, v in min_a_fixture
    )
    assert got_cmp == expect_cmp


def test_lehmer_b_matches_fixture(min_b_fixture, lehmer_b_entries):
    assert len(lehmer_b_entries) == 24
    assert sorted(set(e.psi_label for e in lehmer_b_entries)) == ["L3", "L6", "L7", "L8"]
    got_cmp = sorted(
        (e.psi_label, e.case, e.k_multiset, e.st_label, "+".join(e.dynkin),
         e.chi1_tilde.format("z"), e.trace_tilde, e.verdict)
        for e in lehmer_b_entries
    )
    expect_cmp = sorted(
        (p, c, k, st, "+".join(d), parse_poly(chi)[1].format("z"), t, v)
        for p, c, k, st, d, chi, t, v in min_b_fixture
    )
    assert got_cmp == expect_cmp


def test_lehmer_entry_guard_failure_raises(monkeypatch):
    """A Lehmer entry whose modified matrix moved a positive root off the positive
    roots (here bring_back handing back the unmodified F|Pic) raises AssertionError."""
    import dataclasses

    from hyperk3 import picard

    real = picard.bring_back
    assert search._worker_lehmer_a((3, (3, 4, 6, 8))).dynkin == ("E6", "E6")
    monkeypatch.setattr(picard, "bring_back", lambda pic, rs: dataclasses.replace(
        real(pic, rs), modified_on_pic=pic.f_on_pic))
    with pytest.raises(AssertionError, match="does not preserve the positive roots"):
        search._worker_lehmer_a((3, (3, 4, 6, 8)))


def test_lehmer_nf_catalog():
    """Only the unramified L_i can support unimodular lattices at all."""
    for i in range(1, 9):
        psi = lehmer_nf(i)
        assert psi.degree == 11
    assert is_unramified(lehmer_nf(3))


def test_resolve_jobs(monkeypatch):
    """Worker counts are validated and capped without starting a pool."""
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    monkeypatch.delenv("HYPERK3_THREADS", raising=False)
    assert resolve_jobs() == 1
    for value, want in (("", 1), ("  ", 1), ("0", 0), ("1", 1), (" 3 ", 3), ("99", 4)):
        monkeypatch.setenv("HYPERK3_THREADS", value)
        assert resolve_jobs() == want, value
    for value in ("abc", "2.5", "-1"):
        monkeypatch.setenv("HYPERK3_THREADS", value)
        with pytest.raises(ValueError):
            resolve_jobs()
    monkeypatch.setenv("HYPERK3_THREADS", "abc")
    assert resolve_jobs(2) == 2          # an explicit count wins over the environment
    assert resolve_jobs("2") == 2
    assert resolve_jobs(10 ** 6) == 4
    with pytest.raises(ValueError):
        resolve_jobs(-1)
    with pytest.raises(ValueError):
        resolve_jobs("x")
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert resolve_jobs(8) == 1


def test_bad_worker_count_is_rejected_before_any_work(monkeypatch):
    def never(*_args):
        raise AssertionError("a worker ran")

    monkeypatch.setattr(search, "_worker_deg22", never)
    monkeypatch.setenv("HYPERK3_THREADS", "abc")
    with pytest.raises(ValueError):
        scan_deg22(7)


def test_qualifying_needs_an_unramified_psi():
    """A ramified Psi yields no candidates, even where every factor has a unit resultant."""
    R = salem_trace_deg11(7)
    ms = next(m for m in _qualifying(R, 10, "one_multiple_le3") if not {1, 2} & set(m))
    Psi = R + ct_product(ms)  # agrees with R on every root of ct_product(ms)
    assert all(abs(resultant(cyclotomic_trace(k), Psi)) == 1 for k in ms)
    assert not is_unramified(Psi)
    assert _qualifying(Psi, 10, "one_multiple_le3") == []
    assert _qualifying(Psi, 5, "sets_only") == []
    assert ms in _qualifying(R, 10, "one_multiple_le3")


def test_every_scan_candidate_is_unimodular():
    """The per-factor decision of _qualifying holds per candidate, by the full rank-22 test.

    The scans no longer run is_unimodular; this is the check they used to repeat,
    over every deg22 (all ten R_i), lehmerA and lehmerB candidate.
    """
    pairs = [(ct_product(ms), salem_trace_deg11(i)) for i in range(1, 11)
             for ms in _qualifying(salem_trace_deg11(i), 10, "one_multiple_le3")]
    pairs += [(lehmer_trace() * ct_product(ks), salem_trace_deg11(i)) for i in range(1, 11)
              if abs(resultant(lehmer_trace(), salem_trace_deg11(i))) == 1
              for ks in _qualifying(salem_trace_deg11(i), 5, "sets_only")]
    pairs += [(ct_product(ms), lehmer_nf(i)) for i in range(1, 9)
              for ms in _qualifying(lehmer_nf(i), 10, "one_multiple_le3")]
    assert len(pairs) > 9000
    for Phi, Psi in pairs:
        assert is_unimodular(*pair_from_trace(Phi, Psi, "even"))


def test_scan_computes_no_rank22_check(monkeypatch, deg22_entries):
    """scan_deg22 runs no is_unimodular, no trace_polynomial_pair and no resultant above degree 11."""
    import sys

    from hyperk3 import k3class
    from hyperk3.polyring import poly

    def refuse(*_args):
        raise AssertionError("a scan candidate was retested at rank 22")

    monkeypatch.setattr(k3class, "is_unimodular", refuse)
    monkeypatch.setattr(k3class, "trace_polynomial_pair", refuse)
    real = poly.resultant
    degrees = []

    def recording(f, g):
        degrees.append(max(f.degree, g.degree))
        return real(f, g)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hyperk3") and getattr(mod, "resultant", None) is real:
            monkeypatch.setattr(mod, "resultant", recording)
    entries = scan_deg22(7, jobs=1)
    assert [e.row() for e in entries] == [e.row() for e in deg22_entries[7]]
    assert entries and degrees and max(degrees) <= 11


def test_rejected_candidates_compare_no_algebraic_numbers(monkeypatch):
    """On every one of the 272 R7 candidates, a rejected candidate makes no
    AlgebraicReal.compare call and runs Yun on no polynomial with a catalog factor:
    ranks order its roots, the split finds its multiplicities.  R7's own roots are
    placed among the catalog roots beforehand, once per Psi.  scan_deg22(7) prunes by
    gap vectors without a comparison, and certifying all 272 finds its entries."""
    from hyperk3.polyring import IntPoly, isolate_real_roots, roots
    from hyperk3.polyring.roots import AlgebraicReal

    R7 = salem_trace_deg11(7)
    isolate_real_roots(R7)
    compares, yun = [], []
    real_compare, real_yun = AlgebraicReal.compare, roots.squarefree_decomposition

    def counting_compare(self, other):
        compares.append(1)
        return real_compare(self, other)

    def recording_yun(f):
        yun.append(f)
        return real_yun(f)

    monkeypatch.setattr(AlgebraicReal, "compare", counting_compare)
    monkeypatch.setattr(roots, "squarefree_decomposition", recording_yun)
    real_core, per_candidate = search.trace_certificate_explain, []

    def core(Phi, Psi, side):
        before = len(compares), len(yun)
        out = real_core(Phi, Psi, side)
        per_candidate.append((out[0] is None, len(compares) - before[0], yun[before[1]:]))
        return out

    monkeypatch.setattr(search, "trace_certificate_explain", core)
    search._gap_vectors.cache_clear()
    assert search._side_b_candidates(R7) and not compares
    entries = scan_deg22(7, jobs=1)
    del per_candidate[:]
    every = [(7, ms) for ms in _qualifying(R7, 10, "one_multiple_le3")]
    assert [e.row() for e in search._run(search._worker_deg22, every, 1)] == \
        [e.row() for e in entries]
    rejected = [(n, parts) for is_rejected, n, parts in per_candidate if is_rejected]
    assert len(per_candidate) == 272 and len(rejected) == 272 - len(entries) > 200
    assert sum(n for n, _parts in rejected) == 0
    assert all(f in (IntPoly.one(), R7) for _n, parts in rejected for f in parts)
    assert sum(n for is_rejected, n, _parts in per_candidate if not is_rejected) > 0


# ---------------------------------------------------------------------------
# side-B pruning by gap vectors
# ---------------------------------------------------------------------------


def _side_b_psis():
    return [("R", i, salem_trace_deg11(i)) for i in range(1, 11)] + \
        [("L", i, lehmer_nf(i)) for i in range(1, 9)]


@functools.lru_cache(maxsize=64)
def _factor_gaps(k, Psi):
    from hyperk3.clusters import gap_vector

    return gap_vector(cyclotomic_trace(k), Psi)


def _summed_gaps(ms, Psi):
    out = [0] * Psi.degree
    for k in ms:
        out = [a + b for a, b in zip(out, _factor_gaps(k, Psi))]
    return tuple(out)


def test_pruning_walk_equals_filter_by_bounds():
    """For every R_i and L_i, the depth-first walk finds exactly the _qualifying
    candidates whose summed gap vectors fit the bounds, in _qualifying's order."""
    bounds, counts = search._side_b_bounds(), {"R": 0, "L": 0}
    for family, _i, Psi in _side_b_psis():
        want = [ms for ms in _qualifying(Psi, 10, "one_multiple_le3")
                if search._fits(_summed_gaps(ms, Psi), 0, bounds)]
        assert search._side_b_candidates(Psi) == want
        counts[family] += len(want)
    assert counts == {"R": 1179, "L": 285}


@pytest.mark.parametrize("label", ["R7", "L3"])
def test_gap_vectors_are_the_clusters(label):
    """gap_vector is additive over factors, and its runs are the clusters of the pair:
    A_1 the top entry, A_2 .. A_s the nonzero interior entries from the top, A_(s+1)
    the bottom entry, and the B clusters the runs of Psi's roots between them."""
    from hyperk3.clusters import compute_trace_clusters, gap_vector

    Psi = (salem_trace_deg11 if label[0] == "R" else lehmer_nf)(int(label[1:]))
    for ms in _qualifying(Psi, 10, "one_multiple_le3"):
        Phi = ct_product(ms)
        g = gap_vector(Phi, Psi)
        assert g == _summed_gaps(ms, Psi) and sum(g) == 10
        top_down = g[::-1]
        a_sizes = [top_down[0]] + [x for x in top_down[1:-1] if x] + [top_down[-1]]
        b_sizes = [1]
        for x in top_down[1:-1]:
            if x:
                b_sizes.append(1)
            else:
                b_sizes[-1] += 1
        tc = compute_trace_clusters(Phi, Psi)
        assert (tc.cluster_sizes("A"), tc.cluster_sizes("B")) == (a_sizes, b_sizes), ms


def test_pruned_candidates_are_rejected(unpruned_side_b):
    """Every candidate the walk drops is rejected by trace_certificate_explain, and every
    side-B certificate (255 deg22, 55 lehmerB) is among the survivors."""
    for family, psis, pruned_count, certified in (("deg22", _side_b_psis()[:10], 6400, 255),
                                                  ("lehmerB", _side_b_psis()[10:], 4989, 55)):
        _entries, rejected = unpruned_side_b[family]
        every = {(i, ms) for _f, i, Psi in psis for ms in _qualifying(Psi, 10, "one_multiple_le3")}
        kept = {(i, ms) for _f, i, Psi in psis for ms in search._side_b_candidates(Psi)}
        assert kept <= every and len(every - kept) == pruned_count
        assert every - kept <= rejected
        assert len(every - rejected) == certified and every - rejected <= kept


def test_pruned_scans_equal_full_scans(unpruned_side_b, deg22_entries, lehmer_b_entries):
    full_deg22, _rejected = unpruned_side_b["deg22"]
    full_lehmer_b, _rejected = unpruned_side_b["lehmerB"]
    assert [e.row() for e in full_deg22] == \
        [e.row() for i in range(1, 11) for e in deg22_entries[i]]
    assert [e.row() for e in full_lehmer_b] == [e.row() for e in lehmer_b_entries]


def test_certification_once_per_survivor(monkeypatch):
    """The scans certify each surviving candidate once: 1,179 deg22 and 285 lehmerB."""
    calls = []

    def counting(Phi, Psi, side):
        calls.append(side)
        return None, "counted"

    monkeypatch.setattr(search, "trace_certificate_explain", counting)
    assert search.scan_deg22_many(range(1, 11), jobs=1) == []
    assert calls == ["B"] * 1179
    del calls[:]
    assert search.scan_lehmer("B", jobs=1) == []
    assert calls == ["B"] * 285


def test_bounds_follow_the_table(monkeypatch):
    """The bounds are read off the _HYP_B rows: a row edit changes them, and looser
    bounds keep every candidate the table's rows kept."""
    from hyperk3 import k3class

    assert search._side_b_bounds() == (3, 1, 3, 7)
    R7 = salem_trace_deg11(7)
    kept = search._side_b_candidates(R7)
    rows = list(k3class._HYP_B)
    rows[0] = (1, 7, {1: 4, 2: 2}, {1: 6, 2: 1, 3: 1}, 8, (), ("middle_tc", "B"))
    monkeypatch.setattr(k3class, "_HYP_B", tuple(rows))
    assert search._side_b_bounds() == (3, 2, 2, 6)
    rows[1] = (2, 8, {1: 2, 5: 1}, {1: 7, 3: 1}, 6, (), ("middle_tc", "B"))
    monkeypatch.setattr(k3class, "_HYP_B", tuple(rows))
    assert search._side_b_bounds() == (5, 2, 4, 6)
    looser = search._side_b_candidates(R7)
    assert set(kept) < set(looser)


def test_pruning_preconditions_raise(monkeypatch):
    """Pruning refuses a Psi or factor outside its assumptions instead of falling back."""
    from hyperk3.clusters import gap_vector
    from hyperk3.k3class import antipode_pair

    R7 = salem_trace_deg11(7)
    below = antipode_pair(R7, R7)[0]  # one root below -2, none above 2
    assert is_unramified(below) and _qualifying(below, 10, "one_multiple_le3")
    with pytest.raises(ValueError, match="one real root above 2"):
        search._side_b_candidates(below)
    with pytest.raises(ValueError, match="shares its rank key"):
        gap_vector(cyclotomic_trace(5) * cyclotomic_trace(7), cyclotomic_trace(7) * R7)
    search._gap_vectors.cache_clear()
    monkeypatch.setattr(search, "gap_vector", lambda f, Psi: (0,) * Psi.degree)
    with pytest.raises(ValueError, match=r"root off \[-2, 2\]"):
        search._side_b_candidates(R7)
    search._gap_vectors.cache_clear()


def test_pool_starts_after_the_parent_ranks_the_catalog(monkeypatch, deg22_entries):
    """Pruning in the parent builds _catalog_ranks, so forked workers inherit it; the
    pool is gone when the scan returns."""
    import concurrent.futures
    import multiprocessing

    from hyperk3.polyring import roots

    filled = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            filled.append(roots._catalog_ranks.cache_info().currsize)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    roots._catalog_ranks.cache_clear()
    search._gap_vectors.cache_clear()
    entries = scan_deg22(7, jobs=2)
    assert filled == [1]
    assert [e.row() for e in entries] == [e.row() for e in deg22_entries[7]]
    assert multiprocessing.active_children() == []
