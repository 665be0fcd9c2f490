"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The scan-backed criteria share session fixtures with the
rest of the suite, so the expensive searches run once per session.
"""

import random
import time
from fractions import Fraction

from hyperk3 import linalg
from hyperk3.clusters import compute_trace_clusters, index
from hyperk3.hyplattice import build_lattice, signature_oracle
from hyperk3.k3class import k3_certificate
from hyperk3.numfield import recover_phi, trace_form_gram, unit_from_gram, verify_unit
from hyperk3.picard import bring_back, picard_from_certificate, transport
from hyperk3.polyring import (
    IntPoly,
    classify_product,
    cyclotomic,
    cyclotomic_trace,
    isolate_real_roots,
    lehmer_trace,
    newton_power_sum,
    pair_from_trace,
    resultant,
    resultant_relation,
    salem_deg22,
    salem_trace_deg11,
)
from hyperk3.search import ct_catalog, list_ct_catalog
from hyperk3.polyring.roots import ranked_roots, root_index, signs_at_roots
from hyperk3.siegel import TAU0, builtin_q, verify_D_identity

CT = cyclotomic_trace
W = IntPoly.variable()


def ctp(ks):
    out = IntPoly.one()
    for k in ks:
        out = out * CT(k)
    return out


def sign_q_minus(x, q, c):
    """Sign of q(x) - c, read off the signs at the roots of x's minimal polynomial."""
    f = x.minpoly
    i = root_index(x, ranked_roots(f))
    den = signs_at_roots(q.denominator, f)[i]
    return signs_at_roots(q.numerator - IntPoly.const(c) * q.denominator, f)[i] * den


def report(n, text, t0):
    print(f"criterion {n:2d}: PASS  ({time.time() - t0:6.2f}s)  {text}")


def test_criterion_01_catalog(catalog_fixture):
    t0 = time.time()
    rows = list_ct_catalog()
    assert len(rows) == 41
    assert sum(1 for _k, _d, u in rows if u) == 15
    grouped = {}
    for k, d, u in rows:
        grouped.setdefault(d, ([], []))
        grouped[d][0].append(k)
        if u:
            grouped[d][1].append(k)
    assert grouped == {d: (list(ks), list(un)) for d, ks, un in catalog_fixture}
    assert time.time() - t0 < 1.0
    report(1, "catalog has 41 entries, 15 unramified, grouped as printed", t0)


def test_criterion_02_apostol():
    t0 = time.time()
    idxs = [k for k, _d in ct_catalog() if k <= 66]
    checked = 0
    for i, m in enumerate(idxs):
        for k in idxs:
            if k <= m:
                continue
            unit = abs(resultant(CT(k), CT(m))) == 1
            assert unit == (not _prime_power_ratio(k, m)), (k, m)
            checked += 1
    assert checked == len(idxs) * (len(idxs) - 1) // 2
    assert time.time() - t0 < 10.0
    report(2, f"Apostol criterion exact on {checked} catalog pairs", t0)


def _prime_power_ratio(k, m):
    if k % m:
        return False
    q = k // m
    if q == 1:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True


def _random_pairs(count=200, seed=20260810):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nh = rng.randint(1, 6)
        Phi = IntPoly([rng.randint(-3, 3) for _ in range(nh - 1)] + [1])
        Psi = IntPoly([rng.randint(-3, 3) for _ in range(nh)] + [1])
        phi, psi = pair_from_trace(Phi, Psi, "even")
        if resultant(phi, psi) != 0:
            out.append((Phi, Psi, phi, psi))
    return out


def test_criterion_03_gram_resultant():
    t0 = time.time()
    for Phi, Psi, phi, psi in _random_pairs():
        lat = build_lattice(phi, psi)
        assert abs(lat.disc) == abs(resultant(phi, psi))
        lhs, rhs = resultant_relation(phi, psi)
        assert lhs == rhs
    assert time.time() - t0 < 30.0
    report(3, "disc and the resultant identity hold on 200 random pairs", t0)


def test_criterion_04_index_oracle():
    t0 = time.time()
    zero_cases = 0
    for Phi, Psi, phi, psi in _random_pairs():
        lat = build_lattice(phi, psi)
        tc = compute_trace_clusters(Phi, Psi, "even")
        data = index(tc)
        p, q = signature_oracle(lat.gram_a)
        assert data.p_minus_q == p - q
        zero_cases += tc.no_clusters
    assert zero_cases >= 1
    report(4, f"index formula equals LDL signature on 200 pairs ({zero_cases} empty-B cases)", t0)


def test_criterion_05_deg22_scans(svh_fixture, deg22_entries):
    t0 = time.time()
    assert len(svh_fixture) == 263
    assert sum(1 for r in svh_fixture if r[4] == "S") == 230
    assert sum(1 for r in svh_fixture if r[4] == "H") == 33
    produced = sorted(
        (e.psi_label, e.case, e.k_multiset, e.st_label, e.verdict)
        for i in range(1, 11) for e in deg22_entries[i]
    )
    assert produced == sorted(set(svh_fixture))
    report(5, "ten scans reproduce all 263 printed rows (after the R7 dedup)", t0)


def test_criterion_06_lehmer_scans(min_a_fixture, min_b_fixture,
                                   lehmer_a_entries, lehmer_b_entries):
    t0 = time.time()
    from hyperk3.polyring import parse_poly

    got_a = sorted((e.psi_label, e.k_multiset, e.st_label, "+".join(e.dynkin),
                    e.chi1_tilde.format("z"), e.trace_tilde, e.verdict)
                   for e in lehmer_a_entries)
    want_a = sorted((p, k, st, "+".join(d), parse_poly(c)[1].format("z"), t, v)
                    for p, k, st, d, c, t, v in min_a_fixture)
    assert got_a == want_a and len(got_a) == 15
    got_b = sorted((e.psi_label, e.case, e.k_multiset, e.st_label, "+".join(e.dynkin),
                    e.chi1_tilde.format("z"), e.trace_tilde, e.verdict)
                   for e in lehmer_b_entries)
    want_b = sorted((p, c, k, st, "+".join(d), parse_poly(chi)[1].format("z"), t, v)
                    for p, c, k, st, d, chi, t, v in min_b_fixture)
    assert got_b == want_b and len(got_b) == 24
    assert sorted(set(e.psi_label for e in lehmer_b_entries)) == ["L3", "L6", "L7", "L8"]
    report(6, "both minimum-entropy tables reproduced row for row", t0)


def test_criterion_07_worked_example():
    t0 = time.time()
    phi, psi = pair_from_trace(lehmer_trace() * ctp([3, 4, 6, 8]),
                               salem_trace_deg11(3), "even")
    cert = k3_certificate(phi, psi, "A")
    pic, rs, res, cycles = transport(cert)  # raises unless F~ keeps the positive roots
    assert len(rs.all_roots) == 144
    assert len(rs.positive_roots) == 72
    assert len(rs.simple_roots) == 12
    assert rs.dynkin == ("E6", "E6")
    assert res.chi1_tilde == cyclotomic(1) ** 4 * cyclotomic(2) ** 4 * cyclotomic(4) ** 2
    assert res.trace_tilde == -1
    # the documented lowest-index tie-break fixes this word; the reference
    # word uses the opposite tie-break and yields the identical Weyl element
    assert res.word == (35, 23, 5, 41, 62, 57, 72)
    res_ref = bring_back(pic, rs, tie_break="highest")
    assert res_ref.word == (5, 23, 35, 41, 62, 57, 72)
    assert res_ref.modified == res.modified
    by_len = sorted(tuple(sorted(c)) for c in cycles)
    assert sorted(len(c) for c in cycles) == [2, 2, 4, 4]
    assert tuple(sorted(("E6#1:e2", "E6#2:e2"))) in by_len
    assert tuple(sorted(("E6#1:e4", "E6#2:e4"))) in by_len
    assert tuple(sorted(("E6#1:e1", "E6#2:e1", "E6#1:e6", "E6#2:e6"))) in by_len
    assert tuple(sorted(("E6#1:e3", "E6#2:e3", "E6#1:e5", "E6#2:e5"))) in by_len
    report(7, "worked example: 144/72/12 roots, E6+E6, word, action all match", t0)


# four printed roots are off by 1-2 units in their final digit (verified
# against exact Sturm isolation and an independent numpy computation):
# R1 y6 = -0.80980771..., R4 y5 = -0.27787941..., R5 y6 = -0.74815171...,
# R9 y4 = 0.02840388...; those entries get double slack
_MISPRINTED = {("R1", "y6"), ("R4", "y5"), ("R5", "y6"), ("R9", "y4")}


def test_criterion_08_numeric_anchors(roots_fixture):
    t0 = time.time()
    lt_roots = isolate_real_roots(lehmer_trace())
    inside = [r for r in lt_roots if -2 < r < 2]
    for r, s in zip(inside, ["-1.88660", "-1.46887", "-0.584663", "0.913731"]):
        _assert_printed(r, s)
    _assert_printed([r for r in lt_roots if r > 2][0], "2.02642")
    for i in range(1, 11):
        ys = [r for r in isolate_real_roots(salem_trace_deg11(i)) if -2 < r < 2]
        ys = list(reversed(ys))
        for j, r in enumerate(ys, start=1):
            slack = 2 if (f"R{i}", f"y{j}") in _MISPRINTED else 1
            _assert_printed(r, roots_fixture[(f"R{i}", f"y{j}")], slack)
        assert ys[9] < TAU0
    report(8, "all printed root values and the tau0 comparisons verified", t0)


def _assert_printed(root, printed, slack=1):
    decimals = len(printed.split(".")[1])
    approx = root.approx(Fraction(1, 10 ** (decimals + 4)))
    assert abs(approx - Fraction(printed)) < Fraction(slack, 10 ** decimals), (
        printed, float(approx))


def test_criterion_09_siegel_identities():
    t0 = time.time()
    assert sign_q_minus(TAU0, builtin_q("fixed_point"), 4) == 0
    x4, x3, x2, x1 = [r for r in isolate_real_roots(lehmer_trace()) if -2 < r < 2]
    xs = {1: x1, 2: x2, 3: x3, 4: x4}
    for label, signs in {
        "e8a2a2": {1: 1, 2: -1, 3: 1, 4: -1},
        "d10": {1: -1, 2: -1, 3: -1, 4: 1},
        "a2": {1: -1, 2: 1, 3: -1, 4: -1},
    }.items():
        q = builtin_q(label)
        for j, sign in signs.items():
            assert sign_q_minus(xs[j], q, 4) == sign
            assert sign_q_minus(xs[j], q, 0) == 1
    assert verify_D_identity()
    assert newton_power_sum(IntPoly((-29, 20, -7, 1)), 3) == 10
    report(9, "q(tau0) = 4, the eight sign facts, D identity and p3 = 10", t0)


def test_criterion_10_number_field_bridge():
    t0 = time.time()
    Phi = CT(1) ** 3 * ctp([3, 4, 6, 16])
    R = salem_trace_deg11(1)
    phi, psi = pair_from_trace(Phi, R, "even")
    cert = k3_certificate(phi, psi, "B")
    lat = build_lattice(phi, psi)
    sign = -1 if cert.renormalized else 1
    row22 = [sign * v for v in lat.xi_extended("B", 21)]
    data = unit_from_gram(row22[:11], R)
    assert data.U == IntPoly((0, -16, 24, 36, -70, -4, 54, -22, -7, 6, -1))
    tau = cert.special_trace.retargeted(R)
    ok, why = verify_unit(data.U, R, tau)
    assert ok, why
    gram = trace_form_gram(data.U, salem_deg22(1))
    assert all(gram[i][j] == row22[abs(i - j)] for i in range(22) for j in range(22))
    for case, Phi_expect in _RECOVERED_CASES.items():
        Ri = salem_trace_deg11(case)
        phi_c, psi_c = pair_from_trace(Phi_expect, Ri, "even")
        lat_c = build_lattice(phi_c, psi_c)
        d = index(compute_trace_clusters(Phi_expect, Ri))
        sgn = -1 if d.p_minus_q == 16 else 1
        u_c = unit_from_gram([sgn * v for v in lat_c.xi_extended("B", 10)], Ri)
        assert recover_phi(u_c.U, salem_deg22(case)) == Phi_expect
    assert time.time() - t0 < 60.0
    report(10, "U(w) exact, unit verified at y8, cases 4 and 10 recovered", t0)


_RECOVERED_CASES = {
    4: CT(4) * CT(42) * (W ** 3 - W * W - 3 * W + 1),
    10: CT(4) * (W ** 9 - W ** 8 - 10 * W ** 7 + 7 * W ** 6 + 35 * W ** 5
                 - 14 * W ** 4 - 48 * W ** 3 + 7 * W * W + 18 * W - 1),
}


def test_criterion_11_structural_invariants(deg22_entries, lehmer_a_entries,
                                            lehmer_b_entries):
    t0 = time.time()
    everything = [e for i in range(1, 11) for e in deg22_entries[i]]
    everything += list(lehmer_a_entries) + list(lehmer_b_entries)
    assert len(everything) == 255 + 15 + 24
    for e in everything:
        cert = e.certificate
        lat = build_lattice(cert.phi, cert.psi)
        n = lat.n
        ident = linalg.identity(n)
        a, b, c, g = lat.mat_a, lat.mat_b, lat.mat_c, lat.gram_a
        assert linalg.mat_mul(c, c) == ident
        assert linalg.mat_mul(a, c) == b
        for m in (a, b, c):
            assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), g), m) == g
        assert all(g[i][i] == 2 for i in range(n))
        assert cert.rho == 22 - cert.chi0.degree
        # any non-null A cluster is simple except at most one of size 2 or 3
        big = [s for s in cert.clusters.cluster_sizes("A") if s > 1]
        assert len(big) <= 1 and all(s <= 3 for s in big)
        if e.chi1_tilde is not None and e.chi1_tilde.degree > 0:
            assert classify_product(e.chi1_tilde).all_cyclotomic()
        if cert.rho:
            pic = picard_from_certificate(cert)
            assert linalg.is_positive_definite(pic.gram_pos)
        # number-field compatibility: the unit's distinguished root is the ST
        if cert.side == "B" and cert.rho == 0:
            R = cert.Psi
            sign = -1 if cert.renormalized else 1
            u = unit_from_gram([sign * v for v in lat.xi_extended("B", 10)], R)
            ok, why = verify_unit(u.U, R, cert.special_trace.retargeted(R))
            assert ok, (e.psi_label, e.k_multiset, why)
    report(11, f"structural invariants green on all {len(everything)} scan entries", t0)
