"""Signs at algebraic numbers by merge order, against the per-root reference.

``signs_at_roots`` reads the sign of p at every root of f off one merge of
their ranked roots, and ``root_index`` finds a number among a polynomial's
ranked roots on copies.  The references below are test-only copies of the
path they replaced: one gcd per root, then bisection until the isolating
interval is free of p's roots.  They run on copies, so they narrow nothing.
"""

import random
from fractions import Fraction

import pytest

from hyperk3.hyplattice import build_lattice
from hyperk3.k3class import chi_factorization, k3_certificate
from hyperk3.numfield import unit_from_gram, verify_unit
from hyperk3.polyring import (
    AlgebraicReal,
    IntPoly,
    cyclotomic_trace,
    isolate_real_roots,
    lehmer_trace,
    pair_from_trace,
    poly_gcd,
    salem_trace_deg11,
    sturm_root_count,
)
from hyperk3.polyring import roots
from hyperk3.polyring.roots import ranked_roots, root_index, signs_at_roots
from hyperk3.siegel import Q_LABELS, builtin_q, siegel_test, threshold_classify_deg22

CT = cyclotomic_trace
W = IntPoly.variable()


# ---------------------------------------------------------------------------
# references: the old AlgebraicReal.is_root_of, sign_of and retargeted
# ---------------------------------------------------------------------------


def open_root_count(f, lo, hi):
    n = sturm_root_count(f, lo, hi)
    return n - 1 if n and f.sign_at(hi) == 0 else n


def old_is_root_of(x, p):
    if p.is_zero():
        return True
    g = poly_gcd(x._poly, p)
    return g.degree > 0 and open_root_count(g, x._lo, x._hi) >= 1


def old_sign_of(x, p):
    x = x._copy()
    if p.is_zero() or old_is_root_of(x, p):
        return 0
    if p.degree < 1:
        return 1 if p.constant() > 0 else -1
    while open_root_count(p, x._lo, x._hi) > 0:
        x._bisect_once()
    s = p.sign_at((x._lo + x._hi) / 2)
    assert s != 0
    return s


def old_retargeted(x, p):
    x = x._copy()
    assert old_is_root_of(x, p)
    sf = p
    if p.degree > 1 and (g := poly_gcd(p, p.derivative())).degree > 0:
        sf = p.primitive().divexact(g)
    for _ in range(10_000):
        lo, hi = x.interval
        if open_root_count(sf, lo, hi) == 1 and sf.sign_at(lo) != 0 and sf.sign_at(hi) != 0:
            return AlgebraicReal(sf, (lo, hi), x.multiplicity)
        x._bisect_once()
    raise ArithmeticError("failed to isolate within the target polynomial")


def old_siegel_verdict(tau, q):
    """The old siegel_test's verdict, on the reference signs."""
    def q_minus(x, c):
        return old_sign_of(x, q.numerator - IntPoly.const(c) * q.denominator) * \
            old_sign_of(x, q.denominator)

    s0, s4 = q_minus(tau, 0), q_minus(tau, 4)
    if s0 == 0 or s4 == 0:
        return "indeterminate"
    if s4 > 0:
        return "H"
    if s0 < 0:
        return "indeterminate"
    for conj in isolate_real_roots(tau.minpoly):
        if conj == tau._copy() or not (-2 < conj < 2):
            continue
        if old_sign_of(conj, q.denominator) != 0 and q_minus(conj, 4) > 0:
            return "S"
    return "indeterminate"


def old_signs(p, f):
    return tuple(old_sign_of(r, p) for r in isolate_real_roots(f))


def q_polys(q):
    return q.denominator, q.numerator, q.numerator - IntPoly.const(4) * q.denominator


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


def test_unit_signs_match_old_on_every_table_unit(deg22_entries):
    """U and R' at every root of R, inside and outside (-2, 2), for all 255 units."""
    entries = [e for i in range(1, 11) for e in deg22_entries[i]]
    assert len(entries) == 255
    derivative_signs = {}
    for e in entries:
        cert = e.certificate
        R = cert.Psi
        sign = -1 if cert.renormalized else 1
        lat = build_lattice(cert.phi, cert.psi)
        U = unit_from_gram([sign * v for v in lat.xi_extended("B", 10)], R).U
        assert signs_at_roots(U, R) == old_signs(U, R), (e.psi_label, e.k_multiset)
        if R not in derivative_signs:
            derivative_signs[R] = old_signs(R.derivative(), R)
        assert signs_at_roots(R.derivative(), R) == derivative_signs[R]
        assert verify_unit(U, R, cert.special_trace) == (True, None)


def _reference_verdicts(f, q):
    """Old verdict at each root of f inside (-2, 2), by position in ranked_roots(f)."""
    return {i: old_siegel_verdict(r, q) for i, (_k, r) in enumerate(ranked_roots(f))
            if -2 < r < 2}


def test_siegel_signs_and_verdicts_match_old():
    """Every `siegel --tau-from` input: R_1..R_10 with fixed_point, LT with all four q."""
    cases = [(salem_trace_deg11(i), "fixed_point") for i in range(1, 11)]
    cases += [(lehmer_trace(), label) for label in Q_LABELS]
    for f, label in cases:
        q = builtin_q(label)
        for p in q_polys(q):
            assert signs_at_roots(p, f) == old_signs(p, f), (f, label)
        for i, verdict in _reference_verdicts(f, q).items():
            tau = ranked_roots(f)[i][1]
            assert siegel_test(tau, q).verdict == verdict, (f, label, i)
            if f.degree == 11:
                assert threshold_classify_deg22(tau) == verdict


def test_scan_siegel_decisions_match_old(deg22_entries, lehmer_a_entries, lehmer_b_entries):
    """Each scan entry's tau and verdict, against the reference retarget and verdict."""
    from hyperk3.search import _Q_BY_DYNKIN

    reference = {}
    deg22 = [(e, e.certificate.Psi, "fixed_point") for i in range(1, 11) for e in deg22_entries[i]]
    lehmer = [(e, lehmer_trace(), _Q_BY_DYNKIN[e.dynkin])
              for e in list(lehmer_a_entries) + list(lehmer_b_entries)]
    for e, f, label in deg22 + lehmer:
        st = e.certificate.special_trace
        before = st.interval
        tau = st.retargeted(f)
        assert st.interval == before
        old = old_retargeted(st, f)
        assert tau == old and tau.minpoly == old.minpoly
        i = root_index(tau, ranked_roots(f))
        if (f, label) not in reference:
            reference[f, label] = _reference_verdicts(f, builtin_q(label))
        assert e.verdict == reference[f, label][i], (e.psi_label, e.k_multiset)
    assert len(reference) == 10 + len({label for _e, _f, label in lehmer})


def test_shared_roots_match_old():
    """Seeded small polynomials that share roots with f, catalog and residual alike.

    Roots above 2 (of w^2 - 5, w^2 - 6, w^2 - 7) all fall in one slot of the
    rank keys, so they tie: apart when p and f are coprime, equal when shared.
    """
    pool = [CT(1), CT(2), CT(3), CT(5), CT(8), CT(12), lehmer_trace(),
            W * W - 5, W * W - 6, W * W - 7, W ** 3 - 4 * W + 1, W * W - W - 3]
    rng = random.Random(15)
    for _ in range(60):
        f = IntPoly.one()
        for g in rng.sample(pool, rng.randint(1, 3)):
            f = f * g ** rng.randint(1, 2)
        p = IntPoly.const(rng.choice([1, -2, 3]))
        for g in rng.sample(pool, rng.randint(0, 3)):
            p = p * g ** rng.randint(1, 3)
        p = p * IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
        assert signs_at_roots(p, f) == old_signs(p, f), (p, f)
    f = salem_trace_deg11(1)
    assert signs_at_roots(IntPoly.zero(), f) == (0,) * 11
    assert signs_at_roots(IntPoly.const(-3), f) == (-1,) * 11
    assert signs_at_roots(f * (W + 2), f) == (0,) * 11  # test_indeterminate_on_boundary's q


# ---------------------------------------------------------------------------
# pins: one gcd per pair at most, and the caller's root is never narrowed
# ---------------------------------------------------------------------------


@pytest.fixture()
def counted_gcd(monkeypatch):
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return poly_gcd(f, g)

    monkeypatch.setattr(roots, "poly_gcd", counting)
    return calls


def _cold_sign_caches(calls):
    """Forget every cached sign and gcd, but keep the isolation caches warm."""
    roots.signs_at_roots.cache_clear()
    roots._gcd_cached.cache_clear()
    del calls[:]


def _table_unit():
    R = salem_trace_deg11(1)
    phi, psi = pair_from_trace(CT(1) ** 3 * CT(3) * CT(4) * CT(6) * CT(16), R, "even")
    cert = k3_certificate(phi, psi, "B")
    lat = build_lattice(cert.phi, cert.psi)
    sign = -1 if cert.renormalized else 1
    return unit_from_gram([sign * v for v in lat.xi_extended("B", 10)], R).U, R, cert


def test_sign_decisions_make_no_gcd_per_root(counted_gcd):
    """The old path ran 24 gcds in this verify_unit, and 11 in one siegel_test."""
    U, R, cert = _table_unit()
    tau = cert.special_trace
    for p in [R.derivative()] + [p for label in Q_LABELS for p in q_polys(builtin_q(label))]:
        ranked_roots(p)
    _cold_sign_caches(counted_gcd)
    assert verify_unit(U, R, tau) == (True, None)
    assert len(counted_gcd) <= 1  # the lookup of tau among R's roots
    _cold_sign_caches(counted_gcd)
    for label in Q_LABELS:
        siegel_test(tau, builtin_q(label))
    assert len(counted_gcd) <= 1


def test_lookups_leave_the_callers_root_unchanged():
    """tau's interval reaches into both neighbours' intervals, so telling them
    apart takes bisection: of copies only."""
    U, R, cert = _table_unit()
    ranked = ranked_roots(R)
    k = root_index(cert.special_trace, ranked)
    lo = ranked[k - 1][1].refined(Fraction(1, 2 ** 40)).interval[1]
    hi = ranked[k + 1][1].refined(Fraction(1, 2 ** 40)).interval[0]
    tau = AlgebraicReal(R, (lo, hi))
    ranked_before = [r.interval for _k, r in ranked]
    assert root_index(tau, ranked) == k
    assert [r.interval for _k, r in ranked] == ranked_before
    assert tau.retargeted(R) == cert.special_trace
    assert verify_unit(U, R, tau) == (True, None)
    assert siegel_test(tau, builtin_q("fixed_point")).verdict == threshold_classify_deg22(tau)
    assert chi_factorization(cert.psi, tau).rho == 0
    assert tau.interval == (lo, hi)
    assert root_index(tau, ranked_roots(R * R - 1)) is None
