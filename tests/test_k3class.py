"""Certificates: tables, special traces, renormalization, chi factorization."""

import random

import pytest

from hyperk3.clusters import compute_trace_clusters, index
from hyperk3.k3class import (
    antipode_pair,
    chi_factorization,
    classify_rank22,
    k3_certificate,
    k3_certificate_explain,
    special_trace_by_local_index,
    trace_certificate_explain,
)
from hyperk3.polyring import (
    IntPoly,
    cyclotomic,
    cyclotomic_trace,
    isolate_real_roots,
    lehmer,
    lehmer_nf,
    lehmer_trace,
    pair_from_trace,
    resultant,
    salem_deg22,
    salem_trace_deg11,
    trace_polynomial_pair,
)

CT = cyclotomic_trace
W = IntPoly.variable()


def ctp(ks):
    out = IntPoly.one()
    for k in ks:
        out = out * CT(k)
    return out


def lehmer_xs():
    return [r for r in isolate_real_roots(lehmer_trace()) if -2 < r < 2]  # x4..x1 ascending


def salem_ys(i):
    inside = [r for r in isolate_real_roots(salem_trace_deg11(i)) if -2 < r < 2]
    return list(reversed(inside))  # y1..y10, y1 largest


def test_classify_rank22_case3():
    Phi = CT(1) ** 3 * ctp([3, 4, 6, 16])
    tc = compute_trace_clusters(Phi, salem_trace_deg11(1))
    assert classify_rank22(tc) == (3, 16)


def test_classify_rank22_case5():
    Phi = lehmer_trace() * ctp([3, 4, 6, 8])
    tc = compute_trace_clusters(Phi, salem_trace_deg11(3))
    assert classify_rank22(tc) == (5, 16)


def test_classify_rank22_none():
    # a unimodular-shaped but wrong-pattern input: all CT roots of one sign block
    Phi = ctp([5, 7, 11])  # degree 10
    tc = compute_trace_clusters(Phi, salem_trace_deg11(1))
    out = classify_rank22(tc)
    data = index(tc)
    if out is None:
        assert abs(data.p_minus_q) != 16
    else:
        assert abs(data.p_minus_q) == 16


def test_certificate_case1_deg22():
    Phi = CT(1) ** 3 * ctp([3, 4, 6, 16])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "B")
    assert cert is not None
    assert (cert.table, cert.case, cert.hodge_type) == ("hyp-B", 1, "hyperbolic")
    assert cert.renormalized and not cert.antipode
    assert cert.rho == 0 and not cert.projective
    assert cert.chi0 == salem_deg22(1)
    assert cert.chi1 == IntPoly.one()
    assert cert.special_trace == salem_ys(1)[7]  # y8


def test_certificate_worked_example_side_a():
    Phi = lehmer_trace() * ctp([3, 4, 6, 8])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(3), "even")
    cert = k3_certificate(phi, psi, "A")
    assert cert is not None
    assert (cert.table, cert.case) == ("hyp-A", 7)
    assert cert.special_trace == lehmer_xs()[1]  # x3
    assert cert.chi0 == lehmer()
    assert cert.rho == 12


def test_certificate_minA_row1():
    Phi = lehmer_trace() * ctp([4, 20])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "A")
    assert cert is not None and cert.special_trace == lehmer_xs()[0]  # x4


def test_certificate_rejects_low_rank():
    cert, reason = k3_certificate_explain(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1)), "A")
    assert cert is None and "rank" in reason


def test_certificate_rejects_non_unimodular():
    Phi = ctp([5, 7, 11])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    cert, reason = k3_certificate_explain(phi, psi, "B")
    assert cert is None and reason == "lattice is not unimodular"


def test_antipode_applied_automatically():
    """The mirror of a certified pair certifies with the antipode flag set."""
    Phi = CT(1) ** 3 * ctp([3, 4, 6, 16])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    phi_m, psi_m = antipode_pair(phi, psi)
    base = k3_certificate(phi, psi, "B")
    cert = k3_certificate(phi_m, psi_m, "B")
    assert cert is not None and cert.antipode
    assert cert.case == base.case
    assert cert.special_trace == base.special_trace
    # untwisted certification fails because the Salem root sits below -2
    PhiM, PsiM = trace_polynomial_pair(phi_m, psi_m)
    roots_above = [r for r in isolate_real_roots(PsiM) if r > 2]
    assert not roots_above
    # ... and that is the case where side B still tries the antipode
    tc = compute_trace_clusters(PhiM, PsiM)
    assert tc.b_lt2 == 1 and tc.b_off_total == 1


def test_parabolic_certificates_exist():
    """k containing index 1 puts a simple root at w = 2: parabolic type."""
    phi, psi = pair_from_trace(ctp([1, 3, 17]), salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "A")
    assert cert is not None
    assert cert.hodge_type == "parabolic"
    assert cert.table == "ep-A"
    assert cert.projective  # root-of-unity special eigenvalue
    # z = 1 is a triple root of phi, all other roots simple
    one = IntPoly((-1, 1))
    count = 0
    rest = cert.phi
    while (quot_rem := rest.divmod_exact(one))[1].is_zero():
        rest = quot_rem[0]
        count += 1
    assert count == 3


def test_rare_hyp_a_cases_1_and_9():
    """Two hyp-A configurations beyond the minimum-entropy family."""
    Psi1 = ((W + 1) * (W * W - 4) - 1) * CT(60)
    Phi1 = lehmer_trace() * CT(18) * CT(5)
    phi1, psi1 = pair_from_trace(Phi1, Psi1, "even")
    cert1 = k3_certificate(phi1, psi1, "A")
    assert cert1 is not None and (cert1.table, cert1.case) == ("hyp-A", 1)

    Psi2 = (W * (W * W - 1) * (W * W - 3) * (W * W - 4) - 1) * CT(24)
    Phi2 = lehmer_trace() * CT(15) * CT(4)
    phi2, psi2 = pair_from_trace(Phi2, Psi2, "even")
    cert2 = k3_certificate(phi2, psi2, "A")
    assert cert2 is not None and (cert2.table, cert2.case) == ("hyp-A", 9)


def test_special_trace_local_index_agrees_with_tables():
    checked = 0
    for i, ks in [(1, [3, 4, 6, 16]), (3, [4, 36]), (5, [7, 24])]:
        Phi = CT(1) ** 3 * ctp(ks)
        assert Phi.degree == 10
        phi, psi = pair_from_trace(Phi, salem_trace_deg11(i), "even")
        cert = k3_certificate(phi, psi, "B")
        if cert is None:
            continue
        st2 = special_trace_by_local_index(cert.clusters, "B", cert.renormalized)
        assert st2 == cert.special_trace
        checked += 1
    assert checked >= 2


def test_chi_factorization_examples():
    ys = salem_ys(1)
    split = chi_factorization(salem_deg22(1), ys[7])
    assert split.chi0 == salem_deg22(1) and split.rho == 0 and not split.projective
    # Lehmer factor inside a product
    chi = lehmer() * cyclotomic(1) ** 4 * cyclotomic(2) ** 4 * cyclotomic(4) ** 2
    xs = lehmer_xs()
    split = chi_factorization(chi, xs[2])
    assert split.chi0 == lehmer() and split.rho == 12 and not split.projective
    # cyclotomic special trace: projective flag
    c12_trace_root = isolate_real_roots(CT(12))[1]  # sqrt 3
    chi2 = cyclotomic(12) * lehmer() * cyclotomic(1) ** 6 * cyclotomic(2) ** 2
    split2 = chi_factorization(chi2, c12_trace_root)
    assert split2.projective and split2.chi0 == cyclotomic(12)
    # a non-root tau is rejected
    with pytest.raises(ValueError):
        chi_factorization(chi, isolate_real_roots(IntPoly((-3, 0, 1)))[0])


def test_certificates_satisfy_cluster_simpleness():
    """Any non-null A cluster is simple except at most one of size 2 or 3."""
    for i, ks, mult in [(1, [3, 4, 6, 16], 3), (2, [9, 24], 3), (5, [17], 2)]:
        Phi = CT(1) ** mult * ctp(ks)
        if Phi.degree != 10:
            continue
        phi, psi = pair_from_trace(Phi, salem_trace_deg11(i), "even")
        cert = k3_certificate(phi, psi, "B")
        if cert is None:
            continue
        sizes = [s for s in cert.clusters.cluster_sizes("A") if s > 0]
        big = [s for s in sizes if s > 1]
        assert len(big) <= 1 and all(s <= 3 for s in big)


def test_elliptic_certificates():
    """Elliptic side-A examples: all eigenvalues of A on the unit circle."""
    # (R1, {3,5,6,7,9}): ep-A case 8, special trace = max of the double A_2
    phi, psi = pair_from_trace(ctp([3, 5, 6, 7, 9]), salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "A")
    assert cert is not None
    assert (cert.table, cert.case, cert.hodge_type) == ("ep-A", 8, "elliptic")
    assert cert.projective
    assert cert.phi.divmod_exact(cert.chi1)[1].is_zero()
    assert cert.phi.divmod_exact(cert.chi0)[1].is_zero()

    # (R2, {14,16,18}) certifies through the antipode as ep-A case 3:
    # the special trace is the middle element of the triple A cluster
    phi2, psi2 = pair_from_trace(ctp([14, 16, 18]), salem_trace_deg11(2), "even")
    cert2 = k3_certificate(phi2, psi2, "A")
    assert cert2 is not None and cert2.antipode
    assert (cert2.table, cert2.case, cert2.hodge_type) == ("ep-A", 3, "elliptic")
    triples = [c for c in cert2.clusters.a_clusters
               if sum(r.multiplicity for r in c) == 3]
    assert len(triples) == 1
    assert cert2.special_trace == triples[0][1]
    st2 = special_trace_by_local_index(cert2.clusters, "A", cert2.renormalized)
    assert st2 == cert2.special_trace


def test_minB_row_certificate():
    Phi = ctp([3, 6, 10, 21])
    phi, psi = pair_from_trace(Phi, lehmer_nf(3), "even")
    cert = k3_certificate(phi, psi, "B")
    assert cert is not None
    assert cert.case == 2 and cert.special_trace == lehmer_xs()[0]
    assert cert.chi0 == lehmer() and cert.rho == 12


def test_renormalized_signature_is_3_19():
    from hyperk3.hyplattice import build_lattice, signature_oracle

    Phi = CT(1) ** 3 * ctp([3, 4, 6, 16])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "B")
    lat = build_lattice(phi, psi)
    assert signature_oracle(lat.gram_a) == (19, 3)
    assert cert.renormalized
    negated = [[-x for x in row] for row in lat.gram_a]
    assert signature_oracle(negated) == (3, 19)


def _r7_candidates():
    from hyperk3.search import _qualifying

    return _qualifying(salem_trace_deg11(7), 10, "one_multiple_le3")


def test_side_b_antipode_skip_loses_nothing():
    """Where side B skips the antipode, the antipode evaluated in full is rejected too."""
    from hyperk3.k3class import _match_side

    R = salem_trace_deg11(7)
    skipped = 0
    for ms in _r7_candidates():
        phi, psi = pair_from_trace(ctp(ms), R, "even")
        tc = compute_trace_clusters(*trace_polynomial_pair(phi, psi))
        ph, ps = antipode_pair(phi, psi)
        PhiM, PsiM = trace_polynomial_pair(ph, ps)
        tcm = compute_trace_clusters(PhiM, PsiM)
        # the antipode negates the roots: above 2 and below -2 trade places
        assert (tcm.b_gt2, tcm.b_lt2, tcm.b_off_total) == (tc.b_lt2, tc.b_gt2, tc.b_off_total)
        assert (tcm.a_gt2, tcm.a_lt2, tcm.a_off_total) == (tc.a_lt2, tc.a_gt2, tc.a_off_total)
        if tc.b_lt2 == 1 and tc.b_off_total == 1:
            continue
        skipped += 1
        if tcm.no_clusters:
            assert tc.no_clusters
        else:
            assert isinstance(_match_side(tcm, PhiM, PsiM, "B"), str)
    assert skipped > 200


def test_scan_computes_clusters_once_per_candidate(monkeypatch):
    """Once per candidate that survives the gap-vector pruning."""
    from hyperk3 import k3class
    from hyperk3.search import _side_b_candidates, scan_deg22

    calls = []
    real = k3class.compute_trace_clusters

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(k3class, "compute_trace_clusters", counting)
    entries = scan_deg22(7, jobs=1)
    assert entries
    assert len(calls) == len(_side_b_candidates(salem_trace_deg11(7))) < len(_r7_candidates())


def test_local_index_special_trace_compares_no_two_roots(monkeypatch):
    """On every matched R7 candidate, either side, special_trace_by_local_index makes no
    AlgebraicReal.compare call against another AlgebraicReal: the merge order gives
    every local index by position."""
    from hyperk3.polyring.roots import AlgebraicReal

    R = salem_trace_deg11(7)
    certs = [cert for ms in _r7_candidates() for side in ("B", "A")
             if (cert := trace_certificate_explain(ctp(ms), R, side)[0]) is not None]
    assert len(certs) > 20 and {c.side for c in certs} == {"A", "B"}
    between_roots = []
    real_compare = AlgebraicReal.compare

    def counting_compare(self, other):
        if isinstance(other, AlgebraicReal):
            between_roots.append(1)
        return real_compare(self, other)

    monkeypatch.setattr(AlgebraicReal, "compare", counting_compare)
    for cert in certs:
        st = special_trace_by_local_index(cert.clusters, cert.side, cert.renormalized)
        assert st is cert.special_trace
    assert not between_roots


def _lehmer_a_pairs():
    """(Phi, Psi) of every lehmerA scan candidate, generated as the scan does."""
    from hyperk3.search import _qualifying

    return [(lehmer_trace() * ctp(ks), salem_trace_deg11(i)) for i in range(1, 11)
            if abs(resultant(lehmer_trace(), salem_trace_deg11(i))) == 1
            for ks in _qualifying(salem_trace_deg11(i), 5, "sets_only")]


def _old_antipode_pair(phi, psi):
    """Reference: the z-level antipode as written before it moved to the trace level."""
    n = phi.degree

    def flip(f):
        return IntPoly(tuple((-1) ** (n + i) * c for i, c in enumerate(f.coeffs)))

    return flip(phi), flip(psi)


def _old_k3_certificate_explain(phi, psi, side):
    """Reference: the z-level certificate loop that halved every attempt again.

    The antipode is taken on (phi, psi) and each attempt recomputes its trace
    pair with trace_polynomial_pair; the cross-checks are left to the code
    under test.
    """
    from hyperk3.hyplattice import is_unimodular
    from hyperk3.k3class import K3Certificate, _locate_st, _match_side

    if not is_unimodular(phi, psi):
        return None, "lattice is not unimodular"
    reason = "no matching configuration"
    for antipode in (False, True):
        if antipode and side == "B" and not (tc.b_lt2 == 1 and tc.b_off_total == 1):
            break
        ph, ps = (phi, psi) if not antipode else _old_antipode_pair(phi, psi)
        Phi, Psi = trace_polynomial_pair(ph, ps)
        tc = compute_trace_clusters(Phi, Psi, "even")
        if tc.no_clusters:
            reason = "Psi has no roots on [-2, 2]"
            continue
        found = _match_side(tc, Phi, Psi, side)
        if isinstance(found, str):
            if not antipode:
                reason = found
            continue
        table, case, st_rule, hodge_type = found
        st = _locate_st(tc, st_rule)
        split = chi_factorization(ph if side == "A" else ps, st)
        return K3Certificate(
            side=side, table=table, case=case, hodge_type=hodge_type,
            special_trace=st, renormalized=index(tc).p_minus_q == 16, antipode=antipode,
            chi0=split.chi0, chi1=split.chi1, rho=split.rho, projective=split.projective,
            phi=ph, psi=ps, Phi=Phi, Psi=Psi, clusters=tc,
        ), None
    return None, reason


def test_trace_core_matches_z_entry_and_old_loop():
    """On every R7 deg22 and lehmerA candidate: equal certificates, field by field, or equal reasons.

    R7 is tried on both sides, so the antipode attempt runs on side A as well.
    """
    R = salem_trace_deg11(7)
    lehmer_a = _lehmer_a_pairs()
    cases = [(ctp(ms), R, side) for ms in _r7_candidates() for side in ("B", "A")]
    cases += [(Phi, Psi, "A") for Phi, Psi in lehmer_a]
    certified, antipoded = 0, 0
    for Phi, Psi, side in cases:
        got = trace_certificate_explain(Phi, Psi, side)
        phi, psi = pair_from_trace(Phi, Psi, "even")
        assert k3_certificate_explain(phi, psi, side) == got
        assert _old_k3_certificate_explain(phi, psi, side) == got
        cert = got[0]
        if cert is not None:
            certified += 1
            antipoded += cert.antipode
            assert (cert.Phi, cert.Psi) == trace_polynomial_pair(cert.phi, cert.psi)
    assert len(cases) == 2 * 272 + len(lehmer_a)
    assert certified > 20 and antipoded > 0


def test_trace_core_guards_its_precondition():
    R1 = salem_trace_deg11(1)
    with pytest.raises(ValueError):  # |Res(CT_5 CT_7 CT_11, R_1)| != 1
        trace_certificate_explain(ctp([5, 7, 11]), R1, "B")
    with pytest.raises(ValueError):  # Res(W^10, W^11 + 1) = 1 but Psi(2) = 2049
        trace_certificate_explain(W ** 10, W ** 11 + 1, "B")
    for Phi, Psi in ((ctp([5, 7]), R1), (CT(1) ** 3 * ctp([3, 4, 6, 16]), R1 * W),
                     (IntPoly.one(), W + 3)):
        with pytest.raises(ValueError):
            trace_certificate_explain(Phi, Psi, "B")
    with pytest.raises(ValueError):
        trace_certificate_explain(CT(1) ** 3 * ctp([3, 4, 6, 16]), R1, "C")
    assert trace_certificate_explain(CT(1) ** 3 * ctp([3, 4, 6, 16]), R1, "B")[0] is not None


def test_antipode_commutes_with_the_trace_transform():
    """antipode_pair on (Phi, Psi) is the trace pair of antipode_pair on (phi, psi).

    Checked on the R7 candidates and on seeded random pairs of even rank 2..24,
    where the z-level map is also checked against its old formula.
    """
    rng = random.Random(2026)
    pairs = [(ctp(ms), salem_trace_deg11(7)) for ms in _r7_candidates()]
    for N in range(1, 13):
        for _ in range(8):
            pairs.append((IntPoly([rng.randint(-9, 9) for _ in range(N - 1)] + [1]),
                          IntPoly([rng.randint(-9, 9) for _ in range(N)] + [1])))
    for Phi, Psi in pairs:
        phi, psi = pair_from_trace(Phi, Psi, "even")
        assert antipode_pair(phi, psi) == _old_antipode_pair(phi, psi)
        assert antipode_pair(Phi, Psi) == trace_polynomial_pair(*antipode_pair(phi, psi))
