"""Trace clusters, index formulas and local indices, against the LDL oracle."""

import random

import pytest

from hyperk3.clusters import (
    _local_indices,
    circle_patterns,
    cluster_group_indices,
    compute_trace_clusters,
    endpoint_index,
    epsilon_sign,
    index,
    local_index,
    lorentz_classify,
    match_lorentz_patterns,
)
from hyperk3.hyplattice import build_lattice, signature_oracle
from hyperk3.polyring import (
    IntPoly,
    cyclotomic_trace,
    isolate_real_roots,
    lehmer_trace,
    pair_from_trace,
    resultant,
    salem_trace_deg11,
)
from hyperk3.polyring.roots import AlgebraicReal, split_resultant

ONE = IntPoly.one()


def random_trace_pair(rng, max_half_rank=6, parity="even"):
    while True:
        nh = rng.randint(1, max_half_rank)
        da = nh - 1 if parity == "even" else nh
        Phi = IntPoly([rng.randint(-3, 3) for _ in range(da)] + [1])
        Psi = IntPoly([rng.randint(-3, 3) for _ in range(nh)] + [1])
        phi, psi = pair_from_trace(Phi, Psi, parity)
        if resultant(phi, psi) != 0:
            return Phi, Psi, phi, psi


def ct_product(ks):
    out = ONE
    for k in ks:
        out = out * cyclotomic_trace(k)
    return out


def test_single_root_cluster():
    tc = compute_trace_clusters(ONE, IntPoly((1, 1)))
    assert tc.s == 1
    assert tc.cluster_sizes("A") == [0, 0]
    assert tc.cluster_sizes("B") == [1]
    assert epsilon_sign(tc) == 1
    assert index(tc).p_minus_q == 2


def test_no_cluster_marker():
    # Psi = w^2 - 9 has no roots on [-2, 2]
    tc = compute_trace_clusters(IntPoly((0, 1)), IntPoly((-9, 0, 1)))
    assert tc.no_clusters
    assert index(tc).p_minus_q == 0
    with pytest.raises(ValueError):
        epsilon_sign(tc)


def test_shared_root_rejected():
    with pytest.raises(ValueError, match="share"):
        compute_trace_clusters(IntPoly((-1, 1)), IntPoly((-1, 1)) * IntPoly((1, 1)))


def test_worked_example_pattern():
    """Phi = LT * CT3 CT4 CT6 CT8, Psi = R3: [A_on] = 0^2 1^7 2^1, [B_on] = 1^8 2^1."""
    Phi = lehmer_trace() * ct_product([3, 4, 6, 8])
    tc = compute_trace_clusters(Phi, salem_trace_deg11(3))
    assert tc.s == 9
    assert tc.pattern("A") == {0: 2, 1: 7, 2: 1}
    assert tc.pattern("B") == {1: 8, 2: 1}
    assert tc.signature_string("A") == "0^2 1^7 2^1"
    assert tc.a_gt2 == 1 and tc.b_gt2 == 1
    # the doubles sit adjacent: A cluster 8 above B cluster 8
    a_sizes = tc.cluster_sizes("A")
    b_sizes = tc.cluster_sizes("B")
    ia = a_sizes.index(2)
    ib = b_sizes.index(2)
    assert ia == ib or ia == ib + 1


def test_case1_pattern_deg22():
    """Phi = CT_k for k = {1,1,1,3,4,6,16}, Psi = R1: case-1 shape of the B tables."""
    Phi = cyclotomic_trace(1) ** 3 * ct_product([3, 4, 6, 16])
    tc = compute_trace_clusters(Phi, salem_trace_deg11(1))
    assert tc.s == 8
    assert tc.pattern_a_in() == {1: 7}
    assert tc.pattern("B") == {1: 7, 3: 1}
    assert tc.b_gt2 == 1
    assert tc.mult_at_2 == 3


def test_index_matches_ldl_oracle_200():
    rng = random.Random(424242)
    zero_seen = 0
    for _ in range(200):
        Phi, Psi, phi, psi = random_trace_pair(rng)
        lat = build_lattice(phi, psi)
        tc = compute_trace_clusters(Phi, Psi, "even")
        data = index(tc)
        p, q = signature_oracle(lat.gram_a)
        assert data.p_minus_q == p - q, (Phi.coeffs, Psi.coeffs)
        if tc.no_clusters:
            zero_seen += 1
    assert zero_seen >= 1  # the empty-B_on zero case occurred


def test_index_matches_ldl_oracle_odd_rank():
    rng = random.Random(8)
    for _ in range(60):
        Phi, Psi, phi, psi = random_trace_pair(rng, 4, parity="odd")
        lat = build_lattice(phi, psi)
        tc = compute_trace_clusters(Phi, Psi, "odd")
        data = index(tc)
        p, q = signature_oracle(lat.gram_a)
        assert data.p_minus_q == p - q


def test_local_indices_sum_to_index():
    rng = random.Random(99)
    checked = 0
    for _ in range(60):
        Phi, Psi, phi, psi = random_trace_pair(rng, 5)
        tc = compute_trace_clusters(Phi, Psi)
        if tc.no_clusters:
            continue
        data = index(tc)
        # sum over distinct B_on elements equals (p-q)/2
        seen = []
        total_b = 0
        for r in tc.b_on_roots:
            total_b += local_index(tc, r)
        assert total_b == data.p_minus_q // 2
        # A-side decomposition: eps = idx(1) + 2 Idx(A1 interior)
        cg = cluster_group_indices(tc, phi.degree)
        a1_interior = sum(local_index(tc, r) for r in tc.a_clusters[0] if not r == 2)
        assert cg.idx_a1_interior == a1_interior
        assert data.epsilon == cg.idx_plus1 + 2 * cg.idx_a1_interior
        a_in_sum = sum(local_index(tc, r)
                       for c in tc.a_clusters[1:tc.s] for r in c)
        assert a_in_sum == cg.idx_a_in
        checked += 1
    assert checked > 20


def test_endpoint_index_formulas():
    rng = random.Random(1234)
    for _ in range(40):
        Phi, Psi, phi, psi = random_trace_pair(rng, 4)
        tc = compute_trace_clusters(Phi, Psi)
        if tc.no_clusters:
            continue
        cg = cluster_group_indices(tc, phi.degree)
        assert endpoint_index(tc, 2, phi.degree) == cg.idx_plus1
        assert endpoint_index(tc, -2, phi.degree) == cg.idx_minus1


def test_reflection_symmetry():
    """Reversing the interior cluster word flips S and 1 + delta - 2S by delta.

    The reversal is realized by w -> -w on both trace polynomials.  That
    mirror keeps the invariant form (it is the antipode), so p - q itself is
    unchanged and eps absorbs the delta factor; the word-level statement is
    S -> delta S and (1 + delta - 2 S) -> delta (1 + delta - 2 S).
    """
    rng = random.Random(321)
    checked = 0
    for _ in range(80):
        Phi, Psi, phi, psi = random_trace_pair(rng, 5)
        tc = compute_trace_clusters(Phi, Psi)
        if tc.no_clusters:
            continue
        data = index(tc)
        tcm = compute_trace_clusters(_mirror(Phi), _mirror(Psi))
        datam = index(tcm)
        assert datam.delta == data.delta
        assert datam.S == data.delta * data.S
        word = 1 + data.delta - 2 * data.S
        word_m = 1 + datam.delta - 2 * datam.S
        assert word_m == data.delta * word
        # the antipode keeps the form, so the index itself is unchanged
        assert datam.p_minus_q == data.p_minus_q
        assert datam.epsilon == data.delta * data.epsilon
        checked += 1
    assert checked > 30


def _mirror(F):
    neg = IntPoly(tuple(-c if i % 2 else c for i, c in enumerate(F.coeffs)))
    return neg if neg.is_monic() else -neg


def test_definiteness_criterion():
    rng = random.Random(555)
    seen_definite = 0
    for _ in range(150):
        Phi, Psi, phi, psi = random_trace_pair(rng, 3)
        tc = compute_trace_clusters(Phi, Psi)
        data = index(tc)
        n = phi.degree
        definite = abs(data.p_minus_q) == n
        if tc.no_clusters:
            assert not definite
            continue
        a_sizes, b_sizes = circle_patterns(tc)
        pattern_definite = (all(v == 1 for v in a_sizes) and all(v == 1 for v in b_sizes)
                            and tc.a_off_total == 0 and tc.b_off_total == 0)
        assert definite == pattern_definite
        seen_definite += definite
    assert seen_definite > 0


def test_lorentz_matcher_rows():
    # synthetic circle-level patterns, n = 6
    assert match_lorentz_patterns([1, 1, 1, 1, 2], [1, 2, 1, 1, 1], 0, 0, True) == 1
    assert match_lorentz_patterns([1, 1, 1, 1, 2], [1, 2, 1, 1, 1], 0, 0, False) is None
    assert match_lorentz_patterns([1, 1, 1, 3], [3, 1, 1, 1], 0, 0, False) == 2
    assert match_lorentz_patterns([1, 1, 1, 3], [1, 1, 1, 1], 0, 2, False) == 3
    assert match_lorentz_patterns([1, 1, 1, 1], [1, 1, 1, 3], 2, 0, False) == 4
    assert match_lorentz_patterns([1, 1, 1, 1], [1, 1, 1, 1], 2, 2, False) == 5
    # definite pattern: not Lorentzian
    assert match_lorentz_patterns([1] * 6, [1] * 6, 0, 0, False) is None


def test_lorentz_classify_on_lattices():
    """Any Lorentzian random lattice must land in a table row; others give None."""
    rng = random.Random(9090)
    hits = 0
    for _ in range(200):
        Phi, Psi, phi, psi = random_trace_pair(rng, 4)
        tc = compute_trace_clusters(Phi, Psi)
        typ = lorentz_classify(tc, phi.degree)
        data = index(tc)
        if tc.no_clusters:
            # rank 2 with empty B_on is Lorentzian but has no cluster word
            assert typ is None
        elif abs(data.p_minus_q) == phi.degree - 2:
            assert typ in (1, 2, 3, 4, 5), (Phi.coeffs, Psi.coeffs)
            hits += 1
        else:
            assert typ is None
    assert hits > 0


# --- rank ordering against the exact merge ---------------------------------------


def _old_split(poly, at):
    """Reference: the old split at +-2 of isolate_real_roots(poly), by exact comparison."""
    on, gt2, below = [], 0, 0
    for r in isolate_real_roots(poly) if poly.degree >= 1 else []:
        c2 = r.compare(2)
        if c2 > 0:
            gt2 += r.multiplicity
            continue
        c_neg2 = r.compare(-2)
        if c_neg2 < 0:
            below += r.multiplicity
            continue
        on.append(r)
        if c2 == 0:
            at[2] += r.multiplicity
        elif c_neg2 == 0:
            at[-2] += r.multiplicity
    return on, gt2, below, max(poly.degree, 0) - sum(r.multiplicity for r in on)


def _old_compute_trace_clusters(Phi, Psi, rank_parity="even", split=_old_split):
    """Reference: the split at +-2 and the merge by exact comparison, as before rank keys."""
    from functools import cmp_to_key

    from hyperk3.clusters import TraceClusters

    at = {2: 0, -2: 0}
    a_on, a_gt2, a_lt2, a_off = split(Phi, at)
    b_on, b_gt2, b_lt2, b_off = split(Psi, at)
    if not b_on and rank_parity == "even":
        return TraceClusters(None, (), (), a_gt2, b_gt2, a_lt2, b_lt2, a_off, b_off,
                             rank_parity, at[2], at[-2], tuple(a_on), tuple(b_on))
    merged = sorted([("A", r) for r in a_on] + [("B", r) for r in b_on],
                    key=cmp_to_key(lambda x, y: y[1].compare(x[1])))
    a_clusters, b_clusters, side_now = [()], [], "A"
    for side, r in merged:
        if side == side_now:
            idx = a_clusters if side == "A" else b_clusters
            idx[-1] = idx[-1] + (r,)
        else:
            (b_clusters if side == "B" else a_clusters).append((r,))
            side_now = side
    if rank_parity == "even":
        if side_now == "B":
            a_clusters.append(())
    elif side_now == "A" or not b_clusters:
        b_clusters.append(())
    return TraceClusters(len(b_clusters), tuple(a_clusters), tuple(b_clusters), a_gt2, b_gt2,
                         a_lt2, b_lt2, a_off, b_off, rank_parity, at[2], at[-2],
                         tuple(a_on), tuple(b_on))


def _same_roots(xs, ys):
    """Equal values in the same order; equal intervals (one isolation) settle it at once."""
    return len(xs) == len(ys) and all(
        x.multiplicity == y.multiplicity and (x.interval == y.interval or x == y)
        for x, y in zip(xs, ys))


def _assert_clusters_match_old(Phi, Psi, parity="even", split=_old_split):
    new = compute_trace_clusters(Phi, Psi, parity)
    old = _old_compute_trace_clusters(Phi, Psi, parity, split)
    fields = ("s", "a_gt2", "b_gt2", "a_lt2", "b_lt2", "a_off_total", "b_off_total",
              "mult_at_2", "mult_at_neg2")
    assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields], (Phi, Psi)
    for side in ("A", "B"):
        assert new.cluster_sizes(side) == old.cluster_sizes(side), (Phi, Psi)
    # with the sizes, the on-interval roots in order fix every cluster's roots
    for got, want in ((new.a_on_roots, old.a_on_roots), (new.b_on_roots, old.b_on_roots)):
        assert _same_roots(got, want), (Phi, Psi)


def _deg22_pairs(indices=range(1, 11)):
    """(Phi, Psi) of every deg22 scan candidate with Psi = R_i, i in indices."""
    from hyperk3.search import _qualifying
    from hyperk3.search import ct_product as scan_product

    return [(scan_product(ms), salem_trace_deg11(i)) for i in indices
            for ms in _qualifying(salem_trace_deg11(i), 10, "one_multiple_le3")]


def _lehmer_a_pairs():
    """(Phi, Psi) of every lehmerA scan candidate."""
    from hyperk3.search import _qualifying
    from hyperk3.search import ct_product as scan_product

    R = {i: salem_trace_deg11(i) for i in range(1, 11)}
    return [(lehmer_trace() * scan_product(ks), R[i]) for i in R
            if abs(resultant(lehmer_trace(), R[i])) == 1
            for ks in _qualifying(R[i], 5, "sets_only")]


def _scan_pairs():
    """(Phi, Psi) of every deg22 (R_1..R_10), lehmerA and lehmerB scan candidate."""
    from hyperk3.polyring import lehmer_nf
    from hyperk3.search import _qualifying
    from hyperk3.search import ct_product as scan_product

    pairs = _deg22_pairs() + _lehmer_a_pairs()
    pairs += [(scan_product(ms), lehmer_nf(i)) for i in range(1, 9)
              for ms in _qualifying(lehmer_nf(i), 10, "one_multiple_le3")]
    return pairs


def test_rank_clusters_match_exact_merge_on_scan_candidates():
    """Every scan candidate and its antipode: the rank keys give the exact merge's clusters,
    and the catalog split gives the exact resultant and Yun's parts up to sign."""
    from hyperk3.k3class import antipode_pair
    from hyperk3.polyring import squarefree_decomposition
    from hyperk3.polyring.roots import split_squarefree

    def positive(parts):
        return tuple((p if p.leading() > 0 else -p, m) for p, m in parts)

    splits = {}  # the old split depends on the polynomial only: one per polynomial

    def split_once(poly, at):
        if poly.coeffs not in splits:
            counts = {2: 0, -2: 0}
            splits[poly.coeffs] = _old_split(poly, counts), counts
        (on, gt2, below, off), counts = splits[poly.coeffs]
        at[2], at[-2] = at[2] + counts[2], at[-2] + counts[-2]
        return list(on), gt2, below, off

    pairs = _scan_pairs()
    assert len(pairs) > 9000
    seen = set()
    for pair in pairs:
        for Phi, Psi in (pair, antipode_pair(*pair)):
            _assert_clusters_match_old(Phi, Psi, split=split_once)
            assert split_resultant(Phi, Psi) == resultant(Phi, Psi)
            for f in (Phi, Psi):
                if f.coeffs not in seen:
                    seen.add(f.coeffs)
                    assert split_squarefree(f) == positive(squarefree_decomposition(f)), f


def test_rank_clusters_match_exact_merge_with_residual_roots():
    """Pairs whose residual roots share slots, where exact comparison breaks the ties."""
    rng = random.Random(77)
    for _ in range(150):
        Phi, Psi, _phi, _psi = random_trace_pair(rng, 6)
        _assert_clusters_match_old(Phi, Psi)
    for _ in range(60):
        Phi, Psi, _phi, _psi = random_trace_pair(rng, 4, parity="odd")
        _assert_clusters_match_old(Phi, Psi, "odd")
    # residual factors beside catalog factors, on both sides of the pair; the roots
    # +-sqrt(5/2), +-sqrt(2.501), +-sqrt(2.499) share two slots, as do +-sqrt(7/3), +-sqrt(7.01/3)
    sqrt2, golden = IntPoly((-2, 0, 1)), IntPoly((-1, -1, 1))
    s5, s5_up, s5_down = IntPoly((-5, 0, 2)), IntPoly((-2501, 0, 1000)), IntPoly((-2499, 0, 1000))
    s7, s7_up = IntPoly((-7, 0, 3)), IntPoly((-701, 0, 300))
    cases = [(ct_product([1, 8]) * sqrt2, IntPoly((-3, 0, 1)) * cyclotomic_trace(5)),
             (golden * ct_product([2, 3]), lehmer_trace() * sqrt2 * IntPoly((1, 1, -1, 1))),
             (sqrt2 * IntPoly((-2, 0, 0, 1)), golden * IntPoly((-7, 0, 4)) * cyclotomic_trace(7)),
             (s5, s5_up), (s5, s5_down), (s5 * s7 * cyclotomic_trace(5), s5_up * s7_up),
             (s5_up * s7, s5 * s5_down * s7_up * IntPoly((-3, 1)))]
    for Phi, Psi in cases:
        assert resultant(Phi, Psi) != 0
        _assert_clusters_match_old(Phi, Psi)
        _assert_clusters_match_old(Psi, Phi)


# --- local indices by position against the old exact comparisons ------------------


def _old_rho(tc, tau):
    """Reference: _rho before local indices came by position, with exact comparisons.

    The real roots of Phi*Psi above tau with multiplicity; the integer 2 counts those >= 2.
    """
    on = list(tc.a_on_roots) + list(tc.b_on_roots)
    if isinstance(tau, AlgebraicReal) or tau != 2:
        count = sum(r.multiplicity for r in on if r > tau)
    else:
        count = sum(r.multiplicity for r in on if r >= 2)
    return count + tc.a_gt2 + tc.b_gt2


def _old_local_index(tc, tau):
    """Reference: local_index before local indices came by position."""
    in_a = any(r == tau for r in tc.a_on_roots)
    in_b = any(r == tau for r in tc.b_on_roots)
    if not in_a and not in_b:
        raise ValueError("tau is not an on-interval root of Phi or Psi")
    mult = sum(r.multiplicity for r in (tc.a_on_roots if in_a else tc.b_on_roots) if r == tau)
    if mult % 2 == 0:
        return 0
    rho = _old_rho(tc, tau)
    return (-1) ** (rho + 1) if in_a else (-1) ** rho


def _old_endpoint_index(tc, at, rank):
    """Reference: endpoint_index before it read the stored counts."""
    if at == 2:
        return (-1) ** _old_rho(tc, 2)
    if at == -2:
        return (-1) ** (_old_rho(tc, -2) + rank + 1)
    raise ValueError("endpoint must be +2 or -2")


def _assert_local_indices_match_old(tc, rank):
    """The walk visits every on-interval root once, decreasing, on its side, and gives
    the old local index; local_index and endpoint_index agree with the old ones."""
    walk = list(_local_indices(tc))
    assert sorted(id(r) for r, _s, _i in walk) == sorted(map(id, tc.a_on_roots + tc.b_on_roots))
    assert all(x[0] > y[0] for x, y in zip(walk, walk[1:]))
    for r, side, idx in walk:
        assert any(x is r for x in (tc.a_on_roots if side == "A" else tc.b_on_roots))
        assert idx == local_index(tc, r) == _old_local_index(tc, r)
    for at in (2, -2):
        assert endpoint_index(tc, at, rank) == _old_endpoint_index(tc, at, rank)


def test_local_indices_match_old_on_scan_candidates():
    """Every on-interval root of every R7 deg22 and lehmerA candidate and its antipode."""
    from hyperk3.k3class import antipode_pair

    pairs = _deg22_pairs([7]) + _lehmer_a_pairs()
    assert len(pairs) > 272
    for pair in pairs:
        for Phi, Psi in (pair, antipode_pair(*pair)):
            _assert_local_indices_match_old(compute_trace_clusters(Phi, Psi), 22)


def _random_special_pair(rng, parity):
    """A coprime random (Phi, Psi) of the degrees of the rank parity, with factors
    among (w - 2), (w + 2), catalog and residual quadratics, some repeated."""
    special = [IntPoly((-2, 1)), IntPoly((2, 1)), cyclotomic_trace(5), IntPoly((-3, 0, 1)),
               IntPoly((-5, 0, 2)), IntPoly((-3, -1, 1))]
    while True:
        parts = [[rng.choice(special) ** rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
                 for _side in "AB"]
        da, db = (sum(p.degree for p in side) for side in parts)
        low = max(da + (parity == "even"), db, 1)
        nh = rng.randint(low, max(low, 7))
        free = (nh - (parity == "even") - da, nh - db)
        Phi, Psi = (IntPoly([rng.randint(-3, 3) for _ in range(n)] + [1]) for n in free)
        for p in parts[0]:
            Phi = Phi * p
        for p in parts[1]:
            Psi = Psi * p
        if resultant(Phi, Psi) != 0:
            return Phi, Psi


def test_local_indices_match_old_on_random_pairs():
    """Seeded random pairs of both parities, with roots at +-2, even multiplicities and
    the no-clusters marker among them."""
    rng = random.Random(1010)
    seen = dict.fromkeys(("at_2", "at_neg2", "even_mult", "no_clusters", "odd"), 0)
    for n in range(240):
        parity = "odd" if n % 3 == 0 else "even"
        Phi, Psi = _random_special_pair(rng, parity)
        tc = compute_trace_clusters(Phi, Psi, parity)
        rank = 2 * Psi.degree + (parity == "odd")
        _assert_local_indices_match_old(tc, rank)
        seen["at_2"] += tc.mult_at_2 > 0
        seen["at_neg2"] += tc.mult_at_neg2 > 0
        seen["even_mult"] += any(r.multiplicity % 2 == 0 for r in tc.a_on_roots + tc.b_on_roots)
        seen["no_clusters"] += tc.no_clusters
        seen["odd"] += parity == "odd"
    assert min(seen.values()) >= 5, seen
