"""K3 lattice certificates for hypergeometric pairs of rank 22.

Decides when the lattice of a unimodular pair (phi, psi) is a K3 lattice on
which the companion matrix A (or B) acts as a positive Hodge isometry; finds
the special trace, the Hodge type, and the chi = chi0 * chi1 factorization
with the Picard number.

Two independent determination paths are implemented and cross-asserted on
every certificate: the cluster-pattern tables, and the uniqueness of the
on-interval root with K3-normalized local index +1.  The second is one pass
over the roots in the clusters' merge order, which gives every local index
by position, with no comparison between roots.
Outside input enters at ``k3_certificate_explain`` (full ``is_unimodular``);
the scans, unimodular by ``search._qualifying``, at ``trace_certificate_explain``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clusters import (
    TraceClusters,
    _local_indices,
    compute_trace_clusters,
    endpoint_index,
    index,
)
from .hyplattice import is_unimodular
from .polyring import (
    IntPoly,
    classify_product,
    is_unramified,
    pair_from_trace,
    trace_poly,
    trace_polynomial_pair,
)
from .polyring.roots import AlgebraicReal, ranked_roots, root_index, split_resultant, split_squarefree

RANK = 22


# ---------------------------------------------------------------------------
# condition tables
# ---------------------------------------------------------------------------

# each row: (case, s, pattern, b_pattern, extras..., constraints, st_rule)
# constraints: tuples ("size", side, index_1based, size) or ("adjacent",)
# st rules: ("middle_tc", side) | ("inner_ap", side) | ("min"/"max"/"element", side, idx)

_EP_A = (
    (1, 8, {0: 1, 1: 7, 3: 1}, {1: 8}, "non-null", 3, (), ("middle_tc", "A")),
    (2, 8, {0: 1, 1: 7, 3: 1}, {1: 7, 3: 1}, "non-null", 1, (), ("middle_tc", "A")),
    (3, 9, {0: 2, 1: 7, 3: 1}, {1: 8, 2: 1}, "null", 1, (("size", "B", 1, 2),), ("middle_tc", "A")),
    (4, 8, {1: 8, 2: 1}, {1: 8}, "non-null", 3, (("size", "A", 9, 2),), ("min", "A", 9)),
    (5, 8, {1: 8, 2: 1}, {1: 7, 3: 1}, "non-null", 1, (("size", "A", 9, 2),), ("min", "A", 9)),
    (6, 9, {0: 1, 1: 8, 2: 1}, {1: 8, 2: 1}, "non-null", 1, (("adjacent", "on"),), ("inner_ap", "A")),
    (7, 9, {0: 1, 1: 8, 2: 1}, {1: 8, 2: 1}, "null", 1,
     (("size", "A", 10, 2), ("size", "B", 1, 2)), ("min", "A", 10)),
    (8, 10, {0: 2, 1: 8, 2: 1}, {1: 10}, "null", 1, (("size", "A", 2, 2),), ("max", "A", 2)),
    (9, 9, {1: 10}, {1: 8, 2: 1}, "non-null", 1, (("size", "B", 9, 2),), ("element", "A", 10)),
)

_HYP_A = (
    (1, 8, {0: 2, 1: 6, 3: 1}, {1: 8}, 3, (), ("middle_tc", "A")),
    (2, 8, {0: 2, 1: 6, 3: 1}, {1: 7, 3: 1}, 1, (), ("middle_tc", "A")),
    (3, 8, {0: 1, 1: 7, 2: 1}, {1: 8}, 3, (("size", "A", 1, 2),), ("max", "A", 1)),
    (4, 8, {0: 1, 1: 7, 2: 1}, {1: 8}, 3, (("size", "A", 9, 2),), ("min", "A", 9)),
    (5, 8, {0: 1, 1: 7, 2: 1}, {1: 7, 3: 1}, 1, (("size", "A", 1, 2),), ("max", "A", 1)),
    (6, 8, {0: 1, 1: 7, 2: 1}, {1: 7, 3: 1}, 1, (("size", "A", 9, 2),), ("min", "A", 9)),
    (7, 9, {0: 2, 1: 7, 2: 1}, {1: 8, 2: 1}, 1, (("adjacent", "on"),), ("inner_ap", "A")),
    (8, 9, {0: 1, 1: 9}, {1: 8, 2: 1}, 1,
     (("size", "A", 1, 1), ("size", "B", 1, 2)), ("element", "A", 1)),
    (9, 9, {0: 1, 1: 9}, {1: 8, 2: 1}, 1,
     (("size", "A", 10, 1), ("size", "B", 9, 2)), ("element", "A", 10)),
)

_HYP_B = (
    (1, 8, {1: 7}, {1: 7, 3: 1}, 7, (), ("middle_tc", "B")),
    (2, 8, {1: 6, 3: 1}, {1: 7, 3: 1}, 9, (), ("middle_tc", "B")),
    (3, 9, {1: 7, 2: 1}, {1: 8, 2: 1}, 9, (("adjacent", "in"),), ("inner_ap", "B")),
    (4, 9, {1: 8}, {1: 8, 2: 1}, 8, (("size", "B", 1, 2),), ("max", "B", 1)),
    (5, 9, {1: 8}, {1: 8, 2: 1}, 8, (("size", "B", 9, 2),), ("min", "B", 9)),
    (6, 9, {1: 7, 3: 1}, {1: 8, 2: 1}, 10, (("size", "B", 1, 2),), ("max", "B", 1)),
    (7, 9, {1: 7, 3: 1}, {1: 8, 2: 1}, 10, (("size", "B", 9, 2),), ("min", "B", 9)),
    (8, 10, {1: 8, 2: 1}, {1: 10}, 10, (("size", "A", 2, 2),), ("element", "B", 1)),
    (9, 10, {1: 8, 2: 1}, {1: 10}, 10, (("size", "A", 10, 2),), ("element", "B", 10)),
)

# rank-22 index +-16 classification: (case, s, [A_in], [B_on], constraints, sign rule)
# sign rule: fixed +16, or ("B"/"A", index-for-plus, index-for-minus)
_CLASSIFY = (
    (1, 8, {1: 7}, {1: 8}, (), 16),
    (2, 8, {1: 6, 3: 1}, {1: 8}, (), 16),
    (3, 8, {1: 7}, {1: 7, 3: 1}, (), 16),
    (4, 8, {1: 6, 3: 1}, {1: 7, 3: 1}, (), 16),
    (5, 9, {1: 7, 2: 1}, {1: 8, 2: 1}, (("adjacent", "in"),), 16),
    (6, 9, {1: 8}, {1: 8, 2: 1}, (), ("B", 9, 1)),
    (7, 9, {1: 7, 3: 1}, {1: 8, 2: 1}, (), ("B", 9, 1)),
    (8, 10, {1: 8, 2: 1}, {1: 10}, (), ("A", 10, 2)),
)


def _check_constraint(tc: TraceClusters, constraint) -> bool:
    if constraint[0] == "adjacent":
        return _doubles_adjacent(tc, constraint[1]) is not None
    _tag, side, idx, size = constraint
    sizes = tc.cluster_sizes(side)
    return idx <= len(sizes) and sizes[idx - 1] == size


def _doubles_adjacent(tc: TraceClusters, scope: str):
    """(a_index, b_index) 1-based of the unique adjacent double pair, or None.

    scope 'on' looks for the A-double among all A clusters, scope 'in' only
    among the interior ones A_2 .. A_s.
    """
    a_sizes = tc.cluster_sizes("A")
    b_sizes = tc.cluster_sizes("B")
    if scope == "in":
        a_doubles = [i + 1 for i, v in enumerate(a_sizes) if v == 2 and 2 <= i + 1 <= tc.s]
    else:
        a_doubles = [i + 1 for i, v in enumerate(a_sizes) if v == 2]
    b_doubles = [i + 1 for i, v in enumerate(b_sizes) if v == 2]
    if len(a_doubles) != 1 or len(b_doubles) != 1:
        return None
    k, l = a_doubles[0], b_doubles[0]
    # linear order: A_k sits between B_(k-1) and B_k
    if l in (k - 1, k):
        return k, l
    return None


def classify_rank22(tc: TraceClusters):
    """Match [A_in], [B_on] and s against the index +-16 table.

    Returns (case, eps_p_minus_q) or None; eps_p_minus_q = 1 + delta - 2S,
    the index stripped of its eps factor.  No caller in the package: kept as
    the paper's table, which test_k3class checks.
    """
    if tc.no_clusters:
        return None
    pat_a_in = tc.pattern_a_in()
    pat_b = tc.pattern("B")
    for case, s, want_a, want_b, constraints, sign in _CLASSIFY:
        if tc.s != s or pat_a_in != want_a or pat_b != want_b:
            continue
        if not all(_check_constraint(tc, c) for c in constraints):
            continue
        if isinstance(sign, int):
            value = sign
        else:
            side, plus_idx, minus_idx = sign
            sizes = tc.cluster_sizes(side)
            if sizes[plus_idx - 1] == 2:
                value = 16
            elif sizes[minus_idx - 1] == 2:
                value = -16
            else:
                continue
        data = index(tc)
        if data.epsilon * data.p_minus_q != value:
            raise AssertionError("classification vs index formula")
        return case, value
    return None


# ---------------------------------------------------------------------------
# special trace location
# ---------------------------------------------------------------------------


def _cluster(tc: TraceClusters, side: str, idx: int):
    return (tc.a_clusters if side == "A" else tc.b_clusters)[idx - 1]


def _expand(cluster) -> list:
    out = []
    for r in cluster:
        out.extend([r] * r.multiplicity)
    return out  # sorted decreasing, repeats adjacent


def _locate_st(tc: TraceClusters, rule) -> AlgebraicReal:
    kind = rule[0]
    if kind == "middle_tc":
        side = rule[1]
        clusters = tc.a_clusters if side == "A" else tc.b_clusters
        triples = [c for c in clusters if sum(r.multiplicity for r in c) == 3]
        if len(triples) != 1:
            raise AssertionError("unique triple cluster expected")
        elems = _expand(triples[0])
        return elems[1]
    if kind == "inner_ap":
        side = rule[1]
        pair = _doubles_adjacent(tc, "on" if side == "A" else "in")
        if pair is None:
            raise AssertionError("adjacent double pair expected")
        k, l = pair
        a_cluster = _expand(_cluster(tc, "A", k))
        b_cluster = _expand(_cluster(tc, "B", l))
        # the inner element of the requested side is the one nearest the
        # other double; clusters are stored in decreasing order
        if l == k - 1:  # B double sits above the A double
            return a_cluster[0] if side == "A" else b_cluster[-1]
        return a_cluster[-1] if side == "A" else b_cluster[0]
    kind, side, idx = rule
    elems = _expand(_cluster(tc, side, idx))
    if kind == "min":
        return elems[-1]
    if kind == "max":
        return elems[0]
    if kind == "element":
        if len(elems) != 1:
            raise AssertionError("singleton cluster expected")
        return elems[0]
    raise ValueError(f"unknown special-trace rule {rule!r}")


def special_trace_by_local_index(tc: TraceClusters, side: str, renormalized: bool) -> AlgebraicReal:
    """The unique on-interval root with K3-normalized local index +1.

    Independent of the table pattern matching.  For side A the endpoint
    conditions (no root at -2, idx(-1) = -1 in K3 normalization) are
    asserted first; side B configurations may have roots of Phi at +-2.
    """
    flip = -1 if renormalized else 1
    if side == "A":
        if tc.mult_at_neg2 != 0:
            raise ValueError("side A requires no root at -2")
        if flip * endpoint_index(tc, -2, RANK) != -1:
            raise ValueError("side A requires idx(-1) = -1 in K3 normalization")
    hits = [r for r, s, idx in _local_indices(tc)
            if s == side and flip * idx == 1 and not (r == 2 or r == -2)]
    if len(hits) != 1:
        raise ValueError(f"expected a unique local-index +1 root, found {len(hits)}")
    return hits[0]


# ---------------------------------------------------------------------------
# chi = chi0 * chi1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiSplit:
    chi0: IntPoly
    chi1: IntPoly
    rho: int
    projective: bool


def chi_factorization(chi: IntPoly, tau: AlgebraicReal) -> ChiSplit:
    """Split off the irreducible factor whose trace polynomial vanishes at tau.

    chi0 is cyclotomic (projective case) or a Salem polynomial of degree >= 4
    (non-projective); rho = rank - deg chi0.
    """
    fl = classify_product(chi)
    hit = None
    for poly, mult, tag in fl.factors:
        if poly.degree < 2 or poly.degree % 2 != 0:
            continue
        if root_index(tau, ranked_roots(trace_poly(poly))) is not None:
            if tag[0] == "other":
                raise ValueError("special trace lies in an unrecognized factor")
            if hit is not None:
                raise AssertionError("special trace hit two factors")
            hit = (poly, mult, tag)
    if hit is None:
        raise ValueError("special trace is not a root of any factor's trace polynomial")
    chi0, mult, tag = hit
    if mult != 1:
        raise ValueError("special eigenvalue must be simple")
    chi1 = chi.divexact(chi0)
    projective = tag[0] == "cyclotomic"
    if not projective and chi0.degree < 4:
        raise AssertionError("Salem factor of degree < 4 is impossible")
    return ChiSplit(chi0, chi1, chi.degree - chi0.degree, projective)


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class K3Certificate:
    side: str
    table: str                     # 'ep-A' | 'hyp-A' | 'hyp-B'
    case: int
    hodge_type: str                # 'elliptic' | 'parabolic' | 'hyperbolic'
    special_trace: AlgebraicReal
    renormalized: bool             # hypergeometric index was +16, form negated
    antipode: bool                 # pair replaced by (phi(-z), psi(-z)) variant
    chi0: IntPoly
    chi1: IntPoly
    rho: int
    projective: bool
    phi: IntPoly                   # the (possibly antipoded) pair actually certified
    psi: IntPoly
    Phi: IntPoly
    Psi: IntPoly
    clusters: TraceClusters


def antipode_pair(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """The pair of the antipode group generated by -A and -B: h(x) -> (-1)^deg h(-x).

    Maps (phi, psi) and, as w = z + 1/z goes to -w, the trace pair (Phi, Psi) alike.
    """
    return tuple(IntPoly([(-1) ** (h.degree + i) * c for i, c in enumerate(h.coeffs)])
                 for h in (f, g))


def _all_roots_simple(f: IntPoly) -> bool:
    return all(m == 1 for _p, m in split_squarefree(f))


def _phi_multiple_root_ok(Phi: IntPoly) -> bool:
    """At most one multiple root, integral, of multiplicity 2 or 3."""
    bad = [(p, m) for p, m in split_squarefree(Phi) if m > 1]
    if not bad:
        return True
    if len(bad) > 1:
        return False
    p, m = bad[0]
    return p.degree == 1 and 2 <= m <= 3


def k3_certificate(phi: IntPoly, psi: IntPoly, side: str):
    cert, _reason = k3_certificate_explain(phi, psi, side)
    return cert


def k3_certificate_explain(phi: IntPoly, psi: IntPoly, side: str):
    """(certificate, None) on success, (None, first failed condition) otherwise.

    The entry for outside input: it checks the rank and runs the full
    ``is_unimodular`` before ``trace_certificate_explain`` does the rest.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if phi.degree != RANK or psi.degree != RANK:
        return None, f"rank {phi.degree} != {RANK}"
    if not is_unimodular(phi, psi):
        return None, "lattice is not unimodular"
    return trace_certificate_explain(*trace_polynomial_pair(phi, psi), side)


def trace_certificate_explain(Phi: IntPoly, Psi: IntPoly, side: str):
    """k3_certificate_explain's work on the trace pair (Phi, Psi) of degrees 10 and 11.

    Precondition: unimodularity, |Psi(+-2)| = |Res(Phi, Psi)| = 1, decided by
    ``is_unimodular`` for outside input and by ``search._qualifying`` for the
    scans.  A cheap guard raises ValueError on a pair that fails it; it reads
    Res(Phi, Psi) from Phi's catalog split, as clustering does.  phi, psi are
    rebuilt only on a match.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if not (Phi.degree == RANK // 2 - 1 and Psi.degree == RANK // 2
            and is_unramified(Psi) and abs(split_resultant(Phi, Psi)) == 1):
        raise ValueError("not the trace pair of a unimodular pair of rank 22")
    reason = "no matching configuration"
    for antipode in (False, True):
        # The antipode negates every root of Phi and Psi, so on side B it can
        # match only if the untwisted Psi has exactly one real root below -2
        # and no other root off [-2, 2].  Its reason is never reported.
        if antipode and side == "B" and not (tc.b_lt2 == 1 and tc.b_off_total == 1):
            break
        Ph, Ps = (Phi, Psi) if not antipode else antipode_pair(Phi, Psi)
        tc = compute_trace_clusters(Ph, Ps, "even")
        if tc.no_clusters:
            reason = "Psi has no roots on [-2, 2]"
            continue
        found = _match_side(tc, Ph, Ps, side)
        if isinstance(found, str):
            if not antipode:
                reason = found
            continue
        table, case, st_rule, hodge_type = found
        st = _locate_st(tc, st_rule)
        data = index(tc)
        if abs(data.p_minus_q) != 16:
            raise AssertionError("matched configuration must have index +-16")
        renormalized = data.p_minus_q == 16
        st2 = special_trace_by_local_index(tc, side, renormalized)
        if not st == st2:
            raise AssertionError("table and local-index special traces disagree")
        if not (-2 < st < 2):
            raise AssertionError("special trace must lie strictly inside (-2, 2)")
        phi, psi = pair_from_trace(Ph, Ps, "even")
        split = chi_factorization(phi if side == "A" else psi, st)
        if split.rho % 2 != 0 or split.rho > 20:
            raise AssertionError("Picard number must be even and <= 20")
        return K3Certificate(
            side=side, table=table, case=case, hodge_type=hodge_type,
            special_trace=st, renormalized=renormalized, antipode=antipode,
            chi0=split.chi0, chi1=split.chi1, rho=split.rho,
            projective=split.projective,
            phi=phi, psi=psi, Phi=Ph, Psi=Ps, clusters=tc,
        ), None
    return None, reason


def _match_side(tc: TraceClusters, Phi: IntPoly, Psi: IntPoly, side: str):
    """Table row matching; returns (table, case, st_rule, hodge_type) or a reason."""
    if side == "A":
        if Phi(-2) == 0:
            return "side A requires Phi(-2) != 0"
        if not _all_roots_simple(Phi):
            return "side A requires all roots of Phi simple"
        if not _all_roots_simple(Psi):
            return "side A requires all roots of Psi simple"
        pat_a = tc.pattern("A")
        pat_b = tc.pattern("B")
        a1_size = tc.cluster_sizes("A")[0]
        parabolic = Phi(2) == 0
        if tc.a_gt2 == 0 and tc.a_off_total == 0:
            for case, s, want_a, want_b, a1_flag, boff, constraints, st_rule in _EP_A:
                if tc.s != s or pat_a != want_a or pat_b != want_b:
                    continue
                if (a1_flag == "null") != (a1_size == 0):
                    continue
                if tc.b_off_total != boff:
                    continue
                if not all(_check_constraint(tc, c) for c in constraints):
                    continue
                return "ep-A", case, st_rule, ("parabolic" if parabolic else "elliptic")
        if tc.a_gt2 == 1 and tc.a_off_total == 1 and not parabolic:
            for case, s, want_a, want_b, boff, constraints, st_rule in _HYP_A:
                if tc.s != s or pat_a != want_a or pat_b != want_b:
                    continue
                if tc.b_off_total != boff:
                    continue
                if not all(_check_constraint(tc, c) for c in constraints):
                    continue
                return "hyp-A", case, st_rule, "hyperbolic"
        return "side A configuration matches no table row"
    # side B; Psi(+-2) != 0 holds, as the precondition makes Psi(+-2) = +-1
    if not _all_roots_simple(Psi):
        return "side B requires all roots of Psi simple"
    if not _phi_multiple_root_ok(Phi):
        return "side B allows at most one integer multiple root of Phi (mult 2 or 3)"
    if not (tc.b_gt2 == 1 and tc.b_off_total == 1):
        return "side B requires exactly one real root of Psi above 2"
    pat_a_in = tc.pattern_a_in()
    pat_b = tc.pattern("B")
    a_in_size = sum(tc.a_in_sizes())
    for case, s, want_a, want_b, ain, constraints, st_rule in _HYP_B:
        if tc.s != s or pat_a_in != want_a or pat_b != want_b:
            continue
        if a_in_size != ain:
            continue
        if not all(_check_constraint(tc, c) for c in constraints):
            continue
        return "hyp-B", case, st_rule, "hyperbolic"
    return "side B configuration matches no table row"
