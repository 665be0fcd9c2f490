"""Interlacing trace clusters on [-2, 2] and the exact index formulas.

The real roots of the degree-halved pair (Phi, Psi) inside [-2, 2] dissect
each other into interlacing runs

    -2 <= A_{s+1} < B_s < A_s < ... < B_1 < A_1 <= 2        (even rank)
    -2 <= B_s < A_s < ... < B_1 < A_1 <= 2                  (odd rank)

indexed from the +2 end; only the end A-clusters may be empty.  From the
cluster sizes alone one reads off the sign eps, the index p - q of the
invariant form, per-root local indices, the cluster-group index sums and
the Lorentzian classification.  Everything is exact, and nothing is
floating point: roots are ordered by the integer rank keys of
``polyring.roots`` (the catalog roots by j/k, a residual root by its slot
among them), so a pair without residual roots in a shared slot is split at
+-2 and merged without comparing algebraic numbers at all.  The local
indices come from that merge order too: walking the clusters from the +2
end, the number of roots above each root is a running count.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import zip_longest

from .polyring import IntPoly
from .polyring.roots import endpoint_keys, rank_sorted, ranked_roots, split_resultant


@dataclass(frozen=True)
class TraceClusters:
    """Cluster decomposition of the roots of Phi * Psi on [-2, 2].

    a_clusters has s+1 entries for even rank parity and s for odd; every
    entry is a tuple of AlgebraicReal sorted decreasing (cluster 0 sits
    nearest +2).  Sizes count multiplicity.  a_gt2 / b_gt2 count real roots
    in (2, inf) and a_lt2 / b_lt2 those in (-inf, -2); a_off_total /
    b_off_total count all roots off [-2, 2] including complex ones.  The
    antipode negates every root, so its gt2 counts are these lt2 counts.
    """

    s: int | None
    a_clusters: tuple
    b_clusters: tuple
    a_gt2: int
    b_gt2: int
    a_lt2: int
    b_lt2: int
    a_off_total: int
    b_off_total: int
    rank_parity: str
    mult_at_2: int
    mult_at_neg2: int
    a_on_roots: tuple
    b_on_roots: tuple

    @property
    def no_clusters(self) -> bool:
        """Even rank with empty B_on: the interlacing pattern is undefined."""
        return self.s is None

    def cluster_sizes(self, side: str) -> list[int]:
        clusters = self.a_clusters if side == "A" else self.b_clusters
        return [sum(r.multiplicity for r in c) for c in clusters]

    def pattern(self, side: str) -> dict[int, int]:
        """Multiset of cluster sizes as {size: count}: the [A_on]/[B_on] notation."""
        out: dict[int, int] = {}
        for size in self.cluster_sizes(side):
            out[size] = out.get(size, 0) + 1
        return out

    def a_in_sizes(self) -> list[int]:
        if self.no_clusters:
            return []
        return self.cluster_sizes("A")[1:self.s]

    def pattern_a_in(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for size in self.a_in_sizes():
            out[size] = out.get(size, 0) + 1
        return out

    def signature_string(self, side: str) -> str:
        """The cluster pattern word, e.g. '0^2 1^7 2^1'.  No caller in the package:
        kept as the paper's notation, which test_clusters checks."""
        pat = self.pattern(side)
        return " ".join(f"{size}^{pat[size]}" for size in sorted(pat))


@dataclass(frozen=True)
class IndexData:
    """eps, delta, S and the resulting index p - q (hypergeometric normalization)."""

    epsilon: int | None
    delta: int | None
    S: int | None
    p_minus_q: int
    I_set: tuple[int, ...]
    sigma: tuple[int, ...]


def compute_trace_clusters(Phi: IntPoly, Psi: IntPoly, rank_parity: str = "even") -> TraceClusters:
    """Exact interlacing decomposition of the roots of Phi * Psi on [-2, 2].

    Rejects pairs with a common root, by the resultant from Phi's catalog
    split.  For even rank parity with no Psi root on [-2, 2] the cluster
    structure is undefined and a marker value with s = None is returned.
    The roots come from ``ranked_roots``; their keys decide the split at
    +-2 (a residual root is never +-2, as CT_1 and CT_2 are catalog factors)
    and the merge, where exact comparison only breaks a tie between two
    residual roots in one slot.
    """
    if rank_parity not in ("even", "odd"):
        raise ValueError("rank_parity must be 'even' or 'odd'")
    if Phi.degree >= 1 and Psi.degree >= 1 and split_resultant(Phi, Psi) == 0:
        raise ValueError("Phi and Psi share a root; clusters are undefined")
    key_neg2, key_2 = endpoint_keys()
    at = {2: 0, -2: 0}  # multiplicities at the endpoints, Phi and Psi together

    def split(poly, side):
        on, gt2, below = [], 0, 0
        for key, r in ranked_roots(poly) if poly.degree >= 1 else ():
            if key > key_2:
                gt2 += r.multiplicity
            elif key < key_neg2:
                below += r.multiplicity
            else:
                on.append((key, r, side))
                if key == key_2:
                    at[2] += r.multiplicity
                elif key == key_neg2:
                    at[-2] += r.multiplicity
        off_total = (poly.degree if poly.degree >= 0 else 0) - sum(r.multiplicity for _k, r, _s in on)
        return on, gt2, below, off_total

    a_on, a_gt2, a_lt2, a_off = split(Phi, "A")
    b_on, b_gt2, b_lt2, b_off = split(Psi, "B")
    mult2, mult_neg2 = at[2], at[-2]
    a_roots = tuple(r for _k, r, _s in a_on)
    b_roots = tuple(r for _k, r, _s in b_on)

    if not b_on and rank_parity == "even":
        return TraceClusters(None, (), (), a_gt2, b_gt2, a_lt2, b_lt2, a_off, b_off,
                             rank_parity, mult2, mult_neg2, a_roots, b_roots)

    a_clusters: list[tuple] = [()]
    b_clusters: list[tuple] = []
    side_now = "A"
    for _key, r, side in reversed(rank_sorted(a_on + b_on)):  # on-interval roots, decreasing
        if side == side_now:
            idx = a_clusters if side == "A" else b_clusters
            idx[-1] = idx[-1] + (r,)
        else:
            (b_clusters if side == "B" else a_clusters).append((r,))
            side_now = side
    if rank_parity == "even":
        if side_now == "B":
            a_clusters.append(())
        s = len(b_clusters)
        if len(a_clusters) != s + 1:
            raise AssertionError("interlacing bookkeeping failed")
    else:
        # odd rank ends at the bottom with B_s, which may be empty: the
        # z-level -1 eigenvalue belongs to it regardless of Psi's roots
        if side_now == "A" or not b_clusters:
            b_clusters.append(())
        s = len(b_clusters)
        if len(a_clusters) != s:
            raise AssertionError("interlacing bookkeeping failed")
    return TraceClusters(s, tuple(a_clusters), tuple(b_clusters), a_gt2, b_gt2,
                         a_lt2, b_lt2, a_off, b_off, rank_parity, mult2, mult_neg2,
                         a_roots, b_roots)


def gap_vector(f: IntPoly, Psi: IntPoly) -> tuple[int, ...]:
    """The roots of f on [-2, 2], with multiplicity, counted in each gap between
    Psi's roots there: with t such roots of Psi, entry j of the t + 1 counts
    the roots of f above exactly j of them.

    Read off rank keys alone, so it is additive over f's factors.  For Psi
    with simple roots, all inside (-2, 2), and Phi with all roots on
    [-2, 2], the clusters of (Phi, Psi) are its runs: A_1 is the last entry
    and A_(s+1) the first, A_2 .. A_s are the nonzero interior entries from
    the top, and each B cluster is the run of Psi's roots between two of
    them.  Raises
    ValueError where a root of f has the key of a root of Psi: a common root,
    or two residual roots that keys do not order.
    """
    lo, hi = endpoint_keys()
    on = [key for key, _r in ranked_roots(Psi) if lo <= key <= hi]
    out = [0] * (len(on) + 1)
    for key, r in ranked_roots(f) if f.degree >= 1 else ():
        if lo <= key <= hi:
            j = bisect_left(on, key)
            if j < len(on) and on[j] == key:
                raise ValueError("a root of f shares its rank key with a root of Psi")
            out[j] += r.multiplicity
    return tuple(out)


def epsilon_sign(tc: TraceClusters) -> int:
    """eps = (-1)^(|A_1| + |A_>2| + |B_>2|), the sign of sin(pi gamma)."""
    if tc.no_clusters:
        raise ValueError("index is zero: B_on empty at even rank, eps undefined")
    a1 = tc.cluster_sizes("A")[0]
    return -1 if (a1 + tc.a_gt2 + tc.b_gt2) % 2 else 1


def index(tc: TraceClusters) -> IndexData:
    """Index p - q of the invariant form from the cluster sizes.

    p - q = eps (1 + delta - 2 S) with delta = (-1)^(|A_in| + |B_on| + 1) at
    even rank and delta = 0 at odd rank; S sums (-1)^sigma_i over interior
    A-clusters of odd size.  Returns p - q = 0 when B_on is empty at even
    rank.  The numerical constraints tying S, I and the cluster counts
    together are asserted on every call.
    """
    if tc.no_clusters:
        return IndexData(None, None, None, 0, (), ())
    eps = epsilon_sign(tc)
    a_sizes = tc.cluster_sizes("A")
    b_sizes = tc.cluster_sizes("B")
    s = tc.s
    a_in = sum(a_sizes[1:s])
    b_on = sum(b_sizes)
    if tc.rank_parity == "even":
        delta = -1 if (a_in + b_on + 1) % 2 else 1
    else:
        delta = 0
    sigma = {}
    for i in range(2, s + 1):
        if i == 2:
            sigma[2] = b_sizes[0]
        else:
            sigma[i] = sigma[i - 1] + a_sizes[i - 2] + b_sizes[i - 2]
    I_set = tuple(i for i in range(2, s + 1) if a_sizes[i - 1] % 2 == 1)
    S = sum(-1 if sigma[i] % 2 else 1 for i in I_set)
    p_minus_q = eps * (1 + delta - 2 * S)
    last_b_empty = tc.rank_parity == "odd" and b_sizes[-1] == 0
    _assert_constraints(S, I_set, a_in, s, b_on, last_b_empty)
    return IndexData(eps, delta, S, p_minus_q,
                     I_set, tuple(sigma[i] for i in sorted(sigma)))


def _assert_constraints(S, I_set, a_in, s, b_on, last_b_empty):
    # numerical constraints on (S, I, A_in, s, B_on); violated only by bugs
    nI = len(I_set)
    if not S % 2 == nI % 2 == a_in % 2:
        raise AssertionError("parity constraint broken")
    if not abs(S) <= nI <= s - 1:
        raise AssertionError("|S| <= |I| <= s-1 broken")
    if not 2 * (s - 1) <= nI + a_in <= 2 * a_in:
        raise AssertionError("cluster size bound broken")
    # at odd rank the bottom B cluster is an end and may be empty
    if s - (1 if last_b_empty else 0) > b_on:
        raise AssertionError("s <= |B_on| broken")


def _local_indices(tc: TraceClusters):
    """(root, side, local index) of every on-interval root, walking the merge order
    A_1, B_1, A_2, ... (the no-clusters marker: its A roots, reversed) down from +2.

    rho, the number of real roots above the root with multiplicity, is a running
    count.  tau in A_on: (-1)^(rho+1); tau in B_on: (-1)^rho; even multiplicity
    gives 0.  Hypergeometric normalization.
    """
    if tc.no_clusters:
        runs = [("A", tuple(reversed(tc.a_on_roots)))]
    else:
        runs = [run for pair in zip_longest(tc.a_clusters, tc.b_clusters, fillvalue=())
                for run in zip("AB", pair)]
    rho = tc.a_gt2 + tc.b_gt2
    for side, cluster in runs:
        for r in cluster:
            yield r, side, 0 if r.multiplicity % 2 == 0 else (-1) ** (rho + (side == "A"))
            rho += r.multiplicity


def local_index(tc: TraceClusters, tau) -> int:
    """Local index of the invariant form on the tau-eigenspace pair, tau an on-interval root."""
    for r, _side, idx in _local_indices(tc):
        if r == tau:
            return idx
    raise ValueError("tau is not an on-interval root of Phi or Psi")


def endpoint_index(tc: TraceClusters, at: int, rank: int) -> int:
    """idx at the eigenvalue 1 (at=+2) or -1 (at=-2) of the z-level matrix.

    idx(1) = (-1)^rho(2);  idx(-1) = (-1)^(rho(-2) + n + 1), where rho counts
    the real roots >= 2, or > -2, with multiplicity: both from stored counts.
    """
    above = tc.a_gt2 + tc.b_gt2
    if at == 2:
        return (-1) ** (above + tc.mult_at_2)
    if at == -2:
        on = sum(r.multiplicity for r in tc.a_on_roots + tc.b_on_roots)
        return (-1) ** (above + on - tc.mult_at_neg2 + rank + 1)
    raise ValueError("endpoint must be +2 or -2")


@dataclass(frozen=True)
class ClusterGroupIndices:
    idx_plus1: int
    idx_minus1: int
    idx_a1_interior: int
    idx_a_last_interior: int
    idx_a_in: int
    idx_b_on: int


def cluster_group_indices(tc: TraceClusters, rank: int) -> ClusterGroupIndices:
    """The grouped index sums at even rank (hypergeometric normalization).

    idx(1) = eps (-1)^|A1°|, idx(-1) = eps delta (-1)^|A_{s+1}°|,
    Idx(A1°) = eps Par(|A1°|), Idx(A_{s+1}°) = eps delta Par(|A_{s+1}°|),
    Idx(A_in) = -eps S, Idx(B_on) = (p-q)/2, where ° removes the +-2
    endpoints.  Cross-checkable against per-root local_index sums.  No caller
    in the package: kept as the paper's identities, which test_clusters checks.
    """
    if tc.rank_parity != "even":
        raise ValueError("cluster group indices are stated for even rank")
    if tc.no_clusters:
        raise ValueError("B_on must be nonempty")
    data = index(tc)
    eps, delta = data.epsilon, data.delta
    a_sizes = tc.cluster_sizes("A")
    a1_o = a_sizes[0] - sum(r.multiplicity for r in tc.a_clusters[0] if r == 2)
    alast_o = a_sizes[-1] - sum(r.multiplicity for r in tc.a_clusters[-1] if r == -2)
    par = lambda m: m % 2
    return ClusterGroupIndices(
        idx_plus1=eps * (-1) ** a1_o,
        idx_minus1=eps * delta * (-1) ** alast_o,
        idx_a1_interior=eps * par(a1_o),
        idx_a_last_interior=eps * delta * par(alast_o),
        idx_a_in=-eps * data.S,
        idx_b_on=data.p_minus_q // 2,
    )


# ---------------------------------------------------------------------------
# circle-level patterns and the Lorentzian classification
# ---------------------------------------------------------------------------


def circle_patterns(tc: TraceClusters):
    """Cluster sizes of the z-level eigenvalue clusters on the unit circle.

    Even rank: a_1 = 2|A_1|+1, a_{s+1} = 2|A_{s+1}|+1, interior sizes appear
    twice (mirror pairs); b-sizes all appear twice.  Odd rank: a_1 and b_s
    are the odd fixed clusters.  Returns (a_sizes, b_sizes, adjacency) where
    adjacency lists circle-adjacent (a-index, b-index) pairs.
    """
    if tc.no_clusters:
        raise ValueError("no cluster structure")
    a = tc.cluster_sizes("A")
    b = tc.cluster_sizes("B")
    s = tc.s
    if tc.rank_parity == "even":
        t = 2 * s
        a_circ = [0] * (t + 1)
        b_circ = [0] * (t + 1)
        a_circ[1] = 2 * a[0] + 1
        a_circ[s + 1] = 2 * a[s] + 1
        for i in range(2, s + 1):
            a_circ[i] = a[i - 1]
            a_circ[2 * s + 2 - i] = a[i - 1]
        for i in range(1, s + 1):
            b_circ[i] = b[i - 1]
            b_circ[2 * s + 1 - i] = b[i - 1]
        a_sizes = a_circ[1:]
        b_sizes = b_circ[1:]
    else:
        t = 2 * s - 1
        a_circ = [0] * (t + 1)
        b_circ = [0] * (t + 1)
        a_circ[1] = 2 * a[0] + 1
        for i in range(2, s + 1):
            a_circ[i] = a[i - 1]
            a_circ[2 * s + 1 - i] = a[i - 1]
        for i in range(1, s):
            b_circ[i] = b[i - 1]
            b_circ[2 * s - i] = b[i - 1]
        b_circ[s] = 2 * b[s - 1] + 1
        a_sizes = a_circ[1:]
        b_sizes = b_circ[1:]
    return a_sizes, b_sizes


LORENTZ_TABLE = (
    # (a_pattern extra, b_pattern extra, doubles_adjacent, a_off, b_off)
    (1, {2: 1}, {2: 1}, True, 0, 0),
    (2, {3: 1}, {3: 1}, False, 0, 0),
    (3, {3: 1}, {}, False, 0, 2),
    (4, {}, {3: 1}, False, 2, 0),
    (5, {}, {}, False, 2, 2),
)


def match_lorentz_patterns(a_sizes, b_sizes, a_off: int, b_off: int,
                           doubles_adjacent: bool) -> int | None:
    """Classify circle-level cluster patterns against the five Lorentzian rows."""
    n = sum(a_sizes) + a_off
    if sum(b_sizes) + b_off != n:
        return None

    def pat(sizes):
        out = {}
        for v in sizes:
            if v:
                out[v] = out.get(v, 0) + 1
        return out

    def expected(extra: dict, off: int) -> dict:
        # the on-circle sizes sum to n - off; all clusters are simple apart
        # from the single listed multiple one
        want = dict(extra)
        want[1] = want.get(1, 0) + (n - off - sum(k * v for k, v in extra.items()))
        return {k: v for k, v in want.items() if v}

    pa, pb = pat(a_sizes), pat(b_sizes)
    for typ, extra_a, extra_b, need_adj, off_a, off_b in LORENTZ_TABLE:
        if pa == expected(extra_a, off_a) and pb == expected(extra_b, off_b) \
                and a_off == off_a and b_off == off_b:
            if need_adj and not doubles_adjacent:
                continue
            return typ
    return None


def lorentz_classify(tc: TraceClusters, rank: int) -> int | None:
    """Lorentzian type 1..5 of the invariant form, or None if not Lorentzian.
    No caller in the package: kept as the paper's table, which test_clusters checks."""
    if tc.no_clusters:
        return None
    data = index(tc)
    if abs(data.p_minus_q) != rank - 2:
        return None
    a_sizes, b_sizes = circle_patterns(tc)
    adj = _circle_doubles_adjacent(a_sizes, b_sizes)
    return match_lorentz_patterns(a_sizes, b_sizes, 2 * tc.a_off_total,
                                  2 * tc.b_off_total, adj)


def _circle_doubles_adjacent(a_sizes, b_sizes) -> bool:
    a_doubles = [i for i, v in enumerate(a_sizes) if v == 2]
    b_doubles = [i for i, v in enumerate(b_sizes) if v == 2]
    if len(a_doubles) != 1 or len(b_doubles) != 1:
        return False
    i, j = a_doubles[0], b_doubles[0]
    # on the circle a_i is flanked by b_{i-1} and b_i (cyclically)
    t = len(a_sizes)
    return j == i or j == (i - 1) % t
