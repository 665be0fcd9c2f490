"""Exact real-root isolation, real algebraic numbers, and root ranks.

Roots are isolated with integer Sturm sequences (pseudo-remainders scaled by
positive factors only, so sign variations are preserved without fractions)
and refined by sign bisection.  An ``AlgebraicReal`` is a squarefree
defining polynomial plus an open rational isolating interval; every
comparison below is decided exactly, never numerically.

Every polynomial is first split over the closed catalog, the 41 CT_k of
degree <= 10 and LT: a bounded cache gives each catalog factor's
multiplicity and the residual from ``poly._strip_factors``, exact division
behind a probe-value prefilter, which ``classify_product`` shares.  Roots
are ordered by integer rank keys, not by comparison.
The roots of CT_k are 2cos(2 pi j/k), so comparing j/k by integer
cross-multiplication orders every CT root, and LT's five roots are placed
among them once by exact comparison.  Only the residual goes through Yun
and Sturm, and each residual root is placed once, by binary search, in the
slot between two catalog roots.  Two roots of coprime polynomials then
compare by their keys, unless both are residual roots in one slot: only
that tie is left to exact comparison.

There is one isolation path, ``ranked_roots`` (``isolate_real_roots`` drops
the keys), and it runs once per polynomial: one bounded cache keeps each
polynomial's roots, refined to width 2^-20, with their keys, and every call
returns fresh copies.  A copy's isolating interval shrinks as
comparisons refine it, so each caller owns its roots and no call sees
another's refinement.  A root reports as ``minpoly`` the squarefree part of
its polynomial that ``squarefree_decomposition`` gives for its multiplicity,
sign included; exact work needs only the catalog factor or residual part
that isolates the root, so the squarefree part is looked up only when
``minpoly`` is read.

Signs and root identity are read off the same order.  ``signs_at_roots``
gives the sign of p at every root of f from one merge of their ranked
roots, comparing exactly only where keys tie; ``root_index`` finds a number
among a polynomial's ranked roots by one exact equality (``retargeted`` is
that lookup).  Both work on copies and never narrow the caller's root.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import accumulate, groupby
from operator import itemgetter

from .atoms import lehmer_trace
from .poly import (_PROBE, IntPoly, _strip_factors, cyclotomic_indices_up_to_degree,
                   cyclotomic_trace, poly_gcd, resultant, squarefree_decomposition)


def _sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Sturm chain of a squarefree polynomial, integer coefficients.

    Remainders are negated and scaled by positive integers only, which keeps
    the sign-variation count of the classical chain.
    """
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        lc = b.leading()
        k = a.degree - b.degree + 1
        if k % 2 == 1:
            k += 1  # even power: positive scaling factor lc^k
        rem = list((a * IntPoly.const(lc ** k)).coeffs)
        for i in range(len(rem) - 1 - b.degree, -1, -1):
            q, r = divmod(rem[i + b.degree], lc)
            if r:
                raise ArithmeticError("inexact pseudo-division in Sturm chain")
            if q:
                for j, c in enumerate(b.coeffs):
                    rem[i + j] -= q * c
        nxt = -IntPoly(rem)
        if nxt.is_zero():
            break
        c = nxt.content()
        if c > 1:  # positive scaling only: sign pattern must survive
            nxt = IntPoly(tuple(x // c for x in nxt.coeffs))
        chain.append(nxt)
    return chain


def _variations(chain: list[IntPoly], x: Fraction) -> int:
    count = 0
    prev = 0
    for p in chain:
        s = p.sign_at(x)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def sturm_root_count(f: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of f in (lo, hi]."""
    chain = _sf_chain(f.coeffs)
    return _variations(chain, Fraction(lo)) - _variations(chain, Fraction(hi))


@lru_cache(maxsize=32)
def _sf_chain(coeffs: tuple) -> tuple:
    """Sturm chain of the squarefree part, cached per polynomial."""
    f = IntPoly(coeffs)
    if f.degree > 1:
        g = poly_gcd(f, f.derivative())
        if g.degree > 0:
            f = f.primitive().divexact(g)
    return tuple(_sturm_chain(f))


@lru_cache(maxsize=32)
def _gcd_cached(c1: tuple, c2: tuple) -> IntPoly:
    return poly_gcd(IntPoly(c1), IntPoly(c2))


def root_bound(f: IntPoly) -> int:
    """Cauchy bound: every real root lies in (-B, B)."""
    if f.degree < 1:
        return 1
    lc = abs(f.leading())
    m = max(abs(c) for c in f.coeffs[:-1])
    return 1 + (m + lc - 1) // lc


def _nonroot_near(f: IntPoly, x: Fraction) -> Fraction:
    """A rational point near x where f does not vanish."""
    if f.sign_at(x) != 0:
        return x
    eps = Fraction(1, 4 * (1 + x.denominator))
    while True:
        for cand in (x + eps, x - eps):
            if f.sign_at(cand) != 0:
                return cand
        eps /= 16


class AlgebraicReal:
    """A real algebraic number: squarefree defining polynomial + isolating interval.

    The defining polynomial need not be irreducible, only squarefree with a
    single root in the open interval (whose endpoints are never roots).
    ``multiplicity`` records the multiplicity in the originating, possibly
    non-squarefree polynomial.  Exact work uses ``_poly``; a root from the
    isolation cache may carry in ``_source`` the (coefficients, multiplicity)
    whose squarefree part ``minpoly`` reports, found on first use.
    """

    __slots__ = ("_poly", "_source", "multiplicity", "_lo", "_hi")

    def __init__(self, minpoly: IntPoly, interval, multiplicity: int = 1):
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if not lo < hi:
            raise ValueError("empty isolating interval")
        if minpoly.sign_at(lo) == 0 or minpoly.sign_at(hi) == 0:
            raise ValueError("interval endpoint is a root of the defining polynomial")
        if sturm_root_count(minpoly, lo, hi) != 1:
            raise ValueError("interval does not isolate exactly one root")
        _init(self, minpoly, None, multiplicity, lo, hi)

    @classmethod
    def _trusted(cls, minpoly: IntPoly, lo: Fraction, hi: Fraction,
                 multiplicity: int, source: tuple | None = None) -> "AlgebraicReal":
        """An instance on an interval the caller has proved isolating; no checks."""
        out = object.__new__(cls)
        _init(out, minpoly, source, multiplicity, lo, hi)
        return out

    def _copy(self) -> "AlgebraicReal":
        return AlgebraicReal._trusted(self._poly, self._lo, self._hi, self.multiplicity, self._source)

    @property
    def minpoly(self) -> IntPoly:
        """The defining polynomial (for a root of a product: its squarefree part)."""
        if self._source is not None:
            coeffs, mult = self._source
            part = next(p for p, m in squarefree_decomposition(IntPoly(coeffs)) if m == mult)
            object.__setattr__(self, "_poly", part)
            object.__setattr__(self, "_source", None)
        return self._poly

    def __setattr__(self, *a):
        raise AttributeError("AlgebraicReal is immutable")

    def __reduce__(self):
        return (AlgebraicReal, (self.minpoly, (self._lo, self._hi), self.multiplicity))

    @staticmethod
    def from_rational(x, multiplicity: int = 1) -> "AlgebraicReal":
        x = Fraction(x)
        p = IntPoly((-x.numerator, x.denominator))
        w = Fraction(1, 2)
        return AlgebraicReal(p, (x - w, x + w), multiplicity)

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def _narrow(self, lo: Fraction, hi: Fraction) -> None:
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def _bisect_once(self) -> None:
        lo, hi = self._lo, self._hi
        mid = _nonroot_near(self._poly, (lo + hi) / 2)
        if not lo < mid < hi:
            return
        if self._poly.sign_at(lo) * self._poly.sign_at(mid) < 0:
            self._narrow(lo, mid)
        else:
            self._narrow(mid, hi)

    def refine_to(self, width) -> None:
        """Shrink the isolating interval below ``width`` (value unchanged)."""
        width = Fraction(width)
        while self._hi - self._lo >= width:
            self._bisect_once()

    def refined(self, width) -> "AlgebraicReal":
        """A copy whose isolating interval is narrower than ``width``."""
        self.refine_to(width)
        return self._copy()

    def approx(self, width=Fraction(1, 10 ** 12)) -> Fraction:
        self.refine_to(width)
        return (self._lo + self._hi) / 2

    def __float__(self) -> float:
        return float(self.approx(Fraction(1, 10 ** 17)))

    def to_decimal(self, places: int) -> str:
        """Decimal string correct to ``places`` digits after the point."""
        self.refine_to(Fraction(1, 10 ** (places + 3)))
        mid = (self._lo + self._hi) / 2
        scaled = mid * 10 ** places
        q = scaled.numerator // scaled.denominator
        if 2 * (scaled.numerator - q * scaled.denominator) >= scaled.denominator:
            q += 1
        sign = "-" if q < 0 else ""
        digits = str(abs(q)).rjust(places + 1, "0")
        return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"

    # -- exact comparisons --------------------------------------------------

    def _cmp_rational(self, x: int | Fraction) -> int:
        if _le(x, self._lo):
            return 1
        if _le(self._hi, x):
            return -1
        s = self._poly.sign_at(x)
        if s == 0:
            return 0
        # sign of the defining polynomial at x against its sign just left of the root
        lo_sign = self._poly.sign_at(self._lo)
        return 1 if s == lo_sign else -1

    def compare(self, other) -> int:
        """-1, 0, +1 comparison, decided exactly."""
        if not isinstance(other, AlgebraicReal):
            if isinstance(other, (int, Fraction)):
                return self._cmp_rational(other)
            raise TypeError(f"cannot compare AlgebraicReal with {type(other).__name__}")
        if other is self:
            return 0
        g = None
        while True:
            if _le(self._hi, other._lo):
                return -1
            if _le(other._hi, self._lo):
                return 1
            if g is None:
                g = _gcd_cached(self._poly.coeffs, other._poly.coeffs)
            if g.degree > 0:
                lo = max(self._lo, other._lo)
                hi = min(self._hi, other._hi)
                # a root of g inside both isolating intervals must be both numbers;
                # g divides both defining polynomials, so it vanishes at no endpoint
                if lo < hi and sturm_root_count(g, lo, hi) >= 1:
                    return 0
            self._bisect_once()
            other._bisect_once()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicReal)):
            return self.compare(other) == 0
        return NotImplemented

    __hash__ = None  # value-equality across representations defeats hashing

    def retargeted(self, p: IntPoly) -> "AlgebraicReal":
        """The same number presented as a root of p (which must vanish at it).

        Used to swap a reducible defining polynomial for the true minimal
        polynomial once the containing irreducible factor is known: p's own
        root from ``ranked_roots``, with its multiplicity in p.  self is not
        narrowed.
        """
        ranked = ranked_roots(p)
        i = root_index(self, ranked)
        if i is None:
            raise ValueError("the number is not a root of the target polynomial")
        return ranked[i][1]

    def __repr__(self):
        lo, hi = float(self._lo), float(self._hi)
        return f"AlgebraicReal({self.minpoly.format('x')}, ({lo:.6g}, {hi:.6g}), mult={self.multiplicity})"


def _le(x: int | Fraction, y: int | Fraction) -> bool:
    """x <= y for rationals, by one integer cross-multiplication."""
    return x.numerator * y.denominator <= y.numerator * x.denominator


def _init(r: AlgebraicReal, poly: IntPoly, source, multiplicity: int,
          lo: Fraction, hi: Fraction) -> None:
    put = object.__setattr__
    put(r, "_poly", poly)
    put(r, "_source", source)
    put(r, "multiplicity", multiplicity)
    put(r, "_lo", lo)
    put(r, "_hi", hi)


def is_salem_trace(t: IntPoly) -> bool:
    """Squarefree with all roots real, exactly one above 2, the rest in (-2, 2).

    This is the shape of the trace polynomial of a Salem polynomial.
    """
    if t.degree < 1:
        return False
    roots = isolate_real_roots(t)
    if len(roots) != t.degree or any(r.multiplicity != 1 for r in roots):
        return False
    return roots[-1] > 2 and roots[0] > -2 and (len(roots) == 1 or roots[-2] < 2)


# Cached roots are refined once to this width.  It is coarser than the CLI's
# default display width 1/10^8, so displayed intervals are the ones the
# bisection would reach from the isolating interval anyway; and it is narrow
# enough that comparisons between cached catalog roots seldom bisect again.
_CACHE_WIDTH = Fraction(1, 2 ** 20)


def isolate_real_roots(f: IntPoly) -> list[AlgebraicReal]:
    """All distinct real roots of f, sorted increasing, with multiplicities.

    Multiplicities are those of the squarefree decomposition; isolating
    intervals are pairwise disjoint across the whole list.  The roots are
    new objects on every call, so the caller may refine them freely.
    """
    return [r for _key, r in ranked_roots(f)]


def ranked_roots(f: IntPoly) -> list[tuple[int, AlgebraicReal]]:
    """isolate_real_roots(f) with each root's rank key, as (key, root) pairs.

    Keys order roots across polynomials: an odd key 2p + 1 is the catalog
    root of rank p, an even key 2s a residual root with s catalog roots
    below it.  Equal keys of coprime polynomials are two residual roots in
    one slot, which only exact comparison orders (``rank_sorted``).
    """
    if f.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if f.degree < 1:
        return []
    split, entries = _isolation_cache(f.coeffs)
    return [(key, AlgebraicReal._trusted(r._poly, r._lo, r._hi, mult,
                                         (f.coeffs, mult) if split else None))
            for key, r, mult in entries]


def endpoint_keys() -> tuple[int, int]:
    """The rank keys of -2 and 2, the roots of CT_2 and CT_1."""
    ranks = _catalog_ranks()[0]
    return 2 * ranks[1][0] + 1, 2 * ranks[0][0] + 1


def rank_sorted(items: list) -> list:
    """(key, root, ...) items of coprime polynomials in increasing order of their roots.

    The key decides, and exact comparison orders only a run of equal keys:
    residual roots in one slot.
    """
    items = sorted(items, key=itemgetter(0))
    if len({item[0] for item in items}) == len(items):
        return items
    out = []
    for _key, run in groupby(items, key=itemgetter(0)):
        out += sorted(run, key=cmp_to_key(lambda a, b: a[1].compare(b[1])))
    return out


@lru_cache(maxsize=64)
def signs_at_roots(p: IntPoly, f: IntPoly) -> tuple[int, ...]:
    """The sign of p at each root of f, in ``ranked_roots(f)`` order, 0 where p vanishes.

    The sign at a root is sign(lc p) times -1 to the number of p's roots
    above it, with multiplicity, counted by rank key.  Equal keys are one
    catalog root, where p vanishes, or residual roots in one slot, compared
    exactly on the lists' own copies (one cached gcd per pair of parts).
    """
    roots = ranked_roots(f)
    if p.is_zero():
        return (0,) * len(roots)
    p_roots = ranked_roots(p)
    keys = [key for key, _r in p_roots]
    above = list(accumulate((r.multiplicity for _k, r in reversed(p_roots)), initial=0))[::-1]
    out = []
    for key, t in roots:
        lo, hi = bisect_left(keys, key), bisect_right(keys, key)
        n, sign = above[hi], 1 if p.leading() > 0 else -1
        for _k, r in p_roots[lo:hi]:
            c = 0 if key & 1 else r.compare(t)
            if c == 0:
                sign = 0
            elif c > 0:
                n += r.multiplicity
        out.append(sign if n % 2 == 0 else -sign)
    return tuple(out)


def root_index(x: AlgebraicReal, ranked: list) -> int | None:
    """The position in ``ranked``, a ``ranked_roots`` list, of the root equal to x, or None.

    Each root is compared with x exactly, on copies; only a root whose
    interval meets x's costs more than two rational comparisons.
    """
    return next((i for i, (_k, r) in enumerate(ranked) if r._copy().compare(x._copy()) == 0), None)


@lru_cache(maxsize=128)
def _isolation_cache(coeffs: tuple) -> tuple:
    """(split, entries): whether the polynomial has catalog factors, and its
    roots, increasing, as (key, root, multiplicity).

    Its catalog roots come from the factor tables with their ranks, and its
    residual's roots from the residual's own entry.  Those roots are shared:
    ``ranked_roots`` copies each one, as a root of this polynomial when it
    was split.
    """
    factors, rest = _split(coeffs)
    if not factors:
        roots = [r for part, mult in squarefree_decomposition(IntPoly(coeffs))
                 for r in _isolate_squarefree(part, mult)]
        for r in roots:
            r.refine_to(_CACHE_WIDTH)
        return False, _separated([(2 * _count_below(r), r, r.multiplicity) for r in roots])
    catalog, ranks = _catalog(), _catalog_ranks()[0]
    entries = [(2 * rank + 1, r, mult)
               for i, mult in factors
               for rank, r in zip(ranks[i], _catalog_roots(catalog[i][0].coeffs))]
    if rest.degree >= 1:
        # coprime to the catalog part, so each root keeps its multiplicity
        entries += _isolation_cache(rest.coeffs)[1]
    return True, _separated(entries)


def _separated(entries: list) -> tuple:
    """Sort refined (key, root, multiplicity) entries by rank, and bisect copies of
    neighbours until their intervals are disjoint.  Catalog roots, the odd
    keys, are disjoint already.  Disjoint intervals around the roots of
    coprime factors isolate each root within its whole squarefree part,
    which its multiplicity names."""
    entries = rank_sorted(entries)
    for n in range(len(entries) - 1):
        (k, a, ma), (l, b, mb) = entries[n], entries[n + 1]
        if k & l & 1 or _le(a._hi, b._lo):
            continue
        a, b = a._copy(), b._copy()
        while not _le(a._hi, b._lo):
            a._bisect_once()
            b._bisect_once()
        entries[n], entries[n + 1] = (k, a, ma), (l, b, mb)
    return tuple(entries)


@lru_cache(maxsize=1)
def _catalog() -> tuple:
    """(factor, factor(_PROBE)) for the 41 CT_k of degree <= 10 and LT, in that order."""
    factors = [cyclotomic_trace(k) for k in cyclotomic_indices_up_to_degree(10)] + [lehmer_trace()]
    return tuple((f, f(_PROBE)) for f in factors)


@lru_cache(maxsize=128)
def _split(coeffs: tuple) -> tuple:
    """((catalog index, multiplicity), ...) and the residual, coprime to the catalog."""
    return _strip_factors(coeffs, _catalog())


def split_squarefree(f: IntPoly) -> tuple[tuple[IntPoly, int], ...]:
    """f's squarefree decomposition from its catalog split: Yun runs on the residual only.

    The parts, by increasing multiplicity, are primitive with positive
    leading coefficients; ``squarefree_decomposition`` gives the same parts
    up to sign.
    """
    factors, rest = _split(f.coeffs)
    parts = {m: (p if p.leading() > 0 else -p) for p, m in squarefree_decomposition(rest)}
    for i, m in factors:
        parts[m] = parts.get(m, IntPoly.one()) * _catalog()[i][0]
    return tuple((parts[m], m) for m in sorted(parts))


def split_resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) from f's catalog split: the product of Res(factor, g)^multiplicity,
    one cached resultant per factor, and Res(residual, g).  Res is
    multiplicative in its first argument."""
    factors, rest = _split(f.coeffs)
    out = resultant(rest, g)
    known = _factor_resultants(g.coeffs)
    for i, m in factors:
        if i not in known:
            known[i] = resultant(_catalog()[i][0], g)
        out *= known[i] ** m
    return out


@lru_cache(maxsize=32)
def _factor_resultants(g_coeffs: tuple) -> dict:
    """Res(catalog factor i, g) by i, for one g, filled in as factors are met."""
    return {}


@lru_cache(maxsize=64)
def _catalog_roots(coeffs: tuple) -> tuple:
    """A catalog factor's roots, increasing, isolated once; only copies leave this table.

    One Sturm isolation gives disjoint intervals, so they sort by endpoint.
    """
    roots = sorted(_isolate_squarefree(IntPoly(coeffs), 1), key=lambda r: r._lo)
    for r in roots:
        r.refine_to(_CACHE_WIDTH)
    return tuple(roots)


@lru_cache(maxsize=1)
def _catalog_ranks() -> tuple:
    """(ranks, ordered): the ranks of each catalog factor's increasing roots,
    and all 230 catalog roots in increasing order.  Built on first use.

    CT_1 and CT_2 have the roots 2 and -2; for k >= 3 the roots of CT_k are
    2cos(2 pi j/k) with gcd(j, k) = 1 and 0 < j < k/2.  A larger j/k is a
    smaller root, so the integer order of the j/k orders every CT root.
    LT's five roots are placed among them by exact comparison.  The
    intervals, in rank order, must then be disjoint and increasing, which
    proves the order.
    """
    catalog = _catalog()
    tables = [_catalog_roots(f.coeffs) for f, _v in catalog]
    fractions = []  # (j/k, factor index, root index)
    for i, k in enumerate(cyclotomic_indices_up_to_degree(10)):
        js = [Fraction(j, k) for j in range(k // 2 + 1) if math.gcd(j, k) == 1]
        if len(js) != len(tables[i]):
            raise ArithmeticError(f"CT_{k} does not have its phi(k)/2 real roots")
        fractions += [(q, i, t) for t, q in enumerate(sorted(js, reverse=True))]
    seq = [(i, t) for _q, i, t in sorted(fractions, reverse=True)]
    ct_roots = [tables[i][t] for i, t in seq]
    lt = len(catalog) - 1
    for t in reversed(range(len(tables[lt]))):  # from the top, so earlier slots stay put
        seq.insert(_count_below(tables[lt][t], ct_roots), (lt, t))
    ranks = [[0] * len(t) for t in tables]
    for p, (i, t) in enumerate(seq):
        ranks[i][t] = p
    ordered = tuple(tables[i][t] for i, t in seq)
    if not all(_le(a._hi, b._lo) for a, b in zip(ordered, ordered[1:])):
        raise ArithmeticError("catalog ranks disagree with the isolating intervals")
    return tuple(map(tuple, ranks)), ordered


def _count_below(root: AlgebraicReal, ordered=None) -> int:
    """How many of the increasing catalog roots (or ``ordered``) lie below a
    root that is none of them: a binary search comparing copies exactly."""
    if ordered is None:
        ordered = _catalog_ranks()[1]
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        c = ordered[mid]._copy().compare(root._copy())
        if c == 0:
            raise ArithmeticError("a residual root equals a catalog root")
        if c < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _isolate_squarefree(f: IntPoly, mult: int) -> list[AlgebraicReal]:
    if f.degree < 1:
        return []
    chain = _sf_chain(f.coeffs)
    b = root_bound(f)
    lo, hi = Fraction(-b), Fraction(b)
    lo = _nonroot_near(f, lo)
    hi = _nonroot_near(f, hi)
    out: list[AlgebraicReal] = []
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, c, va, vc = stack.pop()
        n = va - vc
        if n == 0:
            continue
        if n == 1:
            # endpoints come from _nonroot_near, so (a, c) isolates one root
            out.append(AlgebraicReal._trusted(f, a, c, mult))
            continue
        mid = _nonroot_near(f, (a + c) / 2)
        if not a < mid < c:
            raise ArithmeticError("failed to split isolating interval")
        vm = _variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, c, vm, vc))
    return out
