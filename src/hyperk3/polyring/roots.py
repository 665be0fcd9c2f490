"""Exact real-root isolation and real algebraic numbers.

Roots are isolated with integer Sturm sequences (pseudo-remainders scaled by
positive factors only, so sign variations are preserved without fractions)
and refined by sign bisection.  An ``AlgebraicReal`` is a squarefree
defining polynomial plus an open rational isolating interval; every
comparison below is decided exactly, never numerically.

There is one isolation path, ``isolate_real_roots``, and it runs once per
polynomial: one bounded cache keeps each polynomial's roots, refined to
width 2^-20, and every call returns fresh copies of them.  A copy's
isolating interval shrinks as comparisons refine it, so each caller owns its
roots and no call sees another's refinement.  On a miss, each squarefree
part sheds the factors of the closed catalog (the 41 CT_k of degree <= 10
and LT) by exact division; their roots come from a table isolated once per
factor, and only the residual goes through Sturm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, lru_cache

from .atoms import lehmer_trace
from .poly import (IntPoly, cyclotomic_indices_up_to_degree, cyclotomic_trace, poly_gcd,
                   squarefree_decomposition)


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


def open_root_count(f: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of f in the open interval (lo, hi)."""
    n = sturm_root_count(f, lo, hi)
    if n and f.sign_at(Fraction(hi)) == 0:
        n -= 1
    return n


@lru_cache(maxsize=32)
def _sf_chain(coeffs: tuple) -> tuple:
    """Sturm chain of the squarefree part, cached per polynomial."""
    return tuple(_sturm_chain(_SF_CACHE(coeffs)))


@lru_cache(maxsize=32)
def _SF_CACHE(coeffs: tuple) -> IntPoly:
    f = IntPoly(coeffs)
    if f.degree > 1:
        g = poly_gcd(f, f.derivative())
        if g.degree > 0:
            f = f.primitive().divexact(g)
    return f


@lru_cache(maxsize=32)
def _gcd_cached(c1: tuple, c2: tuple) -> IntPoly:
    return poly_gcd(IntPoly(c1), IntPoly(c2))


def root_bound(f: IntPoly) -> int:
    """Cauchy bound: every real root lies in (-B, B)."""
    if f.degree < 1:
        return 1
    lc = abs(f.leading())
    m = max(abs(c) for c in f.coeffs[:-1]) if f.degree >= 1 else 0
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
    non-squarefree polynomial.
    """

    __slots__ = ("minpoly", "multiplicity", "_lo", "_hi")

    def __init__(self, minpoly: IntPoly, interval, multiplicity: int = 1):
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if not lo < hi:
            raise ValueError("empty isolating interval")
        if minpoly.sign_at(lo) == 0 or minpoly.sign_at(hi) == 0:
            raise ValueError("interval endpoint is a root of the defining polynomial")
        if sturm_root_count(minpoly, lo, hi) != 1:
            raise ValueError("interval does not isolate exactly one root")
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "multiplicity", multiplicity)
        self._narrow(lo, hi)

    @classmethod
    def _trusted(cls, minpoly: IntPoly, lo: Fraction, hi: Fraction,
                 multiplicity: int) -> "AlgebraicReal":
        """An instance on an interval the caller has proved isolating; no checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "minpoly", minpoly)
        object.__setattr__(out, "multiplicity", multiplicity)
        out._narrow(lo, hi)
        return out

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
        mid = _nonroot_near(self.minpoly, (lo + hi) / 2)
        if not lo < mid < hi:
            return
        if self.minpoly.sign_at(lo) * self.minpoly.sign_at(mid) < 0:
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
        return AlgebraicReal._trusted(self.minpoly, self._lo, self._hi, self.multiplicity)

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

    def _cmp_rational(self, x: Fraction) -> int:
        if x <= self._lo:
            return 1
        if x >= self._hi:
            return -1
        s = self.minpoly.sign_at(x)
        if s == 0:
            return 0
        # sign of minpoly at x against its sign just left of the root
        lo_sign = self.minpoly.sign_at(self._lo)
        return 1 if s == lo_sign else -1

    def compare(self, other) -> int:
        """-1, 0, +1 comparison, decided exactly."""
        if isinstance(other, (int, Fraction)):
            return self._cmp_rational(Fraction(other))
        if not isinstance(other, AlgebraicReal):
            raise TypeError(f"cannot compare AlgebraicReal with {type(other).__name__}")
        if other is self:
            return 0
        g = None
        while True:
            if self._hi <= other._lo:
                return -1
            if other._hi <= self._lo:
                return 1
            if g is None:
                g = _gcd_cached(self.minpoly.coeffs, other.minpoly.coeffs)
            if g.degree > 0:
                lo = max(self._lo, other._lo)
                hi = min(self._hi, other._hi)
                # a root of g inside both isolating intervals must be both numbers
                if lo < hi and open_root_count(g, lo, hi) >= 1:
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
        polynomial once the containing irreducible factor is known.
        """
        if not self.is_root_of(p):
            raise ValueError("the number is not a root of the target polynomial")
        sf = p if p.degree <= 1 else _SF_CACHE(p.coeffs)
        for _ in range(10_000):
            lo, hi = self._lo, self._hi
            if (open_root_count(sf, lo, hi) == 1
                    and sf.sign_at(lo) != 0 and sf.sign_at(hi) != 0):
                return AlgebraicReal._trusted(sf, lo, hi, self.multiplicity)
            self._bisect_once()
        raise ArithmeticError("failed to isolate within the target polynomial")

    def is_root_of(self, p: IntPoly) -> bool:
        """Whether p vanishes at this number (exact)."""
        if p.is_zero():
            return True
        g = poly_gcd(self.minpoly, p)
        if g.degree <= 0:
            return False
        return open_root_count(g, self._lo, self._hi) >= 1

    def sign_of(self, p: IntPoly) -> int:
        """Exact sign of p evaluated at this number."""
        if p.is_zero() or self.is_root_of(p):
            return 0
        if p.degree < 1:
            return 1 if p.constant() > 0 else -1
        # shrink until the interval is free of p's roots; then p has constant
        # sign there and any interior point decides it
        while open_root_count(p, self._lo, self._hi) > 0:
            self._bisect_once()
        mid = (self._lo + self._hi) / 2
        s = p.sign_at(mid)
        if s == 0:  # cannot happen: no p-roots inside the open interval
            raise ArithmeticError("sign determination hit an excluded root")
        return s

    def __repr__(self):
        lo, hi = float(self._lo), float(self._hi)
        return f"AlgebraicReal({self.minpoly.format('x')}, ({lo:.6g}, {hi:.6g}), mult={self.multiplicity})"


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

    Multiplicities come from the squarefree (Yun) decomposition; isolating
    intervals are pairwise disjoint across the whole list.  The roots are
    new objects on every call, so the caller may refine them freely.
    """
    if f.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if f.degree < 1:
        return []
    return [AlgebraicReal._trusted(r.minpoly, r._lo, r._hi, r.multiplicity)
            for r in _isolation_cache(f.coeffs)]


@lru_cache(maxsize=128)
def _isolation_cache(coeffs: tuple) -> tuple:
    decomposition = squarefree_decomposition(IntPoly(coeffs))
    roots: list[AlgebraicReal] = []
    for part, mult in decomposition:
        rest, at = part, part(_PROBE)
        for factor, value in _catalog():
            if factor.degree <= rest.degree and at % value == 0:
                quot, rem = rest.divmod_exact(factor)
                if not rem:
                    rest, at = quot, at // value
                    roots.extend(AlgebraicReal._trusted(r.minpoly, r._lo, r._hi, mult)
                                 for r in _catalog_roots(factor.coeffs))
        roots.extend(_isolate_squarefree(rest, mult))
    # Disjoint intervals around the roots of coprime factors isolate each
    # root within its whole squarefree part, which its multiplicity names.
    part_of = {mult: part for part, mult in decomposition}
    return tuple(AlgebraicReal._trusted(part_of[r.multiplicity], r._lo, r._hi, r.multiplicity)
                 for r in _separated(roots))


# Every catalog root lies in (-3, 3), so no catalog factor vanishes at
# _PROBE, and a factor that divides a part divides its value there.
_PROBE = 2 ** 64


@lru_cache(maxsize=1)
def _catalog() -> tuple:
    """(factor, factor(_PROBE)) for the 41 CT_k of degree <= 10 and LT."""
    factors = [cyclotomic_trace(k) for k in cyclotomic_indices_up_to_degree(10)] + [lehmer_trace()]
    return tuple((f, f(_PROBE)) for f in factors)


@lru_cache(maxsize=64)
def _catalog_roots(coeffs: tuple) -> tuple:
    """A catalog factor's roots, isolated once; only copies leave this table."""
    return tuple(_separated(_isolate_squarefree(IntPoly(coeffs), 1)))


def _separated(roots: list[AlgebraicReal]) -> list[AlgebraicReal]:
    """Sort roots increasing in place, bisect until neighbours' intervals are
    disjoint, then refine each to _CACHE_WIDTH."""
    roots.sort(key=cmp_to_key(lambda a, b: a.compare(b)))
    for a, b in zip(roots, roots[1:]):
        while not a._hi <= b._lo:
            a._bisect_once()
            b._bisect_once()
    for r in roots:
        r.refine_to(_CACHE_WIDTH)
    return roots


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
