"""Siegel-disk versus hyperbolic classification of fixed points.

The criterion: for a special trace tau in (-2, 2) conjugate to a Salem
number, with q the rational function expressing the squared eigenvalue sum
(alpha + 1/alpha)^2 of the tangent map at the fixed point (or 3-cycle), the
point is the center of a Siegel disk when 0 <= q(tau) <= 4 and some
conjugate tau' in (-2, 2) has q(tau') > 4; it is hyperbolic when q(tau) > 4.

Four shapes of q cover the constructions here: the transverse fixed point
q = (w+1)^2/(w+2), and the three-cycle variants attached to the
E8+A2+A2, D10 and A2 exceptional sets.  All signs are exact and read off
root order by ``signs_at_roots``, which refines no interval of tau:
degeneracy (q(tau) in {0, 4}) is a sign 0 and comes back 'indeterminate'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyring import (
    IntPoly,
    cyclotomic,
    cyclotomic_trace,
    is_salem_trace,
    lehmer,
    lehmer_trace,
    palindromic_expand,
    poly_gcd,
    salem_trace_mt,
    salem_trace_nt,
)
from .polyring.roots import AlgebraicReal, endpoint_keys, ranked_roots, root_index, signs_at_roots

W = IntPoly.variable()

Q_LABELS = ("fixed_point", "e8a2a2", "d10", "a2")


@dataclass(frozen=True)
class QFunction:
    label: str
    numerator: IntPoly
    denominator: IntPoly


def builtin_q(label: str) -> QFunction:
    """The catalogued q(w) for a given exceptional-set shape."""
    if label == "fixed_point":
        num = (W + 1) ** 2
        den = W + 2
    elif label == "e8a2a2":
        cube = IntPoly((0, -3, 0, 1))  # w^3 - 3w
        mt = salem_trace_mt().compose(cube)
        lt = lehmer_trace().compose(cube)
        num = (W + 2) * (W - 1) ** 2 * mt * mt
        den = lt * lt
    elif label == "d10":
        cube = IntPoly((0, -3, 0, 1))
        nt = salem_trace_nt().compose(cube)
        lt = lehmer_trace().compose(cube)
        num = (W + 2) * (W - 1) ** 2 * nt * nt
        den = lt * lt
    elif label == "a2":
        num = (W * W - 3) ** 2
        den = W + 2
    else:
        raise ValueError(f"unknown q label {label!r}; expected one of {Q_LABELS}")
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num.divexact(g)
        den = den.divexact(g)
    return QFunction(label, num, den)


@dataclass(frozen=True)
class SiegelVerdict:
    verdict: str                 # 'S' | 'H' | 'indeterminate'
    tau: AlgebraicReal
    witness: AlgebraicReal | None  # conjugate with q > 4 for 'S', tau itself for 'H'


def siegel_test(tau: AlgebraicReal, q: QFunction) -> SiegelVerdict:
    """Apply the Siegel/hyperbolic criterion at tau with the given q.

    Preconditions checked exactly: tau's defining polynomial contains a
    Salem-trace factor through tau (so tau is conjugate to a Salem number),
    and q(tau) is not 0 or 4 (else the verdict is 'indeterminate').
    """
    minimal = tau.minpoly
    if not is_salem_trace(minimal):
        raise ValueError("tau must be a root of a Salem trace polynomial")
    if not (-2 < tau < 2):
        raise ValueError("tau must lie in (-2, 2)")
    conjugates = ranked_roots(minimal)
    i = root_index(tau, conjugates)
    den, num, over4 = (signs_at_roots(p, minimal) for p in (
        q.denominator, q.numerator, q.numerator - IntPoly.const(4) * q.denominator))
    if den[i] == 0:
        raise ZeroDivisionError("q has a pole at tau")
    if num[i] * den[i] <= 0 or over4[i] == 0:
        # q(tau) in {0, 4} is degenerate; q(tau) < 0 is outside the criterion
        return SiegelVerdict("indeterminate", tau, None)
    if over4[i] * den[i] > 0:
        return SiegelVerdict("H", tau, tau)
    lo, hi = endpoint_keys()
    for j, (key, conj) in enumerate(conjugates):
        if j != i and lo < key < hi and over4[j] * den[j] > 0:
            return SiegelVerdict("S", tau, conj)
    return SiegelVerdict("indeterminate", tau, None)


TAU0 = AlgebraicReal(IntPoly((-7, -2, 1)), (Fraction(-2), Fraction(0)))  # 1 - 2 sqrt 2


def threshold_classify_deg22(tau: AlgebraicReal) -> str:
    """Shortcut for degree-11 Salem traces: S iff tau > 1 - 2 sqrt(2).

    Equivalent to siegel_test with the fixed-point q, whose value crosses 4
    exactly at tau0 on (-2, 2); the agreement is asserted, and siegel_test
    checks the other preconditions.  On (-2, 2), tau0's minimal polynomial
    w^2 - 2w - 7 = (w+1)^2 - 4(w+2) is negative above tau0, positive below.
    """
    minimal = tau.minpoly
    if minimal.degree != 11:
        raise ValueError("tau must be a root in (-2,2) of a degree-11 Salem trace polynomial")
    full = siegel_test(tau, builtin_q("fixed_point"))
    conjugates = ranked_roots(minimal)
    i = root_index(tau, conjugates)
    signs = signs_at_roots(TAU0.minpoly, minimal)
    lo, hi = endpoint_keys()
    below = any(lo < key < hi and signs[j] > 0 for j, (key, _r) in enumerate(conjugates))
    out = "H" if signs[i] > 0 else "S" if signs[i] < 0 and below else "indeterminate"
    if full.verdict != out:
        raise AssertionError("threshold shortcut disagrees with the full Siegel test")
    return out


def verify_D_identity() -> bool:
    """The closed form of the holomorphic fixed-point sum.

    D(z) := (1+z) - [ sum_{j=1..4} z/(1-(z^-j+z^(j+1))+z)
                    + sum_{j=1,2} z/(1-(z^-j+z^(j+1))+z)
                    + z/(1-(z^-1+z^2)+z) + z(z+1)/(z-1)^2 ]
    equals L(z) / ((z+1) C_1(z) C_3(z) C_5(z)) with C_1 = (z-1)^2, and in
    trace form z * LT(w) / ((z+1) CT_1(w) CT_3(w) CT_5(w)) with w = z + 1/z.
    Returns True when both identities hold as exact rational functions.  No
    caller in the package: kept as the paper's identity, which the acceptance
    tests check (criterion 9).
    """
    lhs = _RatZ.of(IntPoly((1, 1)))
    total = _RatZ.zero()
    for j in list(range(1, 5)) + [1, 2] + [1]:
        # z / (1 - (z^-j + z^(j+1)) + z): clear z^j from the denominator
        num = IntPoly.monomial(j + 1, 1)
        den = (IntPoly.monomial(j, 1) + IntPoly.monomial(j + 1, 1)
               - IntPoly.one() - IntPoly.monomial(2 * j + 1, 1))
        total = total + _RatZ(num, den)
    total = total + _RatZ(IntPoly((0, 1, 1)), IntPoly((1, -2, 1)))  # z(z+1)/(z-1)^2
    d = lhs - total
    closed = _RatZ(lehmer(),
                   IntPoly((1, 1)) * cyclotomic(1, "squared")
                   * cyclotomic(3) * cyclotomic(5))
    if not d.equals(closed):
        return False
    # w-form z LT(w) / ((z+1) CT_1 CT_3 CT_5) at w = z + 1/z, where
    # p(z + 1/z) = palindromic_expand(p) / z^deg(p)
    def in_z(p: IntPoly) -> _RatZ:
        return _RatZ(palindromic_expand(p), IntPoly.monomial(p.degree))

    num_w = _RatZ.of(IntPoly((0, 1))) * in_z(lehmer_trace())
    den_w = (_RatZ.of(IntPoly((1, 1)))
             * in_z(cyclotomic_trace(1)) * in_z(cyclotomic_trace(3)) * in_z(cyclotomic_trace(5)))
    w_form = num_w / den_w
    return w_form.equals(closed)


class _RatZ:
    """Minimal exact rational-function arithmetic over Z[z]."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero():
            raise ZeroDivisionError
        g = poly_gcd(num, den) if not num.is_zero() else den
        if g.degree > 0 or abs(g.constant()) > 1:
            num = num.divexact(g) if not num.is_zero() else num
            den = den.divexact(g)
        if den.leading() < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @staticmethod
    def of(p: IntPoly) -> "_RatZ":
        return _RatZ(p, IntPoly.one())

    @staticmethod
    def zero() -> "_RatZ":
        return _RatZ(IntPoly.zero(), IntPoly.one())

    def __add__(self, other):
        return _RatZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return _RatZ(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _RatZ(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return _RatZ(self.num * other.den, self.den * other.num)

    def equals(self, other) -> bool:
        return self.num * other.den == other.num * self.den

