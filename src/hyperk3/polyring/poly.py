"""Dense univariate polynomials over the integers, exactly.

``IntPoly`` stores arbitrary-precision integer coefficients, constant term
first, with no trailing zeros; the zero polynomial is the empty tuple.  The
variable name is purely presentational (``z`` for characteristic
polynomials, ``w`` for trace polynomials); the arithmetic does not care.

On top of the ring operations this module provides the palindrome /
anti-palindrome tests, the degree-halving trace-polynomial transform
w = z + 1/z and its inverse expansion (both directions rest on one identity:
for palindromic f of degree 2d, z^-d f = f_d + sum_(j=1..d) f_(d+j) P_j(w)
with P_j(z + 1/z) = z^j + z^-j), resultants by the subresultant PRS,
cyclotomic and cyclotomic-trace polynomials in both the standard and the
squared convention, squarefree (Yun) decomposition, Newton power sums, the
stripping of known monic factors (cyclotomics here, the root catalog in
``roots``), and the cyclotomic/Salem factor classifier.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable


class IntPoly:
    """Immutable integer polynomial, coefficients constant-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):  # trims trailing zeros
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for x in c:
            if not isinstance(x, int):
                raise TypeError(f"integer coefficients required, got {x!r}")
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return (IntPoly, (self.coeffs,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPoly":
        if k < 0:
            raise ValueError("negative exponent")
        return IntPoly((0,) * k + (c,))

    @staticmethod
    def variable() -> "IntPoly":
        return IntPoly((0, 1))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def trace(self) -> int:
        """Minus the subleading coefficient of a monic polynomial: the root sum."""
        if not self.is_monic():
            raise ValueError("trace is defined for monic polynomials")
        if self.degree == 0:
            return 0
        return -self.coeffs[-2]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == IntPoly.const(other).coeffs
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "IntPoly":
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def divmod_exact(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient and remainder over Q, demanding integer results.

        Raises ValueError when the division does not stay in Z[x].
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lc = divisor.leading()
        rem = list(self.coeffs)
        dd = divisor.degree
        qn = len(rem) - dd
        if qn <= 0:
            return IntPoly.zero(), self
        quot = [0] * qn
        for i in range(qn - 1, -1, -1):
            head = rem[i + dd]
            if head % lc != 0:
                raise ValueError("division not exact over the integers")
            q = head // lc
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return IntPoly(quot), IntPoly(rem)

    def divexact(self, divisor: "IntPoly") -> "IntPoly":
        q, r = self.divmod_exact(divisor)
        if not r.is_zero():
            raise ValueError("polynomial does not divide exactly")
        return q

    # -- calculus / evaluation ---------------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = 0 if not isinstance(x, IntPoly) else IntPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "IntPoly") -> "IntPoly":
        acc = IntPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def sign_at(self, x) -> int:
        """Sign of the value at a rational point, integer arithmetic only.

        Uses the homogeneous Horner scheme f(a/b) * b^deg.
        """
        num = x.numerator
        den = x.denominator
        acc = 0
        dp = 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * dp
            dp *= den
        return (acc > 0) - (acc < 0)

    # -- content / gcd ------------------------------------------------------

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Divided by its content, and then with a positive leading coefficient if the
        content was > 1; a content-1 or zero polynomial is returned as it is."""
        c = self.content()
        if c in (0, 1):
            return self
        sign = 1 if self.leading() > 0 else -1
        return IntPoly(tuple(x // (sign * c) for x in self.coeffs))

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

    def reversed_coeffs(self) -> "IntPoly":
        """x^deg * f(1/x)."""
        return IntPoly(tuple(reversed(self.coeffs)))

    # -- display ------------------------------------------------------------

    def format(self, var: str = "z") -> str:
        """Canonical human form: descending powers, explicit signs."""
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = var if mag == 1 else f"{mag}*{var}"
            else:
                body = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({self.format('x')!r})"


# ---------------------------------------------------------------------------
# gcd and squarefree structure
# ---------------------------------------------------------------------------


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x], up to sign: the leading coefficient may be negative,
    as ``primitive`` keeps a content-1 polynomial's sign (and so may Yun's parts)."""
    if f.is_zero():
        return g.primitive() if not g.is_zero() else IntPoly.zero()
    if g.is_zero():
        return f.primitive()
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive() if not r.is_zero() else IntPoly.zero()
    return a.primitive()


def _pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder: rem(lc(g)^(df-dg+1) * f, g), exact in Z[x]."""
    if f.degree < g.degree:
        return f
    return IntPoly(_prem(f.coeffs, g.coeffs))


def _prem(a, b) -> list[int]:
    """_pseudo_rem on coefficient sequences (constant first, deg a >= deg b >= 0)."""
    lc = b[-1]
    db = len(b) - 1
    steps = len(a) - db
    scale = lc ** steps
    rem = [c * scale for c in a]
    for i in range(steps - 1, -1, -1):
        q, r = divmod(rem[i + db], lc)
        if r:
            raise ArithmeticError("pseudo-remainder broke exactness")
        if q:
            for j in range(db):
                rem[i + j] -= q * b[j]
    del rem[db:]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


@lru_cache(maxsize=32)
def squarefree_decomposition(f: IntPoly) -> tuple[tuple[IntPoly, int], ...]:
    """Yun's algorithm: ((g_i, i), ...) with f = content * prod g_i^i, g_i squarefree, coprime."""
    if f.degree <= 0:
        return ()
    f = f.primitive()
    out: list[tuple[IntPoly, int]] = []
    g = poly_gcd(f, f.derivative())
    c = f.divexact(g)
    d = f.derivative().divexact(g) - c.derivative()
    i = 1
    while c.degree > 0:
        p = poly_gcd(c, d)
        if p.degree > 0:
            out.append((p, i))
        c = c.divexact(p)
        d = d.divexact(p) - c.derivative()
        i += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)  # bounded: a scan or a query loop meets new pairs without end
def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant by the subresultant PRS, sign included.

    Convention: Res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots of f,
    which is det of the Sylvester matrix.  Degree-zero conventions:
    Res(c, g) = c^deg(g), Res(f, c) = c^deg(f), Res(c, d) = 1.

    Collins' subresultant pseudo-remainder sequence (Collins 1967,
    Brown-Traub 1971) as in Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 3.3.7, whose g and h are lg and lh here.  Every division by
    lg * lh^delta and every update of lh is exact in Z, so the coefficients
    stay as small as the subresultants; an inexact one raises ArithmeticError.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if f.degree == 0:
        return f.constant() ** g.degree
    if g.degree == 0:
        return g.constant() ** f.degree
    a, b = f.content(), g.content()
    t = a ** g.degree * b ** f.degree
    A = [c // a for c in f.coeffs]
    B = [c // b for c in g.coeffs]
    s = 1
    if len(A) < len(B):
        A, B = B, A
        if len(A) % 2 == 0 and len(B) % 2 == 0:  # both degrees odd
            s = -1
    lg = lh = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if len(A) % 2 == 0 and len(B) % 2 == 0:
            s = -s
        R = _prem(A, B)
        div = lg * lh ** delta
        A, B = B, [_exact_div(c, div) for c in R]
        lg = A[-1]
        if delta:
            lh = _exact_div(lg ** delta, lh ** (delta - 1))
    if not B:
        return 0
    d = len(A) - 1
    return s * t * _exact_div(B[-1] ** d, lh ** (d - 1))


def _exact_div(x: int, y: int) -> int:
    q, r = divmod(x, y)
    if r:
        raise ArithmeticError("subresultant division broke exactness")
    return q


# ---------------------------------------------------------------------------
# palindromes and the trace-polynomial transform
# ---------------------------------------------------------------------------


def palindrome_class(f: IntPoly) -> str:
    """'palindromic', 'anti_palindromic' or 'neither' (z^n f(1/z) vs f)."""
    if f.is_zero():
        raise ValueError("zero polynomial has no palindrome class")
    rev = f.reversed_coeffs()
    if rev == f:
        return "palindromic"
    if rev == -f:
        return "anti_palindromic"
    return "neither"


@lru_cache(maxsize=64)  # bounded: an uncached call costs O(j^2) operations, a cached one none
def pair_power(j: int) -> IntPoly:
    """P_j with P_j(z + 1/z) = z^j + z^-j: P_0 = 2, P_1 = w, P_{j+1} = w P_j - P_{j-1}."""
    if j < 0:
        raise ValueError("negative index")
    for p in _pair_powers(j):
        pass
    return IntPoly(p)


def _pair_powers(n: int):
    """The coefficient lists of P_0 .. P_n, built by the recurrence one after another."""
    prev, cur = [2], [0, 1]
    yield prev
    for _ in range(n):
        yield cur
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt


def trace_poly(f: IntPoly) -> IntPoly:
    """The F with f(z) = z^d F(z + 1/z), for palindromic f of even degree 2d.

    A palindromic f has z^-d f = f_d + sum_(j=1..d) f_(d+j) (z^j + z^-j), and
    z^j + z^-j = P_j(z + 1/z) (see pair_power), so F = f_d + sum_j f_(d+j) P_j:
    O(d^2) integer operations, with the P_j made in turn by the recurrence.
    """
    if palindrome_class(f) != "palindromic" or f.degree % 2 != 0:
        raise ValueError("trace polynomial needs a palindromic polynomial of even degree")
    d = f.degree // 2
    out = [0] * (d + 1)
    out[0] = f.coeffs[d]
    for j, p in enumerate(_pair_powers(d)):
        c = f.coeffs[d + j] if j else 0
        if c:
            for i, x in enumerate(p):
                out[i] += c * x
    return IntPoly(out)


def palindromic_expand(F: IntPoly) -> IntPoly:
    """z^deg(F) * F(z + 1/z), the palindromic polynomial with trace polynomial F.

    With d = deg F, z^d (z + 1/z)^j = sum_i comb(j, i) z^(d-j+2i); each
    binomial comes from the one before it, comb(j, i+1) = comb(j, i) (j-i)/(i+1).
    """
    if F.is_zero():
        return F
    d = F.degree
    out = [0] * (2 * d + 1)
    for j, a in enumerate(F.coeffs):
        if a:
            for i in range(j + 1):
                out[d - j + 2 * i] += a
                a = a * (j - i) // (i + 1)
    return IntPoly(out)


@lru_cache(maxsize=32)
def trace_polynomial_pair(phi: IntPoly, psi: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Degree-halved pair (Phi, Psi) for an anti-palindromic/palindromic pair.

    Even degree n = 2N:  phi = (z^2-1) z^(N-1) Phi(z+1/z),  psi = z^N Psi(z+1/z).
    Odd degree n = 2N+1: phi = (z-1) z^N Phi(z+1/z),  psi = (z+1) z^N Psi(z+1/z).
    Round-trips exactly; mismatched degrees or palindrome classes are rejected.
    """
    if phi.degree != psi.degree or phi.degree < 1:
        raise ValueError("phi and psi must have equal positive degree")
    if phi.constant() * psi.constant() == 0:
        raise ValueError("phi and psi must have nonzero constant term")
    if palindrome_class(phi) != "anti_palindromic":
        raise ValueError("phi must be anti-palindromic: z^n phi(1/z) = -phi(z) fails")
    if palindrome_class(psi) != "palindromic":
        raise ValueError("psi must be palindromic: z^n psi(1/z) = psi(z) fails")
    n = phi.degree
    if n % 2 == 0:
        core = phi.divexact(IntPoly((-1, 0, 1)))  # z^2 - 1
        Phi = trace_poly(core) if core.degree > 0 else core
        Psi = trace_poly(psi)
    else:
        core = phi.divexact(IntPoly((-1, 1)))  # z - 1
        Phi = trace_poly(core)
        Psi = trace_poly(psi.divexact(IntPoly((1, 1))))  # z + 1
    return Phi, Psi


def pair_from_trace(Phi: IntPoly, Psi: IntPoly, parity: str = "even") -> tuple[IntPoly, IntPoly]:
    """Inverse of trace_polynomial_pair: rebuild (phi, psi) of rank 2N or 2N+1."""
    if parity == "even":
        if Psi.degree != Phi.degree + 1:
            raise ValueError("even rank needs deg Psi = deg Phi + 1")
        phi = IntPoly((-1, 0, 1)) * palindromic_expand(Phi)
        psi = palindromic_expand(Psi)
    elif parity == "odd":
        if Psi.degree != Phi.degree:
            raise ValueError("odd rank needs deg Psi = deg Phi")
        phi = IntPoly((-1, 1)) * palindromic_expand(Phi)
        psi = IntPoly((1, 1)) * palindromic_expand(Psi)
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    return phi, psi


def resultant_relation(phi: IntPoly, psi: IntPoly) -> tuple[int, int]:
    """Both sides of the resultant identity linking (phi, psi) and (Phi, Psi).

    Even n = 2N:  Res(phi, psi) = (-1)^N Psi(2) Psi(-2) Res(Phi, Psi)^2.
    Odd n = 2N+1: Res(phi, psi) = 2 (-1)^N Psi(2) Phi(-2) Res(Phi, Psi)^2.
    Returns (lhs, rhs); equal on every valid input, exposed for testing.
    """
    Phi, Psi = trace_polynomial_pair(phi, psi)
    n = phi.degree
    lhs = resultant(phi, psi)
    r = resultant(Phi, Psi) if not (Phi.degree < 1 and Psi.degree < 1) else 1
    if n % 2 == 0:
        N = n // 2
        rhs = (-1) ** N * Psi(2) * Psi(-2) * r * r
    else:
        N = (n - 1) // 2
        rhs = 2 * (-1) ** N * Psi(2) * Phi(-2) * r * r
    return lhs, rhs


# ---------------------------------------------------------------------------
# cyclotomic machinery
# ---------------------------------------------------------------------------


def euler_phi(k: int) -> int:
    if k < 1:
        raise ValueError("totient needs k >= 1")
    out = k
    m = k
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=128)
def _cyclotomic_standard(k: int) -> IntPoly:
    if k == 1:
        return IntPoly((-1, 1))
    f = IntPoly.monomial(k, 1) - 1  # z^k - 1
    for d in range(1, k):
        if k % d == 0:
            f = f.divexact(_cyclotomic_standard(d))
    return f


def cyclotomic(k: int, convention: str = "standard") -> IntPoly:
    """k-th cyclotomic polynomial.

    'standard' gives the irreducible C_k; 'squared' replaces the degree-one
    cases by (z-1)^2 and (z+1)^2 so that every C_k is palindromic of even
    degree phi(k), with phi(1) = phi(2) = 2 by the same convention.
    """
    if k < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if convention == "squared" and k <= 2:
        return _cyclotomic_standard(k) ** 2
    if convention not in ("standard", "squared"):
        raise ValueError("convention must be 'standard' or 'squared'")
    return _cyclotomic_standard(k)


def totient_degree(k: int) -> int:
    """Degree of the k-th cyclotomic trace polynomial (phi(k)/2, phi(1)=phi(2)=2)."""
    return 1 if k <= 2 else euler_phi(k) // 2


@lru_cache(maxsize=128)
def cyclotomic_trace(k: int) -> IntPoly:
    """CT_k with z^(phi(k)/2) CT_k(z + 1/z) = C_k (squared convention)."""
    return trace_poly(cyclotomic(k, "squared"))


def is_unramified(p: IntPoly, variable: str = "w") -> bool:
    """|p(2)| = |p(-2)| = 1 in the w picture, |p(1)| = |p(-1)| = 1 in the z picture."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if variable == "w":
        return abs(p(2)) == 1 and abs(p(-2)) == 1
    if variable == "z":
        return abs(p(1)) == 1 and abs(p(-1)) == 1
    raise ValueError("variable must be 'z' or 'w'")


def cyclotomic_indices_up_to_degree(max_degree: int) -> tuple[int, ...]:
    """All k with deg CT_k <= max_degree (k = 1, 2 plus the finite tail)."""
    return _cyclotomic_indices(2 * max_degree) if max_degree >= 1 else ()


@lru_cache(maxsize=32)
def _cyclotomic_indices(totient_bound: int) -> tuple[int, ...]:
    """1, 2 and every k >= 3 with phi(k) <= totient_bound."""
    bound = 2 * totient_bound ** 2 + 4  # phi(k) >= sqrt(k/2) makes the tail finite
    return (1, 2) + tuple(k for k in range(3, bound + 1) if euler_phi(k) <= totient_bound)


# ---------------------------------------------------------------------------
# Newton power sums
# ---------------------------------------------------------------------------


def newton_power_sum(chi: IntPoly, m: int) -> int:
    """m-th power sum of the roots of a monic polynomial, by Newton's identities."""
    if not chi.is_monic():
        raise ValueError("monic polynomial required")
    if m < 1:
        raise ValueError("power sum index must be >= 1")
    n = chi.degree
    e = [1] + [0] * n
    for i in range(1, n + 1):
        e[i] = (-1) ** i * chi.coeffs[n - i]
    p = [0] * (m + 1)
    for k in range(1, m + 1):
        s = 0
        for i in range(1, min(k, n) + 1):
            s += (-1) ** (i - 1) * e[i] * (p[k - i] if k > i else 0)
        if k <= n:
            s += (-1) ** (k - 1) * k * e[k]
        p[k] = s
    return p[m]


# Every root of a cyclotomic polynomial, of a CT_k or of LT has absolute value
# below 3, so none of them vanishes at _PROBE, and a monic factor that divides
# a polynomial divides its value there.
_PROBE = 2 ** 64


def _strip_factors(coeffs: tuple, factors) -> tuple[tuple[tuple[int, int], ...], IntPoly]:
    """((index, multiplicity), ...) of the monic ``factors`` dividing a polynomial, and the residual.

    ``factors`` holds (factor, factor(_PROBE)) pairs.  Each factor is divided
    out exactly as often as it divides, tried only while its value at _PROBE
    divides the polynomial's: most factors cost one integer remainder.
    """
    at = IntPoly(coeffs)(_PROBE)
    rest = list(coeffs)
    found = []
    for i, (factor, value) in enumerate(factors):
        mult = 0
        while at % value == 0 and (quot := _divide_monic(rest, factor.coeffs)) is not None:
            rest, at, mult = quot, at // value, mult + 1
        if mult:
            found.append((i, mult))
    return tuple(found), IntPoly(rest)


def _divide_monic(a: list, b: tuple) -> list | None:
    """The quotient of coefficient lists a / b for monic b, or None if b does not divide a."""
    if len(a) < len(b):
        return None
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + db]
        if q:
            for j in range(db):
                rem[i + j] -= q * b[j]
    return quot if not any(rem[:db]) else None


# ---------------------------------------------------------------------------
# factor classification: cyclotomic / Salem / other
# ---------------------------------------------------------------------------

CYCLOTOMIC_TAG = "cyclotomic"
SALEM_TAG = "salem"
OTHER_TAG = "other"


class FactorList:
    """Factors of a monic polynomial with unit constant term, tagged by kind.

    factors: list of (poly, multiplicity, tag) with tag one of
    ('cyclotomic', k) | ('salem', None) | ('other', None).
    The product of poly^multiplicity recovers the input.
    """

    def __init__(self, factors):
        self.factors = list(factors)

    def product(self) -> IntPoly:
        out = IntPoly.one()
        for poly, mult, _tag in self.factors:
            out = out * poly ** mult
        return out

    def cyclotomic_part(self) -> list[tuple[int, int]]:
        return sorted((tag[1], mult) for _p, mult, tag in self.factors if tag[0] == CYCLOTOMIC_TAG)

    def salem_factors(self) -> list[IntPoly]:
        return [p for p, _m, tag in self.factors if tag[0] == SALEM_TAG]

    def other_factors(self) -> list[IntPoly]:
        return [p for p, _m, tag in self.factors if tag[0] == OTHER_TAG]

    def all_cyclotomic(self) -> bool:
        return all(tag[0] == CYCLOTOMIC_TAG for _p, _m, tag in self.factors)


def _salem_shape(g: IntPoly) -> bool:
    """Salem test for a squarefree candidate with cyclotomic part stripped.

    Palindromic of even degree whose trace polynomial is a Salem trace.  For
    such g the trace polynomial is squarefree with no root at +-2, so no
    root sits on the boundary of (-2, 2).  Irreducibility comes for free once
    every cyclotomic divisor is gone (a palindromic factor with all roots on
    the unit circle would be a product of cyclotomics).
    """
    from .roots import is_salem_trace  # local import to avoid cycle

    if g.degree < 4 or g.degree % 2 != 0 or palindrome_class(g) != "palindromic":
        return False
    return is_salem_trace(trace_poly(g))


@lru_cache(maxsize=32)
def _cyclotomic_table(totient_bound: int) -> tuple:
    """(C_k, C_k(_PROBE)) for the k of ``_cyclotomic_indices``, built once per bound."""
    return tuple((c, c(_PROBE)) for c in map(cyclotomic, _cyclotomic_indices(totient_bound)))


def classify_product(f: IntPoly) -> FactorList:
    """Split off cyclotomic divisors and recognize a Salem remainder.

    Factors are tagged with their cyclotomic index, in increasing order; k = 1, 2
    are the standard z-1 and z+1.  ``_strip_factors``, which also splits over the
    root catalog, divides only by the cyclotomics whose value at _PROBE divides f's.
    """
    if not f.is_monic():
        raise ValueError("monic input required")
    ks, table = _cyclotomic_indices(f.degree), _cyclotomic_table(f.degree)
    found, rest = _strip_factors(f.coeffs, table)
    factors = [(table[i][0], mult, (CYCLOTOMIC_TAG, ks[i])) for i, mult in found]
    if rest.degree > 0:
        for part, mult in squarefree_decomposition(rest):
            tag = SALEM_TAG if mult == 1 and _salem_shape(part) else OTHER_TAG
            factors.append((part, mult, (tag, None)))
    return FactorList(factors)
