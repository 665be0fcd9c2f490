"""Hypergeometric lattices: Gram matrices, companion actions, unimodularity.

For a coprime anti-palindromic/palindromic monic pair (phi, psi) of equal
degree n, the lattice carries the unique even invariant form with
(r, r) = 2.  In the basis r, Ar, ..., A^(n-1) r the Gram matrix is the
Toeplitz matrix of the Taylor coefficients of psi(z)/phi(z) at infinity,
A acts as the companion matrix of phi, C is the reflection in r, and
B = A C acts with characteristic polynomial psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .polyring import IntPoly, palindrome_class, resultant, resultant_relation


def taylor_coeffs(phi: IntPoly, psi: IntPoly, count: int) -> list[int]:
    """xi_1 .. xi_count with psi(z)/phi(z) = 1 + sum xi_i z^(-i) at infinity.

    Exact long division; xi_0 = 2 by convention and is not returned.  The
    sequence obeys the linear recurrence with characteristic polynomial phi
    once i exceeds deg psi.
    """
    if phi.degree != psi.degree:
        raise ValueError("phi and psi must have equal degree")
    if not phi.is_monic():
        raise ValueError("phi must be monic")
    n = phi.degree
    # coefficient of z^(n-m): f[m]
    f = list(reversed(phi.coeffs))
    g = list(reversed(psi.coeffs))
    xi = [0] * (count + 1)
    for m in range(1, count + 1):
        acc = (g[m] if m <= n else 0) - (f[m] if m <= n else 0)
        for i in range(1, m):
            fm = f[m - i] if m - i <= n else 0
            acc -= xi[i] * fm
        xi[m] = acc
    return xi[1:]


def companion(f: IntPoly) -> list[list[int]]:
    """Companion matrix with 1s on the subdiagonal and -coeffs in the last column;
    the monic constant 1 gives the empty matrix."""
    if not f.is_monic():
        raise ValueError("companion matrix needs a monic polynomial")
    n = f.degree
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = -f.coeffs[i]
    return m


@dataclass(frozen=True)
class HgLattice:
    """The lattice of a hypergeometric pair, everything in the A-basis."""

    phi: IntPoly
    psi: IntPoly
    n: int
    xi: tuple[int, ...]       # xi_1 .. xi_{n-1}; xi_0 = 2
    eta: tuple[int, ...]      # B-side sequence from phi/psi

    @cached_property
    def gram_a(self) -> list[list[int]]:
        return _toeplitz(self.xi, self.n)

    @cached_property
    def disc(self) -> int:
        return linalg.bareiss_det(self.gram_a)

    @cached_property
    def gram_b(self) -> list[list[int]]:
        return _toeplitz(self.eta, self.n)

    @cached_property
    def mat_a(self) -> list[list[int]]:
        return companion(self.phi)

    @cached_property
    def mat_c(self) -> list[list[int]]:
        # C(A^j r) = A^j r - xi_j r, with xi_0 = 2
        n = self.n
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        seq = (2,) + self.xi
        for j in range(n):
            m[0][j] -= seq[j]
        return m

    @cached_property
    def mat_b(self) -> list[list[int]]:
        return linalg.mat_mul(self.mat_a, self.mat_c)

    def xi_extended(self, side: str, count: int) -> list[int]:
        """(F^i r, r) for i = 0 .. count, extending past the stored window."""
        num, den = (self.psi, self.phi) if side == "A" else (self.phi, self.psi)
        return [2] + taylor_coeffs(den, num, count)


def _toeplitz(seq: tuple[int, ...], n: int) -> list[list[int]]:
    full = (2,) + tuple(seq)
    return [[full[abs(i - j)] for j in range(n)] for i in range(n)]


def build_lattice(phi: IntPoly, psi: IntPoly) -> HgLattice:
    """Construct the lattice, validating every precondition individually."""
    if not phi.is_monic():
        raise ValueError("phi must be monic")
    if not psi.is_monic():
        raise ValueError("psi must be monic")
    if phi.degree != psi.degree or phi.degree < 1:
        raise ValueError("phi and psi must have equal degree >= 1")
    if palindrome_class(phi) != "anti_palindromic":
        raise ValueError("phi must be anti-palindromic")
    if palindrome_class(psi) != "palindromic":
        raise ValueError("psi must be palindromic")
    if resultant(phi, psi) == 0:
        raise ValueError("phi and psi must be coprime")
    n = phi.degree
    xi = tuple(taylor_coeffs(phi, psi, n - 1))
    eta = tuple(taylor_coeffs(psi, phi, n - 1))
    return HgLattice(phi, psi, n, xi, eta)


def is_unimodular(phi: IntPoly, psi: IntPoly) -> bool:
    """Unimodularity test via the trace-polynomial criterion.

    Even rank: |Res(phi, psi)| = 1, which by the resultant identity
    Res(phi, psi) = +-Psi(2) Psi(-2) Res(Phi, Psi)^2 holds exactly when
    Psi(+-2) = +-1 and Res(Phi, Psi) = +-1; the whole identity is checked on
    every call.  Odd rank lattices are never unimodular.  Both resultants
    come from the subresultant PRS and take about 0.3 ms together at rank 22.
    """
    if phi.degree % 2 == 1:
        return False
    lhs, rhs = resultant_relation(phi, psi)
    if lhs != rhs:
        raise AssertionError("resultant identity fails; arithmetic bug")
    return abs(lhs) == 1


def signature_oracle(gram) -> tuple[int, int]:
    """Exact signature (p, q) of a symmetric nondegenerate integer matrix."""
    return linalg.signature(gram)
