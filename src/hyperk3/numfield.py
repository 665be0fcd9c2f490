"""Units in Salem trace rings and the lattice-in-number-field comparison.

Given an even unimodular lattice with an isometry F whose characteristic
polynomial is an irreducible palindromic S(z) of degree 2N and a cyclic
vector r, the lattice is isomorphic to Z[z]/(S) with the trace form

    (g1, g2) = Tr^K_Q( U(w) g1(z) g2(1/z) / R'(w) ),   w = z + 1/z,

for a unique unit U(w) of Z[w]/(R).  The coefficients of U come out of a
triangular integer recurrence driven by the pairings (F^j r, r); the
converse direction rebuilds the reflection C in the vector 1 and recovers
the companion pair, hence the degree-halved polynomial of the second
generator.  Both directions evaluate traces by Euler's formula
Tr(g(w) / R'(w)) = [g]_R, the coefficient of w^(N-1) in g mod R, for
squarefree R (Serre, Local Fields, III 6), in integer arithmetic; no
number-field package is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .polyring import IntPoly, pair_power, palindrome_class, poly_gcd, trace_poly
from .polyring.roots import AlgebraicReal, endpoint_keys, ranked_roots, root_index, signs_at_roots


def _rem_top_coeff(g: IntPoly, R: IntPoly) -> int:
    """[g]_R: the coefficient of w^(N-1) in g mod R, guaranteed integral."""
    q, r = g.divmod_exact(R)
    n = R.degree
    return r.coeffs[n - 1] if r.degree == n - 1 else 0


@dataclass(frozen=True)
class UnitData:
    U: IntPoly
    R: IntPoly
    u: tuple[int, ...]          # u_1 .. u_N, leading coefficient first
    c_matrix: tuple             # c[j][k], 1-based triangular data as a tuple of rows


def unit_from_gram(gram_row, R: IntPoly) -> UnitData:
    """Solve the triangular recurrence for U(w) from (F^(j-1) r, r), j = 1..N.

    u_1 = (r, r)/2 and u_j = (F^(j-1) r, r) - sum_(k<j) c_jk u_k with
    c_jk = [P_(j-1) w^(N-k)]_R.  Raises if any u_j fails to be an integer
    (which would mean the Gram data does not come from a unimodular pair).
    """
    n = R.degree
    if not R.is_monic() or n < 1:
        raise ValueError("R must be monic of positive degree")
    if len(gram_row) != n:
        raise ValueError(f"need the pairings (F^j r, r) for j = 0..{n - 1}")
    if gram_row[0] % 2:
        raise ValueError("(r, r) must be even")
    c = _c_matrix(R)
    u = [gram_row[0] // 2]
    for j in range(1, n):
        u.append(gram_row[j] - sum(c[j][k] * u[k] for k in range(j)))
    U = IntPoly(tuple(reversed(u)))  # u_1 w^(N-1) + ... + u_N
    return UnitData(U, R, tuple(u), c)


@lru_cache(maxsize=32)
def _c_matrix(R: IntPoly) -> tuple:
    """c_jk = [P_(j-1) w^(N-k)]_R as 0-based rows, once per R: lower triangular,
    with c_jj = 1 for j >= 2 (c_11 = 2, hence u_1 = (r, r)/2)."""
    n = R.degree
    c = tuple(tuple(_rem_top_coeff(pair_power(j) * IntPoly.monomial(n - 1 - k, 1), R)
                    for k in range(n)) for j in range(n))
    if any(c[j][j] != 1 for j in range(1, n)):
        raise AssertionError("c_jj must be 1")
    if any(any(row[j + 1:]) for j, row in enumerate(c)):
        raise AssertionError("c_jk must vanish above the diagonal")
    return c


def multiplication_matrix(g: IntPoly, modulus: IntPoly):
    """Matrix of multiplication by g on the power basis of Z[x]/(modulus)."""
    n = modulus.degree
    cols = []
    for i in range(n):
        _, r = (g * IntPoly.monomial(i, 1)).divmod_exact(modulus)
        col = list(r.coeffs) + [0] * (n - len(r.coeffs))
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def verify_unit(U: IntPoly, R: IntPoly, tau: AlgebraicReal | None = None):
    """Unit check plus, optionally, the compatibility condition at tau.

    Returns (ok, reason): det of multiplication by U mod R must be +-1; when
    tau is given, U(tau) R'(tau) > 0 must hold and tau must be the only root
    of R in (-2, 2) with that sign, read off root order (``signs_at_roots``).
    """
    if U.degree >= R.degree:
        return False, "deg U must be below deg R"
    if U.is_zero():
        return False, "U = 0 is not a unit"
    det = linalg.bareiss_det(multiplication_matrix(U, R))
    if abs(det) != 1:
        return False, f"multiplication by U has determinant {det}"
    if tau is not None:
        lo, hi = endpoint_keys()
        ranked = ranked_roots(R)
        su, sr = signs_at_roots(U, R), signs_at_roots(R.derivative(), R)
        hits = [i for i, (key, _r) in enumerate(ranked) if lo < key < hi and su[i] * sr[i] > 0]
        if len(hits) != 1:
            return False, f"{len(hits)} roots satisfy U(t) R'(t) > 0 in (-2, 2)"
        if root_index(tau, ranked) != hits[0]:
            return False, "the positive-sign root differs from tau"
    return True, None


def _trace_sequence(U: IntPoly, S: IntPoly, count: int) -> list[int]:
    """t_k = (1, z^k) = (z^k, 1) under the trace form, for k = 0 .. count <= deg S.

    Tr^K_Q = Tr_Q(w) o Tr_K/Q(w) and Tr_K/Q(w)(z^k) = z^k + z^-k = P_k(w),
    so Euler's formula gives t_k = Tr(U P_k / R') = [U P_k]_R with
    R = trace_poly(S).  The formula holds when R is squarefree, which is
    also when R'(w) is invertible in Z[z]/(S).  [g]_R is linear in g, so
    t_k is the dot product of U P_k's coefficients with s_m = [w^m]_R.
    """
    if (not S.is_monic() or S.degree < 2 or S.degree % 2
            or palindrome_class(S) != "palindromic"):
        raise ValueError("S must be monic and palindromic of positive even degree")
    if not 0 <= count <= S.degree:
        raise ValueError("count must lie in 0 .. deg S")
    R = trace_poly(S)
    s = _power_traces(R)
    if U.degree >= R.degree:
        U = U.divmod_exact(R)[1]  # [g]_R depends on g mod R only
    return [sum(c * x for c, x in zip((U * pair_power(k)).coeffs, s)) for k in range(count + 1)]


@lru_cache(maxsize=32)
def _power_traces(R: IntPoly) -> tuple[int, ...]:
    """s_m = [w^m]_R for m = 0 .. 3N - 1, once per squarefree monic R of degree N.

    s_m = 0 below N - 1 and s_(N-1) = 1; w^m R = 0 mod R gives the linear
    recurrence s_(m+N) = -sum_(j<N) r_j s_(m+j).  3N terms cover U P_k for
    deg U < N and k <= 2N.
    """
    if poly_gcd(R, R.derivative()).degree > 0:
        raise ValueError("the trace polynomial of S must be squarefree")
    n = R.degree
    s = [0] * (n - 1) + [1]
    while len(s) < 3 * n:
        s.append(-sum(c * x for c, x in zip(R.coeffs, s[-n:])))
    return tuple(s)


def trace_form_gram(U: IntPoly, S: IntPoly):
    """Gram of the basis 1, z, ..., z^(2N-1) of Z[z]/(S) under the trace form.

    (z^i, z^j) = Tr(U(w) z^(i-j) / R'(w)) = t_|i-j|, with t_k from Euler's
    formula; integral because R is monic, symmetric because P_k = P_(-k).
    """
    n = S.degree
    t = _trace_sequence(U, S, n - 1)
    return [[t[abs(i - j)] for j in range(n)] for i in range(n)]


def recover_phi(U: IntPoly, S: IntPoly) -> IntPoly:
    """Recover the degree-halved polynomial of the reflection partner.

    The reflection C in the vector 1 needs (1,1) = t_0 = +-2.  A := M_z C
    differs from M_z by a rank-one term, so, as in hyplattice.taylor_coeffs,

        det(z - A) / S(z) = 1 + sum_(i>=1) t_i z^-i / (t_0/2)

    at infinity.  phi = det(z - A) is the polynomial part of S(z) times this
    series cut at i = 2N, and Phi is the trace polynomial of phi / (z^2 - 1),
    i.e. char(A) = (z^2-1) z^(N-1) Phi(z+1/z).
    """
    n = S.degree
    t = _trace_sequence(U, S, n)
    if t[0] not in (2, -2):
        raise ValueError(f"(1,1) = {t[0]}; the reflection construction needs +-2")
    half = t[0] // 2  # +-1, so dividing by it is multiplying
    eta = [1] + [t[i] * half for i in range(1, n + 1)]
    phi = IntPoly(tuple(sum(S.coeffs[m + i] * eta[i] for i in range(n - m + 1))
                        for m in range(n + 1)))
    if palindrome_class(phi) != "anti_palindromic":
        raise ValueError("recovered characteristic polynomial is not anti-palindromic")
    return trace_poly(phi.divexact(IntPoly((-1, 0, 1))))
