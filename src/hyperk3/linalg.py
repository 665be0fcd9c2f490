"""Exact dense linear algebra over the integers and rationals.

Matrices are plain lists of lists (row major).  Everything here is exact:
integer matrices stay integer wherever the algorithm permits (Bareiss,
Berkowitz), and anything that genuinely needs division works over
``fractions.Fraction``.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list]
Vector = list


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = transpose(b)
    out = []
    for i in range(n):
        row_a = a[i]
        out.append([sum(row_a[t] * col[t] for t in range(k)) for col in bt])
    return out


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Vector:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def bareiss_det(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def charpoly(mat: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(zI - M), constant term first, by the Berkowitz method.

    Division free, so integer matrices give integer characteristic
    polynomials with no intermediate rounding at all.
    """
    n = len(mat)
    if n == 0:
        return [1]
    poly = [1, -mat[0][0]]  # leading 1x1 block, highest degree first
    for k in range(1, n):
        a_kk = mat[k][k]
        row = [mat[k][j] for j in range(k)]
        col = [mat[i][k] for i in range(k)]
        block = [mat[i][:k] for i in range(k)]
        toeplitz_col = [1, -a_kk]
        v = col
        for _ in range(k - 1):
            toeplitz_col.append(-dot(row, v))
            v = mat_vec(block, v)
        toeplitz_col.append(-dot(row, v))
        new = [0] * (k + 2)
        for i in range(k + 2):
            s = 0
            for j in range(max(0, i - (k + 1)), min(i, k) + 1):
                s += toeplitz_col[i - j] * poly[j]
            new[i] = s
        poly = new
    poly.reverse()
    return poly


def signature(gram: Sequence[Sequence]) -> tuple[int, int]:
    """Signature (p, q) of a symmetric nondegenerate matrix, exactly.

    Symmetric congruence reduction with 1x1 pivots; when every active
    diagonal entry vanishes, a row/column addition manufactures a nonzero
    one (v_i := v_i + v_j turns g_ii into 2 g_ij).  Raises ValueError on a
    degenerate form.
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    p = q = 0
    while active:
        k = next((i for i in active if g[i][i] != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in active for j in active if i != j and g[i][j] != 0),
                None,
            )
            if pair is None:
                raise ValueError("degenerate symmetric form")
            i, j = pair
            for t in range(n):
                g[i][t] += g[j][t]
            for t in range(n):
                g[t][i] += g[t][j]
            k = i
        d = g[k][k]
        if d > 0:
            p += 1
        else:
            q += 1
        active.remove(k)
        # clear row k entries, then the (still untouched) column k entries;
        # symmetry of the active block is preserved
        for i in active:
            if g[i][k] != 0:
                f = g[i][k] / d
                for t in range(n):
                    g[i][t] -= f * g[k][t]
        for i in active:
            if g[k][i] != 0:
                f = g[k][i] / d
                for t in range(n):
                    g[t][i] -= f * g[t][k]
    return p, q


def is_positive_definite(gram: Sequence[Sequence[int]]) -> bool:
    """Sylvester's criterion for a symmetric integer matrix: every leading minor is > 0."""
    return all(bareiss_det([row[:k] for row in gram[:k]]) > 0 for k in range(1, len(gram) + 1))


def mat_inverse(mat: Sequence[Sequence]) -> Matrix:
    """Inverse over the rationals (Gauss-Jordan); integer output stays int."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = [row[n:] for row in a]
    if all(x.denominator == 1 for row in out for x in row):
        return [[int(x) for x in row] for row in out]
    return out
