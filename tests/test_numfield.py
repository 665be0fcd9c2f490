"""The unit recurrence, trace-form reconstruction and recovery round trips."""

import contextlib
import io
from fractions import Fraction

import pytest

from hyperk3 import linalg
from hyperk3.cli import run
from hyperk3.clusters import compute_trace_clusters, index
from hyperk3.hyplattice import build_lattice, companion
from hyperk3.k3class import k3_certificate
from hyperk3.numfield import (
    _trace_sequence,
    multiplication_matrix,
    recover_phi,
    trace_form_gram,
    unit_from_gram,
    verify_unit,
)
from hyperk3.polyring import (
    IntPoly,
    cyclotomic_trace,
    pair_from_trace,
    pair_power,
    palindrome_class,
    palindromic_expand,
    parse_poly,
    poly_gcd,
    salem_deg22,
    salem_trace_deg11,
    trace_poly,
)

CT = cyclotomic_trace
W = IntPoly.variable()

# the degree-halved polynomials recovered from the external unit data,
# used here as round-trip fixtures: building the lattice from (Phi, R_i)
# and extracting the unit must reproduce Phi through the trace form
RECOVERED = {
    2: CT(3) * IntPoly((-2, 2, 7, -21, -2, 25, 0, -9, 0, 1)),
    4: CT(4) * CT(42) * (W ** 3 - W * W - 3 * W + 1),
    5: IntPoly((-3, -3, 6, -16, -37, 12, 33, -2, -10, 0, 1)),
    9: IntPoly((8, 33, 23, -49, -62, 22, 42, -3, -11, 0, 1)),
    10: CT(4) * (W ** 9 - W ** 8 - 10 * W ** 7 + 7 * W ** 6 + 35 * W ** 5
                 - 14 * W ** 4 - 48 * W ** 3 + 7 * W * W + 18 * W - 1),
}


def k3_gram_row(Phi, R, count):
    phi, psi = pair_from_trace(Phi, R, "even")
    lat = build_lattice(phi, psi)
    data = index(compute_trace_clusters(Phi, R))
    assert abs(data.p_minus_q) == 16
    sign = -1 if data.p_minus_q == 16 else 1
    return [sign * v for v in lat.xi_extended("B", count)]


def test_chebyshev_basics():
    assert pair_power(0) == IntPoly.const(2)
    assert pair_power(1) == W
    assert pair_power(2) == W * W - 2
    assert pair_power(3) == W ** 3 - 3 * W
    for j in range(1, 12):
        assert palindromic_expand(pair_power(j)) == IntPoly.monomial(2 * j, 1) + 1


def test_unit_from_gram_reference_example():
    Phi = CT(1) ** 3 * CT(3) * CT(4) * CT(6) * CT(16)
    R = salem_trace_deg11(1)
    row = k3_gram_row(Phi, R, 10)
    data = unit_from_gram(row, R)
    assert data.U == IntPoly((0, -16, 24, 36, -70, -4, 54, -22, -7, 6, -1))
    assert data.u[0] == -1  # (r, r) = -2 in K3 normalization
    # triangularity of the c matrix; the top-left entry is [2 w^(N-1)]_R = 2,
    # which is why the first coefficient is half of (r, r)
    for j, crow in enumerate(data.c_matrix):
        assert crow[j] == (2 if j == 0 else 1)
        assert all(c == 0 for c in crow[j + 1:])
    ok, why = verify_unit(data.U, R)
    assert ok, why


def test_unit_nonunit_rejected():
    R = salem_trace_deg11(1)
    ok, why = verify_unit(IntPoly.zero(), R)
    assert not ok
    ok, why = verify_unit(IntPoly((0, 2)), R)  # 2w is not a unit
    assert not ok


def test_unit_constant_one_not_compatible():
    """U = 1 is a unit but fails the unique-sign-root clause."""
    R = salem_trace_deg11(1)
    ok, _ = verify_unit(IntPoly.one(), R)
    assert ok  # unit check alone passes
    from hyperk3.polyring.roots import isolate_real_roots, signs_at_roots
    hits = [r for r, s in zip(isolate_real_roots(R), signs_at_roots(R.derivative(), R))
            if -2 < r < 2 and s > 0]
    assert len(hits) > 1  # so the tau clause must fail
    ok, why = verify_unit(IntPoly.one(), R, hits[0])
    assert not ok


def test_compatibility_with_special_trace():
    Phi = CT(1) ** 3 * CT(3) * CT(4) * CT(6) * CT(16)
    R = salem_trace_deg11(1)
    phi, psi = pair_from_trace(Phi, R, "even")
    cert = k3_certificate(phi, psi, "B")
    row = k3_gram_row(Phi, R, 10)
    data = unit_from_gram(row, R)
    tau = cert.special_trace.retargeted(R)
    ok, why = verify_unit(data.U, R, tau)
    assert ok, why


def test_full_gram_reconstruction():
    Phi = CT(1) ** 3 * CT(3) * CT(4) * CT(6) * CT(16)
    R = salem_trace_deg11(1)
    row22 = k3_gram_row(Phi, R, 21)
    data = unit_from_gram(row22[:11], R)
    g = trace_form_gram(data.U, salem_deg22(1))
    assert all(g[i][j] == row22[abs(i - j)] for i in range(22) for j in range(22))


@pytest.mark.parametrize("case", [4, 10])
def test_recover_phi_reference_cases(case):
    Phi = RECOVERED[case]
    R = salem_trace_deg11(case)
    row = k3_gram_row(Phi, R, 10)
    data = unit_from_gram(row, R)
    assert recover_phi(data.U, salem_deg22(case)) == Phi


@pytest.mark.parametrize("case", [2, 5, 9])
def test_recover_phi_other_relevant_cases(case):
    Phi = RECOVERED[case]
    R = salem_trace_deg11(case)
    row = k3_gram_row(Phi, R, 10)
    data = unit_from_gram(row, R)
    assert recover_phi(data.U, salem_deg22(case)) == Phi


def test_recover_rejects_wrong_normalization():
    """(1,1) = 0 style data cannot drive the reflection construction."""
    R = salem_trace_deg11(1)
    # hand a unit whose leading coefficient is not -+1: (1,1) = 2*u1 = 4
    bad = unit_from_gram([4] + [0] * 10, R)
    with pytest.raises(ValueError, match=r"\+-2"):
        recover_phi(bad.U, salem_deg22(1))


def test_multiplication_matrix_charpoly():
    R = salem_trace_deg11(3)
    m = multiplication_matrix(IntPoly.variable(), R)
    assert IntPoly(tuple(linalg.charpoly(m))) == R


# ---------------------------------------------------------------------------
# differential test against the rational-matrix construction
# ---------------------------------------------------------------------------


def ref_trace_form_gram(U, S):
    """The trace form as traces of exact rational 22x22 matrices (reference only).

    (z^i, z^j) is the trace of multiplication by U(w) z^(i-j) / R'(w) on
    Q[z]/(S), with w = z + 1/z reduced mod S and R'(w) inverted by
    Gauss-Jordan elimination.
    """
    if palindrome_class(S) != "palindromic" or S.degree % 2:
        raise ValueError("S must be palindromic of even degree")
    if abs(S.constant()) != 1:
        raise ValueError("S must have unit constant term")
    n = S.degree
    R = trace_poly(S)
    inv_z = IntPoly(tuple(-S.constant() * c for c in S.coeffs[1:]))  # 1/z mod S
    w_in_z = IntPoly.variable() + inv_z

    def eval_mod(p):
        acc = IntPoly.zero()
        for c in reversed(p.coeffs):
            _, acc = (acc * w_in_z + c).divmod_exact(S)
        return acc

    def frac(m):
        return [[Fraction(x) for x in row] for row in m]

    base = linalg.mat_mul(frac(multiplication_matrix(eval_mod(U), S)),
                          linalg.mat_inverse(frac(multiplication_matrix(
                              eval_mod(R.derivative()), S))))
    z_mat = companion(S)
    z_inv = linalg.mat_inverse(z_mat)
    traces = {}
    cur = [row[:] for row in base]
    for k in range(n):
        traces[k] = sum(cur[i][i] for i in range(n))
        cur = linalg.mat_mul(cur, frac(z_mat))
    cur = linalg.mat_mul(base, frac(z_inv))
    for k in range(1, n):
        traces[-k] = sum(cur[i][i] for i in range(n))
        cur = linalg.mat_mul(cur, frac(z_inv))
    out = [[traces[i - j] for j in range(n)] for i in range(n)]
    assert all(v.denominator == 1 for row in out for v in row)
    assert all(out[0][k] == out[k][0] for k in range(n))
    return [[int(v) for v in row] for row in out]


def ref_recover_phi(U, S, gram=None):
    """Phi from the Berkowitz charpoly of M_z C, C the reflection in 1 (reference only)."""
    gram = ref_trace_form_gram(U, S) if gram is None else gram
    n = S.degree
    norm1 = gram[0][0]
    if norm1 not in (2, -2):
        raise ValueError(f"(1,1) = {norm1}; the reflection construction needs +-2")
    c_mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        c_mat[0][j] -= 2 * gram[0][j] // norm1
    phi = IntPoly(tuple(linalg.charpoly(linalg.mat_mul(companion(S), c_mat))))
    if palindrome_class(phi) != "anti_palindromic":
        raise ValueError("recovered characteristic polynomial is not anti-palindromic")
    return trace_poly(phi.divexact(IntPoly((-1, 0, 1))))


def unit_of(Phi, R):
    return unit_from_gram(k3_gram_row(Phi, R, R.degree - 1), R).U


DIFFERENTIAL = [(CT(1) ** 3 * CT(3) * CT(4) * CT(6) * CT(16), 1)] + [
    (Phi, case) for case, Phi in sorted(RECOVERED.items())]


@pytest.mark.parametrize("Phi, i", DIFFERENTIAL, ids=[f"R{i}" for _, i in DIFFERENTIAL])
def test_matches_rational_matrix_reference(Phi, i):
    U, S = unit_of(Phi, salem_trace_deg11(i)), salem_deg22(i)
    gram = ref_trace_form_gram(U, S)
    assert trace_form_gram(U, S) == gram
    assert recover_phi(U, S) == ref_recover_phi(U, S, gram) == Phi


@pytest.fixture(scope="module")
def table_units(svh_fixture):
    """(i, ks, Phi, U) for the 255 distinct deg22 table rows."""
    rows = sorted({(int(psi[1:]), ks) for psi, _case, ks, _st, _v in svh_fixture})
    out = []
    for i, ks in rows:
        Phi = IntPoly.one()
        for k in ks:
            Phi = Phi * CT(k)
        out.append((i, ks, Phi, unit_of(Phi, salem_trace_deg11(i))))
    return out


def test_recover_phi_every_table_row(table_units):
    assert len(table_units) == 255
    for i, ks, Phi, U in table_units:
        assert recover_phi(U, salem_deg22(i)) == Phi, (i, ks)


def _rem_top_coeff(g, R):
    q, r = g.divmod_exact(R)
    n = R.degree
    return r.coeffs[n - 1] if r.degree == n - 1 else 0


def ref_trace_sequence(U, S, count):
    """numfield._trace_sequence as it was before the cached power traces: one
    product and one division by R per t_k, and the squarefree check on every call
    (reference only)."""
    if (not S.is_monic() or S.degree < 2 or S.degree % 2
            or palindrome_class(S) != "palindromic"):
        raise ValueError("S must be monic and palindromic of positive even degree")
    R = trace_poly(S)
    if poly_gcd(R, R.derivative()).degree > 0:
        raise ValueError("the trace polynomial of S must be squarefree")
    return [_rem_top_coeff(U * pair_power(k), R) for k in range(count + 1)]


def test_trace_sequence_matches_old(table_units):
    """t_k from the cached s_m = [w^m]_R equals the per-k division, on the 255 table
    units and on seeded random U of every degree below 11, including U >= deg R
    reduced mod R."""
    import random

    pairs = [(U, i) for i, _ks, _Phi, U in table_units]
    rng = random.Random(28)
    for _ in range(200):
        i = rng.randint(1, 10)
        pairs.append((IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(1, 14))]), i))
    for U, i in pairs:
        S = salem_deg22(i)
        for count in (0, 22):
            assert _trace_sequence(U, S, count) == ref_trace_sequence(U, S, count), (U, i)
    S = parse_poly("(z^2-3*z+1)^2")[1]
    for trace_sequence in (_trace_sequence, ref_trace_sequence):
        with pytest.raises(ValueError, match="squarefree"):
            trace_sequence(IntPoly.one(), S, 2)


# (U, S) pairs both constructions reject; S = z^2 - 3z + 1 has R = w - 3
BAD_INPUTS = {
    "non-monic": ("1", "-(z^2-3*z+1)"),
    "non-palindromic": ("1", "z^2-3*z+2"),
    "odd-degree": ("1", "(z+1)*(z^2-3*z+1)"),
    "R-not-squarefree": ("1", "(z^2-3*z+1)^2"),
    "norm-4": ("2", "z^2-3*z+1"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_inputs_rejected(name):
    u_text, s_text = BAD_INPUTS[name]
    U, S = parse_poly(u_text)[1], parse_poly(s_text)[1]
    for recover in (recover_phi, ref_recover_phi):
        with pytest.raises(ValueError):
            recover(U, S)
    if name != "norm-4":
        with pytest.raises(ValueError):
            trace_form_gram(U, S)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert run(["recover", f"--unit={u_text}", f"--salem={s_text}"]) == 3
    assert err.getvalue().startswith("hyperk3: ")
