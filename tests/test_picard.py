"""Root enumeration, Dynkin recognition and the chamber transport."""

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hyperk3 import linalg
from hyperk3.k3class import k3_certificate
from hyperk3.picard import (
    BringBackResult,
    MAX_ASCENT_STEPS,
    PositivityError,
    _lll_gram,
    bring_back,
    dynkin_action,
    dynkin_classify,
    enumerate_root_system,
    pairing,
    picard_from_certificate,
    picard_gram,
    positive_simple_roots,
    transport,
)
from hyperk3.hyplattice import build_lattice, companion, signature_oracle
from hyperk3.polyring import (
    IntPoly,
    classify_product,
    cyclotomic,
    cyclotomic_trace,
    lehmer_nf,
    lehmer_trace,
    pair_from_trace,
    salem_trace_deg11,
)
from hyperk3.search import ct_product

CT = cyclotomic_trace


def ctp(ks):
    out = IntPoly.one()
    for k in ks:
        out = out * CT(k)
    return out


def brute_force_roots(gram):
    """Every t with t G t^T = 2, from a box that provably holds them all.

    Cauchy-Schwarz in the form G gives t_i^2 <= (G^-1)_ii * Q(t) = 2 (G^-1)_ii,
    so coordinate i ranges over |t_i| <= isqrt(floor(2 (G^-1)_ii)).
    """
    inv = linalg.mat_inverse(gram)
    boxes = [math.isqrt(math.floor(2 * Fraction(inv[i][i]))) for i in range(len(gram))]
    out = []
    for t in itertools.product(*(range(-b, b + 1) for b in boxes)):
        if any(t) and pairing(gram, t, t) == 2:
            out.append(t)
    return sorted(out)


A2 = [[2, -1], [-1, 2]]
A1A1 = [[2, 0], [0, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
E8 = [[2, 0, -1, 0, 0, 0, 0, 0],
      [0, 2, 0, -1, 0, 0, 0, 0],
      [-1, 0, 2, -1, 0, 0, 0, 0],
      [0, -1, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0],
      [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, -1],
      [0, 0, 0, 0, 0, 0, -1, 2]]


@pytest.mark.parametrize("gram,expected", [(A2, 6), (A1A1, 4), (A3, 12), (D4, 24)])
def test_enumeration_matches_brute_force(gram, expected):
    roots = enumerate_root_system(gram)
    assert len(roots) == expected
    assert roots == brute_force_roots(gram)


def _seeded_even_grams():
    """Ten random positive definite even Grams 2 M^T M of rank 2..5, seed 17."""
    rng = random.Random(17)
    out = []
    for _ in range(10):
        n = rng.randint(2, 5)
        while True:
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            g = linalg.mat_mul(linalg.transpose(m), m)
            g = [[2 * g[i][j] for j in range(n)] for i in range(n)]
            if linalg.is_positive_definite(g):
                break
        out.append(g)
    return out


def test_enumeration_random_definite_grams():
    for g in _seeded_even_grams():
        assert enumerate_root_system(g) == brute_force_roots(g)


# ---------------------------------------------------------------------------
# the LLL + integer Fincke-Pohst enumerator against the completed-squares search
# ---------------------------------------------------------------------------


def _completed_squares(gram):
    """G = U D U^T over Fractions with U upper unitriangular: Q = sum d_j (t_j - p_j)^2."""
    n = len(gram)
    rev = [[Fraction(gram[n - 1 - i][n - 1 - j]) for j in range(n)] for i in range(n)]
    low = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for k in range(n):
        acc = rev[k][k] - sum(low[k][m] ** 2 * d[m] for m in range(k))
        if acc <= 0:
            raise ValueError("quadratic form is not positive definite")
        d[k] = acc
        low[k][k] = Fraction(1)
        for i in range(k + 1, n):
            low[i][k] = (rev[i][k] - sum(low[i][m] * low[k][m] * d[m] for m in range(k))) / d[k]
    u = [[low[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    return d[::-1], u


def completed_squares_roots(gram_pos):
    """Reference enumerator: a Fraction completed-squares search on the unreduced basis.

    This was the package's enumerator before the LLL reduction; it is kept
    here to compare against.
    """
    rho = len(gram_pos)
    if rho == 0:
        return []
    d, u = _completed_squares(gram_pos)
    roots = []
    t = [0] * rho

    def walk(j, used):
        if j == rho:
            if used == 2:
                roots.append(tuple(t))
            elif used == 1:
                raise AssertionError("even lattice attained Q = 1")
            return
        rem = 2 - used
        pj = -sum(u[i][j] * t[i] for i in range(j))
        lo = pj.numerator // pj.denominator
        for start, step in ((lo, -1), (lo + 1, 1)):
            v = start
            while True:
                cost = d[j] * (v - pj) ** 2
                if cost > rem:
                    break
                t[j] = v
                walk(j + 1, used + cost)
                v += step
            t[j] = 0

    walk(0, Fraction(0))
    roots.sort()
    return roots


def _lehmer_rows():
    """(label, side, index, sorted k multiset) of the 39 rows of min_a.tsv and min_b.tsv."""
    data = Path(__file__).parent / "data"
    rows = []
    for name, side in (("min_a.tsv", "A"), ("min_b.tsv", "B")):
        for line in (data / name).read_text().splitlines():
            if line.strip():
                r = line.split("\t")
                ks = r[1] if side == "A" else r[2]
                rows.append((r[0], side, int(r[0][1:]),
                             tuple(sorted(int(k) for k in ks.split(",")))))
    return rows


LEHMER_ROWS = _lehmer_rows()


def _row_id(row):
    return f"{row[0]}:{','.join(map(str, row[3]))}"


# Rows on which the completed-squares search takes over a second: the
# differential test leaves them out, and the change-of-basis test covers such
# skewed Grams.
SLOW_FOR_REFERENCE = {"R4:4,20", "R10:3,15", "R10:4,24", "L3:2,3,7,11",
                      "L6:2,2,8,13", "L7:2,2,17", "L8:1,1,1,7,16", "L8:1,1,2,7,16",
                      "L8:1,2,2,7,16", "L8:2,2,2,7,16"}
ROW_BY_ID = {_row_id(r): r for r in LEHMER_ROWS}
REFERENCE_ROWS = [r for r in LEHMER_ROWS if _row_id(r) not in SLOW_FOR_REFERENCE]


@functools.lru_cache(maxsize=None)
def lehmer_transport(row):
    _label, side, i, ks = row
    if side == "A":
        phi, psi = pair_from_trace(lehmer_trace() * ct_product(ks), salem_trace_deg11(i), "even")
    else:
        phi, psi = pair_from_trace(ct_product(ks), lehmer_nf(i), "even")
    return transport(k3_certificate(phi, psi, side))


def lehmer_picard(row):
    pic, _rs, _res, _cycles = lehmer_transport(row)
    return pic


def lehmer_gram(row):
    return lehmer_picard(row).gram_pos


def test_lehmer_row_split():
    assert len(LEHMER_ROWS) == 39 and len(REFERENCE_ROWS) == 29
    assert len(ROW_BY_ID) == 39 and SLOW_FOR_REFERENCE <= set(ROW_BY_ID)


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=_row_id)
def test_enumeration_matches_completed_squares(row):
    """Same root list as the completed-squares search on 29 of the 39 Lehmer Grams.

    Left out, because the reference search takes over a second there (up to
    about 6 minutes on L8 {2,2,2,7,16}): R4 {4,20}, R10 {3,15}, R10 {4,24},
    L3 {2,3,7,11}, L6 {2,2,8,13}, L7 {2,2,17} and L8 {1,1,1,7,16},
    {1,1,2,7,16}, {1,2,2,7,16}, {2,2,2,7,16}.
    """
    gram = lehmer_gram(row)
    assert enumerate_root_system(gram) == completed_squares_roots(gram)


def random_unimodular(rng, n, steps):
    """A product of random shears, swaps and sign flips, and its exact inverse."""
    u = linalg.identity(n)
    for _ in range(steps):
        a, b = rng.sample(range(n), 2)
        kind = rng.random()
        if kind < 0.8:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            for row in u:
                row[a] += c * row[b]
        elif kind < 0.9:
            for row in u:
                row[a], row[b] = row[b], row[a]
        else:
            for row in u:
                row[a] = -row[a]
    inv = linalg.mat_inverse(u)
    assert all(x.denominator == 1 for row in inv for x in row)
    return u, [[int(x) for x in row] for row in inv]


def congruent(gram, u):
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), gram), u)


SMALL_GRAMS = {"A2": A2, "D4": D4, "E8": E8}


@pytest.mark.parametrize("case", list(SMALL_GRAMS) + [_row_id(r) for r in REFERENCE_ROWS[::7]])
def test_enumeration_under_change_of_basis(case):
    """Roots of U^T G U are U^-1 applied to the roots of G, re-sorted.

    The random shears skew the basis far more than the Lehmer Grams are
    skewed, so enumerate_root_system is checked on such forms against the
    completed-squares search on the unskewed G.
    """
    gram = SMALL_GRAMS.get(case) or lehmer_gram(ROW_BY_ID[case])
    rng = random.Random(case)
    want = completed_squares_roots(gram)
    for _ in range(3):
        u, u_inv = random_unimodular(rng, len(gram), 6 * len(gram))
        skewed = congruent(gram, u)
        expect = sorted(tuple(linalg.mat_vec(u_inv, list(r))) for r in want)
        assert enumerate_root_system(skewed) == expect


def _random_definite_grams(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 9)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        g = linalg.mat_mul(linalg.transpose(m), m)
        if linalg.is_positive_definite(g):
            out.append(g)
    return out


def _assert_lll_reduced(gram):
    reduced, basis, d, lam = _lll_gram(gram)
    n = len(gram)
    t = linalg.transpose(basis)
    assert congruent(gram, t) == reduced
    assert linalg.bareiss_det(t) in (1, -1)
    assert d[0] == 1
    for i in range(1, n + 1):
        assert d[i] == linalg.bareiss_det([row[:i] for row in reduced[:i]])
    for k in range(n):
        for j in range(k):
            assert 2 * abs(lam[k][j]) <= d[j + 1]  # size reduction
    for k in range(1, n):
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2  # Lovasz


@pytest.mark.parametrize("row", LEHMER_ROWS, ids=_row_id)
def test_lll_reduces_lehmer_grams(row):
    _assert_lll_reduced(lehmer_gram(row))


def test_lll_reduces_random_grams():
    for gram in _random_definite_grams(23, 40):
        _assert_lll_reduced(gram)
    rng = random.Random(29)
    for gram in (D4, E8):
        u, _ = random_unimodular(rng, len(gram), 40)
        _assert_lll_reduced(congruent(gram, u))


@pytest.mark.parametrize("enumerate_", [enumerate_root_system, completed_squares_roots],
                         ids=["lll", "completed_squares"])
def test_enumeration_error_paths(enumerate_):
    for gram in ([[2, 3], [3, 2]], [[2, 2], [2, 2]], [[0]], [[-2]]):
        with pytest.raises(ValueError, match="quadratic form is not positive definite"):
            enumerate_(gram)
    with pytest.raises(AssertionError, match="even lattice attained Q = 1"):
        enumerate_([[1, 0], [0, 2]])
    assert enumerate_([]) == []


def test_positive_and_simple_roots_a2():
    roots = enumerate_root_system(A2)
    rs = positive_simple_roots(roots, A2)
    assert len(rs.positive_roots) == 3
    assert len(rs.simple_roots) == 2
    assert rs.dynkin == ("A2",)
    for s in rs.simple_roots:
        assert pairing(A2, rs.two_delta, s) > 0


def test_dynkin_classify_families():
    assert dynkin_classify([(1, 0), (0, 1)], A1A1) == ("A1", "A1")
    roots = enumerate_root_system(D4)
    rs = positive_simple_roots(roots, D4)
    assert rs.dynkin == ("D4",)
    roots = enumerate_root_system(A3)
    rs = positive_simple_roots(roots, A3)
    assert rs.dynkin == ("A3",)


@functools.lru_cache(maxsize=1)
def worked_example():
    """The R3 {3,4,6,8} row of min_a.tsv: its certificate and its transport."""
    Phi = lehmer_trace() * ctp([3, 4, 6, 8])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(3), "even")
    cert = k3_certificate(phi, psi, "A")
    return cert, transport(cert)


def test_worked_example_counts_and_type():
    _cert, (pic, rs, _res, _cycles) = worked_example()
    assert pic.rho == 12
    assert all(pic.gram_pos[i][j] == pic.gram_pos[0][abs(i - j)]
               for i in range(12) for j in range(12))  # Toeplitz
    assert len(rs.all_roots) == 144
    assert len(rs.positive_roots) == 72
    assert len(rs.simple_roots) == 12
    assert rs.dynkin == ("E6", "E6")
    # the reference labeling of simple roots among the positive roots
    named = {}
    for naming, suffix in zip(rs.components, ("", "'")):
        for name, idx in naming.items():
            named[name + suffix] = idx + 1
    assert named == {
        "e1": 23, "e2": 8, "e3": 1, "e4": 3, "e5": 16, "e6": 25,
        "e1'": 7, "e2'": 24, "e3'": 2, "e4'": 5, "e5'": 9, "e6'": 35,
    }


def test_worked_example_bring_back():
    _cert, (pic, rs, res, _cycles) = worked_example()
    assert res.word == (35, 23, 5, 41, 62, 57, 72)  # documented lowest-index tie-break
    res_hi = bring_back(pic, rs, tie_break="highest")
    assert res_hi.word == (5, 23, 35, 41, 62, 57, 72)  # the reference word
    assert res_hi.modified == res.modified  # the Weyl element itself is unique
    assert preserves_positive_roots(res, rs)
    expect = cyclotomic(1) ** 4 * cyclotomic(2) ** 4 * cyclotomic(4) ** 2
    assert res.chi1_tilde == expect
    assert res.trace_tilde == -1
    assert classify_product(res.chi1_tilde).all_cyclotomic()
    # isometry and fixed orthogonal complement
    g = pic.lattice.gram_a
    f = res.modified
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(f), g), f) == g


def test_worked_example_dynkin_action():
    _cert, (_pic, _rs, _res, cycles) = worked_example()
    cycs = {frozenset(c) for c in cycles}
    assert {frozenset({"E6#1:e2", "E6#2:e2"}), frozenset({"E6#1:e4", "E6#2:e4"})} <= cycs
    four = [c for c in cycles if len(c) == 4]
    assert len(four) == 2
    ends = {frozenset(c) for c in four}
    assert frozenset({"E6#1:e1", "E6#2:e1", "E6#1:e6", "E6#2:e6"}) in ends
    assert frozenset({"E6#1:e3", "E6#2:e3", "E6#1:e5", "E6#2:e5"}) in ends
    # the exact reference pattern: e1 -> e1' -> e6 -> e6' -> e1 and
    # e3 -> e3' -> e5 -> e5' -> e3, centers and branch tips in 2-cycles
    for c in four:
        assert _is_rotation(c, ("E6#1:e1", "E6#2:e1", "E6#1:e6", "E6#2:e6")) or \
               _is_rotation(c, ("E6#1:e3", "E6#2:e3", "E6#1:e5", "E6#2:e5"))


def _is_rotation(cycle, reference):
    if set(cycle) != set(reference):
        return False
    k = len(reference)
    for shift in range(k):
        if tuple(cycle[(shift + i) % k] for i in range(k)) == reference:
            return True
    return False


def test_weyl_part_fixes_pic_complement():
    """w_F acts as the identity on the orthogonal complement of Pic."""
    from fractions import Fraction

    _cert, (pic, _rs, res, _cycles) = worked_example()
    n = pic.lattice.n
    g = pic.lattice.gram_a
    # w = F~ F^(-1); solve S^T G v = 0 for the complement of the Picard block
    from hyperk3.hyplattice import companion
    f = companion(pic.chi)
    w = linalg.mat_mul(res.modified, linalg.mat_inverse(f))
    st_g = linalg.mat_mul(linalg.transpose(pic.basis_in_l), g)
    basis = _nullspace(st_g)
    assert len(basis) == n - pic.rho
    for v in basis:
        assert linalg.mat_vec(w, v) == v


def _nullspace(mat):
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in mat]
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        out.append(v)
    return out


def test_rho_zero_identity_modification():
    Phi = CT(1) ** 3 * ctp([3, 4, 6, 16])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "B")
    pic = picard_from_certificate(cert)
    assert pic.rho == 0
    assert enumerate_root_system(pic.gram_pos) == []
    rs = positive_simple_roots([], pic.gram_pos)
    res = bring_back(pic, rs)
    assert res.word == ()
    assert res.chi1_tilde == IntPoly.one()
    assert res.chi_tilde == cert.psi
    assert res == fraction_bring_back(pic, rs)  # the old special branch for rho = 0


def test_projective_certificate_rejected():
    phi, psi = pair_from_trace(ctp([1, 3, 17]), salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "A")
    assert cert is not None and cert.projective
    with pytest.raises(ValueError, match="projective"):
        picard_gram(build_lattice(cert.phi, cert.psi), cert)


def test_minB_pipeline_e8a2a2():
    """An L6 row: E8+A2+A2 with the four-cycle on the A2 pair and fixed E8."""
    Phi = CT(1) ** 2 * ctp([8, 13])
    phi, psi = pair_from_trace(Phi, lehmer_nf(6), "even")
    cert = k3_certificate(phi, psi, "B")
    assert cert is not None
    _pic, rs, res, cycles = transport(cert)
    assert rs.dynkin == ("E8", "A2", "A2")
    assert len(rs.all_roots) == 240 + 6 + 6
    assert res.trace_tilde == 7
    assert res.chi1_tilde == cyclotomic(1) ** 9 * cyclotomic(2) * cyclotomic(4)
    assert len(cycles) == 1 and len(cycles[0]) == 4
    labels = set(cycles[0])
    assert all(lbl.startswith("A2#") for lbl in labels)
    # the E8 block is fixed pointwise, the cycle alternates the two A2s
    order = [c.split("#")[1][0] for c in cycles[0]]
    assert order in (["1", "2", "1", "2"], ["2", "1", "2", "1"])


def test_d10_action_swaps_fork():
    """A D10 row of the side-A table: e9, e10 swapped, the rest fixed."""
    Phi = lehmer_trace() * ctp([4, 6, 7])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    cert = k3_certificate(phi, psi, "A")
    _pic, rs, res, cycles = transport(cert)
    assert rs.dynkin == ("D10",)
    assert res.chi1_tilde == cyclotomic(1) ** 9 * cyclotomic(2) * cyclotomic(4)
    assert res.trace_tilde == 7
    assert len(cycles) == 1
    assert set(cycles[0]) == {"D10#1:e9", "D10#1:e10"}


def test_a2_action_identity():
    Phi = lehmer_trace() * ctp([3, 15])
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(3), "even")
    cert = k3_certificate(phi, psi, "A")
    _pic, rs, res, cycles = transport(cert)
    assert rs.dynkin == ("A2",)
    assert cycles == ()  # every simple root fixed
    assert res.chi1_tilde == cyclotomic(1) ** 2 * cyclotomic(3) * cyclotomic(15)
    assert res.trace_tilde == 1


# ---------------------------------------------------------------------------
# the integer chamber transport against the Fraction ascent with assembled w_F
# ---------------------------------------------------------------------------


def _reflection_matrix(gram, u, sign):
    """Matrix of v -> v - sign*(v^T G u) u, the reflection in a norm-2 vector."""
    n = len(u)
    gu = linalg.mat_vec(gram, u)
    return [[(1 if i == j else 0) - sign * u[i] * gu[j] for j in range(n)] for i in range(n)]


def fraction_bring_back(pic, rs, tie_break="lowest"):
    """Reference transport: the ascent in Fractions on delta, w_F assembled from matrices.

    This was the package's bring_back before the integer transport; it is
    kept here to compare against.  It builds w_F on Pic and on L as products
    of reflection matrices and checks chi~ = chi0 * chi1~ with two Berkowitz
    characteristic polynomials, one of them 22 x 22.
    """
    rho = pic.rho
    gram = pic.gram_pos
    n = pic.lattice.n
    f_l = companion(pic.chi)
    if rho == 0:
        chi_tilde = IntPoly(tuple(linalg.charpoly(f_l)))
        return BringBackResult((), f_l, [], chi_tilde,
                               chi_tilde.divexact(pic.chi0), chi_tilde.trace())
    pos = rs.positive_roots
    gu = [linalg.mat_vec(gram, list(u)) for u in pos]
    delta = [Fraction(sum(p[i] for p in pos), 2) for i in range(rho)]
    delta_u = [sum(delta[i] * gu_k[i] for i in range(rho)) for gu_k in gu]
    assert all(v > 0 for v in delta_u)
    prefer_high = tie_break == "highest"
    d = linalg.mat_vec(pic.f_on_pic, delta)
    applied = []
    for _step in range(MAX_ASCENT_STEPS):
        best_k = None
        best_gain = 0
        for k, gu_k in enumerate(gu):
            gain = -sum(d[i] * gu_k[i] for i in range(rho)) * delta_u[k]
            if gain > best_gain or (prefer_high and gain == best_gain and gain > 0):
                best_gain = gain
                best_k = k
        if best_k is None:
            break
        u = pos[best_k]
        du = sum(d[i] * gu[best_k][i] for i in range(rho))
        d = [d[i] - du * u[i] for i in range(rho)]
        applied.append(best_k)
    w_pic = linalg.identity(rho)
    w_l = linalg.identity(n)
    g_l = pic.lattice.gram_a if pic.side == "A" else pic.lattice.gram_b
    for k in applied:
        u = list(pos[k])
        w_pic = linalg.mat_mul(_reflection_matrix(gram, u, 1), w_pic)
        u_l = linalg.mat_vec(pic.basis_in_l, u)
        w_l = linalg.mat_mul(_reflection_matrix(g_l, u_l, pic.sign_pic), w_l)
    f_tilde_pic = linalg.mat_mul(w_pic, pic.f_on_pic)
    f_tilde = linalg.mat_mul(w_l, f_l)
    chi_tilde = IntPoly(tuple(linalg.charpoly(f_tilde)))
    chi1_tilde = IntPoly(tuple(linalg.charpoly(f_tilde_pic)))
    assert chi_tilde == pic.chi0 * chi1_tilde
    word = tuple(k + 1 for k in reversed(applied))
    return BringBackResult(word, f_tilde, f_tilde_pic, chi_tilde,
                           chi1_tilde, chi_tilde.trace())


def lehmer_root_system(row):
    _pic, rs, _res, _cycles = lehmer_transport(row)
    return rs


@pytest.mark.parametrize("row", LEHMER_ROWS, ids=_row_id)
def test_bring_back_matches_fraction_ascent(row):
    """Every BringBackResult field equals the reference's, for both tie-breaks.

    The full 22 x 22 characteristic polynomial and trace of F~ then confirm
    chi~ = chi0 * chi1~, which bring_back reads off the restriction identity.
    """
    pic, rs = lehmer_picard(row), lehmer_root_system(row)
    results = []
    for tie_break in ("lowest", "highest"):
        res = bring_back(pic, rs, tie_break)
        ref = fraction_bring_back(pic, rs, tie_break)
        for field in dataclasses.fields(BringBackResult):
            assert getattr(res, field.name) == getattr(ref, field.name), field.name
        results.append(res)
    res = results[0]
    assert results[1].modified == res.modified
    assert IntPoly(tuple(linalg.charpoly(res.modified))) == res.chi_tilde
    assert res.trace_tilde == sum(res.modified[i][i] for i in range(pic.lattice.n))


def test_bring_back_guard_trips_on_wrong_sign():
    """With sign_pic flipped the updates on L are not reflections and F~ S != S F~|Pic."""
    _cert, (pic, rs, _res, _cycles) = worked_example()
    with pytest.raises(AssertionError, match="does not restrict to its Picard block"):
        bring_back(dataclasses.replace(pic, sign_pic=-pic.sign_pic), rs)


def test_two_delta_is_integral():
    _cert, (pic, rs, _res, _cycles) = worked_example()
    assert len(rs.two_delta) == pic.rho
    assert all(type(x) is int for x in rs.two_delta)
    assert rs.two_delta == [sum(p[i] for p in rs.positive_roots) for i in range(pic.rho)]


def test_bring_back_one_charpoly_on_pic(monkeypatch):
    """chi~ costs one rho x rho characteristic polynomial, no 22 x 22 one."""
    _cert, (pic, rs, _res, _cycles) = worked_example()
    sizes = []
    charpoly = linalg.charpoly

    def counting(mat):
        sizes.append(len(mat))
        return charpoly(mat)

    monkeypatch.setattr(linalg, "charpoly", counting)
    bring_back(pic, rs)
    assert sizes == [pic.rho]


# ---------------------------------------------------------------------------
# simple roots by height and the simple-root guard against the old searches
# ---------------------------------------------------------------------------


def pairwise_simple_roots(positive):
    """Reference: the positive roots that are no sum of two positive roots.

    This was the package's simple-root search before the height rule; it
    tests every pair of positive roots and is kept here to compare against.
    """
    pos_set = set(positive)
    return [p for p in positive
            if not any(tuple(a - b for a, b in zip(p, q)) in pos_set for q in positive)]


def preserves_positive_roots(result, rs):
    """Reference: F~|Pic maps every positive root to a positive root.

    This was the package's guard before the Dynkin action took its place;
    it maps all positive roots and is kept here to compare against.
    """
    pos_set = set(rs.positive_roots)
    return all(tuple(linalg.mat_vec(result.modified_on_pic, list(u))) in pos_set
               for u in rs.positive_roots)


# case -> Gram; None marks a Lehmer row, whose root system comes from transport.
# The skewed D4 and E8 order their roots, and so choose their positive roots,
# differently from the reduced ones.
SIMPLE_ROOT_CASES = {**SMALL_GRAMS,
                     **{f"{name}-skewed": congruent(g, random_unimodular(random.Random(5), len(g),
                                                                         6 * len(g))[0])
                        for name, g in (("D4", D4), ("E8", E8))},
                     **{f"seed17-{i}": g for i, g in enumerate(_seeded_even_grams())},
                     **{_row_id(r): None for r in LEHMER_ROWS}}


@pytest.mark.parametrize("case", list(SIMPLE_ROOT_CASES))
def test_simple_roots_by_height_match_pairwise(case):
    """The height-1 positive roots are the pairwise search's simple roots, in order,
    and each simple root records its positive-root index."""
    gram = SIMPLE_ROOT_CASES[case]
    rs = lehmer_root_system(ROW_BY_ID[case]) if gram is None else \
        positive_simple_roots(enumerate_root_system(gram), gram)
    assert rs.simple_roots == pairwise_simple_roots(rs.positive_roots)
    assert rs.simple_index == tuple(rs.positive_roots.index(r) for r in rs.simple_roots)


def _guard_passes(result, rs):
    try:
        dynkin_action(result, rs)
    except PositivityError:
        return False
    return True


def test_simple_root_guard_matches_full_guard():
    """On the 39 F~ (which preserve the positive roots) and the 39 unmodified
    F|Pic (which do not, every row having rho >= 12) the Dynkin action's guard
    gives the full guard's verdict."""
    for row in LEHMER_ROWS:
        pic, rs, res, _cycles = lehmer_transport(row)
        unmodified = dataclasses.replace(res, modified_on_pic=pic.f_on_pic)
        for result, expect in ((res, True), (unmodified, False)):
            assert preserves_positive_roots(result, rs) == expect, _row_id(row)
            assert _guard_passes(result, rs) == expect, _row_id(row)


def _random_symmetric(rng, n):
    """Arbitrary symmetric, Gram (semidefinite, often singular) or shifted Gram matrices."""
    kind = rng.randrange(3)
    if kind == 0:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        return g
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(max(1, n - 2), n + 1))]
    g = linalg.mat_mul(linalg.transpose(m), m)
    if kind == 2:
        shift = rng.randint(-2, 1)
        for i in range(n):
            g[i][i] += shift
    return g


def test_is_positive_definite_matches_signature():
    """Sylvester's criterion agrees with the exact signature; degenerate forms are not definite."""
    rng = random.Random(31)
    definite = indefinite = degenerate = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        g = _random_symmetric(rng, n)
        try:
            want = signature_oracle(g) == (n, 0)
        except ValueError:
            want = False
            degenerate += 1
        assert linalg.is_positive_definite(g) == want
        definite += want
        indefinite += not want
    assert min(definite, indefinite - degenerate, degenerate) >= 50
    assert linalg.is_positive_definite([])
