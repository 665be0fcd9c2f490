"""Lattice construction, Gram/resultant identities and the signature oracle."""

import random

import pytest

from hyperk3 import linalg
from hyperk3.hyplattice import (
    build_lattice,
    companion,
    is_unimodular,
    signature_oracle,
    taylor_coeffs,
)
from hyperk3.polyring import (
    IntPoly,
    cyclotomic_trace,
    pair_from_trace,
    resultant,
    resultant_relation,
    salem_trace_deg11,
)


def random_valid_pair(rng, max_half_rank=6):
    """A random coprime anti-palindromic/palindromic monic pair of even rank."""
    while True:
        nh = rng.randint(1, max_half_rank)
        Phi = IntPoly([rng.randint(-3, 3) for _ in range(nh - 1)] + [1])
        Psi = IntPoly([rng.randint(-3, 3) for _ in range(nh)] + [1])
        phi, psi = pair_from_trace(Phi, Psi, "even")
        if resultant(phi, psi) != 0:
            return phi, psi


def test_taylor_examples():
    assert taylor_coeffs(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1)), 4) == [1, 2, 1, 2]
    assert taylor_coeffs(IntPoly((-1, 0, 1)), IntPoly((1, 0, 1)), 4) == [0, 2, 0, 2]
    with pytest.raises(ValueError):
        taylor_coeffs(IntPoly((-1, 0, 1)), IntPoly((1, 1)), 3)


def test_xi_recurrence():
    rng = random.Random(2)
    for _ in range(20):
        phi, psi = random_valid_pair(rng)
        n = phi.degree
        xi = [2] + taylor_coeffs(phi, psi, 3 * n)
        f = list(reversed(phi.coeffs))  # f[0] = 1
        for i in range(n + 1, 3 * n + 1):
            assert sum(f[k] * xi[i - k] for k in range(n + 1)) == 0


def test_build_lattice_rank2():
    lat = build_lattice(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1)))
    assert lat.gram_a == [[2, 1], [1, 2]]
    assert lat.disc == 3
    assert lat.mat_c == [[-1, -1], [0, 1]]
    assert linalg.mat_mul(lat.mat_a, lat.mat_c) == lat.mat_b


def test_build_lattice_rejects():
    with pytest.raises(ValueError, match="anti-palindromic"):
        build_lattice(IntPoly((1, 1, 1)), IntPoly((1, 1, 1)))
    with pytest.raises(ValueError, match="palindromic"):
        build_lattice(IntPoly((-1, 0, 1)), IntPoly((-1, 0, 1)))
    with pytest.raises(ValueError, match="coprime"):
        build_lattice(IntPoly((-1, 0, 1)), IntPoly((1, -2, 1)))  # share z = 1


def test_structural_invariants_random():
    rng = random.Random(31)
    for _ in range(25):
        phi, psi = random_valid_pair(rng, 4)
        lat = build_lattice(phi, psi)
        n = lat.n
        ident = linalg.identity(n)
        assert linalg.mat_mul(lat.mat_c, lat.mat_c) == ident
        assert linalg.mat_mul(lat.mat_a, lat.mat_c) == lat.mat_b
        for m in (lat.mat_a, lat.mat_b, lat.mat_c):
            assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), lat.gram_a), m) == lat.gram_a
        assert linalg.charpoly(lat.mat_a) == list(phi.coeffs)
        assert linalg.charpoly(lat.mat_b) == list(psi.coeffs)
        # evenness
        assert all(lat.gram_a[i][i] == 2 for i in range(n))
        for _ in range(4):
            v = [rng.randint(-5, 5) for _ in range(n)]
            q = sum(v[i] * lat.gram_a[i][j] * v[j] for i in range(n) for j in range(n))
            assert q % 2 == 0


def test_reflection_fixes_hyperplane():
    rng = random.Random(77)
    phi, psi = random_valid_pair(rng, 4)
    lat = build_lattice(phi, psi)
    n = lat.n
    r = [1] + [0] * (n - 1)
    assert linalg.mat_vec(lat.mat_c, r) == [-1] + [0] * (n - 1)
    # C fixes every v with (v, r) = 0
    for _ in range(10):
        v = [rng.randint(-4, 4) for _ in range(n)]
        pairing = sum(v[j] * lat.gram_a[j][0] for j in range(n))
        cv = linalg.mat_vec(lat.mat_c, v)
        expect = [v[i] - pairing * r[i] for i in range(n)]
        assert cv == expect


def test_disc_equals_resultant_200_random():
    rng = random.Random(2024)
    for _ in range(200):
        phi, psi = random_valid_pair(rng)
        lat = build_lattice(phi, psi)
        assert abs(lat.disc) == abs(resultant(phi, psi))
        lhs, rhs = resultant_relation(phi, psi)
        assert lhs == rhs


def test_gram_bases_congruent():
    """The B-basis Gram is the A-basis Gram conjugated by the basis change from B = AC."""
    rng = random.Random(5)
    for _ in range(10):
        phi, psi = random_valid_pair(rng, 4)
        lat = build_lattice(phi, psi)
        n = lat.n
        # columns of U are B^j r expressed in the A-basis
        cols = []
        v = [1] + [0] * (n - 1)
        for _j in range(n):
            cols.append(v)
            v = linalg.mat_vec(lat.mat_b, v)
        u = linalg.transpose(cols)
        assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(u), lat.gram_a), u) == lat.gram_b


def test_unimodular_cases():
    assert not is_unimodular(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1)))
    # known K3 pair: Phi = CT1^3 CT3 CT4 CT6 CT16, Psi = R1
    Phi = (cyclotomic_trace(1) ** 3 * cyclotomic_trace(3) * cyclotomic_trace(4)
           * cyclotomic_trace(6) * cyclotomic_trace(16))
    phi, psi = pair_from_trace(Phi, salem_trace_deg11(1), "even")
    assert is_unimodular(phi, psi)
    # odd rank never
    podd, sodd = pair_from_trace(IntPoly((1, 1)), IntPoly((1, 1)), "odd")
    assert not is_unimodular(podd, sodd)


def test_signature_oracle():
    assert signature_oracle([[2, 1], [1, 2]]) == (2, 0)
    assert signature_oracle([[0, 1], [1, 0]]) == (1, 1)
    assert signature_oracle([[-2, 0], [0, -3]]) == (0, 2)
    with pytest.raises(ValueError):
        signature_oracle([[1, 0], [0, 0]])


def test_companion_convention():
    f = IntPoly((3, -2, 1))  # z^2 - 2z + 3
    assert companion(f) == [[0, -3], [1, 2]]
    assert companion(IntPoly.one()) == []
    for f in (IntPoly((1, 2)), IntPoly.const(2), IntPoly.zero()):
        with pytest.raises(ValueError, match="monic"):
            companion(f)
