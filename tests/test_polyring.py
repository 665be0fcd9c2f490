"""Tests for exact polynomial arithmetic, trace transforms and root isolation."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from hyperk3.linalg import bareiss_det
from hyperk3.polyring import (
    AlgebraicReal,
    IntPoly,
    classify_product,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    cyclotomic_trace,
    euler_phi,
    is_salem_trace,
    is_unramified,
    isolate_real_roots,
    lehmer,
    lehmer_nf,
    lehmer_trace,
    newton_power_sum,
    pair_from_trace,
    palindrome_class,
    palindromic_expand,
    parse_poly,
    resultant,
    resultant_relation,
    salem_trace_deg11,
    salem_trace_mt,
    salem_trace_nt,
    squarefree_decomposition,
    sturm_root_count,
    trace_poly,
    trace_polynomial_pair,
)
from hyperk3.polyring import parse
from hyperk3.polyring.parse import ParseError
from hyperk3.polyring.roots import signs_at_roots

W = IntPoly.variable()


# --- oracles ---------------------------------------------------------------

def moebius(n: int) -> int:
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def cyclotomic_by_moebius(k: int) -> IntPoly:
    """Prod over divisors d|k of (z^(k/d) - 1)^mu(d), as exact division."""
    num = IntPoly.one()
    den = IntPoly.one()
    for d in range(1, k + 1):
        if k % d == 0:
            mu = moebius(d)
            base = IntPoly.monomial(k // d, 1) - 1
            if mu == 1:
                num = num * base
            elif mu == -1:
                den = den * base
    return num.divexact(den)


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    m, n = f.degree, g.degree
    if m == 0:
        return f.constant() ** n
    if n == 0:
        return g.constant() ** m
    size = m + n
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = [[0] * i + fc + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (size - n - 1 - i) for i in range(m)]
    return bareiss_det(rows)


def bisection_root(f: IntPoly, lo: Fraction, hi: Fraction, width: Fraction) -> Fraction:
    assert f.sign_at(lo) * f.sign_at(hi) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = f.sign_at(mid)
        if s == 0:
            return mid
        if s == f.sign_at(lo):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# --- cyclotomic machinery ----------------------------------------------------

def test_cyclotomic_squared_convention():
    assert cyclotomic(1, "squared") == IntPoly((1, -2, 1))
    assert cyclotomic(2, "squared") == IntPoly((1, 2, 1))
    assert cyclotomic(3, "standard") == IntPoly((1, 1, 1))
    assert cyclotomic(12, "standard") == IntPoly((1, 0, -1, 0, 1))
    with pytest.raises(ValueError):
        cyclotomic(0)


@pytest.mark.parametrize("k", list(range(1, 31)) + [60, 66, 93])
def test_cyclotomic_matches_moebius_oracle(k):
    if k >= 3:
        assert cyclotomic(k, "standard") == cyclotomic_by_moebius(k)


def test_cyclotomic_trace_basics():
    assert cyclotomic_trace(1) == IntPoly((-2, 1))
    assert cyclotomic_trace(2) == IntPoly((2, 1))
    assert cyclotomic_trace(12) == IntPoly((-3, 0, 1))


@pytest.mark.parametrize("k", range(1, 101))
def test_cyclotomic_trace_round_trip(k):
    ct = cyclotomic_trace(k)
    assert palindromic_expand(ct) == cyclotomic(k, "squared")


def test_catalog_counts():
    idxs = cyclotomic_indices_up_to_degree(10)
    assert len(idxs) == 41
    assert sum(1 for k in idxs if is_unramified(cyclotomic_trace(k))) == 15
    assert max(idxs) == 66


def test_apostol_criterion_exhaustive():
    """|Res(CT_k, CT_m)| = 1 iff k/m is not a prime power (catalog pairs)."""
    idxs = [k for k in cyclotomic_indices_up_to_degree(10) if k <= 66]
    cts = {k: cyclotomic_trace(k) for k in idxs}
    for i, m in enumerate(idxs):
        for k in idxs[i + 1:]:
            if k < m:
                continue
            r = resultant(cts[k], cts[m])
            expect_unit = not _is_prime_power_ratio(k, m)
            assert (abs(r) == 1) == expect_unit, (k, m, r)


def _is_prime_power_ratio(k: int, m: int) -> bool:
    if k % m != 0:
        return False
    q = k // m
    if q == 1:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True  # q is prime


def test_unramified_examples():
    assert is_unramified(lehmer_trace())
    assert is_unramified(cyclotomic_trace(12))
    assert not is_unramified(cyclotomic_trace(5))
    assert is_unramified(lehmer(), "z")


# --- palindromes and the trace transform ------------------------------------

def test_palindrome_class():
    assert palindrome_class(IntPoly((1, 1, 1))) == "palindromic"
    assert palindrome_class(IntPoly((-1, 0, 1))) == "anti_palindromic"
    assert palindrome_class(IntPoly((0, 1, 1))) == "neither"


def test_trace_pair_small():
    Phi, Psi = trace_polynomial_pair(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1)))
    assert Phi == IntPoly.one()
    assert Psi == IntPoly((1, 1))


def test_trace_pair_lehmer():
    # psi = L(z), phi any anti-palindromic degree-10 partner
    core = cyclotomic(1, "squared") ** 2 * cyclotomic(3) * cyclotomic(4)  # degree 8
    phi = IntPoly((-1, 0, 1)) * core
    _, Psi = trace_polynomial_pair(phi, lehmer())
    assert Psi == lehmer_trace()


def test_trace_pair_rejects_bad_classes():
    with pytest.raises(ValueError):
        trace_polynomial_pair(IntPoly((1, 1, 1)), IntPoly((1, 1, 1)))
    with pytest.raises(ValueError):
        trace_polynomial_pair(IntPoly((-1, 0, 1)), IntPoly((-1, 0, 1)))


def test_pair_round_trip_random():
    rng = random.Random(20240)
    for _ in range(40):
        n_half = rng.randint(1, 6)
        Phi = IntPoly([rng.randint(-3, 3) for _ in range(n_half - 1)] + [1])
        Psi = IntPoly([rng.randint(-3, 3) for _ in range(n_half)] + [1])
        phi, psi = pair_from_trace(Phi, Psi, "even")
        assert palindrome_class(phi) == "anti_palindromic"
        assert palindrome_class(psi) == "palindromic"
        P2, S2 = trace_polynomial_pair(phi, psi)
        assert (P2, S2) == (Phi, Psi)
        phi, psi = pair_from_trace(Psi, Psi + 0, "odd")
        P3, S3 = trace_polynomial_pair(phi, psi)
        assert (P3, S3) == (Psi, Psi)


def test_trace_preserved():
    """A palindromic even-degree polynomial and its trace polynomial share trace."""
    rng = random.Random(7)
    for _ in range(30):
        d = rng.randint(1, 8)
        F = IntPoly([rng.randint(-4, 4) for _ in range(d)] + [1])
        f = palindromic_expand(F)
        assert f.trace() == F.trace()


def old_trace_poly(f):
    """Reference: the monomial peel, one (1+z^2)-power expansion per monomial."""
    if palindrome_class(f) != "palindromic" or f.degree % 2 != 0:
        raise ValueError("trace polynomial needs a palindromic polynomial of even degree")
    d = f.degree // 2
    rem = list(f.coeffs)
    out = [0] * (d + 1)
    for j in range(d, 0, -1):
        c = rem[d + j]
        if c:
            out[j] = c
            expanded = old_palindromic_expand(IntPoly.monomial(j, c))
            for t, coef in enumerate(expanded.coeffs):
                rem[t + (d - j)] -= coef
    out[0] = rem[d]
    rem[d] = 0
    if any(rem):
        raise AssertionError("palindromic peel left a nonzero residue")
    return IntPoly(out)


def old_palindromic_expand(F):
    """Reference: z^d F(z+1/z) = sum a_j (z^2+1)^j z^(d-j) with IntPoly powers."""
    if F.is_zero():
        return F
    d = F.degree
    out = [0] * (2 * d + 1)
    zsq1 = IntPoly((1, 0, 1))
    power = IntPoly.one()
    for j, a in enumerate(F.coeffs):
        if a:
            term = power * a
            for t, c in enumerate(term.coeffs):
                out[t + (d - j)] += c
        power = power * zsq1
    return IntPoly(out)


def old_trace_polynomial_pair(phi, psi):
    """Reference: trace_polynomial_pair's two branches over old_trace_poly."""
    if phi.degree % 2 == 0:
        core = phi.divexact(IntPoly((-1, 0, 1)))
        return old_trace_poly(core) if core.degree > 0 else core, old_trace_poly(psi)
    core = phi.divexact(IntPoly((-1, 1)))
    return old_trace_poly(core), old_trace_poly(psi.divexact(IntPoly((1, 1))))


def _catalog_trace_polys():
    out = {f"CT{k}": cyclotomic_trace(k) for k in cyclotomic_indices_up_to_degree(10)}
    out.update({f"R{i}": salem_trace_deg11(i) for i in range(1, 11)})
    out.update({f"L{i}": lehmer_nf(i) for i in range(1, 9)})
    out.update(LT=lehmer_trace(), MT=salem_trace_mt(), NT=salem_trace_nt())
    return out


def _random_coeff(rng):
    return rng.choice([0, 0, rng.randint(-5, 5), -rng.randint(1, 10 ** 6),
                       rng.randint(-10 ** 40, 10 ** 40)])


def test_transform_matches_old_on_catalog():
    polys = _catalog_trace_polys()
    assert len(polys) == 41 + 10 + 8 + 3
    for k in cyclotomic_indices_up_to_degree(10):
        f = cyclotomic(k, "squared")
        assert trace_poly(f) == old_trace_poly(f) == cyclotomic_trace(k), k
    for name, F in polys.items():
        f = palindromic_expand(F)
        assert f == old_palindromic_expand(F), name
        assert trace_poly(f) == old_trace_poly(f) == F, name


def test_transform_matches_old_on_random_palindromes():
    rng = random.Random(4104)
    for n in range(45):
        for _ in range(6):
            half = [_random_coeff(rng) for _ in range((n - 1) // 2)]
            lead = rng.choice([1, -1, rng.randint(2, 10 ** 30), -rng.randint(2, 10 ** 30)])
            mid = [_random_coeff(rng)] if n % 2 == 0 and n else []
            f = IntPoly([lead] + half + mid + half[::-1] + [lead]) if n else IntPoly([lead])
            assert f.degree == n and palindrome_class(f) == "palindromic"
            if n % 2:
                for fn in (trace_poly, old_trace_poly):
                    with pytest.raises(ValueError, match="palindromic polynomial of even degree"):
                        fn(f)
                continue
            F = trace_poly(f)
            assert F == old_trace_poly(f), f
            assert palindromic_expand(F) == old_palindromic_expand(F) == f
    for d in range(23):
        F = IntPoly([_random_coeff(rng) for _ in range(d)] + [rng.choice([1, -7, 10 ** 25])])
        assert palindromic_expand(F) == old_palindromic_expand(F), F


@pytest.mark.parametrize("f", [IntPoly((1, 1)), cyclotomic(3) * IntPoly((1, 1)),
                               IntPoly((3, 2, 1)), IntPoly((0, 1, 0, 1)), IntPoly()],
                         ids=["odd", "odd-deg3", "non-palindromic", "zero-constant", "zero"])
def test_transform_rejects_like_old(f):
    errors = []
    for fn in (trace_poly, old_trace_poly):
        with pytest.raises(ValueError) as exc:
            fn(f)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_trace_pair_matches_old_both_parities():
    rng = random.Random(5151)
    cases = [(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1)))]  # rank 2: constant core
    for _ in range(30):
        n_half = rng.randint(1, 11)
        Phi = IntPoly([_random_coeff(rng) for _ in range(n_half - 1)] + [1])
        Psi = IntPoly([_random_coeff(rng) or 1 for _ in range(n_half)] + [1])
        cases.append(pair_from_trace(Phi, Psi, "even"))
        cases.append(pair_from_trace(Psi, IntPoly([1] + list(Psi.coeffs[1:])), "odd"))
    assert {phi.degree % 2 for phi, _psi in cases} == {0, 1}
    for phi, psi in cases:
        assert trace_polynomial_pair(phi, psi) == old_trace_polynomial_pair(phi, psi)


# --- resultants ---------------------------------------------------------------

def test_resultant_examples():
    assert resultant(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1))) == 3
    f = IntPoly((2, -1, 3, 1))
    assert resultant(f, f) == 0
    assert resultant(cyclotomic_trace(3), cyclotomic_trace(6)) == -2


def test_resultant_against_sylvester_oracle():
    rng = random.Random(99)
    for _ in range(50):
        f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1])
        g = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1])
        assert resultant(f, g) == sylvester_resultant(f, g)
    rng = random.Random(7)  # non-monic, constants, common factors
    for _ in range(200):
        f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 7))] + [rng.choice([-4, -1, 2, 3])])
        g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 7))] + [rng.choice([-3, -1, 1, 5])])
        if rng.random() < 0.3:
            h = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [rng.choice([1, -2])])
            f, g = f * h, g * h
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_edge_cases_against_oracle():
    x = IntPoly.variable()
    cases = [
        ((x - 1) * (x + 2), (x - 1) * (x * x + 3)),          # common factor
        ((x * x + 1) ** 2 * (x + 5), (x * x + 1) * (x - 7)),  # common factor, later in the PRS
        (IntPoly.const(3), x ** 4 + x + 1),                   # constant first
        (x ** 3 - 2 * x + 7, IntPoly.const(-2)),              # constant second
        (IntPoly.const(-3), IntPoly.const(5)),                # both constant
        (3 * x ** 2 + 2 * x - 1, 2 * x ** 3 - x + 5),         # non-monic
        (-x ** 4 + 3 * x - 2, -2 * x ** 2 + x + 1),           # negative leading coefficients
        (6 * x ** 2 + 4, 9 * x ** 3 - 3),                     # content > 1 on both sides
        (-4 * x ** 3 + 8 * x - 2, 10 * x ** 5 + 5),           # content > 1, negative
        (x + 3, x ** 5 - x ** 2 + 2),                         # deg f < deg g, both odd
        (2 * x ** 3 - x + 1, x ** 5 + 4 * x ** 4 - 3),        # deg f < deg g, both odd
        (x ** 2 + 1, x ** 3 + x + 1),                         # deg f < deg g, not both odd
    ]
    for f, g in cases:
        assert resultant(f, g) == sylvester_resultant(f, g), (f, g)
        assert resultant(g, f) == sylvester_resultant(g, f), (g, f)
        assert resultant(f, g) == (-1) ** (f.degree * g.degree) * resultant(g, f)
    assert resultant(cases[0][0], cases[0][1]) == 0
    assert resultant(x + 3, x ** 5 - x ** 2 + 2) == -250  # g(-3)
    assert resultant(x ** 5 - x ** 2 + 2, x + 3) == 250
    with pytest.raises(ValueError):
        resultant(IntPoly.zero(), x)


def test_resultant_exact_divisions_raise():
    from hyperk3.polyring import poly

    assert poly._exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        poly._exact_div(7, 2)


def test_resultant_against_sylvester_oracle_catalog_pairs():
    """Every (CT_k, R_i), (CT_k, L_i) and (LT, R_i) pair the scans prefilter on."""
    ks = cyclotomic_indices_up_to_degree(10)
    partners = [salem_trace_deg11(i) for i in range(1, 11)] + [lehmer_nf(i) for i in range(1, 9)]
    for P in partners:
        for k in ks:
            assert resultant(cyclotomic_trace(k), P) == sylvester_resultant(cyclotomic_trace(k), P)
    for i in range(1, 11):
        R = salem_trace_deg11(i)
        assert resultant(lehmer_trace(), R) == sylvester_resultant(lehmer_trace(), R)


def test_resultant_against_sylvester_oracle_deg22_candidates():
    """The rank-22 (phi, psi) of every R7 deg22 scan candidate."""
    from hyperk3.search import ct_product, enumerate_ct_products

    R = salem_trace_deg11(7)
    ok = {k: abs(sylvester_resultant(cyclotomic_trace(k), R)) == 1
          for k in cyclotomic_indices_up_to_degree(10)}
    count = 0
    for ms in enumerate_ct_products(10, "one_multiple_le3"):
        if all(ok[k] for k in ms):
            phi, psi = pair_from_trace(ct_product(ms), R, "even")
            assert resultant(phi, psi) == sylvester_resultant(phi, psi)
            count += 1
    assert count == 272


def test_resultant_multiplicative():
    rng = random.Random(4242)
    for _ in range(30):
        f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        g = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        h = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def test_resultant_relation_even():
    lhs, rhs = resultant_relation(IntPoly((-1, 0, 1)), IntPoly((1, 1, 1)))
    assert lhs == rhs == 3


def test_resultant_relation_random_even_and_odd():
    rng = random.Random(11)
    seen_odd = 0
    for _ in range(40):
        nh = rng.randint(1, 5)
        Phi = IntPoly([rng.randint(-3, 3) for _ in range(nh - 1)] + [1])
        Psi = IntPoly([rng.randint(-3, 3) for _ in range(nh)] + [1])
        phi, psi = pair_from_trace(Phi, Psi, "even")
        if resultant(phi, psi) != 0:
            lhs, rhs = resultant_relation(phi, psi)
            assert lhs == rhs
        PhiO = IntPoly([rng.randint(-3, 3) for _ in range(nh)] + [1])
        phi, psi = pair_from_trace(PhiO, Psi, "odd")
        if resultant(phi, psi) != 0:
            lhs, rhs = resultant_relation(phi, psi)
            assert lhs == rhs
            seen_odd += 1
    assert seen_odd > 10


# --- root isolation -------------------------------------------------------------

def test_isolate_lehmer_trace_values():
    roots = isolate_real_roots(lehmer_trace())
    assert len(roots) == 5
    inside = [r for r in roots if -2 < r < 2]
    assert len(inside) == 4
    printed = ["-1.88660", "-1.46887", "-0.584663", "0.913731"]
    for r, s in zip(inside, printed):
        target = Fraction(s)
        decimals = len(s.split(".")[1])
        assert abs(r.approx(Fraction(1, 10 ** 9)) - target) < Fraction(1, 10 ** decimals)


def test_isolate_multiplicity():
    roots = isolate_real_roots(IntPoly((4, -4, 1)))  # (w-2)^2
    assert len(roots) == 1
    assert roots[0] == 2
    assert roots[0].multiplicity == 2


def test_isolate_sqrt3_disjoint():
    roots = isolate_real_roots(IntPoly((-3, 0, 1)))
    assert len(roots) == 2
    (lo1, hi1), (lo2, hi2) = roots[0].interval, roots[1].interval
    assert hi1 <= lo2
    target = bisection_root(IntPoly((-3, 0, 1)), Fraction(1), Fraction(2), Fraction(1, 10 ** 9))
    assert abs(roots[1].approx() - target) < Fraction(1, 10 ** 8)


def test_isolation_counts_match_sturm():
    rng = random.Random(321)
    for _ in range(25):
        f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 7))] + [1])
        roots = isolate_real_roots(f)
        sf_count = sturm_root_count(f, Fraction(-10 ** 6), Fraction(10 ** 6))
        assert len(roots) == sf_count
        total = sum(m for _f, m in squarefree_decomposition(f) for _r in [0])
        intervals = [r.interval for r in roots]
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2


def test_algebraic_real_comparisons():
    r2 = isolate_real_roots(IntPoly((-2, 0, 1)))[1]   # sqrt 2
    r2b = isolate_real_roots(IntPoly((-4, 0, 0, 0, 1)))[1]  # 4th root of 4 = sqrt 2
    assert r2 == r2b
    r3 = isolate_real_roots(IntPoly((-3, 0, 1)))[1]
    assert r2 < r3
    assert r2 > 1 and r2 < 2 and r2 != Fraction(3, 2)
    f = IntPoly((-2, 0, 1))  # roots -sqrt2, sqrt2
    assert signs_at_roots(f, f)[1] == 0                   # its own minimal polynomial
    assert signs_at_roots(IntPoly((-1, 1)), f)[1] > 0     # x - 1 at sqrt2
    assert signs_at_roots(IntPoly((2, -1)), f)[1] > 0     # 2 - x at sqrt2


def test_algebraic_real_rational_root():
    r = AlgebraicReal.from_rational(Fraction(7, 3))
    assert r == Fraction(7, 3)
    assert r < 3 and r > 2


def test_isolation_returns_private_copies():
    """Refining a returned root reaches neither the cache, the catalog table nor a later call's roots."""
    from hyperk3.polyring import roots

    R = salem_trace_deg11(1)
    first = isolate_real_roots(R)
    before = [r.interval for r in first]
    for r in first:
        r.refine_to(Fraction(1, 10 ** 40))
    again = isolate_real_roots(R)
    assert all(a is not b for a, b in zip(first, again))
    assert [r.interval for r in again] == before

    factors = [cyclotomic_trace(1), cyclotomic_trace(3), cyclotomic_trace(16), lehmer_trace()]
    Phi = factors[0] ** 3 * factors[1] * factors[2] * factors[3]

    def table():
        return [[r.interval for r in roots._catalog_roots(f.coeffs)] for f in factors]

    first = isolate_real_roots(Phi)
    before, table_before = [r.interval for r in first], table()
    for r in first:
        r.refine_to(Fraction(1, 10 ** 40))
    again = isolate_real_roots(Phi)
    assert all(a is not b for a, b in zip(first, again))
    assert [r.interval for r in again] == before
    assert table() == table_before
    assert sum(len(t) for t in table_before) == len(again) == 1 + 1 + 4 + 5


def _old_isolate_real_roots(f):
    """Uncached isolation as before the isolation cache (reference only).

    Every root goes through the validating constructor.
    """
    from hyperk3.polyring import roots as R

    out = []
    for part, mult in squarefree_decomposition(f):
        if part.degree < 1:
            continue
        chain = R._sturm_chain(part)
        b = R.root_bound(part)
        lo, hi = R._nonroot_near(part, Fraction(-b)), R._nonroot_near(part, Fraction(b))
        stack = [(lo, hi, R._variations(chain, lo), R._variations(chain, hi))]
        while stack:
            a, c, va, vc = stack.pop()
            if va - vc == 1:
                out.append(AlgebraicReal(part, (a, c), mult))
            elif va - vc > 1:
                mid = R._nonroot_near(part, (a + c) / 2)
                vm = R._variations(chain, mid)
                stack += [(a, mid, va, vm), (mid, c, vm, vc)]
    out.sort(key=cmp_to_key(lambda a, b: a.compare(b)))
    return out


def _assert_isolation_matches_old(f):
    old, new = _old_isolate_real_roots(f), isolate_real_roots(f)
    assert len(new) == len(old), f
    assert [(r.minpoly, r.multiplicity) for r in new] == \
        [(r.minpoly, r.multiplicity) for r in old], f
    for i, a in enumerate(new):
        lo, hi = a.interval
        assert hi - lo < Fraction(1, 2 ** 20)
        AlgebraicReal(a.minpoly, (lo, hi))  # the trusted interval passes the checks
        assert [a == b for b in old] == [j == i for j in range(len(old))], f
    for a, b in zip(new, new[1:]):
        assert a.interval[1] <= b.interval[0]


def test_isolation_matches_old_on_catalog():
    polys = [cyclotomic_trace(k) for k in cyclotomic_indices_up_to_degree(10)]
    polys += [salem_trace_deg11(i) for i in range(1, 11)]
    polys += [lehmer_nf(i) for i in range(1, 9)]
    polys += [lehmer_trace(), salem_trace_mt(), salem_trace_nt()]
    polys += [cyclotomic_trace(1) ** 3 * cyclotomic_trace(3) * cyclotomic_trace(16),
              cyclotomic_trace(4) ** 2 * lehmer_trace() * salem_trace_deg11(2)]
    for f in polys:
        _assert_isolation_matches_old(f)


def _antipode(P):
    """P(-w), the trace polynomial of the antipode pair up to sign."""
    return IntPoly([(-1) ** i * c for i, c in enumerate(P.coeffs)])


def test_isolation_matches_old_on_scan_products():
    """Every distinct Phi of the R7 deg22 and the lehmerA/lehmerB candidates, and the antipodes.

    These are the products whose catalog factors the isolation splits off.
    """
    from hyperk3.search import _qualifying, ct_product

    polys = {}

    def add(P, *antipode):
        for f in (P, _antipode(P))[:1 + len(antipode)]:
            polys.setdefault(f.coeffs, f)

    r7 = _qualifying(salem_trace_deg11(7), 10, "one_multiple_le3")
    assert len(r7) == 272
    for ms in r7:
        add(ct_product(ms), "antipode")
    lehmer_a = set()
    for i in range(1, 11):
        R = salem_trace_deg11(i)
        if abs(resultant(lehmer_trace(), R)) == 1:
            lehmer_a.update(_qualifying(R, 5, "sets_only"))
    for ks in sorted(lehmer_a):
        add(lehmer_trace() * ct_product(ks), "antipode")
    for i in range(1, 9):
        for ms in _qualifying(lehmer_nf(i), 10, "one_multiple_le3"):
            add(ct_product(ms))
    for f in polys.values():
        _assert_isolation_matches_old(f)


def test_isolation_matches_old_on_random():
    rng = random.Random(2020)
    for _ in range(60):
        f = IntPoly.one()
        for _k in range(rng.randint(1, 3)):
            g = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.choice([1, 1, 2, -3])])
            f = f * g ** rng.randint(1, 3)
        if f.degree >= 1:
            _assert_isolation_matches_old(f)


# --- catalog split and root ranks -------------------------------------------------

def _catalog_factors():
    return [cyclotomic_trace(k) for k in cyclotomic_indices_up_to_degree(10)] + [lehmer_trace()]


def test_catalog_closed_under_antipode():
    """Each of the 41 CT_k, with w -> -w, is again one of them up to sign."""
    cts = [cyclotomic_trace(k) for k in cyclotomic_indices_up_to_degree(10)]
    assert len(cts) == 41
    for f in cts:
        g = _antipode(f)
        assert g in cts or -g in cts, f


def _frac_order_with_lt():
    """All catalog roots, increasing, by j/k (a larger j/k is a smaller root),
    LT's placed by exact comparison; each as (factor index, root index)."""
    from math import gcd

    ks = cyclotomic_indices_up_to_degree(10)
    fracs = []
    for i, k in enumerate(ks):
        js = sorted((Fraction(j, k) for j in range(k // 2 + 1) if gcd(j, k) == 1), reverse=True)
        assert len(js) == cyclotomic_trace(k).degree
        fracs += [(q, i, t) for t, q in enumerate(js)]
    order = [(i, t) for _q, i, t in sorted(fracs, reverse=True)]
    roots_of = [isolate_real_roots(f) for f in _catalog_factors()]
    ct_roots = [roots_of[i][t] for i, t in order]
    for t in reversed(range(5)):
        r = roots_of[len(ks)][t]
        order.insert(sum(1 for c in ct_roots if c < r), (len(ks), t))
    return order, roots_of


def test_catalog_ranks_follow_j_over_k():
    """The j/k order plus the placed LT roots is the exact order of all 230 catalog roots,
    with -2 first, 2 next to last and LT's root above 2 last; the package's ranks agree."""
    from hyperk3.polyring import roots

    order, roots_of = _frac_order_with_lt()
    assert len(order) == 230
    exact = sorted(order, key=cmp_to_key(
        lambda a, b: roots_of[a[0]][a[1]].compare(roots_of[b[0]][b[1]])))
    assert exact == order
    assert order[0] == (1, 0) and order[-2] == (0, 0) and order[-1] == (41, 4)
    ranks = roots._catalog_ranks()[0]
    assert [ranks[i][t] for i, t in order] == list(range(230))
    assert roots.endpoint_keys() == (1, 2 * 228 + 1)


def test_catalog_roots_are_far_apart():
    """Adjacent catalog roots lie more than 2^-20 apart (about 1.3e-3 at the closest), so the
    cached intervals, narrower than 2^-20, never overlap and ranks need no bisection."""
    from hyperk3.polyring import roots

    ordered = roots._catalog_ranks()[1]
    width = Fraction(1, 2 ** 20)
    assert all(r.interval[1] - r.interval[0] < width for r in ordered)
    gaps = [b.interval[0] - a.interval[1] for a, b in zip(ordered, ordered[1:])]
    assert min(gaps) > width
    assert Fraction(1, 1000) < min(gaps) < Fraction(2, 1000)


def test_split_reassembles_and_leaves_no_catalog_factor():
    from hyperk3.polyring import roots

    factors = _catalog_factors()
    rng = random.Random(9)
    polys = [IntPoly.one(), IntPoly.const(-6), salem_trace_deg11(3), lehmer_nf(5) * lehmer_nf(5)]
    for _ in range(80):
        f = IntPoly.const(rng.choice([1, -1, 2, 3]))
        for _k in range(rng.randint(0, 4)):
            f = f * rng.choice(factors) ** rng.randint(1, 3)
        for _k in range(rng.randint(0, 2)):
            f = f * IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
        polys.append(f)
    for f in polys:
        found, rest = roots._split(f.coeffs)
        product = rest
        for i, m in found:
            product = product * factors[i] ** m
        assert product == f
        assert all(not rest.divmod_exact(g)[1].is_zero()
                   for g in factors if g.degree <= rest.degree)
        assert [i for i, _m in found] == sorted({i for i, _m in found})


def test_roots_report_the_yun_part_of_their_polynomial():
    """A root of a product reports the part of squarefree_decomposition for its
    multiplicity, sign included, though exact work uses the factor that isolates it."""
    from hyperk3.search import ct_product

    for f in (ct_product([6, 19]), ct_product([4, 4, 15, 30]), ct_product([1, 3, 3, 4, 9, 18]),
              lehmer_trace() * cyclotomic_trace(3) ** 2 * IntPoly((-5, 0, 1))):
        parts = dict((m, p) for p, m in squarefree_decomposition(f))
        got = isolate_real_roots(f)
        assert [r.minpoly for r in got] == [parts[r.multiplicity] for r in got]
    # Yun's sign comes from the remainder sequence: here it is negative, which no
    # product of the monic catalog factors gives, so minpoly cannot be recombined
    assert any(p.leading() < 0 for p, _m in squarefree_decomposition(ct_product([6, 19])))


def test_trace_poly_of_a_sparse_palindrome_of_high_degree():
    """P_j is built by iteration, so trace_poly at degree 2400 and a cold pair_power(600),
    which recursed 600 deep before, need no recursion at all."""
    from hyperk3.polyring import pair_power, poly

    poly.pair_power.cache_clear()
    f = (IntPoly.monomial(2400, 1) + IntPoly.monomial(1700, 3) + IntPoly.monomial(1200, -5)
         + IntPoly.monomial(700, 3) + IntPoly.one())
    F = trace_poly(f)
    assert F.degree == 1200
    assert palindromic_expand(F) == f
    assert trace_poly(IntPoly.monomial(1200, 1) + IntPoly.one()) == pair_power(600)


# --- Newton sums and classification --------------------------------------------

def test_newton_power_sums():
    # z^3 - e1 z^2 + e2 z - e3 with e = (7, 20, 29)
    chi = IntPoly((-29, 20, -7, 1))
    assert newton_power_sum(chi, 1) == 7
    assert newton_power_sum(chi, 3) == 10
    assert newton_power_sum(IntPoly((0, 0, 0, 0, 1)), 5) == 0
    rng = random.Random(5)
    for _ in range(20):
        f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
        assert newton_power_sum(f, 1) == f.trace()


def test_classify_product_examples():
    f = cyclotomic(1) ** 9 * cyclotomic(2) * cyclotomic(4) * lehmer()
    fl = classify_product(f)
    tags = {(tag[0], tag[1], m) for _p, m, tag in fl.factors}
    assert ("cyclotomic", 1, 9) in tags
    assert ("cyclotomic", 2, 1) in tags
    assert ("cyclotomic", 4, 1) in tags
    salems = fl.salem_factors()
    assert salems == [lehmer()]
    assert fl.product() == f

    assert classify_product(IntPoly((1, 1, 1))).cyclotomic_part() == [(3, 1)]
    fl3 = classify_product(IntPoly((-3, 0, 1)))  # z^2 - 3: roots off circle
    assert fl3.other_factors() and not fl3.salem_factors()
    assert not fl3.cyclotomic_part()


def _old_classify_product(f):
    """Reference: classify_product's trial division by every cyclotomic of degree <= deg f."""
    from hyperk3.polyring.poly import _cyclotomic_indices, _salem_shape

    factors, rest = [], f
    for k in _cyclotomic_indices(f.degree):
        c = cyclotomic(k, "standard")
        if c.degree > rest.degree:
            continue
        mult = 0
        while (quot_rem := rest.divmod_exact(c))[1].is_zero():
            rest = quot_rem[0]
            mult += 1
        if mult:
            factors.append((c, mult, ("cyclotomic", k)))
    if rest.degree > 0:
        for part, mult in squarefree_decomposition(rest):
            tag = "salem" if mult == 1 and _salem_shape(part) else "other"
            factors.append((part, mult, (tag, None)))
    return factors


def test_classify_product_matches_old_trial_division():
    """The z-level phi and psi of every R7 deg22 and lehmerA candidate, and the
    examples above: the same factors, multiplicities, tags and order."""
    from hyperk3.search import _qualifying, ct_product

    R = {i: salem_trace_deg11(i) for i in range(1, 11)}
    pairs = [(ct_product(ms), R[7]) for ms in _qualifying(R[7], 10, "one_multiple_le3")]
    pairs += [(lehmer_trace() * ct_product(ks), R[i]) for i in R
              if abs(resultant(lehmer_trace(), R[i])) == 1
              for ks in _qualifying(R[i], 5, "sets_only")]
    polys = {f.coeffs: f for Phi, Psi in pairs for f in pair_from_trace(Phi, Psi, "even")}
    examples = [cyclotomic(1) ** 9 * cyclotomic(2) * cyclotomic(4) * lehmer(),
                IntPoly((1, 1, 1)), IntPoly((-3, 0, 1))]
    polys.update((f.coeffs, f) for f in examples)
    assert len(polys) > 300
    tags = set()
    for f in polys.values():
        got = classify_product(f).factors
        assert got == _old_classify_product(f), f
        tags.update(tag[0] for _p, _m, tag in got)
    assert tags == {"cyclotomic", "salem", "other"}


def _old_is_salem_trace_shape(p):
    """siegel's shape test before the shared helper (reference only)."""
    roots = isolate_real_roots(p)
    if sum(r.multiplicity for r in roots) != p.degree:
        return False
    if any(r.multiplicity != 1 for r in roots):
        return False
    above = [r for r in roots if r > 2]
    return len(above) == 1 and all(-2 < r < 2 for r in roots if r is not above[0])


def _old_salem_shape(g):
    """poly._salem_shape before the shared helper, closed interval [-2, 2] (reference only)."""
    if g.degree < 4 or g.degree % 2 != 0 or palindrome_class(g) != "palindromic":
        return False
    t = trace_poly(g)
    roots = isolate_real_roots(t)
    if sum(r.multiplicity for r in roots) != t.degree:
        return False
    above = [r for r in roots if r > 2]
    if len(above) != 1 or above[0].multiplicity != 1:
        return False
    return all(r <= 2 and r >= -2 for r in roots if r is not above[0])


def _assert_salem_shapes_match_old(t):
    """The helper against siegel's old test on t, and against the old _salem_shape
    on each squarefree, cyclotomic-free part that classify_product tests of its z-form."""
    from hyperk3.polyring.poly import _salem_shape

    assert is_salem_trace(t) == _old_is_salem_trace_shape(t), t
    for part, mult, tag in classify_product(palindromic_expand(t)).factors:
        if tag[0] != "cyclotomic" and mult == 1:
            assert _salem_shape(part) == _old_salem_shape(part), part
    return is_salem_trace(t)


def test_salem_trace_helper_matches_old():
    named = [cyclotomic_trace(k) for k in cyclotomic_indices_up_to_degree(10)]
    named += [salem_trace_deg11(i) for i in range(1, 11)]
    named += [lehmer_nf(i) for i in range(1, 9)]
    named += [lehmer_trace(), salem_trace_mt(), salem_trace_nt()]
    # a root at +-2 or a repeated root rules the shape out
    named += [lehmer_trace() * cyclotomic_trace(k) for k in (1, 2)]
    named += [salem_trace_mt() * cyclotomic_trace(3) ** 2]
    salem = [_assert_salem_shapes_match_old(t) for t in named]
    assert salem == [False] * 41 + [True] * 21 + [False] * 3
    rng = random.Random(2003)
    found = 0
    for _ in range(300):
        t = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))] + [1])
        if rng.random() < 0.3:
            t = t * cyclotomic_trace(rng.choice([1, 2, 3, 5, 8]))
        found += _assert_salem_shapes_match_old(t)
    assert found >= 5


def test_classify_random_reassembly():
    rng = random.Random(88)
    for _ in range(10):
        ks = rng.sample([1, 2, 3, 4, 5, 6, 7, 8, 12], rng.randint(1, 4))
        f = IntPoly.one()
        for k in ks:
            f = f * cyclotomic(k) ** rng.randint(1, 2)
        fl = classify_product(f)
        assert fl.product() == f
        assert fl.all_cyclotomic()


def _old_z_cyclo_indices(max_deg):
    """classify_product's index list before the shared helper (reference only)."""
    out = [1, 2]
    bound = 2 * max(2, max_deg) ** 2 + 4
    for k in range(3, bound + 1):
        if euler_phi(k) <= max_deg:
            out.append(k)
    return out


def _old_indices_up_to_degree(max_degree):
    """cyclotomic_indices_up_to_degree before the shared helper (reference only)."""
    if max_degree < 1:
        return []
    out = [1, 2]
    bound = 2 * (2 * max_degree) ** 2 + 4
    for k in range(3, bound + 1):
        if euler_phi(k) <= 2 * max_degree:
            out.append(k)
    return out


def test_cyclotomic_index_helper_matches_old_formulas():
    from hyperk3.polyring.poly import _cyclotomic_indices

    for bound in range(45):
        assert list(_cyclotomic_indices(bound)) == _old_z_cyclo_indices(bound), bound
        if bound % 2 == 0:
            m = bound // 2
            assert list(cyclotomic_indices_up_to_degree(m)) == _old_indices_up_to_degree(m), m


# --- parser -------------------------------------------------------------------

def test_parse_basic():
    var, p = parse_poly("z^2 - 1")
    assert var == "z" and p == IntPoly((-1, 0, 1))
    var, p = parse_poly("C(1)^3*C(3)*C(4)*C(6)*C(16)")
    assert var == "z" and p.degree == 20
    var, p = parse_poly("w^2-3")
    assert var == "w" and p == IntPoly((-3, 0, 1))
    var, p = parse_poly("LT")
    assert p == lehmer_trace()
    var, p = parse_poly("-2")
    assert var is None and p == IntPoly.const(-2)


def test_parse_z_substitution():
    var, p = parse_poly("z^11*R(1)@z")
    assert var == "z"
    assert p == palindromic_expand(salem_trace_deg11(1))
    var, p = parse_poly("z^5*LT@z")
    assert p == lehmer()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("z + w")
    with pytest.raises(ParseError):
        parse_poly("R(1)@z")  # negative powers remain
    with pytest.raises(ParseError):
        parse_poly("z^")
    with pytest.raises(ParseError):
        parse_poly("Q(3)")


def old_substitute_z(self, v):
    """Reference: _Parser._substitute_z as a Laurent power series of z + 1/z."""
    if v.var not in ("w", None) or v.offset != 0:
        raise ParseError("@z applies to a polynomial in w")
    out = parse._const(0)
    zz = parse._Value("z", -1, IntPoly((1, 0, 1)))
    power = parse._const(1)
    for c in v.poly.coeffs:
        if c:
            out = parse._add(out, parse._mul(power, parse._const(c)))
        power = parse._mul(power, zz)
    return parse._Value("z", out.offset, out.poly)


def _parse_outcome(text):
    try:
        return parse_poly(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


AT_Z_CASES = {
    "z^11*R(1)@z": "z",
    "R(1)@z": "ParseError: expression has negative powers of z left over",
    "z^10*R(1)@z": "ParseError: expression has negative powers of z left over",
    "3@z": "z",
    "0@z": "z",
    "(w+1)@z*z": "z",
    "z@z": "ParseError: @z applies to a polynomial in w",
    "(w*w)@z*z^2": "ParseError: @z applies to a polynomial in w",
    "z^5*(LT-2)@z+L": "z",
}


@pytest.mark.parametrize("text", sorted(AT_Z_CASES))
def test_at_z_matches_old_substitution(text, monkeypatch):
    new = _parse_outcome(text)
    expected = AT_Z_CASES[text]
    assert (new[0] if isinstance(new, tuple) else new) == expected
    monkeypatch.setattr(parse._Parser, "_substitute_z", old_substitute_z)
    assert _parse_outcome(text) == new


def test_format_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.choice([1, 2, -3])])
        var, p = parse_poly(f.format("z"))
        assert p == f


def test_per_query_caches_are_bounded():
    """Caches keyed by arbitrary polynomials must not grow without limit."""
    from hyperk3 import numfield, search
    from hyperk3.polyring import atoms, poly, roots

    for cached in (poly.resultant, poly.trace_polynomial_pair, poly.squarefree_decomposition,
                   poly._cyclotomic_standard, poly.cyclotomic_trace, poly._cyclotomic_table,
                   roots._sf_chain, roots._gcd_cached, roots._isolation_cache,
                   roots._catalog_roots, roots._split, roots._factor_resultants,
                   roots.signs_at_roots, poly.pair_power, numfield._c_matrix,
                   numfield._power_traces, atoms.salem_trace_deg11, atoms.lehmer_nf,
                   search._gap_vectors):
        assert cached.cache_info().maxsize is not None, cached.__name__
