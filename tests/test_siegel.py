"""Siegel criterion: q catalog, exact sign facts, threshold equivalence."""

from fractions import Fraction

import pytest

from hyperk3.polyring import (
    IntPoly,
    isolate_real_roots,
    lehmer_trace,
    salem_m,
    salem_trace_deg11,
    salem_trace_mt,
    salem_trace_nt,
    palindromic_expand,
    is_unramified,
)
from hyperk3.siegel import (
    TAU0,
    QFunction,
    builtin_q,
    siegel_test,
    threshold_classify_deg22,
    verify_D_identity,
)
from hyperk3.polyring.roots import ranked_roots, root_index, signs_at_roots

W = IntPoly.variable()


def sign_q_minus(x, q, c):
    """Sign of q(x) - c, read off the signs at the roots of x's minimal polynomial."""
    f = x.minpoly
    i = root_index(x, ranked_roots(f))
    den = signs_at_roots(q.denominator, f)[i]
    return signs_at_roots(q.numerator - IntPoly.const(c) * q.denominator, f)[i] * den


def lehmer_xs():
    return [r for r in isolate_real_roots(lehmer_trace()) if -2 < r < 2]


def salem_ys(i):
    inside = [r for r in isolate_real_roots(salem_trace_deg11(i)) if -2 < r < 2]
    return list(reversed(inside))


def test_builtin_q_shapes():
    q = builtin_q("fixed_point")
    assert q.numerator == (W + 1) ** 2 and q.denominator == W + 2
    q = builtin_q("a2")
    assert q.numerator == (W * W - 3) ** 2 and q.denominator == W + 2
    for label in ("e8a2a2", "d10"):
        q = builtin_q(label)
        assert q.denominator.degree > 0
    with pytest.raises(ValueError):
        builtin_q("nope")


def test_auxiliary_salem_traces():
    # MT and NT are degree-5 Salem trace polynomials; M(z) matches MT
    assert salem_trace_mt() == (W + 1) * (W - 2) * (W ** 3 - W * W - 4 * W + 1) - 1
    assert salem_trace_nt() == (W * W - 2 * W - 2) * (W ** 3 - 3 * W + 1) - 1
    assert palindromic_expand(salem_trace_mt()) == salem_m()
    for t in (salem_trace_mt(), salem_trace_nt()):
        roots = isolate_real_roots(t)
        assert len(roots) == 5
        assert sum(1 for r in roots if r > 2) == 1


def test_q_tau0_is_exactly_4():
    assert sign_q_minus(TAU0, builtin_q("fixed_point"), 4) == 0


def test_lehmer_conjugate_sign_facts():
    """The eight exact comparisons of q(x_j) against 4 (plus positivity)."""
    x4, x3, x2, x1 = lehmer_xs()
    facts = {
        "e8a2a2": {1: 1, 2: -1, 3: 1, 4: -1},
        "d10": {1: -1, 2: -1, 3: -1, 4: 1},
        "a2": {1: -1, 2: 1, 3: -1, 4: -1},
    }
    xs = {1: x1, 2: x2, 3: x3, 4: x4}
    for label, signs in facts.items():
        q = builtin_q(label)
        for j, expected in signs.items():
            assert sign_q_minus(xs[j], q, 4) == expected, (label, j)
            assert sign_q_minus(xs[j], q, 0) == 1, (label, j)


def test_siegel_verdicts_r1():
    q = builtin_q("fixed_point")
    ys = salem_ys(1)
    assert siegel_test(ys[7], q).verdict == "S"      # y8
    v = siegel_test(ys[9], q)                        # y10
    assert v.verdict == "H" and v.witness == ys[9]
    s = siegel_test(ys[0], q)                        # y1
    assert s.verdict == "S" and s.witness is not None and s.witness < TAU0


def test_threshold_equivalence_all_roots():
    for i in range(1, 11):
        for tau in salem_ys(i):
            full = siegel_test(tau, builtin_q("fixed_point")).verdict
            fast = threshold_classify_deg22(tau)
            assert full == fast


def test_y10_below_tau0_always():
    for i in range(1, 11):
        assert salem_ys(i)[9] < TAU0


def test_siegel_rejects_non_salem():
    sq3 = isolate_real_roots(IntPoly((-3, 0, 1)))[1]
    with pytest.raises(ValueError):
        siegel_test(sq3, builtin_q("fixed_point"))
    with pytest.raises(ValueError):
        threshold_classify_deg22(lehmer_xs()[0])  # degree 5, not 11


def test_indeterminate_on_boundary():
    """A synthetic q with q(tau) exactly 4 reports indeterminate."""
    tau = salem_ys(1)[7]
    p = tau.minpoly
    # q = 4 + (R * (w+2)) / (w+2): value 4 everywhere off the pole, and
    # exactly 4 at tau since R(tau) = 0
    q = QFunction("synthetic", 4 * (W + 2) + p * (W + 2), W + 2)
    assert siegel_test(tau, q).verdict == "indeterminate"


def test_verify_d_identity():
    assert verify_D_identity()


def test_d_identity_perturbation_fails():
    """Dropping one fixed-point term must break the closed form."""
    from hyperk3.siegel import _RatZ
    from hyperk3.polyring import cyclotomic, lehmer

    lhs = _RatZ.of(IntPoly((1, 1)))
    total = _RatZ.zero()
    for j in [1, 2, 3] + [1, 2] + [1]:  # arm of length 4 truncated to 3
        num = IntPoly.monomial(j + 1, 1)
        den = (IntPoly.monomial(j, 1) + IntPoly.monomial(j + 1, 1)
               - IntPoly.one() - IntPoly.monomial(2 * j + 1, 1))
        total = total + _RatZ(num, den)
    total = total + _RatZ(IntPoly((0, 1, 1)), IntPoly((1, -2, 1)))
    d = lhs - total
    closed = _RatZ(lehmer(), IntPoly((1, 1)) * cyclotomic(1, "squared")
                   * cyclotomic(3) * cyclotomic(5))
    assert not d.equals(closed)
