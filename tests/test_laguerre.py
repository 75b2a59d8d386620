import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from ionctrl import laguerre, laguerre_curve, laguerre_zeros


def laguerre_direct(n, alpha, x):
    """Independent oracle: direct summation of the series definition."""
    total = 0.0
    for k in range(n + 1):
        total += (-1) ** k * math.comb(n + alpha, n - k) * x**k / math.factorial(k)
    return total


def test_trivial_values():
    assert laguerre(0, 1, 0.7) == 1.0
    assert abs(laguerre(1, 0, 1.0)) < 1e-15
    assert laguerre(1, 0, 0.0) == 1.0
    assert laguerre(1, 1, 0.0) == 2.0


def test_recurrence_matches_direct_summation():
    xs = np.linspace(0.0, 20.0, 81)
    for n in range(11):
        for alpha in range(4):
            for x in xs:
                want = laguerre_direct(n, alpha, float(x))
                got = laguerre(n, alpha, float(x))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_vectorized_evaluation():
    xs = np.array([0.0, 0.5, 2.0])
    vals = laguerre(3, 2, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert v == pytest.approx(laguerre_direct(3, 2, float(x)), rel=1e-12, abs=1e-12)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -1, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, 0, -0.5)
    with pytest.raises(ValueError):
        laguerre_zeros(0, 0)


@pytest.mark.parametrize("x", [np.nan, np.inf, [0.5, np.nan], [1.0, np.inf]])
def test_non_finite_argument_rejected(x):
    with pytest.raises(ValueError, match="finite"):
        laguerre(3, 0, x)
    with pytest.raises(ValueError, match="finite"):
        laguerre_curve(3, 0, np.atleast_1d(x))


def test_quadratic_roots_exact():
    roots = laguerre_zeros(2, 0)
    assert roots[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)
    assert roots[1] == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-10)
    assert laguerre_zeros(1, 0) == pytest.approx([1.0], abs=1e-12)


def term_scale(n, alpha, x):
    """Largest term of the series at x: sets the f64 evaluation noise floor."""
    return max(math.comb(n + alpha, n - k) * x**k / math.factorial(k) for k in range(n + 1))


def test_zero_count_ordering_and_residuals():
    for n in range(1, 13):
        for alpha in range(4):
            roots = laguerre_zeros(n, alpha)
            assert len(roots) == n
            assert all(r > 0 for r in roots)
            assert all(b - a > 0 for a, b in zip(roots, roots[1:]))
            for r in roots:
                # 1e-9 absolute holds wherever the polynomial's own term
                # scale allows it; at the largest roots the double
                # precision noise floor takes over
                bound = max(1e-9, 64 * np.finfo(float).eps * term_scale(n, alpha, r))
                assert abs(laguerre(n, alpha, r)) < bound


def test_zeros_against_companion_matrix_oracle():
    for n, alpha in ((3, 0), (5, 0), (6, 1), (9, 2), (12, 3), (20, 0), (30, 0), (60, 1), (80, 3)):
        mine = laguerre_zeros(n, alpha)
        reference = roots_genlaguerre(n, alpha)[0]
        assert len(mine) == n
        assert np.allclose(mine, reference, atol=1e-10)


def test_truncation_value_blue_family():
    # smallest zero of L_6^1, reported as 0.527667 after rounding
    roots = laguerre_zeros(6, 1)
    assert roots[0] == pytest.approx(0.527667, abs=1e-5)
    assert abs(laguerre(6, 1, 0.527667)) < 1e-4


def test_truncation_value_carrier_family():
    # 0.322548 is the smallest zero of L_4^0.  (It is sometimes misquoted
    # as a zero of L_5^0, whose smallest zero is 0.2635603.)
    assert laguerre_zeros(4, 0)[0] == pytest.approx(0.322548, abs=1e-5)
    assert laguerre_zeros(5, 0)[0] == pytest.approx(0.2635603, abs=1e-6)
    assert min(abs(r - 0.322548) for r in laguerre_zeros(5, 0)) > 1e-3


def test_curve_tabulation():
    assert laguerre_curve(0, 0, [0.0, 1.0]) == [(0.0, 1.0), (1.0, 1.0)]
    curve = laguerre_curve(1, 0, [0.0, 1.0, 2.0])
    assert curve == [(0.0, 1.0), (1.0, 0.0), (2.0, -1.0)]
    xs = np.linspace(0.0, 2.0, 101)
    for x, v in laguerre_curve(6, 1, xs):
        assert v == pytest.approx(laguerre_direct(6, 1, x), rel=1e-10, abs=1e-12)
    value_at_report = dict(laguerre_curve(6, 1, [0.527667]))[0.527667]
    assert abs(value_at_report) < 1e-4
