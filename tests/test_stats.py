"""Regression summaries, ANOVA identities, and the F distribution."""

import math
import random

import numpy as np
import pytest
from _oracles import f_cdf_by_quadrature

from stagecost.errors import (
    CollinearDesign,
    DomainError,
    InsufficientObservations,
    InvalidSums,
    MissingData,
)
from stagecost.stats import f_cdf, fit_ols, ols_coefficients, summary_from_ss

# Published summary rows rebuilt from their sums of squares alone.  Values are
# quoted at the precision the source tables print, hence the loose tolerances.
PUBLISHED_ROWS = [
    # (ss_reg, ss_total, n, k), multiple_r, r2, adj_r2, stderr, ms_reg, ms_res, F, sig_F
    ((19.0, 82.5, 10, 3), 0.479899, 0.230303, -0.15455, 3.253204, 6.333333, 10.58333, 0.598425, 0.639106),
    ((15.0, 82.5, 10, 2), 0.426401, 0.181818, -0.05195, 3.105295, 7.5, 9.642857, 0.777778, 0.495421),
]


# -- summaries from sums of squares ---------------------------------------------------


@pytest.mark.parametrize("row", PUBLISHED_ROWS, ids=["k3", "k2"])
def test_summary_matches_published_tables(row):
    args, mult_r, r2, adj, stderr, ms_reg, ms_res, f_stat, sig_f = row
    summary, table = summary_from_ss(*args)
    assert summary.coefficients is None
    assert summary.multiple_r == pytest.approx(mult_r, abs=5e-5)
    assert summary.r_square == pytest.approx(r2, abs=5e-5)
    assert summary.adjusted_r_square == pytest.approx(adj, abs=5e-5)
    assert summary.standard_error == pytest.approx(stderr, abs=5e-5)
    assert table.regression.ms == pytest.approx(ms_reg, abs=5e-5)
    assert table.residual.ms == pytest.approx(ms_res, abs=5e-5)
    assert table.f_statistic == pytest.approx(f_stat, abs=5e-5)
    assert table.significance_f == pytest.approx(sig_f, abs=1e-4)


def test_summary_degrees_of_freedom_and_sums():
    _, table = summary_from_ss(19.0, 82.5, 10, 3)
    assert (table.regression.df, table.residual.df, table.total.df) == (3, 6, 9)
    assert table.regression.ss + table.residual.ss == pytest.approx(table.total.ss)
    assert table.total.ms is None
    assert table.regression.ms == table.regression.ss / table.regression.df
    assert table.residual.ms == table.residual.ss / table.residual.df


def test_summary_internal_identities():
    summary, table = summary_from_ss(15.0, 82.5, 10, 2)
    assert summary.multiple_r == pytest.approx(math.sqrt(summary.r_square), rel=1e-12)
    assert summary.standard_error == pytest.approx(math.sqrt(table.residual.ms), rel=1e-12)
    expected_adj = 1 - (1 - summary.r_square) * (summary.n - 1) / table.residual.df
    assert summary.adjusted_r_square == pytest.approx(expected_adj, rel=1e-12)
    assert table.f_statistic == pytest.approx(table.regression.ms / table.residual.ms, rel=1e-12)
    assert table.significance_f == pytest.approx(
        1.0 - f_cdf(table.f_statistic, table.regression.df, table.residual.df), abs=1e-15
    )


def test_summary_saturated_and_null_edges():
    _, saturated = summary_from_ss(82.5, 82.5, 10, 2)
    assert math.isinf(saturated.f_statistic)
    assert saturated.significance_f == 0.0
    _, null = summary_from_ss(0.0, 82.5, 10, 2)
    assert null.f_statistic == 0.0
    assert null.significance_f == 1.0


@pytest.mark.parametrize(
    "args",
    [
        (-1.0, 82.5, 10, 2),     # negative regression sum
        (90.0, 82.5, 10, 2),     # regression exceeds total
        (0.0, 0.0, 10, 2),       # no variation at all
        (15.0, 82.5, 10, 0),     # no predictors
        (15.0, 82.5, 3, 2),      # no residual degree of freedom
        (15.0, 82.5, 10.0, 2),   # n must be an integer
        (15.0, 82.5, 10, 2.0),   # k must be an integer
        (math.inf, math.inf, 10, 2),  # infinite sums: every ratio is NaN
        (1.0, math.inf, 10, 2),  # infinite total: an infinite standard error
    ],
)
def test_summary_rejects_inconsistent_sums(args):
    with pytest.raises(InvalidSums):
        summary_from_ss(*args)


# -- fitting from data ----------------------------------------------------------------


def test_single_predictor_fit_by_hand():
    # x = 1,2,3 against y = 1,2,4: slope 3/2, intercept -2/3, F = 27 on (1, 1)
    summary, table = fit_ols([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert summary.coefficients == pytest.approx((-2.0 / 3.0, 1.5), rel=1e-12)
    assert table.total.ss == pytest.approx(14.0 / 3.0, rel=1e-12)
    assert table.regression.ss == pytest.approx(4.5, rel=1e-12)
    assert table.residual.ss == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert table.f_statistic == pytest.approx(27.0, rel=1e-10)
    # F(1,1) has the closed form P(F <= x) = (2/pi) atan(sqrt(x))
    expected_sig = 1.0 - 2.0 / math.pi * math.atan(math.sqrt(27.0))
    assert table.significance_f == pytest.approx(expected_sig, rel=1e-10)


def test_fit_agrees_with_least_squares_oracle():
    rng = random.Random(20260814)
    for _ in range(25):
        n = rng.randint(6, 40)
        k = rng.randint(1, 4)
        x = np.array([[rng.gauss(0, 3) for _ in range(k)] for _ in range(n)])
        beta_true = np.array([rng.uniform(-2, 2) for _ in range(k + 1)])
        design = np.hstack([np.ones((n, 1)), x])
        y = design @ beta_true + np.array([rng.gauss(0, 0.5) for _ in range(n)])
        expected, *_ = np.linalg.lstsq(design, y, rcond=None)
        got = ols_coefficients(x, y)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)


def test_fit_handles_badly_scaled_columns():
    rng = random.Random(7)
    x = np.array([[rng.gauss(0, 1) * 1e6, rng.gauss(0, 1) * 1e-6] for _ in range(30)])
    y = 0.5 + 3e-6 * x[:, 0] + 4e6 * x[:, 1] + np.array([rng.gauss(0, 0.01) for _ in range(30)])
    design = np.hstack([np.ones((30, 1)), x])
    expected, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.allclose(ols_coefficients(x, y), expected, rtol=1e-8)


def test_residuals_are_orthogonal_to_the_design():
    rng = random.Random(11)
    x = np.array([[rng.uniform(-5, 5) for _ in range(3)] for _ in range(20)])
    y = np.array([rng.uniform(-5, 5) for _ in range(20)])
    beta = np.asarray(ols_coefficients(x, y))
    design = np.hstack([np.ones((20, 1)), x])
    residuals = y - design @ beta
    assert np.max(np.abs(design.T @ residuals)) < 1e-9


def test_fit_and_summary_from_ss_tell_the_same_story():
    rng = random.Random(13)
    x = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(12)]
    y = [rng.uniform(0, 10) for _ in range(12)]
    summary, table = fit_ols(x, y)
    rebuilt, rebuilt_table = summary_from_ss(table.regression.ss, table.total.ss, 12, 2)
    assert rebuilt.coefficients is None
    assert rebuilt.r_square == pytest.approx(summary.r_square, rel=1e-12)
    assert rebuilt.standard_error == pytest.approx(summary.standard_error, rel=1e-12)
    assert rebuilt_table.f_statistic == pytest.approx(table.f_statistic, rel=1e-12)
    assert rebuilt_table.significance_f == pytest.approx(table.significance_f, rel=1e-12)


def test_perfect_fit_has_unit_r_square():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2 * v + 1 for v in x]
    summary, table = fit_ols(x, y)
    assert summary.r_square == pytest.approx(1.0, abs=1e-12)
    assert table.residual.ss == pytest.approx(0.0, abs=1e-18)
    assert table.significance_f <= 1e-8


def test_collinear_predictors_are_reported():
    x = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]]
    y = [1.0, 2.0, 2.0, 4.0]
    with pytest.raises(CollinearDesign):
        fit_ols(x, y)


def test_constant_predictor_collides_with_the_intercept():
    with pytest.raises(CollinearDesign):
        ols_coefficients([[5.0], [5.0], [5.0]], [1.0, 2.0, 3.0])


def test_too_few_observations():
    with pytest.raises(InsufficientObservations):
        fit_ols([[1.0], [2.0]], [1.0, 2.0])  # n = k + 2 - 1
    with pytest.raises(InsufficientObservations):
        ols_coefficients([[1.0]], [1.0])


def test_missing_cells_are_rejected():
    with pytest.raises(MissingData):
        ols_coefficients([[1.0], [float("nan")], [3.0]], [1.0, 2.0, 3.0])
    with pytest.raises(MissingData):
        ols_coefficients([[1.0], [2.0], [3.0]], [1.0, float("inf"), 3.0])


def test_length_mismatch_is_rejected():
    with pytest.raises(InvalidSums):
        ols_coefficients([[1.0], [2.0], [3.0]], [1.0, 2.0])


# -- F distribution -------------------------------------------------------------------


def test_cdf_at_published_f_statistics():
    assert f_cdf(0.598425, 3, 6) == pytest.approx(1 - 0.639106, abs=1e-4)
    assert f_cdf(0.777778, 2, 7) == pytest.approx(1 - 0.495421, abs=1e-4)


@pytest.mark.parametrize("d", range(1, 11))
def test_cdf_of_equal_degrees_is_half_at_one(d):
    assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-10)


def test_cdf_closed_form_for_two_numerator_degrees():
    # d1 = 2: P(F <= x) = 1 - (d2 / (2x + d2))^(d2/2)
    for d2 in (1, 2, 5, 9):
        for x in (0.1, 0.7, 1.0, 3.0, 12.0):
            expected = 1.0 - (d2 / (2 * x + d2)) ** (d2 / 2.0)
            assert f_cdf(x, 2, d2) == pytest.approx(expected, rel=1e-12)


def test_cdf_closed_form_for_two_denominator_degrees():
    # d2 = 2: P(F <= x) = (d1 x / (d1 x + 2))^(d1/2)
    for d1 in (1, 3, 6, 10):
        for x in (0.2, 1.0, 4.0):
            expected = (d1 * x / (d1 * x + 2.0)) ** (d1 / 2.0)
            assert f_cdf(x, d1, 2) == pytest.approx(expected, rel=1e-12)


def test_cdf_reflection_identity():
    for d1, d2 in ((1, 4), (3, 6), (7, 2), (10, 10)):
        for x in (0.25, 0.8, 1.0, 2.5, 9.0):
            assert f_cdf(x, d1, d2) == pytest.approx(
                1.0 - f_cdf(1.0 / x, d2, d1), abs=1e-12
            )


def test_cdf_against_quadrature_oracle():
    for d1, d2 in ((1, 1), (1, 7), (2, 5), (4, 4), (9, 3), (10, 10)):
        for x in (0.5, 1.0, 2.5, 7.0):
            assert f_cdf(x, d1, d2) == pytest.approx(
                f_cdf_by_quadrature(x, d1, d2), abs=1e-8
            )


def test_cdf_is_monotone_and_bounded():
    grid = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
    values = [f_cdf(x, 3, 8) for x in grid]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0
    assert f_cdf(math.inf, 3, 8) == 1.0


def test_cdf_accepts_fractional_degrees():
    assert 0.0 < f_cdf(1.3, 2.5, 7.5) < 1.0


@pytest.mark.parametrize("bad", [(-0.5, 2, 3), (1.0, 0, 3), (1.0, 2, -1)])
def test_cdf_domain_errors(bad):
    with pytest.raises(DomainError):
        f_cdf(*bad)
