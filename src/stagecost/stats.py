"""Ordinary least squares with an ANOVA summary, and the F distribution.

The fit goes through the normal equations with an intercept column
prepended.  They are solved by a diagonally pivoted Cholesky factorisation
written out below; a pivot falling under 1e-12 of its column's original
scale means two predictors are (numerically) the same direction, which is
reported as :class:`CollinearDesign` rather than solved badly.

``f_cdf`` evaluates the regularised incomplete beta function with the
classic continued-fraction expansion (modified Lentz), switching to the
symmetric tail when that converges faster.  No statistics library is
involved, so the numbers can be audited end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CollinearDesign,
    DomainError,
    InsufficientObservations,
    InvalidSums,
    MissingData,
)

PIVOT_REL_TOL = 1e-12
_BETA_EPS = 1e-12
_BETA_MAX_ITER = 300


@dataclass(frozen=True)
class RegressionSummary:
    coefficients: Optional[tuple[float, ...]]  # (intercept, b1..bk); None if from sums
    multiple_r: float
    r_square: float
    adjusted_r_square: float
    standard_error: float
    n: int
    k: int


@dataclass(frozen=True)
class AnovaRow:
    df: int
    ss: float
    ms: Optional[float]  # None on the total row


@dataclass(frozen=True)
class AnovaTable:
    regression: AnovaRow
    residual: AnovaRow
    total: AnovaRow
    f_statistic: float
    significance_f: float


def _solve_normal_equations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive (semi)definite ``a``.

    Cholesky with diagonal pivoting: at each step the largest remaining
    diagonal is eliminated first, and a pivot below PIVOT_REL_TOL of its
    original diagonal entry trips CollinearDesign.
    """
    a = a.astype(float, copy=True)
    b = b.astype(float, copy=True)
    m = a.shape[0]
    scale = np.maximum(np.abs(np.diag(a)), 1e-300)
    order: list[int] = []
    remaining = list(range(m))
    lower = np.zeros_like(a)

    for step in range(m):
        pivot_j = max(remaining, key=lambda j: a[j, j])
        if a[pivot_j, pivot_j] < PIVOT_REL_TOL * scale[pivot_j]:
            raise CollinearDesign(
                f"normal-equations pivot collapsed at column {pivot_j}"
            )
        order.append(pivot_j)
        remaining.remove(pivot_j)
        root = math.sqrt(a[pivot_j, pivot_j])
        lower[pivot_j, pivot_j] = root
        for j in remaining:
            lower[j, pivot_j] = a[j, pivot_j] / root
        for j in remaining:
            for i in remaining:
                a[i, j] -= lower[i, pivot_j] * lower[j, pivot_j]

    # Forward then backward substitution in pivot order.
    y = np.zeros(m)
    for idx, j in enumerate(order):
        y[idx] = (b[j] - sum(lower[j, order[t]] * y[t] for t in range(idx))) / lower[j, j]
    x = np.zeros(m)
    for idx in range(m - 1, -1, -1):
        j = order[idx]
        tail = sum(lower[order[t], j] * x[order[t]] for t in range(idx + 1, m))
        x[j] = (y[idx] - tail) / lower[j, j]
    return x


def ols_coefficients(x: Sequence[Sequence[float]], y: Sequence[float]) -> tuple[float, ...]:
    """Least-squares coefficients (intercept first) for ``y ~ 1 + x``.

    Needs at least k + 1 observations; use :func:`fit_ols` when a residual
    degree of freedom (and therefore a summary) is wanted as well.
    """
    xm = np.asarray(x, dtype=float)
    if xm.ndim == 1:
        xm = xm[:, None]
    yv = np.asarray(y, dtype=float)
    n, k = xm.shape
    if yv.shape != (n,):
        raise InvalidSums(f"y has {yv.shape[0] if yv.ndim else 0} rows, X has {n}")
    if not (np.isfinite(xm).all() and np.isfinite(yv).all()):
        raise MissingData("design or response contains missing/non-finite cells")
    if n < k + 1:
        raise InsufficientObservations(f"need at least {k + 1} rows, got {n}")
    design = np.hstack([np.ones((n, 1)), xm])
    beta = _solve_normal_equations(design.T @ design, design.T @ yv)
    return tuple(float(b) for b in beta)


def fit_ols(
    x: Sequence[Sequence[float]], y: Sequence[float]
) -> tuple[RegressionSummary, AnovaTable]:
    """Fit ``y ~ 1 + x`` and summarise it the spreadsheet way.

    Requires n >= k + 2 so the residual mean square is defined.
    """
    xm = np.asarray(x, dtype=float)
    if xm.ndim == 1:
        xm = xm[:, None]
    yv = np.asarray(y, dtype=float)
    n, k = xm.shape
    if n < k + 2:
        raise InsufficientObservations(
            f"need at least {k + 2} rows for {k} predictors, got {n}"
        )
    beta = np.asarray(ols_coefficients(xm, yv))
    design = np.hstack([np.ones((n, 1)), xm])
    residuals = yv - design @ beta
    ss_res = float(residuals @ residuals)
    centred = yv - yv.mean()
    ss_total = float(centred @ centred)
    ss_reg = ss_total - ss_res
    return _summarise(tuple(beta), ss_reg, ss_total, ss_res, n, k)


def summary_from_ss(
    ss_reg: float, ss_total: float, n: int, k: int
) -> tuple[RegressionSummary, AnovaTable]:
    """Rebuild the summary and ANOVA table from published sums of squares."""
    if not (isinstance(n, int) and isinstance(k, int)) or k < 1:
        raise InvalidSums("n and k must be integers with k >= 1")
    if n < k + 2:
        raise InvalidSums(f"need n >= k + 2, got n={n}, k={k}")
    if not (0 <= ss_reg <= ss_total < math.inf) or ss_total <= 0:
        raise InvalidSums(
            f"sums must be finite with 0 <= ss_reg <= ss_total and ss_total > 0, "
            f"got ss_reg={ss_reg}, ss_total={ss_total}"
        )
    return _summarise(None, ss_reg, ss_total, ss_total - ss_reg, n, k)


def _summarise(coefficients, ss_reg, ss_total, ss_res, n, k):
    df_reg = k
    df_res = n - k - 1
    df_total = n - 1
    r_square = min(max(ss_reg / ss_total, 0.0), 1.0) if ss_total > 0 else 0.0
    ms_reg = ss_reg / df_reg
    ms_res = ss_res / df_res
    if ms_res > 0:
        f_stat = ms_reg / ms_res
        sig_f = 1.0 - f_cdf(f_stat, df_reg, df_res)
    elif ms_reg > 0:
        f_stat = math.inf  # perfect fit
        sig_f = 0.0
    else:
        f_stat = 0.0
        sig_f = 1.0
    summary = RegressionSummary(
        coefficients=coefficients,
        multiple_r=math.sqrt(r_square),
        r_square=r_square,
        adjusted_r_square=1.0 - (1.0 - r_square) * (n - 1) / df_res,
        standard_error=math.sqrt(ss_res / df_res),
        n=n,
        k=k,
    )
    table = AnovaTable(
        regression=AnovaRow(df=df_reg, ss=ss_reg, ms=ms_reg),
        residual=AnovaRow(df=df_res, ss=ss_res, ms=ms_res),
        total=AnovaRow(df=df_total, ss=ss_total, ms=None),
        f_statistic=f_stat,
        significance_f=sig_f,
    )
    return summary, table


# -- F distribution -------------------------------------------------------------


def f_cdf(x: float, d1: float, d2: float) -> float:
    """P(F <= x) for an F distribution with (d1, d2) degrees of freedom."""
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    if d1 <= 0 or d2 <= 0:
        raise DomainError(f"degrees of freedom must be positive, got ({d1!r}, {d2!r})")
    if x == 0:
        return 0.0
    if math.isinf(x):
        return 1.0
    z = d1 * x / (d1 * x + d2)
    return _reg_inc_beta(d1 / 2.0, d2 / 2.0, z)


def _reg_inc_beta(a: float, b: float, z: float) -> float:
    """Regularised incomplete beta I_z(a, b) by continued fraction."""
    if z <= 0.0:
        return 0.0
    if z >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(z)
        + b * math.log1p(-z)
    )
    front = math.exp(ln_front)
    if z < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, z) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - z) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz scheme)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")
