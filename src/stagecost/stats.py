"""Ordinary least squares with an ANOVA summary, and the F distribution.

The fit is a Householder QR of the design (an intercept column prepended),
written out below; it never forms X^T X, whose condition number is cond(X)
squared.  ``fit_ols`` and ``ols_coefficients`` share it, so they give the
same coefficients: the intercept column, the predictors and y are stacked
once, the one copy of the data, y is centred, and the QR runs in place and
leaves the residual in Q^T y.  A column whose part left after the earlier
columns' reflections falls to 1e-12 of its original norm or below lies
(numerically) in their span, which is reported as :class:`CollinearDesign`
rather than solved badly.

``f_cdf`` evaluates the regularised incomplete beta function with the
classic continued-fraction expansion (modified Lentz), switching to the
symmetric tail when that converges faster.  The fraction may take
300 + 10 (a + b)^(1/3) passes, and at most 10^5, before it is reported as
:class:`ConvergenceFailure`.  No statistics library is involved, so the
numbers can be audited end to end.  numpy is imported only by the fit, so
``summary_from_ss`` and ``f_cdf`` load no arrays, and neither does
``summarise_ols``: ``fit_ols`` is ``summarise_ols(ols_terms(x, y))``, and a
caller that kept a fit's :class:`OlsTerms` summarises them again without it.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import (
    CollinearDesign,
    ConvergenceFailure,
    DomainError,
    InsufficientObservations,
    InvalidSums,
    MissingData,
    NumericOverflow,
)

if TYPE_CHECKING:
    import numpy as np

PIVOT_REL_TOL = 1e-12
_BETA_EPS = 1e-12
# The continued fraction needs about 3.75 (a + b)^(1/3) passes at large a + b
# (375 at 1e6, 807 at 1e7).  _beta_cf allows 300 + 10 (a + b)^(1/3) but no
# more than this (about 0.1 s), so that one that cannot converge fails quickly.
_BETA_MAX_ITER = 100_000
# The most relative error f_cdf lets the log of its front factor carry: at
# 1e-6, an error would show in the six digits regress prints.
_FRONT_MAX_REL_ERROR = 1e-6


class RegressionSummary(NamedTuple):
    coefficients: Optional[tuple[float, ...]]  # (intercept, b1..bk); None if from sums
    multiple_r: float
    r_square: float
    adjusted_r_square: float
    standard_error: float
    n: int
    k: int


class AnovaRow(NamedTuple):
    df: int
    ss: float
    ms: Optional[float]  # None on the total row


class AnovaTable(NamedTuple):
    regression: AnovaRow
    residual: AnovaRow
    total: AnovaRow
    f_statistic: float
    significance_f: float


# einsum, numpy's own loop, rather than `@`: BLAS hands each long product to
# its thread pool, and on a busy machine each hand-off can wait a scheduler tick.


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, scaled by the largest entry so no square overflows."""
    import numpy as np

    big = float(np.abs(v).max()) or 1.0
    w = v / big
    return big * math.sqrt(np.einsum("i,i", w, w))


def _fit(x, y, spare: int) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``y ~ 1 + x`` by Householder QR; return beta and Q^T (y - mean(y)).

    ``x`` holds the k predictor columns, each a sequence of numbers as long
    as ``y``; at least k + ``spare`` rows are needed.  Row j of ``a`` holds
    design column j and its last row y, so each reflector is applied in place
    to the later columns and to y; then R beta = Q^T y is solved by back
    substitution.  Centring y only moves the intercept, and keeps the
    rounding relative to y's spread rather than to its level.  The part of
    Q^T y below R is the residual.
    """
    import numpy as np

    yv = np.asarray(y, dtype=float)
    lengths = sorted({len(col) for col in x})
    if yv.ndim != 1 or lengths != [len(yv)]:
        raise InvalidSums(
            f"need predictor columns as long as y: y has shape {yv.shape},"
            f" the columns have lengths {lengths}"
        )
    n, k = len(yv), len(x)
    a = np.empty((k + 2, n))
    a[0] = 1.0
    for row, col in zip(a[1:-1], x):
        row[:] = col
    a[-1] = yv
    if not np.isfinite(a).all():
        raise MissingData("design or response contains missing/non-finite cells")
    if n < k + spare:
        raise InsufficientObservations(
            f"need at least {k + spare} rows for {k} predictors, got {n}"
        )
    m = k + 1
    scale = [_norm(row) for row in a[:m]]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = a[m].mean()
        a[m] -= mean
        for j in range(m):
            col = a[j, j:]
            norm = _norm(col)
            if norm <= PIVOT_REL_TOL * scale[j]:
                raise CollinearDesign(f"predictor {j} lies in the span of the columns before it")
            diag = -math.copysign(norm, col[0])
            v = col / (col[0] - diag)
            v[0] = 1.0
            rest = a[j + 1:, j:]
            w = ((diag - col[0]) / diag) * np.einsum("ij,j->i", rest, v)
            for row, wi in zip(rest, w):  # row by row: no temporary as large as rest
                row -= wi * v
            a[j, j] = diag
        beta = np.zeros(m)
        for j in range(m - 1, -1, -1):
            beta[j] = (a[m, j] - a[j + 1:m, j] @ beta[j + 1:]) / a[j, j]
        beta[0] += mean
    _require_finite("the coefficients", beta)
    return beta, a[m]


def ols_coefficients(x: Sequence[Sequence[float]], y: Sequence[float]) -> tuple[float, ...]:
    """Least-squares coefficients (intercept first) for ``y ~ 1 + x``.

    ``x`` holds the predictor columns, each as long as ``y``.
    Needs at least k + 1 observations; use :func:`fit_ols` when a residual
    degree of freedom (and therefore a summary) is wanted as well.  The
    coefficients are those of :func:`fit_ols`, bit for bit.
    """
    return tuple(map(float, _fit(x, y, spare=1)[0]))


def _require_finite(what: str, *arrays) -> None:
    import numpy as np

    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericOverflow(f"{what} overflow the float range")


class OlsTerms(NamedTuple):
    """What the numpy part of a fit gives: all that its summary is made of."""

    coefficients: tuple[float, ...]  # (intercept, b1..bk)
    ss_res: float
    ss_total: float  # of y about its mean
    n: int


def ols_terms(x: Sequence[Sequence[float]], y: Sequence[float]) -> OlsTerms:
    """Fit ``y ~ 1 + x``: the coefficients and the residual and total sums of squares.

    ``x`` holds the k predictor columns, each as long as ``y``.  Requires
    n >= k + 2 so the residual mean square is defined.
    """
    import numpy as np

    beta, qty = _fit(x, y, spare=2)
    m = len(beta)
    # Q is orthogonal, so Q^T y keeps the centred y's sum of squares
    with np.errstate(over="ignore", invalid="ignore"):
        ss_res = float(np.einsum("i,i", qty[m:], qty[m:]))
        ss_total = float(np.einsum("i,i", qty, qty))
    _require_finite("the sums of squares", ss_res, ss_total)
    return OlsTerms(tuple(map(float, beta)), ss_res, ss_total, len(qty))


def summarise_ols(terms: OlsTerms) -> tuple[RegressionSummary, AnovaTable]:
    """Summarise a fit the spreadsheet way, in plain Python: no numpy."""
    # ss_res can round above ss_total when y is all but constant
    ss_reg = max(terms.ss_total - terms.ss_res, 0.0)
    return _summarise(terms.coefficients, ss_reg, terms.ss_total, terms.ss_res, terms.n,
                      len(terms.coefficients) - 1)


def fit_ols(
    x: Sequence[Sequence[float]], y: Sequence[float]
) -> tuple[RegressionSummary, AnovaTable]:
    """Fit ``y ~ 1 + x`` and summarise it the spreadsheet way (see :func:`ols_terms`)."""
    return summarise_ols(ols_terms(x, y))


def summary_from_ss(
    ss_reg: float, ss_total: float, n: int, k: int
) -> tuple[RegressionSummary, AnovaTable]:
    """Rebuild the summary and ANOVA table from published sums of squares."""
    if not (isinstance(n, int) and isinstance(k, int)) or k < 1:
        raise InvalidSums("n and k must be integers with k >= 1")
    if n < k + 2:
        raise InvalidSums(f"need n >= k + 2, got n={n}, k={k}")
    if n > sys.float_info.max:  # n and k are divided as floats
        raise InvalidSums(f"n must be at most {sys.float_info.max:.6g} to fit a float")
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
        # the upper tail read directly, P(F(d1, d2) > x) = P(F(d2, d1) < 1/x),
        # so a tail below the rounding of 1.0 is not lost to 1 - cdf
        sig_f = f_cdf(1.0 / f_stat, df_res, df_reg) if f_stat > 0 else 1.0
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
    if not x >= 0:  # NaN too
        raise DomainError(f"x must be >= 0, got {x!r}")
    if not (0 < d1 < math.inf and 0 < d2 < math.inf):
        raise DomainError(
            f"degrees of freedom must be positive and finite, got ({d1!r}, {d2!r})"
        )
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
    terms = (math.lgamma(a + b), math.lgamma(a), math.lgamma(b),
             a * math.log(z), b * math.log1p(-z))
    # each term carries a rounding of up to 2^-52 of itself into the log, and
    # so into the front factor's relative error
    error = sum(map(abs, terms)) * 2.0**-52
    if error > _FRONT_MAX_REL_ERROR:
        raise DomainError(f"degrees of freedom ({2 * a!r}, {2 * b!r}) are too large for an"
                          f" accurate F probability: its relative error may reach {error:.2g}")
    lg_ab, lg_a, lg_b, a_ln_z, b_ln_1mz = terms
    front = math.exp(lg_ab - lg_a - lg_b + a_ln_z + b_ln_1mz)
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
    passes = int(min(_BETA_MAX_ITER, 300 + 10 * qab ** (1 / 3)))
    for m in range(1, passes + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
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
    raise ConvergenceFailure("incomplete beta continued fraction did not converge")
