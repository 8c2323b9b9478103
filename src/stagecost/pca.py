"""Correlation-based principal components.

Given numeric observations, build the Pearson correlation matrix, factor it
with cyclic Jacobi in round-robin order (no LAPACK behind it, so every
rotation is inspectable), and give the factorization as a ``FactorTable``.

numpy is imported only by the functions that work on arrays.  The factor
table, which the ``pca`` command keeps in the column cache, and its rules for
keeping the leading components that explain a requested share of the
variance and grouping variables into candidate schema dimensions are in
``factors``, which needs no numpy, so a command that reads the table back
loads neither numpy nor this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import ConstantColumn, ConvergenceFailure, MissingData
from .factors import FactorTable

JACOBI_TOL = 1e-12       # off-diagonal Frobenius norm, relative to the matrix
JACOBI_MAX_SWEEPS = 100

if TYPE_CHECKING:
    import numpy as np


class CorrelationMatrix(NamedTuple):
    names: tuple[str, ...]
    values: np.ndarray  # p x p, symmetric, unit diagonal


def correlation_matrix(
    columns: Sequence[Sequence[float]], names: Optional[Sequence[str]] = None
) -> CorrelationMatrix:
    """Pearson correlations of ``columns``: p columns of n observations each.

    A column may be any sequence of numbers; the input is copied once, into
    a p x n array with one row per column.  A column whose cells are all
    equal is refused before any arithmetic.  Each other row is divided by
    the power of two at or below its largest magnitude, which is exact and
    brings every cell into (-2, 2) before it is centred, so at any level or
    scale no sum of squares or product overflows, and no sum of squares
    underflows to zero.
    """
    import numpy as np

    x = np.array(columns, dtype=float, ndmin=2)  # p rows, n columns
    p = x.shape[0]
    if names is None:
        names = tuple(f"v{j + 1}" for j in range(p))
    else:
        names = tuple(names)
        if len(names) != p:
            raise ValueError(f"{len(names)} names for {p} columns")
    if not np.isfinite(x).all():
        raise MissingData("input contains missing or non-finite cells")

    hi = x.max(axis=1, initial=-np.inf)
    lo = x.min(axis=1, initial=np.inf)
    flat = np.flatnonzero(hi <= lo)  # all cells equal, or no cells
    if len(flat):
        raise ConstantColumn(f"column {names[flat[0]]!r} has zero variance")
    # the power of two at or below each row's largest magnitude: exact to divide by
    x /= np.ldexp(1.0, np.frexp(np.maximum(hi, -lo))[1] - 1)[:, None]
    x -= x.mean(axis=1, keepdims=True)
    x /= np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    r = x @ x.T
    lower = np.tril_indices(p, -1)
    r[lower] = r.T[lower]  # the upper triangle, so r is exactly symmetric
    np.fill_diagonal(r, 1.0)
    np.clip(r, -1.0, 1.0, out=r)
    return CorrelationMatrix(names=names, values=r)


def _round_robin(p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The steps of one Jacobi sweep over a p x p matrix, in round-robin order.

    Each step is a pair of index arrays (i, j), i < j, naming disjoint pairs,
    and every pair i < j appears in exactly one step.  This is the circle
    method: index 0 stays put while the others turn one place per step.  For
    odd p a dummy index p joins the circle and its pair is dropped, so a
    sweep has p - 1 steps of p/2 pairs (p even) or p steps of (p - 1)/2.
    """
    import numpy as np

    m = p + p % 2
    half = m // 2
    ring = np.arange(1, m)
    steps = []
    for k in range(m - 1):
        order = np.concatenate(([0], np.roll(ring, k)))
        top, bottom = order[:half], order[::-1][:half]
        i, j = np.minimum(top, bottom), np.maximum(top, bottom)
        keep = j < p
        steps.append((i[keep], j[keep]))
    return steps


def eigen_sym(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a symmetric matrix.

    Cyclic Jacobi in round-robin order (Brent & Luk, 1985): each sweep visits
    every (i, j) pair once, in steps of disjoint pairs, and each step rotates
    all of its pairs' off-diagonal entries to zero at once.  The rotations of
    one step touch disjoint rows and columns, so they commute: in exact
    arithmetic, applying them together is the same as applying them one by
    one.  Sweeps stop when
    the off-diagonal norm falls under JACOBI_TOL relative to the matrix norm.
    Each eigenvector is flipped, if needed, so its largest-magnitude entry is
    positive.  A matrix with a cell that is not finite is refused up front
    with MissingData, since no rotation can turn it.
    """
    import numpy as np

    a = np.array(matrix, dtype=float)
    p = a.shape[0]
    if a.shape != (p, p):
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise MissingData("matrix contains missing or non-finite cells")
    # a beside v transposed: one row rotation turns a's rows and v's columns
    stacked = np.hstack([a, np.eye(p)])
    a, vt = stacked[:, :p], stacked[:, p:]
    scale = max(float(np.linalg.norm(a)), 1e-300)
    steps = _round_robin(p)

    # g == 0 makes theta infinite or NaN; such a pair is not rotated
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            off = a - np.diag(np.diag(a))
            if float(np.linalg.norm(off)) <= JACOBI_TOL * scale:
                break
            for i, j in steps:
                g = a[i, j]
                theta = (a[j, j] - a[i, i]) / (2.0 * g)
                t = np.where(theta >= 0, 1.0, -1.0) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0)
                )
                t[g == 0.0] = 0.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # indexing by arrays copies, so each update reads the values
                # from before it
                row_i, row_j = stacked[i, :], stacked[j, :]
                stacked[i, :] = c[:, None] * row_i - s[:, None] * row_j
                stacked[j, :] = s[:, None] * row_i + c[:, None] * row_j
                col_i, col_j = a[:, i], a[:, j]
                a[:, i] = c * col_i - s * col_j
                a[:, j] = s * col_i + c * col_j
                a[i, j] = a[j, i] = 0.0
        else:
            raise ConvergenceFailure(
                f"Jacobi sweeps exhausted ({JACOBI_MAX_SWEEPS}) before convergence"
            )

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vt.T[:, order]
    for j in range(p):
        lead = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[lead, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return eigenvalues, vectors


def extract_factors(corr: CorrelationMatrix) -> FactorTable:
    """Factor the correlation matrix into its components, largest eigenvalue
    first.  V(m) is the sum of the m largest eigenvalues over p, and
    rounding-level negative eigenvalues are clipped to 0."""
    import numpy as np

    eigenvalues, vectors = eigen_sym(corr.values)
    eigenvalues = np.maximum(eigenvalues, 0.0)
    cumulative = np.cumsum(eigenvalues) / len(eigenvalues)
    return FactorTable(corr.names, np.column_stack([eigenvalues, cumulative, vectors.T]).tolist())
