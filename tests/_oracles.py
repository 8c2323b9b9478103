"""Independent reference computations the tests check the library against.

Nothing here imports from the package's numeric internals: the F CDF is
integrated numerically instead of using a continued fraction, and the CSV
reference parse is a plain one-shot reader with no chunking or cursor.
"""

from __future__ import annotations

import csv
import math


# -- F distribution by quadrature ------------------------------------------------


def f_cdf_by_quadrature(x: float, d1: float, d2: float, tol: float = 1e-11) -> float:
    """P(F <= x) by adaptive Simpson integration of the F density.

    Substituting t = u**2 removes the integrable endpoint singularity the
    density has at 0 for d1 == 1, so plain Simpson converges everywhere.
    """
    if x <= 0.0:
        return 0.0
    a, b = d1 / 2.0, d2 / 2.0
    lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = 2.0 * math.exp(lognorm) * (d1 / d2) ** a

    def integrand(u: float) -> float:
        return front * u ** (2.0 * a - 1.0) * (1.0 + d1 * u * u / d2) ** (-(a + b))

    return _adaptive_simpson(integrand, 0.0, math.sqrt(x), tol)


def _adaptive_simpson(f, lo: float, hi: float, tol: float) -> float:
    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        mid = 0.5 * (a + b)
        lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a, mid)
        right = simpson(fm, frm, fb, mid, b)
        gap = left + right - whole
        if depth >= 60 or abs(gap) <= 15.0 * eps:
            return left + right + gap / 15.0
        return recurse(a, mid, fa, flm, fm, left, eps / 2.0, depth + 1) + recurse(
            mid, b, fm, frm, fb, right, eps / 2.0, depth + 1
        )

    mid = 0.5 * (lo + hi)
    fa, fm, fb = f(lo), f(mid), f(hi)
    return recurse(lo, hi, fa, fm, fb, simpson(fa, fm, fb, lo, hi), tol, 0)


# -- plain CSV reference parse -----------------------------------------------------


def read_csv_table(paths, markers=("NA",)):
    """One-shot parse of CSV files sharing a header.

    Returns (names, kinds, rows, missing) where kinds[i] is "numeric" or
    "text", missing numeric cells are None, and a column counts as numeric
    when every non-missing cell parses as a finite float.
    """
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    markers = set(markers)
    names = None
    raw = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [c.strip() for c in next(reader)]
            if names is None:
                names = header
            assert header == names
            raw.extend([c.strip() for c in row] for row in reader if row)

    def parses(cell):
        try:
            return math.isfinite(float(cell))
        except ValueError:
            return False

    kinds = []
    for i in range(len(names)):
        cells = [row[i] for row in raw if row[i] not in markers]
        kinds.append("numeric" if all(parses(c) for c in cells) else "text")

    rows, missing = [], []
    for row in raw:
        values, flags = [], []
        for i, cell in enumerate(row):
            if cell in markers:
                values.append(None)
                flags.append(True)
            else:
                values.append(float(cell) if kinds[i] == "numeric" else cell)
                flags.append(False)
        rows.append(tuple(values))
        missing.append(tuple(flags))
    return names, kinds, rows, missing


def chunk_as_plain(chunk):
    """Datastore chunk -> (names, rows-with-None-for-missing, flags) for comparison.

    The chunk holds columns; the reference parse holds rows, so both the
    values and the flags are turned into one tuple per row.
    """
    names = [col.name for col in chunk.schema]
    flags = list(zip(*chunk.missing))
    rows = []
    for row, row_flags in zip(zip(*chunk.columns), flags):
        rows.append(tuple(None if miss else v for v, miss in zip(row, row_flags)))
    return names, rows, flags
