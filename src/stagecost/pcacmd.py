"""The ``pca`` command's handler, which ``cli`` imports only for ``pca``.

The factorization is kept in the column cache, so a run on unchanged bytes,
at any threshold and cutoff, reads it back and loads neither the datastore,
the numerics in ``pca`` nor numpy.
"""

from __future__ import annotations

from array import array
from itertools import chain

from .cli import _fmt6, _json_text
from .colcache import _floats, cached_result
from .errors import TypeMismatch
from .factors import DEFAULT_LOADING_CUTOFF, DEFAULT_VARIANCE_THRESHOLD, FactorTable, _check_share

# The column cache's name for pca's factor table: a name, which no column selection can be.
_FACTORS = "pca factors"


def cmd_pca(args) -> int:
    threshold = DEFAULT_VARIANCE_THRESHOLD if args.threshold is None else args.threshold
    cutoff = DEFAULT_LOADING_CUTOFF if args.cutoff is None else args.cutoff

    def factor(inputs: list[str] | None) -> FactorTable:
        from . import pca
        from .datastore import NUMERIC, Datastore, _numeric_columns

        ds = Datastore(args.input, digests=inputs)
        numeric = [col.name for col in ds.schema if col.kind == NUMERIC]
        if not numeric:
            raise TypeMismatch("input has no numeric columns")
        corr = pca.correlation_matrix(_numeric_columns(ds, numeric), names=numeric)
        # after the table's own errors, and so that no table is kept for a bad option
        _check_share("variance_threshold", threshold)
        _check_share("loading_cutoff", cutoff)
        return pca.extract_factors(corr)

    table, _ = cached_result(args.input, _FACTORS, factor, _pack_factors, _unpack_factors)
    selected, suggestion = table.suggest(threshold, cutoff)
    print("Component  Eigenvalue  CumulativeVariance")
    for i, row in enumerate(table.rows, start=1):
        print(f"{i:<9}  {_fmt6(row[0]):<10}  {_fmt6(row[1])}")
    print(f"Selected components: {selected}")
    print()
    print(_json_text({**suggestion._asdict(),
                      "dimensions": [dim._asdict() for dim in suggestion.dimensions]}))
    return 0


def _pack_factors(table: FactorTable) -> tuple[dict, list]:
    """A factor table's cache entry: the names, and the rows as one array of float64."""
    return {"names": table.names}, [array("d", chain.from_iterable(table.rows))]


def _unpack_factors(fields: dict, blobs: list) -> FactorTable | None:
    """The factor table an entry keeps, or None if its array is not p rows of p + 2 floats."""
    names = tuple(fields["names"])
    width = len(names) + 2
    flat = _floats(blobs, len(names) * width)
    if flat is None:
        return None
    return FactorTable(names, [flat[start:start + width] for start in range(0, len(flat), width)])
