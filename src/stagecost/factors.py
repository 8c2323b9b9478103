"""The factor table that ``pca.extract_factors`` gives and the column cache
keeps, in plain floats, and its selection and grouping rules.  Plain Python:
a command that reads the table back loads neither ``pca`` nor the array
library its numerics use.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InvalidParameter

DEFAULT_VARIANCE_THRESHOLD = 0.8
DEFAULT_LOADING_CUTOFF = 0.5
_THRESHOLD_SLACK = 1e-12  # absorbs rounding when cumulative variance ~ threshold


class CandidateDimension(NamedTuple):
    name: str
    component: int                          # 1-based component index
    eigenvalue: float
    members: tuple[tuple[str, float], ...]  # (variable, loading), |loading| desc
    empty: bool


class SchemaSuggestion(NamedTuple):
    dimensions: tuple[CandidateDimension, ...]
    loading_cutoff: float


class FactorTable(NamedTuple):
    """A factorization as plain floats.

    ``rows[k]`` is component k + 1: its eigenvalue, the cumulative variance
    V(k + 1), then each variable's loading, in the order of ``names``.
    """

    names: tuple[str, ...]
    rows: Sequence[Sequence[float]]

    def suggest(self, variance_threshold: float,
                loading_cutoff: float) -> tuple[int, SchemaSuggestion]:
        """The count of components kept, and one candidate dimension for each.

        The count is the smallest m whose cumulative explained variance V(m)
        reaches ``variance_threshold``, or p if none does.  A variable joins a
        component's dimension when the magnitude of its loading reaches
        ``loading_cutoff``; it may appear in several dimensions, or in none.
        Dimensions that attract no variable are kept and flagged empty.
        """
        _check_share("variance_threshold", variance_threshold)
        _check_share("loading_cutoff", loading_cutoff)
        selected = next((m for m, row in enumerate(self.rows, start=1)
                         if row[1] >= variance_threshold - _THRESHOLD_SLACK), len(self.rows))
        dimensions = []
        for comp, row in enumerate(self.rows[:selected], start=1):
            members = sorted(
                ((name, loading) for name, loading in zip(self.names, row[2:])
                 if abs(loading) >= loading_cutoff),
                key=lambda item: (-abs(item[1]), item[0]),
            )
            dimensions.append(CandidateDimension(name=f"dim{comp}", component=comp,
                                                 eigenvalue=row[0],
                                                 members=tuple(members), empty=not members))
        return selected, SchemaSuggestion(dimensions=tuple(dimensions),
                                          loading_cutoff=loading_cutoff)


def _check_share(name: str, value: float) -> None:
    if not 0 < value <= 1:
        raise InvalidParameter(f"{name} must be in (0, 1], got {value}")
