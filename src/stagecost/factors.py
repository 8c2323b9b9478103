"""pca's factor table, the plain floats the column cache keeps, and its selection
and grouping rules, which serve ``pca.FactorModel`` too: a command that reads
the table back loads neither numpy nor the numerics in ``pca``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InvalidParameter

DEFAULT_VARIANCE_THRESHOLD = 0.8
DEFAULT_LOADING_CUTOFF = 0.5
_THRESHOLD_SLACK = 1e-12  # absorbs rounding when cumulative variance ~ threshold

if TYPE_CHECKING:
    from .pca import FactorModel


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
    """A factorization as plain floats: what the column cache keeps of a FactorModel.

    ``rows[k]`` is component k + 1: its eigenvalue, the cumulative variance
    V(k + 1), then each variable's loading, in the order of ``names``.
    """

    names: tuple[str, ...]
    rows: Sequence[Sequence[float]]

    @classmethod
    def of(cls, model: FactorModel) -> FactorTable:
        """The rows of ``model``, each float as it is there."""
        import numpy as np

        rows = np.column_stack([model.eigenvalues, model.cumulative_variance, model.loadings.T])
        return cls(model.names, rows.tolist())

    def suggest(self, variance_threshold: float,
                loading_cutoff: float) -> tuple[int, SchemaSuggestion]:
        """The components kept at ``variance_threshold``, as extract_factors
        keeps them, and suggest_schema's grouping of them at ``loading_cutoff``."""
        _check_share("variance_threshold", variance_threshold)
        _check_share("loading_cutoff", loading_cutoff)
        selected = _selected([row[1] for row in self.rows], variance_threshold)
        return selected, _suggestion(self.names, [row[0] for row in self.rows],
                                     [row[2:] for row in self.rows], selected, loading_cutoff)


def _check_share(name: str, value: float) -> None:
    if not 0 < value <= 1:
        raise InvalidParameter(f"{name} must be in (0, 1], got {value}")


def _selected(cumulative: Sequence[float], variance_threshold: float) -> int:
    """The smallest m with V(m) at the threshold or above, or p if there is none."""
    for m, share in enumerate(cumulative, start=1):
        if share >= variance_threshold - _THRESHOLD_SLACK:
            return m
    return len(cumulative)


def _suggestion(names: Sequence[str], eigenvalues: Sequence[float],
                components: Sequence[Sequence[float]], selected: int,
                loading_cutoff: float) -> SchemaSuggestion:
    """One dimension for each of the first ``selected`` components; component
    k's loadings are ``components[k]``, in the order of ``names``."""
    dimensions = []
    for comp in range(selected):
        members = sorted(
            ((name, float(loading)) for name, loading in zip(names, components[comp])
             if abs(loading) >= loading_cutoff),
            key=lambda item: (-abs(item[1]), item[0]),
        )
        dimensions.append(
            CandidateDimension(
                name=f"dim{comp + 1}",
                component=comp + 1,
                eigenvalue=float(eigenvalues[comp]),
                members=tuple(members),
                empty=not members,
            )
        )
    return SchemaSuggestion(dimensions=tuple(dimensions), loading_cutoff=loading_cutoff)
