"""Correlation matrices, the Jacobi eigensolver, and schema suggestions."""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagecost import pca
from stagecost.errors import ConstantColumn, ConvergenceFailure, MissingData
from stagecost.pca import (
    correlation_matrix,
    eigen_sym,
    extract_factors,
    suggest_schema,
)


def random_correlation(rng, p):
    """Correlation matrix of a random full-rank sample (n > p rows)."""
    n = p + rng.randint(5, 20)
    data = [[rng.gauss(0, 1) for _ in range(p)] for _ in range(n)]
    return correlation_matrix(np.transpose(data))


# -- correlations ---------------------------------------------------------------------


def test_correlations_by_hand():
    # columns: x, exactly -x, and an uncorrelated-with-neither third
    data = [[1.0, 2.0, 3.0, 4.0], [-1.0, -2.0, -3.0, -4.0], [2.0, 0.0, 2.0, 0.0]]
    corr = correlation_matrix(data, names=("a", "b", "c"))
    r = corr.values
    assert corr.names == ("a", "b", "c")
    assert r[0, 1] == pytest.approx(-1.0, abs=1e-15)
    expected_ac = -2.0 / math.sqrt(5.0 * 4.0)  # cross product over the root of ss products
    assert r[0, 2] == pytest.approx(expected_ac, rel=1e-12)
    assert np.array_equal(r, r.T)
    assert np.array_equal(np.diag(r), np.ones(3))


def test_correlation_values_stay_in_range():
    rng = random.Random(3)
    corr = random_correlation(rng, 6)
    assert np.all(np.abs(corr.values) <= 1.0)


def test_default_names_are_positional():
    corr = correlation_matrix([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]])
    assert corr.names == ("v1", "v2")


def test_constant_column_is_rejected():
    with pytest.raises(ConstantColumn):
        correlation_matrix([[1.0, 2.0, 3.0], [7.0, 7.0, 7.0]], names=("x", "flat"))


def test_missing_cells_are_rejected():
    with pytest.raises(MissingData):
        correlation_matrix([[1.0, float("nan"), 3.0], [2.0, 1.0, 5.0]])


@pytest.mark.parametrize("level", [1e9, 1e12])
def test_correlations_by_hand_keep_their_digits_at_any_level(level):
    # a column far from zero next to its spread: x - mean is exact, and so is
    # dividing by a power of two, so r is as accurate as at level 0
    data = [[level + 1, level + 2, level + 3, level + 4], [2.0, 0.0, 2.0, 0.0]]
    r = correlation_matrix(data).values
    assert r[0, 1] == pytest.approx(-2.0 / math.sqrt(5.0 * 4.0), rel=1e-12)


def test_columns_with_no_cells_are_constant():
    with pytest.raises(ConstantColumn, match="column 'v1' has zero variance"):
        correlation_matrix([[], []])


@pytest.mark.parametrize("scale", [1e100, 1e-200])
def test_correlation_at_the_edges_of_the_float_range(scale):
    # at 1e100 the products of the sums of squares overflow, at 1e-200 the
    # squares underflow; scaled by a power of two first, each column has r = 0.5
    data = [[scale, 2 * scale, 3 * scale], [scale, 3 * scale, 2 * scale]]
    r = correlation_matrix(data).values
    assert r[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert r[1, 0] == r[0, 1]


def test_a_column_of_equal_inexact_cells_is_constant():
    # the mean of three 0.1 cells rounds to 0.10000000000000002, so equal cells
    # are found by comparing them, not by a sum of squares of 0
    with pytest.raises(ConstantColumn, match="column 'flat' has zero variance"):
        correlation_matrix([[1.0, 2.0, 4.0], [0.1, 0.1, 0.1]], names=("x", "flat"))


@st.composite
def power_of_two_scaled_columns(draw):
    p = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=2, max_value=8))
    cells = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=n, max_size=n)
    columns = draw(st.lists(cells, min_size=p, max_size=p))
    powers = draw(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=p,
                           max_size=p))
    return columns, powers


def _correlation_or_error(columns):
    try:
        return correlation_matrix(columns).values
    except ConstantColumn as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(power_of_two_scaled_columns())
def test_scaling_a_column_by_a_power_of_two_changes_no_bit(case):
    # 2**k scales a column exactly, and the power-of-two scaling undoes it
    columns, powers = case
    scaled = [[math.ldexp(cell, k) for cell in col] for col, k in zip(columns, powers)]
    want = _correlation_or_error(columns)
    got = _correlation_or_error(scaled)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str)
        assert np.array_equal(got, want)


def test_name_count_must_match():
    with pytest.raises(ValueError):
        correlation_matrix([[1.0, 2.0], [2.0, 3.0]], names=("only-one",))


# -- eigensolver ----------------------------------------------------------------------


def test_two_by_two_eigenvalues_are_one_plus_minus_r():
    for r in (-0.9, -0.3, 0.0, 0.6, 0.99):
        values, vectors = eigen_sym(np.array([[1.0, r], [r, 1.0]]))
        assert values[0] == pytest.approx(1.0 + abs(r), abs=1e-12)
        assert values[1] == pytest.approx(1.0 - abs(r), abs=1e-12)
        assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-12)


def test_identity_matrix_has_unit_spectrum():
    values, vectors = eigen_sym(np.eye(3))
    assert np.array_equal(values, np.ones(3))
    assert np.array_equal(vectors, np.eye(3))


def test_all_ones_correlation_concentrates_everything():
    values, _ = eigen_sym(np.ones((3, 3)))
    assert values[0] == pytest.approx(3.0, abs=1e-12)
    assert np.all(np.abs(values[1:]) < 1e-12)


def test_all_ones_matrix_of_size_64_has_a_degenerate_spectrum():
    # one eigenvalue 64 and a 63-fold zero: a degenerate spectrum
    values, vectors = eigen_sym(np.ones((64, 64)))
    assert values[0] == pytest.approx(64.0, abs=1e-12)
    assert np.all(np.abs(values[1:]) < 1e-12)
    assert np.allclose(vectors.T @ vectors, np.eye(64), atol=1e-12)


def test_solver_matches_lapack_on_random_matrices():
    rng = random.Random(20260814)
    for _ in range(15):
        p = rng.randint(2, 12)
        corr = random_correlation(rng, p)
        values, vectors = eigen_sym(corr.values)
        expected = np.linalg.eigh(corr.values)[0][::-1]  # ascending -> descending
        assert np.allclose(values, expected, atol=1e-10)
        # orthonormal, reconstructive, and trace preserving
        assert np.allclose(vectors.T @ vectors, np.eye(p), atol=1e-10)
        assert np.allclose(vectors @ np.diag(values) @ vectors.T, corr.values, atol=1e-10)
        assert float(values.sum()) == pytest.approx(p, abs=1e-10)


def test_eigenvectors_actually_solve_the_eigenproblem():
    rng = random.Random(9)
    corr = random_correlation(rng, 5)
    values, vectors = eigen_sym(corr.values)
    for j in range(5):
        assert np.allclose(corr.values @ vectors[:, j], values[j] * vectors[:, j], atol=1e-10)


def test_sign_convention_makes_the_largest_entry_positive():
    rng = random.Random(17)
    for _ in range(5):
        corr = random_correlation(rng, 4)
        _, vectors = eigen_sym(corr.values)
        for j in range(4):
            assert vectors[np.argmax(np.abs(vectors[:, j])), j] > 0


def test_solver_is_deterministic():
    rng = random.Random(23)
    corr = random_correlation(rng, 7)
    first = eigen_sym(corr.values)
    second = eigen_sym(corr.values)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def rotate_separately(matrix):
    """The sweeps of ``eigen_sym`` with a's rows, a's columns and v's columns each
    turned on their own, and ``errstate`` entered at each step: the reference."""
    a = np.array(matrix, dtype=float)
    p = a.shape[0]
    v = np.eye(p)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    for _ in range(pca.JACOBI_MAX_SWEEPS):
        if float(np.linalg.norm(a - np.diag(np.diag(a)))) <= pca.JACOBI_TOL * scale:
            break
        for i, j in pca._round_robin(p):
            g = a[i, j]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = (a[j, j] - a[i, i]) / (2.0 * g)
                t = np.where(theta >= 0, 1.0, -1.0) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[g == 0.0] = 0.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            row_i, row_j = a[i, :], a[j, :]
            a[i, :] = c[:, None] * row_i - s[:, None] * row_j
            a[j, :] = s[:, None] * row_i + c[:, None] * row_j
            col_i, col_j = a[:, i], a[:, j]
            a[:, i] = c * col_i - s * col_j
            a[:, j] = s * col_i + c * col_j
            a[i, j] = a[j, i] = 0.0
            vec_i, vec_j = v[:, i], v[:, j]
            v[:, i] = c * vec_i - s * vec_j
            v[:, j] = s * vec_i + c * vec_j
    return a, v


@pytest.mark.parametrize("p", [1, 2, 7, 64, 65])
def test_one_rotation_of_a_beside_v_turns_both_as_separate_rotations_do(p):
    # the same arithmetic on every element: bit for bit the same diagonal and vectors
    rng = np.random.default_rng(p)
    matrix = rng.standard_normal((p, p))
    matrix += matrix.T
    if p > 2:
        matrix[1, :] = matrix[:, 1] = 0.0  # a zero row: pairs that are never rotated
    for m in (matrix, correlation_matrix(rng.standard_normal((p, 3 * p + 5))).values):
        a, v = rotate_separately(m)
        order = np.argsort(-np.diag(a), kind="stable")
        vectors = v[:, order] * np.where(
            v[np.argmax(np.abs(v[:, order]), axis=0), order] < 0, -1.0, 1.0)
        values, got = eigen_sym(m)
        assert values.tobytes() == np.diag(a)[order].tobytes()
        assert got.tobytes() == vectors.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 63, 64, 65])
def test_round_robin_visits_every_pair_once_in_disjoint_steps(p):
    steps = pca._round_robin(p)
    assert len(steps) == (p if p % 2 else p - 1)
    seen = []
    for i, j in steps:
        assert np.all(i < j)
        touched = np.concatenate((i, j))
        assert len(set(touched.tolist())) == len(touched)  # disjoint pairs
        seen.extend(zip(i.tolist(), j.tolist()))
    assert sorted(seen) == [(i, j) for i in range(p) for j in range(i + 1, p)]


def check_against_lapack(matrix, values, vectors, atol):
    p = matrix.shape[0]
    assert np.allclose(values, np.linalg.eigh(matrix)[0][::-1], atol=atol)
    assert np.allclose(vectors.T @ vectors, np.eye(p), atol=atol)
    assert np.allclose(vectors @ np.diag(values) @ vectors.T, matrix, atol=atol)


@pytest.mark.parametrize("p", [1, 3, 63, 64, 65, 100])
def test_odd_and_even_sizes_match_lapack(p):
    corr = random_correlation(random.Random(1000 + p), p)
    values, vectors = eigen_sym(corr.values)
    check_against_lapack(corr.values, values, vectors, atol=1e-10)
    assert np.all(np.diff(values) <= 0.0)


def test_block_diagonal_matrix_keeps_its_cross_block_zeros():
    # a pivot between the blocks is exactly 0 in every sweep, so its rotation
    # is skipped (theta is infinite or NaN there; warnings are errors in tests)
    rng = random.Random(43)
    first, second = random_correlation(rng, 5).values, random_correlation(rng, 6).values
    matrix = np.zeros((11, 11))
    matrix[:5, :5], matrix[5:, 5:] = first, second
    values, vectors = eigen_sym(matrix)
    check_against_lapack(matrix, values, vectors, atol=1e-10)
    for j in range(11):
        on_first = np.any(vectors[:5, j] != 0.0)
        on_second = np.any(vectors[5:, j] != 0.0)
        assert on_first != on_second  # each eigenvector lives in one block


def test_too_few_sweeps_is_a_convergence_failure(monkeypatch):
    corr = random_correlation(random.Random(47), 8)
    monkeypatch.setattr(pca, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceFailure, match="sweeps exhausted"):
        eigen_sym(corr.values)


@st.composite
def symmetric_matrices(draw):
    p = draw(st.integers(min_value=1, max_value=12))
    cells = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=p * p,
                          max_size=p * p))
    upper = np.triu(np.array(cells).reshape(p, p))
    return upper + np.triu(upper, 1).T


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_matrices())
def test_random_symmetric_matrices_match_eigvalsh(matrix):
    values, vectors = eigen_sym(matrix)
    p = matrix.shape[0]
    assert np.allclose(values, np.linalg.eigvalsh(matrix)[::-1], rtol=0.0, atol=1e-10)
    assert np.allclose(vectors.T @ vectors, np.eye(p), rtol=0.0, atol=1e-10)


def test_non_square_input_is_rejected():
    with pytest.raises(ValueError):
        eigen_sym(np.ones((2, 3)))


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
def test_a_matrix_with_a_cell_that_is_not_finite_is_refused(cell):
    matrix = np.eye(3)
    matrix[0, 2] = matrix[2, 0] = cell
    with pytest.raises(MissingData, match="^matrix contains missing or non-finite cells$"):
        eigen_sym(matrix)


# -- factor extraction ------------------------------------------------------------------


def test_factor_model_bookkeeping():
    rng = random.Random(5)
    corr = random_correlation(rng, 6)
    model = extract_factors(corr, variance_threshold=0.8)
    assert model.names == corr.names
    assert np.all(model.eigenvalues >= 0.0)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert model.cumulative_variance[-1] == pytest.approx(1.0, abs=1e-10)
    m = model.selected_components
    assert model.cumulative_variance[m - 1] >= 0.8 - 1e-12
    if m > 1:
        assert model.cumulative_variance[m - 2] < 0.8


def test_selection_stops_at_the_first_sufficient_component():
    # perfectly correlated pair: eigenvalues (2, 0), so one component explains all
    corr = correlation_matrix([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.1]])
    model = extract_factors(corr, variance_threshold=0.95)
    assert model.selected_components == 1


def test_selection_can_need_every_component():
    corr = correlation_matrix([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    model = extract_factors(corr, variance_threshold=1.0)
    assert model.selected_components == 2


class CorrelationMatrixStub:
    """Minimal stand-in with precisely chosen correlation values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.names = tuple(f"v{j + 1}" for j in range(self.values.shape[0]))


def test_threshold_exactly_at_a_cumulative_step():
    # identity correlations: V(m) = m/p exactly, so 0.5 selects two of four
    model = extract_factors(CorrelationMatrixStub(np.eye(4)), variance_threshold=0.5)
    assert model.selected_components == 2


def test_threshold_survives_rounding_just_below():
    # eigenvalues sum to p but cumulative variance may land at 0.7999999999999999
    values = np.diag([1.6, 1.6, 0.8, 0.0])
    model = extract_factors(CorrelationMatrixStub(values), variance_threshold=0.8)
    assert model.cumulative_variance[1] <= 0.8
    assert model.selected_components == 2


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001])
def test_threshold_out_of_range(bad):
    corr = correlation_matrix([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]])
    with pytest.raises(ValueError):
        extract_factors(corr, variance_threshold=bad)


# -- schema suggestions -----------------------------------------------------------------


def correlated_blocks(rng, rows=60):
    """A four-variable block and a two-variable block of common factors.

    Unequal block sizes keep the two leading eigenvalues well apart, so the
    components land on the blocks instead of mixing inside a near-degenerate
    eigenspace.
    """
    data = []
    for _ in range(rows):
        f1, f2 = rng.gauss(0, 1), rng.gauss(0, 1)
        data.append(
            [f1 + rng.gauss(0, 0.05) for _ in range(4)]
            + [f2 + rng.gauss(0, 0.05) for _ in range(2)]
        )
    names = ("a1", "a2", "a3", "a4", "b1", "b2")
    return correlation_matrix(np.transpose(data), names=names)


def test_blocks_become_dimensions():
    corr = correlated_blocks(random.Random(31))
    model = extract_factors(corr, variance_threshold=0.9)
    assert model.selected_components == 2
    schema = suggest_schema(model, loading_cutoff=0.3)
    assert [d.name for d in schema.dimensions] == ["dim1", "dim2"]
    groups = [frozenset(name for name, _ in d.members) for d in schema.dimensions]
    assert frozenset(("a1", "a2", "a3", "a4")) in groups
    assert frozenset(("b1", "b2")) in groups
    for dim in schema.dimensions:
        assert not dim.empty
        sizes = [abs(loading) for _, loading in dim.members]
        assert sizes == sorted(sizes, reverse=True)


def test_dimension_metadata_tracks_the_model():
    corr = correlated_blocks(random.Random(37))
    model = extract_factors(corr, variance_threshold=0.9)
    schema = suggest_schema(model, loading_cutoff=0.3)
    for idx, dim in enumerate(schema.dimensions):
        assert dim.component == idx + 1
        assert dim.eigenvalue == pytest.approx(float(model.eigenvalues[idx]))
    assert schema.loading_cutoff == 0.3


def test_unreachable_cutoff_flags_empty_dimensions():
    corr = correlated_blocks(random.Random(41))
    model = extract_factors(corr, variance_threshold=0.9)
    schema = suggest_schema(model, loading_cutoff=1.0)
    assert all(dim.empty for dim in schema.dimensions)
    assert all(dim.members == () for dim in schema.dimensions)


def test_a_variable_may_join_several_dimensions():
    values = np.array([[1.0, 0.5], [0.5, 1.0]])
    model = extract_factors(CorrelationMatrixStub(values), variance_threshold=1.0)
    schema = suggest_schema(model, loading_cutoff=0.5)
    # both components load each variable at 1/sqrt(2) ~ 0.707
    assert len(schema.dimensions) == 2
    members = [tuple(name for name, _ in d.members) for d in schema.dimensions]
    assert members == [("v1", "v2"), ("v1", "v2")]


@pytest.mark.parametrize("bad", [0.0, 1.5])
def test_cutoff_out_of_range(bad):
    corr = correlation_matrix([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]])
    model = extract_factors(corr)
    with pytest.raises(ValueError):
        suggest_schema(model, loading_cutoff=bad)


# -- the factor table -------------------------------------------------------------------


@pytest.mark.parametrize("threshold, cutoff", [(0.5, 0.2), (0.8, 0.5), (0.9, 0.3), (1.0, 1.0)])
def test_a_factor_table_chooses_and_groups_as_the_model_does(threshold, cutoff):
    corr = correlated_blocks(random.Random(43))
    model = extract_factors(corr, variance_threshold=threshold)
    table = pca.FactorTable.of(model)
    assert table.rows == np.column_stack(
        [model.eigenvalues, model.cumulative_variance, model.loadings.T]).tolist()
    assert table.suggest(threshold, cutoff) == (model.selected_components,
                                                suggest_schema(model, loading_cutoff=cutoff))


@pytest.mark.parametrize("threshold, cutoff, message", [
    (0.0, 0.5, r"^variance_threshold must be in \(0, 1\], got 0.0$"),
    (0.8, 1.5, r"^loading_cutoff must be in \(0, 1\], got 1.5$"),
    (2.0, 0.0, r"^variance_threshold must be in \(0, 1\], got 2.0$"),
])
def test_a_factor_table_refuses_what_the_model_refuses(threshold, cutoff, message):
    model = extract_factors(correlation_matrix([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]]))
    with pytest.raises(ValueError, match=message):
        pca.FactorTable.of(model).suggest(threshold, cutoff)
