"""Datastore parsing, cursor behaviour, filtering, and chunking invariance."""

import csv
import math
import random
from pathlib import Path

import pytest
from _oracles import chunk_as_plain, read_csv_table
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagecost import datastore
from stagecost.datastore import NUMERIC, TEXT, open_datastore
from stagecost.errors import (
    EmptyInput,
    HeaderMismatch,
    MissingFile,
    ReadPastEnd,
    TypeMismatch,
    UnknownVariable,
)


def read_everything(ds):
    ds.reset()
    rows, flags = [], []
    while ds.has_data():
        chunk = ds.read()
        _, r, f = chunk_as_plain(chunk)
        rows.extend(r)
        flags.extend(f)
    return rows, flags


# -- opening and schema ------------------------------------------------------------


def test_server_fixture_schema(servers_csv):
    ds = open_datastore(servers_csv)
    kinds = {col.name: col.kind for col in ds.schema}
    assert kinds == {
        "ServerNum": NUMERIC,
        "TailNum": TEXT,
        "ActualElapsedTime": NUMERIC,
        "CRSElapsedTime": NUMERIC,
        "ExtraTime": NUMERIC,  # every cell missing, so nothing contradicts numeric
        "Delay": NUMERIC,
    }
    assert ds.total_rows == 8


def test_schema_does_not_depend_on_chunk_size(servers_csv):
    schemas = {open_datastore(servers_csv, chunk_size=n).schema for n in (1, 3, 8, 100)}
    assert len(schemas) == 1


def test_type_inference_scans_past_the_first_chunk(tmp_path):
    # numbers for four rows, then a word: the whole column must be text
    path = tmp_path / "late_text.csv"
    path.write_text("v\n1\n2\n3\n4\nfive\n6\n")
    ds = open_datastore(path, chunk_size=4)
    assert ds.schema[0].kind == TEXT
    assert ds.read().column("v")[0] == "1"


def test_missing_markers_are_configurable(tmp_path):
    path = tmp_path / "dashes.csv"
    path.write_text("v\n1\n-\n3\n")
    ds = open_datastore(path, missing_markers={"-"})
    values = ds.read().column("v")
    assert values[0] == 1.0 and values[2] == 3.0
    assert math.isnan(values[1])


def test_missing_file():
    with pytest.raises(MissingFile):
        open_datastore("/no/such/table.csv")


def test_header_only_file_is_empty_input(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    with pytest.raises(EmptyInput):
        open_datastore(path)


def test_multiple_files_concatenate_in_order(tmp_path, servers_csv):
    whole = read_csv_table(servers_csv)
    header, rows = whole[0], whole[2]
    first = tmp_path / "part1.csv"
    second = tmp_path / "part2.csv"
    text = Path(servers_csv).read_text().splitlines()
    first.write_text("\n".join(text[:4]) + "\n")
    second.write_text("\n".join([text[0]] + text[4:]) + "\n")
    ds = open_datastore([first, second])
    got_rows, _ = read_everything(ds)
    assert got_rows == rows


def test_header_mismatch_between_files(tmp_path, servers_csv):
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    with pytest.raises(HeaderMismatch):
        open_datastore([servers_csv, other])


def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a BOM
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n")
    ds = open_datastore(path)
    assert [c.name for c in ds.schema] == ["x", "y"]
    assert ds.read().column("x") == [1.0]


def test_a_byte_order_mark_on_one_file_only_still_matches(tmp_path):
    first, second = tmp_path / "plain.csv", tmp_path / "bom.csv"
    first.write_bytes(b"x,y\n1,2\n")
    second.write_bytes(b"\xef\xbb\xbfx,y\n3,4\n")
    ds = open_datastore([first, second])
    assert ds.read().column("x") == [1.0, 3.0]


def test_duplicate_column_names_are_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1,2\n")
    with pytest.raises(HeaderMismatch):
        open_datastore(path)


# -- preview and cursor ------------------------------------------------------------


def test_preview_shows_the_head_without_moving_the_cursor(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    head = ds.preview()
    assert len(head) == 8
    assert head.column("ServerNum")[0] == 1503.0
    assert head.column("ServerNum")[-1] == 1800.0
    assert ds.read().column("ServerNum")[0] == 1503.0  # still at the start


def test_preview_of_a_short_table(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("v\n1\n2\n3\n")
    assert len(open_datastore(path).preview()) == 3


def test_changing_a_chunk_leaves_the_store_alone(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    chunk = ds.read()
    chunk.columns[0][0] = "changed"
    chunk.columns[0].append("extra")
    chunk.missing[0][0] = True
    ds.reset()
    again = ds.read()
    assert again.columns[0] == [1503.0, 1550.0, 1589.0, 1655.0]
    assert again.missing[0] == [False] * 4
    assert ds.preview().columns[0][:4] == [1503.0, 1550.0, 1589.0, 1655.0]


def test_read_walks_chunks_then_stops(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    ds.select_variables(["ActualElapsedTime"])
    assert ds.read().column("ActualElapsedTime") == [53.0, 63.0, 83.0, 59.0]
    assert ds.has_data()
    assert ds.read().column("ActualElapsedTime") == [77.0, 61.0, 84.0, 155.0]
    assert not ds.has_data()
    with pytest.raises(ReadPastEnd):
        ds.read()
    ds.reset()
    assert ds.read().column("ActualElapsedTime") == [53.0, 63.0, 83.0, 59.0]


def test_select_controls_both_columns_and_order(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=8)
    ds.select_variables(["Delay", "ServerNum"])
    chunk = ds.read()
    assert [col.name for col in chunk.schema] == ["Delay", "ServerNum"]
    assert [column[0] for column in chunk.columns] == [8.0, 1503.0]


def test_select_unknown_variable(servers_csv):
    ds = open_datastore(servers_csv)
    with pytest.raises(UnknownVariable):
        ds.select_variables(["Delay", "Nope"])


# -- filtering ---------------------------------------------------------------------


def test_filter_equals_on_numeric(servers_csv):
    ds = open_datastore(servers_csv)
    hit = ds.filter_rows("ServerNum", "=", 1589)
    assert len(hit) == 1
    assert hit.column("ActualElapsedTime") == [83.0]


@pytest.mark.parametrize(
    "op, literal, expected",
    [
        ("!=", 8, 6),
        ("<", 8, 2),      # Delay in {8, 8, 21, 13, 4, 59, 3, 11}: 4 and 3
        ("<=", 8, 4),
        (">", 1000, 0),
        (">=", 21, 2),
    ],
)
def test_filter_orderings_on_numeric(servers_csv, op, literal, expected):
    ds = open_datastore(servers_csv)
    assert len(ds.filter_rows("Delay", op, literal)) == expected


def test_filter_missing_cells_never_match(servers_csv):
    ds = open_datastore(servers_csv)
    assert len(ds.filter_rows("ExtraTime", "=", 5)) == 0
    assert len(ds.filter_rows("ExtraTime", "!=", 5)) == 0


def test_filter_equality_on_text(servers_csv):
    ds = open_datastore(servers_csv)
    assert len(ds.filter_rows("TailNum", "=", "'NA'")) == 8


def test_filter_ordering_on_text_is_a_type_error(servers_csv):
    ds = open_datastore(servers_csv)
    with pytest.raises(TypeMismatch):
        ds.filter_rows("TailNum", "<", "b")


def test_filter_with_non_numeric_literal_on_numeric_column(servers_csv):
    with pytest.raises(TypeMismatch):
        open_datastore(servers_csv).filter_rows("Delay", "=", "soon")


def test_filter_leaves_the_cursor_alone(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    ds.read()
    ds.filter_rows("Delay", ">", 0)
    assert ds.read().column("ServerNum")[0] == 1702.0  # second chunk, untouched


def test_filter_respects_selection(servers_csv):
    ds = open_datastore(servers_csv)
    ds.select_variables(["Delay"])
    hit = ds.filter_rows("ServerNum", "=", 1800)
    assert [col.name for col in hit.schema] == ["Delay"]
    assert hit.columns == ([11.0],)


def test_filter_unknown_column_and_operator(servers_csv):
    ds = open_datastore(servers_csv)
    with pytest.raises(UnknownVariable):
        ds.filter_rows("Nope", "=", 1)
    with pytest.raises(ValueError):
        ds.filter_rows("Delay", "~", 1)


# -- chunking invariance and round trips -----------------------------------------------


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 7, 8, 64])
def test_chunked_reads_equal_the_reference_parse(servers_csv, delays_csv, chunk_size):
    for path in (servers_csv, delays_csv):
        names, kinds, rows, missing = read_csv_table(path)
        ds = open_datastore(path, chunk_size=chunk_size)
        assert [c.name for c in ds.schema] == names
        assert [c.kind for c in ds.schema] == kinds
        got_rows, got_flags = read_everything(ds)
        assert got_rows == rows
        assert got_flags == missing


def test_chunk_sizes_partition_the_row_count(servers_csv):
    rng = random.Random(41)
    for _ in range(10):
        size = rng.randint(1, 12)
        ds = open_datastore(servers_csv, chunk_size=size)
        lengths = []
        while ds.has_data():
            lengths.append(len(ds.read()))
        assert sum(lengths) == 8
        assert all(n == size for n in lengths[:-1])
        assert 0 < lengths[-1] <= size


def test_export_round_trip(tmp_path, servers_csv):
    ds = open_datastore(servers_csv, chunk_size=100)
    chunk = ds.read()
    out = tmp_path / "copy.csv"
    chunk.to_csv(out)
    again = open_datastore(out, chunk_size=100).read()
    assert again.schema == chunk.schema
    assert again.missing == chunk.missing
    assert chunk_as_plain(again) == chunk_as_plain(chunk)
    assert ",NA," in out.read_text()  # missing cells written back as the marker


def test_chunks_left_counts_from_the_cursor(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)
    assert ds.chunks_left == 3
    ds.read()
    assert ds.chunks_left == 2
    ds.read()
    ds.read()
    assert ds.chunks_left == 0


def test_each_cell_is_parsed_at_most_once(monkeypatch, servers_csv):
    calls = []
    original = datastore._parse_number

    def counting_parse(cell):
        calls.append(cell)
        return original(cell)

    monkeypatch.setattr(datastore, "_parse_number", counting_parse)
    ds = open_datastore(servers_csv)
    assert 0 < len(calls) <= ds.total_rows * len(ds.schema)


# -- property test against the reference parse -----------------------------------------

_NUMBER_CELLS = (
    st.integers(-999, 999).map(str)
    | st.floats(-1e6, 1e6).map(repr)
    | st.sampled_from([" 2.5 ", "1e3", "-0", "7."])
)
_OTHER_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "two words", ""])
_MISSING_CELLS = st.sampled_from(["NA", " NA "])


@st.composite
def _tables(draw):
    """Columns of cells, and how many rows go to the first of two files (0: one file)."""
    n_rows = draw(st.integers(1, 10))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        cell = _NUMBER_CELLS | _MISSING_CELLS
        if draw(st.booleans()):
            cell = cell | _OTHER_CELLS
        columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    return columns, draw(st.integers(0, n_rows - 1))


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
def test_any_table_reads_like_the_reference_parse(tmp_path, table):
    columns, split = table
    header = [f"c{i}" for i in range(len(columns))]
    rows = list(zip(*columns))
    parts = [rows[:split], rows[split:]] if split else [rows]
    paths = []
    for i, part in enumerate(parts):
        path = tmp_path / f"part{i}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([header, *part])
        paths.append(path)
    names, kinds, want_rows, want_flags = read_csv_table(paths)

    for chunk_size in range(1, len(rows) + 2):
        ds = open_datastore(paths, chunk_size=chunk_size)
        assert [c.name for c in ds.schema] == names
        assert [c.kind for c in ds.schema] == kinds
        assert read_everything(ds) == (want_rows, want_flags)
    assert chunk_as_plain(ds.preview())[1:] == (want_rows[:8], want_flags[:8])
    for i, name in enumerate(names):
        present = [row[i] for row, flags in zip(want_rows, want_flags) if not flags[i]]
        if present:
            assert len(ds.filter_rows(name, "=", present[0])) == present.count(present[0])
