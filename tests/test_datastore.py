"""Datastore parsing, cursor behaviour, and chunking invariance."""

import csv
import itertools
import os
import random
import tracemalloc
from array import array
from pathlib import Path

import pytest
from _oracles import chunk_as_plain, chunk_cells, everything, parsed, read_csv_table
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagecost import colcache, csvload, datastore
from stagecost.datastore import NUMERIC, TEXT, Datastore, TableChunk, open_datastore
from stagecost.errors import (
    EmptyInput,
    HeaderMismatch,
    MalformedCSV,
    MissingFile,
    ReadPastEnd,
    TypeMismatch,
    UnknownVariable,
)

CACHE = colcache._CACHE_DIR


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


def test_missing_file():
    with pytest.raises(MissingFile):
        open_datastore("/no/such/table.csv")
    with pytest.raises(MissingFile, match="no input paths given"):
        open_datastore([])


@pytest.mark.parametrize("kind", ["FIFO", "directory"])
def test_an_input_that_is_not_a_regular_file_is_not_opened(tmp_path, kind):
    good, odd = tmp_path / "good.csv", tmp_path / "odd.csv"
    good.write_text("a,b\n1,2\n")
    if kind == "FIFO":
        os.mkfifo(odd)  # an open would wait for a writer
    else:
        odd.mkdir()
    for paths in ([odd], [good, odd]):
        with pytest.raises(MissingFile) as caught:
            open_datastore(paths)
        assert str(caught.value) == f"input file {odd} is not a regular file"


def test_header_only_file_is_empty_input(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    with pytest.raises(EmptyInput):
        open_datastore(path)


@pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["no-bytes", "blank-lines"])
def test_a_file_without_a_header_is_empty(tmp_path, text):
    path = tmp_path / "nothing.csv"
    path.write_text(text)
    with pytest.raises(EmptyInput, match=r"nothing\.csv is empty$"):
        open_datastore(path)


def test_blank_lines_before_the_header_are_skipped(tmp_path):
    path = tmp_path / "late-header.csv"
    path.write_text("\n\na,b\n1,2\n\n3,4\n")
    ds = open_datastore([path, path])
    assert [col.name for col in ds.schema] == ["a", "b"]
    assert ds.total_rows == 4


def test_a_short_row_after_blank_lines_before_the_header_names_its_line(tmp_path):
    path = tmp_path / "late-header.csv"
    path.write_text("\n\na,b\n1,2\n3\n")
    with pytest.raises(HeaderMismatch, match=r":5: expected 2 cells, got 1$"):
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
    assert list(ds.read().column("x")) == [1.0]


def test_a_byte_order_mark_on_one_file_only_still_matches(tmp_path):
    first, second = tmp_path / "plain.csv", tmp_path / "bom.csv"
    first.write_bytes(b"x,y\n1,2\n")
    second.write_bytes(b"\xef\xbb\xbfx,y\n3,4\n")
    ds = open_datastore([first, second])
    assert list(ds.read().column("x")) == [1.0, 3.0]


def test_a_short_row_is_reported_at_its_physical_line(tmp_path):
    # the quoted cell spans lines 2 and 3, so the short row "4" is record 4 on line 5
    path = tmp_path / "multiline.csv"
    path.write_text('a,b\n"x\ny",1\n2,3\n4\n')
    with pytest.raises(HeaderMismatch, match=r":5: expected 2 cells, got 1$"):
        open_datastore(path)


# -- block boundaries: the file is read _BLOCK_ROWS records at a time ---------------


def test_a_column_that_turns_text_in_a_later_block_keeps_its_cells_as_written(
        monkeypatch, tmp_path):
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    path = tmp_path / "late_text.csv"
    path.write_text("n,v\n1,1.50\n2, 2 \n3,NA\n4, NA \n5,1e3\n6,word\n7,7.0\n")
    ds = open_datastore(path, chunk_size=100)
    assert [c.kind for c in ds.schema] == [NUMERIC, TEXT]
    chunk = ds.read()
    assert chunk.column("v") == ["1.50", "2", None, None, "1e3", "word", "7.0"]
    assert list(chunk.missing[1]) == [0, 0, 1, 1, 0, 0, 0]
    assert list(chunk.column("n")) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def test_a_column_that_turns_text_past_the_first_full_block(tmp_path):
    # the first two blocks convert as numbers; the third holds the word
    rows = csvload._BLOCK_ROWS * 2 + 5
    cells = [f"{i}.50" for i in range(rows)] + ["word"]
    path = tmp_path / "late_text.csv"
    path.write_text("v,w\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells)))
    ds = open_datastore(path, chunk_size=len(cells))
    assert [c.kind for c in ds.schema] == [TEXT, NUMERIC]
    assert ds.read().columns == (cells, array("d", range(len(cells))))


@pytest.mark.parametrize("cells, kind", [
    (["2023_01", "2023_02"], TEXT),  # float reads 2023_01 as 202301
    (["\u0661\u0662", "12"], TEXT),  # and Arabic-Indic digits as 12
    (["\u00a012", "12 "], NUMERIC),  # a no-break space is stripped, as float strips it
], ids=["underscore", "arabic-indic", "no-break-space"])
def test_a_number_is_written_in_ascii_with_no_underscore(tmp_path, cells, kind):
    path = tmp_path / "t.csv"
    path.write_text("v\n" + "".join(f"{cell}\n" for cell in cells), encoding="utf-8")
    ds = open_datastore(path, chunk_size=100)
    assert ds.schema[0].kind == kind
    want = list(map(str.strip, cells)) if kind == TEXT else [12.0, 12.0]
    assert list(ds.read().column("v")) == want


def test_an_underscore_in_a_later_block_turns_its_column_text_through_the_reread(
        monkeypatch, tmp_path):
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    reread, late = csvload._reread_text, []

    def spying_reread(paths, columns, rows):
        late.extend(i for i, _ in columns)
        reread(paths, columns, rows)

    monkeypatch.setattr(csvload, "_reread_text", spying_reread)
    path = tmp_path / "late.csv"
    path.write_text("n,v\n1,1.50\n2,2\n3,2023_01\n4,7\n")
    ds = open_datastore(path, chunk_size=100)
    assert late == [1]
    assert [c.kind for c in ds.schema] == [NUMERIC, TEXT]
    assert ds.read().column("v") == ["1.50", "2", "2023_01", "7"]


@pytest.mark.parametrize("edited", [
    "n,v\n1,1\n2,2\n3,word\n4,5\n",
    "n,v\n1,1\n3,word\n",
    # only the input digests, taken before the parse and again after the
    # reread, keep n's old numbers from meeting v's new text
    "n,v\n1,x\n2,y\n3,z\n",
], ids=["gains a row", "loses a row", "keeps its row count"])
def test_a_file_that_changes_before_its_text_is_read_again_fails(monkeypatch, tmp_path, edited):
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    path = tmp_path / "late.csv"
    path.write_text("n,v\n1,1\n2,2\n3,word\n")
    reread = csvload._reread_text

    def editing_reread(paths, columns, rows):
        path.write_text(edited)
        reread(paths, columns, rows)

    monkeypatch.setattr(csvload, "_reread_text", editing_reread)
    with pytest.raises(MalformedCSV, match="^an input file changed while it was read$"):
        open_datastore(path)
    assert not (tmp_path / CACHE).exists()


def test_columns_that_turn_text_in_different_files(monkeypatch, tmp_path):
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("x,y,z\n1,1,1\n2,2,2\n3,oops,3\n")
    second.write_text("x,y,z\n4,4,4\n5,5,5\n6,6,6.00\n7,7,-\n")
    ds = open_datastore([first, second], chunk_size=100)
    assert [c.kind for c in ds.schema] == [NUMERIC, TEXT, TEXT]
    chunk = ds.read()
    assert chunk.column("y") == ["1", "2", "oops", "4", "5", "6", "7"]
    assert chunk.column("z") == ["1", "2", "3", "4", "5", "6.00", "-"]


def test_a_short_row_in_a_later_block_is_reported_at_its_physical_line(
        monkeypatch, tmp_path):
    # records: header (line 1), "x\ny" (2-3), 2 (4), "p\nq\nr" (5-7), 5 (8), short (9)
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    path = tmp_path / "multiline.csv"
    path.write_text('a,b\n"x\ny",1\n2,3\n"p\nq\nr",4\n5,6\n7\n8,9\n')
    with pytest.raises(HeaderMismatch, match=r":9: expected 2 cells, got 1$"):
        open_datastore(path)


def test_a_short_row_ahead_of_bad_csv_in_the_same_block_is_reported_first(tmp_path):
    # the cell over csv's field size limit on line 4 ends the block early
    path = tmp_path / "short_then_bad.csv"
    path.write_text("a,b\n1,2\n3\n4," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(HeaderMismatch, match=r":3: expected 2 cells, got 1$"):
        open_datastore(path)
    path.write_text("a,b\n1,2\n3,4\n5," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(MalformedCSV, match=r":4: field larger than field limit"):
        open_datastore(path)


def test_blank_lines_on_block_boundaries_are_skipped(monkeypatch, tmp_path):
    # blocks of two records: (1, 2), (blank, blank), (3, blank), (4)
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    path = tmp_path / "blank.csv"
    path.write_text("v\n1\n2\n\n\n3\n\n4\n")
    ds = open_datastore(path, chunk_size=100)
    assert ds.total_rows == 4
    assert list(ds.read().column("v")) == [1.0, 2.0, 3.0, 4.0]


def test_duplicate_column_names_are_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1,2\n")
    with pytest.raises(HeaderMismatch):
        open_datastore(path)


# -- cursor ---------------------------------------------------------------------------


def test_changing_a_chunk_leaves_the_store_alone(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    chunk = ds.read()
    chunk.columns[0][0] = -1.0
    chunk.columns[0].append(99.0)
    chunk.columns[1][0] = "changed"
    chunk.missing[0][0] = 1
    ds.reset()
    again = ds.read()
    assert again.columns[0] == array("d", [1503.0, 1550.0, 1589.0, 1655.0])
    assert again.columns[1][0] == "'NA'"
    assert again.missing[0] == bytearray(4)
    ds.reset()
    assert ds.read().columns[0] == array("d", [1503.0, 1550.0, 1589.0, 1655.0])


def test_chunks_hold_arrays_lists_and_flag_bytes(servers_csv):
    chunk = open_datastore(servers_csv, chunk_size=3).read()
    kinds = {col.name: col.kind for col in chunk.schema}
    for name, values in zip(kinds, chunk.columns):
        assert isinstance(values, array if kinds[name] == NUMERIC else list)
    assert all(isinstance(flags, bytearray) for flags in chunk.missing)


def test_read_walks_chunks_then_stops(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4, columns=["ActualElapsedTime"])
    assert list(ds.read().column("ActualElapsedTime")) == [53.0, 63.0, 83.0, 59.0]
    assert ds.has_data()
    assert list(ds.read().column("ActualElapsedTime")) == [77.0, 61.0, 84.0, 155.0]
    assert not ds.has_data()
    with pytest.raises(ReadPastEnd):
        ds.read()
    ds.reset()
    assert list(ds.read().column("ActualElapsedTime")) == [53.0, 63.0, 83.0, 59.0]


def test_reads_retain_nothing(tmp_path):
    # each chunk's two column tuples go with the chunk: none stays behind in
    # the interpreter's free lists, which would hold 160 KB after 1000 chunks
    path = tmp_path / "five.csv"
    path.write_text("a,b,c,d,e\n" + "".join(f"{i},{i / 2},{-i},{i % 7},k{i % 9}\n"
                                            for i in range(4000)))
    ds = open_datastore(path, chunk_size=4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            ds.read()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not ds.has_data()
    assert retained < 8 * 1024, retained


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


def write_chunk(chunk, path):
    """Write ``chunk`` out as CSV, with the missing marker for every missing cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([col.name for col in chunk.schema])
        for row, flags in zip(zip(*chunk.columns), zip(*chunk.missing)):
            writer.writerow([datastore.MISSING_MARKER if miss else datastore.format_cell(v)
                             for v, miss in zip(row, flags)])


def assert_reopens_as_written(chunk, path):
    """Write ``chunk`` to ``path`` and check that it reads back the same."""
    write_chunk(chunk, path)
    again = open_datastore(path, chunk_size=len(chunk)).read()
    assert again.schema == chunk.schema
    assert again.missing == chunk.missing
    assert chunk_as_plain(again) == chunk_as_plain(chunk)


def test_export_round_trip(tmp_path, servers_csv):
    out = tmp_path / "copy.csv"
    assert_reopens_as_written(open_datastore(servers_csv, chunk_size=100).read(), out)
    assert ",NA," in out.read_text()  # missing cells written back as the marker


def test_chunks_left_counts_from_the_cursor(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)
    assert ds.chunks_left == 3
    ds.read()
    assert ds.chunks_left == 2
    ds.read()
    ds.read()
    assert ds.chunks_left == 0


def test_each_cell_is_parsed_at_most_once(monkeypatch, tmp_path, servers_csv):
    # Cells are converted by float in C; a float shadowing the builtin in the
    # module's namespace sees every cell that reaches it.
    calls = []

    def counting_float(cell):
        calls.append(cell)
        return float(cell)

    monkeypatch.setattr(csvload, "float", counting_float, raising=False)
    for block_rows in (2, 1024):
        monkeypatch.setattr(csvload, "_BLOCK_ROWS", block_rows)
        # a path of its own for each block size, so that each open parses it;
        # v turns text in its third block of two rows
        late = tmp_path / f"late-{block_rows}.csv"
        late.write_text("n,v\n1,1.50\nNA, 2 \n3, NA \n4,3\n5,word\n6,7\n")
        for path in (servers_csv, late):
            calls.clear()
            ds = open_datastore(path)
            _, kinds, _, missing = read_csv_table(path)
            numbers = sum(not flags[i] for flags in missing
                          for i, kind in enumerate(kinds) if kind == NUMERIC)
            assert numbers <= len(calls) <= ds.total_rows * len(ds.schema)


# -- property test against the reference parse -----------------------------------------

_NUMBER_CELLS = (
    st.integers(-999, 999).map(str)
    | st.floats(-1e6, 1e6).map(repr)
    | st.sampled_from([" 2.5 ", "1e3", "-0", "7."])
)
_OTHER_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "two words", ""])
_MISSING_CELLS = st.sampled_from(["NA", " NA "])
_QUOTED_CELLS = st.text(alphabet='ab ,"\'\n\r', max_size=6)  # csv.writer quotes these


@st.composite
def _tables(draw, other_cells=_OTHER_CELLS):
    """Columns of cells, and how many rows go to the first of two files (0: one file)."""
    n_rows = draw(st.integers(1, 10))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        cell = _NUMBER_CELLS | _MISSING_CELLS
        if draw(st.booleans()):
            cell = cell | other_cells
        columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    return columns, draw(st.integers(0, n_rows - 1))


def write_table(directory, columns, split, blank_after=()):
    """Write the columns as CSV, split over two files after ``split`` rows (0: one file).

    Each file gets a blank line after each of its rows counted in ``blank_after``.
    """
    header = [f"c{i}" for i in range(len(columns))]
    rows = list(zip(*columns))
    parts = [rows[:split], rows[split:]] if split else [rows]
    paths = []
    for i, part in enumerate(parts):
        for row in sorted(blank_after, reverse=True):
            part.insert(min(row, len(part)), [])
        path = directory / f"part{i}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([header, *part])
        paths.append(path)
    return paths


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
def test_any_table_reads_like_the_reference_parse(monkeypatch, tmp_path, table):
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)  # every table spans blocks
    paths = write_table(tmp_path, *table)
    names, kinds, want_rows, want_flags = read_csv_table(paths)

    for chunk_size in range(1, len(want_rows) + 2):
        ds = open_datastore(paths, chunk_size=chunk_size)
        assert [c.name for c in ds.schema] == names
        assert [c.kind for c in ds.schema] == kinds
        assert read_everything(ds) == (want_rows, want_flags)
    ds.reset()  # back to the first chunk, which here is the whole table
    assert chunk_as_plain(ds.read())[1:] == (want_rows, want_flags)


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables(_OTHER_CELLS | _QUOTED_CELLS))
def test_any_table_reopens_as_written(monkeypatch, tmp_path, table):
    # numbers, NA, empty cells and text with quotes, commas and line breaks
    # all survive write_chunk: the writer's missing marker is the reader's
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)  # every table spans blocks
    ds = open_datastore(write_table(tmp_path, *table), chunk_size=len(table[0][0]))
    assert_reopens_as_written(ds.read(), tmp_path / "copy.csv")


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables(_OTHER_CELLS | st.sampled_from(["w", " w", "w ", " w "])),
       blank_after=st.lists(st.integers(0, 10), max_size=3))
def test_a_projection_reads_like_the_full_table_restricted_to_it(monkeypatch, tmp_path,
                                                                 table, blank_after):
    # blocks of two rows: a column can turn text after its first block
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    paths = write_table(tmp_path, *table, blank_after=blank_after)
    names, kinds, want_rows, _ = read_csv_table(paths)
    subsets = [list(s) for r in range(len(names) + 1) for s in itertools.combinations(names, r)]
    for chunk_size in range(1, len(want_rows) + 1):
        full = open_datastore(paths, chunk_size=chunk_size)
        for subset in subsets:
            part = open_datastore(paths, chunk_size=chunk_size, columns=subset)
            assert part.total_rows == full.total_rows == len(want_rows)
            assert part.schema == tuple(c for c in full.schema if c.name in subset)
            if not subset:
                with pytest.raises(UnknownVariable, match="no column is selected"):
                    part.read()
                continue
            full.reset()
            while full.has_data():
                whole = full.read()
                at = [whole.column_index(c.name) for c in part.schema]
                assert chunk_cells(part.read()) == chunk_cells(TableChunk(
                    tuple(whole.schema[i] for i in at), tuple(whole.columns[i] for i in at),
                    tuple(whole.missing[i] for i in at)))
            assert not part.has_data()
    # a text column alone holds its cells as csv reads them, stripped, None for NA
    for i, (name, kind) in enumerate(zip(names, kinds)):
        if kind == TEXT:
            column = open_datastore(paths, len(want_rows), columns=[name]).read().column(name)
            assert column == [row[i] for row in want_rows]


def test_a_projection_keeps_header_order_and_ignores_unknown_names(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=8,
                        columns=["Delay", "nope", "ServerNum", "Delay"])
    assert [c.name for c in ds.schema] == ["ServerNum", "Delay"]
    chunk = ds.read()
    assert [c.name for c in chunk.schema] == ["ServerNum", "Delay"]
    assert [chunk.column(name)[0] for name in ("Delay", "ServerNum")] == [8.0, 1503.0]
    with pytest.raises(UnknownVariable, match="no column named 'nope'"):
        chunk.column_index("nope")
    with pytest.raises(UnknownVariable, match="no column named 'TailNum'"):
        chunk.column_index("TailNum")


def test_a_lone_column_name_is_one_name_not_its_letters(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("G,a,Gap,x\n1,2,3,4\n5,6,7,8\n")
    # the class takes a lone path (bytes too, as os takes it) or name as
    # open_datastore does
    for open_table, where, columns in itertools.product(
            (open_datastore, Datastore), (path, str(path), os.fsencode(path), [str(path)]),
            ("Gap", ["Gap"])):
        ds = open_table(where, chunk_size=8, columns=columns)
        assert [c.name for c in ds.schema] == ["Gap"]
        assert list(ds.read().column("Gap")) == [3.0, 7.0]
    assert len(list((tmp_path / CACHE).iterdir())) == 1  # the same selection, one entry
    with pytest.raises(MissingFile) as missing:  # a bytes path is named as text
        Datastore(os.fsencode(tmp_path / "u.csv"), chunk_size=8)
    assert str(missing.value) == f"input file {tmp_path / 'u.csv'} does not exist"


def test_an_iterator_of_column_names_selects_them_all(tmp_path, makers):
    path = tmp_path / "t.csv"
    path.write_text("G,a,Gap,x\n1,2,3,4\n5,6,7,8\n")
    for open_table in (Datastore, open_datastore):  # a parse, then a cache hit
        ds = open_table([path], chunk_size=8, columns=(name for name in ["x", "G"]))
        assert [c.name for c in ds.schema] == ["G", "x"]
        chunk = ds.read()
        assert [list(chunk.column(name)) for name in ("G", "x")] == [[1.0, 5.0], [4.0, 8.0]]
    assert makers.calls == {"parse": 1}


def test_numeric_hands_back_the_chunks_own_column_and_flags(servers_csv):
    chunk = open_datastore(servers_csv, chunk_size=8).read()
    i = chunk.column_index("ExtraTime")
    values, flags = chunk.numeric("ExtraTime")
    assert values is chunk.columns[i]
    assert flags is chunk.missing[i]


def test_numeric_refuses_a_text_column_and_an_unknown_name(servers_csv):
    chunk = open_datastore(servers_csv, chunk_size=8).read()
    with pytest.raises(TypeMismatch, match="^column 'TailNum' is not numeric$"):
        chunk.numeric("TailNum")
    with pytest.raises(UnknownVariable, match="^no column named 'nope'$"):
        chunk.numeric("nope")


def test_numeric_refuses_a_column_that_turns_text_in_a_later_block(monkeypatch, tmp_path):
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)
    path = tmp_path / "late_text.csv"
    path.write_text("n,v\n1,1\n2,2\n3,3\n4,word\n")
    chunk = open_datastore(path, chunk_size=100).read()
    assert list(chunk.numeric("n")[0]) == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(TypeMismatch, match="^column 'v' is not numeric$"):
        chunk.numeric("v")


def test_numeric_columns_are_the_stored_arrays_not_copies(tmp_path):
    # 10^5 rows of a text key and two numbers: copies of the two numeric
    # columns would take 1.6 MB, and a chunk would decode the key too
    path = tmp_path / "keys.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("key,x,y\n")
        fh.writelines(f"k{i % 300},{i},{i / 4}\n" for i in range(100_000))
    ds = open_datastore(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        xs, ys = datastore._numeric_columns(ds, ["x", "y"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak
    assert all(a is b for a, b in zip(datastore._numeric_columns(ds, ["y", "x"]), [ys, xs]))
    assert (len(xs), xs[-1], ys[-1]) == (100_000, 99_999.0, 99_999 / 4)
    assert list(ds.read().column("key")) == ["k0", "k1", "k2", "k3"]  # no chunk was read


@pytest.mark.parametrize("columns, message", [
    (["nope", "also_nope"], "no column named 'nope'"),
    (("zzz", "nope"), "no column named 'zzz'"),
    ([], "no column is selected"),
])
def test_a_datastore_with_no_columns_names_the_first_one_asked_for(servers_csv, columns,
                                                                   message):
    ds = open_datastore(servers_csv, chunk_size=3, columns=columns)
    assert ds.schema == ()
    assert ds.total_rows == 8  # every row is still parsed and checked
    with pytest.raises(UnknownVariable, match=f"^{message}$"):
        ds.read()
    assert ds.has_data()  # a refused read leaves the cursor where it was


def test_a_text_column_is_kept_as_codes_not_as_one_string_per_cell(tmp_path):
    # 200k rows of a 300-word key and a number: 0.8 MB of codes, 1.6 MB of
    # numbers and 0.4 MB of flags, where a list of the cells held 13.6 MB
    rng = random.Random(5)
    path = tmp_path / "keys.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("key,x\n")
        fh.writelines(f"k{rng.randrange(300)},{rng.random():.4f}\n" for _ in range(200_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = open_datastore(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [c.kind for c in ds.schema] == [TEXT, NUMERIC]
    assert ds.total_rows == 200_000
    assert retained < 4e6


# -- the column cache -------------------------------------------------------------------


def test_an_entry_holds_each_array_as_raw_bytes(tmp_path):
    # 8 B a number, 4 B a text code, 1 B of flags a cell, beside one line of JSON
    path = tmp_path / "t.csv"
    path.write_text("k,x,y\na,1,NA\nb,NA,2\na,3,4\n")
    open_datastore(path, columns=["k", "x"])
    (entry,) = (tmp_path / CACHE).iterdir()
    head, _, rest = entry.read_bytes().partition(b"\n")
    assert len(rest) == 3 * (4 + 1) + 3 * (8 + 1) + 32
    assert b'"words": [[null, ' in head


def test_a_file_where_the_cache_goes_leaves_the_parse(tmp_path, makers):
    path = tmp_path / "t.csv"
    path.write_text("k,x\na,1\nb,NA\n")
    (tmp_path / CACHE).write_text("not a directory")
    want = parsed(path, 1)
    for _ in range(2):
        assert makers.during(lambda: everything(path, 1))[:2] == (want, {"parse": 1})
    assert (tmp_path / CACHE).read_text() == "not a directory"


@pytest.mark.parametrize("case", ["short row", "bad UTF-8", "missing file", "FIFO",
                                  "header only"])
def test_a_failing_input_leaves_no_entry_and_fails_the_same_way_again(tmp_path, case):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("a,b\n1,2\n")
    if case == "short row":
        bad.write_text("a,b\n1,2\n3\n")
    elif case == "bad UTF-8":
        bad.write_bytes(b"a,b\n1,\xff\n")
    elif case == "FIFO":
        os.mkfifo(bad)  # not a regular file: never opened, so never waited on
    elif case == "header only":  # no data rows, so good's row may not go with it
        good = bad
        bad.write_text("a,b\n")
    for paths in ([bad], [good, bad]):
        errors = []
        for _ in range(2):
            with pytest.raises((EmptyInput, HeaderMismatch, MalformedCSV, MissingFile)) as caught:
                open_datastore(paths)
            errors.append((caught.type, str(caught.value)))
        assert errors[0] == errors[1]
        assert not (tmp_path / CACHE).exists()


def test_an_input_that_turns_bad_after_its_entry_fails_as_the_parse_does(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    open_datastore(path)
    entries = list((tmp_path / CACHE).iterdir())
    path.write_text("a,b\n1,2\n3\n")
    want = parsed(path)
    assert want == (HeaderMismatch, f"{path}:3: expected 2 cells, got 1")
    for _ in range(2):
        assert everything(path, 100) == want
    assert list((tmp_path / CACHE).iterdir()) == entries


def test_a_hit_holds_little_beyond_the_columns_it_reads(tmp_path, makers):
    # 200k rows of a 300-word key and a number, as above: 2.8 MB of columns
    rng = random.Random(5)
    path = tmp_path / "keys.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("key,x\n")
        fh.writelines(f"k{rng.randrange(300)},{rng.random():.4f}\n" for _ in range(200_000))
    open_datastore(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = open_datastore(path)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert makers.calls == {"parse": 1}
    assert ds.total_rows == 200_000
    retained = now - before
    assert 2.8e6 < retained < 3e6
    assert peak - before <= 1.2 * retained
