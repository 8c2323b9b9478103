"""Map-reduce jobs: results, progress traces, and the order chunks are folded in."""

import gc
import math
import random
import tracemalloc
from collections import Counter

import pytest
from _oracles import read_csv_table
from conftest import keyed_tables
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagecost.datastore import format_cell, open_datastore
from stagecost.errors import TypeMismatch
from stagecost.mapreduce import (
    MAX_KEY,
    builtin_keycount_mapper,
    builtin_max_mapper,
    map_reduce,
)


def run_with_trace(ds, mapper):
    events = []
    result = map_reduce(ds, mapper, progress_sink=events.append)
    return result, [(e.map_pct, e.reduce_pct) for e in events]


# -- the built-in maximum job --------------------------------------------------------


def test_max_job_over_the_server_table(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    result, trace = run_with_trace(ds, builtin_max_mapper("ActualElapsedTime"))
    assert result.readall() == [(MAX_KEY, 155.0)]
    assert result.value(MAX_KEY) == 155.0
    with pytest.raises(KeyError):
        result.value("Origin")
    assert trace == [(0, 0), (50, 0), (100, 0), (100, 100)]


def test_max_job_progress_with_three_chunks(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows
    _, trace = run_with_trace(ds, builtin_max_mapper("Delay"))
    assert trace == [(0, 0), (33, 0), (66, 0), (100, 0), (100, 100)]


def test_max_job_on_a_text_column_fails(servers_csv):
    ds = open_datastore(servers_csv)
    with pytest.raises(TypeMismatch):
        map_reduce(ds, builtin_max_mapper("TailNum"))


def test_max_job_skips_all_missing_chunks(servers_csv):
    # every ExtraTime cell is missing, so no chunk emits and no key is reduced
    ds = open_datastore(servers_csv, chunk_size=4)
    result, trace = run_with_trace(ds, builtin_max_mapper("ExtraTime"))
    assert result.readall() == []
    assert trace[-1] == (100, 100)


# -- the built-in key-count job ------------------------------------------------------


def test_keycount_by_origin(delays_csv):
    ds = open_datastore(delays_csv, chunk_size=4)
    result, trace = run_with_trace(ds, builtin_keycount_mapper("Origin"))
    pairs = result.readall()
    assert pairs == [(k, 1) for k in sorted(f"C{i}" for i in range(1, 11))]
    assert [k for k, _ in pairs][:3] == ["C1", "C10", "C2"]  # lexicographic, not numeric
    assert trace[0] == (0, 0) and trace[-1] == (100, 100)


def test_keycount_counts_duplicated_input_twice(delays_csv):
    ds = open_datastore([delays_csv, delays_csv], chunk_size=4)
    result = map_reduce(ds, builtin_keycount_mapper("Origin"))
    assert all(count == 2 for _, count in result.readall())
    assert len(result.readall()) == 10


def test_keycount_keys_are_lexicographic(delays_csv):
    ds = open_datastore(delays_csv, chunk_size=100)
    result = map_reduce(ds, builtin_keycount_mapper("ServerNum"))
    keys = [k for k, _ in result.readall()]
    assert keys == sorted(keys)
    assert "1021" in keys and "53" in keys  # numeric key cells become integer-looking text


def test_keycount_with_value_column_skips_missing_cells(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    result = map_reduce(ds, builtin_keycount_mapper("TailNum", value_column="ExtraTime"))
    assert result.readall() == []  # every ExtraTime cell is missing


def test_keycount_without_value_column_counts_rows(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    result = map_reduce(ds, builtin_keycount_mapper("TailNum"))
    assert result.readall() == [("'NA'", 8)]


@pytest.mark.parametrize("chunk_size", [1, 100])
def test_keycount_names_numeric_keys_as_written(tmp_path, chunk_size):
    # a numeric key is counted as a number: 10 and 10.0 are one key, and so
    # are 0 and -0
    path = tmp_path / "keys.csv"
    path.write_text("k\n10\n1.5\n-0\n0\nNA\n10.0\n1e20\n")
    ds = open_datastore(path, chunk_size=chunk_size)
    result = map_reduce(ds, builtin_keycount_mapper("k"))
    assert result.readall() == [("0", 2), ("1.5", 1), ("10", 2), ("1e+20", 1)]


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=keyed_tables())
def test_any_table_folds_like_a_counter_and_a_plain_max(tmp_path, table):
    keys, values = table
    path = tmp_path / "keyed.csv"
    path.write_text("k,v\n" + "".join(f"{k},{v}\n" for k, v in zip(keys, values)))
    _, _, rows, _ = read_csv_table(path)
    counts = Counter(format_cell(k) for k, _ in rows if k is not None)
    counts_with_value = Counter(format_cell(k) for k, v in rows
                                if k is not None and v is not None)
    present = [v for _, v in rows if v is not None]
    # repr tells -0.0 from 0.0: of equal maxima the first in the table is kept
    want_max = [(MAX_KEY, repr(max(present)))] if present else []

    for chunk_size in range(1, len(rows) + 1):
        for mapper, want in [(builtin_keycount_mapper("k"), counts),
                             (builtin_keycount_mapper("k", "v"), counts_with_value)]:
            result = map_reduce(open_datastore(path, chunk_size=chunk_size), mapper)
            assert result.readall() == sorted(want.items())
        result = map_reduce(open_datastore(path, chunk_size=chunk_size), builtin_max_mapper("v"))
        assert [(k, repr(v)) for k, v in result.readall()] == want_max


@pytest.mark.parametrize("job", [lambda: builtin_keycount_mapper("k", "v"),
                                 lambda: builtin_max_mapper("v")], ids=["keycount", "max"])
def test_a_jobs_memory_follows_its_keys_not_its_chunks(tmp_path, job):
    # a job holds one chunk and one running value per key, so a hundred times
    # the chunks over the same five keys may not double its peak.  It is
    # measured after one untraced run over the same chunks, so that the first
    # calls' allocations and the interpreter's free lists filling up are not
    # counted, and without the cyclic collector, as the commands run.
    peaks = []
    for rows in (400, 40_000):
        path = tmp_path / f"rows{rows}.csv"
        path.write_text("k,v\n" + "".join(f"k{i % 5},{i}\n" for i in range(rows)))
        ds = open_datastore(path, chunk_size=1)
        map_reduce(ds, job())
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            map_reduce(ds, job())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
    assert peaks[1] < 2 * peaks[0], peaks


# -- mechanics -----------------------------------------------------------------------


def _count_rows(chunk, partials):
    partials["rows"] = partials.get("rows", 0) + len(chunk)


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=keyed_tables(), before=st.lists(st.sampled_from(["read", "job"]), max_size=5))
def test_a_job_reads_the_whole_table_wherever_the_cursor_stands(tmp_path, table, before):
    # reads and earlier jobs move the cursor, yet a job gives the pairs and
    # the progress of the same job on a fresh datastore; a row count tells
    # the whole table from any suffix of it
    keys, values = table
    path = tmp_path / "keyed.csv"
    path.write_text("k,v\n" + "".join(f"{k},{v}\n" for k, v in zip(keys, values)))
    for chunk_size in range(1, len(keys) + 1):
        for mapper in (_count_rows, builtin_keycount_mapper("k")):
            ds = open_datastore(path, chunk_size=chunk_size)
            for step in before:
                if step == "job":
                    map_reduce(ds, mapper)
                elif ds.has_data():
                    ds.read()
            fresh = open_datastore(path, chunk_size=chunk_size)
            assert run_with_trace(ds, mapper) == run_with_trace(fresh, mapper)


def test_a_builtin_mapper_finds_the_columns_of_each_table_it_folds(tmp_path):
    # one mapper object over tables whose columns stand in other orders: it
    # looks its columns up again for each table, and checks them again too
    first, second, text = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    first.write_text("k,v\nx,1\ny,NA\nx,3\n")
    second.write_text("v,pad,k\n5,0,y\nNA,0,x\n7,0,y\n-1,0,x\n")
    text.write_text("k,v\nx,word\n")
    count, top = builtin_keycount_mapper("k", "v"), builtin_max_mapper("v")
    for path, counts, maximum in [(first, [("x", 2)], 3.0),
                                  (second, [("x", 1), ("y", 2)], 7.0),
                                  (first, [("x", 2)], 3.0)]:
        for chunk_size in (1, 2, 4):
            ds = open_datastore(path, chunk_size=chunk_size)
            assert map_reduce(ds, count).readall() == counts
            assert map_reduce(ds, top).readall() == [(MAX_KEY, maximum)]
    with pytest.raises(TypeMismatch):
        map_reduce(open_datastore(text), top)


def test_result_is_independent_of_chunk_size(delays_csv):
    reference = None
    for chunk_size in (1, 2, 3, 5, 10):
        ds = open_datastore(delays_csv, chunk_size=chunk_size)
        result, trace = run_with_trace(ds, builtin_keycount_mapper("Origin"))
        if reference is None:
            reference = result.readall()
        assert result.readall() == reference
        assert trace[0] == (0, 0) and trace[-1] == (100, 100)
        map_pcts = [m for m, _ in trace]
        assert map_pcts == sorted(map_pcts)  # progress never goes backwards


def test_the_mapper_folds_the_chunks_in_cursor_order_into_one_dict(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=2)
    fold = builtin_max_mapper("ActualElapsedTime")
    dicts, running = [], []

    def recording_mapper(chunk, partials):
        fold(chunk, partials)
        dicts.append(partials)
        running.append(partials[MAX_KEY])

    result = map_reduce(ds, recording_mapper)
    # the per-chunk maxima 63, 83, 77 and 155 are folded in chunk order
    assert running == [63.0, 83.0, 83.0, 155.0]
    assert all(d is dicts[0] for d in dicts)
    assert result.readall() == [(MAX_KEY, 155.0)]


def test_the_result_is_what_the_mapper_left_named_and_sorted(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows

    def reversing_mapper(chunk, partials):
        values = chunk.columns[0]
        partials.setdefault("k", []).extend(reversed(values))
        size = float(len(values))  # a numeric key, as a numeric cell is
        partials[size] = partials.get(size, 0) + 1

    result = map_reduce(ds, reversing_mapper)
    assert result.readall() == [
        ("2", 1),
        ("3", 2),
        ("k", [1589.0, 1550.0, 1503.0, 1729.0, 1702.0, 1655.0, 1800.0, 1763.0]),
    ]


def test_non_finite_float_keys_are_named_by_repr(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows

    def mapper(chunk, partials):
        for key in (math.inf, -math.inf, math.nan):
            partials[key] = partials.get(key, 0) + len(chunk)

    result = map_reduce(ds, mapper)
    assert result.readall() == [("-inf", 8), ("inf", 8), ("nan", 8)]


def test_each_chunk_is_mapped_before_the_next_is_read(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows
    more_to_read = []

    def recording_mapper(chunk, out):
        more_to_read.append(ds.has_data())

    map_reduce(ds, recording_mapper)
    assert more_to_read == [True, True, False]


class _Refused(Exception):
    pass


@pytest.mark.parametrize("raising", ["mapper", "read"])
@pytest.mark.parametrize("bad_chunk", [1, 2, 3], ids=["first", "middle", "last"])
def test_a_job_that_raises_sends_no_event(servers_csv, raising, bad_chunk):
    # events come once the answer is known, so a job that fails on any chunk
    # reports no progress at all
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows
    calls = []

    def refusing(call):
        def refused(*args):
            calls.append(1)
            if len(calls) == bad_chunk:
                raise _Refused
            return call(*args)
        return refused

    mapper = builtin_max_mapper("Delay")
    if raising == "mapper":
        mapper = refusing(mapper)
    else:
        ds.read = refusing(ds.read)
    events = []
    with pytest.raises(_Refused):
        map_reduce(ds, mapper, progress_sink=events.append)
    assert events == []


def test_a_sink_hears_the_job_once_every_chunk_is_read(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows
    more_to_read = []
    map_reduce(ds, builtin_max_mapper("Delay"),
               progress_sink=lambda event: more_to_read.append(ds.has_data()))
    assert more_to_read == [False] * 5


def _loop_per_chunk(ds, mapper):
    """The events of a job that reports each chunk as it folds it, (0, 0)
    with the first, and then each key of its result."""
    ds.reset()
    chunks, partials, events = ds.chunks_left, {}, []
    for done in range(1, chunks + 1):
        mapper(ds.read(), partials)
        events += [(0, 0)] * (done == 1) + [(100 * done // chunks, 0)]
    keys = len({format_cell(key) for key in partials})
    events += [(100, 100 * done // keys) for done in range(1, keys + 1)] or [(100, 100)]
    return events


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=keyed_tables())
def test_a_completed_job_sends_the_events_of_a_loop_per_chunk(tmp_path, table):
    keys, values = table
    path = tmp_path / "keyed.csv"
    path.write_text("k,v\n" + "".join(f"{k},{v}\n" for k, v in zip(keys, values)))
    for chunk_size in range(1, len(keys) + 1):
        for job in (lambda: builtin_keycount_mapper("k"),
                    lambda: builtin_keycount_mapper("k", "v"),
                    lambda: builtin_max_mapper("v")):
            ds = open_datastore(path, chunk_size=chunk_size)
            assert run_with_trace(ds, job())[1] == _loop_per_chunk(ds, job())


def test_a_custom_fold_counts_by_sign(delays_csv):
    ds = open_datastore(delays_csv, chunk_size=3)

    def sign_counter(chunk, partials):
        values, flags = chunk.numeric("SendingDelay")
        for value, miss in zip(values, flags):
            if not miss:
                key = "positive" if value > 0 else "other"
                partials[key] = partials.get(key, 0) + 1

    result = map_reduce(ds, sign_counter)
    assert result.readall() == [("other", 5), ("positive", 5)]
