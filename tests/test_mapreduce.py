"""Map-reduce jobs: results, progress traces, and the order values reach reducers."""

import random

import pytest

from stagecost.datastore import open_datastore
from stagecost.errors import EmptyJob, TypeMismatch
from stagecost.mapreduce import (
    MAX_KEY,
    builtin_keycount_mapper,
    builtin_max_mapper,
    builtin_max_reducer,
    builtin_sum_reducer,
    map_reduce,
)


def run_with_trace(ds, mapper, reducer):
    events = []
    result = map_reduce(ds, mapper, reducer, progress_sink=events.append)
    return result, [(e.map_pct, e.reduce_pct) for e in events]


# -- the built-in maximum job --------------------------------------------------------


def test_max_job_over_the_server_table(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    result, trace = run_with_trace(
        ds, builtin_max_mapper("ActualElapsedTime"), builtin_max_reducer
    )
    assert result.readall() == [(MAX_KEY, 155.0)]
    assert result.value(MAX_KEY) == 155.0
    assert trace == [(0, 0), (50, 0), (100, 0), (100, 100)]


def test_max_job_progress_with_three_chunks(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows
    _, trace = run_with_trace(ds, builtin_max_mapper("Delay"), builtin_max_reducer)
    assert trace == [(0, 0), (33, 0), (66, 0), (100, 0), (100, 100)]


def test_max_job_on_a_text_column_fails(servers_csv):
    ds = open_datastore(servers_csv)
    with pytest.raises(TypeMismatch):
        map_reduce(ds, builtin_max_mapper("TailNum"), builtin_max_reducer)


def test_max_job_skips_all_missing_chunks(servers_csv):
    # every ExtraTime cell is missing, so no chunk emits and no key is reduced
    ds = open_datastore(servers_csv, chunk_size=4)
    result, trace = run_with_trace(ds, builtin_max_mapper("ExtraTime"), builtin_max_reducer)
    assert result.readall() == []
    assert trace[-1] == (100, 100)


def test_max_reducer_is_a_plain_maximum():
    assert builtin_max_reducer(MAX_KEY, [3.0, 155.0, 84.0]) == 155.0


# -- the built-in key-count job ------------------------------------------------------


def test_keycount_by_origin(delays_csv):
    ds = open_datastore(delays_csv, chunk_size=4)
    result, trace = run_with_trace(
        ds, builtin_keycount_mapper("Origin"), builtin_sum_reducer
    )
    pairs = result.readall()
    assert pairs == [(k, 1) for k in sorted(f"C{i}" for i in range(1, 11))]
    assert [k for k, _ in pairs][:3] == ["C1", "C10", "C2"]  # lexicographic, not numeric
    assert trace[0] == (0, 0) and trace[-1] == (100, 100)


def test_keycount_counts_duplicated_input_twice(delays_csv):
    ds = open_datastore([delays_csv, delays_csv], chunk_size=4)
    result = map_reduce(ds, builtin_keycount_mapper("Origin"), builtin_sum_reducer)
    assert all(count == 2 for _, count in result.readall())
    assert len(result.readall()) == 10


def test_keycount_keys_are_lexicographic(delays_csv):
    ds = open_datastore(delays_csv, chunk_size=100)
    result = map_reduce(ds, builtin_keycount_mapper("ServerNum"), builtin_sum_reducer)
    keys = [k for k, _ in result.readall()]
    assert keys == sorted(keys)
    assert "1021" in keys and "53" in keys  # numeric key cells become integer-looking text


def test_keycount_with_value_column_skips_missing_cells(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    result = map_reduce(
        ds,
        builtin_keycount_mapper("TailNum", value_column="ExtraTime"),
        builtin_sum_reducer,
    )
    assert result.readall() == []  # every ExtraTime cell is missing


def test_keycount_without_value_column_counts_rows(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    result = map_reduce(ds, builtin_keycount_mapper("TailNum"), builtin_sum_reducer)
    assert result.readall() == [("'NA'", 8)]


# -- mechanics -----------------------------------------------------------------------


def test_job_consumes_the_cursor_and_a_second_run_is_empty(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    map_reduce(ds, builtin_max_mapper("Delay"), builtin_max_reducer)
    with pytest.raises(EmptyJob):
        map_reduce(ds, builtin_max_mapper("Delay"), builtin_max_reducer)
    ds.reset()
    again = map_reduce(ds, builtin_max_mapper("Delay"), builtin_max_reducer)
    assert again.value(MAX_KEY) == 59.0


def test_job_starts_from_the_cursor_not_the_top(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=4)
    ds.read()  # drop the first half
    result = map_reduce(ds, builtin_max_mapper("ServerNum"), builtin_max_reducer)
    assert result.value(MAX_KEY) == 1800.0


def test_result_is_independent_of_workers_and_chunk_size(delays_csv):
    reference = None
    for chunk_size in (1, 2, 3, 5, 10):
        ds = open_datastore(delays_csv, chunk_size=chunk_size)
        result, trace = run_with_trace(
            ds, builtin_keycount_mapper("Origin"), builtin_sum_reducer
        )
        if reference is None:
            reference = result.readall()
        assert result.readall() == reference
        assert trace[0] == (0, 0) and trace[-1] == (100, 100)
        map_pcts = [m for m, _ in trace]
        assert map_pcts == sorted(map_pcts)  # progress never goes backwards


def test_reducer_sees_values_ordered_by_chunk(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=2)
    seen = {}

    def recording_reducer(key, values):
        seen[key] = list(values)
        return values[-1]

    map_reduce(ds, builtin_max_mapper("ActualElapsedTime"), recording_reducer)
    # per-chunk maxima arrive in chunk order
    assert seen[MAX_KEY] == [63.0, 83.0, 77.0, 155.0]


def test_reducer_sees_values_in_chunk_then_emission_order(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows
    seen = {}

    def reversing_mapper(chunk, out):
        for value in reversed(chunk.columns[0]):
            out.add("k", value)
            out.add("a", -value)

    def recording_reducer(key, values):
        seen[key] = list(values)
        return len(values)

    result = map_reduce(ds, reversing_mapper, recording_reducer)
    assert result.readall() == [("a", 8), ("k", 8)]
    assert seen["k"] == [1589.0, 1550.0, 1503.0, 1729.0, 1702.0, 1655.0, 1800.0, 1763.0]
    assert seen["a"] == [-v for v in seen["k"]]


def test_each_chunk_is_mapped_before_the_next_is_read(servers_csv):
    ds = open_datastore(servers_csv, chunk_size=3)  # 3 + 3 + 2 rows
    more_to_read = []

    def recording_mapper(chunk, out):
        more_to_read.append(ds.has_data())

    map_reduce(ds, recording_mapper, builtin_sum_reducer)
    assert more_to_read == [True, True, False]


def test_custom_mapper_and_reducer(delays_csv):
    ds = open_datastore(delays_csv, chunk_size=3)

    def spread_mapper(chunk, out):
        i = chunk.column_index("SendingDelay")
        for value, miss in zip(chunk.columns[i], chunk.missing[i]):
            if not miss:
                out.add("positive" if value > 0 else "other", value)

    result = map_reduce(ds, spread_mapper, lambda key, values: len(values))
    assert result.readall() == [("other", 5), ("positive", 5)]
