"""The schedule of a job's progress events: runs of equal percentages."""

from itertools import groupby

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stagecost.progress import ProgressEvent, _runs, run_job, steps


def _events_one_by_one(chunks, keys):
    """A job's events, computed per chunk and per key, with a marker where each
    chunk is mapped and where the job reduces."""
    out = []
    for done in range(1, chunks + 1):
        out.append("map")
        if done == 1:
            out.append((0, 0))
        out.append((100 * done // chunks, 0))
    out.append("reduce")
    out.extend((100, 100 * done // keys) for done in range(1, keys + 1))
    if not keys:
        out.append((100, 100))
    return out


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(1, 10**4), st.integers(10**6 - 300, 10**6 + 300)))
@example(n=1)
@example(n=99)
@example(n=100)
@example(n=101)
@example(n=10**6)
def test_the_runs_are_the_grouped_percentages(n):
    percentages = [100 * d // n for d in range(1, n + 1)]
    assert list(_runs(n)) == [(p, len(list(run))) for p, run in groupby(percentages)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(chunks=st.integers(0, 3000), keys=st.integers(0, 700))
@example(chunks=0, keys=0)
@example(chunks=1, keys=0)
@example(chunks=200, keys=3)
def test_run_job_maps_reduces_and_reports_as_a_loop_per_chunk_does(chunks, keys):
    out = []

    def reduce():
        out.append("reduce")
        return keys

    run_job(chunks, lambda: out.append("map"), reduce, out.append)
    assert out == _events_one_by_one(chunks, keys)
    assert all(type(e) is ProgressEvent for e in out if e not in ("map", "reduce"))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(chunks=st.integers(0, 3000), keys=st.integers(0, 700))
def test_the_steps_expand_to_the_events_of_the_job(chunks, keys):
    asked = []

    def count_keys():
        asked.append(keys)
        return keys

    expanded = []
    for event, repeats in steps(chunks, count_keys):
        assert repeats >= 1
        expanded.extend([event] * repeats)
    expected = [e for e in _events_one_by_one(chunks, keys) if e not in ("map", "reduce")]
    assert expanded == expected
    assert asked == [keys]


def test_the_number_of_keys_is_asked_for_after_the_map():
    seen = []
    schedule = steps(3, lambda: seen.append("keys") or 2)
    for event, _ in schedule:
        seen.append(tuple(event))
    assert seen == [(0, 0), (33, 0), (66, 0), (100, 0), "keys", (100, 50), (100, 100)]
