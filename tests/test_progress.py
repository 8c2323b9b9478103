"""The schedule of a job's progress events: runs of equal percentages."""

from itertools import groupby

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stagecost.progress import ProgressEvent, _runs, steps


def _events_one_by_one(chunks, keys):
    """A job's events, computed per chunk and per key."""
    out = [(0, 0)] if chunks else []
    out.extend((100 * done // chunks, 0) for done in range(1, chunks + 1))
    out.extend((100, 100 * done // keys) for done in range(1, keys + 1))
    return out if keys else out + [(100, 100)]


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
@example(chunks=3, keys=2)
def test_the_steps_expand_to_the_events_of_the_job(chunks, keys):
    expanded = []
    for event, repeats in steps(chunks, keys):
        assert repeats >= 1
        assert type(event) is ProgressEvent
        expanded.extend([event] * repeats)
    assert expanded == _events_one_by_one(chunks, keys)
