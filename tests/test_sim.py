"""Simulator behaviour and its agreement with the closed-form terms."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from itertools import chain, repeat
from pathlib import Path

import pytest
from _oracles import simulate_by_events, trace_bytes
from conftest import make_config, make_workload, random_feasible
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stagecost import energy, sim, simtrace
from stagecost.config import KernelRate
from stagecost.errors import InfeasibleConfig, KernelNotFound, NonPositiveTick

RANK = {kind: i for i, kind in enumerate(sim.EVENT_KINDS)}


def trace_events(rep, tmp_path):
    """The run's event log as (time, kind, payload_mb), read back from its trace."""
    out = tmp_path / "events.tsv"
    sim.write_trace(rep, str(out))
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    return [(float(t), kind, float(mb)) for t, kind, mb in rows]


def test_ingest_busy_time_matches_hand_value():
    # 40000 MB staged through a 4000 MB/s link -> 10 s busy, 100 J at 10 W
    rep = sim.simulate(make_config(), make_workload(), "k1", tick=1.0)
    assert rep.busy_seconds["ssd_ingest"] == pytest.approx(10.0, rel=1e-12)
    assert rep.energies["ssd_ingest"] == pytest.approx(100.0, rel=1e-12)
    assert rep.completed
    assert rep.backlog_mb_max == 0.0


def test_energies_are_exactly_power_times_busy_time():
    cfg, wl, tick = random_feasible(random.Random(3))
    rep = sim.simulate(cfg, wl, "k1", tick=tick)
    for term, seconds in rep.busy_seconds.items():
        assert rep.energies[term] == cfg.p_ssd_busy * seconds


def test_zero_workload_never_gets_busy(tmp_path):
    wl = make_workload(lambda_a=0.0, lambda_c=0.0)
    rep = sim.simulate(make_config(), wl, "k1", tick=1.0)
    assert all(v == 0.0 for v in rep.busy_seconds.values())
    assert all(v == 0.0 for v in rep.energies.values())
    assert rep.completed
    assert rep.backlog_mb_max == 0.0
    assert all(kind == "generation_tick" for _, kind, _ in trace_events(rep, tmp_path))


def test_overloaded_link_builds_a_linear_backlog(tmp_path):
    # generation at twice the link speed: half of each second's output queues up
    cfg = make_config()
    wl = make_workload(lambda_a=2000.0, lambda_c=0.0)
    rep = sim.simulate(cfg, wl, "k1", tick=1.0)
    assert not rep.completed
    # deficit of bw_host2ssd MB/s, accumulated over the whole run
    assert rep.backlog_mb_max == pytest.approx(cfg.bw_host2ssd * cfg.tsim, rel=1e-9)
    ticks = [ev for ev in trace_events(rep, tmp_path) if ev[1] == "generation_tick"]
    assert len(ticks) == 100


def test_backlog_is_zero_iff_the_link_keeps_up():
    rng = random.Random(5)
    for _ in range(10):
        cfg, wl, tick = random_feasible(rng)
        assert sim.simulate(cfg, wl, "k1", tick=tick).backlog_mb_max == 0.0
        heavy = make_workload(
            lambda_a=wl.lambda_a + 2.0 * cfg.bw_host2ssd / cfg.compute_nodes,
            lambda_c=wl.lambda_c,
            alpha=wl.alpha,
            kernels=wl.kernels,
        )
        assert sim.simulate(cfg, heavy, "k1", tick=tick).backlog_mb_max > 0.0


def test_event_log_is_sorted_and_deterministic(tmp_path):
    cfg, wl, tick = random_feasible(random.Random(9))
    events = trace_events(sim.simulate(cfg, wl, "k1", tick=tick), tmp_path)
    assert trace_events(sim.simulate(cfg, wl, "k1", tick=tick), tmp_path) == events
    keys = [(t, RANK[kind]) for t, kind, _ in events]
    assert keys == sorted(keys)


def test_busy_seconds_stable_under_tick_refinement():
    rng = random.Random(21)
    for _ in range(10):
        cfg, wl, tick = random_feasible(rng)
        coarse = sim.simulate(cfg, wl, "k1", tick=tick).busy_seconds
        fine = sim.simulate(cfg, wl, "k1", tick=tick / 2.0).busy_seconds
        for term in coarse:
            assert fine[term] == pytest.approx(coarse[term], rel=1e-9, abs=1e-12)


def test_bad_tick_values():
    cfg, wl = make_config(), make_workload()
    with pytest.raises(NonPositiveTick):
        sim.simulate(cfg, wl, "k1", tick=0.0)
    with pytest.raises(NonPositiveTick):
        sim.simulate(cfg, wl, "k1", tick=-1.0)
    with pytest.raises(ValueError):
        sim.simulate(cfg, wl, "k1", tick=0.7)  # does not divide tsim=100


def test_unknown_kernel():
    with pytest.raises(KernelNotFound):
        sim.simulate(make_config(), make_workload(), "missing", tick=1.0)


def test_agreement_with_closed_form_terms():
    rng = random.Random(33)
    for _ in range(20):
        cfg, wl, _ = random_feasible(rng)
        report = sim.validate_against_analytic(cfg, wl, "k1", tol=1e-9)
        assert report.passed, report.relative


def test_agreement_check_refuses_overloaded_configs():
    wl = make_workload(lambda_a=5000.0)
    with pytest.raises(InfeasibleConfig):
        sim.validate_against_analytic(make_config(), wl, "k1")


def test_discrepancy_report_flags_only_the_offending_term():
    cfg, wl = make_config(), make_workload()
    analytic = {
        "ssd_ingest": energy.e_node2ssd(cfg, wl),
        "ssd_analyze": energy.e_active_ssd(cfg, wl, "k1"),
        "ssd_drain": energy.e_ssd2pfs(cfg, wl),
    }
    skewed = dict(analytic)
    skewed["ssd_drain"] *= 1.01  # pretend the simulator measured 1% more
    report = sim.compare_energies(skewed, analytic, tol=1e-9)
    assert not report.passed
    assert report.failed_terms == ("ssd_drain",)
    assert report.relative["ssd_ingest"] == 0.0


def test_trace_file_lists_every_event(tmp_path):
    rep = sim.simulate(make_config(), make_workload(), "k1", tick=10.0)
    out = tmp_path / "events.tsv"
    sim.write_trace(rep, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "time\tkind\tpayload_mb"
    assert len(lines) == 1 + 5 * 10  # a tick, its staging, analysis and two drain jobs
    first = lines[1].split("\t")
    assert first[1] == "generation_tick"
    assert float(first[2]) == pytest.approx(4000.0)  # 4 nodes * 100 MB/s * 10 s


def test_long_run_matches_closed_form_to_criterion_04_bound():
    # Busy periods differenced from absolute event times would put ssd_drain
    # about 1.02e-9 off the closed form here; summed service times are not.
    cfg = make_config(
        compute_nodes=3, staging_ssds=4, offline_nodes=4,
        bw_host2ssd=13940.442443817847, bw_fm2c=3463.032515342836,
        bw_c2m=774.8345460344531, bw_ssd=518.6681017570745, bw_pfs=15544.356317586678,
        p_ssd_busy=16.374594616559136, p_ssd_idle=4.114950012914024,
        p_server_busy=156.87778481301584, p_server_idle=1.654817728102561, tsim=64.0,
    )
    wl = make_workload(
        lambda_a=24.332827363402426, lambda_c=2.1919691968394552, alpha=0.2876739058583838,
        kernels=(KernelRate("k1", 151.0172468566726, 1458.651646863296),),
    )
    report = sim.validate_against_analytic(cfg, wl, "k1", ticks=50_000)
    assert report.passed, report.relative


@pytest.mark.parametrize(
    "build, lines, digest",
    [
        (lambda: (make_config(), make_workload(), 1.0), 501,
         "ccd1d7954163c705baa79a6cae2ab9eed8d9a342a0cdb4196411e8bc1225b44c"),
        (lambda: random_feasible(random.Random(9)), 221,
         "ee162c7db99f7ce8eecc23ecebf36b421bd11b8f94257fafc0f343cfcb29a5fc"),
        (lambda: (make_config(), make_workload(lambda_a=2000.0, lambda_c=0.0), 1.0), 401,
         "e470a86360c18769b277a6a84395f750d99e01428c8a97f33cfdbddc1f75e3ea"),
    ],
    ids=["default", "random9", "overloaded"],
)
def test_trace_bytes_are_pinned(tmp_path, build, lines, digest):
    cfg, wl, tick = build()
    out = tmp_path / "events.tsv"
    sim.write_trace(sim.simulate(cfg, wl, "k1", tick=tick), str(out))
    data = out.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


def _loaded(seed, n_ticks, load):
    """A random config at one of four loads, and a tick that gives ``n_ticks`` ticks."""
    cfg, wl, _ = random_feasible(random.Random(seed))
    lambda_a, lambda_c = {
        "feasible": (wl.lambda_a, wl.lambda_c),
        "overloaded": (wl.lambda_a + 2.0 * cfg.bw_host2ssd / cfg.compute_nodes, wl.lambda_c),
        "no-analysis": (0.0, wl.lambda_c),
        "no-checkpoint": (wl.lambda_a, 0.0),
    }[load]
    wl = make_workload(lambda_a=lambda_a, lambda_c=lambda_c, alpha=wl.alpha, kernels=wl.kernels)
    return cfg, wl, cfg.tsim / n_ticks


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ticks=st.integers(1, 2000),
    load=st.sampled_from(["feasible", "overloaded", "no-analysis", "no-checkpoint"]),
)
def test_run_equals_the_event_object_oracle(tmp_path, seed, n_ticks, load):
    cfg, wl, tick = _loaded(seed, n_ticks, load)
    rep = sim.simulate(cfg, wl, "k1", tick=tick)
    oracle = simulate_by_events(cfg, wl, "k1", tick)
    assert rep.busy_seconds == oracle.busy_seconds
    assert rep.energies == oracle.energies
    assert rep.backlog_mb_max == oracle.backlog_mb_max
    assert rep.completed is oracle.completed
    out = tmp_path / "events.tsv"
    sim.write_trace(rep, str(out))
    assert out.read_bytes() == trace_bytes(oracle.events)


def test_run_without_trace_keeps_only_departure_times():
    # 10^5 ticks: one ingest departure time per tick, 0.8 MB; the analyze and
    # drain departures and the drain's sources would add 3.2 MB more, and an
    # event object per event over 40 MB
    cfg, wl = make_config(), make_workload()
    tracemalloc.start()
    try:
        rep = sim.simulate(cfg, wl, "k1", tick=cfg.tsim / 10**5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.staged) == 10**5
    assert retained < 2 * 2**20
    assert peak < 2 * 2**20


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ticks=st.integers(1, 2000),
    load=st.sampled_from(["feasible", "overloaded", "no-analysis", "no-checkpoint"]),
)
def test_busy_seconds_from_job_counts_equal_the_logs_job_by_job_sums(seed, n_ticks, load):
    cfg, wl, tick = _loaded(seed, n_ticks, load)
    rep = sim.simulate(cfg, wl, "k1", tick=tick)
    log = sim.event_log(rep)
    rates = {"ssd_ingest": cfg.bw_host2ssd, "ssd_analyze": rep.analyze_rate}
    for station, mb in (("ssd_ingest", rep.batch_mb), ("ssd_analyze", rep.analysis_mb)):
        served = len(log.departures[station])
        assert served == (n_ticks if mb > 0 else 0)
        assert rep.busy_seconds[station] == served * (mb / rates[station])
    services = [mb / rep.drain_rate for mb in rep.drain_mb]
    assert len(log.drain_sources) == len(log.departures["ssd_drain"])
    assert rep.busy_seconds["ssd_drain"] == math.fsum(map(services.__getitem__,
                                                          log.drain_sources))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    counts=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    mb=st.tuples(st.floats(0, 1e300), st.floats(0, 1e300)),
    rate=st.floats(1e-300, 1e300),
)
@example(counts=(10**6, 10**6), mb=(0.0, 0.0), rate=1.0)  # jobs of no size
@example(counts=(0, 0), mb=(1.0, 2.0), rate=3.0)
@example(counts=(2, 0), mb=(1e300, 1.0), rate=1e-8)  # two finite terms past the float range
@example(counts=(0, 10**6), mb=(1e300, 3.0), rate=1e-300)  # an unserved inf service time
@example(counts=(1, 10**6), mb=(1e300, 0.1), rate=1e-300)  # a served one
def test_drain_busy_seconds_are_the_fsum_of_every_jobs_service_time(counts, mb, rate):
    jobs = [repeat(size / rate, n) for n, size in zip(counts, mb) if size > 0]
    try:
        want = math.fsum(chain.from_iterable(jobs))
    except OverflowError:  # the terms are positive, so their sum is past the float range
        want = math.inf
    assert sim._drain_busy(*counts, mb, rate) == want


def test_write_trace_streams_the_event_log(tmp_path):
    # 5 * 10^4 ticks give an 8 MB trace; its lines are written as they are made
    # from the run's event log, whose departure times exist before it starts
    cfg, wl = make_config(), make_workload()
    log = sim.event_log(sim.simulate(cfg, wl, "k1", tick=cfg.tsim / (5 * 10**4)))
    out = tmp_path / "events.tsv"
    tracemalloc.start()
    try:
        simtrace.write(log, str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 4 * 2**20
    assert peak < 2**20


def test_drain_takes_the_checkpoint_first_at_equal_arrival_times(tmp_path):
    # dyadic sizes and rates: batch k is staged at k + 0.125 and analysed one
    # second later, exactly when batch k + 1's checkpoint reaches the drain
    cfg = make_config(bw_host2ssd=4096.0, bw_fm2c=2.0**70, bw_c2m=2.0**70, tsim=8.0)
    wl = make_workload(lambda_a=64.0, lambda_c=64.0,
                       kernels=(KernelRate("k1", 256.0, 1000.0),))
    rep = sim.simulate(cfg, wl, "k1", tick=1.0)
    log = sim.event_log(rep)
    staged, analyzed = log.departures["ssd_ingest"], log.departures["ssd_analyze"]
    assert list(analyzed[:-1]) == list(staged[1:])
    assert bytes(log.drain_sources) == bytes([0] + [0, 1] * 7 + [1])
    oracle = simulate_by_events(cfg, wl, "k1", 1.0)
    out = tmp_path / "events.tsv"
    sim.write_trace(rep, str(out))
    assert out.read_bytes() == trace_bytes(oracle.events)


# -- the trace written in parts by forked children ------------------------------------------


@pytest.mark.parametrize("lambda_a, n_ticks", [(50.0, 2000), (2000.0, 10**4)],
                         ids=["slow-analyzer", "overloaded"])
def test_trace_parts_hold_about_equal_events(lambda_a, n_ticks):
    # slow-analyzer: the analyzer ends its jobs ever later than their ticks
    # (1.4 s of work a second), so parts of equal ticks would hold 44% and 56%
    # of the events; the cuts follow the events instead.  overloaded:
    # generation at twice bw_host2ssd, and 60% of the events come after the
    # last tick, so the cuts fall at multiples of the tick past it too.
    cfg, wl = make_config(), make_workload(lambda_a=lambda_a)
    log = sim.event_log(sim.simulate(cfg, wl, "k1", tick=cfg.tsim / n_ticks))
    events = log.n_ticks + sum(map(len, log.departures.values()))
    for parts in (2, 3, 5):
        sizes = [sum(hi - lo for lo, hi in part) for part in simtrace._part_ranges(log, parts)]
        assert sum(sizes) == events
        assert max(sizes) - min(sizes) <= 10, sizes
        assert all(abs(size - events / parts) <= 10 for size in sizes), sizes


# pytest's own process holds numpy's BLAS threads, where write_trace writes
# every part itself; so the tests below run the writer in fresh interpreters
# and set the part count through simtrace._write_parts.

_SPLIT_WRITER = """
import atexit, errno, json, os, sys, tempfile, tracemalloc
from stagecost import sim, simtrace
from stagecost.config import KernelRate, SystemConfig, Workload

case = json.loads(sys.argv[1])
wl = dict(case["wl"], kernels=tuple(KernelRate(**k) for k in case["wl"]["kernels"]))
log = sim.event_log(sim.simulate(SystemConfig(**case["cfg"]), Workload(**wl), "k1",
                                 case["tick"]))
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
# a child that flushed this process's buffers or ran its exit hooks would
# repeat these lines on stdout
sys.stdout.write("buffered\\n")
atexit.register(sys.stdout.write, "exit hook\\n")
parent = os.getpid()
if case["mode"] == "no-tempfile":
    tempfile.tempdir = os.path.join(case["out"], "missing")
elif case["mode"] == "failing-child":
    stream = simtrace._event_stream
    def failing(log, windows):
        if os.getpid() != parent:
            raise RuntimeError("a child fails")
        return stream(log, windows)
    simtrace._event_stream = failing
elif case["mode"] == "sendfile-refused":  # as on macOS and the BSDs, to a file
    def refused(*args):
        raise OSError(errno.ENOTSOCK, os.strerror(errno.ENOTSOCK))
    os.sendfile = refused
elif case["mode"] == "sendfile-absent":
    del os.sendfile
elif case["mode"] == "interrupt":
    def interrupted(child, out):
        raise KeyboardInterrupt
    simtrace._Child.append_to = interrupted
# the parts that this process formats itself, as their lists of windows
streamed, counted = [], simtrace._event_stream
def counting(log, windows):
    if os.getpid() == parent:
        streamed.append(windows)
    return counted(log, windows)
simtrace._event_stream = counting
seen = {"may_fork": simtrace._may_fork(), "runs": []}
for parts in case["parts"]:
    del forks[:], streamed[:]
    run = {"parts": parts}
    tracemalloc.start()
    try:
        simtrace._write_parts(log, os.path.join(case["out"], f"{parts}.tsv"), parts)
    except KeyboardInterrupt:
        run["interrupted"] = True
    run["peak"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    run["forks"] = len(forks)
    run["streamed"] = list(map(simtrace._part_windows(log, parts).index, streamed))
    try:
        os.waitpid(-1, os.WNOHANG)
        run["reaped"] = False
    except ChildProcessError:
        run["reaped"] = True
    seen["runs"].append(run)
print(json.dumps(seen))
"""

PARTS = (1, 2, 3, 5)


def _fresh_env(**extra):
    src = str(Path(sim.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src, **extra}


def _write_in_parts(tmp_path, cfg, wl, tick, mode="fork", parts=PARTS, **env):
    """Run ``_write_parts`` at each part count in a fresh interpreter; what it saw, per run."""
    case = {"cfg": asdict(cfg), "wl": asdict(wl), "tick": tick, "mode": mode,
            "parts": list(parts), "out": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", _SPLIT_WRITER, json.dumps(case)],
                          env=_fresh_env(**env), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""  # no child printed a traceback
    buffered, seen, hook = done.stdout.splitlines()
    assert (buffered, hook) == ("buffered", "exit hook")
    seen = json.loads(seen)
    assert seen["may_fork"]
    for run in seen["runs"]:
        assert run["reaped"], run  # no child outlives the writer
    return seen["runs"]


def _dyadic_ties():
    # from 2 s on, every whole second is a tick, a stage, an analysis and a
    # drain time: batch k is staged at k + 1 and analysed at k + 2, and the
    # drain takes half a second a job
    cfg = make_config(bw_host2ssd=512.0, bw_fm2c=2.0**70, bw_c2m=2.0**70, bw_pfs=1024.0,
                      tsim=16.0)
    wl = make_workload(lambda_a=64.0, lambda_c=64.0, alpha=1.0,
                       kernels=(KernelRate("k1", 256.0, 1000.0),))
    return cfg, wl, 1.0


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the trace is split by fork")


@needs_fork
@pytest.mark.parametrize("load", ["feasible", "overloaded", "no-analysis", "no-checkpoint",
                                  "ties"])
def test_trace_parts_join_to_the_one_merge(tmp_path, load):
    cfg, wl, tick = _dyadic_ties() if load == "ties" else _loaded(11, 400, load)
    if load == "ties":
        # each part after the first opens on a time that a stage, an analysis
        # and a drain job end at
        log = sim.event_log(sim.simulate(cfg, wl, "k1", tick=tick))
        for parts in PARTS[1:]:
            for (first, _), *cuts in simtrace._part_ranges(log, parts)[1:]:
                for name, (lo, _) in zip(("ssd_ingest", "ssd_analyze", "ssd_drain"), cuts):
                    assert log.departures[name][lo] == first * tick
    expected = trace_bytes(simulate_by_events(cfg, wl, "k1", tick).events)
    runs = _write_in_parts(tmp_path, cfg, wl, tick)
    assert [run["forks"] for run in runs] == [parts - 1 for parts in PARTS]
    assert [run["streamed"] for run in runs] == [[0]] * len(PARTS)
    for parts in PARTS:
        assert (tmp_path / f"{parts}.tsv").read_bytes() == expected, parts


@pytest.mark.parametrize("load", ["ties", "overloaded"])
def test_any_window_size_gives_the_one_merge(tmp_path, monkeypatch, load):
    # ties: every whole second from 2 s on is four events, which a cut at that
    # second sends to the later window together; overloaded: most events come
    # after the last tick, where the windows are cut too
    cfg, wl, tick = _dyadic_ties() if load == "ties" else _loaded(11, 400, "overloaded")
    log = sim.event_log(sim.simulate(cfg, wl, "k1", tick=tick))
    events = log.n_ticks + sum(map(len, log.departures.values()))
    expected = trace_bytes(simulate_by_events(cfg, wl, "k1", tick).events)
    out = tmp_path / "events.tsv"
    for size in (1, 2, 3, 7, simtrace._WINDOW_EVENTS):
        monkeypatch.setattr(simtrace, "_WINDOW_EVENTS", size)
        for parts in (1, 2, 3):
            windows = simtrace._part_windows(log, parts)
            assert len(windows) == parts
            assert all(len(part) == max(1, events // (parts * size)) for part in windows)
            simtrace._write_parts(log, str(out), parts)
            assert out.read_bytes() == expected, (size, parts)


@needs_fork
@pytest.mark.parametrize(
    "mode, env, forks",
    [("fork", {"TMPDIR": "/nonexistent/stagecost-tmp"}, True),
     ("no-tempfile", {}, False),
     ("failing-child", {}, True)],
    ids=["tmpdir-missing", "no-tempfile", "failing-child"],
)
def test_parts_that_no_child_wrote_are_written_in_turn(tmp_path, mode, env, forks):
    # a missing TMPDIR sends tempfile to the next usable directory, where the
    # children write their parts; without one, or when a child fails, this
    # process formats every part itself
    cfg, wl, tick = _loaded(11, 400, "feasible")
    expected = trace_bytes(simulate_by_events(cfg, wl, "k1", tick).events)
    runs = _write_in_parts(tmp_path, cfg, wl, tick, mode, **env)
    assert [run["forks"] for run in runs] == [(parts - 1) * forks for parts in PARTS]
    children_wrote = mode == "fork"
    assert [run["streamed"] for run in runs] == [
        [0] if children_wrote else list(range(parts)) for parts in PARTS]
    for parts in PARTS:
        assert (tmp_path / f"{parts}.tsv").read_bytes() == expected, parts


@needs_fork
@pytest.mark.parametrize("mode", ["sendfile-refused", "sendfile-absent"])
def test_each_part_a_child_wrote_is_copied_without_sendfile(tmp_path, mode):
    # os.sendfile sends only to a socket on macOS and the BSDs, and is absent
    # on some platforms; the parts that children wrote reach the trace anyway,
    # and this process formats only the first
    cfg, wl, tick = _loaded(11, 400, "feasible")
    expected = trace_bytes(simulate_by_events(cfg, wl, "k1", tick).events)
    runs = _write_in_parts(tmp_path, cfg, wl, tick, mode, parts=(2, 3, 5))
    assert [run["forks"] for run in runs] == [1, 2, 4]
    assert [run["streamed"] for run in runs] == [[0], [0], [0]]
    for parts in (2, 3, 5):
        assert (tmp_path / f"{parts}.tsv").read_bytes() == expected, parts


@needs_fork
def test_the_split_writer_streams_the_event_log(tmp_path):
    # the 8 MB trace of test_write_trace_streams_the_event_log, in two parts:
    # this process formats one and copies the other from its child's file
    cfg, wl = make_config(), make_workload()
    (run,) = _write_in_parts(tmp_path, cfg, wl, cfg.tsim / (5 * 10**4), parts=(2,))
    assert (run["forks"], run["streamed"]) == (1, [0])
    assert (tmp_path / "2.tsv").stat().st_size > 4 * 2**20
    assert run["peak"] < 2**20


@needs_fork
def test_an_interrupted_writer_reaps_its_children(tmp_path):
    cfg, wl, tick = _loaded(11, 400, "overloaded")
    runs = _write_in_parts(tmp_path, cfg, wl, tick, "interrupt", parts=(3, 5))
    assert [(run["parts"], run.get("interrupted"), run["forks"], run["streamed"])
            for run in runs] == [(3, True, 2, [0]), (5, True, 4, [0])]


_FULL_DEVICE = """
import os, sys
from stagecost import cli, sim, simtrace

forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
sim.write_trace = lambda report, path: simtrace._write_parts(sim.event_log(report), path, 3)
sys.argv = ["stagecost", *sys.argv[1:]]
try:
    cli.main()
except SystemExit as exc:
    code = exc.code
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(code, len(forks), reaped)
"""


@needs_fork
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_ends_the_split_writer_with_the_error(tmp_path):
    config = tmp_path / "cluster.json"
    cfg, wl = make_config(), make_workload()
    config.write_text(json.dumps({**asdict(cfg), **asdict(wl)}))
    done = subprocess.run(
        [sys.executable, "-c", _FULL_DEVICE, "simulate", "--config", str(config),
         "--kernel", "k1", "--tick", "0.1", "--trace", "/dev/full"],
        env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.stdout == "1 2 True\n"
    assert done.stderr == "error: [Errno 28] No space left on device\n"
