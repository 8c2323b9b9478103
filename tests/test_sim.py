"""Simulator behaviour and its agreement with the closed-form terms."""

import hashlib
import random
import tracemalloc

import pytest
from _oracles import simulate_by_events, trace_bytes
from conftest import make_config, make_workload, random_feasible
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagecost import energy, sim
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


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_ticks=st.integers(1, 2000),
    load=st.sampled_from(["feasible", "overloaded", "no-analysis", "no-checkpoint"]),
)
def test_run_equals_the_event_object_oracle(tmp_path, seed, n_ticks, load):
    cfg, wl, _ = random_feasible(random.Random(seed))
    lambda_a, lambda_c = {
        "feasible": (wl.lambda_a, wl.lambda_c),
        "overloaded": (wl.lambda_a + 2.0 * cfg.bw_host2ssd / cfg.compute_nodes, wl.lambda_c),
        "no-analysis": (0.0, wl.lambda_c),
        "no-checkpoint": (wl.lambda_a, 0.0),
    }[load]
    wl = make_workload(lambda_a=lambda_a, lambda_c=lambda_c, alpha=wl.alpha, kernels=wl.kernels)
    tick = cfg.tsim / n_ticks
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
    # 10^5 ticks: four departure times and one source byte per tick, about 3.3 MB;
    # an event object per event would retain over 40 MB
    cfg, wl = make_config(), make_workload()
    tracemalloc.start()
    try:
        rep = sim.simulate(cfg, wl, "k1", tick=cfg.tsim / 10**5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.departures["ssd_drain"]) == 2 * 10**5
    assert retained < 10 * 2**20
    assert peak < 20 * 2**20


def test_write_trace_streams_the_event_log(tmp_path):
    # 5 * 10^4 ticks give an 8 MB trace; its lines are written as they are made
    cfg, wl = make_config(), make_workload()
    rep = sim.simulate(cfg, wl, "k1", tick=cfg.tsim / (5 * 10**4))
    out = tmp_path / "events.tsv"
    tracemalloc.start()
    try:
        sim.write_trace(rep, str(out))
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
    staged, analyzed = rep.departures["ssd_ingest"], rep.departures["ssd_analyze"]
    assert list(analyzed[:-1]) == list(staged[1:])
    assert bytes(rep.drain_sources) == bytes([0] + [0, 1] * 7 + [1])
    oracle = simulate_by_events(cfg, wl, "k1", 1.0)
    out = tmp_path / "events.tsv"
    sim.write_trace(rep, str(out))
    assert out.read_bytes() == trace_bytes(oracle.events)
