"""Command-line behaviour: outputs, exit codes, and the reporting helpers."""

import csv
import gc
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from conftest import keyed_tables, make_config, make_workload
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stagecost import cli, colcache, energy, sim, stats, tablecmds
from stagecost.datastore import Datastore, _Text, open_datastore
from stagecost.errors import (
    EmptyInput,
    LengthMismatch,
    MissingData,
    TypeMismatch,
)
from stagecost.cli import dispatch
from stagecost.report import DELAY_COLUMNS, delay_summary, emit_plot_data, write_plot_tsv


@pytest.fixture
def config_file(tmp_path):
    cfg, wl = make_config(), make_workload()
    doc = {
        field: getattr(cfg, field) for field in cfg.__dataclass_fields__
    }
    doc.update(
        lambda_a=wl.lambda_a,
        lambda_c=wl.lambda_c,
        alpha=wl.alpha,
        kernels=[
            {"name": k.name, "t_ssd_k": k.t_ssd_k, "t_server_k": k.t_server_k}
            for k in wl.kernels
        ],
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- delay reporting ------------------------------------------------------------------


def test_delay_summary_means_are_exact(delays_csv):
    summary = delay_summary(open_datastore(delays_csv))
    assert summary.records == 10
    assert abs(summary.overall["sending"].mean - 4.8) <= 1e-12
    assert abs(summary.overall["receiving"].mean - 3.1) <= 1e-12
    assert summary.overall["sending"].minimum == -17.0
    assert summary.overall["sending"].maximum == 52.0
    assert summary.overall["receiving"].minimum == -2.0
    assert summary.overall["receiving"].maximum == 13.0


def test_delay_summary_per_origin(delays_csv):
    summary = delay_summary(open_datastore(delays_csv))
    assert sorted(summary.per_origin) == sorted(f"C{i}" for i in range(1, 11))
    # one record per origin, so each mean is just that record's value
    assert summary.per_origin["C5"]["sending"].mean == -17.0
    assert summary.per_origin["C10"]["receiving"].mean == 13.0


def test_delay_records_reject_missing_cells(tmp_path):
    path = tmp_path / "gappy.csv"
    path.write_text(
        "UniqueCarrier,ServerNum,SendingDelay,ReceivingDelay,Origin\n"
        "S1,121,-9,0,C1\nS2,99,NA,4,C2\n"
    )
    with pytest.raises(MissingData):
        delay_summary(open_datastore(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("S2,x99,4,4,C2", "column 'ServerNum' is not numeric"),
        ("S2,99,soon,4,C2", "column 'SendingDelay' is not numeric"),
        ("S2,99,4,late,C2", "column 'ReceivingDelay' is not numeric"),
        ("S2,1.7,4,4,C2", "column 'ServerNum' holds 1.7, not a whole number"),
    ],
    ids=["text-server", "text-sending", "text-receiving", "fractional-server"],
)
def test_delay_records_reject_bad_cells(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        "UniqueCarrier,ServerNum,SendingDelay,ReceivingDelay,Origin\n"
        f"S1,121,-9,0,C1\n{row}\n"
    )
    with pytest.raises(TypeMismatch, match=re.escape(message)):
        delay_summary(open_datastore(path))


_DELAY_HEADER = "UniqueCarrier,ServerNum,SendingDelay,ReceivingDelay,Origin\n"
_ORIGIN_NUMBERS = ["10", "10.0", "-0", "0", "2.5", "-1.25", " 3 "]
_ORIGIN_WORDS = ["C1", "c1", "10", "x y"]  # with a word among them, Origin is text
_DELAY_CELLS = st.sampled_from(["0", "-0", "-0.0", "0.1", "0.2", "-2", "7", "-17.25", "1e16"])


@st.composite
def _delay_tables(draw):
    """Rows of a valid delay table: whole server numbers, no missing cells."""
    n_rows = draw(st.integers(1, 12))
    pool = _ORIGIN_NUMBERS + (_ORIGIN_WORDS if draw(st.booleans()) else [])
    columns = [st.sampled_from(["S1", "7"]), st.integers(-5, 2000), _DELAY_CELLS, _DELAY_CELLS,
               st.sampled_from(pool)]
    return list(zip(*(draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
                      for cells in columns)))


def _delay_oracle(path) -> dict:
    """The summary of a delay table as csv.reader gives its rows: sums by +=
    in row order, min/max of lists, each origin named as written."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    try:
        origins = [float(row[4]) for row in rows]
        names = [str(int(x)) if x == int(x) else repr(x) for x in origins]
    except ValueError:  # a word: the column is text
        names = [row[4].strip() for row in rows]

    def both(group):
        stats = {}
        for name, at in (("sending", 2), ("receiving", 3)):
            values = [float(row[at]) for row in group]
            total = 0.0
            for v in values:
                total += v
            stats[name] = {"mean": total / len(values), "minimum": min(values),
                           "maximum": max(values)}
        return stats

    groups = {}
    for name, row in zip(names, rows):
        groups.setdefault(name, []).append(row)
    return {"records": len(rows), "overall": both(rows),
            "per_origin": {name: both(groups[name]) for name in sorted(groups)}}


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_delay_tables())
def test_delay_summary_equals_the_row_by_row_oracle(tmp_path, rows):
    path = tmp_path / "delays.csv"
    path.write_text(_DELAY_HEADER + "".join(",".join(map(str, row)) + "\n" for row in rows))
    # repr tells -0.0 from 0.0, which == does not; the summary is compared as
    # the object that the delays command prints
    want = repr(_delay_oracle(path))
    for chunk_size in range(1, len(rows) + 1):
        summary = delay_summary(open_datastore(path, chunk_size=chunk_size))
        assert repr(tablecmds._delays_doc(summary)) == want


@pytest.mark.parametrize("chunk_size", [1, 2, 4, 6])
@pytest.mark.parametrize("fractional_row, missing_row, missing_column, error", [
    (3, 5, 3, TypeMismatch), (5, 3, 3, MissingData), (5, 3, 1, MissingData),
], ids=["fractional-first", "missing-first", "missing-server-first"])
def test_the_first_bad_delay_row_wins(tmp_path, chunk_size, fractional_row, missing_row,
                                      missing_column, error):
    # rows count from 1; a missing ServerNum is missing, not fractional
    rows = [["S1", "1", "4", "2", "C1"] for _ in range(6)]
    rows[fractional_row - 1][1] = "1.5"
    rows[missing_row - 1][missing_column] = "NA"
    path = tmp_path / "bad.csv"
    path.write_text(_DELAY_HEADER + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(error):
        delay_summary(open_datastore(path, chunk_size=chunk_size))
    # a text delay column is refused before any row is looked at
    rows[5][2] = "late"
    path.write_text(_DELAY_HEADER + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(TypeMismatch, match="column 'SendingDelay' is not numeric"):
        delay_summary(open_datastore(path, chunk_size=chunk_size))


def test_delay_summary_memory_follows_its_origins_not_its_rows(tmp_path):
    # one running list per origin: a hundred times the rows over the same five
    # origins may not double the peak.  Measured without the cyclic collector,
    # as the commands run, and after a warm-up call, so that the first call's
    # imports are not counted.  No chunk leaves a tuple behind in the
    # interpreter's free lists, which over 625 chunks would double the peak.
    peaks = []
    for rows in (400, 40_000):
        path = tmp_path / f"rows{rows}.csv"
        path.write_text(_DELAY_HEADER + "".join(f"S{i % 3},{i},{i % 10},{-(i % 4)},C{i % 5}\n"
                                                for i in range(rows)))
        ds = open_datastore(path, chunk_size=64)
        delay_summary(ds)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            delay_summary(ds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
    assert peaks[1] < 2 * peaks[0], peaks


def test_the_delays_command_folds_in_bounded_chunks(tmp_path, capsys):
    # the command reads its table a few thousand rows at a time, so its peak
    # stays near the size of the datastore it opens; one chunk of the whole
    # table would copy every kept column and about double it.  Measured
    # without the cyclic collector, as the commands run, after a warm-up run.
    path = tmp_path / "delays.csv"
    path.write_text(_DELAY_HEADER + "".join(f"S{i % 3},{i},{i % 10},{-(i % 4)},C{i % 5}\n"
                                            for i in range(40_000)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert dispatch(["delays", "--input", str(path)]) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            ds = open_datastore(path, columns=DELAY_COLUMNS)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del ds
        tracemalloc.start()
        try:
            assert dispatch(["delays", "--input", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        if enabled:
            gc.enable()
    assert json.loads(capsys.readouterr().out)["records"] == 40_000
    assert peak < 1.75 * retained, (peak, retained)


# -- plot series ----------------------------------------------------------------------


def _plot_columns(series) -> list[tuple[float, ...]]:
    """The columns of the TSV that ``write_plot_tsv`` writes of ``series``, read back."""
    buffer = io.StringIO()
    write_plot_tsv(series, buffer)
    rows = [tuple(map(float, line.split("\t"))) for line in buffer.getvalue().splitlines()[1:]]
    return list(zip(*rows))


def test_plot_series_without_fit():
    series = emit_plot_data([1, 2, 3], [4.0, 5.0, 6.5])
    assert series.x == array("d", [1.0, 2.0, 3.0])
    assert series.y == array("d", [4.0, 5.0, 6.5])
    assert series.slope is None and series.intercept is None
    assert len(_plot_columns(series)) == 2


def test_plot_series_keeps_float_arrays_without_a_copy():
    x, y = array("d", [1.0, 2.0]), array("d", [3.0, 4.0])
    series = emit_plot_data(x, y)
    assert series.x is x and series.y is y
    assert emit_plot_data(["1.5", 2], (3, 4.0)).x == array("d", [1.5, 2.0])


def test_plot_series_fit_matches_the_hand_fit():
    x, y = [1, 2, 3], [1, 2, 4]
    series = emit_plot_data(x, y, stats.ols_coefficients([x], y))
    assert series.intercept == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert series.slope == pytest.approx(1.5, rel=1e-12)
    assert _plot_columns(series)[2][1] == pytest.approx(series.intercept + 2 * series.slope)


def test_plot_series_fit_through_two_points_is_exact():
    x, y = [0.0, 2.0], [1.0, 5.0]
    series = emit_plot_data(x, y, stats.ols_coefficients([x], y))
    assert _plot_columns(series)[2] == pytest.approx((1.0, 5.0), abs=1e-12)


def test_plot_series_length_mismatch():
    with pytest.raises(LengthMismatch):
        emit_plot_data([1, 2], [1, 2, 3])


def test_plot_tsv_round_trips_full_precision():
    x, y = [0.1, 0.2], [1 / 3, 2 / 3]
    series = emit_plot_data(x, y, stats.ols_coefficients([x], y))
    buffer = io.StringIO()
    write_plot_tsv(series, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "x\ty\tfitted"
    x, y, fitted = (float(cell) for cell in lines[1].split("\t"))
    assert (x, y, fitted) == (series.x[0], series.y[0], series.intercept + series.slope * 0.1)


def test_a_plot_series_with_given_coefficients_draws_their_line():
    series = emit_plot_data([1.0, 2.0, 3.0], [1.0, 2.0, 4.0], coefficients=(0.5, 2.0))
    assert (series.intercept, series.slope) == (0.5, 2.0)
    assert _plot_columns(series)[2] == (2.5, 4.5, 6.5)


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 10_000])
@pytest.mark.parametrize("fit", [False, True], ids=["points", "line"])
def test_a_plot_tsv_in_blocks_is_a_line_of_reprs_per_point(rows, fit):
    rng = random.Random(rows)
    x = [rng.uniform(-1e6, 1e6) for _ in range(rows)]
    y = [rng.gauss(0.0, 1.0) / 3 for _ in range(rows)]
    series = emit_plot_data(x, y, coefficients=(1 / 3, 0.1) if fit else None)
    columns = [x, y, *([[1 / 3 + 0.1 * v for v in x]] if fit else [])]
    want = ("x\ty\tfitted\n" if fit else "x\ty\n") + "".join(
        "\t".join(map(repr, row)) + "\n" for row in zip(*columns))
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    write_plot_tsv(series, Recorder())
    assert "".join(writes) == want
    assert len(writes) == 1 + -(-rows // 4096)  # the header, then a write per block


# -- dispatch and exit codes ------------------------------------------------------------


def test_unknown_command_is_a_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_command_is_a_usage_error(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert dispatch(["--help"]) == 0
    assert "Subcommands" not in capsys.readouterr().err


def test_domain_errors_exit_one(capsys, tmp_path):
    assert dispatch(["delays", "--input", str(tmp_path / "nope.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_config_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert dispatch(["energy", "--config", str(path), "--kernel", "k1"]) == 1
    assert "error:" in capsys.readouterr().err


# -- energy, compare, simulate ----------------------------------------------------------


def test_energy_command_prints_the_breakdown(capsys, config_file):
    assert dispatch(["energy", "--config", config_file, "--kernel", "k1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = energy.insitu_breakdown(make_config(), make_workload(), "k1")
    assert payload["e_node2ssd"] == expected.e_node2ssd
    assert payload["e_ssd_total"] == expected.e_ssd_total
    assert set(payload) == {
        "e_node2ssd", "e_active_ssd", "e_ssd2pfs", "e_idle_ssd",
        "e_io_saving", "e_ssd_total", "t_io_saving",
    }


def test_energy_command_rejects_unknown_kernel(capsys, config_file):
    assert dispatch(["energy", "--config", config_file, "--kernel", "k9"]) == 1
    capsys.readouterr()


def test_compare_command_names_a_winner(capsys, config_file):
    assert dispatch(["compare", "--config", config_file, "--kernel", "k1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner_by_energy"] in ("insitu", "offline", "tie")
    assert payload["winner_by_time"] in ("insitu", "offline", "tie")
    assert payload["insitu"]["e_ssd_total"] == payload["offline"]["e_offline"] or True
    assert "t_offline" in payload["offline"]


def test_simulate_command_reports_and_traces(capsys, config_file, tmp_path):
    trace = tmp_path / "events.tsv"
    code = dispatch(
        ["simulate", "--config", config_file, "--kernel", "k1",
         "--tick", "1", "--trace", str(trace)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completed"] is True
    assert payload["backlog_mb_max"] == 0.0
    assert set(payload["energies"]) == {"ssd_ingest", "ssd_analyze", "ssd_drain"}
    lines = trace.read_text().splitlines()
    assert lines[0] == "time\tkind\tpayload_mb"
    first = lines[1].split("\t")
    assert first[1] == "generation_tick"
    assert float(first[2]) == 400.0  # 4 nodes x 100 MB/s x 1 s tick


def test_simulate_writes_its_trace_through_sim_write_trace(capsys, monkeypatch, config_file,
                                                         tmp_path):
    # the command calls the name sim.write_trace when it runs, so a function
    # put there (as a tracer's wrapper is) receives the run and the path
    trace = str(tmp_path / "events.tsv")
    calls = []
    monkeypatch.setattr(sim, "write_trace", lambda report, path: calls.append((report, path)))
    code = dispatch(["simulate", "--config", config_file, "--kernel", "k1",
                     "--tick", "1", "--trace", trace])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    [(report, path)] = calls
    assert path == trace
    assert isinstance(report, sim.SimReport)
    assert (report.n_ticks, report.energies) == (100, payload["energies"])
    assert not os.path.exists(trace)


def _counting_stations(monkeypatch, drain=True):
    """Count the calls of sim._fifo and sim._drain; a _drain call raises unless ``drain``."""
    calls = {"_fifo": 0, "_drain": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name == "_drain" and not drain:
                raise AssertionError("an untraced run served the drain")
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
    return calls


def test_simulate_without_trace_runs_only_the_ingest_station(capsys, monkeypatch, config_file):
    # what it prints needs no analyze or drain departure times
    calls = _counting_stations(monkeypatch, drain=False)
    assert dispatch(["simulate", "--config", config_file, "--kernel", "k1", "--tick", "1"]) == 0
    assert calls == {"_fifo": 1, "_drain": 0}
    assert json.loads(capsys.readouterr().out)["completed"] is True


def test_simulate_with_trace_runs_each_station_once(capsys, monkeypatch, config_file, tmp_path):
    calls = _counting_stations(monkeypatch)
    trace = tmp_path / "events.tsv"
    assert dispatch(["simulate", "--config", config_file, "--kernel", "k1", "--tick", "1",
                     "--trace", str(trace)]) == 0
    assert calls == {"_fifo": 2, "_drain": 1}  # ingest and analyze, then the drain
    assert len(trace.read_text().splitlines()) == 1 + 5 * 100


@pytest.mark.parametrize("change", [{"lambda_a": 1e304, "bw_host2ssd": 0.01},
                                    {"bw_pfs": 2e-304}], ids=["ingest", "drain"])
def test_simulate_with_a_result_past_the_float_range_writes_no_trace(capsys, config_file,
                                                                   tmp_path, change):
    # busy seconds overflow at ingest or at the drain: the run fails before the
    # trace is written, so no file is made and an existing one keeps its bytes
    doc = json.loads(Path(config_file).read_text())
    doc.update(change)
    config = tmp_path / "over.json"
    config.write_text(json.dumps(doc))
    new, old = tmp_path / "new.tsv", tmp_path / "old.tsv"
    old.write_text("kept\n")
    for trace in (new, old):
        code = dispatch(["simulate", "--config", str(config), "--kernel", "k1",
                         "--tick", "10", "--trace", str(trace)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "error: the result holds an infinite or NaN number")
        assert captured.out == ""
    assert not new.exists()
    assert old.read_text() == "kept\n"


@pytest.mark.parametrize("tick", ["3", "nan", "inf", "1e-300"])
def test_simulate_rejects_bad_ticks_without_traceback(capsys, config_file, tick):
    # tsim is 100: 3 does not divide it, and 1e-300 would give 1e302 ticks
    code = dispatch(["simulate", "--config", config_file, "--kernel", "k1", "--tick", tick])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "overrides",
    [{"bw_fm2c": 1e-320, "bw_c2m": 1e-320}, {"p_ssd_busy": 1e308}],
    ids=["analyze-rate-underflows", "energy-overflows"],
)
def test_simulate_rejects_non_finite_results(capsys, config_file, tmp_path, overrides):
    # both configs pass validate; the first gives an analyze rate of 0, the
    # second infinite energies
    doc = json.loads(Path(config_file).read_text())
    doc.update(overrides)
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    code = dispatch(["simulate", "--config", str(path), "--kernel", "k1", "--tick", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines()[-1].startswith("error:")
    assert "Traceback" not in captured.err
    assert "Infinity" not in captured.out


@pytest.mark.parametrize("command", ["energy", "compare"])
def test_overflowing_energy_term_is_named(capsys, config_file, tmp_path, command):
    # the analyse and drain busy time is 147.5 s at any p_ssd_busy, inside the
    # 200 s budget; what overflows is the energy, first of all e_node2ssd
    doc = json.loads(Path(config_file).read_text())
    doc["p_ssd_busy"] = 1e308
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    assert dispatch([command, "--config", str(path), "--kernel", "k1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: energy term e_node2ssd is not finite (inf J)\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["energy", "compare"])
def test_node_count_squared_past_the_float_range_is_an_error(capsys, config_file, tmp_path,
                                                             command):
    # the drain term grows with N^2; an N near 1.34e154 squares past 1.8e308
    doc = json.loads(Path(config_file).read_text())
    doc["compute_nodes"] = 1.3407807929942597e154
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    assert dispatch([command, "--config", str(path), "--kernel", "k1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "error: energy term e_ssd2pfs is not finite (inf J)"
    assert captured.out == ""


_NUMBER = st.integers(-3, 10) | st.floats(-10.0, 1e4) | st.floats() | st.integers()
_POSITIVE = st.integers(1, 10) | st.floats(0.01, 1e4) | st.floats(5e-324, 1e308)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
_K1 = [{"name": "k1", "t_ssd_k": 250.0, "t_server_k": 1000.0}]
_NUMERIC_KEYS = ["compute_nodes", "staging_ssds", "bw_host2ssd", "bw_pfs", "p_ssd_idle",
                 "p_ssd_busy", "tsim", "lambda_a", "lambda_c", "alpha"]


@pytest.mark.parametrize("command", ["energy", "compare", "simulate"])
@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    numbers=st.dictionaries(st.sampled_from(_NUMERIC_KEYS), _POSITIVE, max_size=3),
    kernels=st.lists(
        st.fixed_dictionaries(
            {"name": st.sampled_from(["k1", "k2"]), "t_ssd_k": _POSITIVE,
             "t_server_k": _POSITIVE}
        ),
        min_size=1,
        max_size=2,
    ),
    mode=st.sampled_from(["numbers", "numbers", "numbers", "junk", "whole"]),
    junk_key=st.sampled_from([*_NUMERIC_KEYS, "kernels", "surprise"]),
    junk=_JSON,
)
# boundary values the generated examples need not reach: N whose square
# overflows, an integer past the float range, a tsim giving too many ticks,
# subnormal rates, and busy seconds past the float range
@example(numbers={"compute_nodes": 1.3407807929942597e154}, kernels=_K1, mode="numbers",
         junk_key="surprise", junk=None)
@example(numbers={"compute_nodes": 10**400}, kernels=_K1, mode="numbers",
         junk_key="surprise", junk=None)
@example(numbers={"tsim": 1e308}, kernels=_K1, mode="numbers", junk_key="surprise", junk=None)
@example(numbers={"lambda_a": 5e-324}, kernels=_K1, mode="numbers", junk_key="surprise",
         junk=None)
@example(numbers={"bw_pfs": 5e-324}, kernels=_K1, mode="numbers", junk_key="surprise",
         junk=None)
@example(numbers={"lambda_a": 1e304, "bw_host2ssd": 0.01}, kernels=_K1, mode="numbers",
         junk_key="surprise", junk=None)
@example(numbers={"bw_pfs": 2e-304}, kernels=_K1, mode="numbers", junk_key="surprise",
         junk=None)
def test_energy_never_crashes_on_generated_configs(capsys, config_file, tmp_path, command,
                                                   numbers, kernels, mode, junk_key, junk):
    # generated documents end in exit 0 or in an "error:" line, never in an exception
    doc = json.loads(Path(config_file).read_text())
    doc.update(numbers, kernels=kernels)
    if mode == "junk":
        doc[junk_key] = junk
    path = tmp_path / "generated.json"
    path.write_text(json.dumps(junk if mode == "whole" else doc))
    argv = [command, "--config", str(path), "--kernel", "k1"]
    if command == "simulate":
        tsim = doc["tsim"]
        positive = type(tsim) in (int, float) and 0 < tsim < 1e300  # not bool, nan or huge
        argv += ["--tick", repr(tsim / 10) if positive else "1"]
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert code == 0 or err.splitlines()[-1].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["mapreduce", "run", "--job", "max", "--column", "a", "--chunk-size", "0"],
        ["mapreduce", "run", "--job", "max", "--column", "a", "--chunk-size", "-3"],
        ["pca", "--threshold", "2"],
        ["pca", "--cutoff", "0"],
    ],
    ids=["chunk-size-0", "chunk-size-negative", "threshold", "cutoff"],
)
def test_out_of_range_parameters_exit_one_without_traceback(capsys, tmp_path, argv):
    path = tmp_path / "clean.csv"
    path.write_text("a,b,c\n1,2,0\n2,1,1\n3,5,0\n4,3,2\n")
    assert dispatch([*argv, "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{config}", "--kernel", "k1", "--tick", "1",
         "--trace", "{tmp}/missing/events.tsv"],
        ["simulate", "--config", "{config}", "--kernel", "k1", "--tick", "1",
         "--trace", "{tmp}"],
        ["plotdata", "--input", "{tmp}/points.csv", "--x", "t", "--y", "v",
         "--output", "{tmp}/missing/series.tsv"],
        # an empty path names no file: no trace, or the TSV on stdout, would hide that
        ["simulate", "--config", "{config}", "--kernel", "k1", "--tick", "1", "--trace", ""],
        ["plotdata", "--input", "{tmp}/points.csv", "--x", "t", "--y", "v", "--output", ""],
    ],
    ids=["trace-in-missing-dir", "trace-is-a-directory", "plot-in-missing-dir",
         "trace-is-empty", "plot-output-is-empty"],
)
def test_unwritable_output_paths_exit_one_without_traceback(capsys, config_file, tmp_path,
                                                            argv):
    (tmp_path / "points.csv").write_text("t,v\n0,1\n1,3\n2,5\n")
    argv = [arg.format(config=config_file, tmp=tmp_path) for arg in argv]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# -- bad input bytes ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["mapreduce", "run", "--job", "keycount", "--key", "a"], ["delays"]],
    ids=["mapreduce", "delays"],
)
def test_latin1_csv_is_an_error_naming_the_line(capsys, tmp_path, argv):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,caf\xe9\n")
    assert dispatch([*argv, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:2: not UTF-8 text (invalid continuation byte)\n"
    assert captured.out == ""


def test_cell_over_the_field_limit_is_an_error_naming_the_line(capsys, tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "big.csv"
    path.write_text("a,b\n1,2\n3," + "x" * (limit + 1) + "\n")
    argv = ["mapreduce", "run", "--job", "keycount", "--key", "a", "--input", str(path)]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:3: field larger than field limit ({limit})\n"
    assert captured.out == ""


_BAD_ROWS = {  # a 3-column table whose line 3 is bad in column c
    "short row": (b"a,b,c\n1,2,3\n4,5\n", "expected 3 cells, got 2"),
    "not UTF-8": (b"a,b,c\n1,2,3\n4,5,caf\xe9\n", "not UTF-8 text (invalid continuation byte)"),
    "field limit": (b"a,b,c\n1,2,3\n4,5," + b"x" * (csv.field_size_limit() + 1) + b"\n",
                    f"field larger than field limit ({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("bad", list(_BAD_ROWS))
@pytest.mark.parametrize(
    "argv",
    [
        ["regress", "--dependent", "a", "--independents", "b"],
        ["regress", "--dependent", "nope", "--independents", "b"],
        ["plotdata", "--x", "a", "--y", "b"],
        ["mapreduce", "run", "--job", "max", "--column", "b"],
        ["mapreduce", "run", "--job", "max", "--column", "nope"],
        ["mapreduce", "run", "--job", "max"],
        ["mapreduce", "run", "--job", "keycount", "--key", "a"],
        ["delays"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[3:]),
)
def test_a_bad_row_in_a_column_the_command_does_not_read_is_still_the_error(
        capsys, tmp_path, argv, bad):
    # commands load only the columns they name, yet every row is checked,
    # and a bad row is reported ahead of a missing option or an unknown column
    content, message = _BAD_ROWS[bad]
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert dispatch([*argv, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:3: {message}\n"
    assert captured.out == ""


def test_non_utf8_config_is_an_error(capsys, config_file, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(Path(config_file).read_bytes().replace(b'"k1"', b'"k\xe9"'))
    assert dispatch(["energy", "--config", str(path), "--kernel", "k1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: config {path} is not UTF-8 text (invalid continuation byte)\n"
    assert captured.out == ""


def test_infeasible_config_warns_but_runs(capsys, config_file, tmp_path):
    doc = json.loads(Path(config_file).read_text())
    doc["bw_host2ssd"] = 10.0  # far below the 400 MB/s offered load
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["energy", "--config", str(path), "--kernel", "k1"]) == 0
    captured = capsys.readouterr()
    assert "staging infeasible" in captured.err
    json.loads(captured.out)


# -- mapreduce ---------------------------------------------------------------------------


def test_mapreduce_max_job_trace(capsys, servers_csv):
    code = dispatch(
        ["mapreduce", "run", "--job", "max", "--column", "ActualElapsedTime",
         "--input", servers_csv, "--chunk-size", "4"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "Map 0% Reduce 0%",
        "Map 50% Reduce 0%",
        "Map 100% Reduce 0%",
        "Map 100% Reduce 100%",
        "MaxElapsedTime\t155",
    ]


def test_mapreduce_keycount_job(capsys, delays_csv):
    code = dispatch(
        ["mapreduce", "run", "--job", "keycount", "--key", "Origin",
         "--input", delays_csv, "--chunk-size", "5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [line for line in lines if "\t" in line]
    assert len(counts) == 10
    assert all(line.endswith("\t1") for line in counts)
    assert counts[0] == "C1\t1"


def test_mapreduce_max_needs_a_column(capsys, servers_csv):
    code = dispatch(["mapreduce", "run", "--job", "max", "--input", servers_csv])
    assert code == 1
    assert capsys.readouterr().err == "error: --column is required for the max job\n"


def test_mapreduce_keycount_needs_a_key(capsys, servers_csv):
    code = dispatch(["mapreduce", "run", "--job", "keycount", "--input", servers_csv])
    assert code == 1
    assert capsys.readouterr().err == "error: --key is required for the keycount job\n"


def test_mapreduce_max_on_a_text_column_prints_only_the_error(capsys, delays_csv):
    code = dispatch(["mapreduce", "run", "--job", "max", "--column", "Origin",
                     "--input", delays_csv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: column 'Origin' is not numeric\n"


@pytest.mark.parametrize("job, bad", [
    (["max", "--column", "nope"], "nope"),
    (["keycount", "--key", "nope"], "nope"),
    (["keycount", "--key", "nope", "--column", "Delay"], "nope"),
    (["keycount", "--key", "TailNum", "--column", "nope"], "nope"),
    (["keycount", "--key", "nope", "--column", "also_nope"], "nope"),
    (["keycount", "--key", "TailNum", "--column", ""], ""),
])
def test_mapreduce_on_a_column_the_table_lacks_prints_only_the_error(capsys, servers_csv,
                                                                     job, bad):
    # the mapper checks the job's columns on the first chunk, before any progress
    code = dispatch(["mapreduce", "run", "--job", *job, "--input", servers_csv,
                     "--chunk-size", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: no column named {bad!r}\n"


@pytest.mark.parametrize("job, expected", [
    (["keycount", "--key", "a", "--column", ""], ["x\t2", "y\t1"]),
    (["keycount", "--key", "", "--column", "a"], ["1\t1", "2\t1", "5\t1"]),
    (["max", "--column", ""], ["MaxElapsedTime\t5"]),
])
def test_mapreduce_on_a_blank_named_column(capsys, tmp_path, job, expected):
    # the header's first name is blank: '' names that column, it is not "no column"
    path = tmp_path / "blank_name.csv"
    path.write_text(" ,a\n1,x\n2,x\nNA,y\n5,y\n")
    code = dispatch(["mapreduce", "run", "--job", *job, "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert [line for line in captured.out.splitlines() if "\t" in line] == expected


@pytest.mark.parametrize("chunk_size", ["1", "5"])
@pytest.mark.parametrize("cells, expected", [("-0\n0\n", "-0"), ("0\n-0\n", "0")])
def test_mapreduce_max_keeps_the_first_of_equal_maxima(capsys, tmp_path, chunk_size, cells,
                                                       expected):
    # -0 and 0 are equal: the one nearer the top wins, within a chunk and across
    # chunks, and a job that reads its answer back keeps it
    path = tmp_path / "zeros.csv"
    path.write_text("v\n" + cells)
    for _ in range(2):  # a fold, then a hit
        assert dispatch(["mapreduce", "run", "--job", "max", "--column", "v", "--input",
                         str(path), "--chunk-size", chunk_size]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"MaxElapsedTime\t{expected}"


def test_numeric_keys_are_named_as_written(capsys, tmp_path):
    # delays and keycount name a numeric origin alike: 10, not 10.0
    path = tmp_path / "numeric.csv"
    path.write_text("UniqueCarrier,ServerNum,SendingDelay,ReceivingDelay,Origin\n"
                    "7,1,2,3,10\n7,2,4,5,10\n")
    assert dispatch(["delays", "--input", str(path)]) == 0
    assert list(json.loads(capsys.readouterr().out)["per_origin"]) == ["10"]
    assert dispatch(["mapreduce", "run", "--job", "keycount", "--key", "Origin",
                     "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "10\t2"


def test_mapreduce_keycount_after_a_blank_first_line(capsys, tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\na,b\n1,2\n3,4\n1,5\n")
    code = dispatch(["mapreduce", "run", "--job", "keycount", "--key", "a", "--input", str(path)])
    assert code == 0
    assert [line for line in capsys.readouterr().out.splitlines() if "\t" in line] == [
        "1\t2", "3\t1"]


@pytest.mark.parametrize("cells, expected", [
    (["2023_01", "2023_02", "2023_01"], ["2023_01\t2", "2023_02\t1"]),
    (["\u0661\u0662", "12"], ["12\t1", "\u0661\u0662\t1"]),
], ids=["underscore", "arabic-indic"])
def test_keycount_names_keys_that_float_would_misread_as_written(capsys, tmp_path, cells,
                                                                  expected):
    # float reads 2023_01 as 202301 and Arabic-Indic digits as 12: such keys are text
    path = tmp_path / "keys.csv"
    path.write_text("id\n" + "".join(f"{cell}\n" for cell in cells), encoding="utf-8")
    for _ in range(2):  # a parse, then a cache hit
        assert dispatch(["mapreduce", "run", "--job", "keycount", "--key", "id",
                         "--input", str(path)]) == 0
        assert [line for line in capsys.readouterr().out.splitlines() if "\t" in line] == expected


@pytest.mark.parametrize("extra, expected", [(999_997, "1000000"), (1_234_564, "1234567")])
def test_keycount_prints_counts_of_a_million_and_more_exactly(capsys, monkeypatch, tmp_path,
                                                             extra, expected):
    # a count is an int and prints every digit; .6g would print 1e+06 and 1.23457e+06
    from stagecost import mapreduce

    keycount = mapreduce.builtin_keycount_mapper

    def padded_keycount(*columns):
        fold = keycount(*columns)

        def mapper(chunk, counts):
            fold(chunk, counts)
            counts["a"] += extra  # once: the three rows are one chunk

        return mapper

    monkeypatch.setattr(mapreduce, "builtin_keycount_mapper", padded_keycount)
    path = tmp_path / "keys.csv"
    path.write_text("k\na\na\na\n")
    for _ in range(2):  # a fold, then a hit, which reads the count back as an int
        assert dispatch(["mapreduce", "run", "--job", "keycount", "--key", "k",
                         "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"a\t{expected}"


@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=keyed_tables())
def test_mapreduce_prints_a_line_per_progress_event_then_the_result(capsys, tmp_path, table):
    # progress lines are written once the answer is known, a run of equal
    # ones together, yet the output is still one line per event of the
    # library job at the chunk size, then one line per result pair
    from stagecost import mapreduce

    keys, values = table
    path = tmp_path / "keyed.csv"
    path.write_text("k,v\n" + "".join(f"{k},{v}\n" for k, v in zip(keys, values)))
    for job, mapper in [(["keycount", "--key", "k", "--column", "v"],
                         lambda: mapreduce.builtin_keycount_mapper("k", "v")),
                        (["max", "--column", "v"], lambda: mapreduce.builtin_max_mapper("v"))]:
        for chunk_size in range(1, len(keys) + 1):
            events = []
            result = mapreduce.map_reduce(open_datastore(path, chunk_size=chunk_size), mapper(),
                                          progress_sink=events.append)
            expected = [f"Map {e.map_pct}% Reduce {e.reduce_pct}%" for e in events] + [
                f"{key}\t{format(value, '.6g') if isinstance(value, float) else value}"
                for key, value in result.readall()]
            assert dispatch(["mapreduce", "run", "--job", *job, "--input", str(path),
                             "--chunk-size", str(chunk_size)]) == 0
            assert capsys.readouterr() == ("\n".join(expected) + "\n", "")


class _CountedWrites(io.StringIO):
    """A stdout that counts its writes; from write number ``fail_at`` on, each one raises EPIPE."""

    def __init__(self, fail_at=None):
        super().__init__()
        self.writes, self.fail_at = 0, fail_at

    def write(self, text):
        self.writes += 1
        if self.fail_at is not None and self.writes >= self.fail_at:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("job", [["keycount", "--key", "k"], ["max", "--column", "v"]])
def test_mapreduce_writes_follow_the_percentages_not_the_chunks(monkeypatch, tmp_path, job):
    # one write per distinct progress line and one for the result, on a miss
    # and on a hit: as many at 10^5 chunks of one row as at 10^4 of ten
    path = tmp_path / "keys.csv"
    path.write_text("k,v\n" + "".join(f"k{i % 7},{i}\n" for i in range(10**5)))
    keys = 7 if job[0] == "keycount" else 1
    writes = []
    for chunk_size in (1, 10):
        shutil.rmtree(tmp_path / colcache._CACHE_DIR, ignore_errors=True)
        for _ in ("a miss", "a hit"):
            out = _CountedWrites()
            monkeypatch.setattr(sys, "stdout", out)
            assert dispatch(["mapreduce", "run", "--job", *job, "--input", str(path),
                             "--chunk-size", str(chunk_size)]) == 0
            lines = out.getvalue().splitlines()
            assert len(lines) == 10**5 // chunk_size + 1 + 2 * keys
            assert out.writes == len(set(lines[:-keys])) + 1
            writes.append(out.writes)
    assert len(set(writes)) == 1 and writes[0] <= 203, writes


class _RecordedWrites(io.StringIO):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return super().write(text)


@st.composite
def _counted_tables(draw):
    """Rows (fewer than 100 too), a chunk size up to past the row count, and a
    key count, 0 when every value cell is NA."""
    rows = draw(st.one_of(st.integers(1, 99), st.integers(100, 900)))
    chunk_size = draw(st.one_of(st.integers(1, 9), st.integers(1, rows + 5)))
    keys = draw(st.integers(0, 40))
    return rows, chunk_size, keys


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_counted_tables())
@example(table=(900, 1, 3))
@example(table=(7, 12, 0))
@example(table=(250, 3, 40))
def test_a_hit_makes_the_writes_of_the_fold(monkeypatch, tmp_path, table):
    # a fold and a hit print through one writer: the same writes of the
    # same text, one by one
    rows, chunk_size, keys = table
    path = tmp_path / "keys.csv"
    path.write_text("k,v\n" + "".join(
        f"k{i % keys},{i}\n" if keys else f"k{i % 3},NA\n" for i in range(rows)))
    for job in (["keycount", "--key", "k", "--column", "v"], ["max", "--column", "v"]):
        shutil.rmtree(tmp_path / colcache._CACHE_DIR, ignore_errors=True)
        writes = []
        for _ in ("a fold", "a hit"):
            out = _RecordedWrites()
            monkeypatch.setattr(sys, "stdout", out)
            assert dispatch(["mapreduce", "run", "--job", *job, "--input", str(path),
                             "--chunk-size", str(chunk_size)]) == 0
            writes.append(out.texts)
        assert writes[0] == writes[1]
        # one write per distinct progress line, and one for the result
        assert len(writes[1]) == len(set("".join(writes[1][:-1]).splitlines())) + 1


@pytest.mark.parametrize("chunk_size", [1, 7, 4096, 5000])
def test_a_job_miss_folds_in_chunks_of_4096_rows_at_any_chunk_size(monkeypatch, tmp_path,
                                                                   chunk_size):
    # the chunk size sets the progress lines alone: the fold reads the table
    # in chunks of 4096 rows, and the lines count chunks of the chunk size
    from stagecost.datastore import Datastore

    rows = 10_000
    path = tmp_path / "keys.csv"
    path.write_text("k\n" + "".join(f"k{i % 3}\n" for i in range(rows)))
    reads, read = [], Datastore.read

    def counted_read(self):
        reads.append(self)
        return read(self)

    monkeypatch.setattr(Datastore, "read", counted_read)
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert dispatch(["mapreduce", "run", "--job", "keycount", "--key", "k", "--input", str(path),
                     "--chunk-size", str(chunk_size)]) == 0
    assert len(reads) == -(-rows // 4096)
    assert out.getvalue().count("\n") == 1 + -(-rows // chunk_size) + 2 * 3


@pytest.mark.parametrize("fail_at", [1, 2, 50, 104, 105])
def test_mapreduce_on_a_broken_pipe_prints_one_error(capsys, monkeypatch, tmp_path, fail_at):
    # 200 chunks and 3 keys: the map percentages come twice each but 100 (0
    # once with the first event), so 101 writes carry the map lines, each a
    # line and its repeats, 3 the reduce lines and one the result;
    # whichever write meets the closed pipe, the job stops there with one error,
    # whether it reads its answer back or folds the table
    path = tmp_path / "keys.csv"
    path.write_text("k\n" + "".join(f"k{i % 3}\n" for i in range(800)))
    argv = ["mapreduce", "run", "--job", "keycount", "--key", "k", "--input", str(path)]
    whole = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", whole)
    assert dispatch(argv) == 0
    assert whole.writes == 105
    for cache in ("a hit", "a miss"):
        if cache == "a miss":
            shutil.rmtree(tmp_path / colcache._CACHE_DIR)
        out = _CountedWrites(fail_at)
        monkeypatch.setattr(sys, "stdout", out)
        assert (dispatch(argv), capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")
        assert out.writes == fail_at  # a write that failed is not tried again
        assert whole.getvalue().startswith(out.getvalue())


@pytest.mark.parametrize("chunk_size", ["1", "100", "4096"])
def test_a_job_that_fails_in_its_fold_prints_only_its_error(monkeypatch, tmp_path, chunk_size):
    # the lines are written once the answer is known: a mapper that refuses
    # the third chunk of 4096 rows leaves stdout empty at any chunk size
    from stagecost import mapreduce
    from stagecost.errors import ToolkitError

    keycount = mapreduce.builtin_keycount_mapper

    def failing_keycount(*columns):
        fold, seen = keycount(*columns), []

        def mapper(chunk, counts):
            seen.append(chunk)
            if len(seen) == 3:
                raise ToolkitError("the third chunk is refused")
            fold(chunk, counts)

        return mapper

    monkeypatch.setattr(mapreduce, "builtin_keycount_mapper", failing_keycount)
    path = tmp_path / "keys.csv"
    path.write_text("k\n" + "a\n" * (2 * 4096 + 400))
    both = io.StringIO()  # stdout and stderr in one stream, as with 2>&1
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    assert dispatch(["mapreduce", "run", "--job", "keycount", "--key", "k", "--input", str(path),
                     "--chunk-size", chunk_size]) == 1
    assert both.getvalue() == "error: the third chunk is refused\n"


# -- regress ------------------------------------------------------------------------------


def test_regress_from_sums_prints_the_summary(capsys):
    assert dispatch(["regress", "--from-ss", "19", "82.5", "10", "3"]) == 0
    out = capsys.readouterr().out
    assert "Regression Statistics" in out
    assert "Multiple R" in out and "0.479899" in out
    assert "Adjusted R Square" in out and "-0.154545" in out
    assert "ANOVA" in out
    assert "0.598425" in out  # F
    assert "0.639105" in out  # Significance F at 6 significant digits
    assert "Coefficients" not in out  # sums alone say nothing about coefficients


def test_regress_from_sums_prints_a_significance_f_below_the_rounding_of_one(capsys):
    # F = 30 on (3, 1000): scipy.stats.f.sf gives 1.41959e-18, which 1 - cdf reads as 0
    assert dispatch(["regress", "--from-ss", "9", "109", "1004", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["Regression", "3", "9", "3", "30", "1.41959e-18"] in rows


def test_regress_from_sums_rejects_garbage(capsys):
    assert dispatch(["regress", "--from-ss", "a", "b", "c", "d"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n, k", [("1" + "0" * 400, "3"), ("1" + "0" * 400, "1" + "0" * 399)])
def test_regress_from_sums_rejects_counts_past_the_float_range(capsys, n, k):
    assert dispatch(["regress", "--from-ss", "5", "10", n, k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be at most 1.79769e+308 to fit a float\n"


@pytest.mark.parametrize("sums", [("inf", "inf"), ("1", "inf")])
def test_regress_from_sums_rejects_infinite_sums(capsys, sums):
    assert dispatch(["regress", "--from-ss", *sums, "10", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_regress_needs_some_input(capsys):
    assert dispatch(["regress"]) == 1
    assert "--from-ss" in capsys.readouterr().err


def test_regress_fits_a_csv(capsys, tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x,y\n1,1\n2,2\n3,4\n")
    assert dispatch(
        ["regress", "--input", str(path), "--dependent", "y", "--independents", "x"]
    ) == 0
    out = capsys.readouterr().out
    assert "Coefficients" in out
    assert "Intercept" in out and "-0.666667" in out
    assert "x" in out and "1.5" in out


@pytest.mark.parametrize(
    "rows",
    ["6,1\n8,1\n7,1\n7,1.0000000000009095\n", "5,1.0000000000009095\n1,1\n9,1\n5,1\n",
     "1,5\n2,5\n3,5\n"],
    ids=["odd-y-at-the-mean", "odd-y-at-the-mean-first", "constant-y"],
)
def test_regress_on_an_all_but_constant_response_explains_nothing(capsys, tmp_path, rows):
    # x is symmetric about its mean wherever y is level, so the exact line is
    # flat: F is 0 and Significance F is 1.  ss_res may round above ss_total.
    path = tmp_path / "flat.csv"
    path.write_text("x,y\n" + rows)
    assert dispatch(
        ["regress", "--input", str(path), "--dependent", "y", "--independents", "x"]
    ) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    anova = captured.out[captured.out.index("ANOVA"):].splitlines()
    regression = next(line for line in anova if line.startswith("Regression "))
    f_stat, sig_f = regression.split()[-2:]
    assert 0.0 <= float(f_stat) <= 1e-9
    assert sig_f == "1"


def test_regress_from_sums_at_a_million_degrees_of_freedom(capsys):
    # Significance F's continued fraction takes about 375 passes here
    assert dispatch(["regress", "--from-ss", "5", "10", "2000000", "1000000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    anova = captured.out[captured.out.index("ANOVA"):].splitlines()
    assert anova[1].split()[-2:] == ["Significance", "F"]
    regression = next(line for line in anova if line.startswith("Regression "))
    assert float(regression.split()[-1]) == pytest.approx(0.5, abs=1e-3)


def test_regress_from_sums_refuses_a_significance_it_cannot_give_accurately(capsys):
    # 10^12 residual degrees of freedom: Significance F would be off in its
    # third digit
    assert dispatch(["regress", "--from-ss", "5", "10", "1000000000002", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degrees of freedom (1000000000000.0, 1.0) are too")
    assert captured.err.count("\n") == 1


def test_regress_from_sums_reports_a_stalled_continued_fraction(capsys, monkeypatch):
    # cut Significance F's continued fraction off before it can converge
    monkeypatch.setattr(stats, "_BETA_MAX_ITER", 10)
    assert dispatch(["regress", "--from-ss", "5", "10", "2000000", "1000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: incomplete beta continued fraction did not converge\n"
    assert captured.out == ""


# -- pca, delays, plotdata ------------------------------------------------------------------


def test_pca_command_reports_components_and_schema(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    rows = ["a,b,label"]
    for i in range(12):
        rows.append(f"{i},{2 * i + (-1) ** i},r{i}")  # text column must be ignored
    path.write_text("\n".join(rows) + "\n")
    assert dispatch(["pca", "--input", str(path), "--threshold", "0.9"]) == 0
    out = capsys.readouterr().out
    header, *rest = out.splitlines()
    assert header == "Component  Eigenvalue  CumulativeVariance"
    assert any(line.startswith("Selected components: ") for line in rest)
    suggestion = json.loads(out[out.index("{"):])
    assert suggestion["dimensions"][0]["name"] == "dim1"
    members = [name for name, _ in suggestion["dimensions"][0]["members"]]
    assert members == ["a", "b"]


def test_pca_of_a_text_only_table_is_an_error(capsys, tmp_path):
    path = tmp_path / "words.csv"
    path.write_text("a,b\nx,y\nz,w\n")
    assert dispatch(["pca", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: input has no numeric columns\n"


def test_pca_of_cells_near_the_float_limit_reads_like_unit_cells(capsys, tmp_path):
    # b's cells are +-2**1023, whose squares overflow; each column is divided by
    # the power of two at or below its largest cell first, so b is exactly 1, -1, 1
    outputs = []
    for big in (repr(2.0**1023), "1"):
        path = tmp_path / f"b{big}.csv"
        path.write_text(f"a,b\n1,{big}\n2,-{big}\n3,{big}\n")
        assert dispatch(["pca", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_pca_refuses_a_column_of_equal_inexact_cells(capsys, tmp_path):
    # three 0.1 cells have a mean of 0.10000000000000002, yet no variance
    path = tmp_path / "flat.csv"
    path.write_text("x,flat\n1,0.1\n2,0.1\n4,0.1\n")
    assert dispatch(["pca", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: column 'flat' has zero variance\n"
    assert captured.out == ""


@pytest.fixture
def mixed_csv(tmp_path):
    """Numeric columns x, y and gap (gap has a missing cell) and a text column t."""
    path = tmp_path / "mixed.csv"
    path.write_text("x,y,t,gap\n1,2,a,5\n2,3,b,NA\n3,5,c,7\n4,4,d,8\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["regress", "--dependent", "y", "--independents", "x", "gap"],
        ["plotdata", "--x", "x", "--y", "y"],
        ["pca"],
    ],
    ids=["regress", "plotdata", "pca"],
)
def test_column_commands_read_the_table_in_one_pass(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "full.csv"
    path.write_text("x,y,gap,t\n1,2,5,a\n2,3,4,b\n3,5,7,c\n4,4,8,d\n5,7,6,e\n")
    opens, reads = [], []
    original_init, original_read = Datastore.__init__, Datastore.read

    def counting_init(self, *args, **kwargs):
        opens.append(self)
        original_init(self, *args, **kwargs)

    def counting_read(self):
        reads.append(self)
        return original_read(self)

    decoded = []
    monkeypatch.setattr(Datastore, "__init__", counting_init)
    monkeypatch.setattr(Datastore, "read", counting_read)
    monkeypatch.setattr(_Text, "__getitem__", lambda self, rows: decoded.append(rows))
    assert dispatch([*argv, "--input", str(path)]) == 0
    # one open and the stored columns themselves: no chunk is read, and
    # pca, which keeps the text column t, decodes no word of it
    assert (len(opens), reads, decoded) == (1, [], [])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["regress", "--dependent", "nope", "--independents", "x"],
         "no column named 'nope'"),
        (["regress", "--dependent", "y", "--independents", "t"],
         "column 't' is not numeric"),
        (["regress", "--dependent", "y", "--independents", "x", "gap"],
         "column 'gap' has missing cells"),
        (["regress", "--dependent", "y", "--independents", "gap", "t"],
         "column 'gap' has missing cells"),
        (["regress", "--dependent", "y", "--independents", "x", "nope", "gap"],
         "no column named 'nope'"),
        (["regress", "--dependent", "t", "--independents", "nope"],
         "column 't' is not numeric"),
        (["plotdata", "--x", "t", "--y", "y"], "column 't' is not numeric"),
        (["plotdata", "--x", "x", "--y", "nope"], "no column named 'nope'"),
        (["plotdata", "--x", "gap", "--y", "t"], "column 'gap' has missing cells"),
    ],
)
def test_bad_columns_name_the_first_bad_column(capsys, mixed_csv, argv, message):
    assert dispatch([*argv, "--input", mixed_csv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["regress", "--dependent", "b", "--independents", "a"],
         "the sums of squares overflow the float range"),
    ],
    ids=["regress"],
)
def test_overflowing_sums_on_finite_cells_are_errors(capsys, tmp_path, argv, message):
    # every cell is finite, but b's squares and cross products leave the float range
    path = tmp_path / "huge.csv"
    path.write_text("a,b\n1,1e308\n2,-1e308\n3,1e308\n")
    assert dispatch([*argv, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["regress", "--dependent", "y", "--independents", "x"],
     ["plotdata", "--x", "x", "--y", "y", "--fit"]],
    ids=["regress", "plotdata"],
)
def test_coefficients_past_the_float_range_print_only_the_error(capsys, tmp_path, argv):
    # y's mean is past the float range; warnings are errors, so a numpy
    # overflow warning would fail the run before the error line
    path = tmp_path / "huge.csv"
    path.write_text("x,y\n1,1.7e308\n2,1.7e308\n3,1.6e308\n4,1.65e308\n")
    assert dispatch([*argv, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the coefficients overflow the float range\n"
    assert captured.out == ""


def test_plotdata_fits_huge_finite_cells_without_squaring_them(capsys, tmp_path):
    # the least-squares line through b's cells is finite even though their
    # squares are not, and QR of the design never forms those squares
    path = tmp_path / "huge.csv"
    path.write_text("a,b\n1,1e308\n2,-1e308\n3,1e308\n")
    assert dispatch(["plotdata", "--x", "a", "--y", "b", "--fit", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, *rows = [line.split("\t") for line in captured.out.splitlines()]
    assert header == ["x", "y", "fitted"]
    # the exact line is flat at 1e308 / 3; the solve may miss it by rounding
    assert [float(row[2]) for row in rows] == pytest.approx([1e308 / 3] * 3, rel=1e-15)


def test_delays_command_defaults_to_the_bundled_sample(capsys):
    assert dispatch(["delays"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 10
    assert payload["overall"]["sending"]["mean"] == 4.8
    assert payload["overall"]["receiving"]["mean"] == 3.1


def test_delays_with_an_empty_input_path_is_an_error(capsys):
    assert dispatch(["delays", "--input", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: input file  does not exist\n"
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["FIFO", "directory"])
@pytest.mark.parametrize("argv", [["mapreduce", "run", "--job", "max", "--column", "a"],
                                  ["pca"], ["regress", "--dependent", "a", "--independents", "b"]],
                         ids=["max", "pca", "regress"])
def test_an_input_that_is_not_a_regular_file_is_named_so(capsys, tmp_path, kind, argv):
    # the parse may open an input again, so only a regular file is read; a
    # FIFO is never opened, so nothing waits on a writer
    path = tmp_path / "p.csv"
    if kind == "FIFO":
        os.mkfifo(path)
    else:
        path.mkdir()
    for _ in range(2):
        assert dispatch([*argv, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: input file {path} is not a regular file\n"
    assert not (tmp_path / colcache._CACHE_DIR).exists()


def test_plotdata_writes_tsv_to_stdout(capsys, tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("t,v\n0,1\n1,3\n2,5\n")
    assert dispatch(["plotdata", "--input", str(path), "--x", "t", "--y", "v"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x\ty"
    assert len(lines) == 4


def test_plotdata_with_fit_to_a_file(capsys, tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("t,v\n0,1\n1,3\n2,5\n")
    out = tmp_path / "series.tsv"
    code = dispatch(
        ["plotdata", "--input", str(path), "--x", "t", "--y", "v",
         "--fit", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x\ty\tfitted"
    fitted = [float(line.split("\t")[2]) for line in lines[1:]]
    assert fitted == pytest.approx([1.0, 3.0, 5.0], abs=1e-12)  # collinear input


def test_reruns_are_byte_identical(capsys, config_file, delays_csv):
    for argv in (
        ["energy", "--config", config_file, "--kernel", "k1"],
        ["delays", "--input", delays_csv],
        ["regress", "--from-ss", "15", "82.5", "10", "2"],
    ):
        dispatch(argv)
        first = capsys.readouterr().out
        dispatch(argv)
        assert capsys.readouterr().out == first


# -- import graph ----------------------------------------------------------------------------

_LOADED_MODULES = """
import json, sys
import stagecost.cli

if sys.argv[1:]:
    sys.argv = ["stagecost", *sys.argv[1:]]
    try:
        stagecost.cli.main()
    except SystemExit as exc:
        if exc.code != 0:
            raise
standard = ("csv", "dataclasses", "inspect", "numpy")
loaded = sorted(name for name in sys.modules
                if name.partition(".")[0] == "stagecost" or name in standard)
sys.stderr.write("\\n" + json.dumps(loaded))
"""


# The modules that the test reports besides stagecost's own: config and
# energy keep frozen dataclasses, which imports inspect; numpy, which only a
# command that computes on arrays loads, imports inspect; and the parser csv.
_DATACLASSES = ["dataclasses", "inspect"]
_NUMPY = ["inspect", "numpy"]
_CSV = ["csv"]
# The stagecost modules of a table command that parses its table.
_PARSE = ["colcache", "csvload", "datastore"]


@pytest.mark.parametrize(
    ("argv", "extra", "standard"),
    [
        ([], [], []),
        (["energy", "--config", "{config}", "--kernel", "k1"], ["config", "energy"],
         _DATACLASSES),
        (["compare", "--config", "{config}", "--kernel", "k1"], ["config", "energy"],
         _DATACLASSES),
        (["simulate", "--config", "{config}", "--kernel", "k1", "--tick", "1"],
         ["config", "sim"], _DATACLASSES),
        (["simulate", "--config", "{config}", "--kernel", "k1", "--tick", "1",
          "--trace", "{trace}"], ["config", "sim", "simtrace"], _DATACLASSES),
        (["mapreduce", "run", "--job", "max", "--column", "ActualElapsedTime",
          "--input", "{servers}"], [*_PARSE, "mapreduce", "progress", "tablecmds"], _CSV),
        (["mapreduce", "run", "--job", "max", "--column", "ActualElapsedTime",
          "--input", "{servers}"], ["colcache", "progress", "tablecmds"], []),
        (["regress", "--input", "{servers}", "--dependent", "ActualElapsedTime",
          "--independents", "CRSElapsedTime"], [*_PARSE, "stats", "tablecmds"], _NUMPY + _CSV),
        (["regress", "--input", "{servers}", "--dependent", "ActualElapsedTime",
          "--independents", "CRSElapsedTime"], ["colcache", "stats", "tablecmds"], []),
        (["regress", "--from-ss", "15", "82.5", "10", "2"], ["stats", "tablecmds"], []),
        (["pca", "--input", "{wide}"], [*_PARSE, "factors", "pca", "pcacmd"], _NUMPY + _CSV),
        (["pca", "--input", "{wide}"], ["colcache", "factors", "pcacmd"], []),
        (["plotdata", "--input", "{servers}", "--x", "ActualElapsedTime",
          "--y", "CRSElapsedTime"], [*_PARSE, "report", "tablecmds"], _CSV),
        (["plotdata", "--input", "{servers}", "--x", "ActualElapsedTime",
          "--y", "CRSElapsedTime", "--fit"], [*_PARSE, "report", "stats", "tablecmds"],
         _NUMPY + _CSV),
        (["plotdata", "--input", "{servers}", "--x", "ActualElapsedTime",
          "--y", "CRSElapsedTime", "--fit"], ["colcache", "datastore", "report", "tablecmds"],
         []),
        (["delays"], [*_PARSE, "fixtures", "mapreduce", "progress", "report", "tablecmds"],
         _CSV),
        (["delays", "--input", "{delays}"],
         [*_PARSE, "mapreduce", "progress", "report", "tablecmds"], _CSV),
        (["delays", "--input", "{delays}"], ["colcache", "report", "tablecmds"], []),
    ],
    ids=["import", "energy", "compare", "simulate", "simulate-trace", "mapreduce",
         "mapreduce-cached", "regress", "regress-cached", "regress-from-ss", "pca", "pca-cached",
         "plotdata", "plotdata-fit", "plotdata-fit-cached", "delays", "delays-input",
         "delays-input-cached"],
)
def test_each_command_loads_only_the_modules_it_calls(request, capsys, config_file, servers_csv,
                                                      delays_csv, tmp_path, argv, extra,
                                                      standard):
    # a fresh interpreter per command: the CLI module itself loads only errors,
    # each handler imports the stagecost modules it calls, the table commands'
    # handlers are in tablecmds, pca's in pcacmd, and the trace writer is in
    # simtrace.  Only the model commands load dataclasses, and with it inspect,
    # through config, and only a regress, a pca or a plotdata --fit that
    # computes loads numpy.  The column cache is on there, so the tables are copies:
    # an entry goes beside its input.  Each *-cached command runs after the
    # same command on its table, and reads back its columns without the parser
    # and csv, and what numpy gave without numpy: pca's factor table and
    # regress's fit without the datastore either, plotdata's line.  A job's
    # answer and a delay summary are read back without the datastore and
    # without mapreduce, the fold.
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n2,5\n3,5\n4,9\n")
    servers, delays = tmp_path / "servers.csv", tmp_path / "delays.csv"
    shutil.copyfile(servers_csv, servers)
    shutil.copyfile(delays_csv, delays)
    argv = [arg.format(config=config_file, servers=servers, delays=delays, wide=wide,
                       trace=tmp_path / "events.tsv")
            for arg in argv]
    if request.node.callspec.id.endswith("-cached"):
        assert dispatch(argv) == 0
        capsys.readouterr()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    expected = ["stagecost", "stagecost.cli", "stagecost.errors",
                *(f"stagecost.{name}" for name in extra), *standard]
    assert json.loads(done.stderr.splitlines()[-1]) == sorted(expected)


def test_the_bundled_sample_leaves_no_cache_in_the_package():
    # stagecost delays without --input reads the sample inside the package,
    # which may be installed read-only or shared: no cache entry is written there
    package = Path(cli.__file__).resolve().parent
    src = str(package.parent)
    done = subprocess.run([sys.executable, "-c", _LOADED_MODULES, "delays"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["records"] > 0
    assert not list(package.rglob(colcache._CACHE_DIR))


# -- BLAS threads -----------------------------------------------------------------------------

_BLAS_THREADS = """
import atexit, json, os, sys
from stagecost import cli


def report():
    # at exit OpenBLAS's pool, if one was started, is still alive
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    env = {name: os.environ.get(name) for name in cli._BLAS_THREAD_VARS}
    sys.stderr.write("\\n" + json.dumps({"env": env, "tasks": tasks}))


atexit.register(report)
sys.argv = ["stagecost", *sys.argv[1:]]
cli.main()
"""


def _run_pca_in_a_fresh_interpreter(tmp_path, **blas_env):
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n2,5\n3,5\n4,9\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in cli._BLAS_THREAD_VARS}
    env.update(PYTHONPATH=src, **blas_env)
    done = subprocess.run([sys.executable, "-c", _BLAS_THREADS, "pca", "--input", str(wide)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


@pytest.mark.parametrize("blas_env", [{}, {"OPENBLAS_NUM_THREADS": ""}],
                         ids=["unset", "empty"])
def test_commands_run_blas_on_one_thread(tmp_path, blas_env):
    seen = _run_pca_in_a_fresh_interpreter(tmp_path, **blas_env)
    assert seen["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                           "OMP_NUM_THREADS": None}
    if seen["tasks"] is None:
        pytest.skip("no /proc/self/task to count the process's threads")
    assert seen["tasks"] == 1


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                  "OMP_NUM_THREADS"])
def test_a_blas_thread_count_the_caller_set_is_left_alone(tmp_path, name):
    seen = _run_pca_in_a_fresh_interpreter(tmp_path, **{name: "2"})
    assert seen["env"] == {var: "2" if var == name else None
                           for var in cli._BLAS_THREAD_VARS}


def test_dispatch_leaves_the_environment_alone(capsys, monkeypatch, tmp_path):
    # dispatch runs in-process for library callers and tests: only main() pins
    for name in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n2,5\n3,5\n4,9\n")
    before = dict(os.environ)
    assert dispatch(["pca", "--input", str(wide)]) == 0
    capsys.readouterr()
    assert dict(os.environ) == before


# -- garbage collector ------------------------------------------------------------------------

_COLLECTOR = """
import atexit, gc, json, sys
from stagecost import cli

if sys.argv[1] == "off":
    gc.disable()
enabled = gc.isenabled()
started = []  # the generation of each collection that starts while main() runs
running = False


def on_collect(phase, info):
    if phase == "start" and running:
        started.append(info["generation"])


def report():
    sys.stderr.write("\\n" + json.dumps({"started": started, "frozen": gc.get_freeze_count(),
                                          "restored": gc.isenabled() == enabled}))


gc.callbacks.append(on_collect)
atexit.register(report)
sys.argv = ["stagecost", *sys.argv[2:]]
gc.collect()  # the next automatic collection is a full threshold of allocations away
running = True
try:
    cli.main()
finally:
    running = False
"""


@pytest.mark.parametrize("state", ["on", "off"])
@pytest.mark.parametrize("argv", [["pca", "--input", "{table}"],
                                  ["mapreduce", "run", "--job", "keycount", "--key", "a",
                                   "--input", "{table}"]],
                         ids=["pca", "keycount"])
def test_commands_run_without_the_collector_and_exit_frozen(tmp_path, state, argv):
    # a fresh interpreter through main(): no collection starts while the
    # command runs, every object is frozen at exit, and the collector is back
    # in the state the caller left it in
    table = tmp_path / "wide.csv"
    table.write_text("a,b\n1,2\n2,5\n3,5\n4,9\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _COLLECTOR, state,
                           *(arg.format(table=table) for arg in argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stderr.splitlines()[-1])
    assert seen["started"] == []
    assert seen["frozen"] > 0
    assert seen["restored"]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_dispatch_leaves_the_collector_alone(capsys, tmp_path, enabled):
    # dispatch runs in-process for library callers and tests: only main()
    # switches the collector off and freezes
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n2,5\n3,5\n4,9\n")
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert dispatch(["pca", "--input", str(wide)]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()
    capsys.readouterr()


def _cyclic_garbage(argv):
    """``dispatch(argv)``'s exit status and the objects a collection frees after
    it ran with the collector off, as it runs under main()."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return dispatch(argv), gc.collect()
    finally:
        if enabled:
            gc.enable()


def _write_keyed_table(path, rows, missing):
    """``rows`` rows of a text key and numeric x, y, z; with ``missing``, one z is NA."""
    rng = random.Random(rows)
    with open(path, "w") as fh:
        fh.write("key,x,y,z\n")
        for i in range(rows):
            x, z = rng.random(), rng.random()
            cell = "NA" if missing and i == rows // 2 else f"{z:.5f}"
            fh.write(f"k{rng.randrange(30)},{x:.5f},{1 + 2 * x - z + rng.gauss(0, 0.1):.5f},"
                     f"{cell}\n")
    return str(path)


@pytest.mark.parametrize(
    ("argv", "missing", "status"),
    [
        (["mapreduce", "run", "--job", "keycount", "--key", "key", "--input", "{table}",
          "--chunk-size", "4"], False, 0),
        (["mapreduce", "run", "--job", "max", "--column", "x", "--input", "{table}",
          "--chunk-size", "4"], False, 0),
        (["regress", "--input", "{table}", "--dependent", "y", "--independents", "x", "z"],
         False, 0),
        (["plotdata", "--input", "{table}", "--x", "x", "--y", "y", "--fit"], False, 0),
        (["pca", "--input", "{table}"], False, 0),
        (["pca", "--input", "{table}"], True, 1),
    ],
    ids=["keycount", "max", "regress", "plotdata-fit", "pca", "pca-missing-cell"],
)
def test_a_commands_cyclic_garbage_does_not_grow_with_its_table(capsys, tmp_path, argv,
                                                                 missing, status):
    # main() runs a command with the collector off; that is safe because what
    # it leaves for the collector is the argument parser's graph, whatever
    # the table's length
    small = _write_keyed_table(tmp_path / "small.csv", 500, missing)
    fresh = shutil.copyfile(small, tmp_path / "fresh.csv")
    large = _write_keyed_table(tmp_path / "large.csv", 20_000, missing)
    # the first run imports the command's modules; then two misses of the
    # column cache, whose entries the last two runs read back, are compared
    runs = [_cyclic_garbage([arg.format(table=path) for arg in argv])
            for path in (small, fresh, large, fresh, large)]
    capsys.readouterr()
    assert runs[1][0] == status
    assert runs[2] == runs[1]
    assert runs[4] == runs[3]


def test_a_simulations_cyclic_garbage_does_not_grow_with_its_ticks(capsys, config_file,
                                                                   tmp_path):
    # tsim is 100 s: 10^2 ticks, then 10^4, each traced to a file
    trace = str(tmp_path / "events.tsv")
    runs = [_cyclic_garbage(["simulate", "--config", config_file, "--kernel", "k1",
                             "--tick", tick, "--trace", trace])
            for tick in ("1", "1", "0.01")]
    capsys.readouterr()
    assert runs[1][0] == 0
    assert runs[2] == runs[1]

