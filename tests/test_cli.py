"""Command-line behaviour: outputs, exit codes, and the reporting helpers."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import make_config, make_workload
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stagecost import cli, energy
from stagecost.datastore import Datastore, open_datastore
from stagecost.errors import EmptyInput, LengthMismatch, MissingData, TypeMismatch
from stagecost.cli import (
    DelayRecord,
    delay_records,
    delay_summary,
    dispatch,
    emit_plot_data,
    write_plot_tsv,
)


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


def test_delay_records_from_the_bundled_table(delays_csv):
    records = delay_records(open_datastore(delays_csv))
    assert len(records) == 10
    assert records[0] == DelayRecord(
        unique_carrier="S1", server_num=121, sending_delay=-9.0,
        receiving_delay=0.0, origin="C1",
    )
    assert records[-1].origin == "C10"


def test_delay_summary_means_are_exact(delays_csv):
    summary = delay_summary(delay_records(open_datastore(delays_csv)))
    assert summary.records == 10
    assert abs(summary.overall["sending"].mean - 4.8) <= 1e-12
    assert abs(summary.overall["receiving"].mean - 3.1) <= 1e-12
    assert summary.overall["sending"].minimum == -17.0
    assert summary.overall["sending"].maximum == 52.0
    assert summary.overall["receiving"].minimum == -2.0
    assert summary.overall["receiving"].maximum == 13.0


def test_delay_summary_per_origin(delays_csv):
    summary = delay_summary(delay_records(open_datastore(delays_csv)))
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
        delay_records(open_datastore(path))


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
        delay_records(open_datastore(path))


def test_delay_summary_of_nothing():
    with pytest.raises(EmptyInput):
        delay_summary([])


# -- plot series ----------------------------------------------------------------------


def test_plot_series_without_fit():
    series = emit_plot_data([1, 2, 3], [4.0, 5.0, 6.5])
    assert series.x == (1.0, 2.0, 3.0)
    assert series.y == (4.0, 5.0, 6.5)
    assert series.fitted is None and series.slope is None and series.intercept is None


def test_plot_series_fit_matches_the_hand_fit():
    series = emit_plot_data([1, 2, 3], [1, 2, 4], with_fit=True)
    assert series.intercept == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert series.slope == pytest.approx(1.5, rel=1e-12)
    assert series.fitted[1] == pytest.approx(series.intercept + 2 * series.slope)


def test_plot_series_fit_through_two_points_is_exact():
    series = emit_plot_data([0.0, 2.0], [1.0, 5.0], with_fit=True)
    assert series.fitted == pytest.approx((1.0, 5.0), abs=1e-12)


def test_plot_series_length_mismatch():
    with pytest.raises(LengthMismatch):
        emit_plot_data([1, 2], [1, 2, 3])


def test_plot_tsv_round_trips_full_precision():
    series = emit_plot_data([0.1, 0.2], [1 / 3, 2 / 3], with_fit=True)
    buffer = io.StringIO()
    write_plot_tsv(series, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "x\ty\tfitted"
    x, y, fitted = (float(cell) for cell in lines[1].split("\t"))
    assert (x, y, fitted) == (series.x[0], series.y[0], series.fitted[0])


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
    ],
    ids=["trace-in-missing-dir", "trace-is-a-directory", "plot-in-missing-dir"],
)
def test_unwritable_output_paths_exit_one_without_traceback(capsys, config_file, tmp_path,
                                                            argv):
    (tmp_path / "points.csv").write_text("t,v\n0,1\n1,3\n2,5\n")
    argv = [arg.format(config=config_file, tmp=tmp_path) for arg in argv]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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
    assert "--column" in capsys.readouterr().err


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


def test_regress_from_sums_rejects_garbage(capsys):
    assert dispatch(["regress", "--from-ss", "a", "b", "c", "d"]) == 1
    assert "error:" in capsys.readouterr().err


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
    resets = []
    original = Datastore.reset

    def counting_reset(self):
        resets.append(self)
        original(self)

    monkeypatch.setattr(Datastore, "reset", counting_reset)
    reads = []
    original_read = Datastore.read

    def counting_read(self):
        reads.append(self)
        return original_read(self)

    monkeypatch.setattr(Datastore, "read", counting_read)
    assert dispatch([*argv, "--input", str(path)]) == 0
    assert len(resets) == 1
    assert len(reads) == 1  # the whole table comes back as one chunk


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


def test_delays_command_defaults_to_the_bundled_sample(capsys):
    assert dispatch(["delays"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 10
    assert payload["overall"]["sending"]["mean"] == 4.8
    assert payload["overall"]["receiving"]["mean"] == 3.1


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

_RUN_COMMANDS = """
import json, sys
from stagecost import cli

loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    sys.argv = ["stagecost", *argv]
    try:
        cli.main()
    except SystemExit as exc:
        if exc.code != 0:
            raise
    loaded.append("numpy" in sys.modules)
sys.stderr.write(json.dumps(loaded))
"""


def test_only_the_array_commands_import_numpy(config_file, servers_csv, tmp_path):
    # a fresh interpreter: importing the CLI and running the model, simulator
    # and table commands leaves numpy unloaded; pca loads it
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n2,5\n3,5\n4,9\n")
    runs = [
        ["energy", "--config", config_file, "--kernel", "k1"],
        ["compare", "--config", config_file, "--kernel", "k1"],
        ["simulate", "--config", config_file, "--kernel", "k1", "--tick", "1"],
        ["mapreduce", "run", "--job", "max", "--column", "ActualElapsedTime",
         "--input", servers_csv],
        ["delays"],
        ["pca", "--input", str(wide)],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr) == [False, False, False, False, False, False, True]
