"""Headline guarantees, checked end to end.

Each test covers one shipped guarantee at its stated tolerance and reports a
single ``criterion NN <label>: PASS`` (or ``FAIL``) line on the terminal, so
a full run reads as a checklist.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
from _oracles import chunk_as_plain, f_cdf_by_quadrature, read_csv_table
from conftest import make_config, make_workload, random_feasible

from stagecost import energy, sim, stats
from stagecost.datastore import open_datastore
from stagecost.mapreduce import MAX_KEY, builtin_max_mapper, map_reduce
from stagecost.pca import correlation_matrix, eigen_sym


def _emit(request, text):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(text)
    else:
        print(text)


@contextmanager
def criterion(request, number, label):
    try:
        yield
    except BaseException:
        _emit(request, f"criterion {number:02d} {label}: FAIL")
        raise
    _emit(request, f"criterion {number:02d} {label}: PASS")


def _best_call_seconds(fn, runs=5):
    fn()  # warm up
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _check_summary(args, expected):
    summary, table = stats.summary_from_ss(*args)
    mult_r, r2, adj, stderr, ms_reg, ms_res, f_stat, sig_f = expected
    assert abs(summary.multiple_r - mult_r) <= 5e-5
    assert abs(summary.r_square - r2) <= 5e-5
    assert abs(summary.adjusted_r_square - adj) <= 5e-5
    assert abs(summary.standard_error - stderr) <= 5e-5
    assert abs(table.regression.ms - ms_reg) <= 5e-5
    assert abs(table.residual.ms - ms_res) <= 5e-5
    assert abs(table.f_statistic - f_stat) <= 5e-5
    assert abs(table.significance_f - sig_f) <= 1e-4
    assert _best_call_seconds(lambda: stats.summary_from_ss(*args)) < 1e-3


def test_01_three_predictor_summary_row(request):
    with criterion(request, 1, "three-predictor summary from sums"):
        _check_summary(
            (19.0, 82.5, 10, 3),
            (0.479899, 0.230303, -0.15455, 3.253204, 6.333333, 10.58333, 0.598425, 0.639106),
        )


def test_02_two_predictor_summary_row(request):
    with criterion(request, 2, "two-predictor summary from sums"):
        _check_summary(
            (15.0, 82.5, 10, 2),
            (0.426401, 0.181818, -0.05195, 3.105295, 7.5, 9.642857, 0.777778, 0.495421),
        )


def test_03_max_job_result_and_progress(request, servers_csv):
    with criterion(request, 3, "max job value and progress trace"):
        ds = open_datastore(servers_csv, chunk_size=4)  # 8 rows -> 2 chunks
        lines = []
        result = map_reduce(
            ds,
            builtin_max_mapper("ActualElapsedTime"),
            progress_sink=lambda e: lines.append(f"Map {e.map_pct}% Reduce {e.reduce_pct}%"),
        )
        assert result.value(MAX_KEY) == 155.0
        assert lines == [
            "Map 0% Reduce 0%",
            "Map 50% Reduce 0%",
            "Map 100% Reduce 0%",
            "Map 100% Reduce 100%",
        ]


def test_04_simulated_energies_match_the_model(request):
    with criterion(request, 4, "simulated vs analytic busy energies"):
        rng = random.Random(0xC0FFEE)
        start = time.perf_counter()
        for _ in range(100):
            cfg, wl, tick = random_feasible(rng)
            report = sim.validate_against_analytic(cfg, wl, "k1", tol=1e-9)
            assert report.passed, report.failed_terms
            assert max(report.relative.values()) <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_05_energy_identities_and_scalings(request):
    with criterion(request, 5, "breakdown identity and drain scalings"):
        rng = random.Random(20260814)
        for _ in range(50):
            cfg, wl, _ = random_feasible(rng, ensure_idle_budget=True)
            b = energy.insitu_breakdown(cfg, wl, "k1")
            assert b.e_ssd_total == (
                b.e_node2ssd + b.e_active_ssd + b.e_ssd2pfs + b.e_idle_ssd - b.e_io_saving
            )
            base = energy.e_ssd2pfs(cfg, wl)
            stretched = energy.e_ssd2pfs(
                make_config(**{**_fields(cfg), "tsim": cfg.tsim * 3.0}), wl
            )
            assert math.isclose(stretched, 3.0 * base, rel_tol=1e-12, abs_tol=0.0)
            doubled = energy.e_ssd2pfs(
                make_config(
                    **{**_fields(cfg), "compute_nodes": cfg.compute_nodes * 2}
                ),
                wl,
            )
            assert math.isclose(doubled, 4.0 * base, rel_tol=1e-12, abs_tol=0.0)


def _fields(cfg):
    return {name: getattr(cfg, name) for name in cfg.__dataclass_fields__}


def test_06_f_distribution(request):
    with criterion(request, 6, "F cdf symmetry point and quadrature grid"):
        for d in range(1, 11):
            assert abs(stats.f_cdf(1.0, d, d) - 0.5) <= 1e-10
        xs = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
        for d1 in range(1, 11):
            for d2 in range(1, 11):
                for x in xs:
                    assert abs(
                        stats.f_cdf(x, d1, d2) - f_cdf_by_quadrature(x, d1, d2)
                    ) <= 1e-8


def test_07_eigensolver_fidelity(request):
    with criterion(request, 7, "spectrum trace, reconstruction, 2x2 values"):
        rng = random.Random(97)
        for p in (2, 3, 5, 8, 12, 16, 20):
            n = p + rng.randint(5, 30)
            data = [[rng.gauss(0, 1) for _ in range(p)] for _ in range(n)]
            corr = correlation_matrix(np.transpose(data))
            values, vectors = eigen_sym(corr.values)
            assert abs(float(values.sum()) - p) <= 1e-10
            rebuilt = vectors @ np.diag(values) @ vectors.T
            assert float(np.max(np.abs(rebuilt - corr.values))) <= 1e-10
        for r in (-0.95, -0.5, -0.1, 0.0, 0.3, 0.8, 0.999):
            values, _ = eigen_sym(np.array([[1.0, r], [r, 1.0]]))
            assert abs(values[0] - (1.0 + abs(r))) <= 1e-12
            assert abs(values[1] - (1.0 - abs(r))) <= 1e-12


def test_08_chunking_invariance(request, servers_csv, delays_csv):
    with criterion(request, 8, "chunked reads equal the whole-file parse"):
        rng = random.Random(1234)
        for path in (servers_csv, delays_csv):
            names, kinds, rows, missing = read_csv_table(path)
            for _ in range(50):
                ds = open_datastore(path, chunk_size=rng.randint(1, 40))
                got_rows, got_flags = [], []
                while ds.has_data():
                    _, r, f = chunk_as_plain(ds.read())
                    got_rows.extend(r)
                    got_flags.extend(f)
                assert [c.name for c in ds.schema] == names
                assert [c.kind for c in ds.schema] == kinds
                assert got_rows == rows
                assert got_flags == missing


def test_09_delay_means(request, delays_csv):
    with criterion(request, 9, "delay record means"):
        from stagecost.report import delay_summary

        summary = delay_summary(open_datastore(delays_csv))
        assert summary.records == 10
        assert abs(summary.overall["sending"].mean - 4.8) <= 1e-12
        assert abs(summary.overall["receiving"].mean - 3.1) <= 1e-12
