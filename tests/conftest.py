"""Shared builders for test configs, workloads and keyed tables.

Every test opens its tables through the column cache, as the commands do; a
test that must see a parse opens a path that no test opened before, or forces
a miss inside the test.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from stagecost import csvload, fixtures, mapreduce, pca, stats
from stagecost.config import KernelRate, SystemConfig, Workload
from stagecost.energy import e_active_ssd, e_idle_ssd, e_ssd2pfs


def pytest_configure(config):
    # hypothesis caches the constants it finds in the code, and unicode tables,
    # under .hypothesis/ in the working directory even with database=None; a
    # temporary home keeps a test run from writing into the checkout
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


# The call that makes each kind of column-cache entry's result, by the name
# its count goes under; a result is made exactly when its call returns.
MAKERS = {"parse": (csvload, "_load"), "fit": (stats, "ols_terms"),
          "line": (stats, "ols_coefficients"), "factoring": (pca, "eigen_sym"),
          "job": (mapreduce, "map_reduce")}


class Makers:
    """The calls of each maker, and those that returned."""

    def __init__(self, monkeypatch):
        self.calls, self.returns = Counter(), Counter()
        for name, (module, attr) in MAKERS.items():
            monkeypatch.setattr(module, attr, self._counting(name, getattr(module, attr)))

    def _counting(self, name, make):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            made = make(*args, **kwargs)
            self.returns[name] += 1
            return made
        return counted

    def during(self, run):
        """What ``run()`` gives, and the calls and returns of each maker that it made."""
        calls, returns = self.calls.copy(), self.returns.copy()
        got = run()
        return got, dict(self.calls - calls), dict(self.returns - returns)


@pytest.fixture
def makers(monkeypatch):
    """The parses, fits, fitted lines, factorings and map-reduce jobs made, counted."""
    return Makers(monkeypatch)


def make_config(**overrides) -> SystemConfig:
    base = dict(
        compute_nodes=4,
        staging_ssds=2,
        offline_nodes=2,
        bw_host2ssd=4000.0,
        bw_fm2c=500.0,
        bw_c2m=1000.0,
        bw_ssd=4000.0,
        bw_pfs=8000.0,
        p_ssd_busy=10.0,
        p_ssd_idle=1.0,
        p_server_busy=100.0,
        p_server_idle=5.0,
        tsim=100.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def make_workload(**overrides) -> Workload:
    base = dict(
        lambda_a=50.0,
        lambda_c=50.0,
        alpha=0.5,
        kernels=(KernelRate("k1", 250.0, 1000.0),),
    )
    base.update(overrides)
    return Workload(**base)


def random_feasible(rng, ensure_idle_budget=False):
    """A random validated config/workload pair with staging margin.

    Returns (cfg, wl, tick) where tick divides tsim.  With
    ``ensure_idle_budget`` the generation rates are scaled down until the
    analyse/drain busy time also fits inside the tier's idle budget.
    """
    n = rng.randint(1, 8)
    tick = rng.choice([0.5, 1.0, 2.0])
    cfg = make_config(
        compute_nodes=n,
        staging_ssds=rng.randint(1, 4),
        offline_nodes=rng.randint(1, 4),
        bw_host2ssd=rng.uniform(500.0, 20000.0),
        bw_fm2c=rng.uniform(100.0, 5000.0),
        bw_c2m=rng.uniform(100.0, 5000.0),
        bw_ssd=rng.uniform(100.0, 5000.0),
        bw_pfs=rng.uniform(1000.0, 20000.0),
        p_ssd_busy=rng.uniform(5.0, 20.0),
        p_ssd_idle=rng.uniform(0.0, 5.0),
        p_server_busy=rng.uniform(50.0, 200.0),
        p_server_idle=rng.uniform(1.0, 20.0),
        tsim=tick * rng.randint(20, 60),
    )
    lam_total = cfg.bw_host2ssd / n * rng.uniform(0.1, 0.9)
    lam_a = lam_total * rng.uniform(0.05, 0.95)
    wl = make_workload(
        lambda_a=lam_a,
        lambda_c=lam_total - lam_a,
        alpha=rng.uniform(0.1, 1.0),
        kernels=(KernelRate("k1", rng.uniform(50.0, 2000.0), rng.uniform(50.0, 2000.0)),),
    )
    if ensure_idle_budget:
        budget = (cfg.compute_nodes / cfg.staging_ssds) * cfg.tsim
        busy = (e_active_ssd(cfg, wl, "k1") + e_ssd2pfs(cfg, wl)) / cfg.p_ssd_busy
        if busy > 0.8 * budget:
            shrink = 0.8 * budget / busy  # both terms are linear in the rates
            wl = make_workload(
                lambda_a=wl.lambda_a * shrink,
                lambda_c=wl.lambda_c * shrink,
                alpha=wl.alpha,
                kernels=wl.kernels,
            )
        e_idle_ssd(cfg, e_active_ssd(cfg, wl, "k1"), e_ssd2pfs(cfg, wl))  # must not raise
    return cfg, wl, tick


@pytest.fixture
def servers_csv() -> str:
    return str(fixtures.path("servers.csv"))


@pytest.fixture
def delays_csv() -> str:
    return str(fixtures.path("delays.csv"))


_KEY_NUMBERS = ["0", "-0", "1", "1.0", " 2 ", "-3.5", "1e20", "NA"]
_KEY_WORDS = ["a", "b", "x y", "1"]  # with a word among them, a key column is text
_VALUE_CELLS = st.sampled_from(["0", "-0", "1.5", "-2", "7", "NA"])


@st.composite
def keyed_tables(draw):
    """A key column and a numeric value column, both with missing cells."""
    n_rows = draw(st.integers(1, 12))
    pool = _KEY_NUMBERS + (_KEY_WORDS if draw(st.booleans()) else [])
    keys = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    values = draw(st.lists(_VALUE_CELLS, min_size=n_rows, max_size=n_rows))
    return keys, values
