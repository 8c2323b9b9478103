import dataclasses
import json
import math

import pytest
from conftest import make_config, make_workload

from stagecost.config import KernelRate, load_config, validate
from stagecost.errors import ConfigError, KernelNotFound


def test_valid_pair_passes():
    report = validate(make_config(), make_workload())
    assert report.passed
    assert report.violations == ()
    assert report.feasible  # 4 * 100 <= 4000


def test_zero_tsim_is_flagged_by_rule_name():
    report = validate(make_config(tsim=0.0), make_workload())
    assert not report.passed
    assert "tsim > 0" in report.violations


@pytest.mark.parametrize(
    "overrides, rule",
    [
        (dict(compute_nodes=0), "compute_nodes >= 1"),
        (dict(staging_ssds=0), "staging_ssds >= 1"),
        (dict(offline_nodes=-1), "offline_nodes >= 1"),
        (dict(bw_host2ssd=0.0), "bw_host2ssd > 0"),
        (dict(bw_fm2c=-5.0), "bw_fm2c > 0"),
        (dict(bw_c2m=0.0), "bw_c2m > 0"),
        (dict(bw_ssd=0.0), "bw_ssd > 0"),
        (dict(bw_pfs=0.0), "bw_pfs > 0"),
        (dict(p_ssd_idle=-1.0), "p_ssd_idle >= 0"),
        (dict(p_ssd_idle=11.0), "p_ssd_idle <= p_ssd_busy"),
        (dict(p_server_idle=-0.5), "p_server_idle >= 0"),
        (dict(p_server_idle=101.0), "p_server_idle <= p_server_busy"),
        (dict(p_ssd_busy=0.0, p_ssd_idle=0.0), "p_ssd_busy > 0"),
    ],
)
def test_each_config_invariant_reports_its_own_rule(overrides, rule):
    report = validate(make_config(**overrides), make_workload())
    assert not report.passed
    assert report.violations == (rule,)


@pytest.mark.parametrize(
    "overrides, rule",
    [
        (dict(lambda_a=-1.0), "lambda_a >= 0"),
        (dict(lambda_c=-2.0), "lambda_c >= 0"),
        (dict(lambda_a=0.0, lambda_c=0.0), "lambda_a + lambda_c > 0"),
        (dict(alpha=0.0), "alpha in (0, 1]"),
        (dict(alpha=1.5), "alpha in (0, 1]"),
        (dict(kernels=()), "kernels non-empty"),
        (dict(kernels=(KernelRate("k1", 0.0, 10.0),)), "kernels[k1].t_ssd_k > 0"),
        (dict(kernels=(KernelRate("k1", 10.0, -1.0),)), "kernels[k1].t_server_k > 0"),
    ],
)
def test_each_workload_invariant_reports_its_own_rule(overrides, rule):
    report = validate(make_config(), make_workload(**overrides))
    assert not report.passed
    assert report.violations == (rule,)


def test_validate_flags_non_finite_numbers_from_library_callers():
    report = validate(
        make_config(tsim=math.inf),
        make_workload(kernels=(KernelRate("k1", math.inf, 10.0),)),
    )
    assert not report.passed
    assert report.violations == ("tsim is finite", "kernels[k1].t_ssd_k is finite")


def test_alpha_of_exactly_one_is_valid():
    assert validate(make_config(), make_workload(alpha=1.0)).passed


def test_overloaded_staging_link_is_a_warning_not_an_error():
    report = validate(make_config(bw_host2ssd=300.0), make_workload())
    assert report.passed
    assert not report.feasible


def test_feasibility_holds_at_exact_equality():
    # 4 nodes * 100 MB/s exactly fills a 400 MB/s link
    report = validate(make_config(bw_host2ssd=400.0), make_workload())
    assert report.feasible


def test_validate_is_pure():
    cfg, wl = make_config(), make_workload()
    assert validate(cfg, wl) == validate(cfg, wl)


def test_config_objects_are_immutable():
    cfg = make_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tsim = 7.0
    wl = make_workload()
    with pytest.raises(dataclasses.FrozenInstanceError):
        wl.alpha = 0.3


def test_kernel_lookup_by_name():
    wl = make_workload(
        kernels=(KernelRate("stats", 100.0, 200.0), KernelRate("filter", 50.0, 75.0))
    )
    assert wl.kernel("filter").t_ssd_k == 50.0
    with pytest.raises(KernelNotFound):
        wl.kernel("nope")


def _config_doc():
    return {
        "compute_nodes": 4,
        "staging_ssds": 2,
        "offline_nodes": 2,
        "bw_host2ssd": 4000.0,
        "bw_fm2c": 500.0,
        "bw_c2m": 1000.0,
        "bw_ssd": 4000.0,
        "bw_pfs": 8000.0,
        "p_ssd_busy": 10.0,
        "p_ssd_idle": 1.0,
        "p_server_busy": 100.0,
        "p_server_idle": 5.0,
        "tsim": 100.0,
        "lambda_a": 50.0,
        "lambda_c": 50.0,
        "alpha": 0.5,
        "kernels": [{"name": "k1", "t_ssd_k": 250.0, "t_server_k": 1000.0}],
    }


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(_config_doc()))
    cfg, wl = load_config(path)
    assert cfg == make_config()
    assert wl == make_workload()


def test_load_config_rejects_missing_and_unknown_keys(tmp_path):
    doc = _config_doc()
    del doc["tsim"]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="tsim"):
        load_config(path)

    doc = _config_doc()
    doc["surprise"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="surprise"):
        load_config(path)


def test_load_config_rejects_bad_kernels(tmp_path):
    doc = _config_doc()
    path = tmp_path / "bad.json"
    for kernels, message in [
        ([{"name": "k1"}], r"kernels\[0\] must be an object"),
        ({"name": "k1", "t_ssd_k": 250.0, "t_server_k": 1000.0}, "'kernels' must be a list"),
        ([{"name": 1, "t_ssd_k": 250.0, "t_server_k": 1000.0}],
         r"kernels\[0\]\.name must be a string"),
    ]:
        doc["kernels"] = kernels
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_config(path)


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"tsim": 100,')
    with pytest.raises(ConfigError, match="is not valid JSON"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/config.json")


@pytest.mark.parametrize(
    "key, text",
    [
        ("t_ssd_k", '"abc"'),
        ("t_ssd_k", "true"),
        ("t_server_k", "NaN"),
        ("tsim", "Infinity"),
        ("tsim", "NaN"),
        ("bw_pfs", "1e400"),
        ("compute_nodes", "1" + "0" * 400),
        ("compute_nodes", "4.7"),
        ("kernels", '[{"name": "k1", "t_ssd_k": 250, "t_server_k": 1000},'
                    ' {"name": "k1", "t_ssd_k": 5, "t_server_k": 1000}]'),
    ],
    ids=["string", "bool", "nan-rate", "infinity", "nan", "overflow", "huge-int",
         "fractional-int", "duplicate-kernel"],
)
def test_load_config_rejects_non_numbers_and_non_finite_values(tmp_path, key, text):
    doc = _config_doc()
    target = doc["kernels"][0] if key.startswith("t_") else doc
    target[key] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_load_config_accepts_a_whole_float_for_an_integer_field(tmp_path):
    doc = _config_doc()
    doc["compute_nodes"] = 4.0
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(doc))
    cfg, _ = load_config(path)
    assert cfg.compute_nodes == 4 and isinstance(cfg.compute_nodes, int)
