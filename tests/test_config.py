"""Experiment configuration parsing and validation."""

import json
import math

import pytest

from fiochain.config import ConfigError, ExperimentConfig, load_config


def minimal(**extra):
    base = {"scenario": "isotropic_contraction", "hbar_values": [1e-2], "n": 4}
    base.update(extra)
    return base


def test_from_dict_round_trip():
    cfg = ExperimentConfig.from_dict(minimal())
    assert cfg.scenario == "isotropic_contraction"
    assert cfg.hbar_values == [1e-2]
    assert cfg.n == 4
    assert cfg.norm_method == "auto"
    assert cfg.threads == 1 and not cfg.profile


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(minimal(surprise=1))


def test_exactly_one_n_rule():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(minimal(n_values=[1, 2]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"scenario": "identity", "hbar_values": [1e-2]}
        )
    cfg = ExperimentConfig.from_dict(
        {"scenario": "identity", "hbar_values": [1e-2], "ehrenfest_factor": 1.0}
    )
    assert cfg.ehrenfest_factor == 1.0


def test_hbar_cannot_hide_in_params():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(minimal(params={"hbar": 1e-3}))


def test_hbar_values_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(minimal(hbar_values=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(minimal(hbar_values=[-1e-2]))


def test_norm_method_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(minimal(norm_method="magic"))
    for ok in ("auto", "dense_svd", "power_iteration"):
        ExperimentConfig.from_dict(minimal(norm_method=ok))


@pytest.mark.parametrize(
    "field, value",
    [
        ("power_tol", "abc"),
        ("power_tol", True),
        ("power_tol", math.nan),
        ("hbar_values", [math.nan]),
        ("power_max_iter", 10.5),
        ("samples_per_axis", None),
        ("seed", "x"),
        ("seed", -1),
        ("threads", "2"),
        ("threads", True),
        ("profile", "yes"),
        ("n", True),
    ],
)
def test_numeric_and_flag_fields_type_checked(field, value):
    # wrong types are a usage error, not a TypeError deep in validation or a run
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict(minimal(**{field: value}))


def test_resolve_ns_fixed_and_list():
    cfg = ExperimentConfig.from_dict(minimal(n=5))
    assert cfg.resolve_ns(1e-2) == [5]
    cfg2 = ExperimentConfig.from_dict(minimal(n=None, n_values=[1, 3, 5]))
    assert cfg2.resolve_ns(1e-3) == [1, 3, 5]


def test_resolve_ns_ehrenfest():
    cfg = ExperimentConfig.from_dict(
        minimal(n=None, ehrenfest_factor=1.0)
    )
    for hbar in (1e-2, 5e-3, 1e-3):
        ns = cfg.resolve_ns(hbar)
        assert ns == [round(1.0 * abs(math.log(hbar)))]
    cfg2 = ExperimentConfig.from_dict(minimal(n=None, ehrenfest_factor=2.0))
    assert cfg2.resolve_ns(1e-2) == [round(2.0 * abs(math.log(1e-2)))]


def test_load_config_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(minimal(seed=7, threads=2)))
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.threads == 2


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
