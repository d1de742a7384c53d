"""YAML configuration loading."""

import glob
import os

import pytest
import yaml

from onebitmimo import DomainError, SystemDims
from onebitmimo.config import load_raw, load_sweep_config, point_snr_db, sweep_config_from_dict
from onebitmimo.simulate import build_point

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

GOOD = """
dims: {n_tx: 1, n_rx: 2, n_pilots: 1}
covariance: {kind: exponential, rho: 0.65}
pilots: {kind: scalar}
snr_grid_db: [-10, 0, 10, 20]
estimators: [mmse, blmmse]
trials: 1000
seed: 42
"""


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_good_config(tmp_path):
    cfg = load_sweep_config(write(tmp_path, GOOD))
    assert cfg.dims == SystemDims(n_tx=1, n_rx=2, n_pilots=1)
    assert cfg.covariance == {"kind": "exponential", "rho": 0.65}
    assert cfg.snr_grid_db == (-10.0, 0.0, 10.0, 20.0)
    assert cfg.estimators == ("mmse", "blmmse")
    assert cfg.trials == 1000
    assert cfg.seed == 42
    assert cfg.rel_tol == 1e-4


def test_point_snr_defaults_to_first_grid_entry(tmp_path):
    path = write(tmp_path, GOOD)
    raw = load_raw(path)
    cfg = sweep_config_from_dict(raw)
    assert point_snr_db(raw, cfg) == -10.0
    raw2 = load_raw(write(tmp_path, GOOD + "snr_db: 15\n", name="b.yaml"))
    assert point_snr_db(raw2, sweep_config_from_dict(raw2)) == 15.0


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(DomainError, match="unknown config keys"):
        load_raw(write(tmp_path, GOOD + "bogus: 1\n"))


def test_unknown_keys_of_mixed_types_rejected(tmp_path):
    # sorting an int key beside a str key raised TypeError, a traceback
    with pytest.raises(DomainError, match=r"unknown config keys: \[1, 'bogus'\]"):
        load_raw(write(tmp_path, GOOD + "1: x\nbogus: 2\n"))


def test_repeated_top_level_key_rejected(tmp_path):
    # plain YAML loading would keep the last value and run 1000 trials
    path = write(tmp_path, "trials: 10\n" + GOOD, name="twice.yaml")
    with pytest.raises(DomainError, match="twice.yaml(.|\n)*duplicate key 'trials'"):
        load_sweep_config(path)


def test_repeated_dims_key_rejected(tmp_path):
    text = GOOD.replace("{n_tx: 1, n_rx: 2,", "{n_tx: 1, n_rx: 2, n_rx: 3,")
    with pytest.raises(DomainError, match="duplicate key 'n_rx'"):
        load_raw(write(tmp_path, text))


def test_unknown_spec_kind_rejected_at_load():
    for key in ("covariance", "pilots"):
        raw = dict(yaml.safe_load(GOOD), **{key: {"kind": "bogus"}})
        with pytest.raises(DomainError, match="unknown .* kind 'bogus'"):
            sweep_config_from_dict(raw)


def test_unread_spec_key_rejected_at_load():
    # a misspelt parameter would otherwise fall back to its default unseen
    for key, spec in (("covariance", {"kind": "exponential", "rh0": 0.95}),
                      ("pilots", {"kind": "scalar", "rho": 0.5})):
        raw = dict(yaml.safe_load(GOOD), **{key: spec})
        with pytest.raises(DomainError, match="does not read keys"):
            sweep_config_from_dict(raw)


def test_duplicate_estimators_rejected_at_load():
    raw = dict(yaml.safe_load(GOOD), estimators=["mmse", "mmse"])
    with pytest.raises(DomainError, match="duplicate"):
        sweep_config_from_dict(raw)


def test_non_mapping_root_rejected(tmp_path):
    with pytest.raises(DomainError, match="mapping"):
        load_raw(write(tmp_path, "- 1\n- 2\n"))


def test_missing_and_extra_dim_keys_rejected():
    raw = {
        "dims": {"n_tx": 1, "n_rx": 2},
        "covariance": {"kind": "identity"},
        "pilots": {"kind": "scalar"},
        "snr_grid_db": [0],
        "estimators": ["mmse"],
        "trials": 10,
        "seed": 0,
    }
    with pytest.raises(DomainError, match="missing keys"):
        sweep_config_from_dict(raw)
    raw["dims"] = {"n_tx": 1, "n_rx": 2, "n_pilots": 1, "oops": 3}
    with pytest.raises(DomainError, match="unknown keys"):
        sweep_config_from_dict(raw)
    raw["dims"] = [1, 1, 1]
    with pytest.raises(DomainError, match="'dims' must be a mapping"):
        sweep_config_from_dict(raw)


def test_type_errors_rejected():
    raw = {
        "dims": {"n_tx": 1, "n_rx": 1, "n_pilots": 1},
        "covariance": {"kind": "identity"},
        "pilots": {"kind": "scalar"},
        "snr_grid_db": [0, "ten"],
        "estimators": ["mmse"],
        "trials": 10,
        "seed": 0,
    }
    with pytest.raises(DomainError, match="numbers"):
        sweep_config_from_dict(raw)
    raw["snr_grid_db"] = "not a list"
    with pytest.raises(DomainError, match="list"):
        sweep_config_from_dict(raw)
    for grid in ([0, True], [0, "10"]):
        with pytest.raises(DomainError, match="numbers"):
            sweep_config_from_dict(dict(raw, snr_grid_db=grid))
    raw["snr_grid_db"] = [0]
    for value in ("1e-3", True):
        with pytest.raises(DomainError, match="number"):
            sweep_config_from_dict(dict(raw, rel_tol=value))
    for key, value in (("trials", "many"), ("trials", True), ("seed", False),
                       ("trials", "10"), ("trials", 2.5), ("seed", 2.5)):
        with pytest.raises(DomainError, match="integer"):
            sweep_config_from_dict(dict(raw, **{key: value}))
    for key, value in (("n_tx", True), ("n_rx", 2.7)):
        dims = dict(raw["dims"], **{key: value})
        with pytest.raises(DomainError, match="integer"):
            sweep_config_from_dict(dict(raw, dims=dims))
    cfg = sweep_config_from_dict(raw)
    for value in (True, "10"):
        with pytest.raises(DomainError, match="number"):
            point_snr_db(dict(raw, snr_db=value), cfg)
    with pytest.raises(DomainError):
        SystemDims(n_tx=True, n_rx=1, n_pilots=1)


def test_missing_required_key_rejected():
    with pytest.raises(DomainError, match="missing required key"):
        sweep_config_from_dict({"dims": {"n_tx": 1, "n_rx": 1, "n_pilots": 1}})


def test_unbuildable_snr_rejected_at_load(tmp_path):
    for grid in ("[0, 4000]", "[0, .nan]", "[.inf]", "[-4000]"):
        with pytest.raises(DomainError, match="no finite positive linear value"):
            load_sweep_config(write(tmp_path, GOOD.replace("[-10, 0, 10, 20]", grid)))
    raw = load_raw(write(tmp_path, GOOD + "snr_db: 4000\n"))
    with pytest.raises(DomainError, match="no finite positive linear value"):
        point_snr_db(raw, sweep_config_from_dict(raw))


def test_shipped_configs_load_and_build():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
    assert paths
    for path in paths:
        raw = load_raw(path)
        cfg = sweep_config_from_dict(raw)
        point_snr_db(raw, cfg)
        for snr_db in cfg.snr_grid_db:
            build_point(cfg, snr_db)
