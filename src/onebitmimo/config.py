"""YAML configuration files for the command line tools.

One structured file describes a sweep (see README for the schema); the
single-point commands reuse the same file and read the optional snr_db key
(default: the first grid point).  Complex matrices are entered as paired
real/imag arrays.
"""

import yaml

from .exceptions import DomainError
from .model import SystemDims, check_number
from .simulate import SweepConfig, snr_from_db

_ALLOWED_KEYS = {
    "dims",
    "covariance",
    "pilots",
    "snr_grid_db",
    "estimators",
    "trials",
    "seed",
    "rel_tol",
    "snr_db",
}

_DIM_KEYS = {"n_tx", "n_rx", "n_pilots"}


class UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a mapping key given twice."""

    def construct_mapping(self, node, deep=False):
        # merge keys and collection keys are left to the base class
        keys = [self.construct_object(k) for k, _ in node.value
                if isinstance(k, yaml.ScalarNode) and k.tag != "tag:yaml.org,2002:merge"]
        for at, key in enumerate(keys):
            if key in keys[:at]:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", node.start_mark)
        return super().construct_mapping(node, deep=deep)


def load_yaml(path, what):
    """Parsed contents of a YAML file; DomainError naming it if it does not parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise DomainError(f"{what} {path} is not valid YAML: {exc}") from exc


def load_raw(path):
    raw = load_yaml(path, "config")
    if not isinstance(raw, dict):
        raise DomainError(f"config root must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _require(raw, key, kind, kind_name):
    if key not in raw:
        raise DomainError(f"config is missing required key '{key}'")
    value = raw[key]
    # bool subclasses int, so YAML true/false would pass as 1/0
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DomainError(f"config key '{key}' must be a {kind_name}")
    return value


def sweep_config_from_dict(raw):
    dims_raw = _require(raw, "dims", dict, "mapping")
    missing = _DIM_KEYS - set(dims_raw)
    if missing:
        raise DomainError(f"dims is missing keys: {sorted(missing)}")
    extra = set(dims_raw) - _DIM_KEYS
    if extra:
        raise DomainError(f"dims has unknown keys: {sorted(extra)}")
    dims = SystemDims(**{k: _require(dims_raw, k, int, "integer") for k in sorted(_DIM_KEYS)})
    covariance = _require(raw, "covariance", dict, "mapping")
    pilots = _require(raw, "pilots", dict, "mapping")
    grid = _require(raw, "snr_grid_db", (list, tuple), "list")
    estimators = _require(raw, "estimators", (list, tuple), "list")
    estimators = tuple(str(x) for x in estimators)
    trials = _require(raw, "trials", int, "integer")
    seed = _require(raw, "seed", int, "integer")
    # an absent rel_tol takes SweepConfig's default
    optional = {"rel_tol": raw["rel_tol"]} if "rel_tol" in raw else {}
    return SweepConfig(
        dims=dims,
        covariance=dict(covariance),
        pilots=dict(pilots),
        snr_grid_db=tuple(grid),
        estimators=estimators,
        trials=trials,
        seed=seed,
        **optional,
    )


def load_sweep_config(path):
    return sweep_config_from_dict(load_raw(path))


def point_snr_db(raw, config):
    """SNR used by the single-point commands: snr_db if present, else the
    first grid entry."""
    if "snr_db" in raw:
        snr_db = check_number(raw["snr_db"], "config key 'snr_db'")
        snr_from_db(snr_db)
        return snr_db
    return check_number(config.snr_grid_db[0], "snr_grid_db[0]")
