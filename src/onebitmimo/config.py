"""YAML configuration files for the command line tools.

One structured file describes a sweep (see README for the schema); the
single-point commands reuse the same file and read the optional snr_db key
(default: the first grid point).  Complex matrices are entered as paired
real/imag arrays.
"""

import dataclasses

import yaml

from .exceptions import DomainError
from .model import SystemDims
from .simulate import SweepConfig, snr_from_db

# The keys come from the dataclasses; snr_db is read by the single-point
# commands only.
_FIELDS = [f.name for f in dataclasses.fields(SweepConfig)]
_REQUIRED_KEYS = {f.name for f in dataclasses.fields(SweepConfig) if f.default is dataclasses.MISSING}
_ALLOWED_KEYS = {*_FIELDS, "snr_db"}
_DIM_KEYS = {f.name for f in dataclasses.fields(SystemDims)}


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


def check_mapping(raw, allowed, what):
    """raw once it is a mapping whose keys all lie in allowed; else
    DomainError naming what the file is."""
    if not isinstance(raw, dict):
        raise DomainError(f"{what} root must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - allowed
    if unknown:
        raise DomainError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    return raw


def load_raw(path):
    return check_mapping(load_yaml(path, "config"), _ALLOWED_KEYS, "config")


def sweep_config_from_dict(raw):
    """SweepConfig of a parsed config mapping.  SweepConfig and SystemDims
    judge every value; only the required keys and the keys of the dims
    mapping are checked here."""
    missing = sorted(_REQUIRED_KEYS - set(raw))
    if missing:
        raise DomainError(f"config is missing required keys {missing}")
    dims = raw["dims"]
    if not isinstance(dims, dict):
        raise DomainError(f"config key 'dims' must be a mapping, got {dims!r}")
    missing = _DIM_KEYS - set(dims)
    if missing:
        raise DomainError(f"dims is missing keys: {sorted(missing)}")
    extra = set(dims) - _DIM_KEYS
    if extra:
        raise DomainError(f"dims has unknown keys: {sorted(extra)}")
    dims = SystemDims(**dims)
    return SweepConfig(**{**{k: raw[k] for k in _FIELDS if k in raw}, "dims": dims})


def load_sweep_config(path):
    return sweep_config_from_dict(load_raw(path))


def point_snr_db(raw, config):
    """SNR used by the single-point commands: snr_db if present, else the
    first grid entry."""
    snr_db = raw.get("snr_db", config.snr_grid_db[0])
    snr_from_db(snr_db)
    return snr_db
