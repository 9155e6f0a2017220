"""Experiment configuration: YAML key-tree, validated against an explicit
schema (unknown keys rejected), with defaults resolved before any
computation.  Every run emits the fully-resolved configuration next to its
results.
"""
from __future__ import annotations

import copy

import yaml

from .errors import ConfigError
from .maps import _finite

NUMBERS = "a list of finite numbers"

# key -> (type | sub-schema | NUMBERS | [entry spec]). A tuple of types means
# any of them, and a float scalar must be finite.
SCHEMA = {
    "system": {"name": str, "params": dict},
    "alpha": (int, float),
    "seed": int,
    "output_dir": str,
    "observable": str,
    "sampler": {"low": NUMBERS, "high": NUMBERS},
    "orbit": {"transient": int, "length": int, "ensemble": int},
    "spectrum": {"reorth_interval": int},
    "clv": {"warmup": int},
    "correlation": {"n_max": int},
    "susceptibility": {"n_max": int},
    "radius": {"method": str},
    "response": {"h": (int, float)},
    "split": {"angle_threshold": (int, float)},
    "tangency": {"angle_threshold": (int, float),
                 "cluster_radius": (int, float),
                 "min_projection_angle": (int, float),
                 "frame": {"base": NUMBERS, "direction": NUMBERS}},
    "synthetic": {"sigma": {"kind": str, "ratio": (int, float),
                            "level": int, "positions": NUMBERS,
                            "weights": NUMBERS},
                  "grid": int, "side": str, "domain": NUMBERS},
    "report": {"systems": [{"name": str, "alpha": (int, float),
                            "params": dict}]},
}

DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "observable": "cos_1_0",
    "orbit": {"transient": 10_000, "length": 100_000, "ensemble": 8},
    "spectrum": {"reorth_interval": 1},
    "clv": {"warmup": 1000},
    "correlation": {"n_max": 20},
    "susceptibility": {"n_max": 12},
    "radius": {"method": "root-test"},
    "response": {"h": 0.05},
    "split": {"angle_threshold": 1e-3},
    "tangency": {"angle_threshold": 0.01, "cluster_radius": 0.02,
                 "min_projection_angle": 1e-3},
    "synthetic": {"grid": 8192, "side": "two", "domain": [0.0, 1.0]},
}


def _validate(value, spec, where=""):
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"expected a mapping at {where or 'top level'}")
        for key, item in value.items():
            inner = f"{where}.{key}" if where else key
            if key not in spec:
                raise ConfigError(f"unknown configuration key: {inner}")
            _validate(item, spec[key], inner)
    elif spec is NUMBERS:
        if not (isinstance(value, list) and _finite(value)):
            raise ConfigError(f"{where} must be {NUMBERS}")
    elif isinstance(spec, list):
        _validate(value, list, where)
        for i, entry in enumerate(value):
            _validate(entry, spec[0], f"{where}[{i}]")
    else:
        types = spec if isinstance(spec, tuple) else (spec,)
        # bool subclasses int, but `seed: true` is not a seed
        if (not isinstance(value, types)
                or isinstance(value, bool) and bool not in types):
            names = "/".join(t.__name__ for t in types)
            raise ConfigError(
                f"{where} must be of type {names}, "
                f"got {type(value).__name__}")
        if float in types and not _finite(value):
            raise ConfigError(f"{where} must be a finite number")


def _merge(defaults, data):
    out = copy.deepcopy(defaults)
    for key, value in data.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class ExperimentConfig:
    """Validated key-tree with dotted-path access."""

    def __init__(self, data):
        if data is None:
            data = {}
        _validate(data, SCHEMA)
        self.data = _merge(DEFAULTS, data)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        return cls(raw)

    def get(self, dotted):
        node = self.data
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        return node

    def require(self, dotted):
        value = self.get(dotted)
        if value is None:
            raise ConfigError(f"missing required configuration key: {dotted}")
        return value

    def resolved(self):
        return copy.deepcopy(self.data)
