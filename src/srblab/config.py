"""Experiment configuration: YAML key-tree, validated against an explicit
schema (unknown keys rejected), with defaults resolved before any
computation.  Every run emits the fully-resolved configuration next to its
results.
"""
from __future__ import annotations

import copy
import json
from pathlib import Path

import yaml

from .errors import ConfigError

# key -> (type | sub-schema). A tuple of types means any of them.
SCHEMA = {
    "system": {"name": str, "params": dict},
    "alpha": (int, float),
    "seed": int,
    "output_dir": str,
    "observable": str,
    "observable2": str,
    "sampler": {"low": list, "high": list},
    "orbit": {"transient": int, "length": int, "ensemble": int},
    "spectrum": {"steps": int, "reorth_interval": int},
    "clv": {"warmup": int},
    "correlation": {"n_max": int},
    "susceptibility": {"n_max": int},
    "radius": {"method": str},
    "response": {"h": (int, float), "richardson": bool},
    "split": {"n_max": int, "angle_threshold": (int, float)},
    "tangency": {"angle_threshold": (int, float),
                 "cluster_radius": (int, float),
                 "min_projection_angle": (int, float),
                 "frame": {"base": list, "direction": list}},
    "synthetic": {"sigma": {"kind": str, "ratio": (int, float),
                            "level": int, "positions": list,
                            "weights": list},
                  "grid": int, "side": str, "domain": list},
    "report": {"systems": list},
}

DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "observable": "cos_1_0",
    "orbit": {"transient": 10_000, "length": 100_000, "ensemble": 8},
    "spectrum": {"steps": 200_000, "reorth_interval": 1},
    "clv": {"warmup": 1000},
    "correlation": {"n_max": 20},
    "susceptibility": {"n_max": 12},
    "radius": {"method": "root-test"},
    "response": {"h": 0.05, "richardson": False},
    "split": {"n_max": 10, "angle_threshold": 1e-3},
    "tangency": {"angle_threshold": 0.01, "cluster_radius": 0.02,
                 "min_projection_angle": 1e-3},
    "synthetic": {"grid": 8192, "side": "two", "domain": [0.0, 1.0]},
}


def _validate(data, schema, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown configuration key: {where}")
        spec = schema[key]
        if isinstance(spec, dict):
            if key == "params" or spec is dict:
                continue
            _validate(value, spec, where)
        else:
            types = spec if isinstance(spec, tuple) else (spec,)
            # bool subclasses int, but `seed: true` is not a seed
            if (not isinstance(value, types)
                    or isinstance(value, bool) and bool not in types):
                names = "/".join(t.__name__ for t in types)
                raise ConfigError(
                    f"{where} must be of type {names}, "
                    f"got {type(value).__name__}")


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

    def get(self, dotted, default=None):
        node = self.data
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                return default
            node = node[part]
        return node

    def require(self, dotted):
        value = self.get(dotted)
        if value is None:
            raise ConfigError(f"missing required configuration key: {dotted}")
        return value

    def resolved(self):
        return copy.deepcopy(self.data)

    def dump_resolved(self, path):
        Path(path).write_text(
            json.dumps(self.resolved(), indent=2, sort_keys=True) + "\n")
