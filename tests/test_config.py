import ast
import json
from pathlib import Path

import pytest
import yaml

from srblab import cli
from srblab.config import DEFAULTS, SCHEMA, ExperimentConfig
from srblab.errors import ConfigError


def test_defaults_merged_for_empty_config():
    cfg = ExperimentConfig({})
    assert cfg.get("seed") == 0
    assert cfg.get("orbit.transient") == DEFAULTS["orbit"]["transient"]
    assert cfg.get("radius.method") == "root-test"


def test_partial_section_keeps_sibling_defaults():
    cfg = ExperimentConfig({"orbit": {"length": 5000}})
    assert cfg.get("orbit.length") == 5000
    assert cfg.get("orbit.transient") == DEFAULTS["orbit"]["transient"]
    assert cfg.get("orbit.ensemble") == DEFAULTS["orbit"]["ensemble"]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key: banana"):
        ExperimentConfig({"banana": 1})


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigError, match="orbit.lenght"):
        ExperimentConfig({"orbit": {"lenght": 100}})


def test_type_errors_rejected():
    with pytest.raises(ConfigError, match="alpha must be of type"):
        ExperimentConfig({"alpha": "big"})
    with pytest.raises(ConfigError, match="orbit.length must be of type"):
        ExperimentConfig({"orbit": {"length": "100"}})
    # bool subclasses int; the schema must still refuse it
    with pytest.raises(ConfigError, match="seed must be of type int"):
        ExperimentConfig({"seed": True})
    with pytest.raises(ConfigError, match="synthetic.grid must be of type"):
        ExperimentConfig({"synthetic": {"grid": True}})


def test_system_params_free_form():
    cfg = ExperimentConfig({"system": {"name": "henon",
                                       "params": {"b": 0.25}}})
    assert cfg.get("system.params")["b"] == 0.25


def test_require_raises_on_missing():
    cfg = ExperimentConfig({})
    with pytest.raises(ConfigError, match="system.name"):
        cfg.require("system.name")


def test_get_default_value():
    cfg = ExperimentConfig({})
    assert cfg.get("no.such.path", 42) == 42


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.load(tmp_path / "nope.yaml")


def test_load_malformed_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("system: [unclosed\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        ExperimentConfig.load(p)


def test_load_roundtrip_and_resolved_dump(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump({"system": {"name": "cat_shear"},
                                 "alpha": 0.25, "seed": 7}))
    cfg = ExperimentConfig.load(p)
    out = tmp_path / "resolved.json"
    cfg.dump_resolved(out)
    resolved = json.loads(out.read_text())
    assert resolved["alpha"] == 0.25
    assert resolved["seed"] == 7
    # defaults present in the resolved dump
    assert resolved["spectrum"]["reorth_interval"] == 1


def test_resolved_is_a_deep_copy():
    cfg = ExperimentConfig({})
    cfg.resolved()["orbit"]["length"] = -1
    assert cfg.get("orbit.length") == DEFAULTS["orbit"]["length"]


@pytest.mark.parametrize("section, key", [
    ("split", "backsteps"), ("split", "final_halfwidth"),
    ("tangency", "bandwidth")], ids=["backsteps", "final_halfwidth",
                                    "tangency_bandwidth"])
def test_removed_split_keys_rejected(section, key):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        ExperimentConfig({section: {key: 15}})


def _leaves(schema, path=""):
    for key, spec in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            yield from _leaves(spec, where)
        else:
            yield where


def test_every_accepted_key_is_read():
    # a key the CLI never names is validated and defaulted for nothing
    tree = ast.parse(Path(cli.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    unread = [leaf for leaf in _leaves(SCHEMA)
              if leaf.rsplit(".", 1)[-1] not in names]
    assert unread == []
