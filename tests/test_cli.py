import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import sample_of
from srblab import cli, maps, measure, response, tangency, tangent


def _write_cfg(tmp_path, payload, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload))
    return p


SMALL_LYAPUNOV = {
    "system": {"name": "cat_shear"},
    "alpha": 0.2,
    "seed": 3,
    "orbit": {"transient": 200, "length": 3001, "ensemble": 1},
    "spectrum": {"reorth_interval": 4},
}


def test_lyapunov_outputs_and_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_LYAPUNOV)
    out = tmp_path / "out"
    assert cli.run("lyapunov", cfg, out) == cli.EXIT_OK
    for name in ("spectrum.csv", "spectrum.json", "resolved_config.json",
                 "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "lyapunov"
    # every listed digest matches the file on disk, manifest itself excluded
    listed = {e["path"] for e in manifest["outputs"]}
    assert "manifest.json" not in listed
    for entry in manifest["outputs"]:
        digest = hashlib.sha256(
            (out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    spec = json.loads((out / "spectrum.json").read_text())
    assert spec["exponents"][0] > 0 > spec["exponents"][1]
    # 750 blocks of 4 steps: three windows, whose frames agree
    assert spec["n_windows"] == 3 and 0.0 <= spec["boundary_residual"] < 1e-12


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_LYAPUNOV)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run("lyapunov", cfg, out1) == 0
    assert cli.run("lyapunov", cfg, out2) == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_resolved_config_contains_defaults(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_LYAPUNOV)
    out = tmp_path / "out"
    cli.run("lyapunov", cfg, out)
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["radius"]["method"] == "root-test"
    assert resolved["orbit"]["length"] == 3001


def test_missing_config_exit_code(tmp_path):
    assert cli.run("lyapunov", tmp_path / "nope.yaml",
                   tmp_path / "out") == cli.EXIT_CONFIG


def test_unknown_key_exit_code_and_diagnostics(tmp_path):
    cfg = _write_cfg(tmp_path, {**SMALL_LYAPUNOV, "bogus": 1})
    out = tmp_path / "out"
    assert cli.run("lyapunov", cfg, out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "ConfigError"
    assert "bogus" in diag["message"]


def test_unknown_subcommand_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_LYAPUNOV)
    assert cli.run("frobnicate", cfg, tmp_path / "out") == cli.EXIT_CONFIG


def test_basin_escape_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "system": {"name": "henon"}, "alpha": 1.4, "seed": 0,
        "sampler": {"low": [30.0, 30.0], "high": [40.0, 40.0]},
        "orbit": {"transient": 100, "length": 100, "ensemble": 2},
    })
    out = tmp_path / "out"
    assert cli.run("srb", cfg, out) == cli.EXIT_BASIN
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "BasinEscapeError"


def test_single_orbit_escape_names_the_family_and_alpha(tmp_path):
    # the one orbit of a spectrum is an SRB sample of one member
    cfg = _write_cfg(tmp_path, {
        "system": {"name": "henon"}, "alpha": 1.4, "seed": 0,
        "sampler": {"low": [30.0, 30.0], "high": [40.0, 40.0]},
        "orbit": {"transient": 100, "length": 101, "ensemble": 1},
    })
    out = tmp_path / "out"
    assert cli.run("lyapunov", cfg, out) == cli.EXIT_BASIN
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "BasinEscapeError"
    assert "1/1 ensemble members of henon at alpha = 1.4 " in diag["message"]


def test_basin_escape_names_the_alpha_it_happened_at(tmp_path):
    # the finite difference samples alpha + h = 1.45, past the boundary
    # crisis of the Henon attractor near a = 1.427
    cfg = _write_cfg(tmp_path, {
        "system": {"name": "henon"}, "alpha": 1.4, "seed": 1,
        "observable": "coord_0",
        "orbit": {"transient": 200, "length": 3000, "ensemble": 4},
        "susceptibility": {"n_max": 8},
    })
    out = tmp_path / "out"
    assert cli.run("response-check", cfg, out) == cli.EXIT_BASIN
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "BasinEscapeError"
    assert "henon at alpha = 1.45 " in diag["message"]


def test_degeneracy_exit_code(tmp_path):
    # near-integrable kicked rotor: no hyperbolic splitting
    cfg = _write_cfg(tmp_path, {
        "system": {"name": "standard_map"}, "alpha": 0.05, "seed": 1,
        "orbit": {"transient": 200, "length": 5000, "ensemble": 2},
        "clv": {"warmup": 200},
    })
    assert cli.run("clv", cfg, tmp_path / "out") == cli.EXIT_DEGENERACY


def test_insufficient_data_exit_code(tmp_path):
    # radius estimation needs more coefficients than this
    cfg = _write_cfg(tmp_path, {
        "system": {"name": "cat_shear"}, "alpha": 0.2, "seed": 0,
        "observable": "bump",
        "orbit": {"transient": 100, "length": 500, "ensemble": 2},
        "susceptibility": {"n_max": 4},
    })
    code = cli.run("radius", cfg, tmp_path / "out")
    assert code in (cli.EXIT_CONFIG, cli.EXIT_INSUFFICIENT)
    assert code != cli.EXIT_OK


def test_short_spectrum_exits_5(tmp_path):
    # 300 steps in blocks of 4 leave 11 blocks after the 64-block warm-up
    cfg = _write_cfg(tmp_path, {**SMALL_LYAPUNOV, "orbit": {
        "transient": 200, "length": 301, "ensemble": 1}})
    out = tmp_path / "out"
    assert cli.run("lyapunov", cfg, out) == cli.EXIT_INSUFFICIENT
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "InsufficientDataError"


def test_output_dir_that_is_a_file_is_a_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "synthetic": {"sigma": {"kind": "uniform"}, "grid": 4096,
                      "side": "one", "domain": [0.0, 1.0]},
    })
    afile = tmp_path / "afile"
    afile.touch()
    assert cli.run("fold-synthetic", cfg, afile) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error [ConfigError]") and str(afile) in err[0]


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, SMALL_LYAPUNOV)
    target = tmp_path / "env_out"
    monkeypatch.setenv("SRBLAB_OUTPUT_DIR", str(target))
    assert cli.run("lyapunov", cfg, None) == 0
    assert (target / "manifest.json").exists()


def test_diagnostics_follow_config_output_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("SRBLAB_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "from_config"
    cfg = _write_cfg(tmp_path, {
        "output_dir": str(target),
        "synthetic": {"sigma": {"kind": "atoms", "positions": [0.5]}},
    })
    assert cli.run("fold-synthetic", cfg, None) == cli.EXIT_CONFIG
    assert (target / "resolved_config.json").exists()
    diag = json.loads((target / "diagnostics.json").read_text())
    assert diag["error_type"] == "ParameterError"
    assert not (tmp_path / "out").exists()


def test_fold_synthetic_pipeline(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "synthetic": {"sigma": {"kind": "uniform"}, "grid": 4096,
                      "side": "one", "domain": [0.0, 1.0]},
    })
    out = tmp_path / "out"
    assert cli.run("fold-synthetic", cfg, out) == 0
    payload = json.loads((out / "synthetic.json").read_text())
    assert payload["predicted_exponent"] == pytest.approx(0.5)
    assert abs(payload["holder_exponent"] - 0.5) < 0.05


def test_split_reports_its_sweep(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "system": {"name": "cat_shear"}, "alpha": 0.25, "seed": 3,
        "observable": "cos_1_0",
        "orbit": {"transient": 200, "length": 3000, "ensemble": 2},
        "clv": {"warmup": 300}, "susceptibility": {"n_max": 4},
    })
    out = tmp_path / "out"
    assert cli.run("split", cfg, out) == cli.EXIT_OK
    payload = json.loads((out / "split.json").read_text())
    # cores of 256 steps, the first 64 overlapping: the CLV sweep's 3000
    # steps take twelve windows, the recurrences' 2528 steps between the
    # CLV warmups ten, and the least is reported; every hand-over agrees
    assert payload["n_windows"] == 10
    assert 0.0 <= payload["boundary_residual"] < 1e-12


def test_split_reports_a_recurrence_rerun(tmp_path):
    # the g recurrences of members 2 and 3 disagree by 9.1e-12 and 8.6e-12
    # where their windows hand over at overlap 64 and are rerun at twice the
    # overlap; every CLV sweep passes at overlap 64
    cfg = _write_cfg(tmp_path, {
        "system": {"name": "henon"}, "alpha": 1.4, "seed": 2,
        "observable": "cos_1_0",
        "orbit": {"transient": 1000, "length": 3000, "ensemble": 5},
        "clv": {"warmup": 300}, "susceptibility": {"n_max": 4},
    })
    out = tmp_path / "out"
    assert cli.run("split", cfg, out) == cli.EXIT_OK
    payload = json.loads((out / "split.json").read_text())
    assert payload["n_windows"] > 1
    assert payload["boundary_residual"] > tangent._MAX_RESIDUAL


def test_console_entry_point(tmp_path, src_env):
    cfg = _write_cfg(tmp_path, SMALL_LYAPUNOV)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "srblab.cli", "lyapunov", str(cfg),
         "--output-dir", str(out)],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "spectrum.json").exists()


def test_csv_full_precision(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_LYAPUNOV)
    out = tmp_path / "out"
    cli.run("lyapunov", cfg, out)
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,exponent,stderr"
    value = float(lines[1].split(",")[1])
    spec = json.loads((out / "spectrum.json").read_text())
    assert value == spec["exponents"][0]


FOLD_UNIFORM = {
    "synthetic": {"sigma": {"kind": "uniform"}, "grid": 4096,
                  "side": "one", "domain": [0.0, 1.0]},
}


def test_manifest_lists_only_this_runs_files(tmp_path):
    cfg = _write_cfg(tmp_path, FOLD_UNIFORM)
    out = tmp_path / "out"
    assert cli.run("fold-synthetic", cfg, out) == 0
    (out / "stale.txt").touch()
    assert cli.run("fold-synthetic", cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = [e["path"] for e in manifest["outputs"]]
    assert listed == ["profile.csv", "resolved_config.json", "synthetic.json"]


# A config error is exit code 2, EXIT_CONFIG, with a ConfigError for the
# file's own structure and a ParameterError from the code that takes any
# other value.  Explicit ids keep each case's name whatever error it expects.
BAD_SIGMA = [
    ({"kind": "atoms", "positions": [0.2, 0.7]}, "ParameterError"),
    ({"kind": "atoms", "positions": [0.2, 0.7], "weights": [1.0]},
     "ParameterError"),
    ({"kind": "uniform", "ratio": 0.3}, "ParameterError"),
    ({"kind": "cantor", "weights": [1.0]}, "ParameterError"),
    ({"kind": "cantor", "ratio": 0.0}, "ParameterError"),
    ({"kind": "cantor", "ratio": 0.7}, "ParameterError"),
    ({"kind": "cantor", "level": 0}, "ParameterError"),
    ({"kind": "cantor", "level": -3}, "ParameterError"),
    # not a list of numbers: the schema's
    ({"kind": "atoms", "positions": ["a"], "weights": [1.0]}, "ConfigError"),
]


@pytest.mark.parametrize("sigma, error", BAD_SIGMA,
                         ids=[f"sigma{i}" for i in range(len(BAD_SIGMA))])
def test_bad_sigma_is_a_config_error(tmp_path, sigma, error):
    cfg = _write_cfg(tmp_path, {"synthetic": {**FOLD_UNIFORM["synthetic"],
                                              "sigma": sigma}})
    out = tmp_path / "out"
    assert cli.run("fold-synthetic", cfg, out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == error


# an atom at 2^-11, which is grid point 0 of 1024 cells on [0, 1]
ATOM_ON_GRID = {"kind": "atoms", "positions": [0.00048828125, 0.3],
                "weights": [0.5, 0.5]}


def test_atom_on_a_grid_point_is_a_parameter_error(tmp_path):
    cfg = _write_cfg(tmp_path, {"synthetic": {
        "sigma": ATOM_ON_GRID, "grid": 1024, "side": "two",
        "domain": [0.0, 1.0]}})
    out = tmp_path / "out"
    assert cli.run("fold-synthetic", cfg, out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "ParameterError"
    assert "atom at 0.00048828125" in diag["message"]
    assert "grid point 0," in diag["message"]
    assert not (out / "profile.csv").exists()


def test_one_sided_atom_on_a_grid_point_is_finite(tmp_path):
    # the kernel is 0 at tau = theta on one side; warnings are errors here
    cfg = _write_cfg(tmp_path, {"synthetic": {
        "sigma": ATOM_ON_GRID, "grid": 1024, "side": "one",
        "domain": [0.0, 1.0]}})
    out = tmp_path / "out"
    assert cli.run("fold-synthetic", cfg, out) == cli.EXIT_OK
    lines = (out / "profile.csv").read_text().splitlines()[1:]
    values = [float(line.split(",")[1]) for line in lines]
    assert values[0] == 0.0 and all(math.isfinite(v) for v in values)
    payload = json.loads((out / "synthetic.json").read_text())
    assert math.isfinite(payload["holder_exponent"])


def test_conjecture_report_carries_radius_flag(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "seed": 2,
        "orbit": {"transient": 200, "length": 3000, "ensemble": 4},
        "spectrum": {"reorth_interval": 4},
        "susceptibility": {"n_max": 8},
        "correlation": {"n_max": 8},
        "report": {"systems": [{"name": "cat_shear", "alpha": 0.25}]},
    })
    out = tmp_path / "out"
    assert cli.run("conjecture-report", cfg, out) == 0
    row = json.loads((out / "report.json").read_text())["systems"][0]
    assert "radius_flag" in row
    assert row["radius_flag"] in (None, "lower-bound-tail-below-noise",
                                  "noise-dominated", "zero-series")


def test_conjecture_report_rows_reproduce_single_runs(tmp_path):
    """Report row 0 at seed s holds the radius and truncation order of
    `radius` and the d_s of `lyapunov`, each run at seed s + 200 on the
    same settings."""
    common = {
        "observable": "bump",
        "orbit": {"transient": 200, "length": 3000, "ensemble": 4},
        "spectrum": {"reorth_interval": 4},
        "susceptibility": {"n_max": 8},
        "correlation": {"n_max": 8},
    }
    report = _write_cfg(tmp_path, {
        **common, "seed": 3,
        "report": {"systems": [{"name": "cat_shear", "alpha": 0.25}]},
    }, "report.yaml")
    assert cli.run("conjecture-report", report, tmp_path / "report") == 0
    row = json.loads((tmp_path / "report" / "report.json").read_text())
    row = row["systems"][0]

    def single(subcommand, seed, artifact):
        cfg = _write_cfg(tmp_path, {
            **common, "seed": seed, "system": {"name": "cat_shear"},
            "alpha": 0.25}, f"{subcommand}.yaml")
        assert cli.run(subcommand, cfg, tmp_path / subcommand) == 0
        return json.loads((tmp_path / subcommand / artifact).read_text())

    spectrum = single("lyapunov", 203, "spectrum.json")
    assert row["d_s"] == spectrum["d_s"]
    assert row["d_s_method"] == spectrum["d_s_method"] == "entropy-ratio"
    radius = single("radius", 203, "radius.json")
    assert row["radius"] == radius["value"]
    assert row["radius_ci"] == radius["ci"]
    assert row["radius_flag"] == radius["flag"]
    assert row["truncated_at"] is radius["truncated_at"] is None


TWO_ROW_REPORT = {
    "seed": 1, "observable": "cos_1_0",
    "orbit": {"transient": 200, "length": 3000, "ensemble": 4},
    "spectrum": {"reorth_interval": 4},
    "susceptibility": {"n_max": 8}, "correlation": {"n_max": 8},
    "report": {"systems": [{"name": "cat_shear", "alpha": 0.25},
                           {"name": "henon", "alpha": 1.4}]},
}


def test_conjecture_report_is_bitwise_on_any_number_of_workers(tmp_path,
                                                               cpus):
    cfg = _write_cfg(tmp_path, TWO_ROW_REPORT)
    artifacts = []
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"out{n}"
        assert cli.run("conjecture-report", cfg, out) == 0
        artifacts.append([(out / name).read_bytes()
                          for name in ("report.json", "manifest.json")])
    assert artifacts[1] == artifacts[0]


def test_report_row_that_escapes_in_a_worker_exits_4(tmp_path, monkeypatch,
                                                     cpus):
    # Henon at alpha 1.9 has no attractor; its row, row 1, runs in the
    # worker, and its error reaches the exit code and diagnostics.json
    draw = measure.srb_sample

    def sample(family, alpha, **kwargs):
        (tmp_path / f"{family.name}.pid").write_text(str(os.getpid()))
        return draw(family, alpha, **kwargs)
    monkeypatch.setattr(measure, "srb_sample", sample)
    cpus(2)
    payload = {**TWO_ROW_REPORT, "report": {"systems": [
        {"name": "cat_shear", "alpha": 0.25},
        {"name": "henon", "alpha": 1.9}]}}
    out = tmp_path / "out"
    assert cli.run("conjecture-report", _write_cfg(tmp_path, payload),
                   out) == cli.EXIT_BASIN
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "BasinEscapeError"
    assert "henon at alpha = 1.9 " in diag["message"]
    assert int((tmp_path / "cat_shear.pid").read_text()) == os.getpid()
    assert int((tmp_path / "henon.pid").read_text()) != os.getpid()


@pytest.mark.parametrize("entry, error, message", [
    ({"name": "cat_shear", "alpha": 0.25, "observable": "bump", "seed": 3},
     "ConfigError", "report.systems[1].observable"),
    ({"name": "henon", "alpha": "big"}, "ConfigError",
     "report.systems[1].alpha must be of type int/float, got str"),
    ({"name": "henon", "alpha": 1.4, "params": {"c": 1}}, "ParameterError",
     "henon"),
    ({"name": "no_such_map", "alpha": 1.4}, "ParameterError", "no_such_map"),
], ids=["unknown_key", "alpha", "params", "name"])
def test_report_entries_are_checked_before_any_row_samples(
        tmp_path, monkeypatch, entry, error, message):
    # the bad entry is row 1; row 0 would sample first if rows were checked
    # one by one as they run
    def sample(*args, **kwargs):
        raise AssertionError("an SRB sample was drawn")

    monkeypatch.setattr(measure, "srb_sample", sample)
    payload = {**TWO_ROW_REPORT, "report": {"systems": [
        {"name": "cat_shear", "alpha": 0.25}, entry]}}
    out = tmp_path / "out"
    assert cli.run("conjecture-report", _write_cfg(tmp_path, payload),
                   out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == error
    assert message in diag["message"]


SHORT_HENON = {"system": {"name": "henon"}, "alpha": 1.4,
               "orbit": {"transient": 200, "length": 3000, "ensemble": 1}}
SMALL_SRB = {"system": {"name": "cat_shear"}, "alpha": 0.2,
             "orbit": {"transient": 10, "length": 100, "ensemble": 2}}


BAD_ENTRIES = [
    ("conjecture-report", {"report": {"systems": [{"name": "cat_shear"}]}},
     "ConfigError"),
    ("tangency", {"system": {"name": "henon"}, "alpha": 1.4,
                  "tangency": {"frame": {"direction": [1.0, 0.0]}}},
     "ConfigError"),
    ("tangency", {**SHORT_HENON, "tangency": {"frame": {
        "base": [0.0, 0.2, 0.0], "direction": [1.0, 0.0]}}},
     "ParameterError"),
    ("tangency", {**SHORT_HENON, "tangency": {"frame": {
        "base": [0.0, 0.2], "direction": [0.0, 0.0]}}}, "ParameterError"),
    ("fold-synthetic", {"synthetic": {**FOLD_UNIFORM["synthetic"],
                                      "domain": [0.0, 0.5, 1.0]}},
     "ParameterError"),
    ("fold-synthetic", {"synthetic": {**FOLD_UNIFORM["synthetic"],
                                      "domain": [1.0, 0.0]}},
     "ParameterError"),
    ("srb", {**SMALL_SRB, "sampler": {"low": [0, 0, 0], "high": [1, 1, 1]}},
     "ParameterError"),
    ("srb", {**SMALL_SRB, "sampler": {"low": [0, 0], "high": [1, 1, 1]}},
     "ParameterError"),
    ("fold-synthetic", {"synthetic": {**FOLD_UNIFORM["synthetic"],
                                      "domain": ["a", "b"]}}, "ConfigError"),
    ("srb", {**SMALL_SRB, "sampler": {"low": ["a", 0], "high": [1, 1]}},
     "ConfigError"),
    ("srb", {**SMALL_SRB, "sampler": {"low": [0, 0],
                                      "high": [1, float("inf")]}},
     "ConfigError"),
    ("tangency", {**SHORT_HENON, "tangency": {"frame": {
        "base": ["a", 0.2], "direction": [1.0, 0.0]}}}, "ConfigError"),
    # a sampling seed below 0
    ("srb", {**SMALL_LYAPUNOV, "seed": -3}, "ParameterError"),
    ("lyapunov", {**SMALL_LYAPUNOV, "seed": -3}, "ParameterError"),
    # removed keys
    ("response-check", {**SMALL_SRB, "response": {"richardson": True}},
     "ConfigError"),
    ("split", {**SMALL_SRB, "split": {"n_max": 4}}, "ConfigError"),
    ("lyapunov", {**SMALL_LYAPUNOV, "spectrum": {"steps": 3000}},
     "ConfigError"),
    ("correlate", {**SMALL_SRB, "observable2": "coord_0"}, "ConfigError"),
    # a non-finite scalar
    ("srb", {**SMALL_SRB, "alpha": float("inf")}, "ConfigError"),
    ("response-check", {**SMALL_SRB, "response": {"h": float("nan")}},
     "ConfigError"),
]


@pytest.mark.parametrize("subcommand,payload,error", BAD_ENTRIES, ids=[
    f"{sub}-payload{i}" for i, (sub, _, _) in enumerate(BAD_ENTRIES)])
def test_incomplete_entries_are_config_errors(tmp_path, subcommand, payload,
                                              error):
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.run(subcommand, cfg, out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == error


@pytest.mark.parametrize("subcommand,payload", [
    ("lyapunov", {**SMALL_LYAPUNOV, "system": {"name": "henon",
                                               "params": {"c": 1}}}),
    ("lyapunov", {**SMALL_LYAPUNOV, "system": {"name": "henon",
                                               "params": {"b": "x"}}}),
    ("conjecture-report", {"report": {"systems": [
        {"name": "henon", "alpha": 1.4, "params": {"b": "x"}}]}}),
])
def test_bad_family_parameters_exit_2(tmp_path, subcommand, payload):
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.run(subcommand, cfg, out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "ParameterError"


SHORT_CATSHEAR = {"system": {"name": "cat_shear"}, "alpha": 0.25,
                  "orbit": {"transient": 200, "length": 3000, "ensemble": 2}}


@pytest.mark.parametrize("subcommand,payload", [
    ("radius", {**SHORT_CATSHEAR, "observable": "const",
                "radius": {"method": "foo"}}),
    ("radius", {**SHORT_CATSHEAR, "radius": {"method": "foo"}}),
    ("clv", {**SHORT_HENON, "clv": {"warmup": 0}}),
    ("clv", {**SHORT_HENON, "clv": {"warmup": -5}}),
    ("tangency", {**SHORT_HENON, "clv": {"warmup": 0}}),
    ("srb", {**SHORT_CATSHEAR, "orbit": {**SHORT_CATSHEAR["orbit"],
                                          "transient": -5}}),
    ("susceptibility", {**SHORT_CATSHEAR, "orbit": {
        **SHORT_CATSHEAR["orbit"], "transient": -5}}),
    ("correlate", {**SHORT_CATSHEAR, "correlation": {"n_max": -1}}),
    ("split", {**SHORT_CATSHEAR, "clv": {"warmup": 300},
               "susceptibility": {"n_max": 0}}),
    ("split", {**SHORT_CATSHEAR, "clv": {"warmup": 300},
               "susceptibility": {"n_max": -1}}),
])
def test_bad_run_settings_exit_2(tmp_path, subcommand, payload):
    cfg = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.run(subcommand, cfg, out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "ParameterError"


@pytest.mark.parametrize("subcommand", [
    "susceptibility", "radius", "response-check", "split",
    "conjecture-report"])
def test_series_order_is_checked_before_sampling(tmp_path, monkeypatch,
                                                 subcommand):
    def sample(*args, **kwargs):
        raise AssertionError("an SRB sample was drawn")

    monkeypatch.setattr(measure, "srb_sample", sample)
    payload = {**SHORT_CATSHEAR, "susceptibility": {"n_max": 0}}
    if subcommand == "conjecture-report":
        payload["report"] = {"systems": [{"name": "cat_shear",
                                          "alpha": 0.25}]}
    out = tmp_path / "out"
    assert cli.run(subcommand, _write_cfg(tmp_path, payload),
                   out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "ParameterError"


@pytest.mark.parametrize("subcommand,payload", [
    ("radius", {"susceptibility": {"n_max": 7}}),
    ("radius", {"radius": {"method": "foo"}}),
    ("conjecture-report", {"susceptibility": {"n_max": 7}}),
    ("conjecture-report", {"radius": {"method": "foo"}}),
    ("response-check", {"response": {"h": 0.0}}),
    ("response-check", {"response": {"h": -0.05}}),
    ("clv", {"clv": {"warmup": 0}}),
    ("tangency", {"clv": {"warmup": 0}}),
    ("clv", {"clv": {"warmup": 1500}}),
    ("tangency", {"clv": {"warmup": 1500}}),
    ("correlate", {"correlation": {"n_max": -1}}),
    ("conjecture-report", {"correlation": {"n_max": -1}}),
    ("lyapunov", {"spectrum": {"reorth_interval": 0}}),
    ("conjecture-report", {"spectrum": {"reorth_interval": 0}}),
])
def test_run_settings_are_checked_before_sampling(tmp_path, monkeypatch,
                                                  subcommand, payload):
    def sample(*args, **kwargs):
        raise AssertionError("an SRB sample was drawn")

    monkeypatch.setattr(measure, "srb_sample", sample)
    payload = {**SHORT_CATSHEAR, **payload}
    if subcommand == "conjecture-report":
        payload["report"] = {"systems": [{"name": "cat_shear",
                                          "alpha": 0.25}]}
    out = tmp_path / "out"
    assert cli.run(subcommand, _write_cfg(tmp_path, payload),
                   out) == cli.EXIT_CONFIG
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == "ParameterError"


@pytest.mark.parametrize("warmup, code, error", [
    (0, cli.EXIT_CONFIG, "ParameterError"),
    (1600, cli.EXIT_CONFIG, "ParameterError"),     # no converged CLV frame
    # 200 sample frames of the 250 needed
    (1400, cli.EXIT_INSUFFICIENT, "InsufficientDataError")])
def test_split_window_is_checked_before_sampling(tmp_path, monkeypatch,
                                                 warmup, code, error):
    def sample(*args, **kwargs):
        raise AssertionError("an SRB sample was drawn")

    monkeypatch.setattr(measure, "srb_sample", sample)
    payload = {**SHORT_CATSHEAR, "clv": {"warmup": warmup}}
    out = tmp_path / "out"
    assert cli.run("split", _write_cfg(tmp_path, payload), out) == code
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["error_type"] == error


def test_response_check_counts_an_exact_agreement_as_agreement(tmp_path):
    # the const observable has no response: 0 +- 0 on both sides
    cfg = _write_cfg(tmp_path, {**SHORT_CATSHEAR, "observable": "const",
                                "susceptibility": {"n_max": 8}})
    out = tmp_path / "out"
    assert cli.run("response-check", cfg, out) == cli.EXIT_OK
    result = json.loads((out / "response.json").read_text())
    assert result["psi_one"] == result["derivative"] == 0.0
    assert result["psi_one_err"] == result["derivative_err"] == 0.0
    assert result["discrepancy_sigma"] == 0.0
    assert result["agrees_3sigma"] is True
    assert result["truncated_at"] is None


def test_tangency_says_when_its_frame_goes_unused(tmp_path):
    cfg = _write_cfg(tmp_path, {**SHORT_HENON, "tangency": {"frame": {
        "base": [0.0, 0.2], "direction": [1.0, 0.0]}}})
    out = tmp_path / "out"
    assert cli.run("tangency", cfg, out) == cli.EXIT_OK
    payload = json.loads((out / "tangency.json").read_text())
    assert payload["n_fold_points"] < 100
    assert payload["frame_used"] is False
    assert payload["frame_reason"].startswith(
        f"{payload['n_fold_points']} fold points")
    assert "d_bar" not in payload


def test_tangency_counts_the_projected_fold_points(tmp_path):
    # 107 fold points, of which the frame's angle bound leaves 94: too few
    # for the counting function, so the frame goes unused
    cfg = _write_cfg(tmp_path, {**SHORT_HENON, "seed": 1,
                                "orbit": {"transient": 2000, "length": 45_000,
                                          "ensemble": 1},
                                "tangency": {"min_projection_angle": 0.01,
                                             "frame": {
                                                 "base": [0.0, 0.2],
                                                 "direction": [0.4006,
                                                               0.9163]}}})
    out = tmp_path / "out"
    assert cli.run("tangency", cfg, out) == cli.EXIT_OK
    payload = json.loads((out / "tangency.json").read_text())
    assert payload["n_fold_points"] == 107
    assert payload["frame_used"] is False
    assert payload["frame_reason"].startswith("107 fold points, 94 projected")
    assert "d_bar" not in payload
    assert (out / "manifest.json").exists()


def test_tangency_counts_only_the_projected_fold_points(tmp_path):
    # 145 fold points, of which the frame's angle bound leaves out fewer
    # than a fifth: the counting function takes the projected ones alone,
    # each of mass 1/n for the n it counts
    frame = {"base": [0.0, 0.2], "direction": [0.4006, 0.9163]}
    cfg = _write_cfg(tmp_path, {**SHORT_HENON, "seed": 1,
                                "orbit": {"transient": 2000, "length": 60_000,
                                          "ensemble": 1},
                                "tangency": {"min_projection_angle": 0.01,
                                             "frame": frame}})
    out = tmp_path / "out"
    assert cli.run("tangency", cfg, out) == cli.EXIT_OK
    payload = json.loads((out / "tangency.json").read_text())
    family = maps.get_family("henon")
    sp = tangent.compute_clvs(
        measure.srb_sample(family, 1.4, 2000, 60_000, 1, seed=1), 1000)
    folded = tangent.splitting_angles(sp) < 0.01
    theta = tangency.project_along_stable(
        sp.points[folded], sp.clvs[:, 1][:, folded],
        tangency.TransversalFrame(tuple(frame["base"]),
                                  tuple(frame["direction"])),
        min_angle=0.01, chart=family.chart)
    assert 100 <= theta.size < payload["n_fold_points"] == 145
    counting = tangency.counting_function(theta)
    assert payload["d_bar"] == counting.exponent
    assert payload["holder_constant"] == counting.holder_constant


def test_tangency_pools_its_members_fold_points(tmp_path):
    cfg = _write_cfg(tmp_path, {**SHORT_HENON, "seed": 4, "orbit": {
        "transient": 2000, "length": 20_000, "ensemble": 2}})
    out = tmp_path / "out"
    assert cli.run("tangency", cfg, out) == cli.EXIT_OK
    payload = json.loads((out / "tangency.json").read_text())
    family = maps.get_family("henon")
    emp = measure.srb_sample(family, 1.4, 2000, 20_000, 2, seed=4)
    own = [int(np.sum(tangent.splitting_angles(tangent.compute_clvs(
        sample_of(family, 1.4, orbit[None]), warmup=1000)) < 0.01))
        for orbit in emp.orbits]
    assert min(own) > 0
    assert payload["n_fold_points"] == sum(own)


# one small run of every subcommand that succeeds, with the artifacts it
# writes besides resolved_config.json
SUCCESS_RUNS = {
    "lyapunov": (SMALL_LYAPUNOV, ["spectrum.csv", "spectrum.json"]),
    "clv": ({**SHORT_CATSHEAR, "clv": {"warmup": 300}},
            ["angles.csv", "clv.json"]),
    "srb": (SHORT_CATSHEAR, ["points.csv", "srb.json"]),
    "correlate": (SHORT_CATSHEAR, ["correlation.csv", "correlation.json"]),
    "susceptibility": (SHORT_CATSHEAR,
                       ["susceptibility.csv", "susceptibility.json"]),
    "radius": (SHORT_CATSHEAR, ["radius.json", "susceptibility.csv"]),
    "response-check": ({**SHORT_CATSHEAR, "seed": 3, "observable": "bump",
                        "orbit": {"transient": 200, "length": 3000,
                                  "ensemble": 4},
                        "susceptibility": {"n_max": 8}}, ["response.json"]),
    "split": ({**SHORT_CATSHEAR, "seed": 3, "clv": {"warmup": 300},
               "susceptibility": {"n_max": 4}}, ["split.csv", "split.json"]),
    "tangency": ({**SHORT_HENON, "seed": 1,
                  "orbit": {"transient": 2000, "length": 60_000,
                            "ensemble": 1},
                  "tangency": {"frame": {"base": [0.0, 0.2],
                                         "direction": [1.0, 0.0]}}},
                 ["folds.csv", "tangency.json"]),
    "fold-synthetic": (FOLD_UNIFORM, ["profile.csv", "synthetic.json"]),
    "conjecture-report": ({
        "orbit": {"transient": 200, "length": 3000, "ensemble": 4},
        "spectrum": {"reorth_interval": 4},
        "susceptibility": {"n_max": 8}, "correlation": {"n_max": 8},
        "report": {"systems": [{"name": "cat_shear", "alpha": 0.25}]},
    }, ["report.json"]),
}


@pytest.mark.parametrize("subcommand", sorted(cli.COMMANDS))
def test_every_subcommand_runs_to_its_artifacts(tmp_path, subcommand):
    assert set(SUCCESS_RUNS) == set(cli.COMMANDS)
    payload, artifacts = SUCCESS_RUNS[subcommand]
    out = tmp_path / "out"
    assert cli.run(subcommand, _write_cfg(tmp_path, payload), out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = [e["path"] for e in manifest["outputs"]]
    assert listed == sorted(artifacts + ["resolved_config.json"])
    if subcommand == "tangency":
        # enough fold points for the frame's counting function
        result = json.loads((out / "tangency.json").read_text())
        assert 0.0 <= result["d_bar"] <= 1.0
        assert "frame_used" not in result
