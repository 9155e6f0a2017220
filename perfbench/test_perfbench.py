"""Tests of the benchmark itself: every check rejects a doctored copy of a
passing output, and config generation changes the seed and nothing else.

Run from the repository root:  python3 -m pytest perfbench -q
The fixture runs each workload's CLI invocations once (about 35 s).
"""
import csv
import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).parent))
import checks  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{subcommand: (output dir, config path)} from one seed-0 run each."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from srblab import cli
    base = tmp_path_factory.mktemp("perfbench")
    found = {}
    for workload in run.WORKLOADS:
        for sub, config in run.write_configs(workload, 0, base / workload):
            out = base / workload / sub
            assert cli.run(sub, config, out) == 0
            found[sub] = (out, config)
    return found


def _doctor(outputs, sub, tmp_path, edit):
    """Copy of a passing output with `edit(dir)` applied and the manifest
    re-hashed, so that only the doctored value can fail."""
    src, config = outputs[sub]
    out = tmp_path / sub
    shutil.copytree(src, out)
    edit(out)
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        entry["sha256"] = hashlib.sha256(
            (out / entry["path"]).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    return checks.check(sub, out, config)


def _edit_json(name, change):
    def edit(out):
        data = json.loads((out / name).read_text())
        change(data)
        (out / name).write_text(json.dumps(data))
    return edit


def _edit_csv(name, change):
    def edit(out):
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        change(rows)
        with open(out / name, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return edit


def test_passing_outputs_pass(outputs):
    for sub, (out, config) in outputs.items():
        assert checks.check(sub, out, config) == [], sub


def test_rejects_mean_log_det_off_by_1e6(outputs, tmp_path):
    def change(data):
        data["spectrum"]["mean_log_det"] += 1e-6
    problems = _doctor(outputs, "tangency", tmp_path,
                       _edit_json("tangency.json", change))
    assert any("mean_log_det" in p for p in problems), problems


def test_rejects_reconstruction_sigma_of_6(outputs, tmp_path):
    def change(rows):
        rows[3]["reconstruction_sigma"] = "6.0"
    problems = _doctor(outputs, "split", tmp_path,
                       _edit_csv("split.csv", change))
    assert any("reconstruction sigma" in p for p in problems), problems


def test_rejects_holder_exponent_off_by_01(outputs, tmp_path):
    def change(data):
        data["holder_exponent"] += 0.1
    problems = _doctor(outputs, "fold-synthetic", tmp_path,
                       _edit_json("synthetic.json", change))
    assert any("Holder exponent" in p for p in problems), problems


def test_rejects_profile_value_off_by_1e8(outputs, tmp_path):
    def change(rows):
        rows[-1]["value"] = repr(float(rows[-1]["value"]) * (1 + 1e-8))
    problems = _doctor(outputs, "fold-synthetic", tmp_path,
                       _edit_csv("profile.csv", change))
    assert any("closed form" in p for p in problems), problems


def test_rejects_finite_cat_shear_radius_below_1(outputs, tmp_path):
    def change(data):
        row = next(r for r in data["systems"] if r["system"] == "cat_shear")
        row["radius"], row["radius_ci"] = 0.5, [0.3, 0.8]
    problems = _doctor(outputs, "conjecture-report", tmp_path,
                       _edit_json("report.json", change))
    assert any("below 1" in p for p in problems), problems


@pytest.mark.parametrize("sub", ["split", "tangency", "fold-synthetic",
                                 "conjecture-report"])
def test_rejects_wrong_hash(outputs, tmp_path, sub):
    src, config = outputs[sub]
    out = tmp_path / sub
    shutil.copytree(src, out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"][0]["sha256"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    problems = checks.check(sub, out, config)
    assert any("sha256 mismatch" in p for p in problems), problems


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_config_generation_substitutes_the_seed_only(tmp_path, workload):
    for (sub, name), (sub2, path) in zip(
            run.WORKLOADS[workload],
            run.write_configs(workload, 987654, tmp_path)):
        shipped = yaml.safe_load((run.ROOT / "configs" / name).read_text())
        written = yaml.safe_load(path.read_text())
        assert sub2 == sub
        assert written == {**shipped, "seed": 987654}
