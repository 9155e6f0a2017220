"""Smoke tests: each driver script in scripts/ runs to completion on small
inputs and rejects a bad argument with a usage line and no table, and the
shipped runs, one or more per shipped config, still write the artifacts
GOLDEN.json records."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("spectra_table.py", ["--steps", "3000"]),
    ("response_scan.py", ["--length", "3000", "--alphas", "0.25"]),
    ("fold_profiles.py", ["--grid", "1024"]),
])
def test_script_runs(src_env, script, args):
    proc = _run(src_env, script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script, args", [
    ("spectra_table.py", ["--steps", "-5"]),
    ("response_scan.py", ["--ensemble", "0"]),
    ("fold_profiles.py", ["--grid", "256"]),
])
def test_script_rejects_a_bad_argument(src_env, script, args):
    proc = _run(src_env, script, args)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "ParameterError" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_shipped_runs_match_their_golden_hashes(src_env):
    proc = _run(src_env, "golden.py", [])
    assert proc.returncode == 0, proc.stderr


def test_golden_runs_cover_every_shipped_config():
    # a config shipped outside RUNS would escape the byte-identity check
    tree = ast.parse((ROOT / "scripts" / "golden.py").read_text())
    runs = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == "RUNS")
    assert ({config for _, config, _ in runs}
            == {p.name for p in (ROOT / "configs").glob("*.yaml")})


def _run(env, script, args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)
