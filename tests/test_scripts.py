"""Smoke tests: each driver script in scripts/ runs to completion on small
inputs."""
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


def test_fold_profiles_rejects_a_coarse_grid(src_env):
    proc = _run(src_env, "fold_profiles.py", ["--grid", "256"])
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


def _run(env, script, args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)
