"""Smoke tests: each driver script in scripts/ runs to completion on small
inputs."""
import os
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
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
