#!/usr/bin/env python3
"""Check that the shipped runs still write the artifacts recorded in
GOLDEN.json, byte for byte.

Each run below goes through cli.run into a temporary directory.  The
sha256 of every artifact its manifest lists, and of manifest.json itself,
is compared with GOLDEN.json; each mismatch names the run and the file.
The hashes hold for the numpy and Python versions GOLDEN.json records, so
on other versions the check fails and says so.  --update rewrites
GOLDEN.json from this checkout.

Usage: python scripts/golden.py [--update]
"""
import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from srblab import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "GOLDEN.json"

# (subcommand, shipped config, seed in place of the config's, or None)
RUNS = [
    ("split", "cat_shear_split.yaml", 0),
    ("split", "cat_shear_split.yaml", 5),
    ("split", "cat_shear_split.yaml", 7),
    ("conjecture-report", "conjecture_report.yaml", None),
    ("fold-synthetic", "fold_cantor.yaml", None),
    ("tangency", "henon_tangency.yaml", None),
    ("clv", "henon_tangency.yaml", None),
    ("lyapunov", "henon_tangency.yaml", None),
    ("correlate", "henon_tangency.yaml", None),
    ("srb", "henon_tangency.yaml", None),
    ("susceptibility", "cat_shear_split.yaml", None),
    ("radius", "cat_shear_split.yaml", None),
    ("response-check", "cat_shear_split.yaml", None),
]


def versions():
    return {"numpy": np.__version__, "python": platform.python_version()}


def run_hashes(subcommand, config, seed, tmp):
    """The run's name and the {file: sha256} of its artifacts and
    manifest, or None for them if the run fails."""
    name = f"{subcommand} {config}" + ("" if seed is None else f" seed {seed}")
    path = ROOT / "configs" / config
    if seed is not None:
        data = yaml.safe_load(path.read_text())
        data["seed"] = seed
        path = tmp / f"{name.replace(' ', '_')}.yaml"
        path.write_text(yaml.safe_dump(data))
    outdir = tmp / name.replace(" ", "_")
    if cli.run(subcommand, path, outdir) != cli.EXIT_OK:
        return name, None
    manifest = json.loads((outdir / "manifest.json").read_text())
    files = [o["path"] for o in manifest["outputs"]] + ["manifest.json"]
    return name, {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest()
                  for f in files}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--update", action="store_true",
                    help="rewrite GOLDEN.json from this checkout's runs")
    args = ap.parse_args()
    golden = None if args.update else json.loads(GOLDEN.read_text())
    if golden is not None and golden["versions"] != versions():
        sys.exit(f"GOLDEN.json holds hashes for {golden['versions']}, "
                 f"this interpreter has {versions()}: rerun with --update "
                 "at a trusted commit")
    with tempfile.TemporaryDirectory() as tmp:
        runs = dict(run_hashes(*run, Path(tmp)) for run in RUNS)
    if args.update:
        failed = [name for name, files in runs.items() if files is None]
        if failed:
            sys.exit(f"not updated, runs failed: {', '.join(failed)}")
        GOLDEN.write_text(json.dumps({"versions": versions(), "runs": runs},
                                     indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.name}: {len(runs)} runs")
        return
    errors = []
    for name, want in golden["runs"].items():
        got = runs.get(name)
        if got is None:
            errors.append(f"{name}: run failed")
            continue
        for f in sorted(set(want) | set(got)):
            if want.get(f) != got.get(f):
                errors.append(f"{name}: {f} differs")
    for name in sorted(set(runs) - set(golden["runs"])):
        errors.append(f"{name}: not in {GOLDEN.name}")
    if errors:
        sys.exit("\n".join(errors))
    print(f"{len(runs)} runs match {GOLDEN.name}")


if __name__ == "__main__":
    main()
