"""srblab benchmark: three CLI workloads, end-to-end timings and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload split_catshear --seed 0 \
        --seconds 30 --trace 0

--workload is one of WORKLOADS, or "all" to run the three in turn.  The
seed is written into each workload's config, copied from configs/, and is
the only change made to it.  Each round starts a fresh process
(perfbench/child.py) that imports srblab from src/, loads the configs and
drives the workload's invocations through srblab.cli.run, each into a
fresh output directory whose artifacts are then checked (checks.py).
Rounds repeat until --seconds have passed, and always run whole.

--trace 0 reports the end-to-end metrics: wall_s (mean over rounds of the
invocations' wall time), setup_s (median over rounds and set-up probes of
interpreter start, imports and config load, up to the first invocation)
and peak_rss_mb (largest peak RSS of a round's process).

--trace 1 times one untraced round, then runs one round under the span
tracer (tracer.py) and one under tracemalloc, and reports per-layer
metrics.  Spans go to .perfbench_runs/traces/, outside the CLI output
directories, so artifacts stay byte-identical.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation is one CLI invocation; it
fails on a nonzero exit or a failed check.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from checks import check

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / ".perfbench_runs"

WORKLOADS = {
    "split_catshear": (("split", "cat_shear_split.yaml"),),
    "folds_henon_cantor": (("tangency", "henon_tangency.yaml"),
                           ("fold-synthetic", "fold_cantor.yaml")),
    "report_cat_henon": (("conjecture-report", "conjecture_report.yaml"),),
}
SETUP_PROBES = 7
# a run must end within 180 s; rounds that would overrun are killed
DEADLINE_S = 170.0

# per-layer metric -> (span name, field, unit); 0 where a layer is not called
LAYER_METRICS = {
    "maps.iterate.self_s": ("maps.iterate", "self_s", "s"),
    "maps.step.self_s": ("maps.step", "self_s", "s"),
    "maps.step.calls": ("maps.step", "calls", "count"),
    "maps.step.points": ("maps.step", "points", "count"),
    "maps.jacobian.self_s": ("maps.jacobian", "self_s", "s"),
    "maps.jacobian.points": ("maps.jacobian", "points", "count"),
    "maps.param_derivative.self_s": ("maps.param_derivative", "self_s", "s"),
    "tangent.compute_clvs.self_s": ("tangent.compute_clvs", "self_s", "s"),
    "tangent.compute_clvs.peak_alloc_mb":
        ("tangent.compute_clvs", "peak_alloc_mb", "MB"),
    "tangent.clv_sweep.self_s": ("tangent._clv_sweep", "self_s", "s"),
    "tangent.clv_sweep.peak_alloc_mb":
        ("tangent._clv_sweep", "peak_alloc_mb", "MB"),
    "tangent.benettin_spectrum.self_s":
        ("tangent.benettin_spectrum", "self_s", "s"),
    "tangent.qr.self_s": ("numpy.linalg.qr", "self_s", "s"),
    "tangent.qr.calls": ("numpy.linalg.qr", "calls", "count"),
    "tangent.qr.matrices": ("numpy.linalg.qr", "points", "count"),
    "measure.srb_sample.self_s": ("measure.srb_sample", "self_s", "s"),
    "measure.srb_sample.peak_alloc_mb":
        ("measure.srb_sample", "peak_alloc_mb", "MB"),
    "measure.correlation.self_s": ("measure.correlation", "self_s", "s"),
    "stats.masked_batch_means.self_s":
        ("stats.masked_batch_means", "self_s", "s"),
    "stats.masked_batch_means.calls":
        ("stats.masked_batch_means", "calls", "count"),
    "stats.batch_means.self_s": ("stats.batch_means", "self_s", "s"),
    "stats.batch_means_series.self_s":
        ("stats.batch_means_series", "self_s", "s"),
    "stats.linear_fit.calls": ("stats.linear_fit", "calls", "count"),
    "response.stable_unstable_split.self_s":
        ("response.stable_unstable_split", "self_s", "s"),
    "response.stable_unstable_split.peak_alloc_mb":
        ("response.stable_unstable_split", "peak_alloc_mb", "MB"),
    "response.susceptibility_coefficients.self_s":
        ("response.susceptibility_coefficients", "self_s", "s"),
    "response.susceptibility_coefficients.peak_alloc_mb":
        ("response.susceptibility_coefficients", "peak_alloc_mb", "MB"),
    "response.radius_estimate.self_s":
        ("response.radius_estimate", "self_s", "s"),
    "tangency.synthetic_fold_convolution.self_s":
        ("tangency.synthetic_fold_convolution", "self_s", "s"),
    "tangency.fold_counting.self_s":
        ("tangency.counting_function", "self_s", "s"),
    "cli.self_s": ("cli.run", "self_s", "s"),
}


def write_configs(workload, seed, dest):
    """Copy each shipped config of the workload with `seed` substituted;
    returns [(subcommand, config path)]."""
    dest.mkdir(parents=True, exist_ok=True)
    ops = []
    for sub, name in WORKLOADS[workload]:
        data = yaml.safe_load((ROOT / "configs" / name).read_text())
        data["seed"] = seed
        path = dest / name
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        ops.append((sub, path))
    return ops


class Run:
    """Rounds of one workload, with the bookkeeping the metrics need."""

    def __init__(self, workload, seed, rundir, started):
        self.rundir = rundir
        self.started = started
        self.ops = write_configs(workload, seed, rundir / "configs")
        self.attempted = 0
        self.failed = 0
        self.wrong = 0        # invocations that exited 0 but failed a check
        self.problems = []

    def spawn(self, mode, outdirs=None, trace=None):
        """Start one child; returns (report, None) or (None, error)."""
        spec = {"src": str(ROOT / "src"), "mode": mode, "trace": str(trace),
                "ops": [[sub, str(cfg), str(out)] for (sub, cfg), out
                        in zip(self.ops, outdirs or [""] * len(self.ops))]}
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        env = dict(os.environ, TMPDIR=str(self.rundir))
        spec["t0"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("child.py")),
                 json.dumps(spec)],
                capture_output=True, text=True, timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            return None, "timed out"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:]
            return None, f"exit {proc.returncode}: {''.join(tail)}"
        return json.loads(proc.stdout.strip().splitlines()[-1]), None

    def round(self, mode="run", trace=None):
        """Run and check one round; returns the child's report or None."""
        k = self.attempted // len(self.ops)
        outdirs = [self.rundir / f"round{k}" / f"{i}-{sub}"
                   for i, (sub, _) in enumerate(self.ops)]
        result, error = self.spawn(mode, outdirs, trace)
        self.attempted += len(self.ops)
        if result is None:
            self.failed += len(self.ops)
            self.problems.append(f"round {k} ({mode}): {error}")
            return None
        for (sub, cfg), out, code in zip(self.ops, outdirs, result["codes"]):
            found = [f"exit code {code}"] if code else check(sub, out, cfg)
            if found:
                self.failed += 1
                self.wrong += code == 0
                self.problems += [f"round {k} {sub}: {p}" for p in found]
        result["output_bytes"] = sum(p.stat().st_size for out in outdirs
                                     if out.is_dir() for p in out.iterdir())
        shutil.rmtree(self.rundir / f"round{k}", ignore_errors=True)
        return result


def measure_workload(workload, seed, seconds, trace):
    started = time.monotonic()
    rundir = RUNS / f"{workload}-{seed}-{os.getpid()}"
    run = Run(workload, seed, rundir, started)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, error = run.spawn("setup")
            if probe is None:
                raise SystemExit(f"set-up probe failed: {error}")
            setups.append(probe["setup_s"])
        timed = []
        start = last = time.monotonic()
        # a traced run times one untraced round, as the overhead reference;
        # no round starts that the previous one says would pass the deadline
        while not run.attempted or (
                not trace and last - start < seconds
                and 2 * last - prev < started + DEADLINE_S):
            prev = last
            result = run.round()
            last = time.monotonic()
            if result is not None:
                timed.append(result)
                setups.append(result["setup_s"])
                print(f"{workload} round: {result['wall_s']:.3f} s",
                      file=sys.stderr)
        if not timed:
            raise SystemExit("; ".join(run.problems))
        if not trace:
            # the host's speed wavers within seconds, which a mean over the
            # rounds smooths better than a median
            metrics = {
                "wall_s": (statistics.mean(r["wall_s"] for r in timed), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (max(r["maxrss_mb"] for r in timed), "MB"),
            }
        else:
            metrics = traced_metrics(run, workload, seed, timed[0])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for p in run.problems:
        print(f"{workload}: {p}", file=sys.stderr)
    return run, metrics


def traced_metrics(run, workload, seed, untraced):
    (RUNS / "traces").mkdir(parents=True, exist_ok=True)
    stem = RUNS / "traces" / f"{workload}-seed{seed}"
    spans = run.round("spans", stem.with_suffix(".spans.jsonl"))
    alloc = run.round("alloc", stem.with_suffix(".alloc.jsonl"))
    if spans is None or alloc is None:
        raise SystemExit("; ".join(run.problems))
    metrics = {}
    missing = set()
    for name, (span, field, unit) in LAYER_METRICS.items():
        source = alloc if field == "peak_alloc_mb" else spans
        metrics[name] = (source["layers"].get(span, {}).get(field, 0), unit)
        if span not in source["installed"]:
            missing.add(span)
    if missing:
        print(f"{workload}: no span installed for {', '.join(sorted(missing))};"
              " their metrics read 0 and their time counts toward a caller",
              file=sys.stderr)
    metrics["cli.output_bytes"] = (spans["output_bytes"], "bytes")
    # the traced wall time that no reported self_s metric accounts for:
    # time outside cli.run plus the self time of spans no metric names
    layers = spans["layers"]
    reported = {span for span, field, _ in LAYER_METRICS.values()
                if field == "self_s" and span in layers}
    metrics["unattributed_s"] = (
        spans["wall_s"] - sum(layers[span]["self_s"] for span in reported),
        "s")
    for name in sorted(set(layers) - reported,
                       key=lambda n: -layers[n]["self_s"]):
        print(f"{workload}: unreported span {name}: "
              f"{layers[name]['self_s']:.4f} s", file=sys.stderr)
    metrics["tracing_overhead_s"] = (spans["wall_s"] - untraced["wall_s"],
                                     "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "srblab" / "cli.py").is_file():
        raise SystemExit(f"no srblab sources under {ROOT / 'src'}")
    seed = args.seed % 2**32
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        run, found = measure_workload(name, seed, args.seconds, args.trace)
        attempted += run.attempted
        failed += run.failed
        correct = correct and not run.wrong
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (value, unit) in found.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
            print(f"{name:20s} {key:48s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
