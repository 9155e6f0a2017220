"""Experiment runner: config-driven pipelines with seeded reproducibility
and machine-readable CSV/JSON outputs plus a digest manifest.

Usage: srblab <subcommand> <config.yaml> [--output-dir DIR]

The output directory may also be overridden with the SRBLAB_OUTPUT_DIR
environment variable.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import maps, measure, response, stats, tangency
from .config import ExperimentConfig
from .errors import (BasinEscapeError, ConfigError, FrameMisalignmentError,
                     HyperbolicityError, InsufficientDataError,
                     NumericalDegeneracyError, PadeDegeneracyError,
                     ParameterError, SrbLabError, UnsupportedDimensionError)
from .tangent import (_check_reorth, _clv_window, benettin_spectrum,
                      compute_clvs, covariance_residuals, splitting_angles)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERACY = 3
EXIT_BASIN = 4
EXIT_INSUFFICIENT = 5

_ERROR_CODES = [
    ((ConfigError, ParameterError), EXIT_CONFIG),
    ((NumericalDegeneracyError, HyperbolicityError,
      UnsupportedDimensionError, PadeDegeneracyError), EXIT_DEGENERACY),
    ((BasinEscapeError, FrameMisalignmentError), EXIT_BASIN),
    ((InsufficientDataError,), EXIT_INSUFFICIENT),
]


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload):
    Path(path).write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


class OutputDir:
    """The output directory of one run.  `outdir / name` gives the path of
    an artifact and records it, so the manifest lists exactly the files this
    run wrote, not stale ones left by earlier runs."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path!r}: "
                              f"{exc.strerror}") from exc
        self.written = set()

    def __truediv__(self, name):
        self.written.add(name)
        return self.path / name


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _system(cfg):
    sysc = cfg.require("system")
    return (maps.get_family(sysc["name"], sysc.get("params")),
            float(cfg.require("alpha")))


def _observable(cfg, family):
    return maps.get_observable(cfg.require("observable"), family.dimension)


def _sampling(cfg, seed_shift):
    """srb_sample's keywords for a run: orbit.*, the seed, and the sampler,
    None for the family's default."""
    oc = cfg.get("orbit")
    sampler = (None if cfg.get("sampler") is None
               else measure.BoxSampler(tuple(cfg.require("sampler.low")),
                                       tuple(cfg.require("sampler.high"))))
    return dict(transient=oc["transient"], length=oc["length"],
                ensemble=oc["ensemble"], sampler=sampler,
                seed=cfg.get("seed") + seed_shift)


def _srb(cfg, family, alpha, seed_shift=0):
    return measure.srb_sample(family, alpha, **_sampling(cfg, seed_shift))


def _spectrum(cfg, emp):
    """Benettin spectrum of the sample's members, pooled."""
    return benettin_spectrum(
        emp, reorth_interval=cfg.get("spectrum.reorth_interval"))


def _splitting(cfg, family, alpha):
    """(CLV splitting, splitting angles) of the run's members."""
    warmup = cfg.get("clv.warmup")
    _clv_window(cfg.get("orbit.length") - 1, warmup)    # before sampling
    splitting = compute_clvs(_srb(cfg, family, alpha), warmup)
    return splitting, splitting_angles(splitting)


def _series(cfg, family, alpha, seed_shift=0, radius=False):
    """(kappa_n series, the SRB sample, the observable).  The order, the
    radius settings if a radius is to be fitted, and the observable are
    checked before the sample is drawn."""
    n_max = cfg.get("susceptibility.n_max")
    response._check_order(n_max)
    if radius:
        response._check_radius(n_max, cfg.get("radius.method"))
    phi = _observable(cfg, family)
    emp = _srb(cfg, family, alpha, seed_shift)
    series = response.susceptibility_coefficients(emp, phi, n_max)
    return series, emp, phi


def _radius(cfg, series):
    return response.radius_estimate(series, method=cfg.get("radius.method"))


def _spectrum_payload(spec):
    payload = {
        "exponents": spec.all_exponents,
        "stderr": spec.all_stderr,
        "distinct": spec.exponents,
        "multiplicities": spec.multiplicities,
        "sum": spec.sum(),
        "mean_log_det": spec.mean_log_det,
        "n_steps": spec.n_steps,
        "n_windows": spec.n_windows,
        "boundary_residual": spec.boundary_residual,
        "d_s_method": "non-hyperbolic",
    }
    try:
        dims = measure.dimension_estimates(spec)
    except HyperbolicityError:
        return payload
    payload.update(kaplan_yorke=dims.kaplan_yorke, d_s=dims.d_s,
                   d_s_interval=dims.d_s_interval, d_s_method=dims.method)
    return payload


def _write_series(outdir, series):
    write_csv(outdir / "susceptibility.csv", ["n", "kappa", "stderr"],
              [(n, series.coeffs[n], series.stderr[n])
               for n in range(series.coeffs.size)])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_lyapunov(cfg, outdir):
    _check_reorth(cfg.get("spectrum.reorth_interval"))
    spec = _spectrum(cfg, _srb(cfg, *_system(cfg)))
    write_csv(outdir / "spectrum.csv", ["index", "exponent", "stderr"],
              [(i, spec.all_exponents[i], spec.all_stderr[i])
               for i in range(spec.dimension)])
    write_json(outdir / "spectrum.json", _spectrum_payload(spec))
    return {"steps": spec.n_steps}


def cmd_clv(cfg, outdir):
    family, alpha = _system(cfg)
    splitting, angles = _splitting(cfg, family, alpha)
    res_u, res_s = covariance_residuals(splitting, family, alpha)
    write_csv(outdir / "angles.csv", ["member", "step", "angle"],
              [(b, splitting.offset + i, a)
               for (b, i), a in np.ndenumerate(angles)])
    write_json(outdir / "clv.json", {
        "min_angle": float(angles.min()),
        "max_covariance_residual_u": float(res_u.max()),
        "max_covariance_residual_s": float(res_s.max()),
        "n_unstable": splitting.n_unstable,
        "spectrum": _spectrum_payload(splitting.spectrum),
    })
    return {"points": int(angles.size)}


def cmd_srb(cfg, outdir):
    family, alpha = _system(cfg)
    emp = _srb(cfg, family, alpha)
    header = [f"x{i}" for i in range(family.dimension)]
    write_csv(outdir / "points.csv", header, emp.points)
    write_json(outdir / "srb.json", {
        "n_points": len(emp), "n_escaped": emp.n_escaped,
        "ensemble": emp.n_members, "length": emp.length,
    })
    return {"points": len(emp)}


def cmd_correlate(cfg, outdir):
    family, alpha = _system(cfg)
    measure._check_lag(cfg.get("correlation.n_max"))
    phi = _observable(cfg, family)
    emp = _srb(cfg, family, alpha)
    series = measure.correlation(emp, phi, cfg.get("correlation.n_max"))
    write_csv(outdir / "correlation.csv", ["lag", "value", "stderr"],
              zip(series.lags, series.values, series.stderr))
    write_json(outdir / "correlation.json", {
        "decay_rate": series.decay_rate,
        "decay_rate_ci": series.decay_rate_ci,
        "fit_r2": series.fit_r2,
        "fit_window": series.fit_window,
        "fit_undefined": series.fit_undefined,
    })
    return {"lags": int(series.lags.size)}


def cmd_susceptibility(cfg, outdir):
    series, _, _ = _series(cfg, *_system(cfg))
    _write_series(outdir, series)
    write_json(outdir / "susceptibility.json", series.meta)
    return {"coefficients": int(series.coeffs.size)}


def cmd_radius(cfg, outdir):
    series, _, _ = _series(cfg, *_system(cfg), radius=True)
    est = _radius(cfg, series)
    _write_series(outdir, series)
    write_json(outdir / "radius.json", {
        "method": est.method, "value": est.value, "ci": est.ci,
        "fit_window": est.fit_window, "indeterminate": est.indeterminate,
        "flag": est.flag, "poles": est.poles,
        "screened_poles": est.screened_poles,
        "truncated_at": series.meta["truncated_at"],
    })
    return {"coefficients": int(series.coeffs.size)}


def cmd_response_check(cfg, outdir):
    family, alpha = _system(cfg)
    response._check_step(cfg.get("response.h"))
    series, emp, phi = _series(cfg, family, alpha)
    del emp  # freed before the finite difference draws two samples
    psi_one, psi_err = series.truncated_sum()
    deriv, deriv_err = response.finite_difference_response(
        family, alpha, cfg.get("response.h"), phi,
        **_sampling(cfg, seed_shift=1))
    sigma = stats.sigma_units(psi_one - deriv, psi_err, deriv_err)
    write_json(outdir / "response.json", {
        "psi_one": psi_one, "psi_one_err": psi_err,
        "derivative": deriv, "derivative_err": deriv_err,
        "discrepancy_sigma": sigma,
        "h": cfg.get("response.h"),
        "agrees_3sigma": sigma < 3.0,
        "truncated_at": series.meta["truncated_at"],
    })
    return {"coefficients": int(series.coeffs.size)}


def cmd_split(cfg, outdir):
    family, alpha = _system(cfg)
    n_max = cfg.get("susceptibility.n_max")
    response._split_window(family, cfg.get("orbit.length"), n_max,
                           cfg.get("clv.warmup"))       # before sampling
    phi = _observable(cfg, family)
    emp = _srb(cfg, family, alpha)
    result = response.stable_unstable_split(
        emp, phi, n_max, clv_warmup=cfg.get("clv.warmup"),
        angle_threshold=cfg.get("split.angle_threshold"))
    sig = result.reconstruction_sigma()
    d, s, u = result.direct, result.stable, result.unstable
    write_csv(outdir / "split.csv",
              ["n", "direct", "direct_se", "stable", "stable_se",
               "unstable", "unstable_se", "reconstruction_sigma"],
              zip(range(sig.size), d.coeffs, d.stderr, s.coeffs, s.stderr,
                  u.coeffs, u.stderr, sig))
    write_json(outdir / "split.json", {
        "excluded_fraction": result.excluded_fraction,
        "min_angle": result.min_angle,
        "max_reconstruction_sigma": float(np.max(sig)),
        "n_windows": result.n_windows,
        "boundary_residual": result.boundary_residual,
    })
    return {"coefficients": int(result.direct.coeffs.size)}


def cmd_tangency(cfg, outdir):
    family, alpha = _system(cfg)
    tc = cfg.get("tangency")
    frame = None
    if tc.get("frame") is not None:                     # before sampling
        tangency._check_planar(family.dimension)
        frame = tangency.TransversalFrame(
            tuple(cfg.require("tangency.frame.base")),
            tuple(cfg.require("tangency.frame.direction")))
    splitting, angles = _splitting(cfg, family, alpha)
    folds = tangency.detect_folds(splitting.points, angles,
                                  tc["angle_threshold"], chart=family.chart,
                                  cluster_radius=tc["cluster_radius"])
    write_csv(outdir / "folds.csv",
              [f"x{i}" for i in range(family.dimension)] + ["angle"],
              [tuple(p) + (a,) for p, a in zip(folds.points, folds.angles)])
    n_folds = folds.points.shape[0]
    payload = {
        "min_angle": float(angles.min()),
        "n_fold_points": n_folds,
        "n_clusters": int(folds.representatives.shape[0]),
        "spectrum": _spectrum_payload(splitting.spectrum),
    }
    if frame is not None:
        theta = tangency.project_along_stable(
            folds.points, splitting.clvs[:, 1][:, folds.selected], frame,
            min_angle=tc["min_projection_angle"], chart=family.chart)
        if theta.size < tangency.MIN_FOLD_POINTS:
            projected = (f", {theta.size} projected" if theta.size < n_folds
                         else "")
            payload.update(frame_used=False, frame_reason=(
                f"{n_folds} fold points{projected}, fewer than the "
                f"{tangency.MIN_FOLD_POINTS} the counting function needs"))
        else:
            counting = tangency.counting_function(theta)
            payload.update(d_bar=counting.exponent,
                           d_bar_ci=counting.exponent_ci,
                           holder_constant=counting.holder_constant,
                           counting_flag=counting.flag)
    write_json(outdir / "tangency.json", payload)
    return {"points": int(angles.size)}


def cmd_fold_synthetic(cfg, outdir):
    syn, kind = cfg.get("synthetic"), cfg.require("synthetic.sigma.kind")
    sigma = tangency.make_sigma(
        kind, **{k: v for k, v in syn["sigma"].items() if k != "kind"})
    profile = tangency.synthetic_fold_convolution(
        sigma, syn["grid"], side=syn["side"], domain=tuple(syn["domain"]))
    spacing = profile.grid[1] - profile.grid[0]
    est = tangency.holder_exponent(profile.values, spacing)
    write_csv(outdir / "profile.csv", ["theta", "value"],
              zip(profile.grid, profile.values))
    write_json(outdir / "synthetic.json", {
        "sigma_dimension": sigma.dimension,
        "predicted_exponent": sigma.dimension - 0.5,
        "holder_exponent": est.exponent,
        "holder_ci": est.ci,
        "fit_range": est.fit_range,
        "reliable": est.reliable,
        "flag": est.flag,
    })
    return {"grid": int(profile.grid.size)}


def _report_row(i, sub, family, alpha):
    """Row i of the report, from one sample; it is freed with the row."""
    series, emp, phi = _series(sub, family, alpha, 200 + i, radius=True)
    spec = _spectrum_payload(_spectrum(sub, emp))
    corr = measure.correlation(emp, phi, sub.get("correlation.n_max"))
    est = _radius(sub, series)
    psi_one, psi_err = series.truncated_sum()
    return {
        "system": sub.get("system.name"), "alpha": alpha,
        "d_s": spec.get("d_s"), "d_s_method": spec["d_s_method"],
        "mixing_rate": corr.decay_rate,
        "mixing_fit_undefined": corr.fit_undefined,
        "radius": est.value, "radius_ci": est.ci,
        "radius_indeterminate": est.indeterminate, "radius_flag": est.flag,
        "psi_one": psi_one, "psi_one_err": psi_err,
        "psi_one_status": (
            "resolved" if stats.sigma_units(psi_one, psi_err) > 3
            else "consistent-with-zero"),
        "truncated_at": series.meta["truncated_at"],
    }


def cmd_conjecture_report(cfg, outdir):
    """One row per system, from the sample at seed + 200 + i: row i
    reproduces `susceptibility`, `radius` and `lyapunov` run at that seed.
    Every entry, and the settings the rows share, are checked before the
    first sample is drawn.  The rows run under response._process_map, bit
    for bit the serial loop's report or first failing row's error on any
    number of workers."""
    rows = []
    for i, entry in enumerate(cfg.require("report.systems")):
        if not {"name", "alpha"} <= entry.keys():
            raise ConfigError(f"report.systems[{i}] needs a name and an alpha")
        sub = ExperimentConfig({
            **{k: v for k, v in cfg.resolved().items()
               if k not in ("report", "system", "alpha")},
            "system": {"name": entry["name"],
                       "params": entry.get("params", {})},
            "alpha": entry["alpha"]})
        family, alpha = _system(sub)
        _observable(sub, family)
        rows.append((i, sub, family, alpha))
    measure._check_lag(cfg.get("correlation.n_max"))
    _check_reorth(cfg.get("spectrum.reorth_interval"))
    rows = response._process_map(lambda row: _report_row(*row), rows)
    write_json(outdir / "report.json", {"systems": rows})
    return {"systems": len(rows)}


COMMANDS = {
    "lyapunov": cmd_lyapunov,
    "clv": cmd_clv,
    "srb": cmd_srb,
    "correlate": cmd_correlate,
    "susceptibility": cmd_susceptibility,
    "radius": cmd_radius,
    "response-check": cmd_response_check,
    "split": cmd_split,
    "tangency": cmd_tangency,
    "fold-synthetic": cmd_fold_synthetic,
    "conjecture-report": cmd_conjecture_report,
}


def run(subcommand, config_path, output_dir):
    """Run one subcommand; returns the exit code.

    diagnostics.json goes to the run's output directory, or to out/ if the
    config did not load and no directory was given."""
    outpath = output_dir or os.environ.get("SRBLAB_OUTPUT_DIR")
    try:
        if subcommand not in COMMANDS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        cfg = ExperimentConfig.load(config_path)
        outpath = outpath or cfg.get("output_dir")
        outdir = OutputDir(outpath)
        write_json(outdir / "resolved_config.json", cfg.resolved())
        counts = COMMANDS[subcommand](cfg, outdir)
    except SrbLabError as exc:
        code = EXIT_CONFIG
        for types, c in _ERROR_CODES:
            if isinstance(exc, types):
                code = c
                break
        diag = {"error_type": type(exc).__name__, "message": str(exc),
                "subcommand": subcommand}
        try:
            outdir = Path(outpath or "out")
            outdir.mkdir(parents=True, exist_ok=True)
            write_json(outdir / "diagnostics.json", diag)
        except OSError:
            pass
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return code
    outputs = [{"path": name, "sha256": _sha256(outdir.path / name)}
               for name in sorted(outdir.written)]
    write_json(outdir / "manifest.json", {
        "artifact_version": "0.1.0",
        "subcommand": subcommand,
        "config": cfg.resolved(),
        "outputs": outputs,
        "counts": counts,
    })
    return EXIT_OK


def main():
    parser = argparse.ArgumentParser(
        prog="srblab",
        description="Linear-response numerics for chaotic diffeomorphisms")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the YAML experiment config")
        p.add_argument("--output-dir", default=None)
    args = parser.parse_args()
    return run(args.subcommand, args.config, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
