"""Acceptance suite: eleven end-to-end checks at desk scale.

Each test prints a single pass/fail line (shown live via capsys.disabled)
and then asserts, so a plain pytest run doubles as the acceptance report.
"""
import json
import time

import numpy as np
import pytest
import yaml

from conftest import orbit_of, sample_of
from srblab import cli, maps, measure, response, tangency, tangent
from srblab.response import SusceptibilitySeries

CAT_LAMBDA = np.log((3.0 + np.sqrt(5.0)) / 2.0)


def _report(capsys, idx, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {idx:02d}] {name}: {tag}"
              + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {idx:02d} {name}: {detail}"


def test_01_cat_lyapunov_million_steps(capsys):
    fam = maps.get_family("cat_translate")
    t0 = time.perf_counter()
    orbit = orbit_of(fam, 0.0, np.array([0.2357, 0.7113]), 1_000_000)
    spec = tangent.benettin_spectrum(sample_of(fam, 0.0, orbit[None]),
                                     reorth_interval=16)
    elapsed = time.perf_counter() - t0
    err = abs(spec.all_exponents[0] - CAT_LAMBDA)
    ok = err < 1e-3 and elapsed < 10.0
    _report(capsys, 1, "cat-map top exponent, 1e6 steps", ok,
            f"|err|={err:.2e}, {elapsed:.1f}s")


def test_02_determinant_sum_rule(capsys, henon_family, henon_orbit):
    fam = maps.get_family("cat_shear")
    orbit = orbit_of(fam, 0.2, np.array([0.31, 0.62]), 20_000)
    worst = 0.0
    for f, a, orb in ((fam, 0.2, orbit),
                      (henon_family, 1.4, henon_orbit[:20_001])):
        spec = tangent.benettin_spectrum(sample_of(f, a, orb[None]),
                                         reorth_interval=1)
        worst = max(worst, abs(spec.sum() - spec.mean_log_det))
    _report(capsys, 2, "QR determinant sum rule (cat, Henon)",
            worst < 1e-8, f"max |defect|={worst:.2e}")


ALPHAS = {"cat_translate": 0.1, "cat_shear": 0.2, "henon": 1.4,
          "standard_map": 0.5, "coupled_henon": 1.4}


def _chain_rule_points(fam, alpha, rng, n_pts):
    if fam.chart.any_wrap:
        return rng.random((n_pts, fam.dimension))
    # dissipative systems: start from attractor samples so ten forward
    # steps stay inside the basin
    x0 = orbit_of(fam, alpha, np.full(fam.dimension, 0.05), 1000)[-1]
    orbit = orbit_of(fam, alpha, x0, 10 * n_pts)
    return orbit[::10][:n_pts]


def test_03_chain_rule_transported_gradients(capsys):
    worst = 0.0
    for name, alpha in ALPHAS.items():
        fam = maps.get_family(name)
        rng = np.random.default_rng(17)
        pts = _chain_rule_points(fam, alpha, rng, 100)
        phi = maps.get_observable("cos_1_0" if fam.chart.any_wrap
                                  else "coord_0", fam.dimension)
        hist = maps.iterate_batch(fam, alpha, pts, 10)
        P = np.broadcast_to(np.eye(fam.dimension),
                            (100, fam.dimension, fam.dimension)).copy()
        for n in range(1, 11):
            P = np.einsum("sab,sbc->sac", fam.jacobian(alpha, hist[n - 1]), P)
            grad = np.einsum("sba,sb->sa", P, phi.gradient(hist[n]))
            h = 1e-6 / np.maximum(np.linalg.norm(P, axis=(1, 2)), 1.0)
            fd = np.empty_like(grad)
            for i in range(fam.dimension):
                e = np.zeros((100, fam.dimension))
                e[:, i] = h
                up = maps.iterate_batch(fam, alpha, pts + e, n)[-1]
                dn = maps.iterate_batch(fam, alpha, pts - e, n)[-1]
                fd[:, i] = (phi.value(up) - phi.value(dn)) / (2 * h)
            scale = np.linalg.norm(grad, axis=1)
            rel = np.linalg.norm(grad - fd, axis=1) / np.maximum(scale, 1e-12)
            worst = max(worst, float(rel.max()))
    _report(capsys, 3, "chain rule, 100 points x 5 systems, n<=10",
            worst < 1e-5, f"max rel err={worst:.2e}")


def test_04_clv_covariance_and_cat_eigenvectors(capsys, henon_family,
                                                henon_splitting):
    sp_h = henon_splitting
    ru, rs = tangent.covariance_residuals(sp_h, henon_family, 1.4)
    henon_resid = max(ru[0, 1000:-1000].max(), rs[0, 1000:-1000].max())
    fam = maps.get_family("cat_translate")
    orbit = orbit_of(fam, 0.0, np.array([0.2357, 0.7113]), 6000)
    sp = tangent.compute_clvs(sample_of(fam, 0.0, orbit[None]), warmup=1000)
    ru_c, rs_c = tangent.covariance_residuals(sp, fam, 0.0)
    cat_resid = max(ru_c.max(), rs_c.max())
    _, v = np.linalg.eigh(np.array([[2.0, 1.0], [1.0, 1.0]]))
    eig_err = max(
        np.abs(np.abs(sp.clvs[..., 0] @ v[:, 1]) - 1.0).max(),
        np.abs(np.abs(sp.clvs[..., 1] @ v[:, 0]) - 1.0).max())
    ok = cat_resid < 1e-6 and henon_resid < 1e-3 and eig_err < 1e-10
    _report(capsys, 4, "CLV covariance + cat eigenvectors", ok,
            f"cat={cat_resid:.1e}, henon={henon_resid:.1e}, "
            f"eig={eig_err:.1e}")


def test_05_volume_preserving_identity(capsys):
    two_pi = 2 * np.pi
    fam = maps.get_family("cat_translate")
    emp = measure.srb_sample(fam, 0.0, transient=200, length=20_000,
                             ensemble=8, seed=11)
    phi = maps.get_observable("cos_1_0", 2)

    def f1(x):
        return np.stack([np.sin(two_pi * x[..., 1]),
                         np.cos(two_pi * x[..., 0])], axis=-1) / two_pi

    def f2(x):
        return np.stack([np.sin(two_pi * x[..., 0]),
                         np.cos(two_pi * x[..., 1])], axis=-1) / two_pi

    def d2(x):
        return np.cos(two_pi * x[..., 0]) - np.sin(two_pi * x[..., 1])

    worst = 0.0
    for field, div in ((f1, lambda x: np.zeros(x.shape[:-1])), (f2, d2)):
        rep = response.volume_preserving_identity(emp, field, div, phi, 10)
        worst = max(worst, max(r.sigma_units for r in rep.rows))
    _report(capsys, 5, "volume-preserving identity, two analytic fields",
            worst < 3.0, f"max |sigma|={worst:.2f}")


def test_06_linear_response_nonlinear_cat(capsys, catshear_split):
    fam, alpha, phi, split = catshear_split
    ser = split.combined()
    psi_one, psi_err = ser.truncated_sum()
    sampling = response.SamplingConfig(transient=500, length=50_000,
                                       ensemble=32, seed=77)
    deriv, deriv_err = response.finite_difference_response(
        fam, alpha, 0.1, phi, sampling)
    sigma = abs(psi_one - deriv) / np.hypot(psi_err, deriv_err)
    est = response.radius_estimate(ser, method="root-test")
    radius_ok = (not est.indeterminate and est.value > 1.0
                 and est.ci[0] > 1.0)
    ok = sigma < 3.0 and radius_ok
    _report(capsys, 6, "linear response on the sheared torus family", ok,
            f"Psi(1) vs FD: {sigma:.2f} sigma; radius={est.value:.1f}, "
            f"ci=({est.ci[0]:.1f}, {est.ci[1]}), flag={est.flag}")


def test_07_radius_estimator_calibration(capsys):
    worst = 0.0
    for r in (0.5, 1.2, 3.0):
        n = np.arange(16)
        ser = SusceptibilitySeries(2.0 * r ** (-n.astype(float)),
                                   np.full(16, 1e-10), {})
        for method in ("root-test", "pade-pole"):
            est = response.radius_estimate(ser, method=method)
            worst = max(worst, abs(est.value - r) / r)
    _report(capsys, 7, "radius calibration on geometric series",
            worst < 0.02, f"max rel err={worst:.4f}")


def test_08_tangency_regime_detection(capsys, henon_splitting, cat_orbit):
    sp = henon_splitting
    min_angle = float(tangent.splitting_angles(sp).min())
    dims_h = measure.dimension_estimates(sp.spectrum)
    fam, orbit = cat_orbit
    dims_c = measure.dimension_estimates(tangent.benettin_spectrum(
        sample_of(fam, 0.0, orbit[None, :100_001]), reorth_interval=8))
    ok = (min_angle < 0.01 and abs(dims_h.d_s - 0.26) <= 0.05
          and abs(dims_c.d_s - 1.0) <= 0.02)
    _report(capsys, 8, "tangency regime: Henon below, cat above threshold",
            ok, f"min angle={min_angle:.1e}, henon d_s={dims_h.d_s:.3f}, "
            f"cat d_s={dims_c.d_s:.3f}")


def test_09_synthetic_fold_oracle(capsys):
    sig_u = tangency.make_sigma("uniform")
    prof = tangency.synthetic_fold_convolution(sig_u, 8192, side="one",
                                               domain=(0.0, 1.0))
    conv_err = float(np.abs(prof.values
                            - 2.0 * np.sqrt(prof.grid)).max())
    holder_err = 0.0
    for sigma, expect in ((sig_u, 0.5),
                          (tangency.make_sigma("cantor", ratio=1.0 / 3.0,
                                               level=13),
                           np.log(2) / np.log(3) - 0.5)):
        p = tangency.synthetic_fold_convolution(sigma, 8192, side="one",
                                                domain=(0.0, 1.0))
        est = tangency.holder_exponent(p.values, p.grid[1] - p.grid[0])
        holder_err = max(holder_err, abs(est.exponent - expect))
    ratios = []
    prev = None
    for level in (3, 4, 5):
        sig = tangency.make_sigma("cantor", ratio=1.0 / 16.0, level=level)
        mx = tangency.synthetic_fold_convolution(
            sig, 16**level, side="one", domain=(0.0, 1.0)).values.max()
        if prev is not None:
            ratios.append(mx / prev)
        prev = mx
    blowup_ok = all(abs(q - 2.0) <= 0.4 for q in ratios)
    ok = conv_err < 1e-3 and holder_err < 0.05 and blowup_ok
    _report(capsys, 9, "fold convolution oracle + Holder + blowup", ok,
            f"conv err={conv_err:.1e}, holder err={holder_err:.3f}, "
            f"refinement ratios={[round(float(q), 2) for q in ratios]}")


def test_10_split_reconstruction(capsys, catshear_split):
    fam, alpha, phi, split = catshear_split
    sig = split.reconstruction_sigma()
    recon_ok = bool(np.all(sig[:11] < 3.0))
    from srblab.stats import linear_fit
    mags = np.abs(split.stable.coeffs[1:])
    n = np.arange(1, split.stable.coeffs.size)
    _, rate, _, _ = linear_fit(n, np.log(mags))
    lam_s = -0.9769
    decay_ok = 0.7 < rate / lam_s < 2.0
    _report(capsys, 10, "stable+unstable reconstruction of kappa_n",
            recon_ok and decay_ok,
            f"max sigma={sig[:11].max():.2f}, stable rate={rate:.2f} "
            f"vs lambda_s={lam_s:.2f}")


def test_11_end_to_end_determinism(capsys, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "system": {"name": "cat_shear"}, "alpha": 0.2, "seed": 3,
        "observable": "bump",
        "orbit": {"transient": 200, "length": 5000, "ensemble": 4},
        "susceptibility": {"n_max": 10},
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    ok = (cli.run("susceptibility", cfg, out1) == 0
          and cli.run("susceptibility", cfg, out2) == 0)
    names1 = sorted(p.name for p in out1.iterdir())
    identical = names1 == sorted(p.name for p in out2.iterdir()) and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)
    _report(capsys, 11, "byte-identical rerun of a CLI pipeline",
            ok and identical, f"{len(names1)} files compared")
