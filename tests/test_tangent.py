import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from srblab import maps, measure, response, tangent
from srblab.errors import (HyperbolicityError, NumericalDegeneracyError,
                           ParameterError)

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_LAMBDA = np.log((3.0 + np.sqrt(5.0)) / 2.0)


def _cat_cocycle(n=20_000, alpha=0.0, name="cat_translate"):
    fam = maps.get_family(name)
    orbit = maps.iterate(fam, alpha, np.array([0.2357, 0.7113]), n)
    return fam, orbit, tangent.TangentCocycle.from_orbit(fam, alpha, orbit)


def test_cocycle_product_chain_rule():
    fam = maps.get_family("cat_shear")
    alpha = 0.2
    orbit = maps.iterate(fam, alpha, np.array([0.31, 0.62]), 20)
    coc = tangent.TangentCocycle.from_orbit(fam, alpha, orbit)
    P = coc.product(0, 20)
    Q = np.eye(2)
    for k in range(20):
        Q = fam.jacobian(alpha, orbit[k]) @ Q
    assert np.abs(P - Q).max() / np.abs(Q).max() < 1e-10


def test_cat_spectrum_matches_eigenvalues():
    _, _, coc = _cat_cocycle()
    spec = tangent.benettin_spectrum(coc)
    # finite-orbit alignment transient decays like 1/n; 2e4 steps -> ~1e-5
    assert abs(spec.all_exponents[0] - CAT_LAMBDA) < 1e-4
    assert abs(spec.all_exponents[1] + CAT_LAMBDA) < 1e-4
    assert spec.is_hyperbolic()


def test_spectrum_sorted_descending():
    fam = maps.get_family("coupled_henon")
    orbit = maps.iterate(fam, 1.4,
                         maps.iterate(fam, 1.4, np.full(4, 0.05), 1000)[-1],
                         50_000)
    coc = tangent.TangentCocycle.from_orbit(fam, 1.4, orbit)
    spec = tangent.benettin_spectrum(coc, reorth_interval=4)
    assert np.all(np.diff(spec.all_exponents) <= 0)
    assert spec.dimension == 4


def test_qr_sum_rule_is_algebraic():
    _, _, coc = _cat_cocycle(5000, alpha=0.2, name="cat_shear")
    spec = tangent.benettin_spectrum(coc)
    assert abs(spec.sum() - spec.mean_log_det) < 1e-8


def test_seed_independence():
    _, _, coc = _cat_cocycle(30_000, alpha=0.2, name="cat_shear")
    rng = np.random.default_rng(3)
    q0, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    a = tangent.benettin_spectrum(coc, reorth_interval=4)
    b = tangent.benettin_spectrum(coc, reorth_interval=4, q0=q0)
    sig = np.abs(a.all_exponents - b.all_exponents) / np.hypot(
        a.all_stderr, b.all_stderr)
    assert np.all(sig < 3.0)


def test_reorth_interval_consistency():
    _, _, coc = _cat_cocycle(20_000, alpha=0.2, name="cat_shear")
    a = tangent.benettin_spectrum(coc, reorth_interval=1)
    b = tangent.benettin_spectrum(coc, reorth_interval=8)
    assert np.abs(a.all_exponents - b.all_exponents).max() < 1e-9


def test_cat_clvs_are_constant_eigenvectors():
    _, _, coc = _cat_cocycle(6000)
    sp = tangent.compute_clvs(coc, warmup=1000)
    w, v = np.linalg.eigh(CAT)
    vu, vs = v[:, 1], v[:, 0]
    assert np.abs(np.abs(sp.clvs[:, :, 0] @ vu) - 1).max() < 1e-10
    assert np.abs(np.abs(sp.clvs[:, :, 1] @ vs) - 1).max() < 1e-10


def test_clv_covariance_linear():
    _, _, coc = _cat_cocycle(6000)
    sp = tangent.compute_clvs(coc, warmup=1000)
    ru, rs = tangent.covariance_residuals(sp, coc)
    assert max(ru.max(), rs.max()) < 1e-6


def test_clv_covariance_henon(henon_splitting):
    coc, sp = henon_splitting
    ru, rs = tangent.covariance_residuals(sp, coc)
    # interior points: discard a margin at both ends of the window
    assert max(ru[1000:-1000].max(), rs[1000:-1000].max()) < 1e-3


def test_splitting_angle_bounds(henon_splitting):
    _, sp = henon_splitting
    ang = tangent.splitting_angles(sp)
    assert ang.min() >= 0.0 and ang.max() <= np.pi / 2 + 1e-12
    assert sp.n_unstable == 1


def test_splitting_basis_orthonormal(henon_splitting):
    _, sp = henon_splitting
    bu = sp.basis("u")
    gram = np.einsum("nia,nib->nab", bu, bu)
    assert np.abs(gram - np.eye(bu.shape[-1])).max() < 1e-12


def test_compute_clvs_rejects_near_zero_exponent():
    fam = maps.get_family("standard_map")
    # small kicking: near-integrable, rotation-dominated orbits
    orbit = maps.iterate(fam, 0.05, np.array([0.38, 0.12]), 20_000)
    coc = tangent.TangentCocycle.from_orbit(fam, 0.05, orbit)
    with pytest.raises(HyperbolicityError):
        tangent.compute_clvs(coc, warmup=500)


def test_unstable_segment_linear_is_straight():
    fam, orbit, coc = _cat_cocycle(4000, alpha=0.1)
    sp = tangent.compute_clvs(coc, warmup=500)
    i = 1000
    e_u = sp.clvs[i][:, 0]
    seg = tangent.unstable_segment(fam, 0.1, sp.points[i], e_u,
                                   half_width=0.01, refine=9)
    t = fam.chart.difference(seg, sp.points[i])
    off = t - (t @ e_u)[:, None] * e_u
    assert np.abs(off).max() < 1e-10


def test_unstable_segment_henon_bounded(henon_family, henon_splitting):
    _, sp = henon_splitting
    i = 5000
    seg = tangent.unstable_segment(henon_family, 1.4, sp.points[i],
                                   sp.clvs[i][:, 0], half_width=0.05,
                                   refine=8)
    assert np.all(np.abs(seg[:, 0]) <= 1.5)
    assert np.all(np.abs(seg[:, 1]) <= 0.45)
    # finite curvature: second differences bounded
    d2 = np.diff(seg, n=2, axis=0)
    assert np.all(np.isfinite(d2))


def test_unstable_segment_rejects_bad_width(henon_family, henon_splitting):
    _, sp = henon_splitting
    with pytest.raises(ParameterError):
        tangent.unstable_segment(henon_family, 1.4, sp.points[0],
                                 sp.clvs[0][:, 0], half_width=0.0, refine=8)


# The windowed sweeps against their one-window run, which is the sequential
# sweep: a core longer than any orbit leaves a single window.


def _one_window(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(tangent, "_CORE", 10**9)
        return fn(*args, **kwargs)


def _assert_same_spectrum(a, b):
    for name in ("all_exponents", "all_stderr", "exponents", "stderr"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.mean_log_det == b.mean_log_det
    assert a.n_steps == b.n_steps


def test_windowed_clvs_bitwise_on_henon(monkeypatch, henon_family,
                                        henon_orbit):
    # det Df = -0.3: windows started from the identity come out with flipped
    # column signs, which the alignment must undo exactly
    coc = tangent.TangentCocycle.from_orbit(henon_family, 1.4,
                                            henon_orbit[:30_001])
    windowed = tangent.compute_clvs(coc, warmup=1000)
    single = _one_window(monkeypatch, tangent.compute_clvs, coc, warmup=1000)
    assert windowed.n_windows > 100 and single.n_windows == 1
    assert windowed.boundary_residual == 0.0
    assert np.array_equal(windowed.clvs, single.clvs)
    _assert_same_spectrum(windowed.spectrum, single.spectrum)


def test_windowed_batched_sweep_bitwise_on_cat_shear(monkeypatch):
    fam = maps.get_family("cat_shear")
    emp = measure.srb_sample(fam, 0.25, transient=200, length=6000,
                             ensemble=16, seed=5)
    J = fam.jacobian(0.25, emp.orbits[:, :-1])
    clvs, spec, lo = tangent._clv_sweep(J, 500)
    clvs1, spec1, lo1 = _one_window(monkeypatch, tangent._clv_sweep, J, 500)
    assert J.shape[0] == 16 and spec.n_windows > 1 and lo == lo1
    assert np.array_equal(clvs, clvs1)
    _assert_same_spectrum(spec, spec1)


@pytest.mark.parametrize("reorth_interval", [1, 8])
def test_windowed_benettin_bitwise(monkeypatch, reorth_interval):
    _, _, coc = _cat_cocycle(20_000, alpha=0.2, name="cat_shear")
    a = tangent.benettin_spectrum(coc, reorth_interval=reorth_interval)
    b = _one_window(monkeypatch, tangent.benettin_spectrum, coc,
                    reorth_interval=reorth_interval)
    assert a.n_windows > 1 and b.n_windows == 1
    _assert_same_spectrum(a, b)


def test_q0_seeds_first_window(monkeypatch):
    _, _, coc = _cat_cocycle(20_000, alpha=0.2, name="cat_shear")
    q0, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))
    a = tangent.benettin_spectrum(coc, q0=q0)
    b = _one_window(monkeypatch, tangent.benettin_spectrum, coc, q0=q0)
    _assert_same_spectrum(a, b)
    # the seed enters through window 0 only, but it does enter
    c = tangent.benettin_spectrum(coc)
    assert not np.array_equal(a.all_exponents, c.all_exponents)
    (Qs, Rs, _), _ = tangent._forward_qr(coc.jacobians[None], q0, 256, 64)
    assert np.array_equal(Qs[0, 0], q0)
    assert np.allclose(Qs[0, 1] @ Rs[0, 0], coc.jacobians[0] @ q0)


@pytest.mark.parametrize("steps", [300, 321, 5077])
def test_windowed_sweep_any_length(monkeypatch, steps):
    # 300 fits one window; 321 leaves the second window a single step
    _, _, coc = _cat_cocycle(6000, alpha=0.2, name="cat_shear")
    a = tangent.benettin_spectrum(coc, steps=steps)
    b = _one_window(monkeypatch, tangent.benettin_spectrum, coc, steps=steps)
    assert a.n_steps == steps
    _assert_same_spectrum(a, b)
    J = coc.jacobians[None, :steps]
    clvs, spec, _ = tangent._clv_sweep(J, 100)
    clvs1, spec1, _ = _one_window(monkeypatch, tangent._clv_sweep, J, 100)
    assert np.array_equal(clvs, clvs1)
    _assert_same_spectrum(spec, spec1)


def test_window_fallback_on_near_integrable_map(monkeypatch):
    fam = maps.get_family("standard_map")
    orbit = maps.iterate(fam, 0.05, np.array([0.38, 0.12]), 20_000)
    coc = tangent.TangentCocycle.from_orbit(fam, 0.05, orbit)
    spec = tangent.benettin_spectrum(coc)
    # frames do not converge across the overlap: rerun as one window
    assert spec.boundary_residual > tangent._MAX_RESIDUAL
    assert spec.n_windows == 1
    _assert_same_spectrum(spec, _one_window(
        monkeypatch, tangent.benettin_spectrum, coc))
    _, sweep_spec, _ = tangent._clv_sweep(coc.jacobians[None], 500)
    assert sweep_spec.n_windows == 1
    assert sweep_spec.boundary_residual > tangent._MAX_RESIDUAL


@pytest.mark.parametrize("reorth_interval", [1, 4])
def test_rank_loss_reports_global_step(reorth_interval):
    _, orbit, coc = _cat_cocycle(4000)
    J = coc.jacobians.copy()
    J[1000] = 0.0                        # inside the fourth window's core
    bad = tangent.TangentCocycle(orbit, J)
    with pytest.raises(NumericalDegeneracyError) as exc:
        tangent.benettin_spectrum(bad, reorth_interval=reorth_interval)
    assert exc.value.step == 1000
    with pytest.raises(NumericalDegeneracyError) as exc:
        tangent.compute_clvs(bad, warmup=500)
    assert exc.value.step == 1000


def test_affine_recurrence_windows_match_sequential_loop():
    rng = np.random.default_rng(5)
    c = rng.uniform(-0.6, 0.6, (3, 1500))
    d = rng.standard_normal((3, 1500))
    y = np.zeros((3, 1501))
    for t in range(1500):
        y[:, t + 1] = c[:, t] * y[:, t] + d[:, t]
    out = tangent._affine_recurrence(c, d)
    # window 0 starts where the loop does; the others forget their start
    # over the overlap
    assert np.abs(out - y).max() < 1e-12 * np.abs(y).max()
    # no contraction: the windows disagree and the one-window rerun is the
    # sequential sum
    ones = np.ones((3, 1500))
    assert np.array_equal(tangent._affine_recurrence(ones, d)[:, 1:],
                          np.cumsum(d, axis=1))


# The small-matrix kernels against LAPACK, and their independence of the
# stack a matrix sits in.  Matrices are U diag(s) V^T with singular values
# down to 10^-log_cond, up to the ~1e7 of Benettin's 8-step block products.

EPS = np.finfo(float).eps


def _conditioned(seed, n, m, k, log_cond):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    s = np.logspace(0.0, -log_cond, k) * rng.uniform(0.5, 2.0, (n, 1))
    return (U * s[:, None, :]) @ V


def _lapack_qr_pos(A):
    Q, R = np.linalg.qr(A)
    sign = np.where(np.diagonal(R, axis1=-2, axis2=-1) < 0, -1.0, 1.0)
    return Q * sign[..., None, :], R * sign[..., :, None]


def _same_bits_alone_and_strided(kernel, *stacks):
    """kernel on the stack gives the bits it gives on each matrix alone and
    on every other row of a stack twice as tall."""
    def run(*args):
        out = kernel(*args)
        return out if isinstance(out, tuple) else (out,)

    whole = run(*stacks)
    for i in range(stacks[0].shape[0]):
        for w, a in zip(whole, run(*(x[i] for x in stacks))):
            assert np.array_equal(w[i], a)
    tall = []
    for x in stacks:
        t = np.full((2 * x.shape[0],) + x.shape[1:], np.nan)
        t[::2] = x
        tall.append(t)
    for w, t in zip(whole, run(*tall)):
        assert np.array_equal(w, t[::2])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 6), st.floats(0.0, 7.0))
@settings(max_examples=60, deadline=None)
def test_qr_kernel_properties(seed, d, k, n, log_cond):
    k = min(k, d)                      # square, or tall as for basis()
    A = _conditioned(seed, n, d, k, log_cond)
    cond = np.linalg.cond(A).max()
    Q, R = tangent._qr_pos(A)
    assert Q.shape == (n, d, k) and R.shape == (n, k, k)
    gram = np.swapaxes(Q, -2, -1) @ Q
    assert np.abs(gram - np.eye(k)).max() <= 1e-14
    assert np.all(np.tril(R, -1) == 0.0)
    assert np.all(np.diagonal(R, axis1=-2, axis2=-1) > 0.0)
    scale = np.abs(A).max()
    assert np.abs(Q @ R - A).max() <= 1e-14 * scale
    # forward error of a backward-stable QR: cond * eps
    Q0, R0 = _lapack_qr_pos(A)
    assert np.abs(Q - Q0).max() <= 20 * cond * EPS
    assert np.abs(R - R0).max() <= 20 * cond * EPS * scale
    _same_bits_alone_and_strided(tangent._qr_pos, A)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6),
       st.floats(0.0, 7.0))
@settings(max_examples=60, deadline=None)
def test_back_substitution_properties(seed, d, n, log_cond):
    _, R = tangent._qr_pos(_conditioned(seed, n, d, d, log_cond))
    rng = np.random.default_rng(seed + 1)
    C = np.triu(rng.uniform(-1.0, 1.0, (n, d, d)))
    X = tangent._back_substitute(R, C)
    assert np.all(np.tril(X, -1) == 0.0)
    X0 = np.linalg.solve(R, C)
    cond = np.linalg.cond(R).max()
    assert np.abs(X - X0).max() <= 20 * cond * EPS * np.abs(X0).max()
    _same_bits_alone_and_strided(tangent._back_substitute, R, C)


def test_rank_loss_names_the_reorth_interval(henon_family, henon_orbit):
    # Henon's exponent gap of about 2 squeezes the second column of a
    # 50-step block product by about e^-100, below working precision
    coc = tangent.TangentCocycle.from_orbit(henon_family, 1.4,
                                            henon_orbit[:20_001])
    with pytest.raises(NumericalDegeneracyError,
                       match="block products of reorth_interval = 50 "
                             "steps lost rank") as exc:
        tangent.benettin_spectrum(coc, reorth_interval=50)
    assert exc.value.step % 50 == 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 1499),
       st.sampled_from([1, 3]))
@settings(max_examples=20, deadline=None)
def test_rank_loss_step_without_warnings(seed, d, step, reorth_interval):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((1500, d, d))
    J[step] = 0.0
    coc = tangent.TangentCocycle(np.zeros((1501, d)), J)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDegeneracyError) as exc:
            tangent.benettin_spectrum(coc, reorth_interval=reorth_interval)
        assert exc.value.step == step // reorth_interval * reorth_interval
        with pytest.raises(NumericalDegeneracyError) as exc:
            tangent.compute_clvs(coc, warmup=100)
        assert exc.value.step == step


def test_splitting_angle_keeps_its_digits():
    # the exact angle of (cos t, sin t) is t to within a few ulps, and
    # arccos(cos t) carries the rounding of cos t near 1, about 1e-2 of t
    theta = 1e-7
    c, s = math.cos(theta), math.sin(theta)
    sp = tangent.OseledetsSplitting(
        points=np.zeros((1, 2)), clvs=np.array([[[1.0, c], [0.0, s]]]),
        n_unstable=1, offset=0, spectrum=None)
    assert abs(tangent.splitting_angles(sp)[0] - theta) <= 1e-14 * theta
    line = response._line_angle(np.array([1.0, 0.0]), np.array([c, s]))
    assert abs(line - theta) <= 1e-14 * theta


@pytest.mark.parametrize("n_unstable", [1, 2, 3])
def test_splitting_angles_match_scipy(n_unstable):
    clvs = np.random.default_rng(n_unstable).standard_normal((20, 4, 4))
    sp = tangent.OseledetsSplitting(
        points=np.zeros((20, 4)), clvs=clvs, n_unstable=n_unstable,
        offset=0, spectrum=None)
    ref = [scipy.linalg.subspace_angles(V[:, :n_unstable],
                                        V[:, n_unstable:]).min()
           for V in clvs]
    assert np.abs(tangent.splitting_angles(sp) - ref).max() <= 1e-12
