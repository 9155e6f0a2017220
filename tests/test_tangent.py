import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orbit_of, sample_of
from srblab import maps, measure, response, tangent
from srblab.errors import (HyperbolicityError, InsufficientDataError,
                           NumericalDegeneracyError)

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_LAMBDA = np.log((3.0 + np.sqrt(5.0)) / 2.0)


def _cat_sample(n=20_000, alpha=0.0, name="cat_translate"):
    """(family, orbit (n+1, d), the orbit as a sample of one member)."""
    fam = maps.get_family(name)
    orbit = orbit_of(fam, alpha, np.array([0.2357, 0.7113]), n)
    return fam, orbit, sample_of(fam, alpha, orbit[None])


def test_cat_spectrum_matches_eigenvalues():
    _, _, emp = _cat_sample()
    spec = tangent.benettin_spectrum(emp, reorth_interval=1)
    # finite-orbit alignment transient decays like 1/n; 2e4 steps -> ~1e-5
    assert abs(spec.all_exponents[0] - CAT_LAMBDA) < 1e-4
    assert abs(spec.all_exponents[1] + CAT_LAMBDA) < 1e-4
    spec.require_hyperbolic()


def test_spectrum_sorted_descending():
    fam = maps.get_family("coupled_henon")
    orbit = orbit_of(fam, 1.4,
                     orbit_of(fam, 1.4, np.full(4, 0.05), 1000)[-1],
                     50_000)
    spec = tangent.benettin_spectrum(sample_of(fam, 1.4, orbit[None]),
                                     reorth_interval=4)
    assert np.all(np.diff(spec.all_exponents) <= 0)
    assert spec.dimension == 4


def test_qr_sum_rule_is_algebraic():
    _, _, emp = _cat_sample(5000, alpha=0.2, name="cat_shear")
    spec = tangent.benettin_spectrum(emp, reorth_interval=1)
    assert abs(spec.sum() - spec.mean_log_det) < 1e-8


def test_seed_independence():
    fam, orbit, emp = _cat_sample(30_000, alpha=0.2, name="cat_shear")
    rng = np.random.default_rng(3)
    q0, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    # the sweep from the identity on q0^T J q0 is the sweep from q0 on J,
    # its frames turned by q0^T
    J = fam.jacobian(0.2, orbit[None, :-1])
    turned = sample_of(fam, 0.2, orbit[None], q0.T @ J @ q0)
    a = tangent.benettin_spectrum(emp, reorth_interval=4)
    b = tangent.benettin_spectrum(turned, reorth_interval=4)
    sig = np.abs(a.all_exponents - b.all_exponents) / np.hypot(
        a.all_stderr, b.all_stderr)
    assert np.all(sig < 3.0)


def test_reorth_interval_consistency():
    fam, orbit, emp = _cat_sample(20_000, alpha=0.2, name="cat_shear")
    b = tangent.benettin_spectrum(emp, reorth_interval=8)
    # both average steps 512 on, after a warm-up of 64 blocks: 8-step
    # blocks from step 0, single steps from step 448
    skip = 7 * tangent._OVERLAP
    a = tangent.benettin_spectrum(sample_of(fam, 0.2, orbit[None, skip:]),
                                  reorth_interval=1)
    assert a.n_steps == b.n_steps == 20_000 - 8 * tangent._OVERLAP
    assert np.abs(a.all_exponents - b.all_exponents).max() < 1e-9


def test_benettin_warm_up_forgets_a_one_ulp_change():
    # the default coupled_henon orbit lies on its synchronised diagonal,
    # where the frame's middle columns start nearly degenerate: averaged
    # from block 0, a one-ulp change of the Jacobians moved lambda_2 and
    # lambda_3 by 4.2e-5; after the warm-up they move by at most 5.9e-14
    # (seeds 0-3, either direction)
    fam = maps.get_family("coupled_henon")
    emp = measure.srb_sample(fam, 1.4, 10_000, 20_001, 1, 0)
    a = tangent.benettin_spectrum(emp, reorth_interval=4)
    assert a.n_steps == 20_000 - 4 * tangent._OVERLAP
    J = fam.jacobian(1.4, emp.orbits[:, :-1])
    for direction in (np.inf, -np.inf):
        b = tangent.benettin_spectrum(sample_of(
            fam, 1.4, emp.orbits, np.nextafter(J, direction)), 4)
        assert np.abs(a.all_exponents - b.all_exponents).max() < 1e-12


def test_benettin_pools_a_stack_of_members():
    fam = maps.get_family("cat_shear")
    emp = measure.srb_sample(fam, 0.25, transient=200, length=4001,
                             ensemble=3, seed=4)
    stack = tangent.benettin_spectrum(emp, 4)
    alone = [tangent.benettin_spectrum(sample_of(fam, 0.25, orbit[None]), 4)
             for orbit in emp.orbits]
    assert stack.n_steps == sum(s.n_steps for s in alone) == 3 * 3744
    mean = np.mean([s.all_exponents for s in alone], axis=0)
    assert np.abs(stack.all_exponents - mean).max() < 1e-14
    one = tangent.benettin_spectrum(sample_of(fam, 0.25, emp.orbits[:1]), 4)
    _assert_same_spectrum(one, alone[0])


def test_benettin_needs_n_batches_blocks_after_the_warm_up():
    fam, orbit, emp = _cat_sample(4 * (tangent._OVERLAP + tangent.N_BATCHES))
    spec = tangent.benettin_spectrum(emp, reorth_interval=4)
    assert spec.n_steps == 4 * tangent.N_BATCHES
    short = sample_of(fam, 0.0, orbit[None, :-4])
    with pytest.raises(InsufficientDataError):
        tangent.benettin_spectrum(short, reorth_interval=4)
    # two members of 74 blocks leave 2 x 10
    pair = sample_of(fam, 0.0, np.stack([orbit[:297], orbit[-297:]]))
    assert tangent.benettin_spectrum(pair, 4).n_steps == 4 * 20


def test_cat_clvs_are_constant_eigenvectors():
    sp = tangent.compute_clvs(_cat_sample(6000)[2], warmup=1000)
    w, v = np.linalg.eigh(CAT)
    vu, vs = v[:, 1], v[:, 0]
    assert np.abs(np.abs(sp.clvs[..., 0] @ vu) - 1).max() < 1e-10
    assert np.abs(np.abs(sp.clvs[..., 1] @ vs) - 1).max() < 1e-10


def test_clv_covariance_linear():
    fam, _, emp = _cat_sample(6000)
    sp = tangent.compute_clvs(emp, warmup=1000)
    ru, rs = tangent.covariance_residuals(sp, fam, 0.0)
    assert max(ru.max(), rs.max()) < 1e-6


def test_clv_covariance_henon(henon_family, henon_splitting):
    ru, rs = tangent.covariance_residuals(henon_splitting, henon_family, 1.4)
    # interior points: discard a margin at both ends of the window
    assert max(ru[0, 1000:-1000].max(), rs[0, 1000:-1000].max()) < 1e-3


def test_splitting_angle_bounds(henon_splitting):
    sp = henon_splitting
    ang = tangent.splitting_angles(sp)
    assert ang.min() >= 0.0 and ang.max() <= np.pi / 2 + 1e-12
    assert sp.n_unstable == 1


def test_splitting_basis_orthonormal(henon_splitting):
    bu = henon_splitting.basis("u")
    gram = np.einsum("...ia,...ib->...ab", bu, bu)
    assert np.abs(gram - np.eye(bu.shape[-1])).max() < 1e-12


def test_compute_clvs_rejects_near_zero_exponent():
    fam = maps.get_family("standard_map")
    # small kicking: near-integrable, rotation-dominated orbits
    orbit = orbit_of(fam, 0.05, np.array([0.38, 0.12]), 20_000)
    with pytest.raises(HyperbolicityError):
        tangent.compute_clvs(sample_of(fam, 0.05, orbit[None]), warmup=500)


@pytest.mark.parametrize("name,alpha", [("henon", 1.4), ("cat_shear", 0.25)])
def test_stack_clvs_equal_each_members_own_sweep(name, alpha):
    # the members of a stack share its windows and nothing else: each
    # member's CLVs are those of its own sweep, bit for bit, and the pooled
    # spectrum is Benettin's at reorth 1, with the same warm-up left out
    fam = maps.get_family(name)
    emp = measure.srb_sample(fam, alpha, transient=2000, length=20_000,
                             ensemble=3, seed=4)
    stack = tangent.compute_clvs(emp, warmup=1000)
    assert stack.spectrum.n_windows == 78
    assert stack.spectrum.boundary_residual == 0.0
    assert stack.spectrum.n_steps == 3 * (19_999 - tangent._OVERLAP)
    _assert_same_spectrum(stack.spectrum, tangent.benettin_spectrum(emp, 1))
    for b, orbit in enumerate(emp.orbits):
        alone = tangent.compute_clvs(sample_of(fam, alpha, orbit[None]), 1000)
        assert np.array_equal(alone.clvs[0], stack.clvs[b])
        assert np.array_equal(alone.points[0], stack.points[b])


def test_clv_sweep_builds_the_clvs_in_the_forward_frames(henon_family,
                                                         henon_orbit):
    # the forward pass keeps every frame Q and every R, each about the
    # Jacobian stack's size, and the CLVs overwrite Q's window in place:
    # traced peak 3.51 x the stack's bytes (4.41 x with a copied window)
    J = henon_family.jacobian(1.4, henon_orbit[None, :20_000])
    tracemalloc.start()
    try:
        tangent._clv_sweep(J, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * J.nbytes


# The windowed sweeps against their one-window run, which is the sequential
# sweep: a core longer than any orbit leaves a single window.


def _one_window(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(tangent, "_CORE", 10**9)
        return fn(*args, **kwargs)


def _assert_same_spectrum(a, b):
    for name in ("all_exponents", "all_stderr", "exponents"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.mean_log_det == b.mean_log_det
    assert a.n_steps == b.n_steps


def test_windowed_clvs_bitwise_on_henon(monkeypatch, henon_family,
                                        henon_orbit):
    # det Df = -0.3: windows started from the identity come out with flipped
    # column signs, which the alignment must undo exactly
    emp = sample_of(henon_family, 1.4, henon_orbit[None, :30_001])
    windowed = tangent.compute_clvs(emp, warmup=1000)
    single = _one_window(monkeypatch, tangent.compute_clvs, emp, warmup=1000)
    assert windowed.spectrum.n_windows > 100
    assert single.spectrum.n_windows == 1
    assert windowed.spectrum.boundary_residual == 0.0
    assert np.array_equal(windowed.clvs, single.clvs)
    _assert_same_spectrum(windowed.spectrum, single.spectrum)


def test_windowed_batched_sweep_bitwise_on_cat_shear(monkeypatch):
    fam = maps.get_family("cat_shear")
    emp = measure.srb_sample(fam, 0.25, transient=200, length=6000,
                             ensemble=16, seed=5)
    J = fam.jacobian(0.25, emp.orbits[:, :-1])
    clvs, logs, n_windows, _ = tangent._clv_sweep(J, 500)
    clvs1, logs1, n_windows1, _ = _one_window(monkeypatch,
                                              tangent._clv_sweep, J, 500)
    assert J.shape[0] == 16 and n_windows > 1 and n_windows1 == 1
    assert np.array_equal(clvs, clvs1)
    assert np.array_equal(logs, logs1)


@pytest.mark.parametrize("reorth_interval", [1, 8])
def test_windowed_benettin_bitwise(monkeypatch, reorth_interval):
    _, _, emp = _cat_sample(20_000, alpha=0.2, name="cat_shear")
    a = tangent.benettin_spectrum(emp, reorth_interval=reorth_interval)
    b = _one_window(monkeypatch, tangent.benettin_spectrum, emp,
                    reorth_interval=reorth_interval)
    assert a.n_windows > 1 and b.n_windows == 1
    _assert_same_spectrum(a, b)


@pytest.mark.parametrize("steps", [300, 321, 5077])
def test_windowed_sweep_any_length(monkeypatch, steps):
    # 300 fits one window; 321 leaves the second window a single step
    fam, orbit, _ = _cat_sample(6000, alpha=0.2, name="cat_shear")
    emp = sample_of(fam, 0.2, orbit[None, :steps + 1])
    a = tangent.benettin_spectrum(emp, reorth_interval=1)
    b = _one_window(monkeypatch, tangent.benettin_spectrum, emp,
                    reorth_interval=1)
    assert a.n_steps == steps - tangent._OVERLAP
    _assert_same_spectrum(a, b)
    J = fam.jacobian(0.2, orbit[None, :steps])
    clvs, logs, _, _ = tangent._clv_sweep(J, 100)
    clvs1, logs1, _, _ = _one_window(monkeypatch, tangent._clv_sweep, J, 100)
    assert np.array_equal(clvs, clvs1)
    assert np.array_equal(logs, logs1)


def test_window_fallback_on_near_integrable_map(monkeypatch):
    fam = maps.get_family("standard_map")
    orbit = orbit_of(fam, 0.05, np.array([0.38, 0.12]), 20_000)
    emp = sample_of(fam, 0.05, orbit[None])
    spec = tangent.benettin_spectrum(emp, reorth_interval=1)
    # frames do not converge across the overlap: rerun as one window
    assert spec.boundary_residual > tangent._MAX_RESIDUAL
    assert spec.n_windows == 1
    _assert_same_spectrum(spec, _one_window(
        monkeypatch, tangent.benettin_spectrum, emp, reorth_interval=1))
    _, _, n_windows, residual = tangent._clv_sweep(
        fam.jacobian(0.05, orbit[None, :-1]), 500)
    assert n_windows == 1
    assert residual > tangent._MAX_RESIDUAL


def test_overlap_ladder_keeps_coupled_henon_windowed(monkeypatch):
    # at overlap 64 this orbit's frames disagree by 1.5e-10 where windows
    # hand over, which the reported residual keeps; at twice the overlap
    # they agree, bit for bit with the sequential sweep
    fam = maps.get_family("coupled_henon")
    emp = measure.srb_sample(fam, 1.4, transient=2000, length=3000,
                             ensemble=1, seed=100)
    spec = tangent.benettin_spectrum(emp, reorth_interval=1)
    assert spec.n_windows > 1
    assert spec.boundary_residual > tangent._MAX_RESIDUAL
    _assert_same_spectrum(spec, _one_window(
        monkeypatch, tangent.benettin_spectrum, emp, reorth_interval=1))
    J = fam.jacobian(1.4, emp.orbits[:, :-1])
    clvs, logs, n_windows, residual = tangent._clv_sweep(J, 500)
    assert n_windows > 1 and residual > tangent._MAX_RESIDUAL
    clvs1, logs1, _, _ = _one_window(monkeypatch, tangent._clv_sweep, J, 500)
    assert np.array_equal(clvs, clvs1)
    assert np.array_equal(logs, logs1)


@pytest.mark.parametrize("reorth_interval", [1, 4])
def test_rank_loss_reports_global_step(reorth_interval):
    fam, orbit, _ = _cat_sample(4000)
    J = fam.jacobian(0.0, orbit[None, :-1])
    J[0, 1000] = 0.0                     # inside the fourth window's core
    bad = sample_of(fam, 0.0, orbit[None], J)
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
    out, n_windows, residual = tangent._affine_recurrence(c, d)
    # window 0 starts where the loop does; the others forget their start
    # over the overlap
    assert np.abs(out - y).max() < 1e-12 * np.abs(y).max()
    assert n_windows > 1 and residual <= tangent._MAX_RESIDUAL
    # no contraction: the windows disagree and the one-window rerun is the
    # sequential sum
    ones = np.ones((3, 1500))
    out, n_windows, residual = tangent._affine_recurrence(ones, d)
    assert np.array_equal(out[:, 1:], np.cumsum(d, axis=1))
    assert n_windows == 1 and residual > tangent._MAX_RESIDUAL


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


def _ginelli_reference(J, warmup):
    """CLVs of one cocycle J (n, d, d) at frames _clv_window(n, warmup), by
    Ginelli's pass as published: LAPACK QR forward, then A_j = R_j^-1 A_{j+1}
    by np.linalg.solve from the upper-triangular ones, columns normalised."""
    n, d, _ = J.shape
    Qs, Rs = [np.eye(d)], []
    for j in range(n):
        Q, R = _lapack_qr_pos(J[j] @ Qs[-1])
        Qs.append(Q)
        Rs.append(R)
    A = np.triu(np.ones((d, d)))
    V = np.empty((n + 1, d, d))
    for j in range(n, -1, -1):
        if j < n:
            A = np.linalg.solve(Rs[j], A)
        A /= np.linalg.norm(A, axis=0)
        V[j] = Qs[j] @ A
    lo, hi = tangent._clv_window(n, warmup)
    return V[lo:hi] / np.linalg.norm(V[lo:hi], axis=-2, keepdims=True)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_recurrence_clvs_match_ginelli(seed, d):
    # J_j = O_{j+1} diag(e^lambda) (I + U_j) O_j^T with random rotations O
    # and entries of U_j uniform in [-1/2d, 1/2d], so ||U_j|| <= 1/2 and
    # cond(J_j) <= 3 e^2: exponents near lambda, gaps about 2 / (d - 1)
    rng = np.random.default_rng(seed)
    n, warmup = 700, 150
    lam = np.linspace(1.0, -1.0, d)
    O = np.linalg.qr(rng.standard_normal((n + 1, d, d)))[0]
    T = np.exp(lam)[:, None] * (np.eye(d)
                                + rng.uniform(-0.5, 0.5, (n, d, d)) / d)
    J = O[1:] @ T @ np.swapaxes(O[:-1], -2, -1)
    clvs, _, n_windows, residual = tangent._clv_sweep(J[None], warmup)
    assert n_windows > 1 and residual <= tangent._MAX_RESIDUAL
    V = clvs[0]
    # both passes give CLV c a positive component along Q's column c, so
    # no sign is aligned; on 120 draws they agreed to 6e-16, and the
    # covariance below held to 2e-15
    assert np.abs(V - _ginelli_reference(J, warmup)).max() <= 1e-13
    # covariance: J_j v_j is parallel to v_{j+1}, column by column
    lo = tangent._clv_window(n, warmup)[0]
    pushed = J[lo:lo + V.shape[0] - 1] @ V[:-1]
    along = np.sum(pushed * V[1:], axis=-2, keepdims=True) * V[1:]
    assert (np.linalg.norm(pushed - along, axis=-2)
            <= 1e-13 * np.linalg.norm(pushed, axis=-2)).all()


def test_rank_loss_names_the_reorth_interval(henon_family, henon_orbit):
    # Henon's exponent gap of about 2 squeezes the second column of a
    # 50-step block product by about e^-100, below working precision
    emp = sample_of(henon_family, 1.4, henon_orbit[None, :20_001])
    with pytest.raises(NumericalDegeneracyError,
                       match="block products of reorth_interval = 50 "
                             "steps lost rank") as exc:
        tangent.benettin_spectrum(emp, reorth_interval=50)
    assert exc.value.step % 50 == 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 1499),
       st.sampled_from([1, 3]))
@settings(max_examples=20, deadline=None)
def test_rank_loss_step_without_warnings(seed, d, step, reorth_interval):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((1, 1500, d, d))
    J[0, step] = 0.0
    emp = sample_of(maps.get_family("henon"), 0.0, np.zeros((1, 1501, d)), J)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDegeneracyError) as exc:
            tangent.benettin_spectrum(emp, reorth_interval=reorth_interval)
        assert exc.value.step == step // reorth_interval * reorth_interval
        with pytest.raises(NumericalDegeneracyError) as exc:
            tangent.compute_clvs(emp, warmup=100)
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
