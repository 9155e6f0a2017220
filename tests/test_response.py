import dataclasses
import os
import pickle
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orbit_of, planes_of, stack_of
from srblab import maps, measure, pade, response, stats, tangent
from srblab.errors import (InsufficientDataError, NumericalDegeneracyError,
                           PadeDegeneracyError, ParameterError,
                           UnsupportedDimensionError)
from srblab.response import SusceptibilitySeries


@pytest.fixture(scope="module")
def cat_translate_measure():
    fam = maps.get_family("cat_translate")
    emp = measure.srb_sample(fam, 0.1, transient=500, length=20_000,
                             ensemble=8, seed=3)
    return fam, emp


def _quadrature_kappa(fam, step, alpha, X_fn, obs, N, grid=400):
    """Dense-grid quadrature oracle for kappa_n on a Lebesgue-invariant
    torus family, with step its array step: kappa_n = int X . (Df^n)^T
    grad(phi)(f^n x) dx."""
    t = (np.arange(grid) + 0.5) / grid
    xx, yy = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    X = stack_of(X_fn(pts))
    out = np.empty(N + 1)
    cur = pts
    V = X.copy()
    for n in range(N + 1):
        g = stack_of(obs.gradient(cur))
        out[n] = np.mean(np.sum(V * g, axis=-1))
        J = stack_of(fam.jacobian(alpha, cur), 2)
        V = np.einsum("sab,sb->sa", J, V)
        cur = fam.chart.reduce(step(alpha, cur))
    return out


def test_kappa_matches_quadrature_oracle(cat_translate_measure, array_step):
    fam, emp = cat_translate_measure
    alpha = 0.1
    phi = maps.get_observable("bump", 2)
    ser = response.susceptibility_coefficients(emp, phi, 6)
    oracle = _quadrature_kappa(fam, array_step(fam), alpha,
                               lambda p: fam.param_derivative(alpha, p),
                               phi, 6)
    sig = np.abs(ser.coeffs - oracle) / ser.stderr
    assert np.all(sig < 3.5)


def kappa_adjoint(measure, obs, N):
    """Adjoint-route kappa_n: back-propagate gradients by transposed
    Jacobians, W_n(x_j) = J_j^T W_{n-1}(x_{j+1}) with W_0 = grad phi, before
    dotting with X.  Pure linear-algebra dual of susceptibility_coefficients
    on the same sample set (no error bars), on component planes: jacT[a, b]
    is the Jacobian entry (b, a)."""
    orbits = measure.orbits
    m, L, d = orbits.shape
    S = L - 1 - N
    jacT = np.swapaxes(measure.family.jacobian(measure.alpha,
                                               orbits[:, 1:-1]), 0, 1)
    Xs = measure.family.param_derivative(measure.alpha, orbits[:, :S])
    # W_n at orbit indices 1..L-1-n
    W = obs.gradient(orbits)[..., 1:]
    out = np.empty(N + 1)
    for n in range(N + 1):
        if n > 0:
            W = tangent._matvec(jacT[..., :W.shape[-1] - 1], W[..., 1:])
        out[n] = np.einsum("dms,dms->ms", Xs, W[..., :S]).mean()
    return out


def test_kappa_adjoint_identity(cat_translate_measure, small_catshear):
    """cat_shear's Jacobian varies along the orbit, so an off-by-one
    Jacobian index in either route shows there."""
    phi = maps.get_observable("bump", 2)
    for fam, emp in (cat_translate_measure, small_catshear):
        ser = response.susceptibility_coefficients(emp, phi, 8)
        adj = kappa_adjoint(emp, phi, 8)
        scale = np.abs(ser.coeffs).max()
        assert np.abs(ser.coeffs - adj).max() < 1e-10 * max(scale, 1.0)


def test_kappa_linearity_in_field(cat_translate_measure):
    """kappa is linear in X: scaling and adding fields act coefficient-wise."""
    _, emp = cat_translate_measure
    phi = maps.get_observable("cos_1_0", 2)
    two_pi = 2 * np.pi

    def f1(x):
        return np.stack([np.sin(two_pi * x[..., 1]),
                         np.zeros(x.shape[:-1])], axis=-1)

    def f2(x):
        return np.stack([np.zeros(x.shape[:-1]),
                         np.cos(two_pi * x[..., 0])], axis=-1)

    a, b = 0.7, -1.3

    def series(f):
        return response._field_series(
            emp, lambda orb: planes_of(f(orb[:, 1:])), phi, 5).coeffs

    k1, k2 = series(f1), series(f2)
    k12 = series(lambda x: a * f1(x) + b * f2(x))
    assert np.abs(k12 - (a * k1 + b * k2)).max() < 1e-10


def test_kappa_finite_and_errors_positive(catshear_split):
    _, _, _, split = catshear_split
    for ser in (split.direct, split.stable, split.unstable):
        assert np.all(np.isfinite(ser.coeffs))
        assert np.all(ser.stderr > 0)


def test_kappa_overflow_truncates():
    fam = maps.get_family("henon")
    emp = measure.srb_sample(fam, 1.4, transient=1000, length=3000,
                             ensemble=4, seed=2)
    phi = maps.get_observable("coord_0", 2)
    ser = response.susceptibility_coefficients(emp, phi, 900)
    assert ser.meta["truncated_at"] is not None
    assert np.all(np.isfinite(ser.coeffs))
    # a nan or an inf entry truncates where it enters, as an overflow does
    for bad in (np.nan, np.inf, -np.inf):
        J = np.broadcast_to(np.eye(2)[..., None, None], (2, 2, 2, 50)).copy()
        J[0, 0, 1, 42] = bad               # last sample's step 4 from j0 = 10
        (parts,), trunc = response._kappa_series(J, np.ones((2, 1, 2, 30)),
                                                 np.ones((2, 2, 50)), 8, 10,
                                                 None, 2)
        assert trunc == 4 and len(parts) == 4


def _whole_stack_series(emp, obs, N):
    """(kappa_n series, overflow order) from one _kappa_series pass over
    the whole sample's Jacobian, field and gradient planes."""
    fam, alpha, orbits = emp.family, emp.alpha, emp.orbits
    m, L, _ = orbits.shape
    X = fam.param_derivative(alpha, orbits[:, :-1])[..., :L - 1 - N]
    (parts,), trunc = response._kappa_series(
        fam.jacobian(alpha, orbits[:, :-1]), X[:, None], obs.gradient(orbits),
        N, 1, None, m)
    return response._merged_series([parts], {}), trunc


def test_kappa_member_passes_match_the_whole_stack(henon_measure):
    """Each member's pass, in the whole sample's batch layout, gives the
    whole-stack pass's standard errors bit for bit; a mean adds the
    members' totals, which moves it by rounding only.  The move is measured
    against the series' largest |kappa_n|: a coefficient near zero moves by
    more relative to itself.  A member whose tangent vectors overflow stops
    the pooled series at its order."""
    def check(emp, obs, truncated_at):
        phi = maps.get_observable(obs, 2)
        ser = response.susceptibility_coefficients(emp, phi, 12)
        ref, trunc = _whole_stack_series(emp, phi, 12)
        assert trunc == ser.meta["truncated_at"] == truncated_at
        assert ser.coeffs.size == ref.coeffs.size == (truncated_at or 13)
        assert np.array_equal(ser.stderr, ref.stderr)
        scale = np.abs(ref.coeffs).max()
        assert np.abs(ser.coeffs - ref.coeffs).max() <= 1e-14 * scale

    check(henon_measure, "cos_1_0", None)
    # an infinite x in member 2 is first reached by its Jacobians at order
    # 7, past its field (orbit indices 1..S); coord_0's gradient is finite
    # there
    orbits = henon_measure.orbits.copy()
    S = orbits.shape[1] - 1 - 12
    orbits[2, S - 1 + 7, 0] = np.inf
    check(dataclasses.replace(henon_measure, orbits=orbits), "coord_0", 7)


def test_kappa_holds_one_member_at_a_time(henon_measure):
    """kappa_n holds one member's tangent arrays at a time: on 8 members of
    20,000 points the traced peak stays under 4 times one member's Jacobian
    bytes, 2 x 2 x 19,999 x 8 (3.1 times here; the whole stack took 28)."""
    phi = maps.get_observable("cos_1_0", 2)
    tracemalloc.start()
    try:
        response.susceptibility_coefficients(henon_measure, phi, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 * 2 * 19_999 * 8


def test_radius_requires_enough_coefficients():
    ser = SusceptibilitySeries(np.ones(5), np.full(5, 0.1), {})
    with pytest.raises(ParameterError):
        response.radius_estimate(ser, method="root-test")


@pytest.mark.parametrize("coeffs", [
    np.zeros(12), np.random.default_rng(0).standard_normal(12) * 1e-6])
def test_radius_checks_its_method_first(coeffs):
    # before the zero-series and noise-dominated returns
    ser = SusceptibilitySeries(coeffs, np.full(12, 1e-4), {})
    with pytest.raises(ParameterError, match="unknown radius method"):
        response.radius_estimate(ser, method="foo")


def test_radius_zero_series_flag():
    ser = SusceptibilitySeries(np.zeros(12), np.zeros(12), {})
    est = response.radius_estimate(ser, method="root-test")
    assert est.value == np.inf
    assert est.flag == "zero-series"


@pytest.mark.parametrize("r", [0.5, 1.2, 3.0])
@pytest.mark.parametrize("method", ["root-test", "pade-pole"])
def test_radius_calibration_geometric(r, method):
    n = np.arange(16)
    coeffs = 2.0 * r ** (-n.astype(float))
    ser = SusceptibilitySeries(coeffs, np.full(16, 1e-10), {})
    est = response.radius_estimate(ser, method=method)
    assert not est.indeterminate
    assert est.value == pytest.approx(r, rel=0.02)


def test_radius_noise_dominated_indeterminate():
    rng = np.random.default_rng(0)
    ser = SusceptibilitySeries(rng.standard_normal(12) * 1e-6,
                               np.full(12, 1e-4), {})
    est = response.radius_estimate(ser, method="root-test")
    assert est.indeterminate


def test_radius_lower_bound_when_tail_below_noise():
    # resolved head decaying into a flat noise floor
    coeffs = np.array([1e-1, 4e-1, 1e-5, -2e-5, 1e-5, 8e-6, -1e-5,
                       5e-6, -3e-6, 1e-5, -8e-6, 4e-6])
    ser = SusceptibilitySeries(coeffs, np.full(12, 1e-5), {})
    est = response.radius_estimate(ser, method="root-test")
    assert est.flag == "lower-bound-tail-below-noise"
    assert est.value > 1.0
    assert est.ci[0] > 1.0 and est.ci[1] == np.inf


@given(st.floats(1.3, 4.0), st.floats(0.05, 2.0))
@settings(max_examples=30, deadline=None)
def test_radius_interval_contains_estimate(r, c):
    n = np.arange(14)
    ser = SusceptibilitySeries(c * r ** (-n.astype(float)),
                               np.full(14, 1e-11), {})
    est = response.radius_estimate(ser, method="root-test")
    assert est.value > 0
    assert est.ci[0] <= est.value <= est.ci[1]


@pytest.mark.parametrize("method,value,window", [
    ("root-test", 1.1999999999999997, (8, 15)),
    ("pade-pole", 1.1999999999999993, None)])
def test_radius_without_error_bars_has_a_point_interval(method, value, window):
    """Every bootstrap draw equals the coefficients, so every draw's
    estimate is the value and both percentiles are that value exactly."""
    n = np.arange(16)
    ser = SusceptibilitySeries(2.0 * 1.2 ** (-n.astype(float)), np.zeros(16),
                               {})
    est = response.radius_estimate(ser, method=method)
    assert est.value == value and est.ci == (value, value)
    assert est.fit_window == window


def test_root_test_fits_every_resolved_order_when_the_upper_half_is_short():
    # resolved orders 1, 2, 4, 8: the upper half {4, 8} has two points
    coeffs = np.array([1.0, 0.5, 0.3, 1e-6, 0.1, -1e-6, 2e-6, -1e-6, 0.01])
    ser = SusceptibilitySeries(coeffs, np.full(9, 1e-4), {})
    est = response.radius_estimate(ser, method="root-test")
    assert est.fit_window == (1, 8)
    assert est.value == 1.7527753248489786
    assert est.ci == (1.7481277038014256, 1.757972942516674)


def test_pade_pole_no_stable_pole():
    """Random signs on a geometric envelope: no pole of the order-6 fit
    persists at order 5, so every pole is screened."""
    rng = np.random.default_rng(0)
    n = np.arange(13)
    coeffs = rng.choice([-1, 1], 13) * rng.uniform(0.5, 2, 13) * 0.7 ** n
    ser = SusceptibilitySeries(coeffs, np.full(13, 1e-6), {})
    est = response.radius_estimate(ser, method="pade-pole")
    assert est.flag == "no-stable-pole"
    assert np.isnan(est.value) and est.indeterminate
    assert est.poles is None
    assert len(est.screened_poles) == 6


def _failing_pade(monkeypatch, exc, exact, every):
    """Make robust_pade raise exc on every `every`-th call after the first
    `exact` calls, which fit the unperturbed coefficients."""
    real = pade.robust_pade
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        if len(calls) > exact and len(calls) % every == 0:
            raise exc("draw failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(response, "robust_pade", fake)
    return calls


def test_pade_pole_bootstrap_drops_degenerate_draws_only(monkeypatch):
    n = np.arange(16)
    ser = SusceptibilitySeries(2.0 * 1.2 ** (-n.astype(float)),
                               np.full(16, 1e-10), {})
    ref = response.radius_estimate(ser, method="pade-pole")
    # every fit after the point estimate's two fails: all draws dropped
    _failing_pade(monkeypatch, PadeDegeneracyError, 2, 1)
    est = response.radius_estimate(ser, method="pade-pole")
    assert est.value == ref.value
    assert est.ci == (est.value, est.value)
    _failing_pade(monkeypatch, TypeError, 2, 1)
    with pytest.raises(TypeError):
        response.radius_estimate(ser, method="pade-pole")


def test_finite_difference_translate_family_zero_response():
    """Affine torus family: the invariant measure never moves, so both the
    derivative and the truncated series sum vanish within errors."""
    fam = maps.get_family("cat_translate")
    sampling = response.SamplingConfig(transient=500, length=20_000,
                                       ensemble=8, seed=11)
    phi = maps.get_observable("bump", 2)
    deriv, deriv_err = response.finite_difference_response(
        fam, 0.1, 0.05, phi, sampling)
    assert abs(deriv) < 3 * deriv_err
    emp = measure.srb_sample(fam, 0.1, transient=500, length=20_000,
                             ensemble=8, seed=12)
    ser = response.susceptibility_coefficients(emp, phi, 8)
    psi1, err1 = ser.truncated_sum()
    assert abs(psi1) < 3 * err1


def test_volume_identity_rejects_dissipative_family(henon_measure):
    phi = maps.get_observable("coord_0", 2)
    with pytest.raises(ParameterError):
        response.volume_preserving_identity(
            henon_measure, np.zeros_like, lambda x: np.zeros(x.shape[:-1]),
            phi, 5)


def test_split_reconstruction_and_stable_decay(catshear_split):
    fam, alpha, phi, split = catshear_split
    assert np.all(split.reconstruction_sigma()[:11] < 3.0)
    # stable-term decay is governed by the stable exponent (lambda_s is
    # close to -0.98 here); mixing modulation can only steepen it
    from srblab.stats import linear_fit
    mags = np.abs(split.stable.coeffs[1:])
    n = np.arange(1, split.stable.coeffs.size)
    _, rate, _, _ = linear_fit(n, np.log(mags))
    assert 0.7 < rate / -0.98 < 2.0
    assert 0.0 <= split.excluded_fraction < 0.5
    assert split.min_angle > 0.0


def test_split_unstable_divergence_vanishes_for_translate():
    fam = maps.get_family("cat_translate")
    emp = measure.srb_sample(fam, 0.1, transient=500, length=4000,
                             ensemble=8, seed=5)
    phi = maps.get_observable("cos_1_0", 2)
    res = response.stable_unstable_split(emp, phi, 6, clv_warmup=1000,
                                         angle_threshold=1e-3)
    # constant field, linear map: the unstable divergence term is zero
    assert np.abs(res.unstable.coeffs).max() < 1e-4


@pytest.fixture(scope="module")
def small_catshear():
    fam = maps.get_family("cat_shear")
    emp = measure.srb_sample(fam, 0.25, transient=300, length=3000,
                             ensemble=2, seed=4)
    return fam, emp


def test_split_warmup_within_the_overlap(small_catshear):
    # a warmup of up to one window overlap sweeps from frame 1, as 65 does;
    # below 1 it is an error
    _, emp = small_catshear
    phi = maps.get_observable("bump", 2)
    ref = response.stable_unstable_split(emp, phi, 4, clv_warmup=65,
                                         angle_threshold=1e-3)
    for warmup in (1, 50, 64):
        res = response.stable_unstable_split(emp, phi, 4,
                                             clv_warmup=warmup,
                                             angle_threshold=1e-3)
        for term in ("direct", "stable", "unstable"):
            a, b = getattr(res, term), getattr(ref, term)
            assert np.array_equal(a.coeffs, b.coeffs)
            assert np.array_equal(a.stderr, b.stderr)
    for warmup in (0, -5):
        with pytest.raises(ParameterError):
            response.stable_unstable_split(emp, phi, 4, clv_warmup=warmup,
                                           angle_threshold=1e-3)


@pytest.mark.parametrize("N", [0, -1])
def test_split_rejects_a_bad_order_before_its_sweep(monkeypatch,
                                                    small_catshear, N):
    def no_sweep(*args):
        raise AssertionError("the CLV sweep ran")
    monkeypatch.setattr(response, "_clv_sweep", no_sweep)
    _, emp = small_catshear
    with pytest.raises(ParameterError, match="N must be >= 1"):
        response.stable_unstable_split(emp, maps.get_observable("bump", 2), N,
                                       clv_warmup=300, angle_threshold=1e-3)


@pytest.mark.parametrize("warmup, error", [
    (1400, InsufficientDataError),     # 200 sample frames of the 250 needed
    (1600, ParameterError)])           # no converged CLV frame at all
def test_split_rejects_a_short_window_before_its_sweep(monkeypatch,
                                                       small_catshear,
                                                       warmup, error):
    def no_sweep(*args):
        raise AssertionError("the CLV sweep ran")
    monkeypatch.setattr(response, "_clv_sweep", no_sweep)
    _, emp = small_catshear
    with pytest.raises(error):
        response.stable_unstable_split(emp, maps.get_observable("bump", 2), 4,
                                       clv_warmup=warmup,
                                       angle_threshold=1e-3)


def _split(emp):
    return response.stable_unstable_split(
        emp, maps.get_observable("bump", 2), 4, clv_warmup=300,
        angle_threshold=1e-3)


def test_split_rejects_a_sink_before_any_recurrence(monkeypatch):
    # Henon at alpha 0.2 has an attracting fixed point: both exponents are
    # negative, so the split must stop before its manifold recurrences
    def no_recurrence(*args):
        raise AssertionError("a manifold recurrence ran")
    monkeypatch.setattr(response, "_affine_recurrence", no_recurrence)
    emp = measure.srb_sample(maps.get_family("henon"), 0.2, transient=1000,
                             length=4000, ensemble=4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedDimensionError,
                           match="one unstable direction, found 0"):
            response.stable_unstable_split(
                emp, maps.get_observable("cos_1_0", 2), 4, clv_warmup=300,
                angle_threshold=1e-3)


def test_split_memory_is_bounded_by_one_block(cpus):
    # 32 members, one at a time: the split's peak stays below one 2x2
    # matrix per step of every member, 32 x 2999 x 32 bytes, so no stack of
    # all members' CLVs or Jacobians is held; each member evaluates its
    # Jacobians once.  One CPU, so every member runs in this process
    cpus(1)
    fam = maps.get_family("cat_shear")
    calls = []

    def jacobian(alpha, x):
        calls.append(x.shape[0])
        return fam.jacobian(alpha, x)
    emp = measure.srb_sample(fam, 0.25, transient=500, length=3000,
                             ensemble=32, seed=5)
    emp = dataclasses.replace(
        emp, family=dataclasses.replace(fam, jacobian=jacobian))
    tracemalloc.start()
    try:
        _split(emp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2999 * 32
    assert calls == [1] * 32


def test_split_stops_at_its_first_failing_member(cpus, small_catshear):
    # a nan hessian fails the first member's geometry, and no later member
    # evaluates its Jacobians (one CPU, so no member runs in a worker)
    cpus(1)
    fam, emp = small_catshear
    calls = []

    def jacobian(alpha, x):
        calls.append(x.shape[0])
        return fam.jacobian(alpha, x)
    broken = dataclasses.replace(
        fam, jacobian=jacobian,
        hessian=lambda a, x, u, w: np.full(np.shape(u), np.nan))
    with pytest.raises(NumericalDegeneracyError):
        _split(dataclasses.replace(emp, family=broken))
    assert calls == [1]


def test_split_block_drops_its_stacks_once_read(cpus, small_catshear):
    # two members, one at a time in this process (one CPU): each member's
    # stacks are dropped once their planes are taken, and its recurrence
    # and geometry arrays before the cocycle pass, so the traced peak stays
    # below seven 2x2 matrices per step of one member, 2999 x 224 bytes
    # (0.57 MB here; 1.14 MB for one block of both members)
    cpus(1)
    _, emp = small_catshear
    tracemalloc.start()
    try:
        _split(emp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2999 * 224


@pytest.mark.parametrize("sample", ["small_catshear", "cat_translate"])
def test_split_is_bitwise_on_any_number_of_workers(cpus, small_catshear,
                                                   sample):
    if sample == "small_catshear":
        emp, phi, warmup = small_catshear[1], "bump", 300
    else:
        emp, phi, warmup = measure.srb_sample(
            maps.get_family("cat_translate"), 0.1, transient=500,
            length=4000, ensemble=8, seed=5), "cos_1_0", 1000

    def split(n):
        cpus(n)
        return pickle.dumps(response.stable_unstable_split(
            emp, maps.get_observable(phi, 2), 4, clv_warmup=warmup,
            angle_threshold=1e-3))
    assert split(2) == split(1)


def test_process_map_raises_the_first_failing_items_error(cpus):
    # item 1 fails in the worker, item 2 in this process: item 1's error,
    # with its step, is the one the serial loop would raise
    def fail(i):
        if i >= 1:
            raise NumericalDegeneracyError(f"item {i}", step=i)
        return i
    cpus(2)
    with pytest.raises(NumericalDegeneracyError, match="item 1") as err:
        response._process_map(fail, range(4))
    assert err.value.step == 1


def test_process_map_returns_in_item_order(cpus):
    cpus(2)
    got = response._process_map(lambda i: (i, os.getpid()), range(5))
    assert [i for i, _ in got] == list(range(5))
    assert {pid for i, pid in got if i % 2 == 0} == {os.getpid()}
    assert len({pid for i, pid in got if i % 2 == 1} - {os.getpid()}) == 1


def test_process_map_inside_a_map_forks_nothing(cpus):
    cpus(2)
    got = response._process_map(
        lambda i: response._process_map(lambda j: os.getpid(), range(3)),
        range(2))
    assert got[0] == [os.getpid()] * 3
    assert got[1] == [got[1][0]] * 3 and got[1][0] != os.getpid()


def test_process_map_reaps_its_worker_when_this_process_stops(cpus):
    # the worker would sleep for a minute; it is killed and reaped at once
    class Stop(BaseException):
        pass

    def item(i):
        if i == 0:
            raise Stop
        time.sleep(60)
    cpus(2)
    t0 = time.monotonic()
    with pytest.raises(Stop):
        response._process_map(item, range(2))
    assert time.monotonic() - t0 < 30


def test_process_map_worker_that_dies_is_an_error(cpus):
    parent = os.getpid()
    cpus(2)
    with pytest.raises(RuntimeError, match="ended without its results"):
        response._process_map(
            lambda i: os._exit(3) if os.getpid() != parent else i, range(2))


def test_process_map_after_blas_in_this_process(cpus):
    # numpy's OpenBLAS has started its thread pool before the fork, and the
    # worker calls it again; an alarm ends the test if the worker hangs
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((200, 200)), rng.standard_normal(200)
    np.linalg.solve(a, b)

    def hung(signum, frame):
        raise TimeoutError("the map did not finish")
    cpus(2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        got = response._process_map(lambda i: np.linalg.solve(a, b * i),
                                     range(1, 3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for i, x in zip(range(1, 3), got):
        assert np.allclose(a @ x, b * i)


@pytest.mark.parametrize("missing", ["hessian", "param_jacobian"])
def test_split_needs_second_derivatives(small_catshear, missing):
    fam, emp = small_catshear
    bare = dataclasses.replace(fam, **{missing: None})
    emp = dataclasses.replace(emp, family=bare)
    with pytest.raises(ParameterError):
        response.stable_unstable_split(emp, maps.get_observable("bump", 2), 4,
                                       clv_warmup=1000, angle_threshold=1e-3)


def test_split_non_finite_divergence_raises(small_catshear):
    fam, emp = small_catshear
    broken = dataclasses.replace(
        fam, hessian=lambda a, x, u, w: np.full(np.shape(u), np.nan))
    emp = dataclasses.replace(emp, family=broken)
    with pytest.raises(NumericalDegeneracyError):
        response.stable_unstable_split(
            emp, maps.get_observable("bump", 2), 4, clv_warmup=1000,
            angle_threshold=1e-3)


def test_kappa_series_slices_bitwise_equal_gathers(small_catshear):
    """The cocycle propagator on contiguous slices gives the same bits as
    gathering the jacobians and gradients at the sample indices."""
    fam, emp = small_catshear
    orbits = emp.orbits
    m = orbits.shape[0]
    J = fam.jacobian(0.25, orbits[:, :-1])
    G = maps.get_observable("bump", 2).gradient(orbits)
    jac, grads = stack_of(J, 2), stack_of(G)
    js = np.arange(700, 2400)
    rng = np.random.default_rng(0)
    mask = rng.random((m, js.size)) > 0.1
    rows = np.arange(m)[:, None]
    for V0 in (stack_of(fam.param_derivative(0.25, orbits[:, :-1]))[:, js - 1],
               rng.standard_normal((m, js.size, 2))):
        V = V0.copy()
        ref_c, ref_e = np.empty(9), np.empty(9)
        for n in range(9):
            if n > 0:
                V = np.einsum("msab,msb->msa", jac[rows, js + n - 1], V)
            c = np.einsum("msd,msd->ms", V, grads[rows, js + n])
            ref_c[n], ref_e[n] = stats.merge_batch_sums(
                [stats.batch_sums(c, 25, m, mask)])
        (parts,), trunc = response._kappa_series(
            J, planes_of(V0)[:, None], G, 8, js[0], mask, m)
        assert trunc is None
        ser = response._merged_series([parts], {})
        assert np.array_equal(ser.coeffs, ref_c)
        assert np.array_equal(ser.stderr, ref_e)


def test_kappa_series_stacked_fields_match_single_passes(small_catshear):
    """Two fields propagated in one pass, each order reading the Jacobians
    once, give each field's batch sums bit for bit as its own pass does."""
    fam, emp = small_catshear
    orbits = emp.orbits
    m = orbits.shape[0]
    J = fam.jacobian(0.25, orbits[:, :-1])
    grads = maps.get_observable("bump", 2).gradient(orbits)
    rng = np.random.default_rng(1)
    X = np.stack([fam.param_derivative(0.25, orbits[:, 699:2399]),
                  rng.standard_normal((2, m, 1700))], axis=1)
    for mask in (None, rng.random((m, 1700)) > 0.1):
        both, trunc = response._kappa_series(J, X, grads, 8, 700, mask, m)
        assert trunc is None and len(both) == 2
        for f in range(2):
            (one,), _ = response._kappa_series(J, X[:, f:f + 1], grads, 8,
                                               700, mask, m)
            assert len(both[f]) == len(one) == 9
            for a, b in zip(both[f], one):
                for x, y in zip(a, b):
                    assert np.array_equal(x, y)


def _stable_direction(fam, step, alpha, x, n_steps=30):
    """Unit stable direction at x, with step fam's array step: a generic
    vector pulled back through the inverse cocycle of the next n_steps
    iterates aligns with E^s."""
    jacs = []
    for _ in range(n_steps):
        jacs.append(fam.jacobian(alpha, x))
        x = step(alpha, x)
    w = np.array([0.31622776601683794, 0.9486832980505138])
    for J in reversed(jacs):
        w = np.linalg.solve(J, w)
        w /= np.linalg.norm(w)
    return w


def _push_offsets(alpha, orbit, i, offsets, steps):
    """Offsets from orbit[i + steps] of the images of orbit[i] + offsets
    under `steps` cat_shear steps.  The shear's increment is written as a
    product, sin(a + h) - sin(a) = 2 cos(a + h/2) sin(h/2), so offsets far
    below the coordinates' rounding keep their relative precision."""
    two_pi = 2 * np.pi
    cat = np.array([[2.0, 1.0], [1.0, 1.0]])
    d = np.array(offsets, dtype=float)
    for x in orbit[i:i + steps]:
        shear = (np.cos(two_pi * x[1] + np.pi * d[:, 1])
                 * np.sin(np.pi * d[:, 1]) / np.pi)
        d = d @ cat.T + alpha * np.stack([shear, np.zeros_like(shear)], -1)
    return d


def test_manifold_recurrences_match_pushed_segments(array_step):
    """Curvature k, density log-derivative g and stable turn b against
    finite differences of short segments seeded along v and pushed forward
    12 steps onto the unstable manifold of the sample point."""
    fam = maps.get_family("cat_shear")
    alpha, back = 0.25, 12
    x0 = orbit_of(fam, alpha, np.array([0.3, 0.6]), 300)[-1]
    orbit = orbit_of(fam, alpha, x0, 2000)
    jac = fam.jacobian(alpha, orbit[None, :-1])
    lo = 300
    clvs = tangent._clv_sweep(jac, lo)[0]
    w = clvs.shape[-1]
    r, k, g, b, _, _ = response._manifold_recurrences(
        fam, alpha, orbit[None, lo:lo + w - 1], jac[..., lo:lo + w - 1],
        clvs[:, 0], clvs[:, 1])
    V, E = stack_of(clvs[:, 0]), stack_of(clvs[:, 1])

    def segment(t, halfwidth, nodes):
        """Offsets from x_t of points about nodes x halfwidth along the
        unstable manifold, and the seed spacing."""
        delta = halfwidth / np.prod(r[0, t - back:t])
        seeds = np.outer(nodes, delta * V[0, t - back])
        return _push_offsets(alpha, orbit, lo + t - back, seeds, back), delta

    for t in (200, 400, 600, 800, 1000):
        (dm, dp), delta = segment(t, 1e-4, [-1.0, 1.0])
        d1 = (dp - dm) / (2 * delta)
        d2 = (dp + dm) / delta**2
        speed = np.linalg.norm(d1)
        k_ref = (d1[0] * d2[1] - d1[1] * d2[0]) / speed**3
        assert abs(k[0, t] - k_ref) < 1e-5 * abs(k_ref)
        # the log conditional density is minus the log speed of the pushed
        # segment, up to the density at the seeds: g there, shrunk by the
        # stretch over the 12 steps, is about 1e-5 of g's size
        g_ref = -2.0 * (np.log(np.linalg.norm(dp))
                        - np.log(np.linalg.norm(dm))) / np.linalg.norm(dp - dm)
        g_ref += g[0, t - back] / np.prod(r[0, t - back:t])
        assert abs(g[0, t] - g_ref) < 1e-4 * abs(g_ref)

        (ym, yp), _ = segment(t, 1e-5, [-1.0, 1.0])
        es = [_stable_direction(fam, array_step(fam), alpha,
                                orbit[lo + t] + y)
              for y in (ym, yp)]
        es = [e * np.sign(e @ E[0, t]) for e in es]
        p = np.array([-E[0, t, 1], E[0, t, 0]])
        b_ref = p @ (es[1] - es[0]) / np.linalg.norm(yp - ym)
        assert abs(b[0, t] - b_ref) < 1e-3 * abs(b_ref)
