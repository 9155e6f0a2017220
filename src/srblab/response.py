"""Susceptibility coefficients, radius of convergence estimation, the
finite-difference linear-response oracle, the volume-preserving identity,
and the stable/unstable decomposition of the response series.
"""
from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import measure as measure_mod
from .errors import (InsufficientDataError, NumericalDegeneracyError,
                     PadeDegeneracyError, ParameterError,
                     UnsupportedDimensionError)
from .pade import robust_pade
from .stats import (batch_means, batch_sums, linear_fit, merge_batch_sums,
                    sigma_units)
from .tangent import (_OVERLAP, _affine_recurrence, _clv_sweep, _clv_window,
                      _dot, _matvec)

N_BATCHES = 25
NOISE_FACTOR = 2.0
_mapping = False                # inside a _process_map: maps run serially


@dataclass
class SusceptibilitySeries:
    """kappa_n = rho(X . grad(phi o f^n)) for n = 0..N with standard errors."""

    coeffs: np.ndarray
    stderr: np.ndarray
    meta: dict

    @property
    def n_max(self):
        return self.coeffs.size - 1

    def truncated_sum(self):
        """Psi(1) = sum of kappa_n over n = 0..N, with its standard error."""
        return np.sum(self.coeffs), float(np.sqrt(np.sum(self.stderr ** 2)))


def _check_order(N):
    if N < 1:
        raise ParameterError("N must be >= 1")


def _check_radius(N, method):
    if N < 8:
        raise ParameterError("radius fit requires N >= 8")
    if method not in ("root-test", "pade-pole"):
        raise ParameterError(f"unknown radius method {method!r}")


def _check_step(h):
    if h <= 0:
        raise ParameterError("h must be positive")


def _kappa_series(J, V, grads, N, j0, mask, members):
    """Cocycle-propagated series of a stack of fields: coefficient n of
    field f averages V_f(x_j) . (T_{x_j} f^n)^T grad(x_{j+n}) over samples,
    with V on planes (d, F, m, S) at orbit indices j0 .. j0+S-1 of m
    consecutive members of an ensemble of `members`, and J (d, d, m, n) and
    grads (d, m, L) on planes along their orbits.  Returns each field's
    batch_sums of each coefficient, up to the first order whose tangent
    vectors overflow in any field, and that order (None if none did)."""
    parts = [[] for _ in range(V.shape[1])]
    S = V.shape[-1]
    for n in range(N + 1):
        if n > 0:
            V = _matvec(J[..., j0 + n - 1:j0 + n - 1 + S], V)
            # a nan fails either comparison as an inf does
            if not (V.max() <= 1e150 and V.min() >= -1e150):
                return parts, n
        # grad . V as the one-row matrix grad^T times V, summed in place
        for p, c in zip(parts,
                        _matvec(grads[None, ..., j0 + n:j0 + n + S], V)[0]):
            p.append(batch_sums(c, N_BATCHES, members, mask))
    return parts, None


def _merged_series(blocks, meta):
    """The series whose coefficient n merges the n-th batch sums of each
    block, given in member order, up to the shortest block's order."""
    coeffs, errs = zip(*(merge_batch_sums(list(parts))
                         for parts in zip(*blocks)))
    return SusceptibilitySeries(np.array(coeffs), np.array(errs), meta)


def susceptibility_coefficients(measure, obs, N):
    """Estimate kappa_n for n = 0..N from consecutive-orbit samples, along
    the perturbation X(f x) = d f_alpha(x) / d alpha of the sample's family
    and alpha.

    Tangent vectors are propagated by the exact cocycle (never by orbit
    finite differences); batch-means standard errors are attached.  On
    overflow the series is truncated at the last finite n and the truncation
    recorded in the metadata.
    """
    family, alpha = measure.family, measure.alpha
    return _field_series(
        measure, lambda orb: family.param_derivative(alpha, orb[:, :-1]),
        obs, N)


def _field_series(measure, field, obs, N):
    """kappa_n for n = 0..N along the field X, where field(orb) gives its
    planes (d, 1, L-1) at orbit indices 1..L-1 of one member's orbit orb
    (1, L, d).

    Each member runs _kappa_series on its own Jacobians, field and gradient
    planes, in the whole sample's batch layout, so no tangent array spans
    the sample.  The members' batch sums merge in member order, and the series
    stops at the least order at which any member's tangent vectors
    overflow.  Every standard error is the whole sample's bit for bit; a
    mean adds the members' totals, which moves it by rounding only."""
    _check_order(N)
    family, alpha, orbits = measure.family, measure.alpha, measure.orbits
    m, L, d = orbits.shape
    S = L - 1 - N
    if S < N_BATCHES:
        raise InsufficientDataError("orbit too short for requested N")
    members, truncs = [], []
    for orb in np.split(orbits, m):
        (parts,), trunc = _kappa_series(
            family.jacobian(alpha, orb[:, :-1]), field(orb)[..., :S][:, None],
            obs.gradient(orb), N, 1, None, m)
        members.append(parts)
        if trunc is not None:
            truncs.append(trunc)
    # zip in _merged_series stops at the shortest member's series
    return _merged_series(members, {
        "system": family.name,
        "alpha": alpha,
        "observable": obs.name,
        "N": N,
        "n_samples": int(m * S),
        "ensemble": m,
        "truncated_at": min(truncs, default=None),
    })


@dataclass
class RadiusEstimate:
    method: str
    value: float
    ci: tuple
    fit_window: Optional[tuple] = None
    indeterminate: bool = False
    flag: Optional[str] = None
    poles: Optional[list] = None
    screened_poles: Optional[list] = None


def _bootstrap_ci(estimate, value, coeffs, sd, draws):
    """2.5/97.5 percentiles of estimate(coeffs + N(0, sd^2)) over `draws`
    draws from seed 0.  A draw whose estimate is not finite, or whose Pade
    fit fails, is dropped; with none left the interval is (value, value)."""
    rng = np.random.default_rng(0)
    boots = []
    for _ in range(draws):
        try:
            b = estimate(coeffs + rng.standard_normal(coeffs.size) * sd)
        except (PadeDegeneracyError, np.linalg.LinAlgError):
            continue
        if np.isfinite(b):
            boots.append(b)
    if not boots:
        return value, value
    return float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5))


def _stable_poles(coeffs, M, noise):
    """Poles of the order-M approximant that persist at order M-1, within
    5% of their modulus.

    Spurious pole-zero doublets carry residues at the noise level, so poles
    with negligible residue are screened out as well as poles that move
    between adjacent orders.
    """
    scale = np.abs(coeffs).max()
    tol = max(1e-14, 10.0 * noise / scale) if scale > 0 else 1e-14
    high = robust_pade(coeffs, M, tol=tol)
    low = robust_pade(coeffs, max(M - 1, 1), tol=tol)
    ph = high.poles()
    pl = low.poles()
    res = np.abs(high.residues(ph))
    res_floor = 1e-8 * res.max() if res.size else 0.0
    stable, screened = [], []
    for p, r in zip(ph, res):
        persists = pl.size and np.min(np.abs(pl - p)) <= 0.05 * abs(p)
        if persists and r > res_floor:
            stable.append(p)
        else:
            screened.append(p)
    return stable, screened


def radius_estimate(series, method):
    """Radius of convergence of sum kappa_n z^n.

    root-test fits ln|kappa_n| against n over the upper half of the
    coefficients above NOISE_FACTOR = 2 standard errors (all of them when
    that half has fewer than 3) and returns exp(-slope); pade-pole returns the
    modulus of the nearest pole that is stable across adjacent Pade orders.
    Every interval is a percentile bootstrap from seed 0 over the
    coefficient error bars: 400 draws (100 for pade-pole), each estimated
    as the value is.  A draw whose estimate is not finite, or whose Pade fit
    fails, is dropped; with none left the interval is (value, value).  A
    lower bound keeps only the lower end of its interval.
    """
    _check_radius(series.n_max, method)
    coeffs = series.coeffs
    if np.all(coeffs == 0.0):
        return RadiusEstimate(method, float("inf"), (float("inf"), float("inf")),
                              flag="zero-series")
    sd = np.where(np.isfinite(series.stderr), series.stderr, 0.0)
    above = np.abs(coeffs) > NOISE_FACTOR * sd
    n_all = np.arange(coeffs.size)
    usable = n_all[(n_all >= 1) & above]
    if usable.size < coeffs.size // 2:
        # Head resolved but the tail sits at the measurement floor: the data
        # only support an envelope lower bound.  The best provable geometric
        # ratio runs from the largest resolved coefficient to the tightest
        # later magnitude bound b_m = max(|kappa_m|, NOISE_FACTOR sigma_m).
        tail_zero = np.all(np.abs(coeffs[~above]) <= 3.0 * sd[~above] + 1e-300)
        if usable.size >= 1 and tail_zero:
            def envelope(c):
                peak = usable[np.argmax(np.abs(c[usable]))]
                if peak >= coeffs.size - 1:
                    return float("nan")
                m = np.arange(peak + 1, coeffs.size)
                b = np.maximum(np.abs(c[m]), NOISE_FACTOR * sd[m])
                return float(np.max((np.abs(c[peak]) / b) ** (1.0 / (m - peak))))
            value = envelope(coeffs)
            if np.isfinite(value):
                lo, _ = _bootstrap_ci(envelope, value, coeffs, sd, 400)
                return RadiusEstimate(method, value, (lo, float("inf")),
                                      flag="lower-bound-tail-below-noise")
        return RadiusEstimate(method, float("nan"), (float("nan"), float("nan")),
                              indeterminate=True, flag="noise-dominated")

    if method == "root-test":
        window = usable[usable >= usable.max() / 2.0]
        if window.size < 3:
            window = usable

        def root_test(c):
            if np.any(c[window] == 0.0):
                return float("nan")
            _, slope, _, _ = linear_fit(window, np.log(np.abs(c[window])))
            return float(np.exp(-slope))
        value = root_test(coeffs)
        return RadiusEstimate("root-test", value,
                              _bootstrap_ci(root_test, value, coeffs, sd, 400),
                              fit_window=(int(window.min()), int(window.max())))

    M = coeffs.size // 2
    noise = float(np.median(sd))
    stable, screened = _stable_poles(coeffs, M, noise)
    if not stable:
        return RadiusEstimate("pade-pole", float("nan"),
                              (float("nan"), float("nan")),
                              indeterminate=True, flag="no-stable-pole",
                              screened_poles=[complex(p) for p in screened])
    value = float(min(abs(p) for p in stable))

    def nearest_pole(c):
        st, _ = _stable_poles(c, M, noise)
        return min(abs(p) for p in st) if st else float("nan")
    return RadiusEstimate("pade-pole", value,
                          _bootstrap_ci(nearest_pole, value, coeffs, sd, 100),
                          poles=[complex(p) for p in stable],
                          screened_poles=[complex(p) for p in screened])


# ---------------------------------------------------------------------------
# Finite-difference linear-response oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingConfig:
    transient: int
    length: int
    ensemble: int
    seed: int
    sampler: Optional[object] = None


def finite_difference_response(family, alpha0, h, obs, sampling):
    """Central difference (rho_{a0+h}(phi) - rho_{a0-h}(phi)) / (2h) with
    independently seeded SRB samples on each side, from seeds 8s+1 and 8s+2
    for the sampling seed s; returns (derivative, stderr)."""
    _check_step(h)

    def side(alpha, seed):
        m = measure_mod.srb_sample(family, alpha,
                                   **{**vars(sampling), "seed": seed})
        return measure_mod.birkhoff_average(m, obs)

    base = int(sampling.seed)
    mp, sp = side(alpha0 + h, base * 8 + 1)
    mm, sm = side(alpha0 - h, base * 8 + 2)
    return (mp - mm) / (2.0 * h), float(np.sqrt(sp**2 + sm**2) / (2.0 * h))


# ---------------------------------------------------------------------------
# Volume-preserving identity
# ---------------------------------------------------------------------------


def volume_preserving_identity(measure, field, divergence, obs, N):
    """The two terms of the identity kappa_n + rho(div X . phi o f^n) = 0
    of a volume-preserving system: the series kappa_n along the field X,
    and the series rho(div X . phi o f^n) to the same order.  Callers
    compare their sum with stats.sigma_units.  X is given in closed form by
    field(points) -> (..., d) and its divergence(points) -> (...); the
    field is the one tangent input taken as entries, turned to planes here.
    """
    if not measure.family.volume_preserving:
        raise ParameterError(
            f"family {measure.family.name} is not flagged volume-preserving")
    orbits = measure.orbits
    direct = _field_series(
        measure, lambda orb: np.moveaxis(field(orb[:, 1:]), -1, 0), obs, N)
    S = orbits.shape[1] - 1 - N
    divv = divergence(orbits[:, 1:1 + S])
    phiv = obs.value(orbits)
    coeffs, errs = zip(*(batch_means(divv * phiv[:, 1 + n:1 + n + S],
                                     n_batches=N_BATCHES)
                         for n in range(direct.coeffs.size)))
    return direct, SusceptibilitySeries(np.array(coeffs), np.array(errs), {})


# ---------------------------------------------------------------------------
# Stable/unstable decomposition of the susceptibility series
# ---------------------------------------------------------------------------


def _process_map(fn, items):
    """[fn(item) for item in items], bit for bit, on k = min(CPUs in the
    affinity mask, items) processes: the caller runs items 0, k, ...; forked
    worker w runs w, w+k, ... up to its first error and pickles its results
    back.  The first failing item's error is raised once every worker is
    reaped; a worker that ends without results is an error.  A map inside a
    map runs serially, so forks never nest."""
    global _mapping
    items = list(items)
    k = 1 if _mapping else min(len(os.sched_getaffinity(0)), len(items))
    if k <= 1:
        return [fn(item) for item in items]

    def share(w):
        done = []
        for item in items[w::k]:
            try:
                done.append(fn(item))
            except Exception as exc:
                return done, exc
        return done, None

    workers, _mapping = {}, True
    try:
        for w in range(1, k):
            r, wr = os.pipe()
            with warnings.catch_warnings():  # Python >= 3.12 warns of
                # OpenBLAS's threads, which its own fork handler stops
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                try:
                    with os.fdopen(wr, "wb") as fh:
                        pickle.dump(share(w), fh, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wr)
            workers[pid] = os.fdopen(r, "rb")
        shares = [share(0)]
        for pid in list(workers):
            data = workers[pid].read()
            workers.pop(pid).close()
            if os.waitpid(pid, 0)[1] != 0:
                raise RuntimeError(f"worker {pid} ended without its results")
            shares.append(pickle.loads(data))
    finally:
        _mapping = False
        for pid, fh in workers.items():     # left by an error in the parent
            fh.close()
            os.kill(pid, 9)                 # SIGKILL
            os.waitpid(pid, 0)
    failed = [(w + k * len(done), exc) for w, (done, exc) in enumerate(shares)
              if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [shares[i % k][0][i // k] for i in range(len(items))]


def _split_window(length, N, clv_warmup):
    """(lo, hi, j_lo, j_hi): the split's CLV frames and samples on orbits
    of `length` points, after checking the order, warmup and sample count."""
    _check_order(N)
    # a warmup below 1 goes to _clv_window as it is, which rejects it
    lo, hi = _clv_window(length - 1,
                         max(min(1, clv_warmup), clv_warmup - _OVERLAP))
    j_lo = lo + _OVERLAP
    j_hi = min(hi - _OVERLAP, length - 1 - N)
    if j_hi - j_lo < 10 * N_BATCHES:
        raise InsufficientDataError("orbit too short for split estimation")
    return lo, hi, j_lo, j_hi


@dataclass
class SplitResult:
    stable: SusceptibilitySeries
    unstable: SusceptibilitySeries
    direct: SusceptibilitySeries
    excluded_fraction: float
    min_angle: float
    n_windows: int             # least over the CLV sweeps and recurrences
    boundary_residual: float

    def combined(self):
        """Reconstructed series stable + unstable with combined errors.

        The direct estimator's variance grows with the unstable multiplier
        at each order; the split terms avoid that growth where the unstable
        term has a mean, as on the uniformly hyperbolic cat_shear.  On maps
        with tangencies (henon, standard_map) div^u X^u has a tail of index
        about 1/2, so the unstable term has no mean and its standard errors
        do not measure its error."""
        return SusceptibilitySeries(
            self.stable.coeffs + self.unstable.coeffs,
            np.hypot(self.stable.stderr, self.unstable.stderr), {})

    def reconstruction_sigma(self):
        """Per-n discrepancy |stable + unstable - direct| in units of the
        three error bars combined, by stats.sigma_units (same sample set)."""
        return sigma_units(
            self.stable.coeffs + self.unstable.coeffs - self.direct.coeffs,
            self.stable.stderr, self.unstable.stderr, self.direct.stderr)


def stable_unstable_split(measure, obs, N, clv_warmup, angle_threshold):
    """Decompose the susceptibility series along X = X^s + X^u, where
    X(f x) = d f_alpha(x) / d alpha is the perturbation of the sample's
    family and alpha.

    The stable term propagates X^s through the cocycle; the unstable term
    is -rho(div^u X^u . phi o f^n) with div^u X^u = d_v u + u g, where
    X^u = u v along the unit unstable CLV v and g is the log-derivative of
    the conditional SRB density along v.  Both come from the recurrences
    of _manifold_recurrences along the orbit, using the family's analytic
    second derivatives; no point is pushed forward.  Samples are the frames
    of the converged CLV window, from frame max(clv_warmup, 65)
    (clv_warmup >= 1); the CLVs reach one window overlap further on each
    side, over which the recurrences converge.  Near-tangency points (angle
    below angle_threshold) are excluded and the excluded mass reported.

    The members run under _process_map, so the result, or the first
    failing member's error, is the serial member loop's bit for bit: each
    member its CLV sweep, a check that its summed log stretches have one
    positive entry, then its geometry and series, whose batch sums are
    merged in member order.  A sweep or recurrence whose windows disagree
    is rerun on its own (_windowed); n_windows is the least and
    boundary_residual the largest over every member's CLV sweep and its k,
    g and b recurrences.  Where no member falls back, every standard error
    is the whole ensemble's bit for bit; a mean adds the members' totals,
    which moves it by rounding only.
    """
    orbits = measure.orbits
    lo, hi, j_lo, j_hi = _split_window(orbits.shape[1], N, clv_warmup)
    family, alpha = measure.family, measure.alpha
    if family.hessian is None or family.param_jacobian is None:
        raise ParameterError(
            f"family {family.name} has no hessian/param_jacobian")
    m, _, d = orbits.shape
    if d != 2:
        raise UnsupportedDimensionError(
            "stable/unstable split implemented for 2-dimensional phase space")
    S = j_hi - j_lo
    frames = slice(j_lo - lo, j_hi - lo)
    prev = slice(j_lo - lo - 1, j_hi - lo - 1)

    def geometry(orb):
        """Jacobian planes, X and X^s on planes (2, 2, 1, S), div^u X^u, the
        angle mask, its least angle, window count and residual; the logs
        are dropped once counted, the frames and the rest on return."""
        J = family.jacobian(alpha, orb[:, :-1])
        clv, logs, sweep_windows, sweep_res = _clv_sweep(J, lo)
        n_unstable = int(np.sum(logs.sum(axis=(1, 2)) > 0))
        del logs
        if n_unstable != 1:
            raise UnsupportedDimensionError(
                f"split requires one unstable direction, found {n_unstable}")
        V, E = clv[:, 0], clv[:, 1]
        xs = orb[:, lo:hi - 1]
        r, k, g, b, windows, res = _manifold_recurrences(
            family, alpha, xs, J[..., lo:hi - 1], V, E)
        # d_v X(x_j) = d_alpha Df(x_{j-1}) v_{j-1} / r_{j-1}; with
        # p = rot90(e), d_v u = (d_v X x e + b X.e + u (k - b) v.e) / (v x e)
        # from n x e = -v.e, v x p = v.e and X x p = X.e
        dX = _matvec(family.param_jacobian(alpha, xs[:, prev]),
                     V[..., prev]) / r[:, prev]
        # the fields X and X^s at x_j, stacked for one cocycle pass
        X = np.empty((2, 2, len(orb), S))
        Xj = X[:, 0]
        Xj[...] = family.param_derivative(alpha, xs[:, prev])
        eu, es = V[..., frames], E[..., frames]
        det = _cross(eu, es)
        angles = _line_angle(eu, es)
        mask = angles >= angle_threshold
        u = _cross(Xj, es) / det
        kj, bj = k[:, frames], b[:, frames]
        du = (_cross(dX, es) + bj * _dot(Xj, es)
              + u * (kj - bj) * _dot(eu, es)) / det
        div_u = du + u * g[:, frames]
        if not np.all(np.isfinite(div_u[mask])):
            raise NumericalDegeneracyError("non-finite unstable divergence")
        np.multiply(_cross(eu, Xj) / det, es, out=X[:, 1])
        return (J, X, div_u, mask, float(angles.min()),
                min(sweep_windows, windows), max(sweep_res, res))

    def series(orb):
        J, X, div_u, mask, min_angle, windows, res = geometry(orb)
        kept = int(mask.sum())
        mask = None if kept == mask.size else mask
        phiv = obs.value(orb)
        unstable = [batch_sums(-div_u * phiv[:, j_lo + n:j_lo + n + S],
                               N_BATCHES, m, mask) for n in range(N + 1)]
        del div_u, phiv
        (direct, stable), trunc = _kappa_series(
            J, X, obs.gradient(orb), N, j_lo, mask, m)
        if trunc is not None:
            raise NumericalDegeneracyError(
                "tangent vectors overflowed in the split's cocycle "
                "propagation")
        return direct, stable, unstable, kept, min_angle, windows, res

    direct, stable, unstable, kept, min_angle, windows, res = zip(
        *_process_map(series, np.split(orbits, m)))
    return SplitResult(
        stable=_merged_series(stable, {}),
        unstable=_merged_series(unstable, {}),
        direct=_merged_series(direct, {}),
        excluded_fraction=1.0 - sum(kept) / (m * S),
        min_angle=min(min_angle),
        n_windows=min(windows),
        boundary_residual=max(res))


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _line_angle(a, b):
    """Angle in [0, pi/2] between the lines of 2-D vectors a and b, as
    atan2(|a x b|, |a . b|): the cross product keeps the digits of a small
    angle, of which arccos of the normalised dot product keeps about half."""
    return np.arctan2(np.abs(_cross(a, b)), np.abs(_dot(a, b)))


def _rot90(a):
    return -a[1], a[0]


def _manifold_recurrences(family, alpha, xs, J, V, E):
    """Geometry of the unstable manifolds along a 2-D orbit, from the
    component planes (2, m, w) of its unit CLVs V (unstable) and E (stable),
    the points xs (m, w-1, 2) and the Jacobian planes J (2, 2, m, w-1) at
    frames 0 .. w-2, and the family's hessian H = D^2 f.

    With n = rot90(v), p = rot90(e), r_j = v_{j+1}.J_j v_j and
    s_j = e_{j+1}.J_j e_j, returns (r (m, w-1), k, g, b (m, w), n_windows,
    residual):
      curvature, dv/dv = k n:
        k_{j+1} = n_{j+1}.(H_j[v_j, v_j] + k_j J_j n_j) / r_j^2
      log-derivative of the conditional SRB density along v:
        g_{j+1} = (g_j - r'_j / r_j) / r_j,
        r'_j = v_{j+1}.(H_j[v_j, v_j] + k_j J_j n_j)
      turn of the stable direction, de/dv = b p:
        b_j = p_j.J_j^-1 (s_j r_j b_{j+1} p_{j+1} - H_j[v_j, e_j])
    (Chandramoorthy & Wang, SIAM J. Appl. Dyn. Syst. 21, 2022).  Each is a
    scalar affine recurrence that contracts on average, k and g forward
    from frame 0 and b backward from frame w-1; values within one window
    overlap of the start have not converged.  n_windows is the least and
    residual the largest over the three runs of _affine_recurrence.
    """
    Vj, Ej, V1, E1 = V[..., :-1], E[..., :-1], V[..., 1:], E[..., 1:]
    JN = _matvec(J, _rot90(Vj))
    r = _dot(V1, _matvec(J, Vj))
    s = _dot(E1, _matvec(J, Ej))
    Hvv = family.hessian(alpha, xs, Vj, Vj)
    N1 = _rot90(V1)
    k, wk, rk = _affine_recurrence(_dot(N1, JN) / r**2, _dot(N1, Hvv) / r**2)
    dr = _dot(V1, Hvv + k[:, :-1] * JN)
    del JN, Hvv
    g, wg, rg = _affine_recurrence(1.0 / r, -dr / r**2)
    # p_j.J_j^-1 y = q_j.y with q_j = J_j^-T p_j
    Pj = _rot90(Ej)
    detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    q = ((J[1, 1] * Pj[0] - J[1, 0] * Pj[1]) / detJ,
         (J[0, 0] * Pj[1] - J[0, 1] * Pj[0]) / detJ)
    Hve = family.hessian(alpha, xs, Vj, Ej)
    b, wb, rb = _affine_recurrence((s * r * _dot(q, _rot90(E1)))[:, ::-1],
                                   -_dot(q, Hve)[:, ::-1])
    return r, k, g, b[:, ::-1], min(wk, wg, wb), max(rk, rg, rb)
