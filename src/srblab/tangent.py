"""Tangent-cocycle computations along orbits: Lyapunov spectra (QR method),
covariant Lyapunov vectors (forward/backward sweep), splitting angles and
local unstable-manifold segments.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (HyperbolicityError, NumericalDegeneracyError,
                     ParameterError, UnsupportedDimensionError)
from .stats import batch_means


@dataclass
class TangentCocycle:
    """An orbit together with the one-step tangent maps along it."""

    orbit: np.ndarray       # (n+1, d)
    jacobians: np.ndarray   # (n, d, d), jacobians[j] = Df(orbit[j])

    @classmethod
    def from_orbit(cls, family, alpha, orbit):
        orbit = np.asarray(orbit, dtype=float)
        return cls(orbit=orbit, jacobians=family.jacobian(alpha, orbit[:-1]))

    @property
    def dimension(self):
        return self.orbit.shape[1]

    def product(self, start, n):
        """T_{x_start} f^n by chained multiplication."""
        d = self.dimension
        P = np.eye(d)
        for j in range(start, start + n):
            P = self.jacobians[j] @ P
        return P


# Small-matrix kernels.  The sweeps factor thousands of d x d matrices per
# step, so these loop over the d rows and columns and act elementwise on all
# leading axes at once, where a LAPACK routine would be called once per
# matrix.  Only + - * / and sqrt touch the entries, each correctly rounded, so
# a matrix's result does not depend on the stack it sits in, which the
# bitwise equality of windowed and sequential sweeps relies on.


def _dot(u, v):
    """Sum over i of u[i] * v[i], in order, for sequences of arrays."""
    s = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        s = s + a * b
    return s


def _qr_pos(A):
    """QR with positive diagonal of a stack A (..., m, k), m >= k.

    Returns Q (..., m, k) with orthonormal columns and R (..., k, k) upper
    triangular with R[j, j] >= 0, A = Q R.  Classical Gram-Schmidt run twice
    on each column: two passes keep Q orthonormal to working precision while
    cond(A) stays well below 1/eps (Giraud, Langou, Rozloznik & van den
    Eshof, Numer. Math. 101, 2005), where one pass loses orthogonality with
    the condition number; Benettin's 8-step block products reach about 1e7.
    The diagonal is a norm, so it is positive without sign fixing.

    A rank-deficient or non-finite matrix gives a zero or non-finite
    diagonal entry and no warning; callers check the diagonal.  Columns
    dependent to working precision (cond(A) beyond 1/eps) can also give an
    exact zero, where a Householder QR returns a diagonal entry made of
    rounding errors.  The squared norms overflow for entries beyond about
    1e154; with |det A| <= 1, as on the shipped families' cocycles, cond(A)
    is then beyond 1/eps as well.
    """
    m, k = A.shape[-2:]
    Q = np.empty(A.shape)
    R = np.zeros(A.shape[:-2] + (k, k))
    q = []                              # columns of Q as lists of rows
    with np.errstate(all="ignore"):
        for j in range(k):
            v = [A[..., i, j] for i in range(m)]
            for _ in range(2):
                r = [_dot(q[l], v) for l in range(j)]
                for l in range(j):
                    v = [a - r[l] * b for a, b in zip(v, q[l])]
                    R[..., l, j] += r[l]
            norm = np.sqrt(_dot(v, v))
            R[..., j, j] = norm
            q.append([a / norm for a in v])
            for i in range(m):
                Q[..., i, j] = q[j][i]
    return Q, R


def _back_substitute(R, C):
    """R^-1 C for stacks of upper-triangular R and C (..., d, d) with
    R[i, i] != 0; the result is upper triangular.  Column c of C has rows
    0 .. c only, so back substitution runs over those."""
    d = R.shape[-1]
    X = np.zeros(C.shape)
    for c in range(d):
        for i in range(c, -1, -1):
            s = C[..., i, c]
            for l in range(i + 1, c + 1):
                s = s - R[..., i, l] * X[..., l, c]
            X[..., i, c] = s / R[..., i, i]
    return X


def _unit_columns(X):
    """X (..., d, k) with each column scaled to unit norm, in place."""
    d, k = X.shape[-2:]
    for c in range(k):
        col = [X[..., i, c] for i in range(d)]
        X[..., c] /= np.sqrt(_dot(col, col))[..., None]
    return X


@dataclass
class LyapunovSpectrum:
    """Exponents in nats per iteration, sorted descending.

    n_windows is the number of windows the QR sweep ran side by side (1 for
    the sequential sweep) and boundary_residual the largest frame mismatch
    measured where windows hand over; above _MAX_RESIDUAL the sweep was
    rerun as one window.
    """

    all_exponents: np.ndarray     # (d,) one per tangent direction
    all_stderr: np.ndarray
    exponents: np.ndarray         # distinct values
    multiplicities: np.ndarray
    stderr: np.ndarray            # per distinct value
    n_steps: int
    mean_log_det: float
    n_windows: int = 1
    boundary_residual: float = 0.0

    @property
    def dimension(self):
        return self.all_exponents.size

    def sum(self):
        return float(self.all_exponents.sum())

    def zero_threshold(self, factor=10.0, floor=1e-6):
        return max(floor, factor * float(np.nanmax(self.all_stderr)))

    def is_hyperbolic(self, eps0=None):
        eps0 = eps0 if eps0 is not None else self.zero_threshold()
        return bool(np.all(np.abs(self.all_exponents) > eps0))


def _group_exponents(vals, ses):
    """Cluster adjacent exponents whose gap is within combined error."""
    groups = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals):
            groups.append((start, i))
            break
        tol = max(1e-7, 3.0 * (ses[i - 1] + ses[i]))
        if abs(vals[i - 1] - vals[i]) > tol:
            groups.append((start, i))
            start = i
    ex, mult, se = [], [], []
    for a, b in groups:
        ex.append(float(vals[a:b].mean()))
        mult.append(b - a)
        se.append(float(np.sqrt(np.sum(ses[a:b] ** 2)) / (b - a)))
    return np.array(ex), np.array(mult, dtype=int), np.array(se)


def _spectrum(logs, interval, n_batches, n_windows, residual):
    """Spectrum from the log stretches logs (B, n, d) of blocks of
    `interval` steps, the B members pooled."""
    d = logs.shape[-1]
    used = logs.shape[0] * logs.shape[1] * interval
    per_step = logs.transpose(2, 0, 1).reshape(d, 1, -1) / interval
    means, ses = batch_means(per_step, n_batches=n_batches)
    order = np.argsort(means)[::-1]
    vals, errs = means[order], ses[order]
    ex, mult, se = _group_exponents(vals, errs)
    return LyapunovSpectrum(vals, errs, ex, mult, se, used,
                            float(logs.sum() / used), n_windows, residual)


def _block_products(J, interval):
    """Products of `interval` consecutive jacobians: (nb, d, d)."""
    n = J.shape[0]
    nb = n // interval
    B = J[: nb * interval].reshape(nb, interval, *J.shape[1:])
    P = B[:, 0]
    for i in range(1, interval):
        P = B[:, i] @ P
    return P, nb


# Windowed sweeps.  A QR frame and a Ginelli backward vector forget where
# they started at the rate of the exponent gap (Ginelli et al., PRL 99,
# 130601, 2007; Kuptsov & Parlitz, J. Nonlinear Sci. 22, 2012), so a sweep
# over n steps is cut into windows of _CORE steps that each start _OVERLAP
# steps early and run side by side on the batch axis.  Window k runs steps
# k*core .. k*core + core + overlap - 1 (cut at n); it writes every step,
# and since window k - 1 reaches the same steps later, each stored value
# comes from a window that has run at least `overlap` steps, or from window
# 0, which starts at the true initial condition.
_CORE = 256
_OVERLAP = 64
_MAX_RESIDUAL = 1e-12


def _windows(n, core, overlap):
    """(count, core, overlap) of the windows over n steps; one window is
    the sequential sweep, (1, n, 0)."""
    K = max(1, -(-(n - overlap) // core))
    return (K, core, overlap) if K > 1 else (1, n, 0)


def _windowed(sweep, n):
    """Run sweep(core, overlap) -> (result, boundary residual) on windows;
    rerun it as one window, the sequential sweep, if the residual exceeds
    _MAX_RESIDUAL.  Returns (result, n_windows, residual)."""
    result, residual = sweep(_CORE, _OVERLAP)
    if residual <= _MAX_RESIDUAL:
        return result, _windows(n, _CORE, _OVERLAP)[0], residual
    result, _ = sweep(n, 0)
    return result, 1, residual


def _affine_recurrence(c, d):
    """y (B, n+1) with y[:, 0] = 0 and y[:, t+1] = c[:, t] y[:, t] + d[:, t]
    for coefficients c, d of shape (B, n).

    A contracting recurrence forgets its start like a QR frame, so it runs
    on the windows of _forward_qr, each from 0, and is rerun as one window
    when the mismatch of hand-over values, relative to the largest |y|,
    exceeds _MAX_RESIDUAL.  Values within _OVERLAP steps of the start have
    not converged.
    """
    B, n = c.shape

    def sweep(core, overlap):
        K, core, overlap = _windows(n, core, overlap)
        span = K * core
        y = np.zeros((B, K))
        ys = np.zeros((B, span + overlap + 1))
        hand = y
        for t in range(core + overlap):
            ct, dt = c[:, t:t + span:core], d[:, t:t + span:core]
            m = ct.shape[1]
            y[:, :m] = ct * y[:, :m] + dt
            ys[:, t + 1:t + 1 + m * core:core] = y[:, :m]
            if t == overlap - 1:
                hand = y.copy()
        ys = ys[:, :n + 1]
        scale = np.abs(ys).max(initial=0.0)
        mismatch = np.abs(y[:, :-1] - hand[:, 1:]).max(initial=0.0)
        return ys, (mismatch / scale if scale > 0 else mismatch)

    return _windowed(sweep, n)[0]


def _forward_qr(J, q0, core, overlap, interval=1):
    """Windowed QR sweep of a batch of cocycles J (B, n, d, d).

    Returns ((Qs (B, n+1, d, d), Rs (B, n, d, d), logs (B, n, d)), residual)
    with Qs[:, j+1] Rs[:, j] = J[:, j] Qs[:, j] and Qs[:, 0] = q0 (identity
    by default).  Windows other than 0 start from the identity, so their
    column signs are arbitrary; they are chained across the hand-over
    frames (Q <- Q S, R <- S R S).  The residual is the largest mismatch of
    aligned hand-over frames.  Rank loss raises with the global step index,
    counted in units of `interval` steps.
    """
    B, n, d, _ = J.shape
    K, core, overlap = _windows(n, core, overlap)
    span = K * core
    Q = np.broadcast_to(np.eye(d), (B, K, d, d)).copy()
    if q0 is not None:
        Q[:, 0] = q0
    Qs = np.zeros((B, span + overlap + 1, d, d))
    Rs = np.zeros((B, span + overlap, d, d))
    Qs[:, 0] = Q[:, 0]
    hand = Q
    for t in range(core + overlap):
        P = J[:, t:t + span:core]
        m = P.shape[1]
        Q[:, :m], R = _qr_pos(P @ Q[:, :m])
        Qs[:, t + 1:t + 1 + m * core:core] = Q[:, :m]
        Rs[:, t:t + m * core:core] = R
        if t == overlap - 1:
            hand = Q.copy()
    # window k's stored values: frames k*core + overlap + 1 .. + core
    S = np.ones((B, K, d))
    S[:, 1:] = np.cumprod(np.where(
        np.einsum("bkij,bkij->bkj", Q[:, :-1], hand[:, 1:]) < 0, -1.0, 1.0),
        axis=1)
    mismatch = Q[:, :-1] * S[:, :-1, None, :] - hand[:, 1:] * S[:, 1:, None, :]
    residual = float(np.abs(mismatch).max(initial=0.0))
    S = S[:, :, None]
    Qs[:, overlap + 1:].reshape(B, K, core, d, d)[...] *= S[..., None, :]
    Rs[:, overlap:].reshape(B, K, core, d, d)[...] *= (
        S[..., :, None] * S[..., None, :])
    Qs, Rs = Qs[:, :n + 1], Rs[:, :n]
    diag = np.diagonal(Rs, axis1=-2, axis2=-1)
    bad = ~(np.isfinite(diag) & (diag > 0.0))
    if bad.any():
        j = int(np.argmax(bad.any(axis=(0, 2)))) * interval
        cause = ("" if interval == 1 else f": block products of "
                 f"reorth_interval = {interval} steps lost rank")
        raise NumericalDegeneracyError(f"QR rank loss at step {j}{cause}",
                                       step=j)
    return (Qs, Rs, np.log(diag)), residual


def _backward_clv(Qs, Rs, lo, hi, core, overlap):
    """Windowed Ginelli backward pass: CLVs (B, hi - lo, d, d) at frames
    lo .. hi - 1, and the residual of the hand-over coefficients.

    Windows run down from frame n - k*core, each from the triangular
    initial condition.  Each step takes the upper-triangular coefficients
    A <- R^-1 A by back substitution and scales A's columns to unit norm;
    they keep a positive diagonal, so no sign alignment is needed.
    """
    B, n, d, _ = Rs.shape
    K, core, overlap = _windows(n, core, overlap)
    span = K * core
    # windows count steps down from the top: index u is step and frame
    # n - 1 - u of these reversed views
    As = np.zeros((B, n, d, d))
    Rrev, Arev = Rs[:, ::-1], As[:, ::-1]
    A = np.broadcast_to(np.triu(np.ones((d, d))), (B, K, d, d)).copy()
    A = _unit_columns(A)
    hand = A
    for t in range(core + overlap):
        R = Rrev[:, t:t + span:core]
        m = R.shape[1]
        A[:, :m] = _unit_columns(_back_substitute(R, A[:, :m]))
        Arev[:, t:t + m * core:core] = A[:, :m]
        if t == overlap - 1:
            hand = A.copy()
    residual = float(np.abs(A[:, :-1] - hand[:, 1:]).max(initial=0.0))
    V = As[:, lo:hi]                     # CLVs in place of their coefficients
    V[...] = Qs[:, lo:hi] @ V
    return _unit_columns(V), residual


def benettin_spectrum(cocycle, steps=None, reorth_interval=1, n_batches=20,
                      q0=None):
    """Lyapunov spectrum by QR reorthonormalization.

    Standard errors come from batch means over the per-block stretch series
    (at least n_batches batches).
    """
    if reorth_interval < 1:
        raise ParameterError("reorth_interval must be >= 1")
    J = cocycle.jacobians
    n = J.shape[0] if steps is None else min(steps, J.shape[0])
    if n < reorth_interval:
        raise ParameterError("steps must be >= reorth_interval")
    P, nb = _block_products(J[:n], reorth_interval)
    q0 = None if q0 is None else np.array(q0, dtype=float)
    (_, _, logs), n_windows, residual = _windowed(
        lambda core, overlap: _forward_qr(P[None], q0, core, overlap,
                                          reorth_interval), nb)
    return _spectrum(logs, reorth_interval, n_batches, n_windows, residual)


@dataclass
class OseledetsSplitting:
    """Covariant Lyapunov vectors on a window of the orbit.

    clvs[j] has the CLVs as columns, ordered by descending exponent; the
    first n_unstable columns span E^u, the rest E^s.  Window index j
    corresponds to orbit index j + offset.
    """

    points: np.ndarray       # (w, d)
    clvs: np.ndarray         # (w, d, d)
    n_unstable: int
    offset: int
    spectrum: LyapunovSpectrum
    _bases: dict = field(default_factory=dict, repr=False)

    @property
    def n_windows(self):
        return self.spectrum.n_windows

    @property
    def boundary_residual(self):
        return self.spectrum.boundary_residual

    def basis(self, which):
        """Orthonormal per-point basis of E^u ('u') or E^s ('s')."""
        if which not in self._bases:
            cols = (self.clvs[:, :, : self.n_unstable] if which == "u"
                    else self.clvs[:, :, self.n_unstable:])
            Q, _ = _qr_pos(cols)
            self._bases[which] = Q
        return self._bases[which]


def _clv_sweep(J, warmup, q0=None, n_batches=20):
    """Ginelli forward/backward sweep for a batch of cocycles.

    J has shape (B, n, d, d); returns (clvs (B, w, d, d), spectrum of the
    pooled members, window start) with w = n + 1 - 2*warmup.  The boundary
    residual covers both passes.
    """
    B, n, d, _ = J.shape
    if n + 1 <= 2 * warmup:
        raise ParameterError("orbit shorter than twice the CLV warmup")
    lo, hi = warmup, n + 1 - warmup     # window of converged CLVs

    def sweep(core, overlap):
        (Qs, Rs, logs), res_f = _forward_qr(J, q0, core, overlap)
        clvs, res_b = _backward_clv(Qs, Rs, lo, hi, core, overlap)
        return (clvs, logs), max(res_f, res_b)

    (clvs, logs), n_windows, residual = _windowed(sweep, n)
    return clvs, _spectrum(logs, 1, n_batches, n_windows, residual), lo


def compute_clvs(cocycle, warmup=1000, eps0=None, n_batches=20):
    """Covariant Lyapunov vectors and the Oseledets splitting they induce.

    Requires a hyperbolic spectrum: raises HyperbolicityError if any exponent
    is within eps0 (default 10x its standard error) of zero.
    """
    clvs, spectrum, lo = _clv_sweep(cocycle.jacobians[None], warmup,
                                    n_batches=n_batches)
    vals = spectrum.all_exponents
    threshold = eps0 if eps0 is not None else spectrum.zero_threshold()
    if np.any(np.abs(vals) <= threshold):
        raise HyperbolicityError(
            f"Lyapunov exponent within {threshold:.3g} of zero: {vals}")
    n_unstable = int(np.sum(vals > 0))
    w = clvs.shape[1]
    return OseledetsSplitting(
        points=cocycle.orbit[lo:lo + w].copy(),
        clvs=clvs[0], n_unstable=n_unstable, offset=lo, spectrum=spectrum)


def splitting_angles(splitting):
    """Per-point minimal principal angle between E^s and E^u.

    theta = atan2(sin, cos) with cos the largest singular value of B_a^T B_b
    and sin the smallest of (I - B_b B_b^T) B_a, for orthonormal bases B_a of
    the lower-dimensional subspace and B_b of the other (Knyazev & Argentati,
    SIAM J. Sci. Comput. 23, 2002).  arccos(cos) alone keeps only about half
    the digits of a small angle.  When B_a is one column, both singular values
    are column norms.
    """
    a, b = splitting.basis("u"), splitting.basis("s")
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    C = np.swapaxes(b, -2, -1) @ a
    S = a - b @ C
    if a.shape[-1] == 1:
        cos = np.linalg.norm(C[..., 0], axis=-1)
        sin = np.linalg.norm(S[..., 0], axis=-1)
    else:
        cos = np.linalg.svd(C, compute_uv=False)[..., 0]
        sin = np.linalg.svd(S, compute_uv=False)[..., -1]
    return np.arctan2(sin, cos)


def covariance_residuals(splitting, cocycle):
    """One-step pushforward residual of the unstable/stable subspaces.

    Returns (res_u, res_s) with res[j] = ||(I - P_{j+1}) Df V_j|| / ||Df V_j||
    where P is the orthogonal projector on the corresponding subspace.
    """
    lo = splitting.offset
    w = splitting.clvs.shape[0]
    J = cocycle.jacobians[lo:lo + w - 1]
    out = []
    for which in ("u", "s"):
        basis = splitting.basis(which)
        V = J @ basis[:-1]
        Pn = basis[1:]
        coeff = np.swapaxes(Pn, -2, -1) @ V
        resid = V - Pn @ coeff
        num = np.linalg.norm(resid, axis=(-2, -1))
        den = np.linalg.norm(V, axis=(-2, -1))
        out.append(num / den)
    return out[0], out[1]


def _lift(chart, poly):
    """Continuous lift of a torus polyline."""
    diffs = chart.difference(poly[1:], poly[:-1])
    lift = np.empty_like(poly)
    lift[0] = poly[0]
    np.cumsum(diffs, axis=0, out=lift[1:])
    lift[1:] += poly[0]
    return lift


def _resample(chart, poly, max_spacing):
    lift = _lift(chart, poly)
    seg = np.linalg.norm(np.diff(lift, axis=0), axis=1)
    if not np.any(seg > max_spacing):
        return poly
    pieces = [lift[:1]]
    for i in range(len(seg)):
        k = int(np.ceil(seg[i] / max_spacing))
        t = np.linspace(0.0, 1.0, k + 1)[1:, None]
        pieces.append(lift[i] + t * (lift[i + 1] - lift[i]))
    return chart.reduce(np.concatenate(pieces, axis=0))


def unstable_segment(family, alpha, x, e_u, half_width, refine,
                     max_spacing=None, seed_points=17, max_points=20000):
    """Polyline approximating the local unstable manifold through x.

    Seeds a short segment along the pulled-back unstable direction `refine`
    steps in the past and pushes it forward, resampling to bounded spacing.
    """
    e_u = np.asarray(e_u, dtype=float)
    if e_u.ndim != 1:
        raise UnsupportedDimensionError(
            "unstable_segment requires a one-dimensional unstable direction")
    if half_width <= 0:
        raise ParameterError("half_width must be positive")
    if family.inverse is None:
        raise ParameterError(f"family {family.name} has no inverse")
    if max_spacing is None:
        max_spacing = half_width / 32.0
    x = family.chart.reduce(np.asarray(x, dtype=float))
    # backward orbit and pulled-back unstable direction
    past = [x]
    for _ in range(refine):
        past.append(family.inverse(alpha, past[-1]))
    v = e_u / np.linalg.norm(e_u)
    growth = 1.0
    vs = [v]
    for k in range(refine):
        Jb = family.jacobian(alpha, past[k + 1])
        v = np.linalg.solve(Jb, vs[-1])
        v = v / np.linalg.norm(v)
        vs.append(v)
    # forward expansion along the chain fixes the seed width
    for k in range(refine):
        Jf = family.jacobian(alpha, past[refine - k])
        w = Jf @ vs[refine - k]
        growth *= np.linalg.norm(w)
    w0 = half_width / max(growth, 1e-300)
    t = np.linspace(-1.0, 1.0, seed_points)[:, None]
    poly = family.chart.reduce(past[refine] + t * (w0 * vs[refine]))
    for _ in range(refine):
        poly = family.step(alpha, poly)
        poly = _resample(family.chart, poly, max_spacing)
        if poly.shape[0] > max_points:
            raise NumericalDegeneracyError(
                "unstable segment refinement exceeded max_points")
    # trim to arclength half_width around the image of the center seed
    lift = _lift(family.chart, poly)
    dist = np.linalg.norm(family.chart.difference(poly, x), axis=1)
    i0 = int(np.argmin(dist))
    seg = np.linalg.norm(np.diff(lift, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    keep = np.abs(s - s[i0]) <= half_width
    return poly[keep]
