"""Tangent-cocycle computations along orbits: Lyapunov spectra (QR method),
covariant Lyapunov vectors (forward/backward sweep) and splitting angles.

Tangent data is component planes, as the maps derivatives return it: a
Jacobian, frame, R factor or CLV matrix along B orbits is (d, d, B, n) and a
vector (d, B, n); points stay (B, n, d).  Every spectrum takes its standard
errors from N_BATCHES = 20 batch means, and every QR sweep starts its frame
at the identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (HyperbolicityError, InsufficientDataError,
                     NumericalDegeneracyError, ParameterError)
from .stats import batch_means

N_BATCHES = 20


# Small-matrix kernels.  The sweeps factor thousands of d x d matrices per
# step, so these loop over the d rows or columns and act elementwise on
# the planes of all matrices at once, where a LAPACK routine would be
# called once per matrix.  Only + - * / and sqrt touch the entries, each
# correctly rounded, and a sum over components adds them in index order,
# so a matrix's result does not depend on the stack it sits in, which the
# bitwise equality of windowed and sequential sweeps relies on.  numpy
# reduces fewer than 8 terms over the outer axis in index order, and the
# families have d <= 4.


def _dot(u, v):
    """Sum over i of u[i] * v[i], in order, for sequences of arrays."""
    s = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        s = s + a * b
    return s


def _matvec(J, V):
    """J V on planes: J (r, c, ...) and V[b] of a vector, a matrix or a
    stack of fields, broadcast over points; row a adds J[a, 0] V[0] + ...
    in order, each product made in one row-sized scratch that every term
    reuses.  A^T is A.swapaxes(0, 1).

    A scratch for all rows at once is as large as the result, and freeing
    it hands the top of the heap back to the system, to be faulted in
    again by the next call: in the shipped split's stage on one-member
    blocks that took 98,000 page faults against 42,000, and 13% more CPU
    time."""
    shape = np.broadcast(J[0, 0], V[0]).shape
    out = np.empty((len(J),) + shape)
    scratch = np.empty(shape)
    for row, J_row in zip(out, J):
        np.multiply(J_row[0], V[0], out=row)
        for b in range(1, len(J_row)):
            row += np.multiply(J_row[b], V[b], out=scratch)
    return out


def _qr_pos(A):
    """QR with positive diagonal of the planes A (m, k, ...), m >= k.

    Returns Q (m, k, ...) with orthonormal columns and R (k, k, ...) upper
    triangular with R[j, j] >= 0, A = Q R.  Classical Gram-Schmidt run twice
    on each column: two passes keep Q orthonormal to working precision while
    cond(A) stays well below 1/eps (Giraud, Langou, Rozloznik & van den
    Eshof, Numer. Math. 101, 2005), where one pass loses orthogonality with
    the condition number; Benettin's 8-step block products reach about 1e7.
    The diagonal is a norm, so it is positive without sign fixing.  Each
    projection is one product and one reduce over the component axis, each
    update one product per earlier column, on whole component arrays.

    A rank-deficient or non-finite matrix gives a zero or non-finite
    diagonal entry, and the warnings of its 0/0 or overflow are the
    caller's to silence, once per sweep; callers check the diagonal.
    Columns dependent to working precision (cond(A) beyond 1/eps) can also
    give an exact zero, where a Householder QR returns a diagonal entry made
    of rounding errors.  The squared norms overflow for entries beyond about
    1e154; with |det A| <= 1, as on the shipped families' cocycles, cond(A)
    is then beyond 1/eps as well.
    """
    k = A.shape[1]
    Q = np.empty(A.shape)
    R = np.zeros((k, k) + A.shape[2:])
    w, scratch = np.empty((2,) + A[:, 0].shape)
    for j in range(k):
        v = A[:, j]                     # updated into w from here on
        for _ in range(2):
            r = [np.add.reduce(np.multiply(Q[:, l], v, out=scratch))
                 for l in range(j)]
            for l in range(j):
                v = np.subtract(v, np.multiply(r[l], Q[:, l], out=scratch),
                                out=w)
                R[l, j] += r[l]
        norm = np.sqrt(np.add.reduce(np.multiply(v, v, out=scratch)))
        R[j, j] = norm
        np.divide(v, norm, out=Q[:, j])
    return Q, R


@dataclass
class LyapunovSpectrum:
    """Exponents in nats per iteration, sorted descending.

    n_windows is the number of windows the QR sweep ran side by side (1 for
    the sequential sweep) and boundary_residual the largest frame mismatch
    measured where windows hand over at the first overlap; above
    _MAX_RESIDUAL the sweep was rerun, at twice the overlap or, with
    n_windows 1, as one window (_windowed).
    """

    all_exponents: np.ndarray     # (d,) one per tangent direction
    all_stderr: np.ndarray
    exponents: np.ndarray         # distinct values
    multiplicities: np.ndarray
    n_steps: int
    mean_log_det: float
    n_windows: int
    boundary_residual: float

    @property
    def dimension(self):
        return self.all_exponents.size

    def sum(self):
        return float(self.all_exponents.sum())

    def require_hyperbolic(self):
        """Raise HyperbolicityError if an exponent lies within
        max(1e-6, 10 x the largest standard error) of zero."""
        vals = self.all_exponents
        threshold = max(1e-6, 10.0 * float(np.nanmax(self.all_stderr)))
        if np.any(np.abs(vals) <= threshold):
            raise HyperbolicityError(
                f"Lyapunov exponent within {threshold:.3g} of zero: {vals}")


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
    ex = [float(vals[a:b].mean()) for a, b in groups]
    return np.array(ex), np.array([b - a for a, b in groups], dtype=int)


def _spectrum(logs, interval, n_windows, residual):
    """Spectrum from the log stretches logs (d, B, n) of blocks of
    `interval` steps, the B members pooled, each member's first _OVERLAP
    blocks left out while its frame forgets the identity it started from;
    standard errors from batch means over at least N_BATCHES blocks."""
    logs = logs[..., _OVERLAP:]
    d, B, n = logs.shape
    if B * n < N_BATCHES:
        raise InsufficientDataError(f"fewer than {N_BATCHES} blocks of "
                                    f"{interval} steps after the "
                                    f"{_OVERLAP}-block warm-up")
    used = B * n * interval
    per_step = np.divide(logs, interval).reshape(d, 1, -1)
    means, ses = batch_means(per_step, n_batches=N_BATCHES)
    order = np.argsort(means)[::-1]
    vals, errs = means[order], ses[order]
    ex, mult = _group_exponents(vals, errs)
    return LyapunovSpectrum(vals, errs, ex, mult, used,
                            float(logs.sum() / used), n_windows, residual)


def _block_products(J, interval):
    """Products of `interval` consecutive jacobians J (d, d, B, n) of each
    member: (d, d, B, n // interval)."""
    nb = J.shape[-1] // interval
    blocks = J[..., :nb * interval].reshape(J.shape[:-1] + (nb, interval))
    P = blocks[..., 0]
    for i in range(1, interval):
        P = _matvec(blocks[..., i], P)
    return P


# Windowed sweeps.  A QR frame and a Ginelli backward vector forget where
# they started at the rate of the exponent gap (Ginelli et al., PRL 99,
# 130601, 2007; Kuptsov & Parlitz, J. Nonlinear Sci. 22, 2012), so a sweep
# over n steps is cut into windows of _CORE steps that each start _OVERLAP
# steps early and run side by side on the batch axis.  Window k runs steps
# k*core .. k*core + core + overlap - 1 (cut at n); it writes every step,
# and since window k - 1 reaches the same steps later, each stored value
# comes from a window that has run at least `overlap` steps, or from window
# 0, which starts at the true initial condition.  A sweep whose windows do
# not agree is run again at twice the overlap, then as one window.
_CORE = 256
_OVERLAP = 64
_MAX_RESIDUAL = 1e-12


def _windows(n, core, overlap):
    """(count, core, overlap) of the windows over n steps; one window is
    the sequential sweep, (1, n, 0)."""
    K = max(1, -(-(n - overlap) // core))
    return (K, core, overlap) if K > 1 else (1, n, 0)


def _windowed(sweep, n):
    """Run sweep(core, overlap) -> (result, boundary residual) on windows
    of _CORE steps, at _OVERLAP and then at 2 * _OVERLAP; rerun it as one
    window, the sequential sweep, if the residual still exceeds
    _MAX_RESIDUAL.  Returns (result, n_windows, residual at _OVERLAP): a
    residual above _MAX_RESIDUAL means a rerun, at twice the overlap if
    n_windows > 1."""
    residuals = []
    for overlap in (_OVERLAP, 2 * _OVERLAP):
        result, residual = sweep(_CORE, overlap)
        residuals.append(residual)
        if residual <= _MAX_RESIDUAL:
            return result, _windows(n, _CORE, overlap)[0], residuals[0]
    return sweep(n, 0)[0], 1, residuals[0]


def _affine_recurrence(c, d):
    """(y, n_windows, residual): y (B, n+1) with y[:, 0] = 0 and
    y[:, t+1] = c[:, t] y[:, t] + d[:, t] for coefficients c, d (B, n).

    A contracting recurrence forgets its start like a QR frame, so it runs
    under _windowed, each window from 0; its residual is the mismatch of
    hand-over values relative to the largest |y|.  Values within _OVERLAP
    steps of the start have not converged.
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
            yt = y[:, :m]
            yt *= ct
            yt += dt
            ys[:, t + 1:t + 1 + m * core:core] = yt
            if t == overlap - 1:
                hand = y.copy()
        ys = ys[:, :n + 1]
        scale = np.abs(ys).max(initial=0.0)
        mismatch = np.abs(y[:, :-1] - hand[:, 1:]).max(initial=0.0)
        return ys, (mismatch / scale if scale > 0 else mismatch)

    return _windowed(sweep, n)


def _forward_qr(J, core, overlap, interval=1, frames=False):
    """Windowed QR sweep of a batch of cocycles J (d, d, B, n).

    Returns ((Qs (d, d, B, n+1), Rs (d, d, B, n), logs (d, B, n)),
    residual) with Qs[..., j+1] Rs[..., j] = J[..., j] Qs[..., j] and
    Qs[..., 0] the identity; Qs and Rs are kept only with `frames`, and are
    None otherwise, as Benettin reads only the log diagonals.  Every window
    starts from the identity, so the column signs of windows other than 0
    are arbitrary; they are chained across the hand-over frames
    (Q <- Q S, R <- S R S), which leaves the diagonal of R as it is.  The
    residual is the largest mismatch of aligned hand-over frames.  Rank
    loss raises with the global step index, counted in units of `interval`
    steps.
    """
    d, _, B, n = J.shape
    K, core, overlap = _windows(n, core, overlap)
    span = K * core
    Q = np.broadcast_to(np.eye(d)[..., None, None], (d, d, B, K)).copy()
    diag = np.empty((d, B, n))
    steps = np.moveaxis(diag, 0, -1)    # (B, n, d), as np.diagonal gives
    Qs = Rs = None
    if frames:
        Qs = np.zeros((d, d, B, span + overlap + 1))
        Rs = np.zeros((d, d, B, span + overlap))
        Qs[..., 0] = Q[..., 0]
    hand = Q
    with np.errstate(all="ignore"):
        for t in range(core + overlap):
            P = J[..., t:t + span:core]
            m = P.shape[-1]
            Q[..., :m], R = _qr_pos(_matvec(P, Q[..., :m]))
            steps[:, t:t + m * core:core] = np.diagonal(R)
            if frames:
                Qs[..., t + 1:t + 1 + m * core:core] = Q[..., :m]
                Rs[..., t:t + m * core:core] = R
            if t == overlap - 1:
                hand = Q.copy()
    # window k's stored values: frames k*core + overlap + 1 .. + core
    S = np.ones((d, B, K))
    S[..., 1:] = np.cumprod(np.where(
        _dot(Q[..., :-1], hand[..., 1:]) < 0, -1.0, 1.0), axis=-1)
    mismatch = Q[..., :-1] * S[..., :-1] - hand[..., 1:] * S[..., 1:]
    residual = float(np.abs(mismatch).max(initial=0.0))
    if frames:
        Qs[..., overlap + 1:].reshape(d, d, B, K, core)[...] *= S[..., None]
        Rs[..., overlap:].reshape(d, d, B, K, core)[...] *= (
            S[:, None] * S)[..., None]
        Qs, Rs = Qs[..., :n + 1], Rs[..., :n]
    bad = ~(np.isfinite(diag) & (diag > 0.0))
    if bad.any():
        j = int(np.argmax(bad.any(axis=(0, 1)))) * interval
        cause = ("" if interval == 1 else f": block products of "
                 f"reorth_interval = {interval} steps lost rank")
        raise NumericalDegeneracyError(f"QR rank loss at step {j}{cause}",
                                       step=j)
    return (Qs, Rs, np.log(diag, out=diag)), residual


def _check_reorth(interval):
    if interval < 1:
        raise ParameterError("reorth_interval must be >= 1")


def benettin_spectrum(measure, reorth_interval):
    """Lyapunov spectrum of an EmpiricalMeasure by QR reorthonormalization
    over blocks of `reorth_interval` steps, its members pooled.  The block
    products are filled in member by member, each from that member's
    Jacobians, evaluated here, so no Jacobian array spans the sample."""
    _check_reorth(reorth_interval)
    family, alpha, orbits = measure.family, measure.alpha, measure.orbits
    B, L, d = orbits.shape
    nb = (L - 1) // reorth_interval
    P = np.empty((d, d, B, nb))
    for b, orb in enumerate(np.split(orbits, B)):
        P[:, :, b:b + 1] = _block_products(
            family.jacobian(alpha, orb[:, :-1]), reorth_interval)
    (_, _, logs), n_windows, residual = _windowed(
        lambda core, overlap: _forward_qr(P, core, overlap,
                                          reorth_interval), nb)
    return _spectrum(logs, reorth_interval, n_windows, residual)


@dataclass
class OseledetsSplitting:
    """Covariant Lyapunov vectors on a window of each member's orbit.

    clvs[..., b, j] has the CLVs of member b as columns, on planes, ordered
    by descending exponent; the first n_unstable columns span E^u, the rest
    E^s.  Window index j corresponds to orbit index j + offset.
    """

    points: np.ndarray       # (B, w, d)
    clvs: np.ndarray         # (d, d, B, w)
    n_unstable: int
    offset: int
    spectrum: LyapunovSpectrum

    def basis(self, which):
        """Orthonormal per-point basis of E^u ('u') or E^s ('s'), planes
        (d, k, B, w)."""
        cols = (self.clvs[:, :self.n_unstable] if which == "u"
                else self.clvs[:, self.n_unstable:])
        with np.errstate(all="ignore"):
            return _qr_pos(cols)[0]


def _clv_window(n, warmup):
    """(lo, hi): a sweep over n steps with this warmup gives the CLVs of
    frames lo .. hi - 1."""
    if warmup < 1:
        raise ParameterError("the CLV warmup must be at least 1 step")
    if n + 1 <= 2 * warmup:
        raise ParameterError("orbit shorter than twice the CLV warmup")
    return warmup, n + 1 - warmup


def _clv_sweep(J, warmup):
    """Ginelli forward/backward sweep for a batch of cocycles.

    J has shape (d, d, B, n); returns (clvs (d, d, B, w), logs (d, B, n),
    n_windows, residual): the CLVs of frames _clv_window(n, warmup), the
    log stretches of the forward QR pass, whose pooled spectrum is
    _spectrum, and the least window count and largest boundary residual
    over the forward pass and every backward recurrence, each run under
    _windowed.

    CLV c is Q_j A_j e_c, where Ginelli's upper-triangular coefficients
    satisfy A_j = R_j^-1 A_{j+1} up to column scaling.  In the ratios
    y_i = A_ic / A_cc, with y_c = 1, the backward step is the scalar affine
    recurrence y_i(j) = (R_cc y_i(j+1) - sum_{l=i+1..c} R_il y_l(j)) / R_ii,
    run from y_i(n) = 0 for i = c-1 down to 0; it contracts at the rate
    e^(lambda_c - lambda_i).  The CLVs are built in the forward frames Qs
    themselves, column d-1 first: column c reads only the columns i < c,
    which still hold Q, and is scaled to unit norm once built.
    """
    d, _, B, n = J.shape
    lo, hi = _clv_window(n, warmup)
    (Qs, Rs, logs), n_windows, residual = _windowed(
        lambda core, overlap: _forward_qr(J, core, overlap, frames=True),
        n)
    R = Rs[..., ::-1]                   # index t is step n - 1 - t
    V = Qs[..., lo:hi]
    for c in range(d - 1, -1, -1):
        y = {}                          # y[l][:, t] is y_l at frame n - t
        for i in range(c - 1, -1, -1):
            s = R[i, c]
            for l in range(i + 1, c):
                s = s + R[i, l] * y[l][:, 1:]
            y[i], windows, res = _affine_recurrence(R[c, c] / R[i, i],
                                                    -s / R[i, i])
            n_windows, residual = min(n_windows, windows), max(residual, res)
            V[:, c] += V[:, i] * y[i][:, ::-1][:, lo:hi]
        V[:, c] /= np.sqrt(_dot(V[:, c], V[:, c]))
    return V, logs, n_windows, residual


def compute_clvs(measure, warmup):
    """Covariant Lyapunov vectors of an EmpiricalMeasure's members and the
    Oseledets splitting they induce, from the members' pooled spectrum; the
    Jacobians along the orbits are evaluated here and dropped after the
    sweep.

    Requires a hyperbolic spectrum (LyapunovSpectrum.require_hyperbolic).
    """
    clvs, logs, n_windows, residual = _clv_sweep(measure.family.jacobian(
        measure.alpha, measure.orbits[:, :-1]), warmup)
    spectrum = _spectrum(logs, 1, n_windows, residual)
    spectrum.require_hyperbolic()
    return OseledetsSplitting(
        points=measure.orbits[:, warmup:warmup + clvs.shape[-1]], clvs=clvs,
        n_unstable=int(np.sum(spectrum.all_exponents > 0)), offset=warmup,
        spectrum=spectrum)


def splitting_angles(splitting):
    """Minimal principal angle between E^s and E^u at each point, (B, w).

    theta = atan2(sin, cos) with cos the largest singular value of B_a^T B_b
    and sin the smallest of (I - B_b B_b^T) B_a, for orthonormal bases B_a of
    the lower-dimensional subspace and B_b of the other (Knyazev & Argentati,
    SIAM J. Sci. Comput. 23, 2002).  arccos(cos) alone keeps only about half
    the digits of a small angle.  When B_a is one column, both singular values
    are column norms; otherwise the SVD runs on them as stacked matrices.
    """
    a, b = splitting.basis("u"), splitting.basis("s")
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    C = _matvec(b.swapaxes(0, 1), a)    # b^T a
    S = a - _matvec(b, C)
    if a.shape[1] == 1:
        cos = np.sqrt(_dot(C[:, 0], C[:, 0]))
        sin = np.sqrt(_dot(S[:, 0], S[:, 0]))
    else:
        cos = np.linalg.svd(np.moveaxis(C, (0, 1), (-2, -1)),
                            compute_uv=False)[..., 0]
        sin = np.linalg.svd(np.moveaxis(S, (0, 1), (-2, -1)),
                            compute_uv=False)[..., -1]
    return np.arctan2(sin, cos)


def covariance_residuals(splitting, family, alpha):
    """One-step pushforward residual of the unstable/stable subspaces.

    Returns (res_u, res_s), each (B, w - 1), with
    res[b, j] = ||(I - P_{j+1}) Df V_j|| / ||Df V_j||
    where P is the orthogonal projector on the corresponding subspace and
    Df is the family's Jacobian at alpha, evaluated at the window's points.
    """
    J = family.jacobian(alpha, splitting.points[:, :-1])
    out = []
    for which in ("u", "s"):
        basis = splitting.basis(which)
        V = _matvec(J, basis[..., :-1])
        Pn = basis[..., 1:]
        resid = V - _matvec(Pn, _matvec(Pn.swapaxes(0, 1), V))
        out.append(np.linalg.norm(resid, axis=(0, 1))
                   / np.linalg.norm(V, axis=(0, 1)))
    return out[0], out[1]

