"""Fold geometry on transversal lines: fold detection, projection along
stable directions, the fold counting function, Holder exponent estimation,
and a synthetic fold-convolution oracle with exact square-root-kernel cell
weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (FrameMisalignmentError, InsufficientDataError,
                     ParameterError)
from .stats import linear_fit


# ---------------------------------------------------------------------------
# Fold detection
# ---------------------------------------------------------------------------


@dataclass
class FoldSet:
    points: np.ndarray          # all sub-threshold points
    angles: np.ndarray
    representatives: np.ndarray  # per-cluster minimal-angle point


def detect_folds(points, angles, angle_threshold, chart=None,
                 cluster_radius=0.02):
    """Attractor points whose splitting angle is below the threshold,
    clustered by proximity (greedy, in order of increasing angle)."""
    points = np.asarray(points, dtype=float)
    angles = np.asarray(angles, dtype=float)
    sel = angles < angle_threshold
    pts = points[sel]
    ang = angles[sel]
    if pts.shape[0] == 0:
        return FoldSet(pts, ang, pts.copy())
    reps = []
    assigned = np.zeros(pts.shape[0], dtype=bool)
    for i in np.argsort(ang):
        if assigned[i]:
            continue
        if chart is not None:
            dist = np.linalg.norm(chart.difference(pts, pts[i]), axis=1)
        else:
            dist = np.linalg.norm(pts - pts[i], axis=1)
        members = (dist < cluster_radius) & ~assigned
        assigned |= members
        reps.append(pts[i])
    return FoldSet(pts, ang, np.asarray(reps))


# ---------------------------------------------------------------------------
# Projection along the stable direction onto a transversal line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransversalFrame:
    """A line through `base` with unit direction, parametrized by arc
    length theta."""

    base: tuple
    direction: tuple

    def unit(self):
        d = np.asarray(self.direction, dtype=float)
        return d / np.linalg.norm(d)


@dataclass
class Projection:
    theta: np.ndarray
    weights: np.ndarray
    excluded_weight: float
    n_excluded: int


def project_along_stable(points, stable_dirs, frame, weights=None,
                         min_angle=1e-3, max_excluded=0.2, chart=None):
    """First-order projection of each sample along its local stable line
    onto the frame line; returns theta coordinates with original weights.

    Samples whose stable line is nearly parallel to the frame are excluded
    and counted; more than max_excluded of the mass excluded raises
    FrameMisalignmentError.
    """
    points = np.asarray(points, dtype=float)
    s = np.asarray(stable_dirs, dtype=float)
    if points.shape[1] != 2:
        raise ParameterError("projection implemented for the planar case")
    if weights is None:
        weights = np.full(points.shape[0], 1.0 / points.shape[0])
    weights = np.asarray(weights, dtype=float)
    ell = frame.unit()
    base = np.asarray(frame.base, dtype=float)
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    # x + t s = base + theta ell  =>  [s, -ell] [t, theta]^T = base - x
    rhs = base - points if chart is None else -chart.difference(points, base)
    det = -s[:, 0] * ell[1] + s[:, 1] * ell[0]
    ok = np.abs(det) >= np.sin(min_angle)
    excluded_weight = float(weights[~ok].sum())
    if excluded_weight > max_excluded * weights.sum():
        raise FrameMisalignmentError(
            f"{excluded_weight:.1%} of the mass has stable direction nearly "
            "parallel to the frame line")
    theta = (s[ok, 0] * rhs[ok, 1] - s[ok, 1] * rhs[ok, 0]) / det[ok]
    return Projection(theta=theta, weights=weights[ok].copy(),
                      excluded_weight=excluded_weight,
                      n_excluded=int((~ok).sum()))


# ---------------------------------------------------------------------------
# Synthetic measures and the fold-convolution oracle
# ---------------------------------------------------------------------------


@dataclass
class DensityProfile:
    grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SigmaUniform:
    lo: float = 0.0
    hi: float = 1.0

    @property
    def dimension(self):
        return 1.0

    def cells(self):
        return np.array([[self.lo, self.hi, 1.0]]), np.empty((0, 2))


@dataclass(frozen=True)
class SigmaCantor:
    """Two-piece self-similar Cantor measure with contraction `ratio`;
    Hausdorff dimension log 2 / log(1/ratio)."""

    ratio: float = 1.0 / 3.0
    level: int = 12
    lo: float = 0.0
    hi: float = 1.0

    @property
    def dimension(self):
        return float(np.log(2.0) / np.log(1.0 / self.ratio))

    def cells(self):
        intervals = np.array([[self.lo, self.hi]])
        for _ in range(self.level):
            a, b = intervals[:, 0], intervals[:, 1]
            w = (b - a) * self.ratio
            intervals = np.concatenate(
                [np.stack([a, a + w], axis=1),
                 np.stack([b - w, b], axis=1)], axis=0)
            intervals = intervals[np.argsort(intervals[:, 0])]
        mass = np.full(intervals.shape[0], 1.0 / intervals.shape[0])
        return np.concatenate([intervals, mass[:, None]], axis=1), np.empty((0, 2))

    def sample(self, rng, size):
        """Exact draws via random base-2 digit choices."""
        x = np.full(size, float(self.lo))
        span = self.hi - self.lo
        scale = span
        for _ in range(60):
            right = rng.random(size) < 0.5
            x = x + right * (scale * (1.0 - self.ratio))
            scale *= self.ratio
            if scale < 1e-18 * span:
                break
        return x


@dataclass(frozen=True)
class SigmaAtoms:
    positions: tuple
    weights: tuple

    @property
    def dimension(self):
        return 0.0

    def cells(self):
        atoms = np.stack([np.asarray(self.positions, dtype=float),
                          np.asarray(self.weights, dtype=float)], axis=1)
        return np.empty((0, 3)), atoms


def make_sigma(kind, **kwargs):
    kinds = {"uniform": SigmaUniform, "cantor": SigmaCantor,
             "atoms": SigmaAtoms}
    if kind not in kinds:
        raise ParameterError(f"unknown sigma kind {kind!r}")
    return kinds[kind](**kwargs)


# synthetic_fold_convolution works on blocks of grid rows whose (rows x cells)
# temporaries hold about this many floats (2 MB).  At this size OpenBLAS
# keeps the product on one thread; blocks of 512 x 8192 cells spread it over
# every core for no gain in wall time, and took longer.
_FOLD_BLOCK = 2**18


def synthetic_fold_convolution(sigma, grid_size, side="two", domain=(0.0, 1.0)):
    """Exact oracle for the fold-convolved density
    Delta(theta) = integral d psi(tau) / sqrt(|theta - tau|).

    Uniform cells are integrated analytically against the square-root kernel
    (no quadrature error at the singularity); atoms contribute the bare
    1/sqrt singularity.  side selects tau < theta only ("one") or both
    sides ("two").
    """
    if grid_size < 2**10:
        raise ParameterError("grid resolution must be at least 2^10")
    if side not in ("one", "two"):
        raise ParameterError("side must be 'one' or 'two'")
    lo, hi = domain
    grid = lo + (hi - lo) * (np.arange(grid_size) + 0.5) / grid_size
    cells, atoms = sigma.cells()
    values = np.zeros(grid_size)
    rows = max(1, _FOLD_BLOCK // max(len(cells), len(atoms), 1))
    for start in range(0, grid_size, rows):
        th = grid[start:start + rows, None]
        if cells.size:
            a, b, mass = cells[:, 0], cells[:, 1], cells[:, 2]
            dens = mass / (b - a)
            # integral over [a, min(b, theta)] of dtau / sqrt(theta - tau)
            left_hi = np.minimum(b, th)
            left = 2.0 * (np.sqrt(np.maximum(th - a, 0.0))
                          - np.sqrt(np.maximum(th - left_hi, 0.0)))
            contrib = left
            if side == "two":
                right_lo = np.maximum(a, th)
                right = 2.0 * (np.sqrt(np.maximum(b - th, 0.0))
                               - np.sqrt(np.maximum(right_lo - th, 0.0)))
                contrib = contrib + right
            values[start:start + rows] += contrib @ dens
        if atoms.size:
            tau, wgt = atoms[:, 0], atoms[:, 1]
            diff = th - tau
            if side == "one":
                kern = np.where(diff > 0, 1.0 / np.sqrt(np.abs(diff)), 0.0)
            else:
                kern = 1.0 / np.sqrt(np.abs(diff))
            values[start:start + rows] += kern @ wgt
    return DensityProfile(grid=grid, values=values,
                          meta={"sigma": repr(sigma), "side": side})


# ---------------------------------------------------------------------------
# Holder exponent estimation
# ---------------------------------------------------------------------------


@dataclass
class HolderEstimate:
    exponent: float
    fit_range: tuple
    ci: tuple
    reliable: bool = True
    flag: Optional[str] = None


def holder_exponent(values, spacing, min_decades=1.5, max_fraction=0.25,
                    min_stride=16, floor=1e-12):
    """Holder exponent from the dyadic modulus of continuity.

    Computes M(delta) = max |f(t + delta) - f(t)| over dyadic delta and fits
    log M against log delta; the slope is the exponent.  Lags below
    min_stride grid cells are excluded: there the discrete modulus is
    contaminated by the grid offset and biases the slope."""
    v = np.asarray(values, dtype=float)
    if v.size < 16:
        raise InsufficientDataError("too few samples for a modulus fit")
    scale = max(float(np.abs(v).max()), 1.0)
    strides, mods = [], []
    s = max(1, int(min_stride))
    while s < max_fraction * v.size:
        mods.append(float(np.abs(v[s:] - v[:-s]).max()))
        strides.append(s)
        s *= 2
    strides = np.asarray(strides, dtype=float)
    mods = np.asarray(mods)
    if mods.max() < floor * scale:
        return HolderEstimate(1.0, (spacing, spacing * strides[-1]),
                              (1.0, 1.0), reliable=False,
                              flag="modulus-at-noise-floor")
    deltas = spacing * strides
    decades = np.log10(deltas[-1] / deltas[0])
    _, b, se_b, _ = linear_fit(np.log(deltas), np.log(mods))
    reliable = decades >= min_decades
    flag = None if reliable else "fit-range-below-1.5-decades"
    # modulus should be nondecreasing in delta up to tolerance
    if np.any(mods[1:] < 0.9 * np.maximum.accumulate(mods)[:-1]):
        reliable = False
        flag = "non-monotone-modulus"
    return HolderEstimate(float(b), (float(deltas[0]), float(deltas[-1])),
                          (b - 1.96 * se_b, b + 1.96 * se_b),
                          reliable=reliable, flag=flag)


# ---------------------------------------------------------------------------
# Counting function
# ---------------------------------------------------------------------------


@dataclass
class CountingFunction:
    positions: np.ndarray       # sorted fold parameters
    cumulative: np.ndarray      # psi values after each position
    exponent: float             # scaling exponent d-bar
    exponent_ci: tuple
    holder_constant: float
    flag: Optional[str] = None


def counting_function(theta, weights=None, min_points=100):
    """Weighted empirical CDF of fold parameters with a scaling-exponent
    estimate from the dyadic maximal increments max_t psi(t+delta) - psi(t)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size < min_points:
        raise InsufficientDataError(
            f"need at least {min_points} fold parameters, got {theta.size}")
    if weights is None:
        weights = np.full(theta.size, 1.0 / theta.size)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(theta)
    pos = theta[order]
    cum = np.cumsum(weights[order])
    span = pos[-1] - pos[0]
    if span == 0.0:
        return CountingFunction(pos, cum, 0.0, (0.0, 0.0),
                                float(cum[-1]), flag="atomic-measure")
    padded = np.concatenate([[0.0], cum])
    deltas, incs = [], []
    delta = span / 2.0 ** 12
    while delta <= span / 4.0:
        hi = np.searchsorted(pos, pos + delta, side="right")
        lo = np.searchsorted(pos, pos, side="left")
        inc = float(np.max(padded[hi] - padded[lo]))
        deltas.append(delta)
        incs.append(inc)
        delta *= 2.0
    deltas = np.asarray(deltas)
    incs = np.asarray(incs)
    total = cum[-1]
    # drop saturated scales (increment close to the full mass) and scales
    # below the resolution of the sample
    typical_gap = span / theta.size
    ok = (incs < 0.5 * total) & (deltas > 2.0 * typical_gap) & (incs > 0)
    flag = None
    if ok.sum() < 3:
        # atomic-dominated or too-coarse sample
        if np.all(incs >= 0.5 * total):
            return CountingFunction(pos, cum, 0.0, (0.0, 0.0),
                                    float(total), flag="atomic-measure")
        ok = incs > 0
        flag = "short-fit-range"
    _, slope, se_b, _ = linear_fit(np.log(deltas[ok]), np.log(incs[ok]))
    exponent = float(np.clip(slope, 0.0, 1.0))
    if slope > 1.0 or slope < 0.0:
        flag = flag or "exponent-clipped"
    C = float(np.max(incs[ok] / deltas[ok] ** exponent))
    return CountingFunction(pos, cum, exponent,
                            (slope - 1.96 * se_b, slope + 1.96 * se_b),
                            C, flag=flag)
