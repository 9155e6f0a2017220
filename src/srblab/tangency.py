"""Fold geometry on transversal lines: fold detection, projection along
stable directions, the fold counting function, Holder exponent estimation,
and a synthetic fold-convolution oracle with exact square-root-kernel cell
weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (FrameMisalignmentError, InsufficientDataError,
                     ParameterError)
from .maps import _checked_call, _finite
from .stats import linear_fit

MAX_EXCLUDED = 0.2       # share of the points project_along_stable may exclude
MIN_FOLD_POINTS = 100    # fewest fold parameters counting_function accepts


# ---------------------------------------------------------------------------
# Fold detection
# ---------------------------------------------------------------------------


@dataclass
class FoldSet:
    selected: np.ndarray        # the fold mask over the input points
    points: np.ndarray          # all sub-threshold points
    angles: np.ndarray
    representatives: np.ndarray  # per-cluster minimal-angle point


def detect_folds(points, angles, angle_threshold, chart, cluster_radius):
    """Attractor points whose splitting angle is below the threshold,
    clustered by proximity (greedy, in order of increasing angle)."""
    points = np.asarray(points, dtype=float)
    angles = np.asarray(angles, dtype=float)
    sel = angles < angle_threshold
    pts = points[sel]
    ang = angles[sel]
    reps = []
    assigned = np.zeros(pts.shape[0], dtype=bool)
    for i in np.argsort(ang):
        if assigned[i]:
            continue
        dist = np.linalg.norm(chart.difference(pts, pts[i]), axis=1)
        members = (dist < cluster_radius) & ~assigned
        assigned |= members
        reps.append(pts[i])
    return FoldSet(sel, pts, ang, np.reshape(reps, (-1, pts.shape[1])))


# ---------------------------------------------------------------------------
# Projection along the stable direction onto a transversal line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransversalFrame:
    """A line through `base` with unit direction, parametrized by arc
    length theta: 2 finite entries each, the direction nonzero."""

    base: tuple
    direction: tuple

    def __post_init__(self):
        if not (all(np.shape(v) == (2,) and _finite(list(v))
                    for v in (self.base, self.direction))
                and any(self.direction)):
            raise ParameterError("a transversal frame needs a base and a "
                                 "nonzero direction of 2 finite entries each")

    def unit(self):
        d = np.asarray(self.direction, dtype=float)
        return d / np.linalg.norm(d)


def _check_planar(dimension):
    """ParameterError unless the phase space is a plane, the one case
    project_along_stable implements."""
    if dimension != 2:
        raise ParameterError("projection implemented for the planar case")


def project_along_stable(points, stable_dirs, frame, min_angle, chart):
    """First-order projection of each sample along its local stable line
    onto the frame line; returns the theta coordinates of the samples kept.
    stable_dirs are planes (2, k), as the CLVs' columns are.

    Samples whose stable line is nearly parallel to the frame are excluded
    and counted; more than MAX_EXCLUDED of the points excluded raises
    FrameMisalignmentError.
    """
    points = np.asarray(points, dtype=float)
    s = np.asarray(stable_dirs, dtype=float)
    _check_planar(points.shape[1])
    ell = frame.unit()
    base = np.asarray(frame.base, dtype=float)
    s = s / np.linalg.norm(s, axis=0)
    # x + t s = base + theta ell  =>  [s, -ell] [t, theta]^T = base - x
    rhs = -chart.difference(points, base)
    det = -s[0] * ell[1] + s[1] * ell[0]
    ok = np.abs(det) >= np.sin(min_angle)
    excluded = np.count_nonzero(~ok)
    if excluded > MAX_EXCLUDED * ok.size:
        raise FrameMisalignmentError(
            f"{excluded} of {ok.size} points have a stable direction nearly "
            "parallel to the frame line")
    return (s[0, ok] * rhs[ok, 1] - s[1, ok] * rhs[ok, 0]) / det[ok]


# ---------------------------------------------------------------------------
# Synthetic measures and the fold-convolution oracle
# ---------------------------------------------------------------------------


@dataclass
class DensityProfile:
    grid: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Sigma:
    """A transverse measure on [0, 1] for the fold oracle: uniform cells as
    rows (a, b, mass) of cells (k, 3), point masses as rows (position,
    mass) of atoms (j, 2), and its dimension."""

    cells: np.ndarray
    atoms: np.ndarray
    dimension: float


def sigma_uniform():
    """Lebesgue measure on [0, 1]."""
    return Sigma(np.array([[0.0, 1.0, 1.0]]), np.empty((0, 2)), 1.0)


def sigma_cantor(ratio=1.0 / 3.0, level=12):
    """Two-piece self-similar Cantor measure on [0, 1] with contraction
    `ratio` in (0, 1/2], cut `level` >= 1 times into 2^level cells of equal
    mass; Hausdorff dimension log 2 / log(1/ratio)."""
    if not (0.0 < ratio <= 0.5 and isinstance(level, int) and level >= 1):
        raise ParameterError("a Cantor sigma needs a ratio in (0, 1/2] "
                             "and an integer level of at least 1")
    intervals = np.array([[0.0, 1.0]])
    for _ in range(level):
        a, b = intervals[:, 0], intervals[:, 1]
        w = (b - a) * ratio
        intervals = np.concatenate(
            [np.stack([a, a + w], axis=1),
             np.stack([b - w, b], axis=1)], axis=0)
        intervals = intervals[np.argsort(intervals[:, 0])]
    mass = np.full(intervals.shape[0], 1.0 / intervals.shape[0])
    return Sigma(np.concatenate([intervals, mass[:, None]], axis=1),
                 np.empty((0, 2)), float(np.log(2.0) / np.log(1.0 / ratio)))


def sigma_atoms(positions, weights):
    """Point masses `weights` at `positions`, lists of equal length."""
    if not (np.ndim(positions) == np.ndim(weights) == 1
            and len(positions) == len(weights)):
        raise ParameterError("a sigma's atom positions and weights must "
                             "be lists of equal length")
    return Sigma(np.empty((0, 3)),
                 np.stack([np.asarray(positions, dtype=float),
                           np.asarray(weights, dtype=float)], axis=1), 0.0)


_SIGMA_KINDS = {"uniform": sigma_uniform, "cantor": sigma_cantor,
                "atoms": sigma_atoms}


def make_sigma(kind, **kwargs):
    """The sigma of `kind`, built by maps._checked_call from kwargs."""
    return _checked_call(_SIGMA_KINDS, kind, kwargs, "sigma kind")


# synthetic_fold_convolution takes blocks of grid rows of about this many
# (row, cell) pairs, in two buffers reused by every block (fresh temporaries
# page-fault).  On the shipped Cantor oracle, fresh process, 2-CPU x86: 2^18
# took 0.18-0.22 s; 2^16, 2^17 and 2^19 took 0.19-0.28 s.
_FOLD_BLOCK = 2**18


def _rationalized(th, near, far, buf):
    """1 / (sqrt(th - near) + sqrt(th - far)), in the two halves of buf."""
    n = th.size * near.size
    root, far_root = buf[:, :n].reshape(2, th.size, near.size)
    np.sqrt(np.subtract(th, near, out=root), out=root)
    root += np.sqrt(np.subtract(th, far, out=far_root), out=far_root)
    return np.reciprocal(root, out=root)


def synthetic_fold_convolution(sigma, grid_size, side, domain):
    """Exact oracle for the fold-convolved density
    Delta(theta) = integral d psi(tau) / sqrt(|theta - tau|).

    A uniform cell [a, b] of mass m is integrated analytically against the
    kernel, with no quadrature error at the singularity: on tau < theta it
    gives 2m K, K = 0 for theta <= a, sqrt(theta - a) / (b - a) inside the
    cell and 1 / (sqrt(theta - a) + sqrt(theta - b)), free of cancellation,
    past it.  Atoms contribute the bare 1/sqrt singularity.  side selects
    tau < theta only ("one") or adds the mirror image ("two"), for which an
    atom on a grid point is an error.  domain is (lo, hi), finite, lo < hi.
    """
    if grid_size < 2**10:
        raise ParameterError("grid resolution must be at least 2^10")
    if side not in ("one", "two"):
        raise ParameterError("side must be 'one' or 'two'")
    if not (np.shape(domain) == (2,) and _finite(list(domain))
            and domain[0] < domain[1]):
        raise ParameterError("the domain needs 2 finite entries lo < hi")
    lo, hi = domain
    grid = lo + (hi - lo) * (np.arange(grid_size) + 0.5) / grid_size
    cells, atoms = sigma.cells, sigma.atoms
    on_grid = atoms[np.isin(atoms[:, 0], grid), 0].tolist()
    if side == "two" and on_grid:
        i = np.flatnonzero(grid == on_grid[0])[0]
        raise ParameterError(f"atom at {on_grid[0]} lies on grid point {i}, "
                             "where the two-sided kernel is infinite")
    a, b, w = cells[:, 0], cells[:, 1], 2.0 * cells[:, 2]
    values = np.zeros(grid_size)
    rows = max(1, _FOLD_BLOCK // max(len(cells), len(atoms), 1))
    buf = np.empty((2, rows * len(cells)))
    for start in range(0, grid_size, rows):
        th = grid[start:start + rows, None]
        out = values[start:start + rows]
        below, above = b <= th.min(), a >= th.max()
        straddle = ~(below | above)
        am, bm = a[straddle], b[straddle]
        sa = np.sqrt(np.maximum(th - am, 0.0))
        kern = np.divide(1.0, sa + np.sqrt(np.maximum(th - bm, 0.0)),
                         out=sa / (bm - am), where=th >= bm)
        out += _rationalized(th, a[below], b[below], buf) @ w[below]
        if side == "two":
            sb = np.sqrt(np.maximum(bm - th, 0.0))
            kern += np.divide(1.0, sb + np.sqrt(np.maximum(am - th, 0.0)),
                              out=sb / (bm - am), where=th <= am)
            out += _rationalized(-th, -b[above], -a[above], buf) @ w[above]
        out += kern @ w[straddle]
        diff = th - atoms[:, 0]
        kern = np.divide(1.0, np.sqrt(np.abs(diff)), out=np.zeros_like(diff),
                         where=(diff > 0) | (side == "two"))
        out += kern @ atoms[:, 1]
    return DensityProfile(grid=grid, values=values)


# ---------------------------------------------------------------------------
# Holder exponent estimation
# ---------------------------------------------------------------------------


@dataclass
class HolderEstimate:
    exponent: float
    fit_range: tuple
    ci: tuple
    reliable: bool
    flag: Optional[str]


def holder_exponent(values, spacing):
    """Holder exponent from the dyadic modulus of continuity.

    Computes M(delta) = max |f(t + delta) - f(t)| over dyadic delta from 16
    grid cells to a quarter of the grid and fits log M against log delta;
    the slope is the exponent.  Lags below 16 cells are excluded: there the
    discrete modulus is contaminated by the grid offset and biases the
    slope.  The fit needs three lags, so more than 256 samples.  A fit over
    less than 1.5 decades is flagged unreliable, and a modulus below 1e-12
    of the values' scale (at least 1) gives the exponent 1, flagged."""
    v = np.asarray(values, dtype=float)
    strides, mods = [], []
    s = 16
    while s < 0.25 * v.size:
        mods.append(float(np.abs(v[s:] - v[:-s]).max()))
        strides.append(s)
        s *= 2
    if len(strides) < 3:
        raise InsufficientDataError(
            f"a modulus fit needs 3 dyadic lags, more than 256 samples; "
            f"got {v.size}")
    scale = max(float(np.abs(v).max()), 1.0)
    strides = np.asarray(strides, dtype=float)
    mods = np.asarray(mods)
    if mods.max() < 1e-12 * scale:
        return HolderEstimate(1.0, (spacing, spacing * strides[-1]),
                              (1.0, 1.0), reliable=False,
                              flag="modulus-at-noise-floor")
    deltas = spacing * strides
    decades = np.log10(deltas[-1] / deltas[0])
    _, b, se_b, _ = linear_fit(np.log(deltas), np.log(mods))
    reliable = decades >= 1.5
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
    exponent: float             # scaling exponent d-bar
    exponent_ci: tuple
    holder_constant: float
    flag: Optional[str]


def counting_function(theta):
    """Scaling exponent of the empirical CDF psi of fold parameters, each of
    mass 1/n, from the dyadic maximal increments max_t psi(t+delta) -
    psi(t)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size < MIN_FOLD_POINTS:
        raise InsufficientDataError(
            f"need at least {MIN_FOLD_POINTS} fold parameters, "
            f"got {theta.size}")
    pos = np.sort(theta)
    cum = np.cumsum(np.full(theta.size, 1.0 / theta.size))
    span = pos[-1] - pos[0]
    if span == 0.0:
        return CountingFunction(0.0, (0.0, 0.0), float(cum[-1]),
                                flag="atomic-measure")
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
            return CountingFunction(0.0, (0.0, 0.0), float(total),
                                    flag="atomic-measure")
        ok = incs > 0
        flag = "short-fit-range"
    _, slope, se_b, _ = linear_fit(np.log(deltas[ok]), np.log(incs[ok]))
    exponent = float(np.clip(slope, 0.0, 1.0))
    if slope > 1.0 or slope < 0.0:
        flag = flag or "exponent-clipped"
    C = float(np.max(incs[ok] / deltas[ok] ** exponent))
    return CountingFunction(exponent,
                            (slope - 1.96 * se_b, slope + 1.96 * se_b),
                            C, flag=flag)
