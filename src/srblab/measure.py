"""SRB sampling by pushforward of absolutely continuous ensembles, Birkhoff
averages with batch-means error bars, correlation functions with mixing-rate
fits, and Lyapunov-based dimension estimates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BasinEscapeError, InsufficientDataError, ParameterError
from .maps import _orbit
from .stats import batch_means, linear_fit

# srb_sample runs the transient in chunks of this many steps, keeping only
# each member's last point and whether it escaped, so the transient's
# memory does not grow with its length
TRANSIENT_CHUNK = 1024

N_BATCHES = 20


@dataclass(frozen=True)
class BoxSampler:
    """Uniform law on a coordinate box (absolutely continuous w.r.t.
    Lebesgue); the smooth initial density pushed forward to sample the SRB
    measure.  low and high have equal lengths."""

    low: tuple
    high: tuple

    def __post_init__(self):
        if np.shape(self.low) != np.shape(self.high):
            raise ParameterError("the sampler's low and high differ in length")

    def draw(self, rng, size):
        lo = np.asarray(self.low, dtype=float)
        hi = np.asarray(self.high, dtype=float)
        return lo + (hi - lo) * rng.random((size, lo.size))


def default_sampler(family):
    """A box inside the basin of each built-in family."""
    d = family.dimension
    if family.chart.any_wrap:
        return BoxSampler((0.0,) * d, (1.0,) * d)
    return BoxSampler((-0.1,) * d, (0.1,) * d)


@dataclass
class EmpiricalMeasure:
    """Consecutive post-transient orbit points from an ensemble of
    independent draws of the initial density."""

    family: object
    alpha: float
    orbits: np.ndarray          # (members, length, d)
    n_escaped: int

    @property
    def points(self):
        return self.orbits.reshape(-1, self.orbits.shape[-1])

    @property
    def n_members(self):
        return self.orbits.shape[0]

    @property
    def length(self):
        return self.orbits.shape[1]

    def __len__(self):
        return self.orbits.shape[0] * self.orbits.shape[1]


def srb_sample(family, alpha, transient, length, ensemble, seed,
               sampler=None):
    """Push an ensemble of smooth-density draws forward and keep the
    post-transient orbit segments.

    Escaped orbits are dropped and counted; more than 50% escapes raises
    BasinEscapeError.  The seed must be at least 0, and the sampler's
    points must have the family's dimension.
    """
    if length < 1:
        raise ParameterError("length must be >= 1")
    if ensemble < 1:
        raise ParameterError("ensemble must be >= 1")
    if transient < 0:
        raise ParameterError("transient must be >= 0")
    if seed < 0:
        raise ParameterError(f"the sampling seed must be >= 0, got {seed}")
    if sampler is None:
        sampler = default_sampler(family)
    rng = np.random.default_rng(seed)
    x = sampler.draw(rng, ensemble)
    if x.shape[-1] != family.dimension:
        raise ParameterError(f"the sampler's points have {x.shape[-1]} "
                             f"entries, not {family.dimension}")
    gone = np.zeros(ensemble, dtype=bool)
    for done in range(0, transient, TRANSIENT_CHUNK):
        head, bad = _orbit(family, alpha, x,
                           min(TRANSIENT_CHUNK, transient - done))
        gone |= bad.any(axis=-1)
        x = head[:, -1]
    orbits, bad = _orbit(family, alpha, x, length - 1)
    alive = ~(gone | bad.any(axis=-1))
    n_escaped = int(ensemble - alive.sum())
    if n_escaped * 2 > ensemble:
        raise BasinEscapeError(
            f"{n_escaped}/{ensemble} ensemble members of {family.name} at "
            f"alpha = {alpha:g} escaped: the initial density's support lies "
            "outside the basin, or there is no attractor at this alpha")
    # with no member lost, the history is the sample, without a copy
    return EmpiricalMeasure(
        family=family, alpha=alpha,
        orbits=orbits[alive] if n_escaped else orbits, n_escaped=n_escaped)


def birkhoff_average(measure, obs):
    """Ergodic average of an observable with batch-means standard error."""
    if len(measure) == 0:
        raise InsufficientDataError("empty measure")
    vals = obs.value(measure.orbits)
    return batch_means(vals, n_batches=N_BATCHES)


@dataclass
class CorrelationSeries:
    lags: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    decay_rate: Optional[float]
    decay_rate_ci: Optional[tuple]
    fit_r2: Optional[float]
    fit_window: Optional[tuple]
    fit_undefined: bool


def _check_lag(n_max):
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")


def correlation(measure, phi, n_max):
    """Centered autocorrelations C_n = rho((phi - <phi>)(phi o f^n - <phi>))
    for lags 0..n_max, with an exponential decay fit over the lags that sit
    above the noise floor of twice their standard error."""
    _check_lag(n_max)
    if measure.length <= n_max:
        raise InsufficientDataError("orbit shorter than requested max lag")
    # centred in place, but a value that is a view of the orbits, as a
    # coordinate's is, is copied first
    a = np.require(phi.value(measure.orbits), float, "OW")
    a -= a.mean()
    L = a.shape[1]
    lags = np.arange(n_max + 1)
    vals = np.empty(n_max + 1)
    errs = np.empty(n_max + 1)
    for n in lags:
        prod = a[:, : L - n] * a[:, n:]
        vals[n], errs[n] = batch_means(prod, n_batches=N_BATCHES)
    above = np.abs(vals[1:]) > 2.0 * errs[1:]
    idx = lags[1:][above]
    if idx.size < 3:
        return CorrelationSeries(lags, vals, errs, None, None, None, None,
                                 fit_undefined=True)
    _, slope, se_b, r2 = linear_fit(idx, np.log(np.abs(vals[idx])))
    return CorrelationSeries(
        lags, vals, errs, decay_rate=-slope,
        decay_rate_ci=(-slope - 1.96 * se_b, -slope + 1.96 * se_b),
        fit_r2=r2, fit_window=(int(idx.min()), int(idx.max())),
        fit_undefined=False)


@dataclass
class DimensionEstimate:
    kaplan_yorke: float
    d_s: float
    d_s_interval: tuple
    method: str


def kaplan_yorke(exponents):
    """Kaplan-Yorke dimension from a descending exponent list."""
    lam = np.asarray(exponents, dtype=float)
    c = np.cumsum(lam)
    k = int(np.sum(c >= 0))
    if k == 0:
        return 0.0
    if k == lam.size:
        return float(lam.size)
    return float(k + c[k - 1] / abs(lam[k]))


def dimension_estimates(spectrum):
    """Kaplan-Yorke dimension and the stable dimension d_s.

    d_s uses the entropy-over-stable-exponent ratio h / |lambda^s| with
    h the sum of positive exponents (SRB entropy); for more than one stable
    direction only a bracketing interval is available, from h over the
    strongest stable rate up to the Kaplan-Yorke stable dimension KY - n_u
    (never above h over the weakest rate, and at most n_s).  Requires a
    hyperbolic spectrum (LyapunovSpectrum.require_hyperbolic).
    """
    spectrum.require_hyperbolic()
    lam = spectrum.all_exponents
    se = spectrum.all_stderr
    ky = kaplan_yorke(lam)
    pos = lam > 0
    neg = lam < 0
    h = float(lam[pos].sum())
    if not pos.any():
        return DimensionEstimate(ky, 0.0, (0.0, 0.0), "trivial-attractor")
    h_se = float(np.sqrt(np.sum(se[pos] ** 2)))
    neg_abs = np.abs(lam[neg])
    if neg_abs.size == 1:
        lam_s = float(neg_abs[0])
        lam_s_se = float(se[neg][0])
        d_s = h / lam_s
        unc = d_s * np.sqrt((h_se / h) ** 2 + (lam_s_se / lam_s) ** 2)
        return DimensionEstimate(ky, d_s, (d_s - unc, d_s + unc),
                                 "entropy-ratio")
    lo = h / float(neg_abs.max())
    hi = ky - int(pos.sum())
    return DimensionEstimate(ky, 0.5 * (lo + hi), (lo, hi),
                             "entropy-ratio-bracket")
