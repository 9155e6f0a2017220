"""SRB sampling by pushforward of absolutely continuous ensembles, Birkhoff
averages with batch-means error bars, correlation functions with mixing-rate
fits, and Lyapunov-based dimension estimates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BasinEscapeError, HyperbolicityError,
                     InsufficientDataError, ParameterError)
from .maps import _orbit
from .stats import batch_means, linear_fit

# srb_sample runs the transient in chunks of this many steps, keeping only
# each member's last point and whether it escaped, so the transient's
# memory does not grow with its length
TRANSIENT_CHUNK = 1024


@dataclass(frozen=True)
class BoxSampler:
    """Uniform law on a coordinate box (absolutely continuous w.r.t.
    Lebesgue); the smooth initial density pushed forward to sample the SRB
    measure."""

    low: tuple
    high: tuple

    def draw(self, rng, size):
        lo = np.asarray(self.low, dtype=float)
        hi = np.asarray(self.high, dtype=float)
        return lo + (hi - lo) * rng.random((size, lo.size))


def default_sampler(family):
    """A box inside the basin of each built-in family."""
    if family.chart.any_wrap:
        d = family.dimension
        return BoxSampler((0.0,) * d, (1.0,) * d)
    if family.name == "coupled_henon":
        return BoxSampler((-0.1,) * 4, (0.1,) * 4)
    return BoxSampler((-0.1, -0.1), (0.1, 0.1))


@dataclass
class EmpiricalMeasure:
    """Consecutive post-transient orbit points from an ensemble of
    independent draws of the initial density."""

    family: object
    alpha: float
    orbits: np.ndarray          # (members, length, d)
    n_escaped: int = 0

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


def srb_sample(family, alpha, sampler=None, transient=10_000, length=100_000,
               ensemble=1, seed=0):
    """Push an ensemble of smooth-density draws forward and keep the
    post-transient orbit segments.

    Escaped orbits are dropped and counted; more than 50% escapes raises
    BasinEscapeError.
    """
    if length < 1:
        raise ParameterError("length must be >= 1")
    if ensemble < 1:
        raise ParameterError("ensemble must be >= 1")
    if sampler is None:
        sampler = default_sampler(family)
    rng = np.random.default_rng(seed)
    x = sampler.draw(rng, ensemble)
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
            f"{n_escaped}/{ensemble} ensemble members escaped; "
            "initial density support is mischosen")
    return EmpiricalMeasure(
        family=family, alpha=alpha, orbits=orbits[alive],
        n_escaped=n_escaped)


def birkhoff_average(measure, obs, n_batches=20):
    """Ergodic average of an observable with batch-means standard error."""
    if len(measure) == 0:
        raise InsufficientDataError("empty measure")
    vals = obs.value(measure.orbits)
    return batch_means(vals, n_batches=n_batches)


@dataclass
class CorrelationSeries:
    lags: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    decay_rate: Optional[float] = None
    decay_rate_ci: Optional[tuple] = None
    fit_r2: Optional[float] = None
    fit_window: Optional[tuple] = None
    fit_undefined: bool = False


def correlation(measure, psi, phi, n_max, n_batches=20, noise_factor=2.0):
    """Centered cross-correlations C_n = rho((psi - <psi>)(phi o f^n - <phi>))
    for lags 0..n_max, with an exponential decay fit over the lags that sit
    above the noise floor."""
    if measure.length <= n_max:
        raise InsufficientDataError("orbit shorter than requested max lag")
    a = psi.value(measure.orbits)
    b = phi.value(measure.orbits)
    a = a - a.mean()
    b = b - b.mean()
    L = a.shape[1]
    lags = np.arange(n_max + 1)
    vals = np.empty(n_max + 1)
    errs = np.empty(n_max + 1)
    for n in lags:
        prod = a[:, : L - n] * b[:, n:]
        vals[n], errs[n] = batch_means(prod, n_batches=n_batches)
    series = CorrelationSeries(lags=lags, values=vals, stderr=errs)
    above = np.abs(vals[1:]) > noise_factor * errs[1:]
    idx = lags[1:][above]
    if idx.size < 3:
        series.fit_undefined = True
        return series
    _, slope, se_b, r2 = linear_fit(idx, np.log(np.abs(vals[idx])))
    series.decay_rate = -slope
    series.decay_rate_ci = (-slope - 1.96 * se_b, -slope + 1.96 * se_b)
    series.fit_r2 = r2
    series.fit_window = (int(idx.min()), int(idx.max()))
    return series


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


def dimension_estimates(spectrum, eps0=None):
    """Kaplan-Yorke dimension and the stable dimension d_s.

    d_s uses the entropy-over-stable-exponent ratio h / |lambda^s| with
    h the sum of positive exponents (SRB entropy); for more than one stable
    direction only a bracketing interval is available, from h over the
    strongest stable rate up to the Kaplan-Yorke stable dimension KY - n_u
    (never above h over the weakest rate, and at most n_s).
    """
    lam = spectrum.all_exponents
    se = spectrum.all_stderr
    threshold = eps0 if eps0 is not None else spectrum.zero_threshold()
    if np.any(np.abs(lam) <= threshold):
        raise HyperbolicityError(
            f"exponent within {threshold:.3g} of zero: {lam}")
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
