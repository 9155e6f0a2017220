"""Error bars for correlated time series by non-overlapping batch means,
discrepancies in units of those error bars, and least-squares line fits.

batch_means is the one accumulator behind every error bar in srblab:
Birkhoff averages and correlations, Lyapunov exponents, the susceptibility
coefficients kappa_n (optionally masked, for the split's excluded
near-tangency samples) and the split's unstable term.  All callers share
one batch layout, computed by reshape-sums without a loop over batches.
"""
from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError


def batch_means(x, n_batches, mask=None):
    """Mean and standard error of correlated series by batch means.

    x has shape (..., members, time), or (time,) for a single series; mask,
    of shape (members, time) or (time,), marks the entries that enter.  Each
    member is cut into per_member = min(time, ceil(n_batches / members))
    contiguous batches of time // per_member samples; the remainder enters
    the mean but no batch mean, and a batch with no entry in the mask is
    dropped.  Returns (mean, se) of shape (...), plain floats when that is
    0-d; se is nan with fewer than two batch means.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    m, L = x.shape[-2:]
    lead = x.shape[:-2]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(m, L)
        x = np.where(mask, x, 0.0)
    count = m * L if mask is None else int(mask.sum())
    if count == 0:
        raise InsufficientDataError("no samples to average")
    per_member = min(L, max(1, int(np.ceil(n_batches / m))))
    b = L // per_member
    mu = x.sum(axis=(-2, -1)) / count
    batches = (m * per_member, b)
    sums = x[..., : per_member * b].reshape(lead + batches).sum(axis=-1)
    if mask is None:
        means = sums / b
    else:
        counts = mask[:, : per_member * b].reshape(batches).sum(axis=-1)
        full = np.flatnonzero(counts)
        means = sums.take(full, axis=-1) / counts[full]
    if means.shape[-1] < 2:
        se = np.full(lead, np.nan)
    else:
        se = means.std(axis=-1, ddof=1) / np.sqrt(means.shape[-1])
    if not lead:
        return float(mu), float(se)
    return mu, se


def sigma_units(diff, *stderr):
    """|diff| in units of the combined standard error sqrt(sum of se^2).
    With no error, an exact agreement is 0 and any other diff is inf; a nan
    error gives nan, whatever diff is.  A plain float for scalar input."""
    diff = np.abs(diff)
    den = np.sqrt(sum(se**2 for se in stderr))
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.where((diff == 0) & (den == 0), 0.0, diff / den)
    return sigma if sigma.ndim else float(sigma)


def linear_fit(x, y):
    """Least-squares line y = a + b x; returns (a, b, se_b, r2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    A = np.vstack([np.ones(n), x]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    a, b = coef
    yhat = a + b * x
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if n > 2:
        sigma2 = ss_res / (n - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        se_b = float(np.sqrt(sigma2 / sxx)) if sxx > 0 else float("nan")
    else:
        se_b = float("nan")
    return float(a), float(b), se_b, r2
