"""Error bars for correlated time series by non-overlapping batch means,
discrepancies in units of those error bars, and least-squares line fits.

batch_means is the one accumulator behind every error bar in srblab:
Birkhoff averages and correlations, Lyapunov exponents, the susceptibility
coefficients kappa_n and the split's terms.  Its two halves, batch_sums and
merge_batch_sums, reduce blocks of ensemble members one at a time, masked
where the split excludes near-tangency samples, and merge them.  All
callers share one batch layout, computed by reshape-sums without a loop
over batches.
"""
from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError


def batch_means(x, n_batches):
    """Mean and standard error of correlated series by batch means.

    x has shape (..., members, time), or (time,) for a single series.  Each
    member is cut into per_member = min(time, ceil(n_batches / members))
    contiguous batches of time // per_member samples; the remainder enters
    the mean but no batch mean.  Returns (mean, se) of shape (...), plain
    floats when that is 0-d; se is nan with fewer than two batch means.
    This is merge_batch_sums of x taken as one block.
    """
    x = np.asarray(x, dtype=float)
    members = x.shape[-2] if x.ndim > 1 else 1
    return merge_batch_sums([batch_sums(x, n_batches, members, None)])


def batch_sums(x, n_batches, members, mask):
    """The parts of batch_means for a block x (..., m, time), or (time,),
    of m consecutive members of an ensemble of `members`: per-batch sums
    (..., batches), per-batch entry counts (batches,), the total (...) and
    the number of entries.  mask, of shape (m, time) or (time,), marks the
    entries that enter, or is None for all; an excluded entry leaves both
    the total and its batch.

    The batch layout is the whole ensemble's, whatever m is, so the parts of
    consecutive blocks, merged in order, give its batch means bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    m, L = x.shape[-2:]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(m, L)
        x = np.where(mask, x, 0.0)
    per_member = max(1, min(L, int(np.ceil(n_batches / members))))
    b = L // per_member
    batches = m * per_member

    def batch_totals(a):
        # a view: the time axis of a slice cut in (per_member, b)
        a = a[..., :per_member * b]
        return a.reshape(a.shape[:-1] + (per_member, b)).sum(
            axis=-1).reshape(a.shape[:-2] + (batches,))

    sums = batch_totals(x)
    if mask is None:
        return sums, np.full(batches, b), x.sum(axis=(-2, -1)), m * L
    return sums, batch_totals(mask), x.sum(axis=(-2, -1)), int(mask.sum())


def merge_batch_sums(parts):
    """(mean, se) as batch_means gives them, from the batch_sums of
    consecutive member blocks in member order.  Batches with no entry are
    dropped; with no entry at all, InsufficientDataError.

    Every batch mean, and so the se, is bitwise that of the whole ensemble;
    the mean adds the blocks' totals in order, which moves it by rounding
    only.
    """
    sums = np.concatenate([p[0] for p in parts], axis=-1)
    counts = np.concatenate([p[1] for p in parts])
    _, _, total, count = parts[0]
    for _, _, t, c in parts[1:]:
        total = total + t
        count += c
    if count == 0:
        raise InsufficientDataError("no samples to average")
    full = np.flatnonzero(counts)
    if full.size < counts.size:
        sums, counts = sums.take(full, axis=-1), counts[full]
    means = sums / counts
    mu = total / count
    if full.size < 2:
        se = np.full(np.shape(mu), np.nan)
    else:
        se = means.std(axis=-1, ddof=1) / np.sqrt(full.size)
    if np.ndim(mu) == 0:
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
