import numpy as np
import pytest

from srblab import stats
from srblab.errors import InsufficientDataError


def _reference(x, n_batches, mask):
    """Masked batch means by plain loops: per_member batches of
    L // per_member samples per member, the remainder in the mean only."""
    m, L = x.shape
    per_member = min(L, int(np.ceil(n_batches / m)))
    b = L // per_member
    means = []
    for i in range(m):
        for k in range(per_member):
            vals = [x[i, j] for j in range(k * b, (k + 1) * b) if mask[i, j]]
            if vals:
                means.append(sum(vals) / len(vals))
    means = np.array(means)
    se = means.std(ddof=1) / np.sqrt(means.size)
    return x[mask].mean(), se


@pytest.mark.parametrize("shape", [(4, 3000), (3, 1001), (40, 57), (1, 999)])
def test_stacked_bitwise_equal_per_slice(shape):
    x = np.random.default_rng(1).standard_normal((3,) + shape)
    mu, se = stats.batch_means(x, 25)
    assert mu.shape == se.shape == (3,)
    for k in range(3):
        assert stats.batch_means(x[k], 25) == (mu[k], se[k])


def test_single_series_returns_floats():
    x = np.random.default_rng(2).standard_normal(1234)
    mu, se = stats.batch_means(x, 20)
    assert type(mu) is float and type(se) is float
    assert (mu, se) == stats.batch_means(x[None, :], 20)


@pytest.mark.parametrize("shape", [(16, 4800), (5, 1003), (30, 7)])
def test_all_true_mask_bitwise_equal_no_mask(shape):
    x = np.random.default_rng(3).standard_normal(shape)
    mask = np.ones(shape, dtype=bool)
    assert stats.batch_means(x, 25, mask) == stats.batch_means(x, 25)
    stacked = np.stack([x, 2 * x])
    for a, b in zip(stats.batch_means(stacked, 25, mask),
                    stats.batch_means(stacked, 25)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(16, 480), (5, 1003), (3, 10)])
def test_partial_mask_matches_loop_reference(shape):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(shape) + 0.3
    mask = rng.random(shape) > 0.3
    mask[0, : shape[1] // 2] = False        # a member's leading batches empty
    mu, se = stats.batch_means(x, 25, mask)
    ref_mu, ref_se = _reference(x, 25, mask)
    assert mu == pytest.approx(ref_mu, rel=1e-13)
    assert se == pytest.approx(ref_se, rel=1e-12)


def test_fewer_than_two_batches_gives_nan_error():
    mu, se = stats.batch_means(np.array([[1.0, 2.0, 3.0]]), 1)
    assert mu == 2.0 and np.isnan(se)


@pytest.mark.parametrize("x, mask", [
    (np.empty(0), None),
    (np.empty((3, 0)), None),
    (np.ones((2, 50)), np.zeros((2, 50), dtype=bool)),
])
def test_empty_or_fully_masked_raises(x, mask):
    with pytest.raises(InsufficientDataError):
        stats.batch_means(x, 20, mask)


@pytest.mark.parametrize("diff, stderr, expect", [
    (-6.0, (3.0, 4.0), 1.2),
    (2.0, (0.5,), 4.0),
    (0.0, (0.0, 0.0), 0.0),
    (2.0, (0.0, 0.0), float("inf")),
    (2.0, (1.0, float("nan")), float("nan")),
    (0.0, (float("nan"),), float("nan")),
])
def test_sigma_units(diff, stderr, expect):
    got = stats.sigma_units(diff, *stderr)
    assert type(got) is float
    assert got == expect or np.isnan(got) and np.isnan(expect)


def test_sigma_units_on_arrays():
    got = stats.sigma_units(np.array([0.0, -2.0, 3.0, 1.0]),
                            np.array([0.0, 0.0, 1.5, np.nan]), np.zeros(4))
    assert np.array_equal(got, [0.0, np.inf, 2.0, np.nan], equal_nan=True)
