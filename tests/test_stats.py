import tracemalloc

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


def _masked_means(x, n_batches, mask):
    """batch_means of x with a mask: the merge of x as one block."""
    members = x.shape[-2] if x.ndim > 1 else 1
    return stats.merge_batch_sums([stats.batch_sums(x, n_batches, members,
                                                    mask)])


@pytest.mark.parametrize("shape", [(4, 3000), (3, 1001), (40, 57), (1, 999)])
def test_stacked_bitwise_equal_per_slice(shape):
    x = np.random.default_rng(1).standard_normal((3,) + shape)
    mu, se = stats.batch_means(x, 25)
    assert mu.shape == se.shape == (3,)
    for k in range(3):
        assert stats.batch_means(x[k], 25) == (mu[k], se[k])


@pytest.mark.parametrize("shape, members", [((3, 1001), 3),
                                             ((2, 3, 1003), 5)])
@pytest.mark.parametrize("masked", [False, True])
def test_batch_sums_match_the_reshape_copy(shape, members, masked):
    # a layout with a remainder per member, against the copying reshape of
    # the whole block the sums used to take
    rng = np.random.default_rng(2)
    x = rng.standard_normal(shape)
    m, L = shape[-2:]
    mask = rng.random((m, L)) < 0.9 if masked else None
    per_member = max(1, min(L, int(np.ceil(25 / members))))
    b = L // per_member
    assert L % per_member
    kept = np.where(mask, x, 0.0) if masked else x
    ref = kept[..., :per_member * b].reshape(
        shape[:-2] + (m * per_member, b)).sum(axis=-1)
    sums, counts, _, _ = stats.batch_sums(x, 25, members, mask)
    assert np.array_equal(sums, ref)
    if masked:
        assert np.array_equal(counts, mask[:, :per_member * b].reshape(
            m * per_member, b).sum(axis=-1))


def test_batch_sums_copies_no_input():
    # 4 members of 100,003 with 7 batches each leave a remainder, which
    # made the reshape copy the whole 3.2 MB input
    x = np.random.default_rng(3).standard_normal((4, 100_003))
    tracemalloc.start()
    try:
        stats.batch_sums(x, 25, 4, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4


def test_single_series_returns_floats():
    x = np.random.default_rng(2).standard_normal(1234)
    mu, se = stats.batch_means(x, 20)
    assert type(mu) is float and type(se) is float
    assert (mu, se) == stats.batch_means(x[None, :], 20)


@pytest.mark.parametrize("shape", [(16, 4800), (5, 1003), (30, 7)])
def test_all_true_mask_bitwise_equal_no_mask(shape):
    x = np.random.default_rng(3).standard_normal(shape)
    mask = np.ones(shape, dtype=bool)
    assert _masked_means(x, 25, mask) == stats.batch_means(x, 25)
    stacked = np.stack([x, 2 * x])
    for a, b in zip(_masked_means(stacked, 25, mask),
                    stats.batch_means(stacked, 25)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(16, 480), (5, 1003), (3, 10)])
def test_partial_mask_matches_loop_reference(shape):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(shape) + 0.3
    mask = rng.random(shape) > 0.3
    mask[0, : shape[1] // 2] = False        # a member's leading batches empty
    mu, se = _masked_means(x, 25, mask)
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
        _masked_means(x, 20, mask)


def _block_parts(x, n_batches, mask, edges):
    """batch_sums of x's members cut into blocks at the member indices
    `edges`."""
    cuts = [0, *edges, x.shape[-2]]
    return [stats.batch_sums(x[..., a:b, :], n_batches, x.shape[-2],
                             None if mask is None else mask[a:b])
            for a, b in zip(cuts[:-1], cuts[1:])]


@pytest.mark.parametrize("shape, edges", [
    ((16, 4800), [2, 4, 6, 8, 10, 12, 14]), ((5, 1003), [1, 3]),
    ((30, 7), [7, 8, 29]), ((2, 3, 700), [1])])
@pytest.mark.parametrize("masked", [False, True])
def test_member_blocks_merge_to_the_whole(shape, edges, masked):
    # the batch layout is the whole ensemble's, so every batch mean and the
    # se come out bitwise; only the mean's sum runs block by block
    rng = np.random.default_rng(6)
    x = rng.standard_normal(shape) + 0.3
    mask = None
    if masked:
        mask = rng.random(shape[-2:]) > 0.3
        mask[:edges[0]] = False           # the first block's batches dropped
    mu, se = _masked_means(x, 25, mask)
    parts = _block_parts(x, 25, mask, edges)
    block_mu, block_se = stats.merge_batch_sums(parts)
    assert np.array_equal(block_se, se)
    np.testing.assert_allclose(block_mu, mu, rtol=1e-15, atol=0)


def test_member_blocks_with_no_entry_raise():
    mask = np.zeros((4, 50), dtype=bool)
    parts = _block_parts(np.ones((4, 50)), 20, mask, [1, 2])
    with pytest.raises(InsufficientDataError):
        stats.merge_batch_sums(parts)


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
