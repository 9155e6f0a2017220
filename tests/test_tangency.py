import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planes_of
from srblab import maps, tangency, tangent
from srblab.errors import (FrameMisalignmentError, InsufficientDataError,
                           ParameterError)


def test_uniform_convolution_is_exact_sqrt():
    sig = tangency.make_sigma("uniform")
    one = tangency.synthetic_fold_convolution(sig, 4096, side="one",
                                              domain=(0.0, 1.0))
    assert np.array_equal(one.values, 2.0 * np.sqrt(one.grid))
    two = tangency.synthetic_fold_convolution(sig, 4096, side="two",
                                              domain=(0.0, 1.0))
    exact = 2.0 * (np.sqrt(two.grid) + np.sqrt(1.0 - two.grid))
    np.testing.assert_array_max_ulp(two.values, exact, maxulp=2)


# the single cell [0, 1e-9] of mass 1
_NARROW_CELL = tangency.Sigma(np.array([[0.0, 1e-9, 1.0]]), np.empty((0, 2)),
                              1.0)


def test_convolution_past_a_narrow_cell_does_not_cancel():
    # 2 (sqrt(theta) - sqrt(theta - eps)) / eps loses about 7 digits here
    prof = tangency.synthetic_fold_convolution(_NARROW_CELL, 1024,
                                               side="one", domain=(0.0, 1.0))
    x = 1e-9 / prof.grid
    ref = (1.0 + x / 4.0 + x**2 / 8.0) / np.sqrt(prof.grid)
    assert np.abs(prof.values / ref - 1.0).max() < 1e-14


def test_convolution_nonnegative_and_mass_consistent():
    sig = tangency.make_sigma("cantor", ratio=1.0 / 3.0, level=10)
    prof = tangency.synthetic_fold_convolution(sig, 4096, side="two",
                                               domain=(-1.0, 2.0))
    assert prof.values.min() >= 0.0


@pytest.mark.parametrize("sigma, side", [
    (tangency.make_sigma("cantor", ratio=1.0 / 3.0, level=5), "one"),
    (tangency.make_sigma("cantor", ratio=1.0 / 3.0, level=5), "two"),
    (tangency.make_sigma("atoms", positions=(0.2, 0.55, 0.9),
                         weights=(0.5, 0.3, 0.2)), "two"),
])
def test_convolution_blocks_change_nothing(monkeypatch, sigma, side):
    # one block of all 1500 rows against blocks of 7 rows, the last of 2
    whole = tangency.synthetic_fold_convolution(sigma, 1500, side=side,
                                                domain=(0.0, 1.0))
    n = max(len(sigma.cells), len(sigma.atoms))
    monkeypatch.setattr(tangency, "_FOLD_BLOCK", 7 * n)
    blocked = tangency.synthetic_fold_convolution(sigma, 1500, side=side,
                                                  domain=(0.0, 1.0))
    assert np.allclose(blocked.values, whole.values, rtol=1e-14, atol=0.0)


def test_holder_exponent_uniform_and_cantor():
    for sigma, expect in [(tangency.make_sigma("uniform"), 0.5),
                          (tangency.make_sigma("cantor", ratio=1.0 / 3.0,
                                               level=13), None)]:
        if expect is None:
            expect = sigma.dimension - 0.5
        prof = tangency.synthetic_fold_convolution(sigma, 8192, side="one",
                                                   domain=(0.0, 1.0))
        est = tangency.holder_exponent(prof.values,
                                       prof.grid[1] - prof.grid[0])
        assert est.reliable
        assert est.exponent == pytest.approx(expect, abs=0.05)


def test_holder_fit_range_spans_decades():
    sig = tangency.make_sigma("uniform")
    prof = tangency.synthetic_fold_convolution(sig, 8192, side="one",
                                               domain=(0.0, 1.0))
    est = tangency.holder_exponent(prof.values, prof.grid[1] - prof.grid[0])
    assert np.log10(est.fit_range[1] / est.fit_range[0]) >= 1.5


def test_holder_noise_floor_flagged():
    est = tangency.holder_exponent(np.full(4096, 3.7), 1e-3)
    assert not est.reliable
    assert est.flag == "modulus-at-noise-floor"


@pytest.mark.parametrize("size", [16, 64, 200])
def test_holder_exponent_needs_three_lags(size):
    # lags of 16, 32 and 64 cells, each below a quarter of the samples
    theta = (np.arange(size) + 0.5) / size
    with pytest.raises(InsufficientDataError):
        tangency.holder_exponent(np.sqrt(theta), 1.0 / size)


def test_subthreshold_blowup_under_refinement():
    """Transverse dimension 1/4: each extra construction level resolved by
    the grid doubles the profile maximum."""
    prev = None
    for level in (3, 4, 5):
        sig = tangency.make_sigma("cantor", ratio=1.0 / 16.0, level=level)
        assert sig.dimension == pytest.approx(0.25)
        prof = tangency.synthetic_fold_convolution(sig, 16**level, side="one",
                                                   domain=(0.0, 1.0))
        mx = prof.values.max()
        if prev is not None:
            assert mx / prev == pytest.approx(2.0, rel=0.2)
        prev = mx


def test_counting_function_uniform():
    # equispaced parameters: the maximal increment is exactly proportional
    # to the window, so the fitted exponent is 1 with no sampling noise
    tau = (np.arange(40_000) + 0.5) / 40_000
    cf = tangency.counting_function(tau)
    assert cf.exponent == pytest.approx(1.0, abs=0.02)
    rng = np.random.default_rng(1)
    cf2 = tangency.counting_function(rng.random(40_000))
    assert 0.8 <= cf2.exponent <= 1.0


def _cantor_sample(ratio, rng, size):
    """Exact draws from the Cantor measure of contraction `ratio` via random
    base-2 digit choices."""
    x = np.zeros(size)
    scale = 1.0
    for _ in range(60):
        right = rng.random(size) < 0.5
        x = x + right * (scale * (1.0 - ratio))
        scale *= ratio
        if scale < 1e-18:
            break
    return x


def test_counting_function_cantor():
    rng = np.random.default_rng(2)
    tau = _cantor_sample(1.0 / 3.0, rng, 60_000)
    cf = tangency.counting_function(tau)
    assert cf.exponent == pytest.approx(np.log(2) / np.log(3), abs=0.07)


def test_counting_function_atom():
    tau = np.concatenate([np.full(5000, 0.37), np.full(5000, 0.62)])
    cf = tangency.counting_function(tau)
    assert cf.exponent == pytest.approx(0.0, abs=0.05)
    assert cf.flag == "atomic-measure"


def test_counting_function_exponent_bounds():
    rng = np.random.default_rng(3)
    tau = rng.standard_normal(5000)
    cf = tangency.counting_function(tau)
    assert 0.0 <= cf.exponent <= 1.0


def test_counting_function_needs_points():
    with pytest.raises(InsufficientDataError):
        tangency.counting_function(np.arange(10.0))


@given(st.floats(0.1, 0.45), st.integers(3, 10))
@settings(max_examples=25, deadline=None)
def test_cantor_sigma_cells_partition_mass(ratio, level):
    sig = tangency.make_sigma("cantor", ratio=ratio, level=level)
    cells, atoms = sig.cells, sig.atoms
    widths = cells[:, 1] - cells[:, 0]
    assert np.all(widths > 0)
    assert len(cells) == 2**level
    assert np.all(cells[1:, 0] >= cells[:-1, 1] - 1e-12)
    assert cells[:, 2].sum() == pytest.approx(1.0)
    assert atoms.size == 0


def test_detect_folds_clusters(henon_splitting):
    sp = henon_splitting
    ang = tangent.splitting_angles(sp)
    folds = tangency.detect_folds(sp.points, ang, 0.01,
                                  chart=maps.flat(), cluster_radius=0.05)
    assert folds.points.shape[0] >= 1
    assert np.all(folds.angles < 0.01)
    assert folds.representatives.shape[0] <= folds.points.shape[0]


def test_detect_folds_without_a_fold():
    pts = np.random.default_rng(5).random((50, 2))
    folds = tangency.detect_folds(pts, np.full(50, 0.5), 0.01,
                                  chart=maps.flat(), cluster_radius=0.05)
    assert not folds.selected.any()
    assert folds.points.shape == (0, 2)
    assert folds.representatives.shape == (0, 2)


def test_project_along_stable_recovers_line_geometry():
    # points on the line y = 2 theta, projected along a fixed stable
    # direction onto the x-axis frame
    theta = np.linspace(0.1, 0.9, 200)
    pts = np.stack([theta, 2 * theta], axis=-1)
    s = np.array([0.0, 1.0])
    frame = tangency.TransversalFrame((0.0, 0.0), (1.0, 0.0))
    proj = tangency.project_along_stable(pts, planes_of(np.tile(s, (200, 1))),
                                         frame, min_angle=1e-3,
                                         chart=maps.flat())
    assert np.abs(proj - theta).max() < 1e-12


def test_project_along_stable_rejects_parallel_frame():
    pts = np.random.default_rng(4).random((100, 2))
    s = np.tile(np.array([1.0, 0.0]), (100, 1))
    frame = tangency.TransversalFrame((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(FrameMisalignmentError):
        tangency.project_along_stable(pts, planes_of(s), frame,
                                      min_angle=1e-3, chart=maps.flat())


@pytest.mark.parametrize("parallel", [20, 21])
def test_project_along_stable_excludes_up_to_a_fifth_of_the_points(parallel):
    # of 100 points, the first `parallel` have stable lines along the frame
    pts = np.random.default_rng(6).random((100, 2))
    s = np.tile(np.array([0.0, 1.0]), (100, 1))
    s[:parallel] = [1.0, 0.0]
    frame = tangency.TransversalFrame((0.0, 0.0), (1.0, 0.0))
    if parallel > tangency.MAX_EXCLUDED * 100:
        with pytest.raises(FrameMisalignmentError):
            tangency.project_along_stable(pts, planes_of(s), frame,
                                          min_angle=1e-3, chart=maps.flat())
    else:
        theta = tangency.project_along_stable(pts, planes_of(s), frame,
                                              min_angle=1e-3,
                                              chart=maps.flat())
        assert np.array_equal(theta, pts[parallel:, 0])


def test_make_sigma_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        tangency.make_sigma("lognormal")
