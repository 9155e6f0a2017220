import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srblab import maps
from srblab.errors import OrbitEscapeError, ParameterError

ALPHAS = {"cat_translate": 0.1, "cat_shear": 0.1, "henon": 1.4,
          "standard_map": 0.5, "coupled_henon": 1.4}


def _random_points(fam, rng, n=100):
    if fam.chart.any_wrap:
        return rng.random((n, fam.dimension))
    return rng.uniform(-0.1, 0.1, (n, fam.dimension))


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_jacobian_matches_finite_differences(name):
    fam = maps.get_family(name)
    alpha = ALPHAS[name]
    rng = np.random.default_rng(7)
    pts = _random_points(fam, rng)
    h = 1e-6
    for x in pts:
        J = fam.jacobian(alpha, x)
        fd = np.empty_like(J)
        for i in range(fam.dimension):
            e = np.zeros(fam.dimension)
            e[i] = h
            fp = fam.step(alpha, x + e)
            fm = fam.step(alpha, x - e)
            fd[:, i] = fam.chart.difference(fp, fm) / (2 * h)
        assert np.linalg.norm(J - fd) / np.linalg.norm(J) < 1e-5


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_param_derivative_matches_finite_differences(name):
    fam = maps.get_family(name)
    alpha = ALPHAS[name]
    rng = np.random.default_rng(8)
    pts = _random_points(fam, rng, 50)
    h = 1e-6
    X = fam.param_derivative(alpha, pts)
    fd = fam.chart.difference(fam.step(alpha + h, pts),
                              fam.step(alpha - h, pts)) / (2 * h)
    assert np.abs(X - fd).max() < 1e-5


@pytest.mark.parametrize("name", sorted(set(ALPHAS) - {"coupled_henon"}))
def test_second_derivatives_match_finite_differences(name):
    """hessian is D^2 f[a, b] and param_jacobian d/dalpha Df, both against
    central differences of the jacobian."""
    fam = maps.get_family(name)
    alpha = ALPHAS[name]
    rng = np.random.default_rng(12)
    pts = _random_points(fam, rng, 50)
    a, b = rng.standard_normal((2, 50, 2))
    h = 1e-5
    H = fam.hessian(alpha, pts, a, b)
    dJ = fam.jacobian(alpha, pts + h * b) - fam.jacobian(alpha, pts - h * b)
    fd = np.einsum("sij,sj->si", dJ, a) / (2 * h)
    assert H.shape == pts.shape
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(fd).max()
    dJa = fam.param_jacobian(alpha, pts)
    fd = (fam.jacobian(alpha + h, pts) - fam.jacobian(alpha - h, pts)) / (2 * h)
    assert dJa.shape == pts.shape + (2,)
    assert np.abs(dJa - fd).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_inverse_roundtrip(name):
    fam = maps.get_family(name)
    if fam.inverse is None:
        pytest.skip("no inverse")
    alpha = ALPHAS[name]
    rng = np.random.default_rng(9)
    y = _random_points(fam, rng, 50)
    back = fam.step(alpha, fam.inverse(alpha, y))
    assert np.abs(fam.chart.difference(back, y)).max() < 1e-10


def test_jacobian_determinant_nonzero_everywhere():
    rng = np.random.default_rng(10)
    for name, alpha in ALPHAS.items():
        fam = maps.get_family(name)
        J = fam.jacobian(alpha, _random_points(fam, rng))
        assert np.abs(np.linalg.det(J)).min() > 1e-12


def test_henon_determinant_constant():
    fam = maps.get_family("henon")
    rng = np.random.default_rng(11)
    J = fam.jacobian(1.4, rng.uniform(-1.5, 1.5, (200, 2)))
    assert np.abs(np.linalg.det(J) + fam.params["b"]).max() < 1e-12


def test_cat_fixed_points():
    fam = maps.get_family("cat_translate")
    assert np.allclose(fam.step(0.0, np.array([0.0, 0.0])), 0.0)
    # (.5,.5) -> (1.5 mod 1, 1.0 mod 1) = (.5, 0)
    assert np.allclose(fam.step(0.0, np.array([0.5, 0.5])), [0.5, 0.0])


def test_henon_known_image():
    fam = maps.get_family("henon")
    assert np.allclose(fam.step(1.4, np.array([0.0, 0.0])), [1.0, 0.0])
    assert np.allclose(fam.step(1.4, np.array([1.0, 0.0])), [-0.4, 0.3])


def test_torus_coordinates_reduced():
    fam = maps.get_family("cat_shear")
    orbit = maps.iterate(fam, 0.3, np.array([0.9999, 0.0001]), 500)
    assert orbit.min() >= 0.0 and orbit.max() < 1.0


def test_orbit_determinism():
    fam = maps.get_family("standard_map")
    a = maps.iterate(fam, 0.7, np.array([0.123, 0.456]), 1000)
    b = maps.iterate(fam, 0.7, np.array([0.123, 0.456]), 1000)
    assert np.array_equal(a, b)


def test_orbit_escape_reports_step():
    fam = maps.get_family("henon")
    with pytest.raises(OrbitEscapeError) as exc:
        maps.iterate(fam, 1.4, np.array([50.0, 50.0]), 100)
    assert exc.value.step >= 1


def test_iterate_rejects_negative_count():
    fam = maps.get_family("henon")
    with pytest.raises(ParameterError):
        maps.iterate(fam, 1.4, np.array([0.0, 0.0]), -1)


def test_iterate_batch_freezes_escapees():
    fam = maps.get_family("henon")
    x = np.array([[0.1, 0.1], [80.0, 80.0], [1.5, 0.5]])
    hist = maps.iterate_batch(fam, 1.4, x, 30)
    assert hist.shape == (31, 3, 2)
    assert np.array_equal(hist[:, 0], maps.iterate(fam, 1.4, x[0], 30))
    # a member that starts escaped keeps its input in the first row
    assert np.array_equal(hist[0, 1], x[1])
    assert np.all(np.isnan(hist[1:, 1]))
    with pytest.raises(OrbitEscapeError) as exc:
        maps.iterate(fam, 1.4, x[2], 30)
    step = exc.value.step
    assert step > 1 and np.all(np.isfinite(hist[:step, 2]))
    assert np.all(np.isnan(hist[step:, 2]))


def _array_orbit(fam, alpha, x, n):
    """History and escaped mask of x through step itself: a batch of one
    row, which the float path never takes."""
    hist, bad = maps._orbit(fam, alpha, np.asarray(x, dtype=float)[None], n)
    return hist[0], bad[0]


def _escape_step(fam, alpha, x, n):
    try:
        maps.iterate(fam, alpha, x, n)
    except OrbitEscapeError as exc:
        return exc.step
    return None


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_float_path_bitwise_equals_array_path(name):
    fam = maps.get_family(name)
    rng = np.random.default_rng(21)
    for x in _random_points(fam, rng, 3):
        orbit = maps.iterate(fam, ALPHAS[name], x, 10_000)
        ref, bad = _array_orbit(fam, ALPHAS[name], x, 10_000)
        assert not bad.any()
        assert orbit.tobytes() == ref.tobytes()


def test_float_path_escape_index_matches_array_path():
    fam = maps.get_family("henon")
    starts = np.random.default_rng(22).uniform(-2.5, 2.5, (60, 2))
    escaped = 0
    for x in starts:
        hist, bad = maps._orbit(fam, 1.4, x, 200)
        ref, ref_bad = _array_orbit(fam, 1.4, x, 200)
        assert np.array_equal(bad, ref_bad)
        k = int(np.argmax(ref_bad)) if ref_bad.any() else None
        assert _escape_step(fam, 1.4, x, 200) == k
        if k is not None:
            escaped += 1
            assert hist[:k + 1].tobytes() == ref[:k + 1].tobytes()
    assert 10 < escaped < 60


@pytest.mark.parametrize("name", sorted(ALPHAS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_escapes_at_step_zero(name, bad):
    """math.sin and math.floor refuse non-finite values; the float path
    hands over to numpy instead of raising ValueError or OverflowError."""
    fam = maps.get_family(name)
    x = np.full(fam.dimension, 0.05)
    x[-1] = bad
    assert _escape_step(fam, ALPHAS[name], x, 20) == 0
    hist = maps.iterate_batch(fam, ALPHAS[name], x[None], 20)
    assert np.all(np.isnan(hist[1:]))


@pytest.mark.parametrize("chunk", [64, maps.FLOAT_CHUNK])
def test_float_path_hands_over_mid_orbit(monkeypatch, chunk):
    """A formula that reaches inf after about 300 steps: math.sin raises
    there and numpy finishes the orbit, with the same bits as step."""
    monkeypatch.setattr(maps, "FLOAT_CHUNK", chunk)
    step = maps._component_step(lambda m, a, x0, x1: (a * x0, m.sin(a * x0)))
    fam = maps.MapFamily("blowup", 2, maps.flat(), step, None, None,
                         escape_radius=1e150)
    x = np.array([1.0, 0.0])
    hist, bad = maps._orbit(fam, 10.0, x, 400)
    ref, ref_bad = _array_orbit(fam, 10.0, x, 400)
    assert np.isinf(hist[-1, 0]) and np.isnan(hist[-1, 1])
    assert hist.tobytes() == ref.tobytes()
    assert np.array_equal(bad, ref_bad)
    assert _escape_step(fam, 10.0, x, 400) == int(np.argmax(ref_bad))


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_float_path_alpha_types_give_the_same_bits(name):
    fam = maps.get_family(name)
    x = _random_points(fam, np.random.default_rng(23), 1)[0]
    for alphas in ((1, 1.0, np.float64(1.0)),
                   (ALPHAS[name], np.float64(ALPHAS[name]))):
        ref, _ = _array_orbit(fam, alphas[0], x, 2000)
        for alpha in alphas:
            orbit = maps.iterate(fam, alpha, x, 2000)
            assert orbit.tobytes() == ref.tobytes()


def test_swapped_step_runs_instead_of_the_formula():
    fam = maps.get_family("henon")
    halve = dataclasses.replace(fam, step=lambda a, x: 0.5 * np.asarray(x))
    orbit = maps.iterate(halve, 1.4, np.array([1.0, -2.0]), 10)
    assert np.array_equal(orbit[:, 0], 0.5 ** np.arange(11))
    assert np.array_equal(orbit[:, 1], -2.0 * 0.5 ** np.arange(11))


def test_torus_reduction_of_a_tiny_negative_gives_one():
    """u - floor(u) is 1.0, not in [0, 1), for u in (-2**-54, 0)."""
    assert np.array_equal(maps.torus().reduce([-1e-17, 0.5]), [1.0, 0.5])
    fam = maps.get_family("cat_translate")
    # (0, 0) -> (alpha, alpha * 0) with alpha = -1e-17
    orbit = maps.iterate(fam, -1e-17, np.array([0.0, 0.0]), 1)
    ref, _ = _array_orbit(fam, -1e-17, [0.0, 0.0], 1)
    assert np.array_equal(orbit[1], [1.0, 0.0])
    assert orbit.tobytes() == ref.tobytes()


def test_catalog_contents():
    names = {f.name for f in maps.builtin_catalog()}
    assert {"cat_translate", "cat_shear", "henon", "standard_map",
            "coupled_henon"} <= names
    assert maps.get_family("coupled_henon").dimension == 4
    with pytest.raises(ParameterError):
        maps.get_family("no_such_system")


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-0.5, 0.5))
@settings(max_examples=50, deadline=None)
def test_cat_shear_inverse_property(x1, x2, alpha):
    fam = maps.get_family("cat_shear")
    y = np.array([x1 % 1.0, x2 % 1.0])
    back = fam.step(alpha, fam.inverse(alpha, y))
    assert np.abs(fam.chart.difference(back, y)).max() < 1e-9


def test_observable_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    pts = rng.random((100, 2))
    h = 1e-6
    for obs in maps.observable_catalog(2):
        g = obs.gradient(pts)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (obs.value(pts + e) - obs.value(pts - e)) / (2 * h)
            assert np.abs(g[:, i] - fd).max() < 1e-5


def test_observable_catalog_rejects_low_dimension():
    with pytest.raises(ParameterError):
        maps.observable_catalog(1)


def test_perturbation_field_consistency_along_orbit():
    """along_orbit and at_points agree where the inverse exists."""
    fam = maps.get_family("cat_shear")
    orbit = maps.iterate(fam, 0.2, np.array([0.3, 0.7]), 200)
    X = maps.PerturbationField(fam, 0.2)
    a = X.along_orbit(orbit)
    b = X.at_points(orbit[1:])
    assert np.abs(a - b).max() < 1e-10


def test_explicit_field_divergence_analytic_vs_numeric():
    two_pi = 2 * np.pi

    def fn(x):
        return np.stack([np.sin(two_pi * x[..., 0]),
                         np.cos(two_pi * x[..., 1])], axis=-1)

    def div(x):
        return two_pi * (np.cos(two_pi * x[..., 0])
                         - np.sin(two_pi * x[..., 1]))

    rng = np.random.default_rng(13)
    pts = rng.random((50, 2))
    exact = maps.ExplicitField(fn, 2, div)
    numeric = maps.ExplicitField(fn, 2)
    assert np.abs(exact.divergence(pts) - numeric.divergence(pts)).max() < 1e-4
