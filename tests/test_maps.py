import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import orbit_of, planes_of, stack_of
from srblab import maps, measure, tangency
from srblab.errors import ParameterError

ALPHAS = {"cat_translate": 0.1, "cat_shear": 0.1, "henon": 1.4,
          "standard_map": 0.5, "coupled_henon": 1.4}


def _random_points(fam, rng, n=100):
    if fam.chart.any_wrap:
        return rng.random((n, fam.dimension))
    return rng.uniform(-0.1, 0.1, (n, fam.dimension))


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_jacobian_matches_finite_differences(name, array_step):
    fam = maps.get_family(name)
    step = array_step(fam)
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
            fp = step(alpha, x + e)
            fm = step(alpha, x - e)
            fd[:, i] = fam.chart.difference(fp, fm) / (2 * h)
        assert np.linalg.norm(J - fd) / np.linalg.norm(J) < 1e-5


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_param_derivative_matches_finite_differences(name, array_step):
    fam = maps.get_family(name)
    step = array_step(fam)
    alpha = ALPHAS[name]
    rng = np.random.default_rng(8)
    pts = _random_points(fam, rng, 50)
    h = 1e-6
    X = stack_of(fam.param_derivative(alpha, pts))
    fd = fam.chart.difference(step(alpha + h, pts),
                              step(alpha - h, pts)) / (2 * h)
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
    H = stack_of(fam.hessian(alpha, pts, planes_of(a), planes_of(b)))
    dJ = stack_of(fam.jacobian(alpha, pts + h * b)
                  - fam.jacobian(alpha, pts - h * b), 2)
    fd = np.einsum("sij,sj->si", dJ, a) / (2 * h)
    assert H.shape == pts.shape
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(fd).max()
    dJa = stack_of(fam.param_jacobian(alpha, pts), 2)
    fd = stack_of(fam.jacobian(alpha + h, pts)
                  - fam.jacobian(alpha - h, pts), 2) / (2 * h)
    assert dJa.shape == pts.shape + (2,)
    assert np.abs(dJa - fd).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_component_callables_assemble_pointwise(name):
    """Every callable maps._components builds, and the gradient of every
    catalogue observable, gives a (3, 7, d) batch of points as contiguous
    component planes (d[, d], 3, 7) holding the bits each point gets alone;
    hessian directions are planes (d, 3, 7), and a direction pair of shape
    (d,) broadcasts over the batch.  So does the orbit loop: on component
    planes for the batch, on floats alone."""
    fam = maps.get_family(name)
    alpha, d = ALPHAS[name], fam.dimension
    rng = np.random.default_rng(31)
    x = _random_points(fam, rng, 21).reshape(3, 7, d)
    u, w = np.moveaxis(rng.standard_normal((2, 3, 7, d)), -1, 1)
    a, b = rng.standard_normal((2, d))
    at = functools.partial
    cases = [(at(fam.jacobian, alpha), (), (d, d)),
             (at(fam.param_derivative, alpha), (), (d,))]
    if fam.hessian is not None:
        cases += [(at(fam.hessian, alpha), (u, w), (d,)),
                  (at(fam.hessian, alpha), (a, b), (d,)),
                  (at(fam.param_jacobian, alpha), (), (d, d))]
    cases += [(obs.gradient, (), (d,)) for obs in maps.observable_catalog(d)]
    for fn, directions, core in cases:
        batch = fn(x, *directions)
        assert batch.shape == core + (3, 7) and batch.flags.c_contiguous
        for i in np.ndindex(3, 7):
            alone = fn(x[i], *[v[(slice(None),) + i] if v.ndim == 3 else v
                               for v in directions])
            assert alone.shape == core
            assert alone.tobytes() == batch[(...,) + i].tobytes()
    hist, bad = maps._orbit(fam, alpha, x, 50)
    assert hist.shape == (3, 7, 51, d) and not bad.any()
    for i in np.ndindex(3, 7):
        alone, _ = maps._orbit(fam, alpha, x[i], 50)
        assert alone.tobytes() == hist[i].tobytes()


def test_jacobian_determinant_nonzero_everywhere():
    rng = np.random.default_rng(10)
    for name, alpha in ALPHAS.items():
        fam = maps.get_family(name)
        J = stack_of(fam.jacobian(alpha, _random_points(fam, rng)), 2)
        assert np.abs(np.linalg.det(J)).min() > 1e-12


def test_henon_determinant_constant():
    fam = maps.get_family("henon", {"b": 0.25})
    rng = np.random.default_rng(11)
    J = stack_of(fam.jacobian(1.4, rng.uniform(-1.5, 1.5, (200, 2))), 2)
    assert np.abs(np.linalg.det(J) + 0.25).max() < 1e-12


def test_cat_fixed_points(array_step):
    step = array_step(maps.get_family("cat_translate"))
    assert np.allclose(step(0.0, np.array([0.0, 0.0])), 0.0)
    # (.5,.5) -> (1.5 mod 1, 1.0 mod 1) = (.5, 0)
    assert np.allclose(step(0.0, np.array([0.5, 0.5])), [0.5, 0.0])


def test_henon_known_image(array_step):
    step = array_step(maps.get_family("henon"))
    assert np.allclose(step(1.4, np.array([0.0, 0.0])), [1.0, 0.0])
    assert np.allclose(step(1.4, np.array([1.0, 0.0])), [-0.4, 0.3])


def test_torus_coordinates_reduced():
    fam = maps.get_family("cat_shear")
    orbit = orbit_of(fam, 0.3, np.array([0.9999, 0.0001]), 500)
    assert orbit.min() >= 0.0 and orbit.max() < 1.0


def test_orbit_determinism():
    fam = maps.get_family("standard_map")
    a = orbit_of(fam, 0.7, np.array([0.123, 0.456]), 1000)
    b = orbit_of(fam, 0.7, np.array([0.123, 0.456]), 1000)
    assert np.array_equal(a, b)


def test_orbit_escape_reports_step():
    fam = maps.get_family("henon")
    _, bad = maps._orbit(fam, 1.4, np.array([50.0, 50.0]), 100)
    assert not bad[0] and bad.any()
    # once out of the basin, every later point is out too
    assert bad[int(np.argmax(bad)):].all()


def test_escaping_member_leaves_the_others_bits():
    fam = maps.get_family("henon")
    x = np.array([[0.1, 0.1], [80.0, 80.0], [1.5, 0.5]])
    hist, bad = maps._orbit(fam, 1.4, x, 30)
    assert hist.shape == (3, 31, 2)
    assert bad[1, 0] and 1 < _escape_step(fam, 1.4, x[2], 30) < 31
    assert hist[0].tobytes() == orbit_of(fam, 1.4, x[0], 30).tobytes()


def _array_orbit(fam, alpha, x, n):
    """History and escaped mask of x stepped on numpy component planes: row
    0 of a batch of FLOAT_MEMBERS + 1 copies, which the float path never
    takes."""
    x = np.asarray(x, dtype=float)
    hist, bad = maps._orbit(fam, alpha,
                            np.stack([x] * (maps.FLOAT_MEMBERS + 1)), n)
    return hist[0], bad[0]


def _escape_step(fam, alpha, x, n):
    """The first escaped step of the orbit of x, None if it stays."""
    _, bad = maps._orbit(fam, alpha, x, n)
    return int(np.argmax(bad)) if bad.any() else None


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_float_path_bitwise_equals_array_path(name):
    fam = maps.get_family(name)
    rng = np.random.default_rng(21)
    for x in _random_points(fam, rng, 3):
        orbit = orbit_of(fam, ALPHAS[name], x, 10_000)
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
    _, bad = maps._orbit(fam, ALPHAS[name], x[None], 20)
    assert bad.all()


@pytest.mark.parametrize("chunk", [64, maps.FLOAT_CHUNK])
def test_float_path_hands_over_mid_orbit(monkeypatch, chunk):
    """A step that reaches inf after about 300 steps: math.sin raises
    there and numpy finishes the orbit, with the bits of the array path."""
    monkeypatch.setattr(maps, "FLOAT_CHUNK", chunk)
    monkeypatch.setattr(maps, "ESCAPE_RADIUS", 1e150)
    fam = maps.MapFamily("blowup", 2, maps.flat(),
                         lambda m, a, x0, x1: (a * x0, m.sin(a * x0)),
                         None, None)
    x = np.array([1.0, 0.0])
    hist, bad = maps._orbit(fam, 10.0, x, 400)
    ref, ref_bad = _array_orbit(fam, 10.0, x, 400)
    assert np.isinf(hist[-1, 0]) and np.isnan(hist[-1, 1])
    assert hist.tobytes() == ref.tobytes()
    assert np.array_equal(bad, ref_bad)


@pytest.mark.parametrize("name", sorted(ALPHAS))
def test_float_path_alpha_types_give_the_same_bits(name):
    fam = maps.get_family(name)
    x = _random_points(fam, np.random.default_rng(23), 1)[0]
    for alphas in ((1, 1.0, np.float64(1.0)),
                   (ALPHAS[name], np.float64(ALPHAS[name]))):
        ref, _ = _array_orbit(fam, alphas[0], x, 2000)
        for alpha in alphas:
            orbit = orbit_of(fam, alpha, x, 2000)
            assert orbit.tobytes() == ref.tobytes()


def test_swapped_step_runs_instead_of_the_formula():
    fam = maps.get_family("henon")
    halve = dataclasses.replace(
        fam, step=lambda m, a, x0, x1: (0.5 * x0, 0.5 * x1))
    x = np.array([1.0, -2.0])
    expected = x * 0.5 ** np.arange(11)[:, None]
    assert np.array_equal(orbit_of(halve, 1.4, x, 10), expected)
    batch = orbit_of(halve, 1.4, np.stack([x, 4.0 * x]), 10)
    assert np.array_equal(batch, np.stack([expected, 4.0 * expected]))


def test_wrapped_step_is_called_on_single_points_and_batches():
    """A functools.wraps wrapper around a family's step, as a tracer
    installs, is what every orbit steps through, with m = math one point at
    a time for a batch of at most FLOAT_MEMBERS points and m = numpy for a
    larger batch."""
    fam = maps.get_family("henon")
    calls = []

    @functools.wraps(fam.step)
    def counted(m, *args):
        calls.append(m)
        return fam.step(m, *args)

    traced = dataclasses.replace(fam, step=counted)
    x = np.random.default_rng(24).uniform(-0.1, 0.1, (9, 2))
    # one point, of shape (d,) or (1, d), runs on floats
    for point in (x[0], x[:1]):
        calls.clear()
        assert (maps._orbit(traced, 1.4, point, 30)[0].tobytes()
                == maps._orbit(fam, 1.4, point, 30)[0].tobytes())
        assert calls == [math] * 30
    calls.clear()
    single = measure.srb_sample(traced, 1.4, 10, 21, 1, 0)
    assert calls == [math] * 30
    assert (single.orbits.tobytes()
            == measure.srb_sample(fam, 1.4, 10, 21, 1, 0).orbits.tobytes())
    assert maps.FLOAT_MEMBERS == 8
    for size, m in ((2, math), (8, math), (9, np)):
        calls.clear()
        assert (maps._orbit(traced, 1.4, x[:size], 30)[0].tobytes()
                == maps._orbit(fam, 1.4, x[:size], 30)[0].tobytes())
        assert calls == [m] * 30 * (size if m is math else 1)


def test_float_batch_with_escapes_matches_array_path():
    """An 8-point Henon batch on floats, one member escaping mid-orbit and
    one starting non-finite, has the bits and escape masks of the same
    points stepped on planes."""
    fam = maps.get_family("henon")
    x = np.random.default_rng(25).uniform(-0.1, 0.1, (maps.FLOAT_MEMBERS, 2))
    x[3] = [2.0, 0.5]
    x[5] = [np.nan, 0.0]
    hist, bad = maps._orbit(fam, 1.4, x, 200)
    planes = np.concatenate([x, x[:1]])
    ref, ref_bad = maps._orbit(fam, 1.4, planes, 200)
    assert hist.tobytes() == ref[:-1].tobytes()
    assert np.array_equal(bad, ref_bad[:-1])
    assert bad[5, 0] and 1 < int(np.argmax(bad[3])) < 200
    assert not bad[[0, 1, 2, 4, 6, 7]].any()


def test_torus_reduction_of_a_tiny_negative_gives_one():
    """u - floor(u) is 1.0, not in [0, 1), for u in (-2**-54, 0)."""
    assert np.array_equal(maps.torus().reduce([-1e-17, 0.5]), [1.0, 0.5])
    # np.round rounds half to even: differences of 0.5 and 2.5 give +0.5
    assert np.array_equal(maps.torus().difference([0.5, -0.5, 2.5], 0.0),
                          [0.5, -0.5, 0.5])
    fam = maps.get_family("cat_translate")
    # (0, 0) -> (alpha, alpha * 0) with alpha = -1e-17
    orbit = orbit_of(fam, -1e-17, np.array([0.0, 0.0]), 1)
    ref, _ = _array_orbit(fam, -1e-17, [0.0, 0.0], 1)
    assert np.array_equal(orbit[1], [1.0, 0.0])
    assert orbit.tobytes() == ref.tobytes()


def test_catalog_contents():
    for name in ("cat_translate", "cat_shear", "henon", "standard_map",
                 "coupled_henon"):
        assert maps.get_family(name).name == name
    assert maps.get_family("coupled_henon").dimension == 4
    with pytest.raises(ParameterError):
        maps.get_family("no_such_system")


@pytest.mark.parametrize("name, params", [
    ("henon", {"c": 1}),                 # a parameter henon does not take
    ("cat_shear", {"b": 0.3}),
    ("henon", {"b": "x"}),
    ("henon", {"b": True}),
    ("henon", {"b": float("nan")}),
    ("cat_translate", {"v": [1.0, "a"]}),
    ("cat_translate", {"v": [[1.0, 0.0]]}),
    ("cat_translate", {"v": [1.0, 0.0, 5.0]}),
])
def test_family_parameters_are_checked(name, params):
    with pytest.raises(ParameterError):
        maps.get_family(name, params)


def _sample(**kwargs):
    return measure.srb_sample(maps.get_family("henon"), 1.4, **{
        "transient": 10, "length": 20, "ensemble": 2, "seed": 0, **kwargs})


@pytest.mark.parametrize("call", [
    lambda: tangency.make_sigma("uniform", ratio=0.3),
    lambda: tangency.make_sigma("atoms", positions=(0.2,)),
    lambda: tangency.make_sigma("cantor", weights=(1.0,)),
    lambda: tangency.make_sigma("cantor", ratio="x"),
    lambda: tangency.make_sigma("cantor", ratio=float("nan")),
    lambda: tangency.make_sigma("cantor", ratio=0.7, level=3),
    lambda: tangency.make_sigma("cantor", ratio=0.0),
    lambda: tangency.make_sigma("cantor", level=0),
    lambda: tangency.make_sigma("cantor", level=2.5),
    lambda: tangency.make_sigma("atoms", positions=(0.2, 0.7),
                                weights=(1.0,)),
    lambda: tangency.make_sigma("atoms", positions=0.2, weights=1.0),
    lambda: tangency.TransversalFrame((0.0, 0.2), (0.0, 0.0)),
    lambda: tangency.TransversalFrame((0.0, 0.2, 0.0), (1.0, 0.0)),
    lambda: tangency.TransversalFrame((0.0, 0.2), (1.0, float("nan"))),
    lambda: tangency.synthetic_fold_convolution(
        tangency.make_sigma("uniform"), 1024, "one", (1.0, 0.0)),
    lambda: tangency.synthetic_fold_convolution(
        tangency.make_sigma("uniform"), 1024, "one", (0.0, 0.5, 1.0)),
    lambda: measure.BoxSampler((0.0, 0.0), (1.0, 1.0, 1.0)),
    lambda: _sample(sampler=measure.BoxSampler((0.0,) * 3, (0.1,) * 3)),
    lambda: _sample(seed=-1),
], ids=["uniform-ratio", "atoms-no-weights", "cantor-weights",
        "ratio-text", "ratio-nan", "ratio-above-half", "ratio-zero",
        "level-zero", "level-fraction", "atoms-lengths", "atoms-scalars",
        "frame-zero-direction", "frame-3-entries", "frame-nan",
        "domain-reversed", "domain-3-entries", "box-lengths",
        "sampler-dimension", "seed-negative"])
def test_values_are_checked_by_their_owner(monkeypatch, call):
    def step(*args):
        raise AssertionError("an orbit step was taken")

    monkeypatch.setattr(measure, "_orbit", step)
    with pytest.raises(ParameterError):
        call()


def test_observable_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    pts = rng.random((100, 2))
    h = 1e-6
    for obs in maps.observable_catalog(2):
        g = stack_of(obs.gradient(pts))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (obs.value(pts + e) - obs.value(pts - e)) / (2 * h)
            assert np.abs(g[:, i] - fd).max() < 1e-5


def _bump_reference(center, width, x):
    """bump's value and gradient from the sample-sized difference, its
    squared norm taken by einsum."""
    diff = x - center
    s = np.einsum("...i,...i->...", diff, diff) / width**2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = np.where(s < 1.0, np.exp(-1.0 / (1.0 - s)), 0.0)
        f = -np.exp(-1.0 / (1.0 - s)) / (1.0 - s) ** 2
        grad = np.stack([np.where(s < 1.0, f * (2.0 * diff[..., i]
                                                / width**2), 0.0)
                         for i in range(center.size)])
    return value, grad


def test_bump_on_planes_is_bitwise_and_holds_few_values():
    # the split's observable: on 2-D points, value and gradient are the
    # einsum form's bit for bit, and each peaks at fewer value arrays
    # (2.1 and 4.1 here; 5.1 and 8.0 from the sample-sized difference)
    x = np.random.default_rng(4).random((16, 20_000, 2))
    obs = maps.get_observable("bump", 2)
    value, grad = _bump_reference(np.full(2, 0.5), 0.4, x)
    assert 0.0 < np.mean(value > 0.0) < 1.0
    assert np.array_equal(obs.value(x), value)
    assert np.array_equal(obs.gradient(x), grad)
    for fn, values in ((obs.value, 3), (obs.gradient, 5)):
        tracemalloc.start()
        try:
            fn(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values * value.nbytes


def test_bump_sums_its_components_in_order():
    # beyond 2-D the squared norm adds the components' squares in index
    # order, where einsum's order is its own
    x = np.random.default_rng(5).uniform(0.2, 0.8, (300, 4))
    diff = x - 0.5
    s = diff[:, 0] * diff[:, 0]
    for i in range(1, 4):
        s = s + diff[:, i] * diff[:, i]
    s = s / 0.4**2
    inside = s < 1.0
    assert 0 < inside.sum() < s.size
    expect = np.zeros_like(s)
    expect[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    assert np.array_equal(maps.get_observable("bump", 4).value(x), expect)


def test_observable_catalog_rejects_low_dimension():
    with pytest.raises(ParameterError):
        maps.observable_catalog(1)
