import numpy as np
import pytest

from conftest import orbit_of, sample_of
from srblab import maps, measure, stats, tangent
from srblab.errors import BasinEscapeError, HyperbolicityError, ParameterError


def test_cat_srb_is_uniform_ks():
    fam = maps.get_family("cat_translate")
    emp = measure.srb_sample(fam, 0.0, transient=1000, length=125_000,
                             ensemble=8, seed=2)
    pts = emp.points
    assert len(emp) == 10**6
    for i in range(2):
        x = np.sort(pts[:, i])
        grid = (np.arange(1, x.size + 1)) / x.size
        ks = max(np.abs(grid - x).max(), np.abs(grid - 1.0 / x.size - x).max())
        assert ks < 0.01


def test_henon_points_inside_bounding_box(henon_measure):
    pts = henon_measure.points
    assert np.all(np.abs(pts[:, 0]) <= 1.5)
    assert np.all(np.abs(pts[:, 1]) <= 0.45)
    assert np.all(np.isfinite(pts))


def test_srb_sample_deterministic(henon_family):
    a = measure.srb_sample(henon_family, 1.4, transient=1000, length=500,
                           ensemble=3, seed=4)
    b = measure.srb_sample(henon_family, 1.4, transient=1000, length=500,
                           ensemble=3, seed=4)
    assert np.array_equal(a.orbits, b.orbits)


def test_srb_sample_rejects_zero_length(henon_family):
    with pytest.raises(ParameterError):
        measure.srb_sample(henon_family, 1.4, transient=1000, length=0,
                           ensemble=2, seed=0)


def test_srb_sample_basin_error(henon_family):
    sampler = measure.BoxSampler((30.0, 30.0), (40.0, 40.0))
    with pytest.raises(BasinEscapeError):
        measure.srb_sample(henon_family, 1.4, sampler=sampler, transient=100,
                           length=100, ensemble=4, seed=0)


def test_srb_sample_drops_members_escaping_in_either_segment(henon_family):
    _check_escapes_against_single_orbits(henon_family)


def test_srb_sample_transient_chunks_change_nothing(henon_family,
                                                    monkeypatch):
    # chunks of 3 cut the 4-step transient into 3 steps and 1
    monkeypatch.setattr(measure, "TRANSIENT_CHUNK", 3)
    _check_escapes_against_single_orbits(henon_family)


def _check_escapes_against_single_orbits(henon_family):
    sampler = measure.BoxSampler((-1.5, -0.5), (1.5, 0.5))
    transient, length, ensemble, seed = 4, 50, 64, 0
    emp = measure.srb_sample(henon_family, 1.4, sampler=sampler,
                             transient=transient, length=length,
                             ensemble=ensemble, seed=seed)
    starts = sampler.draw(np.random.default_rng(seed), ensemble)
    survivors, escape_steps = [], []
    for x0 in starts:
        orbit, bad = maps._orbit(henon_family, 1.4, x0,
                                 transient + length - 1)
        if bad.any():
            escape_steps.append(int(np.argmax(bad)))
        else:
            survivors.append(orbit[transient:])
    # both the transient and the stored segment lose members
    assert min(escape_steps) <= transient < max(escape_steps)
    assert emp.n_escaped == len(escape_steps)
    assert np.array_equal(emp.orbits, np.array(survivors))


def test_birkhoff_constant_observable(henon_measure):
    phi = maps.get_observable("const", 2)
    mu, se = measure.birkhoff_average(henon_measure, phi)
    assert mu == pytest.approx(1.0)
    assert se == pytest.approx(0.0, abs=1e-14)


def test_birkhoff_cat_cosine_moments():
    fam = maps.get_family("cat_translate")
    emp = measure.srb_sample(fam, 0.0, transient=500, length=20_000,
                             ensemble=8, seed=3)
    phi = maps.get_observable("cos_1_0", 2)
    mu, se = measure.birkhoff_average(emp, phi)
    assert abs(mu) < 3 * se
    sq = maps.Observable("cos_sq", lambda x: np.cos(2 * np.pi * x[..., 0])**2,
                         lambda x: np.stack(
                             [-2 * np.pi * np.sin(4 * np.pi * x[..., 0]),
                              np.zeros(x.shape[:-1])], axis=-1))
    mu2, se2 = measure.birkhoff_average(emp, sq)
    assert abs(mu2 - 0.5) < 3 * se2


def test_correlation_cat_single_mode():
    fam = maps.get_family("cat_translate")
    emp = measure.srb_sample(fam, 0.0, transient=500, length=20_000,
                             ensemble=8, seed=3)
    phi = maps.get_observable("cos_1_0", 2)
    corr = measure.correlation(emp, phi, 8)
    assert abs(corr.values[0] - 0.5) < 3 * corr.stderr[0]
    # the mode is mapped to a distinct mode at every positive lag; the
    # bound is widened for the 8-way multiplicity of the check
    for n in range(1, 9):
        assert abs(corr.values[n]) < 3.5 * corr.stderr[n]


def test_correlation_constant_observable_vanishes(henon_measure):
    phi = maps.get_observable("const", 2)
    corr = measure.correlation(henon_measure, phi, 5)
    assert np.abs(corr.values).max() < 1e-12


def test_correlation_of_one_observable_leaves_the_orbits(henon_measure):
    """The observable is centred in place, with the bits of centring a copy;
    a coordinate's values, a view of the orbits, are centred in a copy."""
    orbits = henon_measure.orbits.copy()
    for name in ("cos_1_0", "coord_0"):
        phi = maps.get_observable(name, 2)
        corr = measure.correlation(henon_measure, phi, 5)
        x = phi.value(orbits) - phi.value(orbits).mean()
        for n in range(6):
            ref = stats.batch_means(x[:, :x.shape[1] - n] * x[:, n:],
                                    n_batches=measure.N_BATCHES)
            assert (corr.values[n], corr.stderr[n]) == ref
    assert np.array_equal(henon_measure.orbits, orbits)


def test_correlation_noise_floor_flag():
    rng = np.random.default_rng(5)
    fam = maps.get_family("cat_translate")
    emp = measure.srb_sample(fam, 0.0, transient=500, length=2_000,
                             ensemble=4, seed=6)
    phi = maps.get_observable("cos_1_0", 2)
    corr = measure.correlation(emp, phi, 10)
    # single Fourier mode on the linear map: every lag >= 1 is pure noise
    assert corr.fit_undefined


def test_henon_dimension_estimates(henon_splitting):
    sp = henon_splitting
    dims = measure.dimension_estimates(sp.spectrum)
    assert 0.0 <= dims.d_s <= 1.0
    assert 0.0 <= dims.kaplan_yorke <= 2.0
    assert dims.d_s == pytest.approx(0.258, abs=0.02)
    assert dims.method == "entropy-ratio"


def test_dimension_estimates_trivial_sink():
    fam = maps.get_family("henon")
    # a = 0: globally attracting fixed point, both exponents negative
    orbit = orbit_of(fam, 0.0, np.array([0.1, 0.1]), 5000)
    spec = tangent.benettin_spectrum(sample_of(fam, 0.0, orbit[None]),
                                     reorth_interval=1)
    dims = measure.dimension_estimates(spec)
    assert dims.d_s == 0.0
    assert dims.method == "trivial-attractor"
    assert dims.kaplan_yorke == 0.0


def test_dimension_estimates_bracket_for_two_stable_directions():
    fam = maps.get_family("coupled_henon")
    orbit = orbit_of(fam, 1.4,
                     orbit_of(fam, 1.4, np.full(4, 0.05), 1000)[-1],
                     100_000)
    spec = tangent.benettin_spectrum(sample_of(fam, 1.4, orbit[None]),
                                     reorth_interval=4)
    dims = measure.dimension_estimates(spec)
    lo, hi = dims.d_s_interval
    assert lo <= dims.d_s <= hi
    assert dims.method == "entropy-ratio-bracket"


def test_dimension_bracket_capped_at_kaplan_yorke_stable_dimension():
    lam = np.array([0.418, -0.029, -1.621, -2.068])
    se = np.full(4, 1e-3)
    spec = tangent.LyapunovSpectrum(lam, se, lam, np.ones(4, dtype=int),
                                    n_steps=100_000, mean_log_det=lam.sum(),
                                    n_windows=1, boundary_residual=0.0)
    dims = measure.dimension_estimates(spec)
    lo, hi = dims.d_s_interval
    assert dims.method == "entropy-ratio-bracket"
    assert lo == pytest.approx(0.418 / 2.068)
    assert hi == pytest.approx(dims.kaplan_yorke - 1.0)
    assert hi == pytest.approx(1.0 + 0.389 / 1.621)
    assert lo <= dims.d_s <= hi <= 3


def test_kaplan_yorke_known_values():
    assert measure.kaplan_yorke(np.array([0.9624, -0.9624])) == pytest.approx(2.0)
    assert measure.kaplan_yorke(np.array([0.419, -1.623])) == pytest.approx(
        1.0 + 0.419 / 1.623, abs=1e-12)
    assert measure.kaplan_yorke(np.array([-0.5, -1.0])) == 0.0
