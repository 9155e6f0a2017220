import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from srblab import maps, measure, response, tangent

HENON_A = 1.4


def orbit_of(family, alpha, x0, n):
    """[x0, f(x0), ..., f^n(x0)] as an (n+1, d) array, or (m, n+1, d) for m
    starts x0 (m, d), through the one orbit loop; no start may escape."""
    hist, bad = maps._orbit(family, alpha, x0, n)
    assert not bad.any(), f"orbit escaped at step {int(np.argmax(bad))}"
    return hist


def planes_of(entries, k=1):
    """The contiguous component planes (d[, d], ...) of a stack of vectors
    (..., d) or, with k = 2, of matrices (..., d, d)."""
    return np.ascontiguousarray(np.moveaxis(entries, range(-k, 0), range(k)))


def stack_of(planes, k=1):
    """The stack of vectors (..., d) or, with k = 2, of matrices
    (..., d, d) held by component planes (d[, d], ...)."""
    return np.moveaxis(planes, range(k), range(-k, 0))


def sample_of(family, alpha, orbits, jacobians=None):
    """An EmpiricalMeasure of the member orbits (B, n+1, d), the input of
    the tangent estimators; given the stack jacobians (1, n, d, d) of a
    one-member sample, its family's jacobian returns that stack's planes in
    place of Df along the orbit."""
    if jacobians is not None:
        J = planes_of(jacobians, 2)
        family = dataclasses.replace(family, jacobian=lambda a, x: J)
    return measure.EmpiricalMeasure(family, alpha, orbits, 0)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) sets the affinity mask that response._process_map reads to
    n CPUs; the test fails if it leaves a worker process behind."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    yield set_cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def src_env():
    """The environment with src/ on PYTHONPATH, for a child interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def array_step():
    """fam -> fam's step on arrays, (alpha, x) -> (..., d) for points x of
    shape (..., d), assembled by maps._components as planes."""
    def build(fam):
        step = maps._components(lambda a, x: fam.step(np, a, *x))
        return lambda a, x: stack_of(step(a, x))
    return build


@pytest.fixture(scope="session")
def along_field(array_step):
    """(sample, field) -> the sample whose family perturbs along the field
    X, given as field(points) -> planes (d, ...): its param_derivative at
    x_{k-1} is X at x_k = f(x_{k-1}), the index convention of
    response.susceptibility_coefficients."""
    def build(emp, field):
        step = array_step(emp.family)
        family = dataclasses.replace(
            emp.family, param_derivative=lambda a, x: field(step(a, x)))
        return dataclasses.replace(emp, family=family)
    return build


@pytest.fixture(scope="session")
def henon_family():
    return maps.get_family("henon")


@pytest.fixture(scope="session")
def henon_measure(henon_family):
    return measure.srb_sample(henon_family, HENON_A, transient=2000,
                              length=20_000, ensemble=8, seed=1)


@pytest.fixture(scope="session")
def henon_orbit(henon_family):
    x0 = orbit_of(henon_family, HENON_A, np.array([0.1, 0.1]), 2000)[-1]
    return orbit_of(henon_family, HENON_A, x0, 102_000)


@pytest.fixture(scope="session")
def henon_splitting(henon_family, henon_orbit):
    return tangent.compute_clvs(
        sample_of(henon_family, HENON_A, henon_orbit[None]), warmup=1000)


@pytest.fixture(scope="session")
def cat_orbit():
    fam = maps.get_family("cat_translate")
    return fam, orbit_of(fam, 0.0, np.array([0.2357, 0.7113]), 200_000)


@pytest.fixture(scope="session")
def catshear_split():
    """Large-sample susceptibility split on the sheared torus family.

    Shared by the response-reconstruction and linear-response acceptance
    checks (same data by design: the reconstruction validates the series
    that the radius fit consumes)."""
    fam = maps.get_family("cat_shear")
    alpha = 0.25
    emp = measure.srb_sample(fam, alpha, transient=500, length=50_000,
                             ensemble=16, seed=5)
    phi = maps.get_observable("bump", 2)
    split = response.stable_unstable_split(emp, phi, 12, clv_warmup=1000,
                                           angle_threshold=1e-3)
    return fam, alpha, phi, split
