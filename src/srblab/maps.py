"""Phase spaces, built-in diffeomorphism families, observables and
perturbation vector fields.

Each built-in family writes its map once, in component form
formula(m, a, x0, ..., x{d-1}) -> (y0, ..., y{d-1}), where m is the module
that supplies sin and floor.  The family's step(alpha, x) runs the formula
on numpy arrays: it accepts points of shape (..., d) and returns an array
with matching leading dimensions, like every other map callable.  The
formula rides on step as `step.formula`, and the orbit loop runs it on
Python floats, with m = math, when it steps a single point of shape (d,);
at the first value math refuses (sin or floor of a non-finite number) the
loop hands the rest of the orbit over to step.  Both paths do the same
IEEE operations in the same order, so they give the same bits as long as
math.sin and numpy.sin agree, which the tests check on every family.

Torus coordinates are reduced by floor subtraction u - floor(u) after every
step.  The result lies in [0, 1] rather than [0, 1): a tiny negative u, such
as -1e-17, gives exactly 1.0, because u + 1 rounds to 1.
"""
from __future__ import annotations

import inspect
import math
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .errors import OrbitEscapeError, ParameterError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Chart:
    """A flat chart, or a torus whose every coordinate lives on the unit
    circle and is reduced mod 1 (any_wrap True)."""

    any_wrap: bool

    def reduce(self, x):
        """x with wrapped coordinates replaced by u - floor(u), which lies
        in [0, 1]: exactly 1.0 for u in (-2**-54, 0)."""
        x = np.asarray(x, dtype=float)
        return x - np.floor(x) if self.any_wrap else x

    def difference(self, a, b):
        """Minimal-image a - b (wrapped coordinates mapped to [-1/2, 1/2))."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return d - np.round(d) if self.any_wrap else d


def flat():
    return Chart(any_wrap=False)


def torus():
    return Chart(any_wrap=True)


@dataclass(frozen=True)
class MapFamily:
    """A parametrized diffeomorphism family alpha -> f_alpha.

    step, jacobian and param_derivative take (alpha, x) with x of shape
    (..., d).  A built-in step carries its component-form formula as
    step.formula (see the module docstring); a step without one is run on
    arrays only.  inverse, when present, satisfies
    step(alpha, inverse(alpha, y)) == y to 1e-10.  hessian(alpha, x, a, b),
    when present, is the second derivative D^2 f(x)[a, b] of shape
    (..., d), and param_jacobian(alpha, x) the mixed derivative
    d/dalpha Df(x) of shape (..., d, d); the stable/unstable split needs
    both.
    """

    name: str
    dimension: int
    chart: Chart
    step: Callable
    jacobian: Callable
    param_derivative: Callable
    inverse: Optional[Callable] = None
    volume_preserving: bool = False
    escape_radius: float = 100.0
    params: dict = field(default_factory=dict)
    hessian: Optional[Callable] = None
    param_jacobian: Optional[Callable] = None

    def escaped(self, x):
        """Boolean mask over leading dims: non-finite or out of the basin."""
        x = np.asarray(x)
        bad = ~np.all(np.isfinite(x), axis=-1)
        if not self.chart.any_wrap:
            bad |= np.einsum("...i,...i->...", x, x) > self.escape_radius**2
        return bad


def _component_step(formula):
    """The array step(alpha, x) of a component-form formula of d >= 2
    coordinates, carrying the formula as `step.formula` for the float path
    of `_orbit`."""
    d = len(inspect.signature(formula).parameters) - 2
    coords = [(Ellipsis, i) for i in range(d)]
    components = itemgetter(*coords)      # x -> (x[..., 0], x[..., 1], ...)

    def step(a, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for i, y in zip(coords, formula(np, a, *components(x))):
            out[i] = y
        return out

    step.formula = formula
    return step


# the float path buffers at most this many steps before copying them into
# the history, so a long orbit is not held twice
FLOAT_CHUNK = 4096


def _float_steps(formula, a, x, n, hist):
    """Step the single point x n times through formula on Python floats,
    writing rows 1.. of hist (n+1, d); return the number of steps done.

    The loop stops early when sin or floor meets a non-finite value, which
    math refuses by raising; the caller finishes the orbit on numpy.  Other
    non-finite values propagate as they do in numpy, since +, - and * on
    Python floats are the same IEEE operations.
    """
    d = hist.shape[-1]
    x = x.tolist()
    done = 0
    while done < n:
        buf = array("d")
        push = buf.extend
        try:
            for _ in range(min(FLOAT_CHUNK, n - done)):
                x = formula(math, a, *x)
                push(x)
        except (ValueError, OverflowError):
            n = done + len(buf) // d      # copy what was done, then stop
        k = len(buf) // d
        hist[done + 1:done + k + 1] = np.frombuffer(buf).reshape(k, d)
        done += k
    return done


def _orbit(family, alpha, x, n):
    """The one orbit loop: histories (..., n+1, d) of the points x
    (..., d) under n steps, and the escaped mask (..., n+1) of every stored
    point.

    A single point of shape (d,) is stepped on Python floats when the
    family's step carries its component-form formula; batches, and the
    rest of an orbit the float path hands over, run through step itself.
    Escape is found after the loop: non-finite values propagate, so a
    vectorized scan recovers it without per-step checks.  Points are
    stepped row by row, so an escaping point leaves the others' bits alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = family.chart.reduce(np.asarray(x, dtype=float))
        hist = np.empty(x.shape[:-1] + (n + 1, x.shape[-1]))
        steps = np.moveaxis(hist, -2, 0)
        steps[0] = x
        done = 0
        formula = getattr(family.step, "formula", None)
        if formula is not None and x.ndim == 1:
            done = _float_steps(formula, float(alpha), x, n, hist)
            x = hist[done]
        step = family.step
        for k in range(done, n):
            x = step(alpha, x)
            steps[k + 1] = x
    return hist, family.escaped(hist)


def iterate(family, alpha, x0, n):
    """Orbit [x0, f(x0), ..., f^n(x0)] as an (n+1, d) array."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    if np.shape(x0) != (family.dimension,):
        raise ParameterError(f"x0 must have shape ({family.dimension},)")
    orbit, bad = _orbit(family, alpha, x0, n)
    if bad.any():
        raise OrbitEscapeError(int(np.argmax(bad)))
    return orbit


def iterate_batch(family, alpha, x, n):
    """Advance a batch of points n steps; returns (n+1, m, d) history.

    Escaped members are nan from the escape step onward; the first row is
    the input, even for a member that starts escaped.
    """
    hist, bad = _orbit(family, alpha, x, n)
    dead = np.logical_or.accumulate(bad, axis=-1)
    dead[..., 0] = False
    hist[dead] = np.nan
    return np.moveaxis(hist, -2, 0)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_INV = np.array([[1.0, -1.0], [-1.0, 2.0]])


def _vectors(x, a, b):
    """Zero vectors over the broadcast leading shape of x, a and b."""
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a),
                                        np.shape(b)))


def _matrices(x):
    """Zero (d, d) matrices over the leading shape of the points x."""
    x = np.asarray(x)
    return np.zeros(x.shape + x.shape[-1:])


def cat_translate(v=(1.0, 0.0)):
    """Arnold cat map composed with a translation alpha*v on the 2-torus.

    Lebesgue measure is invariant for every alpha.
    """
    v = np.asarray(v, dtype=float)
    v0, v1 = v.tolist()
    chart = torus()

    @_component_step
    def step(m, a, x0, x1):
        y0 = 2.0 * x0 + x1 + a * v0
        y1 = x0 + x1 + a * v1
        return y0 - m.floor(y0), y1 - m.floor(y1)

    def jac(a, x):
        x = np.asarray(x)
        return np.broadcast_to(CAT, x.shape[:-1] + (2, 2)).copy()

    def d_alpha(a, x):
        x = np.asarray(x)
        return np.broadcast_to(v, x.shape).copy()

    def inverse(a, y):
        return chart.reduce((np.asarray(y) - a * v) @ CAT_INV.T)

    def hessian(a, x, u, w):
        return _vectors(x, u, w)

    def d_jac(a, x):
        return _matrices(x)

    return MapFamily("cat_translate", 2, chart, step, jac, d_alpha, inverse,
                     volume_preserving=True, params={"v": tuple(v)},
                     hessian=hessian, param_jacobian=d_jac)


def cat_shear():
    """Cat map plus a trigonometric shear alpha*(sin(2 pi x2)/(2 pi), 0).

    Uniformly hyperbolic for |alpha| well below 1; not volume preserving
    for alpha != 0.
    """
    chart = torus()

    def g(x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[..., 0] = np.sin(TWO_PI * x[..., 1]) / TWO_PI
        return out

    @_component_step
    def step(m, a, x0, x1):
        y0 = 2.0 * x0 + x1 + a * (m.sin(TWO_PI * x1) / TWO_PI)
        y1 = x0 + x1 + a * 0.0
        return y0 - m.floor(y0), y1 - m.floor(y1)

    def jac(a, x):
        x = np.asarray(x)
        J = np.broadcast_to(CAT, x.shape[:-1] + (2, 2)).copy()
        J[..., 0, 1] += a * np.cos(TWO_PI * x[..., 1])
        return J

    def d_alpha(a, x):
        return g(np.asarray(x, dtype=float))

    def inverse(a, y, tol=1e-14, maxit=200):
        y = np.asarray(y, dtype=float)
        x = chart.reduce(y @ CAT_INV.T)
        for _ in range(maxit):
            x_new = chart.reduce((y - a * g(x)) @ CAT_INV.T)
            if np.max(np.abs(chart.difference(x_new, x))) < tol:
                return x_new
            x = x_new
        return x

    def hessian(a, x, u, w):
        x, u, w = np.asarray(x), np.asarray(u), np.asarray(w)
        out = _vectors(x, u, w)
        out[..., 0] = (-TWO_PI * a * np.sin(TWO_PI * x[..., 1])
                       * u[..., 1] * w[..., 1])
        return out

    def d_jac(a, x):
        x = np.asarray(x)
        out = _matrices(x)
        out[..., 0, 1] = np.cos(TWO_PI * x[..., 1])
        return out

    return MapFamily("cat_shear", 2, chart, step, jac, d_alpha, inverse,
                     hessian=hessian, param_jacobian=d_jac)


def henon(b=0.3):
    """Henon family (x, y) -> (1 + y - a x^2, b x); alpha is the a parameter."""
    chart = flat()

    @_component_step
    def step(m, a, x0, x1):
        # x0 * x0, as numpy squares; Python's x0 ** 2 rounds differently
        return 1.0 + x1 - a * (x0 * x0), b * x0

    def jac(a, x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = -2.0 * a * x[..., 0]
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = b
        return J

    def d_alpha(a, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = -(x[..., 0] ** 2)
        return out

    def inverse(a, y):
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        out[..., 0] = y[..., 1] / b
        out[..., 1] = y[..., 0] - 1.0 + a * (y[..., 1] / b) ** 2
        return out

    def hessian(a, x, u, w):
        u, w = np.asarray(u), np.asarray(w)
        out = _vectors(x, u, w)
        out[..., 0] = -2.0 * a * u[..., 0] * w[..., 0]
        return out

    def d_jac(a, x):
        x = np.asarray(x)
        out = _matrices(x)
        out[..., 0, 0] = -2.0 * x[..., 0]
        return out

    return MapFamily("henon", 2, chart, step, jac, d_alpha, inverse,
                     params={"b": b}, hessian=hessian, param_jacobian=d_jac)


def standard_map():
    """Chirikov standard map on the 2-torus, alpha is the kicking strength K.

    (p, t) -> (p + (K/2pi) sin(2 pi t), t + p') mod 1.  Area preserving.
    """
    chart = torus()

    @_component_step
    def step(m, a, x0, x1):
        p1 = x0 + a / TWO_PI * m.sin(TWO_PI * x1)
        t1 = x1 + p1
        return p1 - m.floor(p1), t1 - m.floor(t1)

    def jac(a, x):
        x = np.asarray(x, dtype=float)
        c = a * np.cos(TWO_PI * x[..., 1])
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 0, 1] = c
        J[..., 1, 0] = 1.0
        J[..., 1, 1] = 1.0 + c
        return J

    def d_alpha(a, x):
        x = np.asarray(x, dtype=float)
        s = np.sin(TWO_PI * x[..., 1]) / TWO_PI
        return np.stack([s, s], axis=-1)

    def inverse(a, y):
        y = np.asarray(y, dtype=float)
        t = y[..., 1] - y[..., 0]
        p = y[..., 0] - a / TWO_PI * np.sin(TWO_PI * t)
        return chart.reduce(np.stack([p, t], axis=-1))

    def hessian(a, x, u, w):
        x, u, w = np.asarray(x), np.asarray(u), np.asarray(w)
        out = _vectors(x, u, w)
        out[...] = (-TWO_PI * a * np.sin(TWO_PI * x[..., 1])
                    * u[..., 1] * w[..., 1])[..., None]
        return out

    def d_jac(a, x):
        x = np.asarray(x)
        out = _matrices(x)
        c = np.cos(TWO_PI * x[..., 1])
        out[..., 0, 1] = c
        out[..., 1, 1] = c
        return out

    return MapFamily("standard_map", 2, chart, step, jac, d_alpha, inverse,
                     volume_preserving=True, hessian=hessian,
                     param_jacobian=d_jac)


def coupled_henon(b=0.3, c=0.3):
    """Two Henon maps under convex image exchange of strength c; d = 4.

    Each new pair state is the mixture (1-c) F(p_i) + c F(p_j) of the two
    Henon images.  The synchronized subspace carries plain Henon dynamics,
    while transverse perturbations pick up the factor |1-2c| per step.  At
    the defaults (c = 0.3, a = 1.4) an off-diagonal start synchronizes
    exactly, so the attractor is Henon's, on the diagonal; its exponents
    are Henon's plus Henon's shifted by log|1-2c|.
    """
    if abs(1.0 - 2.0 * c) < 1e-10:
        raise ParameterError("coupling c = 1/2 makes the exchange singular")
    chart = flat()

    @_component_step
    def step(m, a, x0, x1, x2, x3):
        f1x, f1y = 1.0 + x1 - a * (x0 * x0), b * x0
        f2x, f2y = 1.0 + x3 - a * (x2 * x2), b * x2
        return ((1.0 - c) * f1x + c * f2x, (1.0 - c) * f1y + c * f2y,
                (1.0 - c) * f2x + c * f1x, (1.0 - c) * f2y + c * f1y)

    def jac(a, x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (4, 4))
        d1 = -2.0 * a * x[..., 0]
        d2 = -2.0 * a * x[..., 2]
        J[..., 0, 0] = (1.0 - c) * d1
        J[..., 0, 1] = 1.0 - c
        J[..., 0, 2] = c * d2
        J[..., 0, 3] = c
        J[..., 1, 0] = (1.0 - c) * b
        J[..., 1, 2] = c * b
        J[..., 2, 0] = c * d1
        J[..., 2, 1] = c
        J[..., 2, 2] = (1.0 - c) * d2
        J[..., 2, 3] = 1.0 - c
        J[..., 3, 0] = c * b
        J[..., 3, 2] = (1.0 - c) * b
        return J

    def d_alpha(a, x):
        x = np.asarray(x, dtype=float)
        s1 = -(x[..., 0] ** 2)
        s2 = -(x[..., 2] ** 2)
        out = np.zeros_like(x)
        out[..., 0] = (1.0 - c) * s1 + c * s2
        out[..., 2] = (1.0 - c) * s2 + c * s1
        return out

    def inverse(a, y):
        y = np.asarray(y, dtype=float)
        den = 1.0 - 2.0 * c
        # unmix the exchanged images, then invert each Henon factor
        a1x = ((1.0 - c) * y[..., 0] - c * y[..., 2]) / den
        a1y = ((1.0 - c) * y[..., 1] - c * y[..., 3]) / den
        a2x = ((1.0 - c) * y[..., 2] - c * y[..., 0]) / den
        a2y = ((1.0 - c) * y[..., 3] - c * y[..., 1]) / den
        out = np.empty_like(y)
        out[..., 0] = a1y / b
        out[..., 1] = a1x - 1.0 + a * (a1y / b) ** 2
        out[..., 2] = a2y / b
        out[..., 3] = a2x - 1.0 + a * (a2y / b) ** 2
        return out

    return MapFamily("coupled_henon", 4, chart, step, jac, d_alpha, inverse,
                     params={"b": b, "c": c})


_FACTORIES = {
    "cat_translate": cat_translate,
    "cat_shear": cat_shear,
    "henon": henon,
    "standard_map": standard_map,
    "coupled_henon": coupled_henon,
}


def builtin_catalog():
    """All built-in families with default parameters."""
    return [factory() for factory in _FACTORIES.values()]


def get_family(name, params=None):
    if name not in _FACTORIES:
        raise ParameterError(f"unknown map family {name!r}; "
                             f"known: {sorted(_FACTORIES)}")
    return _FACTORIES[name](**(params or {}))


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    name: str
    value: Callable
    gradient: Callable


def fourier_mode(p):
    """cos(2 pi p.x) with its exact gradient."""
    p = np.asarray(p, dtype=float)

    def value(x):
        return np.cos(TWO_PI * np.asarray(x) @ p)

    def gradient(x):
        x = np.asarray(x)
        s = -TWO_PI * np.sin(TWO_PI * x @ p)
        return s[..., None] * p

    tag = "_".join(f"{int(c)}" for c in p)
    return Observable(f"cos_{tag}", value, gradient)


def coordinate(i, d):
    def value(x):
        return np.asarray(x)[..., i]

    def gradient(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., i] = 1.0
        return out

    return Observable(f"coord_{i}", value, gradient)


def product_x1x2():
    def value(x):
        x = np.asarray(x)
        return x[..., 0] * x[..., 1]

    def gradient(x):
        x = np.asarray(x)
        out = np.zeros(x.shape)
        out[..., 0] = x[..., 1]
        out[..., 1] = x[..., 0]
        return out

    return Observable("x1x2", value, gradient)


def bump(center, width):
    """Smooth bump exp(-1/(1 - r^2)) supported on |x - c| < width."""
    center = np.asarray(center, dtype=float)

    def value(x):
        x = np.asarray(x, dtype=float)
        s = np.einsum("...i,...i->...", x - center, x - center) / width**2
        out = np.zeros(s.shape)
        inside = s < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s[inside]))
        return out

    def gradient(x):
        x = np.asarray(x, dtype=float)
        diff = x - center
        s = np.einsum("...i,...i->...", diff, diff) / width**2
        out = np.zeros(x.shape)
        inside = s < 1.0
        f = np.zeros(s.shape)
        f[inside] = -np.exp(-1.0 / (1.0 - s[inside])) / (1.0 - s[inside]) ** 2
        out[inside] = f[inside, None] * (2.0 * diff[inside] / width**2)
        return out

    return Observable("bump", value, gradient)


def constant(c=1.0):
    def value(x):
        x = np.asarray(x)
        return np.full(x.shape[:-1], c)

    def gradient(x):
        x = np.asarray(x)
        return np.zeros(x.shape)

    return Observable("const", value, gradient)


def observable_catalog(dimension):
    if dimension < 2:
        raise ParameterError("dimension must be >= 2")
    p1 = np.zeros(dimension)
    p1[0] = 1.0
    p11 = np.zeros(dimension)
    p11[0] = 1.0
    p11[1] = 1.0
    obs = [
        fourier_mode(p1),
        fourier_mode(p11),
        coordinate(0, dimension),
        coordinate(1, dimension),
        product_x1x2(),
        bump(np.full(dimension, 0.5), 0.4),
        constant(),
    ]
    return obs


def get_observable(name, dimension):
    for obs in observable_catalog(dimension):
        if obs.name == name:
            return obs
    raise ParameterError(f"unknown observable {name!r} for dimension {dimension}")


# ---------------------------------------------------------------------------
# Perturbation field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationField:
    """The vector field X with X(f x) = d f_alpha(x) / d alpha.

    along_orbit evaluates X at orbit[1:] using the preimages supplied by the
    orbit; at_points uses the family inverse when available.
    """

    family: MapFamily
    alpha: float

    def along_orbit(self, orbit):
        orbit = np.asarray(orbit)
        return self.family.param_derivative(self.alpha, orbit[..., :-1, :])

    def at_points(self, y):
        if self.family.inverse is None:
            raise ParameterError(
                f"family {self.family.name} has no inverse; use along_orbit")
        y = self.family.chart.reduce(np.asarray(y, dtype=float))
        return self.family.param_derivative(self.alpha, self.family.inverse(self.alpha, y))

    def divergence(self, y, step=1e-6):
        """div X by central differences of the closed-form evaluator."""
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape[:-1])
        for i in range(self.family.dimension):
            e = np.zeros(self.family.dimension)
            e[i] = step
            out += (self.at_points(y + e)[..., i] - self.at_points(y - e)[..., i]) / (2 * step)
        return out


@dataclass(frozen=True)
class ExplicitField:
    """A vector field given in closed form, x -> X(x).

    div_fn, when supplied, is the analytic divergence; otherwise the
    divergence falls back to central differences.
    """

    fn: Callable
    dimension: int
    div_fn: Optional[Callable] = None

    def along_orbit(self, orbit):
        orbit = np.asarray(orbit)
        return self.fn(orbit[..., 1:, :])

    def at_points(self, y):
        return self.fn(np.asarray(y, dtype=float))

    def divergence(self, y, step=1e-6):
        y = np.asarray(y, dtype=float)
        if self.div_fn is not None:
            return self.div_fn(y)
        out = np.zeros(y.shape[:-1])
        for i in range(self.dimension):
            e = np.zeros(self.dimension)
            e[i] = step
            out += (self.fn(y + e)[..., i] - self.fn(y - e)[..., i]) / (2 * step)
        return out
