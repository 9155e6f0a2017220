"""Phase spaces, built-in diffeomorphism families and observables.  The
perturbation field X(f x) = d f_alpha(x) / d alpha of a family is its
param_derivative; the response estimators evaluate it on their samples.

Each built-in family writes its map once, as its step in component form
step(m, a, x0, ..., x{d-1}) -> (y0, ..., y{d-1}), where m is the module
that supplies sin and floor.  The orbit loop runs it on two number types,
chosen by the number of points: on Python floats, with m = math, one point
at a time for a batch of at most FLOAT_MEMBERS points; and with m = numpy
on component planes, the arrays x[..., i], for a larger batch and for the
rest of an orbit after math refuses a value (sin or floor of a non-finite
number).  Both do the same IEEE operations in the same order, so they
give the same bits as long as math.sin and numpy.sin agree, which the
tests check on every family.  The four derivatives are written in the same
component form, as tuples of entries, or of rows of entries, over the
components of their points; one builder, _components, assembles them.

One layout holds for all data along orbits: points and histories are
(..., d), and every vector or matrix derived from them, here and in tangent
and response, is component planes (d, ...) or (d, d, ...), one contiguous
array per entry over the points' leading shape.

Torus coordinates are reduced by floor subtraction u - floor(u) after every
step.  The result lies in [0, 1] rather than [0, 1): a tiny negative u, such
as -1e-17, gives exactly 1.0, because u + 1 rounds to 1.
"""
from __future__ import annotations

import inspect
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError

TWO_PI = 2.0 * np.pi

# a point of a flat chart farther than this from the origin left the basin
ESCAPE_RADIUS = 100.0


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
        """Minimal-image a - b, wrapped coordinates mapped to [-1/2, 1/2]:
        np.round rounds half to even, so a difference of 0.5 or 2.5 gives
        +0.5 and one of -0.5 or 1.5 gives -0.5."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return d - np.round(d) if self.any_wrap else d


def flat():
    return Chart(any_wrap=False)


def torus():
    return Chart(any_wrap=True)


@dataclass(frozen=True)
class MapFamily:
    """A parametrized diffeomorphism family alpha -> f_alpha.

    step(m, a, x0, ..., x{d-1}) is the map in component form (see the
    module docstring).  The derivatives take (alpha, x), x points (..., d),
    and return planes: jacobian Df(x) (d, d, ...), J[a, b] row a, column b,
    and param_derivative (d, ...); the built-in ones are assembled by
    _components.  A family maps forward only.  hessian(alpha, x, u, w), when
    present, is D^2 f(x)[u, w] (d, ...) for directions u, w as planes, and
    param_jacobian(alpha, x) the mixed derivative d/dalpha Df(x) as
    (d, d, ...); the stable/unstable split needs both.
    """

    name: str
    dimension: int
    chart: Chart
    step: Callable
    jacobian: Callable
    param_derivative: Callable
    hessian: Optional[Callable] = None
    param_jacobian: Optional[Callable] = None

    def escaped(self, x):
        """Boolean mask over leading dims: non-finite or out of the basin."""
        x = np.asarray(x)
        bad = ~np.all(np.isfinite(x), axis=-1)
        if not self.chart.any_wrap:
            bad |= np.einsum("...i,...i->...", x, x) > ESCAPE_RADIUS**2
        return bad


def _components(fn):
    """The array function (a, x, *directions) of a component-form fn, which
    takes each point as the tuple of its d components x[..., i] and each
    direction, planes (d, ...), as the tuple of its planes, and returns a
    tuple of entries, or of rows of entries, as numbers or arrays.  They
    are assembled over the leading shape of x, which the directions
    broadcast against, into contiguous planes (d, ...) or (d, d, ...)."""
    def array_fn(a, x, *directions):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        y = fn(a, tuple(x[..., i] for i in range(d)),
               *(tuple(np.asarray(u)) for u in directions))
        rows = isinstance(y[0], tuple)
        out = np.empty((d,) * (1 + rows) + x.shape[:-1])
        flat = out.reshape((d ** (1 + rows),) + x.shape[:-1])
        for k, entry in enumerate(sum(y, ()) if rows else y):
            flat[k] = entry
        return out

    return array_fn


# the float path buffers at most this many steps before copying them into
# the history, so a long orbit is not held twice
FLOAT_CHUNK = 4096

# the largest batch stepped one point at a time on floats; up to 8 points
# that is no slower than one numpy step on planes on any built-in family
FLOAT_MEMBERS = 8


def _float_steps(step, a, x, n, hist):
    """Step the single point x n times through step on Python floats,
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
                x = step(math, a, *x)
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

    A batch of at most FLOAT_MEMBERS points is stepped one point at a time
    on Python floats, each orbit finished on numpy scalars if the float
    path hands it over; a larger batch is stepped on numpy component
    planes, written into the component-first view of hist.
    Escape is found after the loop: non-finite values propagate, so a
    vectorized scan recovers it without per-step checks.  Points are
    stepped elementwise, so an escaping point leaves the others' bits
    alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = family.chart.reduce(np.asarray(x, dtype=float))
        hist = np.empty(x.shape[:-1] + (n + 1, x.shape[-1]))
        hist[..., 0, :] = x
        rows = hist.reshape(-1, n + 1, x.shape[-1])
        small = len(rows) <= FLOAT_MEMBERS
        for h in rows if small else [rows]:
            done = (_float_steps(family.step, float(alpha), h[0], n, h)
                    if small else 0)
            planes = list(np.moveaxis(h, (-1, -2), (0, 1)))
            p = tuple(plane[done] for plane in planes)
            for k in range(done + 1, n + 1):
                p = family.step(np, alpha, *p)
                for plane, y in zip(planes, p):
                    plane[k] = y
    return hist, family.escaped(hist)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def cat_translate(v=(1.0, 0.0)):
    """Arnold cat map composed with a translation alpha*v on the 2-torus.

    Lebesgue measure is invariant for every alpha.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ParameterError("cat_translate's v needs 2 entries")
    v0, v1 = v.tolist()
    chart = torus()

    def step(m, a, x0, x1):
        y0 = 2.0 * x0 + x1 + a * v0
        y1 = x0 + x1 + a * v1
        return y0 - m.floor(y0), y1 - m.floor(y1)

    @_components
    def jac(a, x):
        return (2.0, 1.0), (1.0, 1.0)
    @_components
    def d_alpha(a, x):
        return v0, v1
    @_components
    def hessian(a, x, u, w):
        return 0.0, 0.0
    @_components
    def d_jac(a, x):
        return (0.0, 0.0), (0.0, 0.0)

    return MapFamily("cat_translate", 2, chart, step, jac, d_alpha,
                     hessian=hessian, param_jacobian=d_jac)


def cat_shear():
    """Cat map plus a trigonometric shear alpha*(sin(2 pi x2)/(2 pi), 0).

    Uniformly hyperbolic for |alpha| well below 1; not volume preserving
    for alpha != 0.
    """
    chart = torus()

    def step(m, a, x0, x1):
        y0 = 2.0 * x0 + x1 + a * (m.sin(TWO_PI * x1) / TWO_PI)
        y1 = x0 + x1 + a * 0.0
        return y0 - m.floor(y0), y1 - m.floor(y1)

    @_components
    def jac(a, x):
        return (2.0, 1.0 + a * np.cos(TWO_PI * x[1])), (1.0, 1.0)
    @_components
    def d_alpha(a, x):
        return np.sin(TWO_PI * x[1]) / TWO_PI, 0.0
    @_components
    def hessian(a, x, u, w):
        return -TWO_PI * a * np.sin(TWO_PI * x[1]) * u[1] * w[1], 0.0
    @_components
    def d_jac(a, x):
        return (0.0, np.cos(TWO_PI * x[1])), (0.0, 0.0)

    return MapFamily("cat_shear", 2, chart, step, jac, d_alpha,
                     hessian=hessian, param_jacobian=d_jac)


def henon(b=0.3):
    """Henon family (x, y) -> (1 + y - a x^2, b x); alpha is the a parameter."""
    chart = flat()

    def step(m, a, x0, x1):
        # x0 * x0, as numpy squares; Python's x0 ** 2 rounds differently
        return 1.0 + x1 - a * (x0 * x0), b * x0

    @_components
    def jac(a, x):
        return (-2.0 * a * x[0], 1.0), (b, 0.0)
    @_components
    def d_alpha(a, x):
        return -(x[0] ** 2), 0.0
    @_components
    def hessian(a, x, u, w):
        return -2.0 * a * u[0] * w[0], 0.0
    @_components
    def d_jac(a, x):
        return (-2.0 * x[0], 0.0), (0.0, 0.0)

    return MapFamily("henon", 2, chart, step, jac, d_alpha,
                     hessian=hessian, param_jacobian=d_jac)


def standard_map():
    """Chirikov standard map on the 2-torus, alpha is the kicking strength K.

    (p, t) -> (p + (K/2pi) sin(2 pi t), t + p') mod 1.  Area preserving.
    """
    chart = torus()

    def step(m, a, x0, x1):
        p1 = x0 + a / TWO_PI * m.sin(TWO_PI * x1)
        t1 = x1 + p1
        return p1 - m.floor(p1), t1 - m.floor(t1)

    @_components
    def jac(a, x):
        c = a * np.cos(TWO_PI * x[1])
        return (1.0, c), (1.0, 1.0 + c)
    @_components
    def d_alpha(a, x):
        s = np.sin(TWO_PI * x[1]) / TWO_PI
        return s, s
    @_components
    def hessian(a, x, u, w):
        h = -TWO_PI * a * np.sin(TWO_PI * x[1]) * u[1] * w[1]
        return h, h
    @_components
    def d_jac(a, x):
        c = np.cos(TWO_PI * x[1])
        return (0.0, c), (0.0, c)

    return MapFamily("standard_map", 2, chart, step, jac, d_alpha,
                     hessian=hessian, param_jacobian=d_jac)


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

    def step(m, a, x0, x1, x2, x3):
        f1x, f1y = 1.0 + x1 - a * (x0 * x0), b * x0
        f2x, f2y = 1.0 + x3 - a * (x2 * x2), b * x2
        return ((1.0 - c) * f1x + c * f2x, (1.0 - c) * f1y + c * f2y,
                (1.0 - c) * f2x + c * f1x, (1.0 - c) * f2y + c * f1y)

    @_components
    def jac(a, x):
        d1, d2 = -2.0 * a * x[0], -2.0 * a * x[2]
        return (((1.0 - c) * d1, 1.0 - c, c * d2, c),
                ((1.0 - c) * b, 0.0, c * b, 0.0),
                (c * d1, c, (1.0 - c) * d2, 1.0 - c),
                (c * b, 0.0, (1.0 - c) * b, 0.0))
    @_components
    def d_alpha(a, x):
        s1, s2 = -(x[0] ** 2), -(x[2] ** 2)
        return (1.0 - c) * s1 + c * s2, 0.0, (1.0 - c) * s2 + c * s1, 0.0

    return MapFamily("coupled_henon", 4, chart, step, jac, d_alpha)


_FACTORIES = {
    "cat_translate": cat_translate,
    "cat_shear": cat_shear,
    "henon": henon,
    "standard_map": standard_map,
    "coupled_henon": coupled_henon,
}


def _finite(value):
    """True for a finite int or float (bool excluded) or a list or tuple of
    them."""
    values = value if isinstance(value, (list, tuple)) else [value]
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and math.isfinite(v) for v in values)


def _checked_call(factories, name, params, what):
    """factories[name](**params) if `name` is one of the factories, the
    names in params bind to its parameters and every value is a finite
    number or a list of them; else ParameterError on the `what` `name`.
    An unknown name's error lists the known ones."""
    if name not in factories:
        raise ParameterError(f"unknown {what} {name!r}; "
                             f"known: {sorted(factories)}")
    factory, what = factories[name], f"{what} {name!r}"
    signature = inspect.signature(factory)
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise ParameterError(f"{what}: {exc}; it takes "
                             f"{sorted(signature.parameters)}") from None
    for key, value in params.items():
        if not _finite(value):
            raise ParameterError(f"parameter {key!r} of {what} must be a "
                                 f"finite number or a list of them")
    return factory(**params)


def get_family(name, params=None):
    """The built-in family `name`, built by _checked_call from `params`."""
    return _checked_call(_FACTORIES, name, params or {}, "map family")


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    """phi: value(x) (...) and gradient(x) as planes (d, ...), x (..., d)."""

    name: str
    value: Callable
    gradient: Callable


def fourier_mode(p, dimension):
    """cos(2 pi p.x) with its exact gradient, p padded with zeros to
    `dimension` entries; the name spells p as given, so cos_1_0 names the
    same mode in every dimension."""
    name = "cos_" + "_".join(f"{int(c)}" for c in p)
    p = np.concatenate([p, np.zeros(dimension - len(p))])

    def value(x):
        return np.cos(TWO_PI * np.asarray(x) @ p)

    def gradient(x):
        s = -TWO_PI * np.sin(TWO_PI * np.asarray(x) @ p)
        return np.multiply.outer(p, s)

    return Observable(name, value, gradient)


def coordinate(i):
    def value(x):
        return np.asarray(x)[..., i]

    def gradient(x):
        out = np.zeros(np.shape(x)[-1:] + np.shape(x)[:-1])
        out[i] = 1.0
        return out

    return Observable(f"coord_{i}", value, gradient)


def product_x1x2():
    def value(x):
        x = np.asarray(x)
        return x[..., 0] * x[..., 1]

    def gradient(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[-1:] + x.shape[:-1])
        out[0] = x[..., 1]
        out[1] = x[..., 0]
        return out

    return Observable("x1x2", value, gradient)


def bump(center, width):
    """Smooth bump exp(-1/(1 - r^2)) supported on |x - c| < width, its
    formulas kept where r < 1 (their overflow and 0/0 outside silenced).
    Both are built on component planes, in place, from r^2 summed over the
    components in order, with no difference array of the points' size."""
    center = np.asarray(center, dtype=float)

    def scaled_square(x):
        """(r^2 = |x - c|^2 / width^2, a scratch plane) on planes."""
        s, diff = np.zeros(x.shape[:-1]), np.empty(x.shape[:-1])
        for i, c in enumerate(center):
            s += np.square(np.subtract(x[..., i], c, out=diff), out=diff)
        s /= width**2
        return s, diff

    def value(x):
        s, _ = scaled_square(np.asarray(x, dtype=float))
        outside = ~(s < 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            np.exp(np.divide(-1.0, np.subtract(1.0, s, out=s), out=s), out=s)
        s[outside] = 0.0
        return s

    def gradient(x):
        x = np.asarray(x, dtype=float)
        s, f = scaled_square(x)
        outside = ~(s < 1.0)
        out = np.empty(center.shape + s.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = np.subtract(1.0, s, out=s)
            np.negative(np.exp(np.divide(-1.0, t, out=f), out=f), out=f)
            f /= np.square(t, out=t)
            for i, c in enumerate(center):
                row = np.subtract(x[..., i], c, out=out[i, ...])
                row *= 2.0
                row /= width**2
                row *= f
                row[outside] = 0.0
        return out

    return Observable("bump", value, gradient)


def constant():
    def value(x):
        x = np.asarray(x)
        return np.ones(x.shape[:-1])

    def gradient(x):
        return np.zeros(np.shape(x)[-1:] + np.shape(x)[:-1])

    return Observable("const", value, gradient)


# the observables a config names, each built for points of `dimension`
# components
_OBSERVABLES = {
    "cos_1_0": lambda dimension: fourier_mode((1, 0), dimension),
    "cos_1_1": lambda dimension: fourier_mode((1, 1), dimension),
    "coord_0": lambda dimension: coordinate(0),
    "coord_1": lambda dimension: coordinate(1),
    "x1x2": lambda dimension: product_x1x2(),
    "bump": lambda dimension: bump(np.full(dimension, 0.5), 0.4),
    "const": lambda dimension: constant(),
}


def get_observable(name, dimension):
    """The observable `name` on points of `dimension` >= 2 components, built
    by _checked_call."""
    if dimension < 2:
        raise ParameterError("dimension must be >= 2")
    return _checked_call(_OBSERVABLES, name, {"dimension": dimension},
                         "observable")
