"""Catalog of closed-form test functions and sampled curves.

The quadrature, contour, and Fourier engines all consume the same small set
of input shapes: a :class:`FunctionSpec` from the catalog, a
:class:`SampledCurve` of uniform samples, or (mostly for composing checks) a
bare callable wrapped in :class:`CallableFn`.  A FunctionSpec carries enough
structure -- closed-form derivatives, support, left-tail decay class,
analyticity -- for each engine to pick its exact code path and to bound its
own truncation error instead of guessing.

Catalog kinds and parameters:

``power``
    ``y**p`` on ``y >= 0`` with ``Re(p) > -1`` (integrable at the base point).
``exponential``
    ``exp(a*y)`` with ``a > 0``; decays toward ``-inf``.
``gaussian``
    ``exp(-(y-center)**2 / (2*width**2))``.
``step``
    indicator of ``[a, b]``.
``bump``
    ``exp(1 - 1/(1 - r**2))`` with ``r = (y-center)/radius``, zero outside
    ``|r| < 1``; normalized to 1 at the center.
``polynomial``
    ``sum(coeffs[k] * y**k)``, coefficients in ascending order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NotSmoothEnough, UnknownCatalogEntry

__all__ = [
    "FunctionSpec",
    "SampledCurve",
    "CallableFn",
    "power",
    "exponential",
    "gaussian",
    "step",
    "bump",
    "polynomial",
    "catalog_lookup",
    "CATALOG_NAMES",
    "as_evaluable",
]

#: Left-tail mass below the truncated base point is kept under ~1e-12 of the
#: natural scale; these factors realize that bound for each decay class.
_EXP_TAIL_FACTOR = 45.0
_GAUSS_TAIL_SIGMAS = 9.0

_SMOOTH = 10**9  # stand-in for "C-infinity" in smoothness queries


def _falling(p: complex, m: int) -> complex:
    out = 1.0 + 0.0j
    for k in range(m):
        out *= p - k
    return out


def _as_param(v) -> complex | float:
    if isinstance(v, complex):
        return v if v.imag != 0.0 else float(v.real)
    return float(v)


def _json_num(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _num_from_json(v):
    if isinstance(v, (list, tuple)):
        re, im = v
        return complex(re, im) if im != 0.0 else float(re)
    return float(v)


@dataclass(frozen=True)
class FunctionSpec:
    """A catalog function with closed-form structure.

    Parameters
    ----------
    kind:
        One of the catalog kinds listed in the module docstring.
    params:
        Kind-specific parameters; validated on construction.

    Notes
    -----
    Instances are built through the module-level constructors
    (:func:`power`, :func:`gaussian`, ...) or :meth:`from_json`; the raw
    constructor validates either way.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        k = self.kind
        p = dict(self.params)
        if k == "power":
            pw = _as_param(p["p"])
            if complex(pw).real <= -1.0:
                raise ValueError("power exponent needs Re(p) > -1 for integrability at the base point")
            p = {"p": pw}
        elif k == "exponential":
            a = float(p["a"])
            if a <= 0.0:
                raise ValueError("exponential rate a must be positive")
            p = {"a": a}
        elif k == "gaussian":
            w = float(p.get("width", 1.0))
            if w <= 0.0:
                raise ValueError("gaussian width must be positive")
            p = {"center": float(p.get("center", 0.0)), "width": w}
        elif k == "step":
            a, b = float(p["a"]), float(p["b"])
            if not a < b:
                raise ValueError("step needs a < b")
            p = {"a": a, "b": b}
        elif k == "bump":
            r = float(p.get("radius", 1.0))
            if r <= 0.0:
                raise ValueError("bump radius must be positive")
            p = {"center": float(p.get("center", 0.0)), "radius": r}
        elif k == "polynomial":
            coeffs = tuple(_as_param(c) for c in p["coeffs"])
            if not coeffs:
                raise ValueError("polynomial needs at least one coefficient")
            p = {"coeffs": coeffs}
        else:
            raise ValueError(f"unknown function kind {k!r}")
        object.__setattr__(self, "params", p)

    # -- evaluation ---------------------------------------------------------

    def value(self, y):
        """Evaluate at real or complex ``y`` (vectorized)."""
        y = np.asarray(y)
        k, p = self.kind, self.params
        if k == "power":
            return _power_value(y, p["p"])
        if k == "exponential":
            return np.exp(p["a"] * y)
        if k == "gaussian":
            z = (y - p["center"]) / p["width"]
            return np.exp(-0.5 * z * z)
        if k == "step":
            return ((y >= p["a"]) & (y <= p["b"])).astype(float)
        if k == "bump":
            return _bump_value(y, p["center"], p["radius"])
        if k == "polynomial":
            return np.polynomial.polynomial.polyval(y, np.asarray(p["coeffs"]))
        raise AssertionError(k)

    __call__ = value

    def derivative_values(self, y, m: int):
        """m-th derivative at ``y``; raises NotSmoothEnough past the closed-form cap."""
        if m == 0:
            return self.value(y)
        y = np.asarray(y)
        k, p = self.kind, self.params
        if k == "power":
            pw = p["p"]
            coef = _falling(pw, m)
            if coef == 0:
                return np.zeros(y.shape, dtype=complex)
            with np.errstate(invalid="ignore"):
                return coef * _power_value(y, pw - m)
        if k == "exponential":
            return p["a"] ** m * np.exp(p["a"] * y)
        if k == "gaussian":
            return _gaussian_derivative(y, p["center"], p["width"], m)
        if k == "polynomial":
            c = np.polynomial.polynomial.polyder(np.asarray(p["coeffs"]), m)
            return np.polynomial.polynomial.polyval(y, c) if c.size else np.zeros_like(y, dtype=complex)
        if k == "step":
            # Zero wherever defined; callers gate on smooth_order_on first.
            return np.zeros(y.shape, dtype=float) if y.shape else 0.0
        if k == "bump":
            if m > 2:
                raise NotSmoothEnough("bump derivatives are closed-form only up to order 2")
            return _bump_derivative(y, p["center"], p["radius"], m)
        raise AssertionError(k)

    @property
    def derivative_cap(self) -> int:
        """Highest derivative order available in closed form."""
        return 2 if self.kind == "bump" else _SMOOTH

    # -- structure ----------------------------------------------------------

    @property
    def analytic(self) -> bool:
        return self.kind in ("power", "exponential", "gaussian", "polynomial")

    @property
    def decay_class(self) -> str:
        """Left-tail behaviour toward -inf, for base-point truncation."""
        if self.kind in ("step", "bump"):
            return "compact-support"
        if self.kind in ("exponential", "gaussian"):
            return "exponential-decay"
        return "polynomial-growth"

    @property
    def support(self) -> tuple[float, float] | None:
        p = self.params
        if self.kind == "step":
            return (p["a"], p["b"])
        if self.kind == "bump":
            return (p["center"] - p["radius"], p["center"] + p["radius"])
        return None

    def smooth_order_on(self, lo: float, hi: float) -> int:
        """Continuous-derivative count of the restriction to ``[lo, hi]``.

        Jumps sitting exactly at an endpoint do not count against the
        restriction (the one-sided limit is used there).
        """
        if self.kind == "step":
            a, b = self.params["a"], self.params["b"]
            if lo < a < hi or lo < b < hi:
                return 0
            return _SMOOTH
        return _SMOOTH

    def analytic_near(self, c: float, x: float, margin: float) -> bool:
        """True when analytic in a ``margin``-neighbourhood of ``[c, x]``."""
        if not self.analytic:
            return False
        if self.kind == "power":
            p = self.params["p"]
            if isinstance(p, float) and p >= 0 and p == int(p):
                return True  # entire
            return c > margin  # branch point at the origin
        return True

    def truncation_length(self, x: float) -> float:
        """Base-point offset L so the tail below ``x - L`` is negligible.

        Nondecreasing in ``x``, so the largest point of a batch sets the
        cut for all of it.
        """
        k, p = self.kind, self.params
        if k in ("step", "bump"):
            lo = self.support[0]
            return max(x - lo, 0.0)
        if k == "exponential":
            return _EXP_TAIL_FACTOR / p["a"]
        if k == "gaussian":
            left = p["center"] - _GAUSS_TAIL_SIGMAS * p["width"]
            return max(x - left, 2.0 * p["width"])
        raise ValueError(f"{k} does not decay toward -inf")

    # -- serialization ------------------------------------------------------

    def label(self) -> str:
        p = self.params
        if self.kind == "power":
            return f"power[p={p['p']}]"
        if self.kind == "exponential":
            return f"exp[a={p['a']}]"
        if self.kind == "gaussian":
            return f"gaussian[{p['center']},{p['width']}]"
        if self.kind == "step":
            return f"step[{p['a']},{p['b']}]"
        if self.kind == "bump":
            return f"bump[{p['center']},{p['radius']}]"
        return f"poly[deg={len(p['coeffs']) - 1}]"

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key, v in self.params.items():
            if key == "coeffs":
                out[key] = [_json_num(c) for c in v]
            else:
                out[key] = _json_num(v)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSpec":
        d = dict(d)
        kind = d.pop("kind")
        if kind == "polynomial":
            params = {"coeffs": [_num_from_json(c) for c in d["coeffs"]]}
        else:
            params = {key: _num_from_json(v) for key, v in d.items()}
        return cls(kind, params)

    @classmethod
    def from_json(cls, text: str) -> "FunctionSpec":
        return cls.from_dict(json.loads(text))


def _power_value(y, p):
    want_complex = np.iscomplexobj(y) or isinstance(p, complex) or float(np.real(p)) != round(float(np.real(p)))
    yv = np.asarray(y, dtype=complex if want_complex else float)
    scalar = yv.ndim == 0
    yv = np.atleast_1d(yv)
    out = np.empty(yv.shape, dtype=complex)
    zero = yv == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out[~zero] = yv[~zero] ** p
    pr = complex(p).real
    if p == 0:
        out[zero] = 1.0
    elif pr > 0:
        out[zero] = 0.0
    else:
        out[zero] = np.inf
    return out[0] if scalar else out


def _gaussian_derivative(y, center, width, m):
    # f^(m) = (-1/w)^m He_m(z) f with probabilists' Hermite, z = (y-c)/w.
    z = (np.asarray(y) - center) / width
    he_prev, he = np.ones_like(z), z.copy()
    if m == 1:
        hem = he
    else:
        for k in range(1, m):
            he_prev, he = he, z * he - k * he_prev
        hem = he
    return (-1.0 / width) ** m * hem * np.exp(-0.5 * z * z)


def _bump_value(y, center, radius):
    r = (np.asarray(y, dtype=float) - center) / radius
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros(r.shape, dtype=float)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ri * ri))
    return out[0] if scalar else out


def _bump_derivative(y, center, radius, m):
    r = (np.asarray(y, dtype=float) - center) / radius
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros(r.shape, dtype=float)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    v = 1.0 / (1.0 - ri * ri)
    f = np.exp(1.0 - v)
    if m == 1:
        out[inside] = -(2.0 * ri / radius) * v * v * f
    else:
        out[inside] = -(2.0 / radius**2) * (v * v + 4.0 * ri * ri * v**3 - 2.0 * ri * ri * v**4) * f
    return out[0] if scalar else out


# -- constructors and catalog -------------------------------------------------


def power(p) -> FunctionSpec:
    return FunctionSpec("power", {"p": p})


def exponential(a: float) -> FunctionSpec:
    return FunctionSpec("exponential", {"a": a})


def gaussian(center: float = 0.0, width: float = 1.0) -> FunctionSpec:
    return FunctionSpec("gaussian", {"center": center, "width": width})


def step(a: float = -1.0, b: float = 1.0) -> FunctionSpec:
    return FunctionSpec("step", {"a": a, "b": b})


def bump(center: float = 0.0, radius: float = 1.0) -> FunctionSpec:
    return FunctionSpec("bump", {"center": center, "radius": radius})


def polynomial(coeffs: Sequence) -> FunctionSpec:
    return FunctionSpec("polynomial", {"coeffs": list(coeffs)})


CATALOG_NAMES: tuple[str, ...] = ("gaussian", "step", "bump", "power", "exp")


def catalog_lookup(name: str) -> FunctionSpec:
    """Resolve a short catalog name to its default FunctionSpec."""
    table = {
        "gaussian": lambda: gaussian(0.0, 1.0),
        "step": lambda: step(-1.0, 1.0),
        "bump": lambda: bump(0.0, 1.0),
        "power": lambda: power(1.0),
        "exp": lambda: exponential(1.0),
    }
    try:
        return table[name]()
    except KeyError:
        raise UnknownCatalogEntry(name, CATALOG_NAMES) from None


# -- other evaluable inputs ----------------------------------------------------


@dataclass(frozen=True)
class SampledCurve:
    """Uniform samples ``values[j] = u(x0 + j*dx)``.

    Evaluation linearly interpolates and treats the curve as zero outside
    its sample range, i.e. as compactly supported on it.
    """

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need at least two samples on one axis")
        object.__setattr__(self, "values", v)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    @property
    def support(self) -> tuple[float, float]:
        return (self.x0, self.x0 + self.dx * (self.values.size - 1))

    def value(self, y):
        y = np.asarray(y, dtype=float)
        xs = self.x
        re = np.interp(y, xs, self.values.real, left=0.0, right=0.0)
        im = np.interp(y, xs, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    __call__ = value

    @property
    def analytic(self) -> bool:
        return False

    @property
    def decay_class(self) -> str:
        return "compact-support"

    @property
    def derivative_cap(self) -> int:
        return 0

    def smooth_order_on(self, lo: float, hi: float) -> int:
        return 0

    def truncation_length(self, x: float) -> float:
        """Distance back to the first sample; nondecreasing in ``x``."""
        return max(x - self.x0, 0.0)


@dataclass(frozen=True)
class CallableFn:
    """Bare callable wrapped with just enough metadata for the engines.

    ``derivatives[m-1]`` (when given) evaluates the m-th derivative.  A
    ``truncation`` length is required before the callable can be integrated
    from ``-inf``.
    """

    fn: Callable
    derivatives: tuple = ()
    truncation: float | None = None
    label_text: str = "callable"

    def value(self, y):
        return self.fn(np.asarray(y))

    __call__ = value

    def derivative_values(self, y, m: int):
        if m == 0:
            return self.value(y)
        if m > len(self.derivatives):
            raise NotSmoothEnough(f"no closed-form derivative of order {m} supplied")
        return self.derivatives[m - 1](np.asarray(y))

    @property
    def analytic(self) -> bool:
        return False

    @property
    def decay_class(self) -> str:
        return "explicit" if self.truncation is not None else "polynomial-growth"

    @property
    def support(self) -> None:
        return None

    @property
    def derivative_cap(self) -> int:
        return len(self.derivatives)

    def smooth_order_on(self, lo: float, hi: float) -> int:
        return _SMOOTH

    def truncation_length(self, x: float) -> float:
        """The explicit truncation length, the same for every ``x``."""
        if self.truncation is None:
            raise ValueError("callable input needs an explicit truncation length for c = -inf")
        return self.truncation

    def label(self) -> str:
        return self.label_text


def as_evaluable(f):
    """Normalize engine input to an object with the evaluable interface."""
    if hasattr(f, "value") and hasattr(f, "decay_class"):
        return f
    if callable(f):
        return CallableFn(f)
    raise TypeError(f"cannot evaluate object of type {type(f).__name__}")
