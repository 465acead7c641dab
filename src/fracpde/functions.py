"""Catalog of closed-form test functions and sampled curves.

The quadrature, contour, and Fourier engines all consume the same small set
of input shapes: a :class:`FunctionSpec` from the catalog, a
:class:`SampledCurve` of uniform samples, or (mostly for composing checks) a
bare callable wrapped in :class:`CallableFn`.  A FunctionSpec carries enough
structure -- closed-form derivatives, support (for a gaussian, the interval
outside which it is negligible), the exponential's shift rate, analyticity --
for each engine to pick its exact code path and to bound its own truncation
error instead of guessing.

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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergent, NotSmoothEnough, UnknownCatalogEntry

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

#: Half-width of a gaussian's support in widths: the value at its ends is
#: 2.6e-18 of the peak.
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
            with np.errstate(over="ignore"):  # far out z*z overflows, and the value there is exactly 0
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
            try:
                scale = p["a"] ** m
            except OverflowError:
                raise NonConvergent(f"derivative of order {m} overflows float64") from None
            return scale * np.exp(p["a"] * y)
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
    def support(self) -> tuple[float, float] | None:
        """``(lo, hi)`` outside which the engines take the input as zero, or None.

        A step's and a bump's are exact.  A gaussian's is ``center +- 9 width``,
        where its value is 2.6e-18 of the peak: the engines integrate it over
        that interval alone, from any base, and read zero at or below ``lo``.
        The exponential, a power and a polynomial have none.
        """
        p = self.params
        if self.kind == "step":
            return (p["a"], p["b"])
        if self.kind == "bump":
            return (p["center"] - p["radius"], p["center"] + p["radius"])
        if self.kind == "gaussian":
            half = _GAUSS_TAIL_SIGMAS * p["width"]
            return (p["center"] - half, p["center"] + half)
        return None

    @property
    def shift_rate(self) -> float | None:
        """Rate ``a`` with ``f(y - t) = f(y) * exp(-a*t)`` for every ``y`` and ``t``, or None.

        Only the exponential has one.  From a base at -inf the engines then
        integrate it as ``f(x)`` times one quadrature sum shared by every
        point.
        """
        return self.params["a"] if self.kind == "exponential" else None

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
        try:
            d = dict(d)
            kind = d.pop("kind")
            if kind == "polynomial":
                params = {"coeffs": [_num_from_json(c) for c in d["coeffs"]]}
            else:
                params = {key: _num_from_json(v) for key, v in d.items()}
            return cls(kind, params)
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed function document: {exc}") from exc

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


# Far out, or at a high order, He_m overflows and meets a zero f: the value
# is not finite, and the engines that evaluate it report that.
@np.errstate(over="ignore", invalid="ignore")
def _gaussian_derivative(y, center, width, m):
    # f^(m) = (-1/w)^m He_m(z) f with probabilists' Hermite, z = (y-c)/w.  The
    # recurrence and the exponential run in place: block-sized temporaries
    # freed together at return are trimmed and faulted in again by the next
    # call.  A 0-d input is worked on as a 0-d array and returned as a scalar.
    z = np.asarray(np.asarray(y) - center)
    z /= width
    g = z.copy()
    g *= -0.5
    g *= z
    np.exp(g, out=g)
    he = z
    if m > 1:
        he, he_prev, zhe = z.copy(), np.ones_like(z), np.empty_like(z)
        for k in range(1, m):
            np.multiply(z, he, out=zhe)
            he_prev *= k
            np.subtract(zhe, he_prev, out=he_prev)
            he_prev, he = he, he_prev
    he *= (-1.0 / width) ** m
    he *= g
    return he[()]


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
    def derivative_cap(self) -> int:
        return 0

    def smooth_order_on(self, lo: float, hi: float) -> int:
        return 0


@dataclass(frozen=True)
class CallableFn:
    """Bare callable wrapped with just enough metadata for the engines.

    ``derivatives[m-1]`` (when given) evaluates the m-th derivative.  A
    ``support`` ``(lo, hi)``, outside which the engines take the callable as
    zero, is required before it can be integrated from ``-inf``.
    """

    fn: Callable
    derivatives: tuple = ()
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.support is not None and not -np.inf < self.support[0] < self.support[1] < np.inf:
            raise ValueError("support needs finite lo < hi")

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
    def derivative_cap(self) -> int:
        return len(self.derivatives)

    @property
    def shift_rate(self) -> None:
        return None

    def smooth_order_on(self, lo: float, hi: float) -> int:
        return _SMOOTH

    def label(self) -> str:
        return "callable"


def as_evaluable(f):
    """Normalize engine input to an object with the evaluable interface."""
    if hasattr(f, "value") and hasattr(f, "support"):
        return f
    if callable(f):
        return CallableFn(f)
    raise TypeError(f"cannot evaluate object of type {type(f).__name__}")
