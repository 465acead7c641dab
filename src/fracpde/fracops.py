"""Differintegral engines on the half-line and the whole line.

The integral of fractional order ``nu`` (``Re(nu) < 0``) from base point
``c`` is

    D_c^nu f(x) = (1/Gamma(-nu)) * int_c^x (x-y)^(-nu-1) f(y) dy,

and derivatives (``Re(nu) >= 0``) are ordinary ``n``-th derivatives of the
integral of order ``nu - n`` with ``n = floor(Re(nu)) + 1``.  Four engines
realize this and are deliberately kept independent so they can check each
other:

``rl_integral`` / ``rl_derivative``
    product integration: the input is interpolated piecewise-linearly on a
    graded mesh and the weakly singular kernel is integrated in closed form
    against each linear piece.  The outer ``n``-th derivative is taken by
    differentiating the quadrature formula analytically in the scaled
    variable (the mesh is fixed in ``tau = (x-y)/(x-base)``, so the nodes
    move affinely with ``x`` and the formula differentiates term by term).
    Points above a compact support see a smooth kernel and take the
    continued formula for ``D^nu`` directly, so a batch straddling the
    support end is split between the two.  Only inputs without usable
    closed-form derivatives on ``[base, x]`` fall back to central finite
    differences of the integral.
    The (points x nodes) integrand matrices are built and reduced in row
    blocks of bounded size, in float64 when the order and the input are
    real, so memory does not grow with the batch.
``caputo_derivative``
    integral of order ``nu - n`` applied to the ``n``-th derivative.
``hankel_differintegral``
    Cauchy-type loop integral over a keyhole contour around ``[c, x]``.
``fourier_differint``
    multiplier ``(-i*lambda)^nu`` on the transform of uniform samples, with
    the branch ``|lambda|^nu * exp(-i*pi*nu*sgn(lambda)/2)``.  The samples
    are zero-padded by ``pad_factor`` in effect only: one transform of the
    multiplier on the padded frequency grid gives a convolution kernel, and
    its central ``2m - 1`` lags are convolved with the ``m`` samples by a
    short FFT.

``closed_form_oracle`` supplies the exact power/exponential values the
engines are tested against.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCollision,
    DCUndefined,
    DomainOrder,
    EdgeLeakage,
    NonConvergent,
    NotAnalytic,
    NotSmoothEnough,
    PoleHitWarning,
    WrongSign,
)
from .functions import CallableFn, FunctionSpec, SampledCurve, _falling, as_evaluable

__all__ = [
    "DifferintOrder",
    "QuadratureConfig",
    "rl_integral",
    "rl_derivative",
    "caputo_derivative",
    "differint",
    "hankel_differintegral",
    "fourier_differint",
    "fourier_multiplier",
    "closed_form_oracle",
    "frac_binomial",
]

MINUS_INF = float("-inf")


# scipy.special takes about 0.3 s to import, and the solve, sobolev,
# symbol and experiment commands need no Gamma value; it is loaded at the
# first one.
def _gamma(z):
    from scipy.special import gamma

    return gamma(z)


def _rgamma(z):
    from scipy.special import rgamma

    return rgamma(z)


@dataclass(frozen=True)
class DifferintOrder:
    """Order ``nu`` and base point ``c`` of a differintegral.

    ``nu`` is finite and ``c`` is a finite real or ``-inf``.  For
    ``Re(nu) >= 0`` the outer derivative count is ``n = floor(Re(nu)) + 1``.
    """

    nu: complex
    c: float = 0.0

    def __post_init__(self):
        nu = complex(self.nu)
        if not cmath.isfinite(nu):
            raise ValueError("order must be finite")
        object.__setattr__(self, "nu", nu)
        c = float(self.c)
        if math.isnan(c) or c == math.inf:
            raise ValueError("base point must be finite or -inf")
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        if self.nu.real < 0:
            raise ValueError("n is defined only for Re(nu) >= 0")
        return math.floor(self.nu.real) + 1

    @property
    def lower_infinite(self) -> bool:
        return self.c == MINUS_INF


@dataclass(frozen=True)
class QuadratureConfig:
    """Product-integration controls.

    ``subintervals`` linear pieces on a mesh graded with exponent
    ``grading`` toward both ends of the integration range (``grading = 1``
    is uniform; larger values cluster nodes at the kernel singularity
    ``y -> x`` and at the base point).  ``truncation_length`` overrides the
    automatic tail cut used when ``c = -inf``.
    """

    subintervals: int = 2048
    grading: float = 2.0
    truncation_length: float | None = None

    def __post_init__(self):
        if self.subintervals < 2:
            raise ValueError("need at least 2 subintervals")
        if not self.grading >= 1.0:
            raise ValueError("grading exponent must be >= 1")
        if self.truncation_length is not None and not self.truncation_length > 0:
            raise ValueError("truncation length must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()

#: Byte budget of one node-matrix block, counted as rows x nodes x 16.  A
#: float64 block is half of it, so the dozen-odd temporaries of a catalog
#: derivative stay within the 2 MiB share of one core in a 4 MiB L2 shared
#: by two (larger blocks measured up to 2x slower).  Results do not depend
#: on it beyond rounding.
_BLOCK_BYTES = 2**18

#: Entries kept by each of the mesh and unit-weight caches.
_CACHE_ENTRIES = 16


def _row_blocks(rows: int, nodes: int):
    """Slices of ``range(rows)`` whose (rows x nodes) block fits ``_BLOCK_BYTES``."""
    step = max(1, _BLOCK_BYTES // (16 * nodes))
    for start in range(0, rows, step):
        yield slice(start, start + step)


def _real_if_real(mu: complex) -> complex | float:
    """A real order as float, so the weights and reductions stay in float64."""
    mu = complex(mu)
    return mu.real if mu.imag == 0 else mu


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _graded_mesh(n_sub: int, grading: float) -> np.ndarray:
    """Two-sided graded nodes on [0, 1], read-only; n_sub is rounded up to even."""
    n_sub += n_sub % 2
    u = np.arange(n_sub + 1) / n_sub
    tau = np.where(u <= 0.5, 0.5 * (2 * u) ** grading, 1.0 - 0.5 * (2 * (1 - u)) ** grading)
    tau[0], tau[-1] = 0.0, 1.0
    tau.flags.writeable = False
    return tau


def _pow_pos(t: np.ndarray, mu: complex) -> np.ndarray:
    """t**mu for t >= 0, with 0**mu = 0 (needs Re(mu) > 0 at t = 0).

    Complex for a complex ``mu``, float64 for a real one.
    """
    out = np.zeros(t.shape, dtype=complex if isinstance(mu, complex) else float)
    pos = t > 0
    out[pos] = np.exp(mu * np.log(t[pos]))
    return out


def _node_weights(t: np.ndarray, mu: complex) -> np.ndarray:
    """Closed-form weights so sum(w * g(t)) = int t^(mu-1) * (pl interp of g) dt.

    ``t`` is an increasing node array (batched along leading axes); the
    kernel endpoint singularity sits at t = 0 when present.  The weights
    are float64 when ``mu`` is real.
    """
    mu = _real_if_real(mu)
    tp = _pow_pos(t, mu)
    tp1 = _pow_pos(t, mu + 1)
    m0 = np.diff(tp, axis=-1) / mu
    m1 = np.diff(tp1, axis=-1) / (mu + 1) - t[..., :-1] * m0
    dt = np.diff(t, axis=-1)
    w = np.zeros(t.shape, dtype=tp.dtype)
    frac = m1 / dt
    w[..., :-1] += m0 - frac
    w[..., 1:] += frac
    return w


def _unit_weights(n_sub: int, grading: float, mu: complex) -> tuple[np.ndarray, np.ndarray]:
    """Read-only graded mesh on [0, 1] and its weights for kernel order ``mu``."""
    return _graded_mesh(n_sub, grading), _mesh_weights(n_sub, grading, _real_if_real(mu))


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _mesh_weights(n_sub: int, grading: float, mu: complex | float) -> np.ndarray:
    w = _node_weights(_graded_mesh(n_sub, grading), mu)
    w.flags.writeable = False
    return w


def _is_moving_base(f, order: DifferintOrder) -> bool:
    """True when c = -inf is handled by a tail cut moving with x."""
    return order.lower_infinite and getattr(f, "support", None) is None


def _fixed_base(f, order: DifferintOrder, x: np.ndarray) -> np.ndarray:
    """Per-point lower limit for a finite base or a compactly supported input."""
    if order.lower_infinite:
        return np.full_like(x, f.support[0])
    lo = np.full_like(x, order.c)
    support = getattr(f, "support", None)
    if support is not None:
        lo = np.maximum(lo, support[0])
    return lo


def _tail_span(f, x: np.ndarray, config: QuadratureConfig) -> float:
    """Length of the truncated tail integral for a base point at -inf."""
    if config.truncation_length is not None:
        return float(config.truncation_length)
    if f.decay_class == "polynomial-growth":
        raise NonConvergent("input does not decay toward -inf; integral diverges")
    try:
        # truncation_length is nondecreasing in x, so the last point needs the most.
        return f.truncation_length(float(np.max(x)))
    except ValueError as exc:
        raise NonConvergent(str(exc)) from exc


def _tail_rule(values_fn, mu: complex, x: np.ndarray, span: float, n_sub: int,
               grading: float) -> tuple[np.ndarray, np.ndarray]:
    """Product-integration rule on t in [0, span] for the tail integral.

    Nodes equidistribute the cube root of kernel * |integrand| (the density
    that minimizes the piecewise-linear interpolation error), probed on the
    batch envelope of the integrand.  The kernel exponent drives the
    grading at t = 0 automatically.
    """
    m_fine = 8192
    probe = span * (np.arange(1, m_fine + 1) / m_fine) ** 3
    refs = np.quantile(x, np.linspace(0.0, 1.0, min(x.size, 8)))
    env = np.zeros(m_fine)
    for r in refs:
        env = np.maximum(env, np.abs(np.asarray(values_fn(r - probe))))
    top = env.max()
    env = env / top + 1e-9 if top > 0 else np.ones(m_fine)

    e = (mu.real - 1.0) / 3.0
    dens = probe**e * np.cbrt(env)
    head = dens[0] * probe[0] / (e + 1.0)
    cdf = np.concatenate(([0.0], head + np.concatenate(
        ([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(probe))))))
    t_ref = np.concatenate(([0.0], probe))
    levels = np.linspace(0.0, cdf[-1], n_sub + 1)
    t = np.interp(levels, cdf, t_ref)
    t[0], t[-1] = 0.0, span
    t = np.maximum.accumulate(t)
    if np.any(np.diff(t) <= 0):
        t = span * _graded_mesh(n_sub, grading)
    return t, _node_weights(t, mu)


def _check_finite(vals: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise NotSmoothEnough(f"{what} evaluated non-finite on the integration range")


def _translated_rule(values_fn, x: np.ndarray, t: np.ndarray, w: np.ndarray, what: str) -> np.ndarray:
    """``sum_j w_j * values_fn(x_i - t_j)`` for nodes rigid in ``t = x - y``, by row blocks."""
    out = np.empty(x.shape, dtype=complex)
    for rows in _row_blocks(x.size, t.size):
        fv = np.asarray(values_fn(x[rows, None] - t))
        _check_finite(fv, what)
        out[rows] = fv @ w
    return out


def _shifted_rule(f, x: np.ndarray, t1: np.ndarray, t2: np.ndarray, mu,
                  config: QuadratureConfig) -> np.ndarray:
    """Product integration over ``t = x - y`` in ``[t1, t2]``, away from the kernel singularity.

    Each row gets the graded mesh scaled onto its own range and the weights
    of kernel order ``mu`` on it, built one row block at a time.
    """
    tau = _graded_mesh(config.subintervals, config.grading)
    out = np.empty(x.shape, dtype=complex)
    for rows in _row_blocks(x.size, tau.size):
        a = t1[rows, None]
        t = a + (t2[rows, None] - a) * tau
        fv = np.asarray(f.value(x[rows, None] - t))
        _check_finite(fv, "input")
        out[rows] = np.einsum("ij,ij->i", fv, _node_weights(t, mu))
    return out


def _integral_values(f, order: DifferintOrder, x: np.ndarray, config: QuadratureConfig) -> np.ndarray:
    """Product-integration values of the order-nu integral at each x."""
    mu = _real_if_real(-order.nu)
    if _is_moving_base(f, order):
        span = _tail_span(f, x, config)
        t, w = _tail_rule(f.value, mu, x, span, config.subintervals, config.grading)
        return _translated_rule(f.value, x, t, w, "input") * _rgamma(mu)

    out = np.zeros(x.shape, dtype=complex)
    lo = _fixed_base(f, order, x)
    live = x > lo
    if not order.lower_infinite and np.any(x < order.c):
        raise DomainOrder("evaluation point below the base point")
    if not np.any(live):
        return out
    xl, lol = x[live], lo[live]

    support = getattr(f, "support", None)
    hi = np.minimum(xl, support[1]) if support is not None else xl
    s = hi - lol
    res = np.zeros(xl.shape, dtype=complex)

    at_top = hi == xl
    if np.any(at_top):
        tau, w = _unit_weights(config.subintervals, config.grading, mu)
        sigma = 1.0 - tau
        s_top, lo_top = s[at_top], lol[at_top]
        vals = np.empty(s_top.shape, dtype=complex)
        for rows in _row_blocks(s_top.size, tau.size):
            sv = s_top[rows, None]
            fv = np.asarray(f.value(lo_top[rows, None] + sv * sigma))
            _check_finite(fv, "input")
            vals[rows] = np.power(sv[:, 0], mu) * (fv @ w)
        res[at_top] = vals

    below = ~at_top
    if np.any(below):
        # Kernel is smooth on [x-hi, x-lo]; same rule, shifted nodes.
        res[below] = _shifted_rule(f, xl[below], (xl - hi)[below], (xl - lol)[below], mu, config)

    out[live] = res * _rgamma(mu)
    return out


def _as_points(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def rl_integral(f, order: DifferintOrder, x, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Riemann-Liouville integral of order ``nu`` (``Re(nu) < 0``) at ``x``.

    Parameters
    ----------
    f:
        FunctionSpec, SampledCurve, or callable (callables need an explicit
        truncation length when ``order.c`` is ``-inf``).
    order:
        Order and base point; ``Re(order.nu) < 0`` is required.
    x:
        Scalar or array of evaluation points above the base point.
    config:
        Mesh resolution and grading.

    Returns
    -------
    complex or ndarray of complex
    """
    if complex(order.nu).real >= 0:
        raise WrongSign("rl_integral needs Re(nu) < 0; use rl_derivative")
    fe = as_evaluable(f)
    pts, scalar = _as_points(x)
    vals = _integral_values(fe, order, pts, config)
    return vals[0] if scalar else vals


def _derivative_moment_path(fe, order, x, lo, config) -> np.ndarray:
    """Exact d^n/dx^n of the product-integration formula (nodes affine in x)."""
    n = order.n
    mu = _real_if_real(n - order.nu)
    tau, w = _unit_weights(config.subintervals, config.grading, mu)
    sigma = 1.0 - tau
    sigma_pow = [np.power(sigma, n - k) for k in range(n + 1)]
    coef = [math.comb(n, k) * _falling(mu, k) for k in range(n + 1)]
    base_col = sigma == 0.0
    s = (x - lo).astype(float)

    total = np.zeros(x.shape, dtype=complex)
    for rows in _row_blocks(x.size, tau.size):
        sv = s[rows]
        z = lo[rows, None] + sv[:, None] * sigma
        for k in range(n + 1):
            m = n - k
            fv = np.asarray(fe.derivative_values(z, m))
            if m >= 1:
                fv = np.where(base_col, 0.0, fv)  # sigma^m * f^(m) -> 0 at the pinned base node
            _check_finite(fv, "input" if m == 0 else f"derivative of order {m}")
            integrand = fv * sigma_pow[k] if m else fv
            total[rows] += coef[k] * np.power(sv, mu - k) * (integrand @ w)
    return total * _rgamma(mu)


def _fornberg(order_d: int, nodes: np.ndarray) -> np.ndarray:
    """Finite-difference weights for the order_d-th derivative at 0."""
    n = nodes.size
    c = np.zeros((n, order_d + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, nodes[0]
    for i in range(1, n):
        mn = min(i, order_d)
        c2, c5, c4 = 1.0, c4, nodes[i]
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            for k in range(mn, 0, -1):
                c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
            c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order_d]


def rl_derivative(f, order: DifferintOrder, x, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Riemann-Liouville derivative of order ``nu`` (``Re(nu) >= 0``) at ``x``.

    The outer ``n``-th derivative is exact (analytic differentiation of the
    quadrature formula) for inputs with closed-form derivatives.  Points
    above a compact support take the continued formula for ``D^nu`` with a
    smooth kernel, whatever the rest of the batch does.  Inputs without
    closed-form derivatives, or whose derivatives are not finite on the
    integration range, fall back to an ``n+2``-point central difference of
    the integral, which is noticeably less accurate.
    """
    nu = complex(order.nu)
    if nu.real < 0:
        raise WrongSign("rl_derivative needs Re(nu) >= 0; use rl_integral")
    fe = as_evaluable(f)
    pts, scalar = _as_points(x)
    n = order.n
    mu = _real_if_real(n - nu)
    inner = DifferintOrder(nu - n, order.c)

    if _is_moving_base(fe, order):
        # Tail mesh is rigid in t = x - y, so the formula translates with x
        # and the outer derivative lands directly on the integrand.
        if fe.derivative_cap >= n:
            span = _tail_span(fe, pts, config)

            def deriv(z):
                return fe.derivative_values(z, n)

            t, w = _tail_rule(deriv, mu, pts, span, config.subintervals, config.grading)
            out = _translated_rule(deriv, pts, t, w, f"derivative of order {n}") * _rgamma(mu)
        else:
            out = _stencil_path(fe, order, inner, pts, _tail_span(fe, pts, config), config)
        return out[0] if scalar else out

    lo = _fixed_base(fe, inner, pts)
    if not order.lower_infinite and np.any(pts <= order.c):
        raise DomainOrder("evaluation point at or below the base point")
    live = pts > lo
    if not np.all(live):
        # Points at or below the support start see a vanishing integrand.
        out = np.zeros(pts.shape, dtype=complex)
        if np.any(live):
            out[live] = rl_derivative(fe, order, pts[live], config)
        return out[0] if scalar else out

    span = pts - lo
    eps_near = np.min(span) * 1e-9
    if fe.smooth_order_on(float(np.min(pts) - eps_near), float(np.max(pts) + eps_near)) < n:
        raise NotSmoothEnough(f"input lacks {n} continuous derivatives near the evaluation points")

    support = getattr(fe, "support", None)
    above = pts > support[1] if support is not None else np.zeros(pts.shape, dtype=bool)
    out = np.zeros(pts.shape, dtype=complex)

    if np.any(above) and not (nu.imag == 0 and nu.real == round(nu.real)):
        # Input vanishes near x: the kernel differentiates under the integral
        # and the formula continues to D^nu directly (zero at integer orders).
        mu_above = _real_if_real(-nu)
        pa = pts[above]
        out[above] = _shifted_rule(fe, pa, pa - support[1], pa - lo[above], mu_above, config)
        out[above] *= _rgamma(mu_above)

    inside = ~above
    if np.any(inside):
        out[inside] = _inside_support_derivative(fe, order, inner, pts[inside], lo[inside], config)
    return out[0] if scalar else out


def _inside_support_derivative(fe, order, inner, pts, lo, config) -> np.ndarray:
    """The moment path where closed-form derivatives allow it, else the stencil."""
    n = order.n
    if fe.derivative_cap >= n and fe.smooth_order_on(float(np.min(lo)), float(np.max(pts))) >= n:
        try:
            return _derivative_moment_path(fe, order, pts, lo, config)
        except NotSmoothEnough:
            pass
    return _stencil_path(fe, order, inner, pts, float(np.min(pts - lo)), config)


def _stencil_path(fe, order: DifferintOrder, inner: DifferintOrder, pts: np.ndarray,
                  scale: float, config: QuadratureConfig) -> np.ndarray:
    """Central differences of the integral; step set from the mesh scale."""
    n = order.n
    h = 0.5 * scale * config.subintervals ** (-2.0 / (n + 2))
    offsets = (np.arange(n + 2) - (n + 1) / 2.0) * h
    stencil = _fornberg(n, offsets)
    shifted = pts[:, None] + offsets[None, :]
    ivals = _integral_values(fe, inner, shifted.ravel(), config).reshape(shifted.shape)
    return ivals @ stencil


def caputo_derivative(f, order: DifferintOrder, x, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Caputo derivative: the order ``nu - n`` integral of ``f^(n)``."""
    nu = complex(order.nu)
    if nu.real < 0:
        raise WrongSign("caputo_derivative needs Re(nu) >= 0")
    fe = as_evaluable(f)
    n = order.n
    if fe.derivative_cap < n:
        raise NotSmoothEnough(f"caputo derivative needs the closed-form derivative of order {n}")
    inner = _DerivativeOf(fe, n)
    return rl_integral(inner, DifferintOrder(nu - n, order.c), x, config)


class _DerivativeOf:
    """View of the n-th derivative of an evaluable, sharing its structure."""

    def __init__(self, base, n: int):
        self.base, self.n = base, n

    def value(self, y):
        return self.base.derivative_values(y, self.n)

    def derivative_values(self, y, m):
        return self.base.derivative_values(y, m + self.n)

    @property
    def derivative_cap(self):
        return max(self.base.derivative_cap - self.n, 0)

    @property
    def support(self):
        return getattr(self.base, "support", None)

    @property
    def decay_class(self):
        return self.base.decay_class

    @property
    def analytic(self):
        return self.base.analytic

    def smooth_order_on(self, lo, hi):
        return max(self.base.smooth_order_on(lo, hi) - self.n, 0)

    def truncation_length(self, x):
        """The base's tail cut, nondecreasing in ``x`` as the base's is."""
        return self.base.truncation_length(x)


def differint(f, order: DifferintOrder, x, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Quadrature differintegral dispatching on the sign of Re(nu)."""
    if complex(order.nu).real < 0:
        return rl_integral(f, order, x, config)
    return rl_derivative(f, order, x, config)


# -- Cauchy loop ---------------------------------------------------------------


def hankel_differintegral(
    f,
    order: DifferintOrder,
    x: float,
    *,
    loop_radius: float | None = None,
    nodes: int = 4096,
    offset: float | None = None,
):
    """Differintegral via the Cauchy-type loop integral.

    The contour is a keyhole around the cut ``[c, x]``: straight segments
    just below and above the cut from the base point to a circle of radius
    ``loop_radius`` traversed counter-clockwise once around ``x``.  Needs
    ``f`` analytic in a neighbourhood of ``[c, x]`` containing the loop and
    ``nu`` not a negative integer.
    """
    nu = complex(order.nu)
    if nu.imag == 0 and nu.real < 0 and nu.real == round(nu.real):
        raise ValueError("loop integral is undefined at negative integer orders")
    if order.lower_infinite:
        raise ValueError("loop integral needs a finite base point")
    c = order.c
    x = float(x)
    if x <= c:
        raise DomainOrder("evaluation point below the base point")
    r = loop_radius if loop_radius is not None else (x - c) / 4.0
    if r >= x - c:
        raise BranchCollision("loop radius reaches the base point")
    if r <= 0:
        raise ValueError("loop radius must be positive")
    delta = offset if offset is not None else r / 10.0
    if not getattr(f, "analytic", False) or not f.analytic_near(c, x, margin=2.0 * delta):
        raise NotAnalytic("loop integral needs f analytic in a neighbourhood of [c, x]")

    half = math.sqrt(r * r - delta * delta)
    junction_lo = complex(x - half, -delta)
    junction_hi = complex(x - half, +delta)
    ang = math.pi - math.asin(delta / r)

    seg_len = abs(junction_lo - c)
    circ_len = 2.0 * ang * r
    total = 2 * seg_len + circ_len
    m_seg = max(int(nodes * seg_len / total), 64)
    m_circ = max(nodes - 2 * m_seg, 128)

    def kernel(y: np.ndarray, arg: np.ndarray) -> np.ndarray:
        return np.exp((-nu - 1) * (np.log(np.abs(y - x)) + 1j * arg)) * np.asarray(f.value(y))

    # Lower segment c -> junction_lo, nodes clustered toward the circle.
    s = np.linspace(0.0, 1.0, m_seg)
    tgrid = 1.0 - (1.0 - s) ** 2
    y = c + (junction_lo - c) * tgrid
    arg = np.angle(y - x)
    arg = np.where(arg > 0, arg - 2 * math.pi, arg)  # endpoint at the cut: arg = -pi
    dy = (junction_lo - c) * 2.0 * (1.0 - s)
    low = np.trapezoid(kernel(y, arg) * dy, s)

    theta = np.linspace(-ang, ang, m_circ)
    y = x + r * np.exp(1j * theta)
    dy = 1j * r * np.exp(1j * theta)
    circ = np.trapezoid(kernel(y, theta) * dy, theta)

    s = np.linspace(0.0, 1.0, m_seg)
    tgrid = s**2  # mirror clustering: dense at the circle end
    y = junction_hi + (c - junction_hi) * tgrid
    arg = np.angle(y - x)
    arg = np.where(arg < 0, arg + 2 * math.pi, arg)
    dy = (c - junction_hi) * 2.0 * s
    high = np.trapezoid(kernel(y, arg) * dy, s)

    return _gamma(nu + 1) / (2j * math.pi) * (low + circ + high)


# -- Fourier multiplier ----------------------------------------------------------


def _branch(a: np.ndarray, nu: complex) -> tuple[np.ndarray, complex, complex]:
    """``|lam|^nu`` at ``a = |lam| > 0``, and the branch phases for ``lam > 0`` and ``lam < 0``."""
    pos, neg = np.exp(-0.5j * math.pi * nu * np.array([1.0, -1.0]))
    return np.exp(nu * np.log(a)), pos, neg


def fourier_multiplier(lam: np.ndarray, nu: complex) -> np.ndarray:
    """``(-i*lam)^nu`` on the real line: ``|lam|^nu * exp(-i*pi*nu*sgn(lam)/2)``."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape, dtype=complex)
    nz = lam != 0
    power, pos, neg = _branch(np.abs(lam[nz]), nu)
    # np.multiply and not ``*``: numpy may evaluate ``power * temporary`` in
    # place with the operands swapped, which can move the last bit.
    out[nz] = np.multiply(power, np.where(lam[nz] > 0, pos, neg))
    if complex(nu) == 0:
        out[~nz] = 1.0
    return out


def _fftfreq_multiplier(n: int, d: float, nu: complex) -> np.ndarray:
    """``fourier_multiplier(2*pi*np.fft.fftfreq(n, d), nu)``, one power per ``|lam|``.

    In ``fftfreq`` order bins ``1..(n-1)//2`` hold ``+k`` and the top
    ``n//2`` bins hold ``-n//2..-1`` (for even ``n`` the Nyquist bin is
    negative), so every ``|lam|`` but the Nyquist one occurs twice.
    """
    power, pos, neg = _branch(2.0 * math.pi * np.fft.rfftfreq(n, d)[1:], nu)
    h = (n - 1) // 2
    out = np.empty(n, dtype=complex)
    out[0] = 1.0 if nu == 0 else 0.0
    np.multiply(power[:h], pos, out=out[1 : h + 1])
    np.multiply(power[::-1], neg, out=out[h + 1 :])
    return out


def fourier_differint(
    u: SampledCurve,
    nu: complex,
    *,
    pad_factor: int = 32,
    dc_tol: float = 1e-10,
    edge_tol: float = 1e-8,
) -> SampledCurve:
    """Whole-line differintegral of uniform samples by Fourier multiplier.

    The result is that of zero-padding the ``m`` samples to
    ``N = m * pad_factor``, transforming, multiplying by ``(-i*lambda)^nu``
    on the ``N``-point frequency grid and transforming back: the fractional
    derivative of a localized function decays only algebraically
    downstream, so padding keeps the periodization error well below the
    quadrature cross-check tolerances.  Requires the samples themselves to
    have decayed at the box edges.

    The first ``m`` outputs of that round trip are a circular convolution of
    the samples with the kernel ``fft(multiplier) / N`` that reads only the
    lags ``|d| < m``.  So one ``N``-point transform of the multiplier gives
    the kernel, its ``2m - 1`` central lags are kept, and they are convolved
    with the samples by transforms of length ``>= 2m - 1``.

    The zero-frequency coefficient is annihilated for ``Re(nu) > 0`` and is
    only acceptable for ``Re(nu) <= 0`` (``nu != 0``) when the sample mean
    vanishes; otherwise ``DCUndefined`` is raised.  That guard compares the
    mean with the largest coefficient of the padded ``N``-point spectrum.
    """
    nu = complex(nu)
    vals = u.values
    peak = np.max(np.abs(vals))
    if peak > 0 and max(abs(vals[0]), abs(vals[-1])) > edge_tol * peak:
        raise EdgeLeakage("samples have not decayed at the box edges")
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")

    m = vals.size
    big = m * pad_factor
    if nu != 0 and nu.real <= 0 and peak > 0:
        spec = np.fft.ifft(vals, big)
        if abs(spec[0]) > dc_tol * np.max(np.abs(spec)):
            raise DCUndefined("nonzero mean cannot be divided by 0^nu; remove the DC part first")
        del spec

    lags = np.arange(1 - m, m) % big
    kernel = np.fft.fft(_fftfreq_multiplier(big, u.dx, nu))[lags] / big
    size = 1 << (2 * m - 2).bit_length()
    out = np.fft.ifft(np.fft.fft(vals, size) * np.fft.fft(kernel, size))[m - 1 : 2 * m - 1]
    return SampledCurve(u.x0, u.dx, out)


# -- closed forms ----------------------------------------------------------------


def closed_form_oracle(f: FunctionSpec, order: DifferintOrder, x):
    """Exact differintegral for the two closed-form catalog families.

    power ``y^p`` from base 0:   ``Gamma(p+1)/Gamma(p+1-nu) * x^(p-nu)``;
    exponential ``e^(a*y)`` from -inf:  ``a^nu * e^(a*x)``.

    A Gamma pole in the power rule yields an exact zero (flagged with
    :class:`PoleHitWarning`).
    """
    nu = complex(order.nu)
    xv = np.asarray(x, dtype=float)
    if f.kind == "power":
        if order.c != 0.0:
            raise ValueError("power-rule oracle is for base point 0")
        p = complex(f.params["p"])
        rg = complex(_rgamma(p + 1 - nu))
        if rg == 0:
            warnings.warn("Gamma pole in the power rule: exact zero", PoleHitWarning, stacklevel=2)
            return np.zeros(xv.shape, dtype=complex) if xv.ndim else 0j
        coef = complex(_gamma(p + 1)) * rg
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = coef * _pow_pos(np.atleast_1d(xv), p - nu)
        return vals if xv.ndim else vals[0]
    if f.kind == "exponential":
        if not order.lower_infinite:
            raise ValueError("exponential eigenrelation needs base point -inf")
        a = f.params["a"]
        return cmath.exp(nu * math.log(a)) * np.exp(a * xv)
    raise ValueError(f"no closed form for kind {f.kind!r}")


def frac_binomial(nu: complex, n: int) -> complex:
    """Generalized binomial coefficient ``nu (nu-1) ... (nu-n+1) / n!``."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    out = 1.0 + 0.0j
    for k in range(n):
        out *= (complex(nu) - k) / (k + 1)
    return out
