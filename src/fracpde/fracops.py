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
    against each linear piece.  One path serves both signs: it computes
    the ``n``-th derivative of the order ``nu - n`` integral, and the
    integral is its ``n = 0`` case.  The outer ``n``-th derivative is taken by
    differentiating the quadrature formula analytically in the scaled
    variable (the mesh is fixed in ``tau = (x-y)/(x-base)``, so the nodes
    move affinely with ``x`` and the formula differentiates term by term).
    An input with a support ``(lo, hi)`` (a step, a bump, a sampled curve,
    a gaussian over ``center +- 9 width``, a callable that declares one) is
    integrated over it alone, from any base including -inf: points at or
    below ``lo`` read zero, points in ``(lo, hi]`` integrate from
    ``max(c, lo)`` (on a mesh graded toward ``y = x`` alone when the input
    enters smoothly at a support start above the base), and points above
    ``hi`` see a smooth kernel and take the continued formula for ``D^nu``
    directly, on a mesh placed on the support so the input is evaluated
    once for all of them; a batch straddling the support end is split
    between the two.  The meshes are graded as ``u^2``, and each rule is
    extrapolated against its own even nodes (Richardson's ``h^2`` step),
    which takes one cached weight vector and no new evaluation of the
    input.  Only inputs without usable closed-form derivatives on
    ``[base, x]`` fall back to central finite differences of the integral,
    each point with its own step.  Orders that share an input, a base and
    points (``verify``'s ``fourier_lemma`` and ``schwartz_conv`` make one
    such call each) share one evaluation per node: every order is routed
    as alone, each row block's node matrix is built once, each ``f^(m)`` is
    evaluated on it once and reduced against every order's own weights,
    and the support mesh above a support is evaluated once for all orders,
    so each value is bit for bit that of its order alone.
    The (points x nodes) integrand matrices are built and reduced in row
    blocks of bounded size, in float64 when the order and the input are
    real, so memory does not grow with the batch.  From a base at -inf the
    one input without a support that decays is the exponential, whose shift
    factors as ``f(x - t) = f(x) * exp(-a*t)`` (it is an eigenfunction
    there, and so are its derivatives; the input names ``a`` as
    ``shift_rate``).  Its tail mesh is rigid in ``t = x - y`` and cut at
    ``45/a``, and it forms no matrix: every row is ``f(x_i)`` times the same
    ``exp(-a*t_j)``.  In units of ``45/a`` that mesh and its weights (at a
    real order extrapolated as above) depend only on ``subintervals`` and
    the order, so one cached rule and one
    quadrature sum, scaled by the values at the points, give every point,
    and a point's value does not depend on the rest of the batch.  The cut
    drops the share ``Q(-nu, 45)`` of the integral, so an order below -17.5
    raises ``NonConvergent``.
``caputo_derivative``
    integral of order ``nu - n`` applied to the ``n``-th derivative.
``hankel_differintegral``
    Cauchy-type loop integral over a keyhole contour around ``[c, x]``.
``fourier_differint``
    multiplier ``(-i*lambda)^nu`` on the transform of uniform samples, with
    the branch ``|lambda|^nu * exp(-i*pi*nu*sgn(lambda)/2)``.  One transform
    of the multiplier on a frequency grid of ``2m`` points (``pad_factor``
    times ``m``) gives a convolution kernel; the wrapped images of its
    algebraic tail are subtracted from its central ``2m - 1`` lags as one
    Hurwitz zeta sum, and those lags are convolved with the ``m`` samples by
    a short FFT.  The result is the whole-line multiplier to rounding.

A uniform grid from a base at -inf (``differint --grid`` with the quadrature
or Caputo method) takes a private lattice rule where it applies: there both
compute ``I^mu f^(n)``, and the product-integration weights on a uniform
mesh are Toeplitz, so ``f^(n)`` is sampled once on a lattice of spacing
``dx/r`` from the input's cut to one step above the grid and the curve is
one FFT convolution, plus the regular ``h^2`` and the branch point's
``h^(mu+2)`` Euler-Maclaurin terms; the cut is the start of the input's
support.  ``r`` is the smallest integer that
makes the lattice no coarser than the graded mesh on average, so
``subintervals`` sets its resolution.  Exponentials, steps, sampled curves,
complex orders, finite bases, single points and library calls keep the
paths above.

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
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# A sample mean below this fraction of the largest padded coefficient
# counts as zero for the multiplier of a nonpositive order.
_DC_TOL = 1e-10

# Samples at the box edges above this fraction of the peak have not decayed
# enough for the multiplier.
_EDGE_TOL = 1e-8

# From a base at -inf an exponential ``e^(a*y)`` is integrated over ``45/a``
# below each point, where it has fallen to ``e^-45`` (2.9e-20) of its value.
_EXP_TAIL_FACTOR = 45.0

# The cut drops the share Q(mu, 45) (the regularized upper incomplete Gamma)
# of the value at kernel order ``mu``; it passes 1e-6 at mu = 17.517
# (mpmath), so higher kernel orders (integrals below order -17.5) raise
# ``NonConvergent``.
_TAIL_ORDER_MAX = 17.5

# At complex orders the tail rule's error grows with |Im(nu)|: against
# a^nu e^(ax) over Re(nu) in [-1.5, 1.5], a in {0.5, 1, 2} it is 7.8e-7
# relative up to |Im(nu)| = 5, 1.6e-6 at 6, 3.1e-4 at 10 and 1e3 at 20, so
# orders beyond 5 raise ``NonConvergent``.
_TAIL_IMAG_MAX = 5.0


# Gamma and 1/Gamma of a real argument come from ``math.gamma`` (within
# about 1e-15 relative of the true values).  Its domain and range errors
# map to the limits: Gamma is NaN at the poles and at -inf and a signed inf
# at +-0 and on overflow.  A complex argument off the real axis takes
# ``exp(+-_log_gamma(z))``, within 3e-14 relative of mpmath on Re z in
# [-12, 12], Im z in [-5, 5] and 1e-6 from the poles; formed in logs, 1/Gamma
# of a large argument never passes through an overflowing Gamma, and a value
# beyond float64 comes back as a complex infinity, not an exception.
def _gamma(z):
    """Gamma(z): a float for a real ``z`` (a float, or a complex with zero imaginary part)."""
    z = complex(z)
    if z.imag:
        return _exp(_log_gamma(z))
    x = z.real
    try:
        return math.gamma(x)
    except ValueError:  # +-0, a pole or -inf
        return math.copysign(math.inf, x) if x == 0 else math.nan
    except OverflowError:  # above 171.62, or |x| below 5.6e-309
        return math.copysign(math.inf, x)


def _rgamma(z):
    """1/Gamma(z): a float for a real ``z`` (a float, or a complex with zero imaginary part)."""
    z = complex(z)
    if z.imag:
        return _exp(-_log_gamma(z))
    x = z.real
    try:
        g = math.gamma(x)
    except (ValueError, OverflowError):
        # At +-0 and subnormal x, 1/Gamma(x) is x to rounding; at a pole, at
        # -inf and above the overflow point it is 0.
        return x if abs(x) < 1.0 else 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


# Lanczos' coefficients for g = 7 (Lanczos, SIAM J. Numer. Anal. Ser. B 1, 1964).
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028, 771.32342877765313, -176.61502916214059,
            12.507343278686905, -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _log_gamma(z: complex) -> complex:
    """A branch of log Gamma(z) for a complex ``z``: Lanczos' series, and reflection for ``Re z < 1/2``."""
    if z.real < 0.5:
        # sin(pi z) = (-1)^n sin(pi (z - n)) keeps full accuracy next to the pole at n.  Beyond
        # |Im z| = 20, |sin| grows as exp(pi |Im z|) to rounding, so sin is taken at Im z = +-20.
        n, y = round(z.real), max(-20.0, min(20.0, z.imag))
        log_sin = cmath.log(cmath.sin(math.pi * complex(z.real - n, y))) + math.pi * (abs(z.imag) - abs(y))
        return math.log(math.pi) - log_sin - 1j * math.pi * n - _log_gamma(1.0 - z)
    z -= 1.0
    t = z + 7.5
    series = _LANCZOS[0] + sum(c / (z + k) for k, c in enumerate(_LANCZOS[1:], 1))
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * cmath.log(t) - t + cmath.log(series)


def _exp(w: complex) -> complex:
    """``cmath.exp(w)``, or an infinity in its direction where that overflows float64."""
    return cmath.exp(w) if w.real < _LOG_FLOAT_MAX else math.inf * cmath.exp(1j * w.imag)


#: Terms of the Hurwitz zeta summed directly; the rest is the Euler-Maclaurin tail.
_ZETA_TERMS = 6

# B_2j / (2j)! for j = 1..10, the Euler-Maclaurin coefficients of the zeta tail.
_BERNOULLI_OVER_FACTORIAL = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600,
    -3617 / 10670622842880000, 43867 / 5109094217170944000, -174611 / 802857662698291200000,
)


def _hurwitz_zeta(s, q):
    """``zeta(s, q) = sum_(k >= 0) (k + q)^(-s)`` at ``q > 0``, continued analytically to every ``s != 1``.

    Six terms are summed directly and the rest is the Euler-Maclaurin tail
    at ``a = q + 6`` with ten Bernoulli terms, a formula that continues to
    ``Re(s) < 1`` as it stands.  There, near ``s = 0``, every term is near 1
    and their sum cancels against the tail, so each term is summed as its
    excess over 1 (``expm1``) and the ones with the tail's leading part in
    closed form: ``6 - a/(1 - s) = -(6 s + q)/(1 - s)``.  A real ``s``
    stays in float64; ``q`` is a float or an array.  Within 1e-14 relative
    of mpmath for ``0.1 <= Re(s) <= 2.9`` and ``0.5 <= q <= 1.5``.  The lattice
    rule takes ``zeta(2 + mu, 1)`` and the multiplier engine ``zeta(1 + nu, q)``.
    """
    q = np.asarray(q, dtype=float)
    a = q + _ZETA_TERMS
    log_a = np.log(a)
    power = np.exp(-s * log_a)  # a^(-s)
    if s.real < 1.0:
        total = -(_ZETA_TERMS * s + q + a * np.expm1(-s * log_a)) / (1.0 - s)
        for k in range(_ZETA_TERMS):
            total += np.expm1(-s * np.log(q + k))
    else:
        total = a * power / (s - 1.0)
        for k in range(_ZETA_TERMS):
            total += np.exp(-s * np.log(q + k))
    total += 0.5 * power
    rising, power = s, power / a  # s (s+1) ... (s+2j-2) and a^(-s-2j+1)
    for j, coef in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        total += coef * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power = power / (a * a)
    return total


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

    ``subintervals`` linear pieces on each mesh, rounded up to even: every
    product-integration rule is extrapolated against the rule on its even
    nodes, which cancels its ``h^2`` error term (a unit gaussian from -inf
    reads within 5e-11 of the peak of mpmath's values at the default 2048,
    4e-7 to 7e-7 without the step).  Below about 512 subintervals the coarse
    rule is not yet in its ``h^2`` range and the step can lose to the plain
    rule: at 128 the Caputo derivative of ``bump(1, 0.5)`` at ``nu = 1``
    misses ``f'`` by 2.3e-2, against 8.4e-5 for the plain rule, and no error
    estimate reports it yet.  The mesh shapes are not settings: the
    product-integration meshes are graded as ``u^2`` toward both ends of
    the integration range (the kernel singularity ``y -> x`` and the base
    point), and the exponential's tail equidistributes its own integrand.
    Nor is the cut of a base at ``-inf``: an input is integrated over its
    support (a gaussian's is ``center +- 9 width``), and the exponential
    over ``45/a`` below each point.
    """

    subintervals: int = 2048

    def __post_init__(self):
        if self.subintervals < 2:
            raise ValueError("need at least 2 subintervals")


DEFAULT_QUADRATURE = QuadratureConfig()

#: Byte budget of one node-matrix block, counted as rows x nodes x 16.  A
#: float64 block is half of it, so the dozen-odd temporaries of a catalog
#: derivative stay within the 2 MiB share of one core in a 4 MiB L2 shared
#: by two (larger blocks measured up to 2x slower).  Results do not depend
#: on it beyond rounding.
_BLOCK_BYTES = 2**18

#: Entries kept by each of the mesh and unit-weight caches.
_CACHE_ENTRIES = 16

#: Exponent of the graded meshes: ``u^2`` toward each graded end.
_GRADING = 2.0


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
def _graded_mesh(n_sub: int, one_sided: bool = False) -> np.ndarray:
    """Graded nodes on [0, 1], read-only; n_sub is rounded up to even.

    Two-sided by default; ``one_sided`` grades toward 0 alone, as ``u^_GRADING``.
    """
    n_sub += n_sub % 2
    u = np.arange(n_sub + 1) / n_sub
    tau = u**_GRADING if one_sided else np.where(u <= 0.5, 0.5 * (2 * u) ** _GRADING,
                                                  1.0 - 0.5 * (2 * (1 - u)) ** _GRADING)
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


def _extrapolated_weights(tau: np.ndarray, mu: complex | float) -> np.ndarray:
    """``_node_weights`` on ``tau`` (an even piece count) with Richardson's ``h^2`` extrapolation.

    On a smooth map of a uniform mesh the rule's error is ``C h^2`` plus
    higher powers (Lyness and Ninham, Math. Comp. 21, 1967), and the even
    nodes ``tau[::2]`` are that map at twice the step, so
    ``(4 w_N - w_(N/2)) / 3``, with ``w_(N/2)`` placed on the even nodes,
    cancels the ``h^2`` term without evaluating the input anywhere new.
    """
    w = 4.0 * _node_weights(tau, mu)
    w[::2] -= _node_weights(tau[::2], mu)
    return w / 3.0


def _unit_weights(n_sub: int, mu: complex, one_sided: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Read-only graded mesh on [0, 1] and its weights for kernel order ``mu``."""
    return _graded_mesh(n_sub, one_sided), _mesh_weights(n_sub, _real_if_real(mu), one_sided)


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _mesh_weights(n_sub: int, mu: complex | float, one_sided: bool) -> np.ndarray:
    w = _extrapolated_weights(_graded_mesh(n_sub, one_sided), mu)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _tail_weights(n_sub: int, mu: complex | float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rule on ``tau`` in [0, 1] for the exponential's tail in units of its span, and its weights.

    In ``tau = a*t/45`` the integrand of the tail is ``tau^(mu-1) *
    exp(-45*tau)`` times constants, whatever the rate, the points and the
    batch.  The nodes equidistribute the cube root of that density (which
    minimizes the piecewise-linear interpolation error; de Boor, 1973),
    integrated on 8192 probe points clustered at 0, so the kernel exponent
    grades the mesh at ``tau = 0``.  On ``t`` in ``[0, span]`` the rule is
    these nodes times ``span`` and these weights times ``span^mu``.

    ``n_sub`` is rounded up to even.  The nodes are a smooth map of a
    uniform mesh, so at a real order the weights take the same even-node
    extrapolation as the graded meshes.  A complex order keeps the plain
    weights: there the extrapolation gains up to ``|Im mu| = 2`` and loses
    beyond (the exponential's ``D^(0.5+10i)`` would miss ``a^nu e^(ax)`` by
    1.4e-3 relative, against 3.1e-4).
    """
    n_sub += n_sub % 2
    m_fine = 8192
    probe = (np.arange(1, m_fine + 1) / m_fine) ** 3
    e = (mu.real - 1.0) / 3.0
    dens = probe**e * np.exp(-_EXP_TAIL_FACTOR / 3.0 * probe)
    head = dens[0] * probe[0] / (e + 1.0)
    cdf = np.concatenate(([0.0], head + np.concatenate(
        ([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(probe))))))
    tau = np.interp(np.linspace(0.0, cdf[-1], n_sub + 1), cdf, np.concatenate(([0.0], probe)))
    tau[0], tau[-1] = 0.0, 1.0
    w = _node_weights(tau, mu) if isinstance(mu, complex) else _extrapolated_weights(tau, mu)
    tau.flags.writeable = w.flags.writeable = False
    return tau, w


def _check_finite(vals: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise NotSmoothEnough(f"{what} evaluated non-finite on the integration range")


def _factored_rule(values_fn, rate: float, mu, x: np.ndarray, config: QuadratureConfig, what: str) -> np.ndarray:
    """The tail integral of an input with ``f(x - t) = f(x) * exp(-rate*t)``, as ``f(x)`` times one quadrature sum.

    On the tail ``[0, span]``, ``span = 45/rate``, each row ``f(x_i - t_j)``
    of the node matrix is ``f(x_i)`` times the same ``exp(-rate*t_j)``, so
    every point is ``f(x) * span^mu * (exp(-45*tau) @ w) / Gamma(mu)`` on
    ``_tail_weights``' unit rule, and the input is evaluated only at the
    points.  A value beyond float64, at a point or in the product, raises
    ``NonConvergent``.
    """
    too_high = f"{what} overflows float64 at the evaluation points"
    with np.errstate(over="ignore"):
        fx = np.asarray(values_fn(x))
    if np.any(np.isinf(fx)):
        raise NonConvergent(too_high)
    _check_finite(fx, what)
    tau, w = _tail_weights(config.subintervals, mu)
    with np.errstate(over="ignore", invalid="ignore"):
        out = fx * (np.float64(_EXP_TAIL_FACTOR / rate) ** mu * (np.exp(-_EXP_TAIL_FACTOR * tau) @ w) * _rgamma(mu))
    if not np.all(np.isfinite(out)):
        raise NonConvergent(too_high)
    return np.asarray(out, dtype=complex)


#: Points more than this many support lengths above a support take the
#: shifted rule's uniform mesh and far moments.
_FAR_SUPPORTS = 16


def _near_moments(t, log_t, step, mu):
    """``m0``, ``m1`` of ``_shifted_rule`` from ``t = x - y`` at every mesh node, as differences at the piece ends."""
    tp = np.exp(mu * log_t)
    m0 = np.diff(tp, axis=-1) / mu
    return m0, np.diff(t * tp, axis=-1) / (mu + 1) - t[:, :-1] * m0


def _far_moments(t, log_t, step, mu):
    """``m0``, ``m1`` of ``_shifted_rule`` from ``t = x - y`` at the piece tops, where ``step / t`` is small.

    ``m0 = t^mu expm1(mu log1p(r)) / mu`` with ``r = step / t``, and
    ``m1 = t^(mu-1) step^2 J(r)`` with ``J(r) = int_0^1 (1 + r u)^(mu-1) u du
    = sum_j binom(mu-1, j) r^j / (j+2)``, summed until its terms fall below
    rounding.  ``t^mu`` is formed as ``t^(mu-1) t``, so it overflows only
    where the moments do.
    """
    r = step / t
    r_top = float(np.max(r))
    coef, c = [], 1.0  # binom(mu-1, j) / (j+2), while binom(mu-1, j) r^j is above rounding
    while abs(c) * r_top ** len(coef) >= 1e-17:
        coef.append(c / (len(coef) + 2))
        c *= (mu - len(coef)) / len(coef)
    j_r = coef[-1]
    for a in reversed(coef[:-1]):
        j_r = j_r * r + a
    tp = np.exp((mu - 1) * log_t)
    return tp * (t * np.expm1(mu * np.log1p(r))) / mu, tp * (step * step) * j_r


def _shifted_rule(f, x: np.ndarray, lo: float, hi: float, mus, config: QuadratureConfig) -> list:
    """Product integration over ``y`` in ``[lo, hi]`` for points ``x > hi``, times ``1/Gamma(mu)``, for each ``mu`` of ``mus``.

    The points lie away from the kernel singularity.  The mesh lies on the
    support, so the input is evaluated once and its piecewise-linear pieces
    (values ``f_k``, slopes ``g_k`` in ``t = x - y``) serve every row and
    every order.  A row block forms ``t`` and ``log t`` once and each order
    only its kernel moments: with ``m0_k`` and ``m1_k`` the integrals of
    ``t^(mu-1)`` and ``t^(mu-1) (t - t_k)`` over ``[t_k, t_(k+1)]``, a row's
    value is ``m0 @ f_k + m1 @ g_k``.

    Within ``_FAR_SUPPORTS`` support lengths of ``hi`` the mesh is graded
    toward both support ends and the moments are differences of ``t^mu``
    and ``t^(mu+1)`` at the piece ends.  Farther out the kernel is nearly
    constant over the support, so the mesh is uniform (on a unit gaussian
    the rule is then within 1.1e-15 relative of mpmath at x = 1e4, where
    the graded mesh reads 1.4e-10 at x = 30 and 100), and those differences
    would cancel (by x = 1e8 they are 16% off, and above 1e16 ``x - y``
    rounds to ``x``), so ``_far_moments`` forms the moments from the mesh
    steps ``y_k - y_(k+1)``.  Both meshes have an even piece count, and
    the rule on their even nodes enters as values and slopes written onto
    the fine pieces, so extrapolating it changes the two vectors that every
    row shares and no row's work.  An input that is not finite on the mesh
    raises ``NotSmoothEnough``.  An entry of the result is the order's
    values, or ``NonConvergent`` where one is not finite, with
    ``1/Gamma(mu)`` or without.
    """
    far = x - hi > _FAR_SUPPORTS * (hi - lo)
    outs = [np.empty(x.shape, dtype=complex) for _ in mus]
    graded = _graded_mesh(config.subintervals)
    for part, tau, moments, tops in ((~far, graded, _near_moments, None),
                                     (far, np.linspace(0.0, 1.0, graded.size), _far_moments, -1)):
        idx = np.flatnonzero(part)
        if not idx.size:
            continue
        y = hi - (hi - lo) * tau
        y[0], y[-1] = hi, lo
        fv = np.asarray(f.value(y))
        _check_finite(fv, "input")
        step = y[:-1] - y[1:]
        # The rule on the even nodes, as values a and slopes b on the fine
        # pieces, extrapolated as in ``_extrapolated_weights``.
        b = np.repeat((fv[2::2] - fv[:-2:2]) / (y[:-2:2] - y[2::2]), 2)
        a = np.repeat(fv[:-2:2], 2)
        a[1::2] += b[1::2] * step[::2]
        fk, gk = (4.0 * fv[:-1] - a) / 3.0, (4.0 * np.diff(fv) / step - b) / 3.0
        with np.errstate(over="ignore", invalid="ignore"):  # a row beyond float64 is reported below
            for rows in _row_blocks(idx.size, y.size):
                t = x[idx[rows], None] - y[:tops]
                log_t = np.log(t)
                for out, mu in zip(outs, mus):
                    m0, m1 = moments(t, log_t, step, mu)
                    out[idx[rows]] = m0 @ fk + m1 @ gk
    results = []
    for out, mu in zip(outs, mus):
        with np.errstate(over="ignore", invalid="ignore"):
            out = out * _rgamma(mu)
        results.append(out if np.all(np.isfinite(out)) else NonConvergent(
            "kernel moments above the support overflow float64 at the evaluation points"))
    return results


def _exponential_tail(fe, nu: complex, n: int, x: np.ndarray, config: QuadratureConfig) -> np.ndarray:
    """``d^n/dx^n`` of the order ``nu - n`` integral from -inf of an input without a support.

    Without a support only the exponential decays toward -inf.  Its tail
    mesh is rigid in t = x - y, so the formula translates with x and the
    outer derivative lands directly on the integrand.
    """
    if fe.shift_rate is None:
        if isinstance(fe, CallableFn):
            raise NonConvergent("callable input needs a support for c = -inf: "
                                "wrap it as CallableFn(fn, support=(lo, hi))")
        raise NonConvergent("input does not decay toward -inf; integral diverges")
    mu = _real_if_real(n - nu)
    if mu.real > _TAIL_ORDER_MAX:
        raise NonConvergent(f"an exponential's integral from -inf below order {-_TAIL_ORDER_MAX:g} "
                            "loses more than 1e-6 of its value at the tail cut 45/a")
    if abs(mu.imag) > _TAIL_IMAG_MAX:
        raise NonConvergent(f"an exponential's differintegral from -inf at |Im(nu)| above {_TAIL_IMAG_MAX:g} "
                            "misses a^nu e^(ax) by more than 1e-6 relative on the tail rule")
    values = (lambda z: fe.derivative_values(z, n)) if n else fe.value
    what = f"derivative of order {n}" if n else "input"
    return _factored_rule(values, fe.shift_rate, mu, x, config, what)


def _attempt(fn, *args):
    """``fn(*args)``, or the error it raises."""
    try:
        return fn(*args)
    except Exception as err:
        return err


def _rl_values(fe, orders, c: float, x: np.ndarray, config: QuadratureConfig) -> np.ndarray:
    """Row ``i``: ``d^n/dx^n`` of the order ``nu - n`` integral from ``c`` at each x, for ``(nu, n) = orders[i]``.

    ``n = 0`` is the integral of order ``nu`` itself.  Three rules set a
    derivative (``n >= 1``) apart: it needs ``x > c`` where the integral
    allows ``x = c``, it is zero above a compact support at integer
    orders, and it falls back to the stencil where the moment path cannot
    run.

    Every order is routed as it would be alone; only the work is shared.
    The orders that take the shifted rule share its evaluation of the
    input, and those that take the moment path on the same mesh share its
    node matrix and each ``f^(m)`` on it, so a row is bit for bit the row
    of a call with its order alone.  Where such calls raise, the error of
    the first order that raises is raised.
    """
    support = fe.support
    lo = c if support is None else max(c, support[0])
    live = x > lo  # points at or below the support start see a vanishing integrand
    xl = x[live]
    vals = np.zeros((len(orders), xl.size), dtype=complex)
    failed = {}  # order index -> the error its call alone raises

    def settle(i, result, cols):
        if isinstance(result, Exception):
            failed[i] = result
        else:
            vals[i, cols] = result

    above = xl > support[1] if support is not None else np.zeros(xl.shape, dtype=bool)
    inside = ~above
    xi = xl[inside]
    eps_near = np.min(xl - lo) * 1e-9 if xl.size else 0.0
    shifted, moment, stencil = [], {False: [], True: []}, []
    for i, (nu, n) in enumerate(orders):
        if c == MINUS_INF and support is None:  # every point is live
            settle(i, _attempt(_exponential_tail, fe, nu, n, x, config), inside)
            continue
        if c != MINUS_INF and np.any(x <= c if n else x < c):
            failed[i] = DomainOrder(f"evaluation point {'at or ' if n else ''}below the base point")
            continue
        if not xl.size or (support is not None and lo >= support[1]):
            continue  # zero: a base at or above the support's end, or no point above lo
        if n and fe.smooth_order_on(float(np.min(xl) - eps_near), float(np.max(xl) + eps_near)) < n:
            failed[i] = NotSmoothEnough(f"input lacks {n} continuous derivatives near the evaluation points")
            continue
        if np.any(above) and not (n and nu.imag == 0 and nu.real == round(nu.real)):
            # The input vanishes near x, so the kernel (x - y)^(-nu-1) is smooth
            # on [lo, support end]; it differentiates under the integral, and the
            # formula continues to D^nu directly (a derivative of integer order
            # is zero there).  The meshes are placed on the support, not relative
            # to x, so these points share the input's evaluations on them.
            shifted.append(i)
        if xi.size:
            # From a support start above the base where the input enters smoothly
            # the integrand is flat at lo: the mesh is graded toward y = x alone,
            # and a stencil may reach below lo, so its step is set by half the
            # support (and the distance to a finite base), not by x - lo.
            flat = lo > c and fe.smooth_order_on(lo - eps_near, float(np.max(xi))) >= max(n, 1)
            # A derivative without closed-form derivatives on [lo, x] takes the stencil.
            if n and (fe.derivative_cap < n or fe.smooth_order_on(lo, float(np.max(xi))) < n):
                stencil.append((i, flat))
            else:
                moment[flat].append(i)

    if shifted:
        mus = [_real_if_real(-orders[i][0]) for i in shifted]
        got = _attempt(_shifted_rule, fe, xl[above], lo, support[1], mus, config)
        for i, result in zip(shifted, [got] * len(shifted) if isinstance(got, Exception) else got):
            settle(i, result, above)
    for flat, group in moment.items():
        group = [i for i in group if i not in failed]
        if not group:
            continue
        got = _derivative_moment_path(fe, [(orders[i][1], _real_if_real(orders[i][1] - orders[i][0])) for i in group],
                                      xi, lo, config, one_sided=flat)
        for i, result in zip(group, got):
            if isinstance(result, NotSmoothEnough) and orders[i][1]:
                stencil.append((i, flat))
            else:
                settle(i, result, inside)
    for i, flat in stencil:
        if i not in failed:
            nu, n = orders[i]
            # Each point's stencil step is its own, so the batch does not move it.
            scale = np.minimum(0.5 * (support[1] - lo), xi - c) if flat else xi - lo
            settle(i, _attempt(_stencil_path, fe, nu, n, c, xi, scale, config), inside)
    if failed:
        raise failed[min(failed)]
    out = np.zeros((len(orders), x.size), dtype=complex)
    out[:, live] = vals
    return out


def _at_points(fe, orders, c: float, x, config: QuadratureConfig):
    """``_rl_values`` at a scalar or an array of points: one row per order, each shaped as ``x``."""
    pts = np.asarray(x, dtype=float)
    if not np.isfinite(pts).all():
        raise ValueError("evaluation points must be finite")
    return _rl_values(fe, orders, c, pts.ravel(), config).reshape((len(orders), *pts.shape))


def rl_integral(f, order: DifferintOrder, x, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Riemann-Liouville integral of order ``nu`` (``Re(nu) < 0``) at ``x``.

    Parameters
    ----------
    f:
        FunctionSpec, SampledCurve, or callable.  From ``order.c = -inf`` an
        input with a support is integrated over it alone (a gaussian's is
        ``center +- 9 width``), and the exponential over ``45/a`` below each
        point, which bounds its order at -17.5 (below it the cut loses more
        than 1e-6 of the value and ``NonConvergent`` is raised) and its
        ``|Im(nu)|`` at 5 (beyond it the tail rule misses ``a^nu e^(ax)`` by
        more than 1e-6 relative, and ``NonConvergent`` is raised); a bare
        callable needs ``CallableFn(fn, support=(lo, hi))``, and a power or
        a polynomial raises ``NonConvergent``.
    order:
        Order and base point; ``Re(order.nu) < 0`` is required.
    x:
        Scalar or array of evaluation points above the base point.
    config:
        Mesh resolution.

    Returns
    -------
    complex or ndarray of complex
    """
    if complex(order.nu).real >= 0:
        raise WrongSign("rl_integral needs Re(nu) < 0; use rl_derivative")
    return _at_points(as_evaluable(f), [(complex(order.nu), 0)], order.c, x, config)[0]


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
    if complex(order.nu).real < 0:
        raise WrongSign("rl_derivative needs Re(nu) >= 0; use rl_integral")
    return _at_points(as_evaluable(f), [(complex(order.nu), order.n)], order.c, x, config)[0]


def _differint_orders(f, nus, c: float, x, config: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """``differint(f, DifferintOrder(nu, c), x, config)`` for each ``nu`` of ``nus``, one row each.

    The orders share the input's evaluations (see ``_rl_values``), and each
    row is bit for bit that call's value; where those calls raise, this
    raises the first one's error.
    """
    orders = [DifferintOrder(nu, c) for nu in nus]
    return _at_points(as_evaluable(f), [(o.nu, o.n if o.nu.real >= 0 else 0) for o in orders], float(c), x, config)


def _derivative_moment_path(fe, orders, x, lo, config, one_sided: bool = False) -> list:
    """Exact d^n/dx^n of the product-integration formula of kernel order ``mu`` on ``[lo, x]``, per ``(n, mu)`` of ``orders``.

    The nodes are affine in ``x``; at ``n = 0`` this is the fixed-base
    integral itself.  The mesh is graded toward both ends, or with
    ``one_sided`` toward the kernel singularity ``y = x`` alone.  Each row
    block forms the node matrix once and evaluates each ``f^(m)`` on it
    once, from the highest ``m`` down as one order alone does, and every
    order with ``n >= m`` reduces it against its own weights.  The block's
    ``f^(m)`` are reduced together once all are evaluated: freed one by one,
    they are trimmed from the heap and faulted in again (12x the page faults,
    and about 20% slower on ``fourier_lemma``), at the cost of ``n + 1``
    block-sized arrays held at once.  An entry of the result is the order's
    values, or the error its call alone raises: an order leaves at the first
    ``f^(m)``, ``m <= n``, that raises or is not finite (``NotSmoothEnough``).
    """
    tau = _graded_mesh(config.subintervals, one_sided)
    sigma = 1.0 - tau
    base_col = sigma == 0.0
    s = x - lo
    results = [None] * len(orders)
    coefs, moments = {}, {}
    for j, (n, mu) in enumerate(orders):
        try:
            coefs[j] = [math.comb(n, k) * _falling(mu, k) for k in range(n + 1)]
        except OverflowError:  # a binomial beyond float64, from n of about 1030
            results[j] = NonConvergent(f"derivative of order {n} overflows float64 at the evaluation points")
            continue
        moments[j] = np.empty((n + 1, x.size), dtype=complex)
    weights = {j: _unit_weights(config.subintervals, orders[j][1], one_sided)[1] for j in moments}
    top = max((orders[j][0] for j in moments), default=-1)
    sigma_pow = [np.power(sigma, m) for m in range(top + 1)]

    for rows in _row_blocks(x.size, tau.size):
        z = lo + s[rows, None] * sigma
        integrands = {}
        for m in range(top, -1, -1):
            users = [j for j in moments if results[j] is None and orders[j][0] >= m]
            if not users:
                continue
            try:
                fv = np.asarray(fe.derivative_values(z, m) if m else fe.value(z))
                if m >= 1:
                    fv = np.where(base_col, 0.0, fv)  # sigma^m * f^(m) -> 0 at the pinned base node
                _check_finite(fv, "input" if m == 0 else f"derivative of order {m}")
            except Exception as err:
                for j in users:
                    results[j] = err
                continue
            integrands[m] = fv * sigma_pow[m] if m else fv
        for j in moments:
            if results[j] is None:
                for k in range(orders[j][0] + 1):
                    moments[j][k, rows] = integrands[orders[j][0] - k] @ weights[j]

    for j in moments:
        if results[j] is not None:
            continue
        n, mu = orders[j]
        total = np.zeros(x.shape, dtype=complex)
        # At a high order the coefficients and powers overflow float64.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n + 1):
                total += coefs[j][k] * np.power(s, mu - k) * moments[j][k]
        results[j] = total * _rgamma(mu) if np.all(np.isfinite(total)) else NonConvergent(
            f"derivative of order {n} overflows float64 at the evaluation points")
    return results


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


def _stencil_path(fe, nu: complex, n: int, c: float, pts: np.ndarray, scale: np.ndarray,
                  config: QuadratureConfig) -> np.ndarray:
    """Central differences of the order ``nu - n`` integral; each point's step set from its own mesh ``scale``.

    The weights for the offsets ``u*h`` are those for ``u`` over ``h^n``.
    """
    h = 0.5 * scale * config.subintervals ** (-2.0 / (n + 2))
    u = np.arange(n + 2) - (n + 1) / 2.0
    shifted = pts[:, None] + h[:, None] * u
    ivals = _rl_values(fe, [(nu - n, 0)], c, shifted.ravel(), config)[0].reshape(shifted.shape)
    return (ivals @ _fornberg(n, u)) / h**n


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
        return self.base.support

    def smooth_order_on(self, lo, hi):
        return max(self.base.smooth_order_on(lo, hi) - self.n, 0)

    @property
    def shift_rate(self):
        """The base's: ``f^(n)(y - t) = f^(n)(y) * exp(-a*t)`` whenever ``f(y - t) = f(y) * exp(-a*t)``."""
        return self.base.shift_rate


def differint(f, order: DifferintOrder, x, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Quadrature differintegral dispatching on the sign of Re(nu)."""
    if complex(order.nu).real < 0:
        return rl_integral(f, order, x, config)
    return rl_derivative(f, order, x, config)


# -- lattice rule ----------------------------------------------------------------

#: A lattice takes at most this many times ``max(grid points, subintervals)``
#: points; an input whose cut lies further below the grid takes the graded path.
_LATTICE_CAP = 64


def _zeta_reflected(mu: float) -> float:
    """``zeta(-1 - mu)`` for real ``mu > 0``, by reflection from ``zeta(2 + mu)``.

    ``zeta(-1-mu) = -2^(-1-mu) pi^(-2-mu) cos(pi mu / 2) Gamma(2+mu) zeta(2+mu)``.
    """
    s = 2.0 + mu
    return (-(2.0 ** (-1.0 - mu)) * math.pi ** (-2.0 - mu) * math.cos(0.5 * math.pi * mu) * math.gamma(s)
            * float(_hurwitz_zeta(s, 1.0)))


def _lattice_weights(mu: float, size: int) -> np.ndarray:
    """``omega_d``, ``d = 0..size-1``: ``int t^(mu-1) hat_d(t) dt`` on the unit lattice.

    ``omega_d = ((d+1)^(mu+1) - 2 d^(mu+1) + (d-1)^(mu+1)) / (mu (mu+1))``
    and ``omega_0 = 1/(mu (mu+1))``; the second difference is formed as
    ``d^(mu+1) * (expm1((mu+1) log1p(1/d)) + expm1((mu+1) log1p(-1/d)))`` so
    it does not cancel at large ``d``.
    """
    p = mu + 1.0
    w = np.empty(size)
    w[0], w[1] = 1.0, 2.0**p - 2.0
    d = np.arange(2.0, size)
    w[2:] = np.exp(p * np.log(d)) * (np.expm1(p * np.log1p(1.0 / d)) + np.expm1(p * np.log1p(-1.0 / d)))
    return w / (mu * p)


def _lattice_values(fe, nu: complex, x: np.ndarray, config: QuadratureConfig) -> np.ndarray | None:
    """``I^mu f^(n)`` from a base at -inf on the uniform increasing ``x``, or None where the rule does not apply.

    From -inf the derivative of order ``nu`` and the Caputo derivative are
    both ``I^mu f^(n)`` with ``mu = n - nu``.  With ``F = f^(n)`` sampled on
    a lattice of spacing ``h = dx/r`` that runs from the input's cut up to
    one step above the last point, the graded path's scheme (product
    integration of the piecewise-linear interpolant against the exact
    kernel moments) has Toeplitz weights ``h^mu omega_d``, so every point is
    one causal convolution.  Two Euler-Maclaurin terms correct it (Navot,
    J. Math. Phys. 40, 1961): the regular ``h^2`` term, by convolving
    ``F - Delta^2 F / 12``, and the ``h^(mu+2)`` term of the kernel's branch
    point, ``-zeta(-1-mu)/(mu (mu+1)) * Delta^2 F`` at the point itself.

    The refinement ``r`` is the smallest integer with ``h`` at most the mean
    spacing of the graded path's mesh, so ``subintervals`` sets the
    resolution here too.  The rule applies to a real order and an input
    with a support (not the exponential, which takes ``_factored_rule``:
    the FFT's error is relative to the largest sample), a closed-form
    ``f^(n)``, ``n + 2`` continuous derivatives over the lattice and
    finite values; a lattice over ``_LATTICE_CAP`` times the grid or the
    mesh is declined too.
    """
    if nu.imag:
        return None
    nu = nu.real
    n = math.floor(nu) + 1 if nu >= 0 else 0
    mu = n - nu
    if fe.derivative_cap < n:
        return None
    x0, top = float(x[0]), float(x[-1])
    support = fe.support
    if support is None:  # the exponential, or an input the graded path reports
        return None
    cut = support[0]
    span = min(top, support[1]) - cut
    if not span > 0:
        return None
    dx = (top - x0) / (x.size - 1)
    r = max(1, math.ceil(dx * config.subintervals / span))
    h = dx / r
    first, last = math.floor((cut - x0) / h), (x.size - 1) * r  # lattice indices, in steps h from x0
    size = last - first + 1
    if size > _LATTICE_CAP * max(x.size, config.subintervals):
        return None
    y = x0 + h * np.arange(first - 1, last + 2)
    if fe.smooth_order_on(float(y[0]), float(y[-1])) < n + 2:
        return None
    out = np.zeros(x.size)
    with np.errstate(all="ignore"):  # a sample or a sum beyond float64 declines below
        fv = np.asarray(fe.derivative_values(y, n) if n else fe.value(y))
        if np.iscomplexobj(fv):
            return None
        d2 = fv[2:] - 2.0 * fv[1:-1] + fv[:-2]
        nfft = 1 << (2 * size - 2).bit_length()  # no wrap into the first size outputs
        conv = np.fft.irfft(np.fft.rfft(fv[1:-1] - d2 / 12.0, nfft) * np.fft.rfft(_lattice_weights(mu, size), nfft),
                            nfft)[:size]
        conv -= _zeta_reflected(mu) / (mu * (mu + 1.0)) * d2
        k0 = max(0, -(-first // r))  # the first point at or above the lattice start
        out[k0:] = conv[k0 * r - first :: r] * (h**mu * _rgamma(mu))
    if not np.all(np.isfinite(out)):
        return None
    out[x <= cut] = 0.0  # the input vanishes on (-inf, x]
    return out.astype(complex)


def _on_lattice(engine, f, order: DifferintOrder, x: np.ndarray, config: QuadratureConfig) -> np.ndarray:
    """``engine(f, order, x, config)`` on an increasing uniform ``x``, for ``differint`` or ``caputo_derivative``.

    From a base at -inf both engines compute ``I^mu f^(n)``, which
    ``_lattice_values`` gives as one convolution where it applies; anywhere
    else, and for a Caputo order below 0, ``engine`` runs.
    """
    nu = complex(order.nu)
    if order.lower_infinite and (engine is differint or nu.real >= 0):
        vals = _lattice_values(as_evaluable(f), nu, x, config)
        if vals is not None:
            return vals
    return engine(f, order, x, config)


# -- Cauchy loop ---------------------------------------------------------------


def hankel_differintegral(
    f,
    order: DifferintOrder,
    x: float,
    *,
    nodes: int = 4096,
):
    """Differintegral via the Cauchy-type loop integral.

    The contour is a keyhole around the cut ``[c, x]``: straight segments
    a tenth of the loop radius ``r = (x - c)/4`` below and above the cut
    from the base point to a circle of radius ``r`` traversed
    counter-clockwise once around ``x``.  Needs ``f`` analytic in a
    neighbourhood of ``[c, x]`` containing the loop and ``nu`` not a
    negative integer.
    """
    nu = complex(order.nu)
    if nu.imag == 0 and nu.real < 0 and nu.real == round(nu.real):
        raise ValueError("loop integral is undefined at negative integer orders")
    if order.lower_infinite:
        raise ValueError("loop integral needs a finite base point")
    c = order.c
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("evaluation point must be finite")
    if x <= c:
        raise DomainOrder("evaluation point below the base point")
    r = (x - c) / 4.0
    delta = r / 10.0
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

    # At a high order the kernel, Gamma(nu + 1) or their product overflows
    # float64; a result that is not finite is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
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

        out = _gamma(nu + 1) / (2j * math.pi) * (low + circ + high)
    if not cmath.isfinite(out):
        raise NonConvergent("loop integral overflows float64 at this order")
    return out


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


def _image_scale(nu: complex | float, dx: float, big: int) -> complex | float:
    """``A * N^(-1-nu)``, with ``A = dx^(-nu) / Gamma(-nu)`` the kernel's tail constant.

    Formed in logs as ``(N dx)^(-nu) / (N Gamma(-nu))``, so that neither
    ``dx^(-nu)`` nor ``Gamma(-nu)`` overflows on its own; a real ``nu``
    (not an integer ``>= 0``) stays in floats.  A scale beyond float64
    raises ``NonConvergent``.
    """
    log_size = -nu * math.log(big * dx) - math.log(big)
    try:
        if nu.imag:
            return cmath.exp(log_size - _log_gamma(-nu))
        sign = 1.0 if nu.real < 0 else (-1.0) ** math.ceil(nu.real)  # the sign of Gamma(-nu)
        return sign * math.exp(log_size.real - math.lgamma(-nu.real))
    except OverflowError:
        raise NonConvergent("multiplier overflows float64 at this order") from None


def fourier_differint(
    u: SampledCurve,
    nu: complex,
    *,
    pad_factor: int = 2,
) -> SampledCurve:
    """Whole-line differintegral of uniform samples by Fourier multiplier.

    The result is ``(-i*lambda)^nu`` applied to the ``m`` samples on the
    whole line, exact to rounding for samples whose spectrum has decayed
    by the Nyquist frequency: at the default pad it is within 1e-10 of the
    peak of mpmath's values on gaussians and gaussian dipoles for
    ``-0.9 <= nu <= 1.9``, complex orders included.  Requires the samples
    themselves to have decayed at the box edges: an edge sample above 1e-8
    of the peak raises ``EdgeLeakage``.

    Zero-padding the samples to ``N = m * pad_factor``, transforming,
    multiplying on the ``N``-point frequency grid and transforming back is
    a circular convolution with the kernel ``K_N = fft(multiplier) / N``
    whose first ``m`` outputs read only the lags ``|d| < m``.  So one
    ``N``-point transform of the multiplier gives the kernel, its ``2m - 1``
    central lags are kept, and they are convolved with the samples by
    transforms of length ``>= 2m - 1``.  By Poisson summation ``K_N`` is the
    whole-line kernel plus its images at ``d + jN``, and the causal tail
    ``A * d^(-1-nu)`` (``A = dx^(-nu) / Gamma(-nu)``) of the images
    ``j >= 1`` sums to the Hurwitz zeta ``A * N^(-1-nu) * zeta(1+nu, 1+d/N)``,
    continued analytically for ``Re(nu) < 0``; that sum is subtracted from
    every kept lag (integer orders ``>= 0`` have no such tail).  With
    ``pad_factor >= 2`` every image lies beyond the kept window, where the
    tail is its asymptote; at ``pad_factor = 1`` the first image of the
    most negative lags lands in the kernel's near field, so 2 is the
    default and a larger pad buys nothing but time.

    The zero-frequency coefficient is annihilated for ``Re(nu) > 0`` and is
    only acceptable for ``Re(nu) <= 0`` (``nu != 0``) when the sample mean
    vanishes; otherwise ``DCUndefined`` is raised.  That guard compares the
    mean with 1e-10 times the largest coefficient of the padded ``N``-point
    spectrum.  An order so high that the kernel or the result overflows
    float64 raises ``NonConvergent``.
    """
    nu = complex(nu)
    vals = u.values
    peak = np.max(np.abs(vals))
    if peak > 0 and max(abs(vals[0]), abs(vals[-1])) > _EDGE_TOL * peak:
        raise EdgeLeakage("samples have not decayed at the box edges")
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")

    m = vals.size
    big = m * pad_factor
    if nu != 0 and nu.real <= 0 and peak > 0:
        spec = np.fft.ifft(vals, big)
        if abs(spec[0]) > _DC_TOL * np.max(np.abs(spec)):
            raise DCUndefined("nonzero mean cannot be divided by 0^nu; remove the DC part first")
        del spec

    lags = np.arange(1 - m, m) % big
    too_high = "multiplier overflows float64 at this order"
    # At a high order |lambda|^nu overflows float64; a kernel or a result
    # that is not finite is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = np.fft.fft(_fftfreq_multiplier(big, u.dx, nu))[lags] / big
        if not np.all(np.isfinite(kernel)):
            raise NonConvergent(too_high)
        # The images' tail sum, taken for the order s - 1 that s holds exactly.
        # As that order goes to 0, where s rounds to 1, the sum tends to -1/N:
        # the DC bin that the multiplier zeroes.  At the integers nu >= 0,
        # 1/Gamma(-nu) = 0 and the kernel has no algebraic tail.
        s = 1.0 + (nu if nu.imag else nu.real)
        if s == 1.0 and nu:
            kernel += 1.0 / big
        elif s != 1.0 and not (nu.imag == 0 and nu.real > 0 and nu.real == round(nu.real)):
            kernel -= _image_scale(s - 1.0, u.dx, big) * _hurwitz_zeta(s, 1.0 + np.arange(1 - m, m) / big)
        size = 1 << (2 * m - 2).bit_length()
        out = np.fft.ifft(np.fft.fft(vals, size) * np.fft.fft(kernel, size))[m - 1 : 2 * m - 1]
    if not np.all(np.isfinite(out)):
        raise NonConvergent(too_high)
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
