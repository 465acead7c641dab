"""Symbols of constant-coefficient fractional-derivative operators.

A symbol is a finite sum of terms ``c * lambda^alpha`` with fractional
multi-indices ``alpha`` (componentwise nonnegative reals).  Powers of a
real frequency are taken on the branch continued through the upper half
plane,

    lambda^a = |lambda|^a * exp(i*pi*a)   for lambda < 0,

with ``0^a = 0`` for ``a > 0`` and ``0^0 = 1``.  The operator order is the
largest total degree ``|alpha|_1``; the terms attaining it form the
principal symbol, whose zero set off the origin decides ellipticity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoRFound, NotElliptic

__all__ = [
    "SymbolTerm",
    "FracSymbol",
    "OrderInfo",
    "EllipticityReport",
    "BoundsEstimate",
    "branch_power",
    "symbol_eval",
    "order_and_gap",
    "principal_symbol",
    "check_ellipticity",
    "require_elliptic",
    "estimate_bounds",
    "sphere_samples",
]

_ORDER_DIGITS = 12

# Directions per dimension on the unit sphere for the ellipticity and bound
# scans, and log-spaced shells in the bound scan from |lambda| = 1 up to its
# ceiling.
_DIRECTIONS_PER_DIM = 64
_SCAN_RADII = 192
_SCAN_MAX = 1e4


@dataclass(frozen=True)
class SymbolTerm:
    """One monomial ``coefficient * lambda^alpha``."""

    coefficient: complex
    alpha: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        alpha = tuple(float(a) for a in self.alpha)
        if any(a < 0 for a in alpha):
            raise ValueError("fractional multi-indices must be componentwise >= 0")
        if not alpha:
            raise ValueError("empty multi-index")
        object.__setattr__(self, "alpha", alpha)

    @property
    def degree(self) -> float:
        return round(sum(self.alpha), _ORDER_DIGITS)


@dataclass(frozen=True)
class FracSymbol:
    """Finite sum of fractional monomials in ``dim`` frequency variables.

    Parameters
    ----------
    dim:
        Number of frequency variables.
    terms:
        The monomials; zero-coefficient terms are dropped, and at least one
        term must survive.

    The JSON form is ``{"dim": n, "terms": [{"c": [re, im],
    "alpha": [...]}, ...]}``.
    """

    dim: int
    terms: tuple[SymbolTerm, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        kept = []
        for t in self.terms:
            if not isinstance(t, SymbolTerm):
                t = SymbolTerm(*t)
            if len(t.alpha) != self.dim:
                raise DimensionMismatch(
                    f"term has {len(t.alpha)} indices, symbol has dimension {self.dim}"
                )
            if t.coefficient != 0:
                kept.append(t)
        if not kept:
            raise ValueError("symbol has no nonzero terms")
        object.__setattr__(self, "terms", tuple(kept))

    @property
    def order(self) -> float:
        return max(t.degree for t in self.terms)

    def coefficient_scale(self) -> float:
        return max(abs(t.coefficient) for t in self.terms)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"c": [t.coefficient.real, t.coefficient.imag], "alpha": list(t.alpha)}
                for t in self.terms
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "FracSymbol":
        try:
            dim = int(doc["dim"])
            terms = tuple(
                SymbolTerm(complex(item["c"][0], item["c"][1]), tuple(item["alpha"]))
                for item in doc["terms"]
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed symbol document: {exc}") from exc
        return cls(dim, terms)

    @classmethod
    def from_json(cls, text: str) -> "FracSymbol":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class OrderInfo:
    order: float
    gap: float
    homogeneous: bool


@dataclass(frozen=True)
class EllipticityReport:
    elliptic: bool
    min_modulus: float
    witness: tuple[float, ...]
    threshold: float
    samples_used: int


@dataclass(frozen=True)
class BoundsEstimate:
    lower: float
    upper: float
    radius: float
    scan_max: float


def branch_power(lam, alpha: float) -> np.ndarray:
    """``lam^alpha`` on the real line, continued through the upper half plane."""
    lam = np.asarray(lam, dtype=float)
    if alpha == 0:
        return np.ones(lam.shape, dtype=complex)
    out = np.zeros(lam.shape, dtype=complex)
    pos = lam > 0
    neg = lam < 0
    out[pos] = lam[pos] ** alpha
    out[neg] = np.exp(alpha * (np.log(-lam[neg]) + 1j * math.pi))
    return out


def symbol_eval(sym: FracSymbol, lam) -> np.ndarray:
    """Evaluate the symbol at frequency points of shape ``(..., dim)``."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] != sym.dim:
        raise DimensionMismatch(
            f"frequency points have last axis {lam.shape[-1] if lam.ndim else 0}, "
            f"symbol has dimension {sym.dim}"
        )
    out = np.zeros(lam.shape[:-1], dtype=complex)
    for t in sym.terms:
        piece = np.full(lam.shape[:-1], t.coefficient, dtype=complex)
        for i, a in enumerate(t.alpha):
            if a != 0:
                # Power first: with fused multiply-add a complex product
                # depends on operand order in the last bit, and numpy may
                # swap the operands of a large temporary product.  Writing
                # the temporary first fixes the order at every array size.
                piece = branch_power(lam[..., i], a) * piece
        out += piece
    return out


def _point_modulus(sym: FracSymbol):
    """``lam -> abs(symbol_eval(sym, lam[None, :]))[0]`` for one point, bit for bit.

    The objective of the local minimizers: it runs the same numpy ufuncs on
    length-1 arrays as ``symbol_eval`` (a pure ``math``/``cmath`` version
    rounds differently), minus the masks and the array set-up per call.
    """
    terms = [(np.full(1, t.coefficient), t.alpha) for t in sym.terms]

    def modulus(lam) -> float:
        out = np.zeros(1, dtype=complex)
        for piece, alpha in terms:
            for x, a in zip(lam, alpha, strict=True):
                if a == 0:
                    continue
                if x > 0:
                    power = np.array([x]) ** a
                elif x < 0:
                    power = np.exp(a * (np.log(np.array([-x])) + 1j * math.pi))
                else:
                    power = np.zeros(1, dtype=complex)
                piece = power * piece
            out += piece
        return float(np.abs(out)[0])

    return modulus


def order_and_gap(sym: FracSymbol) -> OrderInfo:
    """Operator order and the gap down to the next lower-degree terms.

    A symbol whose terms all share one degree is homogeneous; its gap is
    reported as the full order (there is nothing below the principal part).
    """
    degrees = sorted({t.degree for t in sym.terms}, reverse=True)
    order = degrees[0]
    if len(degrees) == 1:
        return OrderInfo(order, order, True)
    return OrderInfo(order, round(order - degrees[1], _ORDER_DIGITS), False)


def principal_symbol(sym: FracSymbol) -> FracSymbol:
    """The top-degree part of the symbol."""
    top = order_and_gap(sym).order
    return FracSymbol(sym.dim, tuple(t for t in sym.terms if t.degree == top))


def sphere_samples(dim: int) -> np.ndarray:
    """Well-spread unit vectors: the two endpoints in 1-D, else ``64 * dim`` of them.

    They lie evenly on a circle, on a Fibonacci sphere, or (4-D and up) are
    normalized Gaussian draws seeded with their count.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    count = _DIRECTIONS_PER_DIM * dim
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if dim == 3:
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = np.sqrt(1.0 - z * z)
        theta = math.pi * (3.0 - math.sqrt(5.0)) * i
        return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)
    rng = np.random.default_rng(count)
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


def _unit(angles, dim: int) -> np.ndarray:
    """The unit vector at ``dim - 1`` angles: spherical in 3-D, hyperspherical otherwise (polar in 2-D)."""
    if dim == 3:
        theta, phi = angles
        return np.array([math.sin(phi) * math.cos(theta), math.sin(phi) * math.sin(theta), math.cos(phi)])
    out = np.empty(dim)
    s = 1.0
    for k, a in enumerate(angles):
        out[k] = s * math.cos(a)
        s *= math.sin(a)
    out[-1] = s
    return out


def _angles(d) -> list[float]:
    """The angles ``_unit`` maps to the unit vector ``d``."""
    if len(d) == 3:
        return [math.atan2(d[1], d[0]), math.acos(float(np.clip(d[2], -1.0, 1.0)))]
    angles = [math.atan2(math.hypot(*d[k + 1:]), d[k]) for k in range(len(d) - 2)]
    angles.append(math.atan2(d[-1], d[-2]))
    return angles


def _nelder_mead(fn, x0, xatol: float, fatol: float, maxiter: int, bounds=None):
    """Minimize ``fn`` with the Nelder-Mead simplex method; return ``(x, fun)``.

    Nelder & Mead, *Comput. J.* 7 (1965) 308-313.  Step for step this is
    ``scipy.optimize.minimize(fn, x0, method="Nelder-Mead", bounds=bounds,
    options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})`` as
    scipy 1.17 runs it, and returns the same ``x`` and ``fun`` bit for bit:
    the same initial simplex (each coordinate times 1.05, or 0.00025 where
    it is 0), fixed coefficients 1 / 2 / 1/2 / 1/2, the same ordering and
    stopping test, ``fn`` called on a copy of each vertex, and ``fun`` the
    minimum over the last simplex.  ``bounds`` holds one ``(low, high)``
    pair per coordinate, ``None`` for no bound; every vertex is clipped to
    the box, and initial vertices beyond an upper bound are first
    reflected into it.
    """
    x0 = np.array(x0, dtype=float).reshape(-1)
    n = x0.size
    if bounds is None:
        def clip(v):
            return v
    else:
        lower = np.array([-np.inf if lo is None else float(lo) for lo, _ in bounds])
        upper = np.array([np.inf if hi is None else float(hi) for _, hi in bounds])
        if np.any(upper < lower):
            raise ValueError("an upper bound is less than the corresponding lower bound")

        def clip(v):
            return np.clip(v, lower, upper)

        x0 = clip(x0)

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    if bounds is not None:
        sim = clip(np.where(sim > upper, 2 * upper - sim, sim))

    def f(v) -> float:
        return fn(np.copy(v))

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = f(sim[k])
    # Sorted twice, as scipy does: argsort need not be stable, so with
    # tied values a second sort may reorder the vertices.
    sim, fsim = by_value(sim, fsim)
    sim, fsim = by_value(sim, fsim)

    # Reflection, expansion, contraction and shrink coefficients.
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = clip((1 + rho) * xbar - rho * sim[-1])
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = clip((1 + rho * chi) * xbar - rho * chi * sim[-1])
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = clip((1 + psi * rho) * xbar - psi * rho * sim[-1])
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = clip((1 - psi) * xbar + psi * sim[-1])
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = clip(sim[0] + sigma * (sim[j] - sim[0]))
                fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = by_value(sim, fsim)
    return sim[0], np.min(fsim)


def check_ellipticity(sym: FracSymbol) -> EllipticityReport:
    """Scan the principal symbol on the unit sphere for zeros.

    A coarse sweep locates the smallest modulus; for ``dim >= 2`` the worst
    direction is then polished over its angles with ``_nelder_mead``, a
    private Nelder-Mead equal to scipy's bit for bit, so that genuine zeros
    between sample points are not missed.  The zero threshold scales with
    the principal coefficients.
    """
    principal = principal_symbol(sym)
    threshold = 1e-9 * principal.coefficient_scale()
    dirs = sphere_samples(sym.dim)
    vals = np.abs(symbol_eval(principal, dirs))
    i0 = int(np.argmin(vals))
    best_dir, best_val = dirs[i0], float(vals[i0])

    if sym.dim >= 2:
        modulus = _point_modulus(principal)
        x, fun = _nelder_mead(lambda ang: modulus(_unit(ang, sym.dim)), _angles(best_dir),
                              xatol=1e-12, fatol=1e-14, maxiter=400)
        if fun < best_val:
            best_val = float(fun)
            best_dir = _unit(x, sym.dim)

    return EllipticityReport(
        elliptic=best_val > threshold,
        min_modulus=best_val,
        witness=tuple(float(v) for v in best_dir),
        threshold=threshold,
        samples_used=len(dirs),
    )


def require_elliptic(sym: FracSymbol) -> EllipticityReport:
    """Ellipticity check that raises instead of reporting a failure."""
    report = check_ellipticity(sym)
    if not report.elliptic:
        raise NotElliptic(
            f"principal symbol vanishes near direction {report.witness} "
            f"(|sigma_P| = {report.min_modulus:.3e})"
        )
    return report


def _ratio_polish(
    sym: FracSymbol, order: float, r0: float, dir0: np.ndarray, lo_logr: float, hi_logr: float
) -> tuple[float, float]:
    """Locally minimize the bound ratio over radius (and direction).

    The shell scan can straddle a zero of the full symbol; this runs the
    sampled minimum down to it with ``_nelder_mead`` (scipy's Nelder-Mead,
    bit for bit), over ``log r`` in ``[lo_logr, hi_logr]`` and, for
    ``dim >= 2``, the angles of the direction, starting from ``dir0``.
    Returns the polished value and its radius.
    """
    x0 = [math.log(r0)]
    if sym.dim >= 2:
        x0 += _angles(dir0)
    bounds = [(lo_logr, hi_logr)] + [(None, None)] * (len(x0) - 1)
    x, fun = _nelder_mead(_ratio_objective(sym, order, dir0), x0,
                          xatol=1e-12, fatol=1e-16, maxiter=500, bounds=bounds)
    return float(fun), math.exp(float(np.clip(x[0], lo_logr, hi_logr)))


def _ratio_objective(sym: FracSymbol, order: float, dir0: np.ndarray):
    """The polish objective ``(log r, *angles) -> |sigma(r d)| / (1 + r^2)^(order/2)``.

    ``d`` is the unit vector at the angles; in 1-D there are none and ``d``
    is ``dir0``.
    """
    modulus = _point_modulus(sym)

    def ratio(p) -> float:
        r = math.exp(p[0])
        d = dir0 if sym.dim == 1 else _unit(p[1:], sym.dim)
        return modulus(r * d) / (1.0 + r * r) ** (order / 2.0)

    return ratio


def estimate_bounds(sym: FracSymbol) -> BoundsEstimate:
    """Sampled ellipticity constants outside the smallest viable radius.

    Scans ``|sigma(lambda)| / (1 + |lambda|^2)^(order/2)`` on log-spaced
    shells from ``|lambda| = 1`` out to the ceiling ``1e4`` (reported
    as ``scan_max``) and returns the smallest scanned radius from which the
    infimum out to the ceiling stays positive, with that infimum and the
    matching supremum as the constants, nudged outward by 0.1% so that
    fresh sample points stay inside them.  Each candidate infimum is
    polished over radius and direction with a private Nelder-Mead equal to
    scipy's bit for bit, so full-symbol zeros between shells push the
    radius outward instead of slipping through the sampling.
    """
    require_elliptic(sym)
    info = order_and_gap(sym)
    threshold = 1e-9 * sym.coefficient_scale()
    dirs = sphere_samples(sym.dim)
    radii = np.logspace(0.0, math.log10(_SCAN_MAX), _SCAN_RADII)
    lam = radii[:, None, None] * dirs[None, :, :]
    ratio = np.abs(symbol_eval(sym, lam)) / (1.0 + radii**2)[:, None] ** (info.order / 2.0)
    hi_logr = math.log(_SCAN_MAX)
    k = 0
    while k < _SCAN_RADII:
        block = ratio[k:]
        i, j = np.unravel_index(int(np.argmin(block)), block.shape)
        grid_val = float(block[i, j])
        polish_val, polish_r = _ratio_polish(
            sym, info.order, float(radii[k + i]), dirs[j], math.log(radii[k]), hi_logr
        )
        lo = min(grid_val, polish_val)
        if lo > threshold:
            return BoundsEstimate(
                0.999 * lo, 1.001 * float(block.max()), float(radii[k]), _SCAN_MAX
            )
        bad = [r for r, v in ((polish_r, polish_val), (float(radii[k + i]), grid_val)) if v <= threshold]
        k = max(k + 1, int(np.searchsorted(radii, max(bad), side="right")))
    raise NoRFound(
        f"the symbol still vanishes near |lambda| = {_SCAN_MAX:g}; "
        "no viable radius below the scan ceiling"
    )
