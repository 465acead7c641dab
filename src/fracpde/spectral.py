"""Spectral solver for constant-coefficient fractional elliptic operators.

Everything lives on a periodic box ``[-L/2, L/2)^n`` with ``m`` samples per
axis.  The discrete transform is calibrated to the line convention

    u_hat(lambda) = int u(x) exp(i*lambda*x) dx,

so multiplier formulas carry over verbatim as long as fields have decayed
at the box edges (violations are reported with
:class:`~fracpde.errors.EdgeLeakageWarning`).

The solver inverts an elliptic symbol outside a compactly supported smooth
frequency cutoff ``chi``: with ``E_hat = (1 - chi)/P`` the exact identity
``P * E_hat + chi = 1`` holds on the grid, so the candidate solution
``u = IFT(E_hat * f_hat)`` satisfies ``P(D) u = f + omega * f`` where
``omega = IFT(-chi)`` is a smoothing remainder confined to low frequencies.
Nothing is truncated silently: :class:`SolveResult` carries the forcing
spectrum ``f_hat`` with the solution, and computes the residual spectrum
``-chi * f_hat`` and the residual field on demand.  The transforms write
into arrays they own, and the solution is transformed in the buffer of its
own spectrum.

Symbols, radii and separable samples are built from 1-D axis factors: every
symbol term is ``c * prod(lambda_i^alpha_i)``, a separable function is
``prod(g(x_i))`` and radii depend only on ``sum(lambda_i^2)``, so no
``(m, ..., m, dim)`` coordinate array is formed on the solver path.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CutoffExceedsNyquist, DimensionMismatch, EdgeLeakageWarning, NoRFound
from .fileio import atomic_write_bytes, atomic_write_text
from .symbols import FracSymbol, branch_power, estimate_bounds, require_elliptic
from .symbols import symbol_eval  # noqa: F401  (still importable from this module)

__all__ = [
    "BoxGrid",
    "Field",
    "SpectralField",
    "transform",
    "inverse",
    "apply_operator",
    "convolve",
    "build_cutoff",
    "Parametrix",
    "build_parametrix",
    "SolveResult",
    "solve_elliptic",
    "sample_field",
    "sample_separable",
    "save_field",
    "load_field",
    "export_slice",
]

_EDGE_TOL = 1e-8
# Grid values per block of rows in ``SolveResult.confinement``.
_BLOCK_VALUES = 1 << 15
_FILE_MAGIC = "fracpde-field-v1"


@dataclass(frozen=True)
class BoxGrid:
    """Uniform periodic sampling box ``[-length/2, length/2)^dim``.

    Parameters
    ----------
    dim:
        1, 2, or 3 spatial dimensions.
    m:
        Samples per axis; a power of two, at least 16.
    length:
        Box edge length.
    """

    dim: int
    m: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("grid dimension must be 1, 2, or 3")
        if self.m < 16 or self.m & (self.m - 1) != 0:
            raise ValueError("samples per axis must be a power of two, at least 16")
        if not (self.length > 0):
            raise ValueError("box length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.m

    @property
    def x0(self) -> float:
        return -self.length / 2.0

    @property
    def nyquist(self) -> float:
        return math.pi * self.m / self.length

    def axis(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.m)

    def frequencies(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.m, d=self.dx)

    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.dim

    def point_grid(self) -> np.ndarray:
        """Sample coordinates, shape ``(m, ..., m, dim)``."""
        axes = np.meshgrid(*([self.axis()] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    def frequency_grid(self) -> np.ndarray:
        """Frequency coordinates in fft order, shape ``(m, ..., m, dim)``."""
        axes = np.meshgrid(*([self.frequencies()] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    def axis_frequencies(self) -> list[np.ndarray]:
        """The frequencies along each axis, shaped to broadcast against the grid."""
        return [_along(self.frequencies(), ax, self.dim) for ax in range(self.dim)]

    def frequency_radii(self) -> np.ndarray:
        return _radii(self.axis_frequencies())


def _radii(axis_frequencies: list[np.ndarray]) -> np.ndarray:
    """``sqrt(sum(lambda_i^2))`` broadcast from per-axis frequency vectors."""
    total = 0.0
    for lam in axis_frequencies:
        total = total + lam * lam
    return np.sqrt(total, out=total)


def _along(vec: np.ndarray, ax: int, dim: int) -> np.ndarray:
    """View of a length-m vector that runs along axis ``ax`` of a ``dim``-d grid."""
    shape = [1] * dim
    shape[ax] = vec.size
    return vec.reshape(shape)


def _as_grid_values(grid: BoxGrid, values) -> np.ndarray:
    vals = np.asarray(values, dtype=complex)
    if vals.shape != grid.shape():
        raise DimensionMismatch(f"values of shape {vals.shape} on a {grid.shape()} grid")
    return vals


@dataclass(frozen=True)
class Field:
    """Complex samples on a :class:`BoxGrid`."""

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_grid_values(self.grid, self.values))

    def edge_peak(self) -> float:
        faces = []
        for ax in range(self.grid.dim):
            faces.append(np.abs(np.take(self.values, 0, axis=ax)).max())
            faces.append(np.abs(np.take(self.values, -1, axis=ax)).max())
        return max(faces)


@dataclass(frozen=True)
class SpectralField:
    """Complex coefficients on the frequency grid of a :class:`BoxGrid`."""

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_grid_values(self.grid, self.values))


def sample_field(grid: BoxGrid, fn) -> Field:
    """Evaluate a callable (or catalog separable product) on the grid.

    1-D callables receive the axis; higher dimensions receive coordinate
    arrays ``(x_1, ..., x_n)``.
    """
    if grid.dim == 1:
        vals = fn(grid.axis())
    else:
        axes = np.meshgrid(*([grid.axis()] * grid.dim), indexing="ij")
        vals = fn(*axes)
    return Field(grid, np.asarray(vals, dtype=complex))


def sample_separable(grid: BoxGrid, fn) -> Field:
    """Sample the separable product ``fn(x_1) * ... * fn(x_n)`` on the grid.

    ``fn`` is evaluated once, on the 1-D axis; the product is formed by
    broadcasting in axis order, so it equals ``np.prod`` over a meshgrid.
    """
    vals = np.asarray(fn(grid.axis()))
    out = _along(vals, 0, grid.dim)
    for ax in range(1, grid.dim):
        out = out * _along(vals, ax, grid.dim)
    return Field(grid, out)


def _warn_on_edges(field: Field) -> None:
    peak = np.abs(field.values).max()
    if peak > 0 and field.edge_peak() > _EDGE_TOL * peak:
        warnings.warn(
            "field has not decayed at the box edges; line-convention results are unreliable",
            EdgeLeakageWarning,
            stacklevel=3,
        )


def transform(field: Field) -> SpectralField:
    """Forward transform, calibrated to ``int u exp(i lambda x) dx``."""
    g = field.grid
    _warn_on_edges(field)
    spec = np.fft.ifftn(field.values, out=np.empty(g.shape(), dtype=complex))
    spec *= g.length**g.dim
    phase = np.exp(1j * g.frequencies() * g.x0)
    for ax in range(g.dim):
        spec *= _along(phase, ax, g.dim)
    return SpectralField(g, spec)


class _Scratch(SpectralField):
    """A spectrum nothing else holds, which :func:`inverse` transforms in its own buffer."""


def inverse(spectral: SpectralField) -> Field:
    """Inverse transform; exact round trip with :func:`transform`."""
    g = spectral.grid
    phase = np.exp(-1j * g.frequencies() * g.x0)
    out = spectral.values if isinstance(spectral, _Scratch) else None
    vals = np.multiply(spectral.values, _along(phase, 0, g.dim), out=out)
    for ax in range(1, g.dim):
        vals *= _along(phase, ax, g.dim)
    np.fft.fftn(vals, out=vals)
    vals /= g.length**g.dim
    return Field(g, vals)


def _symbol_on_grid(sym: FracSymbol, grid: BoxGrid) -> np.ndarray:
    """``symbol_eval`` on the frequency grid, built from per-axis factors.

    Each term multiplies the axis powers onto its coefficient in axis order
    and operand order, as ``symbol_eval`` does, so the values agree bit for
    bit.
    """
    if sym.dim != grid.dim:
        raise DimensionMismatch(f"symbol dimension {sym.dim} on a {grid.dim}-d grid")
    out = np.zeros(grid.shape(), dtype=complex)
    for t in sym.terms:
        piece = t.coefficient
        for lam, a in zip(grid.axis_frequencies(), t.alpha):
            if a != 0:
                piece = branch_power(lam, a) * piece
        out += piece
    return out


def apply_operator(sym: FracSymbol, f):
    """Apply the operator with the given symbol; type follows the input."""
    if isinstance(f, SpectralField):
        return SpectralField(f.grid, _symbol_on_grid(sym, f.grid) * f.values)
    spec = transform(f)
    out = SpectralField(spec.grid, _symbol_on_grid(sym, spec.grid) * spec.values)
    return inverse(out)


def convolve(f: Field, g: Field) -> Field:
    """Whole-line convolution of decayed fields via the transform."""
    if f.grid != g.grid:
        raise DimensionMismatch("convolution operands live on different grids")
    return inverse(SpectralField(f.grid, transform(f).values * transform(g).values))


def _shoulder(t: np.ndarray) -> np.ndarray:
    """Smooth monotone 1 -> 0 ramp on [0, 1] built from exp(-1/t)."""

    def bump_side(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    up, down = bump_side(t), bump_side(1.0 - t)
    return down / (up + down)


def build_cutoff(grid: BoxGrid, radius: float) -> SpectralField:
    """Smooth radial frequency cutoff: 1 inside ``radius``, 0 beyond ``radius + 1``."""
    if radius <= 0:
        raise ValueError("cutoff radius must be positive")
    if radius + 1.0 > grid.nyquist:
        raise CutoffExceedsNyquist(
            f"cutoff support reaches |lambda| = {radius + 1.0:g}, beyond the grid "
            f"Nyquist frequency {grid.nyquist:g}"
        )
    rho = grid.frequency_radii()
    chi = np.zeros(grid.shape())
    chi[rho <= radius] = 1.0
    ramp = (rho > radius) & (rho < radius + 1.0)
    chi[ramp] = _shoulder(rho[ramp] - radius)
    return SpectralField(grid, chi.astype(complex))


@dataclass(frozen=True)
class Parametrix:
    """Approximate inverse ``E_hat`` with its cutoff; ``P*E_hat + chi = 1``."""

    symbol: FracSymbol
    grid: BoxGrid
    radius: float
    e_hat: SpectralField
    chi: SpectralField

    @property
    def omega_hat(self) -> SpectralField:
        """Multiplier of the smoothing remainder, exactly ``-chi``."""
        return SpectralField(self.grid, -self.chi.values)

    def omega(self) -> Field:
        """Smoothing remainder kernel: ``P(D)(E*f) = f + omega * f``."""
        return inverse(self.omega_hat)


def build_parametrix(sym: FracSymbol, grid: BoxGrid, radius: float | None = None) -> Parametrix:
    """Construct the cutoff inverse of an elliptic symbol on the grid.

    With no ``radius`` hint, the bound scan picks the smallest radius that
    clears every zero of the full symbol.

    Raises
    ------
    NotElliptic
        If the principal symbol has a zero on the unit sphere.
    NoRFound
        If no viable radius exists below the bound-scan ceiling, or a
        hinted cutoff leaves a symbol zero exposed on the grid.
    CutoffExceedsNyquist
        If the cutoff shoulder does not fit under the grid Nyquist bound.
    """
    if radius is None:
        radius = estimate_bounds(sym).radius
    else:
        require_elliptic(sym)
    chi = build_cutoff(grid, radius)
    p_vals = _symbol_on_grid(sym, grid)
    live = chi.values.real < 1.0
    e_vals = np.zeros(grid.shape(), dtype=complex)
    np.subtract(1.0, chi.values, out=e_vals, where=live)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(e_vals, p_vals, out=e_vals, where=live)
    if not np.all(np.isfinite(e_vals)):
        raise NoRFound(
            f"symbol vanishes outside the cutoff radius {radius:g}; "
            "enlarge the radius past the zeros of the full symbol"
        )
    return Parametrix(sym, grid, float(radius), SpectralField(grid, e_vals), chi)


@dataclass(frozen=True)
class SolveResult:
    """Solution with its low-frequency defect; ``P(D) u = f + residual``.

    ``f_hat`` is the forcing spectrum the solve used.  The residual spectrum
    ``-chi * f_hat`` and the residual field are computed each time they are
    read.
    """

    u: Field
    parametrix: Parametrix
    f_hat: SpectralField

    @property
    def residual_spectrum(self) -> SpectralField:
        return SpectralField(self.u.grid, -self.parametrix.chi.values * self.f_hat.values)

    @property
    def residual(self) -> Field:
        return inverse(_Scratch(self.u.grid, self.residual_spectrum.values))

    def confinement(self) -> tuple[float, float, bool]:
        """``(f_hat_sup, residual_sup_outside, confined)`` beyond the cutoff support.

        ``residual_sup_outside`` is the largest residual coefficient at
        ``|lambda| > radius + 1`` (0 if the grid has none there), and the
        residual is confined when that is at most ``1e-12 * f_hat_sup``.
        The residual is formed a block of rows at a time, never at full size.
        """
        g = self.u.grid
        chi, f_hat = self.parametrix.chi.values, self.f_hat.values
        first, *others = g.axis_frequencies()
        step = max(1, _BLOCK_VALUES * g.m // math.prod(g.shape()))
        f_sups, r_sups = [], []
        for lo in range(0, g.m, step):
            rows = slice(lo, lo + step)
            outside = _radii([first[rows], *others]) > self.parametrix.radius + 1.0
            f_sups.append(np.max(np.abs(f_hat[rows])))
            r_sups.append(np.max(np.abs(-chi[rows] * f_hat[rows]), where=outside, initial=0.0))
        # np.max, not max(): a NaN sup must survive the reduction.
        f_hat_sup, residual_sup = float(np.max(f_sups)), float(np.max(r_sups))
        return f_hat_sup, residual_sup, residual_sup <= 1e-12 * f_hat_sup


def solve_elliptic(sym: FracSymbol, forcing: Field, radius: float | None = None) -> SolveResult:
    """Invert an elliptic operator above the cutoff scale.

    The returned ``u`` satisfies ``P(D) u = f + r`` with ``r`` supported on
    frequencies below ``radius + 1``; ``r = -IFT(chi * f_hat)`` exactly.
    """
    par = build_parametrix(sym, forcing.grid, radius)
    f_hat = transform(forcing)
    u = inverse(_Scratch(forcing.grid, par.e_hat.values * f_hat.values))
    return SolveResult(u, par, f_hat)


# -- field files -----------------------------------------------------------------


def save_field(field: Field, path: str | Path) -> None:
    """One-line JSON header, then raw little-endian complex128 in C order."""
    header = {
        "format": _FILE_MAGIC,
        "dim": field.grid.dim,
        "m": field.grid.m,
        "length": field.grid.length,
        "dtype": "<c16",
    }
    values = np.ascontiguousarray(field.values, dtype="<c16")
    atomic_write_bytes(path, json.dumps(header).encode("utf-8") + b"\n", memoryview(values))


def load_field(path: str | Path) -> Field:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline().decode("utf-8"))
        if header.get("format") != _FILE_MAGIC:
            raise ValueError(f"{path}: not a field file")
        grid = BoxGrid(int(header["dim"]), int(header["m"]), float(header["length"]))
        nbytes = 16 * math.prod(grid.shape())
        # Checked before allocating: a header alone must not size the array.
        if os.fstat(handle.fileno()).st_size - handle.tell() != nbytes:
            raise ValueError(f"{path}: payload does not hold {nbytes} bytes of field values")
        values = np.empty(grid.shape(), dtype="<c16")
        if handle.readinto(memoryview(values).cast("B")) != nbytes:
            raise ValueError(f"{path}: payload ended early")
    return Field(grid, values)


def export_slice(field: Field, path: str | Path, index: tuple[int, ...] | None = None) -> None:
    """CSV of the values along the first axis, other indices held fixed.

    ``index`` picks the fixed coordinates (defaults to the box center).
    """
    g = field.grid
    if index is None:
        index = (g.m // 2,) * (g.dim - 1)
    if len(index) != g.dim - 1:
        raise DimensionMismatch(f"need {g.dim - 1} fixed indices for a {g.dim}-d field")
    line = field.values[(slice(None), *index)]
    rows = ["x,re,im"]
    for x, v in zip(field.grid.axis(), line):
        rows.append(f"{x:.12g},{v.real:.12g},{v.imag:.12g}")
    atomic_write_text(path, "\n".join(rows) + "\n")
