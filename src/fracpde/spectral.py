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
``-chi * f_hat`` and the residual field on demand.

``chi`` is real, and it is built only on the index box ``|lambda_i| <= R + 1``
that holds its support; ``E_hat = 1/P`` outside that box.  A solve holds
``u``, ``f_hat``, ``E_hat`` and a half-size real ``chi``, and every other
field-sized pass runs a block of rows at a time into an array it owns.  The
transforms run one axis at a time, last to first, as ``numpy.fft.ifftn`` and
``fftn`` do, with every line going through the same 1-D ``numpy.fft`` call;
the forward transform skips the lines of +0 that a compactly supported
forcing leaves, and the solution is transformed in the buffer of its own
spectrum.  On grids of at least ``_THREADED_VALUES`` values the blocks of a
pass, lines or rows, run on one worker thread per CPU the process may run
on.  Each value is computed by the same operations whichever thread runs
its block, so the results are those of single-threaded numpy bit for bit.

Symbols, radii and separable samples are built from 1-D axis factors: every
symbol term is ``c * prod(lambda_i^alpha_i)``, a separable function is
``prod(g(x_i))`` and radii depend only on ``sum(lambda_i^2)``, so no
``(m, ..., m, dim)`` coordinate array is formed on the solver path.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import math
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CutoffExceedsNyquist, DimensionMismatch, EdgeLeakageWarning, NoRFound
from .fileio import atomic_write_bytes
from .symbols import FracSymbol, branch_power, estimate_bounds, require_elliptic
# Unused here; perfbench's tracer rebinds ``spectral.symbol_eval``, and its test asserts that.
from .symbols import symbol_eval  # noqa: F401

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
]

_EDGE_TOL = 1e-8
# Grid values per block of rows in the row-blocked passes, and per block of
# lines in a transform pass.
_BLOCK_VALUES = 1 << 15
# Passes over at least this many grid values run their blocks on the worker
# pool; smaller ones, such as the 1-D and 2-D m=512 grids of the identity
# checks and the gain experiment, stay on the calling thread, where a pool
# would cost more than it saves.
_THREADED_VALUES = 1 << 20
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


def _as_grid_values(grid: BoxGrid, values, keep_real: bool = False) -> np.ndarray:
    if keep_real and isinstance(values, np.ndarray) and values.dtype == np.float64:
        vals = values
    else:
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
    """Coefficients on the frequency grid of a :class:`BoxGrid`.

    A float64 array stays real (the cutoff and its remainder multiplier are
    real); any other input is stored as complex.
    """

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_grid_values(self.grid, self.values, keep_real=True))


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
    The last factor is multiplied straight into the complex sample buffer,
    a block of rows at a time.
    """
    vals = np.asarray(fn(grid.axis()))
    if grid.dim == 1:
        return Field(grid, vals)
    out = _along(vals, 0, grid.dim)
    for ax in range(1, grid.dim - 1):
        out = out * _along(vals, ax, grid.dim)
    last = _along(vals, grid.dim - 1, grid.dim)
    return Field(grid, _product_by_rows(np.empty(grid.shape(), dtype=complex), out, last))


def _warn_on_edges(field: Field) -> None:
    # An edge peak of 0 (or NaN) cannot exceed any multiple of the peak, so
    # the full-field scan runs only when some edge value is nonzero.
    edge = field.edge_peak()
    if edge > 0 and edge > _EDGE_TOL * np.abs(field.values).max():
        warnings.warn(
            "field has not decayed at the box edges; line-convention results are unreliable",
            EdgeLeakageWarning,
            stacklevel=3,
        )


_pool = None  # (ThreadPoolExecutor, its thread count), made by _workers
_pool_lock = threading.Lock()


def _workers():
    """The worker pool and its size, one thread per CPU in the affinity mask; None on one CPU.

    The pool, and ``concurrent.futures`` with the ``logging`` it imports,
    are loaded on first use, so a process that never runs a large pass
    starts no thread and pays no import.  Where the platform keeps no
    affinity mask, the CPU count stands in for it.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            if cpus > 1:
                from concurrent.futures import ThreadPoolExecutor

                _pool = ThreadPoolExecutor(cpus, thread_name_prefix="fracpde"), cpus
    return _pool


def _forget_pool() -> None:
    # A forked child has none of its parent's threads: a pool it inherited
    # would take tasks and never run them.  It makes its own on first use.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # Windows has no fork()
    os.register_at_fork(after_in_child=_forget_pool)


def _by_rows(task, shape: tuple[int, ...], grid_values: int | None = None) -> list:
    """``[task(rows) for rows in blocks]`` over blocks of about ``_BLOCK_VALUES`` values: rows of axis 0.

    Each task writes only its own rows of preallocated outputs, keeps its
    temporaries within its block and calls numpy alone, so the blocks may
    run in any order.  A pass over at least ``_THREADED_VALUES`` values (or
    on a grid of ``grid_values`` at least that many, where given) runs them
    on the worker pool, in a copy of the caller's context so that
    ``np.errstate`` holds there too; results come back in block order once
    every block has run.
    """
    step = max(1, _BLOCK_VALUES * shape[0] // math.prod(shape))
    blocks = [slice(lo, lo + step) for lo in range(0, shape[0], step)]
    size = math.prod(shape) if grid_values is None else grid_values
    workers = _workers() if size >= _THREADED_VALUES else None
    if workers is None:
        return [task(rows) for rows in blocks]
    from concurrent.futures import wait

    pool, width = workers
    results = [None] * len(blocks)
    todo, todo_lock = iter(range(len(blocks))), threading.Lock()

    def drain():
        # Each thread takes the next block when it is free, so a thread on a
        # busy CPU takes fewer, and one submission per thread suffices.
        while True:
            with todo_lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = task(blocks[i])

    futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(width)]
    wait(futures)
    for done in futures:
        done.result()
    return results


def _product_by_rows(out: np.ndarray, *factors) -> np.ndarray:
    """``out = f0 * f1 * ...``, multiplied left to right a block of rows at a time.

    Each factor is a scalar or an array broadcasting against ``out``; those
    that span axis 0 are sliced with the block.  Per value the operations are
    those of the whole-array products, so the result is the same bit for bit.
    """

    def task(rows):
        first, second, *rest = (_rows_of(f, rows) for f in factors)
        blk = np.multiply(first, second, out=out[rows])
        for f in rest:
            blk *= f

    _by_rows(task, out.shape)
    return out


def _rows_of(factor, rows: slice):
    """The block ``rows`` of a factor that spans axis 0; a scalar or broadcast factor as it is."""
    return factor[rows] if np.ndim(factor) and np.shape(factor)[0] > 1 else factor


def _phases(grid: BoxGrid, unit: complex) -> list[np.ndarray]:
    """``exp(unit * lambda * x0)`` along each axis, shaped to broadcast."""
    phase = np.exp(unit * grid.frequencies() * grid.x0)
    return [_along(phase, ax, grid.dim) for ax in range(grid.dim)]


def _ifftn(values: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.ifftn(values)`` bit for bit, without transforming lines of +0.

    A line whose words are all +0 transforms to +0, so it is left as the +0
    the output starts with; a line holding a -0, a NaN or any other value is
    transformed.  Only the first pass scans the data.  A 1-D array is one
    line, transformed whatever it holds.  With ``keep``, only the output
    values whose every index is kept are computed; see :func:`_fft_lines`.
    """
    out = np.zeros(values.shape, dtype=complex)
    if values.ndim == 1:
        return _fft_lines(np.fft.ifft, values, out)
    live = np.empty(values.shape[:-1] + (1,), dtype=bool)
    re, im = values.real.view(np.int64), values.imag.view(np.int64)

    def scan(rows):
        words = np.bitwise_or.reduce(re[rows], axis=-1, keepdims=True)
        words |= np.bitwise_or.reduce(im[rows], axis=-1, keepdims=True)
        np.not_equal(words, 0, out=live[rows])

    _by_rows(scan, values.shape)
    return _fft_lines(np.fft.ifft, values, out, live, keep)


def _fft_lines(fft, src: np.ndarray, out: np.ndarray, live: np.ndarray | None = None,
               keep: np.ndarray | None = None) -> np.ndarray:
    """``fft`` along every axis from ``src`` into ``out``: ``np.fft.ifftn``/``fftn`` bit for bit.

    The axes run last to first, as in ``ifftn`` and ``fftn``, and every line
    goes through the same 1-D ``fft`` call, a block of lines at a time.
    ``live`` (size 1 along the last axis) marks the lines of the first pass
    to transform, and ``out`` must hold +0 on the others; a later line is
    transformed when it crosses a line transformed before.  Without ``live``
    every line is, and ``out`` may be ``src``.

    ``keep``, a mask over the indices of an axis (the same on every axis),
    limits the later passes to the lines whose transformed indices are all
    kept: those lines are selected by the runs of the mask, never gathered.
    Then ``out`` is exact only where every index is kept, and holds partial
    sums elsewhere.
    """
    if src.ndim == 1:
        return fft(src, out=out)
    runs = [slice(0, src.shape[0])] if keep is None else _runs(keep)
    for ax in reversed(range(src.ndim)):
        if live is not None:
            live = np.any(live, axis=ax, keepdims=True)
        _line_pass(fft, src, out, ax, live, runs)
        src = out
    return out


def _runs(mask: np.ndarray) -> list[slice]:
    """The maximal runs of True in a 1-D mask, as slices in index order."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return [slice(lo, hi) for lo, hi in zip(edges[::2].tolist(), edges[1::2].tolist())]


def _line_pass(fft, src: np.ndarray, out: np.ndarray, ax: int, live: np.ndarray | None,
               runs: list[slice]) -> None:
    """``fft`` along ``ax`` from ``src`` into ``out``, on the lines ``live`` marks (size 1 along ``ax``).

    Along each axis after ``ax``, transformed already, only the ``runs`` are read.
    """
    lines_in, lines_out = np.moveaxis(src, ax, -1), np.moveaxis(out, ax, -1)
    if live is not None:
        live = np.broadcast_to(np.moveaxis(live, ax, -1)[..., 0], lines_in.shape[:-1])
    whole = slice(0, src.shape[0])
    # Index tuples over the axes of lines_in but the last: whole spatial axes, runs of the transformed ones.
    picks = list(itertools.product(*[[whole]] * ax, *[runs] * (src.ndim - 1 - ax)))

    def task(rows):
        for first, *rest in picks:
            pick = (slice(max(rows.start, first.start), min(rows.stop, first.stop)), *rest)
            if pick[0].start >= pick[0].stop:
                continue
            if live is None or live[pick].all():
                fft(lines_in[pick], axis=-1, out=lines_out[pick])
            elif live[pick].any():
                hit = np.nonzero(live[pick])
                lines_out[pick][hit] = fft(lines_in[pick][hit], axis=-1)

    _by_rows(task, lines_in.shape)


def transform(field: Field) -> SpectralField:
    """Forward transform, calibrated to ``int u exp(i lambda x) dx``."""
    g = field.grid
    _warn_on_edges(field)
    spec = _ifftn(field.values)
    _product_by_rows(spec, spec, g.length**g.dim, *_phases(g, 1j))
    return SpectralField(g, spec)


def inverse(spectral: SpectralField, *factors: np.ndarray) -> Field:
    """Inverse transform of ``spectral`` times ``factors``; exact round trip with :func:`transform`.

    The values, each factor (an array over the frequency grid) and the
    inverse phase factors are multiplied left to right in one pass, into the
    buffer the transform then runs in and the returned field keeps.
    """
    g = spectral.grid
    vals = _product_by_rows(np.empty(g.shape(), dtype=complex), spectral.values, *factors, *_phases(g, -1j))
    _fft_lines(np.fft.fft, vals, vals)
    scale = g.length**g.dim
    _by_rows(lambda rows: np.divide(vals[rows], scale, out=vals[rows]), vals.shape)
    return Field(g, vals)


def _symbol_on_grid(sym: FracSymbol, grid: BoxGrid) -> np.ndarray:
    """``symbol_eval`` on the frequency grid, built from per-axis factors.

    Each term multiplies the axis powers onto its coefficient in axis order
    and operand order, as ``symbol_eval`` does, so the values agree bit for
    bit.
    """
    if sym.dim != grid.dim:
        raise DimensionMismatch(f"symbol dimension {sym.dim} on a {grid.dim}-d grid")
    lams = grid.axis_frequencies()
    terms = [(t.coefficient, [branch_power(lam, a) for lam, a in zip(lams, t.alpha) if a != 0])
             for t in sym.terms]
    out = np.zeros(grid.shape(), dtype=complex)

    def task(rows):
        for coefficient, powers in terms:
            piece = coefficient
            for power in powers:
                piece = _rows_of(power, rows) * piece
            out[rows] += piece

    _by_rows(task, out.shape)
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


def _cutoff_box(grid: BoxGrid, radius: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``np.ix_`` index of the frequencies with every ``|lambda_i| <= radius + 1``, and their radii.

    The box holds the cutoff's support, since ``|lambda_i|`` never exceeds
    ``|lambda|``; its radii equal those of :meth:`BoxGrid.frequency_radii`.
    """
    lam = grid.frequencies()
    keep = np.flatnonzero(np.abs(lam) <= radius + 1.0)
    return np.ix_(*[keep] * grid.dim), _radii([_along(lam[keep], ax, grid.dim) for ax in range(grid.dim)])


def build_cutoff(grid: BoxGrid, radius: float) -> SpectralField:
    """Smooth radial frequency cutoff: 1 inside ``radius``, 0 beyond ``radius + 1``.

    The values are real (float64); radii and the shoulder are computed only
    on :func:`_cutoff_box`, and the rest of the grid is 0.
    """
    if radius <= 0:
        raise ValueError("cutoff radius must be positive")
    if radius + 1.0 > grid.nyquist:
        raise CutoffExceedsNyquist(
            f"cutoff support reaches |lambda| = {radius + 1.0:g}, beyond the grid "
            f"Nyquist frequency {grid.nyquist:g}"
        )
    box, rho = _cutoff_box(grid, radius)
    on_box = np.zeros(rho.shape)
    on_box[rho <= radius] = 1.0
    ramp = (rho > radius) & (rho < radius + 1.0)
    on_box[ramp] = _shoulder(rho[ramp] - radius)
    chi = np.zeros(grid.shape())
    chi[box] = on_box
    return SpectralField(grid, chi)


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
    box, _ = _cutoff_box(grid, radius)
    e_vals = _symbol_on_grid(sym, grid)
    p_box, chi_box = e_vals[box], chi.values[box]
    # Outside the box chi = 0 and E_hat = (1 - 0)/P; on the box the cutoff
    # enters, and E_hat = 0 where chi = 1.
    e_box = np.zeros(p_box.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        _by_rows(lambda rows: np.divide(1.0 + 0j, e_vals[rows], out=e_vals[rows]), e_vals.shape)
        np.divide(1.0 - chi_box, p_box, out=e_box, where=chi_box < 1.0)
    e_vals[box] = e_box
    if not all(_by_rows(lambda rows: np.isfinite(e_vals[rows]).all(), e_vals.shape)):
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
        return inverse(SpectralField(self.u.grid, -self.parametrix.chi.values), self.f_hat.values)

    def confinement(self) -> tuple[float, float, bool]:
        """``(f_hat_sup, residual_sup_outside, confined)`` beyond the cutoff support.

        ``residual_sup_outside`` is the largest residual coefficient at
        ``|lambda| > radius + 1`` (0 if the grid has none there), and the
        residual is confined when that is at most ``1e-12 * f_hat_sup``.
        Outside :func:`_cutoff_box` ``chi = 0``, so a finite ``f_hat`` leaves
        a residual of ±0 there and only the box is scanned; a NaN or inf in
        ``f_hat`` sends the residual scan over the whole grid, a block of
        rows at a time.
        """
        g, radius = self.u.grid, self.parametrix.radius
        chi, f_hat = self.parametrix.chi.values, self.f_hat.values
        # np.max, not max(): a NaN sup must survive the reduction.
        f_hat_sup = float(np.max(_by_rows(lambda rows: np.max(np.abs(f_hat[rows])), g.shape())))
        if math.isfinite(f_hat_sup):
            box, rho = _cutoff_box(g, radius)
            residual_sup = float(np.max(np.abs(-chi[box] * f_hat[box]), where=rho > radius + 1.0, initial=0.0))
        else:
            first, *others = g.axis_frequencies()

            def outside_sup(rows):
                outside = _radii([first[rows], *others]) > radius + 1.0
                return np.max(np.abs(-chi[rows] * f_hat[rows]), where=outside, initial=0.0)

            with np.errstate(invalid="ignore"):  # 0 * inf is the NaN the triple reports
                residual_sup = float(np.max(_by_rows(outside_sup, g.shape())))
        return f_hat_sup, residual_sup, residual_sup <= 1e-12 * f_hat_sup


def solve_elliptic(sym: FracSymbol, forcing: Field, radius: float | None = None) -> SolveResult:
    """Invert an elliptic operator above the cutoff scale.

    The returned ``u`` satisfies ``P(D) u = f + r`` with ``r`` supported on
    frequencies below ``radius + 1``; ``r = -IFT(chi * f_hat)`` exactly.
    """
    g = forcing.grid
    par = build_parametrix(sym, g, radius)
    f_hat = transform(forcing)
    return SolveResult(inverse(par.e_hat, f_hat.values), par, f_hat)


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
