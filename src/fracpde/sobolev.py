"""Sobolev norms and spectral-decay estimation of the regularity exponent.

The discrete ``H^s`` norm weights the box spectrum by ``(1+|lambda|^2)^s``.
For a field whose shell-averaged energy follows a power law ``E(r) ~ r^-p``
that norm is finite exactly when ``s < (p - n)/2``, so the maximal exponent
can be read off a log-log fit of the shell spectrum.  The estimator always
applies a smooth interior window first: regularity is a local notion, and
the window suppresses wrap-around of slowly decaying tails.

The shell resolution is fixed: 3 bands per octave, and the fit runs over
the top 5 octaves of live shells.

Fields smooth enough to push their shell energies to the floating-point
floor before the top shell have no finite exponent to report; they come
back ``capped`` with an infinite ``s_star``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, TooFewBands, UnreliableFitWarning
from .functions import bump
from .spectral import BoxGrid, Field, SpectralField, _along, _by_rows, _ifftn, _radii, _warn_on_edges, transform

__all__ = [
    "ShellSpectrum",
    "RegularityEstimate",
    "sobolev_norm",
    "shell_spectrum",
    "windowed_shells",
    "fit_regularity",
    "estimate_regularity",
]

# Band energies at or below this fraction of the peak band are treated as
# numerically dead; they mark super-polynomial decay, not a power law.
_FLOOR_RATIO = 1e-28

# Dyadic shells split into this many geometric bands per octave.
_BANDS_PER_OCTAVE = 3

# The power-law fit reads the top this-many octaves of live shells, where
# the spectrum has shaken off its low-frequency shoulder.
_FIT_OCTAVES = 5.0

# The window must vanish at the box edges yet stay clear of the features
# near the center; 3/4 of the half-box does both on every fixture here.
_WINDOW_RADIUS_FRAC = 0.375


def _spectrum_of(u) -> SpectralField:
    if isinstance(u, SpectralField):
        return u
    return transform(u)


def sobolev_norm(u, s: float) -> float:
    """Discrete ``H^s`` norm: Riemann sum of ``(1+|lambda|^2)^s |u_hat|^2``.

    Accepts a :class:`Field` (transformed first) or a ready
    :class:`SpectralField`; the frequency cell volume is ``(2 pi / L)^n``.
    The terms are formed a block of rows at a time into one real grid, and
    summed by one ``np.sum`` of it.

    Raises
    ------
    NonConvergent
        If the sum is not finite in float64: a term overflowed, or the
        field holds a non-finite value.
    """
    g = u.grid
    first, *others = g.axis_frequencies()
    cell = (2.0 * math.pi / g.length) ** g.dim
    with np.errstate(over="ignore", invalid="ignore"):
        spec = _spectrum_of(u).values
        terms = np.empty(g.shape())

        def weigh_rows(rows):
            rho2 = _radii([first[rows], *others]) ** 2
            np.multiply((1.0 + rho2) ** s, np.abs(spec[rows]) ** 2, out=terms[rows])

        _by_rows(weigh_rows, g.shape())
        total = float(np.sum(terms)) * cell
    if not math.isfinite(total):
        raise NonConvergent(f"the H^{s:g} norm is not finite in float64")
    return math.sqrt(total)


@dataclass(frozen=True)
class ShellSpectrum:
    """Radial band means of ``|u_hat|^2`` on geometrically spaced shells.

    Bands that contain no grid frequency are omitted, so consecutive rows
    carry their own edge pair.
    """

    lo_edges: np.ndarray
    hi_edges: np.ndarray
    energy: np.ndarray
    counts: np.ndarray

    def centers(self) -> np.ndarray:
        return np.sqrt(self.lo_edges * self.hi_edges)

    def __len__(self) -> int:
        return len(self.energy)

    def floor(self) -> float:
        """Dead-band energy threshold implied by the peak shell.

        Pass a forcing's floor as ``floor`` to :func:`fit_regularity` when
        fitting a field derived from it: a solution computed from a forcing
        carries the forcing's rounding noise, not its own, so its dead bands
        must be judged on the forcing's scale.
        """
        return _FLOOR_RATIO * float(self.energy.max())


def shell_spectrum(u) -> ShellSpectrum:
    """Band-averaged energy spectrum between the 4th bin and 3/4 Nyquist.

    The first three frequency bins reflect box truncation and the top
    quarter of the band reflects aliasing; both are excluded.  Only the
    frequencies with every ``|lambda_i| < 3/4 Nyquist`` can enter a band,
    since ``|lambda| >= max |lambda_i|``: a :class:`Field` is transformed
    only as far as that box needs, and radii, band indices, counts and
    ``|u_hat|^2`` are formed on the box alone, a block of rows at a time.
    The band energies are summed by one ``np.bincount`` over the box in the
    grid's element order, so each band adds the terms a whole-grid binning
    adds, in the same order.

    Raises
    ------
    TooFewBands
        If fewer than four bands hold a grid frequency.
    ValueError
        If a band energy is not finite: the field holds non-finite values.
    """
    g = u.grid
    lo = 4.0 * (2.0 * math.pi / g.length)
    hi = 0.75 * g.nyquist
    if hi <= lo:
        raise TooFewBands("grid resolves no frequencies between the DC guard and 3/4 Nyquist")
    n_bands = max(int(round(_BANDS_PER_OCTAVE * math.log2(hi / lo))), 1)
    edges = np.geomspace(lo, hi, n_bands + 1)
    lam = g.frequencies()
    inside = np.abs(lam) < hi
    if isinstance(u, SpectralField):
        spec, scale = u.values, 1.0
    else:
        # |transform(u)|^2 is |ifftn(u)|^2 (L^n)^2: the phase factors have modulus 1.
        _warn_on_edges(u)
        spec, scale = _ifftn(u.values, inside), float(g.length**g.dim) ** 2
    idx = np.flatnonzero(inside)
    box_shape = (idx.size,) * g.dim
    first, *others = (_along(lam[idx], ax, g.dim) for ax in range(g.dim))
    # Values outside every band go to the extra bin n_bands, which is dropped.
    which = np.empty(box_shape, dtype=np.intp)
    power = np.empty(box_shape)

    def bin_rows(rows):
        rho = _radii([first[rows], *others])
        band = np.digitize(rho, edges) - 1
        band[(band < 0) | (band >= n_bands) | (rho >= hi)] = n_bands
        which[rows] = band
        np.square(np.abs(spec[np.ix_(idx[rows], *[idx] * (g.dim - 1))]), out=power[rows])
        return np.bincount(band.ravel(), minlength=n_bands + 1)

    # The pool is chosen by the grid's size, not the box's: the 95^3 box of a
    # 128^3 grid holds 857 375 values, below the threshold, and bins in about
    # 23 ms on one thread against 13-16 ms on the pool of two.
    counts = np.sum(_by_rows(bin_rows, box_shape, math.prod(g.shape())), axis=0)[:n_bands]
    sums = np.bincount(which.ravel(), weights=power.ravel(), minlength=n_bands + 1)[:n_bands] * scale
    keep = counts > 0
    if keep.sum() < 4:
        raise TooFewBands(f"only {int(keep.sum())} populated shells on this grid")
    energy = sums[keep] / counts[keep]
    if not np.isfinite(energy).all():
        raise ValueError("field holds non-finite values")
    return ShellSpectrum(
        lo_edges=edges[:-1][keep],
        hi_edges=edges[1:][keep],
        energy=energy,
        counts=counts[keep],
    )


@dataclass(frozen=True)
class RegularityEstimate:
    """Fitted decay exponent and the Sobolev threshold it implies.

    ``s_star = (p - dim)/2`` is the supremum of s with finite ``H^s`` norm
    under the power-law model.  A capped estimate means the spectrum died
    to the floating-point floor first; it is reliable by construction and
    carries infinite ``p`` and ``s_star``.
    """

    p: float
    s_star: float
    r_squared: float
    capped: bool
    bands_used: tuple[int, int]
    dim: int

    @property
    def n_bands(self) -> int:
        return self.bands_used[1] - self.bands_used[0] + 1

    @property
    def reliable(self) -> bool:
        return self.capped or (self.r_squared >= 0.9 and self.n_bands >= 4)

    def to_dict(self) -> dict:
        return {
            "p": None if math.isinf(self.p) else self.p,
            "s_star": None if math.isinf(self.s_star) else self.s_star,
            "r_squared": self.r_squared,
            "capped": self.capped,
            "reliable": self.reliable,
            "bands_used": list(self.bands_used),
            "dim": self.dim,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _window_axis(grid: BoxGrid) -> np.ndarray:
    """The real 1-D window on the grid axis; the full window is its product over the axes."""
    w = bump(0.0, _WINDOW_RADIUS_FRAC * grid.length)
    return np.asarray(w.value(grid.axis()), dtype=float)


def windowed_shells(u: Field) -> ShellSpectrum:
    """Shell spectrum of the windowed field, exactly as the estimator fits it.

    The window is the product of the real 1-D window over the axes; it is
    formed and applied a block of rows at a time, never at full size, and
    only on the box where it is nonzero.  Outside that box the windowed
    field is +0, whose lines the transform skips, and values of ``u`` there
    do not enter the spectrum.
    """
    g = u.grid
    w = _window_axis(g)
    nonzero = np.flatnonzero(w)
    support = (slice(nonzero[0], nonzero[-1] + 1),) * g.dim
    w = w[support[0]]
    vals = np.zeros(g.shape(), dtype=complex)
    box_in, box_out = u.values[support], vals[support]

    def window_rows(rows):
        win = _along(w, 0, g.dim)[rows]
        for ax in range(1, g.dim):
            win = win * _along(w, ax, g.dim)
        np.multiply(box_in[rows], win, out=box_out[rows])

    with np.errstate(invalid="ignore"):  # inf * (w + 0j) holds inf * 0; shell_spectrum reports it
        _by_rows(window_rows, box_out.shape)
    return shell_spectrum(Field(g, vals))


def estimate_regularity(u: Field, *, min_radius: float = 0.0) -> RegularityEstimate:
    """Fit the spectral decay exponent of the windowed field.

    :func:`fit_regularity` on :func:`windowed_shells` of ``u``, with the
    field's own dead-band floor; see there for ``min_radius``.  To judge a
    field on another field's floor, call :func:`fit_regularity` with
    ``floor`` directly.
    """
    return fit_regularity(windowed_shells(u), u.grid.dim, min_radius=min_radius)


def fit_regularity(
    shells: ShellSpectrum,
    dim: int,
    *,
    min_radius: float = 0.0,
    floor: float | None = None,
) -> RegularityEstimate:
    """Fit the decay exponent of a windowed shell spectrum of a ``dim``-d field.

    The fit runs over the top 5 octaves of live shells.  ``min_radius``
    lifts the usable range above, say, a parametrix cutoff whose plateau
    empties the low bands.  ``floor`` overrides the dead-band threshold
    (default: ``shells.floor()``); see :meth:`ShellSpectrum.floor`.
    Estimates with a poor fit come back flagged (and warned about), not
    raised.
    """
    centers = shells.centers()
    sel = np.flatnonzero(shells.lo_edges >= min_radius)
    if sel.size < 4:
        raise TooFewBands(f"only {sel.size} shells above min_radius = {min_radius:g}")

    dead = floor if floor is not None else shells.floor()
    floored = shells.energy[sel] <= dead
    if np.any(floored[:-1]):
        return RegularityEstimate(
            p=math.inf,
            s_star=math.inf,
            r_squared=1.0,
            capped=True,
            bands_used=(int(sel[0]), int(sel[-1])),
            dim=dim,
        )

    live = sel[~floored]
    top = centers[live[-1]]
    fit_idx = live[centers[live] >= top / 2.0**_FIT_OCTAVES]
    if fit_idx.size < 4:
        raise TooFewBands(f"only {fit_idx.size} shells in the top {_FIT_OCTAVES:g} octaves")

    x = np.log(centers[fit_idx])
    y = np.log(shells.energy[fit_idx])
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    p = -float(slope)
    est = RegularityEstimate(
        p=p,
        s_star=(p - dim) / 2.0,
        r_squared=r_squared,
        capped=False,
        bands_used=(int(fit_idx[0]), int(fit_idx[-1])),
        dim=dim,
    )
    if not est.reliable:
        warnings.warn(
            f"regularity fit explains r^2 = {r_squared:.3f} over {est.n_bands} bands",
            UnreliableFitWarning,
            stacklevel=2,
        )
    return est
