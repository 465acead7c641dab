"""Sobolev norms and spectral-decay estimation of the regularity exponent.

The discrete ``H^s`` norm weights the box spectrum by ``(1+|lambda|^2)^s``.
For a field whose shell-averaged energy follows a power law ``E(r) ~ r^-p``
that norm is finite exactly when ``s < (p - n)/2``, so the maximal exponent
can be read off a log-log fit of the shell spectrum.  The estimator always
applies a smooth interior window first: regularity is a local notion, and
the window suppresses wrap-around of slowly decaying tails.

Fields smooth enough to push their shell energies to the floating-point
floor before the top shell have no finite exponent to report; they come
back ``capped`` with an infinite ``s_star``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TooFewBands, UnreliableFitWarning
from .fileio import atomic_write_text
from .functions import bump
from .spectral import BoxGrid, Field, SpectralField, sample_separable, transform

__all__ = [
    "ShellSpectrum",
    "RegularityEstimate",
    "sobolev_norm",
    "shell_spectrum",
    "windowed_shells",
    "band_floor",
    "fit_regularity",
    "estimate_regularity",
    "export_shell_csv",
]

# Band energies at or below this fraction of the peak band are treated as
# numerically dead; they mark super-polynomial decay, not a power law.
_FLOOR_RATIO = 1e-28

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
    """
    spec = _spectrum_of(u)
    g = spec.grid
    rho2 = g.frequency_radii() ** 2
    cell = (2.0 * math.pi / g.length) ** g.dim
    total = float(np.sum((1.0 + rho2) ** s * np.abs(spec.values) ** 2)) * cell
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
        """Dead-band energy threshold implied by the peak shell."""
        return _FLOOR_RATIO * float(self.energy.max())


def shell_spectrum(u, bands_per_octave: int = 3) -> ShellSpectrum:
    """Band-averaged energy spectrum between the 4th bin and 3/4 Nyquist.

    The first three frequency bins reflect box truncation and the top
    quarter of the band reflects aliasing; both are excluded.
    """
    if bands_per_octave < 1:
        raise ValueError("bands_per_octave must be at least 1")
    spec = _spectrum_of(u)
    g = spec.grid
    lo = 4.0 * (2.0 * math.pi / g.length)
    hi = 0.75 * g.nyquist
    if hi <= lo:
        raise TooFewBands("grid resolves no frequencies between the DC guard and 3/4 Nyquist")
    n_bands = max(int(round(bands_per_octave * math.log2(hi / lo))), 1)
    edges = np.geomspace(lo, hi, n_bands + 1)
    rho = g.frequency_radii().ravel()
    which = np.digitize(rho, edges) - 1
    inside = (which >= 0) & (which < n_bands) & (rho < hi)
    counts = np.bincount(which[inside], minlength=n_bands)
    sums = np.bincount(which[inside], weights=np.abs(spec.values.ravel()[inside]) ** 2, minlength=n_bands)
    keep = counts > 0
    if keep.sum() < 4:
        raise TooFewBands(f"only {int(keep.sum())} populated shells on this grid")
    return ShellSpectrum(
        lo_edges=edges[:-1][keep],
        hi_edges=edges[1:][keep],
        energy=sums[keep] / counts[keep],
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


def _window_values(grid: BoxGrid) -> np.ndarray:
    w = bump(0.0, _WINDOW_RADIUS_FRAC * grid.length)
    return sample_separable(grid, w.value).values


def windowed_shells(u: Field, bands_per_octave: int = 3) -> ShellSpectrum:
    """Shell spectrum of the windowed field, exactly as the estimator fits it."""
    windowed = Field(u.grid, u.values * _window_values(u.grid))
    return shell_spectrum(windowed, bands_per_octave)


def band_floor(u: Field, bands_per_octave: int = 3) -> float:
    """Dead-band energy threshold implied by a field's own peak shell.

    Pass the result as ``floor`` when estimating a field derived from this
    one: a solution computed from a forcing carries the forcing's rounding
    noise, not its own, so its dead bands must be judged on the forcing's
    scale.
    """
    return windowed_shells(u, bands_per_octave).floor()


def estimate_regularity(
    u: Field,
    bands_per_octave: int = 3,
    fit_octaves: float = 5.0,
    min_radius: float = 0.0,
    floor: float | None = None,
) -> RegularityEstimate:
    """Fit the spectral decay exponent of the windowed field.

    :func:`fit_regularity` on :func:`windowed_shells` of ``u``; see there
    for ``fit_octaves``, ``min_radius`` and ``floor``.
    """
    return fit_regularity(
        windowed_shells(u, bands_per_octave),
        u.grid.dim,
        fit_octaves=fit_octaves,
        min_radius=min_radius,
        floor=floor,
    )


def fit_regularity(
    shells: ShellSpectrum,
    dim: int,
    fit_octaves: float = 5.0,
    min_radius: float = 0.0,
    floor: float | None = None,
) -> RegularityEstimate:
    """Fit the decay exponent of a windowed shell spectrum of a ``dim``-d field.

    The fit runs over the top ``fit_octaves`` octaves of live shells, where
    the power law has shaken off its low-frequency shoulder.  ``min_radius``
    lifts the usable range above, say, a parametrix cutoff whose plateau
    empties the low bands.  ``floor`` overrides the dead-band threshold
    (default: ``shells.floor()``); see :func:`band_floor`.  Estimates with
    a poor fit come back flagged (and warned about), not raised.
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
    fit_idx = live[centers[live] >= top / 2.0**fit_octaves]
    if fit_idx.size < 4:
        raise TooFewBands(f"only {fit_idx.size} shells in the top {fit_octaves:g} octaves")

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


def export_shell_csv(shells: ShellSpectrum, path: str | Path) -> None:
    """CSV rows of band edge, mean energy, and frequency count."""
    rows = ["band_edge,band_energy,count"]
    for lo, e, c in zip(shells.lo_edges, shells.energy, shells.counts):
        rows.append(f"{lo:.12g},{e:.12g},{int(c)}")
    atomic_write_text(path, "\n".join(rows) + "\n")
