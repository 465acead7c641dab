"""Sobolev norm calibration and the shell-spectrum regularity estimator."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracpde import TooFewBands, UnreliableFitWarning, bump, gaussian, step
from fracpde.sobolev import (
    _WINDOW_RADIUS_FRAC,
    RegularityEstimate,
    _window_values,
    band_floor,
    estimate_regularity,
    export_shell_csv,
    fit_regularity,
    shell_spectrum,
    sobolev_norm,
    windowed_shells,
)
from fracpde.spectral import BoxGrid, Field, SpectralField, inverse, sample_field

GRID = BoxGrid(1, 4096, 40.0)


def synthetic(grid: BoxGrid, q: float) -> Field:
    """Field with spectrum |u_hat|^2 = (1+lambda^2)^{-q}; s_star = q - n/2."""
    lam = grid.frequencies()
    return inverse(SpectralField(grid, (1.0 + lam**2) ** (-q / 2.0)))


class TestNorm:
    def test_lorentzian_spectrum_closed_form(self):
        # integral of (1+lambda^2)^{-2} over the line is pi/2.
        g = BoxGrid(1, 2**14, 200.0)
        u = SpectralField(g, (1.0 + g.frequencies() ** 2) ** -1.0)
        assert sobolev_norm(u, 0.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-2)

    def test_zero_field(self):
        assert sobolev_norm(Field(GRID, np.zeros(GRID.m)), 1.5) == 0.0

    def test_parseval_at_s_zero(self):
        # s=0 matches the position-space L2 norm up to the (2 pi)^{n/2}
        # transform normalization.
        u = sample_field(GRID, gaussian(0, 1).value)
        space = math.sqrt(float(np.sum(np.abs(u.values) ** 2)) * GRID.dx)
        assert sobolev_norm(u, 0.0) == pytest.approx(math.sqrt(2 * math.pi) * space, abs=1e-10)

    @given(st.floats(-3, 3), st.floats(0, 2))
    def test_monotone_in_s(self, s, ds):
        u = SpectralField(BoxGrid(1, 64, 10.0), (1.0 + BoxGrid(1, 64, 10.0).frequencies() ** 2) ** -1.0)
        assert sobolev_norm(u, s) <= sobolev_norm(u, s + ds)


class TestShells:
    def test_step_slope_near_two(self):
        shells = shell_spectrum(sample_field(GRID, step(-1.0, 1.0).value))
        x, y = np.log(shells.centers()), np.log(shells.energy)
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.25)

    def test_white_noise_is_flat(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(GRID.m) * np.exp(-(GRID.axis() ** 2) / 18)
        shells = shell_spectrum(Field(GRID, vals))
        slope = np.polyfit(np.log(shells.centers()), np.log(shells.energy), 1)[0]
        assert abs(slope) < 0.3

    def test_gaussian_tail_hits_floor(self):
        shells = shell_spectrum(sample_field(GRID, gaussian(0, 1).value))
        assert shells.energy[-1] <= 1e-28 * shells.energy.max()

    def test_band_window_and_population(self):
        shells = shell_spectrum(sample_field(GRID, gaussian(0, 1).value))
        assert shells.lo_edges[0] >= 4 * 2 * math.pi / GRID.length - 1e-12
        assert shells.hi_edges[-1] <= 0.75 * GRID.nyquist + 1e-12
        assert np.all(shells.counts >= 1)
        assert np.all(shells.lo_edges < shells.hi_edges)

    def test_empty_bands_are_omitted(self):
        # Coarse grid, fine banding: several shells trap no frequency.
        g = BoxGrid(1, 32, 4.0)
        u = sample_field(g, lambda x: np.exp(-8 * x**2))
        shells = shell_spectrum(u, bands_per_octave=6)
        assert np.all(shells.counts >= 1)
        assert len(shells) < 6 * math.log2((0.75 * g.nyquist) / (8 * math.pi / g.length)) + 1

    def test_too_few_bands(self):
        with pytest.raises(TooFewBands):
            shell_spectrum(sample_field(BoxGrid(1, 16, 10.0), gaussian(0, 0.6).value))

    def test_banding_validation(self):
        with pytest.raises(ValueError):
            shell_spectrum(sample_field(GRID, gaussian(0, 1).value), bands_per_octave=0)

    def test_csv_export(self, tmp_path):
        shells = shell_spectrum(sample_field(GRID, step(-1.0, 1.0).value))
        out = tmp_path / "shells.csv"
        export_shell_csv(shells, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "band_edge,band_energy,count"
        assert len(lines) == len(shells) + 1
        edge, energy, count = lines[1].split(",")
        assert float(edge) == pytest.approx(shells.lo_edges[0])
        assert int(count) == shells.counts[0]


class TestEstimate:
    def test_step_half(self):
        est = estimate_regularity(sample_field(GRID, step(-1.0, 1.0).value))
        assert est.s_star == pytest.approx(0.5, abs=0.1)
        assert est.reliable and not est.capped

    def test_lorentzian_three_halves(self):
        est = estimate_regularity(synthetic(GRID, 2.0))
        assert est.s_star == pytest.approx(1.5, abs=0.1)

    def test_gaussian_capped(self):
        est = estimate_regularity(sample_field(GRID, gaussian(0, 1).value))
        assert est.capped
        assert math.isinf(est.s_star) and math.isinf(est.p)
        assert est.reliable

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_scaling_family(self, q):
        est = estimate_regularity(synthetic(GRID, q))
        assert est.s_star == pytest.approx(q - 0.5, abs=0.05)

    def test_translation_invariance(self):
        a = estimate_regularity(sample_field(GRID, step(-1.0, 1.0).value)).s_star
        b = estimate_regularity(sample_field(GRID, step(2.0, 4.0).value)).s_star
        assert abs(a - b) <= 0.02

    def test_min_radius_lifts_the_fit(self):
        u = sample_field(GRID, step(-1.0, 1.0).value)
        est = estimate_regularity(u, min_radius=12.0)
        assert est.s_star == pytest.approx(0.5, abs=0.1)
        with pytest.raises(TooFewBands):
            estimate_regularity(u, min_radius=200.0)

    def test_noise_flagged_unreliable(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(GRID.m)
        with pytest.warns(UnreliableFitWarning):
            est = estimate_regularity(Field(GRID, vals))
        assert not est.reliable

    def test_embedding_direction(self):
        # Norm energies stay bounded under grid refinement below s_star and
        # grow geometrically above it; energies (squared norms) carry the
        # full exponent, so the 1.1 / 1.3 fences apply to them.
        q, sigma = 1.5, 1.0
        for s, fence, side in ((sigma - 0.2, 1.1, "below"), (sigma + 0.2, 1.3, "above")):
            energies = []
            for m in (512, 1024, 2048):
                g = BoxGrid(1, m, 40.0)
                u = SpectralField(g, (1.0 + g.frequencies() ** 2) ** (-q / 2.0))
                energies.append(sobolev_norm(u, s) ** 2)
            ratios = [energies[1] / energies[0], energies[2] / energies[1]]
            if side == "below":
                assert max(ratios) <= fence
            else:
                assert min(ratios) >= fence

    def test_json_round_trip(self):
        est = estimate_regularity(sample_field(GRID, step(-1.0, 1.0).value))
        data = json.loads(est.to_json())
        assert data["s_star"] == pytest.approx(est.s_star)
        assert data["capped"] is False and data["reliable"] is True
        assert data["bands_used"] == list(est.bands_used)

    def test_capped_json_uses_null(self):
        est = estimate_regularity(sample_field(GRID, gaussian(0, 1).value))
        data = json.loads(est.to_json())
        assert data["p"] is None and data["s_star"] is None
        assert data["capped"] is True

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            (sample_field(GRID, step(-1.0, 1.0).value), {}),
            (sample_field(GRID, step(-1.0, 1.0).value), {"min_radius": 12.0, "fit_octaves": 3.0}),
            (synthetic(GRID, 2.0), {"floor": 1e-30}),
            (sample_field(GRID, gaussian(0, 1).value), {}),
            (sample_field(BoxGrid(2, 256, 40.0), lambda x, y: (np.abs(x) <= 1.0) * np.exp(-y * y)), {}),
        ],
    )
    def test_shell_level_fit_equals_field_fit(self, field, kwargs):
        shells = windowed_shells(field, 3)
        want = estimate_regularity(field, 3, **kwargs)
        assert fit_regularity(shells, field.grid.dim, **kwargs) == want
        assert shells.floor() == band_floor(field, 3)

    def test_band_count_property(self):
        est = RegularityEstimate(2.0, 0.5, 0.99, False, (3, 9), 1)
        assert est.n_bands == 7


def _old_window_values(grid: BoxGrid) -> np.ndarray:
    """The window as a running product over meshgrid coordinates."""
    w = bump(0.0, _WINDOW_RADIUS_FRAC * grid.length)
    if grid.dim == 1:
        return np.asarray(w.value(grid.axis()))
    axes = np.meshgrid(*([grid.axis()] * grid.dim), indexing="ij")
    out = np.ones(grid.shape(), dtype=complex)
    for ax in axes:
        out = out * w.value(ax)
    return out


class TestWindow:
    @pytest.mark.parametrize("grid", [BoxGrid(1, 256, 40.0), BoxGrid(2, 128, 40.0), BoxGrid(3, 32, 20.0)])
    def test_separable_window_matches_meshgrid_product(self, grid):
        assert np.array_equal(_window_values(grid), _old_window_values(grid))
