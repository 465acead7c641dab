"""Sobolev norm calibration and the shell-spectrum regularity estimator."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracpde import NonConvergent, TooFewBands, UnreliableFitWarning, bump, gaussian, step
from fracpde.sobolev import (
    _WINDOW_RADIUS_FRAC,
    RegularityEstimate,
    estimate_regularity,
    fit_regularity,
    shell_spectrum,
    sobolev_norm,
    windowed_shells,
)
import fracpde.sobolev as sobolev
from fracpde.spectral import BoxGrid, Field, SpectralField, inverse, sample_field, sample_separable, transform

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

    @pytest.mark.parametrize("s", [-0.7, 0.0, 0.3, 1.5])
    @pytest.mark.parametrize("grid", [BoxGrid(1, 4096, 40.0), BoxGrid(2, 1024, 40.0), BoxGrid(3, 64, 20.0)])
    def test_blocked_terms_sum_to_the_whole_array_norm(self, grid, s):
        u = sample_separable(grid, step(-1.3, 1.1).value)
        spec = transform(u)
        rho2 = grid.frequency_radii() ** 2
        cell = (2.0 * math.pi / grid.length) ** grid.dim
        want = math.sqrt(float(np.sum((1.0 + rho2) ** s * np.abs(spec.values) ** 2)) * cell)
        assert sobolev_norm(u, s).hex() == want.hex()
        assert sobolev_norm(spec, s).hex() == want.hex()

    def test_peak_stays_within_one_and_three_quarter_fields(self):
        # A 16 MiB field: its spectrum and one real grid of terms, not the whole-array temporaries.
        g = BoxGrid(2, 1024, 40.0)
        u = sample_separable(g, step(-1.3, 1.1).value)
        tracemalloc.start()
        try:
            sobolev_norm(u, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * u.values.nbytes

    @pytest.mark.parametrize("fn, s", [(gaussian(0, 1), 400.0), (step(-1.0, 1.0), 1e6)])
    def test_overflowing_norm_raises(self, fn, s):
        with pytest.raises(NonConvergent, match="not finite"):
            sobolev_norm(sample_field(GRID, fn.value), s)


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

    def test_empty_bands_are_omitted(self, monkeypatch):
        # Coarse grid, fine banding: several shells trap no frequency.
        monkeypatch.setattr(sobolev, "_BANDS_PER_OCTAVE", 6)
        g = BoxGrid(1, 32, 4.0)
        u = sample_field(g, lambda x: np.exp(-8 * x**2))
        shells = shell_spectrum(u)
        assert np.all(shells.counts >= 1)
        assert len(shells) < 6 * math.log2((0.75 * g.nyquist) / (8 * math.pi / g.length)) + 1

    def test_too_few_bands(self):
        with pytest.raises(TooFewBands):
            shell_spectrum(sample_field(BoxGrid(1, 16, 10.0), gaussian(0, 0.6).value))

    @pytest.mark.parametrize("grid", [BoxGrid(1, 4096, 40.0), BoxGrid(2, 128, 40.0), BoxGrid(2, 1024, 40.0),
                                      BoxGrid(3, 128, 20.0)])
    def test_blocked_binning_matches_the_whole_grid_one(self, grid):
        u = sample_separable(grid, step(-1.3, 1.1).value)
        got = shell_spectrum(u)
        lo_edges, counts, energy = _whole_grid_shells(u)
        assert np.array_equal(got.lo_edges, lo_edges)
        assert np.array_equal(got.counts, counts)
        assert got.energy.tobytes() == energy.tobytes()

    @pytest.mark.filterwarnings("ignore::fracpde.EdgeLeakageWarning")
    @pytest.mark.parametrize("m", [16, 64, 128])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_binning_equals_the_whole_grid_one(self, dim, m):
        # Seeded complex values with negative parts, so the window leaves -0 beside its support.
        g = BoxGrid(dim, m, 20.0)
        rng = np.random.default_rng(100 * dim + m)
        u = Field(g, rng.standard_normal(g.shape()) - 1j * rng.standard_normal(g.shape()))
        windowed = Field(g, u.values * _old_window_values(g))
        spectrum = SpectralField(g, np.fft.ifftn(u.values) * 3.0)
        for got, want in [(lambda: windowed_shells(u), lambda: _whole_grid_shells(windowed)),
                          (lambda: shell_spectrum(u), lambda: _whole_grid_shells(u)),
                          (lambda: shell_spectrum(spectrum), lambda: _whole_grid_shells(spectrum))]:
            lo_edges, counts, energy = want()
            if counts.size < 4:
                with pytest.raises(TooFewBands):
                    got()
                continue
            shells = got()
            assert np.array_equal(shells.lo_edges, lo_edges)
            assert np.array_equal(shells.counts, counts)
            assert shells.energy.tobytes() == energy.tobytes()

    @pytest.mark.parametrize("grid", [BoxGrid(1, 4096, 40.0), BoxGrid(2, 256, 40.0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_field_raises(self, grid, bad):
        vals = sample_separable(grid, step(-1.0, 1.0).value).values.copy()
        vals[(grid.m // 2,) * grid.dim] = bad
        with pytest.raises(ValueError, match="non-finite"):
            estimate_regularity(Field(grid, vals))
        with pytest.raises(ValueError, match="non-finite"):
            shell_spectrum(Field(grid, vals))

    def test_values_outside_the_window_support_do_not_enter(self):
        g = BoxGrid(2, 256, 40.0)
        u = sample_separable(g, step(-1.0, 1.0).value)
        vals = u.values.copy()
        vals[3, 5] = np.nan  # the window is nonzero on indices 33..223 of each axis
        assert estimate_regularity(Field(g, vals)) == estimate_regularity(u)


def _whole_grid_shells(u):
    """Lower edges, counts and energies of the populated shells, binned over the whole grid at once."""
    g = u.grid
    lo, hi = 4.0 * (2.0 * math.pi / g.length), 0.75 * g.nyquist
    n_bands = max(int(round(sobolev._BANDS_PER_OCTAVE * math.log2(hi / lo))), 1)
    edges = np.geomspace(lo, hi, n_bands + 1)
    if isinstance(u, SpectralField):
        spec, scale = u.values, 1.0
    else:
        spec, scale = np.fft.ifftn(u.values), float(g.length**g.dim) ** 2
    rho = g.frequency_radii().ravel()
    which = np.digitize(rho, edges) - 1
    inside = (which >= 0) & (which < n_bands) & (rho < hi)
    counts = np.bincount(which[inside], minlength=n_bands)
    weights = np.abs(spec.ravel()[inside]) ** 2
    sums = np.bincount(which[inside], weights=weights, minlength=n_bands) * scale
    keep = counts > 0
    return edges[:-1][keep], counts[keep], sums[keep] / counts[keep]

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
            (sample_field(GRID, step(-1.0, 1.0).value), {"min_radius": 12.0}),
            (synthetic(GRID, 2.0), {}),
            (sample_field(GRID, gaussian(0, 1).value), {}),
            (sample_field(BoxGrid(2, 256, 40.0), lambda x, y: (np.abs(x) <= 1.0) * np.exp(-y * y)), {}),
        ],
    )
    def test_shell_level_fit_equals_field_fit(self, field, kwargs):
        want = estimate_regularity(field, **kwargs)
        assert fit_regularity(windowed_shells(field), field.grid.dim, **kwargs) == want

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
    @pytest.mark.parametrize("grid", [BoxGrid(1, 256, 40.0), BoxGrid(2, 128, 40.0), BoxGrid(3, 32, 20.0),
                                      BoxGrid(2, 1024, 40.0)])
    def test_separable_window_matches_meshgrid_product(self, grid, monkeypatch):
        # The window windowed_shells applies, axis by axis, to a field of ones.
        seen = []
        monkeypatch.setattr(sobolev, "shell_spectrum", lambda u: seen.append(u.values))
        windowed_shells(Field(grid, np.ones(grid.shape())))
        assert np.array_equal(seen[0], _old_window_values(grid))
