"""Box transform calibration, parametrix identities, and the elliptic solver."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracpde import (
    CutoffExceedsNyquist,
    DimensionMismatch,
    EdgeLeakageWarning,
    FracSymbol,
    NoRFound,
    NotElliptic,
    SymbolTerm,
    bump,
    gaussian,
    polynomial,
    run_regularity_experiment,
    step,
)
import fracpde.spectral as spectral
from fracpde.cli import _CSV_ROW, run_cli
from fracpde.spectral import (
    BoxGrid,
    Field,
    SolveResult,
    SpectralField,
    _FILE_MAGIC,
    _ifftn,
    apply_operator,
    build_cutoff,
    build_parametrix,
    convolve,
    inverse,
    load_field,
    _symbol_on_grid,
    sample_field,
    sample_separable,
    save_field,
    solve_elliptic,
    transform,
)
from fracpde.symbols import symbol_eval

LAPLACE = FracSymbol(1, (SymbolTerm(1.0, (2.0,)),))
FRAC_LAP_2D = FracSymbol(2, (SymbolTerm(1, (0.5, 0.0)), SymbolTerm(1, (0.0, 0.5))))
SADDLE_2D = FracSymbol(2, (SymbolTerm(1, (0.5, 0.0)), SymbolTerm(-1, (0.0, 0.5))))


@pytest.fixture
def grid():
    return BoxGrid(1, 512, 40.0)


@pytest.fixture
def gauss_field(grid):
    return sample_field(grid, gaussian(0, 1).value)


class TestGrid:
    def test_spacing(self, grid):
        assert grid.dx == pytest.approx(40.0 / 512)
        assert grid.axis()[0] == -20.0
        assert grid.nyquist == pytest.approx(math.pi * 512 / 40)

    @pytest.mark.parametrize("bad", [dict(dim=4, m=64, length=10.0), dict(dim=1, m=48, length=10.0),
                                     dict(dim=1, m=8, length=10.0), dict(dim=1, m=64, length=-1.0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            BoxGrid(**bad)

    def test_field_shape_checked(self, grid):
        with pytest.raises(DimensionMismatch):
            Field(grid, np.zeros(100))


class TestTransform:
    def test_gaussian_against_closed_form(self, grid, gauss_field):
        # The line transform of exp(-x^2/2) is sqrt(2 pi) exp(-lambda^2/2).
        spec = transform(gauss_field)
        lam = grid.frequencies()
        want = math.sqrt(2 * math.pi) * np.exp(-(lam**2) / 2)
        sel = np.abs(lam) <= 10
        assert np.max(np.abs(spec.values[sel] - want[sel])) < 1e-8

    def test_round_trip(self, grid, gauss_field):
        back = inverse(transform(gauss_field))
        assert np.max(np.abs(back.values - gauss_field.values)) < 1e-14

    def test_parseval(self, grid, gauss_field):
        spec = transform(gauss_field)
        norm_x = np.sum(np.abs(gauss_field.values) ** 2) * grid.dx
        norm_l = np.sum(np.abs(spec.values) ** 2) / grid.length
        assert norm_x == pytest.approx(norm_l, abs=1e-10)

    def test_duality_pairing(self, grid):
        # <u, v> in space equals the spectral pairing with the 1/(2 pi)
        # density; this is the transform's unitarity on the grid.
        u = sample_field(grid, gaussian(0, 1).value)
        v = sample_field(grid, lambda x: np.exp(-((x - 1) ** 2)))
        uh, vh = transform(u), transform(v)
        space = np.sum(u.values * np.conj(v.values)) * grid.dx
        freq = np.sum(uh.values * np.conj(vh.values)) / grid.length
        assert abs(space - freq) < 1e-11

    def test_edge_leakage_warns(self, grid):
        with pytest.warns(EdgeLeakageWarning):
            transform(Field(grid, np.ones(grid.m)))

    def test_decayed_field_does_not_warn(self, gauss_field):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transform(gauss_field)


class TestApply:
    def test_second_derivative_of_windowed_sine(self, grid):
        # lambda^2 acts as -d^2/dx^2 under this transform convention.
        k = 2.0
        xs = grid.axis()
        envelope = np.exp(-(xs**2) / 8)
        u = Field(grid, np.sin(k * xs) * envelope)
        upp = envelope * (
            np.sin(k * xs) * (-(k**2) + xs**2 / 16 - 0.25) - k * xs / 2 * np.cos(k * xs)
        )
        got = apply_operator(LAPLACE, u)
        interior = np.abs(xs) <= grid.length / 4
        assert np.max(np.abs(got.values[interior] + upp[interior])) < 1e-6

    def test_spectral_input_stays_spectral(self, gauss_field):
        spec = transform(gauss_field)
        out = apply_operator(LAPLACE, spec)
        assert isinstance(out, SpectralField)

    def test_composition_matches_product_symbol(self, gauss_field):
        a = FracSymbol(1, (SymbolTerm(1, (0.7,)),))
        b = FracSymbol(1, (SymbolTerm(1, (0.5,)),))
        spec = transform(gauss_field)
        two = apply_operator(a, apply_operator(b, spec))
        one = apply_operator(FracSymbol(1, (SymbolTerm(1, (1.2,)),)), spec)
        assert np.max(np.abs(two.values - one.values)) < 1e-9

    def test_dimension_guard(self, gauss_field):
        with pytest.raises(DimensionMismatch):
            apply_operator(FRAC_LAP_2D, gauss_field)


class TestConvolve:
    def test_gaussian_self_convolution(self, grid, gauss_field):
        # exp(-x^2/2) * exp(-x^2/2) = sqrt(pi) exp(-x^2/4).
        got = convolve(gauss_field, gauss_field)
        want = math.sqrt(math.pi) * np.exp(-grid.axis() ** 2 / 4)
        assert np.max(np.abs(got.values - want)) < 1e-8

    def test_grid_mismatch(self, gauss_field):
        other = sample_field(BoxGrid(1, 256, 40.0), gaussian(0, 1).value)
        with pytest.raises(DimensionMismatch):
            convolve(gauss_field, other)


class TestCutoff:
    def test_plateau_and_support(self, grid):
        chi = build_cutoff(grid, 4.0).values.real
        rho = np.abs(grid.frequencies())
        assert np.all(chi[rho <= 4.0] == 1.0)
        assert np.all(chi[rho >= 5.0] == 0.0)
        mid = (rho > 4.0) & (rho < 5.0)
        assert np.all((chi[mid] > 0) & (chi[mid] < 1))

    def test_monotone_on_the_ramp(self, grid):
        chi = build_cutoff(grid, 4.0).values.real
        rho = np.abs(grid.frequencies())
        order = np.argsort(rho)
        diffs = np.diff(chi[order])
        assert np.all(diffs <= 1e-15)

    def test_nyquist_guard(self):
        small = BoxGrid(1, 16, 40.0)  # nyquist ~ 1.26
        with pytest.raises(CutoffExceedsNyquist):
            build_cutoff(small, 1.0)


class TestParametrix:
    def test_identity_on_the_grid(self, grid):
        par = build_parametrix(LAPLACE, grid, 4.0)
        p_vals = symbol_eval(LAPLACE, grid.frequency_grid())
        ident = p_vals * par.e_hat.values + par.chi.values
        assert np.max(np.abs(ident - 1.0)) <= 1e-14

    def test_identity_2d(self):
        g = BoxGrid(2, 64, 20.0)
        par = build_parametrix(FRAC_LAP_2D, g, 3.0)
        p_vals = symbol_eval(FRAC_LAP_2D, g.frequency_grid())
        ident = p_vals * par.e_hat.values + par.chi.values
        assert np.max(np.abs(ident - 1.0)) <= 1e-13

    def test_rejects_nonelliptic(self):
        g = BoxGrid(2, 64, 20.0)
        with pytest.raises(NotElliptic):
            build_parametrix(SADDLE_2D, g, 3.0)

    def test_automatic_radius_clears_symbol_zeros(self, grid):
        # lambda^2 - 100 vanishes at |lambda| = 10; with no hint the bound
        # scan must pick a cutoff past that zero and keep the identity exact.
        shifted = FracSymbol(1, (SymbolTerm(1, (2.0,)), SymbolTerm(-100.0, (0.0,))))
        par = build_parametrix(shifted, grid)
        assert par.radius > 10.0
        p_vals = symbol_eval(shifted, grid.frequency_grid())
        ident = p_vals * par.e_hat.values + par.chi.values
        assert np.max(np.abs(ident - 1.0)) <= 1e-13

    def test_no_radius_below_scan_ceiling(self, grid):
        # Zero at the top of the bound scan: no viable cutoff exists.
        hopeless = FracSymbol(1, (SymbolTerm(1, (2.0,)), SymbolTerm(-1e8, (0.0,))))
        with pytest.raises(NoRFound):
            build_parametrix(hopeless, grid)

    def test_omega_far_field_is_small_and_gevrey(self):
        # The exp(-1/t) shoulder gives |omega(x)| ~ A exp(-c sqrt(x)); checked
        # here as a bounded far field plus the square-root decay law.
        g = BoxGrid(1, 1024, 80.0)
        par = build_parametrix(LAPLACE, g, 4.0)
        om = par.omega()
        xs = g.axis()
        far = np.abs(xs) >= g.length / 4
        assert np.max(np.abs(om.values[far])) < 1e-3
        sel = (xs >= 5.0) & (xs <= 35.0)
        mag = np.abs(om.values[sel])
        slope = np.polyfit(np.sqrt(xs[sel]), np.log(mag), 1)[0]
        assert slope <= -1.8

    def test_omega_matches_minus_chi(self, grid):
        par = build_parametrix(LAPLACE, grid, 4.0)
        with pytest.warns(EdgeLeakageWarning):  # omega's Gevrey tail is slow
            back = transform(par.omega())
        assert np.max(np.abs(back.values + par.chi.values)) < 1e-12


class TestSolve:
    def test_defect_identity(self, grid, gauss_field):
        res = solve_elliptic(LAPLACE, gauss_field, 4.0)
        with pytest.warns(EdgeLeakageWarning):  # u inherits omega's slow tail
            pu = apply_operator(LAPLACE, transform(res.u))
        f_hat = transform(gauss_field)
        assert np.max(np.abs(pu.values - f_hat.values - res.residual_spectrum.values)) < 1e-12

    def test_residual_spectrum_confined(self, grid, gauss_field):
        res = solve_elliptic(LAPLACE, gauss_field, 4.0)
        lam = np.abs(grid.frequencies())
        outside = lam > 5.0
        bound = 1e-12 * np.max(np.abs(transform(gauss_field).values))
        assert np.max(np.abs(res.residual_spectrum.values[outside])) <= bound

    def test_residual_is_omega_convolved_with_forcing(self, grid, gauss_field):
        res = solve_elliptic(LAPLACE, gauss_field, 4.0)
        om = res.parametrix.omega()
        with pytest.warns(EdgeLeakageWarning):  # omega's Gevrey tail is slow
            direct = convolve(om, gauss_field)
        assert np.max(np.abs(direct.values - res.residual.values)) < 1e-10

    def test_solves_the_ode_above_the_cutoff(self, grid):
        # Forcing concentrated at high frequency: the parametrix inverts
        # -u'' = f there, so u should reproduce f scaled by 1/k^2 at the
        # dominant mode k.
        k = 12.0
        xs = grid.axis()
        f = Field(grid, np.cos(k * xs) * np.exp(-(xs**2) / 4))
        res = solve_elliptic(LAPLACE, f, 4.0)
        upp = apply_operator(LAPLACE, res.u)
        interior = np.abs(xs) <= 5.0
        assert np.max(np.abs(upp.values[interior] - f.values[interior])) < 1e-8

    def test_two_dimensional_solve(self):
        g = BoxGrid(2, 64, 20.0)
        f = sample_field(g, lambda x, y: np.exp(-(x**2 + y**2) / 2))
        res = solve_elliptic(FRAC_LAP_2D, f, 3.0)
        assert np.all(np.isfinite(res.u.values))
        lamr = g.frequency_radii()
        bound = 1e-12 * np.max(np.abs(transform(f).values))
        assert np.max(np.abs(res.residual_spectrum.values[lamr > 4.0])) <= bound


class TestFieldFiles:
    def test_bit_exact_round_trip(self, tmp_path, gauss_field):
        path = tmp_path / "field.bin"
        save_field(gauss_field, path)
        back = load_field(path)
        assert back.grid == gauss_field.grid
        assert np.array_equal(back.values, gauss_field.values)

    def test_bytes_are_header_then_raw_values(self, tmp_path):
        g = BoxGrid(2, 64, 8.0)
        f = sample_field(g, lambda x, y: np.exp(-x * x) + 1j * y)
        path = tmp_path / "field.bin"
        save_field(f, path)
        header = {"format": _FILE_MAGIC, "dim": 2, "m": 64, "length": 8.0, "dtype": "<c16"}
        want = json.dumps(header).encode("utf-8") + b"\n" + f.values.astype("<c16").tobytes()
        assert path.read_bytes() == want
        back = load_field(path)
        assert back.grid == g and np.array_equal(back.values, f.values)

    def test_no_second_field_sized_buffer(self, tmp_path):
        g = BoxGrid(2, 256, 8.0)
        f = sample_field(g, lambda x, y: np.exp(-x * x - y * y))
        path = tmp_path / "field.bin"
        save_field(f, path)
        load_field(path)
        size = f.values.nbytes
        tracemalloc.start()
        try:
            save_field(f, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_field(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < size // 4
        assert size <= load_peak < size + size // 4
        assert np.array_equal(back.values, f.values)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_rejects_wrong_payload_length(self, tmp_path, gauss_field, cut):
        path = tmp_path / "field.bin"
        save_field(gauss_field, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + b"\0")
        with pytest.raises(ValueError):
            load_field(path)

    def test_header_too_big_for_payload_is_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "field.bin"
        header = {"format": _FILE_MAGIC, "dim": 3, "m": 2**16, "length": 1.0, "dtype": "<c16"}
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(64))
        with pytest.raises(ValueError, match="payload"):
            load_field(path)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b'{"format": "something-else"}\n1234')
        with pytest.raises(ValueError):
            load_field(path)

# Symbols covering a constant term, complex coefficients, zero components of
# alpha and terms of mixed degree, in each dimension.
AXIS_SYMBOLS = [
    FracSymbol(1, (SymbolTerm(1.0, (2.0,)), SymbolTerm(0.3 - 0.7j, (0.45,)), SymbolTerm(2.5, (0.0,)))),
    FracSymbol(2, (SymbolTerm(1.0, (0.5, 0.0)), SymbolTerm(1.0, (0.0, 0.5)))),
    FracSymbol(2, (SymbolTerm(1.0 + 0.5j, (1.5, 0.0)), SymbolTerm(-0.4 + 1.1j, (0.7, 0.35)),
                   SymbolTerm(0.25, (0.0, 0.0)), SymbolTerm(0.8 - 0.2j, (0.0, 1.2)))),
    FracSymbol(3, (SymbolTerm(1.0, (0.6, 0.0, 0.0)), SymbolTerm(0.9 + 0.3j, (0.0, 0.6, 0.0)),
                   SymbolTerm(1.1, (0.0, 0.0, 0.6)), SymbolTerm(-0.5 + 0.5j, (0.3, 0.2, 0.1)),
                   SymbolTerm(0.2j, (0.0, 0.0, 0.0)))),
]
# Small and large boxes per dimension: numpy may evaluate a large temporary
# product in place, so both regimes are pinned.
AXIS_GRIDS = {1: (BoxGrid(1, 64, 13.0), BoxGrid(1, 32768, 13.0)),
              2: (BoxGrid(2, 32, 13.0), BoxGrid(2, 256, 13.0)),
              3: (BoxGrid(3, 16, 13.0), BoxGrid(3, 64, 13.0))}
# Elliptic, with a complex coefficient and a lower-order cross term.
MIXED_2D = FracSymbol(2, (SymbolTerm(1.0 + 0.5j, (1.5, 0.0)), SymbolTerm(1.0, (0.0, 1.5)),
                          SymbolTerm(-0.4 + 1.1j, (0.7, 0.35)), SymbolTerm(0.25, (0.0, 0.0))))
AXIS_CASES = [(sym, g) for sym in AXIS_SYMBOLS for g in AXIS_GRIDS[sym.dim]]


def _old_frequency_radii(g):
    lam = g.frequency_grid()
    return np.sqrt(np.sum(lam * lam, axis=-1))


def _meshgrid_sample(g, fn):
    if g.dim == 1:
        return sample_field(g, fn)
    return sample_field(g, lambda *axes: np.prod([fn(ax) for ax in axes], axis=0))


class TestAxisFactors:
    """The per-axis constructions agree bit for bit with the full-grid ones."""

    @pytest.mark.parametrize("sym,g", AXIS_CASES)
    def test_symbol_matches_symbol_eval(self, sym, g):
        assert np.array_equal(_symbol_on_grid(sym, g), symbol_eval(sym, g.frequency_grid()))

    @pytest.mark.parametrize("g", [g for pair in AXIS_GRIDS.values() for g in pair])
    def test_frequency_radii(self, g):
        assert np.array_equal(g.frequency_radii(), _old_frequency_radii(g))

    @pytest.mark.parametrize("dim,m", [(1, 128), (2, 64), (3, 16)])
    @pytest.mark.parametrize("spec", [gaussian(0.3, 1.1), step(-1.0, 0.5), bump(0.2, 2.0),
                                      polynomial([0.5, 1j, -0.25])])
    def test_separable_sampler_matches_meshgrid_product(self, dim, m, spec):
        g = BoxGrid(dim, m, 10.0)
        assert np.array_equal(sample_separable(g, spec.value).values,
                              _meshgrid_sample(g, spec.value).values)

    def test_axis_frequencies_broadcast(self):
        g = BoxGrid(3, 16, 5.0)
        axes = g.axis_frequencies()
        assert [a.shape for a in axes] == [(16, 1, 1), (1, 16, 1), (1, 1, 16)]
        lam = g.frequency_grid()
        for i, a in enumerate(axes):
            assert np.array_equal(np.broadcast_to(a, g.shape()), lam[..., i])

    @pytest.mark.parametrize("dim,m", [(1, 256), (2, 64), (3, 16), (2, 1024)])
    def test_transform_pair_matches_full_products(self, dim, m):
        # The transforms scale and phase-shift in place; the values are those
        # of the out-of-place products.
        g = BoxGrid(dim, m, 16.0)
        f = _meshgrid_sample(g, gaussian(0.2, 1.0).value)
        phase = np.exp(1j * g.frequencies() * g.x0)
        want = np.fft.ifftn(f.values) * g.length**g.dim
        for ax in range(dim):
            want = want * phase.reshape([m if k == ax else 1 for k in range(dim)])
        spec = transform(f)
        assert np.array_equal(spec.values, want)
        back = spec.values
        for ax in range(dim):
            back = back * np.conj(phase).reshape([m if k == ax else 1 for k in range(dim)])
        assert np.array_equal(inverse(spec).values, np.fft.fftn(back) / g.length**g.dim)

    @pytest.mark.parametrize("sym,g,radius", [(LAPLACE, BoxGrid(1, 512, 40.0), 4.0),
                                              (MIXED_2D, BoxGrid(2, 64, 20.0), 3.0)])
    def test_parametrix_matches_masked_division(self, sym, g, radius):
        par = build_parametrix(sym, g, radius)
        chi = par.chi.values
        live = chi.real < 1.0
        want = np.zeros(g.shape(), dtype=complex)
        want[live] = (1.0 - chi[live]) / symbol_eval(sym, g.frequency_grid())[live]
        assert np.array_equal(par.e_hat.values, want)


def _old_confinement(res, forcing):
    radius = res.parametrix.radius
    outside = forcing.grid.frequency_radii() > radius + 1.0
    f_hat_sup = float(np.max(np.abs(transform(forcing).values)))
    residual_sup = (float(np.max(np.abs(res.residual_spectrum.values[outside])))
                    if outside.any() else 0.0)
    return f_hat_sup, residual_sup, residual_sup <= 1e-12 * f_hat_sup


class TestSolveResult:
    @pytest.fixture
    def solved(self):
        g = BoxGrid(2, 64, 20.0)
        f = sample_separable(g, step(-1.0, 1.0).value)
        return solve_elliptic(FRAC_LAP_2D, f, 3.0), f

    def test_keeps_the_forcing_spectrum(self, solved):
        res, f = solved
        assert np.array_equal(res.f_hat.values, transform(f).values)

    def test_residual_is_inverse_of_its_spectrum(self, solved):
        res, _ = solved
        assert np.array_equal(res.residual.values, inverse(res.residual_spectrum).values)

    def test_one_forward_and_one_inverse_transform(self, monkeypatch):
        import fracpde.spectral as spectral

        calls = {"transform": 0, "inverse": 0}
        for name in calls:
            def counted(*args, _fn=getattr(spectral, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(spectral, name, counted)
        g = BoxGrid(2, 32, 20.0)
        res = solve_elliptic(FRAC_LAP_2D, sample_separable(g, gaussian(0, 1).value), 3.0)
        res.confinement()
        assert calls == {"transform": 1, "inverse": 1}
        res.residual
        assert calls["inverse"] == 2

    def test_confinement_matches_inline_formulas(self, solved):
        res, f = solved
        got = res.confinement()
        assert got == _old_confinement(res, f)
        assert got[2] is True

    def test_confinement_with_nothing_outside(self):
        # In 1-D the fastest grid frequency is the Nyquist bound, so a cutoff
        # whose support reaches it leaves no coefficient outside.
        g = BoxGrid(1, 64, 2 * math.pi)
        f = sample_field(g, gaussian(0, 0.5).value)
        res = solve_elliptic(LAPLACE, f, g.nyquist - 1.0)
        assert not np.any(g.frequency_radii() > res.parametrix.radius + 1.0)
        assert res.confinement() == _old_confinement(res, f)
        assert res.confinement()[1] == 0.0


# sha256 of the field files these solves wrote before the solve path worked
# in place; the files must not change by a bit.
PINNED_FIELDS = [
    (MIXED_2D, BoxGrid(2, 64, 20.0), bump(0.25, 2.0), None,
     "baee62c9467174cc24ba536e1045203e2f50d47abe59bab84786253991551100"),
    (FracSymbol(3, (SymbolTerm(1.2, (0.65, 0.0, 0.0)), SymbolTerm(0.8, (0.0, 0.65, 0.0)),
                    SymbolTerm(1.5, (0.0, 0.0, 0.65)))),
     BoxGrid(3, 32, 20.0), step(-1.2, 1.7), 2.0,
     "37a306f298ee3cefa0ff309d34e620b1a5c968147375449a3db2d63a36eb1e15"),
]


class TestSolveInPlace:
    """The solve path does each step once, in buffers it owns."""

    @pytest.mark.parametrize("sym,g,spec,radius,digest", PINNED_FIELDS)
    def test_field_file_is_pinned(self, tmp_path, sym, g, spec, radius, digest):
        res = solve_elliptic(sym, sample_separable(g, spec.value), radius)
        path = tmp_path / "u.field"
        save_field(res.u, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("dim,m", [(1, 256), (2, 64), (3, 16)])
    def test_scratch_inverse_equals_the_copying_one(self, dim, m):
        g = BoxGrid(dim, m, 16.0)
        # The product solve_elliptic hands over as a factor, against the copy of it.
        spec = transform(sample_separable(g, gaussian(0.2, 1.0).value))
        weight = transform(sample_separable(g, step(-1.0, 1.5).value)).values
        got = inverse(spec, weight)
        assert _bits(got.values).tobytes() == _bits(inverse(SpectralField(g, spec.values * weight)).values).tobytes()

    def test_residual_spectrum_is_minus_chi_times_f_hat(self):
        g = BoxGrid(2, 64, 20.0)
        res = solve_elliptic(MIXED_2D, sample_separable(g, step(-1.0, 1.5).value), 3.0)
        want = -res.parametrix.chi.values * res.f_hat.values
        assert np.array_equal(res.residual_spectrum.values, want)

    @pytest.mark.parametrize("radius", [None, 3.0])
    def test_one_ellipticity_scan_per_solve(self, monkeypatch, radius):
        import fracpde.symbols as symbols

        calls = []
        scan = symbols.check_ellipticity
        monkeypatch.setattr(symbols, "check_ellipticity", lambda *a, **k: calls.append(1) or scan(*a, **k))
        g = BoxGrid(2, 32, 20.0)
        solve_elliptic(FRAC_LAP_2D, sample_separable(g, gaussian(0, 1).value), radius)
        assert len(calls) == 1

    @pytest.mark.parametrize("g", [BoxGrid(2, 512, 40.0), BoxGrid(3, 64, 20.0)])
    def test_confinement_over_several_blocks(self, g):
        f = sample_separable(g, step(-1.0, 1.0).value)
        sym = FRAC_LAP_2D if g.dim == 2 else PINNED_FIELDS[1][0]
        res = solve_elliptic(sym, f, 3.0)
        assert res.confinement() == _old_confinement(res, f)

    def test_confinement_keeps_a_nan(self):
        g = BoxGrid(2, 64, 20.0)
        f = sample_separable(g, gaussian(0, 1).value)
        f.values[3, 5] = np.nan
        f_hat_sup, residual_sup, confined = solve_elliptic(FRAC_LAP_2D, f, 3.0).confinement()
        assert math.isnan(f_hat_sup) and math.isnan(residual_sup) and not confined

    def test_peak_memory_of_solve_confinement_and_save(self, tmp_path):
        g = BoxGrid(2, 512, 40.0)
        sym = FracSymbol(2, (SymbolTerm(1.3, (1.45, 0.0)), SymbolTerm(0.7, (0.0, 1.45))))
        tracemalloc.start()
        try:
            f = sample_separable(g, step(-1.2, 1.7).value)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = solve_elliptic(sym, f, None)
            res.confinement()
            save_field(res.u, tmp_path / "u.field")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # u, f_hat, e_hat and chi stay; the inverse runs in the product's buffer.
        assert peak <= 5 * f.values.nbytes


def _bits(a):
    """The words of a complex or float array, so that == also compares signed zeros."""
    return np.ascontiguousarray(a).view(np.int64)


def _old_cutoff(grid, radius):
    """The cutoff as a full-grid formula over every radius."""
    rho = grid.frequency_radii()
    chi = np.zeros(grid.shape())
    chi[rho <= radius] = 1.0
    ramp = (rho > radius) & (rho < radius + 1.0)
    chi[ramp] = spectral._shoulder(rho[ramp] - radius)
    return chi


def _old_blocked_confinement(res):
    """The scan over every block of rows with a complex cutoff."""
    g = res.u.grid
    chi, f_hat = res.parametrix.chi.values.astype(complex), res.f_hat.values
    first, *others = g.axis_frequencies()
    step_rows = max(1, spectral._BLOCK_VALUES * g.m // math.prod(g.shape()))
    f_sups, r_sups = [], []
    with np.errstate(invalid="ignore"):
        for lo in range(0, g.m, step_rows):
            rows = slice(lo, lo + step_rows)
            outside = spectral._radii([first[rows], *others]) > res.parametrix.radius + 1.0
            f_sups.append(np.max(np.abs(f_hat[rows])))
            r_sups.append(np.max(np.abs(-chi[rows] * f_hat[rows]), where=outside, initial=0.0))
    f_hat_sup, residual_sup = float(np.max(f_sups)), float(np.max(r_sups))
    return f_hat_sup, residual_sup, residual_sup <= 1e-12 * f_hat_sup


def _zero_slab_cases(dim, m):
    """Inputs with zero slabs, -0 lines, a NaN line, and nothing but zeros, as (name, values), one at a time."""
    rng = np.random.default_rng(dim * m)
    shape = (m,) * dim
    dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    yield "dense", dense
    slab = np.zeros(shape, dtype=complex)
    slab[(slice(m // 4, m // 2),) * dim] = dense[(slice(m // 4, m // 2),) * dim]
    del dense
    yield "slab", slab
    neg = slab.copy()
    neg[:2] = complex(-0.0, -0.0)  # two whole slabs of -0 in both parts
    neg.imag[-1] = -0.0
    yield "neg_zero", neg
    del neg
    nan_line = slab.copy()
    nan_line[(0,) * (dim - 1)] = 0.0
    nan_line[(1,) * dim] = np.nan
    yield "nan_line", nan_line
    del nan_line
    yield "real_only", slab.real + 0j
    yield "all_zero", np.zeros(shape, dtype=complex)
    yield "all_neg_zero", np.full(shape, complex(-0.0, -0.0))


class TestWorkOnSupport:
    """Cutoff, parametrix, transform and confinement do field-sized work only where it counts."""

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 32), (3, 16), (2, 1024), (3, 128)])
    def test_pruned_transform_matches_ifftn_bit_for_bit(self, dim, m):
        for name, vals in _zero_slab_cases(dim, m):
            want = np.fft.ifftn(vals)
            assert np.array_equal(_bits(_ifftn(vals)), _bits(want)), name
            # A non-contiguous input goes through the same line scan.
            flipped = np.ascontiguousarray(vals.T).T
            assert np.array_equal(_bits(_ifftn(flipped)), _bits(np.fft.ifftn(flipped))), name

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 32), (3, 16), (2, 1024), (3, 128)])
    def test_kept_box_matches_ifftn_bit_for_bit(self, dim, m):
        # The indices below 3/8 of the sampling rate: two runs per axis in fft order.
        keep = np.abs(np.fft.fftfreq(m)) < 0.375
        box = np.ix_(*[np.flatnonzero(keep)] * dim)
        for name, vals in _zero_slab_cases(dim, m):
            want = np.fft.ifftn(vals)[box]
            assert np.array_equal(_bits(_ifftn(vals, keep)[box]), _bits(want)), name

    @pytest.mark.parametrize("dim,m", [(2, 256), (3, 64)])
    def test_windowed_shells_transform_only_support_and_box_lines(self, dim, m, monkeypatch):
        from fracpde import sobolev

        g = BoxGrid(dim, m, 40.0)
        rng = np.random.default_rng(dim * m)
        u = Field(g, rng.standard_normal(g.shape()) - 1j * rng.standard_normal(g.shape()))
        support = int(np.count_nonzero(sobolev._window_axis(g)))
        kept = int(np.count_nonzero(np.abs(g.frequencies()) < 0.75 * g.nyquist))
        passes, lines = [], {}
        line_pass, ifft = spectral._line_pass, np.fft.ifft

        def counted_pass(fft, src, out, ax, *rest):
            passes.append(ax)
            line_pass(fft, src, out, ax, *rest)

        def counted(a, *args, **kwargs):
            lines[passes[-1]] = lines.get(passes[-1], 0) + a.size // a.shape[-1]
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "_line_pass", counted_pass)
        monkeypatch.setattr(np.fft, "ifft", counted)
        sobolev.windowed_shells(u)
        monkeypatch.undo()
        # The last axis runs first, on the lines inside the window's support; each later
        # pass crosses the support on the axes before it and the box on those after it.
        assert passes == list(reversed(range(dim)))
        assert lines == {ax: support**ax * kept ** (dim - 1 - ax) for ax in range(dim)}

    @pytest.mark.parametrize("m", [2**k for k in range(4, 17)])
    def test_a_line_of_plus_zeros_transforms_to_plus_zeros(self, m):
        # The fact that lets the pruned transform skip such lines.
        assert not np.any(_bits(np.fft.ifft(np.zeros(m, dtype=complex))))

    def test_transform_skips_zero_lines(self, monkeypatch):
        g = BoxGrid(3, 32, 20.0)
        f = sample_separable(g, step(-1.0, 1.0).value)
        live = int(np.count_nonzero(step(-1.0, 1.0).value(g.axis())))
        lines, ifft = [], np.fft.ifft

        def counted(a, *args, **kwargs):
            lines.append(a.size // g.m)
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        got = transform(f)
        monkeypatch.undo()
        # Last axis: live^2 lines; middle axis: live * m; first axis: all m^2.
        assert sum(lines) == live * live + live * g.m + g.m * g.m
        want = np.fft.ifftn(f.values) * g.length**g.dim
        phase = np.exp(1j * g.frequencies() * g.x0)
        for ax in range(g.dim):
            want *= phase.reshape([g.m if k == ax else 1 for k in range(g.dim)])
        assert np.array_equal(got.values, want)

    @pytest.mark.parametrize("g,radius", [(BoxGrid(1, 512, 40.0), 4.0), (BoxGrid(2, 64, 20.0), 3.0),
                                          (BoxGrid(2, 64, 2 * math.pi), 3.0),  # R + 1 on a grid frequency
                                          (BoxGrid(3, 32, 20.0), 2.0), (BoxGrid(2, 64, 20.0), 8.0)])
    def test_cutoff_matches_full_grid_formula(self, g, radius):
        chi = build_cutoff(g, radius).values
        assert chi.dtype == np.float64
        assert np.array_equal(_bits(chi), _bits(_old_cutoff(g, radius)))

    def test_spectral_field_keeps_float64_real(self):
        g = BoxGrid(1, 16, 4.0)
        assert SpectralField(g, np.ones(16)).values.dtype == np.float64
        for other in (np.ones(16, dtype=np.float32), np.ones(16, dtype=int), [1.0] * 16,
                      np.ones(16, dtype=complex)):
            assert SpectralField(g, other).values.dtype == np.complex128
        assert Field(g, np.ones(16)).values.dtype == np.complex128

    @pytest.mark.parametrize("sym,g,radius", [(LAPLACE, BoxGrid(1, 512, 40.0), 4.0),  # P(0) = 0
                                              (FRAC_LAP_2D, BoxGrid(2, 64, 20.0), 3.0),  # P(0) = 0
                                              (MIXED_2D, BoxGrid(2, 64, 20.0), 3.0),
                                              (PINNED_FIELDS[1][0], BoxGrid(3, 32, 20.0), 2.0),
                                              (MIXED_2D, BoxGrid(2, 1024, 40.0), 3.0)])
    def test_parametrix_is_the_masked_division_bit_for_bit(self, sym, g, radius):
        par = build_parametrix(sym, g, radius)
        chi = par.chi.values
        want = np.zeros(g.shape(), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0 - chi, symbol_eval(sym, g.frequency_grid()), out=want, where=chi < 1.0)
        assert np.array_equal(_bits(par.e_hat.values), _bits(want))

    def test_omega_and_residual_spectra_equal_the_complex_cutoff_ones(self):
        g = BoxGrid(2, 64, 20.0)
        res = solve_elliptic(MIXED_2D, sample_separable(g, step(-1.0, 1.5).value), 3.0)
        chi = res.parametrix.chi.values.astype(complex)
        assert np.array_equal(res.parametrix.omega_hat.values, -chi)
        assert np.array_equal(res.residual_spectrum.values, -chi * res.f_hat.values)

    @pytest.mark.parametrize("g", [BoxGrid(2, 64, 20.0), BoxGrid(3, 32, 20.0), BoxGrid(1, 256, 40.0),
                                   BoxGrid(2, 1024, 40.0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_confinement_matches_the_blocked_scan(self, g, bad):
        sym = {1: LAPLACE, 2: FRAC_LAP_2D, 3: PINNED_FIELDS[1][0]}[g.dim]
        res = solve_elliptic(sym, sample_separable(g, gaussian(0.1, 1.0).value), 2.0)
        assert res.confinement() == _old_blocked_confinement(res)
        # (0,...) is inside R + 1, (m/2,...) at the Nyquist corner outside it.
        for where in [(0,) * g.dim, (1,) * g.dim, (g.m // 2,) * g.dim]:
            f_hat = res.f_hat.values.copy()
            f_hat[where] = bad
            spoiled = SolveResult(res.u, res.parametrix, SpectralField(g, f_hat))
            got, want = spoiled.confinement(), _old_blocked_confinement(spoiled)
            assert repr(got) == repr(want), where

    @pytest.mark.parametrize("dim,m,length", [(1, 1024, 40.0), (2, 128, 40.0), (3, 32, 20.0)])
    def test_shell_energies_match_the_phase_carrying_spectrum(self, dim, m, length):
        from fracpde.sobolev import shell_spectrum

        g = BoxGrid(dim, m, length)
        u = sample_separable(g, step(-1.3, 1.1).value)
        got, want = shell_spectrum(u), shell_spectrum(transform(u))
        assert np.array_equal(got.counts, want.counts)
        assert np.array_equal(got.lo_edges, want.lo_edges)
        assert np.allclose(got.energy, want.energy, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim,m", [(2, 64), (3, 16), (2, 1024)])
    def test_separable_samples_equal_the_float_product_cast(self, dim, m):
        # Signed factors with zeros, so the samples hold -0 as well as +0.
        def fn(x):
            return np.where(np.abs(x) < 2.0, np.exp(-x * x), 0.0) * np.sign(x + 0.1)

        g = BoxGrid(dim, m, 10.0)
        vals = fn(g.axis())
        want = vals.reshape([m] + [1] * (dim - 1))
        for ax in range(1, dim):
            want = want * vals.reshape([m if k == ax else 1 for k in range(dim)])
        assert np.any(np.signbit(want[want == 0]))
        assert np.array_equal(_bits(sample_separable(g, fn).values), _bits(want.astype(complex)))


class TestThreadedPasses:
    """Passes over at least ``_THREADED_VALUES`` values run on the worker pool; smaller ones never ask for it."""

    def test_small_grids_stay_on_the_calling_thread(self, monkeypatch, tmp_path):
        def no_pool():
            raise AssertionError("worker pool requested")

        monkeypatch.setattr(spectral, "_workers", no_pool)
        assert run_regularity_experiment()
        assert run_cli(["--outdir", str(tmp_path), "verify", "--only", "parametrix_identity"]) == 0
        # A grid of _THREADED_VALUES values does ask for it.
        assert math.prod(BoxGrid(2, 1024, 40.0).shape()) == spectral._THREADED_VALUES
        with pytest.raises(AssertionError, match="worker pool requested"):
            transform(sample_separable(BoxGrid(2, 1024, 40.0), gaussian(0.0, 1.0).value))

    def test_shell_binning_takes_the_pool_by_its_grid_size(self, monkeypatch):
        # The 95^3 box that a 128^3 grid bins holds 857 375 values, below _THREADED_VALUES;
        # its grid does not, so the binning asks for the pool and bins bit for bit as one thread does.
        from fracpde.sobolev import shell_spectrum

        spec = transform(sample_separable(BoxGrid(3, 128, 20.0), bump(0.1, 2.0).value))
        asked = []
        workers = spectral._workers
        monkeypatch.setattr(spectral, "_workers", lambda: asked.append(1) or workers())
        pooled = shell_spectrum(spec)
        assert asked
        monkeypatch.setattr(spectral, "_THREADED_VALUES", 1 << 62)
        alone = shell_spectrum(spec)
        for a, b in ((pooled.energy, alone.energy), (pooled.counts, alone.counts)):
            assert np.array_equal(_bits(a), _bits(b))

    def test_every_block_runs_once_on_more_threads_than_cpus(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(8)
        monkeypatch.setattr(spectral, "_workers", lambda: (pool, 8))
        shape = (1024, 1024)  # 32 blocks of 32 rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                hits = np.zeros(shape[0], dtype=int)

                def task(rows):
                    hits[rows] += 1
                    if rows.start == 0 and failing:
                        raise ValueError("block 0")
                    time.sleep(0.001)  # the other blocks are still running when block 0 fails
                    return rows.start

                failing = False
                assert spectral._by_rows(task, shape) == list(range(0, shape[0], 32))
                assert np.all(hits == 1)
                # A failing block surfaces its error only after every other block has run.
                failing, hits[:] = True, 0
                with pytest.raises(ValueError, match="block 0"):
                    spectral._by_rows(task, shape)
                assert np.all(hits == 1)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    def test_forked_child_runs_its_own_pool(self):
        vals = np.random.default_rng(3).standard_normal((1024, 1024)) + 0j
        want = np.fft.ifftn(vals)
        assert np.array_equal(_bits(_ifftn(vals)), _bits(want))
        assert (spectral._pool is not None) == (len(os.sched_getaffinity(0)) > 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork() with threads running
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(_bits(_ifftn(vals)), _bits(want)) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on its transform")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_a_one_cpu_process_starts_no_thread(self):
        src = str(Path(spectral.__file__).resolve().parents[1])
        script = (
            "import os, threading\n"
            "import numpy as np\n"
            "import fracpde.spectral as spectral\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "vals = np.ones((1024, 1024), dtype=complex)\n"
            "assert np.array_equal(spectral._ifftn(vals), np.fft.ifftn(vals))\n"
            "print(threading.active_count(), spectral._pool)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "None"]


CSV_AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324,
               1234567890.125, 1234567890.375, 100000000000.5, 100000000001.5, 0.1 + 0.2,
               2.0 / 3.0, 123456789012.5, -987654321098.5]


class TestCsvRows:
    def test_percent_format_equals_the_f_string(self):
        for x in CSV_AWKWARD:
            for y in CSV_AWKWARD:
                assert _CSV_ROW % (x, y, -y) == f"{x:.12g},{y:.12g},{-y:.12g}"