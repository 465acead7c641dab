"""Symbol algebra, branch conventions, ellipticity detection, and bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import OptimizeWarning, minimize

from fracpde import (
    DimensionMismatch,
    FracSymbol,
    NoRFound,
    NotElliptic,
    SymbolTerm,
    branch_power,
    check_ellipticity,
    estimate_bounds,
    order_and_gap,
    principal_symbol,
    require_elliptic,
    symbol_eval,
)
from fracpde.symbols import _angles, _nelder_mead, _point_modulus, _ratio_objective, _unit


def mono(dim, *alpha, c=1.0):
    return FracSymbol(dim, (SymbolTerm(c, tuple(alpha)),))


LAPLACE_1D = mono(1, 2.0)
FRAC_LAP_2D = FracSymbol(2, (SymbolTerm(1, (0.5, 0.0)), SymbolTerm(1, (0.0, 0.5))))
SADDLE_2D = FracSymbol(2, (SymbolTerm(1, (0.5, 0.0)), SymbolTerm(-1, (0.0, 0.5))))


class TestBranch:
    def test_positive_axis_is_real(self):
        assert branch_power(np.array([4.0]), 0.5)[0] == pytest.approx(2.0)

    def test_negative_axis_continues_through_upper_half_plane(self):
        got = branch_power(np.array([-1.0]), 0.5)[0]
        assert got == pytest.approx(1j, abs=1e-15)

    def test_negative_axis_integer_power_is_classical(self):
        got = branch_power(np.array([-2.0]), 2.0)[0]
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_zero_conventions(self):
        assert branch_power(np.array([0.0]), 0.0)[0] == 1.0
        assert branch_power(np.array([0.0]), 0.7)[0] == 0.0

    @given(lam=st.floats(min_value=0.01, max_value=100), a=st.floats(min_value=0, max_value=3))
    def test_modulus_is_power_of_modulus(self, lam, a):
        for sign in (1.0, -1.0):
            got = abs(branch_power(np.array([sign * lam]), a)[0])
            assert got == pytest.approx(lam**a, rel=1e-12)


class TestEval:
    def test_sum_of_terms(self):
        sym = FracSymbol(1, (SymbolTerm(2, (1.0,)), SymbolTerm(3, (0.0,))))
        assert symbol_eval(sym, np.array([[2.0]]))[0] == pytest.approx(7.0)

    def test_grid_shape_passthrough(self):
        lam = np.zeros((4, 5, 2))
        assert symbol_eval(FRAC_LAP_2D, lam).shape == (4, 5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            symbol_eval(LAPLACE_1D, np.zeros((3, 2)))

    def test_json_roundtrip(self):
        sym = FracSymbol(2, (SymbolTerm(1 + 2j, (1.5, 0.3)), SymbolTerm(-1, (0.6, 0.0))))
        back = FracSymbol.from_json(sym.to_json())
        assert back == sym

    def test_zero_terms_dropped(self):
        sym = FracSymbol(1, (SymbolTerm(1, (2.0,)), SymbolTerm(0, (1.0,))))
        assert len(sym.terms) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            FracSymbol(1, (SymbolTerm(0, (2.0,)),))


class TestOrderAndGap:
    def test_mixed_orders(self):
        sym = FracSymbol(2, (SymbolTerm(1, (1.5, 0.3)), SymbolTerm(1, (0.6, 0.0))))
        info = order_and_gap(sym)
        assert info.order == pytest.approx(1.8)
        assert info.gap == pytest.approx(1.2)
        assert not info.homogeneous

    def test_homogeneous(self):
        info = order_and_gap(FRAC_LAP_2D)
        assert info.order == pytest.approx(0.5)
        assert info.gap == pytest.approx(0.5)
        assert info.homogeneous

    def test_near_equal_degrees_merge(self):
        # Degrees differing only past the 12th digit count as one class.
        sym = FracSymbol(1, (SymbolTerm(1, (0.5,)), SymbolTerm(1, (0.5 + 1e-14,))))
        assert order_and_gap(sym).homogeneous

    def test_principal_part(self):
        sym = FracSymbol(2, (SymbolTerm(1, (1.5, 0.3)), SymbolTerm(1, (0.6, 0.0))))
        p = principal_symbol(sym)
        assert len(p.terms) == 1
        assert p.terms[0].alpha == (1.5, 0.3)


class TestEllipticity:
    def test_laplacian_elliptic(self):
        assert check_ellipticity(LAPLACE_1D).elliptic

    def test_fractional_laplacian_2d_elliptic(self):
        rep = check_ellipticity(FRAC_LAP_2D)
        assert rep.elliptic
        assert rep.min_modulus == pytest.approx(1.0, rel=1e-6)

    def test_saddle_has_diagonal_witness(self):
        rep = check_ellipticity(SADDLE_2D)
        assert not rep.elliptic
        assert rep.min_modulus <= rep.threshold
        w = np.asarray(rep.witness)
        assert np.allclose(np.abs(w), 1 / math.sqrt(2), atol=1e-6)
        assert w[0] * w[1] > 0

    def test_witness_is_a_unit_vector(self):
        rep = check_ellipticity(SADDLE_2D)
        assert np.linalg.norm(rep.witness) == pytest.approx(1.0, abs=1e-9)

    def test_require_elliptic_raises(self):
        with pytest.raises(NotElliptic):
            require_elliptic(SADDLE_2D)

    def test_first_order_1d_elliptic_despite_sign_change(self):
        # lambda flips sign on the two sphere points, but the branch rotates
        # the negative side into the complex plane instead of through zero.
        assert check_ellipticity(mono(1, 1.0)).elliptic

    def test_threshold_scales_with_coefficients(self):
        small = FracSymbol(2, tuple(SymbolTerm(1e-6 * t.coefficient, t.alpha) for t in SADDLE_2D.terms))
        rep = check_ellipticity(small)
        assert not rep.elliptic


class TestPointModulus:
    """The minimizers' one-point objective equals ``symbol_eval`` bit for bit."""

    def test_equals_symbol_eval_at_random_points(self):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(120):
            dim = int(rng.integers(1, 4))
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                alpha = tuple(float(rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.1, 2.5)]))
                              for _ in range(dim))
                c = complex(rng.normal(), rng.normal()) if rng.random() < 0.5 else rng.normal()
                terms.append(SymbolTerm(c, alpha))
            sym = FracSymbol(dim, tuple(terms))
            modulus = _point_modulus(sym)
            pts = rng.normal(size=(30, dim)) * 10 ** rng.uniform(-2, 3)
            pts[rng.random(pts.shape) < 0.2] = 0.0
            batch = np.abs(symbol_eval(sym, pts))
            for p, want in zip(pts, batch):
                got = modulus(p)
                assert got == float(np.abs(symbol_eval(sym, p[None, :]))[0])
                assert got == want
                checked += 1
        assert checked >= 3000


class TestBounds:
    def test_laplacian_constant_at_unit_radius(self):
        est = estimate_bounds(LAPLACE_1D)
        assert est.lower == pytest.approx(0.5, rel=5e-3)

    def test_first_order_constant(self):
        est = estimate_bounds(mono(1, 1.0))
        assert est.lower == pytest.approx(1 / math.sqrt(2), rel=5e-3)

    def test_low_order_term_fades(self):
        sym = FracSymbol(1, (SymbolTerm(1, (0.5,)), SymbolTerm(2, (0.0,))))
        est = estimate_bounds(sym)
        assert est.lower == pytest.approx(1.0, rel=0.05)

    def test_lower_never_exceeds_upper(self):
        est = estimate_bounds(FRAC_LAP_2D)
        assert est.lower < est.upper

    def test_fresh_samples_respect_bounds(self):
        sym = FracSymbol(1, (SymbolTerm(1, (1.2,)), SymbolTerm(0.5, (0.3,))))
        est = estimate_bounds(sym)
        info = order_and_gap(sym)
        rng = np.random.default_rng(7)
        lam = np.exp(rng.uniform(0, math.log(1e4), 500))[:, None] * np.where(rng.random(500) < 0.5, 1, -1)[:, None]
        ratio = np.abs(symbol_eval(sym, lam)) / (1 + np.abs(lam[:, 0]) ** 2) ** (info.order / 2)
        assert ratio.min() >= est.lower
        assert ratio.max() <= est.upper

    def test_radius_clears_full_symbol_zeros(self):
        # lambda^2 - 100 vanishes at |lambda| = 10, between scan shells;
        # the polished scan must push the radius past it.
        sym = FracSymbol(1, (SymbolTerm(1, (2.0,)), SymbolTerm(-100.0, (0.0,))))
        est = estimate_bounds(sym)
        assert est.radius > 10.0
        lam = np.linspace(est.radius, 50.0, 2001)[:, None]
        ratio = np.abs(symbol_eval(sym, lam)) / (1 + lam[:, 0] ** 2)
        assert ratio.min() >= est.lower

    def test_rejects_nonelliptic_before_scanning(self):
        with pytest.raises(NotElliptic):
            estimate_bounds(SADDLE_2D)

    def test_zero_at_scan_ceiling(self):
        # Zero exactly at the last scanned shell, |lambda| = 1e4: no suffix is clean.
        sym = FracSymbol(1, (SymbolTerm(1, (2.0,)), SymbolTerm(-1e8, (0.0,))))
        with pytest.raises(NoRFound):
            estimate_bounds(sym)


class TestProduct:
    @given(a=st.floats(min_value=0.1, max_value=2.0), b=st.floats(min_value=0.1, max_value=2.0))
    def test_homogeneity_scaling(self, a, b):
        # |sigma_P(t * lam)| = t^order * |sigma_P(lam)| for homogeneous symbols.
        sym = FracSymbol(2, (SymbolTerm(1, (a, 0.0)), SymbolTerm(1, (0.0, a))))
        lam = np.array([[1.3, -0.4]])
        scaled = symbol_eval(sym, b * lam)[0]
        assert abs(scaled) == pytest.approx(b**a * abs(symbol_eval(sym, lam)[0]), rel=1e-10)


def _random_symbol(rng, dim):
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        alpha = tuple(float(rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.1, 2.5)])) for _ in range(dim))
        c = complex(rng.normal(), rng.normal()) if rng.random() < 0.5 else rng.normal()
        terms.append(SymbolTerm(c, alpha))
    return FracSymbol(dim, tuple(terms))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestNelderMead:
    """``_nelder_mead`` returns what ``scipy.optimize.minimize`` returns, bit for bit."""

    @staticmethod
    def _scipy(fn, x0, xatol, fatol, maxiter, bounds=None):
        with warnings.catch_warnings():
            # x0 beyond a bound: scipy warns, then clips as _nelder_mead does.
            warnings.simplefilter("ignore", OptimizeWarning)
            return minimize(fn, np.asarray(x0, dtype=float), method="Nelder-Mead", bounds=bounds,
                            options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})

    def test_polish_objectives_match_scipy(self):
        rng = np.random.default_rng(31)
        placements = {"unbounded": 0, "inside": 0, "on": 0, "beyond": 0}
        for _ in range(240):
            dim = int(rng.integers(1, 4))
            sym = _random_symbol(rng, dim)
            d = rng.normal(size=dim)
            d /= np.linalg.norm(d)
            fn = _ratio_objective(sym, order_and_gap(sym).order, d)
            logr = float(rng.choice([0.0, rng.uniform(0.0, 5.0)]))
            x0 = [logr, *(_angles(d) if dim >= 2 else [])]
            placement = ["unbounded", "inside", "on", "beyond"][int(rng.integers(4))]
            placements[placement] += 1
            bounds = None
            if placement != "unbounded":
                hi = {"inside": logr + 1.0, "on": logr, "beyond": logr - 0.5 * rng.random()}[placement]
                bounds = [(min(hi, logr) - 3.0, hi)] + [(None, None)] * (len(x0) - 1)
            # Unbounded, log r may run off to where the symbol overflows.
            with np.errstate(over="ignore", invalid="ignore"):
                x, fun = _nelder_mead(fn, x0, xatol=1e-12, fatol=1e-16, maxiter=500, bounds=bounds)
                res = self._scipy(fn, x0, 1e-12, 1e-16, 500, bounds)
            assert _bits(x) == _bits(res.x)
            assert _bits(fun) == _bits(res.fun)
        assert min(placements.values()) >= 40

    def test_sphere_objectives_match_scipy(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            dim = int(rng.integers(2, 4))
            principal = principal_symbol(_random_symbol(rng, dim))
            modulus = _point_modulus(principal)

            def fn(ang, dim=dim, modulus=modulus):
                return modulus(_unit(ang, dim))

            x0 = rng.uniform(-3.0, 3.0, dim - 1)
            x0[rng.random(dim - 1) < 0.2] = 0.0
            x, fun = _nelder_mead(fn, x0, xatol=1e-12, fatol=1e-14, maxiter=400)
            res = self._scipy(fn, x0, 1e-12, 1e-14, 400)
            assert _bits(x) == _bits(res.x)
            assert _bits(fun) == _bits(res.fun)

    def test_stops_at_maxiter_like_scipy(self):
        def fn(p):
            return float((p[0] - 1.0) ** 2 + 10.0 * (p[1] - p[0] ** 2) ** 2)

        for maxiter in (1, 2, 7, 40):
            x, fun = _nelder_mead(fn, [-1.2, 1.0], xatol=1e-12, fatol=1e-16, maxiter=maxiter)
            res = self._scipy(fn, [-1.2, 1.0], 1e-12, 1e-16, maxiter)
            assert res.nit == maxiter
            assert _bits(x) == _bits(res.x)
            assert _bits(fun) == _bits(res.fun)

    def test_nan_vertex_is_reported_like_scipy(self):
        # fun is the minimum over the last simplex, so a NaN vertex makes it NaN.
        def fn(p):
            return math.nan if p[0] > 1.0 else float((p[0] - 2.0) ** 2 + p[1] ** 2)

        for maxiter in (2, 5, 50):
            x, fun = _nelder_mead(fn, [0.99, 0.5], xatol=1e-12, fatol=1e-16, maxiter=maxiter)
            res = self._scipy(fn, [0.99, 0.5], 1e-12, 1e-16, maxiter)
            assert _bits(x) == _bits(res.x)
            assert _bits(fun) == _bits(res.fun)
        assert math.isnan(self._scipy(fn, [0.99, 0.5], 1e-12, 1e-16, 2).fun)

    def test_upper_bound_below_lower_is_rejected(self):
        with pytest.raises(ValueError):
            _nelder_mead(lambda p: float(p[0] ** 2), [0.0], 1e-12, 1e-16, 10, bounds=[(1.0, 0.0)])


# sigma = |lambda|^2 - 3 lambda_4 vanishes at (0, 0, 0, 3).
SHIFTED_4D = FracSymbol(4, tuple(SymbolTerm(1, tuple(2.0 * (i == k) for i in range(4))) for k in range(4))
                        + (SymbolTerm(-3, (0.0, 0.0, 0.0, 1.0)),))


class TestFourAndMoreDimensions:
    def test_angles_invert_unit(self):
        rng = np.random.default_rng(33)
        for dim in (2, 3, 4, 5, 7):
            for _ in range(20):
                d = rng.normal(size=dim)
                d /= np.linalg.norm(d)
                assert np.allclose(_unit(_angles(d), dim), d, rtol=0, atol=1e-14)

    def test_ratio_objective_equals_symbol_eval(self):
        rng = np.random.default_rng(34)
        for dim in (4, 5):
            sym = _random_symbol(rng, dim)
            order = order_and_gap(sym).order
            fn = _ratio_objective(sym, order, np.eye(dim)[0])
            for _ in range(40):
                p = np.concatenate([[rng.uniform(-2, 4)], rng.uniform(-3, 3, dim - 1)])
                r = math.exp(p[0])
                lam = r * _unit(p[1:], dim)
                want = float(np.abs(symbol_eval(sym, lam[None, :]))[0]) / (1.0 + r * r) ** (order / 2.0)
                assert fn(p) == want

    def test_objective_reads_the_fourth_axis(self):
        fn = _ratio_objective(SHIFTED_4D, 2.0, np.eye(4)[3])
        # At lambda = (0, 0, 0, 1): |sigma| = |1 - 3| = 2, over (1 + 1)^1.
        assert fn([0.0, *_angles(np.eye(4)[3])]) == pytest.approx(1.0, abs=1e-15)
        # At lambda = (0, 0, 0, 3) sigma vanishes.
        assert fn([math.log(3.0), *_angles(np.eye(4)[3])]) < 1e-12

    def test_point_modulus_rejects_a_short_point(self):
        with pytest.raises(ValueError):
            _point_modulus(SHIFTED_4D)(np.ones(3))

    def test_bounds_radius_clears_the_zero(self):
        est = estimate_bounds(SHIFTED_4D)
        assert est.radius >= 3.0

    def test_sphere_polish_runs_in_4d(self):
        # Sigma_P = lambda_1 lambda_2 + lambda_3^2 + lambda_4^2 vanishes on the
        # unit sphere wherever lambda_1 lambda_2 = -(lambda_3^2 + lambda_4^2).
        # The 256 sampled directions miss that set by about 4e-3; only the
        # polish reaches it.
        sym = FracSymbol(4, (SymbolTerm(1, (1.0, 1.0, 0.0, 0.0)), SymbolTerm(1, (0.0, 0.0, 2.0, 0.0)),
                             SymbolTerm(1, (0.0, 0.0, 0.0, 2.0))))
        rep = check_ellipticity(sym)
        assert not rep.elliptic
        assert rep.min_modulus < 1e-9
