"""Differintegral engines against closed forms and against each other.

Expected values are frozen from the classical power and exponential rules,

    D^nu y^p  (base 0)    = Gamma(p+1)/Gamma(p+1-nu) x^(p-nu),
    D^nu e^ay (base -inf) = a^nu e^(ax),

evaluated independently of the code under test.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracpde import (
    BranchCollision,
    CallableFn,
    DCUndefined,
    DifferintOrder,
    DomainOrder,
    EdgeLeakage,
    NonConvergent,
    NotAnalytic,
    NotSmoothEnough,
    PoleHitWarning,
    QuadratureConfig,
    SampledCurve,
    WrongSign,
    bump,
    caputo_derivative,
    closed_form_oracle,
    differint,
    exponential,
    fourier_differint,
    frac_binomial,
    gaussian,
    hankel_differintegral,
    polynomial,
    power,
    rl_derivative,
    rl_integral,
    step,
)
from fracpde import fracops

MINUS_INF = float("-inf")
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)  # 1.1283791670955126

FAST = QuadratureConfig(subintervals=512)


class TestFrozenValues:
    """Hand-checked values; each is the classical table entry."""

    def test_integral_of_identity_order_one(self):
        got = rl_integral(power(1), DifferintOrder(-1.0, 0.0), 1.0)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_integral_of_one_order_half(self):
        got = rl_integral(power(0), DifferintOrder(-0.5, 0.0), 1.0)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)

    def test_integral_of_exponential_from_minus_inf(self):
        got = rl_integral(exponential(1), DifferintOrder(-0.5, MINUS_INF), 0.0)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_derivative_of_identity_order_half(self):
        got = rl_derivative(power(1), DifferintOrder(0.5, 0.0), 1.0)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)

    def test_derivative_of_square_order_one(self):
        got = rl_derivative(power(2), DifferintOrder(1.0, 0.0), 3.0)
        assert got == pytest.approx(6.0, rel=1e-6)

    def test_derivative_of_one_order_half(self):
        got = rl_derivative(power(0), DifferintOrder(0.5, 0.0), 1.0)
        assert got == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)

    def test_caputo_kills_constants(self):
        got = caputo_derivative(power(0), DifferintOrder(0.5, 0.0), 1.0)
        assert got == 0.0

    def test_caputo_of_identity(self):
        got = caputo_derivative(power(1), DifferintOrder(0.5, 0.0), 1.0)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)

    def test_caputo_ignores_constant_offset(self):
        got = caputo_derivative(polynomial([1, 1]), DifferintOrder(0.5, 0.0), 1.0)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)


class TestOracle:
    def test_power_rule(self):
        got = closed_form_oracle(power(1), DifferintOrder(0.5, 0.0), 1.0)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-14)

    def test_exponential_rule_at_zero(self):
        got = closed_form_oracle(exponential(2), DifferintOrder(-1.0, MINUS_INF), 0.0)
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_gamma_pole_gives_exact_zero_with_warning(self):
        with pytest.warns(PoleHitWarning):
            got = closed_form_oracle(power(1), DifferintOrder(3.0, 0.0), 2.0)
        assert got == 0.0

    def test_power_rule_needs_base_zero(self):
        with pytest.raises(ValueError):
            closed_form_oracle(power(1), DifferintOrder(0.5, 1.0), 2.0)

    def test_no_closed_form_for_steps(self):
        with pytest.raises(ValueError):
            closed_form_oracle(step(), DifferintOrder(0.5, 0.0), 2.0)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.3, -0.3, 0.5, -0.5, 1.2, -1.2])
def test_power_family_against_oracle(p, nu):
    order = DifferintOrder(nu, 0.0)
    want = closed_form_oracle(power(p), order, 1.25)
    got = differint(power(p), order, 1.25)
    assert got == pytest.approx(want, rel=2e-6, abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.5, -0.5, 1.2])
def test_exponential_family_against_oracle(a, nu):
    order = DifferintOrder(nu, MINUS_INF)
    want = closed_form_oracle(exponential(a), order, 0.5)
    got = differint(exponential(a), order, 0.5)
    assert got == pytest.approx(want, rel=2e-6)


def test_batch_evaluation_matches_pointwise():
    xs = np.array([0.5, 1.0, 2.0])
    order = DifferintOrder(-0.5, 0.0)
    batch = rl_integral(power(1), order, xs, FAST)
    single = [rl_integral(power(1), order, float(x), FAST) for x in xs]
    assert np.allclose(batch, single, rtol=0, atol=1e-14)


def test_integral_vanishes_below_support():
    got = rl_integral(step(2, 3), DifferintOrder(-0.5, 0.0), np.array([1.0, 1.5]))
    assert np.all(got == 0)


def test_compact_support_seen_from_above():
    # For x above the support the integrand is smooth: compare to a direct
    # high-resolution Gauss-type reference computed with numpy.
    f = step(0.0, 1.0)
    x = 3.0
    nu = -0.5
    y = np.linspace(0.0, 1.0, 200001)
    ref = np.trapezoid((x - y) ** (-nu - 1), y) / math.gamma(-nu)
    got = rl_integral(f, DifferintOrder(nu, 0.0), x)
    assert got == pytest.approx(ref, rel=1e-8)


def test_derivative_above_support_continues_analytically():
    # D^nu of the indicator from base 0, evaluated above the support, equals
    # ((x-a)^-nu - (x-b)^-nu)/Gamma(1-nu).
    a, b, x, nu = 0.0, 1.0, 3.0, 0.5
    want = ((x - a) ** -nu - (x - b) ** -nu) / math.gamma(1 - nu)
    got = rl_derivative(step(a, b), DifferintOrder(nu, 0.0), x)
    assert got == pytest.approx(want, rel=1e-7)


def test_integer_order_above_support_is_zero():
    got = rl_derivative(step(0, 1), DifferintOrder(1.0, 0.0), 3.0)
    assert got == 0.0


def test_caputo_equals_rl_for_infinite_base():
    # The boundary terms that separate the two definitions carry factors
    # (x-c)^(-nu-k) and vanish as c -> -inf.
    g = gaussian(0, 1)
    order = DifferintOrder(0.7, MINUS_INF)
    rl = rl_derivative(g, order, 0.8)
    cap = caputo_derivative(g, order, 0.8)
    assert cap == pytest.approx(rl, abs=1e-8)


class TestDomainErrors:
    def test_integral_rejects_nonnegative_order(self):
        with pytest.raises(WrongSign):
            rl_integral(power(1), DifferintOrder(0.5, 0.0), 1.0)

    def test_derivative_rejects_negative_order(self):
        with pytest.raises(WrongSign):
            rl_derivative(power(1), DifferintOrder(-0.5, 0.0), 1.0)

    def test_point_below_base(self):
        with pytest.raises(DomainOrder):
            rl_integral(power(1), DifferintOrder(-0.5, 0.0), -1.0)

    def test_growth_does_not_converge_from_minus_inf(self):
        with pytest.raises(NonConvergent):
            rl_integral(power(2), DifferintOrder(-0.5, MINUS_INF), 1.0)

    def test_derivative_needs_smoothness_at_the_point(self):
        with pytest.raises(NotSmoothEnough):
            rl_derivative(step(-1, 1), DifferintOrder(0.5, -2.0), np.array([0.5, 1.5]))

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan, complex(0.5, math.inf)])
    def test_order_must_be_finite(self, nu):
        with pytest.raises(ValueError, match="order must be finite"):
            DifferintOrder(nu, 0.0)

    def test_base_point_must_not_be_plus_inf(self):
        with pytest.raises(ValueError):
            DifferintOrder(0.5, math.inf)

    def test_n_undefined_for_integrals(self):
        with pytest.raises(ValueError):
            DifferintOrder(-0.5, 0.0).n


@pytest.mark.parametrize("nu,n", [(0.3, 1), (1.0, 2), (1.2, 2), (2.7, 3)])
def test_outer_derivative_count(nu, n):
    assert DifferintOrder(nu, 0.0).n == n


class TestFracBinomial:
    def test_frozen(self):
        assert frac_binomial(0.5, 1) == pytest.approx(0.5)
        assert frac_binomial(0.5, 2) == pytest.approx(-0.125)
        assert frac_binomial(3, 5) == 0.0
        assert frac_binomial(2.5, 0) == 1.0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            frac_binomial(0.5, -1)

    @given(
        nu=st.floats(min_value=-4, max_value=4, allow_nan=False),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_pascal_recurrence(self, nu, n):
        lhs = frac_binomial(nu, n)
        rhs = frac_binomial(nu - 1, n - 1) + frac_binomial(nu - 1, n)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestFourier:
    def setup_method(self):
        self.m, self.L = 1024, 40.0
        self.dx = self.L / self.m
        self.x0 = -self.L / 2
        self.xs = self.x0 + self.dx * np.arange(self.m)

    def curve(self, f):
        return SampledCurve(self.x0, self.dx, f.value(self.xs))

    def test_order_zero_is_identity(self):
        u = self.curve(gaussian(0, 1))
        out = fourier_differint(u, 0.0)
        assert np.allclose(out.values, u.values, atol=1e-13)

    def test_order_one_is_the_derivative(self):
        g = gaussian(0, 1)
        out = fourier_differint(self.curve(g), 1.0)
        assert np.allclose(out.values, g.derivative_values(self.xs, 1), atol=1e-10)

    def test_half_order_matches_quadrature(self):
        g = gaussian(0, 1)
        out = fourier_differint(self.curve(g), 0.5)
        interior = np.abs(self.xs) <= self.L / 4
        ref = rl_derivative(g, DifferintOrder(0.5, MINUS_INF), self.xs[interior])
        assert np.max(np.abs(out.values[interior] - ref)) < 1e-4

    def test_multiplier_composition_is_exact(self):
        from fracpde.fracops import fourier_multiplier

        lam = 2 * np.pi * np.fft.fftfreq(self.m, d=self.dx)
        prod = fourier_multiplier(lam, 0.5) ** 2
        assert np.allclose(prod, fourier_multiplier(lam, 1.0), atol=1e-13)

    def test_composition_of_half_orders_in_the_interior(self):
        # The half-order output decays only algebraically downstream, so the
        # second pass is compared away from the box edges (and the decay
        # guard is waived for it).
        u = self.curve(gaussian(0, 1))
        twice = fourier_differint(fourier_differint(u, 0.5), 0.5, edge_tol=1.0)
        once = fourier_differint(u, 1.0)
        interior = np.abs(self.xs) <= self.L / 4
        assert np.max(np.abs(twice.values[interior] - once.values[interior])) < 1e-4

    def test_dc_guard(self):
        with pytest.raises(DCUndefined):
            fourier_differint(self.curve(gaussian(0, 1)), -0.5)

    def test_edge_leakage(self):
        bad = SampledCurve(self.x0, self.dx, np.ones(self.m))
        with pytest.raises(EdgeLeakage):
            fourier_differint(bad, 0.5)

    def test_grid_metadata_preserved(self):
        out = fourier_differint(self.curve(gaussian(0, 1)), 0.3)
        assert out.x0 == self.x0 and out.dx == self.dx and out.values.size == self.m


def _padded_round_trip(u, nu, pad_factor):
    """The multiplier engine as first written: pad, ifft, multiply, fft."""
    nu = complex(nu)
    m = u.values.size
    big = m * pad_factor
    padded = np.zeros(big, dtype=complex)
    padded[:m] = u.values
    spec = np.fft.ifft(padded)
    mult = _old_multiplier(2.0 * math.pi * np.fft.fftfreq(big, d=u.dx), nu)
    if nu != 0 and nu.real <= 0:
        mult[0] = 0.0
    return np.fft.fft(spec * mult)[:m]


def _old_multiplier(lam, nu):
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape, dtype=complex)
    nz = lam != 0
    a = np.abs(lam[nz])
    out[nz] = np.exp(nu * np.log(a)) * np.exp(-0.5j * math.pi * nu * np.sign(lam[nz]))
    if complex(nu) == 0:
        out[~nz] = 1.0
    return out


def _line_curve(m, fn, length=20.0):
    xs = -length / 2 + (length / m) * np.arange(m)
    return SampledCurve(float(xs[0]), length / m, fn(xs))


def _gauss(x):
    return np.exp(-x * x)


def _dipole(x):
    return np.exp(-((x - 1.0) ** 2)) - np.exp(-((x + 1.0) ** 2))


class TestFourierKernel:
    """The one-kernel-transform engine against the padded round trip."""

    @pytest.mark.parametrize("m", [64, 65])
    @pytest.mark.parametrize("pad", [1, 2, 3, 32])
    @pytest.mark.parametrize(
        "nu, fn",
        [(0.0, _gauss), (0.3, _gauss), (1.5, _gauss), (0.5 + 0.2j, _gauss), (-0.5, _dipole)],
    )
    def test_matches_padded_round_trip(self, m, pad, nu, fn):
        u = _line_curve(m, fn)
        want = _padded_round_trip(u, nu, pad)
        got = fourier_differint(u, nu, pad_factor=pad).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("nu", [-0.5, 0.3j])
    def test_dc_guard_on_nonzero_mean(self, nu):
        with pytest.raises(DCUndefined):
            fourier_differint(_line_curve(64, _gauss), nu)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 65])
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.5, -0.5, 0.5 + 0.2j, 0.3j])
    def test_multiplier_matches_old_formula(self, n, nu):
        lam = 2.0 * math.pi * np.fft.fftfreq(n, d=0.37)
        assert np.array_equal(fracops.fourier_multiplier(lam, nu), _old_multiplier(lam, nu))
        want = _old_multiplier(lam, complex(nu))
        assert np.array_equal(fracops._fftfreq_multiplier(n, 0.37, complex(nu)), want)
        zero = np.zeros(3)
        assert np.array_equal(fracops.fourier_multiplier(zero, nu), _old_multiplier(zero, nu))

    def test_peak_memory_is_a_few_padded_vectors(self):
        m, pad = 256, 256
        u = _line_curve(m, _gauss)
        fourier_differint(u, 1.5, pad_factor=pad)  # plan and import warm-up
        tracemalloc.start()
        try:
            fourier_differint(u, 1.5, pad_factor=pad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * m * pad * 16


class TestHankelLoop:
    def test_square_order_half(self):
        got = hankel_differintegral(power(2), DifferintOrder(0.5, 0.0), 1.0)
        want = 8.0 / (3.0 * math.sqrt(math.pi))  # Gamma(3)/Gamma(2.5)
        assert got == pytest.approx(want, rel=1e-6)

    def test_integer_order_reduces_to_plain_derivative(self):
        got = hankel_differintegral(power(1), DifferintOrder(2.0, 0.0), 5.0)
        assert abs(got) < 1e-6

    def test_matches_quadrature_on_exponential(self):
        f = exponential(1)
        order = DifferintOrder(0.5, -3.0)
        loop = hankel_differintegral(f, order, 1.0)
        quad = rl_derivative(f, order, 1.0)
        assert loop == pytest.approx(quad, rel=1e-6)

    def test_negative_order_agrees_with_integral(self):
        f = gaussian(0, 1)
        order = DifferintOrder(-0.5, -2.0)
        loop = hankel_differintegral(f, order, 1.0)
        quad = rl_integral(f, order, 1.0)
        assert loop == pytest.approx(quad, rel=1e-6)

    def test_rejects_radius_reaching_base(self):
        with pytest.raises(BranchCollision):
            hankel_differintegral(power(2), DifferintOrder(0.5, 0.0), 1.0, loop_radius=1.5)

    def test_rejects_nonanalytic_input(self):
        with pytest.raises(NotAnalytic):
            hankel_differintegral(step(-1, 1), DifferintOrder(0.5, -2.0), 0.5)

    def test_rejects_branch_point_inside(self):
        # sqrt has a branch point at 0 inside [c, x] when c < 0.
        with pytest.raises(NotAnalytic):
            hankel_differintegral(power(0.5), DifferintOrder(0.5, -1.0), 1.0)

    def test_rejects_negative_integer_order(self):
        with pytest.raises(ValueError):
            hankel_differintegral(power(2), DifferintOrder(-1.0, 0.0), 1.0)


@settings(max_examples=20, deadline=None)
@given(nu=st.floats(min_value=-0.9, max_value=-0.1), x=st.floats(min_value=0.5, max_value=3.0))
def test_integral_positive_on_positive_input(nu, x):
    # Monotonicity transfer: the kernel is positive, so a positive input has
    # a positive integral.
    got = rl_integral(power(1), DifferintOrder(nu, 0.0), x, FAST)
    assert got.real > 0
    assert abs(got.imag) < 1e-12


@settings(max_examples=15, deadline=None)
@given(nu=st.floats(min_value=-1.4, max_value=1.4), lam=st.floats(min_value=0.2, max_value=2.0))
def test_quadrature_is_linear(nu, lam):
    if abs(nu) < 1e-6:
        nu = 0.5
    order = DifferintOrder(nu, 0.0)
    f, g = power(1), power(2)
    combo = polynomial([0, lam, 1.0])  # lam*y + y^2
    lhs = differint(combo, order, 1.5, FAST)
    rhs = lam * differint(f, order, 1.5, FAST) + differint(g, order, 1.5, FAST)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# -- row blocks, real arithmetic, and the support split ---------------------------

GRID_4096 = -20.0 + (40.0 / 4096) * np.arange(4096)


# One case per node-matrix site, plus the stencil path of an input without
# closed-form derivatives.
WIDE, NEAR, HIGH = np.linspace(-4, 4, 97), np.linspace(-2.5, 3, 97), np.linspace(1.2, 4, 97)
BLOCK_SITES = {
    "integral-moving-base": (gaussian(0.3, 1.2), DifferintOrder(-0.7, MINUS_INF), WIDE),
    "integral-at-top": (gaussian(0.3, 1.2), DifferintOrder(-0.6, -3.0), NEAR),
    "integral-below": (bump(0.0, 1.0), DifferintOrder(-0.6, MINUS_INF), NEAR),
    "derivative-moving-base": (gaussian(0.3, 1.2), DifferintOrder(0.6, MINUS_INF), WIDE),
    "derivative-above-support": (bump(0.0, 1.0), DifferintOrder(0.45, MINUS_INF), HIGH),
    "derivative-moment": (gaussian(0.3, 1.2), DifferintOrder(1.3, -3.0), NEAR),
    "stencil": (CallableFn(lambda y: np.exp(-0.5 * y * y), truncation=12.0),
                DifferintOrder(0.6, MINUS_INF), WIDE),
}


class TestRowBlocks:
    @pytest.mark.parametrize("site", sorted(BLOCK_SITES))
    def test_block_size_does_not_change_results(self, site, monkeypatch):
        f, order, xs = BLOCK_SITES[site]
        whole = differint(f, order, xs, FAST)
        monkeypatch.setattr(fracops, "_BLOCK_BYTES", 3 * 16 * 513)  # three rows of the FAST mesh
        blocked = differint(f, order, xs, FAST)
        assert np.max(np.abs(blocked - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_blocks_bound_the_node_matrix(self):
        matrices = []

        def value(y):
            y = np.asarray(y)
            if y.ndim == 2:
                matrices.append(y.size)
            return np.exp(-0.5 * y * y)

        f = CallableFn(value, truncation=12.0)
        rl_integral(f, DifferintOrder(-0.5, MINUS_INF), GRID_4096)
        assert len(matrices) > 1
        assert 16 * max(matrices) <= fracops._BLOCK_BYTES

    def test_nonfinite_in_last_block_raises(self, monkeypatch):
        # Only points above 2.9 reach the bad values, and they come last.
        f = CallableFn(lambda y: np.where(y > 2.9, np.nan, np.exp(-y * y)), truncation=10.0)
        order = DifferintOrder(-0.5, MINUS_INF)
        monkeypatch.setattr(fracops, "_BLOCK_BYTES", 3 * 16 * 513)
        xs = np.linspace(-3.0, 3.0, 61)
        assert np.all(np.isfinite(rl_integral(f, order, xs[xs < 2.9], FAST)))
        with pytest.raises(NotSmoothEnough):
            rl_integral(f, order, xs, FAST)


class TestRealArithmetic:
    def test_real_order_gives_real_weights(self):
        tau, w = fracops._unit_weights(64, 2.0, 0.5 + 0j)
        assert w.dtype == np.float64
        assert fracops._node_weights(np.outer([1.0, 2.0], tau), 0.5).dtype == np.float64
        assert fracops._unit_weights(64, 2.0, 0.5 + 0.2j)[1].dtype == np.complex128

    def test_complex_input_keeps_its_imaginary_part(self):
        # D^nu of i*y from base 0 is i * Gamma(2)/Gamma(2-nu) * x^(1-nu).
        xs = np.array([0.5, 1.25, 2.0])
        for nu in (-0.5, 0.5):
            order = DifferintOrder(nu, 0.0)
            got = differint(polynomial([0, 1j]), order, xs)
            want = 1j * closed_form_oracle(power(1), order, xs)
            assert np.allclose(got, want, rtol=2e-6, atol=1e-12)
            assert np.min(np.abs(got.imag)) > 0.1

    def test_complex_order_keeps_the_complex_path(self):
        order = DifferintOrder(-0.5 + 0.3j, 0.0)
        got = rl_integral(power(1), order, np.array([0.5, 1.25]))
        want = closed_form_oracle(power(1), order, np.array([0.5, 1.25]))
        assert np.allclose(got, want, rtol=2e-6)
        assert np.min(np.abs(got.imag)) > 1e-3


class TestMixedSupport:
    @pytest.mark.parametrize("nu", [0.45, 1.1])
    def test_batch_equals_its_halves(self, nu):
        f, order = bump(0.2, 2.0), DifferintOrder(nu, MINUS_INF)
        whole = rl_derivative(f, order, GRID_4096)
        above = GRID_4096 > 2.2
        inside = rl_derivative(f, order, GRID_4096[~above])
        outside = rl_derivative(f, order, GRID_4096[above])
        peak = np.max(np.abs(whole))
        assert np.max(np.abs(whole[~above] - inside)) <= 1e-13 * peak
        assert np.max(np.abs(whole[above] - outside)) <= 1e-13 * peak

    @pytest.mark.parametrize("nu", [0.45, 1.1])
    def test_batch_matches_the_padded_multiplier(self, nu):
        f = bump(0.2, 2.0)
        got = rl_derivative(f, DifferintOrder(nu, MINUS_INF), GRID_4096)
        curve = SampledCurve(float(GRID_4096[0]), 40.0 / 4096, f.value(GRID_4096))
        want = fourier_differint(curve, nu, pad_factor=1024).values
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


class TestCaches:
    def test_weight_cache_is_bounded(self):
        for k in range(3 * fracops._CACHE_ENTRIES):
            fracops._unit_weights(64, 2.0, 0.1 + 0.01 * k)
        assert fracops._mesh_weights.cache_info().currsize == fracops._CACHE_ENTRIES

    def test_mesh_cache_is_bounded(self):
        for k in range(3 * fracops._CACHE_ENTRIES):
            fracops._graded_mesh(64 + 2 * k, 2.0)
        assert fracops._graded_mesh.cache_info().currsize == fracops._CACHE_ENTRIES

    def test_cached_arrays_are_read_only(self):
        tau, w = fracops._unit_weights(64, 2.0, 0.5)
        with pytest.raises(ValueError):
            w[0] = 1.0
        with pytest.raises(ValueError):
            tau[0] = 1.0
