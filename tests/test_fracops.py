"""Differintegral engines against closed forms and against each other.

Expected values are frozen from the classical power and exponential rules,

    D^nu y^p  (base 0)    = Gamma(p+1)/Gamma(p+1-nu) x^(p-nu),
    D^nu e^ay (base -inf) = a^nu e^(ax),

evaluated independently of the code under test.
"""

import cmath
import hashlib
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from fracpde import (
    CallableFn,
    DCUndefined,
    DifferintOrder,
    DomainOrder,
    EdgeLeakage,
    FracpdeError,
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


def _gamma_edge_arguments() -> list[float]:
    """Zeros, infinities, NaN, subnormals, the poles, and both sides of each branch point."""
    tiny = math.nextafter(0.0, 1.0)
    pts = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 1e-310, -1e-310, 1e-9, -1e-9]
    pts += [float(k) for k in range(-200, 201)]
    # 34.84... is where older Cephes switched 1/Gamma to exp(-lgamma); Gamma overflows at the last.
    for b in (4.0, -4.0, 33.0, -33.0, 34.84425627277176, 143.01608, 171.624376956302725):
        pts += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    return pts


class TestGamma:
    """The private Gamma and 1/Gamma of a real argument."""

    def test_real_edge_arguments_give_the_limits(self):
        # -180.5 and -181.5: Gamma underflows to -0.0 and +0.0.
        for x in _gamma_edge_arguments() + [-180.5, -181.5, 171.7, 1e300]:
            g, r = fracops._gamma(x), fracops._rgamma(x)
            assert type(g) is float and type(r) is float, x
            if math.isnan(x):
                assert math.isnan(g) and math.isnan(r)
            elif x == 0:
                assert g == math.copysign(math.inf, x), x
                assert r == 0 and math.copysign(1.0, r) == math.copysign(1.0, x), x
            elif x < 0 and (x.is_integer() or math.isinf(x)):  # a pole, or -inf
                assert math.isnan(g) and r == 0, x
            else:
                sign = -1.0 if x < 0 and math.floor(x) % 2 else 1.0
                assert math.copysign(1.0, g) == sign == math.copysign(1.0, r), x
                if abs(x) < sys.float_info.min:  # subnormal
                    assert g == math.copysign(math.inf, x) and r == x, x
                elif x > 171.7:  # Gamma overflows
                    assert g == math.inf and r == 0, x
                elif g == 0:  # Gamma underflows
                    assert r == math.copysign(math.inf, g), x
                else:
                    assert math.isfinite(r), x
        assert (fracops._gamma(-180.5), fracops._rgamma(-180.5)) == (0.0, -math.inf)
        assert math.copysign(1.0, fracops._gamma(-180.5)) == -1.0
        assert (fracops._gamma(math.inf), fracops._rgamma(math.inf)) == (math.inf, 0.0)
        for p, nu in [(0.5, 3.5), (2.0, 10.0)]:  # Gamma(p + 1 - nu) has a pole
            with pytest.warns(PoleHitWarning):
                got = closed_form_oracle(power(p), DifferintOrder(nu, 0.0), np.array([0.5, 2.0]))
            assert np.array_equal(got, np.zeros(2))

    def test_real_arguments_as_complex_are_within_1e_15_of_mpmath(self):
        xs = np.random.default_rng(7).uniform(-200.0, 200.0, 2000).tolist() + [0.5, 1.5, -0.5, 2.3]
        checked = 0
        with mpmath.workprec(120):
            for x in xs:
                z = complex(x, 0.0)
                for ours, ref in ((fracops._gamma(z), mpmath.gamma(x)), (fracops._rgamma(z), mpmath.rgamma(x))):
                    assert isinstance(ours, float)
                    if not 1e-300 < abs(ref) < 1e300:
                        continue
                    assert abs((ours - ref) / ref) <= 1e-15, x
                    checked += 1
        assert checked > 3000

    @pytest.mark.parametrize("z", [0.5 + 0.2j, -3.7 - 1e-3j, 12.0 + 5.0j, -0.5 + 1e-300j])
    def test_complex_arguments_give_scipys_values(self, z):
        # Lanczos' series is not scipy's algorithm, so the two agree to rounding, not to the bit.
        assert abs(fracops._gamma(z) - scipy.special.gamma(z)) <= 3e-14 * abs(scipy.special.gamma(z))
        assert abs(fracops._rgamma(z) - scipy.special.rgamma(z)) <= 3e-14 * abs(scipy.special.rgamma(z))

    def test_complex_arguments_are_within_3e_14_of_mpmath(self):
        rng = np.random.default_rng(29)
        box = rng.uniform(-12.0, 12.0, 2000) + 1j * rng.uniform(-5.0, 5.0, 2000)
        # Real offsets take math.gamma; the diagonal ones reach the reflection with both parts nonzero.
        offsets = (1, -1, 1j, -1j, 1 + 1j, -1 - 1j)
        near_poles = [k + d * s for k in range(0, -12, -1) for d in (1e-6, 1e-3) for s in offsets]
        worst = 0.0
        with mpmath.workprec(120):
            for z in [0.5 + 0.2j, -3.7 - 1e-3j, 12.0 + 5.0j, -0.5 + 1e-300j, *near_poles, *box.tolist()]:
                g = mpmath.gamma(mpmath.mpc(z))
                for ours, ref in ((fracops._gamma(z), g), (fracops._rgamma(z), 1 / g)):
                    worst = max(worst, float(abs((ours - ref) / ref)))
        assert worst <= 3e-14

    def test_large_complex_arguments_raise_nothing(self):
        # Gamma(200.5 + 0.5j) is near 1e373 and Gamma(-400.5 + 1j) near 1e-871:
        # beyond float64, a value is non-finite.
        assert not cmath.isfinite(fracops._gamma(200.5 + 0.5j))
        assert fracops._rgamma(200.5 + 0.5j) == 0
        assert not cmath.isfinite(fracops._rgamma(-400.5 + 1j))
        assert fracops._gamma(-400.5 + 1j) == 0
        # sin(pi z) overflows at Im z = 300, but Gamma(0.2 + 300j) is near 1e-205.
        want = mpmath.gamma(mpmath.mpc(0.2, 300.0))
        assert abs(fracops._gamma(0.2 + 300j) - want) <= 1e-12 * abs(want)


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


@pytest.mark.parametrize("nu, want", [(-1.0, 1.0), (-2.0, 2.5)])
def test_integer_order_integral_above_support_is_not_zero(nu, want):
    # I^1 and I^2 of the indicator of [0, 1] at 3: int_0^1 dy and int_0^1 (3 - y) dy.
    got = rl_integral(step(0, 1), DifferintOrder(nu, 0.0), 3.0)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nu", [-0.5, -1.3, 0.5])
def test_step_seen_from_above_matches_its_closed_form(nu):
    # The linear pieces reproduce a constant exactly, so only rounding is left.
    x, alpha = np.linspace(1.05, 20.0, 4000), -nu
    want = (x**alpha - (x - 1.0) ** alpha) / math.gamma(alpha + 1)
    got = differint(step(0.0, 1.0), DifferintOrder(nu, 0.0), x)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-14


@pytest.mark.parametrize("nu", [0.55, -0.7, 0.45 + 0.3j])
def test_bump_seen_from_above_matches_mpmath(nu):
    center, radius = 0.1, 2.0
    xs = np.array([2.2, 5.0, 20.0, 1e2, 1e3, 1e4])
    got = differint(bump(center, radius), DifferintOrder(nu, MINUS_INF), xs)
    with mpmath.workdps(20):
        c, mu = mpmath.mpf(center), mpmath.mpmathify(-nu)

        def f(y):
            r2 = ((y - c) / radius) ** 2
            return mpmath.exp(1 - 1 / (1 - r2)) if r2 < 1 else 0

        want = [complex(mpmath.quad(lambda y: (x - y) ** (mu - 1) * f(y), [c - radius, c, c + radius])
                        * mpmath.rgamma(mu)) for x in map(mpmath.mpf, xs)]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6


class _Counting:
    """An evaluable that counts the points it is evaluated at and the shapes it sees."""

    def __init__(self, base):
        self.base, self.points, self.ndims = base, 0, set()

    def _seen(self, y):
        self.points += np.size(y)
        self.ndims.add(np.ndim(y))

    def value(self, y):
        self._seen(y)
        return self.base.value(y)

    def derivative_values(self, y, m):
        self._seen(y)
        return self.base.derivative_values(y, m)

    def __getattr__(self, name):
        return getattr(self.base, name)


def test_points_above_the_support_share_one_evaluation_of_the_input():
    f = _Counting(bump(0.1, 2.0))
    rl_derivative(f, DifferintOrder(0.55, MINUS_INF), np.linspace(2.2, 20.0, 200), FAST)
    assert 0 < f.points <= FAST.subintervals + 1


@pytest.mark.parametrize("f", [step(0.0, 1.0), bump(0.5, 0.5), SampledCurve(0.0, 0.25, np.ones(5))],
                         ids=["step", "bump", "sampled"])
@pytest.mark.parametrize("c", [1.0, 2.0])
def test_base_at_or_above_the_support_end_gives_zero(f, c):
    # The input vanishes on (c, x]: no NaN from an empty mesh, no leak from the reversed range.
    x = np.array([c, 2.5, 7.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(rl_integral(f, DifferintOrder(-0.5, c), x) == 0)
        assert np.all(rl_derivative(f, DifferintOrder(0.5, c), x[1:]) == 0)
        assert np.all(rl_derivative(f, DifferintOrder(1.3 + 0.2j, c), x[1:]) == 0)


def test_base_point_is_in_the_integral_domain_only():
    assert rl_integral(power(1), DifferintOrder(-0.5, 0.0), 0.0) == 0.0
    with pytest.raises(DomainOrder, match="at or below the base point"):
        rl_derivative(power(1), DifferintOrder(0.5, 0.0), 0.0)


def test_caputo_equals_rl_for_infinite_base():
    # The boundary terms that separate the two definitions carry factors
    # (x-c)^(-nu-k) and vanish as c -> -inf.
    g = gaussian(0, 1)
    order = DifferintOrder(0.7, MINUS_INF)
    rl = rl_derivative(g, order, 0.8)
    cap = caputo_derivative(g, order, 0.8)
    assert cap == pytest.approx(rl, abs=1e-8)


@pytest.mark.parametrize("nu", [-0.5, 0.5, 1.5])
@pytest.mark.parametrize("c", [0.0, MINUS_INF])
@pytest.mark.parametrize("x", [1e2, 1e4, 1e6, 1e8])
def test_far_point_differintegral_of_a_gaussian_matches_mpmath(x, c, nu):
    # Far above the support the kernel is smooth, so mpmath integrates
    # (x - y)^(-nu-1) g(y) over [max(c, -12), 12] directly; beyond 12 the
    # gaussian is below 1e-31.  The moments must not cancel as x grows.
    got = differint(gaussian(0.0, 1.0), DifferintOrder(nu, c), np.array([x]))[0]
    with mpmath.workdps(30):
        xm = mpmath.mpf(x)
        edges = [max(c, -12.0)] + [e for e in (-3.0, 0.0, 3.0) if e > c] + [12.0]
        want = mpmath.quad(lambda y: (xm - y) ** (-nu - 1) * mpmath.exp(-y * y / 2), edges)
        want = complex(want * mpmath.rgamma(-nu))
    assert abs(got - want) <= 5e-6 * abs(want)


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

    @pytest.mark.parametrize("f, reason", [
        (lambda y: np.exp(-y * y), "wrap it as CallableFn(fn, support=(lo, hi))"),
        (power(0.5), "input does not decay toward -inf; integral diverges"),
    ], ids=["bare-callable", "power"])
    def test_tail_error_gives_the_input_s_reason(self, f, reason):
        with pytest.raises(NonConvergent) as exc:
            rl_integral(f, DifferintOrder(-0.5, MINUS_INF), 0.3)
        assert reason in str(exc.value)

    def test_derivative_needs_smoothness_at_the_point(self):
        with pytest.raises(NotSmoothEnough):
            rl_derivative(step(-1, 1), DifferintOrder(0.5, -2.0), np.array([0.5, 1.5]))

    @pytest.mark.parametrize("engine, nu", [(rl_integral, -0.5), (rl_derivative, 0.5), (caputo_derivative, 0.5)])
    @pytest.mark.parametrize("base", [0.0, MINUS_INF])
    @pytest.mark.parametrize("x", [math.nan, math.inf, [1.0, math.nan], [1.0, math.inf]])
    def test_points_must_be_finite(self, engine, nu, base, x):
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            engine(gaussian(), DifferintOrder(nu, base), x)

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

    def test_composition_of_half_orders_in_the_interior(self, monkeypatch):
        # The half-order output decays only algebraically downstream, so the
        # second pass is compared away from the box edges (and the decay
        # guard is waived for it).
        u = self.curve(gaussian(0, 1))
        half = fourier_differint(u, 0.5)
        monkeypatch.setattr(fracops, "_EDGE_TOL", 1.0)
        twice = fourier_differint(half, 0.5)
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
    """The one-kernel-transform engine: its plumbing against the padded round trip."""

    @pytest.mark.parametrize("m", [64, 65])
    @pytest.mark.parametrize("pad", [1, 2, 3, 32])
    @pytest.mark.parametrize(
        "nu, fn",
        [(0.0, _gauss), (0.3, _gauss), (1.5, _gauss), (0.5 + 0.2j, _gauss), (-0.5, _dipole)],
    )
    def test_matches_padded_round_trip(self, m, pad, nu, fn, monkeypatch):
        # Without the image sum the kernel's lags and the convolution are the
        # padded round trip's; the sum itself is checked against mpmath below.
        monkeypatch.setattr(fracops, "_image_scale", lambda nu, dx, big: 0.0)
        u = _line_curve(m, fn)
        want = _padded_round_trip(u, nu, pad)
        got = fourier_differint(u, nu, pad_factor=pad).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_high_order_with_a_tiny_imaginary_part_matches_the_real_order(self):
        # 1/Gamma(-180.5 - 1e-12j) is beyond float64; the image sum's scale is not.
        u = _line_curve(64, _gauss, length=40.0)
        want = fourier_differint(u, 180.5).values
        got = fourier_differint(u, 180.5 + 1e-12j).values
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

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


def _old_zeta_reflected(mu):
    """``zeta(-1 - mu)`` as the lattice rule first took it: 15 terms, Euler-Maclaurin at 16 with 5 Bernoulli terms."""
    s, k = 2.0 + mu, 16
    total = sum(j**-s for j in range(1, k)) + k ** (1.0 - s) / (s - 1.0) + 0.5 * k**-s
    rising, power = s, k ** (-s - 1.0)
    for j, coef in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160), start=1):
        total += coef * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= k * k
    return -(2.0 ** (-1.0 - mu)) * math.pi ** (-2.0 - mu) * math.cos(0.5 * math.pi * mu) * math.gamma(s) * total


class TestHurwitzZeta:
    """The private Hurwitz zeta that both the multiplier engine and the lattice rule take."""

    REAL_S = [round(0.1 * k, 1) for k in range(1, 30) if k != 10]
    COMPLEX_S = [complex(sigma, tau) for sigma in (0.1, 0.5, 0.9, 1.0, 1.3, 2.0, 2.9) for tau in (0.2, 0.3, -0.5, 1.0)]
    Q = np.linspace(0.5, 1.5, 21)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_mpmath(self, kind):
        worst = 0.0
        with mpmath.workdps(30):
            for s in self.REAL_S if kind == "real" else self.COMPLEX_S:
                got = fracops._hurwitz_zeta(s, self.Q)
                assert got.dtype == (np.float64 if kind == "real" else np.complex128)
                want = np.array([complex(mpmath.zeta(s, mpmath.mpf(float(q)))) for q in self.Q])
                worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        assert worst <= 1e-14

    def test_scalar_q_and_continuation_below_zero(self):
        assert fracops._hurwitz_zeta(0.0, 0.75) == pytest.approx(-0.25, abs=1e-15)  # 1/2 - q
        # -B_2(q)/2; below s = 0 the terms grow with k and the sum keeps about 14 digits of its largest one.
        assert fracops._hurwitz_zeta(-1.0, 0.75) == pytest.approx(-(0.75**2 - 0.75 + 1 / 6) / 2, abs=1e-14)
        assert float(fracops._hurwitz_zeta(2.0, 1.0)) == pytest.approx(math.pi**2 / 6, rel=1e-15)

    @pytest.mark.parametrize("mu", [0.01, 0.15, 0.5, 1.0, 1.3, 1.99])
    def test_reflected_zeta_keeps_its_value(self, mu):
        assert fracops._zeta_reflected(mu) == pytest.approx(_old_zeta_reflected(mu), rel=1e-15, abs=0)


def _mp_gaussian(x, nu, center, width):
    """``D^nu`` from -inf of ``exp(-z^2/2)``, ``z = (x - center)/width``: ``width^-nu exp(-z^2/4) D_nu(-z)``."""
    z = (mpmath.mpf(x) - center) / width
    return mpmath.mpf(width) ** (-nu) * mpmath.exp(-z * z / 4) * mpmath.pcfd(nu, -z)


def _mp_dipole(x, nu):
    """``D^nu`` from -inf of the identity suite's dipole ``exp(-(x-1)^2) - exp(-(x+1)^2)``."""
    return _mp_gaussian(x, nu, 1, 1 / mpmath.sqrt(2)) - _mp_gaussian(x, nu, -1, 1 / mpmath.sqrt(2))


def _fourier_cases(count=12, seed=2506):
    """Orders in [-0.9, 1.9] at least 0.05 from the integers: the dipole at any, gaussians of width 1-2 above 0."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < 2 * count:
        nu = round(float(rng.uniform(-0.9, 1.9)), 3)
        if abs(nu - round(nu)) < 0.05:
            continue
        if len(cases) % 2:
            cases.append(("dipole", nu))
        elif nu > 0:
            center, width = round(float(rng.uniform(-2, 2)), 3), round(float(rng.uniform(1, 2)), 3)
            cases.append((f"gaussian[{center},{width}]", nu))
    ends = [("dipole", -0.9), ("dipole", 1.9), ("gaussian[0.3,1.2]", 0.1), ("gaussian[0.3,1.2]", 1.9),
            ("dipole", -1.5)]  # below -1 the images' sum is zeta continued to s < 0
    return cases + ends + [("dipole", 0.3j), ("dipole", 0.5 + 0.2j), ("gaussian[0.3,1.2]", 0.5 + 0.2j)]


def _fourier_case(name, nu):
    """The samples' function and the mpmath reference of a case: ``dipole`` or ``gaussian[center,width]``."""
    if name == "dipole":
        return _dipole, lambda x: _mp_dipole(x, nu)
    center, width = map(float, name[len("gaussian["):-1].split(","))
    return (lambda x: np.exp(-0.5 * ((x - center) / width) ** 2)), (lambda x: _mp_gaussian(x, nu, center, width))


class TestFourierAgainstMpmath:
    """``fourier_differint`` at its default pad against mpmath, on the CLI's default 4096-point box."""

    M, L = 4096, 40.0
    PROBES = (1200, 1800, 2048, 2300, 2900)

    def _curve(self, fn, m=None, length=None):
        m, length = m or self.M, length or self.L
        xs = -length / 2 + (length / m) * np.arange(m)
        return xs, SampledCurve(float(xs[0]), length / m, fn(xs))

    @pytest.mark.parametrize("name, nu", _fourier_cases())
    def test_within_1e_10_of_the_peak(self, name, nu):
        fn, ref = _fourier_case(name, nu)
        xs, u = self._curve(fn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fourier_differint(u, nu).values
        with mpmath.workdps(20):
            want = np.array([complex(ref(xs[i])) for i in self.PROBES])
        assert np.max(np.abs(got[list(self.PROBES)] - want)) <= 1e-10 * np.max(np.abs(got))

    def test_parabolic_cylinder_form_is_mpmaths_differint(self):
        with mpmath.workdps(20):
            want = mpmath.differint(lambda t: mpmath.exp(-0.5 * ((t - 0.3) / 1.2) ** 2), 0.7, 0.5, x0=-mpmath.inf)
            assert complex(_mp_gaussian(0.7, 0.5, 0.3, 1.2)) == pytest.approx(complex(want), rel=1e-15)

    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_integer_orders_without_a_warning(self, nu):
        g = gaussian(0.3, 1.2)
        xs, u = self._curve(g.value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fourier_differint(u, nu).values
        want = g.derivative_values(xs, nu)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("fn, nu", [(_gauss, 1e-17), (_gauss, 1e-15), (_gauss, 1e-12), (_gauss, 1e-12 + 1e-12j),
                                        (_dipole, -1e-17), (_dipole, 1e-12j)])
    def test_orders_near_zero_are_near_the_identity(self, fn, nu):
        # |D^nu f - f| is of the order of |nu| here; the zeroed DC bin alone would cost sum(f)/N.
        xs, u = self._curve(fn)
        assert np.max(np.abs(fourier_differint(u, nu).values - u.values)) <= 1e-10

    @pytest.mark.parametrize("nu", [0.4, 1.3, 0.5 + 0.2j])
    def test_odd_sample_count_has_no_nyquist_bin(self, nu):
        xs, u = self._curve(gaussian(0.3, 1.2).value, m=1001, length=20.0)
        got = fourier_differint(u, nu).values
        probes = [250, 500, 750]
        with mpmath.workdps(20):
            want = np.array([complex(_mp_gaussian(xs[i], nu, 0.3, 1.2)) for i in probes])
        assert np.max(np.abs(got[probes] - want)) <= 1e-10 * np.max(np.abs(got))

    @pytest.mark.parametrize("m", [1001, 1024, 4096])
    @pytest.mark.parametrize("nu", [0.3, 0.9, 1.5, 0.5 + 0.2j])
    def test_step_is_no_worse_than_padding_by_32(self, m, nu):
        # A step's spectrum has not decayed by Nyquist, so the kernel's
        # alternating part is read too; away from the jumps the default pad
        # must still do as well as a pad of 32.
        a, b = -1.0, 1.5
        xs, u = self._curve(step(a, b).value, m=m, length=self.L if m == self.M else 20.0)
        far = (np.abs(xs) <= xs[-1] / 2) & (np.abs(xs - a) >= 0.5) & (np.abs(xs - b) >= 0.5)
        with mpmath.workdps(20):
            scale = mpmath.rgamma(1 - nu)
            want = np.array([complex(scale * (((x - a) ** -nu if x > a else 0) - ((x - b) ** -nu if x > b else 0)))
                             for x in map(mpmath.mpf, xs[far])])
        at_default = np.max(np.abs(fourier_differint(u, nu).values[far] - want))
        assert at_default <= np.max(np.abs(fourier_differint(u, nu, pad_factor=32).values[far] - want))


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

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_a_point_that_is_not_finite(self, x):
        with pytest.raises(ValueError, match="evaluation point must be finite"):
            hankel_differintegral(power(2), DifferintOrder(0.5, 0.0), x)

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
    "stencil": (CallableFn(lambda y: np.exp(-0.5 * y * y), support=(-12.0, 12.0)),
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

        f = CallableFn(value, support=(-12.0, 12.0))
        rl_integral(f, DifferintOrder(-0.5, MINUS_INF), GRID_4096)
        assert len(matrices) > 1
        assert 16 * max(matrices) <= fracops._BLOCK_BYTES

    def test_nonfinite_in_last_block_raises(self, monkeypatch):
        # Only points above 2.9 reach the bad values, and they come last.
        f = CallableFn(lambda y: np.where(y > 2.9, np.nan, np.exp(-y * y)), support=(-10.0, 10.0))
        order = DifferintOrder(-0.5, MINUS_INF)
        monkeypatch.setattr(fracops, "_BLOCK_BYTES", 3 * 16 * 513)
        xs = np.linspace(-3.0, 3.0, 61)
        assert np.all(np.isfinite(rl_integral(f, order, xs[xs < 2.9], FAST)))
        with pytest.raises(NotSmoothEnough):
            rl_integral(f, order, xs, FAST)


def test_stencil_step_is_not_set_by_a_point_at_the_support_start():
    # From a smooth support start the stencil may reach below it, so a point
    # just above the start leaves the step, and the other rows, as they are.
    f = CallableFn(lambda y: np.exp(-0.5 * y * y), support=(-9.0, 9.0))
    order = DifferintOrder(1.3, MINUS_INF)
    alone = rl_derivative(f, order, np.array([0.0, 1.0]))
    batch = rl_derivative(f, order, np.array([-9.0 + 1e-9, 0.0, 1.0]))
    assert np.max(np.abs(batch[1:] - alone)) <= 1e-12 * np.max(np.abs(alone))


class TestRealArithmetic:
    def test_real_order_gives_real_weights(self):
        tau, w = fracops._unit_weights(64, 0.5 + 0j)
        assert w.dtype == np.float64
        assert fracops._node_weights(np.outer([1.0, 2.0], tau), 0.5).dtype == np.float64
        assert fracops._unit_weights(64, 0.5 + 0.2j)[1].dtype == np.complex128

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


@pytest.mark.parametrize("c, near", [(0.0, 1e-6), (-8.0, -8.0 + 1e-6), (MINUS_INF, -8.0 + 1e-6)],
                         ids=["base", "base-at-support", "support-start"])
@pytest.mark.parametrize("nu", [0.5, 1.3])
def test_stencil_step_is_set_per_point(c, near, nu):
    # Without closed-form derivatives the derivative is a stencil of the integral, whose
    # step scales with each point's own distance to the base, not the batch's nearest
    # (which moved these values by 4e-6 to 86 relative).  What is left is the rounding of
    # the row blocks, divided by the stencil's h^n: 4.9e-12 measured.
    f = CallableFn(lambda y: np.exp(-y * y), support=(-8.0, 8.0))
    order, xs = DifferintOrder(nu, c), np.array([0.5, 1.0, 3.0])
    alone = np.array([rl_derivative(f, order, x) for x in xs])
    beside = rl_derivative(f, order, np.append(xs, near))[:-1]
    assert np.all(np.abs(beside - alone) <= 1e-10 * np.abs(alone))


def _within_the_multiplier(f, nu):
    """``differint`` from -inf on the 4096-point box against the multiplier, relative to the interior peak."""
    got = differint(f, DifferintOrder(nu, MINUS_INF), GRID_4096)
    want = fourier_differint(SampledCurve(float(GRID_4096[0]), 40.0 / 4096, f.value(GRID_4096)), nu).values
    inner = np.abs(GRID_4096) <= 10.0
    return np.max(np.abs(got - want)[inner]) / np.max(np.abs(want[inner]))


class TestNarrowInputs:
    """The graded path places its mesh on the input's support, so its error does not grow as the input narrows."""

    @pytest.mark.parametrize("nu", [0.3, 0.7, 1.3])
    @pytest.mark.parametrize("width", [0.2, 0.5, 1.0, 2.0])
    def test_gaussians_match_the_multiplier(self, width, nu):
        assert _within_the_multiplier(gaussian(0.0, width), nu) <= 1e-5

    @pytest.mark.parametrize("nu", [-1.3, -0.7, -0.3])
    @pytest.mark.parametrize("width", [0.2, 0.5, 1.0, 2.0])
    def test_zero_mean_pairs_match_the_multiplier(self, width, nu):
        # g(x + w) - g(x - w) has zero mean, so the multiplier takes negative orders too.
        g = gaussian(0.0, width)
        pair = CallableFn(lambda y: g.value(y + width) - g.value(y - width), support=(-10 * width, 10 * width))
        assert _within_the_multiplier(pair, nu) <= 1e-5


class TestExtrapolatedRuleAgainstMpmath:
    """The graded and support meshes with the even-node extrapolation, at the default 2048 subintervals.

    Each bound is about 3-4 times the largest error measured when it was
    set; the plain rule read 4e-7 to 3e-5 on the same cases.
    """

    XS = np.array([-1.0, 0.0, 0.5, 2.0, 5.0, 9.5, 12.0])  # 9.5 and 12 lie above the support +-9

    @pytest.mark.parametrize("nu, bound", [
        (-0.5, 2e-10), (0.4, 2e-10), (1.5, 2e-10),  # 4.5e-11 measured
        (0.7 + 0.4j, 6e-9), (-0.5 + 2j, 6e-9), (0.5 + 10j, 6e-9),  # 1.6e-9 measured, at 0.5+10i
    ])
    def test_gaussian_from_minus_inf(self, nu, bound):
        got = differint(gaussian(0.0, 1.0), DifferintOrder(nu, MINUS_INF), self.XS)
        with mpmath.workdps(20):
            want = np.array([complex(_mp_gaussian(x, nu, 0, 1)) for x in self.XS])
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [0.5, 0.3 + 0.2j])
    @pytest.mark.parametrize("nu", [-1.2, -0.5, 0.5, 1.3, 0.7 + 0.4j, -0.5 + 2j])
    def test_power_from_zero(self, p, nu):
        # 1.4e-13 measured for p = 0.5 and 9.6e-10 for 0.3+0.2i, whose branch point leaves an h^(2p+2) term.
        xs = np.array([0.3, 1.0, 2.5])
        got = differint(power(p), DifferintOrder(nu, 0.0), xs)
        with mpmath.workdps(20):
            want = np.array([complex(mpmath.gamma(p + 1) * mpmath.rgamma(p + 1 - nu) * mpmath.mpf(x) ** (p - nu))
                             for x in xs])
        assert np.all(np.abs(got - want) <= 3e-9 * np.abs(want))

    @pytest.mark.parametrize("x", [2.5, 4.0, 30.0, 100.0])  # the graded support mesh, then the uniform one
    def test_sampled_curve_above_its_support(self, x):
        # 4.7e-8 measured; the plain rule read 2.9e-7.
        vals = np.cos(np.linspace(-1.0, 2.0, 13))
        got = rl_integral(SampledCurve(-1.0, 0.25, vals), DifferintOrder(-0.5, MINUS_INF), x)
        with mpmath.workdps(20):
            nodes = [mpmath.mpf(k) / 4 - 1 for k in range(13)]
            pieces = [mpmath.quad(lambda y: (x - y) ** -0.5 * ((nodes[k + 1] - y) * vals[k] + (y - nodes[k]) * vals[k + 1])
                                  * 4, [nodes[k], nodes[k + 1]]) for k in range(12)]
            want = complex(mpmath.fsum(pieces) * mpmath.rgamma(0.5))
        assert abs(got - want) <= 1.5e-7 * abs(want)


FACTORED_ENGINES = {"integral": rl_integral, "derivative": rl_derivative, "caputo": caputo_derivative}


def _node_matrix_sum(f, nu, x):
    """The tail rule from -inf as the (points x nodes) sum, on ``_tail_weights``' mesh scaled by ``45/a``.

    A derivative and a Caputo derivative of order ``nu`` both integrate
    ``f^(n)`` with the kernel order ``n - nu``.
    """
    n = 0 if nu.real < 0 else math.floor(nu.real) + 1
    mu = fracops._real_if_real(n - nu)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    tau, _ = fracops._tail_weights(fracops.DEFAULT_QUADRATURE.subintervals, mu)
    t = fracops._EXP_TAIL_FACTOR / f.shift_rate * tau
    # A real order takes the even-node extrapolation, a complex one the plain weights.
    w = fracops._node_weights(t, mu) if isinstance(mu, complex) else fracops._extrapolated_weights(t, mu)
    return (f.derivative_values(xs[:, None] - t, n) @ w) * fracops._rgamma(mu)


class TestFactoredTail:
    """An exponential from -inf is one quadrature sum times its values at the points."""

    @settings(max_examples=60, deadline=None)
    @given(engine=st.sampled_from(sorted(FACTORED_ENGINES)),
           rate=st.floats(min_value=0.3, max_value=3.0),
           re=st.floats(min_value=0.0, max_value=1.9).filter(lambda v: abs(v - round(v)) > 1e-3),
           im=st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0)),
           xs=st.one_of(st.floats(min_value=-5.0, max_value=5.0),
                        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=64)))
    def test_equals_the_node_matrix_sum(self, engine, rate, re, im, xs):
        nu = complex(-re if engine == "integral" else re, im)
        f = exponential(rate)
        got = FACTORED_ENGINES[engine](f, DifferintOrder(nu, MINUS_INF), xs)
        assert np.shape(got) == np.shape(xs)
        want = _node_matrix_sum(f, nu, xs)
        assert np.all(np.abs(np.atleast_1d(got) - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("engine, nu", [("integral", -0.6), ("derivative", 1.3), ("caputo", 0.4)])
    def test_evaluates_no_node_matrix(self, engine, nu, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("a (points x nodes) matrix was formed")

        for name in ("_derivative_moment_path", "_shifted_rule", "_stencil_path"):
            monkeypatch.setattr(fracops, name, no_matrix)
        f = _Counting(exponential(1.3))
        got = FACTORED_ENGINES[engine](f, DifferintOrder(nu, MINUS_INF), GRID_4096)
        assert np.all(np.isfinite(got))
        # One evaluation at the points, as a 1-D array; the tail mesh probes nothing.
        assert f.ndims == {1}
        assert f.points == GRID_4096.size

    @pytest.mark.parametrize("engine, rate, nu, x", [
        ("derivative", 1.0, 0.5, 800.0),
        ("caputo", 1.0, 0.5, 800.0),
        ("derivative", 2.0, 1100.5, 0.0),  # rate**n beyond float64
    ])
    def test_overflow_at_a_point_is_nonconvergent(self, engine, rate, nu, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent, match="overflows float64"):
                FACTORED_ENGINES[engine](exponential(rate), DifferintOrder(nu, MINUS_INF), x)

    @pytest.mark.parametrize("x", [709.5, [0.0, 1.0, 709.5]], ids=["709.5", "batch"])
    def test_values_near_the_float64_limit_are_kept(self, x):
        # e^709.5 = 1.35e308 is representable, though e^709.5 * Gamma(0.5) is not: the
        # scalar factors are multiplied before the values at the points.
        order = DifferintOrder(-0.5, MINUS_INF)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rl_integral(exponential(1.0), order, x)
        want = closed_form_oracle(exponential(1.0), order, x)
        assert np.all(np.abs(got - want) <= 3e-9 * np.abs(want))  # 6.6e-10 measured

    def test_largest_finite_value_is_kept(self):
        order = DifferintOrder(-0.5, MINUS_INF)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rl_integral(exponential(1.0), order, 709.0)
        assert got.real == pytest.approx(closed_form_oracle(exponential(1.0), order, 709.0).real, rel=1e-6)

    @pytest.mark.parametrize("engine, nu", [("integral", -1.3), ("derivative", 0.6), ("caputo", 1.3)])
    def test_a_point_reads_the_same_alone_and_in_the_grid(self, engine, nu):
        # The tail rule depends on the order and the subintervals alone, not on the batch.
        f, order = exponential(1.3), DifferintOrder(nu, MINUS_INF)
        grid = FACTORED_ENGINES[engine](f, order, GRID_4096)
        alone = [FACTORED_ENGINES[engine](f, order, x) for x in GRID_4096[::16]]
        assert np.array_equal(alone, grid[::16])

    @pytest.mark.parametrize("nu", [-5.5, -10.5, -17.5, -20.5, -30.5, -40.5, -80.5])
    @pytest.mark.parametrize("rate", [0.5, 2.0])
    def test_high_integral_orders_are_accurate_or_nonconvergent(self, rate, nu):
        # The cut at 45/a drops Q(-nu, 45) of the value: 1e-6 at nu = -17.52, 9e-3 at -30.5.
        f, order, xs = exponential(rate), DifferintOrder(nu, MINUS_INF), np.array([-3.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if nu < -fracops._TAIL_ORDER_MAX:
                with pytest.raises(NonConvergent, match="tail cut"):
                    rl_integral(f, order, xs)
                return
            got = rl_integral(f, order, xs)
        want = closed_form_oracle(f, order, xs)
        assert np.all(np.abs(got - want) <= 1e-4 * np.abs(want))

    @pytest.mark.parametrize("re", [-1.5, -0.5, 0.5, 1.5])
    def test_complex_orders_up_to_five_are_accurate(self, re):
        # Worst relative error 7.8e-7 over these orders, rates and points.
        xs = np.array([-0.5, 0.0, 1.0])
        for a in (0.5, 1.0, 2.0):
            for nu in (complex(re, 5.0), complex(re, -5.0)):
                order = DifferintOrder(nu, MINUS_INF)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = differint(exponential(a), order, xs)
                want = closed_form_oracle(exponential(a), order, xs)
                assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want))

    @pytest.mark.parametrize("im", [6.0, -10.0, 20.0])
    @pytest.mark.parametrize("engine, re", [("integral", -0.5), ("derivative", 0.5), ("caputo", 1.5)])
    def test_complex_orders_beyond_five_are_nonconvergent(self, engine, re, im):
        # The tail rule misses a^nu e^(ax) by 1.6e-6 at |Im(nu)| = 6, 3.1e-4 at 10 and 1e3 at 20.
        with pytest.raises(NonConvergent, match=r"\|Im\(nu\)\| above 5"):
            FACTORED_ENGINES[engine](exponential(1.0), DifferintOrder(complex(re, im), MINUS_INF), [0.0, 1.0])

    def test_nan_from_the_input_is_not_smooth_enough(self):
        class Holey(_Counting):
            def value(self, y):
                return np.where(np.asarray(y) > 1.0, np.nan, self.base.value(y))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSmoothEnough):
                rl_integral(Holey(exponential(1.0)), DifferintOrder(-0.5, MINUS_INF), [0.0, 2.0])


class TestCaches:
    def test_weight_cache_is_bounded(self):
        for k in range(3 * fracops._CACHE_ENTRIES):
            fracops._unit_weights(64, 0.1 + 0.01 * k)
            fracops._tail_weights(64, 0.1 + 0.01 * k)
        assert fracops._mesh_weights.cache_info().currsize == fracops._CACHE_ENTRIES
        assert fracops._tail_weights.cache_info().currsize == fracops._CACHE_ENTRIES

    def test_mesh_cache_is_bounded(self):
        for k in range(3 * fracops._CACHE_ENTRIES):
            fracops._graded_mesh(64 + 2 * k)
        assert fracops._graded_mesh.cache_info().currsize == fracops._CACHE_ENTRIES

    def test_cached_arrays_are_read_only(self):
        for rule in (fracops._unit_weights, fracops._tail_weights):
            tau, w = rule(64, 0.5)
            with pytest.raises(ValueError):
                w[0] = 1.0
            with pytest.raises(ValueError):
                tau[0] = 1.0


# Inputs, orders and bases of the dispatch pin.  Together they reach every
# product-integration path (moving base, moment path, above the support,
# stencil), a point at the base, and each domain and smoothness error.
PIN_INPUTS = {
    "power-half": power(0.5),
    "power-complex": power(0.3 + 0.2j),
    "polynomial": polynomial([1.0, -0.5]),
    "gaussian": gaussian(0.5, 0.6),
    "bump": bump(1.0, 0.5),
    "step": step(0.0, 1.0),
    "sampled": SampledCurve(-1.0, 0.25, np.cos(np.linspace(-1.0, 2.0, 13))),
    "callable": CallableFn(lambda y: np.exp(-y * y), derivatives=(lambda y: -2.0 * y * np.exp(-y * y),),
                           support=(-8.0, 8.0)),
}
PIN_ENGINES = (
    (rl_integral, (-0.5, -1.0, -1.2, -0.7 + 0.4j)),
    (rl_derivative, (0.5, 1.0, 1.3, 0.7 + 0.4j)),
    (caputo_derivative, (0.5, 1.0, 1.3, 0.7 + 0.4j)),
)
# One digest per input, so a path that moves shows which inputs it moved;
# CHANGES.md records why a digest was re-taken and how far its values moved.
PIN_DIGESTS = {
    "power-half": "271a34265a954a910b7d2ba5bd48b05ccf0deb0e1dedb19ac986b8945522d0bb",
    "power-complex": "d607ed76001cbd8ea37e71fcff0362d283b530ad6b59c505befc3266ee949382",
    "polynomial": "b4a5d99a9fd5a0b31d58a61e118ab94cb1d4d8823ef4e2cace868ea20920f0ff",
    "gaussian": "e616e73b16f54d31118aedbabb45025bb2dfc4bcbfddcdef4c6b97c0ded293aa",
    "bump": "0c8ac80c27553a4dd57cdae341ab8ed30779e0e08d77aa07d8ecae6a63c64be0",
    "step": "5c8c1248b411c787b79ad0bc6cb516bf53589496f2aa450447596ef1e04024c6",
    "sampled": "4b1efead908b1942d04ee00ead8017da3dc2a761d2ae60ba65e806a9af4fcdb8",
    "callable": "229af7fd0eb0b621384641595c91b28ec60c13c52a95d7535d661cac268ca5be",
}


@pytest.mark.parametrize("name", PIN_INPUTS)
def test_quadrature_dispatch_bits_are_pinned(name):
    """sha256 of every value's int64 view, or of the error, over a fixed matrix per input."""
    f = PIN_INPUTS[name]
    digest = hashlib.sha256()
    config = QuadratureConfig(subintervals=128)
    for engine, orders in PIN_ENGINES:
        for nu in orders:
            for c in (0.0, -2.0, MINUS_INF):
                for x in (np.linspace(0.1, 2.5, 9), 0.0):
                    try:
                        got = np.array(engine(f, DifferintOrder(nu, c), x, config), dtype=complex, ndmin=1)
                        digest.update(got.view(np.int64).tobytes())
                    except FracpdeError as exc:
                        digest.update(f"{type(exc).__name__}: {exc}".encode())
    assert digest.hexdigest() == PIN_DIGESTS[name]


# -- orders that share an input, a base and points ---------------------------------

SHARED_INPUTS = {
    "gaussian": gaussian(0.5, 0.6),
    "bump": bump(1.0, 0.5),
    "callable": PIN_INPUTS["callable"],
    # f'' is not finite above 1.2: the orders with n = 2 leave the moment path for the stencil there.
    "callable-rough": CallableFn(lambda y: np.exp(-y * y), derivatives=(
        lambda y: -2.0 * y * np.exp(-y * y), lambda y: np.where(y > 1.2, np.nan, (4.0 * y * y - 2.0) * np.exp(-y * y))),
        support=(-8.0, 8.0)),
    "sampled": PIN_INPUTS["sampled"],
    "power": power(0.5),
    "polynomial": polynomial([1.0, -0.5]),
    "exponential": exponential(1.3),
    "step": step(0.0, 1.0),
}
# Integrals, derivatives, integer orders and complex orders; 0.5+6j is beyond the exponential's tail rule.
SHARED_ORDERS = (-1.0, -0.5, -1.2, -0.7 + 0.4j, 0.0, 0.5, 1.0, 1.3, 2.0, 0.7 + 0.4j, 0.5 + 6j)
# Points below, at and above the bases and the supports, and far above them.
SHARED_POINTS = (-3.0, -1.0, 0.0, 0.05, 0.4, 1.0, 1.3, 2.5, 7.0, 30.0)


def _alone(f, nu, c, x, config):
    """``differint`` of one order, or the error it raises."""
    try:
        return differint(f, DifferintOrder(nu, c), x, config)
    except Exception as err:
        return err


class TestSharedOrders:
    """One call for many orders gives each order's own call, bit for bit, and its error."""

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(SHARED_INPUTS)),
           c=st.sampled_from([0.0, -2.0, MINUS_INF]),
           nus=st.lists(st.sampled_from(SHARED_ORDERS), min_size=1, max_size=5),
           xs=st.one_of(st.sampled_from(SHARED_POINTS),
                        st.lists(st.sampled_from(SHARED_POINTS), min_size=1, max_size=6)))
    @example(name="callable-rough", c=0.0, nus=[1.3, -0.5, 0.5], xs=[0.4, 2.5, 7.0])
    @example(name="bump", c=MINUS_INF, nus=[1.0, -0.5, 0.5, 1.3], xs=[0.4, 1.0, 1.3, 2.5, 30.0])
    def test_equals_the_calls_of_each_order(self, name, c, nus, xs):
        f, config = SHARED_INPUTS[name], QuadratureConfig(subintervals=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = [_alone(f, nu, c, xs, config) for nu in nus]
            raising = [i for i, got in enumerate(alone) if isinstance(got, Exception)]
            kept = [i for i in range(len(nus)) if i not in raising]
            if kept:
                got = fracops._differint_orders(f, [nus[i] for i in kept], c, xs, config)
                want = np.array([alone[i] for i in kept], dtype=complex)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            # From each raising order on, and over all the orders, the error is the first raising order's own.
            cases = [(alone[i], nus[i:]) for i in raising] + [(alone[i], nus) for i in raising[:1]]
            for err, orders in cases:
                with pytest.raises(type(err)) as caught:
                    fracops._differint_orders(f, orders, c, xs, config)
                assert type(caught.value) is type(err) and str(caught.value) == str(err)

    def test_each_node_is_evaluated_once_for_all_orders(self):
        # Alone, the four orders evaluate the value at each node 4 times, f' 3 times and f'' once.
        nodes = {0: 0, 1: 0, 2: 0}

        def counted(m, fn):
            def g(y):
                if np.ndim(y) == 2:
                    nodes[m] += np.size(y)
                return fn(y)
            return g

        f = CallableFn(counted(0, lambda y: np.exp(-y * y)),
                       derivatives=(counted(1, lambda y: -2.0 * y * np.exp(-y * y)),
                                    counted(2, lambda y: (4.0 * y * y - 2.0) * np.exp(-y * y))),
                       support=(-8.0, 8.0))
        xs = np.linspace(-2.0, 2.0, 33)
        got = fracops._differint_orders(f, (0.0, -0.5, 0.5, 1.5), MINUS_INF, xs, FAST)
        assert np.all(np.isfinite(got))
        assert nodes == dict.fromkeys(nodes, xs.size * fracops._graded_mesh(FAST.subintervals, True).size)


# -- the lattice rule of differint --grid from -inf --------------------------------


def _mp_lattice_reference(kind: str, center: float, scale: float, nu: float, x: float) -> float:
    """``I^mu f^(n)`` at ``x`` from -inf by mpmath, ``f^(n)`` by mpmath's own differentiation.

    The substitution ``s = t^mu`` removes the kernel's endpoint singularity:
    ``int_0^T t^(mu-1) F(x - t) dt = (1/mu) int_0^(T^mu) F(x - s^(1/mu)) ds``.
    The integral starts at the support start for a bump and 12 widths below
    the centre for a gaussian.
    """
    n = math.floor(nu) + 1 if nu >= 0 else 0
    with mpmath.workdps(20):
        mu, c, w = mpmath.mpf(n) - mpmath.mpf(nu), mpmath.mpf(center), mpmath.mpf(scale)
        if kind == "gaussian":
            def f(y):
                return mpmath.exp(-((y - c) / w) ** 2 / 2)
            lo, edges = c - 12 * w, [c - 3 * w, c, c + 3 * w]
        else:
            def f(y):
                r2 = ((y - c) / w) ** 2
                return mpmath.exp(1 - 1 / (1 - r2)) if r2 < 1 else mpmath.mpf(0)
            lo, edges = c - w, [c, c + w]
        x = mpmath.mpf(x)
        if x <= lo:
            return 0.0
        ts = sorted({x - e for e in edges if lo < e < x} | {x - lo})  # t at the input's break points
        big_f = (lambda y: mpmath.diff(f, y, n)) if n else f
        total = mpmath.quad(lambda s: big_f(x - s ** (1 / mu)), [0] + [t**mu for t in ts])
        return float(total / mu * mpmath.rgamma(mu))


LATTICE_NU = st.floats(min_value=-1.9, max_value=1.9).filter(lambda v: abs(v - round(v)) >= 0.02)


class TestLatticeRule:
    """``differint --grid`` from -inf as one corrected convolution on the output lattice."""

    def _curve(self, f, nu, method=differint, x=GRID_4096, config=fracops.DEFAULT_QUADRATURE):
        return fracops._on_lattice(method, f, DifferintOrder(nu, MINUS_INF), x, config)

    # The corrected rule leaves an h^4 F'''' term: about (dx/width)^4, 1.1e-6
    # at the narrowest width here (0.3, dx = 40/4096), well below this bound.
    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "bump"]), center=st.floats(min_value=-1.0, max_value=1.0),
           u=st.floats(min_value=0.0, max_value=1.0), nu=LATTICE_NU,
           probe=st.integers(min_value=-60, max_value=60))
    def test_matches_mpmath(self, kind, center, u, nu, probe):
        scale = 0.3 + 1.7 * u if kind == "gaussian" else 1.0 + 1.5 * u
        f = gaussian(center, scale) if kind == "gaussian" else bump(center, scale)
        got = fracops._lattice_values(f, complex(nu), GRID_4096, fracops.DEFAULT_QUADRATURE)
        assert got is not None
        peak = np.max(np.abs(got))
        k = int(np.argmin(np.abs(GRID_4096 - center))) + probe * int(scale * 4096 / 40.0 / 20)
        want = _mp_lattice_reference(kind, center, scale, nu, float(GRID_4096[k]))
        assert abs(got[k] - want) <= 1e-6 * peak

    @pytest.mark.parametrize("method, nu", [
        (differint, -1.3), (differint, -0.55), (differint, 0.25), (differint, 0.85), (differint, 1.5),
        (caputo_derivative, 0.25), (caputo_derivative, 0.85), (caputo_derivative, 1.5),
    ], ids=["quadrature", "quadrature", "quadrature", "quadrature", "quadrature", "caputo", "caputo", "caputo"])
    def test_agrees_with_the_graded_path(self, method, nu):
        f = gaussian(0.4, 1.0)
        got = self._curve(f, nu, method)
        graded = method(f, DifferintOrder(nu, MINUS_INF), GRID_4096[::64])
        assert np.max(np.abs(got[::64] - graded)) <= 5e-5 * np.max(np.abs(got))

    def test_subintervals_set_the_refinement(self):
        # -m 64 -L 20: dx = 0.3125 against a mesh spacing of 19/2048, so r = 34.
        x = -10.0 + 0.3125 * np.arange(64)
        f = gaussian(0.0, 1.0)
        fine = self._curve(f, 0.5, x=x)
        coarse = self._curve(f, 0.5, x=x, config=QuadratureConfig(subintervals=61))  # r = 1
        want = np.array([_mp_lattice_reference("gaussian", 0.0, 1.0, 0.5, float(x[k])) for k in (28, 32, 36)])
        peak = np.max(np.abs(fine))
        assert np.max(np.abs(fine[[28, 32, 36]] - want)) <= 1e-8 * peak
        assert np.max(np.abs(coarse[[28, 32, 36]] - want)) >= 1e-5 * peak

    @pytest.mark.parametrize("f, nu", [(gaussian(0.3, 1.2), 0.7), (bump(0.2, 2.1), -0.5)], ids=["gaussian", "bump"])
    def test_evaluates_each_lattice_point_once_and_no_matrix(self, f, nu, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("the graded path ran")

        for name in ("_factored_rule", "_shifted_rule", "_derivative_moment_path"):
            monkeypatch.setattr(fracops, name, no_matrix)
        counted = _Counting(f)
        got = self._curve(counted, nu)
        assert np.all(np.isfinite(got))
        assert counted.ndims == {1}
        # The lattice runs from the support start (one step below) to one step above the last point.
        top, dx = GRID_4096[-1], 40.0 / 4096
        cut, span = f.support[0], f.support[1] - f.support[0]
        h = dx / math.ceil(dx * fracops.DEFAULT_QUADRATURE.subintervals / span)
        assert counted.points <= (top - cut) / h + 4

    def test_points_below_a_support_are_exactly_zero(self):
        got = self._curve(bump(0.2, 2.1), 0.4)
        assert np.all(got[GRID_4096 <= 0.2 - 2.1] == 0)
        assert np.all(got[GRID_4096 > -1.8] != 0)

    def test_a_far_cut_takes_the_graded_path_within_its_memory(self):
        f = gaussian(-1e6, 1.0)
        assert fracops._lattice_values(f, 0.5 + 0j, GRID_4096, fracops.DEFAULT_QUADRATURE) is None
        tracemalloc.start()
        try:
            got = self._curve(f, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(got))
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("f, nu, c", [
        (exponential(1.3), 0.5, MINUS_INF),
        (exponential(0.8), -1.2, MINUS_INF),
        (step(-1.0, 1.0), -0.5, MINUS_INF),
        (step(-1.0, 30.0), -0.5, MINUS_INF),  # the jump at the cut
        (SampledCurve(-3.0, 0.25, np.exp(-np.linspace(-3.0, 3.0, 25) ** 2)), -0.5, MINUS_INF),
        (gaussian(0.3, 1.2), 0.5 + 0.2j, MINUS_INF),
        (gaussian(0.3, 1.2), 0.5, -30.0),
        (bump(0.0, 1.0), 0.5, -30.0),
        (CallableFn(lambda y: np.exp(-y * y), support=(-8.0, 8.0)), 0.5, MINUS_INF),  # no derivative: the stencil
    ], ids=["exp", "exp-integral", "step", "step-wide", "sampled", "complex", "finite-gaussian",
            "finite-bump", "callable-stencil"])
    def test_other_inputs_keep_their_path(self, f, nu, c):
        order = DifferintOrder(nu, c)
        config = QuadratureConfig(subintervals=256)
        got = fracops._on_lattice(differint, f, order, GRID_4096[::16], config)
        assert np.array_equal(got, differint(f, order, GRID_4096[::16], config))

    def test_callable_with_a_support_takes_it(self):
        f = CallableFn(lambda y: np.exp(-0.5 * y * y), derivatives=(lambda y: -y * np.exp(-0.5 * y * y),),
                       support=(-9.0, 9.0))
        got = self._curve(f, 0.6)
        want = self._curve(gaussian(0.0, 1.0), 0.6)
        # The unit gaussian's support is (-9, 9) too: the same lattice.
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_caputo_below_zero_is_still_the_wrong_sign(self):
        with pytest.raises(WrongSign):
            self._curve(gaussian(), -0.5, caputo_derivative)

    def test_callable_without_a_cut_is_still_nonconvergent(self):
        with pytest.raises(NonConvergent):
            self._curve(CallableFn(lambda y: np.exp(-y * y)), -0.5)

    @pytest.mark.parametrize("mu", [0.01, 0.15, 0.5, 1.0, 1.3, 1.99])
    def test_reflected_zeta(self, mu):
        assert fracops._zeta_reflected(mu) == pytest.approx(float(mpmath.zeta(-1 - mu)), rel=1e-13, abs=1e-16)

    @pytest.mark.parametrize("mu", [0.05, 0.5, 1.5])
    def test_weights_keep_their_digits_at_large_lags(self, mu):
        w = fracops._lattice_weights(mu, 200001)
        with mpmath.workdps(50):
            m = mpmath.mpf(mu)
            for d in (0, 1, 2, 7, 1000, 200000):
                p = m + 1
                want = (mpmath.mpf(d + 1) ** p - 2 * mpmath.mpf(d) ** p + (mpmath.mpf(d - 1) ** p if d else 0)) / (m * p)
                if d == 0:
                    want = 1 / (m * p)
                # The expm1 form loses about d digits' worth of eps, not d^2.
                assert abs(w[d] - want) <= 1e-15 * max(d, 1) / mu * abs(want)
