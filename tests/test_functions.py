"""Catalog function values, derivatives, metadata, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracpde import (
    CATALOG_NAMES,
    CallableFn,
    FunctionSpec,
    NotSmoothEnough,
    SampledCurve,
    UnknownCatalogEntry,
    bump,
    catalog_lookup,
    exponential,
    gaussian,
    polynomial,
    power,
    step,
)


def central_diff(f, y, m, h=1e-5):
    if m == 0:
        return f.value(y)
    inner = lambda z: central_diff(f, z, m - 1, h)
    return (inner(y + h) - inner(y - h)) / (2 * h)


class TestValues:
    def test_power(self):
        f = power(0.5)
        assert f.value(4.0) == pytest.approx(2.0)
        assert f.value(0.0) == 0.0

    def test_power_zero_exponent_at_origin(self):
        assert power(0).value(0.0) == 1.0

    def test_exponential(self):
        assert exponential(2).value(1.0) == pytest.approx(math.e**2)

    def test_gaussian_peak(self):
        g = gaussian(3.0, 2.0)
        assert g.value(3.0) == 1.0
        assert g.value(5.0) == pytest.approx(math.exp(-0.5))

    def test_step_edges(self):
        s = step(-1, 1)
        assert list(s.value(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))) == [0, 1, 1, 1, 0]

    def test_bump_normalization_and_support(self):
        b = bump(0, 1)
        assert b.value(0.0) == 1.0
        assert b.value(1.0) == 0.0
        assert b.value(1.5) == 0.0

    def test_polynomial(self):
        q = polynomial([1, 0, 2])  # 1 + 2 y^2
        assert q.value(3.0) == pytest.approx(19.0)


@pytest.mark.parametrize("f", [power(2.5), exponential(1.3), gaussian(0.5, 1.7), polynomial([1, -2, 0.5, 3])])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_derivatives_match_finite_differences(f, m):
    ys = np.array([0.7, 1.3, 2.1])
    got = f.derivative_values(ys, m)
    want = central_diff(f, ys, m, h=1e-3 if m == 3 else 1e-4)
    assert np.allclose(got, want, rtol=5e-5, atol=1e-6)


def test_bump_derivatives_match_finite_differences():
    b = bump(0, 1)
    ys = np.array([-0.6, 0.1, 0.4])
    for m in (1, 2):
        got = b.derivative_values(ys, m)
        want = central_diff(b, ys, m, h=1e-5)
        assert np.allclose(got, want, rtol=1e-4, atol=1e-8)
    with pytest.raises(NotSmoothEnough):
        b.derivative_values(ys, 3)


def test_integer_power_derivative_past_degree_is_zero():
    vals = power(1).derivative_values(np.array([0.0, 2.0]), 2)
    assert np.all(vals == 0)


class TestMetadata:
    def test_decay_classes(self):
        assert gaussian().decay_class == "exponential-decay"
        assert exponential(1).decay_class == "exponential-decay"
        assert step().decay_class == "compact-support"
        assert bump().decay_class == "compact-support"
        assert power(2).decay_class == "polynomial-growth"

    def test_supports(self):
        assert step(-1, 2).support == (-1, 2)
        assert bump(1, 0.5).support == (0.5, 1.5)
        assert gaussian().support is None

    def test_step_smoothness(self):
        s = step(-1, 1)
        assert s.smooth_order_on(-0.5, 0.5) >= 4
        assert s.smooth_order_on(-2.0, 0.0) == 0

    def test_analyticity(self):
        assert gaussian().analytic
        assert power(0.5).analytic
        assert not step().analytic
        assert power(0.5).analytic_near(1.0, 2.0, margin=0.1)
        assert not power(0.5).analytic_near(0.0, 1.0, margin=0.1)

    def test_truncation_lengths(self):
        assert exponential(2).truncation_length(0.0) == pytest.approx(22.5)
        assert gaussian(0, 1).truncation_length(5.0) >= 14.0
        with pytest.raises(ValueError):
            power(1).truncation_length(0.0)
        with pytest.raises(ValueError):
            polynomial([1.0, 2.0]).truncation_length(0.0)

    @pytest.mark.parametrize("f", [
        exponential(0.7), gaussian(1.0, 1.5), step(-1.0, 2.0), bump(0.5, 2.0),
        SampledCurve(-3.0, 0.5, np.ones(13)), CallableFn(np.tanh, truncation=8.0),
    ], ids=["exponential", "gaussian", "step", "bump", "sampled", "callable"])
    def test_truncation_length_is_nondecreasing(self, f):
        # The engines take one batch's tail cut from its largest point.
        xs = np.linspace(-30.0, 30.0, 601)
        cuts = np.array([f.truncation_length(float(x)) for x in xs])
        assert np.all(np.diff(cuts) >= 0)


class TestValidation:
    def test_power_needs_integrable_exponent(self):
        with pytest.raises(ValueError):
            power(-1.0)

    def test_exponential_needs_positive_rate(self):
        with pytest.raises(ValueError):
            exponential(-1.0)

    def test_step_needs_ordered_endpoints(self):
        with pytest.raises(ValueError):
            step(2, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FunctionSpec("sinusoid", {"freq": 1.0})


class TestSerialization:
    @pytest.mark.parametrize("f", [power(0.5), exponential(2), gaussian(1, 3), step(0, 2), bump(-1, 2), polynomial([0, 1j])])
    def test_roundtrip(self, f):
        back = FunctionSpec.from_json(f.to_json())
        assert back == f

    def test_json_is_plain_data(self):
        doc = json.loads(gaussian(0, 1).to_json())
        assert doc["kind"] == "gaussian"

    @given(p=st.floats(min_value=-0.9, max_value=6.0), a=st.floats(min_value=0.1, max_value=8.0))
    def test_roundtrip_random_params(self, p, a):
        for f in (power(p), exponential(a)):
            assert FunctionSpec.from_json(f.to_json()) == f


class TestCatalog:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_lookup_known(self, name):
        f = catalog_lookup(name)
        assert f.value(0.25) is not None

    def test_lookup_unknown(self):
        with pytest.raises(UnknownCatalogEntry) as exc:
            catalog_lookup("wavelet")
        assert exc.value.requested == "wavelet"
        assert "gaussian" in exc.value.known


class TestSampledCurve:
    def test_interpolation_and_outside(self):
        c = SampledCurve(0.0, 0.5, np.array([0.0, 1.0, 0.0]))
        assert c.value(0.25) == pytest.approx(0.5)
        assert c.value(-1.0) == 0.0
        assert c.value(5.0) == 0.0

    def test_x_axis(self):
        c = SampledCurve(-1.0, 0.5, np.zeros(5))
        assert np.allclose(c.x, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            SampledCurve(0.0, 0.1, np.array([1.0]))


class TestCallableFn:
    def test_derivative_chain(self):
        f = CallableFn(np.sin, derivatives=(np.cos,))
        assert f.derivative_values(0.0, 1) == pytest.approx(1.0)
        with pytest.raises(NotSmoothEnough):
            f.derivative_values(0.0, 2)

    def test_truncation_required_for_infinite_base(self):
        f = CallableFn(np.tanh)
        with pytest.raises(ValueError):
            f.truncation_length(0.0)
