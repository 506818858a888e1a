import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from entharvest.quadrature import (
    ConvergenceError,
    NonFiniteIntegrandError,
    QuadratureError,
    QuadratureSettings,
    integrate_halfline,
    integrate_interval,
    integrate_line,
)

TWO_SQRT_PI = 3.5449077018110318          # 2 sqrt(pi)
SQRT_PI_E_M4 = 0.03246362468013172        # sqrt(pi) e^{-4}
# int_-inf^inf e^{-u^2/4} / sqrt(0.25 u^2 + 1) du, frozen from a
# 10^6-point trapezoid rule on [-60, 60]
RADIAL_FACTOR = 3.048218771547819
# int_0^inf e^{-r^2} sin(2 r) dr = (sqrt(pi)/2) e^{-1} erfi(1)
HALFLINE_SIN = 0.5380795069127683

DEFAULT = QuadratureSettings()


class TestSettingsValidation:
    def test_rejects_bad_rel_tol(self):
        with pytest.raises(ValueError):
            QuadratureSettings(rel_tol=0.0)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(truncation_sigmas=4.0)

    def test_rejects_bad_subdivisions(self):
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)


class TestLine:
    def test_wide_gaussian(self):
        res = integrate_line(lambda u: np.exp(-u * u / 4.0), 2.0, DEFAULT)
        assert res.value.real == pytest.approx(TWO_SQRT_PI, abs=1e-9)
        assert res.value.imag == pytest.approx(0.0, abs=1e-12)
        assert abs(res.value.real - TWO_SQRT_PI) <= max(res.error_estimate, 1e-13)

    def test_oscillatory_gaussian(self):
        res = integrate_line(lambda u: np.exp(-u * u) * np.exp(-4j * u),
                             1.0, DEFAULT, max_frequency=4.0)
        assert res.value.real == pytest.approx(SQRT_PI_E_M4, abs=1e-9)
        assert res.value.imag == pytest.approx(0.0, abs=1e-9)

    def test_radial_factor_matches_trapezoid_oracle(self):
        res = integrate_line(
            lambda u: np.exp(-u * u / 4.0) / np.sqrt(0.25 * u * u + 1.0),
            2.0, DEFAULT)
        assert res.value.real == pytest.approx(RADIAL_FACTOR, abs=1e-8)

    def test_error_estimate_is_sound(self):
        res = integrate_line(lambda u: np.exp(-u * u / 4.0), 2.0, DEFAULT)
        assert abs(res.value - TWO_SQRT_PI) <= res.error_estimate + 1e-12


class TestHalfline:
    def test_half_gaussian(self):
        res = integrate_halfline(lambda r: np.exp(-r * r), 1.0, DEFAULT)
        assert res.value.real == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-9)

    def test_gaussian_sine(self):
        res = integrate_halfline(lambda r: np.exp(-r * r) * np.sin(2.0 * r),
                                 1.0, DEFAULT, max_frequency=2.0)
        assert res.value.real == pytest.approx(HALFLINE_SIN, abs=1e-6)

    def test_radial_moment(self):
        res = integrate_halfline(lambda r: r * np.exp(-r * r), 1.0, DEFAULT)
        assert res.value.real == pytest.approx(0.5, abs=1e-10)


class TestInterval:
    def test_polynomial_exact(self):
        res = integrate_interval(lambda t: t * t * t - 2.0 * t + 1.0, 0.0, 2.0, DEFAULT)
        assert res.value.real == pytest.approx(2.0, abs=1e-12)

    def test_complex_exponential(self):
        res = integrate_interval(lambda t: np.exp(1j * t), 0.0, math.pi, DEFAULT)
        assert res.value == pytest.approx(complex(0.0, 2.0), abs=1e-10)


@given(a=st.floats(-3.0, 3.0, allow_nan=False),
       b=st.floats(-3.0, 3.0, allow_nan=False),
       k=st.integers(0, 4))
@hyp_settings(max_examples=40, deadline=None)
def test_linearity(a, b, k):
    def f(u):
        return np.exp(-u * u)

    def g(u):
        return u ** k * np.exp(-u * u / 2.0)

    def combined(u):
        return a * f(u) + b * g(u)

    rf = integrate_line(f, 1.0, DEFAULT).value
    rg = integrate_line(g, 1.5, DEFAULT).value
    rc = integrate_line(combined, 1.5, DEFAULT).value
    scale = max(abs(rf), abs(rg), 1.0)
    assert abs(rc - (a * rf + b * rg)) <= 1e-8 * scale


def test_refinement_improves_accuracy():
    exact = math.sqrt(2.0 * math.pi)

    def f(u):
        return np.exp(-u * u / 2.0) * np.cos(3.0 * u) ** 2

    prev_err = None
    for tol in (1e-4, 1e-7, 1e-10):
        s = QuadratureSettings(rel_tol=tol, abs_tol=1e-15)
        val = integrate_line(f, math.sqrt(2.0), s, max_frequency=6.0).value.real
        # exact: (sqrt(pi/2)/2) (1 + e^{-18})
        target = 0.5 * exact * (1.0 + math.exp(-18.0))
        err = abs(val - target)
        if prev_err is not None:
            assert err <= prev_err + 1e-13
        prev_err = err
    assert prev_err <= 1e-10


def test_truncation_tail_is_accounted():
    # widening the truncation window changes results by less than the
    # reported error estimate of the narrower run
    narrow = QuadratureSettings(truncation_sigmas=8.0)
    wide = QuadratureSettings(truncation_sigmas=12.0)

    def f(u):
        return np.exp(-u * u / 4.0)

    rn = integrate_line(f, 2.0, narrow)
    rw = integrate_line(f, 2.0, wide)
    assert abs(rn.value - rw.value) <= rn.error_estimate


def test_non_finite_integrand_reports_abscissa():
    def f(u):
        out = np.exp(-u * u)
        out = np.where(np.abs(u - 0.5) < 0.2, np.nan, out)
        return out

    with pytest.raises(NonFiniteIntegrandError) as info:
        integrate_line(f, 1.0, DEFAULT)
    assert math.isfinite(info.value.abscissa)


def test_budget_exhaustion_raises_with_partial_result():
    s = QuadratureSettings(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=2)

    def f(u):
        return np.exp(-u * u) * np.cos(40.0 * u)

    with pytest.raises(ConvergenceError) as info:
        integrate_line(f, 1.0, s, max_frequency=40.0)
    assert info.value.error_estimate > 0.0
    assert math.isfinite(abs(info.value.value))


def test_start_panel_limit_raises_before_any_evaluation():
    calls = []

    def f(u):
        calls.append(u.size)
        return np.exp(-u * u)

    # window 20 at spacing pi/12000: about 76000 start panels, over the limit
    with pytest.raises(QuadratureError, match="start panels exceed the limit"):
        integrate_line(f, 1.0, DEFAULT, max_frequency=3000.0)
    assert calls == []
