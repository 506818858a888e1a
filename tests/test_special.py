import math

import numpy as np
import pytest

from entharvest.special import dawson, erfcx_real, erfi_scaled

# frozen references computed before the build:
#  - erfc(1) from a 30-digit series/continued-fraction evaluation
#  - dawson(10) and erfi_scaled(30) from the asymptotic series
#    1/(2x) + 1/(4x^3) + 3/(8x^5) + ...
#  - erfi(0.5) from the all-positive Taylor series of erfi
ERFC_1 = 0.15729920705028513
DAWSON_10 = 0.05025384718755521
ERFI_SCALED_30 = 0.018816784868660726
ERFI_05 = 0.6149520946965109

DAWSON_MAX = 0.5410443


def erfi_taylor(x: float) -> float:
    """Independent oracle: all-positive Taylor series, no cancellation."""
    term = x
    total = 0.0
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        n += 1
        term *= x * x / n
        if term / (2 * n + 1) < 1e-18 * total:
            return 2.0 / math.sqrt(math.pi) * total


class TestErfc:
    """math.erfc, the reference that erfcx_real is checked against below."""

    def test_at_zero(self):
        assert math.erfc(0.0) == 1.0

    def test_reference_value(self):
        assert math.erfc(1.0) == pytest.approx(ERFC_1, rel=1e-12)

    def test_reflection(self):
        assert math.erfc(-0.7) == pytest.approx(2.0 - math.erfc(0.7), abs=1e-15)

    def test_erf_identity(self):
        for x in np.linspace(-5.0, 5.0, 101):
            assert math.erfc(float(x)) + math.erf(float(x)) == pytest.approx(1.0, abs=1e-14)

    def test_monotone_decreasing_and_range(self):
        xs = np.linspace(-5.0, 5.0, 200)
        ys = [math.erfc(float(x)) for x in xs]
        assert all(a > b for a, b in zip(ys, ys[1:]))
        assert all(0.0 < y < 2.0 for y in ys)


class TestDawson:
    def test_at_zero(self):
        assert dawson(0.0) == 0.0

    def test_asymptotic_reference(self):
        assert dawson(10.0) == pytest.approx(DAWSON_10, abs=1e-7)

    def test_odd(self):
        assert dawson(1.3) + dawson(-1.3) == pytest.approx(0.0, abs=1e-16)

    def test_bounded(self):
        for x in np.linspace(-20.0, 20.0, 401):
            assert abs(dawson(float(x))) <= DAWSON_MAX

    def test_ode(self):
        # F'(x) = 1 - 2 x F(x), central finite differences
        h = 1e-6
        for x in np.linspace(0.0, 4.0, 41):
            x = float(x)
            deriv = (dawson(x + h) - dawson(x - h)) / (2.0 * h)
            assert deriv == pytest.approx(1.0 - 2.0 * x * dawson(x), abs=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dawson(math.nan)


class TestErfiScaled:
    def test_at_zero(self):
        assert erfi_scaled(0.0) == 0.0

    def test_overflow_regime(self):
        # naive e^{-900} * erfi(30) is 0 * inf; only the scaled path works
        assert erfi_scaled(30.0) == pytest.approx(ERFI_SCALED_30, abs=1e-6)

    def test_small_argument(self):
        assert erfi_scaled(0.5) == pytest.approx(math.exp(-0.25) * ERFI_05, abs=1e-6)

    def test_bounded_everywhere(self):
        bound = 2.0 * DAWSON_MAX / math.sqrt(math.pi) + 1e-12
        for x in np.logspace(-2, 3, 60):
            assert 0.0 <= erfi_scaled(float(x)) <= bound

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            erfi_scaled(-0.1)

    def test_matches_taylor_erfi(self):
        # erfi(x) = (2/sqrt(pi)) e^{x^2} F(x) wherever e^{x^2} is representable
        for x in np.linspace(0.0, 5.0, 100)[1:]:
            x = float(x)
            reconstructed = erfi_scaled(x) * math.exp(x * x)
            assert reconstructed == pytest.approx(erfi_taylor(x), rel=1e-10)


def test_erfcx_matches_erfc_in_safe_range():
    for x in np.linspace(0.0, 5.0, 50):
        x = float(x)
        assert erfcx_real(x) * math.exp(-x * x) == pytest.approx(math.erfc(x), rel=1e-13)


def test_erfcx_rejects_non_finite():
    with pytest.raises(ValueError):
        erfcx_real(math.nan)
    with pytest.raises(ValueError):
        erfcx_real(math.inf)
