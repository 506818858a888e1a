"""The special functions inside the closed forms.

The model calls scipy.special.dawsn and erfcx directly. Each frozen
reference below is checked through the public function that consumes it;
the Dawson identities the closed forms were derived from are checked on
scipy's dawsn itself.
"""

import math

import numpy as np
import pytest
from scipy.special import dawsn

from entharvest.model import (
    DetectorSettings,
    omega_peak_threshold,
    second_derivative_at_rest,
    static_x_abs,
    transition_probability,
)

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
SQRT_PI = math.sqrt(math.pi)


def det(omega: float = 0.0) -> DetectorSettings:
    return DetectorSettings(sigma=1.0, omega=omega)


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
    """math.erfc, the reference that the erfcx form of P is checked against below."""

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
        # F(0) = 0, so the static |X| tends to 1 / (4 d sqrt(pi)) as d -> 0
        assert static_x_abs(det(), 1e-8) * 4e-8 * SQRT_PI == pytest.approx(1.0, rel=1e-12)

    def test_asymptotic_reference(self):
        # d = 20 puts F at x = 10, where e^{-2x^2} is gone: |X| = F(10) / (40 pi)
        assert static_x_abs(det(), 20.0) == pytest.approx(DAWSON_10 / (40.0 * math.pi), rel=1e-10)

    def test_odd(self):
        assert dawsn(1.3) + dawsn(-1.3) == pytest.approx(0.0, abs=1e-16)

    def test_bounded(self):
        for x in np.linspace(-20.0, 20.0, 401):
            assert abs(dawsn(float(x))) <= DAWSON_MAX

    def test_ode(self):
        # F'(x) = 1 - 2 x F(x), central finite differences
        h = 1e-6
        for x in np.linspace(0.0, 4.0, 41):
            x = float(x)
            deriv = (dawsn(x + h) - dawsn(x - h)) / (2.0 * h)
            assert deriv == pytest.approx(1.0 - 2.0 * x * dawsn(x), abs=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            static_x_abs(det(), math.nan)


class TestErfiScaled:
    """s = e^{-x^2} erfi(x) at x = d / 2, through the closed forms."""

    def test_at_zero(self):
        # s -> 0 as d -> 0, which leaves the threshold's limit 1/sqrt(2)
        assert omega_peak_threshold(1e-200) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_overflow_regime(self):
        # naive e^{-900} * erfi(30) is 0 * inf; only the scaled path works
        assert static_x_abs(det(), 60.0) == pytest.approx(
            ERFI_SCALED_30 / (240.0 * SQRT_PI), rel=1e-12)

    def test_small_argument(self):
        s = math.exp(-0.25) * ERFI_05
        expected = math.sqrt(math.exp(-0.5) + s * s) / (4.0 * SQRT_PI)
        assert static_x_abs(det(), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_bounded_everywhere(self):
        bound = 2.0 * DAWSON_MAX / SQRT_PI
        for d in np.logspace(-2, 3.3, 60):
            d = float(d)
            scaled = 4.0 * d * SQRT_PI * static_x_abs(det(), d)
            assert 0.0 < scaled <= math.sqrt(math.exp(-0.5 * d * d) + bound * bound)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            static_x_abs(det(), -0.1)

    def test_matches_taylor_erfi(self):
        # the literal closed forms, with erfi(x) = (2/sqrt(pi)) e^{x^2} F(x)
        # summed from its Taylor series wherever e^{x^2} is representable
        for x in np.linspace(0.0, 5.0, 100)[1:]:
            x = float(x)
            d = 2.0 * x
            erfi = erfi_taylor(x)
            literal = math.exp(-x * x) * math.sqrt(1.0 + erfi * erfi) / (4.0 * d * SQRT_PI)
            assert static_x_abs(det(), d) == pytest.approx(literal, rel=1e-10)
            f = 0.5 * SQRT_PI * math.exp(-x * x) * erfi
            e = (1.0 + erfi * erfi) * math.exp(-2.0 * x * x)
            for gap in (0.0, 1.0, 2.0):
                g2, d2 = gap * gap, d * d
                poly_a = d2 * d2 + 4.0 * d2 * (g2 - 1.0) + 8.0 * g2 - 4.0
                poly_b = d2 + 4.0 * g2 - 2.0
                bracket = math.pi * e * poly_a - 4.0 * d * f * poly_b
                literal = math.exp(-2.0 * g2) * bracket / (32.0 * math.pi ** 2 * d2 * d2)
                assert second_derivative_at_rest(det(gap), d) == pytest.approx(literal, rel=1e-9)


def test_erfcx_matches_erfc_in_safe_range():
    # P = (e^{-a^2} - sqrt(pi) a erfc(a)) / 4 pi, reassembled from erfc
    for a in np.linspace(0.0, 5.0, 50):
        a = float(a)
        literal = (math.exp(-a * a) - SQRT_PI * a * math.erfc(a)) / (4.0 * math.pi)
        assert transition_probability(det(a)) == pytest.approx(literal, rel=1e-13)


def test_erfcx_rejects_non_finite():
    # the gap reaches erfcx only through a validated DetectorSettings
    with pytest.raises(ValueError):
        transition_probability(det(math.nan))
    with pytest.raises(ValueError):
        transition_probability(det(math.inf))
