import math

import numpy as np
import pytest
from scipy.special import sici

from entharvest import oracle
from entharvest.model import (
    DetectorSettings,
    EncounterGeometry,
    correlation_x,
    transition_probability,
)
from entharvest.oracle import OracleSettings, p_momentum_oracle, x_momentum_oracle
from entharvest.quadrature import QuadratureSettings, integrate_interval

SETTINGS = OracleSettings()


def det(omega: float, sigma: float = 1.0) -> DetectorSettings:
    return DetectorSettings(sigma=sigma, omega=omega)


def record_tail_rhos(monkeypatch):
    """The rho array of every _sine_tail call: one per X outer pass."""
    rhos = []
    real = oracle._sine_tail

    def recorded(a, rho):
        rhos.append(rho)
        return real(a, rho)

    monkeypatch.setattr(oracle, "_sine_tail", recorded)
    return rhos


def record_inner_calls(monkeypatch):
    """(components, start panels) of every inner integrate_interval call."""
    calls = []
    real = oracle.integrate_interval

    def recorded(f, a, b, quad, spacing):
        res = real(f, a, b, quad, spacing)
        width = b - a
        panels = max(4, math.ceil(width / min(spacing, width)))
        calls.append((len(res) if isinstance(res, list) else 1, panels))
        return res

    monkeypatch.setattr(oracle, "integrate_interval", recorded)
    return calls


class TestSettingsValidation:
    def test_rejects_short_radial_cutoff(self):
        with pytest.raises(ValueError):
            OracleSettings(k_truncation_sigmas=4.0)


class TestPOracle:
    def test_at_rest(self):
        value, err = p_momentum_oracle(det(1.0), 0.0, SETTINGS)
        assert value == pytest.approx(transition_probability(det(1.0)), abs=1e-6)
        assert err < 1e-6

    def test_velocity_independence(self):
        # a single inertial detector cannot know its velocity
        target = transition_probability(det(1.0))
        for v in (0.3, 0.9):
            value, _ = p_momentum_oracle(det(1.0), v, SETTINGS)
            assert value == pytest.approx(target, abs=1e-6)

    def test_zero_gap_moving(self):
        value, _ = p_momentum_oracle(det(0.0), 0.5, SETTINGS)
        assert value == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-6)

    def test_error_bound_is_honest(self):
        value, err = p_momentum_oracle(det(2.0), 0.7, SETTINGS)
        assert abs(value - transition_probability(det(2.0))) <= max(err, 1e-9)


class TestXOracle:
    points = [
        (1.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),
        (1.0, 0.6, 1.0),
        (0.5, 0.9, 2.0),
        (2.0, 0.3, 0.5),
    ]

    @pytest.mark.parametrize("d,v,gap", points)
    def test_matches_fast_path(self, d, v, gap):
        fast = correlation_x(det(gap), EncounterGeometry(d=d, v=v)).value
        slow, err = x_momentum_oracle(det(gap), EncounterGeometry(d=d, v=v), SETTINGS)
        assert abs(slow - fast) <= 1e-5 * max(abs(fast), 1e-10)
        assert err < 1e-5

    def test_each_inner_integral_runs_once(self, monkeypatch):
        # the outer integrand is even in u, so it is integrated over u >= 0
        # only: no radial integral may be repeated for the mirror node -u
        rhos = record_tail_rhos(monkeypatch)
        x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.6), SETTINGS)
        rho = np.sort(np.concatenate(rhos))
        # +u and -u give rho values a few ulps apart, so compare to 1e-12
        assert rho.size > 100 and np.all(np.diff(rho) > 1e-12 * rho[1:])

    def test_cutoff_extension_within_error(self):
        # doubling the radial cutoff must move the answer by less than the
        # reported error estimate; a wrong tail model would show up here
        geom = EncounterGeometry(d=1.0, v=0.6)
        base, err = x_momentum_oracle(det(1.0), geom, SETTINGS)
        wide, _ = x_momentum_oracle(
            det(1.0), geom, OracleSettings(k_truncation_sigmas=24.0))
        assert abs(wide - base) <= err

    def test_scale_invariance(self):
        a, _ = x_momentum_oracle(det(1.0, sigma=1.0), EncounterGeometry(d=1.0, v=0.5), SETTINGS)
        b, _ = x_momentum_oracle(det(0.5, sigma=2.0), EncounterGeometry(d=2.0, v=0.5), SETTINGS)
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_loose_quadrature_degrades_gracefully(self):
        loose = OracleSettings(quad=QuadratureSettings(rel_tol=1e-5, abs_tol=1e-9))
        fast = correlation_x(det(1.0), EncounterGeometry(d=1.0, v=0.3)).value
        slow, err = x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.3), loose)
        assert abs(slow - fast) <= max(10.0 * err, 1e-4)


def _scalar_sine_tail(a: float, rho: float) -> float:
    """The asymptotic tail series of oracle._sine_tail, one rho at a time in math."""
    x = a * rho
    s = 0.5 * math.pi - float(sici(x)[0])
    total = oracle._DAWSON_ASYMPTOTIC[0] * s
    n = 1
    for k in range(1, len(oracle._DAWSON_ASYMPTOTIC)):
        s = (math.sin(x) / ((n + 1) * x ** (n + 1))
             + math.cos(x) / ((n + 1) * n * x ** n) - s / ((n + 1) * n))
        n += 2
        total += oracle._DAWSON_ASYMPTOTIC[k] * rho ** (2 * k) * s
    return 2.0 / math.sqrt(math.pi) * total


class TestBatchedInnerIntegrals:
    def test_one_vector_call_per_octave_within_budget(self, monkeypatch):
        calls = record_inner_calls(monkeypatch)
        rhos = record_tail_rhos(monkeypatch)
        x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.6), SETTINGS)
        distinct = np.unique(np.concatenate(rhos)).size
        assert len(calls) <= 20
        assert all(m * panels <= oracle._PANEL_BUDGET for m, panels in calls)
        assert sum(m for m, _ in calls) == distinct

    def test_static_pass_needs_one_inner_integral(self, monkeypatch):
        # at v = 0 every outer node has the same rho
        calls = record_inner_calls(monkeypatch)
        rhos = record_tail_rhos(monkeypatch)
        x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.0), SETTINGS)
        assert [rho.size for rho in rhos] == [1] * len(rhos)
        assert [m for m, _ in calls] == [1] * len(rhos)

    def test_vector_sine_tail_matches_scalar(self):
        rho = np.array([1e-3, 0.5, 3.0, 18.0])
        a = SETTINGS.k_truncation_sigmas
        value, _ = oracle._sine_tail(a, rho)
        expected = [_scalar_sine_tail(a, float(p)) for p in rho]
        np.testing.assert_allclose(value, expected, rtol=1e-14, atol=0.0)

    def test_grouped_call_matches_scalar_calls(self, monkeypatch):
        # 4 rho / pi spans (1, 4]: two octaves, so two vector calls
        rho = np.array([1.0, 1.5, 2.5, 3.0])
        spacing = np.pi / (4.0 * rho)
        a = SETTINGS.k_truncation_sigmas
        quad = SETTINGS.quad
        scalar = [
            integrate_interval(lambda r, p=p: oracle._radial(p, r), 0.0, a, quad, s)
            for p, s in zip(rho, spacing)
        ]
        calls = record_inner_calls(monkeypatch)
        values, errors = oracle._inner_integrals(oracle._radial, rho, spacing, 0.0, a, quad)
        assert [m for m, _ in calls] == [2, 2]
        for one, value, error in zip(scalar, values, errors):
            assert abs(value - one.value) <= error + one.error_estimate
