import math

import numpy as np
import pytest
from scipy.special import dawsn, sici

from entharvest import oracle, quadrature
from entharvest.model import (
    DetectorSettings,
    EncounterGeometry,
    negativity,
    transition_probability,
)
from entharvest.oracle import p_momentum_oracle, x_momentum_oracle
from entharvest.quadrature import QuadratureSettings, _initial_spacing, integrate_interval


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


def record_x_spacing(monkeypatch, rule=None):
    """(rho, spacing) of every inner _inner_integrals call of the X oracle;
    with a rule, the spacing is replaced by rule(rho) before the call."""
    calls = []
    real = oracle._inner_integrals

    def recorded(f, params, spacing, a, b, quad):
        if rule is not None:
            spacing = rule(params)
        calls.append((params, spacing))
        return real(f, params, spacing, a, b, quad)

    monkeypatch.setattr(oracle, "_inner_integrals", recorded)
    return calls


def start_panels(a: float, b: float, spacing: float) -> int:
    """Start panels integrate_interval builds on [a, b] at this spacing."""
    return len(quadrature._start_edges(a, b, min(spacing, b - a))) - 1


def record_inner_calls(monkeypatch):
    """(components, start panels) of every inner integrate_interval call."""
    calls = []
    real = oracle.integrate_interval

    def recorded(f, a, b, quad, spacing):
        res = real(f, a, b, quad, spacing)
        calls.append((np.size(res.value), start_panels(a, b, spacing)))
        return res

    monkeypatch.setattr(oracle, "integrate_interval", recorded)
    return calls


class TestPOracle:
    def test_at_rest(self):
        value, err = p_momentum_oracle(det(1.0), 0.0)
        assert value == pytest.approx(transition_probability(det(1.0)), abs=1e-6)
        assert err < 1e-6

    def test_velocity_independence(self):
        # a single inertial detector cannot know its velocity
        target = transition_probability(det(1.0))
        for v in (0.3, 0.9):
            value, _ = p_momentum_oracle(det(1.0), v)
            assert value == pytest.approx(target, abs=1e-6)

    def test_zero_gap_moving(self):
        value, _ = p_momentum_oracle(det(0.0), 0.5)
        assert value == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-6)

    def test_error_bound_is_honest(self):
        value, err = p_momentum_oracle(det(2.0), 0.7)
        assert abs(value - transition_probability(det(2.0))) <= max(err, 1e-9)


class TestXOracle:
    points = [
        (1.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),
        (1.0, 0.6, 1.0),
        (0.5, 0.9, 2.0),
        (2.0, 0.3, 0.5),
        # near light speed, where X's start panels are graded toward t = 0
        (1.0, 0.999, 1.0),
        (0.5, 1.0 - 1e-6, 2.0),
        (1.0, 1.0 - 1e-9, 0.5),
    ]

    @pytest.mark.parametrize("d,v,gap", points)
    def test_matches_fast_path(self, d, v, gap):
        fast = negativity(det(gap), EncounterGeometry(d=d, v=v)).x
        slow, err = x_momentum_oracle(det(gap), EncounterGeometry(d=d, v=v))
        assert abs(slow - fast) <= 1e-5 * max(abs(fast), 1e-10)
        assert err < 1e-5

    def test_each_inner_integral_runs_once(self, monkeypatch):
        # the outer integrand is even in u, so it is integrated over u >= 0
        # only: no radial integral may be repeated for the mirror node -u
        rhos = record_tail_rhos(monkeypatch)
        x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.6))
        rho = np.sort(np.concatenate(rhos))
        # +u and -u give rho values a few ulps apart, so compare to 1e-12
        assert rho.size > 100 and np.all(np.diff(rho) > 1e-12 * rho[1:])

    def test_cutoff_extension_within_error(self, monkeypatch):
        # doubling the radial cutoff must move the answer by less than the
        # reported error estimate; a wrong tail model would show up here
        geom = EncounterGeometry(d=1.0, v=0.6)
        base, err = x_momentum_oracle(det(1.0), geom)
        monkeypatch.setattr(oracle, "_RADIAL_CUTOFF", 24.0)
        wide, _ = x_momentum_oracle(det(1.0), geom)
        assert abs(wide - base) <= err

    def test_scale_invariance(self):
        a, _ = x_momentum_oracle(det(1.0, sigma=1.0), EncounterGeometry(d=1.0, v=0.5))
        b, _ = x_momentum_oracle(det(0.5, sigma=2.0), EncounterGeometry(d=2.0, v=0.5))
        assert abs(a - b) <= 1e-8 * abs(a)


class TestGapAxis:
    @pytest.mark.parametrize("v", [0.0, 0.9, 0.999999])
    def test_agrees_with_one_gap_oracles(self, monkeypatch, v):
        # one outer integral for every gap, on start panels sized for gap 4
        gaps = [0.0, 1.0, 4.0]
        rhos = record_tail_rhos(monkeypatch)
        values, errors = oracle._x_oracle(1.0, v, gaps)
        if v == 0.0:  # every outer node has the same rho
            assert [rho.size for rho in rhos] == [1] * len(rhos)
        assert values.shape == errors.shape == (3,)
        for gap, value, error in zip(gaps, values, errors):
            one, one_err = x_momentum_oracle(det(gap), EncounterGeometry(d=1.0, v=v))
            assert abs(value - one) <= error + one_err

    def test_one_outer_integral_shares_each_pass_inner_integrals(self, monkeypatch):
        # the inner integrals depend on rho alone: one outer integral holds
        # every gap, each of its passes takes the sine tail once, and no
        # rho is integrated twice
        rhos = record_tail_rhos(monkeypatch)
        outer_calls, passes = [], []
        real = oracle.integrate_line

        def recorded(f, *args, **kwargs):
            outer_calls.append(f)
            return real(lambda u: passes.append(u.size) or f(u), *args, **kwargs)

        monkeypatch.setattr(oracle, "integrate_line", recorded)
        oracle._x_oracle(1.0, 0.6, [0.0, 1.0, 4.0])
        assert len(outer_calls) == 1 and len(passes) == len(rhos) > 1
        rho = np.sort(np.concatenate(rhos))
        assert rho.size > 100 and np.all(np.diff(rho) > 1e-12 * rho[1:])

    @pytest.mark.parametrize("d,v,gap", [(1.0, 0.0, 1.0), (0.5, 0.9, 4.0), (1.0, 1.0 - 1e-9, 0.5)])
    def test_one_gap_is_the_public_oracle_bit_for_bit(self, d, v, gap):
        # sigma = 2 scales d and the gap by powers of 2, exactly
        values, errors = oracle._x_oracle(d, v, [gap])
        value, err = x_momentum_oracle(det(gap / 2.0, sigma=2.0), EncounterGeometry(d=2.0 * d, v=v))
        assert values.tobytes() == np.array([value]).tobytes()
        assert errors.tobytes() == np.array([err]).tobytes()


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
    def test_vector_calls_stay_within_the_panel_budget(self, monkeypatch):
        calls = record_inner_calls(monkeypatch)
        rhos = record_tail_rhos(monkeypatch)
        x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.6))
        distinct = np.unique(np.concatenate(rhos)).size
        assert len(calls) <= 20
        assert all(m * panels <= oracle._PANEL_BUDGET for m, panels in calls)
        assert sum(m for m, _ in calls) == distinct

    def test_static_pass_needs_one_inner_integral(self, monkeypatch):
        # at v = 0 every outer node has the same rho
        calls = record_inner_calls(monkeypatch)
        rhos = record_tail_rhos(monkeypatch)
        x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.0))
        assert [rho.size for rho in rhos] == [1] * len(rhos)
        assert [m for m, _ in calls] == [1] * len(rhos)

    def test_vector_sine_tail_matches_scalar(self):
        rho = np.array([1e-3, 0.5, 3.0, 18.0])
        a = oracle._RADIAL_CUTOFF
        value, _ = oracle._sine_tail(a, rho)
        expected = [_scalar_sine_tail(a, float(p)) for p in rho]
        np.testing.assert_allclose(value, expected, rtol=1e-14, atol=0.0)

    def test_stacks_cover_the_parameters_finest_last_within_budget(self, monkeypatch):
        # rho from 0.1 to 60 in no order: each stack is one call on its
        # finest member's spacing, holds as many parameters as fit
        # _PANEL_BUDGET on that member's start panels, and could not also
        # take the next coarser one
        rho = np.random.default_rng(7).permutation(np.geomspace(0.1, 60.0, 200))
        spacing = math.pi / (2.0 * np.maximum(rho, 0.5 * math.pi))
        a, quad = oracle._RADIAL_CUTOFF, QuadratureSettings()
        seen, stacks = [], []
        real = oracle.integrate_interval

        def radial(p, r):
            seen.append(p[:, 0])
            return oracle._radial(p, r)

        def recorded(f, a, b, quad, step):
            first = len(seen)
            res = real(f, a, b, quad, step)
            stacks.append((seen[first], step))
            return res

        monkeypatch.setattr(oracle, "integrate_interval", recorded)
        values, _ = oracle._inner_integrals(radial, rho, spacing, 0.0, a, quad)
        order = np.argsort(-spacing, kind="stable")
        assert len(stacks) > 2
        assert np.concatenate([params for params, _ in stacks]).tobytes() == rho[order].tobytes()
        panels = [start_panels(0.0, a, step) for _, step in stacks]
        for k, ((params, step), n) in enumerate(zip(stacks, panels)):
            assert step == spacing[rho == params[-1]][0] == spacing[np.isin(rho, params)].min()
            assert params.size == 1 or params.size * n <= oracle._PANEL_BUDGET
            assert k == 0 or (params.size + 1) * n > oracle._PANEL_BUDGET
        assert np.isfinite(values).all()

    def test_grouped_call_matches_scalar_calls(self, monkeypatch):
        # the oracle's quarter-period spacing: 46 start panels of pi / 12,
        # the finest, hold all four under _PANEL_BUDGET, so one vector call
        rho = np.array([2.0, 3.0, 4.0, 6.0])
        spacing = np.array([_initial_spacing(1.0, p) for p in rho])
        a = oracle._RADIAL_CUTOFF
        quad = QuadratureSettings()
        scalar = [
            integrate_interval(lambda r, p=p: oracle._radial(p, r), 0.0, a, quad, s)
            for p, s in zip(rho, spacing)
        ]
        calls = record_inner_calls(monkeypatch)
        values, errors = oracle._inner_integrals(oracle._radial, rho, spacing, 0.0, a, quad)
        assert [m for m, _ in calls] == [4]
        for one, value, error in zip(scalar, values, errors):
            assert abs(value - one.value) <= error + one.error_estimate


class TestQuarterPeriodPanels:
    def test_radial_is_the_literal_product_bit_for_bit(self):
        rho = np.geomspace(1e-3, 18.0, 9)[:, None]
        r = np.concatenate([[0.0], np.linspace(1e-3, oracle._RADIAL_CUTOFF, 301)])
        expected = (np.exp(-r * r) + 1j * (2.0 / math.sqrt(math.pi)) * dawsn(r)) * np.sin(rho * r)
        value = oracle._radial(rho, r)
        assert value.shape == expected.shape and value.dtype == expected.dtype
        assert value.tobytes() == expected.tobytes()

    def test_inner_spacing_is_the_quarter_period_rule(self, monkeypatch):
        # d = 1, v = 0.6: rho starts at 0.8 and grows with u, so both the
        # clipped (rho <= pi/2) and the pi / (2 rho) branch are reached
        calls = record_x_spacing(monkeypatch)
        x_momentum_oracle(det(1.0), EncounterGeometry(d=1.0, v=0.6))
        rho = np.concatenate([params for params, _ in calls])
        spacing = np.concatenate([spacing for _, spacing in calls])
        assert rho.min() < 0.5 * math.pi < rho.max()
        expected = np.array([_initial_spacing(1.0, float(p)) for p in rho])
        assert spacing.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d,v,gap", [(0.5, 0.9, 4.0), (2.0, 0.9, 4.0), (0.5, 1.0 - 1e-6, 2.0)])
    def test_agrees_with_eighth_period_panels(self, monkeypatch, d, v, gap):
        # the coarse validate grid's costliest points and one near light
        # speed: panels twice as fine must agree within both error estimates
        geom = EncounterGeometry(d=d, v=v)
        quarter, quarter_err = x_momentum_oracle(det(gap), geom)
        calls = record_x_spacing(
            monkeypatch, lambda rho: math.pi / (4.0 * np.maximum(rho, 0.25 * math.pi)))
        eighth, eighth_err = x_momentum_oracle(det(gap), geom)
        assert calls
        assert abs(quarter - eighth) <= quarter_err + eighth_err
