import math

import numpy as np
import pytest

from entharvest import model
from entharvest.model import (
    DetectorSettings,
    EncounterGeometry,
    NoFiniteThresholdError,
    RegionLabel,
    classify_region,
    correlation_x,
    find_peak_velocity,
    negativity,
    negativity_row,
    omega_peak_threshold,
    second_derivative_at_rest,
    spacelike_min_distance,
    static_negativity,
    static_x_abs,
    transition_probability,
    velocity_profile,
    velocity_scan_grid,
)
from entharvest.quadrature import QuadratureSettings

QUAD = QuadratureSettings()
ONE_OVER_4PI = 1.0 / (4.0 * math.pi)

# |X| at d/sigma = 1, v = 0, omega = 0, frozen from the closed form
STATIC_X_D1 = 0.12895620084875783


def det(sigma: float = 1.0, omega: float = 0.0) -> DetectorSettings:
    return DetectorSettings(sigma=sigma, omega=omega)


class TestTransitionProbability:
    def test_zero_gap(self):
        assert transition_probability(det(omega=0.0)) == pytest.approx(ONE_OVER_4PI, rel=1e-14)

    def test_unit_gap(self):
        p = transition_probability(det(omega=1.0))
        # reassemble from the unscaled complementary error function
        direct = (math.exp(-1.0) - math.sqrt(math.pi) * math.erfc(1.0)) / (4.0 * math.pi)
        assert p == pytest.approx(direct, rel=1e-12)
        assert p == pytest.approx(0.0070883, abs=1e-7)

    def test_large_gap_underflows_gracefully(self):
        p = transition_probability(det(omega=10.0))
        assert 0.0 < p < 1e-40

    def test_scale_invariance(self):
        assert transition_probability(det(sigma=3.0, omega=0.5)) == \
            transition_probability(det(sigma=1.0, omega=1.5))

    def test_monotone_in_gap(self):
        ps = [transition_probability(det(omega=w)) for w in np.linspace(0.0, 5.0, 60)]
        assert all(a > b for a, b in zip(ps, ps[1:]))


class TestCorrelationX:
    def test_static_reduction(self):
        for d in (0.5, 1.0, 2.0, 4.0, 8.0):
            for gap in (0.0, 0.5, 1.0, 2.0):
                x = correlation_x(det(omega=gap), EncounterGeometry(d=d, v=0.0), QUAD)
                assert abs(x.value) == pytest.approx(
                    static_x_abs(det(omega=gap), d), rel=1e-8)

    def test_static_reference_value(self):
        x = correlation_x(det(), EncounterGeometry(d=1.0, v=0.0), QUAD)
        assert abs(x.value) == pytest.approx(STATIC_X_D1, rel=1e-9)

    def test_large_separation_decays(self):
        # |X| falls off like 1/d^2, so entanglement dies once P wins
        x = correlation_x(det(omega=1.0), EncounterGeometry(d=20.0, v=0.5), QUAD)
        assert abs(x.value) < 1e-3
        assert abs(x.value) < transition_probability(det(omega=1.0))

    def test_even_in_velocity_sign_path(self):
        # v enters only through v^2; sqrt(v*v) differs from v in the last ulp
        v = 0.37
        a = correlation_x(det(omega=1.0), EncounterGeometry(d=1.0, v=v), QUAD)
        b = correlation_x(det(omega=1.0), EncounterGeometry(d=1.0, v=math.sqrt(v * v)), QUAD)
        assert abs(a.value - b.value) <= 1e-12 * abs(a.value)

    def test_scale_invariance(self):
        a = correlation_x(det(sigma=1.0, omega=2.0), EncounterGeometry(d=1.5, v=0.6), QUAD)
        b = correlation_x(det(sigma=3.0, omega=2.0 / 3.0), EncounterGeometry(d=4.5, v=0.6), QUAD)
        assert abs(a.value - b.value) <= 1e-9 * abs(a.value)

    def test_scale_invariance_is_exact(self):
        # at omega = 0 the rescaled inputs are bit-identical: 6/3 is exactly 2
        a = correlation_x(det(sigma=1.0), EncounterGeometry(d=2.0, v=0.5))
        b = correlation_x(det(sigma=3.0), EncounterGeometry(d=6.0, v=0.5))
        assert a.value == b.value

    def test_error_estimate_present(self):
        x = correlation_x(det(omega=1.0), EncounterGeometry(d=1.0, v=0.3), QUAD)
        assert 0.0 < x.error_estimate < 1e-9


class TestStaticClosedForms:
    def test_negativity_reference(self):
        n = static_negativity(det(), 1.0)
        assert n == pytest.approx(STATIC_X_D1 - ONE_OVER_4PI, rel=1e-12)
        assert n == pytest.approx(0.049378, abs=1e-6)

    def test_far_separation_extinct(self):
        assert static_negativity(det(), 60.0) == 0.0
        assert static_negativity(det(omega=0.5), 8.0) == 0.0

    def test_decreasing_in_distance_where_positive(self):
        for gap in (0.0, 1.0, 2.0):
            ds = np.linspace(0.05, 6.0, 50)
            ns = [static_negativity(det(omega=gap), float(d)) for d in ds]
            pos = [n for n in ns if n > 0.0]
            assert all(a > b for a, b in zip(pos, pos[1:]))

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            static_x_abs(det(), 0.0)


class TestNegativityAssembly:
    def test_invariant(self):
        q = negativity(det(omega=0.5), EncounterGeometry(d=1.0, v=0.3), QUAD)
        assert q.negativity == max(q.m, 0.0)
        assert q.m == pytest.approx(abs(q.x) - q.p, abs=1e-15)

    def test_degenerate_gap_never_entangles_far(self):
        for v in velocity_scan_grid(50):
            q = negativity(det(omega=0.0), EncounterGeometry(d=2.0, v=float(v)), QUAD)
            assert q.negativity == 0.0

    def test_close_zero_gap_entangles(self):
        q = negativity(det(omega=0.0), EncounterGeometry(d=0.5, v=0.0), QUAD)
        assert q.negativity > 0.0

    def test_ultra_relativistic_extinction(self):
        q = negativity(det(omega=1.0), EncounterGeometry(d=1.0, v=1.0 - 1e-12), QUAD)
        assert q.negativity == 0.0


class TestNegativityRow:
    def test_any_exception_stays_with_its_v(self, monkeypatch):
        bad = 0.6
        real = model._x_integrals

        def broken(d, vs, gap, settings):
            if bad in list(vs):
                raise ValueError("broken velocity")
            return real(d, vs, gap, settings)

        monkeypatch.setattr(model, "_x_integrals", broken)
        vs = [0.0, 0.3, bad, 0.9]
        row = negativity_row(det(omega=1.0), 1.0, vs, QUAD)
        for v, q in zip(vs, row):
            if v == bad:
                assert isinstance(q, ValueError) and str(q) == "broken velocity"
            else:
                assert q == negativity(det(omega=1.0), EncounterGeometry(d=1.0, v=v), QUAD)


class TestSpacelike:
    def test_at_rest(self):
        assert spacelike_min_distance(0.0, 1.0) == 6.0

    def test_reference_velocity(self):
        # 6 / sqrt(1 - 0.8^2) = 10 up to roundoff in the binary 0.8
        got = spacelike_min_distance(0.8, 1.0)
        assert abs(got - 10.0) <= 2.0 * math.ulp(10.0)

    def test_diverges_near_lightspeed(self):
        assert spacelike_min_distance(1.0 - 1e-12, 1.0) > 1e5

    def test_monotone_in_speed(self):
        vs = np.linspace(0.0, 0.999, 60)
        ds = [spacelike_min_distance(float(v), 1.0) for v in vs]
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_scales_with_sigma(self):
        assert spacelike_min_distance(0.5, 3.0) == 3.0 * spacelike_min_distance(0.5, 1.0)

    def test_rejects_lightspeed(self):
        with pytest.raises(ValueError):
            spacelike_min_distance(1.0, 1.0)


class TestGapThreshold:
    def test_reference_values(self):
        assert omega_peak_threshold(1.0) == pytest.approx(0.8215, abs=1e-3)
        assert omega_peak_threshold(2.0) == pytest.approx(0.8480, abs=1e-3)

    def test_sign_flip_of_second_derivative(self):
        for d in (0.5, 1.0, 2.0, 3.0):
            wp = omega_peak_threshold(d)
            below = second_derivative_at_rest(det(omega=wp * (1.0 - 1e-6)), d)
            above = second_derivative_at_rest(det(omega=wp * (1.0 + 1e-6)), d)
            assert below < 0.0 < above

    def test_matches_finite_difference(self):
        d, gap = 1.5, 1.2
        closed = second_derivative_at_rest(det(omega=gap), d)
        h2 = 1e-4
        v = math.sqrt(h2)
        x0 = abs(correlation_x(det(omega=gap), EncounterGeometry(d=d, v=0.0), QUAD).value)
        xv = abs(correlation_x(det(omega=gap), EncounterGeometry(d=d, v=v), QUAD).value)
        fd = (xv * xv - x0 * x0) / h2
        assert fd == pytest.approx(closed, rel=1e-2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            omega_peak_threshold(0.0)


class TestPeakSearch:
    def test_moving_peak(self):
        peak = find_peak_velocity(det(omega=1.0), 1.0, QUAD)
        assert peak is not None
        assert 0.25 < peak.v_star < 0.35
        assert peak.n_star > negativity(
            det(omega=1.0), EncounterGeometry(d=1.0, v=0.0), QUAD).negativity
        assert not peak.multimodal

    def test_no_interior_peak_below_threshold(self):
        assert find_peak_velocity(det(omega=0.5), 1.0, QUAD) is None

    def test_no_peak_at_zero_gap(self):
        assert find_peak_velocity(det(omega=0.0), 2.0, QUAD) is None


class TestRegionClassification:
    def test_peaked(self):
        assert classify_region(det(omega=2.0), 1.0, QUAD) is RegionLabel.PEAKED

    def test_monotone(self):
        assert classify_region(det(omega=0.5), 0.5, QUAD) is RegionLabel.MONOTONE_DECREASING

    def test_extinct(self):
        assert classify_region(det(omega=0.5), 8.0, QUAD) is RegionLabel.NO_ENTANGLEMENT

    @pytest.mark.parametrize("omega, d, label", [
        (2.0, 1.0, RegionLabel.PEAKED),
        (0.5, 0.5, RegionLabel.MONOTONE_DECREASING),
        (0.5, 8.0, RegionLabel.NO_ENTANGLEMENT),
    ])
    def test_profile_agrees_with_views(self, omega, d, label):
        profile = velocity_profile(det(omega=omega), d, QUAD)
        assert profile.label is label
        assert classify_region(det(omega=omega), d, QUAD) is label
        assert find_peak_velocity(det(omega=omega), d, QUAD) == profile.peak
        assert (profile.peak is not None) == (label is RegionLabel.PEAKED)
        assert profile.v.tolist() == velocity_scan_grid(64).tolist()
        assert profile.n.shape == profile.v.shape


BAD_D = (0.0, -1.0, math.nan, math.inf)
BAD_SIGMA = (0.0, math.inf)
D_CALLS = {
    "static_x_abs": lambda d: static_x_abs(det(), d),
    "omega_peak_threshold": omega_peak_threshold,
    "second_derivative_at_rest": lambda d: second_derivative_at_rest(det(), d),
    "velocity_profile": lambda d: velocity_profile(det(), d, QUAD),
}
SIGMA_CALLS = {
    "omega_peak_threshold": lambda sigma: omega_peak_threshold(1.0, sigma),
    "spacelike_min_distance": lambda sigma: spacelike_min_distance(0.5, sigma),
}


class TestInputValidation:
    @pytest.mark.parametrize("call, value", [
        *(pytest.param(call, d, id=f"{name}-d={d}")
          for name, call in D_CALLS.items() for d in BAD_D),
        *(pytest.param(call, sigma, id=f"{name}-sigma={sigma}")
          for name, call in SIGMA_CALLS.items() for sigma in BAD_SIGMA),
    ])
    def test_rejects_bad_scale(self, call, value):
        with pytest.raises(ValueError):
            call(value)

    def test_detector(self):
        with pytest.raises(ValueError):
            DetectorSettings(sigma=0.0, omega=1.0)
        with pytest.raises(ValueError):
            DetectorSettings(sigma=1.0, omega=-1.0)

    def test_geometry(self):
        with pytest.raises(ValueError):
            EncounterGeometry(d=-1.0, v=0.5)
        with pytest.raises(ValueError):
            EncounterGeometry(d=1.0, v=1.0)

    def test_threshold_divergence_guard(self):
        # beyond d/sigma of roughly 3.7 no finite threshold exists
        with pytest.raises(NoFiniteThresholdError):
            omega_peak_threshold(4.0)

    def test_threshold_small_separation_limit(self):
        # d -> 0 limit is 1/sqrt(2)
        assert omega_peak_threshold(0.01) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
