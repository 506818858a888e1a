import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entharvest import model, quadrature
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
)
from entharvest.quadrature import QuadratureSettings
from entharvest.sweep import GridSpec, run_region_scan

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
        # from gap ~4.5 on |X| is below abs_tol, which then governs
        for d in (0.5, 1.0, 2.0, 4.0, 8.0):
            for gap in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
                x = correlation_x(det(omega=gap), EncounterGeometry(d=d, v=0.0), QUAD)
                closed = static_x_abs(det(omega=gap), d)
                assert abs(abs(x.value) - closed) <= max(1e-8 * closed, QUAD.abs_tol)

    def test_x_integrand_is_never_evaluated_at_negative_t(self, monkeypatch):
        # the bracket is even in s, so X integrates it on s >= 0 only
        smallest = []
        real = model.integrate_line

        def recording(integrand, *args, **kwargs):
            def seen(t):
                smallest.append(t.min())
                return integrand(t)
            return real(seen, *args, **kwargs)

        monkeypatch.setattr(model, "integrate_line", recording)
        row = negativity_row(det(omega=1.0), 1.0, [0.0, 0.5, 0.99, 1.0 - 1e-9], QUAD)
        assert not any(isinstance(q, Exception) for q in row)
        assert smallest and min(smallest) >= 0.0

    def test_near_lightspeed_x_converges_on_the_first_pass(self, monkeypatch):
        # the start panels are graded toward s = 0 from the branch-point
        # distance s_b = d sqrt(1-v^2) / v, about 4.5e-5 here
        calls = []
        real = model.integrate_line

        def counting(integrand, *args, **kwargs):
            def counted(t):
                calls.append(t.size)
                return integrand(t)
            return real(counted, *args, **kwargs)

        monkeypatch.setattr(model, "integrate_line", counting)
        model._x_integrals(1.0, [1.0 - 1e-9], [2.0], QUAD)
        assert len(calls) == 2  # the window edge, then one pass

    def test_batch_agrees_with_single_velocities(self):
        vs = [0.0, 0.9, 1.0 - 1e-6, 1.0 - 1e-9]
        (batch,), (batch_err,) = model._x_integrals(1.0, vs, [1.0], QUAD)
        for v, b, b_err in zip(vs, batch, batch_err):
            ((alone,),), ((alone_err,),) = model._x_integrals(1.0, [v], [1.0], QUAD)
            assert abs(b - alone) <= b_err + alone_err

    @pytest.mark.parametrize("d,v,gap", [
        (0.5, 0.99, 0.0), (1.0, 0.999, 1.0), (2.0, 1.0 - 1e-5, 2.0),
        (0.5, 1.0 - 1e-6, 3.0), (1.0, 1.0 - 1e-8, 0.5), (4.0, 1.0 - 1e-9, 1.0),
    ])
    def test_graded_start_agrees_with_uniform_start(self, monkeypatch, d, v, gap):
        real = model.integrate_line
        graded = correlation_x(det(omega=gap), EncounterGeometry(d=d, v=v), QUAD)

        def undeclared(integrand, *args, singularity_distance, **kwargs):
            return real(integrand, *args, **kwargs)

        monkeypatch.setattr(model, "integrate_line", undeclared)
        uniform = correlation_x(det(omega=gap), EncounterGeometry(d=d, v=v), QUAD)
        assert abs(graded.value - uniform.value) <= graded.error_estimate + uniform.error_estimate

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


def mp_u_form(mp, d, v, gap, s):
    """The module docstring's u-form integrand at u = s / sqrt(1 - v^2), in
    mpmath at its working precision: the real and imaginary parts of
    e^{-A} (1 + i erfi(x)) / q, each times cos(gap s) and the Jacobian
    du/ds, from the literal A and erfi with no Dawson rewrite."""
    d, v, gap, s = (mp.mpf(a) for a in (d, v, gap, s))
    b2 = 1 - v * v
    jacobian = 1 / mp.sqrt(b2)
    u = jacobian * s
    q = mp.sqrt(v * v * u * u + d * d)
    a = (d * d * b2 + u * u * (1 - v ** 4)) / 4
    x = mp.sqrt(b2) * q / 2
    phase = jacobian * mp.cos(gap * mp.sqrt(b2) * u) / q
    return mp.exp(-a) * phase, mp.exp(-a) * mp.erfi(x) * phase


class TestProperTime:
    """X is integrated in proper time s = u sqrt(1 - v^2); see model._x_integrals."""

    @pytest.mark.parametrize("d,v,gap,s", [
        (1.0, 0.5, 1.0, 0.7), (2.0, 0.99, 2.0, 3.1), (0.5, 1.0 - 1e-6, 1.0, 0.01),
        (0.3, 0.0, 0.5, 2.0), (1.0, 1.0 - 1e-9, 3.0, 1e-4), (4.0, 0.3, 0.0, 5.0),
        (1.0, 0.9, 6.0, 0.2),
    ])
    def test_integrand_is_the_u_form_times_the_jacobian(self, d, v, gap, s):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = [float(part) for part in mp_u_form(mp, d, v, gap, s)]
        got = model._x_integrand(d, [v], [gap])(np.array([s]))[:, 0]
        for g, r in zip(got, ref):
            assert abs(g - r) <= 16 * np.spacing(abs(r))

    def test_integrand_lists_r_then_i_for_every_gap_and_v(self):
        vs, gaps, s = [0.0, 0.6, 1.0 - 1e-9], np.array([0.5, 1.0]), np.linspace(0.1, 9.0, 7)
        block = model._x_integrand(1.0, vs, gaps)(s).reshape(2, gaps.size, len(vs), s.size)
        for k, gap in enumerate(gaps):
            for i, v in enumerate(vs):
                assert np.array_equal(block[:, k, i], model._x_integrand(1.0, [v], [gap])(s))

    @pytest.mark.parametrize("d", [0.1, 1.0, 4.0])
    @pytest.mark.parametrize("v", [0.99, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_dawson_part_is_below_eps_of_its_peak_at_the_cut(self, d, v):
        # the start panels end at c times the declared width: the Dawson
        # part decays as e^{-s^2/4} at every v, so the width is 2, not the
        # 2 / sqrt(1 + v^2) of e^{-A}, at whose cut it is far above eps
        eps = np.finfo(float).eps
        width = model._x_start(d, [v], [0.0])[0]
        imag = lambda s: model._x_integrand(d, [v], np.array([0.0]))(np.asarray(s))[1]
        peak = imag(np.linspace(0.0, 10.0, 2001)).max()
        assert width == 2.0
        assert imag([quadrature._NEGLIGIBLE_SIGMAS * width])[0] < eps * peak
        narrow = quadrature._NEGLIGIBLE_SIGMAS * 2.0 / math.sqrt(1.0 + v * v)
        assert imag([narrow])[0] > 1e6 * eps * peak

    @pytest.mark.parametrize("gaps", [[0.0, 0.5], [1.6, 2.1, 2.6, 3.1]])
    @pytest.mark.parametrize("batch", [[0.0, 0.5, 0.9], [0.3, 0.6, 0.99, 1.0 - 1e-9]])
    def test_block_capacity_counts_the_start_panels_integrate_line_builds(
            self, monkeypatch, gaps, batch):
        gaps = np.array(gaps)  # all up to pi, so one run and one _line_capacity call
        capacities, panels = [], []
        real_capacity, real_adaptive = model._line_capacity, quadrature._adaptive

        def capacity(*args, **kwargs):
            capacities.append(real_capacity(*args, **kwargs))
            return capacities[-1]

        def adaptive(f, edges, *args, **kwargs):
            panels.append(edges.size - 1)
            return real_adaptive(f, edges, *args, **kwargs)

        monkeypatch.setattr(model, "_line_capacity", capacity)
        monkeypatch.setattr(quadrature, "_adaptive", adaptive)
        assert model._gap_blocks(1.0, batch, gaps) == [slice(0, gaps.size)]
        model._x_integrals(1.0, batch, gaps, QUAD)
        assert capacities == [quadrature._MAX_START_PANELS // panels[0]]

    @pytest.mark.parametrize("d,v,gap", [
        (1.0, 0.5, 1.0), (2.0, 0.99, 2.0), (0.5, 1.0 - 1e-6, 1.0), (1.0, 0.3, 6.0),
        # the largest Jacobian, at small and at large d, and a large d
        (0.05, 1.0 - 1e-9, 0.0), (4.0, 1.0 - 1e-9, 1.0), (8.0, 0.9, 2.0),
    ])
    def test_x_matches_a_20_digit_mpmath_quadrature(self, d, v, gap):
        # the u-form in s, 2 * int_0^24 in 60 tanh-sinh pieces: its Dawson
        # Gaussian e^{-s^2/4} is e^{-144} at s = 24
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            z = 2 * mp.quad(lambda s: mp.mpc(*mp_u_form(mp, d, v, gap, s)), mp.linspace(0, 24, 61))
            ref = complex(-1j * (1 - mp.mpf(v) ** 2) / (8 * mp.pi) * z)
        x = correlation_x(det(omega=gap), EncounterGeometry(d=d, v=v), QUAD)
        assert abs(x.value - ref) <= x.error_estimate + QUAD.rel_tol * abs(x.value)


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
        for v in velocity_profile(det(omega=0.0), 2.0, QUAD).v:
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

        def broken(d, vs, gaps, settings):
            if bad in list(vs):
                raise ValueError("broken velocity")
            return real(d, vs, gaps, settings)

        monkeypatch.setattr(model, "_x_integrals", broken)
        vs = [0.0, 0.3, bad, 0.9]
        row = negativity_row(det(omega=1.0), 1.0, vs, QUAD)
        assert list(row.failures) == [vs.index(bad)]
        for i, v in enumerate(vs):
            if v == bad:
                q = row.failures[i]
                assert isinstance(q, ValueError) and str(q) == "broken velocity"
            else:
                q = negativity(det(omega=1.0), EncounterGeometry(d=1.0, v=v), QUAD)
                assert (row.p, row.x[i], row.m[i], row.negativity[i], row.x_error_estimate[i]) \
                    == (q.p, q.x, q.m, q.negativity, q.x_error_estimate)


class TestGapBlocks:
    """_negativity_rows integrates a block of gaps of one run at once."""

    VS = [0.0, 0.9, 1.0 - 1e-6, 1.0 - 1e-9]

    @staticmethod
    def rows(gaps, vs) -> list:
        return model._negativity_rows(1.0, gaps, vs, QUAD)

    @staticmethod
    def bits(row, i) -> tuple:
        return tuple(float(v).hex() for v in (row.p, row.x[i].real, row.x[i].imag, row.x_abs[i],
                                              row.m[i], row.negativity[i], row.x_error_estimate[i]))

    @staticmethod
    def recorded(monkeypatch) -> list:
        """Each X integral's number of components, then the exception if it raised."""
        calls = []
        real = model.integrate_line

        def recording(integrand, *args, **kwargs):
            first = len(calls)

            def seen(t):
                out = integrand(t)
                if len(calls) == first:
                    calls.append(out.shape[0])
                return out
            try:
                return real(seen, *args, **kwargs)
            except Exception as exc:
                calls.append(exc)
                raise

        monkeypatch.setattr(model, "integrate_line", recording)
        return calls

    def assert_blocks_agree_with_one_gap_rows(self, monkeypatch, gaps, vs, components):
        calls = self.recorded(monkeypatch)
        rows = self.rows(gaps, vs)
        assert calls == components
        for gap, row in zip(gaps, rows):
            alone = negativity_row(det(omega=gap), 1.0, vs, QUAD)
            assert not row.failures and row.p == alone.p
            assert (np.abs(row.x - alone.x) <= row.x_error_estimate + alone.x_error_estimate).all()

    def test_blocks_agree_with_one_gap_rows(self, monkeypatch):
        # two runs: the six gaps up to pi, and {6} in the octave (pi, 2 pi]
        gaps = [0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 6.0]
        self.assert_blocks_agree_with_one_gap_rows(
            monkeypatch, gaps, self.VS, [2 * 6 * len(self.VS), 2 * len(self.VS)])

    def test_one_block_from_gap_0_to_pi_agrees_with_one_gap_rows(self, monkeypatch):
        # every gap on start panels sized for pi, a quarter as wide as the
        # envelope-limited ones
        gaps = np.linspace(0.0, math.pi, 9).tolist()
        vs = [0.0, 0.3, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9]
        self.assert_blocks_agree_with_one_gap_rows(monkeypatch, gaps, vs, [2 * len(gaps) * len(vs)])

    def test_a_gap_scan_to_4_takes_two_x_integrals(self, monkeypatch):
        # one block for the 9 gaps up to pi and one for the 3 above it
        calls = self.recorded(monkeypatch)
        self.rows(np.linspace(0.0, 4.0, 12), np.linspace(0.0, 0.99, 12))
        assert calls == [2 * 9 * 12, 2 * 3 * 12]

    def test_gaps_above_pi_keep_their_octave_runs(self):
        # above pi a run is one octave of start-panel density: the gaps up
        # to 16 pi (30 to 49.1) and those above it (51.8 to 60)
        assert [(run.start, run.stop) for run in model._gap_runs(np.linspace(30.0, 60.0, 12))] \
            == [(0, 8), (8, 12)]

    def test_a_failure_stays_with_its_gap_and_v(self, monkeypatch):
        # two runs: {0, 0.3, 0.6} up to pi and {4, 6} in the octave (pi, 2 pi]
        gaps, vs = [0.0, 0.3, 0.6, 4.0, 6.0], [0.0, 0.5, 0.9]
        bad_gap, bad_v = 0.3, 0.5
        clean = self.rows(gaps, vs)
        real = model._x_integrals

        def broken(d, vs, gaps, settings):
            if bad_gap in np.atleast_1d(gaps) and bad_v in list(vs):
                raise ValueError("broken point")
            return real(d, vs, gaps, settings)

        monkeypatch.setattr(model, "_x_integrals", broken)
        rows = self.rows(gaps, vs)
        assert [list(row.failures) for row in rows] == [[], [1], [], [], []]
        exc = rows[1].failures[1]
        assert isinstance(exc, ValueError) and str(exc) == "broken point"
        assert np.isnan(rows[1].x[1].real) and np.isnan(rows[1].negativity[1])
        # the rest of the failed block {0, 0.3, 0.6} is each gap's one-gap row
        for j in (0, 1, 2):
            alone = negativity_row(det(omega=gaps[j]), 1.0, vs, QUAD)
            for i in range(len(vs)):
                if (j, i) != (1, 1):
                    assert self.bits(rows[j], i) == self.bits(alone, i)
        # the other block is untouched
        for j in (3, 4):
            assert [self.bits(rows[j], i) for i in range(len(vs))] \
                == [self.bits(clean[j], i) for i in range(len(vs))]

    def test_a_block_over_the_start_panel_limit_is_split_up_front(self, monkeypatch):
        # one octave; at gap 85 each component has 650 start panels on
        # [0, 2c], so 16 velocities fit 3 gaps: blocks of 3 and 1, and none
        # is refused
        gaps = [55.0, 65.0, 75.0, 85.0]
        vs = np.linspace(0.0, 0.9, model._X_BATCH)
        calls = self.recorded(monkeypatch)
        rows = self.rows(gaps, vs)
        assert calls == [2 * 3 * vs.size, 2 * vs.size]
        assert not any(row.failures for row in rows)


class TestNegativityRowContract:
    """negativity_row's arrays, NaN at failed indices and its failures map."""

    # one subdivision at rel_tol 1e-10: at (d, gap) = (0.5, 4) the batch
    # fails, and alone v = 0 and 0.33 fail while 0.66 and 0.99 converge
    TIGHT = QuadratureSettings(rel_tol=1e-10, abs_tol=1e-300, max_subdivisions=1)
    VS = [0.0, 0.33, 0.66, 0.99]

    @staticmethod
    def bits(*values) -> tuple:
        return tuple(float(v).hex() for v in values)

    def test_arrays_are_indexed_like_v(self):
        row = negativity_row(det(omega=1.0), 1.0, np.array(self.VS), QUAD)
        assert isinstance(row, model.NegativityRow) and not row.failures
        for field in (row.x, row.x_abs, row.x_error_estimate, row.m, row.negativity):
            assert field.shape == (len(self.VS),)
        assert row.x.dtype == complex
        assert row.p == transition_probability(det(omega=1.0))
        np.testing.assert_array_equal(row.x_abs, np.hypot(row.x.real, row.x.imag))
        np.testing.assert_array_equal(row.m, row.x_abs - row.p)
        np.testing.assert_array_equal(row.negativity, np.maximum(row.m, 0.0))

    @pytest.mark.parametrize("sigma,omega,d,v", [
        (1.0, 0.0, 0.5, 0.0), (1.0, 1.0, 1.0, 0.3), (2.0, 0.5, 3.0, 0.99), (1.0, 4.0, 0.5, 0.66),
    ])
    def test_a_point_is_index_0_of_its_one_velocity_row(self, sigma, omega, d, v):
        row = negativity_row(det(sigma, omega), d, [v], QUAD)
        q = negativity(det(sigma, omega), EncounterGeometry(d=d, v=v), QUAD)
        x = correlation_x(det(sigma, omega), EncounterGeometry(d=d, v=v), QUAD)
        assert self.bits(row.p, row.x[0].real, row.x[0].imag, row.x_abs[0], row.m[0],
                         row.negativity[0], row.x_error_estimate[0]) \
            == self.bits(q.p, q.x.real, q.x.imag, abs(q.x), q.m, q.negativity, q.x_error_estimate)
        assert self.bits(x.value.real, x.value.imag, x.error_estimate) \
            == self.bits(q.x.real, q.x.imag, q.x_error_estimate)

    def test_failed_index_holds_nan_and_the_exception_of_its_v_alone(self):
        row = negativity_row(det(omega=4.0), 0.5, self.VS, self.TIGHT)
        assert sorted(row.failures) == [0, 1]
        for i, exc in row.failures.items():
            assert np.isnan(row.x[i].real) and np.isnan(row.x[i].imag)
            assert np.isnan([row.x_abs[i], row.x_error_estimate[i], row.m[i], row.negativity[i]]).all()
            for point in (negativity, correlation_x):
                with pytest.raises(type(exc)) as alone:
                    point(det(omega=4.0), EncounterGeometry(d=0.5, v=self.VS[i]), self.TIGHT)
                assert type(alone.value) is type(exc) and str(alone.value) == str(exc)

    def test_rest_of_a_failed_batch_is_bit_equal_to_negativity(self):
        row = negativity_row(det(omega=4.0), 0.5, self.VS, self.TIGHT)
        for i in (2, 3):
            q = negativity(det(omega=4.0), EncounterGeometry(d=0.5, v=self.VS[i]), self.TIGHT)
            assert self.bits(row.p, row.x[i].real, row.x[i].imag, row.m[i], row.negativity[i],
                             row.x_error_estimate[i]) \
                == self.bits(q.p, q.x.real, q.x.imag, q.m, q.negativity, q.x_error_estimate)

    def test_velocity_profile_raises_the_lowest_index_failure(self, monkeypatch):
        grid = velocity_profile(det(omega=1.0), 1.0, QUAD).v.tolist()
        bad = (40, 5, 63)
        real = model._x_integrals

        def broken(d, vs, gaps, settings):
            hit = sorted(i for i in bad if grid[i] in list(vs))
            if hit:
                raise ValueError(f"broken at {hit[0]}")
            return real(d, vs, gaps, settings)

        monkeypatch.setattr(model, "_x_integrals", broken)
        row = negativity_row(det(omega=1.0), 1.0, grid, QUAD)
        assert sorted(row.failures) == sorted(bad)
        with pytest.raises(ValueError, match="^broken at 5$"):
            velocity_profile(det(omega=1.0), 1.0, QUAD)


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


class TestVelocityProfile:
    @pytest.mark.parametrize("d, gap", [(0.25, 0.8), (0.5, 0.75), (0.75, 0.8), (2.0, 0.85)])
    def test_slow_closed_form_peak_is_peaked(self, d, gap):
        # N(0) > 0 and |X|^2 grows with v^2 at rest: the closed forms prove
        # an interior peak, which here sits below v = 0.1
        assert static_negativity(det(omega=gap), d) > 0.0
        assert second_derivative_at_rest(det(omega=gap), d) > 0.0
        profile = velocity_profile(det(omega=gap), d, QUAD)
        assert profile.label is RegionLabel.PEAKED and profile.peak.v_star < 0.1

    @pytest.mark.parametrize("d, gap, nodes", [(1.0, 1.0, 64), (0.25, 1.25, 127), (0.1, 1.5, 253)])
    def test_v_star_is_a_converged_maximizer(self, d, gap, nodes):
        from scipy.optimize import minimize_scalar

        profile = velocity_profile(det(omega=gap), d, QUAD)
        assert profile.v.size == nodes
        v_star = profile.peak.v_star
        best = minimize_scalar(
            lambda v: -negativity(det(omega=gap), EncounterGeometry(d, v), QUAD).negativity,
            bounds=(v_star - 0.01, v_star + 0.01), method="bounded", options={"xatol": 1e-12})
        assert abs(v_star - best.x) <= 5e-5

    def test_refined_nodes_nest(self):
        coarse = velocity_profile(det(omega=1.0), 1.0, QUAD)
        fine = velocity_profile(det(omega=1.25), 0.25, QUAD)
        assert fine.v.size == 2 * coarse.v.size - 1
        assert fine.v[0::2].tolist() == coarse.v.tolist()
        assert np.all(np.diff(fine.v) > 0.0)
        assert fine.v[0] == 0.0 and fine.v[-1] == pytest.approx(1.0 - 1e-4, rel=1e-12)

    def test_unresolved_profile_fails_for_its_own_point(self, monkeypatch):
        monkeypatch.setattr(model, "_MAX_SCAN_NODES", 64)
        with pytest.raises(quadrature.QuadratureError, match="unresolved at 64 nodes"):
            velocity_profile(det(omega=1.25), 0.25, QUAD)
        rows = run_region_scan(GridSpec(0.25, 1.0, 2), GridSpec(1.25, 1.25, 1), QUAD)
        assert rows[0].region is None
        assert rows[0].error.startswith("QuadratureError: velocity profile unresolved at 64 nodes")
        assert rows[1].region is RegionLabel.PEAKED and rows[1].error == ""

    def test_a_series_not_concave_at_its_node_keeps_the_node(self):
        # f = cos(2 theta) has its minimum at theta_4 = pi / 2 of n = 8:
        # Newton takes no step where f'' >= 0
        coeffs = np.zeros(9)
        coeffs[2] = 1.0
        assert model._series_max(coeffs, 4) == math.pi * 4 / 8

    def test_a_peak_whose_n_star_does_not_beat_n0_is_monotone(self, monkeypatch):
        # (1, 1) is peaked; with N(v_star) forced to 0 < N(0) it has no peak
        def zero(det, geom, settings=None):
            p = transition_probability(det)
            return model.HarvestQuantities(p=p, x=0j, m=-p, negativity=0.0, x_error_estimate=0.0)

        assert velocity_profile(det(omega=1.0), 1.0, QUAD).label is RegionLabel.PEAKED
        monkeypatch.setattr(model, "negativity", zero)
        profile = velocity_profile(det(omega=1.0), 1.0, QUAD)
        assert profile.label is RegionLabel.MONOTONE_DECREASING and profile.peak is None
        assert profile.n[0] > 0.0

    def test_never_imports_scipy_optimize(self):
        src = str(Path(model.__file__).resolve().parents[1])
        code = ("import sys, entharvest\n"
                "entharvest.velocity_profile(entharvest.DetectorSettings(1.0, 1.0), 1.0)\n"
                "sys.exit('scipy.optimize' in sys.modules)\n")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                       check=True, timeout=120)


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
        assert profile.v.size == 64 and profile.v[0] == 0.0
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

    def test_d_over_sigma_that_overflows_is_rejected_like_a_bad_d(self, capsys):
        # d/sigma = 1e10 / 1e-300 is inf: the library raises what `point` prints
        from entharvest.cli import main

        message = "d must be finite and > 0, got inf"
        for call in (negativity, correlation_x):
            with pytest.raises(ValueError, match=message):
                call(DetectorSettings(1e-300, 1e300), EncounterGeometry(1e10, 0.5))
        with pytest.raises(ValueError, match=message):
            velocity_profile(DetectorSettings(1e-300, 1e300), 1e10, QUAD)
        assert main(["point", "--d", "1e10", "--v", "0.5", "--omega", "1e300",
                     "--sigma", "1e-300"]) == 1
        assert capsys.readouterr().err == f"ValueError: {message}\n"

    def test_closed_forms_reject_a_d_over_sigma_that_overflows(self):
        # d / sigma = 1e10 / 1e-300 is inf: one rule with the row path
        message = "d must be finite and > 0, got inf"
        for call in (static_x_abs, static_negativity, second_derivative_at_rest,
                     lambda det, d: negativity_row(det, d, [0.0], QUAD)):
            with pytest.raises(ValueError, match=message):
                call(DetectorSettings(1e-300, 1.0), 1e10)
        with pytest.raises(ValueError, match=message):
            omega_peak_threshold(1e10, 1e-300)

    @pytest.mark.parametrize("d", BAD_D)
    def test_a_row_without_velocities_still_checks_d(self, d):
        with pytest.raises(ValueError, match="d must be finite and > 0"):
            negativity_row(det(omega=1.0), d, [], QUAD)

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
