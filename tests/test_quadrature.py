import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.special import k0e

from entharvest.quadrature import (
    ConvergenceError,
    IntegralResult,
    NonFiniteIntegrandError,
    QuadratureError,
    QuadratureSettings,
    integrate_halfline,
    integrate_interval,
    _NEGLIGIBLE_SIGMAS,
    _line_capacity,
    _stacks,
    _window_start,
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

    def test_rejects_bad_subdivisions(self):
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            QuadratureSettings(**{name: bad})

    def test_subdivisions_must_be_a_whole_number(self):
        with pytest.raises(ValueError, match=r"^max_subdivisions must be a whole number, got 1\.5$"):
            QuadratureSettings(max_subdivisions=1.5)
        with pytest.raises(ValueError, match=r"^max_subdivisions must be a whole number, got True$"):
            QuadratureSettings(max_subdivisions=True)
        s = QuadratureSettings(max_subdivisions=100.0)
        assert s == QuadratureSettings(max_subdivisions=100)
        assert type(s.max_subdivisions) is int

    @pytest.mark.parametrize("bad", [True, "1e-6", None])
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    def test_tolerances_must_be_numbers(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {bad!r}$"):
            QuadratureSettings(**{name: bad})

    def test_int_tolerance_is_accepted(self):
        assert QuadratureSettings(rel_tol=1, abs_tol=1) == QuadratureSettings(rel_tol=1.0, abs_tol=1.0)


class TestLine:
    def test_wide_gaussian(self):
        res = integrate_line(lambda u: np.exp(-u * u / 4.0), 2.0, DEFAULT)
        assert res.value.real == pytest.approx(TWO_SQRT_PI, abs=1e-9)
        assert res.value.imag == pytest.approx(0.0, abs=1e-12)
        assert abs(res.value.real - TWO_SQRT_PI) <= max(res.error_estimate, 1e-13)

    def test_oscillatory_gaussian(self):
        res = integrate_line(lambda u: np.exp(-u * u) * np.cos(4.0 * u),
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
        res = integrate_halfline(lambda r: np.exp(-r * r) * np.sin(2.0 * r), 1.0, DEFAULT)
        assert res.value.real == pytest.approx(HALFLINE_SIN, abs=1e-6)

    def test_complex_phase(self):
        # the one complex-valued integrand: its cosine half is (sqrt(pi)/2) e^{-1}
        res = integrate_halfline(lambda r: np.exp(-r * r) * np.exp(2j * r), 1.0, DEFAULT)
        exact = complex(0.5 * math.sqrt(math.pi) / math.e, HALFLINE_SIN)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-15)
        assert abs(res.value - exact) <= 1e-9

    def test_radial_moment(self):
        res = integrate_halfline(lambda r: r * np.exp(-r * r), 1.0, DEFAULT)
        assert res.value.real == pytest.approx(0.5, abs=1e-10)


class TestEven:
    """integrate_line integrates [0, a] once and doubles it."""

    KS = (0.0, 1.0, 2.0, 4.0, 8.0)

    @staticmethod
    def gaussian_cosines(u):
        return np.exp(-u * u) * np.cos(np.outer(TestEven.KS, u))

    def test_gaussian_cosines_match_closed_form(self):
        res = integrate_line(self.gaussian_cosines, 1.0, DEFAULT, max_frequency=8.0)
        assert res.value.shape == res.error_estimate.shape == (len(self.KS),)
        for k, value, error in zip(self.KS, res.value, res.error_estimate):
            exact = math.sqrt(math.pi) * math.exp(-k * k / 4.0)
            assert abs(value - exact) <= max(1e-9 * exact, DEFAULT.abs_tol)
            assert abs(value - exact) <= error + 1e-15

    def test_agrees_with_two_sided_integral(self):
        def f(u):
            g = np.exp(-u * u / 4.0) / np.sqrt(0.25 * u * u + 1.0)
            return np.array([g, g * np.cos(3.0 * u)])

        # the unfolded integral on the same window [-20, 20], whose tails
        # beyond it are below e^{-100}
        folded = integrate_line(f, 2.0, DEFAULT, max_frequency=3.0)
        full = integrate_interval(f, -20.0, 20.0, DEFAULT, initial_spacing=math.pi / 6.0)
        assert folded.value[0].real == pytest.approx(RADIAL_FACTOR, abs=1e-8)
        # the estimates bound truncation and refinement, not roundoff: allow
        # a few ulps of the value on top of them
        for a, a_err, b, b_err in zip(folded.value, folded.error_estimate,
                                      full.value, full.error_estimate):
            ulps = 8.0 * np.finfo(float).eps * abs(b)
            assert abs(a - b) <= a_err + b_err + ulps

    def test_never_evaluates_below_zero(self):
        calls = []

        def f(u):
            calls.append(u.copy())
            return self.gaussian_cosines(u)

        integrate_line(f, 1.0, DEFAULT, max_frequency=8.0)
        assert min(u.min() for u in calls) >= 0.0

    def test_start_panel_budget_counts_the_half_window(self):
        # 38221 start panels on [0, c], under the limit that the 76442 on
        # [-c, c] would exceed
        res = integrate_line(lambda u: np.exp(-u * u), 1.0, DEFAULT,
                             max_frequency=10000.0)
        assert res.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_tail_is_charged_at_the_edge_and_doubled(self):
        # bookkeeping only: GK15 is exact on a quadratic, so on the window
        # [0, c] the estimate is the tail bound alone, |f(c)| w^2 / 2c at
        # the one edge, doubled
        c = _NEGLIGIBLE_SIGMAS

        def f(u):
            return 1.0 + u * u

        res = integrate_line(f, 1.0, DEFAULT)
        assert res.value.real == pytest.approx(2.0 * (c + c ** 3 / 3.0), rel=1e-14)
        assert res.error_estimate == pytest.approx(2.0 * (1.0 + c * c) / (2.0 * c), rel=1e-12)

    def test_halfline_is_the_same_window_weighted_once(self):
        # scale is the only difference: integrate_halfline charges the one
        # edge's tail once, |f(c)| w^2 / 2c, and doubling is exact
        c = _NEGLIGIBLE_SIGMAS

        def f(u):
            return 1.0 + u * u

        half = integrate_halfline(f, 1.0, DEFAULT)
        line = integrate_line(f, 1.0, DEFAULT)
        assert half.value.real == pytest.approx(c + c ** 3 / 3.0, rel=1e-14)
        assert half.error_estimate == pytest.approx((1.0 + c * c) / (2.0 * c), rel=1e-12)
        assert (line.value, line.error_estimate) == (2.0 * half.value, 2.0 * half.error_estimate)

    @pytest.mark.parametrize("k", [10.0, 12.0, 14.0, 15.0, 16.0, 20.0])
    def test_small_value_is_held_to_the_full_line_abs_tol(self, k):
        # |value| <= 2.5e-11, so abs_tol alone governs; start panels about a
        # unit wide make the refinement loop stop close to it. Held to
        # abs_tol on the half window and then doubled, k = 15 would report
        # 1.93 * abs_tol.
        s = QuadratureSettings(abs_tol=1e-12)
        a = _NEGLIGIBLE_SIGMAS

        def f(u):
            return np.exp(-u * u) * np.cos(k * u)

        res = integrate_line(f, 1.0, s)
        tail = 2.0 * abs(f(np.array([a]))[0]) / (2.0 * a)
        exact = math.sqrt(math.pi) * math.exp(-k * k / 4.0)
        assert res.error_estimate <= s.abs_tol + tail
        assert abs(res.value - exact) <= res.error_estimate


class TestGradedStart:
    """singularity_distance grades the start panels toward 0 from it."""

    SMALL = (1e-2, 1e-5, 1e-9)

    @staticmethod
    def radial(s, calls):
        # e^{-t^2} / sqrt(t^2 + s^2): branch points at t = +-i s; its integral
        # over the real line is e^{s^2/2} K0(s^2/2)
        def f(t):
            calls.append(t.copy())
            return np.exp(-t * t) / np.sqrt(t * t + s * s)
        return f

    @pytest.mark.parametrize("s", SMALL)
    def test_declared_distance_converges_on_the_first_pass(self, s):
        calls = []
        res = integrate_line(self.radial(s, calls), 1.0, DEFAULT,
                             singularity_distance=s)
        exact = k0e(0.5 * s * s)
        assert abs(res.value - exact) <= res.error_estimate + DEFAULT.rel_tol * exact
        assert len(calls) == 2  # the window edge, then one pass

    @pytest.mark.parametrize("s", SMALL)
    def test_undeclared_distance_agrees_after_more_passes(self, s):
        graded_calls, plain_calls = [], []
        graded = integrate_line(self.radial(s, graded_calls), 1.0, DEFAULT,
                                singularity_distance=s)
        plain = integrate_line(self.radial(s, plain_calls), 1.0, DEFAULT)
        assert abs(graded.value - plain.value) <= graded.error_estimate + plain.error_estimate
        assert len(plain_calls) > len(graded_calls)

    @pytest.mark.parametrize("distance", [math.inf, 1.0, 5.0])
    def test_distance_at_or_above_the_uniform_width_changes_nothing(self, distance):
        # max_frequency 0: seven uniform start panels of width h = c / 7 =
        # 0.858 on [0, c]
        declared, plain = [], []
        a = integrate_line(self.radial(0.3, declared), 1.0, DEFAULT,
                           singularity_distance=distance)
        b = integrate_line(self.radial(0.3, plain), 1.0, DEFAULT)
        assert (a.value, a.error_estimate) == (b.value, b.error_estimate)
        assert len(declared) == len(plain)
        assert all(np.array_equal(x, y) for x, y in zip(declared, plain))

    def test_tiny_distance_adds_few_panels(self):
        # the first width is floored at the smallest width that is still split
        def first_pass_panels(**kwargs):
            calls = []
            integrate_line(self.radial(1.0, calls), 1.0, DEFAULT, **kwargs)
            return calls[1].size // 15

        plain = first_pass_panels()
        graded = first_pass_panels(singularity_distance=1e-300)
        assert plain < graded <= plain + 60

    def test_graded_panels_count_in_the_start_panel_budget(self):
        # 65530 uniform start panels on [0, c], under the limit; grading
        # from 1e-9 adds 18 panels and takes 1 off the uniform ones
        calls = []

        def f(t):
            calls.append(t.size)
            return np.exp(-t * t)

        freq = 65529.5 * math.pi / (2.0 * _NEGLIGIBLE_SIGMAS)
        with pytest.raises(QuadratureError, match="start panels exceed the limit"):
            integrate_line(f, 1.0, DEFAULT, max_frequency=freq,
                           singularity_distance=1e-9)
        assert calls == []
        res = integrate_line(f, 1.0, DEFAULT, max_frequency=freq)
        assert res.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


class TestWindowStart:
    """The window is [0, c w], c = sqrt(ln(1/eps)), paved whole by the start panels."""

    def test_uniform_panels_pave_the_window_to_the_cut(self):
        # w = 2, gap pi: panels pi / (2 pi) = 0.5 wide, 25 of them on
        # [0, 2c] = [0, 12.007]
        edges = _window_start(2.0, math.pi)
        cut = 2.0 * math.sqrt(math.log(1.0 / np.finfo(float).eps))
        assert edges.size - 1 == 25
        np.testing.assert_array_equal(edges, np.linspace(0.0, cut, 26))

    def test_graded_panels_end_at_the_cut_too(self):
        edges = _window_start(1.0, 4.0, singularity_distance=1e-3)
        assert edges[1] == 1e-3
        assert edges[-1] == _NEGLIGIBLE_SIGMAS
        assert np.diff(edges).max() <= math.pi / 8.0

    @pytest.mark.parametrize("g, abs_tol", [
        (0.5, DEFAULT.abs_tol), (3.0, DEFAULT.abs_tol), (8.0, DEFAULT.abs_tol), (40.0, DEFAULT.abs_tol),
        (0.5, 1e-300), (3.0, 1e-300), (4.0, 1e-300),
    ])
    def test_gaussian_cosine_matches_its_closed_form(self, g, abs_tol):
        # int e^{-s^2/4} cos(g s) ds = 2 sqrt(pi) e^{-g^2} over the real line
        s = QuadratureSettings(abs_tol=abs_tol)
        res = integrate_line(lambda u: np.exp(-0.25 * u * u) * np.cos(g * u), 2.0, s,
                             max_frequency=g)
        exact = TWO_SQRT_PI * math.exp(-g * g)
        assert abs(res.value - exact) <= max(s.abs_tol, s.rel_tol * exact)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_a_width_not_finite_and_positive_is_refused_before_any_call(self, width):
        calls = []
        for integrate in (integrate_line, integrate_halfline):
            with pytest.raises(ValueError) as info:
                integrate(lambda u: calls.append(u) or np.exp(-u * u), width, DEFAULT)
            assert str(info.value) == f"envelope_width must be finite and > 0, got {width!r}"
        assert calls == []

    @pytest.mark.parametrize("singularity_distance, passes", [(math.inf, 2), (1e-3, 1)])
    def test_no_node_but_the_edge_lies_past_the_cut(self, singularity_distance, passes):
        # at g = 4, abs_tol 1e-300 holds the value 4e-7 to 4e-16, which on
        # uniform start panels takes a second pass; every node of every pass
        # lies inside [0, 2c], and the edge call evaluates 2c alone
        calls = []

        def f(u):
            calls.append(u.copy())
            return np.exp(-0.25 * u * u) * np.cos(4.0 * u)

        integrate_line(f, 2.0, QuadratureSettings(abs_tol=1e-300), max_frequency=4.0,
                       singularity_distance=singularity_distance)
        cut = 2.0 * _NEGLIGIBLE_SIGMAS
        assert calls[0].tolist() == [cut]
        assert len(calls) == 1 + passes
        assert all(u.max() < cut for u in calls[1:])


class TestIntegralResult:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_a_bad_scalar_error(self, bad):
        for error in (bad, np.float64(bad)):
            with pytest.raises(ValueError, match="error_estimate must be finite and >= 0"):
                IntegralResult(1.0 + 0j, error)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_a_bad_error_in_an_array(self, bad):
        with pytest.raises(ValueError, match="error_estimate must be finite and >= 0"):
            IntegralResult(np.zeros(3, dtype=complex), np.array([1e-12, bad, 0.0]))

    def test_accepts_finite_nonnegative_errors(self):
        assert IntegralResult(1.0 + 0j, 0.0).error_estimate == 0.0
        IntegralResult(np.zeros(2, dtype=complex), np.array([0.0, 1e-300]))


class TestLineCapacity:
    """_line_capacity is the most components integrate_line takes before refusing."""

    @staticmethod
    def components(c, calls):
        def f(t):
            calls.append(t.size)
            return np.tile(np.exp(-t * t), (c, 1))
        return f

    def test_one_more_component_is_refused_before_any_evaluation(self):
        # seven start panels on [0, c] at frequency 0
        assert _line_capacity(1.0) == (1 << 16) // 7
        # 20000 uniform start panels on [0, c]: 3 components fit in 65536
        freq = 19999.5 * math.pi / (2.0 * _NEGLIGIBLE_SIGMAS)
        capacity = _line_capacity(1.0, freq)
        assert capacity == 3
        calls = []
        res = integrate_line(self.components(capacity, calls), 1.0, DEFAULT,
                             max_frequency=freq)
        assert res.value.real == pytest.approx([math.sqrt(math.pi)] * capacity, rel=1e-12)
        calls.clear()
        with pytest.raises(QuadratureError, match="start panels exceed the limit"):
            integrate_line(self.components(capacity + 1, calls), 1.0, DEFAULT,
                           max_frequency=freq)
        assert calls == [1]  # the window edge only

    def test_counts_graded_panels(self):
        # as in TestGradedStart: grading from 1e-9 pushes one component over
        freq = 65529.5 * math.pi / (2.0 * _NEGLIGIBLE_SIGMAS)
        assert _line_capacity(1.0, freq) == 1
        assert _line_capacity(1.0, freq, singularity_distance=1e-9) == 0


class TestStacks:
    """_stacks cuts members from the finest down by each top member's fit."""

    def test_the_coarsest_stack_takes_what_is_left(self):
        assert _stacks(10, lambda i: 3) == [slice(0, 1), slice(1, 4), slice(4, 7), slice(7, 10)]

    def test_each_stack_is_sized_by_its_own_finest_member(self):
        fit = [9, 9, 9, 9, 9, 9, 3, 3]
        seen = []
        assert _stacks(8, lambda i: seen.append(i) or fit[i]) == [slice(0, 5), slice(5, 8)]
        assert seen == [7, 4]

    def test_a_member_that_fits_nothing_is_a_stack_alone(self):
        assert _stacks(3, lambda i: 0) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert _stacks(0, lambda i: 1) == []

    def test_a_lone_member_is_one_stack_unsized(self):
        def fit(i):
            raise AssertionError(f"fit({i}) called for a lone member")

        assert _stacks(1, fit) == [slice(0, 1)]


class TestInterval:
    def test_polynomial_exact(self):
        res = integrate_interval(lambda t: t * t * t - 2.0 * t + 1.0, 0.0, 2.0, DEFAULT)
        assert res.value.real == pytest.approx(2.0, abs=1e-12)

    def test_complex_exponential(self):
        res = integrate_interval(lambda t: np.exp(1j * t), 0.0, math.pi, DEFAULT)
        assert res.value == pytest.approx(complex(0.0, 2.0), abs=1e-10)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan), (math.inf, math.inf)])
    def test_an_empty_interval_is_refused_before_any_call(self, a, b):
        calls = []
        with pytest.raises(ValueError) as info:
            integrate_interval(lambda t: calls.append(t) or t, a, b, DEFAULT)
        assert str(info.value) == f"empty integration interval [{a!r}, {b!r}]"
        assert calls == []


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

    # u^k is odd for odd k, so this runs on the half line
    rf = integrate_halfline(f, 1.0, DEFAULT).value
    rg = integrate_halfline(g, 1.5, DEFAULT).value
    rc = integrate_halfline(combined, 1.5, DEFAULT).value
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
    # int e^{-u^2/4} cos(g u) du = 2 sqrt(pi) e^{-g^2} over the real line:
    # the value on [-2c, 2c] is within its estimate of it, and the estimate
    # holds the tail bound charged at 2c, twice |f(2c)| w^2 / 4c
    cut = 2.0 * _NEGLIGIBLE_SIGMAS
    for g in (0.0, 0.5, 3.0, 4.0):
        def f(u):
            return np.exp(-0.25 * u * u) * np.cos(g * u)

        tail = 2.0 * abs(f(np.array([cut]))[0]) * 4.0 / (2.0 * cut)
        for s in (DEFAULT, QuadratureSettings(abs_tol=1e-300)):
            res = integrate_line(f, 2.0, s, max_frequency=g)
            assert abs(res.value - TWO_SQRT_PI * math.exp(-g * g)) <= res.error_estimate
            assert res.error_estimate >= tail


def test_non_finite_integrand_reports_abscissa():
    def f(u):
        out = np.exp(-u * u)
        out = np.where(np.abs(np.abs(u) - 0.5) < 0.2, np.nan, out)
        return out

    with pytest.raises(NonFiniteIntegrandError) as info:
        integrate_line(f, 1.0, DEFAULT)
    assert 0.3 < info.value.abscissa < 0.7


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

    # [0, c] at spacing pi/40000: 76441 start panels, over the limit
    with pytest.raises(QuadratureError, match="start panels exceed the limit"):
        integrate_line(f, 1.0, DEFAULT, max_frequency=20000.0)
    assert calls == []


def test_overflowing_window_is_refused_before_any_evaluation():
    # c * width overflows to inf, and so would the panel count
    calls = []

    def f(u):
        calls.append(u.size)
        return np.exp(-u * u)

    with pytest.raises(QuadratureError, match="^1 x inf start panels exceed the limit"):
        integrate_line(f, 1e308, DEFAULT)
    with pytest.raises(QuadratureError, match="^1 x nan start panels exceed the limit"):
        integrate_interval(f, -1e308, 1e308, DEFAULT)
    assert calls == []


def test_start_panel_limit_counts_components():
    calls = []

    def f(u):
        calls.append(u.size)
        return np.array([np.exp(-u * u), np.exp(-u * u)])

    # 38221 start panels on [0, c]: under the limit for one component, over
    # it for two, so only the window edge is evaluated
    with pytest.raises(QuadratureError, match="2 x 3.82e[+]04 start panels exceed the limit"):
        integrate_line(f, 1.0, DEFAULT, max_frequency=10000.0)
    assert calls == [1]
    single = integrate_line(lambda u: np.exp(-u * u), 1.0, DEFAULT, max_frequency=10000.0)
    assert single.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


class TestVector:
    def test_components_match_their_closed_forms(self):
        def f(u):
            g = np.exp(-u * u)
            return np.array([g, g * np.cos(4.0 * u), u * u * g])

        res = integrate_line(f, 1.0, DEFAULT, max_frequency=4.0)
        exact = [math.sqrt(math.pi), SQRT_PI_E_M4, 0.5 * math.sqrt(math.pi)]
        assert res.value.shape == res.error_estimate.shape == (3,)
        for value, error, e in zip(res.value, res.error_estimate, exact):
            assert abs(value - e) <= 1e-9 * e
            assert abs(value - e) <= error + 1e-15

    def test_each_component_meets_its_own_tolerance(self):
        # the small, narrow bump is refined for its own rel_tol: held to the
        # large component's tolerance it would stop at about 2e-6 relative
        s = QuadratureSettings(abs_tol=1e-300)

        def f(u):
            return np.array([np.exp(-u * u), 1e-6 * np.exp(-(u / 0.05) ** 2)])

        big, small = integrate_line(f, 1.0, s).value
        exact = 1e-6 * 0.05 * math.sqrt(math.pi)
        assert abs(small - exact) <= 1e-9 * exact
        assert abs(big - math.sqrt(math.pi)) <= 1e-9

    def test_single_component_equals_scalar(self):
        def g(u):
            return np.exp(-u * u) * np.cos(3.0 * u)

        vec = integrate_line(lambda u: g(u)[None, :], 1.0, DEFAULT, max_frequency=3.0)
        scalar = integrate_line(g, 1.0, DEFAULT, max_frequency=3.0)
        assert vec.value.shape == vec.error_estimate.shape == (1,)
        assert (vec.value[0], vec.error_estimate[0]) == (scalar.value, scalar.error_estimate)

    def test_results_compare_and_hash_by_identity(self):
        def f(u):
            g = np.exp(-u * u)
            return np.array([g, g * np.cos(2.0 * u)])

        a, b = (integrate_line(f, 1.0, DEFAULT, max_frequency=2.0) for _ in range(2))
        np.testing.assert_array_equal(a.value, b.value)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_budget_exhaustion_names_the_unfinished_component(self):
        s = QuadratureSettings(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=2)

        def f(u):
            g = np.exp(-u * u)
            return np.array([g, g * np.cos(40.0 * u)])

        with pytest.raises(ConvergenceError) as info:
            integrate_line(f, 1.0, s, max_frequency=40.0)
        # the oscillating component is the one left unfinished
        assert abs(info.value.value) < 1e-6


class TestFactorPair:
    """An integrand may return a factor pair (h, c), h of shape (I, n) and c
    of shape (J, n), for the I J components c_j h_i in row j I + i; their
    panel sums are contracted from the factors, and the products are never
    formed (quadrature._contract)."""

    # one row of c is multiplied out at 3 rows of h and contracted at 20
    SHAPES = [(3, 1), (20, 1), (1, 4), (4, 5), (8, 12)]
    WIDTH = 2.5  # wider than every e^{-a u^2} (1 + b u^2) below

    @staticmethod
    def factors(seed: int, i: int, j: int):
        """Seeded positive factors: Gaussians times quadratics, and cosines
        shifted above 0 at frequencies up to 8. Declared with no frequency,
        the start panels are 2.5 wide, so the refinement loop runs."""
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.3, 1.0, (i, 1)), rng.uniform(0.0, 2.0, (i, 1))
        k, shift = rng.uniform(0.0, 8.0, (j, 1)), rng.uniform(1.1, 2.0, (j, 1))
        return lambda u: (np.exp(-a * u * u) * (1.0 + b * u * u), shift + np.cos(k * u))

    @staticmethod
    def multiplied_out(pair):
        """The (I J, n) array of pair's products, in the pair's row order."""
        def f(u):
            h, c = pair(u)
            return (c[:, None, :] * h[None, :, :]).reshape(-1, u.size)
        return f

    @staticmethod
    def counted(f, calls: list):
        def g(u):
            calls.append(u.size)
            return f(u)
        return g

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("i,j", SHAPES)
    def test_a_pair_integrates_as_its_products(self, seed, i, j):
        pair = self.factors(seed, i, j)
        s = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-300)
        pair_calls, dense_calls = [], []
        got = integrate_line(self.counted(pair, pair_calls), self.WIDTH, s)
        want = integrate_line(self.counted(self.multiplied_out(pair), dense_calls), self.WIDTH, s)
        assert len(pair_calls) > 2  # the window edge, the first pass, a refinement pass
        assert pair_calls == dense_calls
        assert got.value.shape == got.error_estimate.shape == (i * j,)
        # every term of every sum is positive, so summing in another order
        # moves a value by a few ulps of itself, and an error estimate, a sum
        # of |kronrod - gauss| over panels plus the same tail bound, by a few
        # ulps of the value
        ulps = 8.0 * np.finfo(float).eps * np.abs(want.value)
        assert (np.abs(got.value - want.value) <= ulps).all()
        assert (np.abs(got.error_estimate - want.error_estimate) <= ulps).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("factor", ["h", "c"])
    @pytest.mark.parametrize("j", [1, 3])
    def test_a_non_finite_factor_names_the_dense_abscissa(self, j, factor, bad):
        pair = self.factors(0, 4, j)

        def broken(u):
            h, c = pair(u)
            row = (h if factor == "h" else c)[-1]
            row[np.abs(u - 0.5) < 0.2] = bad
            return h, c

        with pytest.raises(NonFiniteIntegrandError) as got:
            integrate_line(broken, self.WIDTH, DEFAULT)
        with pytest.raises(NonFiniteIntegrandError) as want:
            integrate_line(self.multiplied_out(broken), self.WIDTH, DEFAULT)
        assert got.value.abscissa == want.value.abscissa
        assert 0.3 < got.value.abscissa < 0.7
