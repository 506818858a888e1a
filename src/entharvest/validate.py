"""Self-validation battery: oracle equivalence grids and model invariants.

Every check takes (oracle, grid, quad) and returns a CheckResult with the
measured deviation and the tolerance it was held to; run_validation
resolves the settings once and collects the results into a
machine-readable report. The "coarse" grid shrinks the sweep axes for a
quick smoke run; "full" runs the complete desk-scale grids.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import oracle as oracle_mod
from .model import (
    DetectorSettings,
    EncounterGeometry,
    correlation_x,
    find_peak_velocity,
    negativity,
    omega_peak_threshold,
    second_derivative_at_rest,
    spacelike_min_distance,
    static_negativity,
    static_x_abs,
    transition_probability,
    velocity_profile,
)
from .oracle import OracleSettings
from .quadrature import QuadratureSettings
from .sweep import GridSpec, SweepSpec, run_sweep, write_sweep_csv

__all__ = ["CheckResult", "run_validation", "bisect_gap_threshold"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _check(name: str, measured: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(measured <= tolerance), float(measured), float(tolerance), detail)


def check_p_oracle_vs_closed_form(oracle: OracleSettings, grid: str,
                                  quad: QuadratureSettings) -> CheckResult:
    vs = (0.0, 0.3, 0.6, 0.9, 0.99) if grid == "full" else (0.0, 0.9)
    gaps = (0.0, 1.0, 4.0) if grid == "full" else (0.0, 1.0)
    worst = 0.0
    for gap in gaps:
        det = DetectorSettings(1.0, gap)
        closed = transition_probability(det)
        for v in vs:
            value, _ = oracle_mod.p_momentum_oracle(det, v, oracle)
            worst = max(worst, abs(value - closed))
    return _check("p_oracle_vs_closed_form", worst, 1e-6,
                  f"{len(vs) * len(gaps)} (v, gap) points")


def check_p_closed_form_limits(_: OracleSettings, grid: str,
                               quad: QuadratureSettings) -> CheckResult:
    dev0 = abs(transition_probability(DetectorSettings(1.0, 0.0)) - 1.0 / (4.0 * math.pi))
    dev1 = abs(transition_probability(DetectorSettings(1.0, 1.0)) - 0.0070883)
    measured = max(dev0 / 1e-12, dev1 / 1e-7)  # normalized to each tolerance
    return _check("p_closed_form_limits", measured, 1.0,
                  f"gap=0 dev {dev0:.2e} (tol 1e-12); gap=1 dev {dev1:.2e} (tol 1e-7)")


def _x_grid(grid: str):
    if grid == "full":
        return (0.5, 1.0, 2.0, 4.0), (0.0, 0.3, 0.6, 0.9), (0.0, 0.5, 1.0, 2.0, 4.0)
    return (0.5, 2.0), (0.0, 0.9), (0.0, 1.0, 4.0)


def check_x_oracle_vs_fast_path(oracle: OracleSettings, grid: str,
                                quad: QuadratureSettings) -> CheckResult:
    ds, vs, gaps = _x_grid(grid)
    worst = 0.0
    for d in ds:
        for gap in gaps:
            det = DetectorSettings(1.0, gap)
            for v in vs:
                geom = EncounterGeometry(d, v)
                fast = correlation_x(det, geom, quad).value
                slow, _ = oracle_mod.x_momentum_oracle(det, geom, oracle)
                dev = abs(slow - fast) / max(abs(fast), 1e-5)  # floor 1e-10 / 1e-5
                worst = max(worst, dev)
    return _check("x_oracle_vs_fast_path", worst, 1e-5,
                  f"{len(ds) * len(vs) * len(gaps)} (d, v, gap) points, relative with 1e-10 floor")


def check_static_reduction(_: OracleSettings, grid: str, quad: QuadratureSettings) -> CheckResult:
    ds = np.linspace(0.25, 6.0, 5)
    gaps = np.linspace(0.0, 4.0, 5)
    worst = 0.0
    for d in ds:
        for gap in gaps:
            det = DetectorSettings(1.0, float(gap))
            closed = static_x_abs(det, float(d))
            x = correlation_x(det, EncounterGeometry(float(d), 0.0), quad)
            worst = max(worst, abs(abs(x.value) - closed) / closed)
    n = negativity(DetectorSettings(1.0, 0.0), EncounterGeometry(1.0, 0.0), quad)
    n_dev = abs(n.negativity - 0.049378)
    ok = worst <= 1e-8 and n_dev <= 1e-6
    return CheckResult("static_reduction", ok, worst, 1e-8,
                       f"5x5 grid; N(1, 0, 0) dev {n_dev:.2e} (tol 1e-6)")


def check_degenerate_gap_extinction(_: OracleSettings, grid: str,
                                    quad: QuadratureSettings) -> CheckResult:
    det = DetectorSettings(1.0, 0.0)
    n_points = 50 if grid == "full" else 10
    vs = np.linspace(0.0, 0.99, n_points)
    worst = max(
        negativity(det, EncounterGeometry(2.0, float(v)), quad).negativity for v in vs
    )
    n_small = negativity(det, EncounterGeometry(0.5, 0.0), quad).negativity
    ok = worst == 0.0 and n_small > 0.0
    return CheckResult("degenerate_gap_extinction", ok, worst, 0.0,
                       f"max N over {n_points} v at d=2 (must be 0); N(0.5, 0, 0) = {n_small:.4e} > 0")


def check_scale_invariance(_: OracleSettings, grid: str, quad: QuadratureSettings) -> CheckResult:
    worst = 0.0
    for v in (0.0, 0.5):
        a = negativity(DetectorSettings(1.0, 0.0), EncounterGeometry(1.0, v), quad)
        b = negativity(DetectorSettings(3.0, 0.0), EncounterGeometry(3.0, v), quad)
        worst = max(worst, abs(a.negativity - b.negativity))
    return _check("scale_invariance_zero_gap", worst, 1e-9, "(d, sigma) in {(1,1), (3,3)}")


def _fd_slope(d: float, gap: float, quad: QuadratureSettings, eta: float = 1e-3) -> float:
    """Finite difference of |X|^2 in v^2 at v = 0, quadrature-based."""
    det = DetectorSettings(1.0, gap)
    x0 = abs(correlation_x(det, EncounterGeometry(d, 0.0), quad).value) ** 2
    xh = abs(correlation_x(det, EncounterGeometry(d, math.sqrt(eta)), quad).value) ** 2
    return (xh - x0) / eta


def bisect_gap_threshold(d: float, quad: QuadratureSettings,
                         lo: float = 0.3, hi: float = 1.5, tol: float = 1e-3) -> float:
    """Independent threshold estimate: bisection on the finite-difference
    slope of |X|^2 in v^2 at v = 0."""
    f_lo, f_hi = _fd_slope(d, lo, quad), _fd_slope(d, hi, quad)
    if not (f_lo < 0.0 < f_hi):
        raise ValueError(f"threshold not bracketed on [{lo}, {hi}] at d = {d}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _fd_slope(d, mid, quad) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_threshold_equivalence(_: OracleSettings, grid: str,
                                quad: QuadratureSettings) -> CheckResult:
    ds = (0.5, 1.0, 2.0, 3.0) if grid == "full" else (1.0,)
    for d in ds:
        omega_p = omega_peak_threshold(d)
        below = second_derivative_at_rest(DetectorSettings(1.0, omega_p * (1.0 - 1e-6)), d)
        above = second_derivative_at_rest(DetectorSettings(1.0, omega_p * (1.0 + 1e-6)), d)
        if not (below < 0.0 < above):
            return CheckResult("threshold_equivalence", False, math.inf, 1e-2,
                               f"no sign flip at d = {d}")
    worst = 0.0
    targets = {1.0: 0.8215, 2.0: 0.848} if grid == "full" else {1.0: 0.8215}
    for d, expected in targets.items():
        est = bisect_gap_threshold(d, quad)
        worst = max(worst, abs(est - expected))
    return _check("threshold_equivalence", worst, 1e-2,
                  "closed-form sign flips plus bisection on quadrature finite differences")


def check_peak_phenomenology(_: OracleSettings, grid: str,
                             quad: QuadratureSettings) -> CheckResult:
    peak = find_peak_velocity(DetectorSettings(1.0, 1.0), 1.0, quad)
    n0 = static_negativity(DetectorSettings(1.0, 1.0), 1.0)
    if peak is None or not (0.0 < peak.v_star < 1.0 and peak.n_star > n0 > 0.0):
        return CheckResult("peak_phenomenology", False, math.inf, 0.0,
                           "(d=1, gap=1) must show an interior peak above N(0) > 0")
    flat = velocity_profile(DetectorSettings(1.0, 0.5), 1.0, quad)
    n0_flat = static_negativity(DetectorSettings(1.0, 0.5), 1.0)
    if flat.peak is not None or not (n0_flat > 0.0):
        return CheckResult("peak_phenomenology", False, math.inf, 0.0,
                           "(d=1, gap=0.5) must be monotone with N(0) > 0")
    if np.any(np.diff(flat.n) > 0.0):
        return CheckResult("peak_phenomenology", False, math.inf, 0.0,
                           "(d=1, gap=0.5) scan is not non-increasing")
    # high-speed extinction on the oracle-equivalence grid
    ds, _vs, gaps = _x_grid(grid)
    v_deep = 1.0 - 1e-12
    for d in ds:
        for gap in gaps:
            det = DetectorSettings(1.0, gap)
            if static_negativity(det, d) <= 0.0:
                continue
            n_deep = negativity(det, EncounterGeometry(d, v_deep), quad).negativity
            if n_deep != 0.0:
                return CheckResult("peak_phenomenology", False, n_deep, 0.0,
                                   f"no extinction by v = {v_deep} at (d={d}, gap={gap})")
    return CheckResult("peak_phenomenology", True, 0.0, 0.0,
                       "peak at (1,1), monotone at (1,0.5), extinction on the grid")


def check_spacelike_criterion(_: OracleSettings, grid: str,
                              quad: QuadratureSettings) -> CheckResult:
    # binary 0.8 is not exactly 4/5; correctly rounded output is 10 + 1 ulp
    if abs(spacelike_min_distance(0.8, 1.0) - 10.0) > 2.0 * math.ulp(10.0):
        return CheckResult("spacelike_criterion", False, math.inf, 0.0,
                           "spacelike_min_distance(0.8) != 10 sigma (to roundoff)")
    rng = np.random.default_rng(20240817)
    n_pairs = 10_000 if grid == "full" else 1_000
    d = rng.uniform(0.1, 30.0, n_pairs)
    v = rng.uniform(0.0, 1.0, n_pairs, )
    v = np.minimum(v, 1.0 - 1e-12)
    flag = np.array([di >= spacelike_min_distance(vi, 1.0) for di, vi in zip(d, v)])
    direct = d >= 6.0 / np.sqrt(1.0 - v * v)
    mismatches = int((flag != direct).sum())
    if mismatches:
        return CheckResult("spacelike_criterion", False, float(mismatches), 0.0,
                           f"{mismatches} flag mismatches out of {n_pairs}")
    # spacelike harvesting at gap 4: find d >= 6/sqrt(1-v^2) with N > 0
    det = DetectorSettings(1.0, 4.0)
    for v_try in (0.3, 0.5, 0.7, 0.8):
        d_min = spacelike_min_distance(v_try, 1.0)
        for d_try in (d_min * 1.01, d_min * 1.1):
            q = negativity(det, EncounterGeometry(float(d_try), v_try), quad)
            if q.negativity > 0.0:
                return CheckResult(
                    "spacelike_criterion", True, 0.0, 0.0,
                    f"{n_pairs} random flags consistent; spacelike harvesting at "
                    f"(d={d_try:.3f}, v={v_try}, gap=4) with N={q.negativity:.3e}")
    return CheckResult("spacelike_criterion", False, math.inf, 0.0,
                       "no spacelike harvesting point found at gap 4")


def check_sweep_determinism(_: OracleSettings, grid: str, quad: QuadratureSettings) -> CheckResult:
    if grid == "full":
        counts, worker_sets = 20, (1, 4, 8)
    else:
        counts, worker_sets = 4, (1, 2)
    spec = SweepSpec(
        d_over_sigma=GridSpec(0.5, 4.0, counts),
        sigma_omega=GridSpec(0.0, 4.0, counts),
        v=GridSpec(0.0, 0.99, counts),
        quad=quad,
    )
    outputs = []
    for workers in worker_sets:
        buf = io.StringIO()
        write_sweep_csv(run_sweep(spec, workers=workers), buf)
        outputs.append(buf.getvalue())
    identical = all(out == outputs[0] for out in outputs)
    return CheckResult("sweep_determinism", identical, 0.0 if identical else 1.0, 0.0,
                       f"{counts}^3 grid, workers {worker_sets}")


_CHECKS = (
    check_p_oracle_vs_closed_form,
    check_p_closed_form_limits,
    check_x_oracle_vs_fast_path,
    check_static_reduction,
    check_degenerate_gap_extinction,
    check_scale_invariance,
    check_threshold_equivalence,
    check_peak_phenomenology,
    check_spacelike_criterion,
    check_sweep_determinism,
)


def run_validation(
    grid: str = "full",
    oracle: OracleSettings | None = None,
    quad: QuadratureSettings | None = None,
) -> dict:
    """Run every check; returns a JSON-serializable report."""
    if grid not in ("coarse", "full"):
        raise ValueError(f"grid must be 'coarse' or 'full', got {grid!r}")
    oracle = oracle if oracle is not None else OracleSettings()
    quad = quad if quad is not None else QuadratureSettings()
    results = []
    for fn in _CHECKS:
        try:
            results.append(fn(oracle, grid, quad))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(fn.__name__.removeprefix("check_"), False,
                                       math.inf, 0.0, f"{type(exc).__name__}: {exc}"))
    return {
        "grid": grid,
        "all_passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
