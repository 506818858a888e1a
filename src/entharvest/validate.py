"""Self-validation battery: oracle equivalence grids and model invariants.

Every check takes the grid alone and returns (passed, measured, tolerance,
detail): the measured deviation and the tolerance it was held to. _CHECKS
names each check; run_validation runs them in that order and collects
their results into a machine-readable report, a check that raises as a
failed one under its name. The fast path and the momentum-space oracles it
is checked against both run at the QuadratureSettings() defaults, the
settings the pass bounds assume. A check that needs the fast path at
several points of one d takes them from one row call (_rows), and the X
oracle check integrates each (d, v) once over its whole gap axis. The
"coarse" grid shrinks the sweep axes for a quick smoke run; "full" runs
the complete desk-scale grids.
"""

from __future__ import annotations

import io
import math

import numpy as np

from . import oracle as oracle_mod
from .model import (
    DetectorSettings,
    EncounterGeometry,
    NegativityRow,
    _negativity_rows,
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
from .sweep import GridSpec, SweepSpec, _error_text, _sweep_rows, run_sweep, write_sweep_csv

__all__ = ["run_validation"]


def _check(measured: float, tolerance: float, detail: str = "") -> tuple:
    return bool(measured <= tolerance), float(measured), float(tolerance), detail


def check_p_oracle_vs_closed_form(grid: str) -> tuple:
    vs = (0.0, 0.3, 0.6, 0.9, 0.99) if grid == "full" else (0.0, 0.9)
    gaps = (0.0, 1.0, 4.0) if grid == "full" else (0.0, 1.0)
    worst = 0.0
    for gap in gaps:
        det = DetectorSettings(1.0, gap)
        closed = transition_probability(det)
        for v in vs:
            value, _ = oracle_mod.p_momentum_oracle(det, v)
            worst = max(worst, abs(value - closed))
    return _check(worst, 1e-6, f"{len(vs) * len(gaps)} (v, gap) points")


def check_p_closed_form_limits(grid: str) -> tuple:
    dev0 = abs(transition_probability(DetectorSettings(1.0, 0.0)) - 1.0 / (4.0 * math.pi))
    dev1 = abs(transition_probability(DetectorSettings(1.0, 1.0)) - 0.0070883)
    measured = max(dev0 / 1e-12, dev1 / 1e-7)  # normalized to each tolerance
    return _check(measured, 1.0,
                  f"gap=0 dev {dev0:.2e} (tol 1e-12); gap=1 dev {dev1:.2e} (tol 1e-7)")


def _rows(d: float, gaps, vs) -> list[NegativityRow]:
    """The fast path at sigma = 1 on gaps x vs at one d, from one
    _negativity_rows call; a point that fails raises, as in negativity."""
    rows = _negativity_rows(d, gaps, vs)
    for row in rows:
        for exc in row.failures.values():
            raise exc
    return rows


def _x_grid(grid: str):
    if grid == "full":
        return (0.5, 1.0, 2.0, 4.0), (0.0, 0.3, 0.6, 0.9), (0.0, 0.5, 1.0, 2.0, 4.0)
    return (0.5, 2.0), (0.0, 0.9), (0.0, 1.0, 4.0)


def check_x_oracle_vs_fast_path(grid: str) -> tuple:
    ds, vs, gaps = _x_grid(grid)
    worst = 0.0
    for d in ds:
        fast = np.array([row.x for row in _rows(d, gaps, vs)])  # (gap, v)
        for j, v in enumerate(vs):
            slow, _ = oracle_mod._x_oracle(d, v, gaps)
            dev = np.abs(slow - fast[:, j]) / np.maximum(np.abs(fast[:, j]), 1e-5)  # floor 1e-10 / 1e-5
            worst = max(worst, float(dev.max()))
    return _check(worst, 1e-5,
                  f"{len(ds) * len(vs) * len(gaps)} (d, v, gap) points, relative with 1e-10 floor")


def check_static_reduction(grid: str) -> tuple:
    ds = np.linspace(0.25, 6.0, 5).tolist()
    gaps = np.linspace(0.0, 4.0, 5).tolist()
    worst = 0.0
    for d in ds:
        for gap, row in zip(gaps, _rows(d, gaps, [0.0])):
            closed = static_x_abs(DetectorSettings(1.0, gap), d)
            worst = max(worst, abs(float(row.x_abs[0]) - closed) / closed)
    n = negativity(DetectorSettings(1.0, 0.0), EncounterGeometry(1.0, 0.0))
    n_dev = abs(n.negativity - 0.049378)
    ok = worst <= 1e-8 and n_dev <= 1e-6
    return (ok, worst, 1e-8, f"5x5 grid; N(1, 0, 0) dev {n_dev:.2e} (tol 1e-6)")


def check_degenerate_gap_extinction(grid: str) -> tuple:
    det = DetectorSettings(1.0, 0.0)
    n_points = 50 if grid == "full" else 10
    vs = np.linspace(0.0, 0.99, n_points)
    worst = float(_rows(2.0, [det.gap], vs)[0].negativity.max())
    n_small = negativity(det, EncounterGeometry(0.5, 0.0)).negativity
    ok = worst == 0.0 and n_small > 0.0
    return (ok, worst, 0.0,
            f"max N over {n_points} v at d=2 (must be 0); N(0.5, 0, 0) = {n_small:.4e} > 0")


def check_scale_invariance(grid: str) -> tuple:
    worst = 0.0
    for v in (0.0, 0.5):
        a = negativity(DetectorSettings(1.0, 0.0), EncounterGeometry(1.0, v))
        b = negativity(DetectorSettings(3.0, 0.0), EncounterGeometry(3.0, v))
        worst = max(worst, abs(a.negativity - b.negativity))
    return _check(worst, 1e-9, "(d, sigma) in {(1,1), (3,3)}")


def _fd_slope(d: float, gap: float) -> float:
    """Finite difference of |X|^2 in v^2 at v = 0, step 1e-3, quadrature-based."""
    x0, xh = _rows(d, [gap], [0.0, math.sqrt(1e-3)])[0].x_abs ** 2
    return float(xh - x0) / 1e-3


def _bisect_gap_threshold(d: float) -> float:
    """Independent threshold estimate: bisection on [0.3, 1.5], to 1e-3, on
    the finite-difference slope of |X|^2 in v^2 at v = 0."""
    lo, hi = 0.3, 1.5
    if not (_fd_slope(d, lo) < 0.0 < _fd_slope(d, hi)):
        raise ValueError(f"threshold not bracketed on [{lo}, {hi}] at d = {d}")
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if _fd_slope(d, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_threshold_equivalence(grid: str) -> tuple:
    ds = (0.5, 1.0, 2.0, 3.0) if grid == "full" else (1.0,)
    for d in ds:
        omega_p = omega_peak_threshold(d)
        below = second_derivative_at_rest(DetectorSettings(1.0, omega_p * (1.0 - 1e-6)), d)
        above = second_derivative_at_rest(DetectorSettings(1.0, omega_p * (1.0 + 1e-6)), d)
        if not (below < 0.0 < above):
            return (False, math.inf, 1e-2, f"no sign flip at d = {d}")
    worst = 0.0
    targets = {1.0: 0.8215, 2.0: 0.848} if grid == "full" else {1.0: 0.8215}
    for d, expected in targets.items():
        est = _bisect_gap_threshold(d)
        worst = max(worst, abs(est - expected))
    return _check(worst, 1e-2,
                  "closed-form sign flips plus bisection on quadrature finite differences")


def check_peak_phenomenology(grid: str) -> tuple:
    peak = find_peak_velocity(DetectorSettings(1.0, 1.0), 1.0)
    n0 = static_negativity(DetectorSettings(1.0, 1.0), 1.0)
    if peak is None or not (0.0 < peak.v_star < 1.0 and peak.n_star > n0 > 0.0):
        return (False, math.inf, 0.0, "(d=1, gap=1) must show an interior peak above N(0) > 0")
    flat = velocity_profile(DetectorSettings(1.0, 0.5), 1.0)
    n0_flat = static_negativity(DetectorSettings(1.0, 0.5), 1.0)
    if flat.peak is not None or not (n0_flat > 0.0):
        return (False, math.inf, 0.0, "(d=1, gap=0.5) must be monotone with N(0) > 0")
    if np.any(np.diff(flat.n) > 0.0):
        return (False, math.inf, 0.0, "(d=1, gap=0.5) scan is not non-increasing")
    # high-speed extinction on the oracle-equivalence grid
    ds, _vs, gaps = _x_grid(grid)
    v_deep = 1.0 - 1e-12
    for d in ds:
        live = [gap for gap in gaps if static_negativity(DetectorSettings(1.0, gap), d) > 0.0]
        for gap, row in zip(live, _rows(d, live, [v_deep])):
            n_deep = float(row.negativity[0])
            if n_deep != 0.0:
                return (False, n_deep, 0.0, f"no extinction by v = {v_deep} at (d={d}, gap={gap})")
    return (True, 0.0, 0.0, "peak at (1,1), monotone at (1,0.5), extinction on the grid")


def check_spacelike_criterion(grid: str) -> tuple:
    # binary 0.8 is not exactly 4/5; correctly rounded output is 10 + 1 ulp
    if abs(spacelike_min_distance(0.8, 1.0) - 10.0) > 2.0 * math.ulp(10.0):
        return (False, math.inf, 0.0, "spacelike_min_distance(0.8) != 10 sigma (to roundoff)")
    rng = np.random.default_rng(20240817)
    n_pairs = 10_000 if grid == "full" else 1_000
    d = rng.uniform(0.1, 30.0, n_pairs)
    v = rng.uniform(0.0, 1.0, n_pairs, )
    v = np.minimum(v, 1.0 - 1e-12)
    flag = np.array([di >= spacelike_min_distance(vi, 1.0) for di, vi in zip(d, v)])
    direct = d >= 6.0 / np.sqrt(1.0 - v * v)
    mismatches = int((flag != direct).sum())
    if mismatches:
        return (False, float(mismatches), 0.0, f"{mismatches} flag mismatches out of {n_pairs}")
    # spacelike harvesting at gap 4: find d >= 6/sqrt(1-v^2) with N > 0
    det = DetectorSettings(1.0, 4.0)
    for v_try in (0.3, 0.5, 0.7, 0.8):
        d_min = spacelike_min_distance(v_try, 1.0)
        for d_try in (d_min * 1.01, d_min * 1.1):
            q = negativity(det, EncounterGeometry(float(d_try), v_try))
            if q.negativity > 0.0:
                return (True, 0.0, 0.0,
                        f"{n_pairs} random flags consistent; spacelike harvesting at "
                        f"(d={d_try:.3f}, v={v_try}, gap=4) with N={q.negativity:.3e}")
    return (False, math.inf, 0.0, "no spacelike harvesting point found at gap 4")


def check_sweep_determinism(grid: str) -> tuple:
    if grid == "full":
        counts, worker_sets = 20, (1, 4, 8)
    else:
        counts, worker_sets = 4, (1, 2)
    spec = SweepSpec(
        d_over_sigma=GridSpec(0.5, 4.0, counts),
        sigma_omega=GridSpec(0.0, 4.0, counts),
        v=GridSpec(0.0, 0.99, counts),
    )
    axes = [axis.points().tolist() for axis in (spec.d_over_sigma, spec.sigma_omega, spec.v)]
    outputs = []
    for workers in worker_sets:
        # the serial bytes are run_sweep's; each pool is started at its own
        # size, since run_sweep runs a grid this small serially (_pool_size)
        buf = io.StringIO()
        write_sweep_csv(run_sweep(spec) if workers == 1 else _sweep_rows(*axes, spec.quad, workers), buf)
        outputs.append(buf.getvalue())
    identical = all(out == outputs[0] for out in outputs)
    return (identical, 0.0 if identical else 1.0, 0.0, f"{counts}^3 grid, workers {worker_sets}")


_CHECKS = {
    "p_oracle_vs_closed_form": check_p_oracle_vs_closed_form,
    "p_closed_form_limits": check_p_closed_form_limits,
    "x_oracle_vs_fast_path": check_x_oracle_vs_fast_path,
    "static_reduction": check_static_reduction,
    "degenerate_gap_extinction": check_degenerate_gap_extinction,
    "scale_invariance_zero_gap": check_scale_invariance,
    "threshold_equivalence": check_threshold_equivalence,
    "peak_phenomenology": check_peak_phenomenology,
    "spacelike_criterion": check_spacelike_criterion,
    "sweep_determinism": check_sweep_determinism,
}


def run_validation(grid: str = "full") -> dict:
    """Run every check in _CHECKS; returns a JSON-serializable report."""
    if grid not in ("coarse", "full"):
        raise ValueError(f"grid must be 'coarse' or 'full', got {grid!r}")
    checks = []
    for name, check in _CHECKS.items():
        try:
            result = check(grid)
        except Exception as exc:  # a crashed check is a failed check
            result = (False, math.inf, 0.0, _error_text(exc))
        checks.append(dict(zip(("name", "passed", "measured", "tolerance", "detail"),
                               (name, *result))))
    return {
        "grid": grid,
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
