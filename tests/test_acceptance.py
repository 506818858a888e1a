"""End-to-end acceptance battery.

Each test covers one numbered criterion, runs it at full grid size, and
prints a single pass/fail line with the measured figure of merit.
"""

import time

from entharvest.quadrature import QuadratureSettings
from entharvest.validate import (
    check_degenerate_gap_extinction,
    check_p_closed_form_limits,
    check_p_oracle_vs_closed_form,
    check_peak_phenomenology,
    check_scale_invariance,
    check_spacelike_criterion,
    check_static_reduction,
    check_sweep_determinism,
    check_threshold_equivalence,
    check_x_oracle_vs_fast_path,
)

QUAD = QuadratureSettings()


def _report(criterion: int, chk, elapsed: float | None = None) -> None:
    status = "PASS" if chk.passed else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{status} criterion-{criterion} {chk.name}: "
          f"measured={chk.measured:.3e} tolerance={chk.tolerance:.3e}{timing}")


def test_criterion_1_p_oracle_agreement():
    t0 = time.perf_counter()
    chk = check_p_oracle_vs_closed_form(grid="full", quad=QUAD)
    elapsed = time.perf_counter() - t0
    _report(1, chk, elapsed)
    assert chk.passed, chk.detail
    assert elapsed < 30.0


def test_criterion_2_p_closed_form_limits():
    chk = check_p_closed_form_limits(grid="full", quad=QUAD)
    _report(2, chk)
    assert chk.passed, chk.detail


def test_criterion_3_x_oracle_agreement():
    t0 = time.perf_counter()
    chk = check_x_oracle_vs_fast_path(grid="full", quad=QUAD)
    elapsed = time.perf_counter() - t0
    _report(3, chk, elapsed)
    assert chk.passed, chk.detail
    assert elapsed < 180.0


def test_criterion_4_static_reduction():
    chk = check_static_reduction(grid="full", quad=QUAD)
    _report(4, chk)
    assert chk.passed, chk.detail


def test_criterion_5_degenerate_gap_extinction():
    chk = check_degenerate_gap_extinction(grid="full", quad=QUAD)
    _report(5, chk)
    assert chk.passed, chk.detail


def test_criterion_6_scale_invariance():
    chk = check_scale_invariance(grid="full", quad=QUAD)
    _report(6, chk)
    assert chk.passed, chk.detail


def test_criterion_7_threshold_equivalence():
    chk = check_threshold_equivalence(grid="full", quad=QUAD)
    _report(7, chk)
    assert chk.passed, chk.detail


def test_criterion_8_peak_phenomenology():
    chk = check_peak_phenomenology(grid="full", quad=QUAD)
    _report(8, chk)
    assert chk.passed, chk.detail


def test_criterion_9_spacelike_criterion():
    chk = check_spacelike_criterion(grid="full", quad=QUAD)
    _report(9, chk)
    assert chk.passed, chk.detail


def test_criterion_10_sweep_determinism():
    t0 = time.perf_counter()
    chk = check_sweep_determinism(grid="full", quad=QUAD)
    elapsed = time.perf_counter() - t0
    _report(10, chk, elapsed)
    assert chk.passed, chk.detail
    assert elapsed < 300.0
