"""End-to-end acceptance battery.

Each test covers one numbered criterion, runs it at full grid size, and
prints a single pass/fail line with the measured figure of merit.
"""

import time
from typing import NamedTuple

from entharvest.validate import _CHECKS


class Check(NamedTuple):
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


def _run(name: str) -> Check:
    """The check of that name in validate's table, at the full grid."""
    return Check(name, *_CHECKS[name]("full"))


def _report(criterion: int, chk, elapsed: float | None = None) -> None:
    status = "PASS" if chk.passed else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{status} criterion-{criterion} {chk.name}: "
          f"measured={chk.measured:.3e} tolerance={chk.tolerance:.3e}{timing}")


def test_criterion_1_p_oracle_agreement():
    t0 = time.perf_counter()
    chk = _run("p_oracle_vs_closed_form")
    elapsed = time.perf_counter() - t0
    _report(1, chk, elapsed)
    assert chk.passed, chk.detail
    assert elapsed < 30.0


def test_criterion_2_p_closed_form_limits():
    chk = _run("p_closed_form_limits")
    _report(2, chk)
    assert chk.passed, chk.detail


def test_criterion_3_x_oracle_agreement():
    t0 = time.perf_counter()
    chk = _run("x_oracle_vs_fast_path")
    elapsed = time.perf_counter() - t0
    _report(3, chk, elapsed)
    assert chk.passed, chk.detail
    assert elapsed < 180.0


def test_criterion_4_static_reduction():
    chk = _run("static_reduction")
    _report(4, chk)
    assert chk.passed, chk.detail


def test_criterion_5_degenerate_gap_extinction():
    chk = _run("degenerate_gap_extinction")
    _report(5, chk)
    assert chk.passed, chk.detail


def test_criterion_6_scale_invariance():
    chk = _run("scale_invariance_zero_gap")
    _report(6, chk)
    assert chk.passed, chk.detail


def test_criterion_7_threshold_equivalence():
    chk = _run("threshold_equivalence")
    _report(7, chk)
    assert chk.passed, chk.detail


def test_criterion_8_peak_phenomenology():
    chk = _run("peak_phenomenology")
    _report(8, chk)
    assert chk.passed, chk.detail


def test_criterion_9_spacelike_criterion():
    chk = _run("spacelike_criterion")
    _report(9, chk)
    assert chk.passed, chk.detail


def test_criterion_10_sweep_determinism():
    t0 = time.perf_counter()
    chk = _run("sweep_determinism")
    elapsed = time.perf_counter() - t0
    _report(10, chk, elapsed)
    assert chk.passed, chk.detail
    assert elapsed < 300.0
