"""X against the frozen high-precision table tests/data/reference_x.csv.

tests/data/make_reference.py wrote the table from the u form in mpmath, at
30 or more digits and without the package; this test only reads it, so
it needs no mpmath. At every point X's error must be within its own
error estimate.
"""

import csv
from pathlib import Path

import pytest

from entharvest.model import DetectorSettings, EncounterGeometry, negativity

_TABLE = Path(__file__).parent / "data" / "reference_x.csv"
with open(_TABLE, encoding="utf-8", newline="") as _fh:
    ROWS = list(csv.DictReader(_fh))

# Points whose X is off by more than its estimate: known defects, kept in
# the table. At both, the real part of X is all cancellation (below 1e-22
# under an integrand of order 0.1) and its roundoff, about 3e-18, is not
# charged, since the estimate counts truncation and refinement only.
# Strict: charging roundoff turns these into failures until the marks go.
ROUNDOFF_DEFECTS = {
    4: "(d, v, gap) = (1.70, 0.395, 7.36): error 4.56e-18, estimate 4.10e-18",
    16: "(d, v, gap) = (2.05, 0.837, 9.96): error 3.13e-18, estimate 2.97e-18",
}


def test_the_table_spans_its_ranges():
    d, v, gap = ([float(row[k]) for row in ROWS] for k in ("d_over_sigma", "v", "sigma_omega"))
    assert len(ROWS) == 40
    assert 0.1 <= min(d) and max(d) <= 8.0 and 0.0 <= min(gap) and max(gap) <= 10.0
    assert 1.0 - max(v) < 1e-8 and max(gap) > 9.0


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"point{k}", marks=[pytest.mark.xfail(strict=True, reason=ROUNDOFF_DEFECTS[k])]
                 if k in ROUNDOFF_DEFECTS else [])
    for k, row in enumerate(ROWS)])
def test_x_is_within_its_error_estimate_of_the_reference(row):
    d, v, gap = (float(row[k]) for k in ("d_over_sigma", "v", "sigma_omega"))
    ref = complex(float(row["x_re"]), float(row["x_im"]))
    q = negativity(DetectorSettings(1.0, gap), EncounterGeometry(d, v))
    assert abs(q.x - ref) <= q.x_error_estimate
