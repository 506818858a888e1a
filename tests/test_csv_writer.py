"""The CSV writer of row lists against a frozen cell-by-cell reference.

`_cell` and `_write_csv` below are the reference writer, kept verbatim:
every row and any accepted choice of columns must give the same bytes
through `write_sweep_csv` and `write_region_csv`, so a change to how
either formats a cell shows up here. (`write_sweep_csv` writes
`run_sweep`'s table by another route, which tests/test_sweep_table.py
checks against this reference.)
"""

import io
import math
from typing import IO, Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from entharvest.model import RegionLabel
from entharvest.sweep import SWEEP_COLUMNS, RegionRow, SweepRow, write_region_csv, write_sweep_csv


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, RegionLabel):
        return value.value
    if isinstance(value, str):
        # a multi-line message must not split its row, nor a comma its cell
        return " ".join(value.splitlines()).replace(",", ";")
    # IEEE-754 round-trip decimal, locale-independent
    return "%.17g" % value


def _write_csv(rows: Iterable, fh: IO[str], columns: Sequence[str]) -> None:
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join([_cell(getattr(row, col)) for col in columns]) + "\n")


def reference(rows, columns) -> str:
    buf = io.StringIO()
    _write_csv(rows, buf, columns)
    return buf.getvalue()


EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 - 1e-9]
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2 ** 70), 2 ** 70),
)
texts = st.one_of(
    st.sampled_from(["", "a\nb,c", "a\r\nb", "x,y,,z\r", "\n", "ConvergenceError: 1,2\n3"]),
    st.text(),
)
sweep_rows = st.builds(
    SweepRow, floats, floats, floats, floats, floats, floats, floats, floats, floats, floats,
    st.booleans(), texts,
)
region_rows = st.builds(
    RegionRow, floats, floats, st.none() | st.sampled_from(RegionLabel),
    st.none() | floats, st.none() | floats, texts,
)
# random non-empty subsets in random order, each column at most once
columns = st.lists(st.sampled_from(SWEEP_COLUMNS), min_size=1, unique=True)


@given(rows=st.lists(sweep_rows, max_size=6), cols=columns)
@hyp_settings(max_examples=150, deadline=None)
def test_sweep_bytes_match_the_cell_by_cell_writer(rows, cols):
    buf = io.StringIO()
    write_sweep_csv(rows, buf, cols)
    assert buf.getvalue() == reference(rows, cols)


@given(rows=st.lists(sweep_rows, max_size=6))
@hyp_settings(max_examples=50, deadline=None)
def test_default_sweep_columns_and_a_generator_of_rows(rows):
    buf = io.StringIO()
    write_sweep_csv(iter(rows), buf)
    assert buf.getvalue() == reference(rows, SWEEP_COLUMNS)


@given(rows=st.lists(region_rows, max_size=6))
@hyp_settings(max_examples=150, deadline=None)
def test_region_bytes_match_the_cell_by_cell_writer(rows):
    buf = io.StringIO()
    write_region_csv(rows, buf)
    assert buf.getvalue() == reference(rows, RegionRow._fields)


def test_no_rows_writes_the_header_alone():
    for cols in (SWEEP_COLUMNS, ("error", "v")):
        buf = io.StringIO()
        write_sweep_csv([], buf, cols)
        assert buf.getvalue() == reference([], cols)
    buf = io.StringIO()
    with pytest.raises(ValueError) as info:
        write_sweep_csv([], buf, ())
    assert str(info.value) == "outputs must name at least one column"
    assert buf.getvalue() == ""
    buf = io.StringIO()
    write_region_csv([], buf)
    assert buf.getvalue() == "d_over_sigma,sigma_omega,region,v_star,n_star,error\n"


@pytest.mark.parametrize("cols", [("v", "v"), ["negativity", "v", "negativity"]])
def test_a_repeated_column_is_refused_before_anything_is_written(cols):
    # SweepSpec's rule for its outputs
    buf = io.StringIO()
    with pytest.raises(ValueError) as info:
        write_sweep_csv([SweepRow(1.0, 0.0, 0.0)], buf, cols)
    assert str(info.value) == f"output columns must be distinct, got {cols!r}"
    assert buf.getvalue() == ""


@pytest.mark.parametrize("rows, cols, unknown", [
    ([], ["bogus"], "['bogus']"),
    ([SweepRow(1.0, 0.0, 0.0)], ["v", "entropy", "bogus"], "['bogus', 'entropy']"),
])
def test_an_unknown_column_is_refused_before_anything_is_written(rows, cols, unknown):
    # the message SweepSpec gives for its outputs
    buf = io.StringIO()
    with pytest.raises(ValueError) as info:
        write_sweep_csv(rows, buf, cols)
    assert str(info.value) == f"unknown output columns: {unknown}"
    assert buf.getvalue() == ""
