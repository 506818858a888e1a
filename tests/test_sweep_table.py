"""run_sweep's result, a read-only view of SweepRow over its tasks' arrays.

write_sweep_csv writes the view a block at a time with no row built, and
any other iterable of SweepRow a row at a time; both must give the bytes
of the cell-by-cell reference writer in tests/test_csv_writer.py. The
rows the view builds on demand must hold the values of the arrays that
model._negativity_rows returns, failures included, and `point` must print
the JSON that the point's row gives.
"""

import io
import json
import math

import pytest

from entharvest import model
from entharvest import sweep as sweep_mod
from entharvest.cli import main
from entharvest.quadrature import QuadratureError, QuadratureSettings
from entharvest.sweep import SWEEP_COLUMNS, GridSpec, SweepSpec, run_sweep, write_sweep_csv
from test_csv_writer import reference
from test_golden import make_golden

# a lightspeed v axis at a subdivision budget that fails 25 of its 36
# points: a gap's row fails at every v but the first, or at some between
# points that converge
_FAILING_LIGHTSPEED = {
    "d_over_sigma": {"min": 0.5, "max": 4.0, "count": 2, "spacing": "log"},
    "sigma_omega": {"min": 0.0, "max": 4.0, "count": 3},
    "v": {"min": 0.0, "max": 1.0 - 1e-9, "count": 6, "spacing": "lightspeed"},
    "quadrature": {"rel_tol": 1e-11, "abs_tol": 1e-300, "max_subdivisions": 1},
}
SPECS = {
    **{case: SweepSpec.from_dict(config)
       for case, (command, config) in make_golden.CASES.items() if command == "sweep"},
    "failing_lightspeed": SweepSpec.from_dict(_FAILING_LIGHTSPEED),
    # every cell of a gap's line is fixed but where a point fails
    "failing_lightspeed_axis_columns": SweepSpec.from_dict(
        {**_FAILING_LIGHTSPEED, "outputs": ["p", "error", "sigma_omega", "d_over_sigma"]}),
}


def text(rows, columns) -> str:
    buf = io.StringIO()
    write_sweep_csv(rows, buf, columns)
    return buf.getvalue()


def same(a: float, b: float) -> bool:
    """Equal floats, with NaN equal to NaN and -0.0 not equal to 0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("case", sorted(SPECS))
def test_both_routes_give_the_reference_bytes(case):
    spec = SPECS[case]
    table = run_sweep(spec)
    rows = list(table)
    assert text(table, spec.outputs) == text(rows, spec.outputs) == reference(rows, spec.outputs)
    if case in make_golden.CASES:
        golden = (make_golden.DATA / case).read_text(encoding="utf-8")
        assert text(table, spec.outputs) == golden


@pytest.mark.parametrize("columns", [SWEEP_COLUMNS, ("error", "v", "p"), ("p", "error", "d_over_sigma")])
def test_an_error_text_with_percent_signs_is_written_as_it_is(monkeypatch, columns):
    # every X integral that reaches gap 2 fails with a message holding %
    # signs, a comma and a line break: gap 2's lines must be the reference
    # writer's, the other gaps' lines too
    real = model.integrate_line

    def failing(integrand, width, settings, max_frequency=0.0, **kwargs):
        if max_frequency >= 2.0:
            raise QuadratureError("100%s of 2%d, or 50%\nleft %(x)s %")
        return real(integrand, width, settings, max_frequency=max_frequency, **kwargs)

    monkeypatch.setattr(model, "integrate_line", failing)
    spec = SweepSpec(GridSpec(0.5, 1.0, 2), GridSpec(0.0, 2.0, 3), GridSpec(0.0, 0.9, 3), outputs=columns)
    table = run_sweep(spec)
    rows = list(table)
    assert table.failed == 6
    assert {row.sigma_omega for row in rows if row.error} == {2.0}
    assert all("%" in row.error for row in rows if row.error)
    assert text(table, columns) == text(rows, columns) == reference(rows, columns)


@pytest.mark.parametrize("case", sorted(SPECS))
def test_rows_hold_the_row_arrays(case):
    spec = SPECS[case]
    table = run_sweep(spec)
    ds, gaps, vs = (axis.points().tolist() for axis in (spec.d_over_sigma, spec.sigma_omega, spec.v))
    assert len(table) == len(ds) * len(gaps) * len(vs)
    k, failed = 0, 0
    for d in ds:
        for gap, arrays in zip(gaps, model._negativity_rows(d, gaps, vs, spec.quad)):
            for i, v in enumerate(vs):
                row = table[k]
                k += 1
                exc = arrays.failures.get(i)
                failed += exc is not None
                expected = (d, v, gap, math.nan if exc is not None else arrays.p,
                            arrays.x.real[i], arrays.x.imag[i], arrays.x_abs[i], arrays.m[i],
                            arrays.negativity[i], arrays.x_error_estimate[i])
                assert all(same(a, b) for a, b in zip(row[:10], expected)), (row, expected)
                assert all(type(value) is float for value in row[:10])
                assert row.spacelike is (d >= model.spacelike_min_distance(v, 1.0))
                assert row.error == ("" if exc is None else sweep_mod._error_text(exc))
    assert k == len(table)
    assert table.failed == failed == sum(1 for row in table if row.error)
    assert (failed > 0) == ("failing" in case)


def test_the_view_is_a_read_only_sequence():
    table = run_sweep(SPECS["golden_sweep_block.csv"])
    n = len(table)
    rows = list(table)
    assert len(rows) == n == 2 * 4 * 5
    assert [reference([table[i]], SWEEP_COLUMNS) for i in (-1, -n, n // 2)] == \
        [reference([rows[i]], SWEEP_COLUMNS) for i in (-1, -n, n // 2)]
    assert reference(table[3:11:2], SWEEP_COLUMNS) == reference(rows[3:11:2], SWEEP_COLUMNS)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            table[i]
    with pytest.raises(TypeError):
        table[0] = rows[0]
    (single,) = run_sweep(SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.0, 1)))
    assert single.negativity == pytest.approx(0.049378, abs=1e-6)


@pytest.mark.parametrize("d, v, omega", [
    (1.0, 0.5, 1.0),
    (7.0, 0.0, 0.0),
    (1.0, 0.999999999, 3.0),
    (1.0, 0.5, 1e4),
], ids=["plain", "spacelike", "lightspeed", "failing"])
def test_point_prints_its_rows_json(capsys, d, v, omega):
    # the JSON is that of the point's SweepRow without its error cell, and
    # a failed point prints the error cell alone, to stderr; at omega = 1e4
    # the X window needs more start panels than the limit
    rc = main(["point", "--d", str(d), "--v", str(v), "--omega", str(omega)])
    captured = capsys.readouterr()
    payload = sweep_mod._sweep_rows([d], [omega], [v], QuadratureSettings(), 1)[0]._asdict()
    error = payload.pop("error")
    assert rc == (1 if error else 0)
    assert captured.out == ("" if error else json.dumps(payload, indent=2) + "\n")
    assert captured.err == (error + "\n" if error else "")
    assert bool(error) == (omega == 1e4)
    assert payload["spacelike"] == (d == 7.0)


def test_sweep_counts_its_failures(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(_FAILING_LIGHTSPEED))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    rows = list(run_sweep(SPECS["failing_lightspeed"]))
    failed = sum(1 for row in rows if row.error)
    assert 0 < failed < len(rows)
    assert capsys.readouterr().err == f"{failed}/{len(rows)} points failed; see the error column\n"
    assert out.read_text(encoding="utf-8") == reference(rows, SWEEP_COLUMNS)
