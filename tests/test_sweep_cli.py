import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from entharvest import model
from entharvest import sweep as sweep_mod
from entharvest import validate as validate_mod
from entharvest.cli import main
from entharvest.model import RegionLabel
from entharvest.quadrature import QuadratureSettings
from entharvest.sweep import (
    SWEEP_COLUMNS,
    GridSpec,
    RegionRow,
    SweepRow,
    SweepSpec,
    run_region_scan,
    run_sweep,
    write_region_csv,
    write_sweep_csv,
)


def small_spec(**quad_kwargs) -> SweepSpec:
    return SweepSpec(
        d_over_sigma=GridSpec(0.5, 2.0, 3),
        sigma_omega=GridSpec(0.0, 1.0, 2),
        v=GridSpec(0.0, 0.9, 3),
        quad=QuadratureSettings(**quad_kwargs) if quad_kwargs else QuadratureSettings(),
    )


def sweep_text(spec: SweepSpec, workers: int = 1) -> str:
    buf = io.StringIO()
    write_sweep_csv(run_sweep(spec, workers=workers), buf)
    return buf.getvalue()


class TestGridSpec:
    def test_linear(self):
        assert GridSpec(0.0, 1.0, 5).points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log(self):
        pts = GridSpec(0.1, 10.0, 3, "log").points()
        assert pts == pytest.approx([0.1, 1.0, 10.0])

    def test_lightspeed_densifies_toward_one(self):
        pts = GridSpec(0.0, 1.0 - 1e-4, 5, "lightspeed").points()
        assert pts[0] == 0.0
        assert pts[-1] == pytest.approx(1.0 - 1e-4)
        gaps = np.diff(1.0 - pts)
        assert np.all(gaps < 0)  # 1 - v strictly decreasing

    def test_singleton(self):
        assert GridSpec(0.3, 0.3, 1).points().tolist() == [0.3]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.5, 3)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 3, "log")
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 3, "lightspeed")
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 3, "cubic")


class TestSweep:
    def test_row_count_and_order(self):
        spec = small_spec()
        rows = run_sweep(spec)
        assert len(rows) == 3 * 2 * 3
        # row-major (d, omega, v): v varies fastest
        assert [r.v for r in rows[:3]] == pytest.approx([0.0, 0.45, 0.9])
        assert rows[0].sigma_omega == rows[2].sigma_omega
        assert rows[3].sigma_omega != rows[0].sigma_omega

    def test_static_reference_row(self):
        spec = SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.0, 1))
        (row,) = run_sweep(spec)
        assert row.negativity == pytest.approx(0.049378, abs=1e-6)
        assert row.m == row.negativity
        assert row.error == ""

    def test_negativity_clamped(self):
        for row in run_sweep(small_spec()):
            assert row.negativity == max(row.m, 0.0)
            assert row.x_abs == pytest.approx(math.hypot(row.x_re, row.x_im), rel=1e-15)

    def test_spacelike_flags(self):
        spec = SweepSpec(GridSpec(5.0, 7.0, 2), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.0, 1))
        rows = run_sweep(spec)
        assert [r.spacelike for r in rows] == [False, True]

    def test_failure_is_flagged_not_raised(self):
        spec = SweepSpec(
            d_over_sigma=GridSpec(0.5, 0.5, 1),
            sigma_omega=GridSpec(4.0, 4.0, 1),
            v=GridSpec(0.9, 0.9, 1),
            quad=QuadratureSettings(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=1),
        )
        (row,) = run_sweep(spec)
        assert row.error != ""
        assert math.isnan(row.negativity)

    def test_from_dict_round_trip(self, tmp_path):
        cfg = {
            "d_over_sigma": {"min": 0.5, "max": 2.0, "count": 3},
            "sigma_omega": {"min": 0.0, "max": 1.0, "count": 2},
            "v": {"min": 0.0, "max": 0.9, "count": 3, "spacing": "lightspeed"},
            "quadrature": {"rel_tol": 1e-8},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        spec = SweepSpec.from_json(str(path))
        assert spec.quad.rel_tol == 1e-8
        assert spec.v.spacing == "lightspeed"
        assert len(run_sweep(spec)) == 18

    def test_output_column_subset(self):
        spec = SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.0, 1),
                         outputs=("d_over_sigma", "negativity"))
        buf = io.StringIO()
        write_sweep_csv(run_sweep(spec), buf, spec.outputs)
        header, line, tail = buf.getvalue().split("\n")
        assert header == "d_over_sigma,negativity"
        assert len(line.split(",")) == 2
        assert tail == ""

    def test_multiline_error_stays_on_one_line(self):
        buf = io.StringIO()
        write_sweep_csv([SweepRow(1.0, 0.0, 0.0, error="a\nb,c")], buf)
        header, line, tail = buf.getvalue().split("\n")
        assert tail == ""
        assert line.split(",")[-1] == "a b;c"
        assert len(line.split(",")) == len(SWEEP_COLUMNS)

    def test_outputs_must_be_a_list(self):
        cfg = {
            "d_over_sigma": {"min": 1.0, "max": 1.0, "count": 1},
            "sigma_omega": {"min": 0.0, "max": 0.0, "count": 1},
            "v": {"min": 0.0, "max": 0.0, "count": 1},
            "outputs": 5,
        }
        with pytest.raises(ValueError, match="config 'outputs' must be a list of column names"):
            SweepSpec.from_dict(cfg)

    def test_rejects_unknown_columns(self):
        with pytest.raises(ValueError):
            SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.0, 1),
                      outputs=("negativity", "entropy"))


class TestRowBatches:
    """A sweep evaluates each (d, omega) row's v axis in batches of X integrals."""

    def test_failure_stays_with_its_point(self):
        # the near-lightspeed v exhausts 20 subdivisions, so its batch fails and
        # every v is re-run alone: each row is the one that point gets alone
        quad = QuadratureSettings(max_subdivisions=20)
        spec = SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(1.0, 1.0, 1),
                         GridSpec(0.0, 1.0 - 1e-9, 4, "lightspeed"), quad=quad)
        rows = run_sweep(spec)
        assert rows[0].error == ""
        assert rows[-1].error.startswith("ConvergenceError: no convergence")
        alone = [sweep_mod._sweep_point((1.0, 1.0, v, quad)) for v in spec.v.points().tolist()]
        buf_rows, buf_alone = io.StringIO(), io.StringIO()
        write_sweep_csv(rows, buf_rows)
        write_sweep_csv(alone, buf_alone)
        assert buf_rows.getvalue() == buf_alone.getvalue()
        q = model.negativity(model.DetectorSettings(1.0, 1.0), model.EncounterGeometry(1.0, 0.0), quad)
        assert (rows[0].x_re, rows[0].x_im, rows[0].negativity) == (q.x.real, q.x.imag, q.negativity)

    def test_rows_agree_with_single_points(self):
        spec = SweepSpec(GridSpec(0.5, 3.0, 2), GridSpec(0.0, 3.0, 2),
                         GridSpec(0.0, 1.0 - 1e-6, 20, "lightspeed"))
        for row in run_sweep(spec):
            q = model.negativity(model.DetectorSettings(1.0, row.sigma_omega),
                                 model.EncounterGeometry(row.d_over_sigma, row.v), spec.quad)
            assert abs(complex(row.x_re, row.x_im) - q.x) <= 2e-9 * abs(q.x)
            assert row.p == q.p

    def test_long_v_axis_bytes_match_across_workers(self):
        spec = SweepSpec(GridSpec(0.5, 2.0, 2), GridSpec(0.0, 1.0, 2), GridSpec(0.0, 0.999, 20))
        assert spec.v.count > model._X_BATCH
        assert sweep_text(spec, workers=2) == sweep_text(spec, workers=1)


@st.composite
def accepted_specs(draw) -> SweepSpec:
    """Any SweepSpec the validators accept, up to three points per axis."""
    def bounds(lo, hi):
        a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
        return a, b, draw(st.integers(1, 3))

    log_lo, log_hi, d_count = bounds(-300.0, 8.0)
    try:
        return SweepSpec(
            GridSpec(10.0 ** log_lo, 10.0 ** log_hi, d_count, "log"),
            GridSpec(*bounds(0.0, 3000.0)),
            GridSpec(*bounds(0.0, 1.0 - 1e-12), draw(st.sampled_from(["linear", "lightspeed"]))),
            QuadratureSettings(
                rel_tol=10.0 ** draw(st.floats(-14.0, -1.0)),
                abs_tol=10.0 ** draw(st.floats(-20.0, -3.0)),
                truncation_sigmas=draw(st.floats(6.0, 20.0)),
                max_subdivisions=draw(st.integers(1, 4000)),
            ),
        )
    except ValueError:
        assume(False)


@given(spec=accepted_specs())
@hyp_settings(max_examples=25, deadline=None)
def test_any_accepted_spec_sweeps_without_raising(spec):
    rows = run_sweep(spec)
    assert len(rows) == spec.d_over_sigma.count * spec.sigma_omega.count * spec.v.count


class TestDeterminism:
    def test_repeat_is_byte_identical(self):
        spec = small_spec()
        assert sweep_text(spec) == sweep_text(spec)

    def test_workers_do_not_change_bytes(self):
        spec = small_spec()
        serial = sweep_text(spec, workers=1)
        assert sweep_text(spec, workers=2) == serial

    def test_csv_format(self):
        text = sweep_text(small_spec())
        lines = text.split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert lines[-1] == ""
        assert "\r" not in text
        sample = lines[1].split(",")
        assert len(sample) == len(SWEEP_COLUMNS)
        assert sample[SWEEP_COLUMNS.index("spacelike")] in ("true", "false")
        # every numeric cell round-trips exactly through float()
        for cell in sample[:-2]:
            assert repr(float(cell)) is not None


class TestRegionScan:
    def test_labels(self):
        rows = run_region_scan(GridSpec(0.5, 0.5, 1), GridSpec(0.5, 2.0, 2))
        assert rows[0].region.value == "monotone-decreasing"
        assert rows[1].region.value == "peaked"
        assert rows[1].v_star is not None and rows[1].n_star > 0.0

    def test_extinct(self):
        rows = run_region_scan(GridSpec(8.0, 8.0, 1), GridSpec(0.5, 0.5, 1))
        assert rows[0].region.value == "no-entanglement"
        assert rows[0].v_star is None

    def test_csv(self):
        buf = io.StringIO()
        write_region_csv(run_region_scan(GridSpec(0.5, 0.5, 1), GridSpec(0.5, 0.5, 1)), buf)
        lines = buf.getvalue().split("\n")
        assert lines[0].startswith("d_over_sigma,sigma_omega,region")
        assert "monotone-decreasing" in lines[1]

    def test_peaked_row_cells(self):
        buf = io.StringIO()
        write_region_csv([RegionRow(1.0, 2.0, RegionLabel.PEAKED, 0.5, 0.25)], buf)
        assert buf.getvalue().split("\n")[1] == "1,2,peaked,0.5,0.25,"

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="d_over_sigma grid must be > 0"):
            run_region_scan(GridSpec(0.0, 1.0, 2), GridSpec(0.5, 0.5, 1))
        with pytest.raises(ValueError, match="sigma_omega grid must be >= 0"):
            run_region_scan(GridSpec(1.0, 1.0, 1), GridSpec(-0.5, 0.5, 2))

    def test_csv_escapes_error_cell(self):
        buf = io.StringIO()
        write_region_csv([RegionRow(1.0, 0.0, error="a\r\nb,c")], buf)
        header, line, tail = buf.getvalue().split("\n")
        assert tail == "" and "\r" not in line
        assert line == "1,0,,,,a b;c"

    def test_any_exception_becomes_an_error_row(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bad\nprofile")

        monkeypatch.setattr(sweep_mod, "velocity_profile", broken)
        row = sweep_mod._region_point((1.0, 1.0, QuadratureSettings()))
        assert row.region is None
        assert row.error == "ValueError: bad\nprofile"

    def test_peaked_point_costs_one_scan_and_one_search(self, monkeypatch):
        velocities = []
        real = model._x_integrals

        def counted(d, vs, gap, settings):
            velocities.extend(vs)
            return real(d, vs, gap, settings)

        monkeypatch.setattr(model, "_x_integrals", counted)
        row = sweep_mod._region_point((1.0, 2.0, QuadratureSettings()))
        assert row.region is RegionLabel.PEAKED
        assert len(velocities) <= 64 + 30


class TestCli:
    def test_point(self, capsys):
        rc = main(["point", "--d", "1.0", "--v", "0.0", "--omega", "0.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["negativity"] == pytest.approx(0.049378, abs=1e-6)
        assert payload["spacelike"] is False
        assert list(payload) == [c for c in SWEEP_COLUMNS if c != "error"]

    def test_point_error_goes_to_stderr(self, capsys):
        rc = main(["point", "--d", "1.0", "--v", "1.5", "--omega", "0.0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("ValueError: v must satisfy")

    def test_point_bad_input_goes_to_stderr(self, capsys):
        rc = main(["point", "--d", "1", "--v", "0.3", "--omega", "1", "--sigma", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "ValueError: sigma must be finite and > 0, got 0.0\n"

    def test_point_quad_flag(self, capsys):
        rc = main(["point", "--d", "1.0", "--v", "0.3", "--omega", "1.0",
                   "--rel-tol", "1e-6"])
        assert rc == 0
        loose = json.loads(capsys.readouterr().out)
        main(["point", "--d", "1.0", "--v", "0.3", "--omega", "1.0"])
        tight = json.loads(capsys.readouterr().out)
        assert loose["x_abs"] == pytest.approx(tight["x_abs"], rel=1e-5)
        assert loose["x_error_estimate"] >= tight["x_error_estimate"]

    def test_sweep(self, tmp_path, capsys):
        cfg = {
            "d_over_sigma": {"min": 1.0, "max": 1.0, "count": 1},
            "sigma_omega": {"min": 0.0, "max": 0.0, "count": 1},
            "v": {"min": 0.0, "max": 0.5, "count": 2},
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        rc = main(["sweep", "--config", str(config), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().split("\n")
        assert len(lines) == 4  # header + 2 rows + trailing newline
        assert lines[0] == ",".join(SWEEP_COLUMNS)

    def test_peak(self, capsys):
        rc = main(["peak", "--d", "1.0", "--omega", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.25 < payload["peak"]["v_star"] < 0.35

    def test_peak_failed_integral_goes_to_stderr(self, capsys):
        rc = main(["peak", "--d", "1", "--omega", "4", "--max-subdivisions", "1",
                   "--rel-tol", "1e-14", "--abs-tol", "1e-300"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("ConvergenceError: no convergence")
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_peak_tiny_d_prints_one_line(self, capsys):
        rc = main(["peak", "--d", "1e-300", "--omega", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("NonFiniteIntegrandError: ")
        assert captured.err.count("\n") == 1

    def test_peak_absent(self, capsys):
        rc = main(["peak", "--d", "1.0", "--omega", "0.5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["peak"] is None

    def test_region(self, tmp_path, capsys):
        cfg = {
            "d_over_sigma": {"min": 0.5, "max": 0.5, "count": 1},
            "sigma_omega": {"min": 2.0, "max": 2.0, "count": 1},
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "region.csv"
        rc = main(["region", "--config", str(config), "--out", str(out)])
        assert rc == 0
        assert "peaked" in out.read_text()

    def test_region_failure_exits_1(self, tmp_path, capsys):
        cfg = {
            "d_over_sigma": {"min": 0.5, "max": 0.5, "count": 1},
            "sigma_omega": {"min": 0.5, "max": 0.5, "count": 1},
            "quadrature": {"rel_tol": 1e-14, "abs_tol": 1e-300, "max_subdivisions": 1},
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "region.csv"
        rc = main(["region", "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "1/1 points failed; see the error column\n"
        assert ",ConvergenceError: no convergence" in out.read_text()


@pytest.mark.parametrize("command", ["sweep", "region"])
class TestConfigErrors:
    """A bad config or an unusable file ends `sweep` and `region` in one stderr line."""

    def run(self, command, tmp_path, capsys, edit=None, config=None, out=None) -> str:
        cfg = {
            "d_over_sigma": {"min": 1.0, "max": 1.0, "count": 1},
            "sigma_omega": {"min": 0.0, "max": 0.0, "count": 1},
        }
        if command == "sweep":
            cfg["v"] = {"min": 0.0, "max": 0.0, "count": 1}
        if edit is not None:
            edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = out or tmp_path / "out.csv"
        rc = main([command, "--config", str(config or path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return captured.err

    def test_missing_config_file(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys, config=tmp_path / "nope.json")
        assert err.startswith("FileNotFoundError: ") and "nope.json" in err

    def test_unwritable_out(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys, out=tmp_path / "no-such-dir" / "out.csv")
        assert err.startswith("FileNotFoundError: ") and "no-such-dir" in err

    def test_missing_axis(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys, edit=lambda cfg: cfg.pop("sigma_omega"))
        assert err == "ValueError: config is missing key 'sigma_omega'\n"

    def test_missing_count(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys, edit=lambda cfg: cfg["d_over_sigma"].pop("count"))
        assert err == "ValueError: config axis 'd_over_sigma' is missing key 'count'\n"

    def test_misnamed_quadrature_field(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"rel_tl": 1e-6}))
        assert err.startswith("ValueError: config 'quadrature': ") and "'rel_tl'" in err

    def test_non_finite_bounds(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": "nan", "max": "nan", "count": 1}))
        assert err == "ValueError: grid bounds must be finite, got [nan, nan]\n"
        assert not (tmp_path / "out.csv").exists()

    def test_d_axis_from_zero(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(d_over_sigma={"min": 0.0, "max": 1.0, "count": 2}))
        assert err == "ValueError: d_over_sigma grid must be > 0\n"
        assert not (tmp_path / "out.csv").exists()


@pytest.fixture(scope="module")
def coarse_cli_run(tmp_path_factory):
    """One `validate --grid coarse` run through the CLI: (exit code, stderr, report)."""
    out = tmp_path_factory.mktemp("validate") / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["validate", "--grid", "coarse", "--out", str(out)])
    return rc, err.getvalue(), json.loads(out.read_text())


class TestValidationBattery:
    def test_coarse_all_pass(self, coarse_cli_run):
        _, _, report = coarse_cli_run
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert len(names) == len(report["checks"])  # unique names

    def test_detects_corrupted_prefactor(self, monkeypatch):
        real = validate_mod.oracle_mod.x_momentum_oracle

        def corrupted(det, geom, settings):
            value, err = real(det, geom, settings)
            return value * 1.001, err

        monkeypatch.setattr(validate_mod.oracle_mod, "x_momentum_oracle", corrupted)
        report = validate_mod.run_validation(grid="coarse")
        assert not report["all_passed"]
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert any("x_oracle" in name for name in failed)

    def test_cli_validate_exit_code(self, coarse_cli_run):
        rc, err, report = coarse_cli_run
        assert rc == 0
        assert "PASS" in err
        assert report["all_passed"]

