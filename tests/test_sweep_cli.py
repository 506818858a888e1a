import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from entharvest import cli as cli_mod
from entharvest import model
from entharvest import sweep as sweep_mod
from entharvest import validate as validate_mod
from entharvest.cli import main
from entharvest.model import (
    DetectorSettings,
    EncounterGeometry,
    RegionLabel,
    negativity,
    velocity_profile,
)
from entharvest.quadrature import ConvergenceError, QuadratureSettings
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

    def test_count_must_be_a_whole_number(self):
        with pytest.raises(ValueError, match=r"^count must be a whole number, got 2\.9$"):
            GridSpec(0.0, 1.0, 2.9)
        assert GridSpec(0.0, 1.0, 3.0).points().tolist() == [0.0, 0.5, 1.0]
        assert GridSpec.from_dict({"min": 0.0, "max": 1.0, "count": 3.0}) == GridSpec(0.0, 1.0, 3)


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
    """A sweep evaluates each d's (omega, v) plane in blocks of X integrals."""

    def test_failure_stays_with_its_point(self, monkeypatch):
        # an X integral whose branch points lie closer than 1e-4 to the real
        # axis fails, which at d = 1 is v = 1-1e-9 alone: its batch fails and
        # every v is re-run alone, so each row is the one that point gets alone
        real = model.integrate_line

        def failing(integrand, *args, singularity_distance=math.inf, **kwargs):
            if singularity_distance < 1e-4:
                raise ConvergenceError(1.0, 0j, 0.0)
            return real(integrand, *args, singularity_distance=singularity_distance, **kwargs)

        monkeypatch.setattr(model, "integrate_line", failing)
        quad = QuadratureSettings()
        spec = SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(1.0, 1.0, 1),
                         GridSpec(0.0, 1.0 - 1e-9, 4, "lightspeed"), quad=quad)
        rows = run_sweep(spec)
        assert rows[0].error == ""
        assert rows[-1].error.startswith("ConvergenceError: no convergence")
        alone = [sweep_mod._sweep_task((1.0, [1.0], [v], quad))[0] for v in spec.v.points().tolist()]
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

    def test_gap_blocks_match_single_points_and_across_workers(self):
        # gaps 1.6, 2.35 and 3.1 share a run: one X integral per d and v
        # batch, on start panels sized for 3.1
        spec = SweepSpec(GridSpec(0.5, 2.0, 2), GridSpec(1.6, 3.1, 3),
                         GridSpec(0.0, 1.0 - 1e-9, 5, "lightspeed"))
        assert sweep_text(spec, workers=2) == sweep_text(spec, workers=1)
        for row in run_sweep(spec):
            q = model.negativity(model.DetectorSettings(1.0, row.sigma_omega),
                                 model.EncounterGeometry(row.d_over_sigma, row.v), spec.quad)
            assert abs(complex(row.x_re, row.x_im) - q.x) <= row.x_error_estimate + q.x_error_estimate
            assert row.p == q.p

    def test_octave_runs_match_the_whole_gap_axis(self):
        # gaps 0-4 fall in two runs, {0, 0.36, ..., 2.91} up to pi and
        # {3.27, 3.64, 4}, each its own task at one d and two workers; the
        # rows are those of one task with every gap
        spec = SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 4.0, 12),
                         GridSpec(0.0, 1.0 - 1e-9, 5, "lightspeed"))
        assert [(run.start, run.stop) for run in model._gap_runs(spec.sigma_omega.points())] \
            == [(0, 9), (9, 12)]
        whole = sweep_mod._sweep_task((1.0, spec.sigma_omega.points().tolist(),
                                       spec.v.points().tolist(), spec.quad))
        buf = io.StringIO()
        write_sweep_csv(whole, buf)
        assert sweep_text(spec, workers=2) == buf.getvalue()

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


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """max_workers of every pool a grid starts; the stand-in pool maps serially."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestWorkers:
    """A pool starts all of its workers at once, so their number is bounded."""

    @staticmethod
    def config(tmp_path) -> str:
        cfg = {
            "d_over_sigma": {"min": 1.0, "max": 2.0, "count": 3},
            "sigma_omega": {"min": 0.0, "max": 1.0, "count": 2},
            "v": {"min": 0.0, "max": 0.5, "count": 2},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_pool_is_no_larger_than_the_grid(self, pool_sizes):
        spec = SweepSpec(GridSpec(1.0, 2.0, 2), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.5, 2))
        assert sweep_text(spec, workers=8) == sweep_text(spec)
        assert pool_sizes == [2]

    def test_one_d_fills_the_pool(self, pool_sizes):
        # fewer d than workers: one task per d and run of gaps, here two,
        # since gap 4 is above pi
        spec = SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 4.0, 2), GridSpec(0.0, 0.5, 2))
        assert sweep_text(spec, workers=8) == sweep_text(spec)
        assert pool_sizes == [2]

    def test_cli_lowers_workers_to_the_usable_cpus(self, pool_sizes, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        out = tmp_path / "out.csv"
        rc = main(["--workers", "1000", "sweep", "--config", self.config(tmp_path), "--out", str(out)])
        assert rc == 0
        assert pool_sizes == [3]
        assert len(out.read_text().splitlines()) == 1 + 3 * 2 * 2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_cli_rejects_fewer_than_one_worker(self, workers, pool_sizes, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(["--workers", str(workers), "sweep", "--config", self.config(tmp_path),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"ValueError: --workers must be >= 1, got {workers}\n"
        assert pool_sizes == [] and not out.exists()


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
            raise ValueError("bad\nscan")

        task = (1.0, [0.0, 1.0, 2.0], QuadratureSettings())
        monkeypatch.setattr(sweep_mod, "_negativity_rows", broken)
        rows = sweep_mod._region_task(task)
        assert [(row.sigma_omega, row.region, row.error) for row in rows] \
            == [(so, None, "ValueError: bad\nscan") for so in task[1]]
        monkeypatch.undo()

        real = sweep_mod._profile

        def broken_at_one(d, gap, *args):
            if gap == 1.0:
                raise ValueError("bad\nprofile")
            return real(d, gap, *args)

        monkeypatch.setattr(sweep_mod, "_profile", broken_at_one)
        rows = sweep_mod._region_task(task)
        assert [row.error for row in rows] == ["", "ValueError: bad\nprofile", ""]
        assert rows[1].region is None and rows[2].region is RegionLabel.PEAKED

    def test_peaked_point_costs_one_scan_and_one_negativity(self, monkeypatch):
        # the three gaps share one velocity scan, X in 3-gap blocks; each
        # peak adds one single-velocity negativity at v_star
        calls = []
        real = model._x_integrals

        def counted(d, vs, gaps, settings):
            calls.append((np.size(gaps), len(vs)))
            return real(d, vs, gaps, settings)

        monkeypatch.setattr(model, "_x_integrals", counted)
        rows = sweep_mod._region_task((1.0, [0.0, 1.0, 2.0], QuadratureSettings()))
        assert [row.region for row in rows] \
            == [RegionLabel.MONOTONE_DECREASING, RegionLabel.PEAKED, RegionLabel.PEAKED]
        assert sum(n_v for n_gaps, n_v in calls if n_gaps == 3) == 64
        assert [call for call in calls if call[0] != 3] == [(1, 1)] * 2

    def test_rows_match_the_one_point_profile(self):
        # gaps 0, 1.5 and 3 share a run; 4.5 lies above pi
        quad = QuadratureSettings()
        for row in run_region_scan(GridSpec(0.5, 2.0, 3), GridSpec(0.0, 4.5, 4), quad):
            det = DetectorSettings(1.0, row.sigma_omega)
            profile = velocity_profile(det, row.d_over_sigma, quad)
            assert row.error == "" and row.region is profile.label
            if profile.peak is None:
                assert row.v_star is None and row.n_star is None
                continue
            assert row.v_star == pytest.approx(profile.peak.v_star, rel=1e-9, abs=0.0)
            at_v_star = negativity(det, EncounterGeometry(row.d_over_sigma, row.v_star), quad)
            assert row.n_star == at_v_star.negativity

    def test_a_failure_stays_with_its_own_point_in_a_block(self, monkeypatch):
        real = model._x_integrals

        def broken(d, vs, gaps, settings):
            if 1.0 in np.atleast_1d(gaps):
                raise ValueError("broken at gap 1")
            return real(d, vs, gaps, settings)

        monkeypatch.setattr(model, "_x_integrals", broken)
        quad = QuadratureSettings()
        rows = run_region_scan(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 2.0, 3), quad)
        assert rows[1].region is None and rows[1].error == "ValueError: broken at gap 1"
        for row in (rows[0], rows[2]):
            profile = velocity_profile(DetectorSettings(1.0, row.sigma_omega), 1.0, quad)
            peak = profile.peak
            assert row == RegionRow(1.0, row.sigma_omega, profile.label,
                                    peak and peak.v_star, peak and peak.n_star)

    def test_bytes_match_across_workers(self):
        # at one d and two workers, the gaps split into the runs
        # {0.5, 2.33} up to pi and {4.17, 6}, one task each
        d_grid, omega_grid = GridSpec(1.0, 1.0, 1), GridSpec(0.5, 6.0, 4)
        assert len(model._gap_runs(omega_grid.points())) == 2
        assert len(sweep_mod._grid_tasks(d_grid, omega_grid, 2)) == 2
        texts = []
        for workers in (1, 2):
            buf = io.StringIO()
            write_region_csv(run_region_scan(d_grid, omega_grid, workers=workers), buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("d, gap", [(1.0, 1.0), (1.0, 2.0)])
    def test_n_star_is_negativity_at_v_star(self, d, gap):
        det = DetectorSettings(1.0, gap)
        peak = velocity_profile(det, d, QuadratureSettings()).peak
        assert peak is not None
        at_v_star = negativity(det, EncounterGeometry(d, peak.v_star), QuadratureSettings())
        assert peak.n_star == at_v_star.negativity


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
        assert captured.err == "ValueError: v must satisfy 0 <= v < 1, got 1.5\n"

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

    @pytest.mark.parametrize("command", [
        ["point", "--d", "1", "--v", "0.5", "--omega", "1"],
        ["peak", "--d", "1", "--omega", "1"],
        ["sweep", "--config", "c.json", "--out", "o.csv"],
        ["region", "--config", "c.json", "--out", "o.csv"],
        ["validate"],
    ], ids=lambda argv: argv[0])
    def test_no_subcommand_takes_a_window_end(self, capsys, command):
        # every window ends where its envelope falls below eps; argparse
        # refuses the retired flag before anything runs
        with pytest.raises(SystemExit) as info:
            main([*command, "--truncation-sigmas", "10"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --truncation-sigmas 10" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d, v", [("1e200", "0.5"), ("1", str(1.0 - 1e-12))])
    def test_point_at_extreme_inputs_warns_nothing(self, capsys, d, v):
        # a far d makes d^2 overflow to inf, and v = 1 - 1e-12 the largest
        # Jacobian; neither puts a node where s^2 overflows, and any numpy
        # warning is an error here
        rc = main(["point", "--d", d, "--v", v, "--omega", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert json.loads(captured.out)["negativity"] == 0.0

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

    def test_fractional_count(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": 0.0, "max": 1.0, "count": 2.9}))
        assert err == "ValueError: count must be a whole number, got 2.9\n"
        assert not (tmp_path / "out.csv").exists()

    def test_boolean_count(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": 0.0, "max": 1.0, "count": True}))
        assert err == "ValueError: count must be a whole number, got True\n"
        assert not (tmp_path / "out.csv").exists()

    def test_boolean_subdivisions(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"max_subdivisions": True}))
        assert err == "ValueError: max_subdivisions must be a whole number, got True\n"
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_quadrature_value(self, command, tmp_path, capsys):
        # a literal 1e400 in the JSON file reads as inf, as does Infinity
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"rel_tol": 1e400}))
        assert err == "ValueError: rel_tol must be finite and > 0, got inf\n"
        assert not (tmp_path / "out.csv").exists()

    def test_retired_window_end_is_an_unknown_field(self, command, tmp_path, capsys):
        # truncation_sigmas set where the window ended; the window is fixed now
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"truncation_sigmas": 10.0}))
        assert err.startswith("ValueError: config 'quadrature': ")
        assert "unexpected keyword argument 'truncation_sigmas'" in err
        assert not (tmp_path / "out.csv").exists()

    def test_fractional_max_subdivisions(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"max_subdivisions": 1.5}))
        assert err == "ValueError: max_subdivisions must be a whole number, got 1.5\n"
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

    def test_a_crashed_check_keeps_the_name_it_passes_under(self, monkeypatch):
        monkeypatch.setattr(validate_mod, "_CHECKS", (validate_mod.check_scale_invariance,))
        (passed,) = validate_mod.run_validation(grid="coarse")["checks"]

        def crash(*args, **kwargs):
            raise RuntimeError("crashed")

        monkeypatch.setattr(validate_mod, "negativity", crash)
        (failed,) = validate_mod.run_validation(grid="coarse")["checks"]
        assert passed["passed"] and passed["name"] == "scale_invariance_zero_gap"
        assert failed == {"name": passed["name"], "passed": False, "measured": math.inf,
                          "tolerance": 0.0, "detail": "RuntimeError: crashed"}

    def test_cli_validate_exit_code(self, coarse_cli_run):
        rc, err, report = coarse_cli_run
        assert rc == 0
        assert "PASS" in err
        assert report["all_passed"]

