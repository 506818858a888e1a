import argparse
import contextlib
import csv
import io
import json
import math
import threading
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from entharvest import model
from entharvest import sweep as sweep_mod
from entharvest import cli
from entharvest import validate as validate_mod
from entharvest.cli import main
from entharvest.model import (
    DetectorSettings,
    EncounterGeometry,
    RegionLabel,
    negativity,
    velocity_profile,
)
from entharvest.quadrature import ConvergenceError, QuadratureError, QuadratureSettings
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

    @pytest.mark.parametrize("grid", [(1.5, 0.5, 1), (1.0, 0.5, 1, "lightspeed"), (1.5, 0.5, 3)])
    def test_min_above_max_is_refused_at_every_count(self, grid):
        # a one-point axis is its min, so its max would go unchecked
        with pytest.raises(ValueError, match=r"^grid needs min <= max, got \[1\.\d, 0\.5\]$"):
            GridSpec(*grid)

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_must_be_at_least_one(self, count):
        with pytest.raises(ValueError) as info:
            GridSpec(0.0, 1.0, count)
        assert str(info.value) == f"count must be >= 1, got {count}"

    def test_count_must_be_a_whole_number(self):
        with pytest.raises(ValueError, match=r"^count must be a whole number, got 2\.9$"):
            GridSpec(0.0, 1.0, 2.9)
        assert GridSpec(0.0, 1.0, 3.0).points().tolist() == [0.0, 0.5, 1.0]
        assert GridSpec(**{"min": 0.0, "max": 1.0, "count": 3.0}) == GridSpec(0.0, 1.0, 3)

    @pytest.mark.parametrize("bounds", [(True, 2.0), (0.0, "2"), (None, 1.0)])
    def test_bounds_must_be_numbers(self, bounds):
        with pytest.raises(ValueError, match=r"^(min|max) must be a number, got "):
            GridSpec(*bounds, 2)

    def test_int_bounds_load_as_floats(self):
        grid = GridSpec(**{"min": 0, "max": 2, "count": 1})
        assert grid == GridSpec(0.0, 2.0, 1)
        assert type(grid.min) is float and grid.points().dtype == float


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
        # at v = 0.6 the threshold is 6 / sqrt(1 - v^2) = 7.5
        spec = SweepSpec(GridSpec(7.4, 7.6, 2), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.6, 2))
        flags = [(r.d_over_sigma, r.v, r.spacelike) for r in run_sweep(spec)]
        assert flags == [(7.4, 0.0, True), (7.4, 0.6, False), (7.6, 0.0, True), (7.6, 0.6, True)]
        buf = io.StringIO()
        write_sweep_csv(run_sweep(spec), buf, ("spacelike",))
        assert buf.getvalue() == "spacelike\ntrue\nfalse\ntrue\ntrue\n"

    def test_spacelike_threshold_once_per_v(self, monkeypatch):
        calls = []
        real = sweep_mod.spacelike_min_distance
        monkeypatch.setattr(sweep_mod, "spacelike_min_distance",
                            lambda v, sigma: calls.append(v) or real(v, sigma))
        spec = SweepSpec(GridSpec(1.0, 7.0, 3), GridSpec(0.0, 1.0, 2), GridSpec(0.0, 0.6, 4))
        table = run_sweep(spec)
        write_sweep_csv(table, io.StringIO())
        list(table)
        assert calls == spec.v.points().tolist()

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

    @pytest.mark.parametrize("outputs", [[1, "x"], [["v"]]])
    def test_non_string_output_is_refused_in_one_line(self, outputs, tmp_path, capsys):
        cfg = {
            "d_over_sigma": {"min": 1.0, "max": 1.0, "count": 1},
            "sigma_omega": {"min": 0.0, "max": 0.0, "count": 1},
            "v": {"min": 0.0, "max": 0.0, "count": 1},
            "outputs": outputs,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ValueError: outputs must be a sequence of column names, got {tuple(outputs)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("v", [GridSpec(-0.5, 0.5, 2), GridSpec(0.0, 1.0, 2), GridSpec(1.0, 1.0, 1)])
    def test_v_axis_must_lie_below_light_speed(self, v):
        with pytest.raises(ValueError) as info:
            SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.0, 1), v)
        assert str(info.value) == "v grid must lie in [0, 1)"

    def test_rejects_unknown_columns(self):
        with pytest.raises(ValueError):
            SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.0, 1),
                      outputs=("negativity", "entropy"))

    @pytest.mark.parametrize("outputs, message", [
        ((), "outputs must name at least one column"),
        (("v", "negativity", "v"), "output columns must be distinct, got ('v', 'negativity', 'v')"),
        ((1, "x"), "outputs must be a sequence of column names, got (1, 'x')"),
        ("v", "outputs must be a sequence of column names, got 'v'"),
    ])
    def test_rejects_outputs_that_are_not_distinct_column_names(self, outputs, message):
        with pytest.raises(ValueError) as info:
            SweepSpec(GridSpec(1.0, 1.0, 1), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.0, 1),
                      outputs=outputs)
        assert str(info.value) == message

    @pytest.mark.parametrize("outputs", [[], ["v", "v"]])
    def test_cli_refuses_empty_or_repeated_outputs(self, outputs, tmp_path, capsys):
        cfg = {
            "d_over_sigma": {"min": 1.0, "max": 1.0, "count": 1},
            "sigma_omega": {"min": 0.0, "max": 0.0, "count": 1},
            "v": {"min": 0.0, "max": 0.0, "count": 1},
            "outputs": outputs,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("ValueError: output") and captured.err.count("\n") == 1
        assert not out.exists()


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
        alone = [sweep_mod._sweep_rows([1.0], [1.0], [v], quad, 1)[0] for v in spec.v.points().tolist()]
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

    @pytest.mark.usefixtures("one_pair_per_worker")
    def test_gap_blocks_match_single_points_and_across_workers(self, real_pools):
        # gaps 1.6, 2.35 and 3.1 share a block: one X integral per d and v
        # batch, on start panels sized for 3.1
        spec = SweepSpec(GridSpec(0.5, 2.0, 2), GridSpec(1.6, 3.1, 3),
                         GridSpec(0.0, 1.0 - 1e-9, 5, "lightspeed"))
        assert sweep_text(spec, workers=2) == sweep_text(spec, workers=1)
        assert real_pools == [2]
        for row in run_sweep(spec):
            q = model.negativity(model.DetectorSettings(1.0, row.sigma_omega),
                                 model.EncounterGeometry(row.d_over_sigma, row.v), spec.quad)
            assert abs(complex(row.x_re, row.x_im) - q.x) <= row.x_error_estimate + q.x_error_estimate
            assert row.p == q.p

    @pytest.mark.usefixtures("one_pair_per_worker")
    def test_long_v_axis_bytes_match_across_workers(self, real_pools):
        # at gaps 55-85 the start-panel budget binds: each d's 40 velocities
        # take several batches, each cut into blocks of gaps
        spec = SweepSpec(GridSpec(0.5, 2.0, 2), GridSpec(55.0, 85.0, 4), GridSpec(0.0, 0.9, 40))
        for d in spec.d_over_sigma.points():
            assert len(model._v_batches(d, spec.v.points(), spec.sigma_omega.points())) > 1
        assert sweep_text(spec, workers=2) == sweep_text(spec, workers=1)
        assert real_pools == [2]


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

    @pytest.mark.usefixtures("one_pair_per_worker")
    def test_workers_do_not_change_bytes(self, real_pools):
        spec = small_spec()
        serial = sweep_text(spec, workers=1)
        assert sweep_text(spec, workers=2) == serial
        assert real_pools == [2]

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


@pytest.mark.usefixtures("one_pair_per_worker")
class TestWorkers:
    """A sweep's pool has no more threads than tasks or usable CPUs, and none
    outlive the sweep; `workers` is checked by one rule, in Python as on the
    CLI."""

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

    def test_pool_is_no_larger_than_the_grid(self, real_pools):
        spec = SweepSpec(GridSpec(1.0, 2.0, 2), GridSpec(0.0, 0.0, 1), GridSpec(0.0, 0.5, 2))
        assert sweep_text(spec, workers=8) == sweep_text(spec)
        assert real_pools == [2]

    def test_threads_end_with_the_grid(self, real_pools):
        before = threading.active_count()
        run_sweep(small_spec(), workers=2)
        assert real_pools == [2]
        assert threading.active_count() == before

    def test_cli_lowers_workers_to_the_usable_cpus(self, real_pools, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        out = tmp_path / "out.csv"
        rc = main(["--workers", "1000", "sweep", "--config", self.config(tmp_path), "--out", str(out)])
        assert rc == 0
        assert real_pools == [3]
        assert len(out.read_text().splitlines()) == 1 + 3 * 2 * 2

    def test_library_lowers_workers_to_the_usable_cpus(self, real_pools, monkeypatch):
        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        spec = SweepSpec(GridSpec(1.0, 2.0, 3), GridSpec(0.0, 1.0, 2), GridSpec(0.0, 0.5, 2))
        assert sweep_text(spec, workers=1000) == sweep_text(spec)
        assert real_pools == [3]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_cli_rejects_fewer_than_one_worker(self, workers, real_pools, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(["--workers", str(workers), "sweep", "--config", self.config(tmp_path),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"ValueError: workers must be >= 1, got {workers}\n"
        assert real_pools == [] and not out.exists()

    @pytest.mark.parametrize("workers, message", [
        (0, "workers must be >= 1, got 0"),
        (-3, "workers must be >= 1, got -3"),
        (True, "workers must be a whole number, got True"),
        (2.5, "workers must be a whole number, got 2.5"),
    ])
    def test_library_refuses_workers_before_any_task_runs(self, workers, message, real_pools,
                                                          monkeypatch):
        tasks = []
        monkeypatch.setattr(sweep_mod, "_negativity_rows", lambda *task: tasks.append(task) or [])
        with pytest.raises(ValueError) as info:
            run_sweep(small_spec(), workers=workers)
        assert str(info.value) == message
        assert tasks == [] and real_pools == []


@pytest.mark.usefixtures("eight_cpus")
class TestPoolSize:
    """A sweep gets at most one worker per sweep._PAIRS_PER_WORKER grid
    points, and a region scan none."""

    def test_small_grid_starts_no_pool(self, real_pools):
        spec = small_spec()
        assert sweep_text(spec, workers=2) == sweep_text(spec)
        assert real_pools == []

    @pytest.mark.parametrize("short, sizes", [(0, [2]), (1, [])])
    def test_two_shares_of_pairs_start_a_pool_of_two(self, real_pools, monkeypatch, short, sizes):
        # 2 d x 1 gap x (_PAIRS_PER_WORKER - short) velocities; the task is
        # stubbed out, since only the pool's size is asked for
        tasks = []
        monkeypatch.setattr(sweep_mod, "_negativity_rows", lambda *task: tasks.append(task) or [])
        v = GridSpec(0.0, 0.9, sweep_mod._PAIRS_PER_WORKER - short)
        run_sweep(SweepSpec(GridSpec(1.0, 2.0, 2), GridSpec(0.0, 0.0, 1), v), workers=8)
        assert real_pools == sizes and len(tasks) == 2

    @pytest.mark.parametrize("short, sizes", [(0, []), (1, [])])
    def test_a_region_point_counts_its_scan_nodes(self, real_pools, monkeypatch, short, sizes):
        # 2 d x (_PAIRS_PER_WORKER / 64 - short) gaps x 64 scan nodes: two
        # workers' shares of pairs, or one gap short, and still no pool; each
        # d's task gets all its gaps in the calling thread
        per_scan, rest = divmod(sweep_mod._PAIRS_PER_WORKER, model._SCAN_NODES)
        assert model._SCAN_NODES == 64 and rest == 0
        tasks = []
        monkeypatch.setattr(sweep_mod, "_region_task",
                            lambda d, gaps, quad: tasks.append((d, len(gaps), threading.get_ident())) or [])
        run_region_scan(GridSpec(1.0, 2.0, 2), GridSpec(0.0, 1.0, per_scan - short))
        assert real_pools == sizes
        assert tasks == [(d, per_scan - short, threading.get_ident()) for d in (1.0, 2.0)]

    @pytest.mark.usefixtures("one_pair_per_worker")
    def test_region_starts_no_pool_at_any_workers(self, real_pools, tmp_path, capsys):
        # one pair of work is a worker's share here, yet a region scan runs
        # its two tasks in the calling thread
        config = tmp_path / "region.json"
        config.write_text(json.dumps({"d_over_sigma": {"min": 1.0, "max": 2.0, "count": 2},
                                      "sigma_omega": {"min": 0.5, "max": 1.0, "count": 2}}))
        texts = []
        for workers in ("8", "1"):
            out = tmp_path / f"region-{workers}.csv"
            assert main(["--workers", workers, "region", "--config", str(config), "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert real_pools == []
        assert texts[0] == texts[1] and len(texts[0].splitlines()) == 1 + 2 * 2

    @pytest.mark.parametrize("grid, sizes", [("coarse", [2]), ("full", [4, 8])])
    def test_determinism_check_starts_its_pools(self, real_pools, grid, sizes):
        passed, *_ = validate_mod.check_sweep_determinism(grid)
        assert passed
        assert real_pools == sizes


def building_an_axis_fails(self):
    raise AssertionError(f"an axis of {self.count} points was built")


class TestRowLimit:
    """A grid of more than sweep._MAX_ROWS rows is refused before any axis is built."""

    def test_sweep_spec(self, monkeypatch):
        monkeypatch.setattr(GridSpec, "points", building_an_axis_fails)
        SweepSpec(GridSpec(1.0, 2.0, 1024), GridSpec(0.0, 1.0, 1024), GridSpec(0.0, 0.5, 1))
        for v_count, rows in ((2, 2 ** 21), (10 ** 20, 2 ** 20 * 10 ** 20)):
            with pytest.raises(ValueError) as info:
                SweepSpec(GridSpec(1.0, 2.0, 1024), GridSpec(0.0, 1.0, 1024),
                          GridSpec(0.0, 0.5, v_count))
            assert str(info.value) == f"grid has {rows} rows, more than the limit of 1048576"

    def test_region_scan(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_region_task", lambda *task: [])
        assert run_region_scan(GridSpec(1.0, 2.0, 1024), GridSpec(0.0, 1.0, 1024)) == []
        monkeypatch.setattr(GridSpec, "points", building_an_axis_fails)
        with pytest.raises(ValueError) as info:
            run_region_scan(GridSpec(1.0, 2.0, 1024), GridSpec(0.0, 1.0, 1025))
        assert str(info.value) == "grid has 1049600 rows, more than the limit of 1048576"


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
        rows = sweep_mod._region_task(*task)
        assert [(row.sigma_omega, row.region, row.error) for row in rows] \
            == [(so, None, "ValueError: bad\nscan") for so in task[1]]
        monkeypatch.undo()

        real = sweep_mod._profile

        def broken_at_one(d, gap, *args):
            if gap == 1.0:
                raise ValueError("bad\nprofile")
            return real(d, gap, *args)

        monkeypatch.setattr(sweep_mod, "_profile", broken_at_one)
        rows = sweep_mod._region_task(*task)
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
        rows = sweep_mod._region_task(1.0, [0.0, 1.0, 2.0], QuadratureSettings())
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

    def test_one_scan_batch_and_one_gap_block_per_d(self):
        # one task per d, each with all four gaps 0.5-6 and all 64 scan
        # velocities in one X integral
        d_grid, omega_grid = GridSpec(1.0, 2.0, 2), GridSpec(0.5, 6.0, 4)
        scan = model._SCAN_VELOCITIES
        for d in d_grid.points():
            assert model._v_batches(d, scan, omega_grid.points()) == [slice(0, model._SCAN_NODES)]
            assert model._gap_blocks(d, scan, omega_grid.points()) == [slice(0, 4)]

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
        rc = main(["point", "--d", "1", "--v", "0.3", "--omega", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "ValueError: omega must be finite and >= 0, got -1.0\n"

    @pytest.mark.parametrize("command", [
        ["point", "--d", "1", "--v", "0.5", "--omega", "1"],
        ["peak", "--d", "1", "--omega", "1"],
    ], ids=lambda argv: argv[0])
    def test_point_and_peak_take_no_sigma(self, capsys, command):
        # --d is d/sigma and --omega sigma*omega, as in every config and output
        with pytest.raises(SystemExit) as info:
            main([*command, "--sigma", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --sigma 2" in capsys.readouterr().err

    def test_point_quad_flag(self, tmp_path, capsys):
        # a point at other tolerances is a one-cell sweep with a quadrature
        # block; `point` runs at the defaults
        cfg = {"d_over_sigma": {"min": 1.0, "max": 1.0, "count": 1},
               "sigma_omega": {"min": 1.0, "max": 1.0, "count": 1},
               "v": {"min": 0.3, "max": 0.3, "count": 1},
               "quadrature": {"rel_tol": 1e-6}}
        config, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        config.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        with out.open(encoding="utf-8") as fh:
            (loose,) = csv.DictReader(fh)
        assert main(["point", "--d", "1.0", "--v", "0.3", "--omega", "1.0"]) == 0
        tight = json.loads(capsys.readouterr().out)
        assert float(loose["x_abs"]) == pytest.approx(tight["x_abs"], rel=1e-5)
        assert float(loose["x_error_estimate"]) >= tight["x_error_estimate"]

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
        # at omega = 1e4 the X window needs more start panels than the limit
        rc = main(["peak", "--d", "1", "--omega", "1e4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("QuadratureError: ")
        assert "start panels exceed the limit" in captured.err
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

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol", "--max-subdivisions"])
    @pytest.mark.parametrize("command", [
        ["point", "--d", "1", "--v", "0.5", "--omega", "1"],
        ["peak", "--d", "1", "--omega", "1"],
        ["sweep", "--config", "c.json", "--out", "o.csv"],
        ["region", "--config", "c.json", "--out", "o.csv"],
        ["validate"],
    ], ids=lambda argv: argv[0])
    def test_no_subcommand_takes_tolerance_flags(self, capsys, command, flag):
        # a grid job reads its tolerances from its config's quadrature block;
        # point, peak and validate run at the defaults validate's pass
        # bounds assume
        with pytest.raises(SystemExit) as info:
            main([*command, flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_later_calls_build_no_parser(self, monkeypatch, capsys):
        # main builds its parser on its first call in a process, and only then
        argv = ["point", "--d", "1", "--v", "1.5", "--omega", "0"]
        main(argv)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert [main(argv) for _ in range(3)] == [1, 1, 1]
        assert built == []
        assert cli.build_parser() is not None and built
        assert capsys.readouterr().err == "ValueError: v must satisfy 0 <= v < 1, got 1.5\n" * 4

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
        assert err == ("ValueError: config axis 'd_over_sigma': "
                       "GridSpec.__init__() missing 1 required positional argument: 'count'\n")

    def test_misnamed_axis_field(self, command, tmp_path, capsys):
        # a misspelt spacing would otherwise run the axis linear
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg["sigma_omega"].update(spacng="log"))
        assert err.startswith("ValueError: config axis 'sigma_omega': ") and "'spacng'" in err
        assert not (tmp_path / "out.csv").exists()

    def test_misnamed_quadrature_block(self, command, tmp_path, capsys):
        # a misspelt block would otherwise run at the default tolerances
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadratur={"rel_tol": 1e-6}))
        assert err == "ValueError: unknown config keys: ['quadratur']\n"
        assert not (tmp_path / "out.csv").exists()

    def test_key_its_job_does_not_read(self, command, tmp_path, capsys):
        # a sweep reads `outputs` but no `output`; a region scan has no v axis
        # and no columns to choose
        extra = {"output": ["v"]} if command == "sweep" else \
            {"v": {"min": 0.0, "max": 0.0, "count": 1}, "outputs": ["region"]}
        for key, value in extra.items():
            err = self.run(command, tmp_path, capsys, edit=lambda cfg: cfg.update({key: value}))
            assert err == f"ValueError: unknown config keys: [{key!r}]\n"
            assert not (tmp_path / "out.csv").exists()

    def test_top_level_that_is_not_an_object(self, command, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"d_over_sigma": {"min": 1.0, "max": 1.0, "count": 1}}]))
        err = self.run(command, tmp_path, capsys, config=path)
        assert err == "ValueError: config must be a JSON object, got list\n"
        assert not (tmp_path / "out.csv").exists()

    def test_grid_over_the_row_limit(self, command, tmp_path, capsys, monkeypatch):
        # np.linspace would ask for 75 GiB for this axis: no axis is built
        monkeypatch.setattr(GridSpec, "points", building_an_axis_fails)
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": 0.0, "max": 1.0, "count": 1e10}))
        assert err == "ValueError: grid has 10000000000 rows, more than the limit of 1048576\n"
        assert not (tmp_path / "out.csv").exists()

    def test_misnamed_quadrature_field(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"rel_tl": 1e-6}))
        assert err.startswith("ValueError: config 'quadrature': ") and "'rel_tl'" in err

    def test_non_finite_bounds(self, command, tmp_path, capsys):
        # json writes and reads NaN as a bare literal
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": math.nan, "max": math.nan, "count": 1}))
        assert err == "ValueError: config axis 'sigma_omega': grid bounds must be finite, got [nan, nan]\n"
        assert not (tmp_path / "out.csv").exists()

    def test_d_axis_from_zero(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(d_over_sigma={"min": 0.0, "max": 1.0, "count": 2}))
        assert err == "ValueError: d_over_sigma grid must be > 0\n"
        assert not (tmp_path / "out.csv").exists()

    def test_min_above_max_names_its_axis(self, command, tmp_path, capsys):
        # a one-point axis is its min, so an unchecked max let v = 1.5 in
        axis = "v" if command == "sweep" else "sigma_omega"
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update({axis: {"min": 1.5, "max": 0.5, "count": 1}}))
        assert err == f"ValueError: config axis {axis!r}: grid needs min <= max, got [1.5, 0.5]\n"
        assert not (tmp_path / "out.csv").exists()

    def test_fractional_count(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": 0.0, "max": 1.0, "count": 2.9}))
        assert err == "ValueError: config axis 'sigma_omega': count must be a whole number, got 2.9\n"
        assert not (tmp_path / "out.csv").exists()

    def test_boolean_count(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": 0.0, "max": 1.0, "count": True}))
        assert err == "ValueError: config axis 'sigma_omega': count must be a whole number, got True\n"
        assert not (tmp_path / "out.csv").exists()

    def test_boolean_subdivisions(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"max_subdivisions": True}))
        assert err == "ValueError: config 'quadrature': max_subdivisions must be a whole number, got True\n"
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_quadrature_value(self, command, tmp_path, capsys):
        # a literal 1e400 in the JSON file reads as inf, as does Infinity
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"rel_tol": 1e400}))
        assert err == "ValueError: config 'quadrature': rel_tol must be finite and > 0, got inf\n"
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
        assert err == "ValueError: config 'quadrature': max_subdivisions must be a whole number, got 1.5\n"
        assert not (tmp_path / "out.csv").exists()

    def test_unreadable_bound_names_its_axis(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg["d_over_sigma"].update(min="a"))
        assert err == "ValueError: config axis 'd_over_sigma': min must be a number, got 'a'\n"
        assert not (tmp_path / "out.csv").exists()

    def test_string_bound(self, command, tmp_path, capsys):
        # a number in a string is not read as one
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": 0, "max": "2", "count": 2}))
        assert err == "ValueError: config axis 'sigma_omega': max must be a number, got '2'\n"
        assert not (tmp_path / "out.csv").exists()

    def test_boolean_bound(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(d_over_sigma={"min": True, "max": 2, "count": 2}))
        assert err == "ValueError: config axis 'd_over_sigma': min must be a number, got True\n"
        assert not (tmp_path / "out.csv").exists()

    def test_integer_past_the_float_range_is_an_infinite_bound(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(sigma_omega={"min": 0, "max": 10 ** 400, "count": 2}))
        assert err == "ValueError: config axis 'sigma_omega': grid bounds must be finite, got [0.0, inf]\n"
        assert not (tmp_path / "out.csv").exists()

    def test_boolean_tolerance(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"rel_tol": True}))
        assert err == "ValueError: config 'quadrature': rel_tol must be a number, got True\n"
        assert not (tmp_path / "out.csv").exists()

    def test_string_tolerance(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"abs_tol": "1e-12"}))
        assert err == "ValueError: config 'quadrature': abs_tol must be a number, got '1e-12'\n"
        assert not (tmp_path / "out.csv").exists()

    def test_unknown_spacing_names_its_axis(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg["d_over_sigma"].update(spacing="cubic"))
        assert err == ("ValueError: config axis 'd_over_sigma': spacing must be one of "
                       "('linear', 'log', 'lightspeed'), got 'cubic'\n")
        assert not (tmp_path / "out.csv").exists()

    def test_bad_quadrature_value_names_its_block(self, command, tmp_path, capsys):
        err = self.run(command, tmp_path, capsys,
                       edit=lambda cfg: cfg.update(quadrature={"rel_tol": -1}))
        assert err == "ValueError: config 'quadrature': rel_tol must be finite and > 0, got -1\n"
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
        # the check calls the oracle once per (d, v), over its gap axis
        real = validate_mod.oracle_mod._x_oracle

        def corrupted(*args, **kwargs):
            value, err = real(*args, **kwargs)
            return value * 1.001, err

        monkeypatch.setattr(validate_mod.oracle_mod, "_x_oracle", corrupted)
        report = validate_mod.run_validation(grid="coarse")
        assert not report["all_passed"]
        failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
        # caught by its measured deviation, not by a crash (measured = inf)
        check = failed["x_oracle_vs_fast_path"]
        assert math.isfinite(check["measured"]) and check["measured"] > check["tolerance"]

    def test_a_crashed_check_keeps_the_name_it_passes_under(self, monkeypatch):
        monkeypatch.setattr(validate_mod, "_CHECKS",
                            {"scale_invariance_zero_gap": validate_mod.check_scale_invariance})
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

    @pytest.mark.parametrize("passed", [True, False])
    def test_without_out_the_report_goes_to_stdout(self, coarse_cli_run, passed, monkeypatch,
                                                   tmp_path, capsys):
        # the bytes that --out writes, and the same PASS/FAIL lines and exit code
        _, _, report = coarse_cli_run
        report = {**report, "all_passed": passed,
                  "checks": [{**report["checks"][0], "passed": passed}]}
        monkeypatch.setattr(cli, "run_validation", lambda grid: report)
        out = tmp_path / "report.json"
        rc_file = main(["validate", "--grid", "coarse", "--out", str(out)])
        to_file = capsys.readouterr()
        rc = main(["validate", "--grid", "coarse"])
        captured = capsys.readouterr()
        assert rc == rc_file == (0 if passed else 1)
        assert to_file.out == "" and captured.out == out.read_text()
        name = report["checks"][0]["name"]
        assert captured.err == to_file.err == f"{'PASS' if passed else 'FAIL'} {name}\n"


def failed_check(monkeypatch, name: str) -> dict:
    """The report entry of check `name`, run alone by run_validation on the
    coarse grid, which must have failed."""
    monkeypatch.setattr(validate_mod, "_CHECKS", {name: validate_mod._CHECKS[name]})
    report = validate_mod.run_validation(grid="coarse")
    (check,) = report["checks"]
    assert check["name"] == name and check["passed"] is False and report["all_passed"] is False
    return check


class TestEachCheckCanFail:
    """Every failure return of the battery, forced by replacing what its
    check calls, reports passed False with its own detail; a check that can
    no longer fail shows up here."""

    def test_a_failed_point_in_a_row_call_fails_its_check(self, monkeypatch):
        # _rows raises a point's failure, as negativity does
        real = validate_mod._negativity_rows

        def failing(d, gaps, vs):
            rows = real(d, gaps, vs)
            rows[-1].failures[0] = QuadratureError("forced failure")
            return rows

        monkeypatch.setattr(validate_mod, "_negativity_rows", failing)
        check = failed_check(monkeypatch, "static_reduction")
        assert (check["measured"], check["detail"]) == (math.inf, "QuadratureError: forced failure")

    def test_no_sign_flip_of_the_second_derivative(self, monkeypatch):
        monkeypatch.setattr(validate_mod, "second_derivative_at_rest", lambda det, d: 1.0)
        check = failed_check(monkeypatch, "threshold_equivalence")
        assert (check["measured"], check["tolerance"], check["detail"]) \
            == (math.inf, 1e-2, "no sign flip at d = 1.0")

    def test_an_unbracketed_threshold(self, monkeypatch):
        monkeypatch.setattr(validate_mod, "_fd_slope", lambda d, gap: 1.0)
        check = failed_check(monkeypatch, "threshold_equivalence")
        assert (check["measured"], check["detail"]) \
            == (math.inf, "ValueError: threshold not bracketed on [0.3, 1.5] at d = 1.0")

    @pytest.mark.parametrize("peak", [None, model.PeakResult(0.3, 1e-9)])
    def test_no_peak_above_n0_at_d1_gap1(self, monkeypatch, peak):
        monkeypatch.setattr(validate_mod, "find_peak_velocity", lambda det, d: peak)
        check = failed_check(monkeypatch, "peak_phenomenology")
        assert (check["measured"], check["detail"]) \
            == (math.inf, "(d=1, gap=1) must show an interior peak above N(0) > 0")

    def test_a_peak_at_d1_gap05(self, monkeypatch):
        real = validate_mod.velocity_profile
        monkeypatch.setattr(validate_mod, "velocity_profile",
                            lambda det, d: real(det, d)._replace(peak=model.PeakResult(0.5, 1.0)))
        check = failed_check(monkeypatch, "peak_phenomenology")
        assert (check["measured"], check["detail"]) \
            == (math.inf, "(d=1, gap=0.5) must be monotone with N(0) > 0")

    def test_a_rising_scan_at_d1_gap05(self, monkeypatch):
        real = validate_mod.velocity_profile

        def reversed_scan(det, d):
            profile = real(det, d)
            return profile._replace(n=profile.n[::-1])

        monkeypatch.setattr(validate_mod, "velocity_profile", reversed_scan)
        check = failed_check(monkeypatch, "peak_phenomenology")
        assert (check["measured"], check["detail"]) \
            == (math.inf, "(d=1, gap=0.5) scan is not non-increasing")

    def test_no_extinction_near_light_speed(self, monkeypatch):
        real = validate_mod._rows
        monkeypatch.setattr(validate_mod, "_rows", lambda d, gaps, vs: [
            row._replace(negativity=row.negativity + 1e-3) for row in real(d, gaps, vs)])
        check = failed_check(monkeypatch, "peak_phenomenology")
        assert check["measured"] == 1e-3
        assert check["detail"] == "no extinction by v = 0.999999999999 at (d=0.5, gap=0.0)"

    def test_the_spacelike_distance_at_v08(self, monkeypatch):
        real = validate_mod.spacelike_min_distance
        monkeypatch.setattr(validate_mod, "spacelike_min_distance",
                            lambda v, sigma: real(v, sigma) * (1.0 + 1e-9))
        check = failed_check(monkeypatch, "spacelike_criterion")
        assert (check["measured"], check["detail"]) \
            == (math.inf, "spacelike_min_distance(0.8) != 10 sigma (to roundoff)")

    def test_spacelike_flags_that_disagree(self, monkeypatch):
        real = validate_mod.spacelike_min_distance
        monkeypatch.setattr(validate_mod, "spacelike_min_distance",
                            lambda v, sigma: real(v, sigma) * (1.0 if v == 0.8 else 2.0))
        check = failed_check(monkeypatch, "spacelike_criterion")
        mismatches, rest = check["detail"].split(" ", 1)
        assert rest == "flag mismatches out of 1000"
        assert check["measured"] == int(mismatches) > 0

    def test_no_spacelike_harvesting_at_gap_4(self, monkeypatch):
        monkeypatch.setattr(validate_mod, "negativity",
                            lambda det, geom: types.SimpleNamespace(negativity=0.0))
        check = failed_check(monkeypatch, "spacelike_criterion")
        assert (check["measured"], check["detail"]) \
            == (math.inf, "no spacelike harvesting point found at gap 4")

    def test_an_unknown_grid_is_refused_before_any_check_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(validate_mod, "_CHECKS", {"any": lambda grid: ran.append(grid)})
        with pytest.raises(ValueError) as info:
            validate_mod.run_validation(grid="medium")
        assert str(info.value) == "grid must be 'coarse' or 'full', got 'medium'"
        assert ran == []
