"""Parameter sweeps, region scans, and deterministic CSV emission.

Both grid jobs share one pipeline: a JSON config object holds the job's
axes (each read by GridSpec), an optional `quadrature` block (read by
QuadratureSettings) and, for a sweep, `outputs`, and no other key; every
axis tuple is evaluated in row-major order, and each row is written as
one CSV line whose cells are formatted by type (_cell). Rows are
NamedTuples (SweepRow, RegionRow) whose fields are the CSV columns. A grid
of more than _MAX_ROWS rows is refused before any axis is built. Both jobs
hand each d to one task with the whole omega axis; the task evaluates X in
blocks of its gaps times batches over v. A sweep task is
model._negativity_rows, whose row arrays over the v axis are kept as they
are: run_sweep returns a read-only sequence of SweepRow over them
(_SweepTable) that holds the three axes once and builds a row only when
one is asked for; write_sweep_csv writes the arrays, formatting each axis
cell once per axis position. A region task evaluates the 64 nodes of one
velocity scan and labels each omega from its row as
model.velocity_profile does; a region scan runs its tasks in order in the
calling thread. A sweep's `workers` is a whole number >= 1, lowered to
the usable CPUs (_usable_workers), and a sweep gets at most one worker
per _PAIRS_PER_WORKER (d, omega, v) points: below two shares it runs in
the calling thread, from two on its tasks run on a pool of threads. No row
depends on the thread or on the task it is in, and results keep their
row-major order, so output is byte-identical for any worker count.
Per-point failures of any kind are recorded in the error column instead
of aborting the grid.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, NamedTuple, Optional

import numpy as np

from .model import (
    _SCAN_VELOCITIES,
    NegativityRow,
    RegionLabel,
    _negativity_rows,
    _profile,
    # not called here: perfbench's tracer wraps these three names on this module
    classify_region,
    find_peak_velocity,
    negativity,
    spacelike_min_distance,
)
from .quadrature import QuadratureSettings, _real_number, _whole_number

__all__ = [
    "GridSpec",
    "SweepSpec",
    "SweepRow",
    "RegionRow",
    "run_sweep",
    "run_region_scan",
    "write_sweep_csv",
    "write_region_csv",
    "SWEEP_COLUMNS",
]

_SPACINGS = ("linear", "log", "lightspeed")


@dataclass(frozen=True)
class GridSpec:
    """One sweep axis: count points from min to max with the given spacing.

    "lightspeed" spacing is log-uniform in 1 - v, densifying toward v = 1.
    """

    min: float
    max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "min", _real_number("min", self.min))
        object.__setattr__(self, "max", _real_number("max", self.max))
        object.__setattr__(self, "count", _whole_number("count", self.count))
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"grid bounds must be finite, got [{self.min!r}, {self.max!r}]")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count!r}")
        if self.min > self.max:
            raise ValueError(f"grid needs min <= max, got [{self.min!r}, {self.max!r}]")
        if self.count > 1 and not (self.min < self.max):
            raise ValueError(f"grid needs min < max, got [{self.min!r}, {self.max!r}]")
        if self.spacing not in _SPACINGS:
            raise ValueError(f"spacing must be one of {_SPACINGS}, got {self.spacing!r}")
        if self.spacing == "log" and not (self.min > 0.0):
            raise ValueError("log spacing requires min > 0")
        if self.spacing == "lightspeed" and not (self.max < 1.0):
            raise ValueError("lightspeed spacing requires max < 1")

    def points(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.min])
        if self.spacing == "linear":
            return np.linspace(self.min, self.max, self.count)
        if self.spacing == "log":
            return np.geomspace(self.min, self.max, self.count)
        # log-uniform in 1 - v, ascending in v
        return 1.0 - np.geomspace(1.0 - self.min, 1.0 - self.max, self.count)


class SweepRow(NamedTuple):
    d_over_sigma: float
    v: float
    sigma_omega: float
    p: float = math.nan
    x_re: float = math.nan
    x_im: float = math.nan
    x_abs: float = math.nan
    m: float = math.nan
    negativity: float = math.nan
    x_error_estimate: float = math.nan
    spacelike: bool = False
    error: str = ""


class RegionRow(NamedTuple):
    d_over_sigma: float
    sigma_omega: float
    region: Optional[RegionLabel] = None
    v_star: Optional[float] = None
    n_star: Optional[float] = None
    error: str = ""


# a row's fields are its CSV columns, in order
SWEEP_COLUMNS = SweepRow._fields
_REGION_COLUMNS = RegionRow._fields


# The most rows a grid may have. A CLI sweep on x86-64 Linux peaked at
# about 93 B of RSS per row above the import (54.6 -> 89.9 MB at 400,000
# rows), so 2^20 rows take about 100 MB more; the largest grids in use
# have about 10,000.
_MAX_ROWS = 1 << 20


def _check_axes(d_over_sigma: GridSpec, sigma_omega: GridSpec, *others: GridSpec) -> None:
    """Refuse a d axis not > 0, an omega axis below 0, and a grid of more
    than _MAX_ROWS rows, counted from the axes alone."""
    if not (d_over_sigma.min > 0.0):
        raise ValueError("d_over_sigma grid must be > 0")
    if sigma_omega.min < 0.0:
        raise ValueError("sigma_omega grid must be >= 0")
    rows = math.prod(axis.count for axis in (d_over_sigma, sigma_omega, *others))
    if rows > _MAX_ROWS:
        raise ValueError(f"grid has {rows} rows, more than the limit of {_MAX_ROWS}")


def _check_known(what: str, names: Iterable, known: Sequence[str]) -> None:
    unknown = set(names) - set(known)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown, key=str)}")


def _check_columns(columns: Sequence[str], known: Sequence[str]) -> None:
    """Refuse output columns that are not distinct names in known, or none."""
    if isinstance(columns, str) or not all(isinstance(c, str) for c in columns):
        raise ValueError(f"outputs must be a sequence of column names, got {columns!r}")
    if not columns:
        raise ValueError("outputs must name at least one column")
    if len(set(columns)) < len(columns):
        raise ValueError(f"output columns must be distinct, got {columns!r}")
    _check_known("output columns", columns, known)


def _read_config(obj: dict, axes: Sequence[str],
                 others: Sequence[str] = ()) -> tuple[list[GridSpec], QuadratureSettings]:
    """The named axes and the optional `quadrature` block of a JSON grid
    config object, which may also hold the keys in others for the caller.
    Any other key, a missing key, a misnamed field or a bad value raises
    ValueError naming where it is."""
    if not isinstance(obj, dict):
        raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
    _check_known("config keys", obj, (*axes, "quadrature", *others))
    try:
        grids = []
        for axis in axes:
            where = "config"
            section = obj[axis]
            where = f"config axis {axis!r}"
            grids.append(GridSpec(**section))
        where = "config 'quadrature'"
        return grids, QuadratureSettings(**obj.get("quadrature", {}))
    except KeyError as exc:
        raise ValueError(f"{where} is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class SweepSpec:
    """Full sweep configuration: three axes plus quadrature settings."""

    d_over_sigma: GridSpec
    sigma_omega: GridSpec
    v: GridSpec
    quad: QuadratureSettings = field(default_factory=QuadratureSettings)
    outputs: Sequence[str] = SWEEP_COLUMNS

    def __post_init__(self) -> None:
        _check_axes(self.d_over_sigma, self.sigma_omega, self.v)
        if not (0.0 <= self.v.min and self.v.max < 1.0):
            raise ValueError("v grid must lie in [0, 1)")
        _check_columns(self.outputs, SWEEP_COLUMNS)

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        grids, quad = _read_config(obj, ("d_over_sigma", "sigma_omega", "v"), ("outputs",))
        outputs = obj.get("outputs", SWEEP_COLUMNS)
        if not isinstance(outputs, (list, tuple)):
            raise ValueError(f"config 'outputs' must be a list of column names, got {outputs!r}")
        return cls(*grids, quad=quad, outputs=tuple(outputs))

    @classmethod
    def from_json(cls, path: str) -> "SweepSpec":
        return cls.from_dict(_load_json(path))


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# the columns that hold one value per (omega, v) of a gap's row
_PER_POINT = ("x_re", "x_im", "x_abs", "m", "negativity", "x_error_estimate")


def _point_arrays(row: NegativityRow) -> tuple:
    """The arrays of a gap's row that hold the _PER_POINT columns, in order."""
    return row.x.real, row.x.imag, row.x_abs, row.m, row.negativity, row.x_error_estimate


class _SweepTable(Sequence):
    """run_sweep's result: a read-only sequence of SweepRow, in row-major
    (d, omega, v) order, over the three axes and, for each d, its task's
    rows (model._negativity_rows: one NegativityRow per gap, each indexed
    like vs).

    The spacelike threshold of each v is computed once, and a point is
    spacelike where d >= it. A row is built when it is asked for, with p
    NaN and the error text at a failed index; write_sweep_csv writes the
    arrays without building any, and `failed` counts the failed points
    from the failure maps.
    """

    def __init__(self, ds: list[float], gaps: list[float], vs: list[float],
                 rows: list[list[NegativityRow]]):
        self.ds, self.gaps, self.vs, self.rows = ds, gaps, vs, rows
        self.thresholds = [spacelike_min_distance(v, 1.0) for v in vs]
        self._per_d = len(gaps) * len(vs)
        self._len = len(ds) * self._per_d

    @property
    def failed(self) -> int:
        return sum(len(row.failures) for d_rows in self.rows for row in d_rows)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(self._len))]
        if not -self._len <= k < self._len:
            raise IndexError("sweep row index out of range")
        d_index, k = divmod(k % self._len, self._per_d)
        j, i = divmod(k, len(self.vs))
        d, row = self.ds[d_index], self.rows[d_index][j]
        cells = SweepRow(d, self.vs[i], self.gaps[j], row.p,
                         *[float(values[i]) for values in _point_arrays(row)], d >= self.thresholds[i])
        exc = row.failures.get(i)
        return cells if exc is None else cells._replace(p=math.nan, error=_error_text(exc))


def _region_task(d: float, gaps: list[float], quad: QuadratureSettings) -> list[RegionRow]:
    """The rows of every omega at one d, each labelled from its gap's row of
    one velocity scan, X in blocks over the gaps and batches over v."""
    try:
        scans = _negativity_rows(d, gaps, _SCAN_VELOCITIES, quad)
    except Exception as exc:  # any per-point failure is recorded, never raised
        return [RegionRow(d, so, error=_error_text(exc)) for so in gaps]
    rows = []
    for so, scan in zip(gaps, scans):
        try:
            profile = _profile(d, so, scan, quad)
        except Exception as exc:
            rows.append(RegionRow(d, so, error=_error_text(exc)))
            continue
        peak = profile.peak
        rows.append(RegionRow(d, so, profile.label) if peak is None else
                    RegionRow(d, so, profile.label, peak.v_star, peak.n_star))
    return rows


# The measured break-even of two threads on a sweep: on a 2-CPU x86-64
# host that gives about one CPU of throughput, they were 5-16% slower than
# serial at 1536 and 1728 points, within 10% of it either way at 4096 and
# 6400, and faster at 9216 (in-process medians of alternated runs), since
# numpy's loops release the GIL. So a sweep needs two shares, 8192 points,
# to start a pool.
_PAIRS_PER_WORKER = 4096


def _usable_workers(workers: int) -> int:
    """workers, checked and lowered to the CPUs this process may run on."""
    workers = _whole_number("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)


def _pool_size(workers: int, pairs: int) -> int:
    """_usable_workers(workers), lowered to one per _PAIRS_PER_WORKER pairs
    of work, and at least 1."""
    return max(1, min(_usable_workers(workers), pairs // _PAIRS_PER_WORKER))


def _sweep_rows(ds: list[float], gaps: list[float], vs: list[float], quad: QuadratureSettings,
                threads: int) -> _SweepTable:
    """The sweep table of the three axes, one _negativity_rows task per d,
    in order, on a pool of up to `threads` threads (no more than there are
    d values), or in this thread at one, with no _pool_size rule."""
    def task(d: float) -> list[NegativityRow]:
        return _negativity_rows(d, gaps, vs, quad)

    threads = min(threads, len(ds))
    if threads <= 1:
        return _SweepTable(ds, gaps, vs, [task(d) for d in ds])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _SweepTable(ds, gaps, vs, list(pool.map(task, ds)))


def run_sweep(spec: SweepSpec, workers: int = 1) -> Sequence[SweepRow]:
    """Evaluate every grid tuple in row-major (d, omega, v) order, on at most
    _usable_workers(workers) threads and one per _PAIRS_PER_WORKER tuples.

    The result is a read-only sequence of SweepRow whose rows are built
    when they are asked for; write_sweep_csv writes it from its arrays."""
    threads = _pool_size(workers, spec.d_over_sigma.count * spec.sigma_omega.count * spec.v.count)
    axes = [axis.points().tolist() for axis in (spec.d_over_sigma, spec.sigma_omega, spec.v)]
    return _sweep_rows(*axes, spec.quad, threads)


def run_region_scan(
    d_grid: GridSpec,
    omega_grid: GridSpec,
    settings: QuadratureSettings | None = None,
) -> list[RegionRow]:
    """Classify every (d, omega) grid point in row-major order; failures
    flagged per point.

    One task per d, as for a sweep, run in order in the calling thread. A
    task scans its omegas at the 64 velocities of model.velocity_profile
    in one _negativity_rows call and labels each omega from its row as
    velocity_profile does, refining that omega alone where its peak needs
    more nodes.
    """
    _check_axes(d_grid, omega_grid)
    quad = settings if settings is not None else QuadratureSettings()
    gaps = omega_grid.points().tolist()
    return [row for d in d_grid.points().tolist() for row in _region_task(d, gaps, quad)]


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


def _lines(columns: Sequence[str], fixed: dict, varying: dict, n: int) -> list[str]:
    """n CSV lines of the named columns of a sweep table. A column in fixed
    has that cell text on every line; any other takes its i-th cell from
    varying[column], formatted "%.17g" if the column is in _PER_POINT and
    as it is (text that _cell made) if not. Each line is one % operation
    over its cells."""
    line = ",".join([fixed[col].replace("%", "%%") if col in fixed else "%.17g" if col in _PER_POINT else "%s"
                     for col in columns]) + "\n"
    cells = [varying[col] for col in columns if col not in fixed]
    return [line % cell for cell in zip(*cells)] if cells else [line % ()] * n


def _write_csv(rows: Iterable, fh: IO[str], columns: Sequence[str]) -> None:
    """A header and one line per row with the named columns, each cell
    formatted by _cell; the caller checks the columns."""
    fh.write(",".join(columns) + "\n")
    fh.write("".join([",".join([_cell(getattr(row, col)) for col in columns]) + "\n" for row in rows]))


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str], columns: Sequence[str] = SWEEP_COLUMNS) -> None:
    """Write run_sweep's rows, or any iterable of SweepRow, as CSV lines of
    the named columns, each cell formatted as _cell does. The columns are
    checked as SweepSpec checks its outputs, before anything is written.

    run_sweep's result is written a d and a gap at a time, with no row
    built: each d, gap, p, v and spacelike cell is formatted once per axis
    position, and only the per-point floats once per line. A failed index
    gets the NaN p cell and its error text; every other error cell is
    empty. Any other iterable is written by _write_csv, a row at a time.
    """
    _check_columns(columns, SWEEP_COLUMNS)
    if not isinstance(rows, _SweepTable):
        _write_csv(rows, fh, columns)
        return
    fh.write(",".join(columns) + "\n")
    gap_cells = [_cell(so) for so in rows.gaps]
    v_cells = [_cell(v) for v in rows.vs]
    for d, d_rows in zip(rows.ds, rows.rows):
        d_cell = _cell(d)
        spacelike = [_cell(d >= threshold) for threshold in rows.thresholds]
        lines = []
        for so_cell, row in zip(gap_cells, d_rows):
            fixed = {"d_over_sigma": d_cell, "sigma_omega": so_cell, "p": _cell(row.p), "error": ""}
            varying = {"v": v_cells, "spacelike": spacelike}
            varying.update((col, values.tolist()) for col, values in zip(_PER_POINT, _point_arrays(row))
                           if col in columns)
            gap_lines = _lines(columns, fixed, varying, len(v_cells))
            for i, exc in row.failures.items():
                at_failure = {**fixed, "p": _cell(math.nan), "error": _cell(_error_text(exc))}
                point = {col: cells[i:i + 1] for col, cells in varying.items()}
                (gap_lines[i],) = _lines(columns, at_failure, point, 1)
            lines += gap_lines
        fh.write("".join(lines))


def write_region_csv(rows: Iterable[RegionRow], fh: IO[str]) -> None:
    _write_csv(rows, fh, _REGION_COLUMNS)
