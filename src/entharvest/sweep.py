"""Parameter sweeps, region scans, and deterministic CSV emission.

Both grid jobs share one pipeline: a JSON config object holds the job's
axes (each read by GridSpec), an optional `quadrature` block (read by
QuadratureSettings) and, for a sweep, `outputs`, and no other key; every
axis tuple is evaluated in row-major order, and each row is written as
one CSV line whose cells are formatted by type. Rows are NamedTuples
whose fields are the CSV columns, so `_asdict()` and `_replace()` work
on them. A grid of more than _MAX_ROWS rows is refused before any axis
is built. Both jobs hand each d to one task with the whole omega axis;
the task evaluates X in blocks of its gaps times batches over v. A sweep
task evaluates the v axis and turns each gap's row arrays into rows; a
region task evaluates the 64 nodes of one velocity scan and labels each
omega from its row as model.velocity_profile does.
`workers` is a whole number >= 1, lowered to the usable CPUs
(_usable_workers), and a grid gets at most one worker per
_PAIRS_PER_WORKER (omega, v) pairs of work, counted from the grid alone:
a sweep's d x omega x v points, a region scan's d x omega x 64 scan
nodes. Below two shares it runs in the calling thread, from two on its
tasks run on a pool of threads. No row depends on the thread or on the
task it is in, and results keep their row-major order, so output is
byte-identical for any worker count. Per-point failures of any kind are
recorded in the error column instead of aborting the grid.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, NamedTuple, Optional, Sequence, get_type_hints

import numpy as np

from .model import (
    _SCAN_NODES,
    RegionLabel,
    _negativity_rows,
    _profile,
    _scan_velocities,
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
# about 0.94 KB of RSS per row (92.8 MB at 40,000 rows, 167.7 MB at
# 120,000), so 2^20 rows take about 1 GB; the largest grids in use have
# about 10,000.
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


def _sweep_task(d: float, gaps: list[float], vs: list[float], quad: QuadratureSettings) -> list[SweepRow]:
    """The rows of every (omega, v) at one d, in row-major order, X in
    blocks over the gaps and batches over v."""
    spacelike = [d >= spacelike_min_distance(v, 1.0) for v in vs]
    rows = []
    for so, row in zip(gaps, _negativity_rows(d, gaps, vs, quad)):
        cells = [
            SweepRow(d, v, so, row.p, re, im, x_abs, m, n, err, sl)
            for v, re, im, x_abs, m, n, err, sl in zip(
                vs, row.x.real.tolist(), row.x.imag.tolist(), row.x_abs.tolist(),
                row.m.tolist(), row.negativity.tolist(), row.x_error_estimate.tolist(), spacelike)
        ]
        for i, exc in row.failures.items():
            cells[i] = cells[i]._replace(p=math.nan, error=_error_text(exc))
        rows += cells
    return rows


def _region_task(d: float, gaps: list[float], quad: QuadratureSettings) -> list[RegionRow]:
    """The rows of every omega at one d, each labelled from its gap's row of
    one velocity scan, X in blocks over the gaps and batches over v."""
    try:
        scans = _negativity_rows(d, gaps, _scan_velocities(), quad)
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


# The measured break-even of two threads: on a 2-CPU x86-64 host that gives
# about one CPU of throughput, they were 5-16% slower than serial at 1536
# and 1728 pairs of work, within 10% of it either way at 4096 and 6400, and
# faster at 9216 (in-process medians of alternated runs), since numpy's loops
# release the GIL. So a grid needs two shares, 8192 pairs, to start a pool.
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


def _run_grid(task: Callable[[float], list], ds: list[float], workers: int) -> list:
    """The rows of task(d) for every d in ds, in order, on a pool of up to
    `workers` threads (no more than there are d values), or serially in
    this thread at one. The caller sizes `workers` (_pool_size)."""
    workers = min(workers, len(ds))
    if workers <= 1:
        return [row for d in ds for row in task(d)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(task, ds) for row in rows]


def _sweep_rows(spec: SweepSpec, workers: int) -> list[SweepRow]:
    """The sweep's rows, one task per d, on up to `workers` threads, with no
    _pool_size rule."""
    gaps, vs = spec.sigma_omega.points().tolist(), spec.v.points().tolist()
    return _run_grid(lambda d: _sweep_task(d, gaps, vs, spec.quad),
                     spec.d_over_sigma.points().tolist(), workers)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every grid tuple in row-major (d, omega, v) order, on at most
    _usable_workers(workers) threads and one per _PAIRS_PER_WORKER tuples."""
    pairs = spec.d_over_sigma.count * spec.sigma_omega.count * spec.v.count
    return _sweep_rows(spec, _pool_size(workers, pairs))


def run_region_scan(
    d_grid: GridSpec,
    omega_grid: GridSpec,
    settings: QuadratureSettings | None = None,
    workers: int = 1,
) -> list[RegionRow]:
    """Classify every (d, omega) grid point in row-major order; failures
    flagged per point.

    One task per d, as for a sweep, on at most _usable_workers(workers)
    threads and one per _PAIRS_PER_WORKER scan nodes. A task scans its
    omegas at the 64 velocities of model.velocity_profile in one
    _negativity_rows call and labels each omega from its row as
    velocity_profile does, refining that omega alone where its peak needs
    more nodes.
    """
    _check_axes(d_grid, omega_grid)
    quad = settings if settings is not None else QuadratureSettings()
    gaps = omega_grid.points().tolist()
    workers = _pool_size(workers, d_grid.count * omega_grid.count * _SCAN_NODES)
    return _run_grid(lambda d: _region_task(d, gaps, quad), d_grid.points().tolist(), workers)


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


def _write_csv(rows: Iterable, fh: IO[str], row_type, columns: Sequence[str]) -> None:
    """One line per row with the named columns, each cell formatted as _cell does.

    The columns are checked as SweepSpec checks its outputs, before
    anything is written. The cells are built a column at a time: a float
    field's values go to "%.17g" as they are, every other field's through
    _cell, and each line is one % operation over the row's cells.
    """
    _check_columns(columns, row_type._fields)
    fh.write(",".join(columns) + "\n")
    rows = list(rows)
    floats = {name for name, hint in get_type_hints(row_type).items() if hint is float}
    cells = []
    for col in columns:
        i = row_type._fields.index(col)
        values = [row[i] for row in rows]
        cells.append(values if col in floats else [_cell(value) for value in values])
    line = ",".join(["%.17g" if col in floats else "%s" for col in columns]) + "\n"
    fh.write("".join([line % cell for cell in zip(*cells)]))


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str], columns: Sequence[str] = SWEEP_COLUMNS) -> None:
    _write_csv(rows, fh, SweepRow, columns)


def write_region_csv(rows: Iterable[RegionRow], fh: IO[str]) -> None:
    _write_csv(rows, fh, RegionRow, _REGION_COLUMNS)
