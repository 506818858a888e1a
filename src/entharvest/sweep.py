"""Parameter sweeps, region scans, and deterministic CSV emission.

Both grid jobs share one pipeline: a JSON config gives the axes and the
quadrature block, every axis tuple is evaluated in row-major order, and
each row is written as one CSV line whose cells are formatted by type.
A sweep hands each (d, omega) row's whole v axis to one task, which
evaluates X in batches over v; a region scan hands over one (d, omega)
point per task. Tasks may run across a process pool, but a task's work
never depends on the pool and results keep their row-major order, so
output is byte-identical for any worker count. Per-point failures of any
kind are recorded in the error column instead of aborting the grid.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import IO, Callable, Iterable, Optional, Sequence

import numpy as np

from .model import (
    DetectorSettings,
    EncounterGeometry,
    RegionLabel,
    # not called here: perfbench's tracer wraps these two names on this module
    classify_region,
    find_peak_velocity,
    negativity,
    negativity_row,
    spacelike_min_distance,
    velocity_profile,
)
from .quadrature import QuadratureSettings

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
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"grid bounds must be finite, got [{self.min!r}, {self.max!r}]")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count!r}")
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

    @classmethod
    def from_dict(cls, obj: dict) -> "GridSpec":
        return cls(
            min=float(obj["min"]),
            max=float(obj["max"]),
            count=int(obj["count"]),
            spacing=str(obj.get("spacing", "linear")),
        )


@dataclass(frozen=True)
class SweepRow:
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


@dataclass(frozen=True)
class RegionRow:
    d_over_sigma: float
    sigma_omega: float
    region: Optional[RegionLabel] = None
    v_star: Optional[float] = None
    n_star: Optional[float] = None
    error: str = ""


# a row's fields are its CSV columns, in order
SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))
_REGION_COLUMNS = tuple(f.name for f in fields(RegionRow))


def _check_axes(d_over_sigma: GridSpec, sigma_omega: GridSpec) -> None:
    if not (d_over_sigma.min > 0.0):
        raise ValueError("d_over_sigma grid must be > 0")
    if sigma_omega.min < 0.0:
        raise ValueError("sigma_omega grid must be >= 0")


def _read_config(obj: dict, axes: Sequence[str]) -> tuple[list[GridSpec], QuadratureSettings]:
    """The named axes and the optional `quadrature` block of a JSON grid config.

    A missing key or a misnamed field raises ValueError naming where it is.
    """
    try:
        grids = []
        for axis in axes:
            where = "config"
            section = obj[axis]
            where = f"config axis {axis!r}"
            grids.append(GridSpec.from_dict(section))
        where = "config 'quadrature'"
        return grids, QuadratureSettings(**obj.get("quadrature", {}))
    except KeyError as exc:
        raise ValueError(f"{where} is missing key {exc}") from None
    except TypeError as exc:
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
        _check_axes(self.d_over_sigma, self.sigma_omega)
        if not (0.0 <= self.v.min and self.v.max < 1.0):
            raise ValueError("v grid must lie in [0, 1)")
        unknown = set(self.outputs) - set(SWEEP_COLUMNS)
        if unknown:
            raise ValueError(f"unknown output columns: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        grids, quad = _read_config(obj, ("d_over_sigma", "sigma_omega", "v"))
        outputs = obj.get("outputs", SWEEP_COLUMNS)
        if not isinstance(outputs, (list, tuple)):
            raise ValueError(f"config 'outputs' must be a list of column names, got {outputs!r}")
        return cls(*grids, quad=quad, outputs=tuple(outputs))

    @classmethod
    def from_json(cls, path: str) -> "SweepSpec":
        return cls.from_dict(_load_json(path))


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _point_row(d: float, so: float, v: float, spacelike: bool, q) -> SweepRow:
    """The CSV row of one point from its HarvestQuantities or its exception."""
    if isinstance(q, Exception):
        return SweepRow(d_over_sigma=d, v=v, sigma_omega=so, spacelike=spacelike,
                        error=_error_text(q))
    return SweepRow(
        d_over_sigma=d,
        v=v,
        sigma_omega=so,
        p=q.p,
        x_re=q.x.real,
        x_im=q.x.imag,
        x_abs=abs(q.x),
        m=q.m,
        negativity=q.negativity,
        x_error_estimate=q.x_error_estimate,
        spacelike=spacelike,
    )


def _sweep_point(args: tuple[float, float, float, QuadratureSettings]) -> SweepRow:
    d, so, v, quad = args
    spacelike = False
    try:
        spacelike = d >= spacelike_min_distance(v, 1.0)
        q = negativity(DetectorSettings(1.0, so), EncounterGeometry(d, v), quad)
    except Exception as exc:  # any per-point failure is recorded, never raised
        q = exc
    return _point_row(d, so, v, spacelike, q)


def _sweep_row(args: tuple[float, float, list[float], QuadratureSettings]) -> list[SweepRow]:
    """The rows of every v at one (d, omega), X batched over v."""
    d, so, vs, quad = args
    qs = negativity_row(DetectorSettings(1.0, so), d, vs, quad)
    return [_point_row(d, so, v, d >= spacelike_min_distance(v, 1.0), q) for v, q in zip(vs, qs)]


def _region_point(args: tuple[float, float, QuadratureSettings]) -> RegionRow:
    d, so, quad = args
    try:
        profile = velocity_profile(DetectorSettings(1.0, so), d, quad)
    except Exception as exc:  # any per-point failure is recorded, never raised
        return RegionRow(d, so, error=_error_text(exc))
    if profile.peak is None:
        return RegionRow(d, so, profile.label)
    return RegionRow(d, so, profile.label, profile.peak.v_star, profile.peak.n_star)


def _run_grid(task: Callable, axes: Sequence[GridSpec], rest: tuple, workers: int) -> list:
    """task((*axis values, *rest)) for every axis tuple, in row-major order."""
    tasks = [(*xs, *rest) for xs in itertools.product(*(g.points().tolist() for g in axes))]
    if workers <= 1 or len(tasks) <= 1:
        return [task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(task, tasks, chunksize=chunk))


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every grid tuple in row-major (d, omega, v) order."""
    rows = _run_grid(_sweep_row, (spec.d_over_sigma, spec.sigma_omega),
                     (spec.v.points().tolist(), spec.quad), workers)
    return [row for v_axis in rows for row in v_axis]


def run_region_scan(
    d_grid: GridSpec,
    omega_grid: GridSpec,
    settings: QuadratureSettings | None = None,
    workers: int = 1,
) -> list[RegionRow]:
    """Classify every (d, omega) grid point; failures flagged per point."""
    _check_axes(d_grid, omega_grid)
    quad = settings if settings is not None else QuadratureSettings()
    return _run_grid(_region_point, (d_grid, omega_grid), (quad,), workers)


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


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str], columns: Sequence[str] = SWEEP_COLUMNS) -> None:
    _write_csv(rows, fh, columns)


def write_region_csv(rows: Iterable[RegionRow], fh: IO[str]) -> None:
    _write_csv(rows, fh, _REGION_COLUMNS)
