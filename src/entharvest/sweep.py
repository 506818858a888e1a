"""Parameter sweeps, region scans, and deterministic CSV emission.

Grid points are independent pure-function evaluations; sweeps may run
across a process pool, but rows are always emitted in row-major
(d, omega, v) order, so output is byte-identical for any worker count.
Per-point failures of any kind are recorded in the error column instead
of aborting the sweep.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .model import (
    DetectorSettings,
    EncounterGeometry,
    RegionLabel,
    # not called here: perfbench's tracer wraps these two names on this module
    classify_region,
    find_peak_velocity,
    negativity,
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


SWEEP_COLUMNS = (
    "d_over_sigma",
    "v",
    "sigma_omega",
    "p",
    "x_re",
    "x_im",
    "x_abs",
    "m",
    "negativity",
    "x_error_estimate",
    "spacelike",
    "error",
)


@dataclass(frozen=True)
class SweepSpec:
    """Full sweep configuration: three axes plus quadrature settings."""

    d_over_sigma: GridSpec
    sigma_omega: GridSpec
    v: GridSpec
    quad: QuadratureSettings = field(default_factory=QuadratureSettings)
    outputs: Sequence[str] = SWEEP_COLUMNS

    def __post_init__(self) -> None:
        if not (self.d_over_sigma.min > 0.0):
            raise ValueError("d_over_sigma grid must be > 0")
        if not (0.0 <= self.v.min and self.v.max < 1.0):
            raise ValueError("v grid must lie in [0, 1)")
        if self.sigma_omega.min < 0.0:
            raise ValueError("sigma_omega grid must be >= 0")
        unknown = set(self.outputs) - set(SWEEP_COLUMNS)
        if unknown:
            raise ValueError(f"unknown output columns: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, obj: dict) -> "SweepSpec":
        quad = QuadratureSettings(**obj.get("quadrature", {}))
        return cls(
            d_over_sigma=GridSpec.from_dict(obj["d_over_sigma"]),
            sigma_omega=GridSpec.from_dict(obj["sigma_omega"]),
            v=GridSpec.from_dict(obj["v"]),
            quad=quad,
            outputs=tuple(obj.get("outputs", SWEEP_COLUMNS)),
        )

    @classmethod
    def from_json(cls, path: str) -> "SweepSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_point(args: tuple[float, float, float, QuadratureSettings]) -> SweepRow:
    d, so, v, quad = args
    spacelike = False
    try:
        spacelike = d >= spacelike_min_distance(v, 1.0)
        q = negativity(DetectorSettings(1.0, so), EncounterGeometry(d, v), quad)
    except Exception as exc:  # any per-point failure is recorded, never raised
        return SweepRow(d_over_sigma=d, v=v, sigma_omega=so, spacelike=spacelike,
                        error=_error_text(exc))
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


def _region_point(args: tuple[float, float, QuadratureSettings]) -> RegionRow:
    d, so, quad = args
    try:
        profile = velocity_profile(DetectorSettings(1.0, so), d, quad)
    except Exception as exc:  # any per-point failure is recorded, never raised
        return RegionRow(d, so, error=_error_text(exc))
    if profile.peak is None:
        return RegionRow(d, so, profile.label)
    return RegionRow(d, so, profile.label, profile.peak.v_star, profile.peak.n_star)


def _run_tasks(fn, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every grid tuple in row-major (d, omega, v) order."""
    tasks = [
        (float(d), float(so), float(v), spec.quad)
        for d in spec.d_over_sigma.points()
        for so in spec.sigma_omega.points()
        for v in spec.v.points()
    ]
    return _run_tasks(_sweep_point, tasks, workers)


def run_region_scan(
    d_grid: GridSpec,
    omega_grid: GridSpec,
    settings: QuadratureSettings | None = None,
    workers: int = 1,
) -> list[RegionRow]:
    """Classify every (d, omega) grid point; failures flagged per point."""
    quad = settings if settings is not None else QuadratureSettings()
    tasks = [
        (float(d), float(so), quad)
        for d in d_grid.points()
        for so in omega_grid.points()
    ]
    return _run_tasks(_region_point, tasks, workers)


def _fmt(x: float) -> str:
    # IEEE-754 round-trip decimal, locale-independent
    return "%.17g" % x


def _text_cell(text: str) -> str:
    # a multi-line message must not split its row, nor a comma its cell
    return " ".join(text.splitlines()).replace(",", ";")


def write_sweep_csv(rows: Iterable[SweepRow], fh: IO[str], columns: Sequence[str] = SWEEP_COLUMNS) -> None:
    fh.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for col in columns:
            value = getattr(row, col)
            if col == "spacelike":
                cells.append("true" if value else "false")
            elif col == "error":
                cells.append(_text_cell(value))
            else:
                cells.append(_fmt(value))
        fh.write(",".join(cells) + "\n")


def write_region_csv(rows: Iterable[RegionRow], fh: IO[str]) -> None:
    fh.write("d_over_sigma,sigma_omega,region,v_star,n_star,error\n")
    for row in rows:
        cells = [
            _fmt(row.d_over_sigma),
            _fmt(row.sigma_omega),
            row.region.value if row.region is not None else "",
            _fmt(row.v_star) if row.v_star is not None else "",
            _fmt(row.n_star) if row.n_star is not None else "",
            _text_cell(row.error),
        ]
        fh.write(",".join(cells) + "\n")
