"""The benchmark's workloads, their inputs and their correctness gates.

Every job goes through `entharvest.cli.main`, the way a user runs the
package, and writes its output to a file that the gate then reads. The
seed, together with the repetition number, jitters the axis bounds by a
few percent, so the program receives only generated grids and no two
repetitions of a run evaluate the same points: a cache that lives across
calls cannot turn a repeated job into a free one.

Gates run outside the timed region. The cheap gate checks every row of
every repetition; the deep gate checks the first repetition against the
independent momentum-space oracles and re-evaluates peaks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

JITTER = 0.03  # bounds move by up to 3%, multiplicatively

# Criterion 1 and criterion 3 of the acceptance battery.
P_ORACLE_ABS_TOL = 1e-6
X_ORACLE_REL_TOL = 1e-5
X_ORACLE_FLOOR = 1e-5
STATIC_REL_TOL = 1e-8
P_ORACLE_MAX_V = 0.99  # criterion 1's largest frame velocity

SWEEP_HEADER = ("d_over_sigma,v,sigma_omega,p,x_re,x_im,x_abs,m,negativity,"
                "x_error_estimate,spacelike,error")
REGION_HEADER = "d_over_sigma,sigma_omega,region,v_star,n_star,error"
LABELS = ("no-entanglement", "monotone-decreasing", "peaked")


@dataclass
class Job:
    argv: list[str]  # subcommand and its arguments, without --workers
    out: Path
    units: int
    axes: dict  # axis name -> {min, max, count, spacing}


def _jitter(rng: np.random.Generator, x: float) -> float:
    return x * math.exp(rng.uniform(-JITTER, JITTER))


def _axis(rng, lo, hi, count, spacing="linear", below_one=False) -> dict:
    if below_one:  # a velocity axis: jitter the distance to light speed
        hi = 1.0 - _jitter(rng, 1.0 - hi)
    else:
        hi = _jitter(rng, hi)
    return {"min": _jitter(rng, lo), "max": hi, "count": count, "spacing": spacing}


def axis_points(axis: dict) -> np.ndarray:
    """Grid points of one axis, computed here rather than by the package."""
    lo, hi, n, spacing = axis["min"], axis["max"], axis["count"], axis["spacing"]
    if n == 1:
        return np.array([lo])
    if spacing == "log":
        return np.exp(np.linspace(math.log(lo), math.log(hi), n))
    if spacing == "lightspeed":
        return 1.0 - np.exp(np.linspace(math.log(1.0 - lo), math.log(1.0 - hi), n))
    return np.linspace(lo, hi, n)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rows(text: str, header: str) -> list[dict] | None:
    if text.partition("\n")[0] != header:
        return None
    return list(csv.DictReader(io.StringIO(text)))


def _grid_job(command: str, name: str, axes: dict, workdir: Path) -> Job:
    """A `sweep` or `region` job on the given axes; one unit per grid point."""
    cfg, out = workdir / f"{name}.json", workdir / f"{name}.csv"
    cfg.write_text(json.dumps(axes), encoding="utf-8")
    units = math.prod(a["count"] for a in axes.values())
    return Job([command, "--config", str(cfg), "--out", str(out)], out, units, axes)


def _sample(rng: np.random.Generator, rows: dict, n: int) -> list:
    """Up to n keys of rows, drawn without replacement, in ascending order."""
    keys = sorted(rows)
    if not keys:
        return []
    return sorted(keys[int(k)] for k in rng.choice(len(keys), size=min(n, len(keys)), replace=False))


def _rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep])


@dataclass(frozen=True)
class SweepWorkload:
    """A `sweep` run over (d, gap, v); one work unit per grid point."""

    name: str
    d: tuple
    gap: tuple
    v: tuple
    workers: int
    oracle_samples: int = 3

    def job(self, seed: int, rep: int, workdir: Path) -> Job:
        rng = _rng(seed, rep)
        axes = {
            "d_over_sigma": _axis(rng, *self.d),
            "sigma_omega": _axis(rng, *self.gap),
            "v": _axis(rng, *self.v, below_one=True),
        }
        return _grid_job("sweep", self.name, axes, workdir)

    def check(self, pkg, job: Job, text: str) -> tuple[set, list]:
        """Rows that fail, and the parsed rows for the deep gate.

        A row fails if it carries an error, lies off the generated grid,
        breaks negativity == max(x_abs - p, 0), or, at v = 0, misses the
        closed-form |X| by more than 1e-8 relative.
        """
        rows = _rows(text, SWEEP_HEADER)
        if rows is None or len(rows) != job.units:
            return set(range(job.units)), []
        grid = [(d, g, v) for d in axis_points(job.axes["d_over_sigma"])
                for g in axis_points(job.axes["sigma_omega"])
                for v in axis_points(job.axes["v"])]
        failed = set()
        for i, (row, (d, g, v)) in enumerate(zip(rows, grid)):
            try:
                rd, rg, rv = float(row["d_over_sigma"]), float(row["sigma_omega"]), float(row["v"])
                p, x_abs, n = float(row["p"]), float(row["x_abs"]), float(row["negativity"])
                ok = (not row["error"] and _close(rd, d) and _close(rg, g) and _close(rv, v)
                      and n == max(x_abs - p, 0.0))
                if ok and rv == 0.0:
                    static = pkg.model.static_x_abs(pkg.model.DetectorSettings(1.0, rg), rd)
                    ok = abs(x_abs - static) <= STATIC_REL_TOL * static
            except (TypeError, ValueError):
                ok = False
            if not ok:
                failed.add(i)
        return failed, rows

    def deep_check(self, pkg, seed: int, rows: dict) -> set:
        """Sampled rows (of those that passed `check`) that disagree with
        the momentum-space oracles."""
        rng = np.random.default_rng(seed)
        failed = set()
        for i in _sample(rng, rows, self.oracle_samples):
            row = rows[i]
            d, g, v = float(row["d_over_sigma"]), float(row["sigma_omega"]), float(row["v"])
            det = pkg.model.DetectorSettings(1.0, g)
            x = complex(float(row["x_re"]), float(row["x_im"]))
            x_o, _ = pkg.oracle.x_momentum_oracle(det, pkg.model.EncounterGeometry(d, v))
            p_o, _ = pkg.oracle.p_momentum_oracle(det, min(v, P_ORACLE_MAX_V))
            if not (abs(x_o - x) <= X_ORACLE_REL_TOL * max(abs(x), X_ORACLE_FLOOR)
                    and abs(p_o - float(row["p"])) <= P_ORACLE_ABS_TOL):
                failed.add(i)
        return failed


@dataclass(frozen=True)
class RegionWorkload:
    """A `region` run over (d, gap); one work unit per grid point."""

    name: str
    d: tuple
    gap: tuple
    workers: int
    oracle_samples: int = 2

    def job(self, seed: int, rep: int, workdir: Path) -> Job:
        rng = _rng(seed, rep)
        axes = {"d_over_sigma": _axis(rng, *self.d), "sigma_omega": _axis(rng, *self.gap)}
        return _grid_job("region", self.name, axes, workdir)

    def check(self, pkg, job: Job, text: str) -> tuple[set, list]:
        """Rows that fail the closed-form region conditions.

        A peaked row needs 0 < v_star < 1 and n_star >= N(v = 0); a
        no-entanglement row needs N(v = 0) == 0, both in closed form.
        """
        rows = _rows(text, REGION_HEADER)
        if rows is None or len(rows) != job.units:
            return set(range(job.units)), []
        grid = [(d, g) for d in axis_points(job.axes["d_over_sigma"])
                for g in axis_points(job.axes["sigma_omega"])]
        failed = set()
        for i, (row, (d, g)) in enumerate(zip(rows, grid)):
            try:
                rd, rg, label = float(row["d_over_sigma"]), float(row["sigma_omega"]), row["region"]
                n0 = pkg.model.static_negativity(pkg.model.DetectorSettings(1.0, rg), rd)
                ok = not row["error"] and _close(rd, d) and _close(rg, g) and label in LABELS
                if ok and label == "peaked":
                    v_star, n_star = float(row["v_star"]), float(row["n_star"])
                    ok = 0.0 < v_star < 1.0 and n_star >= n0
                elif ok and label == "no-entanglement":
                    ok = n0 == 0.0
            except (TypeError, ValueError):
                ok = False
            if not ok:
                failed.add(i)
        return failed, rows

    def deep_check(self, pkg, seed: int, rows: dict) -> set:
        """Peaks (of rows that passed `check`) that negativity(v_star) or
        the oracles do not reproduce.

        Every peak is re-evaluated with `negativity`; a seeded sample is
        checked against the momentum-space oracles, with X held to
        criterion 3's tolerance and P to criterion 1's.
        """
        keys = ("d_over_sigma", "sigma_omega", "v_star", "n_star")
        peaks = {i: [float(r[k]) for k in keys] for i, r in rows.items() if r["region"] == "peaked"}
        failed = set()
        for i, (d, g, v_star, n_star) in peaks.items():
            q = pkg.model.negativity(pkg.model.DetectorSettings(1.0, g),
                                     pkg.model.EncounterGeometry(d, v_star))
            if not math.isclose(q.negativity, n_star, rel_tol=1e-9, abs_tol=1e-15):
                failed.add(i)
        rng = np.random.default_rng(seed)
        for i in _sample(rng, peaks, self.oracle_samples):
            d, g, v_star, n_star = peaks[i]
            det = pkg.model.DetectorSettings(1.0, g)
            x_o, _ = pkg.oracle.x_momentum_oracle(det, pkg.model.EncounterGeometry(d, v_star))
            p_o, _ = pkg.oracle.p_momentum_oracle(det, min(v_star, P_ORACLE_MAX_V))
            tol = X_ORACLE_REL_TOL * max(abs(x_o), X_ORACLE_FLOOR) + P_ORACLE_ABS_TOL
            if abs(max(abs(x_o) - p_o, 0.0) - n_star) > tol:
                failed.add(i)
        return failed


@dataclass(frozen=True)
class ValidateWorkload:
    """`validate --grid coarse`; one work unit per check of the battery.

    Its grids are fixed by the package, so the seed does not change it.
    """

    name: str
    workers: int = 1

    def job(self, seed: int, rep: int, workdir: Path) -> Job:
        out = workdir / f"{self.name}.json"
        # one unit until the report says how many checks ran
        return Job(["validate", "--grid", "coarse", "--out", str(out)], out, 1, {})

    def check(self, pkg, job: Job, text: str) -> tuple[set, list]:
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError):
            return {0}, []
        job.units = len(checks)
        return {i for i, c in enumerate(checks) if not c["passed"]}, checks

    def deep_check(self, pkg, seed: int, rows: dict) -> set:
        return set()


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep-dense", d=(0.5, 4.0, 12, "log"), gap=(0.0, 4.0, 12),
                      v=(0.0, 0.99, 12), workers=1),
        SweepWorkload("sweep-lightspeed", d=(0.5, 4.0, 8, "log"), gap=(0.0, 4.0, 8),
                      v=(0.0, 1.0 - 1e-9, 24, "lightspeed"), workers=2),
        RegionWorkload("region-map", d=(0.5, 3.0, 3), gap=(0.0, 2.0, 3), workers=1),
        ValidateWorkload("validate-coarse"),
    )
}
