"""Write the golden CSVs that tests/test_golden.py compares byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py

Each case runs through `entharvest.cli.main` with a JSON config, as a
user runs it. The sweep grid reaches v = 0 and v = 1 - 1e-9 and holds rows
with N = 0 (every v at d = 4 without a gap, and the fastest v at gap
2.5); the subset case writes some of its columns in another order; the
failing case exhausts the subdivision budget at some points of a
velocity batch, so those rows carry NaN cells and error text next to
rows that converged. A block of gaps takes as many as fit the start-panel
budget on its largest gap's panels (model._gap_blocks), so in the two
sweep cases gaps 0, 2.5 and 5 are one block on start panels sized for 5;
the failing case's gaps 0 and 4 are one block, which fails at every d and
is re-run gap by gap, so its rows are the one-gap rows. The block case's
four gaps from 1.6 to 3.1 are one block on start panels sized for 3.1.
X is integrated in proper time s (model._x_integrals), so the abscissa
that a failing row's error text names is an s value. Any change to how X
is integrated moves the last digits of the x_* cells; rerun this script
then. It reads each file before it writes it again, and prints for each
how its cells moved: the largest move of an x_*, m, negativity or n_star
cell in units of its row's rel_tol |X| + abs_tol, v_star's largest move,
and every other cell (an axis, a label, p, an error) whose text changed;
for the validate report, every field of a check that changed.
Ending every window at sqrt(ln(1/eps)) envelope widths, with no panel
past that cut (the window end is no longer a setting), moved every x_*
cell of the default-tolerance files by at most 7.4e-5 of that, and the
failing case's converged cells by at most 0.014 of its own tolerance,
within their error estimates; no label and no failing row moved.
The signed-zero case has one gap and one velocity, both -0.0, which the
validators accept and every cell of those columns writes as -0; a
writer that formats an axis value once and reuses it must reuse it by
position, not by value, since -0.0 == 0.0.
The region case scans both gaps at one d in one block of X integrals
and labels each point from its gap's row as model.velocity_profile does;
a change to how a profile finds its peak moves only the v_star and n_star
cells of the peaked rows, and should leave every label and every other
file as it was.
The validate case writes the coarse self-check report, whose measured
deviations and detail text move with any change to the fast path or to
the oracles it is checked against; a change to how the battery is run
and reported should leave it as it was.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

from entharvest.cli import main
from entharvest.model import DetectorSettings, transition_probability
from entharvest.quadrature import QuadratureSettings

DATA = Path(__file__).resolve().parent

_SWEEP_AXES = {
    "d_over_sigma": {"min": 0.5, "max": 4.0, "count": 3, "spacing": "log"},
    "sigma_omega": {"min": 0.0, "max": 5.0, "count": 3},
    "v": {"min": 0.0, "max": 1.0 - 1e-9, "count": 6, "spacing": "lightspeed"},
}

# file name -> (subcommand, config)
CASES = {
    "golden_sweep.csv": ("sweep", _SWEEP_AXES),
    "golden_sweep_subset.csv": ("sweep", {
        **_SWEEP_AXES,
        "outputs": ["negativity", "v", "error", "spacelike", "x_abs", "d_over_sigma"],
    }),
    "golden_sweep_failing.csv": ("sweep", {
        "d_over_sigma": {"min": 0.5, "max": 4.0, "count": 2, "spacing": "log"},
        "sigma_omega": {"min": 0.0, "max": 4.0, "count": 2},
        "v": {"min": 0.0, "max": 0.99, "count": 4},
        "quadrature": {"rel_tol": 1e-10, "abs_tol": 1e-300, "max_subdivisions": 1},
    }),
    "golden_sweep_block.csv": ("sweep", {
        "d_over_sigma": {"min": 0.5, "max": 4.0, "count": 2, "spacing": "log"},
        "sigma_omega": {"min": 1.6, "max": 3.1, "count": 4},
        "v": {"min": 0.0, "max": 1.0 - 1e-9, "count": 5, "spacing": "lightspeed"},
    }),
    "golden_sweep_signed_zero.csv": ("sweep", {
        "d_over_sigma": {"min": 0.5, "max": 4.0, "count": 3, "spacing": "log"},
        "sigma_omega": {"min": -0.0, "max": -0.0, "count": 1},
        "v": {"min": -0.0, "max": -0.0, "count": 1},
    }),
    "golden_region.csv": ("region", {
        "d_over_sigma": {"min": 0.5, "max": 8.0, "count": 2},
        "sigma_omega": {"min": 0.5, "max": 2.0, "count": 2},
    }),
}


def run_case(name: str, out: Path, workers: int = 1) -> int:
    """Write case `name` to out; the CLI's exit code."""
    command, config = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return main(["--workers", str(workers), command, "--config", str(path), "--out", str(out)])


VALIDATE = "golden_validate_coarse.json"


def run_validate(out: Path) -> int:
    """Write the coarse self-check report to out; the CLI's exit code."""
    return main(["validate", "--grid", "coarse", "--out", str(out)])


def _moves(name: str, old: str, new: str) -> str:
    """How the cells of case `name`'s CSV moved from the text old to new.

    An x_*, m, negativity or n_star cell moves in units of its row's
    rel_tol |X| + abs_tol, at the case's tolerances, with |X| = x_abs or,
    in a region row, n_star + P; the largest move is given with its cell.
    A v_star cell moves by its absolute change. Every other cell (axes,
    labels, p, error) is listed where its text changed."""
    quad = QuadratureSettings(**CASES[name][1].get("quadrature", {}))
    old_rows, new_rows = (list(csv.DictReader(text.splitlines())) for text in (old, new))
    if old.splitlines()[:1] != new.splitlines()[:1] or len(old_rows) != len(new_rows):
        return "header or row count changed"
    worst, worst_at, v_star, changed = 0.0, "", 0.0, []
    for r, (a, b) in enumerate(zip(old_rows, new_rows), start=2):  # line numbers
        if "x_abs" in a:
            x_abs = float(a["x_abs"])
        elif a.get("n_star"):
            gap = float(a["sigma_omega"])
            x_abs = float(a["n_star"]) + transition_probability(DetectorSettings(1.0, gap))
        else:
            x_abs = 0.0
        for column, cell in a.items():
            if cell == b[column]:
                continue
            if not (cell and b[column]):  # a cell that appeared or went, as n_star with a label
                changed.append(f"line {r} {column}: {cell!r} -> {b[column]!r}")
            elif column.startswith("x_") or column in ("m", "negativity", "n_star"):
                move = abs(float(b[column]) - float(cell)) / (quad.rel_tol * abs(x_abs) + quad.abs_tol)
                if not move <= worst:  # a NaN move shows as nan
                    worst, worst_at = move, f"{column}, line {r}"
            elif column == "v_star":
                v_star = max(v_star, abs(float(b[column]) - float(cell)))
            else:
                changed.append(f"line {r} {column}: {cell!r} -> {b[column]!r}")
    report = [f"largest move {worst:.2g} of rel_tol |X| + abs_tol" + (f" ({worst_at})" if worst_at else "")]
    if v_star:
        report.append(f"v_star by at most {v_star:.2g}")
    report.extend(changed or ["no other cell changed"])
    return "; ".join(report)


def _report_moves(old: dict, new: dict) -> str:
    """The checks of the validate report whose fields changed from old to new."""
    old_checks = {c["name"]: c for c in old["checks"]}
    changed = [f"{c['name']}.{key}: {old_checks.get(c['name'], {}).get(key)!r} -> {value!r}"
               for c in new["checks"] for key, value in c.items()
               if old_checks.get(c["name"], {}).get(key) != value]
    if old["all_passed"] != new["all_passed"] or len(old["checks"]) != len(new["checks"]):
        changed.insert(0, "all_passed or the number of checks changed")
    return "; ".join(changed) or "no field changed"


def _rewrite(path: Path, write, moves) -> None:
    """Write path with write(path), then print how its content moved."""
    old = path.read_text(encoding="utf-8") if path.exists() else None
    write(path)
    new = path.read_text(encoding="utf-8")
    if old is None:
        print(f"{path.name}: new file")
    else:
        print(f"{path.name}: " + ("unchanged" if old == new else moves(old, new)))


if __name__ == "__main__":
    for case in CASES:
        _rewrite(DATA / case, lambda path: run_case(case, path),
                 lambda old, new: _moves(case, old, new))
    _rewrite(DATA / VALIDATE, run_validate,
             lambda old, new: _report_moves(json.loads(old), json.loads(new)))
