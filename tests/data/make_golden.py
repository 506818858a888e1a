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
then, and compare the old and new cells against rel_tol |X| + abs_tol.
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

import json
import sys
import tempfile
from pathlib import Path

from entharvest.cli import main

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


if __name__ == "__main__":
    for case in CASES:
        run_case(case, DATA / case)
        print(f"wrote {DATA / case}", file=sys.stderr)
    run_validate(DATA / VALIDATE)
    print(f"wrote {DATA / VALIDATE}", file=sys.stderr)
