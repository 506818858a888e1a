"""Write tests/data/reference_x.csv: X at seeded points, from mpmath.

Run from the repository root; it needs mpmath, one of the test extras:

    python tests/data/make_reference.py                    # every point, about 2 min
    python tests/data/make_reference.py --points 1 --out first.csv

The second form writes the first point alone, as CI does to show that the
generator still runs and still gives the committed value.

The points are seeded. d/sigma is log-uniform on [0.1, 8] and sigma*Omega
uniform on [0, 10]. Even-numbered points draw v uniformly on [0, 0.99];
odd-numbered ones are lightspeed points, with 1 - v log-uniform on
[1e-9, 1e-2]. Each X is the u form of the model's module docstring,
integrated in proper time s = u sqrt(1 - v^2) with the literal e^{-A}
and erfi, not the Dawson rewrite the package uses. The package is not
imported, so the table is an independent check of it. The integral is
2 mp.quad(...) over [0, 30] in pieces a quarter wide, where the Dawson
part's Gaussian e^{-s^2/4} has fallen to e^{-225}. Where the branch
points +-i s_b, s_b = d sqrt(1 - v^2) / v, lie closer to the real axis
than that, [0, 1/4] is split at s_b, 2 s_b, 4 s_b, ... so tanh-sinh
resolves the near-singularity at s = 0.

At v = 0, |X| falls like e^{-gap^2}, under an integrand of order 0.1, so
that many digits cancel. The working precision is 30 digits plus
gap^2 / ln 10 of them. A point whose mpmath error estimate exceeds 1e-20
of |X| is refused. Each value is written to 25 significant digits with
the working precision it used.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

DATA = Path(__file__).resolve().parent
OUT = DATA / "reference_x.csv"
COLUMNS = ("d_over_sigma", "v", "sigma_omega", "dps", "x_re", "x_im")
SEED = 14
POINTS = 40
END, PIECE = 30, mp.mpf(1) / 4  # the window [0, END] in pieces PIECE wide


def points(count: int = POINTS) -> list[tuple[float, float, float]]:
    """The first count (d, v, gap) points of the seeded table."""
    rng = np.random.default_rng(SEED)
    out = []
    for k in range(count):
        d = math.exp(rng.uniform(math.log(0.1), math.log(8.0)))
        gap = rng.uniform(0.0, 10.0)
        v = rng.uniform(0.0, 0.99) if k % 2 == 0 else 1.0 - 10.0 ** rng.uniform(-9.0, -2.0)
        out.append((d, v, gap))
    return out


def u_form(d, v, gap):
    """The integrand in s at the working precision: e^{-A} (1 + i erfi(x))
    / q times cos(gap s) and the Jacobian du/ds, u = s / sqrt(1 - v^2)."""
    b2 = 1 - v * v
    jacobian = 1 / mp.sqrt(b2)

    def f(s):
        u = jacobian * s
        q = mp.sqrt(v * v * u * u + d * d)
        a = (d * d * b2 + u * u * (1 - v ** 4)) / 4
        x = mp.sqrt(b2) * q / 2
        return mp.exp(-a) * mp.mpc(1, mp.erfi(x)) * jacobian * mp.cos(gap * s) / q

    return f


def edges(d, v) -> list:
    """The quadrature pieces' edges on [0, END], split toward 0 at the
    branch-point distance s_b where it is below a piece."""
    uniform = [PIECE * k for k in range(1, int(END / PIECE) + 1)]
    if v == 0:
        return [mp.mpf(0)] + uniform
    s_b = d * mp.sqrt(1 - v * v) / v
    graded = []
    while s_b < PIECE:
        graded.append(s_b)
        s_b *= 2
    return [mp.mpf(0)] + graded + uniform


def reference_x(d: float, v: float, gap: float) -> tuple[int, mp.mpc]:
    """(working digits, X) at one point."""
    dps = 30 + math.ceil(gap * gap / math.log(10.0))
    with mp.workdps(dps):
        d_, v_, gap_ = mp.mpf(d), mp.mpf(v), mp.mpf(gap)
        z, err = mp.quad(u_form(d_, v_, gap_), edges(d_, v_), error=True)
        x = -1j * (1 - v_ * v_) / (8 * mp.pi) * 2 * z
        if not err * (1 - v_ * v_) / (4 * mp.pi) <= mp.mpf(10) ** -20 * abs(x):
            raise ArithmeticError(f"X at (d, v, gap) = {(d, v, gap)} unresolved: "
                                  f"mpmath error {mp.nstr(err, 3)} with |X| = {mp.nstr(abs(x), 3)}")
        return dps, x


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--points", type=int, default=POINTS, help="the first this many points")
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for d, v, gap in points(args.points):
            dps, x = reference_x(d, v, gap)
            writer.writerow([repr(d), repr(v), repr(gap), dps,
                             mp.nstr(x.real, 25, min_fixed=1, max_fixed=0),
                             mp.nstr(x.imag, 25, min_fixed=1, max_fixed=0)])
            print(f"d={d:.4g} v={v!r} gap={gap:.4g}: {dps} digits", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
