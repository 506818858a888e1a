"""Batch command-line front end.

Subcommands map one-to-one onto the reproduction artifacts: `point` for a
single evaluation (JSON to stdout), `sweep` and `region` for CSV files
driven by a JSON config, `peak` for the velocity maximizer at one (d,
omega), and `validate` for the self-check report. All configuration is
explicit; no environment variables are consulted. Bad input, a bad
config, a file that cannot be read or written, or a failed integral ends a
command with one `Type: message` line on stderr and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from .model import DetectorSettings, find_peak_velocity
from .quadrature import QuadratureError, QuadratureSettings
from .sweep import (
    _PAIRS_PER_WORKER,
    SweepSpec,
    _load_json,
    _read_config,
    _sweep_task,
    run_region_scan,
    run_sweep,
    write_region_csv,
    write_sweep_csv,
)
from .validate import run_validation


def _quad_from_args(base: QuadratureSettings, args: argparse.Namespace) -> QuadratureSettings:
    overrides = {}
    for name in ("rel_tol", "abs_tol", "max_subdivisions"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return replace(base, **overrides) if overrides else base


def _add_quad_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    parser.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
    parser.add_argument("--max-subdivisions", dest="max_subdivisions", type=int, default=None)


def _cmd_point(args: argparse.Namespace) -> int:
    quad = _quad_from_args(QuadratureSettings(), args)
    det = DetectorSettings(sigma=args.sigma, omega=args.omega)
    payload = _sweep_task((args.d / det.sigma, [det.gap], [args.v], quad))[0]._asdict()
    error = payload.pop("error")
    if error:
        print(error, file=sys.stderr)
        return 1
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _write_rows(out: str, rows: list, write, *columns) -> int:
    """Write the rows as CSV to out; exit code 1 if any row records an error."""
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        write(rows, fh, *columns)
    failures = sum(1 for row in rows if row.error)
    if failures:
        print(f"{failures}/{len(rows)} points failed; see the error column", file=sys.stderr)
    return 1 if failures else 0


# run_* and write_*_csv are looked up in this module's globals at call time,
# where perfbench's tracer replaces them
def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec.from_json(args.config)
    spec = replace(spec, quad=_quad_from_args(spec.quad, args))
    return _write_rows(args.out, run_sweep(spec, workers=args.workers), write_sweep_csv, spec.outputs)


def _cmd_region(args: argparse.Namespace) -> int:
    (d_grid, omega_grid), quad = _read_config(_load_json(args.config), ("d_over_sigma", "sigma_omega"))
    rows = run_region_scan(d_grid, omega_grid, _quad_from_args(quad, args), workers=args.workers)
    return _write_rows(args.out, rows, write_region_csv)


def _cmd_peak(args: argparse.Namespace) -> int:
    quad = _quad_from_args(QuadratureSettings(), args)
    det = DetectorSettings(sigma=args.sigma, omega=args.omega)
    peak = find_peak_velocity(det, args.d, quad)
    payload = {"d_over_sigma": args.d / args.sigma, "sigma_omega": det.gap,
               "peak": None if peak is None else asdict(peak)}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    quad = _quad_from_args(QuadratureSettings(), args)
    report = run_validation(grid=args.grid, quad=quad)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entharvest",
        description="Negativity harvested by two inertially moving detectors",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="upper bound on parallel worker threads, lowered to the usable CPUs; "
                             f"a grid gets at most one per {_PAIRS_PER_WORKER} pairs of work")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point, JSON to stdout")
    p_point.add_argument("--d", type=float, required=True)
    p_point.add_argument("--v", type=float, required=True)
    p_point.add_argument("--omega", type=float, required=True)
    p_point.add_argument("--sigma", type=float, default=1.0)
    _add_quad_flags(p_point)
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="grid sweep to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    _add_quad_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_peak = sub.add_parser("peak", help="velocity maximizer at one (d, omega)")
    p_peak.add_argument("--d", type=float, required=True)
    p_peak.add_argument("--omega", type=float, required=True)
    p_peak.add_argument("--sigma", type=float, default=1.0)
    _add_quad_flags(p_peak)
    p_peak.set_defaults(func=_cmd_peak)

    p_region = sub.add_parser("region", help="(d, omega) region classification to CSV")
    p_region.add_argument("--config", required=True)
    p_region.add_argument("--out", required=True)
    _add_quad_flags(p_region)
    p_region.set_defaults(func=_cmd_region)

    p_val = sub.add_parser("validate", help="run the self-check battery")
    p_val.add_argument("--grid", choices=("coarse", "full"), default="full")
    p_val.add_argument("--out", default=None)
    _add_quad_flags(p_val)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def _usable_workers(workers: int) -> int:
    """--workers, checked and lowered to the CPUs this process may run on."""
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cpus or 1)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.workers = _usable_workers(args.workers)
        return args.func(args)
    except (ValueError, OSError, QuadratureError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
