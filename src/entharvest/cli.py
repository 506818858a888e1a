"""Batch command-line front end.

Subcommands map one-to-one onto the reproduction artifacts: `point` for a
single evaluation (JSON to stdout), `sweep` and `region` for CSV files
driven by a JSON config, `peak` for the velocity maximizer at one (d,
omega), and `validate` for the self-check report. `--d` is d/sigma and
`--omega` sigma*omega, as in every config and output. All configuration
is explicit; no environment variables are consulted. Bad input (such as
a `--workers` that sweep._usable_workers refuses), a bad config, a file
that cannot be read or written, or a failed integral ends a command with
one `Type: message` line on stderr and exit code 1.

Tolerances have one source, the `quadrature` block of a `sweep` or
`region` config; `point`, `peak` and `validate` run at the
QuadratureSettings() defaults that validate's pass bounds assume. A point
or a peak at other tolerances is a one-cell `sweep` or `region` config.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .model import DetectorSettings, find_peak_velocity
from .quadrature import QuadratureError, QuadratureSettings
from .sweep import (
    _PAIRS_PER_WORKER,
    SweepSpec,
    _error_text,
    _load_json,
    _read_config,
    _sweep_rows,
    _usable_workers,
    run_region_scan,
    run_sweep,
    write_region_csv,
    write_sweep_csv,
)
from .validate import run_validation


def _cmd_point(args: argparse.Namespace) -> int:
    # the row of a one-cell sweep table, without its error cell, or that
    # error alone
    (row,) = _sweep_rows([args.d], [args.omega], [args.v], QuadratureSettings(), 1)
    if row.error:
        print(row.error, file=sys.stderr)
        return 1
    payload = row._asdict()
    del payload["error"]
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _write_rows(out: str, rows, failures: int, write, *columns) -> int:
    """Write the rows as CSV to out; exit code 1 if any of them failed."""
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        write(rows, fh, *columns)
    if failures:
        print(f"{failures}/{len(rows)} points failed; see the error column", file=sys.stderr)
    return 1 if failures else 0


# run_* and write_*_csv are looked up in this module's globals at call time,
# where perfbench's tracer replaces them
def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec.from_json(args.config)
    table = run_sweep(spec, workers=args.workers)
    return _write_rows(args.out, table, table.failed, write_sweep_csv, spec.outputs)


def _cmd_region(args: argparse.Namespace) -> int:
    (d_grid, omega_grid), quad = _read_config(_load_json(args.config), ("d_over_sigma", "sigma_omega"))
    rows = run_region_scan(d_grid, omega_grid, quad)
    return _write_rows(args.out, rows, sum(1 for row in rows if row.error), write_region_csv)


def _cmd_peak(args: argparse.Namespace) -> int:
    peak = find_peak_velocity(DetectorSettings(1.0, args.omega), args.d)
    payload = {"d_over_sigma": args.d, "sigma_omega": args.omega,
               "peak": None if peak is None else asdict(peak)}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    report = run_validation(grid=args.grid)
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


def _add_command(sub, name: str, func, summary: str, *flags: tuple[str, dict]) -> None:
    """Subcommand name, which runs func, with its own flags."""
    parser = sub.add_parser(name, help=summary)
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entharvest",
        description="Negativity harvested by two inertially moving detectors",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="upper bound on a sweep's worker threads, lowered to the usable CPUs and to "
                             f"one per {_PAIRS_PER_WORKER} grid points; a region scan runs in one thread")
    sub = parser.add_subparsers(dest="command", required=True)

    number, path = {"type": float, "required": True}, {"required": True}
    _add_command(sub, "point", _cmd_point, "evaluate one parameter point, JSON to stdout",
                 ("--d", number), ("--v", number), ("--omega", number))
    _add_command(sub, "sweep", _cmd_sweep, "grid sweep to CSV", ("--config", path), ("--out", path))
    _add_command(sub, "peak", _cmd_peak, "velocity maximizer at one (d, omega)",
                 ("--d", number), ("--omega", number))
    _add_command(sub, "region", _cmd_region, "(d, omega) region classification to CSV",
                 ("--config", path), ("--out", path))
    _add_command(sub, "validate", _cmd_validate, "run the self-check battery",
                 ("--grid", {"choices": ("coarse", "full"), "default": "full"}), ("--out", {}))
    return parser


# built on the first call to main and reused by every later one
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.workers = _usable_workers(args.workers)
        return args.func(args)
    except (ValueError, OSError, QuadratureError) as exc:
        print(_error_text(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
