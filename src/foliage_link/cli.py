"""Command-line frontend: point losses, sweeps, budget solving, scenarios, bounds.

Exit codes: 0 on success, 1 on domain or solver errors (one-line diagnostic
on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from .budget import RadioConfig, max_foliage_factor, max_foliage_height, max_range
from .errors import FoliageLinkError, ParseError
from .propagation import (
    DEFAULT_DELTA_CAP,
    LinkGeometry,
    delta_bounds,
    delta_from_heights,
    total_loss,
)
from .render import (
    BOUNDS_COLUMNS,
    LOSS_COLUMNS,
    REPORT_COLUMNS,
    SOLVE_COLUMNS,
    SWEEP_COLUMNS,
    render,
)
from .scenario import emit_csv, emit_json, evaluate_scenario, parse_scenario
from .sweep import SweepSpec, SweepVariable, preset, run_sweep

_SWEEP_VARS = {
    "delta": SweepVariable.DELTA,
    "foliage-height": SweepVariable.FOLIAGE_HEIGHT,
    "distance": SweepVariable.DISTANCE,
    "frequency-mhz": SweepVariable.FREQUENCY_MHZ,
}


class _UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _finite_float(text: str) -> float:
    """argparse type for every real-valued flag: a finite float, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliage-link",
        description="Link-budget planning for wireless links crossing foliage cover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("table", "csv", "json"), default="table",
            help="output format (default: table)",
        )
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    def add_geometry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d-km", type=_finite_float, help="total path length in km")
        p.add_argument("--delta", type=_finite_float, help="foliage cover factor in [0,1]")
        p.add_argument("--h-m", type=_finite_float, help="base antenna height above sensor, m")
        p.add_argument("--h-f-m", type=_finite_float, help="foliage height above sensor, m")

    loss = sub.add_parser("loss", help="loss breakdown for one link")
    add_geometry_flags(loss)
    loss.add_argument("--f-mhz", type=_finite_float, required=True, help="frequency in MHz")
    add_output_flags(loss)

    sweep = sub.add_parser("sweep", help="one-dimensional parameter sweep")
    sweep.add_argument(
        "--preset", choices=("figure2", "figure3", "figure4"),
        help="bundled sweep (exclusive of --var/--start/--stop/--steps)",
    )
    sweep.add_argument("--var", choices=tuple(_SWEEP_VARS), help="variable to sweep")
    sweep.add_argument("--start", type=_finite_float, help="first swept value")
    sweep.add_argument("--stop", type=_finite_float, help="last swept value")
    sweep.add_argument("--steps", type=int, help="number of points, endpoints included")
    sweep.add_argument("--delta-cap", type=_finite_float, default=DEFAULT_DELTA_CAP,
                       help="upper cap for cover-factor sweeps (default %(default)s)")
    add_geometry_flags(sweep)
    sweep.add_argument("--f-mhz", type=_finite_float, help="fixed frequency in MHz")
    add_output_flags(sweep)

    budget = sub.add_parser("budget", help="inverse solves against a radio budget")
    budget.add_argument("--solve", choices=("range", "delta", "height"), required=True)
    budget.add_argument("--tx-dbm", type=_finite_float, required=True, help="transmit power, dBm")
    budget.add_argument("--tx-gain", type=_finite_float, default=0.0, help="transmit gain, dBi")
    budget.add_argument("--rx-gain", type=_finite_float, default=0.0, help="receive gain, dBi")
    budget.add_argument("--sensitivity-dbm", type=_finite_float, required=True,
                        help="receiver sensitivity, dBm (negative)")
    budget.add_argument("--margin-db", type=_finite_float, default=0.0,
                        help="required fade margin, dB")
    budget.add_argument("--delta-cap", type=_finite_float, default=DEFAULT_DELTA_CAP,
                        help="cover-factor ceiling for delta/height solves (default %(default)s)")
    add_geometry_flags(budget)
    budget.add_argument("--f-mhz", type=_finite_float, required=True, help="frequency in MHz")
    add_output_flags(budget)

    scenario = sub.add_parser("scenario", help="evaluate a scenario JSON file")
    scenario.add_argument("--file", required=True, metavar="PATH", help="scenario document")
    add_output_flags(scenario)

    bounds = sub.add_parser("bounds", help="admissible cover-factor band")
    bounds.add_argument("--delta-min", type=_finite_float, required=True)
    bounds.add_argument("--delta-max", type=_finite_float, required=True)
    bounds.add_argument("--sigma", type=_finite_float, required=True,
                        help="fractional perturbation, e.g. 0.5 for +/-50%%")
    add_output_flags(bounds)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _geometry_from_args(args: argparse.Namespace) -> LinkGeometry:
    if args.d_km is None:
        raise _UsageError("--d-km is required here")
    return LinkGeometry(d_km=args.d_km, delta=_delta_from_args(args))


def _delta_from_args(args: argparse.Namespace) -> float:
    if args.delta is not None:
        if args.h_m is not None or args.h_f_m is not None:
            raise _UsageError("--delta and --h-m/--h-f-m are mutually exclusive")
        return args.delta
    if args.h_m is None or args.h_f_m is None:
        raise _UsageError("supply --delta, or both --h-m and --h-f-m")
    return delta_from_heights(args.h_f_m, args.h_m)


def _run_loss(args: argparse.Namespace) -> str:
    breakdown = total_loss(_geometry_from_args(args), args.f_mhz)
    return render(breakdown, LOSS_COLUMNS, args.format)


def _run_sweep_cmd(args: argparse.Namespace) -> str:
    custom_flags = (args.var, args.start, args.stop, args.steps)
    if args.preset is not None:
        if any(flag is not None for flag in custom_flags):
            raise _UsageError("--preset is exclusive of --var/--start/--stop/--steps")
        spec = preset(args.preset)
    else:
        if any(flag is None for flag in custom_flags):
            raise _UsageError("supply --preset, or all of --var/--start/--stop/--steps")
        variable = _SWEEP_VARS[args.var]
        if variable is SweepVariable.DELTA:
            if args.d_km is None:
                raise _UsageError("--d-km is required for a delta sweep")
            base = LinkGeometry(d_km=args.d_km, delta=args.start)
        elif variable is SweepVariable.FOLIAGE_HEIGHT:
            if args.d_km is None or args.h_m is None:
                raise _UsageError("--d-km and --h-m are required for a foliage-height sweep")
            base = LinkGeometry(d_km=args.d_km, h_m=args.h_m, h_f_m=args.start)
        elif variable is SweepVariable.DISTANCE:
            base = LinkGeometry(d_km=args.start, delta=_delta_from_args(args))
        else:  # frequency sweep
            base = _geometry_from_args(args)
        f_mhz = args.f_mhz
        if variable is SweepVariable.FREQUENCY_MHZ:
            f_mhz = args.start if f_mhz is None else f_mhz
        if f_mhz is None:
            raise _UsageError("--f-mhz is required here")
        spec = SweepSpec(
            variable=variable,
            start=args.start,
            stop=args.stop,
            steps=args.steps,
            base=base,
            f_mhz=f_mhz,
            delta_cap=args.delta_cap,
        )
    table = run_sweep(spec)
    if args.format == "csv":
        return emit_csv(table)
    return render(table.rows, SWEEP_COLUMNS, args.format)


def _run_budget(args: argparse.Namespace) -> str:
    radio = RadioConfig(
        tx_power_dbm=args.tx_dbm,
        tx_gain_dbi=args.tx_gain,
        rx_gain_dbi=args.rx_gain,
        rx_sensitivity_dbm=args.sensitivity_dbm,
        required_margin_db=args.margin_db,
    )
    if args.solve == "range":
        result = max_range(radio, _delta_from_args(args), args.f_mhz)
    elif args.solve == "delta":
        if args.d_km is None:
            raise _UsageError("--d-km is required for --solve delta")
        result = max_foliage_factor(radio, args.d_km, args.f_mhz, args.delta_cap)
    else:
        if args.d_km is None or args.h_m is None:
            raise _UsageError("--d-km and --h-m are required for --solve height")
        result = max_foliage_height(radio, args.d_km, args.h_m, args.f_mhz, args.delta_cap)
    return render(SimpleNamespace(solve=args.solve, **vars(result)), SOLVE_COLUMNS, args.format)


def _run_scenario(args: argparse.Namespace) -> str:
    try:
        scenario = parse_scenario(Path(args.file).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.file}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
    reports = evaluate_scenario(scenario)
    if args.format == "json":
        return emit_json(reports) + "\n"
    if args.format == "csv":
        return emit_csv(reports)
    return render(reports, REPORT_COLUMNS, "table")


def _run_bounds(args: argparse.Namespace) -> str:
    bounds = delta_bounds(args.delta_min, args.delta_max, args.sigma)
    return render(bounds, BOUNDS_COLUMNS, args.format)


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute one subcommand, return the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        if args.command == "loss":
            text = _run_loss(args)
        elif args.command == "sweep":
            text = _run_sweep_cmd(args)
        elif args.command == "budget":
            text = _run_budget(args)
        elif args.command == "scenario":
            text = _run_scenario(args)
        else:
            text = _run_bounds(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except (FoliageLinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
