"""Command-line frontend: point losses, sweeps, budget solving, scenarios, bounds.

Exit codes: 0 on success, 1 on domain or solver errors (one-line diagnostic
on stderr), 2 on usage errors, 130 on an interrupt (one line on stderr),
141 when the reader of the output goes away first (nothing on stderr).

The grammar is declared once, as data: ``_COMMANDS`` maps each subcommand to
its help and its ``(flag, add_argument keywords)`` pairs. ``build_parser``
builds the ``argparse`` parser from it, and ``_option_tables`` builds the
table that parses a canonical argv, ``SUBCOMMAND (--flag value)*`` with every
flag spelled in full, to the same ``Namespace`` without argparse's per-call
token matching. Everything else (abbreviated flags, ``--flag=value``, ``--``,
help, and every error) goes through argparse itself, so help, usage and
error text are argparse's own; the parser is built only then. A parser of
the one subcommand, ``_subparser``, prints its usage line under a usage
error of ``run``'s own, and refuses an argument that subcommand lacks,
which the full parser would refuse under the top-level usage line.

Output goes out as text pieces through one sink, ``_write_out``: a
one-record command's text is one piece. A sweep and a scenario each give a
``render.Batch``, which ``run`` renders in one place: the header, then one
piece per block of ``render._BLOCK_ROWS`` points or nodes, each evaluated
and rendered only when the piece before it is written, and JSON's ``]``.
Every model error comes before the first piece: a scenario is checked
whole, and a sweep at its shortest free-space segment, where a point fails
if any does (``sweep._sweep_batch``). Each piece goes out
whole: to stdout as text, to ``--out`` as UTF-8 bytes through one file
descriptor, opened only once the first piece is ready. After that only I/O
can fail, and a failed write leaves the file holding what was written
before it.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from io import IncrementalNewlineDecoder
from itertools import chain
from math import isfinite
from operator import attrgetter

from .budget import RadioConfig, max_foliage_factor, max_foliage_height, max_range
from .errors import FoliageLinkError, ParseError, ScenarioError
from .propagation import (
    DEFAULT_DELTA_CAP,
    LinkGeometry,
    delta_bounds,
    delta_from_heights,
    total_loss,
)
from .render import Batch, render, render_blocks
from .scenario import _load, _scenario_batch
from .sweep import SweepSpec, SweepVariable, _sweep_batch, preset
# not called here; perfbench/spans.py wraps them by these names
from .scenario import emit_csv, emit_json, evaluate_scenario, parse_scenario  # noqa: F401
from .sweep import run_sweep  # noqa: F401

#: the ``budget`` command's columns: the solve's kind, then its ``SolveResult``
_SOLVE_COLUMNS = ("solve", "value", "achieved_loss_db", "iterations", "converged", "all_feasible")
#: the ``loss`` command's columns, and where ``_loss_row`` finds each in a
#: ``LossBreakdown``: its losses, and the split and foliage fields it nests
_LOSS_COLUMNS = (
    "delta", "d_f_m", "d_fsp_m", "l_foliage_db", "l_fsp_db", "l_total_db", "regime", "validity",
)
_loss_row = attrgetter(
    "split.delta", "split.d_f_m", "split.d_fsp_m", "l_foliage_db", "l_fsp_db",
    "l_total_db", "foliage.regime", "foliage.validity",
)

_SWEEP_VARS = {v.value.replace("_", "-"): v for v in SweepVariable}

#: the most bytes a scenario file may hold: 64 MiB, about 8.5 times the benchmark's 100k nodes
_MAX_SCENARIO_BYTES = 64 * 1024 * 1024


class _UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _finite_float(text: str) -> float:
    """argparse type for every real-valued flag: a finite float, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


_OUTPUT_FLAGS = (
    ("--format", dict(choices=("table", "csv", "json"), default="table",
                      help="output format (default: table)")),
    ("--out", dict(metavar="PATH", help="write output to PATH instead of stdout")),
)
_GEOMETRY_FLAGS = (
    ("--d-km", dict(type=_finite_float, help="total path length in km")),
    ("--delta", dict(type=_finite_float, help="foliage cover factor in [0,1]")),
    ("--h-m", dict(type=_finite_float, help="base antenna height above sensor, m")),
    ("--h-f-m", dict(type=_finite_float, help="foliage height above sensor, m")),
)

#: subcommand -> (help, its flags in help order); every flag stores one value
_COMMANDS = {
    "loss": ("loss breakdown for one link", (
        *_GEOMETRY_FLAGS,
        ("--f-mhz", dict(type=_finite_float, required=True, help="frequency in MHz")),
        *_OUTPUT_FLAGS,
    )),
    "sweep": ("one-dimensional parameter sweep", (
        ("--preset", dict(choices=("figure2", "figure3", "figure4"),
                          help="bundled sweep (exclusive of --var/--start/--stop/--steps)")),
        ("--var", dict(choices=tuple(_SWEEP_VARS), help="variable to sweep")),
        ("--start", dict(type=_finite_float, help="first swept value")),
        ("--stop", dict(type=_finite_float, help="last swept value")),
        ("--steps", dict(type=int, help="number of points, endpoints included")),
        *_GEOMETRY_FLAGS,
        ("--f-mhz", dict(type=_finite_float, help="fixed frequency in MHz")),
        *_OUTPUT_FLAGS,
    )),
    "budget": ("inverse solves against a radio budget", (
        ("--solve", dict(choices=("range", "delta", "height"), required=True)),
        ("--tx-dbm", dict(type=_finite_float, required=True, help="transmit power, dBm")),
        ("--tx-gain", dict(type=_finite_float, default=0.0, help="transmit gain, dBi")),
        ("--rx-gain", dict(type=_finite_float, default=0.0, help="receive gain, dBi")),
        ("--sensitivity-dbm", dict(type=_finite_float, required=True,
                                   help="receiver sensitivity, dBm (negative)")),
        ("--margin-db", dict(type=_finite_float, default=0.0, help="required fade margin, dB")),
        ("--delta-cap", dict(
            type=_finite_float,
            help="cover-factor ceiling of a delta or height solve, in [0, 1) "
                 f"(default {DEFAULT_DELTA_CAP})",
        )),
        *_GEOMETRY_FLAGS,
        ("--f-mhz", dict(type=_finite_float, required=True, help="frequency in MHz")),
        *_OUTPUT_FLAGS,
    )),
    "scenario": ("evaluate a scenario JSON file", (
        ("--file", dict(required=True, metavar="PATH", help="scenario document")),
        *_OUTPUT_FLAGS,
    )),
    "bounds": ("admissible cover-factor band", (
        ("--delta-min", dict(type=_finite_float, required=True)),
        ("--delta-max", dict(type=_finite_float, required=True)),
        ("--sigma", dict(type=_finite_float, required=True,
                         help="fractional perturbation, e.g. 0.5 for +/-50%%")),
        *_OUTPUT_FLAGS,
    )),
}


_PROG = "foliage-link"


def _add_flags(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for flag, keywords in _COMMANDS[command][1]:
        parser.add_argument(flag, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Link-budget planning for wireless links crossing foliage cover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` falls back to, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _subparser(command: str) -> argparse.ArgumentParser:
    """A parser of the subcommand ``command`` alone: its usage line and errors are argparse's."""
    return _add_flags(argparse.ArgumentParser(prog=f"{_PROG} {command}"), command)


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` under: ``--d-km`` -> ``d_km``."""
    return flag[2:].replace("-", "_")


#: a value starting with "-" that argparse still takes as a value: its
#: ``_negative_number_matcher``, which applies while no flag looks like a number
_negative_number = re.compile(r"^-\d+$|^-\d*\.\d+$").match


@functools.cache
def _option_tables() -> dict[str, tuple[dict, dict, frozenset]]:
    """Per subcommand, what ``_fast_parse`` reads, built from ``_COMMANDS``.

    Each entry is the flag -> (dest, type conversion, choices) map, the
    namespace before any flag (the subcommand's name and every default) and
    the set of required dests.
    """
    return {
        name: (
            {flag: (_dest(flag), kw.get("type", str), kw.get("choices")) for flag, kw in flags},
            {"command": name, **{_dest(flag): kw.get("default") for flag, kw in flags}},
            frozenset(_dest(flag) for flag, kw in flags if kw.get("required")),
        )
        for name, (_, flags) in _COMMANDS.items()
    }


def _fast_parse(argv: list[str]) -> argparse.Namespace | None:
    """``_parser().parse_args(argv)`` for a canonical argv, else None.

    Canonical is ``SUBCOMMAND (--flag value)*`` with every flag one the
    subcommand declares, spelled in full, each value converted and checked
    against its choices as argparse does (the last of a repeated flag wins),
    and every required flag given. A value that starts with ``-`` is taken
    only where argparse takes it as a negative number. Anything else returns
    None, and the caller hands ``argv`` to argparse.
    """
    if len(argv) % 2 != 1:
        return None
    command = _option_tables().get(argv[0])
    if command is None:
        return None
    options, defaults, required = command
    values = dict(defaults)
    given = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None:
            return None
        if text[:1] == "-" and not _negative_number(text):
            return None
        dest, convert, choices = option
        try:
            value = convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(dest)
    if not required <= given:
        return None
    args = argparse.Namespace()
    args.__dict__.update(values)  # Namespace(**values) sets each attribute in a Python loop
    return args


def _reject_unused(args: argparse.Namespace, dests: tuple[str, ...], where: str) -> None:
    """A usage error naming the flag of the first of ``dests`` given: ``where`` would ignore it."""
    for dest in dests:
        if getattr(args, dest) is not None:
            # the inverse of ``_dest``: every flag is its dest, dashed
            raise _UsageError(f"--{dest.replace('_', '-')} does not apply to {where}")


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
    return render(_loss_row(breakdown), _LOSS_COLUMNS, args.format)


def _run_sweep_cmd(args: argparse.Namespace) -> Batch:
    custom_flags = (args.var, args.start, args.stop, args.steps)
    if args.preset is not None:
        if any(flag is not None for flag in custom_flags):
            raise _UsageError("--preset is exclusive of --var/--start/--stop/--steps")
        _reject_unused(args, ("d_km", "delta", "h_m", "h_f_m", "f_mhz"), "--preset")
        spec = preset(args.preset)
    else:
        if any(flag is None for flag in custom_flags):
            raise _UsageError("supply --preset, or all of --var/--start/--stop/--steps")
        variable = _SWEEP_VARS[args.var]
        where = f"a {args.var} sweep"
        if variable is SweepVariable.DELTA:
            _reject_unused(args, ("delta", "h_m", "h_f_m"), where)
            if args.d_km is None:
                raise _UsageError("--d-km is required for a delta sweep")
            base = LinkGeometry(d_km=args.d_km, delta=args.start)
        elif variable is SweepVariable.FOLIAGE_HEIGHT:
            _reject_unused(args, ("delta", "h_f_m"), where)
            if args.d_km is None or args.h_m is None:
                raise _UsageError("--d-km and --h-m are required for a foliage-height sweep")
            base = LinkGeometry(d_km=args.d_km, h_m=args.h_m, h_f_m=args.start)
        elif variable is SweepVariable.DISTANCE:
            _reject_unused(args, ("d_km",), where)
            base = LinkGeometry(d_km=args.start, delta=_delta_from_args(args))
        else:  # frequency sweep
            _reject_unused(args, ("f_mhz",), where)
            base = _geometry_from_args(args)
        f_mhz = args.start if variable is SweepVariable.FREQUENCY_MHZ else args.f_mhz
        if f_mhz is None:
            raise _UsageError("--f-mhz is required here")
        spec = SweepSpec(variable, args.stop, args.steps, base, f_mhz)
    return _sweep_batch(spec)


def _run_budget(args: argparse.Namespace) -> str:
    radio = RadioConfig(
        tx_power_dbm=args.tx_dbm,
        tx_gain_dbi=args.tx_gain,
        rx_gain_dbi=args.rx_gain,
        rx_sensitivity_dbm=args.sensitivity_dbm,
        required_margin_db=args.margin_db,
    )
    where = f"--solve {args.solve}"
    delta_cap = DEFAULT_DELTA_CAP if args.delta_cap is None else args.delta_cap
    if args.solve == "range":
        _reject_unused(args, ("d_km", "delta_cap"), where)
        result = max_range(radio, _delta_from_args(args), args.f_mhz)
    elif args.solve == "delta":
        _reject_unused(args, ("delta", "h_m", "h_f_m"), where)
        if args.d_km is None:
            raise _UsageError("--d-km is required for --solve delta")
        result = max_foliage_factor(radio, args.d_km, args.f_mhz, delta_cap)
    else:
        _reject_unused(args, ("delta", "h_f_m"), where)
        if args.d_km is None or args.h_m is None:
            raise _UsageError("--d-km and --h-m are required for --solve height")
        result = max_foliage_height(radio, args.d_km, args.h_m, args.f_mhz, delta_cap)
    return render((args.solve, *result), _SOLVE_COLUMNS, args.format)


def _run_scenario(args: argparse.Namespace) -> Batch:
    """The report's batch, once the whole document is checked.

    The file is read as bytes, up to one past the cap, and decoded whole: a
    text read decodes a pipe chunk by chunk, and names a bad byte's offset
    in its chunk. Line endings are then translated as a text read translates
    them, by the same decoder, which sets the line and column that a
    ``ParseError`` names.
    """
    with open(args.file, "rb") as file:
        data = file.read(_MAX_SCENARIO_BYTES + 1)
    if len(data) > _MAX_SCENARIO_BYTES:
        raise ScenarioError(f"{args.file}: over the {_MAX_SCENARIO_BYTES}-byte scenario file cap")
    try:  # the text takes the place of the bytes, which go before the document is built
        data = IncrementalNewlineDecoder(None, translate=True).decode(data.decode("utf-8"), True)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.file}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
    return _scenario_batch(_load(data))  # neither the text nor the document is kept


def _run_bounds(args: argparse.Namespace) -> str:
    bounds = delta_bounds(args.delta_min, args.delta_max, args.sigma)
    return render(bounds, bounds._fields, args.format)


#: each subcommand's runner: a one-record command's gives its text, a sweep's or a scenario's
#: its batch
_RUNS = {"loss": _run_loss, "sweep": _run_sweep_cmd, "budget": _run_budget,
         "scenario": _run_scenario, "bounds": _run_bounds}


def _write_out(pieces, path: str | None) -> None:
    """Write the text ``pieces`` in order, each whole, to stdout, or as UTF-8 to the file ``path``.

    ``path`` is opened, as one bare descriptor, only once the first piece is
    ready, so an error raised before it leaves an existing file as it was.
    """
    if path is None:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # here, not at exit, so that a reader gone away is a broken pipe
        return
    pieces = iter(pieces)
    first = next(pieces, "")
    # a bare descriptor: a file object costs more to set up than a small
    # output costs to write, and raises the same OSError
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for piece in chain((first,), pieces):
            data = memoryview(piece.encode("utf-8"))
            while data:  # a raw write may take fewer bytes than it is given
                data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute one subcommand, return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        try:
            args, extra = _parser().parse_known_args(argv)
            if extra:  # argparse's parse_args refuses them under the top-level usage line
                _subparser(args.command).error(f"unrecognized arguments: {' '.join(extra)}")
        except SystemExit as exc:  # argparse already printed usage/help
            return int(exc.code or 0)
    try:
        out = _RUNS[args.command](args)
        _write_out([out] if type(out) is str else render_blocks(out, args.format), args.out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        _subparser(args.command).print_usage(sys.stderr)
        return 2
    except BrokenPipeError:  # the reader went away, as ``head`` does: stop, and say nothing
        return 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE killed
    except (FoliageLinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.stdout.reconfigure(encoding="utf-8")  # as ``--out`` is written
    try:
        code = run()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    if code in (130, 141):
        # the output was cut short: what stdout still holds goes nowhere, so that the
        # interpreter's flush at exit cannot fail on a reader that went away
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
