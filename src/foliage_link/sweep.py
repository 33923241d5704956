"""One-dimensional parameter sweeps producing plot-ready loss tables.

A sweep varies exactly one of: cover factor, foliage height, distance or
frequency, holding everything else fixed, and evaluates the full loss
breakdown at uniformly spaced points (endpoints included). A sweep starts
at its base link's own value of the swept variable, checked where that
value lives, and runs to its ``stop``. Every point stops short of full
cover, where the free-space term is singular, and nothing else bounds a
sweep. Presets regenerate the bundled reference scenarios.

One loop per swept variable, in ``_sweep_cells``, evaluates the grid
straight into one flat list of cells, with no per-point record. It leaves
out the columns the swept variable cannot change and returns them once:
a frequency sweep's cover factor, segment lengths, regime and validity,
and a distance sweep's cover factor. The CLI renders those cells, each
fixed column formatted once; ``run_sweep`` builds its ``SweepRow``s from
them.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from itertools import repeat
from typing import NamedTuple

from .errors import FoliageLinkError, InvalidSpec, UnknownPreset, _checked_as
from .propagation import (
    LinkGeometry,
    Regime,
    Validity,
    _check_distance,
    _check_frequency,
    _check_partial_cover,
    _checked_make,
    _LossCore,
    total_loss,  # noqa: F401  not called here; perfbench/spans.py wraps it by this name
)

#: the class, which reads a spec's ``base``: perfbench/spans.py rebinds ``LinkGeometry``
#: in this module to a counting function, which neither ``isinstance`` nor ``_make`` takes
_LinkGeometry = LinkGeometry


#: the most points one sweep evaluates: 100 times a 100k-point sweep. Its output
#: is built in memory, linear in the points: a fresh process running a 1M-point
#: cover-factor sweep peaks at 578 MB resident for CSV and 875 MB for JSON
#: (Python 3.11.7), so the cap admits several GB.
MAX_STEPS = 10_000_000


class SweepVariable(str, Enum):
    DELTA = "delta"
    FOLIAGE_HEIGHT = "foliage_height"
    DISTANCE = "distance"
    FREQUENCY_MHZ = "frequency_mhz"


class _SweepSpecFields(NamedTuple):
    variable: SweepVariable
    stop: float
    steps: int
    base: LinkGeometry
    f_mhz: float


class SweepSpec(_SweepSpecFields):
    """One-variable sweep definition.

    The sweep runs from the link ``base`` at ``f_mhz`` to ``stop``: its
    ``start`` is the swept variable's value there, checked by
    ``LinkGeometry`` or the frequency rule, and ``base`` fixes every other
    parameter. ``variable`` may be given by its value (``"delta"``), and
    ``base`` as a tuple or list of ``LinkGeometry``'s fields, which is read
    through ``LinkGeometry._make``; any other value raises ``InvalidSpec``.
    ``steps`` lies in [2, ``MAX_STEPS``]. Every point stops short of full
    cover, where the free-space term is singular: a cover-factor sweep and
    the fixed cover factor of a distance or frequency sweep lie in [0, 1),
    and a foliage-height sweep stops below ``base.h_m``.
    A distance sweep's ``stop`` must be finite in meters, as ``LinkGeometry``
    requires of ``d_km``; every point of the grid then is too.
    Every way of building one (the constructor, ``_make`` and ``_replace``)
    checks the fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        variable: SweepVariable,
        stop: float,
        steps: int,
        base: LinkGeometry,
        f_mhz: float,
    ) -> SweepSpec:
        try:
            variable = SweepVariable(variable)
        except ValueError:
            raise InvalidSpec(
                f"unknown sweep variable {variable!r}; "
                "expected delta, foliage_height, distance or frequency_mhz"
            ) from None
        if not isinstance(base, _LinkGeometry):
            if not isinstance(base, (tuple, list)) or not 1 <= len(base) <= 4:
                raise InvalidSpec(
                    "base must be a LinkGeometry, or a tuple or list of its 1 to 4 fields, "
                    f"got {type(base).__name__} {base!r}"
                )
            base = _LinkGeometry._make(base)
        if not isinstance(steps, int) or isinstance(steps, bool):
            raise InvalidSpec(f"steps must be an integer, got {steps!r}")
        if not 2 <= steps <= MAX_STEPS:
            raise InvalidSpec(f"steps must lie in [2, {MAX_STEPS}], got {steps}")
        _checked_as(InvalidSpec, "", _check_frequency, f_mhz)
        if variable is SweepVariable.FOLIAGE_HEIGHT and base.h_m is None:
            raise InvalidSpec("foliage-height sweep needs base geometry with h_m")
        spec = tuple.__new__(cls, (variable, stop, steps, base, f_mhz))
        if not -math.inf < spec.start < stop < math.inf:
            raise InvalidSpec(f"need finite start < stop, got [{spec.start}, {stop}]")
        if variable is SweepVariable.DELTA:
            _checked_as(InvalidSpec, "", _check_partial_cover, stop, "stop")
        elif variable is SweepVariable.FOLIAGE_HEIGHT:
            if stop >= base.h_m:
                raise InvalidSpec(
                    f"foliage-height sweep must stop below h_m = {base.h_m} "
                    "(full cover is singular)"
                )
        else:  # a distance or frequency sweep
            _checked_as(InvalidSpec, "", _check_partial_cover, base.effective_delta, "base delta")
            if variable is SweepVariable.DISTANCE:
                _checked_as(InvalidSpec, "", _check_distance, stop, "stop")
        return spec

    _make = classmethod(_checked_make)

    @property
    def start(self) -> float:
        """The first swept value: the base link's own, or ``f_mhz`` in a frequency sweep."""
        variable, _, _, base, f_mhz = self
        if variable is SweepVariable.FREQUENCY_MHZ:
            return f_mhz
        if variable is SweepVariable.DISTANCE:
            return base.d_km
        return base.effective_delta if variable is SweepVariable.DELTA else base.h_f_m


class SweepRow(NamedTuple):
    """One evaluated point: the swept value plus the full loss breakdown."""

    x: float
    delta: float
    d_f_m: float
    d_fsp_m: float
    l_foliage_db: float
    l_fsp_db: float
    l_total_db: float
    regime: Regime
    validity: Validity


#: a sweep's output columns, ``SweepRow``'s fields in order
SWEEP_COLUMNS = SweepRow._fields


class SweepTable(NamedTuple):
    variable: str
    rows: list[SweepRow]


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """``steps`` evenly spaced values from ``start`` to ``stop``, as ``numpy.linspace``.

    Each value is ``start + i * step`` and the last is ``stop``, which
    matches numpy bit for bit. Where the step underflows to 0 (a span of a
    few subnormals), numpy scales ``i / (steps - 1)`` by the span instead,
    and so does this.
    """
    div = steps - 1
    span = stop - start
    step = span / div
    if step == 0.0:
        grid = [start + (i / div) * span for i in range(div)]
    else:
        grid = [start + i * step for i in range(div)]
    grid.append(stop)
    return grid


def _sweep_cells(spec: SweepSpec) -> tuple[list, dict, dict]:
    """The sweep's rows as one flat list of cells, the columns it holds fixed, and the repeats.

    A row holds ``SweepRow``'s fields in order, less those the spec holds
    fixed, which come back once as a field name -> value map: in a
    frequency sweep the cover factor, both segment lengths, the regime and
    the validity; in a distance sweep the cover factor. The last map names
    a field whose cells repeat an earlier one's: a cover-factor sweep's
    ``delta`` is its ``x``. Every point is one ``_LossCore.at`` call. An
    error is re-raised annotated with the offending x. ``spec`` checked
    every swept value.
    """
    grid = _grid(spec.start, spec.stop, spec.steps)
    variable, base = spec.variable, spec.base
    cells: list = []
    fixed: dict = {}
    same: dict = {}
    append = cells.append
    x = grid[0]  # the point an error from building the core is reported at
    try:
        if variable is SweepVariable.FREQUENCY_MHZ:
            d_km, delta = base.d_km, base.effective_delta
            for x in grid:
                d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity = _LossCore(x).at(
                    d_km, delta
                )
                cells += (x, l_foliage, l_fsp, l_total)
            # the split, and so the foliage branch, does not depend on the frequency
            fixed = {"delta": delta, "d_f_m": d_f_m, "d_fsp_m": d_fsp_m,
                     "regime": regime, "validity": validity}
        else:
            at = _LossCore(spec.f_mhz).at
            if variable is SweepVariable.DELTA:
                d_km = base.d_km
                same = {"delta": "x"}
                for x in grid:
                    append(x)
                    append(x)
                    cells += at(d_km, x)
            elif variable is SweepVariable.FOLIAGE_HEIGHT:
                d_km, h_m = base.d_km, base.h_m
                for x in grid:
                    delta = x / h_m  # as LinkGeometry.effective_delta derives it
                    append(x)
                    append(delta)
                    cells += at(d_km, delta)
            else:  # DISTANCE
                delta = base.effective_delta
                fixed = {"delta": delta}
                for x in grid:
                    append(x)
                    cells += at(x, delta)
    except FoliageLinkError as exc:
        raise type(exc)(f"{variable.value} sweep failed at x = {x}: {exc}") from exc
    return cells, fixed, same


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep at ``steps`` uniformly spaced points, endpoints included.

    Rows come back sorted by the swept value. Any propagation error is
    re-raised annotated with the offending x. The rows are built from
    ``_sweep_cells``, the loop the CLI renders from.
    """
    cells, fixed, _ = _sweep_cells(spec)
    # zip takes a row's fields in order, so each varying one is the next cell
    cell = iter(cells)
    columns = [repeat(fixed[name]) if name in fixed else cell for name in SweepRow._fields]
    # tuple.__new__ is SweepRow's own constructor, less a Python call frame per row
    rows = list(map(partial(tuple.__new__, SweepRow), zip(*columns)))
    return SweepTable(variable=spec.variable.value, rows=rows)


def preset(name: str) -> SweepSpec:
    """A bundled sweep specification by name (figure2, figure3 or figure4).

    figure2 and figure3 share one cover-factor sweep (0 to 0.95, 96 points,
    2 km path at 2400 MHz); figure2 reads the distance columns, figure3 the
    loss columns. figure4 sweeps foliage height 0 to 15 m under a 30 m
    antenna over the same path.
    """
    key = str(name).lower()
    if key in ("figure2", "figure3"):
        return SweepSpec(
            variable=SweepVariable.DELTA,
            stop=0.95,
            steps=96,
            base=LinkGeometry(d_km=2.0, delta=0.0),
            f_mhz=2400.0,
        )
    if key == "figure4":
        return SweepSpec(
            variable=SweepVariable.FOLIAGE_HEIGHT,
            stop=15.0,
            steps=16,
            base=LinkGeometry(d_km=2.0, h_m=30.0, h_f_m=0.0),
            f_mhz=2400.0,
        )
    raise UnknownPreset(f"unknown preset {name!r}; expected figure2, figure3 or figure4")
