"""One-dimensional parameter sweeps producing plot-ready loss tables.

A sweep varies exactly one of: cover factor, foliage height, distance or
frequency, holding everything else fixed, and evaluates the full loss
breakdown at uniformly spaced points (endpoints included). A sweep starts
at its base link's own value of the swept variable, checked where that
value lives, and runs to its ``stop``. Every point stops short of full
cover, where the free-space term is singular, and nothing else bounds a
sweep. Presets regenerate the bundled reference scenarios.

One loop per swept variable, in ``_block``, evaluates grid points straight
into one flat list of cells, with no per-point record. ``_sweep_batch``
returns a ``render.Batch`` of such blocks, ``render._BLOCK_ROWS`` points
each, after checking the one point that fails if any does. The CLI renders
and writes each block as it comes; ``run_sweep`` builds its ``SweepRow``s
from the same batch.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import chain, islice, repeat
from typing import NamedTuple

from . import render
from .errors import FoliageLinkError, InvalidSpec, UnknownPreset, _checked_as
from .propagation import (
    LinkGeometry,
    Regime,
    Validity,
    _as_record,
    _check_distance,
    _check_frequency,
    _check_partial_cover,
    _checked_make,
    _LossCore,
    _split,
    total_loss,  # noqa: F401  not called here; perfbench/spans.py wraps it by this name
)

#: the class, which reads a spec's ``base``: perfbench/spans.py rebinds ``LinkGeometry``
#: in this module to a counting function, which neither ``isinstance`` nor ``_make`` takes
_LinkGeometry = LinkGeometry


#: the most points one sweep evaluates: 100 times a 100k-point sweep. A sweep
#: streams in blocks, so a fresh process peaks at 20-25 MB resident for 1M or
#: 10M points, in CSV and JSON alike (Python 3.11.7); the cap bounds the time.
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
    ``steps`` is any integer but a bool (anything ``operator.index`` reads,
    kept as a Python int) in [2, ``MAX_STEPS``]. Every point stops short of
    full cover, where the free-space term is singular: a cover-factor sweep
    and the fixed cover factor of a distance or frequency sweep lie in
    [0, 1), and a foliage-height sweep stops below ``base.h_m``.
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
            base = _as_record(_LinkGeometry, base, InvalidSpec, "base")
        if isinstance(steps, bool) or not hasattr(type(steps), "__index__"):
            raise InvalidSpec(f"steps must be an integer, got {steps!r}")
        steps = operator.index(steps)
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


def _grid(start: float, stop: float, steps: int):
    """``steps`` evenly spaced values from ``start`` to ``stop``, as ``numpy.linspace``, each
    made as it is read.

    Each value is ``start + i * step`` and the last is ``stop``, which
    matches numpy bit for bit. Where the step underflows to 0 (a span of a
    few subnormals), numpy scales ``i / (steps - 1)`` by the span instead,
    and so does this.
    """
    div = steps - 1
    span = stop - start
    step = span / div
    if step == 0.0:
        offsets = map(operator.mul, map(operator.truediv, range(div), repeat(div)), repeat(span))
    else:
        offsets = map(operator.mul, range(div), repeat(step))
    return chain(map(operator.add, repeat(start), offsets), (stop,))


def _block(spec: SweepSpec, xs) -> list:
    """The cells of the sweep's points ``xs``, each ``SweepRow``'s fields, in one flat list: one
    ``_LossCore.at`` call per point.

    A cover-factor sweep's ``delta`` cell is its ``x``, and a column that a
    distance or frequency sweep does not change is one float object, so the
    writers format each once. An error is re-raised annotated with the
    offending x.
    """
    variable, _, _, base, f_mhz = spec
    cells: list = []
    append = cells.append
    try:
        if variable is SweepVariable.FREQUENCY_MHZ:
            d_km, delta = base.d_km, base.effective_delta
            d_f_m, d_fsp_m = _split(d_km, delta)  # as every point's ``at`` splits the path
            for x in xs:
                _, _, l_foliage, l_fsp, l_total, regime, validity = _LossCore(x).at(d_km, delta)
                cells += (x, delta, d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity)
        else:
            at = _LossCore(f_mhz).at
            if variable is SweepVariable.DELTA:
                d_km = base.d_km
                for x in xs:
                    append(x)
                    append(x)
                    cells += at(d_km, x)
            elif variable is SweepVariable.FOLIAGE_HEIGHT:
                d_km, h_m = base.d_km, base.h_m
                for x in xs:
                    delta = x / h_m  # as LinkGeometry.effective_delta derives it
                    append(x)
                    append(delta)
                    cells += at(d_km, delta)
            else:  # DISTANCE
                delta = base.effective_delta
                for x in xs:
                    append(x)
                    append(delta)
                    cells += at(x, delta)
    except FoliageLinkError as exc:
        raise type(exc)(f"{variable.value} sweep failed at x = {x}: {exc}") from exc
    return cells


def _sweep_batch(spec: SweepSpec) -> render.Batch:
    """The sweep's rows, ``SWEEP_COLUMNS``, one block of cells per ``render._BLOCK_ROWS``
    points (``_block``).

    A point fails only where its free-space segment rounds to 0, and the
    segment shrinks along a cover-factor or foliage-height grid, grows along
    a distance grid and is one length in a frequency sweep. So the point of
    the shortest is evaluated first, and only if it fails are the points run
    in order, to raise the first failure: the blocks raise nothing, and no
    model error can follow the first output byte.
    """
    variable, stop, steps, _, _ = spec
    size = render._BLOCK_ROWS
    grid = _grid(spec.start, stop, steps)
    blocks = (_block(spec, islice(grid, size)) for _ in range(0, steps, size))
    shrinks = variable in (SweepVariable.DELTA, SweepVariable.FOLIAGE_HEIGHT)
    try:
        _block(spec, (stop if shrinks else spec.start,))
    except FoliageLinkError:
        for _ in blocks:  # raises at the first point that fails
            pass
        raise
    return render.Batch(SWEEP_COLUMNS, len(SWEEP_COLUMNS), blocks)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep at ``steps`` uniformly spaced points, endpoints included.

    Rows come back sorted by the swept value. Any propagation error is
    re-raised annotated with the offending x. The rows are built from
    ``_sweep_batch``, which the CLI renders from.
    """
    return SweepTable(variable=spec.variable.value, rows=_sweep_batch(spec).records(SweepRow))


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
