"""One-dimensional parameter sweeps producing plot-ready loss tables.

A sweep varies exactly one of: cover factor, foliage height, distance or
frequency, holding everything else fixed, and evaluates the full loss
breakdown at uniformly spaced points (endpoints included). Presets
regenerate the bundled reference scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import FoliageLinkError, InvalidSpec, UnknownPreset
from .propagation import (
    DEFAULT_DELTA_CAP,
    LinkGeometry,
    Regime,
    Validity,
    _LossCore,
    total_loss,  # noqa: F401  not called here; perfbench/spans.py wraps it by this name
)


class SweepVariable(str, Enum):
    DELTA = "delta"
    FOLIAGE_HEIGHT = "foliage_height"
    DISTANCE = "distance"
    FREQUENCY_MHZ = "frequency_mhz"


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep definition.

    ``base`` fixes every parameter that is not swept; the field of ``base``
    corresponding to ``variable`` is ignored. Cover-factor sweeps are
    capped at ``delta_cap`` (``DEFAULT_DELTA_CAP`` by default) and full
    cover (delta = 1) is rejected outright for every variable, since the
    free-space term is singular there.
    """

    variable: SweepVariable
    start: float
    stop: float
    steps: int
    base: LinkGeometry
    f_mhz: float
    delta_cap: float = DEFAULT_DELTA_CAP

    def __post_init__(self) -> None:
        if not isinstance(self.steps, int) or isinstance(self.steps, bool):
            raise InvalidSpec(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise InvalidSpec(f"steps must be >= 2, got {self.steps}")
        if not -math.inf < self.start < self.stop < math.inf:
            raise InvalidSpec(f"need finite start < stop, got [{self.start}, {self.stop}]")
        if not 0.0 < self.f_mhz < math.inf:
            raise InvalidSpec(f"f_mhz must be > 0 and finite, got {self.f_mhz}")
        if self.variable is SweepVariable.DELTA:
            if not 0.0 < self.delta_cap < 1.0:
                raise InvalidSpec(f"delta_cap must lie in (0, 1), got {self.delta_cap}")
            if self.start < 0.0 or self.stop > self.delta_cap:
                raise InvalidSpec(
                    f"cover-factor sweep must stay in [0, {self.delta_cap}], "
                    f"got [{self.start}, {self.stop}]"
                )
        elif self.variable is SweepVariable.FOLIAGE_HEIGHT:
            if self.base.h_m is None:
                raise InvalidSpec("foliage-height sweep needs base geometry with h_m")
            if self.start < 0.0:
                raise InvalidSpec(f"foliage height must be >= 0, got {self.start}")
            if self.stop >= self.base.h_m:
                raise InvalidSpec(
                    f"foliage-height sweep must stop below h_m = {self.base.h_m} "
                    "(full cover is singular)"
                )
        elif self.start <= 0.0:  # a distance or frequency sweep from here on
            raise InvalidSpec(f"{self.variable.value} sweep needs start > 0, got {self.start}")
        elif self.base.effective_delta >= 1.0:
            raise InvalidSpec("base cover factor must be below 1 (full cover)")


class SweepRow(NamedTuple):
    """One evaluated point: the swept value plus the full loss breakdown.

    A named tuple, because a sweep builds one per point; it costs a third of
    a frozen dataclass.
    """

    x: float
    delta: float
    d_f_m: float
    d_fsp_m: float
    l_foliage_db: float
    l_fsp_db: float
    l_total_db: float
    regime: Regime
    validity: Validity


@dataclass(frozen=True)
class SweepTable:
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


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep at ``steps`` uniformly spaced points, endpoints included.

    Rows come back sorted by the swept value. Any propagation error is
    re-raised annotated with the offending x. ``spec`` checked every swept
    value except a distance in meters, which is checked per point.
    """
    grid = _grid(spec.start, spec.stop, spec.steps)
    variable, base = spec.variable, spec.base
    rows: list[SweepRow] = []
    x = grid[0]  # the point an error from building the core is reported at
    try:
        if variable is SweepVariable.FREQUENCY_MHZ:
            d_km, delta = base.d_km, base.effective_delta
            for x in grid:
                rows.append(SweepRow(x, delta, *_LossCore(x).at(d_km, delta)))
        else:
            at = _LossCore(spec.f_mhz).at
            if variable is SweepVariable.DELTA:
                d_km = base.d_km
                for x in grid:
                    rows.append(SweepRow(x, x, *at(d_km, x)))
            elif variable is SweepVariable.FOLIAGE_HEIGHT:
                d_km, h_m = base.d_km, base.h_m
                for x in grid:
                    delta = x / h_m  # as LinkGeometry.effective_delta derives it
                    rows.append(SweepRow(x, delta, *at(d_km, delta)))
            else:  # DISTANCE
                delta = base.effective_delta
                for x in grid:
                    if not x * 1000.0 < math.inf:
                        break  # refused below, by the geometry check, without annotation
                    rows.append(SweepRow(x, delta, *at(x, delta)))
    except FoliageLinkError as exc:
        raise type(exc)(f"{variable.value} sweep failed at x = {x}: {exc}") from exc
    if len(rows) < len(grid):
        LinkGeometry(d_km=x, delta=base.effective_delta)  # raises NonPositiveDistance
    return SweepTable(variable=variable.value, rows=rows)


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
            start=0.0,
            stop=0.95,
            steps=96,
            base=LinkGeometry(d_km=2.0, delta=0.0),
            f_mhz=2400.0,
        )
    if key == "figure4":
        return SweepSpec(
            variable=SweepVariable.FOLIAGE_HEIGHT,
            start=0.0,
            stop=15.0,
            steps=16,
            base=LinkGeometry(d_km=2.0, h_m=30.0, h_f_m=0.0),
            f_mhz=2400.0,
        )
    raise UnknownPreset(f"unknown preset {name!r}; expected figure2, figure3 or figure4")
