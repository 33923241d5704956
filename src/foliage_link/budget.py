"""Link-budget arithmetic and inverse solvers on top of the propagation model.

The forward model gives loss from geometry; the solvers here answer the
planning questions: how far can this radio reach at a given cover factor,
how much cover can it tolerate at a given distance, and how high may the
foliage grow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BracketExceeded, InvalidRadioConfig, NoSolution
from .propagation import (
    DEFAULT_DELTA_CAP,
    LINEAR_BRANCH_MAX_M,
    LinkGeometry,  # noqa: F401  not used here; perfbench/spans.py wraps it by this name
    _DB_PER_NEPER,
    _POWER,
    _POWER_EXPONENT,
    _check_distance,
    _check_height,
    _check_partial_cover,
    _checked_make,
    _LossCore,
    total_loss,  # noqa: F401  not called here; perfbench/spans.py wraps it by this name
)

#: Distance bracket (km) of a range solve: 10 cm to 1000 km.
_RANGE_BRACKET_KM = (1e-4, 1000.0)
#: A solve converges, and its iteration stops, within this many dB of the budget.
_LOSS_TOL_DB = 1e-6


class _RadioConfigFields(NamedTuple):
    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    rx_sensitivity_dbm: float
    required_margin_db: float = 0.0


class RadioConfig(_RadioConfigFields):
    """Radio parameters entering the budget arithmetic.

    ``rx_sensitivity_dbm`` is a negative number for real receivers.
    ``required_margin_db`` is the fade margin a link must keep on top of
    closing the budget. Every way of building one (the constructor,
    ``_make`` and ``_replace``) checks the fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        tx_power_dbm: float,
        tx_gain_dbi: float,
        rx_gain_dbi: float,
        rx_sensitivity_dbm: float,
        required_margin_db: float = 0.0,
    ) -> RadioConfig:
        self = tuple.__new__(
            cls, (tx_power_dbm, tx_gain_dbi, rx_gain_dbi, rx_sensitivity_dbm, required_margin_db)
        )
        for name, value in zip(cls._fields, self):
            if not math.isfinite(value):
                raise InvalidRadioConfig(f"{name} must be finite, got {value}")
        # every budget quantity is a signed sum of these terms and one loss
        if not math.isfinite(sum(map(abs, self))):
            raise InvalidRadioConfig(
                f"radio terms must sum to a finite budget, got {self._asdict()}"
            )
        if required_margin_db < 0:
            raise InvalidRadioConfig(f"required_margin_db must be >= 0, got {required_margin_db}")
        return self

    _make = classmethod(_checked_make)


class SolveResult(NamedTuple):
    """Outcome of an inverse solve.

    ``value`` is in the unit of the solved quantity (km for range,
    dimensionless for cover factor, meters for foliage height), and
    ``achieved_loss_db`` is the total loss there. ``iterations`` counts the
    steps of the solve's safeguarded Newton iteration, each one loss
    evaluation: a bisection that stands in for a step counts as one, and so
    does the first point of a range solve, which with no cover is the
    closed-form answer. It is at least 1 for an interior solve, and 0 when
    an end of the searched bracket already meets the budget or the cap is
    returned. ``converged`` is set only when the achieved loss matches the
    budget within ``_LOSS_TOL_DB`` (1e-6 dB). ``all_feasible`` marks a
    cover solve where no cover factor up to the cap exceeds the budget, so
    the cap itself was returned. Such a result has no crossing to converge
    to: the cap is exact, so ``converged`` is ``True`` even though the
    achieved loss may sit well below the budget.
    """

    value: float
    achieved_loss_db: float
    iterations: int
    converged: bool
    all_feasible: bool = False


def link_margin(radio: RadioConfig, loss_db: float) -> float:
    """Margin above sensitivity: EIRP plus receive gain minus loss and sensitivity."""
    return (
        radio.tx_power_dbm
        + radio.tx_gain_dbi
        + radio.rx_gain_dbi
        - loss_db
        - radio.rx_sensitivity_dbm
    )


def required_tx_power(radio: RadioConfig, loss_db: float) -> float:
    """Smallest transmit power (dBm) closing the budget with the required margin."""
    return (
        loss_db
        + radio.rx_sensitivity_dbm
        - radio.tx_gain_dbi
        - radio.rx_gain_dbi
        + radio.required_margin_db
    )


def max_loss_budget(radio: RadioConfig) -> float:
    """Largest tolerable path loss (dB) for this radio at its required margin."""
    return (
        radio.tx_power_dbm
        + radio.tx_gain_dbi
        + radio.rx_gain_dbi
        - radio.rx_sensitivity_dbm
        - radio.required_margin_db
    )


def max_range(radio: RadioConfig, delta: float, f_mhz: float) -> SolveResult:
    """Largest distance (km) before the link first fails, within ``_RANGE_BRACKET_KM``.

    Total loss is not monotone in distance. Both terms grow with d on each
    branch of the foliage model, but where the foliage grows 14 m deep the
    model steps from its linear to its power branch, and the loss steps down
    by about 0.36 % of the foliage term: at cover factor 0.5 and 2400 MHz it
    falls from 71.0551 to 71.0260 dB across d = 28 m. The solver answers
    with the *first* frontier, the largest distance before the loss first
    exceeds the budget: on the linear branch when the loss at the 14 m edge
    already exceeds it, else on the power branch. In ``u = ln d`` each
    branch, ``c e^(pu) + (20 / ln 10) u + const``, is convex and increasing,
    so a Newton step from any point lands at or past the crossing, and
    Newton's method falls monotonically onto it from there; a step that
    leaves the bracket bisects it instead. With no cover the branch is a
    line in ``u``, and the first step lands on the crossing.

    Raises:
        NoSolution: the budget is below the loss already at 10 cm.
        BracketExceeded: the budget is above the loss at 1000 km and at
            the 14 m edge, where that lies inside the bracket: the link
            holds over all of it.
    """
    _check_partial_cover(delta)
    budget = max_loss_budget(radio)
    lo, hi = _RANGE_BRACKET_KM
    core = _LossCore(f_mhz)
    at = core.at
    lo_row = at(lo, delta)
    row = at(hi, delta)
    loss_lo, loss_hi = lo_row[4], row[4]
    if budget < loss_lo - _LOSS_TOL_DB:
        raise NoSolution(f"budget {budget} dB is below the {loss_lo} dB loss at d = {lo} km")
    if budget <= loss_lo:
        return SolveResult(lo, loss_lo, 0, abs(loss_lo - budget) <= _LOSS_TOL_DB)

    upper, regime = hi, lo_row[5]
    edge = _linear_edge(hi, delta, 1000.0) if delta > 0.0 else hi
    if edge < hi:
        edge_row = at(edge, delta)
        if edge_row[4] > budget:
            upper, row = edge, edge_row
        else:
            lo, lo_row, regime = edge, edge_row, _POWER
    if upper == hi:  # the frontier, if any, is on the last branch in the bracket
        if budget > loss_hi + _LOSS_TOL_DB:
            raise BracketExceeded(
                f"budget {budget} dB exceeds the {loss_hi} dB loss at d = {hi} km"
            )
        if budget >= loss_hi:
            return SolveResult(hi, loss_hi, 0, abs(loss_hi - budget) <= _LOSS_TOL_DB)

    # The first point, in u = ln d: a Newton step from the lower end, and no
    # farther than the foliage term alone, growing as d^p, could go in the
    # budget the free-space term there leaves. Both bound the crossing from
    # above (on the power branch up to the 0.36 % step at the edge, which
    # at worst costs a step).
    loss_lo, l_foliage = lo_row[4], lo_row[2]
    step = (budget - loss_lo) / core.log_d_slope(l_foliage, regime)
    if l_foliage > 0.0:
        exponent = _POWER_EXPONENT if regime is _POWER else 1.0
        step = min(step, math.log((budget - lo_row[3]) / l_foliage) / exponent)
    d_km, iterations = lo * math.exp(step), 0
    if d_km < upper:
        iterations, row = 1, at(d_km, delta)
        if row[4] < budget:
            lo, loss_lo = d_km, row[4]
        else:
            upper = d_km
    else:
        d_km = upper
    while abs(row[4] - budget) > _LOSS_TOL_DB:
        d_km *= math.exp((budget - row[4]) / core.log_d_slope(row[2], row[5]))
        if not lo < d_km < upper:
            d_km = math.sqrt(lo * upper)
            if not lo < d_km < upper:
                return SolveResult(lo, loss_lo, iterations, False)
        iterations += 1
        row = at(d_km, delta)
        if row[4] < budget:
            lo, loss_lo = d_km, row[4]
        else:
            upper = d_km
    return SolveResult(d_km, row[4], iterations, True)


def max_foliage_factor(
    radio: RadioConfig,
    d_km: float,
    f_mhz: float,
    delta_cap: float = DEFAULT_DELTA_CAP,
) -> SolveResult:
    """Largest tolerable cover factor at a fixed distance, up to ``delta_cap``.

    Total loss is not monotone in the cover factor over (0, 1): the
    free-space term diverges to -inf as the factor approaches 1, so the
    curve eventually turns down. The solver answers with the *first*
    feasibility frontier going up from 0, the physically conservative
    answer. With distance and frequency fixed, the total is concave in the
    cover factor on each branch of the foliage model (linear up to 14 m of
    foliage, power law beyond), so each branch rises to one peak and falls
    after it. The first branch whose peak loss exceeds the budget holds the
    frontier. Newton's method steps up its rising side from the branch
    start, on the power branch in ``w = delta^0.588``, in which its foliage
    term is linear and the total still concave: each tangent lies above the
    concave curve, so each step stays within budget and rises monotonically
    onto the crossing; a step that leaves the bracket bisects it instead.
    When no branch peaks above the budget the cap itself is returned with
    ``all_feasible`` set.

    Raises:
        NoSolution: the budget is exceeded already at cover factor 0.
    """
    _check_partial_cover(delta_cap, "delta_cap")
    budget = max_loss_budget(radio)
    _check_distance(d_km)
    core = _LossCore(f_mhz)
    at = core.at
    row = at(d_km, 0.0)
    if row[4] > budget + _LOSS_TOL_DB:
        raise NoSolution(
            f"even delta = 0 loses {row[4]} dB against a budget of {budget} dB"
        )
    edge = _linear_edge(delta_cap, d_km * 1000.0)  # d_m as _split computes it
    # the linear branch's peak, where its slope falls through 0
    slope = core.delta_slope(d_km, 0.0, row[2], row[5])
    lo, hi = 0.0, min(slope / (slope + _DB_PER_NEPER), edge) if slope > 0.0 else 0.0
    if (at(d_km, hi) if hi > 0.0 else row)[4] <= budget:
        # the linear branch stays within budget, so the frontier, if any, is
        # on the power branch's rising side
        if edge < delta_cap:
            lo = math.nextafter(edge, 1.0)
            row = at(d_km, lo)
            hi = _power_peak(lo, row[2], delta_cap)
        if edge == delta_cap or at(d_km, hi)[4] <= budget:
            return SolveResult(delta_cap, at(d_km, delta_cap)[4], 0, True, True)

    delta, loss_lo, iterations = lo, row[4], 0
    while abs(row[4] - budget) > _LOSS_TOL_DB:
        excess = row[4] - budget
        slope = core.delta_slope(d_km, delta, row[2], row[5])
        if slope <= 0.0:
            delta = hi  # no Newton step: bisect
        elif row[5] is _POWER:
            # Newton in w = delta^p, in which the power-branch foliage term is linear
            scale = 1.0 - _POWER_EXPONENT * excess / (delta * slope)
            delta = delta * scale ** (1.0 / _POWER_EXPONENT) if scale > 0.0 else hi
        else:
            delta -= excess / slope
        if not lo < delta < hi:
            delta = 0.5 * (lo + hi)
            if not lo < delta < hi:
                return SolveResult(lo, loss_lo, iterations, False)
        iterations += 1
        row = at(d_km, delta)
        if row[4] < budget:
            lo, loss_lo = delta, row[4]
        else:
            hi = delta
    return SolveResult(delta, row[4], iterations, True)


def _linear_edge(limit: float, factor: float, scale: float = 1.0) -> float:
    """The last ``x`` up to ``limit`` at which the foliage is at most 14 m deep.

    The depth is ``x * scale * factor`` rounded as ``_split`` rounds it:
    ``x`` is the path length in km (``scale`` 1000, ``factor`` the cover
    factor) or the cover factor (``factor`` the path length in meters).
    Past it the foliage model is on its power branch. ``14 / scale /
    factor`` times the two can round to just above 14 m, which would put
    the split on the power branch, so the edge steps down until it does not.
    """
    edge = min(LINEAR_BRANCH_MAX_M / scale / factor, limit)
    while edge * scale * factor > LINEAR_BRANCH_MAX_M:
        edge = math.nextafter(edge, 0.0)
    return edge


def _power_peak(start: float, l_start: float, delta_cap: float) -> float:
    """The power branch's peak over ``[start, delta_cap]``, in cover factor.

    ``l_start`` is the foliage loss at ``start``, on the power branch,
    where the foliage term is ``c delta^0.588``. The peak is where the
    total's slope, ``0.588 c delta^-0.412 - 20 / ln 10 / (1 - delta)``,
    falls through 0, or an end of the range where it does not. The slope
    is positive where ``r = scale delta^-0.412 (1 - delta)`` exceeds 1,
    with ``scale = 0.588 c / (20 / ln 10)``. At its root ``1 - delta =
    delta^0.412 / scale``: one fixed-point step of that from a point left
    of the root lands right of it. In ``v = ln delta``, ``ln r`` is concave
    and decreasing, so Newton's method from there falls monotonically onto
    the root. It stops once a step moves ``v`` by less than 1e-7: the peak
    is then off by about 1e-11 relative or less, which moves the loss there
    by far less than 1e-12 dB.
    """
    exponent = _POWER_EXPONENT - 1.0
    scale = _POWER_EXPONENT * l_start / start**_POWER_EXPONENT / _DB_PER_NEPER
    if scale * delta_cap**exponent * (1.0 - delta_cap) >= 1.0:
        return delta_cap
    if scale * start**exponent * (1.0 - start) <= 1.0:
        return start
    # 1 - 1 / scale is left of the root, since delta^0.412 < 1
    delta = min(1.0 - max(start, 1.0 - 1.0 / scale) ** -exponent / scale, delta_cap)
    while True:
        # Newton in v: h = ln r, h' = exponent - delta / (1 - delta)
        ratio = scale * delta**exponent * (1.0 - delta)
        step = math.log(ratio) / (delta / (1.0 - delta) - exponent)
        delta *= math.exp(step)
        if step > -1e-7:
            return delta


def max_foliage_height(
    radio: RadioConfig,
    d_km: float,
    h_m: float,
    f_mhz: float,
    delta_cap: float = DEFAULT_DELTA_CAP,
) -> SolveResult:
    """Largest tolerable foliage height (m) under an antenna of height ``h_m``.

    Solves for the cover factor and scales it by the antenna height
    (``h_f = delta * h``). Inherits the cover-factor solver's contracts,
    including the ``delta_cap`` ceiling.
    """
    _check_height(h_m)
    result = max_foliage_factor(radio, d_km, f_mhz, delta_cap)
    return result._replace(value=result.value * h_m)
