"""Link-budget arithmetic and inverse solvers on top of the propagation model.

The forward model gives loss from geometry; the solvers here answer the
planning questions: how far can this radio reach at a given cover factor,
how much cover can it tolerate at a given distance, and how high may the
foliage grow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    BracketExceeded,
    DeltaOutOfRange,
    InvalidRadioConfig,
    NonPositiveHeight,
    NoSolution,
)
from .propagation import (
    DEFAULT_DELTA_CAP,
    LINEAR_BRANCH_MAX_M,
    LinkGeometry,  # noqa: F401  not used here; perfbench/spans.py wraps it by this name
    _check_distance,
    _checked_make,
    _LossCore,
    total_loss,  # noqa: F401  not called here; perfbench/spans.py wraps it by this name
)

#: Decibels per neper: the derivative of 20 log10(x) is this over x.
_DB_PER_NEPER = 20.0 / math.log(10.0)

#: Distance bracket (km) of a range solve: 10 cm to 1000 km.
_RANGE_BRACKET_KM = (1e-4, 1000.0)
#: A solve converges, and its bisection stops, within this many dB of the budget.
_LOSS_TOL_DB = 1e-6
#: A bisection also stops once its bracket is this narrow: km in a range solve,
#: cover factor in a cover solve.
_RANGE_TOL_KM = 1e-7
_DELTA_TOL = 1e-9


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
    dimensionless for cover factor, meters for foliage height).
    ``converged`` is set only when the achieved loss matches the budget
    within ``_LOSS_TOL_DB`` (1e-6 dB). ``all_feasible`` marks a cover
    solve where no cover factor up to the cap exceeds the budget, so the
    cap itself was returned. Such a result has no crossing to converge to:
    the cap is exact, so ``converged`` is ``True`` even though the achieved
    loss may sit well below the budget.
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
    """Largest distance (km) whose total loss fits the radio's budget.

    Total loss is strictly increasing in distance at a fixed cover factor
    (both terms grow with d), so plain bisection on ``_RANGE_BRACKET_KM``
    (10 cm to 1000 km) applies.

    Raises:
        NoSolution: the budget is below the loss already at 10 cm.
        BracketExceeded: the budget is above the loss at 1000 km.
    """
    if not 0.0 <= delta < 1.0:
        raise DeltaOutOfRange(f"delta must lie in [0, 1) for a range solve, got {delta}")
    budget = max_loss_budget(radio)
    lo, hi = _RANGE_BRACKET_KM
    at = _LossCore(f_mhz).at
    loss_lo = at(lo, delta)[4]
    loss_hi = at(hi, delta)[4]
    if budget < loss_lo - _LOSS_TOL_DB:
        raise NoSolution(f"budget {budget} dB is below the {loss_lo} dB loss at d = {lo} km")
    if budget > loss_hi + _LOSS_TOL_DB:
        raise BracketExceeded(f"budget {budget} dB exceeds the {loss_hi} dB loss at d = {hi} km")
    if budget <= loss_lo:
        return SolveResult(lo, loss_lo, 0, abs(loss_lo - budget) <= _LOSS_TOL_DB)
    if budget >= loss_hi:
        return SolveResult(hi, loss_hi, 0, abs(loss_hi - budget) <= _LOSS_TOL_DB)

    def loss_at(d_km: float) -> float:
        return at(d_km, delta)[4]

    return _bisect(loss_at, lo, loss_lo, hi, budget, _RANGE_TOL_KM)


def _bisect(loss_at, lo, lo_loss, hi, budget, x_tol) -> SolveResult:
    """Last point of ``[lo, hi]`` within budget, where the loss rises through it."""
    iterations = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        iterations += 1
        loss_mid = loss_at(mid)
        if abs(loss_mid - budget) <= _LOSS_TOL_DB:
            return SolveResult(mid, loss_mid, iterations, True)
        if loss_mid < budget:
            lo, lo_loss = mid, loss_mid
        else:
            hi = mid
        if hi - lo <= x_tol:
            break
    return SolveResult(lo, lo_loss, iterations, abs(lo_loss - budget) <= _LOSS_TOL_DB)


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
    foliage, power law beyond), so each branch rises to one peak, found from
    the analytic derivative, and falls after it. The first branch whose peak
    loss exceeds the budget holds the frontier, which is refined by bisection
    on that branch's rising side. When no branch peaks above the budget the
    cap itself is returned with ``all_feasible`` set.

    Raises:
        NoSolution: the budget is exceeded already at cover factor 0.
    """
    if not 0.0 < delta_cap < 1.0:
        raise DeltaOutOfRange(f"delta_cap must lie in (0, 1), got {delta_cap}")
    budget = max_loss_budget(radio)
    _check_distance(d_km)
    at = _LossCore(f_mhz).at
    lo_loss = at(d_km, 0.0)[4]

    def loss_at(delta: float) -> float:
        return at(d_km, delta)[4]

    if lo_loss > budget + _LOSS_TOL_DB:
        raise NoSolution(
            f"even delta = 0 loses {lo_loss} dB against a budget of {budget} dB"
        )
    for lo, hi in _rising_sides(d_km, f_mhz, delta_cap):
        if loss_at(hi) > budget:
            if lo > 0.0:
                lo_loss = loss_at(lo)
            break
    else:
        return SolveResult(delta_cap, loss_at(delta_cap), 0, True, True)
    return _bisect(loss_at, lo, lo_loss, hi, budget, _DELTA_TOL)


def _rising_sides(
    d_km: float, f_mhz: float, delta_cap: float
) -> list[tuple[float, float]]:
    """``(start, peak)`` of each foliage-model branch over ``[0, delta_cap]``.

    On a branch the total loss is concave in the cover factor, so it rises
    from the branch start to the peak and falls after it. The slope of the
    free-space term ``20 log10(1 - delta)`` is ``-_DB_PER_NEPER / (1 - delta)``.
    Computes no loss; the caller has checked the distance and the frequency.
    """
    d_m = d_km * 1000.0  # as foliage_split computes it
    f_factor = (f_mhz / 1000.0) ** 0.284
    # the end of the linear branch; 14 / d_m times d_m can round to just
    # above 14 m, which would put the split on the power branch
    edge = min(LINEAR_BRANCH_MAX_M / d_m, delta_cap)
    while edge * d_m > LINEAR_BRANCH_MAX_M:
        edge = math.nextafter(edge, 0.0)

    slope = 0.45 * f_factor * d_m  # linear foliage term, dB per unit cover factor
    peak = 1.0 - _DB_PER_NEPER / slope if slope > _DB_PER_NEPER else 0.0
    sides = [(0.0, min(peak, edge))]
    if edge < delta_cap:
        start = math.nextafter(edge, 1.0)
        scale = 0.588 * 1.33 * f_factor * d_m**0.588
        # the derivative of the total, scale * delta**-0.412 - _DB_PER_NEPER / (1 - delta),
        # falls strictly, so bisect on its sign
        lo, hi = start, delta_cap
        if scale * hi**-0.412 > _DB_PER_NEPER / (1.0 - hi):
            lo = hi
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if scale * mid**-0.412 > _DB_PER_NEPER / (1.0 - mid):
                lo = mid
            else:
                hi = mid
        sides.append((start, lo))
    return sides


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
    if not 0.0 < h_m < math.inf:
        raise NonPositiveHeight(f"h_m must be > 0 and finite, got {h_m}")
    result = max_foliage_factor(radio, d_km, f_mhz, delta_cap)
    return result._replace(value=result.value * h_m)
