"""Propagation-loss model for wireless links crossing foliage cover.

A sensor-to-gateway path of length ``d`` splits into a vegetation-covered
segment ``d_f`` and a free-space segment ``d_fsp``. The dimensionless
foliage cover factor ``delta = d_f / d`` describes the obstructed fraction;
it can equivalently be derived from heights as ``h_f / h`` (foliage height
above the sensor antenna over base-station antenna height above it, by
similar triangles).

Losses in dB:

* foliage segment -- Weissberger's modified exponential decay model, with a
  linear branch up to 14 m depth and a power branch above it (validated up
  to 400 m; deeper evaluations are flagged, not refused),
* free-space segment -- ``32.45 + 20 log10(d_km) + 20 log10(f_mhz)``,
* total -- the sum of the two.

All functions are pure and stateless; they are safe to call concurrently.
Public functions check their inputs once and return finite numbers. Each
input rule lives once, in a ``_check_*`` function that every entry taking
the input calls (``name`` is the field as that entry names it), and each
formula once, in the private ``_split``, ``_foliage`` and ``_free_space``,
which trust their callers. Each scalar entry computes only
the frequency terms it uses; sweeps, solvers and scenario batches build one
``_LossCore``, which hoists them all, and evaluate every point through its
``at``. The solvers take the model's closed-form slopes from the same core
(``log_d_slope``, ``delta_slope``).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    DeltaOutOfRange,
    FullFoliageCover,
    HeightOutOfRange,
    InconsistentGeometry,
    InvalidBand,
    NegativeDistance,
    NonPositiveDistance,
    NonPositiveFrequency,
    NonPositiveHeight,
)

#: Free-space path loss constant for d in km and f in MHz.
FSPL_CONSTANT_DB = 32.45

#: Foliage depth (m) where the decay model switches from its linear to its
#: power branch. The boundary itself belongs to the linear branch.
LINEAR_BRANCH_MAX_M = 14.0

#: Largest foliage depth (m) the decay model was validated for; deeper
#: results are extrapolations.
WEISSBERGER_MAX_DEPTH_M = 400.0

#: Default cover-factor ceiling of the cover solves, short of singular full cover.
DEFAULT_DELTA_CAP = 0.95

#: Exponent of the decay model's power branch in the foliage depth.
_POWER_EXPONENT = 0.588

#: Decibels per neper: the derivative of 20 log10(x) is this over x.
_DB_PER_NEPER = 20.0 / math.log(10.0)

_DELTA_SOURCE_TOL = 1e-12

_FULL_COVER = "delta = 1 leaves no free-space segment; the free-space loss term is undefined"


def _checked_make(cls, iterable):
    """``_make`` of a record that checks its fields: build it through ``__new__``.

    The generated ``_make`` builds the tuple directly, and ``_replace`` goes
    through ``_make``, so both would skip the checks.
    """
    return cls(*iterable)


class Regime(str, Enum):
    """Which branch of the foliage decay model produced a loss value."""

    ZERO = "zero"
    LINEAR = "linear"
    POWER = "power"

    # str() and format() give the value, as for enum.StrEnum (Python 3.11+)
    __str__ = str.__str__


class Validity(str, Enum):
    """Whether a foliage loss was computed inside the model's validated depth."""

    IN_DOMAIN = "in_domain"
    EXTRAPOLATED = "extrapolated"

    __str__ = str.__str__


class PathSplit(NamedTuple):
    """Decomposition of one path into foliage and free-space segments."""

    d_f_m: float
    d_fsp_m: float
    delta: float


class FoliageLossResult(NamedTuple):
    """Foliage loss in dB plus the branch and validity flags that produced it."""

    loss_db: float
    regime: Regime
    validity: Validity


class LossBreakdown(NamedTuple):
    """Foliage, free-space and total loss for one link, with its split."""

    l_foliage_db: float
    l_fsp_db: float
    l_total_db: float
    foliage: FoliageLossResult
    split: PathSplit


class DeltaBounds(NamedTuple):
    """Admissible band for a cover-factor pick under a fractional perturbation.

    A candidate value ``alpha`` is admissible when even after a relative
    perturbation of ``+/- sigma`` it stays inside ``[delta_min, delta_max]``:
    ``alpha_low_min <= alpha <= alpha_high_max``.
    """

    delta_min: float
    delta_max: float
    sigma: float
    alpha_low_min: float
    alpha_high_max: float

    def admits(self, alpha: float) -> bool:
        """True when ``alpha`` survives the perturbation inside the band."""
        return self.alpha_low_min <= alpha <= self.alpha_high_max


class _LinkGeometryFields(NamedTuple):
    d_km: float
    h_m: float | None = None
    h_f_m: float | None = None
    delta: float | None = None


class LinkGeometry(_LinkGeometryFields):
    """Geometry of one sensor-to-gateway link.

    The cover factor can be given directly (``delta``) or derived from
    heights (``h_f_m / h_m``). Exactly one source must be supplied; when
    both are present they must agree to within 1e-12. Every way of building
    one (the constructor, ``_make`` and ``_replace``) checks the fields.

    Args:
        d_km: total path length in kilometers (> 0, finite in meters).
        h_m: base-station antenna height above the sensor antenna, meters.
        h_f_m: foliage height above the sensor antenna, meters.
        delta: foliage cover factor in [0, 1].
    """

    __slots__ = ()

    def __new__(
        cls,
        d_km: float,
        h_m: float | None = None,
        h_f_m: float | None = None,
        delta: float | None = None,
    ) -> LinkGeometry:
        _check_distance(d_km)
        has_h = h_m is not None
        has_hf = h_f_m is not None
        if has_h != has_hf:
            raise InconsistentGeometry("h_m and h_f_m must be supplied together")
        if not has_h and delta is None:
            raise InconsistentGeometry(
                "supply a cover-factor source: delta, or the pair (h_m, h_f_m)"
            )
        if delta is not None:
            _check_delta(delta)
        if has_h:
            derived = delta_from_heights(h_f_m, h_m)
            if delta is not None and abs(delta - derived) > _DELTA_SOURCE_TOL:
                raise InconsistentGeometry(f"delta={delta} disagrees with h_f_m/h_m={derived}")
        return tuple.__new__(cls, (d_km, h_m, h_f_m, delta))

    _make = classmethod(_checked_make)

    @property
    def effective_delta(self) -> float:
        """The cover factor, taken from ``delta`` or derived from the heights."""
        if self.delta is not None:
            return self.delta
        return self.h_f_m / self.h_m  # __new__ checked both heights


def foliage_split(d_km: float, delta: float) -> PathSplit:
    """Split a path of ``d_km`` kilometers at cover factor ``delta``.

    Returns the foliage depth ``delta * d`` and free-space remainder
    ``(1 - delta) * d``, both in meters.
    """
    _check_distance(d_km)
    _check_delta(delta)
    d_f_m, d_fsp_m = _split(d_km, delta)
    return PathSplit(d_f_m, d_fsp_m, delta)


def _split(d_km: float, delta: float) -> tuple[float, float]:
    """Foliage depth and free-space remainder, in meters."""
    d_m = d_km * 1000.0
    return delta * d_m, (1.0 - delta) * d_m


def delta_from_heights(h_f_m: float, h_m: float) -> float:
    """Cover factor from foliage height over antenna height (similar triangles)."""
    _check_height(h_m)
    _check_foliage_height(h_f_m, h_m)
    return h_f_m / h_m


def split_from_heights(d_km: float, h_m: float, h_f_m: float) -> PathSplit:
    """Split a path using the height-derived cover factor ``h_f_m / h_m``."""
    return foliage_split(d_km, delta_from_heights(h_f_m, h_m))


def weissberger_loss(f_mhz: float, d_f_m: float) -> FoliageLossResult:
    """Foliage loss after Weissberger's modified exponential decay model.

    With ``f`` in GHz and the depth ``d_f`` in meters::

        0                            d_f = 0
        0.45 * f^0.284 * d_f         0 < d_f <= 14
        1.33 * f^0.284 * d_f^0.588   d_f > 14

    The frequency argument is taken in MHz and converted internally. The
    power branch is validated up to 400 m; deeper depths are still
    evaluated but flagged ``Validity.EXTRAPOLATED``, never clamped. Note
    the model is discontinuous at the 14 m branch boundary (a small
    downward step of about 0.36%).

    Args:
        f_mhz: carrier frequency in MHz (> 0, finite).
        d_f_m: foliage depth in meters (>= 0, finite).

    Returns:
        FoliageLossResult with the loss in dB, the branch used and the
        validity flag.
    """
    _check_frequency(f_mhz)
    if not 0.0 <= d_f_m < math.inf:
        raise NegativeDistance(f"d_f_m must be >= 0 and finite, got {d_f_m}")
    return FoliageLossResult(*_foliage(d_f_m, *_foliage_factors(f_mhz)))


def free_space_loss(d_km: float, f_mhz: float) -> float:
    """Free-space path loss ``32.45 + 20 log10(d_km) + 20 log10(f_mhz)`` in dB."""
    _check_distance(d_km)
    _check_frequency(f_mhz)
    return _free_space(d_km, 20.0 * math.log10(f_mhz))


def total_loss(geometry: LinkGeometry, f_mhz: float) -> LossBreakdown:
    """Total path loss of a link: foliage term plus free-space term.

    The free-space term is evaluated over the unobstructed remainder
    ``d * (1 - delta)``, so the cover factor must be strictly below 1.
    ``geometry`` checked its own fields when it was built, and the loss core
    checks the rest: the frequency first, then the free-space segment.

    Raises:
        NonPositiveFrequency: ``f_mhz`` is not positive and finite.
        FullFoliageCover: at ``delta = 1`` the free-space segment vanishes
            and its loss term is singular.
        NonPositiveDistance: the free-space segment rounds to 0 km.
    """
    delta = geometry.effective_delta
    d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity = _LossCore(f_mhz).at(
        geometry.d_km, delta
    )
    return LossBreakdown(
        l_foliage,
        l_fsp,
        l_total,
        FoliageLossResult(l_foliage, regime, validity),
        PathSplit(d_f_m, d_fsp_m, delta),
    )


# bound once: looking up an Enum member costs more than the arithmetic whose
# branch it labels
_ZERO, _LINEAR, _POWER = Regime.ZERO, Regime.LINEAR, Regime.POWER
_IN_DOMAIN, _EXTRAPOLATED = Validity.IN_DOMAIN, Validity.EXTRAPOLATED


def _check_distance(d_km: float, name: str = "d_km") -> None:
    if not 0.0 < d_km * 1000.0 < math.inf:
        raise NonPositiveDistance(f"{name} must be > 0 and finite in meters, got {d_km}")


def _check_frequency(f_mhz: float, name: str = "f_mhz") -> None:
    if not 0.0 < f_mhz < math.inf:
        raise NonPositiveFrequency(f"{name} must be > 0 and finite, got {f_mhz}")


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise DeltaOutOfRange(f"delta must lie in [0, 1], got {delta}")


def _check_partial_cover(delta: float, name: str = "delta") -> None:
    if not 0.0 <= delta < 1.0:
        raise DeltaOutOfRange(f"{name} must lie in [0, 1), short of full cover, got {delta}")


def _check_height(h_m: float, name: str = "h_m") -> None:
    if not 0.0 < h_m < math.inf:
        raise NonPositiveHeight(f"{name} must lie in (0, inf), got {h_m}")


def _check_foliage_height(h_f_m: float, h_m: float) -> None:
    if not 0.0 <= h_f_m <= h_m:
        raise HeightOutOfRange(f"h_f_m must lie in [0, h_m={h_m}], got {h_f_m}")


def _foliage_factors(f_mhz: float) -> tuple[float, float]:
    """The linear and power branch factors ``0.45 f^0.284`` and ``1.33 f^0.284``."""
    f_factor = (f_mhz / 1000.0) ** 0.284  # the decay model takes GHz
    return 0.45 * f_factor, 1.33 * f_factor


def _foliage(d_f_m: float, linear: float, power: float) -> tuple[float, Regime, Validity]:
    """Weissberger loss (dB), branch and validity at foliage depth ``d_f_m``."""
    if d_f_m == 0:
        return 0.0, _ZERO, _IN_DOMAIN
    if d_f_m <= LINEAR_BRANCH_MAX_M:
        return linear * d_f_m, _LINEAR, _IN_DOMAIN
    validity = _EXTRAPOLATED if d_f_m > WEISSBERGER_MAX_DEPTH_M else _IN_DOMAIN
    return power * d_f_m**_POWER_EXPONENT, _POWER, validity


def _free_space(d_km: float, log_f: float) -> float:
    """Free-space loss (dB) over ``d_km`` kilometers, given ``20 log10(f_mhz)``."""
    return FSPL_CONSTANT_DB + 20.0 * math.log10(d_km) + log_f


class _LossCore:
    """The loss model at one frequency, for inner loops.

    Construction checks ``f_mhz`` and hoists the terms that depend on it
    alone. ``at`` checks nothing else: callers pass a path length that is
    positive and finite in meters and a cover factor in [0, 1]. Results are
    bit-identical to evaluating each formula in full.
    """

    __slots__ = ("_linear", "_power", "_log_f")

    def __init__(self, f_mhz: float) -> None:
        _check_frequency(f_mhz)
        self._linear, self._power = _foliage_factors(f_mhz)
        self._log_f = 20.0 * math.log10(f_mhz)

    def at(self, d_km: float, delta: float) -> tuple:
        """``(d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity)`` of one path.

        Raises:
            FullFoliageCover: ``delta`` is 1.
            NonPositiveDistance: the free-space segment rounds to 0 km.
        """
        d_f_m, d_fsp_m = _split(d_km, delta)
        d_fsp_km = d_fsp_m / 1000.0
        if d_fsp_km == 0.0:
            if delta >= 1.0:
                raise FullFoliageCover(_FULL_COVER)
            # a path within a few multiples of the smallest float
            raise NonPositiveDistance(
                f"d_km={d_km} at delta={delta} leaves a free-space segment of 0 km"
            )
        l_foliage, regime, validity = _foliage(d_f_m, self._linear, self._power)
        l_fsp = _free_space(d_fsp_km, self._log_f)
        return d_f_m, d_fsp_m, l_foliage, l_fsp, l_foliage + l_fsp, regime, validity

    def log_d_slope(self, l_foliage: float, regime: Regime) -> float:
        """Slope of the total loss in ``ln d`` at a fixed cover factor, in dB.

        Takes the foliage loss and regime that ``at`` returned for the path.
        On each branch the total is ``c d^p + 20 log10(d) + const``, whose
        slope in ``ln d`` is ``p c d^p + 20 / ln 10``: ``p`` times the
        foliage loss, plus the free-space term's constant slope.
        """
        return _DB_PER_NEPER + (_POWER_EXPONENT * l_foliage if regime is _POWER else l_foliage)

    def delta_slope(self, d_km: float, delta: float, l_foliage: float, regime: Regime) -> float:
        """Slope of the total loss in the cover factor at a fixed path length, dB per unit.

        Takes the foliage loss and regime that ``at`` returned for the path.
        The free-space term ``20 log10(1 - delta)`` falls by
        ``20 / ln 10 / (1 - delta)``; the foliage term rises by its depth
        slope times the path length, ``p`` times its loss over ``delta`` on
        the power branch.
        """
        fsp = _DB_PER_NEPER / (1.0 - delta)
        if regime is _POWER:
            return _POWER_EXPONENT * l_foliage / delta - fsp
        return self._linear * (d_km * 1000.0) - fsp


def delta_bounds(delta_min: float, delta_max: float, sigma: float) -> DeltaBounds:
    """Admissible cover-factor band under a ``+/- sigma`` relative perturbation.

    A pick ``alpha`` perturbed upward must stay at or below ``delta_max``
    (``alpha <= delta_max / (1 + sigma)``) and perturbed downward at or
    above ``delta_min`` (``alpha >= delta_min / (1 - sigma)``).

    Raises:
        InvalidBand: on inputs outside ``0 <= delta_min < delta_max <= 1``
            and ``0 <= sigma < 1``, or when the admissible band is empty.
    """
    if not 0.0 <= delta_min < delta_max <= 1.0:
        raise InvalidBand(
            f"need 0 <= delta_min < delta_max <= 1, got [{delta_min}, {delta_max}]"
        )
    if not 0.0 <= sigma < 1.0:
        raise InvalidBand(f"sigma must lie in [0, 1), got {sigma}")
    alpha_low_min = delta_min / (1.0 - sigma)
    alpha_high_max = delta_max / (1.0 + sigma)
    if alpha_low_min > alpha_high_max:
        raise InvalidBand(
            f"empty admissible band: alpha_low_min={alpha_low_min} exceeds "
            f"alpha_high_max={alpha_high_max}"
        )
    return DeltaBounds(delta_min, delta_max, sigma, alpha_low_min, alpha_high_max)


def weissberger_delta_limit(d_km: float) -> float:
    """Largest cover factor keeping the foliage depth inside the validated 400 m.

    Purely informational: deeper evaluations are allowed and flagged. The
    geometric maximum is always 1; callers pick which limit to apply.
    """
    _check_distance(d_km)
    return min(1.0, WEISSBERGER_MAX_DEPTH_M / (d_km * 1000.0))
