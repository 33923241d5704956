"""Tests for the propagation core: splits, foliage loss, FSPL, totals, bounds.

Expected values were frozen from a 50-digit mpmath evaluation of the model
formulas, independent of the package code.
"""

import math
import random
from decimal import Decimal

import pytest

from foliage_link import (
    DeltaOutOfRange,
    FoliageLinkError,
    FullFoliageCover,
    HeightOutOfRange,
    InconsistentGeometry,
    InvalidBand,
    LinkGeometry,
    NegativeDistance,
    NonPositiveDistance,
    NonPositiveFrequency,
    NonPositiveHeight,
    RadioConfig,
    Regime,
    SweepSpec,
    SweepVariable,
    Validity,
    delta_bounds,
    delta_from_heights,
    foliage_split,
    free_space_loss,
    split_from_heights,
    total_loss,
    weissberger_delta_limit,
    weissberger_loss,
)

import loss_reference

# mpmath-frozen expectations (model formulas evaluated at 50 digits)
FOL_2400_1900 = 144.45705306488669
FOL_2400_1000 = 99.04478956614835
FOL_2400_10 = 5.7702217895882525
FSPL_2KM_2400 = 106.07482474751174
FSPL_100M_2400 = 80.05422483423212
FSPL_1KM_2400 = 100.05422483423212
TOTAL_D2_DELTA095 = 224.51127789911881
TOTAL_D2_DELTA05 = 199.09901440038047


def test_enum_text_is_its_value():
    assert str(Regime.LINEAR) == "linear"
    assert f"{Validity.EXTRAPOLATED}" == "extrapolated"
    assert "%s" % Regime.POWER == "power"
    assert repr(Regime.ZERO) == "<Regime.ZERO: 'zero'>"


class TestFoliageSplit:
    def test_heavy_cover(self):
        split = foliage_split(2, 0.95)
        assert split.d_f_m == pytest.approx(1900.0, abs=1e-9)
        assert split.d_fsp_m == pytest.approx(100.0, abs=1e-9)
        assert split.delta == 0.95

    def test_no_cover(self):
        split = foliage_split(2, 0)
        assert split.d_f_m == 0.0
        assert split.d_fsp_m == 2000.0

    def test_half_cover(self):
        split = foliage_split(2, 0.5)
        assert split.d_f_m == 1000.0
        assert split.d_fsp_m == 1000.0

    @pytest.mark.parametrize("d_km", [0.0, -1.0, float("nan"), float("inf"), 1e306])
    def test_bad_distance(self, d_km):
        with pytest.raises(NonPositiveDistance):
            foliage_split(d_km, 0.5)

    @pytest.mark.parametrize("delta", [-0.01, 1.01, float("nan")])
    def test_bad_delta(self, delta):
        with pytest.raises(DeltaOutOfRange):
            foliage_split(2, delta)

    def test_conservation_random(self):
        rng = random.Random(42)
        for _ in range(5000):
            d_km = rng.uniform(1e-3, 100.0)
            delta = rng.random()
            split = foliage_split(d_km, delta)
            total_m = d_km * 1000.0
            assert abs(split.d_f_m + split.d_fsp_m - total_m) <= 1e-9 * total_m


class TestHeights:
    def test_half_height(self):
        assert delta_from_heights(15, 30) == 0.5

    def test_zero_and_full(self):
        assert delta_from_heights(0, 30) == 0.0
        assert delta_from_heights(30, 30) == 1.0

    def test_bad_heights(self):
        with pytest.raises(HeightOutOfRange):
            delta_from_heights(-1, 30)
        with pytest.raises(HeightOutOfRange):
            delta_from_heights(31, 30)
        with pytest.raises(NonPositiveHeight):
            delta_from_heights(5, 0)
        with pytest.raises(NonPositiveHeight):
            delta_from_heights(5, -2)

    def test_split_from_heights(self):
        split = split_from_heights(2, 30, 15)
        assert split.d_f_m == 1000.0
        assert split.d_fsp_m == 1000.0
        assert split_from_heights(2, 30, 0).d_f_m == 0.0
        assert split_from_heights(2, 30, 30).d_fsp_m == 0.0

    def test_split_consistency_random(self):
        # same code path as foliage_split(d, h_f/h), so bitwise equality
        rng = random.Random(7)
        for _ in range(500):
            d_km = rng.uniform(0.1, 20.0)
            h_m = rng.uniform(1.0, 60.0)
            h_f_m = rng.uniform(0.0, h_m)
            via_heights = split_from_heights(d_km, h_m, h_f_m)
            via_delta = foliage_split(d_km, h_f_m / h_m)
            assert via_heights == via_delta


class TestWeissberger:
    def test_deep_cover(self):
        result = weissberger_loss(2400, 1900)
        assert result.loss_db == pytest.approx(144.4570531, abs=1e-2)
        assert result.loss_db == pytest.approx(FOL_2400_1900, rel=1e-12)
        assert result.regime is Regime.POWER
        assert result.validity is Validity.EXTRAPOLATED

    def test_kilometer_depth(self):
        result = weissberger_loss(2400, 1000)
        assert result.loss_db == pytest.approx(99.04479, abs=1e-2)
        assert result.loss_db == pytest.approx(FOL_2400_1000, rel=1e-12)
        assert result.regime is Regime.POWER

    def test_zero_depth(self):
        result = weissberger_loss(2400, 0)
        assert result.loss_db == 0.0
        assert result.regime is Regime.ZERO
        assert result.validity is Validity.IN_DOMAIN

    def test_linear_branch(self):
        result = weissberger_loss(2400, 10)
        assert result.loss_db == pytest.approx(FOL_2400_10, rel=1e-12)
        assert result.regime is Regime.LINEAR
        assert result.validity is Validity.IN_DOMAIN

    def test_branch_boundary(self):
        # 14 m itself belongs to the linear branch
        at_boundary = weissberger_loss(868, 14.0)
        assert at_boundary.regime is Regime.LINEAR
        just_above = weissberger_loss(868, math.nextafter(14.0, 15.0))
        assert just_above.regime is Regime.POWER

    def test_validity_boundary(self):
        assert weissberger_loss(868, 400.0).validity is Validity.IN_DOMAIN
        assert weissberger_loss(868, 400.0001).validity is Validity.EXTRAPOLATED

    @pytest.mark.parametrize("f_mhz", [433, 868, 2400, 5800])
    def test_boundary_jump_bounded(self, f_mhz):
        # the model steps DOWN at 14 m; the documented jump stays below 0.5%
        linear_side = weissberger_loss(f_mhz, 14.0).loss_db
        power_side = weissberger_loss(f_mhz, math.nextafter(14.0, 15.0)).loss_db
        jump = (linear_side - power_side) / linear_side
        assert 0.0 < jump < 0.005

    def test_monotone_in_depth(self):
        # strictly increasing per branch; cross-branch pairs must clear the
        # small discontinuity window just above 14 m (it dips until ~14.09 m)
        rng = random.Random(3)
        for _ in range(2000):
            bucket = rng.randrange(3)
            if bucket == 0:
                d1 = rng.uniform(1e-6, 14.0)
                d2 = rng.uniform(d1, 14.0)
            elif bucket == 1:
                d1 = rng.uniform(14.000001, 450.0)
                d2 = rng.uniform(d1, 450.0)
            else:
                d1 = rng.uniform(1e-6, 14.0)
                d2 = rng.uniform(14.1, 450.0)
            if d2 <= d1:
                continue
            f = rng.uniform(200.0, 6000.0)
            assert weissberger_loss(f, d1).loss_db < weissberger_loss(f, d2).loss_db

    def test_monotone_in_frequency(self):
        rng = random.Random(4)
        for _ in range(2000):
            f1 = rng.uniform(100.0, 6000.0)
            f2 = f1 * rng.uniform(1.000001, 3.0)
            d = rng.uniform(1e-3, 1000.0)
            assert weissberger_loss(f1, d).loss_db < weissberger_loss(f2, d).loss_db

    def test_bad_inputs(self):
        with pytest.raises(NonPositiveFrequency):
            weissberger_loss(0, 10)
        with pytest.raises(NonPositiveFrequency):
            weissberger_loss(-868, 10)
        with pytest.raises(NegativeDistance):
            weissberger_loss(868, -1)


class TestFreeSpaceLoss:
    def test_reference_values(self):
        assert free_space_loss(2, 2400) == pytest.approx(106.0748247, abs=1e-4)
        assert free_space_loss(2, 2400) == pytest.approx(FSPL_2KM_2400, rel=1e-12)
        assert free_space_loss(0.1, 2400) == pytest.approx(80.05422483, abs=1e-4)
        assert free_space_loss(0.1, 2400) == pytest.approx(FSPL_100M_2400, rel=1e-12)

    def test_constant_only(self):
        # both log terms vanish at 1 km / 1 MHz
        assert free_space_loss(1, 1) == 32.45

    def test_monotone_in_each_argument(self):
        rng = random.Random(5)
        for _ in range(1000):
            d = rng.uniform(1e-3, 100.0)
            f = rng.uniform(100.0, 6000.0)
            assert free_space_loss(d, f) < free_space_loss(d * 1.01, f)
            assert free_space_loss(d, f) < free_space_loss(d, f * 1.01)

    def test_bad_inputs(self):
        with pytest.raises(NonPositiveDistance):
            free_space_loss(0, 2400)
        with pytest.raises(NonPositiveFrequency):
            free_space_loss(2, 0)


class TestTotalLoss:
    def test_no_foliage_baseline(self):
        breakdown = total_loss(LinkGeometry(d_km=2, delta=0.0), 2400)
        assert breakdown.l_foliage_db == 0.0
        assert breakdown.l_total_db == pytest.approx(106.0748247, abs=1e-4)
        assert breakdown.foliage.regime is Regime.ZERO

    def test_heavy_foliage(self):
        breakdown = total_loss(LinkGeometry(d_km=2, delta=0.95), 2400)
        assert breakdown.l_fsp_db == pytest.approx(80.05422483, abs=1e-4)
        assert breakdown.l_foliage_db == pytest.approx(144.4570531, abs=1e-2)
        assert breakdown.l_total_db == pytest.approx(224.5112779, abs=1e-2)
        assert breakdown.l_total_db == pytest.approx(TOTAL_D2_DELTA095, rel=1e-12)

    def test_height_case(self):
        breakdown = total_loss(LinkGeometry(d_km=2, h_m=30, h_f_m=15), 2400)
        assert breakdown.split.delta == 0.5
        assert breakdown.l_total_db == pytest.approx(199.0990144, abs=1e-2)
        assert breakdown.l_total_db == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)

    def test_heights_equal_delta_path(self):
        via_heights = total_loss(LinkGeometry(d_km=2, h_m=30, h_f_m=15), 2400)
        via_delta = total_loss(LinkGeometry(d_km=2, delta=0.5), 2400)
        assert via_heights == via_delta

    def test_additivity_exact(self):
        rng = random.Random(6)
        for _ in range(500):
            geometry = LinkGeometry(d_km=rng.uniform(0.1, 20), delta=rng.uniform(0, 0.99))
            breakdown = total_loss(geometry, rng.uniform(200, 6000))
            assert breakdown.l_total_db == breakdown.l_foliage_db + breakdown.l_fsp_db

    def test_full_cover_is_singular(self):
        with pytest.raises(FullFoliageCover):
            total_loss(LinkGeometry(d_km=2, delta=1.0), 2400)
        with pytest.raises(FullFoliageCover):
            total_loss(LinkGeometry(d_km=2, h_m=30, h_f_m=30), 2400)

    def test_not_monotone_in_delta_but_ordered_at_reference_points(self):
        # the curve rises through the reference points, then turns down as
        # the free-space term diverges toward delta = 1
        at = lambda delta: total_loss(LinkGeometry(d_km=2, delta=delta), 2400).l_total_db
        assert at(0.0) < at(0.5) < at(0.95)
        assert at(0.99) < at(0.95)


class TestDecimalReference:
    def test_total_loss_within_1e_9_db(self):
        """Each loss of ``total_loss`` is within 1e-9 dB of a 50-digit ``decimal`` evaluation.

        The draws cover paths of 10 m to 1000 km, 234 MHz to 93 GHz, and no
        cover, uniform cover and cover within 1e-12 to 1e-1 of full.
        """
        rng = random.Random(20261020)
        bound = Decimal("1e-9")
        for i in range(3000):
            d_km = 10 ** rng.uniform(-2.0, 3.0)
            f_mhz = 10 ** rng.uniform(math.log10(234.0), math.log10(93_000.0))
            delta = (0.0, rng.random(), 1.0 - 10 ** rng.uniform(-12.0, -1.0))[i % 3]
            breakdown = total_loss(LinkGeometry(d_km, delta=delta), f_mhz)
            reference = loss_reference.losses(d_km, delta, f_mhz, breakdown.foliage.regime)
            computed = (breakdown.l_foliage_db, breakdown.l_fsp_db, breakdown.l_total_db)
            for name, value, exact in zip(("foliage", "free space", "total"), computed, reference):
                assert abs(Decimal(value) - exact) <= bound, (name, d_km, delta, f_mhz)


class TestLinkGeometry:
    def test_delta_source(self):
        assert LinkGeometry(d_km=2, delta=0.3).effective_delta == 0.3

    def test_height_source(self):
        assert LinkGeometry(d_km=2, h_m=30, h_f_m=15).effective_delta == 0.5

    def test_both_sources_consistent(self):
        geometry = LinkGeometry(d_km=2, h_m=30, h_f_m=15, delta=0.5)
        assert geometry.effective_delta == 0.5

    def test_both_sources_conflicting(self):
        with pytest.raises(InconsistentGeometry):
            LinkGeometry(d_km=2, h_m=30, h_f_m=15, delta=0.6)

    def test_both_sources_agree_to_1e_12(self):
        """The two sources may differ by rounding, not by more than 1e-12."""
        assert LinkGeometry(d_km=2, h_m=30, h_f_m=15, delta=0.5 + 5e-13).delta == 0.5 + 5e-13
        with pytest.raises(InconsistentGeometry):
            LinkGeometry(d_km=2, h_m=30, h_f_m=15, delta=0.5 + 2e-12)

    def test_partial_heights(self):
        with pytest.raises(InconsistentGeometry):
            LinkGeometry(d_km=2, h_m=30)
        with pytest.raises(InconsistentGeometry):
            LinkGeometry(d_km=2, h_f_m=15, delta=0.5)

    def test_no_source(self):
        with pytest.raises(InconsistentGeometry):
            LinkGeometry(d_km=2)

    def test_bad_values(self):
        with pytest.raises(NonPositiveDistance):
            LinkGeometry(d_km=0, delta=0.5)
        with pytest.raises(DeltaOutOfRange):
            LinkGeometry(d_km=2, delta=1.5)
        with pytest.raises(HeightOutOfRange):
            LinkGeometry(d_km=2, h_m=30, h_f_m=45)


#: a valid record of each type that checks its fields, and one out-of-domain value per case
_RECORD = {
    "geometry": LinkGeometry(d_km=2.0, h_m=30.0, h_f_m=15.0),
    # a transmit power near the float limit, so a second large term overflows the budget sum
    "radio": RadioConfig(1e308, 2.0, 3.0, -137.0, 10.0),
    "spec": SweepSpec(SweepVariable.DELTA, 0.5, 11, LinkGeometry(2.0, delta=0.0), 868.0),
}


class TestRecords:
    """Every record is a named tuple; those that check their fields check them
    on every construction path."""

    @pytest.mark.parametrize(
        "record, field, value",
        [
            ("geometry", "d_km", 0.0),
            ("geometry", "d_km", math.inf),
            ("geometry", "h_f_m", None),
            ("geometry", "h_f_m", 45.0),
            ("geometry", "delta", 0.25),
            ("radio", "tx_power_dbm", math.nan),
            ("radio", "rx_sensitivity_dbm", -math.inf),
            ("radio", "tx_gain_dbi", 1.7e308),
            ("radio", "required_margin_db", -1.0),
            ("spec", "steps", 1),
            ("spec", "steps", 2.5),
            ("spec", "stop", 1.0),
            ("spec", "f_mhz", 0.0),
            ("spec", "variable", SweepVariable.FOLIAGE_HEIGHT),
        ],
    )
    def test_replace_and_make_check_the_fields(self, record, field, value):
        valid = _RECORD[record]
        fields = {**valid._asdict(), field: value}
        with pytest.raises(FoliageLinkError) as by_constructor:
            type(valid)(**fields)
        with pytest.raises(FoliageLinkError) as by_replace:
            valid._replace(**{field: value})
        with pytest.raises(FoliageLinkError) as by_make:
            type(valid)._make(fields.values())
        for caught in (by_replace, by_make):
            assert type(caught.value) is type(by_constructor.value)
            assert str(caught.value) == str(by_constructor.value)

    @pytest.mark.parametrize("record", sorted(_RECORD))
    def test_replace_and_make_build_the_same_type(self, record):
        valid = _RECORD[record]
        assert type(valid._replace()) is type(valid) and valid._replace() == valid
        assert type(type(valid)._make(valid)) is type(valid)

    def test_records_are_plain_tuples_to_compare_and_iterate(self):
        breakdown = total_loss(LinkGeometry(d_km=2.0, delta=0.5), 2400.0)
        l_foliage, l_fsp, l_total, foliage, split = breakdown
        assert split == (1000.0, 1000.0, 0.5)
        assert foliage == (l_foliage, Regime.POWER, Validity.EXTRAPOLATED)
        assert breakdown._asdict()["l_total_db"] == l_total == l_foliage + l_fsp
        assert delta_bounds(0.1, 0.9, 0.0) == (0.1, 0.9, 0.0, 0.1, 0.9)


class TestDeltaBounds:
    def test_half_sigma_full_band(self):
        bounds = delta_bounds(0.01, 1, 0.5)
        assert bounds.alpha_low_min == 0.02
        assert bounds.alpha_high_max == pytest.approx(2 / 3, abs=1e-12)

    def test_zero_sigma(self):
        bounds = delta_bounds(0.01, 1, 0)
        assert bounds.alpha_low_min == 0.01
        assert bounds.alpha_high_max == 1.0

    def test_inner_band(self):
        bounds = delta_bounds(0.1, 0.9, 0.5)
        assert bounds.alpha_low_min == pytest.approx(0.2, rel=1e-12)
        assert bounds.alpha_high_max == pytest.approx(0.6, rel=1e-12)

    def test_admits(self):
        bounds = delta_bounds(0.01, 1, 0.5)
        assert bounds.admits(0.5)
        assert not bounds.admits(0.7)
        assert not bounds.admits(0.01)

    @pytest.mark.parametrize(
        "args",
        [
            (0.5, 0.4, 0.1),   # min >= max
            (-0.1, 0.5, 0.1),  # negative min
            (0.1, 1.1, 0.1),   # max above 1
            (0.1, 0.9, 1.0),   # sigma at 1
            (0.1, 0.9, -0.2),  # negative sigma
            (0.4, 0.5, 0.5),   # empty admissible band
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(InvalidBand):
            delta_bounds(*args)


class TestWeissbergerDeltaLimit:
    def test_values(self):
        assert weissberger_delta_limit(2) == pytest.approx(0.2, rel=1e-12)
        assert weissberger_delta_limit(0.2) == 1.0

    def test_bad_distance(self):
        with pytest.raises(NonPositiveDistance):
            weissberger_delta_limit(0)
