"""Tests for sweep specs, presets and table generation."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foliage_link import (
    DeltaOutOfRange,
    HeightOutOfRange,
    InvalidSpec,
    LinkGeometry,
    NonPositiveDistance,
    Regime,
    SweepSpec,
    SweepVariable,
    UnknownPreset,
    preset,
    run_sweep,
    total_loss,
)
from foliage_link.sweep import MAX_STEPS, _grid

TOTAL_D2_DELTA0 = 106.07482474751174
TOTAL_D2_DELTA095 = 224.51127789911881
TOTAL_D2_DELTA05 = 199.09901440038047
#: the largest distance in km that is finite in meters
LARGEST_STOP_KM = 1.7976931348623156e305


def delta_spec(start=0.0, stop=0.95, steps=96, d_km=2.0, f_mhz=2400.0, **kwargs):
    return SweepSpec(
        variable=SweepVariable.DELTA,
        stop=stop,
        steps=steps,
        base=LinkGeometry(d_km=d_km, delta=start),
        f_mhz=f_mhz,
        **kwargs,
    )


class TestPresets:
    def test_figure2_and_figure3_share_the_delta_sweep(self):
        assert preset("figure2") == preset("figure3")
        spec = preset("figure3")
        assert spec.variable is SweepVariable.DELTA
        assert (spec.start, spec.stop, spec.steps) == (0.0, 0.95, 96)
        assert spec.base.d_km == 2.0
        assert spec.f_mhz == 2400.0

    def test_figure4(self):
        spec = preset("figure4")
        assert spec.variable is SweepVariable.FOLIAGE_HEIGHT
        assert (spec.start, spec.stop, spec.steps) == (0.0, 15.0, 16)
        assert spec.base.h_m == 30.0
        assert spec.base.d_km == 2.0

    def test_case_insensitive(self):
        assert preset("Figure4") == preset("figure4")

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            preset("figure9")


class TestRunSweep:
    def test_delta_sweep_endpoints(self):
        table = run_sweep(delta_spec(steps=20))
        assert len(table.rows) == 20
        first, last = table.rows[0], table.rows[-1]
        assert first.x == 0.0
        assert first.l_total_db == pytest.approx(TOTAL_D2_DELTA0, rel=1e-12)
        assert first.regime is Regime.ZERO
        assert last.x == 0.95
        assert last.l_total_db == pytest.approx(TOTAL_D2_DELTA095, rel=1e-12)

    def test_two_steps_only_endpoints(self):
        table = run_sweep(delta_spec(steps=2))
        assert [row.x for row in table.rows] == [0.0, 0.95]

    def test_rows_conserve_the_split(self):
        for row in run_sweep(delta_spec(steps=96)).rows:
            assert row.d_f_m + row.d_fsp_m == pytest.approx(2000.0, rel=1e-9)
            assert row.l_total_db == row.l_foliage_db + row.l_fsp_db

    def test_distance_columns_are_monotone(self):
        rows = run_sweep(delta_spec(steps=96)).rows
        d_f = [row.d_f_m for row in rows]
        d_fsp = [row.d_fsp_m for row in rows]
        assert all(a < b for a, b in zip(d_f, d_f[1:]))
        assert all(a > b for a, b in zip(d_fsp, d_fsp[1:]))

    def test_loss_column_shapes(self):
        # foliage loss rises and free-space loss falls across the whole
        # sweep; their sum rises only until the curve's peak (x = 0.90 on
        # this grid) and then falls toward the cap
        rows = run_sweep(delta_spec(steps=96)).rows
        foliage = [row.l_foliage_db for row in rows]
        fsp = [row.l_fsp_db for row in rows]
        total = [row.l_total_db for row in rows]
        assert all(a < b for a, b in zip(foliage, foliage[1:]))
        assert all(a > b for a, b in zip(fsp, fsp[1:]))
        peak = max(range(len(total)), key=total.__getitem__)
        assert rows[peak].x == pytest.approx(0.90, abs=1e-12)
        assert all(a < b for a, b in zip(total[:peak], total[1 : peak + 1]))
        assert all(a > b for a, b in zip(total[peak:], total[peak + 1 :]))

    def test_figure4_endpoint(self):
        table = run_sweep(preset("figure4"))
        assert len(table.rows) == 16
        last = table.rows[-1]
        assert last.x == 15.0
        assert last.delta == 0.5
        assert last.l_total_db == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)

    def test_distance_sweep(self):
        spec = SweepSpec(
            variable=SweepVariable.DISTANCE,
            stop=2.0,
            steps=4,
            base=LinkGeometry(d_km=0.5, delta=0.3),
            f_mhz=868.0,
        )
        rows = run_sweep(spec).rows
        assert [row.x for row in rows] == [0.5, 1.0, 1.5, 2.0]
        assert all(row.delta == 0.3 for row in rows)
        total = [row.l_total_db for row in rows]
        assert all(a < b for a, b in zip(total, total[1:]))

    def test_frequency_sweep(self):
        spec = SweepSpec(
            variable=SweepVariable.FREQUENCY_MHZ,
            stop=5800.0,
            steps=5,
            base=LinkGeometry(d_km=2.0, delta=0.4),
            f_mhz=433.0,
        )
        rows = run_sweep(spec).rows
        total = [row.l_total_db for row in rows]
        assert all(a < b for a, b in zip(total, total[1:]))
        assert all(row.d_f_m == rows[0].d_f_m for row in rows)

    def test_table_carries_variable_name(self):
        assert run_sweep(delta_spec(steps=2)).variable == "delta"


class TestSpecValidation:
    def test_steps_too_small(self):
        with pytest.raises(InvalidSpec):
            delta_spec(steps=1)

    def test_steps_at_the_cap(self):
        assert delta_spec(steps=MAX_STEPS).steps == 10**7  # built, never run

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**12])
    def test_steps_above_the_cap(self, steps):
        with pytest.raises(InvalidSpec, match=rf"\[2, 10000000\], got {steps}$"):
            delta_spec(steps=steps)

    def test_steps_not_integer(self):
        with pytest.raises(InvalidSpec):
            delta_spec(steps=2.5)

    def test_reversed_range(self):
        with pytest.raises(InvalidSpec):
            delta_spec(start=0.5, stop=0.2)

    def test_delta_at_full_cover(self):
        message = r"^stop must lie in \[0, 1\), short of full cover, got 1.0$"
        with pytest.raises(InvalidSpec, match=message):
            delta_spec(stop=1.0)

    @pytest.mark.parametrize("stop", [0.96, 0.9966666666666666, math.nextafter(1.0, 0.0)])
    def test_delta_sweep_stops_anywhere_below_full_cover(self, stop):
        rows = run_sweep(delta_spec(stop=stop, steps=3)).rows
        assert rows[-1].x == rows[-1].delta == stop
        assert all(math.isfinite(row.l_total_db) for row in rows)

    def test_sweep_has_no_delta_cap(self):
        assert "delta_cap" not in SweepSpec._fields
        with pytest.raises(TypeError):
            delta_spec(delta_cap=0.97)

    @pytest.mark.parametrize("variable, base, error, message", [
        ("delta", (2.0, None, None, 0.0), None, None),
        (SweepVariable.DELTA, [2.0, None, None, 0.0], None, None),
        ("delta", LinkGeometry(2.0, delta=0.0), None, None),
        ("speed", LinkGeometry(2.0, delta=0.0), InvalidSpec,
         "^unknown sweep variable 'speed'; expected delta, foliage_height, distance or "
         "frequency_mhz$"),
        (None, LinkGeometry(2.0, delta=0.0), InvalidSpec, "^unknown sweep variable None;"),
        ("delta", None, InvalidSpec, "^base must be a LinkGeometry, .* got NoneType None$"),
        ("delta", {"d_km": 2.0, "delta": 0.0}, InvalidSpec, "got dict "),
        ("delta", (), InvalidSpec, r"got tuple \(\)$"),
        ("delta", (2.0, None, None, 0.0, 1.0), InvalidSpec,
         r"got tuple \(2.0, None, None, 0.0, 1.0\)$"),
        # a tuple base meets LinkGeometry's own rules
        ("delta", (2.0, None, None, -0.1), DeltaOutOfRange,
         r"^delta must lie in \[0, 1\], got -0.1$"),
    ])
    def test_variable_by_value_and_base_as_a_tuple(self, variable, base, error, message):
        """A spec reads what it can and refuses the rest with a named error."""
        if error is not None:
            with pytest.raises(error, match=message):
                SweepSpec(variable, 0.5, 3, base, 868.0)
            return
        spec = SweepSpec(variable, 0.5, 3, base, 868.0)
        assert spec == delta_spec(stop=0.5, steps=3, f_mhz=868.0)
        assert spec.variable is SweepVariable.DELTA and type(spec.base) is LinkGeometry

    def test_negative_delta(self):
        with pytest.raises(DeltaOutOfRange, match=r"^delta must lie in \[0, 1\], got -0.1$"):
            delta_spec(start=-0.1)

    def test_height_sweep_needs_h(self):
        with pytest.raises(InvalidSpec):
            SweepSpec(
                variable=SweepVariable.FOLIAGE_HEIGHT,
                stop=10.0,
                steps=4,
                base=LinkGeometry(d_km=2.0, delta=0.0),
                f_mhz=2400.0,
            )

    def test_height_sweep_needs_non_negative_start(self):
        message = r"^h_f_m must lie in \[0, h_m=30.0\], got -1.0$"
        with pytest.raises(HeightOutOfRange, match=message):
            SweepSpec(
                variable=SweepVariable.FOLIAGE_HEIGHT,
                stop=10.0,
                steps=4,
                base=LinkGeometry(d_km=2.0, h_m=30.0, h_f_m=-1.0),
                f_mhz=2400.0,
            )

    def test_height_sweep_excludes_full_cover(self):
        with pytest.raises(InvalidSpec):
            SweepSpec(
                variable=SweepVariable.FOLIAGE_HEIGHT,
                stop=30.0,
                steps=4,
                base=LinkGeometry(d_km=2.0, h_m=30.0, h_f_m=0.0),
                f_mhz=2400.0,
            )

    def test_distance_sweep_needs_positive_start(self):
        message = "^d_km must be > 0 and finite in meters, got 0.0$"
        with pytest.raises(NonPositiveDistance, match=message):
            SweepSpec(
                variable=SweepVariable.DISTANCE,
                stop=2.0,
                steps=4,
                base=LinkGeometry(d_km=0.0, delta=0.3),
                f_mhz=868.0,
            )

    def test_distance_sweep_excludes_full_cover_base(self):
        with pytest.raises(InvalidSpec, match=r"^base delta must lie in \[0, 1\)"):
            SweepSpec(
                variable=SweepVariable.DISTANCE,
                stop=2.0,
                steps=4,
                base=LinkGeometry(d_km=0.5, delta=1.0),
                f_mhz=868.0,
            )

    def test_distance_sweep_stops_within_meters(self):
        spec = SweepSpec(SweepVariable.DISTANCE, LARGEST_STOP_KM, 3,
                         LinkGeometry(1.0, delta=0.3), 868.0)
        assert all(math.isfinite(row.l_total_db) for row in run_sweep(spec).rows)
        with pytest.raises(InvalidSpec, match="^stop must be > 0 and finite in meters"):
            spec._replace(stop=math.nextafter(LARGEST_STOP_KM, math.inf))

    def test_frequency_sweep_needs_positive_start(self):
        with pytest.raises(InvalidSpec, match="^f_mhz must be > 0 and finite, got 0.0$"):
            SweepSpec(
                variable=SweepVariable.FREQUENCY_MHZ,
                stop=2400.0,
                steps=4,
                base=LinkGeometry(d_km=2.0, delta=0.4),
                f_mhz=0.0,
            )

    def test_bad_fixed_frequency(self):
        with pytest.raises(InvalidSpec):
            delta_spec(f_mhz=0.0)


class TestStart:
    """A sweep starts at its base link's own value of the swept variable."""

    def test_no_field_holds_the_start(self):
        assert SweepSpec._fields == ("variable", "stop", "steps", "base", "f_mhz")
        assert "ignored" not in SweepSpec.__doc__

    @pytest.mark.parametrize(
        "name, start",
        [("delta", 0.0), ("foliage_height", 0.5), ("distance", 0.001), ("frequency_mhz", 100.0)],
    )
    def test_start_is_the_base_value(self, name, start):
        spec = SPECS[name]
        assert spec.start == start
        assert run_sweep(spec).rows[0].x == start
        with pytest.raises(AttributeError):
            spec.start = 1.0

    def test_start_of_a_height_derived_cover_factor(self):
        spec = SweepSpec(SweepVariable.DELTA, 0.9, 3, LinkGeometry(2.0, h_m=30.0, h_f_m=3.0), 868.0)
        assert spec.start == 0.1

    def test_base_at_full_cover_leaves_no_span(self):
        message = r"^need finite start < stop, got \[1.0, 0.5\]$"
        with pytest.raises(InvalidSpec, match=message):
            SweepSpec(SweepVariable.DELTA, 0.5, 3, LinkGeometry(2.0, delta=1.0), 868.0)
        message = r"^need finite start < stop, got \[30.0, 29.0\]$"
        with pytest.raises(InvalidSpec, match=message):
            SweepSpec(SweepVariable.FOLIAGE_HEIGHT, 29.0, 3,
                      LinkGeometry(2.0, h_m=30.0, h_f_m=30.0), 868.0)


def scalar_row(spec, x):
    """The row at ``x`` on the checked path: a ``LinkGeometry`` and ``total_loss``."""
    base, f_mhz = spec.base, spec.f_mhz
    if spec.variable is SweepVariable.DELTA:
        geometry = LinkGeometry(d_km=base.d_km, delta=x)
    elif spec.variable is SweepVariable.FOLIAGE_HEIGHT:
        geometry = LinkGeometry(d_km=base.d_km, h_m=base.h_m, h_f_m=x)
    elif spec.variable is SweepVariable.DISTANCE:
        geometry = LinkGeometry(d_km=x, delta=base.effective_delta)
    else:
        geometry, f_mhz = base, x
    b = total_loss(geometry, f_mhz)
    return (
        x, b.split.delta, b.split.d_f_m, b.split.d_fsp_m, b.l_foliage_db, b.l_fsp_db,
        b.l_total_db, b.foliage.regime, b.foliage.validity,
    )


def assert_matches_scalar_path(spec):
    """Every row equals the checked path at its x, and the x column equals
    ``np.linspace``, both bit for bit (0 ulp)."""
    import numpy as np
    rows = run_sweep(spec).rows
    expected_x = np.linspace(spec.start, spec.stop, spec.steps).tolist()
    assert [row.x.hex() for row in rows] == [x.hex() for x in expected_x]
    for row in rows:
        assert tuple(row) == scalar_row(spec, row.x)


SPECS = {
    "delta": SweepSpec(SweepVariable.DELTA, 0.9, 37, LinkGeometry(3.0, delta=0.0), 868.0),
    "foliage_height": SweepSpec(
        SweepVariable.FOLIAGE_HEIGHT, 29.0, 23, LinkGeometry(1.3, h_m=30.0, h_f_m=0.5), 915.0
    ),
    "distance": SweepSpec(SweepVariable.DISTANCE, 50.0, 41, LinkGeometry(0.001, delta=0.3), 433.0),
    "frequency_mhz": SweepSpec(
        SweepVariable.FREQUENCY_MHZ, 6000.0, 33, LinkGeometry(2.0, delta=0.4), 100.0
    ),
    "figure3": preset("figure3"),
    "figure4": preset("figure4"),
}


class TestFastPathMatchesScalarPath:
    """``run_sweep`` evaluates its points through the hoisted loss core and
    builds its own grid; both must agree with the scalar path exactly."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_rows_equal_total_loss(self, name):
        assert_matches_scalar_path(SPECS[name])

    @pytest.mark.parametrize(
        "stop, steps",
        [(5e-324, 4), (1e-322, 50), (1e-320, 5000), (2.5e-308, 1000)],
    )
    def test_grid_over_a_subnormal_span(self, stop, steps):
        # in the first three the step underflows to 0, and numpy scales
        # i / (steps - 1) by the span instead; the last has a subnormal step
        spec = SweepSpec(SweepVariable.DELTA, stop, steps, LinkGeometry(3.0, delta=0.0), 868.0)
        assert_matches_scalar_path(spec)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        bounds=st.tuples(st.floats(5e-324, LARGEST_STOP_KM), st.floats(5e-324, LARGEST_STOP_KM)),
        steps=st.integers(2, 3000),
    )
    @example(bounds=(5e-324, LARGEST_STOP_KM), steps=3)
    @example(bounds=(1e305, LARGEST_STOP_KM), steps=MAX_STEPS // 1000)
    def test_grid_peaks_at_stop(self, bounds, steps):
        """No grid value passes ``stop``, so ``SweepSpec``'s rule that a distance
        sweep's ``stop`` is finite in meters holds for every point."""
        start, stop = sorted(bounds)
        assume(start < stop)
        assert max(_grid(start, stop, steps)) == stop

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        variable=st.sampled_from(SweepVariable),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        steps=st.integers(2, 60),
        d_km=st.floats(1e-3, 300.0),
        f_mhz=st.floats(10.0, 1e5),
        cover=st.floats(0.0, 0.999),
        scale=st.floats(1e-300, 1e4),
    )
    def test_random_specs(self, variable, bounds, steps, d_km, f_mhz, cover, scale):
        lo, hi = sorted(bounds)
        h_m = 30.0
        base = {"d_km": d_km, "h_m": h_m, "h_f_m": cover * h_m}
        if variable is SweepVariable.DELTA:
            start, stop = lo * 0.95, hi * 0.95
            base = {"d_km": d_km, "delta": start}
        elif variable is SweepVariable.FOLIAGE_HEIGHT:
            start, stop = lo * h_m * 0.999, hi * h_m * 0.999
            base["h_f_m"] = start
        else:  # distance or frequency: positive, over many magnitudes
            start, stop = (lo + 1e-3) * scale, (hi + 1e-3) * scale
            if variable is SweepVariable.DISTANCE:
                base["d_km"] = start
            else:
                f_mhz = start
        try:
            spec = SweepSpec(variable, stop, steps, LinkGeometry(**base), f_mhz)
        except InvalidSpec:
            return  # start == stop
        assert_matches_scalar_path(spec)
