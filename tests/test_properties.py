"""Property tests: every public entry returns finite numbers or raises a FoliageLinkError.

Inputs come from the whole float range, ``inf`` and ``nan`` included, and from
values such as 1e306 km, which overflow once taken to meters. A raised error
may mention ``nan`` only when a ``nan`` was given, and JSON output must
re-parse with the non-finite literals rejected. The runs are derandomized, so
every run draws the same examples.
"""

import contextlib
import dataclasses
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliage_link import (
    DomainError,
    FoliageLinkError,
    InvalidSpec,
    LinkGeometry,
    NodeReport,
    NonPositiveDistance,
    NonPositiveFrequency,
    NonPositiveHeight,
    RadioConfig,
    SweepSpec,
    SweepVariable,
    delta_bounds,
    delta_from_heights,
    emit_json,
    emit_scenario,
    evaluate_scenario,
    foliage_split,
    free_space_loss,
    max_foliage_factor,
    max_foliage_height,
    max_range,
    parse_scenario,
    run_sweep,
    split_from_heights,
    total_loss,
    weissberger_delta_limit,
    weissberger_loss,
)
from foliage_link.cli import run

inf, nan = math.inf, math.nan
SPECIAL = st.sampled_from([0.0, 0.5, 1.0, 1e306, -1e306, 1e-300, 5e-324, inf, -inf, nan])
#: any float, with the unit interval, ordinary magnitudes and the edge values drawn often
NUMBER = st.one_of(st.floats(), st.floats(0.0, 1.0), st.floats(1e-3, 1e4), SPECIAL)
#: the same for decibel quantities, whose ordinary range includes negatives
DB = st.one_of(st.floats(), st.floats(-200.0, 400.0), SPECIAL)
CHECKED = settings(derandomize=True, database=None, deadline=None, max_examples=150)
RADIO = RadioConfig(14, 0, 0, -137)


def _reject(token):
    raise AssertionError(f"non-finite JSON literal {token}")


def _floats(value):
    """Every float in ``value``, looking inside dataclasses, lists, tuples and dicts."""
    if isinstance(value, float):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _floats(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, dict):
        yield from _floats(list(value.values()))


def finite_or_error(call, *args, **kwargs):
    """``call``'s result, checked finite, or None when it raised a FoliageLinkError."""
    try:
        result = call(*args, **kwargs)
    except FoliageLinkError as exc:
        if not any(math.isnan(x) for x in _floats([args, kwargs])):
            assert "nan" not in str(exc), exc
        return None
    assert all(math.isfinite(x) for x in _floats(result)), result
    return result


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LinkGeometry(d_km=inf, delta=0.5), NonPositiveDistance, "^d_km .* got inf$"),
        (lambda: LinkGeometry(d_km=1e306, delta=0.5), NonPositiveDistance, r"got 1e\+306$"),
        (lambda: total_loss(LinkGeometry(2, delta=0.5), inf), NonPositiveFrequency, "got inf$"),
        (lambda: max_foliage_height(RADIO, 2, inf, 2400), NonPositiveHeight, "got inf$"),
        (
            lambda: SweepSpec(SweepVariable.DISTANCE, 1, inf, 3, LinkGeometry(2, delta=0.5), 868),
            InvalidSpec,
            r"got \[1, inf\]$",
        ),
        (lambda: weissberger_delta_limit(inf), NonPositiveDistance, "got inf$"),
        (lambda: delta_from_heights(1, inf), NonPositiveHeight, "^h_m .* got inf$"),
        (
            lambda: parse_scenario(_scenario_text(868, 14, 1e306, 0.5, False)),
            DomainError,
            r"^node 'n1': d_km .* got 1e\+306$",
        ),
    ],
    ids=[
        "geometry-inf", "geometry-1e306", "total-f-inf", "height-h-inf",
        "sweep-stop-inf", "delta-limit-inf", "heights-inf", "scenario-node-1e306",
    ],
)
def test_non_finite_input_names_itself(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "argv",
    [
        ["loss", "--d-km", "1e306", "--delta", "0.5", "--f-mhz", "2400", "--format", "json"],
        ["loss", "--d-km", "1e306", "--delta", "0", "--f-mhz", "2400", "--format", "json"],
        ["scenario", "--file", "LONG_INTEGER"],
    ],
    ids=["loss-delta-0.5", "loss-delta-0", "scenario-5000-digits"],
)
def test_cli_exits_1_with_one_error_line(tmp_path, argv):
    path = tmp_path / "long.json"
    path.write_text(_scenario_text(868, 14, 2, 0.5, False).replace("868", "1" * 5000))
    code, out, err = _run([str(path) if arg == "LONG_INTEGER" else arg for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "nan" not in err


@CHECKED
@given(d_km=NUMBER, delta=NUMBER, f_mhz=NUMBER, h_m=NUMBER, h_f_m=NUMBER)
@example(d_km=1e306, delta=0.5, f_mhz=2400.0, h_m=30.0, h_f_m=15.0)
@example(d_km=5e-324, delta=0.5, f_mhz=2400.0, h_m=30.0, h_f_m=15.0)
@example(d_km=2.0, delta=0.0, f_mhz=inf, h_m=inf, h_f_m=1.0)
def test_propagation_is_finite_or_raises(d_km, delta, f_mhz, h_m, h_f_m):
    finite_or_error(foliage_split, d_km, delta)
    finite_or_error(delta_from_heights, h_f_m, h_m)
    finite_or_error(split_from_heights, d_km, h_m, h_f_m)
    finite_or_error(weissberger_loss, f_mhz, d_km)
    finite_or_error(free_space_loss, d_km, f_mhz)
    finite_or_error(weissberger_delta_limit, d_km)
    finite_or_error(delta_bounds, delta, h_f_m, h_m)
    for geometry in (
        finite_or_error(LinkGeometry, d_km, delta=delta),
        finite_or_error(LinkGeometry, d_km, h_m=h_m, h_f_m=h_f_m),
    ):
        if geometry is not None:
            finite_or_error(total_loss, geometry, f_mhz)


@CHECKED
@given(tx=DB, gain=DB, d_km=NUMBER, delta=NUMBER, f_mhz=NUMBER, h_m=NUMBER, cap=NUMBER)
@example(tx=14.0, gain=0.0, d_km=2.0, delta=0.5, f_mhz=2400.0, h_m=inf, cap=0.95)
@example(tx=1e308, gain=1e308, d_km=2.0, delta=0.5, f_mhz=2400.0, h_m=30.0, cap=0.95)
def test_solvers_are_finite_or_raise(tx, gain, d_km, delta, f_mhz, h_m, cap):
    radio = finite_or_error(RadioConfig, tx, gain, 0.0, -137.0)
    if radio is None:
        return
    finite_or_error(max_range, radio, delta, f_mhz)
    finite_or_error(max_foliage_factor, radio, d_km, f_mhz, cap)
    finite_or_error(max_foliage_height, radio, d_km, h_m, f_mhz, cap)


@CHECKED
@given(
    variable=st.sampled_from(SweepVariable), start=NUMBER, stop=NUMBER,
    steps=st.integers(2, 5), d_km=NUMBER, delta=NUMBER, h_m=NUMBER, f_mhz=NUMBER,
)
@example(variable=SweepVariable.DISTANCE, start=1.0, stop=inf, steps=3, d_km=2.0,
         delta=0.5, h_m=30.0, f_mhz=2400.0)
@example(variable=SweepVariable.DISTANCE, start=1.0, stop=1e306, steps=3, d_km=2.0,
         delta=0.5, h_m=30.0, f_mhz=2400.0)
def test_sweeps_are_finite_or_raise(variable, start, stop, steps, d_km, delta, h_m, f_mhz):
    base = finite_or_error(LinkGeometry, d_km, h_m=h_m, h_f_m=delta * h_m)
    if base is None:
        return
    spec = finite_or_error(SweepSpec, variable, start, stop, steps, base, f_mhz)
    if spec is not None:
        finite_or_error(run_sweep, spec)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@CHECKED
@given(
    command=st.sampled_from(["loss", "range", "delta", "height", "sweep"]),
    d_km=NUMBER, delta=NUMBER, f_mhz=NUMBER, h_m=NUMBER, tx=DB,
)
@example(command="loss", d_km=1e306, delta=0.5, f_mhz=2400.0, h_m=30.0, tx=14.0)
@example(command="loss", d_km=1e306, delta=0.0, f_mhz=2400.0, h_m=30.0, tx=14.0)
def test_cli_prints_finite_json_or_one_error_line(command, d_km, delta, f_mhz, h_m, tx):
    flags = {"d-km": d_km, "delta": delta, "f-mhz": f_mhz}
    if command == "loss":
        argv = ["loss"]
    elif command == "sweep":
        argv = ["sweep", "--var", "distance", f"--start={d_km}", f"--stop={h_m}", "--steps=3"]
        del flags["d-km"]
    else:
        argv = ["budget", "--solve", command, f"--tx-dbm={tx}", "--sensitivity-dbm=-137"]
        if command == "range":
            del flags["d-km"]
        else:
            del flags["delta"]
        if command == "height":
            flags["h-m"] = h_m
    argv += [f"--{name}={value!r}" for name, value in flags.items()] + ["--format", "json"]
    code, out, err = _run(argv)
    if code == 0:
        assert all(math.isfinite(x) for x in _floats(json.loads(out, parse_constant=_reject)))
    else:
        assert code in (1, 2) and out == ""
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _scenario_text(frequency_mhz, tx, d_km, cover, by_height):
    node = {"id": "n1", "d_km": d_km, "h_f_m" if by_height else "delta": cover}
    radio = {"tx_power_dbm": tx, "tx_gain_dbi": 0, "rx_gain_dbi": 0,
             "rx_sensitivity_dbm": -137, "required_margin_db": 0}
    return json.dumps({"name": "farm", "frequency_mhz": frequency_mhz, "base_height_m": 30,
                       "radio": radio, "nodes": [node, {"id": "n2", "d_km": 2, "delta": 1}]})


@CHECKED
@given(frequency_mhz=NUMBER, tx=DB, d_km=NUMBER, cover=NUMBER, by_height=st.booleans())
@example(frequency_mhz=868.0, tx=14.0, d_km=1e306, cover=0.5, by_height=False)
@example(frequency_mhz=868.0, tx=14.0, d_km=5e-324, cover=0.5, by_height=True)
def test_scenario_path_is_finite_or_raises(frequency_mhz, tx, d_km, cover, by_height):
    scenario = finite_or_error(
        parse_scenario, _scenario_text(frequency_mhz, tx, d_km, cover, by_height)
    )
    if scenario is None:
        return
    assert parse_scenario(emit_scenario(scenario)) == scenario
    reports = finite_or_error(evaluate_scenario, scenario)
    if reports is not None:
        objects = json.loads(emit_json(reports), parse_constant=_reject)
        assert [obj["id"] for obj in objects] == ["n1", "n2"]


def test_emit_json_refuses_a_non_finite_report():
    report = NodeReport(
        id="n1", delta=0.5, d_f_m=1000.0, d_fsp_m=1000.0, l_foliage_db=nan, l_fsp_db=80.0,
        l_total_db=nan, regime=None, validity=None, margin_db=nan, required_tx_dbm=nan,
        link_ok=False,
    )
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_json([report])

