"""Property tests: every public entry returns finite numbers or raises a FoliageLinkError.

Inputs come from the whole float range, ``inf`` and ``nan`` included, and from
values such as 1e306 km, which overflow once taken to meters. A raised error
may mention ``nan`` only when a ``nan`` was given, and JSON output must
re-parse with the non-finite literals rejected. The runs are derandomized, so
every run draws the same examples.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliage_link import (
    DeltaBounds,
    DomainError,
    FoliageLinkError,
    FoliageLossResult,
    InvalidSpec,
    LinkGeometry,
    LossBreakdown,
    NodeReport,
    NonPositiveDistance,
    NonPositiveFrequency,
    NonPositiveHeight,
    PathSplit,
    RadioConfig,
    Regime,
    Scenario,
    ScenarioNode,
    SolveResult,
    SweepSpec,
    SweepVariable,
    Validity,
    delta_bounds,
    delta_from_heights,
    emit_csv,
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
from foliage_link import cli, render
from foliage_link import scenario as scenario_module
from foliage_link.cli import run
from foliage_link.scenario import _REPORT_WIDTH, REPORT_COLUMNS
from foliage_link.sweep import SWEEP_COLUMNS

from render_digest import ODD_IDS

inf, nan = math.inf, math.nan
SPECIAL = st.sampled_from([0.0, 0.5, 1.0, 1e306, -1e306, 1e-300, 5e-324, inf, -inf, nan])
#: any float, with the unit interval, ordinary magnitudes and the edge values drawn often
NUMBER = st.one_of(st.floats(), st.floats(0.0, 1.0), st.floats(1e-3, 1e4), SPECIAL)
#: the same for decibel quantities, whose ordinary range includes negatives
DB = st.one_of(st.floats(), st.floats(-200.0, 400.0), SPECIAL)
CHECKED = settings(derandomize=True, database=None, deadline=None, max_examples=150)
RADIO = RadioConfig(14, 0, 0, -137)


def _render_block(cells, columns, width, fmt) -> str:
    """The text of one block of ``width`` cells per row, as ``render_blocks`` writes it."""
    return "".join(render.render_blocks(render.Batch(columns, width, [cells]), fmt))


def _reject(token):
    raise AssertionError(f"non-finite JSON literal {token}")


def _floats(value):
    """Every float in ``value``, looking inside lists, tuples (records among them) and dicts."""
    if isinstance(value, float):
        yield value
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
            lambda: SweepSpec(SweepVariable.DISTANCE, inf, 3, LinkGeometry(1, delta=0.5), 868),
            InvalidSpec,
            r"got \[1, inf\]$",
        ),
        (
            lambda: SweepSpec(SweepVariable.DISTANCE, 1e306, 3, LinkGeometry(1, delta=0.5), 868),
            InvalidSpec,
            r"^stop must be > 0 and finite in meters, got 1e\+306$",
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
        "sweep-stop-inf", "sweep-stop-1e306", "delta-limit-inf", "heights-inf", "scenario-node-1e306",
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


#: a solve converges within this many dB of its budget
LOSS_TOL_DB = 1e-6


def _loss(d_km, delta, f_mhz):
    return total_loss(LinkGeometry(d_km, delta=delta), f_mhz).l_total_db


def _last_linear(x, depth_per_x):
    """The largest ``y <= x`` whose foliage depth ``depth_per_x * y`` stays on the 14 m linear branch."""
    while depth_per_x * x > 14.0:
        x = math.nextafter(x, 0.0)
    return x


def _concave_top(loss, lo, hi):
    """Largest value of a concave ``loss`` on ``[lo, hi]``, by golden-section search."""
    a, b, shrink = lo, hi, (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        left, right = b - shrink * (b - a), a + shrink * (b - a)
        if loss(left) < loss(right):
            a = left
        else:
            b = right
    return max(loss(lo), loss(hi), loss(0.5 * (a + b)))


def _cover_top(d_km, f_mhz, upto):
    """Largest total loss over cover factors ``[0, upto]``, one concave branch piece at a time."""
    loss = lambda delta: _loss(d_km, delta, f_mhz)  # noqa: E731
    d_m = d_km * 1000.0
    edge = _last_linear(min(14.0 / d_m, upto), d_m)
    top = _concave_top(loss, 0.0, edge)
    if edge < upto:
        top = max(top, _concave_top(loss, math.nextafter(edge, 1.0), upto))
    return top


def _range_top(delta, f_mhz, upto):
    """Largest total loss over distances ``[1e-4, upto]`` km, on a log grid and at the 14 m edge."""
    points = [1e-4 * (upto / 1e-4) ** (i / 200) for i in range(201)]
    if delta > 0.0 and (edge := 14.0 / 1000.0 / delta) < upto:
        points.append(_last_linear(edge, delta * 1000.0))
    return max(_loss(d_km, delta, f_mhz) for d_km in points if d_km <= upto)


@CHECKED
@given(d_km=st.floats(1e-3, 300.0), delta=st.floats(0.0, 0.999), f_mhz=st.floats(100.0, 3e4),
       offset=st.floats(-3.0, 3.0), cap=st.floats(0.01, 0.999))
@example(d_km=0.028, delta=0.5, f_mhz=2400.0, offset=71.04 - _loss(0.028, 0.5, 2400.0), cap=0.95)
@example(d_km=5.0, delta=0.92516, f_mhz=868.0, offset=-5e-7, cap=0.95)  # a narrow peak window
# the 14 m edge just short of 1000 km, where the loss is 0.019 dB above that at 1000 km
@example(d_km=1000.0, delta=1.401e-5, f_mhz=2400.0, offset=5e-7, cap=0.95)
def test_converged_solves_meet_the_budget_on_the_first_frontier(d_km, delta, f_mhz, offset, cap):
    """A converged solve is within 1e-6 dB of its budget, and the loss exceeds it nowhere before."""
    budget = _loss(d_km, delta, f_mhz) + offset
    radio = RadioConfig(budget, 0.0, 0.0, 0.0)
    try:
        reach = max_range(radio, delta, f_mhz)
    except FoliageLinkError:
        pass
    else:
        assert reach.converged and not reach.all_feasible
        assert abs(reach.achieved_loss_db - budget) <= LOSS_TOL_DB
        assert _range_top(delta, f_mhz, reach.value) <= budget + LOSS_TOL_DB
    try:
        cover = max_foliage_factor(radio, d_km, f_mhz, cap)
    except FoliageLinkError:
        return
    assert cover.converged
    if cover.all_feasible:
        assert cover.value == cap
        assert _cover_top(d_km, f_mhz, cap) <= budget + LOSS_TOL_DB
    else:
        assert abs(cover.achieved_loss_db - budget) <= LOSS_TOL_DB
        assert _cover_top(d_km, f_mhz, cover.value) <= budget + LOSS_TOL_DB


@CHECKED
@given(budget=st.floats(0.0, 3000.0), delta=st.floats(0.0, 0.99999), f_mhz=st.floats(1.0, 1e6))
def test_range_solves_with_a_crossing_in_the_bracket_converge(budget, delta, f_mhz):
    if not _loss(1e-4, delta, f_mhz) < budget < _loss(1000.0, delta, f_mhz):
        return
    assert max_range(RadioConfig(budget, 0.0, 0.0, 0.0), delta, f_mhz).converged


def test_range_in_the_14_m_step_down_window():
    """The loss steps down across d = 28 m at delta 0.5 and 2400 MHz; 71.04 dB lies in that step.

    The first frontier is on the linear branch, just short of the edge.
    """
    assert _loss(0.028, 0.5, 2400.0) > 71.04 > _loss(math.nextafter(0.028, 1.0), 0.5, 2400.0)
    result = max_range(RadioConfig(71.04, 0.0, 0.0, 0.0), 0.5, 2400.0)
    assert result.converged
    assert result.value < 0.028
    assert abs(result.achieved_loss_db - 71.04) <= LOSS_TOL_DB
    breakdown = total_loss(LinkGeometry(result.value, delta=0.5), 2400.0)
    assert breakdown.foliage.regime is Regime.LINEAR


@pytest.mark.parametrize("above_far_end", [5e-7, 0.01])
def test_range_in_the_step_down_window_at_the_bracket_end(above_far_end):
    """At delta 1.401e-5 the 14 m edge lies at 999.29 km, inside the bracket.

    The loss there is 0.019 dB above the loss at 1000 km, so a budget
    between the two has its first frontier on the linear branch short of
    the edge: neither at 1000 km nor beyond the bracket.
    """
    delta, f_mhz = 1.401e-5, 2400.0
    edge = _last_linear(14.0 / 1000.0 / delta, delta * 1000.0)
    assert edge < 1000.0
    budget = _loss(1000.0, delta, f_mhz) + above_far_end
    assert budget < _loss(edge, delta, f_mhz)
    result = max_range(RadioConfig(budget, 0.0, 0.0, 0.0), delta, f_mhz)
    assert result.converged
    assert result.value <= edge
    assert abs(result.achieved_loss_db - budget) <= LOSS_TOL_DB
    assert _range_top(delta, f_mhz, result.value) <= budget + LOSS_TOL_DB


@CHECKED
@given(
    variable=st.sampled_from(SweepVariable), stop=NUMBER,
    steps=st.integers(2, 5), d_km=NUMBER, delta=NUMBER, h_m=NUMBER, f_mhz=NUMBER,
)
@example(variable=SweepVariable.DISTANCE, stop=inf, steps=3, d_km=1.0,
         delta=0.5, h_m=30.0, f_mhz=2400.0)
@example(variable=SweepVariable.DISTANCE, stop=1e306, steps=3, d_km=1.0,
         delta=0.5, h_m=30.0, f_mhz=2400.0)
def test_sweeps_are_finite_or_raise(variable, stop, steps, d_km, delta, h_m, f_mhz):
    """A sweep starts at its base link: the swept field of ``base``, or ``f_mhz``."""
    base = finite_or_error(LinkGeometry, d_km, h_m=h_m, h_f_m=delta * h_m)
    if base is None:
        return
    spec = finite_or_error(SweepSpec, variable, stop, steps, base, f_mhz)
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


#: every column tuple the package renders by
COLUMN_SETS = [
    SWEEP_COLUMNS, REPORT_COLUMNS, cli._LOSS_COLUMNS, cli._SOLVE_COLUMNS, DeltaBounds._fields,
]
#: strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.one_of(
    st.text(), st.sampled_from(['a"b', "c\\d", "\x00\x1f\x7f\n\t", "é✓€𝄞", "\u2028"])
)
CELL = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(),
    st.sampled_from([*Regime, *Validity]), TEXT,
)


def _reference_object(columns, cells, error):
    obj = dict(zip(columns, cells))
    if error is not None:
        obj["error"] = error
    return obj


@CHECKED
@given(data=st.data(), which=st.integers(0, len(COLUMN_SETS) - 1), single=st.booleans(),
       count=st.integers(0, 3))
def test_to_json_matches_json_dumps(data, which, single, count):
    """A lone row renders as one object; rows of cells, each ending with its error, as an array."""
    columns = COLUMN_SETS[which]
    rows = []
    for _ in range(1 if single else count):
        cells = data.draw(st.lists(CELL, min_size=len(columns), max_size=len(columns)))
        error = None if single else data.draw(st.one_of(st.none(), TEXT))
        rows.append((cells, error))
    objects = [_reference_object(columns, cells, error) for cells, error in rows]

    def text():
        if single:
            return render.render(rows[0][0], columns, "json")
        flat = [cell for cells, error in rows for cell in (*cells, error)]
        return _render_block(flat, columns, len(columns) + 1, "json")

    try:
        expected = json.dumps(objects[0] if single else objects, indent=2, allow_nan=False)
    except ValueError:  # a nan or inf cell
        with pytest.raises(ValueError, match="not JSON compliant"):
            text()
        return
    assert text() == expected + "\n"


@pytest.mark.parametrize("columns", COLUMN_SETS)
def test_to_json_of_no_records(columns):
    text = _render_block([], columns, len(columns), "json")
    assert text == json.dumps([], indent=2) + "\n" == "[]\n"


@pytest.mark.parametrize("value", [nan, inf, -inf])
@pytest.mark.parametrize("single", [True, False])
def test_to_json_refuses_a_non_finite_cell(value, single):
    cells, columns = [0.0, 1.0, value, 0.0, 1.0], DeltaBounds._fields
    with pytest.raises(ValueError, match="not JSON compliant"):
        if single:
            render.render(cells, columns, "json")
        else:
            _render_block(cells, columns, len(columns), "json")


def _loss_record(cells):
    delta, d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity = cells
    foliage = FoliageLossResult(l_foliage, regime, validity)
    return LossBreakdown(l_foliage, l_fsp, l_total, foliage, PathSplit(d_f_m, d_fsp_m, delta))


#: the lone records the CLI renders, each built from its cells in column order and
#: read back as the CLI reads it into a row
LONE_RECORDS = [
    (cli._SOLVE_COLUMNS, lambda cells: (cells[0], *SolveResult._make(cells[1:]))),
    (DeltaBounds._fields, DeltaBounds._make),
    (cli._LOSS_COLUMNS, lambda cells: cli._loss_row(_loss_record(cells))),
]


@CHECKED
@given(data=st.data(), which=st.integers(0, len(LONE_RECORDS) - 1))
def test_render_of_a_lone_record_matches_json_dumps(data, which):
    columns, row = LONE_RECORDS[which]
    cells = data.draw(st.lists(CELL, min_size=len(columns), max_size=len(columns)))
    obj = dict(zip(columns, cells))
    try:
        expected = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:  # a nan or inf cell
        with pytest.raises(ValueError, match="not JSON compliant"):
            render.render(row(cells), columns, "json")
        return
    assert render.render(row(cells), columns, "json") == expected


@CHECKED
@given(data=st.data(), which=st.integers(0, len(LONE_RECORDS) - 1))
def test_render_of_a_lone_record_as_a_table_matches_the_column_table(data, which):
    """Each line is the column's name, padded to the longest, two spaces and the cell's
    text, which the column table writes as that cell's row, padded to 13."""
    columns, row = LONE_RECORDS[which]
    cells = data.draw(st.lists(CELL, min_size=len(columns), max_size=len(columns)))
    width = max(map(len, columns))
    lines = []
    for name, cell in zip(columns, cells):
        text = render._table_cell(cell)
        table = _render_block([cell], (name,), 1, "table")
        assert table == "%-13s\n%-13s\n" % (name, text)
        lines.append(name.ljust(width) + "  " + text + "\n")
    assert render.render(row(cells), columns, "table") == "".join(lines)


@pytest.mark.parametrize("row, columns", [
    (("range", *max_range(RADIO, 0.3, 868.0)), cli._SOLVE_COLUMNS),
    (("delta", *max_foliage_factor(RADIO, 2.0, 2400.0)), cli._SOLVE_COLUMNS),
    (delta_bounds(0.2, 0.8, 0.5), DeltaBounds._fields),
    (cli._loss_row(total_loss(LinkGeometry(2.0, delta=0.95), 2400.0)), cli._LOSS_COLUMNS),
])
def test_render_of_a_command_record_matches_json_dumps(row, columns):
    expected = json.dumps(dict(zip(columns, row)), indent=2, allow_nan=False)
    assert render.render(row, columns, "json") == expected + "\n"


#: node values: any float, and ints as a hand-built ``ScenarioNode`` may hold them
NODE_VALUE = st.one_of(st.floats(), st.integers(-10**6, 10**6), SPECIAL)


@CHECKED
@given(name=TEXT, frequency_mhz=NODE_VALUE, base_height_m=NODE_VALUE,
       radio=st.lists(st.floats(0.0, 200.0), min_size=5, max_size=5),
       nodes=st.lists(st.builds(ScenarioNode, TEXT, NODE_VALUE, st.one_of(st.none(), NODE_VALUE),
                                st.one_of(st.none(), NODE_VALUE)), max_size=4))
@example(name="farm", frequency_mhz=nan, base_height_m=30.0, radio=[14.0, 0.0, 0.0, 137.0, 0.0],
         nodes=[])
@example(name="farm", frequency_mhz=868.0, base_height_m=30.0, radio=[14.0, 0.0, 0.0, 137.0, 0.0],
         nodes=[ScenarioNode("a", 2.0, delta=0.5), ScenarioNode("b", 2.0, h_f_m=nan)])
@example(name="farm", frequency_mhz=868.0, base_height_m=-inf, radio=[14.0, 0.0, 0.0, 137.0, 0.0],
         nodes=[ScenarioNode("a", nan, delta=0.5)])
def test_emit_scenario_matches_json_dumps(name, frequency_mhz, base_height_m, radio, nodes):
    """The text is ``json.dumps`` of the fields that are not None, or the parser's error on it.

    A NaN or infinite value has no JSON text. The parser reads an infinite
    one as the integer beyond the float range it is written as here, and
    reports it as it does the literal ``1e400``. A NaN is written as the
    string ``"NaN"``, and the parser's type error on it, at the same field,
    becomes ``emit_scenario``'s own ``DomainError``. ``evaluate_scenario``
    meets the same rules: it raises that error, or reports what the
    emitted text reports.
    """
    radio = RadioConfig(*radio)
    scenario = Scenario(name, frequency_mhz, base_height_m, radio, nodes)
    doc = {
        "name": name,
        "frequency_mhz": frequency_mhz,
        "base_height_m": base_height_m,
        "radio": radio._asdict(),
        "nodes": [{key: value for key, value in node._asdict().items() if value is not None}
                  for node in nodes],
    }
    expected = json.dumps(_as_json_text(doc), indent=2, allow_nan=False)
    try:
        parse_scenario(expected)
    except FoliageLinkError as exc:
        error, message = type(exc), str(exc)
        if message.endswith(NAN_STAND_IN):
            error = DomainError
            message = message.replace(NAN_STAND_IN, "is NaN, which JSON cannot hold")
        with pytest.raises(error) as raised:
            emit_scenario(scenario)
        assert str(raised.value) == message
        with pytest.raises(FoliageLinkError) as evaluated:
            evaluate_scenario(scenario)
        assert (type(evaluated.value), str(evaluated.value)) == (type(raised.value), message)
        return
    assert emit_scenario(scenario) == expected
    assert evaluate_scenario(scenario) == evaluate_scenario(parse_scenario(expected))


#: a base height, and node values at and around each edge of the node rules: zero of
#: either sign, the smallest subnormal, the largest distance finite in meters, a cover
#: factor of 1, the base height itself, ints, NaN and the infinities
BASE_HEIGHT = 30.0
EDGE_VALUE = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
        1e306, 1.7976931348623156e305, 1.7976931348623158e305, BASE_HEIGHT,
        math.nextafter(BASE_HEIGHT, 0.0), math.nextafter(BASE_HEIGHT, inf), inf, -inf, nan,
        0, 1, 30, 31, -1,
    ]),
    st.floats(0.0, BASE_HEIGHT),
    st.floats(),
)
#: a node's ``(h_f_m, delta)``: mostly one source, as the fast test takes it, sometimes
#: neither or both
COVER = st.one_of(
    st.tuples(st.none(), EDGE_VALUE),
    st.tuples(EDGE_VALUE, st.none()),
    st.tuples(st.one_of(st.none(), EDGE_VALUE), st.one_of(st.none(), EDGE_VALUE)),
)


class _Refused(Exception):
    """``_node_values``' first test sent the node on to ``_parse_node``."""


def _refuse(raw, index, base_height_m):
    raise _Refused


@CHECKED
@given(node_id=st.one_of(st.sampled_from(["a", "é✓", "\ud800"]), TEXT, st.integers()),
       d_km=EDGE_VALUE, cover=COVER, as_record=st.booleans())
@example(node_id="a", d_km=5e-324, cover=(None, 1.0), as_record=False)
@example(node_id="a", d_km=1.7976931348623156e305, cover=(BASE_HEIGHT, None), as_record=True)
@example(node_id="a", d_km=2.0, cover=(-0.0, None), as_record=False)
# just past each edge: a looser first test would take these, and the parser refuses them
@example(node_id="a", d_km=2.0, cover=(math.nextafter(BASE_HEIGHT, inf), None), as_record=False)
@example(node_id="a", d_km=2.0, cover=(None, math.nextafter(1.0, 2.0)), as_record=True)
@example(node_id="a", d_km=1.7976931348623158e305, cover=(None, 0.5), as_record=False)
@example(node_id="a", d_km=-0.0, cover=(None, 0.5), as_record=True)
@example(node_id="\ud800", d_km=2.0, cover=(None, 0.5), as_record=False)
def test_the_fast_node_test_accepts_what_parse_node_accepts(node_id, d_km, cover, as_record):
    """``_node_values``' first test is the node rules written inline: whatever it
    accepts, from a document's object or a record, ``_parse_node`` accepts too,
    with the same values to the bit."""
    node = ScenarioNode(node_id, d_km, *cover)
    raw = node if as_record else scenario_module._node_object(node)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_parse_node", _refuse)
        try:
            fast = next(scenario_module._node_values([raw], BASE_HEIGHT))
        except _Refused:
            return
    assert repr(scenario_module._parse_node(raw, 0, BASE_HEIGHT)) == repr(fast)


#: the end of the parser's error on a NaN written as the string "NaN"
NAN_STAND_IN = "must be a number, got 'NaN'"


def _as_json_text(value):
    """``value`` with each infinite float an integer beyond the float range, each NaN ``"NaN"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else (10**400 if value > 0 else -10**400)
    if isinstance(value, dict):
        return {key: _as_json_text(item) for key, item in value.items()}
    if isinstance(value, list):
        return list(map(_as_json_text, value))
    return value


#: cells for CSV: the JSON cells, strings that csv.writer quotes, and an enum that is not
#: the package's own
CSV_CELL = st.one_of(
    CELL,
    st.sampled_from(["row,12", 'say "hi"', "cr\rlf", "two\nlines", '"', ",", "\r\n", ""]),
    st.sampled_from(list(SweepVariable)),
)
PLAIN_CELL = st.one_of(st.floats(), st.integers(), st.sampled_from([*Regime, *Validity]))


def _reference_csv(columns, rows):
    """What ``csv.writer`` writes for the rows, with LF line endings and bools as ``true``/``false``.

    Each row is written with a CRLF terminator, then given an LF one: before
    Python 3.13, ``csv.writer`` quotes a lone ``\\r`` or ``\\n`` only when the
    line terminator holds it. ``csv.writer`` itself would write a bool as
    ``True``/``False``.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    lines = []
    for cells in [columns, *rows]:
        writer.writerow([("false", "true")[value] if type(value) is bool else value
                         for value in cells])
        lines.append(out.getvalue()[:-2] + "\n")
        out.seek(0)
        out.truncate()
    return "".join(lines)


@CHECKED
@given(data=st.data(), which=st.integers(0, len(COLUMN_SETS) - 1), single=st.booleans(),
       count=st.integers(1, 3), plain=st.booleans())
def test_csv_matches_csv_writer(data, which, single, count, plain):
    """A lone row renders as one CSV row, and so do the cells of each row of many."""
    columns = COLUMN_SETS[which]
    # plain: floats, ints and the package's enums only, a batch that renders by template
    cell = PLAIN_CELL if plain else CSV_CELL
    rows = [
        data.draw(st.lists(cell, min_size=len(columns), max_size=len(columns)))
        for _ in range(1 if single else count)
    ]
    expected = _reference_csv(columns, rows)
    if single:
        assert render.render(rows[0], columns, "csv") == expected
        return
    # a row of mixed cells ends with its error, which CSV does not write
    flat = []
    for cells in rows:
        flat += cells if plain else [*cells, data.draw(st.one_of(st.none(), TEXT))]
    assert _render_block(flat, columns, len(columns) + (not plain), "csv") == expected


def test_to_csv_of_a_long_mixed_batch():
    """A few cells to convert among many plain ones (non-finite floats among them)."""
    rows = [[i / 7, float(i), 1.0, 2.0, 3.0, 4.0, 5.0, Regime.POWER, Validity.IN_DOMAIN]
            for i in range(250)]
    rows[3][1:4] = [nan, inf, -inf]
    rows[125][4] = None
    rows[-1][0] = "last,row"
    cells = list(chain.from_iterable(rows))
    assert _render_block(cells, SWEEP_COLUMNS, len(SWEEP_COLUMNS), "csv") == _reference_csv(
        SWEEP_COLUMNS, rows
    )


@pytest.mark.parametrize("columns", COLUMN_SETS)
def test_to_csv_of_no_records(columns):
    text = _render_block([], columns, len(columns), "csv")
    assert text == _reference_csv(columns, [])
    assert text == ",".join(columns) + "\n"


#: the kinds of table column: floats (subnormals, zeros, infinities and NaN among them),
#: one-dict values, strings, and mixed cells, which the cell rule converts one by one
TABLE_COLUMN = st.sampled_from([
    st.floats(), st.sampled_from([None, False, True, *Regime, *Validity]), TEXT, CSV_CELL,
])


@CHECKED
@given(data=st.data(), which=st.integers(0, len(COLUMN_SETS) - 1), count=st.integers(0, 4))
def test_table_matches_its_cell_rule(data, which, count):
    """Each table column, converted whole, reads as ``_table_cell`` of each of its cells.

    Every cell is left-aligned in 13 characters, two spaces apart, and a
    row's error is not written.
    """
    columns = COLUMN_SETS[which]
    kinds = [data.draw(TABLE_COLUMN) for _ in columns]
    rows = [[data.draw(kind) for kind in kinds] for _ in range(count)]
    flat = [cell for cells in rows for cell in (*cells, data.draw(st.one_of(st.none(), TEXT)))]
    lines = [columns, *([render._table_cell(v) for v in cells] for cells in rows)]
    expected = "".join("  ".join(f"{text:<13}" for text in line) + "\n" for line in lines)
    assert _render_block(flat, columns, len(columns) + 1, "table") == expected


#: a scenario node: id, d_km (an int goes through the field-by-field check), cover source
#: ("full" is delta 1, an error row) and cover share; a share of 1 by height is full cover too
SCENARIO_NODE = st.tuples(
    st.sampled_from(ODD_IDS),
    st.one_of(st.floats(1e-3, 30.0), st.integers(1, 30)),
    st.sampled_from(["delta", "h_f_m", "full"]),
    st.one_of(st.floats(0.0, 1.0), st.just(1.0)),
)


@CHECKED
@given(nodes=st.lists(SCENARIO_NODE, max_size=50), fmt=st.sampled_from(["table", "csv", "json"]))
def test_cli_scenario_renders_what_its_records_render(nodes, fmt):
    """The CLI writes straight from the report cells; the records are the reference."""
    doc_nodes = []
    for index, (odd_id, d_km, source, share) in enumerate(nodes):
        node = {"id": f"{odd_id}{index}", "d_km": d_km}
        if source == "h_f_m":
            node["h_f_m"] = share * 30.0
        else:
            node["delta"] = 1.0 if source == "full" else share
        doc_nodes.append(node)
    text = json.dumps({
        "name": "flat", "frequency_mhz": 868.0, "base_height_m": 30.0,
        "radio": RADIO._asdict(), "nodes": doc_nodes,
    })
    reports = evaluate_scenario(parse_scenario(text))
    if fmt == "table":
        cells = list(chain.from_iterable(reports))
        expected = _render_block(cells, REPORT_COLUMNS, _REPORT_WIDTH, "table")
    else:
        expected = emit_csv(reports) if fmt == "csv" else emit_json(reports) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        assert run(["scenario", "--file", str(path), "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == expected


#: the ``sweep --var`` value of each swept variable
VAR_FLAG = {
    SweepVariable.DELTA: "delta",
    SweepVariable.FOLIAGE_HEIGHT: "foliage-height",
    SweepVariable.DISTANCE: "distance",
    SweepVariable.FREQUENCY_MHZ: "frequency-mhz",
}


@st.composite
def sweep_args(draw):
    """A custom sweep: variable, start, stop, steps, d_km, fixed cover factor and f_mhz.

    A foliage-height sweep runs under a 30 m antenna. Start and stop can
    be equal, which the spec refuses.
    """
    variable = draw(st.sampled_from(SweepVariable))
    lo, hi = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    if variable is SweepVariable.DELTA:
        start, stop = lo * 0.95, hi * 0.95
    elif variable is SweepVariable.FOLIAGE_HEIGHT:
        start, stop = lo * 29.97, hi * 29.97
    else:  # distance or frequency: positive, over many magnitudes
        scale = draw(st.floats(1e-300, 1e4))
        start, stop = (lo + 1e-3) * scale, (hi + 1e-3) * scale
    return (variable, start, stop, draw(st.integers(2, 60)), draw(st.floats(1e-3, 300.0)),
            draw(st.floats(0.0, 0.999)), draw(st.floats(10.0, 1e5)))


def _sweep_argv(variable, start, stop, steps, d_km, cover, f_mhz):
    """The ``sweep`` argv, the ``LinkGeometry`` keywords of its base and its fixed frequency."""
    argv = ["sweep", "--var", VAR_FLAG[variable], "--start", repr(start), "--stop", repr(stop),
            "--steps", str(steps)]
    if variable is SweepVariable.DELTA:
        argv += ["--d-km", repr(d_km), "--f-mhz", repr(f_mhz)]
        return argv, {"d_km": d_km, "delta": start}, f_mhz
    if variable is SweepVariable.FOLIAGE_HEIGHT:
        argv += ["--d-km", repr(d_km), "--h-m", "30.0", "--f-mhz", repr(f_mhz)]
        return argv, {"d_km": d_km, "h_m": 30.0, "h_f_m": start}, f_mhz
    if variable is SweepVariable.DISTANCE:
        argv += ["--delta", repr(cover), "--f-mhz", repr(f_mhz)]
        return argv, {"d_km": start, "delta": cover}, f_mhz
    argv += ["--d-km", repr(d_km), "--delta", repr(cover)]
    return argv, {"d_km": d_km, "delta": cover}, start


V = SweepVariable


@CHECKED
@given(sweep=sweep_args())
@example(sweep=(V.FREQUENCY_MHZ, 400.0, 6000.0, 7, 2.0, 0.0, 868.0))  # a fixed zero regime
@example(sweep=(V.FREQUENCY_MHZ, 400.0, 6000.0, 7, 2.0, 0.5, 868.0))  # extrapolated, 1 km deep
@example(sweep=(V.DISTANCE, 0.05, 20.0, 7, 2.0, 0.0, 868.0))  # a fixed cover factor of 0
@example(sweep=(V.DELTA, 0.0, 5e-324, 4, 3.0, 0.0, 868.0))  # subnormal spans
@example(sweep=(V.DELTA, 0.0, 1e-322, 50, 3.0, 0.0, 868.0))
@example(sweep=(V.DELTA, 0.0, 1e-320, 5000, 3.0, 0.0, 868.0))
@example(sweep=(V.DELTA, 0.0, 2.5e-308, 1000, 3.0, 0.0, 868.0))
@example(sweep=(V.FOLIAGE_HEIGHT, 0.0, 15.0, 2, 2.0, 0.0, 2400.0))  # two points
@example(sweep=(V.DISTANCE, 5e-324, 1.0, 2, 2.0, 0.5, 868.0))  # refused at its first point
def test_cli_sweep_renders_what_its_records_render(sweep):
    """The CLI writes straight from the sweep's cells; ``run_sweep``'s rows are the reference."""
    variable, _, stop, steps = sweep[:4]
    argv, geometry, f_mhz = _sweep_argv(*sweep)
    formats = ("table", "csv", "json")
    try:
        spec = SweepSpec(variable, stop, steps, LinkGeometry(**geometry), f_mhz)
        rows, width = run_sweep(spec).rows, len(SWEEP_COLUMNS)
        expected = [_render_block(list(chain.from_iterable(rows)), SWEEP_COLUMNS, width, fmt)
                    for fmt in formats]
    except FoliageLinkError as exc:
        for fmt in formats:
            assert _run([*argv, "--format", fmt]) == (1, "", f"error: {exc}\n")
        return
    for fmt, text in zip(formats, expected):
        assert _run([*argv, "--format", fmt]) == (0, text, "")


#: values a column can hold in every row, each written its own way by some format
CONSTANT_VALUES = [
    None, True, False, Regime.ZERO, Validity.EXTRAPOLATED, SweepVariable.DISTANCE, 7, 0.1, -0.0,
    1e-320, 1e300, nan, inf, "50% off", 'row,"12"', "two\nlines", "cr\rlf", "é✓𝄞", "back\\slash",
    "",
]


@pytest.mark.parametrize("value", CONSTANT_VALUES, ids=repr)
def test_a_column_holding_one_object_renders_as_its_cells(value):
    """A column that holds one object in every row, which the writers format once, renders as
    its cells render one by one.

    The column is the third and the last, in 3 rows and in none. With
    ``repeat``, column ``delta`` holds column ``x``'s cells, which the
    writers find repeated. With ``error``, each row ends with an error
    cell, which only JSON writes, as a last key where it is not None.
    """
    columns = SWEEP_COLUMNS
    cases = [(3, False, False), (3, True, True), (0, False, True)]
    for fmt, column, (count, repeat, error) in product(FORMATS, [2, 8], cases):
        rows, errors = [], [("boom", None, "a\nb")[i] for i in range(count)]
        for i in range(count):
            row = [i / 7, i / 3, None, "x,y", True, 1e300, Regime.LINEAR, Validity.IN_DOMAIN, "%d"]
            row[column] = value
            if repeat:
                row[1] = row[0]
            rows.append(row)
        flat = [cell for row, cause in zip(rows, errors) for cell in row + [cause] * error]
        case = (fmt, column, count, repeat, error)

        def text():
            return _render_block(flat, columns, len(columns) + error, fmt)

        if fmt != "json":
            assert text() == _cell_by_cell(columns, rows, fmt), case
            continue
        objects = [_reference_object(columns, row, cause if error else None)
                   for row, cause in zip(rows, errors)]
        try:
            expected = json.dumps(objects, indent=2, allow_nan=False) + "\n"
        except ValueError:
            with pytest.raises(ValueError, match="not JSON compliant"):
                text()
            continue
        assert text() == expected, case


def _cell_by_cell(columns, rows, fmt):
    """The text of the rows from each format's reference: ``json.dumps``, ``csv.writer``, or
    ``_table_cell`` of each cell."""
    if fmt == "json":
        objects = [_reference_object(columns, cells, None) for cells in rows]
        return json.dumps(objects, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        return _reference_csv(columns, rows)
    lines = [columns, *([render._table_cell(v) for v in cells] for cells in rows)]
    return "".join("  ".join(f"{text:<13}" for text in line) + "\n" for line in lines)


FORMATS = ["table", "csv", "json"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("row", [(0.0, -0.0), (1, 1.0, True), (-0.0, 0.0, False, 0)], ids=repr)
def test_equal_but_distinct_cells_print_their_own_text(fmt, row):
    """Cells that compare equal but are distinct objects are no repeat: each prints its own."""
    columns = ("a", "b", "c", "d")[:len(row)]
    rows = [list(row)] * 3
    text = _render_block(list(chain.from_iterable(rows)), columns, len(columns), fmt)
    assert text == _cell_by_cell(columns, rows, fmt)
    assert len({render._table_cell(value) for value in row}) == len(row)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("differ", [1, 2])
def test_a_column_sharing_only_its_first_cells_prints_its_own_text(fmt, differ):
    """Column ``b`` holds column ``a``'s objects in its first rows, and other values from row
    ``differ`` on: each column prints its own text."""
    a = [0.25, None, "x,y"]
    b = a[:differ] + [1.5, True, 'say "hi"'][differ:]
    rows = [[x, y, x] for x, y in zip(a, b)]
    columns = ("a", "b", "c")
    text = _render_block(list(chain.from_iterable(rows)), columns, len(columns), fmt)
    assert text == _cell_by_cell(columns, rows, fmt)


#: the cells of a column that repeats, one list per kind of column rule
REPEATED = [
    [i / 7 for i in range(5)], list(range(-2, 3)), [None, 0.5, None], [True, False, True],
    [*Regime], [*Validity], ["plain", "text"], ["row,12", 'say "hi"', "two\nlines"],
    ["50% off", "\u2028é"], [None, "mixed", 1, 2.5, Regime.ZERO, SweepVariable.DELTA],
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("cells", REPEATED, ids=repr)
def test_a_repeated_column_renders_cell_by_cell(fmt, cells):
    """Columns that repeat the one before them, object for object, two in a row and one after
    a column of one object, render as their cells render one by one."""
    columns = ("x", "delta", "again", "fixed", "last", "other")
    rows = [[cell, cell, cell, "f", cell, i] for i, cell in enumerate(cells)]
    text = _render_block(list(chain.from_iterable(rows)), columns, len(columns), fmt)
    assert text == _cell_by_cell(columns, rows, fmt)


@CHECKED
@given(data=st.data(), which=st.integers(0, len(COLUMN_SETS) - 1), count=st.integers(0, 4),
       fmt=st.sampled_from(FORMATS))
def test_drawn_repeats_render_cell_by_cell(data, which, count, fmt):
    """Any column may hold the objects of the column before it, in every row or in some."""
    columns = COLUMN_SETS[which]
    repeats = data.draw(st.lists(st.sampled_from(["no", "all", "some"]),
                                 min_size=len(columns), max_size=len(columns)))
    rows = []
    for _ in range(count):
        cells = []
        for repeat in repeats:
            take = cells and (repeat == "all" or repeat == "some" and data.draw(st.booleans()))
            cells.append(cells[-1] if take else data.draw(CSV_CELL))
        rows.append(cells)
    flat = list(chain.from_iterable(rows))
    try:
        expected = _cell_by_cell(columns, rows, fmt)
    except ValueError:  # JSON refuses a nan or inf cell
        with pytest.raises(ValueError, match="not JSON compliant"):
            _render_block(flat, columns, len(columns), fmt)
        return
    assert _render_block(flat, columns, len(columns), fmt) == expected


# ---------------------------------------------------------------- argv parsing

PARSER = cli._parser()
#: per subcommand, its (flag, add_argument keywords) pairs
FLAGS = {name: flags for name, (_, flags) in cli._COMMANDS.items()}
OPTIONS = sorted({flag for flags in FLAGS.values() for flag, _ in flags})
CHOICES = sorted({c for flags in FLAGS.values() for _, kw in flags for c in kw.get("choices", ())})
ARG_VALUE = st.one_of(
    st.sampled_from(["-137.0", "-1e-05", "1e300", "nan", "inf", "", " -3", "-3", "-.5", "-",
                     "2", "0.5", "1_000", *CHOICES]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=6),
)
ODD_FLAG = st.one_of(
    st.sampled_from([*OPTIONS, "-h", "--help", "--"]),
    st.sampled_from(OPTIONS).flatmap(lambda o: st.integers(2, len(o) - 1).map(lambda k: o[:k])),
    st.tuples(st.sampled_from(OPTIONS), ARG_VALUE).map("=".join),
)


def _valid_value(keywords):
    """A value the flag takes: one of its choices, or a number."""
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    return st.one_of(st.integers(-999, 10**6).map(str),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def argvs(draw):
    """A subcommand, its required flags and a few more pairs, in any order.

    Half the argvs hold only the subcommand's own flags with values they
    take; the rest mix in any value, odd flags and a stray token.
    """
    command = draw(st.sampled_from([*FLAGS, "fly", "", "--help"]))
    flags = FLAGS.get(command, ())
    clean = draw(st.booleans())

    def value(keywords):
        return draw(_valid_value(keywords) if clean
                    else st.one_of(_valid_value(keywords), ARG_VALUE))

    pairs = [(flag, value(kw)) for flag, kw in flags if kw.get("required")]
    for _ in range(draw(st.integers(0, 4))):
        if flags and (clean or draw(st.booleans())):
            flag, kw = draw(st.sampled_from(flags))
            pairs.append((flag, value(kw)))
        else:
            pairs.append((draw(ODD_FLAG), draw(ARG_VALUE)))
    argv = [command, *chain.from_iterable(draw(st.permutations(pairs)))]
    if not clean and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(ODD_FLAG, ARG_VALUE)))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argv=argvs())
@example(argv=["loss", "--d-km", "2", "--f-mhz"])  # an odd token count
@example(argv=["fly", "--d-km", "2"])  # an unknown subcommand
@example(argv=["loss", "-h", "2"])
@example(argv=["loss", "--d-k", "2", "--delta", "0", "--f-mhz", "2400"])  # an abbreviation
@example(argv=["loss", "--d-km=2", "--delta=0", "--f-mhz", "2400"])
@example(argv=["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--", "x"])
@example(argv=["loss", "--d-km", "2", "--delta", "-1e-05", "--f-mhz", "2400"])
@example(argv=["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--out", "-o"])
@example(argv=["loss", "--d-km", "2", "--delta", "-.5", "--f-mhz", "2400"])  # accepted
@example(argv=["loss", "--d-km", "two", "--delta", "0", "--f-mhz", "2400"])  # a type error
@example(argv=["loss", "--d-km", "2", "--delta", "0", "--f-mhz", "2400", "--format", "xml"])
@example(argv=["loss", "--d-km", "2", "--delta", "0"])  # a required flag missing
@example(argv=["loss", "--f-mhz", "1", "--f-mhz", "2", "--delta", "0"])  # the last one wins
def test_fast_parse_matches_argparse(argv):
    """Wherever the table parser accepts an argv, argparse accepts it with an equal Namespace."""
    fast = cli._fast_parse(argv)
    if fast is not None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                reference = PARSER.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
        assert vars(fast) == vars(reference)
