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
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

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
    Regime,
    Scenario,
    ScenarioNode,
    SweepRow,
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
from foliage_link.cli import run

from render_digest import ODD_IDS

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


#: every column tuple render.py defines, with the named tuple that renders by it, if any
COLUMN_SETS = [
    (render.SWEEP_COLUMNS, SweepRow),
    (render.REPORT_COLUMNS, NodeReport),
    (render.LOSS_COLUMNS, None),
    (render.SOLVE_COLUMNS, None),
    (render.BOUNDS_COLUMNS, None),
]
#: strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.one_of(
    st.text(), st.sampled_from(['a"b', "c\\d", "\x00\x1f\x7f\n\t", "é✓€𝄞", "\u2028"])
)
CELL = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(),
    st.sampled_from([*Regime, *Validity]), TEXT,
)


def _record(columns, cells, error, named):
    """A record whose ``columns`` hold ``cells``: a named tuple or nested namespaces."""
    if named is not None:
        return named(*cells, **({} if named is SweepRow else {"error": error}))
    record = SimpleNamespace()
    for column, value in zip(columns, cells):
        *parents, name = column.split(".")
        node = record
        for part in parents:
            node = node.__dict__.setdefault(part, SimpleNamespace())
        setattr(node, name, value)
    if error is not None:
        record.error = error
    return record


def _reference_object(columns, cells, error):
    obj = {column.rpartition(".")[2]: value for column, value in zip(columns, cells)}
    if error is not None:
        obj["error"] = error
    return obj


@CHECKED
@given(data=st.data(), which=st.integers(0, len(COLUMN_SETS) - 1), single=st.booleans(),
       count=st.integers(0, 3), named=st.booleans())
def test_to_json_matches_json_dumps(data, which, single, count, named):
    columns, named_type = COLUMN_SETS[which]
    named_type = named_type if named and not single else None
    rows = []
    for _ in range(1 if single else count):
        cells = data.draw(st.lists(CELL, min_size=len(columns), max_size=len(columns)))
        error = None if named_type is SweepRow else data.draw(st.one_of(st.none(), TEXT))
        rows.append((cells, error))
    records = [_record(columns, cells, error, named_type) for cells, error in rows]
    objects = [_reference_object(columns, cells, error) for cells, error in rows]
    try:
        expected = json.dumps(objects[0] if single else objects, indent=2, allow_nan=False)
    except ValueError:  # a nan or inf cell
        with pytest.raises(ValueError, match="not JSON compliant"):
            render.to_json(records[0] if single else records, columns)
        return
    assert render.to_json(records[0] if single else records, columns) == expected


@pytest.mark.parametrize("columns", [columns for columns, _ in COLUMN_SETS])
def test_to_json_of_no_records(columns):
    assert render.to_json([], columns) == json.dumps([], indent=2) == "[]"


@pytest.mark.parametrize("value", [nan, inf, -inf])
@pytest.mark.parametrize("single", [True, False])
def test_to_json_refuses_a_non_finite_cell(value, single):
    record = _record(render.BOUNDS_COLUMNS, [0.0, 1.0, value, 0.0, 1.0], None, None)
    with pytest.raises(ValueError, match="not JSON compliant"):
        render.to_json(record if single else [record], render.BOUNDS_COLUMNS)


def test_only_a_list_is_a_batch():
    """A lone record is a named tuple, and still renders as one record."""
    bounds, columns = delta_bounds(0.1, 0.9, 0.5), render.BOUNDS_COLUMNS
    assert json.loads(render.to_json(bounds, columns)) == bounds._asdict()
    assert json.loads(render.to_json([bounds], columns)) == [bounds._asdict()]
    table = render.render(bounds, columns, "table").splitlines()
    assert [line.split() for line in table] == [
        [name, f"{value:.7f}"] for name, value in bounds._asdict().items()
    ]
    assert render.to_csv(bounds, columns) == render.to_csv([bounds], columns)
    assert render.to_csv(bounds, columns).count("\n") == 2


#: node values: any float, and ints as a hand-built ``ScenarioNode`` may hold them
NODE_VALUE = st.one_of(st.floats(), st.integers(-10**6, 10**6), SPECIAL)


@CHECKED
@given(name=TEXT, frequency_mhz=NODE_VALUE, base_height_m=NODE_VALUE,
       radio=st.lists(st.floats(0.0, 200.0), min_size=5, max_size=5),
       nodes=st.lists(st.tuples(TEXT, NODE_VALUE, st.booleans(),
                                st.one_of(st.none(), NODE_VALUE)), max_size=4))
def test_emit_scenario_matches_json_dumps(name, frequency_mhz, base_height_m, radio, nodes):
    radio = RadioConfig(*radio)
    nodes = [
        ScenarioNode(node_id, d_km, value, None) if by_height and value is not None
        else ScenarioNode(node_id, d_km, None, value)
        for node_id, d_km, by_height, value in nodes
    ]
    scenario = Scenario(name, frequency_mhz, base_height_m, radio, nodes)
    doc = {
        "name": name,
        "frequency_mhz": frequency_mhz,
        "base_height_m": base_height_m,
        "radio": radio._asdict(),
        "nodes": [
            {"id": node.id, "d_km": node.d_km,
             **({"h_f_m": node.h_f_m} if node.h_f_m is not None else {"delta": node.delta})}
            for node in nodes
        ],
    }
    try:
        expected = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:  # a nan or inf value
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_scenario(scenario)
        return
    assert emit_scenario(scenario) == expected


#: the columns whose bools CSV writes ``true``/``false``; csv.writer writes any other bool
#: as ``True``/``False``
CSV_BOOL_COLUMNS = {"link_ok", "converged", "all_feasible"}
#: cells for CSV: the JSON cells, strings that csv.writer quotes, and an enum that is not
#: the package's own
CSV_CELL = st.one_of(
    CELL,
    st.sampled_from(["row,12", 'say "hi"', "cr\rlf", "two\nlines", '"', ",", "\r\n", ""]),
    st.sampled_from(list(SweepVariable)),
)
PLAIN_CELL = st.one_of(st.floats(), st.integers(), st.sampled_from([*Regime, *Validity]))


def _reference_csv(columns, rows):
    """What ``csv.writer`` writes for the rows, with LF line endings.

    Each row is written with a CRLF terminator, then given an LF one: before
    Python 3.13, ``csv.writer`` quotes a lone ``\\r`` or ``\\n`` only when the
    line terminator holds it.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    lines = []
    for cells in [[column.rpartition(".")[2] for column in columns], *rows]:
        writer.writerow([
            ("false", "true")[value] if type(value) is bool and column in CSV_BOOL_COLUMNS
            else value
            for column, value in zip(columns, cells)
        ])
        lines.append(out.getvalue()[:-2] + "\n")
        out.seek(0)
        out.truncate()
    return "".join(lines)


@CHECKED
@given(data=st.data(), which=st.integers(0, len(COLUMN_SETS) - 1), single=st.booleans(),
       count=st.integers(1, 3), named=st.booleans(), plain=st.booleans())
def test_csv_matches_csv_writer(data, which, single, count, named, plain):
    columns, named_type = COLUMN_SETS[which]
    named_type = named_type if named and not single else None
    # plain: floats, ints and the package's enums only, a batch that renders by template
    cell = PLAIN_CELL if plain else CSV_CELL
    rows = [
        data.draw(st.lists(cell, min_size=len(columns), max_size=len(columns)))
        for _ in range(1 if single else count)
    ]
    records = [_record(columns, cells, None, named_type) for cells in rows]
    expected = _reference_csv(columns, rows)
    assert render.to_csv(records[0] if single else records, columns) == expected
    assert render.render(records[0] if single else records, columns, "csv") == expected


def test_to_csv_of_a_long_mixed_batch():
    """A few cells to convert among many plain ones (non-finite floats among them)."""
    rows = [[i / 7, float(i), 1.0, 2.0, 3.0, 4.0, 5.0, Regime.POWER, Validity.IN_DOMAIN]
            for i in range(250)]
    rows[3][1:4] = [nan, inf, -inf]
    rows[125][4] = None
    rows[-1][0] = "last,row"
    records = [SweepRow(*cells) for cells in rows]
    assert render.to_csv(records, render.SWEEP_COLUMNS) == _reference_csv(
        render.SWEEP_COLUMNS, rows
    )


@pytest.mark.parametrize("columns", [columns for columns, _ in COLUMN_SETS])
def test_to_csv_of_no_records(columns):
    assert render.to_csv([], columns) == _reference_csv(columns, [])
    assert render.to_csv([], columns) == ",".join(c.rpartition(".")[2] for c in columns) + "\n"


#: a scenario node: id, d_km (an int goes through the field-by-field check), cover source
#: ("full" is delta 1, an error row) and cover share; a share of 1 by height is full cover too
SCENARIO_NODE = st.tuples(
    st.sampled_from(ODD_IDS),
    st.one_of(st.floats(1e-3, 30.0), st.integers(1, 30)),
    st.sampled_from(["delta", "h_f_m", "full"]),
    st.one_of(st.floats(0.0, 1.0), st.just(1.0)),
)


@CHECKED
@given(nodes=st.lists(SCENARIO_NODE, max_size=50), fmt=st.sampled_from(["csv", "json"]))
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
    expected = emit_csv(reports) if fmt == "csv" else emit_json(reports, end="\n")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        assert run(["scenario", "--file", str(path), "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == expected


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
