"""Tests for scenario parsing, evaluation and CSV/JSON emission."""

import csv
import io
import json
import math
import re
from decimal import Decimal
from itertools import chain

import pytest

from foliage_link import (
    DomainError,
    LinkGeometry,
    ParseError,
    SchemaError,
    ScenarioNode,
    SweepSpec,
    SweepTable,
    SweepVariable,
    emit_csv,
    emit_json,
    emit_scenario,
    evaluate_scenario,
    link_margin,
    parse_scenario,
    required_tx_power,
    run_sweep,
    total_loss,
)
from foliage_link.render import Batch, render_blocks
from foliage_link.scenario import _REPORT_WIDTH, REPORT_COLUMNS
from foliage_link.sweep import SWEEP_COLUMNS

TOTAL_D2_DELTA0 = 106.07482474751174
TOTAL_D2_DELTA095 = 224.51127789911881
TOTAL_D2_DELTA05 = 199.09901440038047


def scenario_doc(nodes=None):
    if nodes is None:
        nodes = [{"id": "n1", "d_km": 2, "delta": 0.95}]
    return json.dumps(
        {
            "name": "orchard",
            "frequency_mhz": 2400,
            "base_height_m": 30,
            "radio": {
                "tx_power_dbm": 14,
                "tx_gain_dbi": 0,
                "rx_gain_dbi": 0,
                "rx_sensitivity_dbm": -137,
                "required_margin_db": 0,
            },
            "nodes": nodes,
        }
    )


class TestParseScenario:
    def test_minimal_document(self):
        scenario = parse_scenario(scenario_doc())
        assert scenario.name == "orchard"
        assert scenario.frequency_mhz == 2400.0
        assert len(scenario.nodes) == 1
        assert scenario.nodes[0].delta == 0.95
        assert scenario.nodes[0].h_f_m is None

    def test_height_node(self):
        scenario = parse_scenario(scenario_doc([{"id": "n1", "d_km": 2, "h_f_m": 15}]))
        assert scenario.nodes[0].h_f_m == 15.0
        assert scenario.nodes[0].delta is None

    def test_empty_nodes_allowed(self):
        assert parse_scenario(scenario_doc([])).nodes == []

    @pytest.mark.parametrize(
        "mangle, error",
        [
            # malformed JSON text
            (lambda doc: doc[:-5], ParseError),
            # non-finite numbers are not valid JSON
            (lambda doc: doc.replace("2400", "NaN"), ParseError),
            # missing top-level field
            (lambda doc: _drop(doc, "frequency_mhz"), SchemaError),
            # unknown top-level field
            (lambda doc: _add(doc, "comment", "hi"), SchemaError),
            # ill-typed name
            (lambda doc: _set(doc, "name", 7), SchemaError),
            # radio missing a field
            (lambda doc: _drop_radio(doc, "rx_sensitivity_dbm"), SchemaError),
            # nodes not an array
            (lambda doc: _set(doc, "nodes", {}), SchemaError),
            # frequency outside its domain
            (lambda doc: _set(doc, "frequency_mhz", 0), DomainError),
            # negative required margin
            (lambda doc: _set_radio(doc, "required_margin_db", -1), DomainError),
            # boolean is not a number
            (lambda doc: _set_radio(doc, "tx_power_dbm", True), SchemaError),
            # an integer literal beyond the interpreter's 4300-digit limit
            (lambda doc: doc.replace("2400", "1" * 5000), ParseError),
            # radio terms whose budget overflows the float range
            (
                lambda doc: _set_radio(_set_radio(doc, "tx_power_dbm", 1e308), "tx_gain_dbi", 1e308),
                DomainError,
            ),
        ],
    )
    def test_document_level_errors(self, mangle, error):
        with pytest.raises(error):
            parse_scenario(mangle(scenario_doc()))

    @pytest.mark.parametrize(
        "node, error",
        [
            ({"id": "n1", "d_km": 2, "h_f_m": 15, "delta": 0.5}, SchemaError),
            ({"id": "n1", "d_km": 2}, SchemaError),
            ({"id": "n1", "d_km": 2, "delta": 1.2}, DomainError),
            ({"id": "n1", "d_km": 2, "delta": -0.1}, DomainError),
            ({"id": "n1", "d_km": -2, "delta": 0.5}, DomainError),
            ({"id": "n1", "d_km": 2, "h_f_m": -3}, DomainError),
            ({"id": "n1", "d_km": 2, "h_f_m": 31}, DomainError),
            ({"id": 4, "d_km": 2, "delta": 0.5}, SchemaError),
            ({"id": "n1", "d_km": 2, "delta": 0.5, "note": "x"}, SchemaError),
            ({"id": "n1", "d_km": "2", "delta": 0.5}, SchemaError),
            # finite, but infinite in meters
            ({"id": "n1", "d_km": 1e306, "delta": 0.5}, DomainError),
            ({"id": "n1", "d_km": 1e306, "h_f_m": 3}, DomainError),
        ],
    )
    def test_node_level_errors(self, node, error):
        with pytest.raises(error):
            parse_scenario(scenario_doc([node]))

    @pytest.mark.parametrize(
        "nodes, error, message",
        [
            ("7", SchemaError, "nodes[0]: each node must be an object, got 7"),
            ('"n1"', SchemaError, "nodes[0]: each node must be an object, got 'n1'"),
            ("null", SchemaError, "nodes[0]: each node must be an object, got None"),
            ('{"d_km": 2, "delta": 0.5}', SchemaError, "nodes[0]: missing field 'id'"),
            ('{"id": "n1", "delta": 0.5}', SchemaError, "node 'n1': missing field 'd_km'"),
            (
                '{"id": "n1", "d_km": 2, "delta": 0.5, "note": "x"}',
                SchemaError,
                "node 'n1': unknown field 'note'",
            ),
            (
                '{"id": 4, "d_km": 2, "delta": 0.5, "note": "x"}',
                SchemaError,
                "nodes[0]: unknown field 'note'",
            ),
            ('{"id": 4, "d_km": 2, "delta": 0.5}', SchemaError,
             "nodes[0]: field 'id' must be a string, got 4"),
            (
                '{"id": "n1", "d_km": 2, "h_f_m": 15, "delta": 0.5}',
                SchemaError,
                "node 'n1': fields 'h_f_m' and 'delta' are mutually exclusive",
            ),
            ('{"id": "n1", "d_km": 2}', SchemaError, "node 'n1': supply one of 'h_f_m' or 'delta'"),
            ('{"id": "n1", "d_km": true, "delta": 0.5}', SchemaError,
             "node 'n1': field 'd_km' must be a number, got True"),
            ('{"id": "n1", "d_km": "2", "delta": 0.5}', SchemaError,
             "node 'n1': field 'd_km' must be a number, got '2'"),
            ('{"id": "n1", "d_km": 2, "delta": false}', SchemaError,
             "node 'n1': field 'delta' must be a number, got False"),
            ('{"id": "n1", "d_km": 2, "h_f_m": "3"}', SchemaError,
             "node 'n1': field 'h_f_m' must be a number, got '3'"),
            # types are checked before ranges
            ('{"id": "n1", "d_km": -2, "delta": "x"}', SchemaError,
             "node 'n1': field 'delta' must be a number, got 'x'"),
            ('{"id": "n1", "d_km": 1e400, "delta": 0.5}', DomainError,
             "node 'n1': field 'd_km' overflows the float range"),
            ('{"id": "n1", "d_km": 2, "delta": -1e400}', DomainError,
             "node 'n1': field 'delta' overflows the float range"),
            ('{"id": "n1", "d_km": 2, "h_f_m": 1e400}', DomainError,
             "node 'n1': field 'h_f_m' overflows the float range"),
            ('{"id": "n1", "d_km": 0, "delta": 0.5}', DomainError,
             "node 'n1': d_km must be > 0 and finite in meters, got 0.0"),
            ('{"id": "n1", "d_km": -0.0, "delta": 0.5}', DomainError,
             "node 'n1': d_km must be > 0 and finite in meters, got -0.0"),
            ('{"id": "n1", "d_km": -2.5, "h_f_m": 3}', DomainError,
             "node 'n1': d_km must be > 0 and finite in meters, got -2.5"),
            ('{"id": "n1", "d_km": 1e306, "delta": 0.5}', DomainError,
             "node 'n1': d_km must be > 0 and finite in meters, got 1e+306"),
            # the distance is checked before the cover factor
            ('{"id": "n1", "d_km": -2, "delta": 1.5}', DomainError,
             "node 'n1': d_km must be > 0 and finite in meters, got -2.0"),
            ('{"id": "n1", "d_km": 2, "h_f_m": 30.5}', DomainError,
             "node 'n1': h_f_m must lie in [0, h_m=30.0], got 30.5"),
            ('{"id": "n1", "d_km": 2, "h_f_m": -3}', DomainError,
             "node 'n1': h_f_m must lie in [0, h_m=30.0], got -3.0"),
            ('{"id": "n1", "d_km": 2, "delta": 1.2}', DomainError,
             "node 'n1': delta must lie in [0, 1], got 1.2"),
            ('{"id": "n1", "d_km": 2, "delta": -0.0001}', DomainError,
             "node 'n1': delta must lie in [0, 1], got -0.0001"),
            (
                '{"id": "n1", "d_km": 2, "delta": 0.5}, {"id": "n1", "d_km": 1, "delta": 0.2}',
                SchemaError,
                "scenario: duplicate node id 'n1'",
            ),
            # every node is checked before the ids are compared
            (
                '{"id": "n1", "d_km": 2, "delta": 0.5}, {"id": "n1", "d_km": 1, "delta": 0.2},'
                ' {"id": "n2", "d_km": 1, "delta": 2}',
                DomainError,
                "node 'n2': delta must lie in [0, 1], got 2.0",
            ),
            (
                '{"id": "n1", "d_km": 2, "delta": 0.5}, {"id": "n2", "d_km": 1, "delta": 0.2},'
                ' {"id": "n3", "d_km": 1}',
                SchemaError,
                "node 'n3': supply one of 'h_f_m' or 'delta'",
            ),
        ],
    )
    def test_node_rejection_messages(self, nodes, error, message):
        text = scenario_doc(["NODES"]).replace('"NODES"', nodes)
        with pytest.raises(error) as caught:
            parse_scenario(text)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_integer_node_values_are_accepted_as_floats(self):
        nodes = [
            {"id": "a", "d_km": 2, "delta": 0},
            {"id": "b", "d_km": 1, "h_f_m": 30},
            {"id": "c", "d_km": 0.5, "delta": 1},
        ]
        parsed = [
            (node.id, node.d_km, node.h_f_m, node.delta)
            for node in parse_scenario(scenario_doc(nodes)).nodes
        ]
        assert parsed == [("a", 2.0, None, 0.0), ("b", 1.0, 30.0, None), ("c", 0.5, None, 1.0)]
        numbers = [value for node in parsed for value in node[1:] if value is not None]
        assert all(type(value) is float for value in numbers)

    def test_duplicate_node_id(self):
        nodes = [
            {"id": "n1", "d_km": 2, "delta": 0.5},
            {"id": "n1", "d_km": 1, "delta": 0.2},
        ]
        with pytest.raises(SchemaError, match="duplicate"):
            parse_scenario(scenario_doc(nodes))

    def test_error_names_the_node(self):
        with pytest.raises(DomainError, match="n7"):
            parse_scenario(scenario_doc([{"id": "n7", "d_km": 2, "delta": 1.2}]))

    def test_deep_nesting_is_a_parse_error(self):
        """100,000 levels overflow ``json``'s recursion guard at any stack depth."""
        text = '{"name": "x", "nodes": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ParseError, match="^JSON nesting is too deep to parse$"):
            parse_scenario(text)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_scenario("{ not json")

    @pytest.mark.parametrize("node_id", ["\ud800", "ok\udfff", "\udc00\ud800", "é\ud83d"])
    @pytest.mark.parametrize("source", [{"delta": 0.5}, {"h_f_m": 15.0}])
    def test_lone_surrogate_id_names_the_node(self, node_id, source):
        # the JSON text escapes the surrogate as \\udXXX, which json.loads accepts
        text = scenario_doc([{"id": "n1", "d_km": 2.0, "delta": 0.5},
                             {"id": node_id, "d_km": 2.0, **source}])
        assert "\\ud" in text
        with pytest.raises(SchemaError) as caught:
            parse_scenario(text)
        assert type(caught.value) is SchemaError
        assert str(caught.value) == f"nodes[1]: field 'id' holds a lone surrogate, got {node_id!r}"

    def test_non_ascii_ids_are_accepted(self):
        ids = ["é", "✓ node", "𝄞", " "]  # "𝄞" goes to the JSON text as an escaped pair
        nodes = [{"id": node_id, "d_km": 2.0, "delta": 0.5} for node_id in ids]
        assert [node.id for node in parse_scenario(scenario_doc(nodes)).nodes] == ids

    @pytest.mark.parametrize(
        "field, context",
        [("d_km", "node 'n1'"), ("frequency_mhz", "scenario"), ("tx_power_dbm", "radio")],
    )
    @pytest.mark.parametrize(
        "literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["1e400", "-1e400", "10**400"]
    )
    def test_number_beyond_float_range(self, field, context, literal):
        # finite in the JSON text, but float() gives inf or raises OverflowError
        text = re.sub(rf'"{field}": [^,}}]+', f'"{field}": {literal}', scenario_doc(), count=1)
        assert literal in text
        with pytest.raises(DomainError, match=rf"^{context}: field '{field}' overflows"):
            parse_scenario(text)


class TestEvaluateScenario:
    def test_reference_nodes(self):
        nodes = [
            {"id": "heavy", "d_km": 2, "delta": 0.95},
            {"id": "clear", "d_km": 2, "delta": 0},
            {"id": "half", "d_km": 2, "h_f_m": 15},
        ]
        reports = evaluate_scenario(parse_scenario(scenario_doc(nodes)))
        assert [r.id for r in reports] == ["heavy", "clear", "half"]
        heavy, clear, half = reports
        assert heavy.l_total_db == pytest.approx(TOTAL_D2_DELTA095, rel=1e-12)
        assert clear.l_foliage_db == 0.0
        assert clear.validity == "in_domain"
        assert half.delta == 0.5
        assert half.l_total_db == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)

    def test_margin_and_link_ok(self):
        reports = evaluate_scenario(parse_scenario(scenario_doc()))
        report = reports[0]
        # budget 151 dB against ~224.5 dB of loss: link fails
        assert report.margin_db == pytest.approx(151 - TOTAL_D2_DELTA095, abs=1e-9)
        assert report.required_tx_dbm == pytest.approx(
            TOTAL_D2_DELTA095 - 137, abs=1e-9
        )
        assert not report.link_ok

    def test_link_ok_when_budget_clears(self):
        nodes = [{"id": "n1", "d_km": 2, "delta": 0}]
        reports = evaluate_scenario(parse_scenario(scenario_doc(nodes)))
        assert reports[0].link_ok

    def test_full_cover_node_becomes_error_entry(self):
        nodes = [
            {"id": "ok", "d_km": 2, "delta": 0.5},
            {"id": "solid", "d_km": 2, "delta": 1},
            {"id": "wall", "d_km": 2, "h_f_m": 30},
        ]
        reports = evaluate_scenario(parse_scenario(scenario_doc(nodes)))
        assert [r.id for r in reports] == ["ok", "solid", "wall"]
        assert reports[0].error is None
        for report in reports[1:]:
            assert report.error is not None
            assert report.l_total_db is None
            assert not report.link_ok
            assert report.d_fsp_m == 0.0

    def test_zero_free_space_segment_becomes_error_entry(self):
        # 5e-324 km splits into two segments of 2.47e-321 m each, and the
        # free-space one rounds to 0 km: the node is reported, the batch goes on
        nodes = [
            {"id": "speck", "d_km": 5e-324, "delta": 0.5},
            {"id": "ok", "d_km": 2, "delta": 0.5},
        ]
        speck, ok = evaluate_scenario(parse_scenario(scenario_doc(nodes)))
        assert speck.id == "speck"
        assert speck.error == "d_km=5e-324 at delta=0.5 leaves a free-space segment of 0 km"
        assert speck.l_total_db is None and not speck.link_ok
        assert speck.d_f_m == speck.d_fsp_m == 2.47e-321
        assert ok.error is None
        assert ok.l_total_db == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)
        assert json.loads(emit_json([speck, ok]))[0]["error"] == speck.error

    @pytest.mark.parametrize("node, message", [
        (ScenarioNode("a", 1.0), "node 'a': supply one of 'h_f_m' or 'delta'"),
        (ScenarioNode("a", 1.0, 10.0, 0.9),
         "node 'a': fields 'h_f_m' and 'delta' are mutually exclusive"),
    ])
    def test_hand_built_node_needs_exactly_one_cover_source(self, node, message):
        """A node no parse checked: neither source, or both, is refused as the parser refuses it."""
        scenario = parse_scenario(scenario_doc())._replace(nodes=[node])
        with pytest.raises(SchemaError) as raised:
            evaluate_scenario(scenario)
        assert str(raised.value) == message

    def test_hand_built_node_with_negative_distance(self):
        scenario = parse_scenario(scenario_doc())._replace(
            nodes=[ScenarioNode("a", -1.0, delta=0.5)]
        )
        with pytest.raises(DomainError) as raised:
            evaluate_scenario(scenario)
        assert str(raised.value) == "node 'a': d_km must be > 0 and finite in meters, got -1.0"

    @pytest.mark.parametrize("nodes, error, message", [
        ([ScenarioNode("a", "2", delta=0.5)], SchemaError,
         "node 'a': field 'd_km' must be a number, got '2'"),
        ([ScenarioNode("a", Decimal("2"), delta=0.5)], SchemaError,
         "node 'a': field 'd_km' must be a number, got Decimal('2')"),
        ([ScenarioNode(7, 2.0, delta=0.5)], SchemaError,
         "nodes[0]: field 'id' must be a string, got 7"),
        ([ScenarioNode("a", 2.0, delta=0.5)] * 2, SchemaError, "scenario: duplicate node id 'a'"),
    ], ids=["string-d", "decimal-d", "int-id", "repeated-id"])
    def test_refuses_what_the_parser_refuses(self, nodes, error, message):
        """A value that is no number, an id that is no string, and a repeated id raise
        the parser's error, not a bare ``TypeError`` from the arithmetic, nor a report."""
        scenario = parse_scenario(scenario_doc())._replace(nodes=nodes)
        with pytest.raises(error) as raised:
            evaluate_scenario(scenario)
        assert str(raised.value) == message

    @pytest.mark.parametrize("change, error, message", [
        ({"frequency_mhz": -5.0, "nodes": [ScenarioNode("a", 2.0, delta=1.5)]},
         DomainError, "scenario: frequency_mhz must be > 0 and finite, got -5.0"),
        ({"nodes": [ScenarioNode("a", -1.0, h_f_m=40.0)]},
         DomainError, "node 'a': d_km must be > 0 and finite in meters, got -1.0"),
        ({"base_height_m": -3.0, "nodes": [ScenarioNode("a", -1.0, h_f_m=4.0)]},
         DomainError, "scenario: base_height_m must lie in (0, inf), got -3.0"),
        ({"nodes": [ScenarioNode("a", 2.0, delta=1.5), ScenarioNode("b", -1.0, delta=0.5)]},
         DomainError, "node 'a': delta must lie in [0, 1], got 1.5"),
        ({"nodes": [ScenarioNode("a", 1.0), ScenarioNode("b", 2.0, delta=1.5)]},
         SchemaError, "node 'a': supply one of 'h_f_m' or 'delta'"),
        ({"nodes": [ScenarioNode("a", -1.0, delta="x")]},
         SchemaError, "node 'a': field 'delta' must be a number, got 'x'"),
        ({"nodes": [ScenarioNode("a", 2.0, delta=0.5)] * 2 + [ScenarioNode("b", 2.0, delta=1.5)]},
         DomainError, "node 'b': delta must lie in [0, 1], got 1.5"),
    ], ids=["frequency-then-cover", "distance-then-height", "base-then-distance",
            "first-node-first", "no-source-first", "type-then-distance", "node-then-duplicate"])
    def test_hand_built_errors_come_in_order(self, change, error, message):
        """A scenario wrong in two ways raises the first, in the parser's order: the
        frequency, then the base height, then each node in turn (its fields' types, then
        its distance, then its height or cover factor), then a repeated id."""
        scenario = parse_scenario(scenario_doc())._replace(**change)
        with pytest.raises(error) as raised:
            evaluate_scenario(scenario)
        assert str(raised.value) == message

    #: the radio of ``scenario_doc``, and one whose sums round differently by order
    #: ((14.1 + 0.7) + 2.3 != 14.1 + (0.7 + 2.3))
    @pytest.mark.parametrize("radio", [
        None,
        {"tx_power_dbm": 14.1, "tx_gain_dbi": 0.7, "rx_gain_dbi": 2.3,
         "rx_sensitivity_dbm": -137.3, "required_margin_db": 9.9},
    ], ids=["doc-radio", "fractional-radio"])
    def test_rows_equal_total_loss(self, radio):
        # the batch evaluates through the hoisted loss core and hoisted radio
        # sums; every row must equal the checked scalar path at its node, bit
        # for bit
        nodes = [{"id": "speck", "d_km": 5e-324, "delta": 0.5}]
        for i in range(400):
            d_km = 10 ** (-3 + 5.5 * ((i * 0.6180339887) % 1.0))
            cover = (i * 0.7548776662) % 1.0
            node = {"id": f"n{i}", "d_km": d_km}
            if i % 3 == 0:
                node["h_f_m"] = 30 * cover
            else:
                node["delta"] = 1.0 if i % 50 == 1 else cover
            nodes.append(node)
        doc = json.loads(scenario_doc(nodes))
        doc["radio"] = radio or doc["radio"]
        scenario = parse_scenario(json.dumps(doc))
        reports = evaluate_scenario(scenario)
        full_cover = [node["id"] for node in nodes if node.get("delta") == 1.0]
        assert [r.id for r in reports if r.error is not None] == ["speck", *full_cover]
        radio = scenario.radio
        for node, report in zip(scenario.nodes, reports):
            if report.error is not None:
                continue
            if node.h_f_m is not None:
                geometry = LinkGeometry(d_km=node.d_km, h_m=30.0, h_f_m=node.h_f_m)
            else:
                geometry = LinkGeometry(d_km=node.d_km, delta=node.delta)
            b = total_loss(geometry, 2400.0)
            margin = link_margin(radio, b.l_total_db)
            assert tuple(report) == (
                node.id, b.split.delta, b.split.d_f_m, b.split.d_fsp_m, b.l_foliage_db,
                b.l_fsp_db, b.l_total_db, b.foliage.regime, b.foliage.validity, margin,
                required_tx_power(radio, b.l_total_db), margin >= radio.required_margin_db, None,
            )


class TestEmitCsv:
    def test_sweep_header_and_shape(self):
        spec = SweepSpec(
            variable=SweepVariable.DELTA,
            stop=0.95,
            steps=2,
            base=LinkGeometry(d_km=2.0, delta=0.0),
            f_mhz=2400.0,
        )
        text = emit_csv(run_sweep(spec))
        lines = text.split("\n")
        assert lines[0] == "x,delta,d_f_m,d_fsp_m,l_foliage_db,l_fsp_db,l_total_db,regime,validity"
        assert len(lines) == 4 and lines[-1] == ""  # header + 2 rows + trailing LF
        assert "\r" not in text

    def test_sweep_numbers_reparse_bit_exact(self):
        spec = SweepSpec(
            variable=SweepVariable.DELTA,
            stop=0.93,
            steps=17,
            base=LinkGeometry(d_km=1.7, delta=0.07),
            f_mhz=912.3,
        )
        table = run_sweep(spec)
        rows = list(csv.DictReader(io.StringIO(emit_csv(table))))
        assert len(rows) == len(table.rows)
        for parsed, row in zip(rows, table.rows):
            for name in SWEEP_COLUMNS[:7]:
                assert float(parsed[name]) == getattr(row, name)
            assert parsed["regime"] == row.regime.value
            assert parsed["validity"] == row.validity.value

    def test_report_csv(self):
        reports = evaluate_scenario(parse_scenario(scenario_doc()))
        text = emit_csv(reports)
        lines = text.split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        parsed = next(csv.DictReader(io.StringIO(text)))
        assert parsed["id"] == "n1"
        assert float(parsed["l_total_db"]) == reports[0].l_total_db
        assert parsed["link_ok"] == "false"

    def test_empty_inputs(self):
        assert emit_csv([]) == ",".join(REPORT_COLUMNS) + "\n"
        assert emit_csv(SweepTable("delta", [])) == ",".join(SWEEP_COLUMNS) + "\n"

    def test_a_bool_in_any_column_is_written_true(self):
        """As in a table and in JSON: here a report's id, which no scenario can hold."""
        reports = [evaluate_scenario(parse_scenario(scenario_doc()))[0]._replace(id=True)]
        assert emit_csv(reports).splitlines()[1].split(",")[0] == "true"
        batch = Batch(REPORT_COLUMNS, _REPORT_WIDTH, [list(chain.from_iterable(reports))])
        table = "".join(render_blocks(batch, "table"))
        assert table.splitlines()[1].split()[0] == "true"
        assert emit_json(reports).splitlines()[2] == '    "id": true,'


class TestEmitJson:
    def test_empty_list(self):
        assert emit_json([]) == "[]"

    def test_single_report_fields(self):
        reports = evaluate_scenario(parse_scenario(scenario_doc()))
        objects = json.loads(emit_json(reports))
        assert len(objects) == 1
        assert list(objects[0]) == list(REPORT_COLUMNS)  # all 12 fields, stable order
        assert objects[0]["l_total_db"] == reports[0].l_total_db
        assert objects[0]["link_ok"] is False

    def test_error_entry_carries_error_key(self):
        nodes = [{"id": "solid", "d_km": 2, "delta": 1}]
        objects = json.loads(emit_json(evaluate_scenario(parse_scenario(scenario_doc(nodes)))))
        assert objects[0]["l_total_db"] is None
        assert "error" in objects[0]

    def test_round_trip_values(self):
        reports = evaluate_scenario(parse_scenario(scenario_doc()))
        objects = json.loads(emit_json(reports))
        assert objects[0]["margin_db"] == reports[0].margin_db


def _two_reports():
    nodes = [{"id": "a", "d_km": 2, "delta": 0.25}, {"id": "b", "d_km": 2, "delta": 0.25}]
    return evaluate_scenario(parse_scenario(scenario_doc(nodes)))


#: each emitter call on rows that are not records of the right width, and what it raises
_BAD_ROWS = {
    "short-then-long-csv": (lambda r0, r1: emit_csv([r0[:-1], r1 + ("x",)]), SchemaError,
                            "reports[0] must be a tuple or list of 13 cells, got tuple of 12"),
    "short-then-long-json": (lambda r0, r1: emit_json([r0[:-1], r1 + ("x",)]), SchemaError,
                             "reports[0] must be a tuple or list of 13 cells, got tuple of 12"),
    "long-json": (lambda r0, r1: emit_json([r0, list(r1) + ["x"]]), SchemaError,
                  "reports[1] must be a tuple or list of 13 cells, got list of 14"),
    "ragged-sweep-table": (
        lambda r0, r1: emit_csv(SweepTable("delta", [(0.5,) * 9, [0.5] * 8])), SchemaError,
        "rows[1] must be a tuple or list of 9 cells, got list of 8"),
    "one-cell-json": (lambda r0, r1: emit_json([("a",)]), SchemaError,
                      "reports[0] must be a tuple or list of 13 cells, got tuple of 1"),
    "two-cells-csv": (lambda r0, r1: emit_csv([("a", 0.5)]), SchemaError,
                      "reports[0] must be a tuple or list of 13 cells, got tuple of 2"),
    "none-csv": (lambda r0, r1: emit_csv(None), SchemaError,
                 "reports must be iterable, got NoneType"),
    "none-json": (lambda r0, r1: emit_json(None), SchemaError,
                  "reports must be iterable, got NoneType"),
    "int-row-csv": (lambda r0, r1: emit_csv([1]), SchemaError,
                    "reports[0] must be a tuple or list of 13 cells, got int"),
    "str-row-json": (lambda r0, r1: emit_json(["a" * 13]), SchemaError,
                     "reports[0] must be a tuple or list of 13 cells, got str"),
    "nan-json": (lambda r0, r1: emit_json([r0, r1._replace(margin_db=math.nan)]), DomainError,
                 "reports[1]: field 'margin_db' is nan, which is not JSON compliant"),
    "inf-error-json": (lambda r0, r1: emit_json([r0._replace(error=-math.inf)]), DomainError,
                       "reports[0]: field 'error' is -inf, which is not JSON compliant"),
}


class TestEmitRowChecks:
    """``emit_csv`` and ``emit_json`` refuse a row that is not a record of the right width, and
    JSON a non-finite float, by a named error that says which row."""

    @pytest.mark.parametrize("case", sorted(_BAD_ROWS))
    def test_refused(self, case):
        call, error, message = _BAD_ROWS[case]
        with pytest.raises(error) as raised:
            call(*_two_reports())
        assert str(raised.value) == message

    def test_any_iterable_of_rows(self):
        reports = _two_reports()
        for emit in (emit_csv, emit_json):
            text = emit(reports)
            assert emit(iter(reports)) == emit(report for report in reports) == text
            assert emit(list(map(list, reports))) == emit(tuple(reports)) == text


def _with_dict_radio(scenario):
    return scenario._replace(radio=scenario.radio._asdict())


def _with_dict_nodes(scenario):
    return scenario._replace(nodes={node.id: node for node in scenario.nodes})


class TestWrongTypes:
    """An entry given a value of the wrong type raises a named error that names the type."""

    CALLS = {
        "parse_scenario(None)": (
            lambda: parse_scenario(None), ParseError, "scenario text must be a str, got NoneType"),
        # json.loads would read bytes; the entry takes a str alone
        "parse_scenario(bytes)": (
            lambda: parse_scenario(scenario_doc().encode()), ParseError,
            "scenario text must be a str, got bytes"),
        "evaluate_scenario({})": (
            lambda: evaluate_scenario({}), SchemaError, "scenario must be a Scenario, got dict"),
        "evaluate_scenario(None)": (
            lambda: evaluate_scenario(None), SchemaError,
            "scenario must be a Scenario, got NoneType"),
        "emit_scenario({})": (
            lambda: emit_scenario({}), SchemaError, "scenario must be a Scenario, got dict"),
        "emit_scenario('x')": (
            lambda: emit_scenario("x"), SchemaError, "scenario must be a Scenario, got str"),
        # a Scenario whose radio or nodes cannot be iterated, refused before the head's checks
        "evaluate_scenario(nodes=None)": (
            lambda: evaluate_scenario(parse_scenario(scenario_doc())._replace(nodes=None)),
            SchemaError, "scenario: field 'nodes' must be iterable, got NoneType"),
        "evaluate_scenario(radio=None)": (
            lambda: evaluate_scenario(parse_scenario(scenario_doc())._replace(radio=None)),
            SchemaError, "scenario: field 'radio' must be iterable, got NoneType"),
        "emit_scenario(nodes=5)": (
            lambda: emit_scenario(parse_scenario(scenario_doc())._replace(nodes=5)),
            SchemaError, "scenario: field 'nodes' must be iterable, got int"),
        # a dict radio iterates over its keys, which would be read as the values
        "evaluate_scenario(radio=dict)": (
            lambda: evaluate_scenario(_with_dict_radio(parse_scenario(scenario_doc()))),
            SchemaError,
            "scenario: field 'radio' is a dict, not a RadioConfig"),
        "emit_scenario(radio=dict)": (
            lambda: emit_scenario(_with_dict_radio(parse_scenario(scenario_doc()))),
            SchemaError,
            "scenario: field 'radio' is a dict, not a RadioConfig"),
        # a str or dict iterates over items the caller never wrote as values
        "evaluate_scenario(radio=str)": (
            lambda: evaluate_scenario(parse_scenario(scenario_doc())._replace(radio="abcde")),
            SchemaError, "scenario: field 'radio' is a str, not a RadioConfig"),
        "emit_scenario(radio=str)": (
            lambda: emit_scenario(parse_scenario(scenario_doc())._replace(radio="abcde")),
            SchemaError, "scenario: field 'radio' is a str, not a RadioConfig"),
        "evaluate_scenario(nodes=dict)": (
            lambda: evaluate_scenario(_with_dict_nodes(parse_scenario(scenario_doc()))),
            SchemaError, "scenario: field 'nodes' is a dict, not a list of nodes"),
        "emit_scenario(nodes=dict)": (
            lambda: emit_scenario(_with_dict_nodes(parse_scenario(scenario_doc()))),
            SchemaError, "scenario: field 'nodes' is a dict, not a list of nodes"),
        "evaluate_scenario(nodes=str)": (
            lambda: evaluate_scenario(parse_scenario(scenario_doc())._replace(nodes="ab")),
            SchemaError, "scenario: field 'nodes' is a str, not a list of nodes"),
        "emit_scenario(nodes=str)": (
            lambda: emit_scenario(parse_scenario(scenario_doc())._replace(nodes="ab")),
            SchemaError, "scenario: field 'nodes' is a str, not a list of nodes"),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_raises_a_named_error(self, call):
        function, error, message = self.CALLS[call]
        with pytest.raises(error) as raised:
            function()
        assert str(raised.value) == message

    @pytest.mark.parametrize("kind", [tuple, list, iter])
    def test_other_iterables_stay_accepted(self, kind):
        scenario = parse_scenario(scenario_doc())
        for entry in (evaluate_scenario, emit_scenario):
            changed = scenario._replace(radio=kind(scenario.radio), nodes=kind(scenario.nodes))
            assert entry(changed) == entry(scenario)


class TestScenarioRoundTrip:
    def test_emit_parse_fixed_point(self):
        scenario = parse_scenario(scenario_doc([
            {"id": "a", "d_km": 2, "delta": 0.95},
            {"id": "b", "d_km": 1.5, "h_f_m": 12.25},
        ]))
        emitted = emit_scenario(scenario)
        reparsed = parse_scenario(emitted)
        assert reparsed == scenario
        assert emit_scenario(reparsed) == emitted

    @pytest.mark.parametrize("change, error, message", [
        ({"nodes": [ScenarioNode("a", 2.0)]}, SchemaError,
         "node 'a': supply one of 'h_f_m' or 'delta'"),
        ({"nodes": [ScenarioNode("a", 2.0, h_f_m=15.0, delta=0.5)]}, SchemaError,
         "node 'a': fields 'h_f_m' and 'delta' are mutually exclusive"),
        ({"nodes": [ScenarioNode("a", -1.0, delta=0.5)]}, DomainError,
         "node 'a': d_km must be > 0 and finite in meters, got -1.0"),
        ({"nodes": [ScenarioNode("a", 2.0, delta=1.5)]}, DomainError,
         "node 'a': delta must lie in [0, 1], got 1.5"),
        ({"base_height_m": -30.0}, DomainError,
         "scenario: base_height_m must lie in (0, inf), got -30.0"),
        ({"nodes": [ScenarioNode("a", 2.0, delta=0.5)] * 2}, SchemaError,
         "scenario: duplicate node id 'a'"),
        # values JSON cannot hold, refused as the parser refuses the literal 1e400
        ({"nodes": [ScenarioNode("a", math.nan, delta=0.5)]}, DomainError,
         "node 'a': field 'd_km' is NaN, which JSON cannot hold"),
        ({"base_height_m": math.inf}, DomainError,
         "scenario: field 'base_height_m' overflows the float range"),
        ({"nodes": [ScenarioNode("a", 2.0, delta=-math.inf)]}, DomainError,
         "node 'a': field 'delta' overflows the float range"),
        ({"nodes": [ScenarioNode("a", Decimal("2"), delta=0.5)]}, SchemaError,
         "node 'a': field 'd_km' must be a number, got Decimal('2')"),
        ({"frequency_mhz": 10**4999}, DomainError,
         "scenario: field 'frequency_mhz' overflows the float range"),
    ], ids=["no-cover", "both-covers", "negative-d", "delta-1.5", "negative-base", "repeated-id",
            "nan-d", "inf-base", "minus-inf-delta", "decimal-d", "5000-digit-frequency"])
    def test_refuses_what_the_parser_refuses(self, change, error, message):
        scenario = parse_scenario(scenario_doc())._replace(**change)
        with pytest.raises(error) as raised:
            emit_scenario(scenario)
        assert str(raised.value) == message

    @pytest.mark.parametrize("node", [
        ScenarioNode("a", 2.0, delta=0.5),
        ("a", 2.0, None, 0.5),
        {"id": "a", "d_km": 2.0, "delta": 0.5},
        {"delta": 0.5, "id": "a", "d_km": 2},  # another key order, an integer distance
        {"id": "a", "d_km": 2.0, "h_f_m": 15.0},
    ], ids=["record", "tuple", "dict", "reordered-dict", "height-dict"])
    def test_hand_built_node_of_every_kind(self, node):
        """A record, a plain tuple and a dict node are each evaluated, and emitted as text
        that re-parses to the same reports."""
        nodes = [node, ScenarioNode("b", 1.5, h_f_m=12.25)]
        scenario = parse_scenario(scenario_doc())._replace(nodes=nodes)
        reports = evaluate_scenario(scenario)
        assert reports[0].l_total_db == pytest.approx(TOTAL_D2_DELTA05, rel=1e-12)
        assert evaluate_scenario(parse_scenario(emit_scenario(scenario))) == reports

    @pytest.mark.parametrize("node, error", [
        ({"id": "a", "d_km": "2", "delta": 0.5}, SchemaError),
        ({"id": "a", "d_km": 2.0}, SchemaError),
        ({"id": "a", "d_km": 2.0, "delta": 0.5, "x": 1}, SchemaError),
        ({"id": "a", "d_km": -1.0, "delta": 0.5}, DomainError),
        ({"id": 7, "d_km": 2.0, "delta": 0.5}, SchemaError),
        ("a", SchemaError),
    ], ids=["string-d", "no-cover", "unknown-field", "negative-d", "int-id", "not-an-object"])
    def test_malformed_dict_node_gets_the_parsers_message(self, node, error):
        """Both entries refuse a hand-built node with what the parser says of its JSON."""
        with pytest.raises(error) as parsed:
            parse_scenario(scenario_doc([node]))
        scenario = parse_scenario(scenario_doc())._replace(nodes=[node])
        for entry in (evaluate_scenario, emit_scenario):
            with pytest.raises(error) as raised:
                entry(scenario)
            assert str(raised.value) == str(parsed.value)

    def test_evaluation_is_deterministic(self):
        text = scenario_doc([
            {"id": "a", "d_km": 2, "delta": 0.95},
            {"id": "b", "d_km": 1.5, "h_f_m": 12.25},
        ])
        first = emit_json(evaluate_scenario(parse_scenario(text)))
        second = emit_json(evaluate_scenario(parse_scenario(text)))
        assert first == second
        assert emit_csv(evaluate_scenario(parse_scenario(text))) == emit_csv(
            evaluate_scenario(parse_scenario(text))
        )


def _drop(doc: str, key: str) -> str:
    obj = json.loads(doc)
    del obj[key]
    return json.dumps(obj)


def _add(doc: str, key: str, value) -> str:
    obj = json.loads(doc)
    obj[key] = value
    return json.dumps(obj)


def _set(doc: str, key: str, value) -> str:
    return _add(doc, key, value)


def _drop_radio(doc: str, key: str) -> str:
    obj = json.loads(doc)
    del obj["radio"][key]
    return json.dumps(obj)


def _set_radio(doc: str, key: str, value) -> str:
    obj = json.loads(doc)
    obj["radio"][key] = value
    return json.dumps(obj)
