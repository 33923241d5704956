"""Deployment-scenario ingestion, per-node evaluation and CSV/JSON emission.

A scenario document is strict JSON: unknown fields are rejected, types are
checked, and every value is validated against its physical domain at parse
time. One gateway (frequency, antenna height, radio) serves many nodes;
each node gives its distance and either a foliage height or a cover
factor, never both.

Two loops do the work: ``_node_values`` validates each node to its
``(id, d_km, h_f_m, delta)``, and ``_report_cells`` evaluates those to one
flat list of report cells. ``parse_scenario`` and ``evaluate_scenario``
build their records from them, and ``_scenario_cells`` chains them for the
CLI, whose CSV and JSON are rendered from the cells with no record built.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Sequence

from .budget import RadioConfig
from .errors import (
    DomainError,
    EmptyInput,
    FoliageLinkError,
    ParseError,
    SchemaError,
)
from .propagation import (
    LinkGeometry,
    Regime,
    Validity,
    _LossCore,
    delta_from_heights,
    foliage_split,
    total_loss,  # noqa: F401  not called here; perfbench/spans.py wraps it by this name
)
from .render import (
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    _json_array,
    _json_cells,
    _json_template,
    to_csv,
    to_json,
)

_SCENARIO_KEYS = ("name", "frequency_mhz", "base_height_m", "radio", "nodes")
_RADIO_KEYS = (
    "tx_power_dbm",
    "tx_gain_dbi",
    "rx_gain_dbi",
    "rx_sensitivity_dbm",
    "required_margin_db",
)


class ScenarioNode(NamedTuple):
    """One sensor node: distance plus exactly one cover-factor source."""

    id: str
    d_km: float
    h_f_m: float | None = None
    delta: float | None = None


class Scenario(NamedTuple):
    name: str
    frequency_mhz: float
    base_height_m: float
    radio: RadioConfig
    nodes: list[ScenarioNode]


class NodeReport(NamedTuple):
    """Evaluated link quality for one node.

    A node whose evaluation fails (full foliage cover, or a free-space
    segment that rounds to 0 km) still yields a report: its geometry fields
    are filled, the loss and budget fields are None, ``link_ok`` is False
    and ``error`` holds the diagnostic.
    """

    id: str
    delta: float
    d_f_m: float
    d_fsp_m: float
    l_foliage_db: float | None
    l_fsp_db: float | None
    l_total_db: float | None
    regime: Regime | None
    validity: Validity | None
    margin_db: float | None
    required_tx_dbm: float | None
    link_ok: bool
    error: str | None = None


def _reject_constant(token: str) -> None:
    raise ParseError(f"non-finite number literal {token!r} is not valid JSON")


def _read_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter's int-string limit
        raise ParseError(f"integer literal of {len(token)} characters is too long") from None


def _check_keys(obj: dict, required: Sequence[str], context: str) -> None:
    for key in required:
        if key not in obj:
            raise SchemaError(f"{context}: missing field '{key}'")
    for key in obj:
        if key not in required:
            raise SchemaError(f"{context}: unknown field '{key}'")


def _string(obj: dict, key: str, context: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"{context}: field '{key}' must be a string, got {value!r}")
    return value


def _is_unicode(text: str) -> bool:
    """False when ``text`` holds a lone surrogate (a JSON ``"\\ud800"``), which
    no UTF-8 output can carry."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _number(obj: dict, key: str, context: str) -> float:
    value = obj[key]
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{context}: field '{key}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):  # a literal such as 1e400 parses as inf
        raise DomainError(f"{context}: field '{key}' overflows the float range")
    return number


def _node_values(raw_nodes: list, base_height_m: float):
    """Each node's ``(id, d_km, h_f_m, delta)``, validated, in document order.

    A node of exactly ``id``, ``d_km`` and one cover-factor source, holding a
    string that UTF-8 can carry and floats inside the model's domain, is
    accepted by the first test; that test is ``LinkGeometry``'s domain rule
    written inline, and it encodes only a non-ASCII id. Any other node goes
    to ``_parse_node``, which accepts it or raises its error.
    """
    for index, raw in enumerate(raw_nodes):
        if type(raw) is dict and len(raw) == 3:
            node_id, d_km = raw.get("id"), raw.get("d_km")
            h_f_m, delta = raw.get("h_f_m"), raw.get("delta")
            if (
                type(node_id) is str
                and (node_id.isascii() or _is_unicode(node_id))
                and type(d_km) is float
                and 0.0 < d_km * 1000.0 < math.inf
                and (
                    type(delta) is float and 0.0 <= delta <= 1.0
                    if h_f_m is None
                    else type(h_f_m) is float and 0.0 <= h_f_m <= base_height_m
                )
            ):
                yield node_id, d_km, h_f_m, delta
                continue
        yield _parse_node(raw, index, base_height_m)


def _parse_node(raw: object, index: int, base_height_m: float) -> tuple:
    """``(id, d_km, h_f_m, delta)`` of a node that ``_node_values``' first test refused.

    The node is checked field by field, in a fixed order, so the first rule
    it breaks names itself, and ``LinkGeometry`` raises the domain error, so
    those messages are written once.
    """
    context = f"nodes[{index}]"
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: each node must be an object, got {raw!r}")
    if "id" in raw and isinstance(raw["id"], str) and _is_unicode(raw["id"]):
        context = f"node '{raw['id']}'"
    has_height = "h_f_m" in raw
    has_delta = "delta" in raw
    if has_height and has_delta:
        raise SchemaError(f"{context}: fields 'h_f_m' and 'delta' are mutually exclusive")
    if not has_height and not has_delta:
        raise SchemaError(f"{context}: supply one of 'h_f_m' or 'delta'")
    keys = ("id", "d_km", "h_f_m") if has_height else ("id", "d_km", "delta")
    _check_keys(raw, keys, context)
    node_id = _string(raw, "id", context)
    if not _is_unicode(node_id):
        raise SchemaError(f"{context}: field 'id' holds a lone surrogate, got {node_id!r}")
    d_km = _number(raw, "d_km", context)
    h_f_m = _number(raw, "h_f_m", context) if has_height else None
    delta = None if has_height else _number(raw, "delta", context)
    h_m = base_height_m if has_height else None
    try:  # the model's own domain rule; a node of integer values also passes here
        LinkGeometry(d_km, h_m=h_m, h_f_m=h_f_m, delta=delta)
    except FoliageLinkError as exc:
        raise DomainError(f"{context}: {exc}") from exc
    return node_id, d_km, h_f_m, delta


def _scenario_head(text: str) -> tuple[str, float, float, RadioConfig, list]:
    """The document's name, frequency, base height and radio, all checked, and its raw nodes."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_int=_read_int)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"scenario: top level must be an object, got {doc!r}")
    _check_keys(doc, _SCENARIO_KEYS, "scenario")

    name = _string(doc, "name", "scenario")
    frequency_mhz = _number(doc, "frequency_mhz", "scenario")
    if not frequency_mhz > 0:
        raise DomainError(f"scenario: frequency_mhz must be > 0, got {frequency_mhz}")
    base_height_m = _number(doc, "base_height_m", "scenario")
    if not base_height_m > 0:
        raise DomainError(f"scenario: base_height_m must be > 0, got {base_height_m}")

    raw_radio = doc["radio"]
    if not isinstance(raw_radio, dict):
        raise SchemaError(f"scenario: field 'radio' must be an object, got {raw_radio!r}")
    _check_keys(raw_radio, _RADIO_KEYS, "radio")
    radio_values = {key: _number(raw_radio, key, "radio") for key in _RADIO_KEYS}
    try:
        radio = RadioConfig(**radio_values)
    except FoliageLinkError as exc:
        raise DomainError(f"radio: {exc}") from exc

    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        raise SchemaError(f"scenario: field 'nodes' must be an array, got {raw_nodes!r}")
    return name, frequency_mhz, base_height_m, radio, raw_nodes


def _check_unique(ids: list[str]) -> None:
    """Raise for the first id that repeats one before it; the set's size shows whether any does."""
    if len(set(ids)) == len(ids):
        return
    seen: set[str] = set()
    for node_id in ids:
        if node_id in seen:
            raise SchemaError(f"scenario: duplicate node id '{node_id}'")
        seen.add(node_id)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    Raises:
        ParseError: the text is not well-formed JSON (message carries the
            position), or holds an integer literal too long to read.
        SchemaError: a missing, unknown or ill-typed field, a duplicate
            node id, a node id holding a lone surrogate, or a node with
            both / neither cover-factor source.
        DomainError: a value outside its physical domain, named by field
            (and node id where applicable).
    """
    name, frequency_mhz, base_height_m, radio, raw_nodes = _scenario_head(text)
    nodes = list(map(ScenarioNode._make, _node_values(raw_nodes, base_height_m)))
    _check_unique([node.id for node in nodes])
    return Scenario(name, frequency_mhz, base_height_m, radio, nodes)


#: cells of one node's report: ``REPORT_COLUMNS``, then ``error``
_REPORT_WIDTH = len(NodeReport._fields)


def _report_cells(nodes, frequency_mhz: float, base_height_m: float, radio: RadioConfig) -> list:
    """Every node's report as one flat list, ``NodeReport``'s fields in order, node after node.

    ``nodes`` gives each node's ``(id, d_km, h_f_m, delta)``. A node whose
    loss cannot be evaluated (full foliage cover, or a path so short that
    its free-space segment rounds to 0 km) gets an error row. The margin
    and the required power are ``link_margin``'s and ``required_tx_power``'s
    sums, in their order, so every number is theirs to the bit.

    Raises:
        FoliageLinkError: a node that ``_node_values`` would have rejected.
    """
    at = _LossCore(frequency_mhz).at
    tx_power, tx_gain, rx_gain, sensitivity, required_margin = radio
    gains = tx_power + tx_gain + rx_gain  # link_margin's sum up to its loss term
    inf = math.inf
    cells: list = []
    for node_id, d_km, h_f_m, delta in nodes:
        if delta is None:
            delta = delta_from_heights(h_f_m, base_height_m)
        if not (0.0 < d_km * 1000.0 < inf and 0.0 <= delta <= 1.0):
            foliage_split(d_km, delta)  # a node no parse checked: raise its error
        try:
            d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity = at(d_km, delta)
        except FoliageLinkError as exc:
            split = foliage_split(d_km, delta)
            cells += (node_id, delta, split.d_f_m, split.d_fsp_m,
                      None, None, None, None, None, None, None, False, str(exc))
            continue
        margin = gains - l_total - sensitivity
        cells += (
            node_id, delta, d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity, margin,
            l_total + sensitivity - tx_gain - rx_gain + required_margin,
            margin >= required_margin, None,
        )
    return cells


def evaluate_scenario(scenario: Scenario) -> list[NodeReport]:
    """Evaluate every node, preserving input order.

    A node whose loss cannot be evaluated (full foliage cover, or a path so
    short that its free-space segment rounds to 0 km) produces an error
    report entry instead of aborting the batch.

    Raises:
        FoliageLinkError: a node that ``parse_scenario`` would have rejected.
    """
    cells = _report_cells(
        scenario.nodes, scenario.frequency_mhz, scenario.base_height_m, scenario.radio
    )
    return list(map(NodeReport._make, zip(*[iter(cells)] * _REPORT_WIDTH)))


def _scenario_cells(text: str) -> list:
    """The cells of ``evaluate_scenario(parse_scenario(text))``'s reports, as one flat list.

    The document is checked as ``parse_scenario`` checks it, and raises the
    same first error, but no node or report record is built.
    """
    _, frequency_mhz, base_height_m, radio, raw_nodes = _scenario_head(text)
    cells = _report_cells(
        _node_values(raw_nodes, base_height_m), frequency_mhz, base_height_m, radio
    )
    _check_unique(cells[::_REPORT_WIDTH])
    return cells


def emit_csv(data) -> str:
    """Render a ``SweepTable`` or a sequence of ``NodeReport`` as CSV (LF line endings).

    Numeric fields use the shortest decimal form that parses back to the
    identical float. No node reports give the header line alone, as an
    empty scenario renders an empty table or JSON array.
    """
    if hasattr(data, "rows"):  # a SweepTable
        if not data.rows:
            raise EmptyInput("sweep table has no rows")
        return to_csv(data.rows, SWEEP_COLUMNS)
    return to_csv(list(data), REPORT_COLUMNS)


def emit_json(reports: Sequence[NodeReport], end: str = "") -> str:
    """Render node reports as a JSON array with stable field order, then ``end``."""
    return to_json(list(reports), REPORT_COLUMNS, end)


def emit_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its JSON wire format.

    ``parse_scenario(emit_scenario(s))`` reproduces ``s`` exactly, and the
    emitted text is a fixed point of a further parse/emit round trip. The
    text is what ``json.dumps(doc, indent=2, allow_nan=False)`` writes for
    the document; the nodes are written from one template per cover source.
    """
    head = {
        "name": scenario.name,
        "frequency_mhz": scenario.frequency_mhz,
        "base_height_m": scenario.base_height_m,
        "radio": {key: getattr(scenario.radio, key) for key in _RADIO_KEYS},
    }
    # the head object without its closing "\n}", then the nodes array
    opening = json.dumps(head, indent=2, allow_nan=False)[:-2] + ',\n  "nodes": '
    by_height = _json_template(("id", "d_km", "h_f_m"), 2, False)
    by_delta = _json_template(("id", "d_km", "delta"), 2, False)
    nodes = [
        by_delta % _json_cells((node.id, node.d_km, node.delta))
        if node.h_f_m is None
        else by_height % _json_cells((node.id, node.d_km, node.h_f_m))
        for node in scenario.nodes
    ]
    return _json_array(nodes, 1, opening, "\n}")
