"""Deployment-scenario ingestion, per-node evaluation and CSV/JSON emission.

A scenario document is strict JSON: unknown fields are rejected, types are
checked, and every value is validated against its physical domain at parse
time. One gateway (frequency, antenna height, radio) serves many nodes;
each node gives its distance and either a foliage height or a cover
factor, never both.

One rule set checks a document and a hand-built ``Scenario`` alike:
``_checked`` runs ``_node_values`` over every node, a JSON object or a
``ScenarioNode``, to its ``(id, d_km, h_f_m, delta)``, then checks the ids,
and ``_report_cells`` evaluates those values to one flat list of report
cells, checking nothing. ``_scenario_batch`` checks the whole document
first and returns a ``render.Batch`` that evaluates ``render._BLOCK_ROWS``
nodes at a time: ``evaluate_scenario`` builds its records from it, and the
CLI renders and writes it block by block with no record built.
``parse_scenario`` builds its records from the checked values.
``emit_scenario`` checks the dict it writes by the same rules, and reads
no text back.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Sequence

from .budget import RadioConfig
from .errors import DomainError, FoliageLinkError, ParseError, SchemaError, _checked_as
from .propagation import (
    LinkGeometry,  # noqa: F401  not used here; perfbench/spans.py wraps it by this name
    Regime,
    Validity,
    _check_delta,
    _check_distance,
    _check_foliage_height,
    _check_frequency,
    _check_height,
    _LossCore,
    foliage_split,
    total_loss,  # noqa: F401  not called here; perfbench/spans.py wraps it by this name
)
from . import render

_RADIO_KEYS = RadioConfig._fields


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
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if number != number:  # only a hand-built document holds one; no JSON literal is NaN
        raise DomainError(f"{context}: field '{key}' is NaN, which JSON cannot hold")
    if not math.isfinite(number):  # a literal such as 1e400 parses as inf
        raise DomainError(f"{context}: field '{key}' overflows the float range")
    return number


def _node_values(nodes: list, base_height_m: float):
    """Each node's ``(id, d_km, h_f_m, delta)``, validated, in order.

    A node is a JSON object or a hand-built ``ScenarioNode``. One of exactly
    ``id``, ``d_km`` and one cover-factor source, holding a string that UTF-8
    can carry and floats inside the model's domain, is accepted by the first
    test; that test is ``propagation``'s node rules written inline, their one
    copy, and it encodes only a non-ASCII id. Any other node goes to
    ``_parse_node``, which accepts it or raises its error.
    """
    for index, raw in enumerate(nodes):
        if type(raw) is dict and len(raw) == 3:
            node_id, d_km = raw.get("id"), raw.get("d_km")
            h_f_m, delta = raw.get("h_f_m"), raw.get("delta")
        elif type(raw) is ScenarioNode:
            node_id, d_km, h_f_m, delta = raw
        else:
            node_id = None  # the first test refuses it at once
        if (
            type(node_id) is str
            and (node_id.isascii() or _is_unicode(node_id))
            and type(d_km) is float
            and 0.0 < d_km * 1000.0 < math.inf
            and (
                type(delta) is float and 0.0 <= delta <= 1.0
                if h_f_m is None
                else delta is None and type(h_f_m) is float and 0.0 <= h_f_m <= base_height_m
            )
        ):
            yield node_id, d_km, h_f_m, delta
        else:
            yield _parse_node(raw, index, base_height_m)


def _node_object(node: object) -> object:
    """A record or tuple node as its JSON object, the fields not None; any other as it is."""
    if not isinstance(node, tuple):
        return node
    return {key: value for key, value in zip(ScenarioNode._fields, node) if value is not None}


def _parse_node(raw: object, index: int, base_height_m: float) -> tuple:
    """``(id, d_km, h_f_m, delta)`` of a node that ``_node_values``' first test refused.

    A record is read as the object ``emit_scenario`` writes for it. The node
    is checked field by field, in a fixed order, so the first rule it breaks
    names itself; ``propagation``'s checkers word the domain errors.
    """
    raw = _node_object(raw)
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
    prefix = f"{context}: "
    _checked_as(DomainError, prefix, _check_distance, d_km)  # an int node also passes here
    if has_height:
        _checked_as(DomainError, prefix, _check_foliage_height, h_f_m, base_height_m)
    else:
        _checked_as(DomainError, prefix, _check_delta, delta)
    return node_id, d_km, h_f_m, delta


def _load(text: str) -> object:
    """The JSON value of ``text``, with no ``NaN`` or ``Infinity`` literal."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_int=_read_int)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ParseError("JSON nesting is too deep to parse") from None


def _scenario_head(doc: object) -> tuple[str, float, float, RadioConfig, list]:
    """The document's name, frequency, base height and radio, all checked, and its raw nodes."""
    if not isinstance(doc, dict):
        raise SchemaError(f"scenario: top level must be an object, got {doc!r}")
    _check_keys(doc, Scenario._fields, "scenario")

    name = _string(doc, "name", "scenario")
    frequency_mhz = _number(doc, "frequency_mhz", "scenario")
    _checked_as(DomainError, "scenario: ", _check_frequency, frequency_mhz, "frequency_mhz")
    base_height_m = _number(doc, "base_height_m", "scenario")
    _checked_as(DomainError, "scenario: ", _check_height, base_height_m, "base_height_m")

    raw_radio = doc["radio"]
    if not isinstance(raw_radio, dict):
        raise SchemaError(f"scenario: field 'radio' must be an object, got {raw_radio!r}")
    _check_keys(raw_radio, _RADIO_KEYS, "radio")
    radio_values = [_number(raw_radio, key, "radio") for key in _RADIO_KEYS]
    radio = _checked_as(DomainError, "radio: ", RadioConfig, *radio_values)

    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        raise SchemaError(f"scenario: field 'nodes' must be an array, got {raw_nodes!r}")
    return name, frequency_mhz, base_height_m, radio, raw_nodes


def _record_doc(scenario: Scenario) -> dict:
    """A ``Scenario`` as the document ``_scenario_head`` checks, its nodes in a new list.

    Raises:
        SchemaError: ``scenario`` is no ``Scenario``, its ``radio`` or
            ``nodes`` is not iterable, or either is a dict, a ``str`` or
            ``bytes``, whose keys or items would be read as the values;
            the message names the type.
    """
    if not isinstance(scenario, Scenario):
        raise SchemaError(f"scenario must be a Scenario, got {type(scenario).__name__}")
    doc = scenario._asdict()
    for key, kind in (("radio", "RadioConfig"), ("nodes", "list of nodes")):
        name = type(value := doc[key]).__name__
        try:
            iter(value)
        except TypeError:
            raise SchemaError(f"scenario: field '{key}' must be iterable, got {name}") from None
        if isinstance(value, (dict, str, bytes)):
            raise SchemaError(f"scenario: field '{key}' is a {name}, not a {kind}")
    return {**doc, "radio": dict(zip(_RADIO_KEYS, doc["radio"])), "nodes": list(doc["nodes"])}


def _check_unique(ids: list[str]) -> None:
    """Raise for the first id that repeats one before it; the set's size shows whether any does."""
    if len(set(ids)) == len(ids):
        return
    seen: set[str] = set()
    for node_id in ids:
        if node_id in seen:
            raise SchemaError(f"scenario: duplicate node id '{node_id}'")
        seen.add(node_id)


def _checked(doc: object) -> tuple[str, float, float, RadioConfig, list]:
    """``_scenario_head`` of ``doc``, its raw nodes replaced by each node's checked
    ``(id, d_km, h_f_m, delta)``: the head first, then every node, then the ids."""
    *head, raw_nodes = _scenario_head(doc)
    values = list(_node_values(raw_nodes, head[2]))
    _check_unique(list(map(itemgetter(0), values)))
    return (*head, values)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    Raises:
        ParseError: the text is no ``str`` (the message names its type;
            ``bytes`` too), is not well-formed JSON (the message carries the
            position), nests arrays or objects too deep to parse, or holds
            an integer literal too long to read.
        SchemaError: a missing, unknown or ill-typed field, a duplicate
            node id, a node id holding a lone surrogate, or a node with
            both / neither cover-factor source.
        DomainError: a value outside its physical domain, named by field
            (and node id where applicable).
    """
    if not isinstance(text, str):
        raise ParseError(f"scenario text must be a str, got {type(text).__name__}")
    *head, values = _checked(_load(text))
    return Scenario(*head, list(map(ScenarioNode._make, values)))


#: the output columns of a node's report: every field but ``error``, which only JSON writes
REPORT_COLUMNS = NodeReport._fields[:-1]
#: cells of one node's report: ``REPORT_COLUMNS``, then ``error``
_REPORT_WIDTH = len(NodeReport._fields)


def _report_cells(nodes, frequency_mhz: float, base_height_m: float, radio: RadioConfig) -> list:
    """Every node's report as one flat list, ``NodeReport``'s fields in order, node after node.

    ``nodes`` gives each node's ``(id, d_km, h_f_m, delta)``, every value
    inside the model's domain: no node is checked here. A node whose loss
    cannot be evaluated (full foliage cover, or a path so short that its
    free-space segment rounds to 0 km) gets an error row. The margin and
    the required power are ``link_margin``'s and ``required_tx_power``'s
    sums, in their order, so every number is theirs to the bit.

    Raises:
        NonPositiveFrequency: ``frequency_mhz`` is not positive and finite.
    """
    at = _LossCore(frequency_mhz).at
    tx_power, tx_gain, rx_gain, sensitivity, required_margin = radio
    gains = tx_power + tx_gain + rx_gain  # link_margin's sum up to its loss term
    cells: list = []
    for node_id, d_km, h_f_m, delta in nodes:
        if delta is None:
            delta = h_f_m / base_height_m  # as LinkGeometry.effective_delta derives it
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
        ScenarioError: a ``SchemaError`` naming the type of a ``scenario``
            that is no ``Scenario``, else the ``SchemaError`` or
            ``DomainError`` that ``parse_scenario`` raises on the scenario's
            JSON text, first error first: a non-string or repeated id among
            them.
    """
    return _scenario_batch(_record_doc(scenario)).records(NodeReport)


def _scenario_batch(doc: object) -> render.Batch:
    """Every node's report, ``NodeReport``'s fields node after node, one block of cells per
    ``render._BLOCK_ROWS`` nodes.

    ``doc`` is a document's JSON value or a ``_record_doc``, checked whole,
    as ``parse_scenario`` checks a document, before this returns: iterating
    the blocks raises nothing, so no model error can follow the first
    output byte.
    """
    _, frequency_mhz, base_height_m, radio, values = _checked(doc)
    size = render._BLOCK_ROWS
    blocks = (_report_cells(values[start:start + size], frequency_mhz, base_height_m, radio)
              for start in range(0, len(values), size))
    return render.Batch(REPORT_COLUMNS, _REPORT_WIDTH, {}, blocks)


def emit_csv(data) -> str:
    """Render a ``SweepTable`` or a sequence of ``NodeReport`` as CSV (LF line endings).

    Numeric fields use the shortest decimal form that parses back to the
    identical float. A table of no rows, or no node reports, gives the
    header line alone, as an empty table or JSON array renders.
    """
    if hasattr(data, "rows"):  # a SweepTable
        from .sweep import SWEEP_COLUMNS  # here: no other scenario code needs the sweep module

        cells = list(chain.from_iterable(data.rows))
        batch = render.Batch(SWEEP_COLUMNS, len(SWEEP_COLUMNS), {}, [cells])
    else:  # each report's last cell, its error, goes to ``%.0s``, as on the CLI path
        batch = render.Batch(REPORT_COLUMNS, _REPORT_WIDTH, {}, [list(chain.from_iterable(data))])
    return "".join(render.render_blocks(batch, "csv"))


def emit_json(reports: Sequence[NodeReport]) -> str:
    """Render node reports as a JSON array with stable field order."""
    cells = list(chain.from_iterable(reports))
    return "".join(render._json_blocks(render.Batch(REPORT_COLUMNS, _REPORT_WIDTH, {}, [cells])))


def emit_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its JSON wire format.

    Each node is written with the fields it holds, those that are not None,
    and a dict node as it is. The dict is checked by the parser's own rules
    before it is written, so only a document that ``parse_scenario``
    accepts is returned. ``parse_scenario(emit_scenario(s))`` reproduces a
    parsed ``s`` exactly, and the emitted text is a fixed point of a further
    parse/emit round trip.

    Raises:
        FoliageLinkError: a ``SchemaError`` naming the type of a
            ``scenario`` that is no ``Scenario``, else the error
            ``parse_scenario`` would raise on the text, naming the field,
            and the node where one is at fault. A NaN is a ``DomainError``,
            as an infinite value is, and a value that is no JSON number (a
            ``Decimal``, say) a ``SchemaError``.
    """
    doc = _record_doc(scenario)
    doc["nodes"] = list(map(_node_object, doc["nodes"]))
    _checked(doc)
    return json.dumps(doc, indent=2, allow_nan=False)
