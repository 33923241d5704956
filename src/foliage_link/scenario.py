"""Deployment-scenario ingestion, per-node evaluation and CSV/JSON emission.

A scenario document is strict JSON: unknown fields are rejected, types are
checked, and every value is validated against its physical domain at parse
time. One gateway (frequency, antenna height, radio) serves many nodes;
each node gives its distance and either a foliage height or a cover
factor, never both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .budget import RadioConfig, link_margin, required_tx_power
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
from .render import REPORT_COLUMNS, SWEEP_COLUMNS, render, to_json

_SCENARIO_KEYS = ("name", "frequency_mhz", "base_height_m", "radio", "nodes")
_RADIO_KEYS = (
    "tx_power_dbm",
    "tx_gain_dbi",
    "rx_gain_dbi",
    "rx_sensitivity_dbm",
    "required_margin_db",
)


@dataclass(frozen=True)
class ScenarioNode:
    """One sensor node: distance plus exactly one cover-factor source."""

    id: str
    d_km: float
    h_f_m: float | None = None
    delta: float | None = None


@dataclass(frozen=True)
class Scenario:
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
    and ``error`` holds the diagnostic. A named tuple, because a batch
    builds one per node; it costs a third of a frozen dataclass.
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


def _parse_node(raw: object, index: int, base_height_m: float) -> ScenarioNode:
    context = f"nodes[{index}]"
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: each node must be an object, got {raw!r}")
    if "id" in raw and isinstance(raw["id"], str):
        context = f"node '{raw['id']}'"
    has_height = "h_f_m" in raw
    has_delta = "delta" in raw
    if has_height and has_delta:
        raise SchemaError(f"{context}: fields 'h_f_m' and 'delta' are mutually exclusive")
    if not has_height and not has_delta:
        raise SchemaError(f"{context}: supply one of 'h_f_m' or 'delta'")
    keys = ("id", "d_km", "h_f_m") if has_height else ("id", "d_km", "delta")
    _check_keys(raw, keys, context)
    node = ScenarioNode(
        id=_string(raw, "id", context),
        d_km=_number(raw, "d_km", context),
        h_f_m=_number(raw, "h_f_m", context) if has_height else None,
        delta=None if has_height else _number(raw, "delta", context),
    )
    h_m = base_height_m if has_height else None
    try:  # the model's own domain rule, once, at parse time
        LinkGeometry(node.d_km, h_m=h_m, h_f_m=node.h_f_m, delta=node.delta)
    except FoliageLinkError as exc:
        raise DomainError(f"{context}: {exc}") from exc
    return node


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    Raises:
        ParseError: the text is not well-formed JSON (message carries the
            position), or holds an integer literal too long to read.
        SchemaError: a missing, unknown or ill-typed field, a duplicate
            node id, or a node with both / neither cover-factor source.
        DomainError: a value outside its physical domain, named by field
            (and node id where applicable).
    """
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
    nodes = [
        _parse_node(raw, index, base_height_m) for index, raw in enumerate(raw_nodes)
    ]
    seen: set[str] = set()
    for node in nodes:
        if node.id in seen:
            raise SchemaError(f"scenario: duplicate node id '{node.id}'")
        seen.add(node.id)
    return Scenario(
        name=name,
        frequency_mhz=frequency_mhz,
        base_height_m=base_height_m,
        radio=radio,
        nodes=nodes,
    )


def evaluate_scenario(scenario: Scenario) -> list[NodeReport]:
    """Evaluate every node, preserving input order.

    A node whose loss cannot be evaluated (full foliage cover, or a path so
    short that its free-space segment rounds to 0 km) produces an error
    report entry instead of aborting the batch.

    Raises:
        FoliageLinkError: a node that ``parse_scenario`` would have rejected.
    """
    radio = scenario.radio
    at = _LossCore(scenario.frequency_mhz).at
    reports: list[NodeReport] = []
    for node in scenario.nodes:
        d_km, delta = node.d_km, node.delta
        if delta is None:
            delta = delta_from_heights(node.h_f_m, scenario.base_height_m)
        if not (0.0 < d_km * 1000.0 < math.inf and 0.0 <= delta <= 1.0):
            foliage_split(d_km, delta)  # a node parse_scenario did not check: raise its error
        try:
            d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity = at(d_km, delta)
        except FoliageLinkError as exc:
            split = foliage_split(d_km, delta)
            reports.append(
                NodeReport(
                    id=node.id,
                    delta=delta,
                    d_f_m=split.d_f_m,
                    d_fsp_m=split.d_fsp_m,
                    l_foliage_db=None,
                    l_fsp_db=None,
                    l_total_db=None,
                    regime=None,
                    validity=None,
                    margin_db=None,
                    required_tx_dbm=None,
                    link_ok=False,
                    error=str(exc),
                )
            )
            continue
        margin = link_margin(radio, l_total)
        reports.append(
            NodeReport(
                node.id, delta, d_f_m, d_fsp_m, l_foliage, l_fsp, l_total, regime, validity,
                margin, required_tx_power(radio, l_total), margin >= radio.required_margin_db,
            )
        )
    return reports


def emit_csv(data) -> str:
    """Render a ``SweepTable`` or a sequence of ``NodeReport`` as CSV (LF line endings).

    Numeric fields use the shortest decimal form that parses back to the
    identical float. No node reports give the header line alone, as an
    empty scenario renders an empty table or JSON array.
    """
    if hasattr(data, "rows"):  # a SweepTable
        if not data.rows:
            raise EmptyInput("sweep table has no rows")
        return render(data.rows, SWEEP_COLUMNS, "csv")
    return render(list(data), REPORT_COLUMNS, "csv")


def emit_json(reports: Sequence[NodeReport]) -> str:
    """Render node reports as a JSON array with stable field order."""
    return to_json(list(reports), REPORT_COLUMNS)


def _node_object(node: ScenarioNode) -> dict:
    obj: dict = {"id": node.id, "d_km": node.d_km}
    if node.h_f_m is not None:
        obj["h_f_m"] = node.h_f_m
    else:
        obj["delta"] = node.delta
    return obj


def emit_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its JSON wire format.

    ``parse_scenario(emit_scenario(s))`` reproduces ``s`` exactly, and the
    emitted text is a fixed point of a further parse/emit round trip.
    """
    doc = {
        "name": scenario.name,
        "frequency_mhz": scenario.frequency_mhz,
        "base_height_m": scenario.base_height_m,
        "radio": {key: getattr(scenario.radio, key) for key in _RADIO_KEYS},
        "nodes": [_node_object(node) for node in scenario.nodes],
    }
    return json.dumps(doc, indent=2, allow_nan=False)
