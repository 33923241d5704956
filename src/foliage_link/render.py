"""Table, CSV and JSON text for result records.

Each record type has one column tuple: attribute names in output order,
dotted where the value sits on a nested object (``split.delta`` prints as
``delta``). One record renders as a key/value table or a JSON object, a
list of records as a column table or a JSON array (indent 2). CSV is a
header line plus one line per record either way.

Cell rules, table / CSV / JSON:

* float: 7 decimals / shortest round-trip form / shortest round-trip form;
* bool: ``true`` or ``false``;
* enum (``Regime``, ``Validity``): its value;
* missing (``None``): ``-`` / empty cell / ``null``.

A record whose ``error`` is set gets it as a last, JSON-only key.
``csv.writer`` and ``json`` apply their rules themselves, except for
``bool`` in CSV.
"""

from __future__ import annotations

import csv
import io
import json
from enum import Enum
from operator import attrgetter

SWEEP_COLUMNS = (
    "x", "delta", "d_f_m", "d_fsp_m", "l_foliage_db", "l_fsp_db", "l_total_db",
    "regime", "validity",
)
REPORT_COLUMNS = (
    "id", "delta", "d_f_m", "d_fsp_m", "l_foliage_db", "l_fsp_db", "l_total_db",
    "regime", "validity", "margin_db", "required_tx_dbm", "link_ok",
)
LOSS_COLUMNS = (
    "split.delta", "split.d_f_m", "split.d_fsp_m", "l_foliage_db", "l_fsp_db",
    "l_total_db", "foliage.regime", "foliage.validity",
)
SOLVE_COLUMNS = (
    "solve", "value", "achieved_loss_db", "iterations", "converged", "all_feasible",
)
BOUNDS_COLUMNS = ("delta_min", "delta_max", "sigma", "alpha_low_min", "alpha_high_max")


def _header(columns: tuple[str, ...]) -> list[str]:
    """The printed column names: the last part of each attribute path."""
    return [column.rpartition(".")[2] for column in columns]


def _table_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.7f}"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def to_json(records, columns: tuple[str, ...]) -> str:
    """JSON text of one record (an object) or a list of records (an array)."""
    single = not isinstance(records, (list, tuple))
    names = _header(columns)
    get = attrgetter(*columns)
    objects = []
    for record in [records] if single else records:
        obj = dict(zip(names, get(record)))
        if getattr(record, "error", None) is not None:
            obj["error"] = record.error
        objects.append(obj)
    return json.dumps(objects[0] if single else objects, indent=2)


def render(records, columns: tuple[str, ...], fmt: str) -> str:
    """Render one record, or a list of records, as ``table``, ``csv`` or ``json`` text.

    The text ends with a newline in every format.
    """
    if fmt == "json":
        return to_json(records, columns) + "\n"
    single = not isinstance(records, (list, tuple))
    names = _header(columns)
    rows = map(attrgetter(*columns), [records] if single else records)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(
            ["true" if v is True else "false" if v is False else v for v in row] for row in rows
        )
        return out.getvalue()
    if single:
        width = max(map(len, names))
        pairs = zip(names, next(rows))
        return "".join(f"{name.ljust(width)}  {_table_cell(value)}\n" for name, value in pairs)
    lines = [names, *(map(_table_cell, row) for row in rows)]
    return "".join("  ".join(cell.ljust(13) for cell in line) + "\n" for line in lines)
