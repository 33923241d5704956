"""Table, CSV and JSON text for result records.

Each record type has one column tuple: attribute names in output order,
dotted where the value sits on a nested object (``split.delta`` prints as
``delta``). One record renders as a key/value table or a JSON object, a
list of records as a column table or a JSON array (indent 2). CSV is a
header line plus one line per record either way. Any ``tuple`` counts as a
list of records: ``SweepRow`` and ``NodeReport`` are named tuples, so a lone
one would render as a list, but both only ever render inside a list.

Cell rules, table / CSV / JSON:

* float: 7 decimals / shortest round-trip form / shortest round-trip form;
* bool: ``true`` or ``false``;
* enum (``Regime``, ``Validity``): its value;
* missing (``None``): ``-`` / empty cell / ``null``.

A record whose ``error`` is set gets it as a last, JSON-only key.
``csv.writer`` writes ``None``, floats and the ``str`` enums as required;
only the columns that hold a bool are converted for CSV. JSON text is
written here, byte for byte as ``json.dumps(..., indent=2, allow_nan=False)``
would write it, because ``json.dumps`` runs its pure-Python encoder whenever
``indent`` is set.
"""

from __future__ import annotations

import csv
import io
import json
import math
from enum import Enum
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

from .propagation import Regime, Validity

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


#: Columns whose cells are bools: CSV writes them ``true``/``false``, where
#: ``csv.writer`` would write Python's ``True``/``False``.
_BOOL_COLUMNS = frozenset(("link_ok", "converged", "all_feasible"))


def _header(columns: tuple[str, ...]) -> list[str]:
    """The printed column names: the last part of each attribute path."""
    return [column.rpartition(".")[2] for column in columns]


def _rows(records: list, columns: tuple[str, ...]):
    """Each record's cells in column order, for a list of records of one type.

    A named tuple whose fields are the columns is its own row, one whose
    fields start with them is sliced, and any other record is read attribute
    by attribute.
    """
    fields = getattr(type(records[0]), "_fields", ()) if records else ()
    if fields == columns:
        return records
    if fields[: len(columns)] == columns:
        return map(itemgetter(slice(len(columns))), records)
    return map(attrgetter(*columns), records)


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


def _csv_bools(rows, positions: list[int]):
    """``rows`` with the bools at ``positions`` written as ``true``/``false``."""
    for row in rows:
        row = list(row)
        for i in positions:
            value = row[i]
            row[i] = "true" if value is True else "false" if value is False else value
        yield row


#: JSON text of a cell, by the cell's exact type (``bool`` is its own type,
#: so it never reaches ``int``); any other type goes to ``_json_other``.
#: ``float`` is absent: ``to_json`` hands a finite float to its template as it
#: is, and ``json.dumps`` raises ``ValueError`` for ``nan`` and ``inf``.
_JSON_CELL = {
    str: encode_basestring_ascii,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    type(None): {None: "null"}.__getitem__,
    # the package's enums mix in str, and their text is their value
    Regime: encode_basestring_ascii,
    Validity: encode_basestring_ascii,
}


def _json_other(value: object) -> str:
    """JSON text of an enum (its value) or of a type ``_JSON_CELL`` lacks."""
    if isinstance(value, Enum):
        value = value.value
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value, allow_nan=False)


def _json_template(names: list[str], level: int, error: bool) -> str:
    """``%`` template of one JSON object nested ``level`` deep, indent 2."""
    pad = "\n" + "  " * (level + 1)
    keys = [*names, "error"] if error else names
    members = ",".join(f"{pad}{encode_basestring_ascii(key)}: %s" for key in keys)
    return "{" + members + "\n" + "  " * level + "}"


def to_json(records, columns: tuple[str, ...]) -> str:
    """JSON text of one record (an object) or a list of records (an array).

    The text is what ``json.dumps(obj, indent=2, allow_nan=False)`` writes
    for the same dicts: a non-finite float raises ``ValueError``.
    """
    single = not isinstance(records, (list, tuple))
    batch = [records] if single else records
    if not batch:
        return "[]"
    names = _header(columns)
    level = 0 if single else 1
    plain = _json_template(names, level, False)
    with_error = _json_template(names, level, True)
    cell, inf = _JSON_CELL.get, math.inf
    objects = []
    for record, row in zip(batch, _rows(batch, columns)):
        # a finite float enters the template as it is, and %s writes its repr
        cells = [
            value if type(value) is float and -inf < value < inf
            else cell(type(value), _json_other)(value)
            for value in row
        ]
        error = getattr(record, "error", None)
        if error is None:
            objects.append(plain % tuple(cells))
        else:
            cells.append(cell(type(error), _json_other)(error))
            objects.append(with_error % tuple(cells))
    if single:
        return objects[0]
    return "[\n  " + ",\n  ".join(objects) + "\n]"


def render(records, columns: tuple[str, ...], fmt: str) -> str:
    """Render one record, or a list of records, as ``table``, ``csv`` or ``json`` text.

    The text ends with a newline in every format.
    """
    if fmt == "json":
        return to_json(records, columns) + "\n"
    single = not isinstance(records, (list, tuple))
    names = _header(columns)
    rows = _rows([records] if single else records, columns)
    if fmt == "csv":
        bools = [i for i, column in enumerate(columns) if column in _BOOL_COLUMNS]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(_csv_bools(rows, bools) if bools else rows)
        return out.getvalue()
    if single:
        width = max(map(len, names))
        pairs = zip(names, next(iter(rows)))
        return "".join(f"{name.ljust(width)}  {_table_cell(value)}\n" for name, value in pairs)
    lines = [names, *(map(_table_cell, row) for row in rows)]
    return "".join("  ".join(cell.ljust(13) for cell in line) + "\n" for line in lines)
