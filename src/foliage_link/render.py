"""Table, CSV and JSON text for result records.

Each record type has one column tuple: attribute names in output order,
dotted where the value sits on a nested object (``split.delta`` prints as
``delta``). One record renders as a key/value table or a JSON object, a
list of records as a column table or a JSON array (indent 2). CSV is a
header line plus one line per record either way. Only a ``list`` is a batch:
every record is a named tuple, so a lone record is a tuple too.

Cell rules, table / CSV / JSON:

* float: 7 decimals / shortest round-trip form / shortest round-trip form;
* bool: ``true`` or ``false``;
* enum (``Regime``, ``Validity``): its value;
* missing (``None``): ``-`` / empty cell / ``null``.

A record whose ``error`` is set gets it as a last, JSON-only key.

CSV and JSON text is written here from one ``%`` template per column tuple
(and, for JSON, per nesting level), each built once per process. The text
is byte for byte what ``csv.writer`` and
``json.dumps(..., indent=2, allow_nan=False)`` would write: both run Python
code per cell or per row, and ``json.dumps`` its whole pure-Python encoder
whenever ``indent`` is set. A CSV text is one ``%`` call on a template of
one line per record. Cells that are all floats, ints and the package's
enums (whose ``str()`` is their value) go to it as they are; otherwise each
other cell is converted, and a string holding a comma, double quote or line
break is handed to ``csv.writer`` itself, so quoting stays the ``csv``
module's. One call builds the text in one growing buffer: no line or block
strings are held until a join.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from enum import Enum
from itertools import chain, cycle
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


@functools.cache
def _header(columns: tuple[str, ...]) -> tuple[str, ...]:
    """The printed column names: the last part of each attribute path."""
    return tuple(column.rpartition(".")[2] for column in columns)


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


#: Cell types that ``%s`` writes as ``csv.writer`` does: a float by its repr,
#: an int by its str, and the package's enums, whose ``str()`` is their value.
_PLAIN = frozenset((float, int, Regime, Validity))


def _csv_written(value: object) -> str:
    """The cell as ``csv.writer`` writes it inside a row, quoted where needed."""
    out = io.StringIO()
    # a second field, because csv quotes a row's lone empty field
    csv.writer(out, lineterminator="\n").writerow((value, ""))
    return out.getvalue()[:-2]


def _csv_text(value: str) -> str:
    if "," in value or '"' in value or "\r" in value or "\n" in value:
        return _csv_written(value)
    return value


#: CSV text of a cell that is not ``_PLAIN``, by the cell's exact type; any
#: other type (a bool outside ``_BOOL_COLUMNS`` among them) goes to
#: ``csv.writer`` through ``_csv_written``.
_CSV_CELL = {str: _csv_text, type(None): {None: ""}.__getitem__}
#: The same for a column in ``_BOOL_COLUMNS``.
_CSV_BOOL_CELL = {**_CSV_CELL, bool: ("false", "true").__getitem__}


@functools.cache
def _csv_format(columns: tuple[str, ...]) -> tuple[str, str, tuple]:
    """Header line, ``%`` template of one record's line, and per-column cell lookups."""
    # the header holds attribute names, so no "%" that the template would read
    head = ",".join(_header(columns)) + "\n"
    line = ",".join(["%s"] * len(columns)) + "\n"
    cell_of = tuple(
        (_CSV_BOOL_CELL if column in _BOOL_COLUMNS else _CSV_CELL).get for column in columns
    )
    return head, line, cell_of


def to_csv(records, columns: tuple[str, ...]) -> str:
    """CSV text of one record or a list of records: a header line, then one line each.

    The text is what ``csv.writer`` writes (LF line endings), except that a
    bool in ``_BOOL_COLUMNS`` is written ``true``/``false``. All the cells
    go to one template in one ``%`` call; they go as they are when all are
    ``_PLAIN``, else each one that is not is converted through ``_CSV_CELL``.
    """
    head, line, cell_of = _csv_format(columns)
    batch = records if isinstance(records, list) else [records]
    cells = tuple(chain.from_iterable(_rows(batch, columns)))
    if not _PLAIN.issuperset(map(type, cells)):
        cells = tuple([
            value if type(value) in _PLAIN else get(type(value), _csv_written)(value)
            for value, get in zip(cells, cycle(cell_of))
        ])
    return (head + line * (len(cells) // len(columns))) % cells


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


@functools.cache
def _json_template(names: tuple[str, ...], level: int, error: bool) -> str:
    """``%`` template of one JSON object nested ``level`` deep, indent 2."""
    pad = "\n" + "  " * (level + 1)
    keys = [*names, "error"] if error else names
    members = ",".join(f"{pad}{encode_basestring_ascii(key)}: %s" for key in keys)
    return "{" + members + "\n" + "  " * level + "}"


def _json_cells(row) -> tuple:
    """A row's cells as its JSON template takes them.

    A finite float stays as it is, since ``%s`` writes its repr.
    """
    cell, inf = _JSON_CELL.get, math.inf
    return tuple([
        value if type(value) is float and -inf < value < inf
        else cell(type(value), _json_other)(value)
        for value in row
    ])


def _json_array(items: list[str], level: int, head: str = "", tail: str = "") -> str:
    """``head``, a JSON array nested ``level`` deep of the ``items`` texts, ``tail``.

    One join writes the whole text: the array's brackets, ``head`` and
    ``tail`` go into the first and last items, which are replaced in place.
    """
    if not items:
        return head + "[]" + tail
    pad = "\n" + "  " * (level + 1)
    items[0] = head + "[" + pad + items[0]
    items[-1] += "\n" + "  " * level + "]" + tail
    return ("," + pad).join(items)


def to_json(records, columns: tuple[str, ...], end: str = "") -> str:
    """JSON text of one record (an object) or a list of records (an array), then ``end``.

    The text is what ``json.dumps(obj, indent=2, allow_nan=False)`` writes
    for the same dicts: a non-finite float raises ``ValueError``.
    """
    single = not isinstance(records, list)
    batch = [records] if single else records
    names = _header(columns)
    level = 0 if single else 1
    plain = _json_template(names, level, False)
    with_error = _json_template(names, level, True)
    cell = _JSON_CELL.get
    objects = []
    for record, row in zip(batch, _rows(batch, columns)):
        error = getattr(record, "error", None)
        if error is None:
            objects.append(plain % _json_cells(row))
        else:
            cells = (*_json_cells(row), cell(type(error), _json_other)(error))
            objects.append(with_error % cells)
    if single:
        return objects[0] + end
    return _json_array(objects, 0, tail=end)


def render(records, columns: tuple[str, ...], fmt: str) -> str:
    """Render one record, or a list of records, as ``table``, ``csv`` or ``json`` text.

    The text ends with a newline in every format.
    """
    if fmt == "json":
        return to_json(records, columns, end="\n")
    if fmt == "csv":
        return to_csv(records, columns)
    single = not isinstance(records, list)
    names = _header(columns)
    rows = _rows([records] if single else records, columns)
    if single:
        width = max(map(len, names))
        pairs = zip(names, next(iter(rows)))
        return "".join(f"{name.ljust(width)}  {_table_cell(value)}\n" for name, value in pairs)
    lines = [names, *(map(_table_cell, row) for row in rows)]
    return "".join("  ".join(cell.ljust(13) for cell in line) + "\n" for line in lines)
