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

CSV and JSON text is written here by one writer per format, ``csv_cells``
and ``json_cells``. Each takes one flat list of cells, row after row, and
the row width; ``to_csv`` and ``to_json`` flatten their records into that
list. The text is byte for byte what ``csv.writer`` and
``json.dumps(..., indent=2, allow_nan=False)`` would write: both run Python
code per cell or per row, and ``json.dumps`` its whole pure-Python encoder
whenever ``indent`` is set. A writer converts only the columns whose cells
``%s`` would not write as the format does (strings, bools and ``None``; in
JSON the enums too), each in a few C-level passes, then writes the whole
text in one ``%`` call on a template of one line or object per row. The
row templates are built once per process, per column tuple (and, for
JSON, per nesting level). A CSV string holding a comma, double quote or
line break is handed to ``csv.writer`` itself, so quoting stays the ``csv``
module's; its row ends in CRLF, so that a lone carriage return is quoted on
every Python version. One call builds the text in one growing buffer: no
line or block strings are held until a join.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from enum import Enum
from itertools import chain
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


def _rows(records: list, columns: tuple[str, ...], error: bool = False):
    """Each record's cells in column order, for a list of records of one type.

    With ``error``, each row ends with the record's ``error``, or None where
    it has none. A named tuple whose fields are the row is its own row, one
    whose fields start with them is sliced, and any other record is read
    attribute by attribute.
    """
    names = (*columns, "error") if error else columns
    fields = getattr(type(records[0]), "_fields", ()) if records else ()
    if fields == names:
        return records
    if fields[: len(names)] == names:
        return map(itemgetter(slice(len(names))), records)
    get = attrgetter(*columns)
    if error:
        return ((*get(record), getattr(record, "error", None)) for record in records)
    return map(get, records)


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
_PLAIN_OR_NONE = _PLAIN | {type(None)}


def _csv_written(value: object) -> str:
    """The cell as ``csv.writer`` writes it inside a row, quoted where needed.

    The row ends in ``\\r\\n``: before Python 3.13, ``csv.writer`` quotes a
    carriage return or a line feed only when the line terminator holds it.
    """
    out = io.StringIO()
    # a second field, because csv quotes a row's lone empty field
    csv.writer(out, lineterminator="\r\n").writerow((value, ""))
    return out.getvalue()[:-3]


def _quoted(value: str) -> bool:
    """Whether ``csv.writer`` quotes the text: a comma, double quote or line break."""
    return "," in value or '"' in value or "\r" in value or "\n" in value


def _csv_text(value: str) -> str:
    return _csv_written(value) if _quoted(value) else value


#: CSV text of ``None``, and of the package's enums, which ``%s`` writes more slowly
_CSV_CONSTANT = {None: "", **{flag: flag.value for flag in (*Regime, *Validity)}}
#: CSV text of a cell that is not ``_PLAIN``, by the cell's exact type; any
#: other type (a bool outside ``_BOOL_COLUMNS`` among them) goes to
#: ``csv.writer`` through ``_csv_written``.
_CSV_CELL = {str: _csv_text, type(None): _CSV_CONSTANT.__getitem__}
#: The same for a column in ``_BOOL_COLUMNS``.
_CSV_BOOL_CELL = {**_CSV_CELL, bool: ("false", "true").__getitem__}


@functools.cache
def _csv_format(columns: tuple[str, ...], width: int) -> tuple[str, str]:
    """Header line and ``%`` template of one row's line.

    A row's cells past the columns (its ``error``) go to ``%.0s``, which
    writes no text.
    """
    # the header holds attribute names, so no "%" that the template would read
    head = ",".join(_header(columns)) + "\n"
    line = ",".join(["%s"] * len(columns)) + "%.0s" * (width - len(columns)) + "\n"
    return head, line


def _csv_column(column: list, bools: bool) -> list | None:
    """CSV text of one column's cells, or None when ``%s`` writes them all as they are.

    A column of strings is searched once, joined, for a character that
    needs quoting; ``bools`` marks a column in ``_BOOL_COLUMNS``.
    """
    kinds = set(map(type, column))
    if kinds <= _PLAIN:
        return None
    if kinds <= _PLAIN_OR_NONE:
        return list(map(_CSV_CONSTANT.get, column, column))
    if kinds == {str}:
        return list(map(_csv_text, column)) if _quoted("".join(column)) else None
    if bools and kinds == {bool}:
        return list(map(("false", "true").__getitem__, column))
    get = (_CSV_BOOL_CELL if bools else _CSV_CELL).get
    return [
        value if type(value) in _PLAIN else get(type(value), _csv_written)(value)
        for value in column
    ]


def csv_cells(cells: list, columns: tuple[str, ...], width: int) -> str:
    """CSV text of rows given as one flat list of ``width`` cells each.

    A row holds the ``columns``' cells, then, when ``width`` is one more,
    its record's ``error``, which CSV does not write. The text is a header
    line and one line per row, what ``csv.writer`` writes (LF line endings),
    except that a bool in ``_BOOL_COLUMNS`` is written ``true``/``false``.
    All the cells go to one template in one ``%`` call: as they are when
    all are ``_PLAIN``, else each column that needs it is converted first,
    in ``cells`` itself.
    """
    head, line = _csv_format(columns, width)
    if not _PLAIN.issuperset(map(type, cells)):
        for index, column in enumerate(columns):
            text = _csv_column(cells[index::width], column in _BOOL_COLUMNS)
            if text is not None:
                cells[index::width] = text
    return (head + line * (len(cells) // width)) % tuple(cells)


def to_csv(records, columns: tuple[str, ...]) -> str:
    """CSV text of one record or a list of records: a header line, then one line each."""
    batch = records if isinstance(records, list) else [records]
    return csv_cells(list(chain.from_iterable(_rows(batch, columns))), columns, len(columns))


_JSON_NULL = {None: "null"}
#: JSON text of a cell, by the cell's exact type (``bool`` is its own type,
#: so it never reaches ``int``); any other type goes to ``_json_other``.
#: ``float`` is absent: a finite float goes to its template as it is, and
#: ``json.dumps`` raises ``ValueError`` for ``nan`` and ``inf``.
_JSON_CELL = {
    str: encode_basestring_ascii,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    type(None): _JSON_NULL.__getitem__,
    # the package's enums mix in str, and their text is their value
    Regime: encode_basestring_ascii,
    Validity: encode_basestring_ascii,
}
#: Cell types that ``%s`` writes as ``json.dumps`` does, a float once it is finite.
_JSON_PLAIN = frozenset((float, int))
_JSON_PLAIN_OR_NONE = _JSON_PLAIN | {type(None)}
#: JSON text of every value of a column of ``_CONSTANT_KINDS``.
_JSON_CONSTANT = {
    None: "null", False: "false", True: "true",
    **{flag: encode_basestring_ascii(flag.value) for flag in (*Regime, *Validity)},
}
_CONSTANT_KINDS = frozenset(map(type, _JSON_CONSTANT))


def _json_other(value: object) -> str:
    """JSON text of an enum (its value) or of a type ``_JSON_CELL`` lacks."""
    if isinstance(value, Enum):
        value = value.value
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value, allow_nan=False)


@functools.cache
def _json_template(names: tuple[str, ...], level: int, error: bool) -> str:
    """``%`` template of one JSON object nested ``level`` deep, indent 2.

    With ``error``, a last slot takes the ``error`` member's text from
    ``_json_error``.
    """
    pad = "\n" + "  " * (level + 1)
    members = ",".join(f"{pad}{encode_basestring_ascii(key)}: %s" for key in names)
    return "{" + members + ("%s" if error else "") + "\n" + "  " * level + "}"


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


def _json_error(error: object, level: int) -> str:
    """The ``error`` member of an object nested ``level`` deep, or no text for None."""
    if error is None:
        return ""
    return f',\n{"  " * (level + 1)}"error": ' + _JSON_CELL.get(type(error), _json_other)(error)


def _json_column(column: list, kinds: set) -> list | tuple | None:
    """JSON text of one column's cells, or None when ``%s`` writes them all as they are.

    ``kinds`` holds the cells' types, and every float among them is finite.
    """
    if kinds <= _JSON_PLAIN:
        return None
    if kinds <= _JSON_PLAIN_OR_NONE:
        return list(map(_JSON_NULL.get, column, column))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, column))
    if kinds <= _CONSTANT_KINDS:
        return list(map(_JSON_CONSTANT.__getitem__, column))
    return _json_cells(column)


#: ``isinstance(value, float)`` as one C call, for ``filter``
_is_float = float.__instancecheck__


def json_cells(cells: list, columns: tuple[str, ...], width: int, end: str = "") -> str:
    """JSON array of rows given as one flat list of ``width`` cells each, then ``end``.

    A row holds the ``columns``' cells, then, when ``width`` is one more,
    its record's ``error``, a last key where it is not None. The text is
    what ``json.dumps(objects, indent=2, allow_nan=False)`` writes for the
    rows' dicts: a non-finite float raises ``ValueError``, for the first
    one row by row. Each column that needs it is converted in ``cells``
    itself, then all the cells go to one template in one ``%`` call.
    """
    for index in range(len(columns)):
        column = cells[index::width]
        kinds = set(map(type, column))
        if float in kinds and not all(map(math.isfinite, filter(_is_float, column))):
            _json_cells(cells)  # raises at the first, row by row: no float is converted
        text = _json_column(column, kinds)
        if text is not None:
            cells[index::width] = text
    if width > len(columns):
        cells[len(columns)::width] = [_json_error(error, 1) for error in cells[len(columns)::width]]
    item = _json_template(_header(columns), 1, width > len(columns))
    # the whole array, its brackets and ``end`` among them, is one template
    template = _json_array([item] * (len(cells) // width), 0, tail=end.replace("%", "%%"))
    return template % tuple(cells)


def to_json(records, columns: tuple[str, ...], end: str = "") -> str:
    """JSON text of one record (an object) or a list of records (an array), then ``end``.

    The text is what ``json.dumps(obj, indent=2, allow_nan=False)`` writes
    for the same dicts: a non-finite float raises ``ValueError``.
    """
    if isinstance(records, list):
        cells = list(chain.from_iterable(_rows(records, columns, error=True)))
        return json_cells(cells, columns, len(columns) + 1, end)
    row = next(iter(_rows([records], columns)))
    template = _json_template(_header(columns), 0, True)
    return template % (*_json_cells(row), _json_error(getattr(records, "error", None), 0)) + end


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
