"""Table, CSV and JSON text for rows of cells.

The caller names the columns, in output order, as they are printed, and
gives the cells in that order. ``render`` writes one row as a key/value
table, a one-row CSV or a JSON object; ``render_cells`` writes rows given
as one flat list of cells as a column table, a CSV or a JSON array (indent
2). CSV is a header line plus one line per row either way.

Cell rules, table / CSV / JSON:

* float: 7 decimals / shortest round-trip form / shortest round-trip form;
* bool: ``true`` or ``false``;
* enum (``Regime``, ``Validity``): its value;
* missing (``None``): ``-`` / empty cell / ``null``.

A row may end with its record's ``error``, which only JSON writes, as a last key.

Each format has one writer, fed one flat list of cells and the row width
(``_table_cells``, ``csv_cells``, ``json_cells``, chosen by
``render_cells``); one cell rule, for a fixed column, a lone row, the
``error`` member and a column of mixed types alike (``_table_cell``,
``_csv_cell``, ``_json_cell``); and one column rule, which converts a
whole column in a few C-level passes, or leaves cells that ``%s`` writes
as the format does (``_table_column``, ``_csv_column``, ``_json_column``):

* table: floats become ``.7f`` text in one pass, strings stay, and
  ``None``, bools and the package's enums map through one dict;
* CSV: floats, ints and the package's enums stay, or map through one dict
  with ``None`` among them; bools map by index; strings stay unless one
  needs quoting, and such a one goes to ``csv.writer`` itself;
* JSON: finite floats and ints stay, strings are escaped in one pass, and
  ``None``, bools and enums map through one dict.

Any other column goes through the cell rule. One loop, ``_converted``,
runs a writer's column rule over each column, in the cells list itself;
the writer then writes the whole text in one ``%`` call on a template of
one line or object per row. A column that the caller holds ``fixed`` (one
value in every row) is written into the template once, by the cell rule,
and one that repeats an earlier one (``same``: a cover-factor sweep's
``delta`` is its ``x``) is formatted once for both. The CSV and JSON text
is byte for byte what ``csv.writer`` and ``json.dumps(..., indent=2,
allow_nan=False)`` would write, without their Python code per cell or row.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from enum import Enum
from json.encoder import encode_basestring_ascii

from .propagation import Regime, Validity


def _fixed_slots(columns: tuple[str, ...], fixed: dict, slot: str, cell) -> list[str]:
    """Each column's slot in a row template: ``slot``, or for a fixed column ``slot``
    filled once with the ``cell`` rule's text of its value, each ``%`` doubled."""
    return [
        (slot % (cell(fixed[name]),)).replace("%", "%%") if name in fixed else slot
        for name in columns
    ]


def _converted(cells: list, columns: tuple, width: int, fixed: dict, same, column) -> tuple:
    """The cells for the row template, each column converted by the format's ``column`` rule.

    A column that ``same`` names is left to the one it repeats: both get
    the ``str()`` of that one's cells, converted, which is what ``%s`` writes.
    """
    same = same or {}
    varying = [name for name in columns if name not in fixed]
    for index, name in enumerate(varying):
        if name not in same:
            text = column(cells[index::width])
            if text is not None:
                cells[index::width] = text
    for name, source in same.items():
        index = varying.index(source)
        text = list(map(str, cells[index::width]))
        cells[index::width] = cells[varying.index(name)::width] = text
    return tuple(cells)


def _lines(cells, columns, width, fixed, same, head: str, sep: str, slot: str, cell, column):
    """A header line, then a line of ``sep``-joined slots per row; a row's cells past its
    varying columns (its ``error``) go to ``%.0s``, which writes no text."""
    fixed = fixed or {}
    line = sep.join(_fixed_slots(columns, fixed, slot, cell))
    line += "%.0s" * (width - len(columns) + len(fixed)) + "\n"
    cells = _converted(cells, columns, width, fixed, same, column)
    # the header holds column names, so no "%" that the template would read
    return (head + "\n" + line * (len(cells) // width)) % cells


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


#: table text of every value of a column of ``_TABLE_CONSTANT_KINDS``
_TABLE_CONSTANT = {
    None: "-", False: "false", True: "true", **{flag: flag.value for flag in (*Regime, *Validity)},
}
_TABLE_CONSTANT_KINDS = frozenset(map(type, _TABLE_CONSTANT))


def _table_column(column: list) -> list | None:
    """Table text of one column's cells, or None when ``%s`` writes them all as they are."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return list(map("{:.7f}".format, column))
    if kinds == {str}:
        return None
    if kinds <= _TABLE_CONSTANT_KINDS:
        return list(map(_TABLE_CONSTANT.__getitem__, column))
    return list(map(_table_cell, column))


def _table_cells(cells: list, columns: tuple[str, ...], width: int, fixed: dict | None = None,
                 same: dict | None = None) -> str:
    """Column table of rows given as ``csv_cells`` takes them, each cell left-aligned in 13."""
    head = "  ".join(["%-13s"] * len(columns)) % columns
    return _lines(cells, columns, width, fixed, same, head, "  ", "%-13s", _table_cell,
                  _table_column)


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
#: the text of ``False`` and ``True``, by index
_BOOL_TEXT = ("false", "true")


def _csv_cell(value: object) -> str:
    """CSV text of one cell; a type this rule does not know goes to ``csv.writer``."""
    kind = type(value)
    if kind in _PLAIN:
        return "%s" % (value,)
    if kind is str:
        return _csv_text(value)
    if kind is bool:
        return _BOOL_TEXT[value]
    return "" if value is None else _csv_written(value)


def _csv_column(column: list) -> list | None:
    """CSV text of one column's cells, or None when ``%s`` writes them all as they are.

    A column of strings is searched once, joined, for a character that
    needs quoting.
    """
    kinds = set(map(type, column))
    if kinds <= _PLAIN:
        return None
    if kinds <= _PLAIN_OR_NONE:
        return list(map(_CSV_CONSTANT.get, column, column))
    if kinds == {str}:
        return list(map(_csv_text, column)) if _quoted("".join(column)) else None
    if kinds == {bool}:
        return list(map(_BOOL_TEXT.__getitem__, column))
    return list(map(_csv_cell, column))


def csv_cells(
    cells: list, columns: tuple[str, ...], width: int, fixed: dict | None = None,
    same: dict | None = None,
) -> str:
    """CSV text of rows given as one flat list of ``width`` cells each.

    A row holds the cells of the ``columns`` not in ``fixed``, then, when
    ``width`` is one more, its record's ``error``, which CSV does not write.
    ``fixed`` maps each other column to its value in every row, and
    ``same`` a column to an earlier one whose cells it repeats. The text
    is a header line and one line per row, what ``csv.writer`` writes (LF
    line endings), except that a bool is written ``true``/``false``.
    """
    return _lines(cells, columns, width, fixed, same, ",".join(columns), ",", "%s", _csv_cell,
                  _csv_column)


_JSON_NULL = {None: "null"}
#: Cell types that ``%s`` writes as ``json.dumps`` does, a float once it is finite.
_JSON_PLAIN = frozenset((float, int))
_JSON_PLAIN_OR_NONE = _JSON_PLAIN | {type(None)}
#: JSON text of every value of a column of ``_CONSTANT_KINDS``.
_JSON_CONSTANT = {
    None: "null", False: "false", True: "true",
    **{flag: encode_basestring_ascii(flag.value) for flag in (*Regime, *Validity)},
}
_CONSTANT_KINDS = frozenset(map(type, _JSON_CONSTANT))


def _json_cell(value: object) -> object:
    """JSON text of one cell, or an int or finite float as it is, since ``%s`` writes its repr.

    An enum's text is its value's, and a non-finite float raises
    ``ValueError``, both as in ``json.dumps``.
    """
    kind = type(value)
    if kind is int or kind is float and -math.inf < value < math.inf:
        return value
    if kind in _CONSTANT_KINDS:
        return _JSON_CONSTANT[value]
    if kind is str:
        return encode_basestring_ascii(value)
    if isinstance(value, Enum):
        value = value.value
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


def _json_array(items: list[str], tail: str) -> str:
    """A top-level JSON array of the ``items`` texts, then ``tail``.

    One join writes the whole text: the array's brackets and ``tail`` go
    into the first and last items, which are replaced in place.
    """
    if not items:
        return "[]" + tail
    items[0] = "[\n  " + items[0]
    items[-1] += "\n]" + tail
    return ",\n  ".join(items)


def _json_error(error: object, level: int) -> str:
    """The ``error`` member of an object nested ``level`` deep, or no text for None."""
    if error is None:
        return ""
    return f',\n{"  " * (level + 1)}"error": {_json_cell(error)}'


def _json_column(column: list) -> list | None:
    """JSON text of one column's cells, every float among them finite, or None when
    ``%s`` writes them all as they are."""
    kinds = set(map(type, column))
    if kinds <= _JSON_PLAIN:
        return None
    if kinds <= _JSON_PLAIN_OR_NONE:
        return list(map(_JSON_NULL.get, column, column))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, column))
    if kinds <= _CONSTANT_KINDS:
        return list(map(_JSON_CONSTANT.__getitem__, column))
    return list(map(_json_cell, column))


#: ``isinstance(value, float)`` as one C call, for ``filter``
_is_float = float.__instancecheck__


def json_cells(
    cells: list, columns: tuple[str, ...], width: int, end: str = "", fixed: dict | None = None,
    same: dict | None = None,
) -> str:
    """JSON array of rows given as one flat list of ``width`` cells each, then ``end``.

    A row holds the cells of the ``columns`` not in ``fixed``, then, when
    ``width`` is one more, its record's ``error``, a last key where it is
    not None. ``fixed`` and ``same`` are as ``csv_cells`` takes them. The
    text is what ``json.dumps(objects, indent=2, allow_nan=False)`` writes
    for the rows' dicts: a non-finite float raises ``ValueError``, for the
    first one row by row.
    """
    fixed = fixed or {}
    varying = len(columns) - len(fixed)
    with_error = width > varying
    item = _json_template(columns, 1, with_error)
    if fixed and cells:
        item %= (*_fixed_slots(columns, fixed, "%s", _json_cell), *["%s"] * with_error)
    if not all(map(math.isfinite, filter(_is_float, cells))):
        list(map(_json_cell, cells))  # raises at the first, row by row
    if with_error:
        cells[varying::width] = [_json_error(error, 1) for error in cells[varying::width]]
    # the whole array, its brackets and ``end`` among them, is one template
    template = _json_array([item] * (len(cells) // width), end.replace("%", "%%"))
    return template % _converted(cells, columns, width, fixed, same, _json_column)


def render_cells(
    cells: list, columns: tuple[str, ...], width: int, fmt: str, fixed: dict | None = None,
    same: dict | None = None,
) -> str:
    """Rows given as one flat list of ``width`` cells each, as ``table``, ``csv`` or ``json`` text.

    A row holds the cells of the ``columns`` not in ``fixed``, in column
    order, then, when ``width`` is one more, its record's ``error``, which
    only JSON writes. ``fixed`` maps each other column to its value in
    every row; its text is formatted once, by the format's own cell rule.
    ``same`` maps a column to an earlier one whose cells it repeats, so
    that each format formats them once for both. The text ends with a
    newline in every format.
    """
    if fmt == "json":
        return json_cells(cells, columns, width, "\n", fixed, same)
    if fmt == "csv":
        return csv_cells(cells, columns, width, fixed, same)
    return _table_cells(cells, columns, width, fixed, same)


def render(row, columns: tuple[str, ...], fmt: str) -> str:
    """One row of cells, in ``columns`` order, as ``table``, ``csv`` or ``json`` text.

    A key/value table, a one-row CSV or a JSON object. The text ends with a
    newline in every format, and in JSON a non-finite float raises
    ``ValueError``.
    """
    if fmt == "json":
        return _json_template(columns, 0, False) % tuple(map(_json_cell, row)) + "\n"
    if fmt == "csv":
        return ",".join(columns) + "\n" + ",".join(map(_csv_cell, row)) + "\n"
    width = max(map(len, columns))
    pairs = zip(columns, row)
    return "".join(f"{name.ljust(width)}  {_table_cell(value)}\n" for name, value in pairs)
