"""Table, CSV and JSON text for rows of cells.

The caller names the columns, in output order, as they are printed, and
gives the cells in that order. ``render`` writes one row as a key/value
table, a one-row CSV or a JSON object; ``render_blocks`` writes a ``Batch``,
rows given block by block (a sweep's points and a scenario's nodes,
``_BLOCK_ROWS`` rows each), as the pieces of a column table, a CSV or a
JSON array (indent 2). CSV is a header line plus one line per row either way.

Cell rules, table / CSV / JSON:

* float: 7 decimals / shortest round-trip form / shortest round-trip form;
* bool: ``true`` or ``false``;
* enum (``Regime``, ``Validity``): its value;
* missing (``None``): ``-`` / empty cell / ``null``.

A row may end with its record's ``error``, which only JSON writes, as a last key.

Each format has one batch writer (``_line_blocks`` for table and CSV,
``_json_blocks``, chosen by ``render_blocks``); one cell rule, for a fixed
column, a lone row, the ``error`` member and a column of mixed types alike
(``_table_cell``, ``_csv_cell``, ``_json_cell``); and one column rule,
which converts a whole column in a few C-level passes, or leaves cells
that ``%s`` writes as the format does (``_table_column``, ``_csv_column``,
``_json_column``):

* table: floats become ``.7f`` text in one pass, strings stay, and
  ``None``, bools and the package's enums map through one dict;
* CSV: floats, ints and the package's enums stay, or map through one dict
  with ``None`` among them; bools map by index; strings stay unless one
  needs quoting, and such a one is quoted;
* JSON: finite floats and ints stay, strings are escaped in one pass, and
  ``None``, bools and enums map through one dict.

Any other column goes through the cell rule. One loop, ``_converted``,
runs a writer's column rule over each column of a block, in the block's
list itself; the writer then writes the block's text in one ``%`` call on
a template of one line or object per row. A column that the caller holds
``fixed`` (one value in every row) is written into the template once, by
the cell rule.
A column whose cells are, row by row, the very objects (``is``) of the
column before it, as a cover-factor sweep's ``delta`` is its ``x``, is
found by ``_converted`` and formatted once for both. A CSV field that
holds a comma, a double quote, CR or LF is quoted, each double quote doubled,
on every Python alike; the JSON text is byte for byte what ``json.dumps(...,
indent=2, allow_nan=False)`` would write, without its Python code per cell or row.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from enum import Enum
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .propagation import Regime, Validity

#: rows per block of a sweep's or a scenario's ``Batch``; each reads it when it is called
_BLOCK_ROWS = 4096


class Batch:
    """Rows given block by block: ``blocks`` yields flat lists of ``width`` cells per row.

    A row holds the cells of the ``columns`` not in ``fixed``, in column
    order, then, when ``width`` is one more, its record's ``error``, which
    only JSON writes. ``fixed`` maps each other column to its value in
    every row.
    """

    def __init__(self, columns: tuple[str, ...], width: int, fixed: dict, blocks) -> None:
        self.columns, self.width, self.fixed, self.blocks = columns, width, fixed, blocks

    def records(self, record: type) -> list:
        """Every row as a ``record``, a tuple class whose fields are the batch's columns in
        order, then ``error`` where a row holds one."""
        cell = chain.from_iterable(self.blocks)
        # zip takes a record's fields in order, so each varying one is the next cell
        fields = [repeat(self.fixed[key]) if key in self.fixed else cell for key in record._fields]
        # tuple.__new__ is the record's own constructor, less a Python call frame per row
        return list(map(functools.partial(tuple.__new__, record), zip(*fields)))


def _fixed_slots(columns: tuple[str, ...], fixed: dict, slot: str, cell) -> list[str]:
    """Each column's slot in a row template: ``slot``, or for a fixed column ``slot``
    filled once with the ``cell`` rule's text of its value, each ``%`` doubled."""
    return [
        (slot % (cell(fixed[name]),)).replace("%", "%%") if name in fixed else slot
        for name in columns
    ]


def _converted(cells: list, width: int, varying: int, column) -> tuple:
    """The cells for the row template, each of a row's first ``varying`` columns (of
    ``width``) converted by the format's ``column`` rule.

    A varying column whose cells are, row by row, the very objects of the
    column before it (a cover-factor sweep's ``delta`` is its ``x``)
    repeats that one: both get the ``str()`` of its converted cells, which
    is what ``%s`` writes, formatted once.
    """
    previous: list = []
    for index in range(varying):
        current = cells[index::width]
        # row 0 first, then row by row up to the first cell that differs
        if previous and current[0] is previous[0] and all(map(operator.is_, current, previous)):
            text = cells[index - 1::width] = list(map(str, cells[index - 1::width]))
        else:
            text = column(current)
        if text is not None:
            cells[index::width] = text
        previous = current
    return tuple(cells)


def _line_blocks(batch: Batch, sep: str, slot: str, cell, column):
    """A header line of the column names in ``slot``s, then each block's text: a line of
    ``sep``-joined slots per row; a row's cells past its varying columns (its ``error``) go
    to ``%.0s``, which writes no text."""
    columns, width, fixed = batch.columns, batch.width, batch.fixed
    varying = len(columns) - len(fixed)
    line = sep.join(_fixed_slots(columns, fixed, slot, cell)) + "%.0s" * (width - varying) + "\n"
    yield sep.join([slot] * len(columns)) % columns + "\n"
    for cells in batch.blocks:
        yield (line * (len(cells) // width)) % _converted(cells, width, varying, column)


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


#: Cell types that ``%s`` writes as CSV text: a float by its repr, an int by
#: its str, and the package's enums, whose ``str()`` is their value.
_PLAIN = frozenset((float, int, Regime, Validity))
_PLAIN_OR_NONE = _PLAIN | {type(None)}


def _quoted(value: str) -> bool:
    """Whether the text's CSV field is quoted: it holds a comma, double quote, CR or LF."""
    return "," in value or '"' in value or "\r" in value or "\n" in value


def _csv_text(value: str) -> str:
    """The text as a CSV field: in double quotes, each one doubled, where it needs quoting."""
    return '"%s"' % value.replace('"', '""') if _quoted(value) else value


#: CSV text of ``None``, and of the package's enums, which ``%s`` writes more slowly
_CSV_CONSTANT = {None: "", **{flag: flag.value for flag in (*Regime, *Validity)}}
#: the text of ``False`` and ``True``, by index
_BOOL_TEXT = ("false", "true")


def _csv_cell(value: object) -> str:
    """CSV text of one cell; a type this rule does not know is read as its text, a ``str``
    subclass by ``str.__str__`` (an enum's value) and any other by ``str()``, then quoted."""
    kind = type(value)
    if kind in _PLAIN:
        return "%s" % (value,)
    if kind is str:
        return _csv_text(value)
    if kind is bool:
        return _BOOL_TEXT[value]
    if value is None:
        return ""
    return _csv_text(str.__str__(value) if isinstance(value, str) else str(value))


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


def _json_error(error: object) -> str:
    """The ``error`` member of an array's object, or no text for None."""
    if error is None:
        return ""
    return f',\n    "error": {_json_cell(error)}'


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


def _json_blocks(batch: Batch, end: str = ""):
    """JSON array of the batch's rows, then ``end``.

    The text is what ``json.dumps(objects, indent=2, allow_nan=False)``
    writes for the rows' dicts, a row's ``error`` a last key where it is
    not None: a non-finite float raises ``ValueError``, for the first one
    row by row, before its block's text. The array's ``[`` goes out with
    the first row's block, and a block of no rows gives no text.
    """
    columns, width, fixed = batch.columns, batch.width, batch.fixed
    varying = len(columns) - len(fixed)
    with_error = width > varying
    item = None
    for cells in batch.blocks:
        if not cells:
            continue
        if item is None:
            item = _json_template(columns, 1, with_error)
            if fixed:
                item %= (*_fixed_slots(columns, fixed, "%s", _json_cell), *["%s"] * with_error)
            lead = "[\n  "
        if not all(map(math.isfinite, filter(_is_float, cells))):
            list(map(_json_cell, cells))  # raises at the first, row by row
        if with_error:
            cells[varying::width] = list(map(_json_error, cells[varying::width]))
        # the block's objects, the comma or bracket before them in the first, are one template
        template = ",\n  ".join([lead + item, *[item] * (len(cells) // width - 1)])
        yield template % _converted(cells, width, varying, _json_column)
        lead = ",\n  "
    yield ("[]" if item is None else "\n]") + end


def render_blocks(batch: Batch, fmt: str):
    """The batch as pieces of ``table``, ``csv`` or ``json`` text.

    The pieces are the header (JSON's ``[`` goes with the first row), one
    piece per block, and JSON's ``]``; joined, they are the text, which ends
    with a newline in every format. A table left-aligns each cell in 13
    characters; CSV has LF line endings, ``true``/``false`` for a bool,
    and a field in double quotes, each one doubled, where it holds a comma,
    a double quote, CR or LF. Each block is converted in place.
    """
    if fmt == "json":
        return _json_blocks(batch, "\n")
    if fmt == "csv":
        return _line_blocks(batch, ",", "%s", _csv_cell, _csv_column)
    return _line_blocks(batch, "  ", "%-13s", _table_cell, _table_column)


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
