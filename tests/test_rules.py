"""Each domain rule is written once: in its checker in ``propagation``.

A checker is a ``_check_*`` function of ``propagation.py``. Every entry
that takes the input calls it, and an entry whose contract names another
error class wraps its error, so the message is written once, in the
checker. The package is read with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foliage_link"

#: the model's input rules; a new rule adds its checker here
CHECKERS = {
    "_check_distance", "_check_frequency", "_check_delta", "_check_partial_cover",
    "_check_height", "_check_foliage_height",
}


def _messages() -> dict[str, str]:
    """Each checker's name and the longest fixed text of the message it raises."""
    tree = ast.parse((PACKAGE / "propagation.py").read_text(encoding="utf-8"))
    messages = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
            (raise_,) = [item for item in ast.walk(node) if isinstance(item, ast.Raise)]
            pieces = [item.value for item in ast.walk(raise_.exc.args[0])
                      if isinstance(item, ast.Constant) and isinstance(item.value, str)]
            messages[node.name] = max(pieces, key=len)
    return messages


def _literals() -> list[tuple[str, str]]:
    """``(module, text)`` of every string literal in the package but its docstrings."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        found += [(path.stem, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings]
    return found


def test_every_rule_has_its_checker():
    assert set(_messages()) == CHECKERS


def test_each_checker_message_is_written_once():
    literals = _literals()
    for checker, text in _messages().items():
        holders = [module for module, literal in literals if text in literal]
        assert holders == ["propagation"], (checker, text, holders)
