"""No dead imports: a name a package module imports and never reads is one the tracer rebinds.

``perfbench/spans.py`` rebinds module attributes from outside the package
(its ``BINDINGS``), so a module may import a name only for the tracer to
find it there. Any other import that the module never reads is dead code.
Both files are read with ``ast``; neither is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "foliage_link"


def _assigned(tree: ast.Module, name: str) -> ast.expr | None:
    """The value of the module's top-level ``name = ...``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    return None


def _bindings() -> set[tuple[str, str]]:
    """``(module, attribute)`` of every entry of ``perfbench/spans.py``'s ``BINDINGS``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    # each entry is (module, attribute, kind), the kind a name such as SPAN
    return {(entry.elts[0].value, entry.elts[1].value) for entry in _assigned(tree, "BINDINGS").elts}


def _unused_imports(path: Path) -> set[str]:
    """Names the module imports and never reads, ``__all__``'s entries counting as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _assigned(tree, "__all__")
    if exported is not None:
        used.update(ast.literal_eval(exported))
    return imported - used


def _unused_by_module() -> dict[str, set[str]]:
    """Each package module's unused imports, for the modules that have any."""
    unused = {
        "foliage_link" if path.stem == "__init__" else f"foliage_link.{path.stem}":
        _unused_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    return {module: names for module, names in unused.items() if names}


def test_every_unused_import_is_a_tracer_binding():
    bindings = _bindings()
    for module, names in _unused_by_module().items():
        assert {(module, name) for name in names} <= bindings, module


#: the imports that only the tracer reads; they go once it stops rebinding module attributes
TRACER_ONLY = {
    "foliage_link.budget": {"LinkGeometry", "total_loss"},
    "foliage_link.cli": {"emit_csv", "emit_json", "evaluate_scenario", "parse_scenario", "run_sweep"},
    "foliage_link.scenario": {"LinkGeometry", "total_loss"},
    "foliage_link.sweep": {"total_loss"},
}


def test_the_tracer_only_imports_are_pinned():
    assert _unused_by_module() == TRACER_ONLY


def test_the_writers_know_no_record():
    """``render.py`` imports from the package only the enums it writes: each record's
    columns are named beside the record, and reach the writers from their callers."""
    tree = ast.parse((PACKAGE / "render.py").read_text(encoding="utf-8"))
    from_package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("foliage_link")):
            from_package.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            from_package.update(
                (alias.name, None) for alias in node.names if alias.name.startswith("foliage_link")
            )
    assert from_package == {("propagation", "Regime"), ("propagation", "Validity")}
