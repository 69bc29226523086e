"""Every module-level definition in the package is used somewhere.

A function, class or constant defined at module level in ``src/gwxlab``
must be referenced, by name or as an attribute, somewhere in
``src/gwxlab``, ``perfbench/`` or ``tools/`` other than at its own
definition.  Tests do not count: code that only a test calls is dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/gwxlab"
READERS = (PACKAGE, "perfbench", "tools")


def _sources() -> dict[str, str]:
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
            for folder in READERS for path in sorted((ROOT / folder).rglob("*.py"))}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def orphans(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(path, name)`` of each package definition that nothing references."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    used = {name for tree in trees.values() for name in _references(tree)}
    return [(path, name) for path, tree in trees.items() if path.startswith(PACKAGE)
            for name in _definitions(tree)
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


def test_every_package_definition_is_referenced():
    assert orphans(_sources()) == []


def test_a_planted_orphan_is_found():
    sources = _sources()
    path = f"{PACKAGE}/simulation.py"
    sources[path] += ("\n\ndef _planted_helper():\n    return _PLANTED_CONSTANT\n"
                      "\n\n_PLANTED_CONSTANT: float = 2.0\n\n\nclass PlantedRecord:\n"
                      "    planted_field = _planted_helper\n")
    sources[f"{PACKAGE}/planted.py"] = "PLANTED_TABLE = {}\n"
    assert orphans(sources) == [(path, "PlantedRecord"), (f"{PACKAGE}/planted.py",
                                                         "PLANTED_TABLE")]
