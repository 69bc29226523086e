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


def _defaulted_parameters(tree: ast.Module):
    """``(function, parameter, position)`` of each positional parameter with a
    default in a private function; ``position`` skips a method's ``self``."""
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            continue
        params = [*node.args.posonlyargs, *node.args.args]
        skip = 1 if params and params[0].arg in ("self", "cls") else 0
        for index in range(len(params) - len(node.args.defaults), len(params)):
            yield node.name, params[index].arg, index - skip


def _passes(call: ast.Call, name: str, position: int) -> bool:
    """Whether ``call`` may set the parameter ``name`` at ``position``."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return (len(call.args) > position
            or any(kw.arg in (name, None) for kw in call.keywords))


def unset_parameters(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """``(path, function, parameter)`` of each defaulted positional parameter of
    a private package function that no call passes.  Keyword-only parameters
    are scenario options, set from JSON, and are not checked."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [(path, fn, param) for path, tree in trees.items() if path.startswith(PACKAGE)
            for fn, param, position in _defaulted_parameters(tree)
            if not any(_passes(call, param, position) for call in calls.get(fn, []))]


def test_every_defaulted_parameter_is_passed():
    assert unset_parameters(_sources()) == []


def test_a_planted_unset_parameter_is_found():
    sources = _sources()
    path = f"{PACKAGE}/simulation.py"
    sources[path] += ("\n\ndef _planted_scale(x, gain=2.0, offset=0.0, *, option=1.0):\n"
                      "    return gain * x + offset + option\n"
                      "\n\nclass _Planted:\n    def _step(self, x, rate=1.0):\n"
                      "        return x * rate\n"
                      "\n\nPLANTED = (_planted_scale(1.0, 3.0), _Planted()._step(2.0))\n")
    assert unset_parameters(sources) == [(path, "_planted_scale", "offset"),
                                         (path, "_step", "rate")]
