"""Every module-level name in ``src/qkdsim`` has a caller outside the
tests: the library, the demos or the benchmark.  Code only the tests
call lives in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qkdsim"


def _modules():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _defined() -> set:
    """Module-level defs, classes and assigned names, dunders left out."""
    names = set()
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Store))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _used() -> set:
    """Names loaded, imported or read as attributes by the library, the
    demos and the benchmark, test files left out."""
    paths = _modules() + sorted((ROOT / "demos").glob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_name_has_a_caller():
    orphans = sorted(_defined() - _used())
    assert orphans == [], "no caller outside the tests"


def test_every_public_name_resolves():
    # what ``from qkdsim import *`` binds: every name in ``__all__``
    import qkdsim
    namespace = {}
    exec("from qkdsim import *", namespace)
    assert sorted(set(qkdsim.__all__) - set(namespace)) == []

