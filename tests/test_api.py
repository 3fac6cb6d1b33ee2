"""Every module-level name in ``src/qkdsim`` has a caller outside the
tests, or waits in ``WAITING`` for the ROADMAP item that gives it one."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qkdsim"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# name -> ROADMAP item that gives it a caller
WAITING = {
    "sample_singlet": 3,
    "csiszar_korner": 10,
    "intrinsic_information": 10,
    "parity_knowledge": 11,
    "CHAU_THRESHOLD_BB84": 11,
    "CHAU_THRESHOLD_SIX_STATE": 11,
}


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


def _named_in_workflow(name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", WORKFLOW.read_text()) is not None


def _callers() -> dict:
    used = _used()
    return {n: n in used or _named_in_workflow(n) for n in _defined()}


def test_every_name_has_a_caller_or_waits():
    orphans = sorted(n for n, called in _callers().items()
                     if not called and n not in WAITING)
    assert orphans == [], "no caller outside the tests"


def test_waiting_list_is_current():
    callers = _callers()
    gone = sorted(n for n in WAITING if n not in callers)
    called = sorted(n for n in WAITING if callers.get(n))
    assert gone == [] and called == [], (gone, called)
