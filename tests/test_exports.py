"""Export lists name only things that exist and that something outside the
tests uses."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import rinslab as rl

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_resolve():
    assert [n for n in rl.__all__ if not hasattr(rl, n)] == []


@pytest.mark.parametrize(
    "module",
    ["signatures", "ledger", "layers", "model", "optim", "training", "corpus",
     "scaling", "evals", "checkpoint", "lab"],
)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"rinslab.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _referenced_names() -> set[str]:
    """Every Name and Attribute in the package (bar __init__), demos and bench."""
    files = [p for p in (ROOT / "src" / "rinslab").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    # a public name that only the tests use is surface nobody needs
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    used = _referenced_names() | readme
    assert [n for n in rl.__all__ if n not in used] == []


def _private_module_names(tree: ast.Module) -> set[str]:
    """The module-level _private functions, classes and constants a file defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read():
    # a private helper nothing reads is dead code; a definition or an import
    # is not a read, only a Name or Attribute in Load context is
    defined, loaded = {}, set()
    for path in sorted((ROOT / "src" / "rinslab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update({n: path.name for n in _private_module_names(tree)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert defined  # the scan found the package's private names
    assert sorted(f"{f}:{n}" for n, f in defined.items() if n not in loaded) == []
