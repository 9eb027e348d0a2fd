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
