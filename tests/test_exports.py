"""Export lists name only things that exist and that something outside the
tests uses."""

import ast
import importlib
import inspect
import re
import sys
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


def _rinslab_chains(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain read off a name bound by `import rinslab [as x]`:
    rl.model._LANES gives ("model",) and ("model", "_LANES")."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names if a.name == "rinslab"}
    chains = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            chains.add(tuple(chain))
    return chains


def _resolves(chain) -> bool:
    """Each name of the chain exists while the object it is read off is a
    module; past the first non-module the chain reads instance state."""
    obj = rl
    for name in chain:
        if not inspect.ismodule(obj):
            return True
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_demo_and_bench_names_exist():
    # no demo or bench script runs in this suite, so a name one of them
    # reads must be checked here or its removal goes unnoticed
    files = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")])
    chains = {(p.name, c) for p in files for c in _rinslab_chains(p)}
    assert len({p for p, _ in chains}) > 3  # the scan found the scripts
    assert sorted(f"{p}: {'.'.join(c)}" for p, c in chains if not _resolves(c)) == []


def _tracer_targets() -> list[tuple[str, str, str]]:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    # the tracer records a target it cannot find as a null metric, not as
    # a failure, so a renamed traced function must fail here
    missing = []
    targets = _tracer_targets()
    for _, owner, attr in targets:
        parts = owner.split(".")
        cut = max(i for i in range(1, len(parts) + 1) if ".".join(parts[:i]) in sys.modules)
        obj = sys.modules[".".join(parts[:cut])]
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
        if not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert len(targets) >= 20 and missing == []
