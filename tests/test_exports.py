"""Export lists name only things that exist."""

import importlib

import pytest

import rinslab as rl


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
