"""tools/identity.py: the byte-identity battery agrees with itself on one
tree, and reports a planted one-ulp change and a missing name by file."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

# Appended to a copy of layers.py: the head's first logit of every forward
# moves up by one ulp. model.py imports _dense after layers has run, so it
# takes this one.
_PLANT = '''

_planted = _dense


def _dense(x, p, w, b=None):
    y = _planted(x, p, w, b)
    if w == "head.w":
        y.flat[0] = np.nextafter(y.flat[0], np.inf)
    return y
'''


def _copy_tree(dst: Path) -> Path:
    for part in ("src", "demos"):
        shutil.copytree(ROOT / part, dst / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.fixture(scope="module")
def here(tmp_path_factory):
    return identity.run_battery(ROOT, tmp_path_factory.mktemp("bat") / "here")


def test_battery_covers_every_section(here):
    names = set(identity.digests(here))
    assert not [n for n in names if n.endswith(".error")]
    for want in ("runs/ab/checkpoint.rlab", "runs/aaab-rins/trace.jsonl",
                 "runs/aaab-reset/manifest.json", "runs/sweep/comparison.csv",
                 "report-held/summary.json", "eval-full1.jsonl",
                 "grads-float64-r3.npz", "mcq-float32.json", "optim.npz", "pack-11.npz",
                 "corpus-capped.json", "ckpt-aaab-rins.npz", "ckpt-ab.json",
                 "demo-mcq_eval.txt"):
        assert want in names, want


def test_two_runs_on_one_tree_agree(here, tmp_path):
    again = identity.run_battery(ROOT, tmp_path / "again")
    assert identity.differences(here, again) == []


def test_planted_ulp_is_reported_by_file(here, tmp_path):
    tree = _copy_tree(tmp_path / "planted")
    layers = tree / "src" / "rinslab" / "layers.py"
    layers.write_text(layers.read_text(encoding="utf-8") + _PLANT, encoding="utf-8")
    lines = identity.differences(here, identity.run_battery(tree, tmp_path / "out"))
    for name in ("runs/ab/checkpoint.rlab", "runs/ab/trace.csv",
                 "runs/aaab-rins/checkpoint.rlab", "report-held/summary.json",
                 "forward-float32.npz", "grads-float64-r1.npz"):
        assert f"differs: {name}" in lines, lines
    # packing never reaches _dense, and both trees write the same files
    assert not [line for line in lines if "pack-" in line or "only in" in line]


def test_missing_name_is_reported_not_fatal(here, tmp_path):
    tree = _copy_tree(tmp_path / "older")
    init = tree / "src" / "rinslab" / "__init__.py"
    text = init.read_text(encoding="utf-8")
    init.write_text(text.replace("    cmd_sweep,\n", ""), encoding="utf-8")
    lines = identity.differences(here, identity.run_battery(tree, tmp_path / "out"))
    assert "only in out: sweep.error" in lines
    assert not [line for line in lines if "runs/ab/" in line]
    error = (tmp_path / "out" / "sweep.error").read_text(encoding="utf-8")
    assert "cmd_sweep" in error
