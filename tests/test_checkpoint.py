"""Checkpoint files: a truncated file is refused with a named error, and
atomic writes reach the disk before they are renamed into place."""

import os

import pytest

import rinslab as rl
from rinslab.lab import _write_json_atomic


def _save_tiny(path):
    dims = rl.ModelDims(
        d_model=8, n_heads=2, mlp_dim=16, vocab=17, seq_len=8, total_layers=2
    )
    model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    rl.save_checkpoint(path, dims, "AB@d1", model.policy, model.init_params(0))


@pytest.mark.parametrize("cut", ["payload", "header"])
def test_truncated_file_refused(tmp_path, cut):
    path = tmp_path / "model.rlab"
    _save_tiny(path)
    blob = path.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    expected, keep = {
        "payload": (len(blob), len(blob) - 5),
        "header": (header_end, header_end - 10),
    }[cut]
    path.write_bytes(blob[:keep])
    with pytest.raises(ValueError) as ei:
        rl.load_checkpoint(path)
    msg = str(ei.value)
    assert "truncated checkpoint" in msg and str(path) in msg
    assert f"expected {expected} bytes, file has {keep}" in msg


@pytest.mark.parametrize(
    "write",
    [_save_tiny, lambda path: _write_json_atomic(path, {"status": "done"})],
    ids=["save_checkpoint", "write_json_atomic"],
)
def test_fsync_before_rename(tmp_path, monkeypatch, write):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.getsize(src)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "out"
    write(path)
    size = path.stat().st_size
    # the synced file already holds every byte that gets renamed into place
    assert calls == [("fsync", size), ("replace", size)]
