"""Checkpoint files: a truncated or corrupted file is refused with a named
error, and atomic writes reach the disk before they are renamed into place."""

import json
import os

import numpy as np
import pytest

import rinslab as rl
from rinslab.lab import _write_json_atomic


def _save_tiny(path):
    dims = rl.ModelDims(
        d_model=8, n_heads=2, mlp_dim=16, vocab=17, seq_len=8, total_layers=2
    )
    model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    rl.save_checkpoint(path, dims, "AB@d1", model.policy, model.init_params(0))


def test_loaded_arrays_own_writeable_buffers(tmp_path):
    path = tmp_path / "model.rlab"
    dims = rl.ModelDims(
        d_model=8, n_heads=2, mlp_dim=16, vocab=17, seq_len=8, total_layers=2
    )
    model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    params = model.init_params(0)
    moments = {k: v * 0.5 for k, v in params.items()}
    rl.save_checkpoint(path, dims, "AB@d1", model.policy, params, step=3,
                       adam_m=moments, adam_v=params)
    ckpt = rl.load_checkpoint(path)
    for saved, loaded in ((params, ckpt.params), (moments, ckpt.adam_m),
                          (params, ckpt.adam_v)):
        assert loaded.keys() == saved.keys()
        for name, arr in loaded.items():
            flags = arr.flags
            assert flags.c_contiguous and flags.writeable and flags.owndata, name
            assert arr.dtype == saved[name].dtype and arr.shape == saved[name].shape
            assert arr.tobytes() == saved[name].tobytes(), name
    arrays = [a for d in (ckpt.params, ckpt.adam_m, ckpt.adam_v) for a in d.values()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                   for b in arrays[i + 1:])


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


@pytest.mark.parametrize("name", ["block.A.layer.0.attn.q", "head.w"])
def test_flipped_payload_byte_refused(tmp_path, name):
    path = tmp_path / "model.rlab"
    _save_tiny(path)
    blob = bytearray(path.read_bytes())
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    (entry,) = [e for e in json.loads(blob[16:header_end])["arrays"] if e["name"] == name]
    blob[header_end + entry["offset"] + 1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as ei:
        rl.load_checkpoint(path)
    assert str(ei.value) == f"corrupt checkpoint {path}: array {name!r} fails its checksum"


def test_checkpoint_without_checksums_refused(tmp_path):
    path = tmp_path / "model.rlab"
    _save_tiny(path)
    blob = path.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:header_end])
    for entry in header["arrays"]:
        del entry["crc32"]
    old = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + len(old).to_bytes(8, "little") + old + blob[header_end:])
    with pytest.raises(ValueError, match="predates per-array checksums") as ei:
        rl.load_checkpoint(path)
    assert str(path) in str(ei.value)


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
