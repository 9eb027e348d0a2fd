"""Checkpoint files: a truncated file is refused with a named error."""

import pytest

import rinslab as rl


@pytest.mark.parametrize("cut", ["payload", "header"])
def test_truncated_file_refused(tmp_path, cut):
    dims = rl.ModelDims(
        d_model=8, n_heads=2, mlp_dim=16, vocab=17, seq_len=8, total_layers=2
    )
    model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    path = tmp_path / "model.rlab"
    rl.save_checkpoint(path, dims, "AB@d1", model.policy, model.init_params(0))
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
