"""On-disk formats, pinned byte for byte.

Each record is built by hand (no training run), written, and compared with
the bytes this version of the lab has always produced. A change here breaks
every trace, fit, task file or checkpoint already on disk, so it must be
deliberate.
"""

import dataclasses
import hashlib
import json

import numpy as np

import rinslab as rl


def _trace():
    return rl.LossTrace(
        records=[
            rl.TraceRecord(1, 96.0, 4.25, 0.001, 2),
            rl.TraceRecord(2, 224.0, 3.875, 0.0007071067811865476, 3, {"held": 3.9}),
        ],
        eval_names=["held"],
        expected_cost_per_step=112.0,
        meta={"signature": "AAAB@d1", "start_step": 0, "total_steps": 2,
              "cost_mode": "layer-pass"},
    )


def test_trace_csv(tmp_path):
    _trace().to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"step,compute,train_loss,lr,rounds,eval_held\r\n"
        b"1,96.0,4.25,0.001,2,\r\n"
        b"2,224.0,3.875,0.0007071067811865476,3,3.9\r\n"
    )


def test_trace_jsonl(tmp_path):
    trace = _trace()
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    assert path.read_bytes() == (
        b'{"header": {"eval_names": ["held"], "aborted": false, "abort_reason": "", '
        b'"expected_cost_per_step": 112.0, "meta": {"signature": "AAAB@d1", '
        b'"start_step": 0, "total_steps": 2, "cost_mode": "layer-pass"}}}\n'
        b'{"step": 1, "compute": 96.0, "train_loss": 4.25, "lr": 0.001, '
        b'"rounds": 2, "eval_losses": {}}\n'
        b'{"step": 2, "compute": 224.0, "train_loss": 3.875, '
        b'"lr": 0.0007071067811865476, "rounds": 3, "eval_losses": {"held": 3.9}}\n'
    )
    assert rl.LossTrace.from_jsonl(path) == trace


def test_fits_json(tmp_path):
    fits = {
        "a": rl.FitResult(2.5, 0.25, 1.5, 0.125, 6, 10.0, 1000.0),
        "b": rl.FitResult(3.0, 0.5, 0.0, 0.0, 4),  # open range: fit_x_max inf
    }
    path = tmp_path / "fits.json"
    rl.write_fits_json(path, fits)
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "beta": 2.5,\n    "c": 0.25,\n    "eps_inf": 1.5,\n'
        b'    "residual": 0.125,\n    "n_points": 6,\n    "fit_x_min": 10.0,\n'
        b'    "fit_x_max": 1000.0\n  },\n  "b": {\n    "beta": 3.0,\n    "c": 0.5,\n'
        b'    "eps_inf": 0.0,\n    "residual": 0.0,\n    "n_points": 4,\n'
        b'    "fit_x_min": 0.0,\n    "fit_x_max": Infinity\n  }\n}'
    )
    loaded = json.loads(path.read_text())
    assert {k: rl.FitResult(**v) for k, v in loaded.items()} == fits


def test_task_jsonl(tmp_path):
    items = [
        rl.MCQItem("ctx", "", ("yes", "no"), 1),
        rl.MCQItem("passage", "question", ("a", "b", "c"), 2, style="boolq"),
    ]
    path = tmp_path / "tasks.jsonl"
    rl.write_task_jsonl(path, items)
    assert path.read_bytes() == (
        b'{"context": "ctx", "prefix": "", "options": ["yes", "no"], '
        b'"gold_index": 1, "style": "plain"}\n'
        b'{"context": "passage", "prefix": "question", "options": ["a", "b", "c"], '
        b'"gold_index": 2, "style": "boolq"}\n'
    )
    assert rl.read_task_jsonl(path) == items


def test_task_reader_defaults_and_ignores_unknown_keys(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text('{"options": ["x", "y"], "gold_index": 0, "source": "web"}\n\n')
    assert rl.read_task_jsonl(path) == [rl.MCQItem("", "", ("x", "y"), 0, "plain")]


def test_checkpoint(tmp_path):
    dims = rl.ModelDims(d_model=4, n_heads=2, mlp_dim=8, vocab=5, seq_len=3,
                        total_layers=2)
    policy = rl.RecursionPolicy(r_max=3, p_skip=0.25, kv_share=True, adapters=True,
                                inference_rounds=2)
    params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
              "b": np.arange(3, dtype=np.float64)}
    adam_m = {k: v + 0.5 for k, v in params.items()}
    adam_v = {k: v * 2 for k, v in params.items()}
    trace = [dataclasses.asdict(rl.TraceRecord(7, 12.5, 4.25, 0.001, 2))]
    path = tmp_path / "c.rlab"
    rl.save_checkpoint(path, dims, "AAAB@d1", policy, params, step=7,
                       adam_m=adam_m, adam_v=adam_v, extra={"trace": trace})
    blob = path.read_bytes()
    assert len(blob) == 1056
    assert hashlib.sha256(blob).hexdigest() == (
        "813b3ee42bc1e80af8727c5606a8dbf8ad3a2db9271a2ed8d0d953f0f035e921"
    )
    back = rl.load_checkpoint(path)
    assert (back.dims, back.policy, back.step) == (dims, policy, 7)
    assert back.extra == {"trace": trace}
    for k in params:
        assert np.array_equal(back.params[k], params[k])
        assert np.array_equal(back.adam_m[k], adam_m[k])
        assert np.array_equal(back.adam_v[k], adam_v[k])
