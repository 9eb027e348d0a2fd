"""Run configs, hashing, run/sweep/fit/report/eval commands, exit codes."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rinslab as rl
import rinslab.lab
from rinslab import cli
from rinslab.lab import _batches_for, _resolve_corpus


def make_ini(
    name="demo",
    signature="AAB",
    total_layers=2,
    total_steps=6,
    baseline=None,
    policy_lines="",
    eval_line="",
    seed=0,
    out_dir=None,
    vocab=65,
):
    out_dir = out_dir or name
    text = f"""
[run]
name = {name}
out_dir = {out_dir}
seed = {seed}

[signature]
value = {signature}

[model]
d_model = 16
n_heads = 2
mlp_dim = 32
vocab = {vocab}
seq_len = 16
total_layers = {total_layers}

{policy_lines}

[train]
peak_lr = 3e-3
warmup_steps = 1
total_steps = {total_steps}
batch_size = 4
eval_interval = 3

[corpus]
train = grammar:600
{eval_line}
"""
    if baseline:
        text += f"\n[baseline]\nsignature = {baseline[0]}\nsteps = {baseline[1]}\n"
    return text


class TestParseConfig:
    def test_minimal_with_defaults(self):
        spec = rl.parse_run_config(make_ini())
        assert spec.name == "demo"
        assert spec.out_dir == "demo"
        assert spec.seed == 0
        assert spec.dtype == "float32"
        assert spec.signature.symbols == "AAB"
        assert spec.policy.r_max == 2  # derived from the signature
        assert spec.policy.p_skip == 0.0
        assert spec.train_cfg.total_steps == 6
        assert spec.corpus_train == "grammar:600"
        assert spec.baseline is None

    def test_policy_section_parsed(self):
        lines = "[policy]\np_skip = 0.5\nkv_share = true\nadapters = yes\n"
        spec = rl.parse_run_config(make_ini(policy_lines=lines))
        assert spec.policy.p_skip == 0.5
        assert spec.policy.kv_share is True
        assert spec.policy.adapters is True

    def test_eval_corpora_parsed(self):
        spec = rl.parse_run_config(
            make_ini(eval_line="eval = held=grammar:400, alt=grammar:300:9")
        )
        assert spec.corpus_evals == (
            ("held", "grammar:400"), ("alt", "grammar:300:9")
        )

    def test_baseline_derives_total_steps(self):
        # A costs 1 call x 2 layers; AA costs 2 x 2: half the steps
        spec = rl.parse_run_config(
            make_ini(signature="AA", baseline=("A", 8), total_steps=999)
        )
        assert spec.train_cfg.total_steps == 4
        assert spec.declared_total_steps == 999
        assert spec.baseline[1] == 8

    def test_schedule_over_baseline_total_names_the_schedule(self):
        # total_steps = 999 is overridden by the 4 matched steps, so the
        # refusal names the key the user can change, not total_steps
        text = make_ini(signature="AA", baseline=("A", 8), total_steps=999)
        with pytest.raises(rl.ConfigError, match=r"^train\.cooldown_steps: .* 4$"):
            rl.parse_run_config(text.replace("warmup_steps = 1", "cooldown_steps = 5"))
        with pytest.raises(rl.ConfigError, match=r"^train\.warmup_steps: "):
            rl.parse_run_config(text.replace("warmup_steps = 1", "warmup_steps = 5"))

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda t: t.replace("[model]", "[modell]"), "unknown section"),
            (lambda t: t.replace("d_model = 16", "d_model = 16\nwidth = 3"), "model.width"),
            (lambda t: t.replace("[corpus]\ntrain = grammar:600", "[corpus]\n"), "corpus.train"),
            (lambda t: t.replace("d_model = 16", "d_model = wide"), "model.d_model"),
            (lambda t: t.replace("value = AAB", "value = 7B"), "signature.value"),
            (lambda t: t.replace("seq_len = 16", "seq_len = 16\ndtype = float16"), "model.dtype"),
        ],
    )
    def test_field_errors_name_the_key(self, mutate, fragment):
        with pytest.raises(rl.ConfigError) as ei:
            rl.parse_run_config(mutate(make_ini()))
        assert fragment in str(ei.value)

    def test_missing_section_rejected(self):
        text = make_ini().replace("[train]", "[train_oops]")
        with pytest.raises(rl.ConfigError):
            rl.parse_run_config(text)

    def test_bad_bool_rejected(self):
        lines = "[policy]\nkv_share = maybe\n"
        with pytest.raises(rl.ConfigError, match="policy.kv_share"):
            rl.parse_run_config(make_ini(policy_lines=lines))

    def test_infeasible_signature_rejected(self):
        with pytest.raises(rl.ConfigError, match="layers_per_block=0"):
            rl.parse_run_config(make_ini(signature="ABC", total_layers=2))

    def test_policy_bounds_become_config_errors(self):
        lines = "[policy]\ninference_rounds = 5\n"
        with pytest.raises(rl.ConfigError):
            rl.parse_run_config(make_ini(policy_lines=lines))

    def test_zero_matched_budget_rejected(self):
        # baseline budget too small to buy even one matched step
        with pytest.raises(rl.ConfigError, match="matched step count is 0"):
            rl.parse_run_config(make_ini(signature="AAAA", baseline=("A", 3)))

    @pytest.mark.parametrize("line", ["eval = grammar:400", "eval = =grammar:100",
                                      "eval = held=grammar:400, y="])
    def test_malformed_eval_entry(self, line):
        with pytest.raises(rl.ConfigError, match="corpus.eval"):
            rl.parse_run_config(make_ini(eval_line=line))


class TestConfigHash:
    def test_stable_under_formatting(self):
        a = rl.parse_run_config(make_ini())
        reordered = make_ini().replace(
            "[run]\nname = demo\nout_dir = demo\nseed = 0",
            "[run]\nseed = 0\nname = demo\nout_dir = demo  ; trailing note",
        )
        b = rl.parse_run_config(reordered)
        assert rl.config_hash(a) == rl.config_hash(b)

    def test_sensitive_to_values(self):
        a = rl.parse_run_config(make_ini())
        b = rl.parse_run_config(make_ini(seed=1))
        c = rl.parse_run_config(make_ini(signature="ABB"))
        assert rl.config_hash(a) != rl.config_hash(b)
        assert rl.config_hash(a) != rl.config_hash(c)

    def test_is_hex_sha256(self):
        h = rl.config_hash(rl.parse_run_config(make_ini()))
        assert len(h) == 64
        int(h, 16)

    @pytest.mark.parametrize(
        "text, expected",
        [
            (make_ini(),
             "7595f1d73c5f03e795e4b1faecf3d48b0744c776893f04c013e73fef460bdc8a"),
            (make_ini(policy_lines="[policy]\np_skip = 0.5\nkv_share = true\nadapters = yes\n"),
             "bcc4c8eebf0114d4b376e60be40f30466399f515e620bf9f4356fe344bc6fe15"),
            (make_ini(signature="AA", baseline=("A", 8), total_steps=999),
             "2c369a842d51d5569b7de6081cc765aeee5a00880857bc576dabb631af7a4900"),
            # batch_size, eval_interval and warmup_steps take their defaults
            (make_ini().replace("batch_size = 4\n", "")
             .replace("eval_interval = 3\n", "").replace("warmup_steps = 1\n", ""),
             "deb7994ba7ad345937f24c423a3c4027b34f2174751e0b3e2688e3059d81ca85"),
        ],
    )
    def test_pinned_hashes(self, text, expected):
        # completed runs are found by this hash; changing it re-runs them
        assert rl.config_hash(rl.parse_run_config(text)) == expected


def _by_section(keys):
    sections = {}
    for name in keys:
        section, _, key = name.partition(".")
        sections.setdefault(section, set()).add(key)
    return sections


def test_accepted_keys_pinned():
    from rinslab.lab import _RUN_KEYS, _SWEEP_KEYS

    model = {"d_model", "n_heads", "mlp_dim", "vocab", "seq_len", "total_layers", "dtype"}
    train = {
        "peak_lr", "weight_decay", "warmup_steps", "cooldown_steps", "total_steps",
        "batch_size", "grad_clip_norm", "eval_interval", "mask_reset",
    }
    corpus = {"train", "eval"}
    assert _by_section(_RUN_KEYS) == {
        "run": {"name", "out_dir", "seed"},
        "signature": {"value"},
        "model": model,
        "policy": {"p_skip", "kv_share", "adapters", "inference_rounds"},
        "train": train,
        "corpus": corpus,
        "baseline": {"signature", "steps"},
    }
    assert _by_section(_SWEEP_KEYS) == {
        "sweep": {"name", "baseline_signature", "baseline_steps"},
        "model": model,
        "train": train,
        "corpus": corpus,
        "run": {"seed"},
    }
    dims_keys = {f"model.{k}" for k in model - {"dtype"}}
    assert {name for name, (_, required, _) in _RUN_KEYS.items() if required} == {
        "run.name", "signature.value", "train.total_steps", "corpus.train",
        "baseline.signature", "baseline.steps", *dims_keys,
    }
    assert {name for name, (_, required, _) in _SWEEP_KEYS.items() if required} == {
        "sweep.baseline_signature", "sweep.baseline_steps", "train.total_steps",
        "corpus.train", *dims_keys,
    }


class TestCmdRun:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini(eval_line="eval = held=grammar:300"))
        manifest = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        run_dir = tmp_path / "runs" / "demo"
        for fname in ("config.ini", "manifest.json", "trace.csv",
                      "trace.jsonl", "checkpoint.rlab"):
            assert (run_dir / fname).exists(), fname
        assert manifest["status"] == "done"
        assert manifest["final_step"] == 6
        assert manifest["params_count"] > 0
        assert manifest["signature_tagged"] == "AAB@d1"
        assert "held" in manifest["final_eval_losses"]
        assert manifest["config_hash"] == rl.config_hash(
            rl.parse_run_config(cfg.read_text())
        )
        trace = rl.LossTrace.from_jsonl(run_dir / "trace.jsonl")
        assert len(trace.records) == 6
        ckpt = rl.load_checkpoint(run_dir / "checkpoint.rlab")
        assert ckpt.step == 6

    def test_idempotent_until_forced(self, tmp_path):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini())
        first = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        again = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert again["started_at"] == first["started_at"]  # skipped
        forced = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"), force=True)
        assert forced["started_at"] > first["started_at"]

    def test_config_change_triggers_fresh_run(self, tmp_path):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini())
        first = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        cfg.write_text(make_ini(seed=3))
        second = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert second["config_hash"] != first["config_hash"]
        assert second["status"] == "done"

    def test_failed_spec_keeps_finished_config(self, tmp_path):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini(signature="AB"))
        done = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        run_dir = tmp_path / "runs" / "demo"
        kept = (run_dir / "config.ini").read_bytes()

        cfg.write_text(make_ini(signature="AB").replace(
            "train = grammar:600", "train = missing.tokens"))
        with pytest.raises(rl.ConfigError, match="missing.tokens"):
            rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert (run_dir / "config.ini").read_bytes() == kept
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "done"
        assert rl.config_hash(rl.parse_run_config(kept.decode())) == \
            manifest["config_hash"] == done["config_hash"]

    def test_failed_rerun_leaves_finished_run_dir_unchanged(self, tmp_path):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini(signature="AB"))
        rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        run_dir = tmp_path / "runs" / "demo"
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

        rl.save_tokens(tmp_path / "bare.tokens", [[i % 60 for i in range(300)]])
        (tmp_path / "bare.tokens.json").unlink()
        cfg.write_text(make_ini(signature="AB").replace(
            "train = grammar:600", "train = bare.tokens"))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_resume_matches_uninterrupted(self, tmp_path):
        text = make_ini(total_steps=9)
        cfg = tmp_path / "demo.ini"
        cfg.write_text(text)
        spec = rl.parse_run_config(text)
        chash = rl.config_hash(spec)

        # uninterrupted reference
        ref_dir = tmp_path / "ref"
        cfg_ref = tmp_path / "ref.ini"
        cfg_ref.write_text(text)
        rl.cmd_run(cfg_ref, out_root=str(ref_dir))
        ref_params = rl.load_checkpoint(ref_dir / "demo" / "checkpoint.rlab").params

        # simulate a crash after a step-3 checkpoint
        run_dir = tmp_path / "runs" / "demo"
        run_dir.mkdir(parents=True)
        model = rl.RecursiveModel(spec.dims, rl.expand(spec.signature), spec.policy)
        params = model.init_params(spec.seed)
        docs = _resolve_corpus(spec.corpus_train, spec.dims, 0, tmp_path)
        batches = _batches_for(docs, spec.dims, spec.train_cfg.batch_size)
        half_cfg = dataclasses.replace(spec.train_cfg, total_steps=3)
        rl.train(model, params, batches, half_cfg,
                 checkpoint_path=run_dir / "checkpoint.rlab")
        (run_dir / "manifest.json").write_text(
            json.dumps({"config_hash": chash, "status": "running"})
        )

        resumed = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert resumed["status"] == "done"
        assert resumed["final_step"] == 9
        got = rl.load_checkpoint(run_dir / "checkpoint.rlab").params
        for k in ref_params:
            assert np.array_equal(ref_params[k], got[k]), k

    def test_manifest_records_lanes_outside_the_hash(self, tmp_path, monkeypatch):
        import rinslab.model as model_mod

        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini())
        chash = rl.config_hash(rl.parse_run_config(cfg.read_text()))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        for lanes in (1, 2):
            monkeypatch.setattr(model_mod, "_LANES", lanes)
            manifest = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"), force=True)
            (process,) = manifest["processes"]
            assert process["from_step"] == 0 and process["lanes"] == lanes
            assert process["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
            assert process["blas_threads"]["MKL_NUM_THREADS"] is None
            assert "OMP_NUM_THREADS" in process["blas_threads"]
            assert process["malloc"] == model_mod._MALLOC
            assert manifest["config_hash"] == chash
        # the allocator pin is recorded as it is, or as null without mallopt
        for pin in (None, {"mmap_threshold": 1 << 20, "trim_threshold": 1 << 21}):
            monkeypatch.setattr(model_mod, "_MALLOC", pin)
            manifest = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"), force=True)
            saved = json.loads((tmp_path / "runs" / "demo" / "manifest.json").read_text())
            assert saved["processes"][0]["malloc"] == pin
            assert manifest["config_hash"] == chash

    @pytest.mark.parametrize("first,then", [(1, 2), (2, 1)])
    def test_resume_under_other_lane_count_matches_uninterrupted(
        self, tmp_path, monkeypatch, first, then
    ):
        import rinslab.lab as lab_mod
        import rinslab.model as model_mod

        # One sequence's widest activation is 16 x 32 x 4 = 2 KiB, and a
        # micro-batch gets half the budget: batches of 4 run as two groups of
        # two, which one lane and two would cut differently if the lane count
        # sized them.
        monkeypatch.setattr(model_mod, "_GROUP_BYTES", 4 * 2048)
        text = make_ini(total_steps=9, eval_line="eval = held=grammar:300")
        spec = rl.parse_run_config(text)
        model = rl.RecursiveModel(spec.dims, rl.expand(spec.signature), spec.policy)
        assert len(model._micro_batches(np.zeros((4, 16), int))) == 2

        monkeypatch.setattr(model_mod, "_LANES", then)
        cfg_ref = tmp_path / "ref.ini"
        cfg_ref.write_text(text)
        rl.cmd_run(cfg_ref, out_root=str(tmp_path / "ref"))
        ref_dir = tmp_path / "ref" / "demo"

        # cmd_run under `first` is killed after steps 1-3 and their
        # checkpoint, then cmd_run resumes under `then`
        real_train = lab_mod.train

        def killed_after_step_3(model, params, batches, cfg, **kw):
            real_train(model, params, batches, dataclasses.replace(cfg, total_steps=3), **kw)
            raise RuntimeError("killed")

        monkeypatch.setattr(lab_mod, "train", killed_after_step_3)
        monkeypatch.setattr(model_mod, "_LANES", first)
        cfg = tmp_path / "demo.ini"
        cfg.write_text(text)
        with pytest.raises(RuntimeError, match="killed"):
            rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        monkeypatch.setattr(lab_mod, "train", real_train)
        monkeypatch.setattr(model_mod, "_LANES", then)
        resumed = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert resumed["final_step"] == 9
        # the manifest keeps the killed process's entry and adds the resume's
        assert [(e["from_step"], e["lanes"]) for e in resumed["processes"]] == [
            (0, first), (3, then)]

        # the resumed trace files are the uninterrupted run's, held-out
        # losses included, byte for byte
        run_dir = tmp_path / "runs" / "demo"
        ref_lines = (ref_dir / "trace.jsonl").read_text().splitlines()
        assert len(ref_lines) == 10 and '"held"' in ref_lines[-1]
        for name in ("trace.jsonl", "trace.csv"):
            assert (run_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name
        got = rl.load_checkpoint(run_dir / "checkpoint.rlab").params
        want = rl.load_checkpoint(ref_dir / "checkpoint.rlab").params
        for k in want:
            assert np.array_equal(want[k], got[k]), k

    def test_killed_run_keeps_its_curve_to_the_checkpoint(self, tmp_path, monkeypatch):
        # killed during step 4, after the step-3 checkpoint: the trace files
        # hold that checkpoint's rows, and the rerun ends with the
        # uninterrupted run's files
        text = make_ini(total_steps=9, eval_line="eval = held=grammar:300")
        (tmp_path / "ref.ini").write_text(text)
        rl.cmd_run(tmp_path / "ref.ini", out_root=str(tmp_path / "ref"))
        real_step = rl.RecursiveModel.loss_and_grads
        steps = []

        def killed_at_step_4(self, *args, **kw):
            steps.append(1)
            if len(steps) == 4:
                raise RuntimeError("killed")
            return real_step(self, *args, **kw)

        monkeypatch.setattr(rl.RecursiveModel, "loss_and_grads", killed_at_step_4)
        cfg = tmp_path / "demo.ini"
        cfg.write_text(text)
        with pytest.raises(RuntimeError, match="killed"):
            rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        monkeypatch.setattr(rl.RecursiveModel, "loss_and_grads", real_step)

        run_dir, ref_dir = tmp_path / "runs" / "demo", tmp_path / "ref" / "demo"
        rows = rl.load_checkpoint(run_dir / "checkpoint.rlab").extra["trace"]
        assert [r["step"] for r in rows] == [1, 2, 3] and rows[-1]["eval_losses"]
        trace = rl.LossTrace.from_jsonl(run_dir / "trace.jsonl")
        assert [dataclasses.asdict(r) for r in trace.records] == rows
        assert not trace.aborted and trace.eval_names == ["held"]
        trace.to_csv(tmp_path / "rows.csv")
        assert (run_dir / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert not list(run_dir.glob("*.tmp"))

        assert rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))["status"] == "done"
        for name in ("trace.jsonl", "trace.csv", "checkpoint.rlab"):
            assert (run_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name

    def test_rerun_after_final_checkpoint_completes(self, tmp_path, monkeypatch):
        # killed after the last step's checkpoint, before the trace files and
        # the final manifest were written: the rerun trains no step, and
        # still reports the whole run
        import rinslab.lab as lab_mod

        text = make_ini(eval_line="eval = held=grammar:300")
        (tmp_path / "ref.ini").write_text(text)
        ref = rl.cmd_run(tmp_path / "ref.ini", out_root=str(tmp_path / "ref"))
        real_train = lab_mod.train

        def killed_after_training(*args, **kw):
            real_train(*args, **kw)
            raise RuntimeError("killed")

        monkeypatch.setattr(lab_mod, "train", killed_after_training)
        cfg = tmp_path / "demo.ini"
        cfg.write_text(text)
        with pytest.raises(RuntimeError, match="killed"):
            rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        monkeypatch.setattr(lab_mod, "train", real_train)
        rerun = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert rerun["status"] == "done"
        for key in ("final_step", "final_train_loss", "realized_compute_total",
                    "final_eval_losses"):
            assert rerun[key] == ref[key], key
        run_dir, ref_dir = tmp_path / "runs" / "demo", tmp_path / "ref" / "demo"
        for name in ("trace.jsonl", "trace.csv"):
            assert (run_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name

    def test_rerun_of_other_config_in_a_done_run_dir_starts_afresh(
        self, tmp_path, monkeypatch
    ):
        # Spec B shares spec A's out_dir and is killed before its first
        # checkpoint. Rerunning B must train B from step 0, not resume A's
        # final checkpoint under B's hash.
        import rinslab.lab as lab_mod

        text_a = make_ini(signature="AB", total_layers=2).replace(
            "eval_interval = 3", "eval_interval = 2")
        text_b = text_a.replace("peak_lr = 3e-3", "peak_lr = 1e-3")
        cfg = tmp_path / "demo.ini"
        cfg.write_text(text_a)
        assert rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))["status"] == "done"
        (tmp_path / "ref.ini").write_text(text_b)
        ref = rl.cmd_run(tmp_path / "ref.ini", out_root=str(tmp_path / "ref"))

        real_train = lab_mod.train

        def killed_at_once(*args, **kw):
            raise RuntimeError("killed")

        monkeypatch.setattr(lab_mod, "train", killed_at_once)
        cfg.write_text(text_b)
        with pytest.raises(RuntimeError, match="killed"):
            rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        monkeypatch.setattr(lab_mod, "train", real_train)
        rerun = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert [e["from_step"] for e in rerun["processes"]] == [0]
        assert rerun["final_train_loss"] == ref["final_train_loss"]
        run_dir, ref_dir = tmp_path / "runs" / "demo", tmp_path / "ref" / "demo"
        for name in ("trace.jsonl", "trace.csv", "checkpoint.rlab"):
            assert (run_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name

    def test_sigkilled_run_resumes_to_identical_files(self, tmp_path):
        # a real `rinslab run` process, killed by SIGKILL once it has written
        # a checkpoint, then run again to completion
        text = make_ini(signature="AAAB", total_layers=4, total_steps=300,
                        policy_lines="[policy]\np_skip = 0.5\nadapters = true")
        text = text.replace("eval_interval = 3", "eval_interval = 20")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(rl.__file__).resolve().parents[1]))

        def run_cli(out_root):
            return subprocess.Popen(
                [sys.executable, "-m", "rinslab.cli", "run", str(cfg),
                 "--out-root", str(out_root)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        cfg = tmp_path / "demo.ini"
        cfg.write_text(text)
        assert run_cli(tmp_path / "ref").wait(timeout=300) == 0
        proc = run_cli(tmp_path / "runs")
        ckpt = tmp_path / "runs" / "demo" / "checkpoint.rlab"
        deadline = time.monotonic() + 300
        while not ckpt.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL  # killed, not finished
        # the trace files follow each checkpoint, so a kill between the two
        # leaves them at most one checkpoint behind
        killed = tmp_path / "runs" / "demo" / "trace.jsonl"
        if killed.exists():
            rows = [dataclasses.asdict(r) for r in rl.LossTrace.from_jsonl(killed).records]
            assert rows == rl.load_checkpoint(ckpt).extra["trace"][:len(rows)]
        assert run_cli(tmp_path / "runs").wait(timeout=300) == 0

        run_dir, ref_dir = tmp_path / "runs" / "demo", tmp_path / "ref" / "demo"
        for name in ("trace.jsonl", "trace.csv", "checkpoint.rlab"):
            assert (run_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "done" and manifest["final_step"] == 300
        assert len(manifest["processes"]) == 2

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINSLAB_OUT_ROOT", str(tmp_path / "envruns"))
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini())
        rl.cmd_run(cfg)
        assert (tmp_path / "envruns" / "demo" / "manifest.json").exists()

    def test_missing_config_raises(self, tmp_path):
        with pytest.raises(rl.ConfigError, match="not found"):
            rl.cmd_run(tmp_path / "nope.ini")


def make_sweep_ini():
    return """
[sweep]
name = sw
baseline_signature = A
baseline_steps = 8

[model]
d_model = 16
n_heads = 2
mlp_dim = 32
vocab = 65
seq_len = 16
total_layers = 2

[train]
peak_lr = 3e-3
warmup_steps = 1
total_steps = 8
batch_size = 4

[corpus]
train = grammar:600
"""


class TestCmdSweep:
    def test_sweep_rows_and_csv(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(make_sweep_ini())
        rows = rl.cmd_sweep(cfg, out_root=str(tmp_path / "runs"))
        assert len(rows) == 31
        by_sig = {(r["signature"], r["degree"]): r for r in rows}
        assert by_sig[("A", 1)]["status"] == "done"
        assert by_sig[("A", 1)]["steps"] == 8
        assert by_sig[("AA", 1)]["steps"] == 4  # twice the per-step cost
        # 2 layers cannot host 4 distinct blocks
        assert by_sig[("ABB", 2)]["status"] == "skipped-infeasible"
        assert by_sig[("ABB", 2)]["feasible"] is False
        done = [r for r in rows if r["status"] == "done"]
        assert len(done) == 10  # A^k plus the six 2-symbol degree-1 shapes

        csv_path = tmp_path / "runs" / "sw" / "comparison.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 32
        assert lines[0].startswith("signature,degree,feasible,layers_per_block,status")

    def test_sweep_reinvocation_skips_done(self, tmp_path):
        import time

        cfg = tmp_path / "sweep.ini"
        cfg.write_text(make_sweep_ini())
        rl.cmd_sweep(cfg, out_root=str(tmp_path / "runs"))
        t0 = time.time()
        rows = rl.cmd_sweep(cfg, out_root=str(tmp_path / "runs"))
        assert time.time() - t0 < 5.0
        assert all(r["status"] == "done" for r in rows if r["feasible"])

    def test_unknown_sweep_key_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(make_sweep_ini().replace("name = sw", "name = sw\nturbo = 1"))
        with pytest.raises(rl.ConfigError, match="sweep.turbo"):
            rl.cmd_sweep(cfg)

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda t: t.replace("d_model = 16", "d_model = wide"), "model.d_model"),
            (lambda t: t.replace("total_steps = 8\n", ""), "train.total_steps"),
            (lambda t: t.replace("baseline_signature = A", "baseline_signature = 7B"),
             "sweep.baseline_signature"),
            (lambda t: t.replace("train = grammar:600", "train = grammar:abc"),
             "grammar:abc"),
            (lambda t: t + "eval = held=missing.tokens\n", "missing.tokens"),
            (lambda t: t.replace("baseline_steps = 8", "baseline_steps = x"),
             "^sweep.baseline_steps: expected int"),
            (lambda t: t.replace("baseline_steps = 8", "baseline_steps = 0"),
             "^sweep.baseline_steps: must be >= 1"),
            (lambda t: t + "\n[run]\nseed = -1\n", "^run.seed: must be >= 0, got -1"),
        ],
    )
    def test_bad_shared_value_fails_before_any_candidate(self, tmp_path, mutate, fragment):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(mutate(make_sweep_ini()))
        with pytest.raises(rl.ConfigError, match=fragment):
            rl.cmd_sweep(cfg, out_root=str(tmp_path / "runs"))
        assert not (tmp_path / "runs" / "sw").exists()
        assert cli.main(["sweep", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2

    def test_empty_sweep_name_is_2(self, tmp_path, capsys, monkeypatch):
        # an empty name would make each candidate's out_dir "/<tag>", which
        # joins to the filesystem root, so no candidate may even be run
        started = []

        def record_run(cfg, root):
            started.append(rl.parse_run_config(Path(cfg).read_text()).out_dir)
            return {"status": "done"}

        monkeypatch.setattr(rinslab.lab, "cmd_run", record_run)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(make_sweep_ini().replace("name = sw", "name ="))
        assert cli.main(["sweep", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert "error: sweep.name: must not be empty" in capsys.readouterr().err
        assert started == []

    def test_path_refs_resolve_against_the_sweep_spec(self, tmp_path, monkeypatch):
        # candidate specs are written under the out-root, not beside the
        # sweep spec, so they must name the corpus files resolved
        spec_dir = tmp_path / "spec"
        spec_dir.mkdir()
        docs = rl.generate_corpus(rl.default_grammar(seed=0), 600)
        rl.save_tokens(spec_dir / "train.tokens", docs)
        rl.save_tokens(spec_dir / "held.tokens", docs[:20])
        (spec_dir / "sweep.ini").write_text(make_sweep_ini().replace(
            "train = grammar:600",
            "train = train.tokens\neval = held=held.tokens, g=grammar:300"))
        monkeypatch.chdir(tmp_path)
        rows = rl.cmd_sweep("spec/sweep.ini", out_root="runs")
        assert {r["status"] for r in rows if r["feasible"]} == {"done"}
        cand = rl.parse_run_config(
            (tmp_path / "runs" / "sw" / "candidate-aab-d1.ini").read_text())
        assert cand.corpus_train == str(spec_dir / "train.tokens")
        assert cand.corpus_evals == (("held", str(spec_dir / "held.tokens")),
                                     ("g", "grammar:300"))

    def test_failed_candidate_exits_runtime(self, tmp_path, capsys):
        # at 4 layers the deeper candidates get fewer matched steps than the
        # warmup needs, so they fail; the baseline itself is valid
        text = (make_sweep_ini().replace("warmup_steps = 1", "warmup_steps = 5")
                .replace("total_layers = 2", "total_layers = 4"))
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        code = cli.main(["sweep", str(cfg), "--out-root", str(tmp_path / "runs")])
        out, err = capsys.readouterr()
        assert code == 3
        failed = [line for line in out.splitlines() if line.endswith(": failed")]
        assert failed and "A@d1: done" in out.splitlines()[0]
        assert f"{len(failed)} of " in err
        # every row is reported before the exit code says something failed
        rows = (tmp_path / "runs" / "sw" / "comparison.csv").read_text().splitlines()
        assert sum(",failed," in r for r in rows) == len(failed)

    def test_zero_step_candidates_are_skipped_not_failed(self, tmp_path, capsys,
                                                         monkeypatch):
        # 3 steps of A at 4 layers buy no step of the four deepest candidates;
        # they are marked before any candidate runs, and get no spec
        started = []
        run = rinslab.lab.cmd_run

        def record_run(cfg, root):
            started.append(Path(cfg).name)
            return run(cfg, root)

        monkeypatch.setattr(rinslab.lab, "cmd_run", record_run)
        text = (make_sweep_ini().replace("baseline_steps = 8", "baseline_steps = 3")
                .replace("total_layers = 2", "total_layers = 4"))
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        assert cli.main(["sweep", str(cfg), "--out-root", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        skipped = {"AAAA@d1", "ABBB@d2", "AAAB@d2", "AABB@d2"}
        assert {line.split(":")[0] for line in out.splitlines()
                if line.endswith(": skipped-budget")} == skipped
        assert ": failed" not in out
        sweep_dir = tmp_path / "runs" / "sw"
        for tag in ("aaaa-d1", "abbb-d2", "aaab-d2", "aabb-d2"):
            assert not (sweep_dir / f"candidate-{tag}.ini").exists()
            assert f"candidate-{tag}.ini" not in started
        assert "candidate-a-d1.ini" in started
        rows = (sweep_dir / "comparison.csv").read_text().splitlines()
        assert sum(",skipped-budget," in r for r in rows) == 4


@pytest.fixture(scope="module")
def family_dirs(tmp_path_factory):
    """Two completed A^r B runs (r=1, 2) sharing a corpus and budget."""
    root = tmp_path_factory.mktemp("family")
    dirs = []
    for sig, nm in (("AB", "fam-ab"), ("AAB", "fam-aab")):
        cfg = root / f"{nm}.ini"
        cfg.write_text(
            make_ini(name=nm, signature=sig, total_steps=40, total_layers=2)
        )
        rl.cmd_run(cfg, out_root=str(root / "runs"))
        dirs.append(root / "runs" / nm)
    return dirs


class TestFitReport:
    def test_cmd_fit_returns_fits(self, family_dirs, tmp_path):
        out = tmp_path / "fits.json"
        fits = rl.cmd_fit([str(d) for d in family_dirs], out_path=out)
        assert set(fits) == {"fam-ab", "fam-aab"}
        for f in fits.values():
            assert f.beta > 0 and f.eps_inf >= 0
        written = json.loads(out.read_text())
        assert set(written) == {"fam-ab", "fam-aab"}

    def test_last_frac_limits_points(self, family_dirs):
        full = rl.cmd_fit([str(family_dirs[0])], last_frac=1.0)["fam-ab"]
        tail = rl.cmd_fit([str(family_dirs[0])], last_frac=0.5)["fam-ab"]
        assert tail.n_points < full.n_points
        assert tail.n_points >= 4

    def test_bad_use_rejected(self, family_dirs):
        with pytest.raises(rl.ConfigError, match="--use"):
            rl.cmd_fit([str(family_dirs[0])], use="validation")
        with pytest.raises(rl.ConfigError, match="no eval points"):
            rl.cmd_fit([str(family_dirs[0])], use="eval:held")

    def test_fit_on_eval_points(self, tmp_path):
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini(total_steps=12, eval_line="eval = held=grammar:300"))
        rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        run_dir = tmp_path / "runs" / "demo"
        trace = rl.LossTrace.from_jsonl(run_dir / "trace.jsonl")
        computes = [r.compute for r in trace.records if r.eval_losses]
        assert len(computes) == 4  # steps 3, 6, 9 and 12
        fit = rl.cmd_fit([str(run_dir)], use="eval:held")["demo"]
        assert fit.n_points == 4
        assert (fit.fit_x_min, fit.fit_x_max) == (computes[0], computes[-1])

    def test_cmd_report_family_outputs(self, family_dirs, tmp_path):
        out_dir = tmp_path / "report"
        summary = rl.cmd_report([str(d) for d in family_dirs], out_dir)
        assert (out_dir / "fits.json").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "curve-fam-ab.csv").exists()
        assert (out_dir / "curve-fam-aab.csv").exists()
        assert (out_dir / "breakpoints.csv").exists()
        pattern = summary["pattern"]
        assert set(pattern) >= {
            "c_increases_with_r", "final_loss_decreases_with_r"
        }
        assert all(isinstance(v, bool) for v in pattern.values())
        assert summary["family"] == {"1": "fam-ab", "2": "fam-aab"}
        curve = (out_dir / "curve-fam-ab.csv").read_text().strip().splitlines()
        assert curve[0] == "compute,loss"
        assert len(curve) == 41

    def test_shared_run_name_refused(self, tmp_path):
        # two seeds of one spec under two out-roots: both manifests say
        # "demo", and fits and curves are keyed by that name
        dirs = []
        for seed in (0, 1):
            cfg = tmp_path / f"seed{seed}.ini"
            cfg.write_text(make_ini(seed=seed))
            rl.cmd_run(cfg, out_root=str(tmp_path / f"root{seed}"))
            dirs.append(str(tmp_path / f"root{seed}" / "demo"))
        with pytest.raises(rl.ConfigError) as ei:
            rl.cmd_fit(dirs)
        assert "'demo'" in str(ei.value)
        assert dirs[0] in str(ei.value) and dirs[1] in str(ei.value)
        with pytest.raises(rl.ConfigError, match="'demo'"):
            rl.cmd_report(dirs, tmp_path / "rep")
        assert cli.main(["fit", *dirs, "--out", str(tmp_path / "f.json")]) == 2
        assert cli.main(["report", *dirs, "--out-dir", str(tmp_path / "rep")]) == 2
        assert not (tmp_path / "f.json").exists()
        assert not (tmp_path / "rep" / "fits.json").exists()

    def test_report_without_family_skips_breakpoints(self, family_dirs, tmp_path):
        out_dir = tmp_path / "solo"
        summary = rl.cmd_report([str(family_dirs[0])], out_dir)
        assert "pattern" not in summary
        assert not (out_dir / "breakpoints.csv").exists()

    def test_run_too_short_to_fit_is_2_and_named(self, tmp_path, capsys):
        # 8 steps at eval_interval 3: held-out points at steps 3, 6 and 8,
        # one fewer than a fit takes; the 8 train points are enough
        cfg = tmp_path / "short.ini"
        cfg.write_text(make_ini(name="short", total_steps=8,
                                eval_line="eval = held=grammar:300"))
        rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        short = str(tmp_path / "runs" / "short")
        assert "short" in rl.cmd_fit([short])
        with pytest.raises(rl.ConfigError, match="3 points of 'eval:held'"):
            rl.cmd_fit([short], use="eval:held")
        capsys.readouterr()
        rep = tmp_path / "rep"
        for argv in (["fit", short, "--use", "eval:held"],
                     ["report", short, "--out-dir", str(rep), "--use", "eval:held"]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert short in err and "3 points" in err, err
        assert not (rep / "fits.json").exists()


@pytest.fixture(scope="module")
def byte_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("evalckpt")
    dims = rl.ModelDims(
        d_model=16, n_heads=2, mlp_dim=32, vocab=257, seq_len=64, total_layers=2
    )
    model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    params = model.init_params(0)
    tok = rl.ByteTokenizer()
    docs = [tok.encode("the cat sat on the mat. ") for _ in range(40)]
    batches = list(rl.pack_sequences(docs, 64, 4, eos_id=256))
    cfg = rl.TrainConfig(peak_lr=3e-3, total_steps=3, seed=0)
    ckpt = root / "model.rlab"
    rl.train(model, params, batches, cfg, checkpoint_path=ckpt)
    tasks = root / "tasks.jsonl"
    items = [
        rl.MCQItem("the cat sat on the", "", ("mat", "moon", "map", "mop"), 0),
        rl.MCQItem("water is", "", ("wet", "dry"), 0),
        rl.MCQItem("q", "", ("a", "b", "c"), 2),
    ]
    rl.write_task_jsonl(tasks, items)
    return ckpt, tasks


class TestCmdEval:
    def test_eval_rows(self, byte_checkpoint, tmp_path):
        ckpt, tasks = byte_checkpoint
        out = tmp_path / "res.jsonl"
        rows = rl.cmd_eval(ckpt, tasks, rounds_list=[1], out_path=out)
        assert len(rows) == 1
        assert rows[0]["rounds"] == 1
        assert rows[0]["n_items"] == 3
        assert 0.0 <= rows[0]["accuracy"] <= 1.0
        assert json.loads(out.read_text().splitlines()[0])["task"] == "tasks"

    def test_eval_default_rounds(self, byte_checkpoint):
        ckpt, tasks = byte_checkpoint
        rows = rl.cmd_eval(ckpt, tasks)
        assert rows[0]["rounds"] == 1  # r_max of a plain AB model

    def test_eval_missing_paths(self, byte_checkpoint, tmp_path):
        ckpt, tasks = byte_checkpoint
        with pytest.raises(rl.ConfigError, match="checkpoint"):
            rl.cmd_eval(tmp_path / "no.rlab", tasks)
        with pytest.raises(rl.ConfigError, match="task"):
            rl.cmd_eval(ckpt, tmp_path / "no.jsonl")

    def test_eval_rejects_small_vocab(self, tmp_path, byte_checkpoint):
        _, tasks = byte_checkpoint
        dims = rl.ModelDims(
            d_model=16, n_heads=2, mlp_dim=32, vocab=65, seq_len=16, total_layers=2
        )
        model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
        ckpt = tmp_path / "small.rlab"
        rl.save_checkpoint(ckpt, dims, "AB@d1", model.policy, model.init_params(0))
        with pytest.raises(rl.ConfigError, match="vocab"):
            rl.cmd_eval(ckpt, tasks)

    @pytest.mark.parametrize("rounds", [[1, 2], [0], [], [2, 1]])
    def test_eval_rejects_bad_rounds_before_scoring(self, byte_checkpoint, rounds,
                                                    monkeypatch):
        import rinslab.evals

        def never(*args, **kwargs):
            raise AssertionError("scored before the rounds were checked")

        monkeypatch.setattr(rinslab.evals, "_score_packs", never)
        ckpt, tasks = byte_checkpoint
        bad = [r for r in rounds if r != 1]
        with pytest.raises(rl.ConfigError, match=str(bad[0]) if bad else "rounds"):
            rl.cmd_eval(ckpt, tasks, rounds_list=rounds)


class TestMainExitCodes:
    @pytest.mark.parametrize("defaults", ["name = x", "batch_size = 2"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_default_section_is_refused_by_name(self, tmp_path, capsys, command,
                                                defaults):
        # configparser would merge [DEFAULT] into every section, and the
        # refusal would name a key of another section
        cfg = tmp_path / "spec.ini"
        body = make_ini() if command == "run" else make_sweep_ini()
        cfg.write_text(f"[DEFAULT]\n{defaults}\n{body}")
        assert cli.main([command, str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "[DEFAULT]" in err and "signature." not in err and "run." not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key,line", [
        ("run.out_dir", "out_dir = {abs}"),
        ("run.out_dir", "out_dir = ../outside"),
        ("run.out_dir", "out_dir = inside/../../outside"),
        ("run.name", "name = ../outside"),
        ("run.name", "name = {abs}"),
    ])
    def test_run_dir_outside_the_out_root_is_2(self, tmp_path, capsys, key, line):
        # every path below resolves inside tmp_path, so a tree that accepts
        # them writes nowhere else
        absolute = tmp_path / "elsewhere"
        text = make_ini()
        if key == "run.name":
            text = text.replace("name = demo\nout_dir = demo\n",
                                line.format(abs=absolute) + "\n")
        else:
            text = text.replace("out_dir = demo", line.format(abs=absolute))
        cfg = tmp_path / "esc.ini"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.count(f"{key}: must") == 1
        for where in (absolute, tmp_path / "outside", tmp_path / "runs"):
            assert not where.exists(), where

    @pytest.mark.parametrize("name", ["../sweeps", "/abs/sweeps"])
    def test_sweep_dir_outside_the_out_root_is_2(self, tmp_path, capsys, name):
        cfg = tmp_path / "sweep.ini"
        name = name.replace("/abs", str(tmp_path))
        cfg.write_text(make_sweep_ini().replace("name = sw", f"name = {name}"))
        assert cli.main(["sweep", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert "sweep.name: must" in capsys.readouterr().err
        assert not (tmp_path / "sweeps").exists() and not (tmp_path / "runs").exists()

    def test_run_ok(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINSLAB_OUT_ROOT", str(tmp_path / "runs"))
        cfg = tmp_path / "demo.ini"
        cfg.write_text(make_ini())
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "runs" / "demo" / "manifest.json").exists()

    def test_bad_config_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(make_ini().replace("value = AAB", "value = 123"))
        assert cli.main(["run", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repeated_eval_name_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "dup.ini"
        cfg.write_text(make_ini(eval_line="eval = held=grammar:600, held=grammar:900:3"))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "corpus.eval" in err and "'held'" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("ref", ["grammar:-5", "grammar:0"])
    def test_nonpositive_token_count_is_2(self, tmp_path, capsys, ref):
        cfg = tmp_path / "empty.ini"
        cfg.write_text(make_ini().replace("train = grammar:600", f"train = {ref}"))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert repr(ref) in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["train = neg.tokens",
                                      "train = grammar:600\neval = held=neg.tokens"])
    def test_negative_token_id_is_2(self, tmp_path, capsys, line):
        ids = [i % 60 for i in range(300)]
        ids[150] = -3
        rl.save_tokens(tmp_path / "neg.tokens", [ids])
        cfg = tmp_path / "neg.ini"
        cfg.write_text(make_ini().replace("train = grammar:600", line))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "'neg.tokens'" in err and "-3" in err
        assert not (tmp_path / "runs" / "demo" / "manifest.json").exists()

    @pytest.mark.parametrize("sidecar", [
        None,                                              # missing
        "{not json",
        '{"n_tokens": 300, "doc_lengths": [150, 149]}',    # sums short
        '{"n_tokens": 300, "doc_lengths": [200, -1, 101]}',
        '{"n_tokens": 300}',
    ])
    @pytest.mark.parametrize("line", ["train = side.tokens",
                                      "train = grammar:600\neval = held=side.tokens"])
    def test_unreadable_sidecar_is_2(self, tmp_path, capsys, line, sidecar):
        rl.save_tokens(tmp_path / "side.tokens", [[i % 60 for i in range(300)]])
        side = tmp_path / "side.tokens.json"
        if sidecar is None:
            side.unlink()
        else:
            side.write_text(sidecar)
        cfg = tmp_path / "side.ini"
        cfg.write_text(make_ini().replace("train = grammar:600", line))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert "'side.tokens'" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "demo").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("peak_lr = 3e-3", "peak_lr = 0", "train.peak_lr"),
        ("batch_size = 4", "batch_size = 4\nweight_decay = -1", "train.weight_decay"),
        ("batch_size = 4", "batch_size = 4\ncooldown_steps = -1", "train.cooldown_steps:"),
        ("batch_size = 4", "batch_size = 0", "train.batch_size"),
        ("batch_size = 4", "batch_size = 4\ngrad_clip_norm = -1",
         "train.grad_clip_norm"),
        ("eval_interval = 3", "eval_interval = 0", "train.eval_interval"),
        ("total_steps = 6", "total_steps = 0", "train.total_steps"),
        ("d_model = 16", "d_model = 0", "model.d_model"),
        ("d_model = 16\nn_heads = 2", "d_model = 8\nn_heads = 3", "model.n_heads:"),
        ("[train]", "[policy]\np_skip = 1.0\n\n[train]", "policy.p_skip"),
        ("[corpus]", "[baseline]\nsignature = A\nsteps = 0\n\n[corpus]",
         "baseline.steps"),
        ("train = grammar:600", "train = grammar:1:2:3",
         "corpus.train: corpus ref 'grammar:1:2:3'"),
        ("train = grammar:600", "train = grammar:600\neval = held=grammar:1:2:3",
         "corpus.eval.held: "),
        ("seed = 0", "seed = -1", "run.seed: must be >= 0, got -1"),
        ("vocab = 65", "vocab = 60", "model.vocab"),
        ("train = grammar:600", "train = short.tokens", "corpus.train"),
        ("train = grammar:600", "train = grammar:600\neval = held=short.tokens",
         "corpus.eval.held:"),
        ("[model]", "[model]\nnot a key value line", "config parse failure"),
        ("[model]\nd_model = 16\nn_heads = 2\nmlp_dim = 32\nvocab = 65\n"
         "seq_len = 16\ntotal_layers = 2\n", "", "[model]"),
    ])
    def test_refused_value_is_2(self, tmp_path, capsys, old, new, named):
        rl.save_tokens(tmp_path / "short.tokens", [[1, 2, 3]])  # under one window
        text = make_ini()
        assert old in text
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text.replace(old, new, 1))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("name = demo\nout_dir = demo", "name =", "run.name"),  # out_dir defaults to it
        ("out_dir = demo", "out_dir =", "run.out_dir"),
    ])
    def test_empty_name_is_2(self, tmp_path, capsys, old, new, named):
        # an empty name would put the run's files straight into the out-root
        cfg = tmp_path / "empty.ini"
        cfg.write_text(make_ini().replace(old, new, 1))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert f"error: {named}: must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_false_boolean_runs_to_done(self, tmp_path):
        cfg = tmp_path / "off.ini"
        cfg.write_text(make_ini(policy_lines="[policy]\nkv_share = false\n"))
        assert rl.parse_run_config(cfg.read_text()).policy.kv_share is False
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 0
        manifest = json.loads((tmp_path / "runs" / "demo" / "manifest.json").read_text())
        assert manifest["status"] == "done"

    def test_corpus_error_leaves_no_run_dir(self, tmp_path):
        cfg = tmp_path / "missing.ini"
        cfg.write_text(make_ini().replace("train = grammar:600", "train = missing.tokens"))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert not (tmp_path / "runs" / "demo").exists()

    def test_missing_file_is_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "absent.ini")]) == 2

    def test_eos_id_in_tokens_is_2(self, tmp_path, capsys):
        ids = [i % 60 for i in range(300)]
        ids[7] = 64  # vocab - 1, the EOS id
        rl.save_tokens(tmp_path / "eos.tokens", [ids])
        cfg = tmp_path / "eos.ini"
        cfg.write_text(make_ini().replace("train = grammar:600", "train = eos.tokens"))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "'eos.tokens'" in err and "EOS" in err
        assert not (tmp_path / "runs" / "demo").exists()

    def test_runtime_failure_is_3(self, tmp_path):
        empty = tmp_path / "notarun"
        empty.mkdir()
        assert cli.main(["fit", str(empty), "--out", str(tmp_path / "f.json")]) == 3

    def test_fit_and_report_ok(self, family_dirs, tmp_path):
        out = tmp_path / "fits.json"
        assert cli.main(["fit", str(family_dirs[0]), "--out", str(out)]) == 0
        assert out.exists()
        rep = tmp_path / "rep"
        argv = ["report", str(family_dirs[0]), str(family_dirs[1]), "--out-dir", str(rep)]
        assert cli.main(argv) == 0
        assert (rep / "summary.json").exists()

    def test_eval_ok(self, byte_checkpoint, tmp_path):
        ckpt, tasks = byte_checkpoint
        out = tmp_path / "r.jsonl"
        argv = [
            "eval", "--checkpoint", str(ckpt), "--tasks", str(tasks),
            "--rounds", "1", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        assert out.exists()

    @pytest.mark.parametrize("rounds,named", [("1,5", "5"), (",", "rounds"),
                                              ("", "rounds")])
    def test_eval_bad_rounds_is_2(self, byte_checkpoint, tmp_path, capsys, rounds,
                                  named):
        ckpt, tasks = byte_checkpoint
        out = tmp_path / "r.jsonl"
        argv = ["eval", "--checkpoint", str(ckpt), "--tasks", str(tasks),
                "--rounds", rounds, "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_ok(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINSLAB_OUT_ROOT", str(tmp_path / "runs"))
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(make_sweep_ini())
        assert cli.main(["sweep", str(cfg)]) == 0
        assert (tmp_path / "runs" / "sw" / "comparison.csv").exists()


def set_key(text, name, value):
    """text with section.key set to value; a missing section is appended."""
    section, _, key = name.partition(".")
    head = f"[{section}]\n"
    if head not in text:
        return f"{text}\n{head}{key} = {value}\n"
    before, _, rest = text.partition(head)
    body, nxt, after = rest.partition("\n[")
    kept = [line for line in body.splitlines() if line.partition("=")[0].strip() != key]
    return before + head + f"{key} = {value}\n" + "\n".join(kept) + nxt + after


def typed_keys(command, keys):
    return [(command, name) for name, (type_name, _, _) in keys.items()
            if type_name != "str"]


@pytest.mark.parametrize("command, name", typed_keys("run", rinslab.lab._RUN_KEYS)
                         + typed_keys("sweep", rinslab.lab._SWEEP_KEYS))
def test_wrong_type_names_the_key(tmp_path, capsys, command, name):
    base = make_ini(baseline=("AB", 8)) if command == "run" else make_sweep_ini()
    cfg = tmp_path / "bad.ini"
    cfg.write_text(set_key(base, name, "x"))
    assert cli.main([command, str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name}: expected ")
    assert not (tmp_path / "runs").exists()


class TestCorpusRefs:
    def test_tokens_corpora_run_to_done(self, tmp_path):
        docs = rl.generate_corpus(rl.default_grammar(seed=0), 800)
        rl.save_tokens(tmp_path / "train.tokens", docs)
        held = rl.generate_corpus(rl.default_grammar(seed=1), 300)
        rl.save_tokens(tmp_path / "held.tokens", held)
        cfg = tmp_path / "tok.ini"
        cfg.write_text(make_ini(eval_line="eval = held=held.tokens").replace(
            "train = grammar:600", "train = train.tokens"))
        manifest = rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
        assert manifest["status"] == "done"

        spec = rl.parse_run_config(cfg.read_text())
        ckpt = rl.load_checkpoint(tmp_path / "runs" / "demo" / "checkpoint.rlab")
        model = rl.RecursiveModel(ckpt.dims, rl.expand(spec.signature), ckpt.policy)
        batches = _batches_for(rl.load_tokens(tmp_path / "held.tokens")[0], spec.dims,
                               spec.train_cfg.batch_size)
        direct = rl.held_out_log_perplexity(model, ckpt.params, batches,
                                            mask_reset=spec.train_cfg.mask_reset)
        assert manifest["final_eval_losses"]["held"] == direct

    def test_grammar_seed_picks_the_corpus(self, tmp_path, capsys):
        def first_loss(ref):
            cfg = tmp_path / "g.ini"
            cfg.write_text(make_ini(out_dir=ref.replace(":", "-")).replace(
                "train = grammar:600", f"train = {ref}"))
            rl.cmd_run(cfg, out_root=str(tmp_path / "runs"))
            trace = rl.LossTrace.from_jsonl(
                tmp_path / "runs" / ref.replace(":", "-") / "trace.jsonl")
            return trace.records[0].train_loss

        # train refs default to seed 0; the same init sees another first batch
        default = first_loss("grammar:600")
        assert first_loss("grammar:600:0") == default
        assert first_loss("grammar:600:7") != default

        cfg = tmp_path / "x.ini"
        cfg.write_text(make_ini().replace("train = grammar:600", "train = grammar:600:x"))
        assert cli.main(["run", str(cfg), "--out-root", str(tmp_path / "runs")]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
