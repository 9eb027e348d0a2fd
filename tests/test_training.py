"""Training loop: overfit, determinism, aborts, resume, traces."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import rinslab as rl


def tiny_setup(signature="AB", p_skip=0.0, seed=0, total_steps=30, warmup=5, **cfg_kw):
    dims = rl.ModelDims(
        d_model=32, n_heads=2, mlp_dim=64, vocab=65, seq_len=32, total_layers=4
    )
    plan = rl.expand(rl.parse(signature))
    r = rl.rins_rounds(plan.source)
    policy = (
        rl.RecursionPolicy(r_max=r, p_skip=p_skip)
        if r is not None and r > 1
        else rl.RecursionPolicy()
    )
    model = rl.RecursiveModel(dims, plan, policy)
    params = model.init_params(seed)
    docs = rl.generate_corpus(rl.default_grammar(seed=3), 6000)
    batches = list(rl.pack_sequences(docs, 32, 8, eos_id=64))
    kw = dict(peak_lr=3e-3, warmup_steps=warmup, total_steps=total_steps, seed=seed)
    kw.update(cfg_kw)
    cfg = rl.TrainConfig(**kw)
    return model, params, batches, cfg


class TestLearning:
    def test_overfits_one_repeated_batch(self):
        model, params, batches, cfg = tiny_setup(total_steps=220)
        cfg = dataclasses.replace(cfg, peak_lr=1e-2, eval_interval=1000)
        trace, _ = rl.train(model, params, batches[:1], cfg)
        assert not trace.aborted
        assert trace.records[-1].train_loss < 0.1
        assert trace.records[0].train_loss > 2.0

    def test_loss_decreases_on_stream(self):
        model, params, batches, cfg = tiny_setup(total_steps=60)
        trace, _ = rl.train(model, params, batches, cfg)
        first = np.mean([r.train_loss for r in trace.records[:5]])
        last = np.mean([r.train_loss for r in trace.records[-5:]])
        assert last < first


class TestDeterminism:
    def test_same_seed_same_trace(self):
        runs = []
        for _ in range(2):
            model, params, batches, cfg = tiny_setup("AAB", p_skip=0.5, seed=7)
            trace, _ = rl.train(model, params, batches, cfg)
            runs.append((trace, params))
        t1, p1 = runs[0]
        t2, p2 = runs[1]
        assert [r.train_loss for r in t1.records] == [
            r.train_loss for r in t2.records
        ]
        assert [r.rounds for r in t1.records] == [r.rounds for r in t2.records]
        for k in p1:
            assert np.array_equal(p1[k], p2[k]), k

    def test_different_seed_differs(self):
        model, params, batches, cfg = tiny_setup(seed=0, total_steps=10)
        trace1, _ = rl.train(model, params, batches, cfg)
        model2, params2, _, cfg2 = tiny_setup(seed=1, total_steps=10)
        trace2, _ = rl.train(model2, params2, batches, cfg2)
        assert [r.train_loss for r in trace1.records] != [
            r.train_loss for r in trace2.records
        ]


class TestFlatParams:
    def test_train_rebinds_params_to_views_of_one_buffer(self):
        model, params, batches, cfg = tiny_setup(total_steps=3, warmup=1)
        before = {k: v.copy() for k, v in params.items()}
        order = list(params)
        ref = {k: v.copy() for k, v in params.items()}
        _, adam = rl.train(model, params, batches, cfg)
        assert list(params) == order
        base = params["embed.token"].base
        assert base is not None and base.ndim == 1
        assert all(v.base is base for v in params.values())
        assert all(not np.shares_memory(v, ref[k]) for k, v in params.items())
        assert any(not np.array_equal(params[k], before[k]) for k in params)
        for d in (adam.m, adam.v):
            assert len({id(v.base) for v in d.values()}) == 1
        # the same run on a dict train() cannot flatten (one extra name
        # the model never reads) updates bitwise the same
        plain = dict(ref, extra=np.zeros(2, np.float32))
        rl.train(model, plain, batches, cfg)
        assert plain["embed.token"].base is None
        for k in params:
            assert params[k].tobytes() == plain[k].tobytes(), k


class TestStochasticRecording:
    def test_rounds_logged_each_step(self):
        model, params, batches, cfg = tiny_setup("AAAB", p_skip=0.5, total_steps=40)
        trace, _ = rl.train(model, params, batches, cfg)
        rounds = [r.rounds for r in trace.records]
        assert all(1 <= x <= 3 for x in rounds)
        assert len(set(rounds)) > 1  # actually varies at p_skip 0.5

    def test_generic_plan_logs_round_one(self):
        # ABCD has no skip-eligible positions, so r_max = 1 and every draw is 1
        model, params, batches, cfg = tiny_setup("ABCD", total_steps=5)
        trace, _ = rl.train(model, params, batches, cfg)
        assert all(r.rounds == 1 for r in trace.records)

    def test_degree_one_baseline_logs_round_one(self):
        # AB is the r=1 point of the A^r B family; rounds resolve to 1
        model, params, batches, cfg = tiny_setup("AB", total_steps=5)
        trace, _ = rl.train(model, params, batches, cfg)
        assert all(r.rounds == 1 for r in trace.records)

    def test_compute_ledger_tracks_executed_calls(self):
        model, params, batches, cfg = tiny_setup("AAB", p_skip=0.5, total_steps=50)
        trace, _ = rl.train(model, params, batches, cfg)
        lpb = model.layers_per_block
        seq = model.dims.seq_len
        expect = 0.0
        for rec in trace.records:
            calls = len(model.plan.calls(rec.rounds))
            expect += calls * lpb * seq
            assert rec.compute == pytest.approx(expect)
        assert trace.expected_cost_per_step == pytest.approx(
            rl.expected_stochastic_cost(model.plan, model.dims, 0.5)
        )

    def test_hand_built_mask_trains_at_ledger_cost(self):
        # ABAB with its middle calls eligible: the ledger prices it, so the
        # executor must accept and train it with stochastic depth.
        base, _, batches, cfg = tiny_setup(total_steps=6)
        dims = base.dims
        plan = rl.ExecutionPlan(
            (0, 1, 0, 1), 2, (False, True, True, False), rl.parse("ABAB")
        )
        model = rl.RecursiveModel(dims, plan, rl.RecursionPolicy(r_max=3, p_skip=0.5))
        ledger = rl.expected_stochastic_cost(plan, dims, 0.5)
        lpb, seq = model.layers_per_block, dims.seq_len
        cost = {k: len(model.plan.calls(k)) * lpb * seq for k in (1, 2, 3)}
        assert cost[3] == rl.step_cost(plan, dims)
        # rounds ~ 1 + Binomial(2, 0.5): weights 1/4, 1/2, 1/4
        assert 0.25 * cost[1] + 0.5 * cost[2] + 0.25 * cost[3] == ledger
        trace, _ = rl.train(model, model.init_params(0), batches, cfg)
        assert not trace.aborted and len(trace.records) == 6
        assert trace.expected_cost_per_step == ledger


class TestDepthSchedule:
    @pytest.mark.parametrize("signature", ["AAB", "AAAB", "AAAAB"])
    @pytest.mark.parametrize("p_skip", [0.5, 0.8])
    def test_schedule_is_per_step_stream_and_prefix(self, signature, p_skip):
        # The round counts train() reads from its schedule are the ones a
        # draw per step from the seeded generator gives, and a shorter run's
        # schedule is the start of a longer one's.
        model, params, batches, cfg = tiny_setup(signature, p_skip=p_skip, seed=3,
                                                 total_steps=12)
        trace, _ = rl.train(model, params, batches, cfg)
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        stream = [int(rl.sample_rounds(model.policy, rng)) for _ in range(400)]
        assert [r.rounds for r in trace.records] == stream[:12]

        model2, params2, _, cfg2 = tiny_setup(signature, p_skip=p_skip, seed=3,
                                              total_steps=5)
        short, _ = rl.train(model2, params2, batches, cfg2)
        assert [r.rounds for r in short.records] == stream[:5]

        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        assert rl.sample_rounds(model.policy, rng, size=400).tolist() == stream


def abort_at_step_3(tmp_path, monkeypatch, corrupt):
    """Train 6 steps with step 3's loss replaced by corrupt(loss, grads),
    which may also replace gradients, and check that the abort left nothing
    of step 3: no trace record, and parameters, Adam moments and the final
    checkpoint as they were after step 2. Returns the trace."""
    import rinslab.training as training_mod

    model, params, batches, cfg = tiny_setup(
        "AAB", p_skip=0.5, seed=5, total_steps=6, eval_interval=2)
    real_loss_and_grads, real_adam_step = model.loss_and_grads, training_mod.adam_step
    after = []  # (params, m, v) after each completed update

    def loss_and_grads(*args, **kwargs):
        loss, grads, info = real_loss_and_grads(*args, **kwargs)
        if len(after) == 2:
            loss = corrupt(loss, grads)
        return loss, grads, info

    def adam_step(params, grads, state, cfg, step):
        norm = real_adam_step(params, grads, state, cfg, step)
        after.append(tuple({k: a.copy() for k, a in d.items()}
                           for d in (params, state.m, state.v)))
        return norm

    monkeypatch.setattr(model, "loss_and_grads", loss_and_grads)
    monkeypatch.setattr(training_mod, "adam_step", adam_step)
    ckpt = tmp_path / "c.rlab"
    trace, adam = rl.train(model, params, batches, cfg, checkpoint_path=ckpt)
    assert trace.aborted
    assert len(after) == 2
    assert [r.step for r in trace.records] == [1, 2]
    data = rl.load_checkpoint(ckpt)
    assert data.step == 2
    assert [row["step"] for row in data.extra["trace"]] == [1, 2]
    want_p, want_m, want_v = after[-1]
    for got, want in ((params, want_p), (adam.m, want_m), (adam.v, want_v),
                      (data.params, want_p), (data.adam_m, want_m),
                      (data.adam_v, want_v)):
        assert set(got) == set(want)
        for k in want:
            assert np.array_equal(got[k], want[k]), k
    return trace


class TestAborts:
    def test_divergence_abort(self):
        model, params, batches, cfg = tiny_setup(
            total_steps=400, warmup=0, peak_lr=2.0, grad_clip_norm=1e9
        )
        trace, _ = rl.train(model, params, batches, cfg)
        assert trace.aborted
        assert "divergence" in trace.abort_reason
        # the diverged loss is recorded so post-mortems can see it
        final = trace.records[-1]
        assert final.train_loss > 10.0 * trace.records[0].train_loss

    def test_nonfinite_gradient_abort(self, tmp_path, monkeypatch):
        def nan_gradient(loss, grads):
            grads["block.A.layer.0.attn.q"] = np.full_like(
                grads["block.A.layer.0.attn.q"], np.nan)
            return loss

        trace = abort_at_step_3(tmp_path, monkeypatch, nan_gradient)
        assert trace.abort_reason == (
            "non-finite gradient in 'block.A.layer.0.attn.q' at step 3")

    def test_nonfinite_loss_abort(self, tmp_path, monkeypatch):
        trace = abort_at_step_3(tmp_path, monkeypatch, lambda loss, grads: np.nan)
        assert trace.abort_reason == "non-finite loss at step 3"

    def test_empty_batches_rejected(self):
        model, params, _, cfg = tiny_setup(total_steps=5)
        with pytest.raises(ValueError):
            rl.train(model, params, [], cfg)


class TestEvalCadence:
    def test_eval_interval_and_final_step(self):
        model, params, batches, cfg = tiny_setup(total_steps=25)
        cfg = dataclasses.replace(cfg, eval_interval=10)
        evals = {"held": batches[-2:]}
        trace, _ = rl.train(model, params, batches[:-2], cfg, eval_batches=evals)
        stamped = [r.step for r in trace.records if r.eval_losses]
        assert stamped == [10, 20, 25]
        pts = trace.eval_points("held")
        assert len(pts) == 3
        assert all(np.isfinite(v) for _, v in pts)

    def test_eval_matches_direct_call(self):
        model, params, batches, cfg = tiny_setup(total_steps=4, warmup=2)
        cfg = dataclasses.replace(cfg, eval_interval=4)
        evals = {"held": batches[-2:]}
        trace, _ = rl.train(model, params, batches[:2], cfg, eval_batches=evals)
        direct = rl.held_out_log_perplexity(model, params, batches[-2:])
        assert trace.records[-1].eval_losses["held"] == pytest.approx(direct, rel=1e-6)


class TestResume:
    def test_resume_bitwise_identical(self, tmp_path):
        # uninterrupted 20 steps
        model, params, batches, cfg = tiny_setup("AAB", p_skip=0.5, seed=5, total_steps=20)
        trace_full, _ = rl.train(model, params, batches, cfg)

        # same run, checkpointed at 10 then resumed
        model2, params2, _, cfg2 = tiny_setup("AAB", p_skip=0.5, seed=5, total_steps=20)
        ckpt = tmp_path / "mid.rlab"
        cfg_half = dataclasses.replace(cfg2, total_steps=10)
        rl.train(model2, params2, batches, cfg_half, checkpoint_path=ckpt)
        model3, params3, _, cfg3 = tiny_setup("AAB", p_skip=0.5, seed=5, total_steps=20)
        trace_resumed, _ = rl.train(
            model3, params3, batches, cfg3, resume_from=str(ckpt)
        )

        # the resumed trace is the whole uninterrupted trace, from step 1
        assert trace_resumed == trace_full
        for k in params:
            assert np.array_equal(params[k], params3[k]), k

    @pytest.mark.parametrize("abort", ["divergence", "floating-point"])
    def test_checkpoint_after_abort_is_last_completed_step(self, tmp_path, monkeypatch, abort):
        # The aborted step never updates params or Adam state, so the final
        # checkpoint must describe the step before it, and resuming from it
        # must give back the uninterrupted run's whole trace.
        if abort == "divergence":
            kw = dict(signature="AB", total_steps=6, warmup=0, peak_lr=5.0,
                      grad_clip_norm=0.0)
        else:
            kw = dict(signature="AAB", p_skip=0.5, seed=5, total_steps=8,
                      eval_interval=2)
        model, params, batches, cfg = tiny_setup(**kw)
        full, _ = rl.train(model, params, batches, cfg)

        model2, params2, _, cfg2 = tiny_setup(**kw)
        if abort == "floating-point":
            real, calls = model2.loss_and_grads, []

            def flaky(*args, **kwargs):
                calls.append(1)
                if len(calls) == 5:
                    raise FloatingPointError("injected")
                return real(*args, **kwargs)

            monkeypatch.setattr(model2, "loss_and_grads", flaky)
        ckpt = tmp_path / "c.rlab"
        cut, adam = rl.train(model2, params2, batches, cfg2, checkpoint_path=ckpt)
        assert cut.aborted
        completed = 1 if abort == "divergence" else 4
        data = rl.load_checkpoint(ckpt)
        assert data.step == completed
        assert [r.step for r in cut.records if r.step <= completed][-1] == completed
        assert [row["step"] for row in data.extra["trace"]] == list(range(1, completed + 1))
        for k in params2:
            assert np.array_equal(data.params[k], params2[k]), k
            assert np.array_equal(data.adam_m[k], adam.m[k]), k

        model3, params3, _, cfg3 = tiny_setup(**kw)
        resumed, _ = rl.train(model3, params3, batches, cfg3, resume_from=str(ckpt))
        assert resumed == full

    def test_checkpoint_with_rounds_rng_resumes(self, tmp_path):
        # Checkpoints written before the depth schedule was drawn up front
        # also hold the state of the per-step rounds generator. Resume reads
        # the schedule from the seed and leaves that entry unread.
        kw = dict(signature="AAAB", p_skip=0.5, seed=5, total_steps=20, eval_interval=5)
        model, params, batches, cfg = tiny_setup(**kw)
        full, _ = rl.train(model, params, batches, cfg)

        model2, params2, _, cfg2 = tiny_setup(**kw)
        ckpt = tmp_path / "old.rlab"
        rl.train(model2, params2, batches, dataclasses.replace(cfg2, total_steps=10),
                 checkpoint_path=ckpt)
        data = rl.load_checkpoint(ckpt)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        for _ in range(data.step):
            rl.sample_rounds(model.policy, rng)
        rounds_rng = json.loads(json.dumps(rng.bit_generator.state, default=int))
        rl.save_checkpoint(ckpt, data.dims, data.signature, data.policy, data.params,
                           step=data.step, adam_m=data.adam_m, adam_v=data.adam_v,
                           extra={**data.extra, "rounds_rng": rounds_rng})

        model3, params3, _, cfg3 = tiny_setup(**kw)
        resumed, _ = rl.train(model3, params3, batches, cfg3, resume_from=str(ckpt))
        assert resumed == full
        for k in params:
            assert np.array_equal(params[k], params3[k]), k

    @pytest.mark.parametrize("other, field", [
        (lambda m: rl.RecursiveModel(m.dims, rl.expand(rl.parse("AB")),
                                     rl.RecursionPolicy()), "signature 'AAB@d1'"),
        (lambda m: rl.RecursiveModel(dataclasses.replace(m.dims, seq_len=16), m.plan,
                                     m.policy), "dims.seq_len 32"),
        (lambda m: rl.RecursiveModel(m.dims, m.plan,
                                     dataclasses.replace(m.policy, p_skip=0.0)),
         "policy.p_skip 0.5"),
        (lambda m: rl.RecursiveModel(m.dims, m.plan, m.policy, dtype=np.float64),
         "dtype 'float32'"),
    ])
    def test_checkpoint_of_another_model_refused(self, tmp_path, other, field):
        # Without the check, an AB model resumed an AAB checkpoint and traced
        # rows of both, and a model of another seq_len failed in the executor.
        model, params, batches, cfg = tiny_setup("AAB", p_skip=0.5, total_steps=3,
                                                 warmup=1)
        ckpt = tmp_path / "c.rlab"
        rl.train(model, params, batches, cfg, checkpoint_path=ckpt)
        resumer = other(model)
        with pytest.raises(ValueError) as ei:
            rl.train(resumer, resumer.init_params(0), batches,
                     dataclasses.replace(cfg, total_steps=6), resume_from=str(ckpt))
        assert field in str(ei.value) and str(ckpt) in str(ei.value)

    def test_checkpoint_past_total_steps_refused(self, tmp_path):
        # Without the check, a 6-step checkpoint resumed under total_steps 3
        # returned 6 trace rows under meta total_steps 3 and rewrote the
        # checkpoint at step 6.
        model, params, batches, cfg = tiny_setup(total_steps=6, warmup=1,
                                                 eval_interval=3)
        ckpt = tmp_path / "c.rlab"
        rl.train(model, params, batches, cfg, checkpoint_path=ckpt)
        before = ckpt.read_bytes()
        params2, fresh = model.init_params(0), model.init_params(0)
        with pytest.raises(ValueError) as ei:
            rl.train(model, params2, batches, dataclasses.replace(cfg, total_steps=3),
                     resume_from=str(ckpt), checkpoint_path=ckpt)
        assert "step 6" in str(ei.value) and "total_steps 3" in str(ei.value)
        assert ckpt.read_bytes() == before
        for k in fresh:
            assert np.array_equal(params2[k], fresh[k]), k

    def test_checkpoint_extra_holds_trace_alone(self, tmp_path):
        model, params, batches, cfg = tiny_setup("AAB", p_skip=0.5, total_steps=4, warmup=0)
        ckpt = tmp_path / "c.rlab"
        rl.train(model, params, batches, cfg, checkpoint_path=ckpt)
        assert set(rl.load_checkpoint(ckpt).extra) == {"trace"}

    def test_checkpoint_without_trace_refused(self, tmp_path):
        model, params, batches, cfg = tiny_setup(total_steps=8)
        ckpt = tmp_path / "old.rlab"
        rl.save_checkpoint(ckpt, model.dims, "AB@d1", model.policy, params, step=2,
                           extra={"cum_compute": 12.5, "batch_cursor": 2})
        with pytest.raises(ValueError) as ei:
            rl.train(model, params, batches, cfg, resume_from=str(ckpt))
        assert str(ckpt) in str(ei.value) and "--force" in str(ei.value)

    def test_cursor_wraps_cyclically(self):
        model, params, batches, cfg = tiny_setup(total_steps=7)
        trace, _ = rl.train(model, params, batches[:3], cfg)
        assert len(trace.records) == 7  # cycled without error

    def test_checkpoint_interval_writes(self, tmp_path, monkeypatch):
        # checkpoints follow the eval cadence, and the last step is saved once
        import rinslab.training as training

        saved = []
        real_save = training.save_checkpoint

        def spy(*args, **kwargs):
            saved.append(kwargs["step"])
            real_save(*args, **kwargs)

        monkeypatch.setattr(training, "save_checkpoint", spy)
        model, params, batches, cfg = tiny_setup(total_steps=6)
        cfg = dataclasses.replace(cfg, eval_interval=2)
        ckpt = tmp_path / "c.rlab"
        rl.train(model, params, batches, cfg, checkpoint_path=ckpt)
        assert saved == [2, 4, 6]
        data = rl.load_checkpoint(ckpt)
        assert data.step == 6
        for k in params:
            assert np.array_equal(data.params[k], params[k]), k


class TestTraces:
    def test_csv_round_trip(self, tmp_path):
        model, params, batches, cfg = tiny_setup(total_steps=8)
        cfg = dataclasses.replace(cfg, eval_interval=4)
        trace, _ = rl.train(
            model, params, batches, cfg, eval_batches={"held": batches[:1]}
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["step", "compute", "train_loss", "lr", "rounds", "eval_held"]
        assert [int(r[0]) for r in rows] == [r.step for r in trace.records]
        assert [float(r[2]) for r in rows] == trace.train_losses().tolist()
        assert [int(r[4]) for r in rows] == [r.rounds for r in trace.records]
        evals = [(float(r[1]), float(r[5])) for r in rows if r[5] != ""]
        assert evals == trace.eval_points("held")

    def test_jsonl_round_trip_preserves_meta(self, tmp_path):
        model, params, batches, cfg = tiny_setup("AAB", p_skip=0.5, total_steps=6)
        trace, _ = rl.train(model, params, batches, cfg)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        back = rl.LossTrace.from_jsonl(path)
        assert back.meta["signature"] == trace.meta["signature"]
        assert back.expected_cost_per_step == trace.expected_cost_per_step
        assert [r.rounds for r in back.records] == [r.rounds for r in trace.records]
        assert back.aborted == trace.aborted
