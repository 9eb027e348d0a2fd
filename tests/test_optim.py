"""Optimizer update against hand-computed values; schedule joint behavior."""

import math

import numpy as np
import pytest

import rinslab as rl


def mkcfg(**kw):
    base = dict(peak_lr=1e-3, weight_decay=0.0, total_steps=100)
    base.update(kw)
    return rl.TrainConfig(**base)


class TestSchedule:
    def test_warmup_is_linear_and_joins_rsqrt(self):
        cfg = mkcfg(warmup_steps=10)
        assert rl.lr_at(cfg, 1) == pytest.approx(1e-4)
        assert rl.lr_at(cfg, 5) == pytest.approx(5e-4)
        assert rl.lr_at(cfg, 10) == pytest.approx(1e-3)  # joint hits peak
        assert rl.lr_at(cfg, 11) == pytest.approx(1e-3 * np.sqrt(10 / 11))
        assert rl.lr_at(cfg, 40) == pytest.approx(1e-3 * np.sqrt(10 / 40))

    def test_no_warmup_starts_at_peak(self):
        cfg = mkcfg(warmup_steps=0)
        assert rl.lr_at(cfg, 1) == pytest.approx(1e-3)
        assert rl.lr_at(cfg, 4) == pytest.approx(1e-3 / 2)

    def test_cooldown_linear_to_zero(self):
        cfg = mkcfg(warmup_steps=10, cooldown_steps=20, total_steps=100)
        knee = 1e-3 * np.sqrt(10 / 80)
        assert rl.lr_at(cfg, 80) == pytest.approx(knee)
        assert rl.lr_at(cfg, 90) == pytest.approx(knee / 2)
        assert rl.lr_at(cfg, 100) == pytest.approx(0.0, abs=1e-18)

    def test_monotone_after_warmup_before_cooldown(self):
        cfg = mkcfg(warmup_steps=5, cooldown_steps=10, total_steps=60)
        lrs = [rl.lr_at(cfg, s) for s in range(5, 51)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_budget_overflow_rejected(self):
        with pytest.raises(ValueError):
            mkcfg(warmup_steps=60, cooldown_steps=50, total_steps=100)


class TestAdamStep:
    def test_scalar_hand_trace(self):
        p = {"w": np.array([1.0])}
        g = {"w": np.array([0.5])}
        cfg = mkcfg(peak_lr=0.1, grad_clip_norm=1e9)  # lr at step 1 is peak
        state = rl.init_adam_state(p)
        norm = rl.adam_step(p, g, state, cfg, step=1)
        assert norm == pytest.approx(0.5)
        # mhat=0.5, vhat=0.25 -> update 0.1*0.5/(0.5+1e-8)
        want = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert p["w"][0] == pytest.approx(want, rel=1e-12)

    def test_weight_decay_decoupled_pre_update(self):
        p = {"w": np.array([1.0])}
        g = {"w": np.array([0.5])}
        cfg = mkcfg(peak_lr=0.1, weight_decay=0.01, grad_clip_norm=1e9)
        state = rl.init_adam_state(p)
        rl.adam_step(p, g, state, cfg, step=1)
        # decay applies to the pre-update value: extra 0.1*0.01*1.0
        want = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8) - 0.1 * 0.01 * 1.0
        assert p["w"][0] == pytest.approx(want, rel=1e-12)

    def test_global_clip_rescales_all(self):
        p = {"a": np.zeros(9), "b": np.zeros(16)}
        g = {"a": np.full(9, 1.0), "b": np.full(16, 1.0)}  # norm 5
        cfg = mkcfg(peak_lr=0.1, grad_clip_norm=1.0)
        state = rl.init_adam_state(p)
        norm = rl.adam_step(p, g, state, cfg, step=1)
        assert norm == pytest.approx(5.0)
        # after clip both entries carry grad 0.2; adam normalizes to ~lr
        assert np.allclose(p["a"], p["a"][0])
        assert p["a"][0] == pytest.approx(p["b"][0], rel=1e-12)

    def test_norm_matches_helper(self):
        g = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert rl.global_grad_norm(g) == pytest.approx(5.0)

    def test_nonfinite_grad_raises_with_name(self):
        for value in (np.nan, np.inf, -np.inf):
            p = {"ok": np.array([1.0, 2.0]), "bad": np.array([1.0, 3.0]),
                 "late": np.array([4.0])}
            state = rl.init_adam_state(p)
            rl.adam_step(p, {k: np.full_like(v, 0.3) for k, v in p.items()}, state,
                         mkcfg(weight_decay=0.01), step=1)
            before = [{k: v.copy() for k, v in d.items()} for d in (p, state.m, state.v)]
            g = {"ok": np.array([0.1, 0.2]), "bad": np.array([0.1, value]),
                 "late": np.array([value])}
            with pytest.raises(rl.NonFiniteGradientError) as ei:
                rl.adam_step(p, g, state, mkcfg(weight_decay=0.01), step=2)
            assert ei.value.name == "bad" and "bad" in str(ei.value)  # the first bad one
            for old, now in zip(before, (p, state.m, state.v)):
                for k in old:
                    assert np.array_equal(old[k], now[k]), (value, k)

    def test_key_mismatch_rejected(self):
        p = {"a": np.array([1.0])}
        state = rl.init_adam_state(p)
        with pytest.raises(ValueError):
            rl.adam_step(p, {"other": np.array([0.1])}, state, mkcfg(), step=1)

    def test_bias_correction_over_steps(self):
        # constant gradient: bias correction makes every update the step's lr
        p = {"w": np.array([10.0])}
        cfg = mkcfg(peak_lr=0.01, grad_clip_norm=1e9)
        state = rl.init_adam_state(p)
        prev = p["w"][0]
        for t in range(1, 50):
            rl.adam_step(p, {"w": np.array([1.0])}, state, cfg, step=t)
            delta = prev - p["w"][0]
            prev = p["w"][0]
            assert delta == pytest.approx(rl.lr_at(cfg, t), rel=1e-4)

    def test_dtype_preserved(self):
        p = {"w": np.ones(4, dtype=np.float32)}
        g = {"w": np.full(4, 0.5, dtype=np.float32)}
        state = rl.init_adam_state(p)
        rl.adam_step(p, g, state, mkcfg(), step=1)
        assert p["w"].dtype == np.float32
        assert state.m["w"].dtype == np.float32


def _reference_adam(params, grads, m, v, cfg, step):
    """The per-tensor update, one name at a time, as adam_step did it
    before flat buffers; returns the norm."""
    total = 0.0
    for g in grads.values():
        flat = np.asarray(g, dtype=np.float64).ravel()
        total += float(np.dot(flat, flat))
    norm = math.sqrt(total)
    scale = cfg.grad_clip_norm / norm if 0 < cfg.grad_clip_norm < norm else 1.0
    lr = rl.lr_at(cfg, step)
    bc1 = 1.0 - cfg.beta1 ** step
    # Python floats, as in adam_step: a float64 numpy scalar would make
    # float32 arithmetic round through float64
    rbc2 = math.sqrt(1.0 - cfg.beta2 ** step)
    c1, c2 = (1.0 - cfg.beta1) * scale, math.sqrt(1.0 - cfg.beta2) * scale
    eps, step_size = cfg.adam_eps * rbc2, lr * rbc2 / bc1
    for name, p in params.items():
        g, mm, vv = grads[name], m[name], v[name]
        buf = np.multiply(g, c1, dtype=mm.dtype)
        mm *= cfg.beta1
        mm += buf
        np.multiply(g, c2, out=buf)
        np.square(buf, out=buf)
        vv *= cfg.beta2
        vv += buf
        np.sqrt(vv, out=buf)
        buf += eps
        np.divide(mm, buf, out=buf)
        buf *= step_size
        if cfg.weight_decay > 0:
            p *= 1.0 - lr * cfg.weight_decay
        p -= buf
    return norm


class TestFlatBuffers:
    """adam_step on parameters, gradients and moments that are views of flat
    buffers in one layout (as train() and loss_and_grads build them)."""

    @staticmethod
    def layout_and_params(dtype):
        from rinslab import optim

        dims = rl.ModelDims(d_model=8, n_heads=2, mlp_dim=16, vocab=11, seq_len=5,
                            total_layers=4)
        model = rl.RecursiveModel(dims, rl.expand(rl.parse("AAB")),
                                  rl.RecursionPolicy(r_max=2, adapters=True),
                                  dtype=dtype)
        return optim, model._layout, model.init_params(0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("clip,decay", [(0.0, 0.0), (0.05, 0.0), (0.05, 0.01),
                                            (0.0, 0.01)])
    def test_flat_update_is_bitwise_the_per_tensor_one(self, monkeypatch, dtype,
                                                       clip, decay):
        optim, layout, params = self.layout_and_params(dtype)
        monkeypatch.setattr(optim, "_CHUNK", 100)  # chunks that cut tensors
        cfg = mkcfg(peak_lr=1e-2, weight_decay=decay, grad_clip_norm=clip,
                    warmup_steps=3, total_steps=30)
        flat = layout.gather(params)
        state = rl.init_adam_state(flat)
        ref = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        rng = np.random.default_rng(5)
        names = list(params)
        for step in range(1, 26):
            # gradients keyed in a shuffled order, as a backward reaches them
            g = {k: (rng.normal(size=params[k].shape) * 0.3).astype(dtype)
                 for k in rng.permutation(names)}
            grads = optim._Flat(np.empty(layout.size, dtype), layout)
            for k, a in g.items():
                grads.add(k, a)
            assert all(optim._whole(d) is not None
                       for d in (flat, grads, state.m, state.v))
            norm = rl.adam_step(flat, grads, state, cfg, step)
            want = _reference_adam(ref, g, ref_m, ref_v, cfg, step)
            assert norm == want, step
            for got, exp in ((flat, ref), (state.m, ref_m), (state.v, ref_v)):
                for k in exp:
                    assert got[k].tobytes() == exp[k].tobytes(), (step, k)

    def test_rebinding_an_entry_leaves_the_flat_path(self):
        optim, layout, params = self.layout_and_params(np.float32)
        flat = layout.gather(params)
        state = rl.init_adam_state(flat)
        grads = layout.gather({k: np.full_like(v, 0.1) for k, v in params.items()})
        assert optim._whole(grads) is not None
        grads["head.b"] = np.full_like(params["head.b"], 0.5)  # not a view any more
        assert optim._whole(grads) is None
        ref = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        cfg = mkcfg(grad_clip_norm=0.0)
        rl.adam_step(flat, grads, state, cfg, 1)
        _reference_adam(ref, dict(grads), ref_m, ref_v, cfg, 1)
        for k in ref:
            assert flat[k].tobytes() == ref[k].tobytes(), k
        # copies and pickles are plain dicts, never flat
        import copy
        import pickle

        for other in (copy.copy(flat), copy.deepcopy(flat), pickle.loads(pickle.dumps(flat))):
            assert type(other) is dict and other.keys() == flat.keys()

    def test_gather_refuses_what_the_layout_does_not_hold(self):
        _, layout, params = self.layout_and_params(np.float32)
        assert layout.gather(params) is not None
        assert layout.gather({k: v for k, v in params.items() if k != "head.b"}) is None
        assert layout.gather({**params, "extra": np.zeros(2, np.float32)}) is None
        mixed = dict(params, **{"head.b": params["head.b"].astype(np.float64)})
        assert layout.gather(mixed) is None
        wrong = dict(params, **{"head.b": np.zeros(3, np.float32)})
        assert layout.gather(wrong) is None
