"""Optimizer update against hand-computed values; schedule joint behavior."""

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
