"""Whole-model behavior: execution plans, tying, recursion, caching."""

import numpy as np
import pytest

import rinslab as rl
from rinslab import layers
from rinslab.ledger import SWEEP_SIGNATURES


def make_model(dims, text, degree=1, policy=None, dtype=np.float64):
    sig = rl.parse(text, degree=degree)
    policy = policy or rl.RecursionPolicy(r_max=rl.rins_rounds(sig) or 1)
    return rl.RecursiveModel(dims, rl.expand(sig), policy, dtype=dtype)


def cached_mlp_fwd(xn, p, prefix):
    """The MLP pair as it was before its backward rebuilt GELU's output:
    the output is cached with GELU's input and tanh term."""
    x2 = xn.reshape(-1, xn.shape[-1])
    a, gcache = layers.gelu_fwd(layers._dense(x2, p, prefix + "w_in", prefix + "b_in"))
    out = layers._dense(a, p, prefix + "w_out", prefix + "b_out")
    return out.reshape(xn.shape[:-1] + (-1,)), (gcache, a)


def cached_mlp_bwd(dout, xn, cache, p, prefix):
    gcache, a = cache
    grads = {}
    da = layers._dense_bwd(dout, a, p, prefix + "w_out", prefix + "b_out", grads)
    dh1 = layers.gelu_bwd(da, gcache)
    dxn = layers._dense_bwd(dh1, xn, p, prefix + "w_in", prefix + "b_in", grads)
    return dxn.reshape(dout.shape[:-1] + (-1,)), grads


# The attention and MLP pairs as they were before the executor rebuilt
# LayerNorm outputs: each cache also keeps the normalized input, and the
# backward reads that copy, ignoring the rebuilt one it is handed.


def kept_input_attention_fwd(xn, p, prefix, n_heads, kv_in=None, mask=None, **rows):
    out, kv, cache = layers.attention_fwd(xn, p, prefix, n_heads, kv_in, mask, **rows)
    return out, kv, (xn.reshape(-1, xn.shape[-1]), cache)


def kept_input_attention_bwd(dout, xn, cache, p, prefix, dk_extra=None, dv_extra=None):
    kept, cache = cache
    return layers.attention_bwd(dout, kept, cache, p, prefix, dk_extra, dv_extra)


def kept_input_mlp_fwd(xn, p, prefix):
    out, cache = layers.mlp_fwd(xn, p, prefix)
    return out, (xn.reshape(-1, xn.shape[-1]), cache)


def kept_input_mlp_bwd(dout, xn, cache, p, prefix):
    kept, cache = cache
    return layers.mlp_bwd(dout, kept, cache, p, prefix)


def keep_inputs(monkeypatch):
    import rinslab.model as model_mod

    monkeypatch.setattr(model_mod, "attention_fwd", kept_input_attention_fwd)
    monkeypatch.setattr(model_mod, "attention_bwd", kept_input_attention_bwd)
    monkeypatch.setattr(model_mod, "mlp_fwd", kept_input_mlp_fwd)
    monkeypatch.setattr(model_mod, "mlp_bwd", kept_input_mlp_bwd)


@pytest.fixture
def toks(tiny_dims):
    rng = np.random.default_rng(3)
    t = rng.integers(0, tiny_dims.vocab, size=(2, tiny_dims.seq_len))
    u = rng.integers(0, tiny_dims.vocab, size=(2, tiny_dims.seq_len))
    return t, u


class TestConstruction:
    def test_infeasible_plan_rejected(self, tiny_dims):
        plan = rl.expand(rl.parse("ABBC", degree=2))  # 9 blocks, 4 layers
        with pytest.raises(rl.InfeasiblePlanError) as ei:
            rl.RecursiveModel(tiny_dims, plan, rl.RecursionPolicy())
        assert "layers_per_block" in str(ei.value)

    def test_policy_must_match_shape(self, tiny_dims):
        plan = rl.expand(rl.parse("A^3B"))
        with pytest.raises(ValueError):
            rl.RecursiveModel(tiny_dims, plan, rl.RecursionPolicy(r_max=2))
        generic = rl.expand(rl.parse("ABA"))
        with pytest.raises(ValueError):
            rl.RecursiveModel(tiny_dims, generic, rl.RecursionPolicy(r_max=3))

    def test_adapters_only_with_policy_flag(self, tiny_dims):
        m = make_model(tiny_dims, "A^2B")
        assert not any(k.startswith("adapter.") for k in m.init_params(0))
        m2 = make_model(
            tiny_dims, "A^2B", policy=rl.RecursionPolicy(r_max=2, adapters=True)
        )
        p2 = m2.init_params(0)
        assert set(k for k in p2 if k.startswith("adapter.")) == {
            "adapter.1",
            "adapter.2",
        }
        assert np.array_equal(p2["adapter.2"], np.eye(8))

    def test_kv_share_and_adapters_gated_on_the_plan_run(self, tiny_dims):
        pol = rl.RecursionPolicy(r_max=3, kv_share=True, adapters=True)
        mask = (False, True, True, False)
        for label in ("AB", "ABCA"):
            # ABCA's leaves: rejected whatever the label says
            plan = rl.ExecutionPlan((0, 1, 2, 0), 3, mask, rl.parse(label))
            with pytest.raises(ValueError, match=r"A\^r B"):
                rl.RecursiveModel(tiny_dims, plan, pol)
            # AAAB's leaves: accepted whatever the label says
            plan = rl.ExecutionPlan((0, 0, 0, 1), 2, mask, rl.parse(label))
            assert rl.RecursiveModel(tiny_dims, plan, pol).plan is plan

    def test_expanded_plans_gated_as_their_signature(self):
        dims = rl.ModelDims(d_model=8, n_heads=2, mlp_dim=16, vocab=11, seq_len=5,
                            total_layers=64)
        sigs = list(SWEEP_SIGNATURES) + [rl.parse("A" * r + "B") for r in range(1, 7)]
        for sig in sigs:
            r = rl.rins_rounds(sig)
            pol = rl.RecursionPolicy(r_max=r or 1, kv_share=True, adapters=True)
            if r is None:
                with pytest.raises(ValueError, match=r"A\^r B"):
                    rl.RecursiveModel(dims, rl.expand(sig), pol)
            else:
                rl.RecursiveModel(dims, rl.expand(sig), pol)

    def test_init_deterministic_and_scaled(self, tiny_dims):
        m = make_model(tiny_dims, "AB")
        a = m.init_params(11)
        b = m.init_params(11)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        c = m.init_params(12)
        assert not np.array_equal(a["embed.token"], c["embed.token"])
        # residual out-projections start tighter than the rest
        assert a["block.A.layer.0.attn.out"].std() < a["block.A.layer.0.attn.q"].std()


class TestForward:
    def test_output_shape_and_loss(self, tiny_dims, toks):
        t, u = toks
        m = make_model(tiny_dims, "AAB")
        p = m.init_params(0)
        logits = m.forward(p, t)
        assert logits.shape == (2, tiny_dims.seq_len, tiny_dims.vocab)
        loss = m.loss(p, t, u)
        assert np.isfinite(loss) and loss > 0

    def test_single_sequence_input(self, tiny_dims):
        m = make_model(tiny_dims, "AB")
        p = m.init_params(0)
        t = np.arange(tiny_dims.seq_len) % tiny_dims.vocab
        out = m.forward(p, t)
        assert out.shape == (tiny_dims.seq_len, tiny_dims.vocab)
        batched = m.forward(p, t[None])
        assert np.array_equal(out, batched[0])

    def test_rounds_selects_depth(self, tiny_dims, toks):
        t, _ = toks
        m = make_model(tiny_dims, "A^3B")
        p = m.init_params(0)
        _, info1 = m.forward_with_info(p, t, rounds=1)
        _, info3 = m.forward_with_info(p, t, rounds=3)
        assert info1["exec"] == [0, 1]
        assert info3["exec"] == [0, 0, 0, 1]

    def test_rounds_rejected_for_generic_plans(self, tiny_dims, toks):
        t, _ = toks
        m = make_model(tiny_dims, "ABA")
        p = m.init_params(0)
        with pytest.raises(ValueError):
            m.forward(p, t, rounds=2)

    def test_causality_end_to_end(self, tiny_dims):
        m = make_model(tiny_dims, "A^2B")
        p = m.init_params(5)
        rng = np.random.default_rng(0)
        t = rng.integers(0, tiny_dims.vocab, size=(1, tiny_dims.seq_len))
        base = m.forward(p, t)
        t2 = t.copy()
        t2[0, -1] = (t2[0, -1] + 1) % tiny_dims.vocab
        pert = m.forward(p, t2)
        assert np.allclose(base[0, :-1], pert[0, :-1], atol=1e-12)

    def test_uniform_head_gives_log_vocab(self, tiny_dims, toks):
        t, u = toks
        m = make_model(tiny_dims, "AB")
        p = m.init_params(0)
        p["head.w"] = np.zeros_like(p["head.w"])
        p["head.b"] = np.zeros_like(p["head.b"])
        assert m.loss(p, t, u) == pytest.approx(np.log(tiny_dims.vocab), rel=1e-12)


class TestEquivalences:
    def test_rins_r1_equals_plain_ab(self, tiny_dims, toks):
        # Identical parameter names let one dict drive both models.
        t, u = toks
        rins = make_model(tiny_dims, "A^3B")
        plain = make_model(tiny_dims, "AB")
        p = rins.init_params(9)
        la, ga, _ = rins.loss_and_grads(p, t, u, rounds=1)
        lb, gb, _ = plain.loss_and_grads(p, t, u)
        assert la == lb
        assert set(ga) == set(gb)
        assert all(np.array_equal(ga[k], gb[k]) for k in ga)
        assert np.array_equal(rins.forward(p, t, rounds=1), plain.forward(p, t))

    def test_full_rounds_equals_unrolled_generic(self, tiny_dims, toks):
        # A^2B executed at full depth == the generic plan [0,0,1] forward.
        t, _ = toks
        rins = make_model(tiny_dims, "A^2B")
        p = rins.init_params(2)
        got = rins.forward(p, t, rounds=2)
        manual = rins.forward(p, t)  # default: full depth
        assert np.array_equal(got, manual)

    def test_untied_clone_gradient_sum(self, tiny_dims, toks):
        # Tied A-block gradient equals the sum over an untied clone's calls.
        # The clone needs 3 blocks at the tied model's layers-per-block.
        import dataclasses

        t, u = toks
        tied = make_model(tiny_dims, "AAB")
        clone_dims = dataclasses.replace(tiny_dims, total_layers=6)
        clone = make_model(clone_dims, "ABC")  # A,B untied copies; C plays B
        pt = tied.init_params(4)
        pc = {}
        for k, v in pt.items():
            if k.startswith("block.A."):
                pc[k] = v.copy()
                pc[k.replace("block.A.", "block.B.")] = v.copy()
            elif k.startswith("block.B."):
                pc[k.replace("block.B.", "block.C.")] = v.copy()
            else:
                pc[k] = v.copy()
        lt, gt, _ = tied.loss_and_grads(pt, t, u)
        lc, gc, _ = clone.loss_and_grads(pc, t, u)
        assert lt == pytest.approx(lc, rel=1e-12)
        for k in gt:
            if k.startswith("block.A."):
                want = gc[k] + gc[k.replace("block.A.", "block.B.")]
            elif k.startswith("block.B."):
                want = gc[k.replace("block.B.", "block.C.")]
            else:
                want = gc[k]
            assert np.abs(gt[k] - want).max() < 1e-10, k

    def test_adapter_identity_is_noop(self, tiny_dims, toks):
        t, _ = toks
        plain = make_model(tiny_dims, "A^2B")
        withad = make_model(
            tiny_dims, "A^2B", policy=rl.RecursionPolicy(r_max=2, adapters=True)
        )
        p = withad.init_params(3)
        p_plain = {k: v for k, v in p.items() if not k.startswith("adapter.")}
        a = withad.forward(p, t)
        b = plain.forward(p_plain, t)
        assert np.array_equal(a, b)

    def test_nonidentity_adapter_changes_output(self, tiny_dims, toks):
        t, _ = toks
        m = make_model(
            tiny_dims, "A^2B", policy=rl.RecursionPolicy(r_max=2, adapters=True)
        )
        p = m.init_params(3)
        p["adapter.2"] = p["adapter.2"] + 0.1
        plain = make_model(tiny_dims, "A^2B")
        base = plain.forward(
            {k: v for k, v in p.items() if not k.startswith("adapter.")}, t
        )
        assert not np.array_equal(m.forward(p, t), base)

    def test_adapter_selected_by_rounds(self, tiny_dims, toks):
        t, _ = toks
        m = make_model(
            tiny_dims, "A^3B", policy=rl.RecursionPolicy(r_max=3, adapters=True)
        )
        p = m.init_params(1)
        for r in (1, 2, 3):
            _, info = m.forward_with_info(p, t, rounds=r)
            assert info["adapter"] == f"adapter.{r}"


class TestKVSharing:
    def test_cache_bytes_constant_when_shared(self, tiny_dims):
        share = make_model(
            tiny_dims, "A^4B", policy=rl.RecursionPolicy(r_max=4, kv_share=True)
        )
        noshare = make_model(tiny_dims, "A^4B")
        sizes_s = [share.kv_cache_bytes(rounds=r) for r in (1, 2, 3, 4)]
        sizes_n = [noshare.kv_cache_bytes(rounds=r) for r in (1, 2, 3, 4)]
        assert len(set(sizes_s)) == 1
        diffs = np.diff(sizes_n)
        assert (diffs == diffs[0]).all() and diffs[0] > 0
        assert sizes_n[0] + sizes_n[2] == 2 * sizes_n[1]  # exactly linear

    def test_realized_cache_matches_ledger(self, tiny_dims, toks):
        t, _ = toks
        pol = rl.RecursionPolicy(r_max=3, kv_share=True)
        m = make_model(tiny_dims, "A^3B", policy=pol)
        p = m.init_params(0)
        for r in (1, 2, 3):
            _, info = m.forward_with_info(p, t, rounds=r)
            assert info["kv_cache_bytes"] == m.kv_cache_bytes(rounds=r)

    @pytest.mark.parametrize(
        "text, kv_share, want",
        [
            ("AAAB", False, [1280, 2560, 3840]),
            ("AAAB", True, [1280, 1280, 1280]),
            ("ABCD", False, [1920]),
        ],
    )
    def test_cache_bytes_pinned(self, tiny_dims, toks, text, kv_share, want):
        # One (k, v) pair per layer of every call but the last: for AAAB,
        # 2 layers x 2 x T=5 x d=8 x 8 bytes = 1280 per A call, and kv_share
        # keeps only the first call's; ABCD holds A, B and C at 1 layer each.
        t, _ = toks
        policy = rl.RecursionPolicy(r_max=len(want), kv_share=kv_share)
        m = make_model(tiny_dims, text, policy=policy)
        p = m.init_params(0)
        rounds = range(1, len(want) + 1)
        got = [m.forward_with_info(p, t, rounds=r)[1]["kv_cache_bytes"] for r in rounds]
        assert got == want
        assert [m.kv_cache_bytes(rounds=r) for r in rounds] == want

    def test_share_changes_output_beyond_round_one(self, tiny_dims, toks):
        t, _ = toks
        shared = make_model(
            tiny_dims, "A^3B", policy=rl.RecursionPolicy(r_max=3, kv_share=True)
        )
        plain = make_model(tiny_dims, "A^3B")
        p = shared.init_params(6)
        assert np.array_equal(
            shared.forward(p, t, rounds=1), plain.forward(p, t, rounds=1)
        )
        assert not np.allclose(
            shared.forward(p, t, rounds=3), plain.forward(p, t, rounds=3)
        )

    def test_b_block_unaffected_by_sharing(self, tiny_dims, toks):
        # Sharing applies to the recursive block only; B runs its own k/v.
        t, u = toks
        shared = make_model(
            tiny_dims, "A^2B", policy=rl.RecursionPolicy(r_max=2, kv_share=True)
        )
        p = shared.init_params(8)
        loss, grads, _ = shared.loss_and_grads(p, t, u, rounds=2)
        # B's k/v projections still receive gradient
        assert np.abs(grads["block.B.layer.0.attn.k"]).max() > 0
        assert np.abs(grads["block.B.layer.0.attn.v"]).max() > 0


class TestForwardDepths:
    @pytest.mark.parametrize("text", ["AB", "A^2B", "A^3B"])
    @pytest.mark.parametrize("kv_share", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("segmented", [False, True])
    def test_each_depth_bitwise_equals_forward(
        self, tiny_dims, toks, text, kv_share, adapters, dtype, segmented
    ):
        t, _ = toks
        r = rl.rins_rounds(rl.parse(text))
        pol = rl.RecursionPolicy(r_max=r, kv_share=kv_share, adapters=adapters)
        m = make_model(tiny_dims, text, policy=pol, dtype=dtype)
        p = m.init_params(4)
        rng = np.random.default_rng(1)
        for name in [n for n in p if n.startswith("adapter.")]:
            # away from identity, so a wrong adapter would show
            p[name] = p[name] + rng.normal(0.0, 0.3, size=p[name].shape).astype(dtype)
        segments = np.array([[0, 0, 1, 1, 1], [0, 1, 1, 2, 2]])
        allow = rl.segments_to_mask(segments) if segmented else None
        seg = segments if segmented else None
        want = {k: m.forward(p, t, rounds=k, segments=seg) for k in range(1, r + 1)}
        orders = [list(range(1, r + 1)), list(range(r, 0, -1)),
                  [r, 1, r] + list(range(1, r + 1))]
        for depths in orders:
            got = m.forward_depths(p, t, depths, allow=allow)
            assert len(got) == len(depths)
            for k, logits in zip(depths, got):
                assert logits.dtype == want[k].dtype
                assert np.array_equal(logits, want[k]), (depths, k)

    def test_single_sequence_input(self, tiny_dims):
        m = make_model(tiny_dims, "A^2B")
        p = m.init_params(0)
        t = np.arange(tiny_dims.seq_len) % tiny_dims.vocab
        got = m.forward_depths(p, t, [1, 2])
        assert [g.shape for g in got] == [(tiny_dims.seq_len, tiny_dims.vocab)] * 2
        assert np.array_equal(got[1], m.forward(p, t, rounds=2))

    def test_shared_prefix_runs_once(self, tiny_dims, toks, monkeypatch):
        import rinslab.model as model_mod

        t, _ = toks
        m = make_model(tiny_dims, "A^3B")
        p = m.init_params(0)
        calls = []
        real = model_mod.attention_fwd

        def counted(xn, params, prefix, *args):
            calls.append(prefix.split(".")[1])
            return real(xn, params, prefix, *args)

        monkeypatch.setattr(model_mod, "attention_fwd", counted)
        m.forward_depths(p, t, [1, 2, 3])
        # A, AA, AAA run once each; B runs after each of them.
        per_call = m.layers_per_block
        assert calls.count("A") == 3 * per_call
        assert calls.count("B") == 3 * per_call
        calls.clear()
        for k in (1, 2, 3):
            m.forward(p, t, rounds=k)
        assert len(calls) == 9 * per_call

    def test_positions_bound_by_seq_len_not_length(self, tiny_dims):
        m = make_model(tiny_dims, "AB")
        p = m.init_params(0)
        S = tiny_dims.seq_len
        t = np.arange(S + 2) % tiny_dims.vocab
        positions = np.concatenate([np.arange(S), np.arange(S - 2, S)])
        (logits,) = m.forward_depths(p, t, [1], positions=positions)
        assert logits.shape == (S + 2, tiny_dims.vocab)
        # the first S rows read positions 0..S-1, as forward does
        np.testing.assert_allclose(logits[:S], m.forward(p, t[:S]), rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="seq_len"):
            m.forward_depths(p, t, [1], positions=np.arange(S + 2))
        with pytest.raises(ValueError, match="seq_len"):
            m.forward_depths(p, t, [1])


class TestIdRanges:
    """The executor refuses ids its tables do not hold, where they enter."""

    @pytest.mark.parametrize("bad", [-9, -1, 11, 14])  # tiny_dims.vocab is 11
    def test_token_and_target_ids_outside_vocab(self, tiny_dims, bad):
        m = make_model(tiny_dims, "AB")
        p = m.init_params(0)
        good, wrong = [[1, 2, 3, 10]], [[1, 2, 3, bad]]
        for call in (lambda: m.forward(p, wrong),
                     lambda: m.forward_depths(p, wrong[0], [1]),
                     lambda: m.loss(p, wrong, good),
                     lambda: m.loss_and_grads(p, wrong, good)):
            with pytest.raises(ValueError, match="tokens"):
                call()
        for call in (lambda: m.loss(p, good, wrong),
                     lambda: m.loss_and_grads(p, good, wrong)):
            with pytest.raises(ValueError, match="targets"):
                call()
        m.loss_and_grads(p, good, [[0, 0, 10, 10]])  # both ends of the range

    def test_negative_position(self, tiny_dims):
        m = make_model(tiny_dims, "AB")
        p = m.init_params(0)
        with pytest.raises(ValueError, match="positions"):
            m.forward_depths(p, [1, 2, 3, 4], [1], positions=[0, 1, 2, -1])


def _prefix_plan():
    # Depth 1 runs leaves (0, 1), a prefix of depth 2's (0, 1, 1).
    return rl.ExecutionPlan((0, 1, 1), 2, (False, True, False), rl.parse("AB"))


class TestForwardRows:
    """forward_depths(rows=) gives the full logits at the chosen rows."""

    @pytest.mark.parametrize("case", ["AB", "A^3B-kv-adapters", "A^2B-adapters",
                                      "prefix-plan"])
    def test_rows_equal_full_logits(self, tiny_dims, case):
        if case == "prefix-plan":
            m = rl.RecursiveModel(tiny_dims, _prefix_plan(), rl.RecursionPolicy(r_max=2))
        else:
            text = case.split("-")[0]
            pol = rl.RecursionPolicy(r_max=rl.rins_rounds(rl.parse(text)),
                                     kv_share="kv" in case, adapters="adapters" in case)
            m = make_model(tiny_dims, text, policy=pol)
        assert m.layers_per_block == 2  # an untrimmed layer runs before the trimmed one
        p = m.init_params(5)
        rng = np.random.default_rng(2)
        for name in [n for n in p if n.startswith("adapter.")]:
            p[name] = p[name] + rng.normal(0.0, 0.3, size=p[name].shape)
        B, T = 3, tiny_dims.seq_len
        t = rng.integers(0, tiny_dims.vocab, size=(B, T))
        positions = rng.integers(0, tiny_dims.seq_len, size=(B, T))
        allow = rng.random((B, 1, T, T)) < 0.6
        allow[:, 0, np.arange(T), np.arange(T)] = True
        rows = rng.integers(0, T, size=(B, 3))
        depths = list(range(1, m.policy.r_max + 1))
        for order in (depths, depths[::-1], depths + depths):
            full = m.forward_depths(p, t, order, allow, positions)
            got = m.forward_depths(p, t, order, allow, positions, rows=rows)
            for k, f, g in zip(order, full, got):
                assert g.shape == (B, 3, tiny_dims.vocab)
                want = np.take_along_axis(f, rows[:, :, None], axis=1)
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-12, err_msg=str(k))

    def test_single_sequence_rows(self, tiny_dims):
        m = make_model(tiny_dims, "A^2B")
        p = m.init_params(0)
        t = np.arange(tiny_dims.seq_len) % tiny_dims.vocab
        full = m.forward_depths(p, t, [1, 2])
        got = m.forward_depths(p, t, [1, 2], rows=np.array([4, 0]))
        for f, g in zip(full, got):
            assert g.shape == (2, tiny_dims.vocab)
            np.testing.assert_allclose(g, f[[4, 0]], rtol=0, atol=1e-12)

    def test_trimmed_call_is_never_a_prefix(self, tiny_dims, toks, monkeypatch):
        import rinslab.model as model_mod

        t, _ = toks
        m = rl.RecursiveModel(tiny_dims, _prefix_plan(), rl.RecursionPolicy(r_max=2))
        p = m.init_params(1)
        calls = []
        real = model_mod.attention_fwd

        def counted(xn, params, prefix, *args, **kwargs):
            calls.append((prefix.split(".")[1], "rows" in kwargs))
            return real(xn, params, prefix, *args, **kwargs)

        monkeypatch.setattr(model_mod, "attention_fwd", counted)
        m.forward_depths(p, t, [1, 2])
        # depth 2 resumes after depth 1's B: one more B call, two layers each
        assert calls.count(("B", False)) == 2 * 2
        calls.clear()
        m.forward_depths(p, t, [1, 2], rows=np.zeros((2, 1), int))
        # depth 1's B trims its last layer, so depth 2 runs that B again in
        # full before its own B, which trims too: three B calls, two trimmed
        assert calls.count(("B", True)) == 2
        assert calls.count(("B", False)) == 3 * 2 - 2


class TestFlatGradients:
    """loss_and_grads returns views of one fresh buffer per call."""

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_two_calls_never_share_memory(self, tiny_dims, toks, monkeypatch, lanes):
        import rinslab.model as model_mod

        monkeypatch.setattr(model_mod, "_LANES", lanes)
        monkeypatch.setattr(model_mod, "_GROUP_BYTES", 2 * 1280)  # two groups
        t, u = toks
        m = make_model(tiny_dims, "A^2B", policy=rl.RecursionPolicy(
            r_max=2, kv_share=True, adapters=True))
        p = m.init_params(0)
        _, first, _ = m.loss_and_grads(p, t, u, rounds=1)
        kept = {k: v.copy() for k, v in first.items()}
        _, second, _ = m.loss_and_grads(p, t, u, rounds=2)
        assert first.keys() == second.keys() == p.keys()
        for k in first:
            for other in list(second.values()) + list(p.values()):
                assert not np.shares_memory(first[k], other), k
            assert first[k].tobytes() == kept[k].tobytes(), k
        # the adapter rounds=1 never runs comes back as zeros, not garbage
        assert not second["adapter.1"].any() and not first["adapter.2"].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuilt_gelu_output_gives_the_cached_pair_bits(
            self, tiny_dims, toks, monkeypatch, dtype):
        import rinslab.model as model_mod

        t, u = toks
        m = make_model(tiny_dims, "A^3B", dtype=dtype, policy=rl.RecursionPolicy(
            r_max=3, kv_share=True, adapters=True))
        p = {k: v.astype(dtype) for k, v in m.init_params(4).items()}
        got = [m.loss_and_grads(p, t, u, rounds=r)[:2] for r in (1, 2, 3)]
        monkeypatch.setattr(model_mod, "mlp_fwd", cached_mlp_fwd)
        monkeypatch.setattr(model_mod, "mlp_bwd", cached_mlp_bwd)
        for r, (loss, grads) in zip((1, 2, 3), got):
            want_loss, want, _ = m.loss_and_grads(p, t, u, rounds=r)
            assert loss == want_loss
            assert grads.flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuilt_norm_outputs_give_the_kept_input_pair_bits(
            self, tiny_dims, toks, monkeypatch, dtype):
        t, u = toks
        m = make_model(tiny_dims, "A^3B", dtype=dtype, policy=rl.RecursionPolicy(
            r_max=3, kv_share=True, adapters=True))
        p = {k: v.astype(dtype) for k, v in m.init_params(4).items()}
        got = [m.loss_and_grads(p, t, u, rounds=r)[:2] for r in (1, 2, 3)]
        keep_inputs(monkeypatch)
        for r, (loss, grads) in zip((1, 2, 3), got):
            want_loss, want, _ = m.loss_and_grads(p, t, u, rounds=r)
            assert loss == want_loss
            assert grads.flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_backward_consumes_the_tape(self, tiny_dims, toks, rounds):
        from rinslab.optim import _Flat

        t, u = toks
        m = make_model(tiny_dims, "A^3B", policy=rl.RecursionPolicy(
            r_max=3, kv_share=True, adapters=True))
        p = m.init_params(0)
        (logits,), tape, _ = m._run(p, t, [rounds], None, need_tape=True)
        calls = list(tape["calls"])
        assert len(calls) == rounds + 1 and all(c["layers"] for c in calls)
        dlogits = layers.softmax_xent_bwd(layers.softmax_xent_fwd(logits, u)[1])
        m._backward(p, tape, dlogits, _Flat(np.empty(m._layout.size), m._layout))
        assert tape == {}
        assert not [c["layers"] for c in calls if c["layers"]]

    def test_extra_param_names_get_zero_gradients(self, tiny_dims, toks):
        t, u = toks
        m = make_model(tiny_dims, "AB")
        p = dict(m.init_params(0), extra=np.ones(3))
        _, grads, _ = m.loss_and_grads(p, t, u)
        assert grads.keys() == p.keys()
        assert np.array_equal(grads["extra"], np.zeros(3))


class TestModelGradients:
    @pytest.mark.parametrize("kv_share", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    def test_fd_spot_check(self, tiny_dims, toks, kv_share, adapters):
        # Full sweep over rounds lives in the acceptance suite; here one
        # representative parameter per tensor family at rounds=2.
        t, u = toks
        pol = rl.RecursionPolicy(r_max=3, kv_share=kv_share, adapters=adapters)
        m = make_model(tiny_dims, "A^3B", policy=pol)
        p = m.init_params(13)
        loss, grads, _ = m.loss_and_grads(p, t, u, rounds=2)
        rng = np.random.default_rng(0)
        names = [
            "embed.token",
            "block.A.layer.0.attn.q",
            "block.A.layer.1.mlp.w_in",
            "block.B.layer.0.attn.v",
            "final_norm.gamma",
            "head.w",
        ]
        if adapters:
            names.append("adapter.2")
        eps = 1e-5
        for name in names:
            arr = p[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            old = arr[idx]
            arr[idx] = old + eps
            hi = m.loss(p, t, u, rounds=2)
            arr[idx] = old - eps
            lo = m.loss(p, t, u, rounds=2)
            arr[idx] = old
            fd = (hi - lo) / (2 * eps)
            got = grads[name][idx]
            assert abs(got - fd) < 1e-4 * max(1.0, abs(fd)), (name, got, fd)

    def test_grads_cover_every_param(self, tiny_dims, toks):
        t, u = toks
        m = make_model(
            tiny_dims, "A^3B", policy=rl.RecursionPolicy(r_max=3, adapters=True)
        )
        p = m.init_params(0)
        _, grads, _ = m.loss_and_grads(p, t, u, rounds=1)
        assert set(grads) == set(p)
        # adapters for other round counts exist but got no use this pass
        assert np.abs(grads["adapter.3"]).max() == 0.0


class TestWeightProducts:
    """Every product with a weight matrix runs in layers._dense (forward) and
    layers._dense_bwd (backward), so counting those two counts them all."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import rinslab.layers as layers_mod
        import rinslab.model as model_mod

        flops, bwd = [], []
        dense, dense_bwd = layers_mod._dense, layers_mod._dense_bwd

        def counted_dense(x, p, w, b=None):
            flops.append(2 * (x.size // x.shape[-1]) * p[w].size)  # 2 m k n
            return dense(x, p, w, b)

        def counted_bwd(dy, x, p, w, b, grads):
            bwd.append(w)
            return dense_bwd(dy, x, p, w, b, grads)

        for mod in (layers_mod, model_mod):
            monkeypatch.setattr(mod, "_dense", counted_dense)
            monkeypatch.setattr(mod, "_dense_bwd", counted_bwd)
        return flops, bwd

    @pytest.mark.parametrize("text", ["AB", "AAB", "AAAB"])
    @pytest.mark.parametrize("kv_share", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    def test_products_per_step(self, tiny_dims, toks, counted, text, kv_share,
                               adapters):
        t, u = toks
        r_max = len(text) - 1
        pol = rl.RecursionPolicy(r_max=r_max, kv_share=kv_share, adapters=adapters)
        m = make_model(tiny_dims, text, policy=pol)
        p = m.init_params(0)
        assert len(m._micro_batches(t)) == 1
        flops, bwd = counted
        for rounds in range(1, r_max + 1):
            flops.clear()
            bwd.clear()
            m.loss_and_grads(p, t, u, rounds=rounds)
            # 6 products per layer call (q, k, v, out, w_in, w_out), 4 when
            # it reads a shared K/V pair; one for the head, one for the adapter
            want, seen = 1 + adapters, set()
            for leaf in m.plan.calls(rounds):
                want += m.layers_per_block * (4 if kv_share and leaf in seen else 6)
                seen.add(leaf)
            assert (len(flops), len(bwd)) == (want, want)
            assert set(bwd) <= {k for k, v in p.items() if v.ndim == 2}
            assert "head.w" in bwd and (f"adapter.{rounds}" in bwd) == adapters

    @pytest.mark.parametrize("text,kv_share,adapters,rounds,want", [
        ("AB", False, False, 1, 25),
        ("AAB", True, False, 2, 33),
        ("AAAB", True, True, 3, 42),
        ("AAAB", False, False, 3, 49),
    ])
    def test_pinned_counts(self, tiny_dims, toks, counted, text, kv_share,
                           adapters, rounds, want):
        t, u = toks
        pol = rl.RecursionPolicy(r_max=len(text) - 1, kv_share=kv_share,
                                 adapters=adapters)
        m = make_model(tiny_dims, text, policy=pol)
        m.loss_and_grads(m.init_params(0), t, u, rounds=rounds)
        assert (len(counted[0]), len(counted[1])) == (want, want)

    @pytest.mark.parametrize("text", ["AB", "AAB", "AAAB"])
    def test_forward_flops_match_the_ledger(self, tiny_dims, toks, counted, text):
        # exact-flops per token, less the 4 T d score term, plus the head's
        # 2 d vocab: the weight products the executor runs
        t, u = toks
        m = make_model(tiny_dims, text)
        p = m.init_params(0)
        flops, _ = counted
        m.loss_and_grads(p, t, u)
        d, T, V = tiny_dims.d_model, tiny_dims.seq_len, tiny_dims.vocab
        passes = len(m.plan) * m.layers_per_block
        weight = rl.step_cost(m.plan, tiny_dims, "exact-flops") / T - passes * 4 * T * d
        assert sum(flops) / t.size == weight + 2 * d * V
        if text == "AB":
            assert sum(flops) / t.size == 4272


class TestMicroBatches:
    """loss_and_grads runs a batch as micro-batches of whole sequences."""

    @pytest.fixture
    def split(self, monkeypatch):
        # At tiny dims one sequence's widest activation is 5 x 16 x 8 = 640
        # bytes, and a micro-batch gets half the budget; room for two
        # sequences per group splits a batch of 5 into 1, 2, 2.
        import rinslab.model as model_mod

        monkeypatch.setattr(model_mod, "_GROUP_BYTES", 2 * 1280)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("kv_share", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    @pytest.mark.parametrize("segmented", [False, True])
    def test_groups_sum_to_per_sequence_grads(
        self, tiny_dims, split, rounds, kv_share, adapters, segmented
    ):
        pol = rl.RecursionPolicy(r_max=3, kv_share=kv_share, adapters=adapters)
        m = make_model(tiny_dims, "A^3B", policy=pol)
        p = m.init_params(7)
        rng = np.random.default_rng(rounds)
        for name in [n for n in p if n.startswith("adapter.")]:
            p[name] = p[name] + rng.normal(0.0, 0.3, size=p[name].shape)
        B = 5
        t = rng.integers(0, tiny_dims.vocab, size=(B, tiny_dims.seq_len))
        u = rng.integers(0, tiny_dims.vocab, size=(B, tiny_dims.seq_len))
        seg = np.cumsum(rng.random(t.shape) < 0.3, axis=1) if segmented else None
        assert [s.stop - s.start for s in m._micro_batches(t)] == [1, 2, 2]

        loss, grads, info = m.loss_and_grads(p, t, u, rounds=rounds, segments=seg)
        assert info["rounds"] == rounds
        # Every sequence has T tokens, so each one's token share is 1/B.
        want_loss, want = 0.0, {k: np.zeros_like(v) for k, v in p.items()}
        for i in range(B):
            one = None if seg is None else seg[i:i + 1]
            li, gi, _ = m.loss_and_grads(p, t[i:i + 1], u[i:i + 1], rounds=rounds,
                                         segments=one)
            want_loss += li / B
            for k in want:
                want[k] += gi[k] / B
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert loss == pytest.approx(m.loss(p, t, u, rounds=rounds, segments=seg),
                                     rel=1e-12)
        assert set(grads) == set(p)
        for k in p:
            np.testing.assert_allclose(grads[k], want[k], rtol=0, atol=1e-12, err_msg=k)

        names = ["embed.token", "embed.pos", "block.A.layer.0.attn.k",
                 "block.A.layer.1.mlp.w_in", "block.B.layer.0.attn.v",
                 "final_norm.beta", "head.w"]
        if adapters:
            names.append(f"adapter.{rounds}")
        eps = 1e-5
        for name in names:
            arr = p[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            old = arr[idx]
            arr[idx] = old + eps
            hi = m.loss(p, t, u, rounds=rounds, segments=seg)
            arr[idx] = old - eps
            lo = m.loss(p, t, u, rounds=rounds, segments=seg)
            arr[idx] = old
            fd = (hi - lo) / (2 * eps)
            assert abs(grads[name][idx] - fd) < 1e-7 * max(1.0, abs(fd)), (name, fd)

    @pytest.mark.parametrize("text,kw", [
        ("AB", {}),
        ("A^3B", dict(kv_share=True, adapters=True)),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_group_loss_is_forward_loss(self, tiny_dims, toks, monkeypatch,
                                            text, kw, dtype):
        t, u = toks
        pol = rl.RecursionPolicy(r_max=rl.rins_rounds(rl.parse(text)), **kw)
        m = make_model(tiny_dims, text, policy=pol, dtype=dtype)
        p = m.init_params(2)
        assert m._micro_batches(t) == [slice(0, len(t))]
        segments = np.array([[0, 0, 1, 1, 1], [0, 1, 1, 2, 2]])
        for seg in (None, segments):
            assert m.loss_and_grads(p, t, u, segments=seg)[0] == m.loss(
                p, t, u, segments=seg)
        # loss runs the groups loss_and_grads runs, so multi-group batches
        # agree exactly too.
        import rinslab.model as model_mod

        monkeypatch.setattr(model_mod, "_GROUP_BYTES", 1)
        rng = np.random.default_rng(5)
        t5 = rng.integers(0, tiny_dims.vocab, size=(5, tiny_dims.seq_len))
        u5 = rng.integers(0, tiny_dims.vocab, size=(5, tiny_dims.seq_len))
        assert len(m._micro_batches(t5)) == 5
        for seg in (None, np.cumsum(rng.random(t5.shape) < 0.3, axis=1)):
            assert m.loss_and_grads(p, t5, u5, segments=seg)[0] == m.loss(
                p, t5, u5, segments=seg)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_group_rule_at_benchmark_shapes(self, monkeypatch, lanes):
        import rinslab.model as model_mod

        # Micro-batches get half the budget on any lane count: one partition.
        monkeypatch.setattr(model_mod, "_LANES", lanes)
        most = 2
        desk = rl.ModelDims(d_model=160, n_heads=4, mlp_dim=640, vocab=65,
                            seq_len=96, total_layers=4)
        quick = rl.ModelDims(d_model=48, n_heads=4, mlp_dim=192, vocab=65,
                             seq_len=48, total_layers=4)
        m = make_model(desk, "A^3B", dtype=np.float32)
        groups = m._micro_batches(np.zeros((16, 96), dtype=np.int64))
        assert [(s.start, s.stop) for s in groups] == [
            (i, i + most) for i in range(0, 16, most)]
        # Uneven batches get near-equal groups of at most `most` sequences.
        sizes = [s.stop - s.start for s in m._micro_batches(np.zeros((17, 96), int))]
        assert sum(sizes) == 17 and max(sizes) - min(sizes) <= 1 and max(sizes) <= most
        # A sequence wider than the bound still runs, alone.
        wide = make_model(rl.ModelDims(d_model=160, n_heads=4, mlp_dim=4096,
                                       vocab=65, seq_len=96, total_layers=4), "AB")
        assert len(wide._micro_batches(np.zeros((3, 96), int))) == 3
        q = make_model(quick, "A^3B", dtype=np.float32)
        assert q._micro_batches(np.zeros((8, 48), dtype=np.int64)) == [slice(0, 8)]

    @staticmethod
    def _step_peaks(monkeypatch, lanes, batches):
        """tracemalloc peaks of desk-width AB steps, one per batch size."""
        import tracemalloc

        import rinslab.model as model_mod

        monkeypatch.setattr(model_mod, "_LANES", lanes)
        dims = rl.ModelDims(d_model=160, n_heads=4, mlp_dim=640, vocab=65,
                            seq_len=96, total_layers=4)
        m = make_model(dims, "AB", dtype=np.float32)
        p = m.init_params(0)
        peaks = []
        for batch in batches:
            t = np.zeros((batch, dims.seq_len), dtype=np.int64)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                m.loss_and_grads(p, t, t)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        return p, peaks

    def test_step_peak_bounded_by_micro_batch(self, monkeypatch):
        # Desk width: micro-batches hold two sequences, so four sequences
        # make two and sixteen make eight. One lane runs them one at a time,
        # so the peak does not depend on thread timing.
        _, peaks = self._step_peaks(monkeypatch, 1, (4, 16))
        assert peaks[1] <= 1.3 * peaks[0], [x / 2**20 for x in peaks]

    def test_two_lanes_hold_at_most_two_micro_batches(self, monkeypatch):
        # Two lanes run two micro-batches at once. However they overlap, the
        # step holds the gradient total and two micro-batches' own peaks,
        # each a one-group step's (two sequences, run on the caller alone),
        # plus the helper thread's and the groups' small Python objects,
        # which 256 KiB covers; a third micro-batch would add about 17 MiB.
        p, (one_group,) = self._step_peaks(monkeypatch, 1, (2,))
        _, (two_lanes,) = self._step_peaks(monkeypatch, 2, (16,))
        total = sum(v.nbytes for v in p.values())
        assert two_lanes <= total + 2 * one_group + 2**18, [
            x / 2**20 for x in (two_lanes, total, one_group)]

    def test_tape_without_gelu_output_peaks_lower(self, monkeypatch):
        # The reference pair keeps GELU's output on the tape. Desk AB at two
        # sequences runs four layer calls, each (192, 640) float32 outputs;
        # mlp_bwd rebuilds one at a time, so at least three are saved.
        import rinslab.model as model_mod

        _, (rebuilt,) = self._step_peaks(monkeypatch, 1, (2,))
        monkeypatch.setattr(model_mod, "mlp_fwd", cached_mlp_fwd)
        monkeypatch.setattr(model_mod, "mlp_bwd", cached_mlp_bwd)
        _, (cached,) = self._step_peaks(monkeypatch, 1, (2,))
        assert rebuilt <= cached - 3 * 192 * 640 * 4, [
            x / 2**20 for x in (rebuilt, cached)]

    def test_tape_without_norm_outputs_peaks_lower(self, monkeypatch):
        # The reference pairs keep each layer call's two LayerNorm outputs,
        # (192, 160) float32 at desk AB with two sequences, on the tape; the
        # executor rebuilds one at a time, so at least three are saved.
        _, (rebuilt,) = self._step_peaks(monkeypatch, 1, (2,))
        keep_inputs(monkeypatch)
        _, (kept,) = self._step_peaks(monkeypatch, 1, (2,))
        assert rebuilt <= kept - 3 * 192 * 160 * 4, [
            x / 2**20 for x in (rebuilt, kept)]


class TestTwoLanes:
    """On two lanes the groups of one call run two at a time, on the caller
    and on one helper thread, with the same results as the same groups one
    at a time on the caller."""

    @pytest.fixture
    def lanes(self, monkeypatch):
        # Two lanes, and room for two tiny sequences per micro-batch (see
        # TestMicroBatches.split); use(False) keeps every group on the
        # caller, as wrapped layer functions do.
        import rinslab.model as model_mod

        monkeypatch.setattr(model_mod, "_LANES", 2)
        monkeypatch.setattr(model_mod, "_GROUP_BYTES", 2 * 1280)

        def use(on):
            monkeypatch.setattr(model_mod, "_layers_wrapped", lambda: not on)

        return use

    @staticmethod
    def batch(dims, B, seed, segmented=False):
        rng = np.random.default_rng(seed)
        t = rng.integers(0, dims.vocab, size=(B, dims.seq_len))
        u = rng.integers(0, dims.vocab, size=(B, dims.seq_len))
        seg = np.cumsum(rng.random(t.shape) < 0.3, axis=1) if segmented else None
        return t, u, seg

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("kv_share", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    @pytest.mark.parametrize("segmented", [False, True])
    def test_helper_on_and_off_bitwise_equal(self, tiny_dims, lanes, dtype, rounds,
                                             kv_share, adapters, segmented):
        pol = rl.RecursionPolicy(r_max=3, kv_share=kv_share, adapters=adapters)
        m = make_model(tiny_dims, "A^3B", policy=pol, dtype=dtype)
        p = m.init_params(4)
        rng = np.random.default_rng(rounds)
        for name in [n for n in p if n.startswith("adapter.")]:
            p[name] = (p[name] + rng.normal(0.0, 0.3, size=p[name].shape)).astype(dtype)
        for B in (5, 8):  # three groups (1, 2, 2), then four of two
            t, u, seg = self.batch(tiny_dims, B, B, segmented)
            runs = []
            for on in (False, True):
                lanes(on)
                loss, grads, _ = m.loss_and_grads(p, t, u, rounds=rounds, segments=seg)
                runs.append((loss, grads, m.loss(p, t, u, rounds=rounds, segments=seg)))
            (loss0, grads0, fwd0), (loss1, grads1, fwd1) = runs
            assert loss0 == loss1 == fwd0 == fwd1
            assert set(grads0) == set(grads1) == set(p)
            for k in p:
                assert grads1[k].dtype == np.dtype(dtype)
                assert np.array_equal(grads0[k], grads1[k]), k

    @pytest.mark.parametrize("lane", [0, 1])  # group 0 runs on the caller, 1 on the helper
    def test_exception_in_either_lane_propagates(self, tiny_dims, lanes, lane):
        import threading
        import time

        lanes(True)
        m = make_model(tiny_dims, "A^3B")
        p = m.init_params(0)
        t, u, _ = self.batch(tiny_dims, 5, 0)
        t[:, 0] = np.arange(5)  # groups (0), (1, 2), (3, 4) start with rows 0, 1, 3
        group_of = {0: 0, 1: 1, 3: 2}
        real, err = m._run, RuntimeError(f"lane {lane}")
        ran, ended = {}, []

        def run(params, tokens, *args, **kwargs):
            g = group_of[int(tokens[0, 0])]
            ran[g] = threading.current_thread() is threading.main_thread()
            if g == lane:
                raise err
            time.sleep(0.2)  # the other lane is still busy when the error comes
            out = real(params, tokens, *args, **kwargs)
            ended.append(g)
            return out

        m._run = run
        before = threading.enumerate()
        for call in (m.loss_and_grads, m.loss):
            ran.clear()
            ended.clear()
            with pytest.raises(RuntimeError) as ei:
                call(p, t, u)
            assert ei.value is err
            # the first pair ran one group per lane, and the other lane's
            # group ended before the call returned; no third group started
            assert ran == {0: True, 1: False}
            assert ended == [1 - lane]
            assert threading.enumerate() == before

    def test_one_group_starts_no_thread(self, tiny_dims, lanes, monkeypatch):
        import threading

        import rinslab.model as model_mod

        def no_helper(*args, **kwargs):
            raise AssertionError("a helper thread was asked for")

        lanes(True)
        monkeypatch.setattr(model_mod, "ThreadPoolExecutor", no_helper)
        m = make_model(tiny_dims, "A^3B")
        p = m.init_params(0)
        before = threading.active_count()
        for B in (1, 2):
            t, u, _ = self.batch(tiny_dims, B, B)
            assert len(m._micro_batches(t)) == 1
            m.loss_and_grads(p, t, u)
            m.loss(p, t, u)
        assert threading.active_count() == before
        t, u, _ = self.batch(tiny_dims, 3, 3)  # two groups do ask for the helper
        with pytest.raises(AssertionError, match="helper thread"):
            m.loss(p, t, u)


    # want: lanes under OpenBLAS, which reads OPENBLAS_, GOTO_ and then
    # OMP_NUM_THREADS, and under MKL, which reads MKL_ and then OMP_NUM_THREADS.
    @pytest.mark.parametrize("cpus,env,want", [
        (1, {"OPENBLAS_NUM_THREADS": "1"}, (1, 1)),  # taskset to one CPU
        (1, {"MKL_NUM_THREADS": "1"}, (1, 1)),
        (2, {}, (1, 1)),  # BLAS picks its own thread count
        (2, {"OPENBLAS_NUM_THREADS": "1"}, (2, 1)),
        (2, {"GOTO_NUM_THREADS": "1"}, (2, 1)),
        (2, {"OMP_NUM_THREADS": "1"}, (2, 2)),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, (1, 2)),
        (2, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, (2, 1)),
        (4, {"MKL_NUM_THREADS": " 1 "}, (1, 2)),
        (2, {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, (1, 2)),
        (2, {"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, (2, 1)),
        (2, {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}, (2, 2)),  # bench/run.py
    ])
    @pytest.mark.parametrize("blas", ["scipy-openblas", "mkl-sdl", "accelerate"])
    def test_lane_count(self, monkeypatch, cpus, env, want, blas):
        import rinslab.model as model_mod

        monkeypatch.setattr(model_mod.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        lanes = {"scipy-openblas": want[0], "mkl-sdl": want[1], "accelerate": 1}
        assert model_mod._count_lanes(blas) == lanes[blas]

    def test_wrapped_layers_run_on_one_lane(self, tiny_dims, lanes, monkeypatch):
        import functools
        import threading

        import rinslab.layers as layers_mod
        import rinslab.model as model_mod

        m = make_model(tiny_dims, "A^3B")
        p = m.init_params(0)
        t, u, _ = self.batch(tiny_dims, 5, 0)
        want = m.loss_and_grads(p, t, u)
        assert not model_mod._layers_wrapped()
        real = layers_mod.gelu_fwd
        threads = set()

        @functools.wraps(real)
        def traced(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(layers_mod, "gelu_fwd", traced)
        assert model_mod._layers_wrapped()
        got = m.loss_and_grads(p, t, u)
        # every group ran on the caller, with the groups and results of two lanes
        assert threads == {threading.get_ident()}
        assert got[0] == want[0]
        for k in p:
            assert np.array_equal(got[1][k], want[1][k]), k

    def test_cached_private_helper_is_not_a_wrapped_layer(self, monkeypatch):
        import functools

        import rinslab.layers as layers_mod
        import rinslab.model as model_mod

        # lru_cache sets __wrapped__ too; a cached private helper must not
        # put every group on one lane
        cached = functools.lru_cache(maxsize=None)(lambda n: n)
        assert hasattr(cached, "__wrapped__")
        monkeypatch.setattr(layers_mod, "_cached_mask", cached, raising=False)
        assert not model_mod._layers_wrapped()
        real = layers_mod.gelu_fwd
        monkeypatch.setattr(layers_mod, "gelu_fwd",
                            functools.wraps(real)(lambda *a, **k: real(*a, **k)))
        assert model_mod._layers_wrapped()

    def test_forward_groups_yield_in_group_order(self, tiny_dims, lanes):
        lanes(True)
        m = make_model(tiny_dims, "A^3B")
        p = m.init_params(1)
        t, _, _ = self.batch(tiny_dims, 5, 1)
        groups = [[0], [1, 2], [3], [4]]
        got = list(m.forward_groups(p, groups, [1, 3],
                                    lambda g: (t[g], None, None, None)))
        assert len(got) == len(groups)
        for group, by_depth in zip(groups, got):
            for have, want in zip(by_depth, m.forward_depths(p, t[group], [1, 3])):
                assert np.array_equal(have, want)


class TestLaneIndependence:
    """The lane count schedules groups and never decides them, so a step's
    arithmetic is the same on one lane and on two."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("text", ["AB", "A^3B"])
    @pytest.mark.parametrize("kv_share", [False, True])
    @pytest.mark.parametrize("adapters", [False, True])
    def test_desk_shape_bitwise_equal(self, monkeypatch, dtype, text, kv_share,
                                      adapters):
        import rinslab.model as model_mod

        desk = rl.ModelDims(d_model=160, n_heads=4, mlp_dim=640, vocab=65,
                            seq_len=96, total_layers=4)
        pol = rl.RecursionPolicy(r_max=rl.rins_rounds(rl.parse(text)),
                                 kv_share=kv_share, adapters=adapters)
        m = make_model(desk, text, policy=pol, dtype=dtype)
        p = m.init_params(3)
        # Four sequences are two micro-batches in float32 and four in
        # float64, enough for a pair on two lanes; the batch of sixteen is
        # pinned by TestMicroBatches::test_group_rule_at_benchmark_shapes.
        rng = np.random.default_rng(11)
        t = rng.integers(0, desk.vocab, size=(4, desk.seq_len))
        u = rng.integers(0, desk.vocab, size=(4, desk.seq_len))
        runs = []
        for lanes in (1, 2):
            monkeypatch.setattr(model_mod, "_LANES", lanes)
            assert len(m._micro_batches(t)) == 4 // (8 // m.dtype.itemsize)
            loss, grads, _ = m.loss_and_grads(p, t, u)
            runs.append((loss, grads, m.loss(p, t, u)))
        (loss1, grads1, fwd1), (loss2, grads2, fwd2) = runs
        assert loss1 == loss2 == fwd1 == fwd2
        assert set(grads1) == set(grads2) == set(p)
        for k in p:
            assert np.array_equal(grads1[k], grads2[k]), k


class TestStochasticRounds:
    def test_sampler_bounds_and_determinism(self):
        pol = rl.RecursionPolicy(r_max=3, p_skip=0.5)
        r1 = rl.sample_rounds(pol, np.random.default_rng(0), size=1000)
        r2 = rl.sample_rounds(pol, np.random.default_rng(0), size=1000)
        assert np.array_equal(r1, r2)
        assert r1.min() >= 1 and r1.max() <= 3

    def test_p_zero_always_full(self):
        pol = rl.RecursionPolicy(r_max=4, p_skip=0.0)
        r = rl.sample_rounds(pol, np.random.default_rng(1), size=200)
        assert (r == 4).all()

    def test_skip_requires_rins_shape(self):
        with pytest.raises(ValueError):
            rl.RecursionPolicy(r_max=1, p_skip=0.5)
