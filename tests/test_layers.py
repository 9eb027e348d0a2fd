"""Finite-difference checks for each forward/backward primitive."""

import numpy as np
import pytest

from rinslab import layers


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b):
    # Gradients that are exactly zero in math (e.g. key bias under softmax
    # shift invariance) leave only finite-difference noise; score those by
    # the absolute floor instead of a 0/0 ratio.
    diff = np.abs(a - b).max()
    if diff < 1e-9:
        return 0.0
    return diff / max(np.abs(a).max(), np.abs(b).max(), 1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestGelu:
    def test_grad(self, rng):
        x = rng.normal(size=(4, 6)).astype(np.float64)
        proj = rng.normal(size=(4, 6))

        def loss():
            return float((layers.gelu_fwd(x)[0] * proj).sum())

        _, cache = layers.gelu_fwd(x)
        dx = layers.gelu_bwd(proj, cache)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6

    def test_known_values(self):
        # gelu(0) = 0, gelu(large) ~ identity, gelu(-large) ~ 0
        y, _ = layers.gelu_fwd(np.array([0.0, 10.0, -10.0]))
        assert y[0] == 0.0
        assert y[1] == pytest.approx(10.0, abs=1e-6)
        assert y[2] == pytest.approx(0.0, abs=1e-6)


class TestLayerNorm:
    def test_grads(self, rng):
        x = rng.normal(size=(3, 8)).astype(np.float64)
        gamma = rng.normal(size=(8,)).astype(np.float64) + 1.0
        beta = rng.normal(size=(8,)).astype(np.float64)
        proj = rng.normal(size=(3, 8))

        def loss():
            return float((layers.layernorm_fwd(x, gamma, beta)[0] * proj).sum())

        _, cache = layers.layernorm_fwd(x, gamma, beta)
        dx, dgamma, dbeta = layers.layernorm_bwd(proj, cache)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6
        assert rel_err(dgamma, fd_grad(loss, gamma)) < 1e-7
        assert rel_err(dbeta, fd_grad(loss, beta)) < 1e-7

    def test_normalizes(self, rng):
        x = rng.normal(size=(5, 16)) * 3 + 2
        y, _ = layers.layernorm_fwd(x, np.ones(16), np.zeros(16))
        assert np.abs(y.mean(axis=-1)).max() < 1e-12
        assert np.abs(y.std(axis=-1) - 1).max() < 1e-3


class TestSoftmaxXent:
    def test_matches_manual_ce(self, rng):
        logits = rng.normal(size=(2, 3, 7))
        targets = rng.integers(0, 7, size=(2, 3))
        loss, _ = layers.softmax_xent_fwd(logits, targets)
        p = np.exp(logits - logits.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        want = -np.log(
            p[np.arange(2)[:, None], np.arange(3)[None, :], targets]
        ).mean()
        assert loss == pytest.approx(want, rel=1e-12)

    def test_grad(self, rng):
        logits = rng.normal(size=(2, 3, 5)).astype(np.float64)
        targets = rng.integers(0, 5, size=(2, 3))

        def loss():
            return layers.softmax_xent_fwd(logits, targets)[0]

        _, cache = layers.softmax_xent_fwd(logits, targets)
        d = layers.softmax_xent_bwd(cache)
        assert rel_err(d, fd_grad(loss, logits)) < 1e-6

    def test_uniform_logits_give_log_vocab(self):
        logits = np.zeros((1, 4, 9))
        targets = np.arange(4)[None, :] % 9
        loss, _ = layers.softmax_xent_fwd(logits, targets)
        assert loss == pytest.approx(np.log(9), rel=1e-12)


class TestAttention:
    def _params(self, rng, d):
        p = {}
        for name in ("q", "k", "v", "out"):
            p[f"blk.attn.{name}"] = rng.normal(size=(d, d)) * 0.2
            p[f"blk.attn.{name}_bias"] = rng.normal(size=(d,)) * 0.1
        return p

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_mask_is_bitwise_an_all_true_mask(self, rng, dtype):
        d, h, T, B = 8, 2, 6, 3
        x = rng.normal(size=(B, T, d)).astype(dtype)
        p = {k: v.astype(dtype) for k, v in self._params(rng, d).items()}
        rows = np.array([[5, 0], [2, 2], [4, 1]])
        for mask in (np.ones((T, T), bool), np.ones((B, 1, T, T), bool)):
            for sel in ({}, {"rows": rows}):
                plain = layers.attention_fwd(x, p, "blk.attn.", h, **sel)
                masked = layers.attention_fwd(x, p, "blk.attn.", h, None, mask, **sel)
                assert plain[0].tobytes() == masked[0].tobytes()
                assert plain[2][3].tobytes() == masked[2][3].tobytes()  # probs

    def test_cached_causal_masks_reject_writes(self):
        for T in (1, 5, 48):
            blocked = layers._above_diagonal(T)
            assert blocked is layers._above_diagonal(T)
            assert np.array_equal(blocked, ~np.tri(T, dtype=bool))
            with pytest.raises(ValueError):
                blocked[0, -1] = False

    def test_grads(self, rng):
        d, h, T, B = 8, 2, 4, 2
        x = rng.normal(size=(B, T, d)).astype(np.float64)
        p = self._params(rng, d)
        proj = rng.normal(size=(B, T, d))

        def loss():
            out, _, _ = layers.attention_fwd(x, p, "blk.attn.", h)
            return float((out * proj).sum())

        out, _, cache = layers.attention_fwd(x, p, "blk.attn.", h)
        dx, grads, dk, dv = layers.attention_bwd(proj, x, cache, p, "blk.attn.")
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6
        for name in p:
            assert rel_err(grads[name], fd_grad(loss, p[name])) < 1e-6, name

    def test_causality(self, rng):
        d, h, T = 8, 2, 6
        x = rng.normal(size=(1, T, d))
        p = self._params(rng, d)
        out1, _, _ = layers.attention_fwd(x, p, "blk.attn.", h)
        x2 = x.copy()
        x2[0, -1] += 100.0  # future token must not leak backward
        out2, _, _ = layers.attention_fwd(x2, p, "blk.attn.", h)
        assert np.allclose(out1[0, :-1], out2[0, :-1], atol=1e-12)
        assert not np.allclose(out1[0, -1], out2[0, -1])

    def test_external_kv_consumer(self, rng):
        # Queries from x2, keys/values from x1's cache: matches a fused pass
        # where matching positions attend to the producer's projections.
        d, h, T = 8, 2, 4
        x1 = rng.normal(size=(1, T, d))
        x2 = rng.normal(size=(1, T, d))
        p = self._params(rng, d)
        _, kv, _ = layers.attention_fwd(x1, p, "blk.attn.", h)
        out, kv2, _ = layers.attention_fwd(x2, p, "blk.attn.", h, kv_in=kv)
        assert kv2[0] is kv[0] and kv2[1] is kv[1]  # arrays reused, not copied
        # oracle: manual q from x2, k/v from x1
        def manual():
            def split(z):
                return z.reshape(1, T, h, d // h).transpose(0, 2, 1, 3)

            q = split(x2 @ p["blk.attn.q"] + p["blk.attn.q_bias"])
            k = split(x1 @ p["blk.attn.k"] + p["blk.attn.k_bias"])
            v = split(x1 @ p["blk.attn.v"] + p["blk.attn.v_bias"])
            s = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d // h)
            mask = np.tril(np.ones((T, T), dtype=bool))
            s = np.where(mask, s, -np.inf)
            a = np.exp(s - s.max(-1, keepdims=True))
            a /= a.sum(-1, keepdims=True)
            ctx = (a @ v).transpose(0, 2, 1, 3).reshape(1, T, d)
            return ctx @ p["blk.attn.out"] + p["blk.attn.out_bias"]

        assert np.allclose(out, manual(), atol=1e-10)

    def test_consumer_bwd_routes_dk_dv(self, rng):
        # Full chain: producer pass on x1, consumer pass on x2; d(loss)/dx1
        # must include the path through cached k/v.
        d, h, T = 8, 2, 3
        x1 = rng.normal(size=(1, T, d)).astype(np.float64)
        x2 = rng.normal(size=(1, T, d)).astype(np.float64)
        p = self._params(rng, d)
        proj = rng.normal(size=(1, T, d))

        def loss():
            _, kv, _ = layers.attention_fwd(x1, p, "blk.attn.", h)
            out, _, _ = layers.attention_fwd(x2, p, "blk.attn.", h, kv_in=kv)
            return float((out * proj).sum())

        _, kv, cache1 = layers.attention_fwd(x1, p, "blk.attn.", h)
        _, _, cache2 = layers.attention_fwd(x2, p, "blk.attn.", h, kv_in=kv)
        dx2, g2, dk, dv = layers.attention_bwd(proj, x2, cache2, p, "blk.attn.")
        dx1, g1, _, _ = layers.attention_bwd(
            np.zeros_like(proj), x1, cache1, p, "blk.attn.", dk_extra=dk, dv_extra=dv
        )
        assert rel_err(dx2, fd_grad(loss, x2)) < 1e-6
        assert rel_err(dx1, fd_grad(loss, x1)) < 1e-6
        # consumer call reports no k/v projection grads; producer owns them
        assert "blk.attn.k" not in g2 and "blk.attn.v" not in g2
        for name in p:
            total = g1.get(name, 0) + g2.get(name, 0)
            assert rel_err(total, fd_grad(loss, p[name])) < 1e-6, name

    def test_segment_mask_blocks_cross_attention(self, rng):
        d, h, T = 8, 2, 6
        x = rng.normal(size=(1, T, d))
        p = self._params(rng, d)
        segments = np.array([[0, 0, 0, 1, 1, 1]])
        from rinslab.model import segments_to_mask

        mask = segments_to_mask(segments)
        out_masked, _, _ = layers.attention_fwd(x, p, "blk.attn.", h, mask=mask)
        # second segment must equal running it alone
        out_alone, _, _ = layers.attention_fwd(x[:, 3:], p, "blk.attn.", h)
        assert np.allclose(out_masked[0, 3:], out_alone[0], atol=1e-10)


def _arrays(obj):
    """Every array in a nest of tuples and lists, such as a cache."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


class TestMlpTape:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cache_holds_gelu_input_and_tanh_only(self, rng, dtype):
        # of the rows x mlp_dim arrays, the cache keeps GELU's input and its
        # tanh term; mlp_bwd rebuilds the output from them
        d, mlp, B, T = 8, 24, 3, 5
        pre = "m."
        p = {pre + "w_in": rng.normal(size=(d, mlp)).astype(dtype),
             pre + "b_in": rng.normal(size=mlp).astype(dtype),
             pre + "w_out": rng.normal(size=(mlp, d)).astype(dtype),
             pre + "b_out": rng.normal(size=d).astype(dtype)}
        _, cache = layers.mlp_fwd(rng.normal(size=(B, T, d)).astype(dtype), p, pre)
        wide = [a for a in _arrays(cache) if a.shape == (B * T, mlp)]
        x, t = cache
        assert len(wide) == 2 and wide[0] is x and wide[1] is t

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_caches_hold_no_normalized_input(self, rng, dtype):
        # attention_bwd and mlp_bwd take the normalized input from the
        # caller, so neither forward keeps an array with its values
        d, mlp, B, T, h = 8, 24, 3, 5, 2
        p = {"m.w_in": rng.normal(size=(d, mlp)), "m.b_in": rng.normal(size=mlp),
             "m.w_out": rng.normal(size=(mlp, d)), "m.b_out": rng.normal(size=d)}
        for name in ("q", "k", "v", "out"):
            p[f"a.{name}"] = rng.normal(size=(d, d))
            p[f"a.{name}_bias"] = rng.normal(size=d)
        p = {k: v.astype(dtype) for k, v in p.items()}
        x1, x2 = (rng.normal(size=(B, T, d)).astype(dtype) for _ in range(2))
        _, kv, producer = layers.attention_fwd(x1, p, "a.", h)
        _, _, consumer = layers.attention_fwd(x2, p, "a.", h, kv_in=kv)
        for xn, cache in ((x1, producer), (x2, consumer),
                          (x1, layers.mlp_fwd(x1, p, "m.")[1])):
            held = [a for a in _arrays(cache)
                    if a.size == xn.size and np.array_equal(a.ravel(), xn.ravel())]
            assert not held

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, cols", [(1, 2), (7, 3), (384, 48), (192, 160)])
    def test_column_sums_are_sequential_row_sums(self, rng, dtype, rows, cols):
        # bias and LayerNorm beta gradients: bitwise what .sum(axis=0) gives
        dy = rng.normal(size=(rows, cols)).astype(dtype)
        x = rng.normal(size=(rows, 4)).astype(dtype)
        grads = {}
        layers._dense_bwd(dy, x, {"w": np.ones((4, cols), dtype)}, "w", "b", grads)
        assert grads["b"].tobytes() == dy.sum(axis=0).tobytes()
        _, ln_cache = layers.layernorm_fwd(
            rng.normal(size=(rows, cols)).astype(dtype),
            np.ones(cols, dtype), np.zeros(cols, dtype))
        dbeta = layers.layernorm_bwd(dy, ln_cache)[2]
        assert dbeta.dtype == dtype and dbeta.tobytes() == dy.sum(axis=0).tobytes()


class TestEmbed:
    def test_scatter_gradient(self, rng):
        V, T, d = 7, 4, 6
        table = rng.normal(size=(V, d)).astype(np.float64)
        pos = rng.normal(size=(10, d)).astype(np.float64)
        toks = np.array([[1, 1, 3, 0]])
        proj = rng.normal(size=(1, T, d))

        def loss():
            return float((layers.embed_fwd(toks, table, pos)[0] * proj).sum())

        _, cache = layers.embed_fwd(toks, table, pos)
        dtable, dpos_rows, T_used = layers.embed_bwd(proj, cache)
        assert T_used == T
        fd_pos = fd_grad(loss, pos)
        assert rel_err(dtable, fd_grad(loss, table)) < 1e-7
        assert rel_err(dpos_rows, fd_pos[:T]) < 1e-7
        assert np.abs(fd_pos[T:]).max() < 1e-9  # unused rows get no gradient
        # repeated token id accumulates both positions
        assert np.allclose(dtable[1], proj[0, 0] + proj[0, 1])
