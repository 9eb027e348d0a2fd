"""The rewritten layer primitives and Adam against plain-numpy references.

The references below are the straightforward formulas the hot path replaced
(one temporary per operation, 3-D products, an np.add.at scatter, Adam on a
clipped copy of each gradient). The rewritten code must match them to float rounding, keep
the input dtype, and never write into an argument or a cache it is handed.
"""

import math

import numpy as np
import pytest

import rinslab as rl
from rinslab import layers
from rinslab.model import segments_to_mask

B, T, D, H, MLP, V = 4, 96, 160, 4, 640, 65
TOL = {np.float32: 1e-5, np.float64: 1e-12}
DTYPES = [np.float32, np.float64]

# ------------------------------------------------------------------ references

_K = math.sqrt(2.0 / math.pi)
_C = 0.044715


def ref_gelu_fwd(x):
    u = _K * (x + _C * x * x * x)
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def ref_gelu_bwd(dy, cache):
    x, t = cache
    du_dx = _K * (1.0 + 3.0 * _C * x * x)
    dt_dx = (1.0 - t * t) * du_dx
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dt_dx)


def ref_layernorm_fwd(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def ref_layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    lead = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=lead)
    dbeta = dy.sum(axis=lead)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def ref_embed_bwd(dh, tokens, V):
    dtok = np.zeros((V, dh.shape[-1]), dtype=dh.dtype)
    np.add.at(dtok, tokens, dh)
    return dtok, dh.sum(axis=0)


def rows(a):
    return a.reshape(-1, a.shape[-1])


def _split(x):
    b, t, d = x.shape
    return x.reshape(b, t, H, d // H).transpose(0, 2, 1, 3)


def _merge(x):
    b, h, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def ref_attention(xn, p, pre, dout, kv_in=None, mask=None, dk_extra=None, dv_extra=None):
    """Forward and backward: (out, k, v, dxn, grads, dk, dv). dk and dv are
    the gradients of k and v, with dk_extra and dv_extra folded in."""
    t_len = xn.shape[1]
    q = xn @ p[pre + "q"] + p[pre + "q_bias"]
    if kv_in is None:
        k = xn @ p[pre + "k"] + p[pre + "k_bias"]
        v = xn @ p[pre + "v"] + p[pre + "v_bias"]
    else:
        k, v = kv_in
    qh, kh, vh = _split(q), _split(k), _split(v)
    scale = 1.0 / math.sqrt(xn.shape[-1] // H)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    allow = np.tril(np.ones((t_len, t_len), dtype=bool))
    if mask is not None:
        allow = allow & mask
    scores = np.where(allow, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge(probs @ vh)
    out = ctx @ p[pre + "out"] + p[pre + "out_bias"]

    g = {pre + "out": rows(ctx).T @ rows(dout), pre + "out_bias": rows(dout).sum(axis=0)}
    dctx = _split(dout @ p[pre + "out"].T)
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
    dq, dk, dv = _merge(dscores @ kh), _merge(dscores.transpose(0, 1, 3, 2) @ qh), _merge(dvh)
    g[pre + "q"] = rows(xn).T @ rows(dq)
    g[pre + "q_bias"] = rows(dq).sum(axis=0)
    dxn = dq @ p[pre + "q"].T
    if kv_in is not None:
        return out, k, v, dxn, g, dk, dv
    if dk_extra is not None:
        dk = dk + dk_extra
        dv = dv + dv_extra
    g[pre + "k"] = rows(xn).T @ rows(dk)
    g[pre + "k_bias"] = rows(dk).sum(axis=0)
    g[pre + "v"] = rows(xn).T @ rows(dv)
    g[pre + "v_bias"] = rows(dv).sum(axis=0)
    dxn = dxn + dk @ p[pre + "k"].T + dv @ p[pre + "v"].T
    return out, k, v, dxn, g, dk, dv


def ref_adam_step(params, grads, m, v, cfg, step):
    norm = math.sqrt(sum(float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
                         for g in grads.values()))
    scale = 1.0
    if cfg.grad_clip_norm > 0 and norm > cfg.grad_clip_norm:
        scale = cfg.grad_clip_norm / norm
    lr = rl.lr_at(cfg, step)
    bc1 = 1.0 - cfg.beta1 ** step
    bc2 = 1.0 - cfg.beta2 ** step
    for name, p in params.items():
        g = grads[name] * scale
        m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
        v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * (g * g)
        upd = lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.adam_eps)
        upd = upd + (lr * cfg.weight_decay) * p
        params[name] = (p - upd).astype(p.dtype)
    return norm


# --------------------------------------------------------------------- helpers


def assert_close(got, want, dtype, scale=0.0):
    """got == want to the dtype's tolerance, relative to the larger of want's
    magnitude and scale (the size of the terms a cancelling sum adds up)."""
    assert got.dtype == np.dtype(dtype)
    assert got.shape == want.shape
    err = np.abs(got - want).max()
    assert err <= TOL[dtype] * max(np.abs(want).max(), scale, 1e-30)


def snapshot(obj):
    """Bytes of every array in a nested tuple/list/dict, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [(obj.dtype.str, obj.shape, obj.tobytes())]
    if isinstance(obj, dict):
        return [(k, s) for k in sorted(obj) for s in snapshot(obj[k])]
    if isinstance(obj, (tuple, list)):
        return [s for item in obj for s in snapshot(item)]
    return [repr(obj)]


def unchanged(fn, *args, **kwargs):
    """Call fn, assert it left every array argument byte-equal; return result."""
    before = snapshot((args, kwargs))
    out = fn(*args, **kwargs)
    assert snapshot((args, kwargs)) == before, f"{fn.__name__} wrote into an argument"
    return out


def bitwise_equal(a, b):
    assert snapshot(a) == snapshot(b)


def attn_params(rng, dtype, pre="blk.attn."):
    p = {}
    for name in ("q", "k", "v", "out"):
        p[pre + name] = (rng.normal(size=(D, D)) * 0.08).astype(dtype)
        p[pre + name + "_bias"] = (rng.normal(size=(D,)) * 0.1).astype(dtype)
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(11)


# ------------------------------------------------------------ per primitive


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_matches_reference(rng, dtype):
    x = (rng.normal(size=(B * T, MLP)) * 2).astype(dtype)
    dy = rng.normal(size=x.shape).astype(dtype)
    y, cache = unchanged(layers.gelu_fwd, x)
    want_y, want_cache = ref_gelu_fwd(x)
    assert_close(y, want_y, dtype)
    dx = unchanged(layers.gelu_bwd, dy, cache)
    assert_close(dx, ref_gelu_bwd(dy, want_cache), dtype)
    bitwise_equal(dx, layers.gelu_bwd(dy, cache))


@pytest.mark.parametrize("dtype", DTYPES)
def test_layernorm_matches_reference(rng, dtype):
    x = (rng.normal(size=(B, T, D)) * 3 + 1).astype(dtype)
    gamma = (rng.normal(size=D) + 1).astype(dtype)
    beta = rng.normal(size=D).astype(dtype)
    dy = rng.normal(size=x.shape).astype(dtype)
    y, cache = unchanged(layers.layernorm_fwd, x, gamma, beta)
    want_y, want_cache = ref_layernorm_fwd(x, gamma, beta)
    assert_close(y, want_y, dtype)
    got = unchanged(layers.layernorm_bwd, dy, cache)
    for g, w in zip(got, ref_layernorm_bwd(dy, want_cache)):
        assert_close(g, w, dtype)
    bitwise_equal(got, layers.layernorm_bwd(dy, cache))


@pytest.mark.parametrize("dtype", DTYPES)
def test_embed_bwd_matches_scatter_with_repeats(rng, dtype):
    tokens = rng.integers(0, 5, size=(B, T))  # few ids, so every id repeats
    tokens[0, :3] = V - 1
    table = rng.normal(size=(V, D)).astype(dtype)
    pos = rng.normal(size=(T + 4, D)).astype(dtype)
    dh = rng.normal(size=(B, T, D)).astype(dtype)
    h, cache = unchanged(layers.embed_fwd, tokens, table, pos)
    assert h.dtype == np.dtype(dtype)
    dtok, dpos, t_used = unchanged(layers.embed_bwd, dh, cache)
    want_tok, want_pos = ref_embed_bwd(dh, tokens, V)
    assert t_used == T
    assert_close(dtok, want_tok, dtype)
    assert_close(dpos, want_pos, dtype)
    assert not dtok[5:V - 1].any()  # ids never seen get exactly zero


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("with_mask", [False, True])
def test_attention_matches_reference(rng, dtype, with_mask):
    pre = "blk.attn."
    p = attn_params(rng, dtype)
    x1 = rng.normal(size=(B, T, D)).astype(dtype)
    x2 = rng.normal(size=(B, T, D)).astype(dtype)
    d1 = rng.normal(size=(B, T, D)).astype(dtype)
    d2 = rng.normal(size=(B, T, D)).astype(dtype)
    mask = None
    if with_mask:
        segments = np.cumsum(rng.random((B, T)) < 0.05, axis=1)
        mask = segments_to_mask(segments)

    # producer call, then a consumer that reads its k/v
    out1, kv, c1 = unchanged(layers.attention_fwd, x1, p, pre, H, None, mask)
    out2, kv2, c2 = unchanged(layers.attention_fwd, x2, p, pre, H, kv, mask)
    assert kv2[0] is kv[0] and kv2[1] is kv[1]
    dx2, g2, dk, dv = unchanged(layers.attention_bwd, d2, x2, c2, p, pre)
    dx1, g1, none_k, none_v = unchanged(layers.attention_bwd, d1, x1, c1, p, pre, dk, dv)
    assert none_k is None and none_v is None

    r1 = ref_attention(x1, p, pre, d1, mask=mask)
    r2 = ref_attention(x2, p, pre, d2, kv_in=(r1[1], r1[2]), mask=mask)
    r1 = ref_attention(x1, p, pre, d1, mask=mask, dk_extra=r2[5], dv_extra=r2[6])
    assert_close(out1, r1[0], dtype)
    assert_close(kv[0], r1[1], dtype)
    assert_close(kv[1], r1[2], dtype)
    assert_close(out2, r2[0], dtype)
    assert_close(dx2, r2[3], dtype)
    assert_close(dk, r2[5], dtype)
    assert_close(dv, r2[6], dtype)
    assert_close(dx1, r1[3], dtype)
    assert sorted(g2) == sorted(r2[4]) and sorted(g1) == sorted(r1[4])
    # The key-bias gradient is zero in exact arithmetic (softmax is shift
    # invariant), so both sides hold rounding noise of the dk column sums.
    k_bias_scale = np.abs(r1[5]).sum(axis=(0, 1)).max()
    for got, want in ((g1, r1[4]), (g2, r2[4])):
        for name in got:
            assert_close(got[name], want[name], dtype,
                         k_bias_scale if name.endswith("k_bias") else 0.0)

    bitwise_equal((dx2, g2, dk, dv), layers.attention_bwd(d2, x2, c2, p, pre))
    bitwise_equal((dx1, g1), layers.attention_bwd(d1, x1, c1, p, pre, dk, dv)[:2])


@pytest.mark.parametrize("dtype", DTYPES)
def test_mlp_matches_reference(rng, dtype):
    pre = "blk.mlp."
    p = {pre + "w_in": (rng.normal(size=(D, MLP)) * 0.08).astype(dtype),
         pre + "b_in": (rng.normal(size=MLP) * 0.1).astype(dtype),
         pre + "w_out": (rng.normal(size=(MLP, D)) * 0.04).astype(dtype),
         pre + "b_out": (rng.normal(size=D) * 0.1).astype(dtype)}
    xn = rng.normal(size=(B, T, D)).astype(dtype)
    dout = rng.normal(size=(B, T, D)).astype(dtype)
    out, cache = unchanged(layers.mlp_fwd, xn, p, pre)
    dxn, g = unchanged(layers.mlp_bwd, dout, xn, cache, p, pre)

    h1 = xn @ p[pre + "w_in"] + p[pre + "b_in"]
    a, gc = ref_gelu_fwd(h1)
    assert_close(out, a @ p[pre + "w_out"] + p[pre + "b_out"], dtype)
    dh1 = ref_gelu_bwd(dout @ p[pre + "w_out"].T, gc)
    assert_close(dxn, dh1 @ p[pre + "w_in"].T, dtype)
    assert_close(g[pre + "w_out"], rows(a).T @ rows(dout), dtype)
    assert_close(g[pre + "b_out"], rows(dout).sum(axis=0), dtype)
    assert_close(g[pre + "w_in"], rows(xn).T @ rows(dh1), dtype)
    assert_close(g[pre + "b_in"], rows(dh1).sum(axis=0), dtype)
    bitwise_equal((dxn, g), layers.mlp_bwd(dout, xn, cache, p, pre))


@pytest.mark.parametrize("dtype", DTYPES)
def test_softmax_xent_leaves_inputs(rng, dtype):
    logits = rng.normal(size=(B, T, V)).astype(dtype)
    targets = rng.integers(0, V, size=(B, T))
    _, cache = unchanged(layers.softmax_xent_fwd, logits, targets)
    d = unchanged(layers.softmax_xent_bwd, cache)
    assert d.dtype == np.dtype(dtype)
    bitwise_equal(d, layers.softmax_xent_bwd(cache))


# ------------------------------------------------------------ whole model


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("signature,kw", [
    ("AAB", {}),
    ("AAAB", dict(kv_share=True, adapters=True)),
])
def test_loss_and_grads_pure_and_repeatable(rng, dtype, signature, kw):
    dims = rl.ModelDims(d_model=32, n_heads=2, mlp_dim=64, vocab=V, seq_len=24,
                        total_layers=4)
    sig = rl.parse(signature)
    model = rl.RecursiveModel(
        dims, rl.expand(sig), rl.RecursionPolicy(r_max=rl.rins_rounds(sig), **kw),
        dtype=dtype,
    )
    params = model.init_params(3)
    for batch in (3, 200):  # 200 sequences run as several micro-batches
        tokens = rng.integers(0, V, size=(batch, 24))
        targets = rng.integers(0, V, size=(batch, 24))
        segments = np.cumsum(rng.random((batch, 24)) < 0.1, axis=1)
        assert (len(model._micro_batches(tokens)) > 1) == (batch > 3)
        first = unchanged(model.loss_and_grads, params, tokens, targets,
                          segments=segments)
        second = model.loss_and_grads(params, tokens, targets, segments=segments)
        assert first[0] == second[0]
        bitwise_equal(first[1], second[1])
        assert all(g.dtype == np.dtype(dtype) for g in first[1].values())
        logits = unchanged(model.forward, params, tokens)
        assert logits.dtype == np.dtype(dtype)


# ------------------------------------------------------------------- Adam


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("magnitude", [1.0, 1e25])  # 1e25 squared overflows float32
def test_adam_matches_reference_with_clip_and_decay(rng, dtype, magnitude):
    shapes = {"w": (D, MLP), "b": (MLP,), "e": (V, D)}
    params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    cfg = rl.TrainConfig(peak_lr=1e-2, weight_decay=0.1, warmup_steps=2,
                         total_steps=10, grad_clip_norm=1.0)
    state = rl.init_adam_state(params)
    ref_p = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    for step in range(1, 6):
        grads = {k: (rng.normal(size=s) * step * magnitude).astype(dtype)
                 for k, s in shapes.items()}
        before = snapshot(grads)
        norm = rl.adam_step(params, grads, state, cfg, step)
        assert snapshot(grads) == before
        want = ref_adam_step(ref_p, grads, ref_m, ref_v, cfg, step)
        assert norm > cfg.grad_clip_norm  # the clip is active every step
        assert norm == pytest.approx(want, rel=1e-12)
        for k in params:
            assert_close(params[k], ref_p[k], dtype)
            assert_close(state.m[k], ref_m[k], dtype)
            assert_close(state.v[k], ref_v[k], dtype)
