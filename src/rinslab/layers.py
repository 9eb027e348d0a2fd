"""Transformer layer primitives as explicit forward/backward pairs.

Every *_fwd returns (output, cache) and the matching *_bwd consumes the
upstream gradient plus that cache. No autograd anywhere: the executor in
model.py composes these by hand, which is what makes tied-weight gradient
accumulation and cross-call KV routing inspectable.

Shape conventions: activations are (B, T, d); attention works per head on
(B, H, T, hd) views. Weight matrices are stored (in_dim, out_dim) so the
forward is always x @ W + b.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gelu_fwd",
    "gelu_bwd",
    "layernorm_fwd",
    "layernorm_bwd",
    "embed_fwd",
    "embed_bwd",
    "attention_fwd",
    "attention_bwd",
    "mlp_fwd",
    "mlp_bwd",
    "softmax_xent_fwd",
    "softmax_xent_bwd",
    "causal_mask",
]

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


def gelu_fwd(x):
    # tanh approximation; the backward below differentiates exactly this form.
    u = _GELU_K * (x + _GELU_C * x * x * x)
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)
    return y, (x, t)


def gelu_bwd(dy, cache):
    x, t = cache
    du_dx = _GELU_K * (1.0 + 3.0 * _GELU_C * x * x)
    dt_dx = (1.0 - t * t) * du_dx
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dt_dx)


def layernorm_fwd(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = gamma * xhat + beta
    return y, (xhat, inv, gamma)


def layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    lead = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=lead)
    dbeta = dy.sum(axis=lead)
    dxhat = dy * gamma
    # dx folds the mean and variance paths into two row-wise corrections.
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def embed_fwd(tokens, tok_table, pos_table):
    # tokens: (B, T) int. Position table rows beyond T are simply unused.
    T = tokens.shape[-1]
    h = tok_table[tokens] + pos_table[:T]
    return h, (tokens, tok_table.shape, T)


def embed_bwd(dh, cache):
    tokens, tok_shape, T = cache
    dtok = np.zeros(tok_shape, dtype=dh.dtype)
    np.add.at(dtok, tokens, dh)
    dpos_rows = dh.sum(axis=0) if dh.ndim == 3 else dh
    return dtok, dpos_rows, T


def causal_mask(T: int) -> np.ndarray:
    """(T, T) boolean; True where query position may attend key position."""
    return np.tril(np.ones((T, T), dtype=bool))


def _split_heads(x, n_heads):
    B, T, d = x.shape
    hd = d // n_heads
    return x.reshape(B, T, n_heads, hd).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, T, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, H * hd)


def attention_fwd(xn, p, prefix, n_heads, kv_in=None, mask=None):
    """Multi-head causal self-attention on a normalized input.

    p is the parameter dict; prefix names this layer's tensors, e.g.
    "block.A.layer.0.attn.". When kv_in is given (a (k, v) pair of (B, T, d)
    arrays from an earlier call of the same layer), only queries are computed
    here and the projections for k and v are not touched. mask may be a
    (T, T) or (B, 1, T, T) boolean that further restricts attention; the
    causal constraint is always applied.
    """
    B, T, d = xn.shape
    hd = d // n_heads
    q = xn @ p[prefix + "q"] + p[prefix + "q_bias"]
    if kv_in is None:
        k = xn @ p[prefix + "k"] + p[prefix + "k_bias"]
        v = xn @ p[prefix + "v"] + p[prefix + "v_bias"]
    else:
        k, v = kv_in
    qh = _split_heads(q, n_heads)
    kh = _split_heads(k, n_heads)
    vh = _split_heads(v, n_heads)
    scale = 1.0 / math.sqrt(hd)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    allow = causal_mask(T)
    if mask is not None:
        allow = allow & mask
    scores = np.where(allow, scores, -np.inf)
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    probs = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(probs @ vh)
    out = ctx @ p[prefix + "out"] + p[prefix + "out_bias"]
    cache = (xn, qh, kh, vh, probs, ctx, kv_in is not None, scale)
    return out, (k, v), cache


def attention_bwd(dout, cache, p, prefix, dk_extra=None, dv_extra=None):
    """Backward for attention_fwd.

    Returns (dxn, grads, dk, dv). When the forward consumed cached k/v, dk and
    dv are the gradients w.r.t. those cached tensors and must be routed to the
    call that produced them; grads then has no k/v projection entries. When
    the forward produced its own k/v, pass any dk_extra/dv_extra accumulated
    from later consumer calls and they are folded in before the projections;
    dk and dv come back as None.
    """
    xn, qh, kh, vh, probs, ctx, consumed_cache, scale = cache
    n_heads = qh.shape[1]
    grads: dict[str, np.ndarray] = {}

    ctx2 = ctx.reshape(-1, ctx.shape[-1])
    dout2 = dout.reshape(-1, dout.shape[-1])
    grads[prefix + "out"] = ctx2.T @ dout2
    grads[prefix + "out_bias"] = dout2.sum(axis=0)
    dctx = _split_heads(dout @ p[prefix + "out"].T, n_heads)

    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    # Softmax backward; masked positions have probs 0 and so contribute 0.
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 1, 3, 2) @ qh

    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)

    xn2 = xn.reshape(-1, xn.shape[-1])
    dq2 = dq.reshape(-1, dq.shape[-1])
    grads[prefix + "q"] = xn2.T @ dq2
    grads[prefix + "q_bias"] = dq2.sum(axis=0)
    dxn = dq @ p[prefix + "q"].T

    if consumed_cache:
        return dxn, grads, dk, dv

    if dk_extra is not None:
        dk = dk + dk_extra
    if dv_extra is not None:
        dv = dv + dv_extra
    dk2 = dk.reshape(-1, dk.shape[-1])
    dv2 = dv.reshape(-1, dv.shape[-1])
    grads[prefix + "k"] = xn2.T @ dk2
    grads[prefix + "k_bias"] = dk2.sum(axis=0)
    grads[prefix + "v"] = xn2.T @ dv2
    grads[prefix + "v_bias"] = dv2.sum(axis=0)
    dxn = dxn + dk @ p[prefix + "k"].T + dv @ p[prefix + "v"].T
    return dxn, grads, None, None


def mlp_fwd(xn, p, prefix):
    h1 = xn @ p[prefix + "w_in"] + p[prefix + "b_in"]
    a, gcache = gelu_fwd(h1)
    out = a @ p[prefix + "w_out"] + p[prefix + "b_out"]
    return out, (xn, gcache, a)


def mlp_bwd(dout, cache, p, prefix):
    xn, gcache, a = cache
    grads: dict[str, np.ndarray] = {}
    a2 = a.reshape(-1, a.shape[-1])
    dout2 = dout.reshape(-1, dout.shape[-1])
    grads[prefix + "w_out"] = a2.T @ dout2
    grads[prefix + "b_out"] = dout2.sum(axis=0)
    da = dout @ p[prefix + "w_out"].T
    dh1 = gelu_bwd(da, gcache)
    xn2 = xn.reshape(-1, xn.shape[-1])
    dh12 = dh1.reshape(-1, dh1.shape[-1])
    grads[prefix + "w_in"] = xn2.T @ dh12
    grads[prefix + "b_in"] = dh12.sum(axis=0)
    dxn = dh1 @ p[prefix + "w_in"].T
    return dxn, grads


def softmax_xent_fwd(logits, targets):
    """Mean token-level cross entropy in nats. targets: (B, T) int."""
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    B, T = targets.shape
    picked = logp[np.arange(B)[:, None], np.arange(T)[None, :], targets]
    loss = float(-picked.mean())
    return loss, (np.exp(logp), targets)


def softmax_xent_bwd(cache):
    probs, targets = cache
    B, T = targets.shape
    d = probs.copy()
    d[np.arange(B)[:, None], np.arange(T)[None, :], targets] -= 1.0
    d /= B * T
    return d
