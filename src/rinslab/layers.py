"""Transformer layer primitives as explicit forward/backward pairs.

Every *_fwd returns (output, cache) and the matching *_bwd consumes the
upstream gradient plus that cache. No autograd anywhere: the executor in
model.py composes these by hand, which is what makes tied-weight gradient
accumulation and cross-call KV routing inspectable.

Shape conventions: activations enter and leave as (B, T, d); attention works
per head on (B, H, T, hd) views. Weight matrices are stored (in_dim, out_dim)
so the forward is always x @ W + b. Every product with a weight matrix,
forward and backward, runs in _dense or _dense_bwd as one GEMM on the
(B*T, d) view, and caches hold those 2-D arrays (LayerNorm's xhat and inv
included).

Primitives build their results in buffers they allocate and then update in
place (GELU, LayerNorm, the softmax on the scores buffer). They never write
into an argument or into a cache they are handed, so a backward can run
twice on one cache with bitwise-equal results.
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
    "log_softmax",
    "softmax_xent_fwd",
    "softmax_xent_bwd",
]

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_KC = _GELU_K * 0.044715


def gelu_fwd(x):
    # tanh approximation: y = 0.5 x (1 + tanh(K (x + C x^3))); the backward
    # below differentiates exactly this form.
    t = x * x
    t *= _GELU_KC
    t += _GELU_K
    t *= x
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    return y, (x, t)


def gelu_bwd(dy, cache):
    # dy/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) K (1 + 3 C x^2), built in two buffers.
    x, t = cache
    g = x * x
    g *= 3.0 * _GELU_KC
    g += _GELU_K
    g *= x
    s = t * t
    np.subtract(1.0, s, out=s)
    g *= s
    g += t
    g += 1.0
    g *= 0.5
    g *= dy
    return g


def layernorm_fwd(x, gamma, beta, eps=1e-5):
    # Row sums and row dots through einsum: several times faster than
    # .sum(axis=1) on rows this short.
    x2 = x.reshape(-1, x.shape[-1])
    d = x2.shape[1]
    xhat = x2 - (np.einsum("ij->i", x2) / d)[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat) / d
    inv = (1.0 / np.sqrt(var + eps))[:, None]
    xhat *= inv
    y = xhat * gamma
    y += beta
    return y.reshape(x.shape), (xhat, inv, gamma)


def layernorm_bwd(dy, cache):
    xhat, inv, gamma = cache
    dy2 = dy.reshape(xhat.shape)
    d = xhat.shape[1]
    dgamma = np.einsum("ij,ij->j", dy2, xhat)
    dbeta = dy2.sum(axis=0)
    dxhat = dy2 * gamma
    # dx folds the mean and variance paths into two row-wise corrections:
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    dx = xhat * (np.einsum("ij,ij->i", dxhat, xhat) / d)[:, None]
    dx += (np.einsum("ij->i", dxhat) / d)[:, None]
    np.subtract(dxhat, dx, out=dx)
    dx *= inv
    return dx.reshape(dy.shape), dgamma, dbeta


def embed_fwd(tokens, tok_table, pos_table, *, positions=None):
    # tokens: (B, T) int. Position table rows beyond T are simply unused.
    # positions, when given, are the (T,) or (B, T) rows to read instead of
    # 0..T-1.
    T = tokens.shape[-1]
    pos = pos_table[:T] if positions is None else pos_table[positions]
    h = tok_table[tokens] + pos
    return h, (tokens, tok_table.shape, T)


def embed_bwd(dh, cache):
    tokens, tok_shape, T = cache
    flat = tokens.reshape(-1)
    # Scatter-add as one GEMM: a (V, B*T) one-hot of the tokens times dh rows.
    onehot = np.zeros((tok_shape[0], flat.size), dtype=dh.dtype)
    onehot[flat, np.arange(flat.size)] = 1.0
    dtok = onehot @ dh.reshape(flat.size, -1)
    dpos_rows = dh.sum(axis=0) if dh.ndim == 3 else dh
    return dtok, dpos_rows, T


def _heads(x, B, T, n_heads):
    """(B, H, T, hd) view of a (B*T, d) or (B, T, d) array."""
    return x.reshape(B, T, n_heads, -1).transpose(0, 2, 1, 3)


def _dense(x, p, w, b=None):
    """x @ p[w] + p[b] (no bias when b is None) for a (..., k) x, as one GEMM
    on its (N, k) view; the result keeps x's leading axes."""
    W = p[w]
    y = x.reshape(-1, x.shape[-1]) @ W
    if b is not None:
        y += p[b]
    return y.reshape(x.shape[:-1] + W.shape[1:])


def _dense_bwd(dy, x, p, w, b, grads):
    """Backward of _dense(x, p, w, b): sets grads[w] and, when b is given,
    grads[b] (the row sum of dy); returns the input gradient in x's shape."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    grads[w] = x.reshape(-1, x.shape[-1]).T @ dy2
    if b is not None:
        grads[b] = dy2.sum(axis=0)
    return (dy2 @ p[w].T).reshape(x.shape)


def attention_fwd(xn, p, prefix, n_heads, kv_in=None, mask=None, *, rows=None):
    """Multi-head causal self-attention on a normalized input.

    p is the parameter dict; prefix names this layer's tensors, e.g.
    "block.A.layer.0.attn.". When kv_in is given (a (k, v) pair of (B, T, d)
    arrays from an earlier call of the same layer), only queries are computed
    here and the projections for k and v are not touched. mask may be a
    (T, T) or (B, 1, T, T) boolean that further restricts attention; the
    causal constraint is always applied.

    rows, a (B, R) int array, computes queries and outputs for those query
    rows only, so the output is (B, R, d); keys and values still come from
    every row. It is forward-only: attention_bwd does not take its cache.
    """
    B, T, d = xn.shape
    x2 = xn.reshape(-1, d)
    allow = np.tri(T, dtype=bool)
    if mask is not None:
        allow = allow & mask
    xq = xn
    if rows is not None:
        xq = np.take_along_axis(xn, rows[:, :, None], axis=1)
        allow = np.take_along_axis(
            np.broadcast_to(allow, (B, 1, T, T)), rows[:, None, :, None], axis=2
        )
    Tq = xq.shape[1]
    q = _dense(xq.reshape(-1, d), p, prefix + "q", prefix + "q_bias")
    if kv_in is None:
        k = _dense(xn, p, prefix + "k", prefix + "k_bias")
        v = _dense(xn, p, prefix + "v", prefix + "v_bias")
    else:
        k, v = kv_in
    qh = _heads(q, B, Tq, n_heads)
    kh = _heads(k, B, T, n_heads)
    vh = _heads(v, B, T, n_heads)
    scale = 1.0 / math.sqrt(d // n_heads)
    # Softmax in place on the scores buffer; masked scores become exp(-inf) = 0.
    probs = qh @ kh.transpose(0, 1, 3, 2)
    probs *= scale
    np.copyto(probs, -np.inf, where=~allow)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = np.empty_like(q)
    np.matmul(probs, vh, out=_heads(ctx, B, Tq, n_heads))
    out = _dense(ctx, p, prefix + "out", prefix + "out_bias")
    cache = (x2, qh, kh, vh, probs, ctx, kv_in is not None, scale)
    return out.reshape(B, Tq, -1), (k, v), cache


def attention_bwd(dout, cache, p, prefix, dk_extra=None, dv_extra=None):
    """Backward for attention_fwd.

    Returns (dxn, grads, dk, dv). dk_extra/dv_extra, the k/v gradients that
    later calls consuming this call's k/v accumulated, are added to this
    call's own. When the forward consumed cached k/v, dk and dv are the sums,
    to be routed to the call that produced those tensors, and grads has no
    k/v projection entries. When the forward produced its own k/v, the sums
    go through the projections and dk and dv come back as None.
    """
    x2, qh, kh, vh, probs, ctx, consumed_cache, scale = cache
    B, n_heads, T, _ = qh.shape
    d = x2.shape[1]
    grads: dict[str, np.ndarray] = {}
    dctx = _dense_bwd(dout, ctx, p, prefix + "out", prefix + "out_bias", grads)
    dctx = _heads(dctx, B, T, n_heads)

    dv = np.empty_like(ctx)
    np.matmul(probs.transpose(0, 1, 3, 2), dctx, out=_heads(dv, B, T, n_heads))
    # Softmax backward in the dprobs buffer; masked positions have probs 0
    # and so contribute 0.
    dscores = dctx @ vh.transpose(0, 1, 3, 2)
    dscores -= np.einsum("bhij,bhij->bhi", dscores, probs)[..., None]
    dscores *= probs
    dscores *= scale
    dq = np.empty_like(ctx)
    np.matmul(dscores, kh, out=_heads(dq, B, T, n_heads))
    dk = np.empty_like(ctx)
    np.matmul(dscores.transpose(0, 1, 3, 2), qh, out=_heads(dk, B, T, n_heads))

    dxn = _dense_bwd(dq, x2, p, prefix + "q", prefix + "q_bias", grads)

    if dk_extra is not None:
        dk += dk_extra.reshape(-1, d)
    if dv_extra is not None:
        dv += dv_extra.reshape(-1, d)
    if consumed_cache:
        return dxn.reshape(B, T, d), grads, dk.reshape(B, T, d), dv.reshape(B, T, d)

    dxn += _dense_bwd(dk, x2, p, prefix + "k", prefix + "k_bias", grads)
    dxn += _dense_bwd(dv, x2, p, prefix + "v", prefix + "v_bias", grads)
    return dxn.reshape(B, T, d), grads, None, None


def mlp_fwd(xn, p, prefix):
    x2 = xn.reshape(-1, xn.shape[-1])
    a, gcache = gelu_fwd(_dense(x2, p, prefix + "w_in", prefix + "b_in"))
    out = _dense(a, p, prefix + "w_out", prefix + "b_out")
    return out.reshape(xn.shape[:-1] + (-1,)), (x2, gcache, a)


def mlp_bwd(dout, cache, p, prefix):
    x2, gcache, a = cache
    grads: dict[str, np.ndarray] = {}
    da = _dense_bwd(dout, a, p, prefix + "w_out", prefix + "b_out", grads)
    dh1 = gelu_bwd(da, gcache)
    dxn = _dense_bwd(dh1, x2, p, prefix + "w_in", prefix + "b_in", grads)
    return dxn.reshape(dout.shape[:-1] + (-1,)), grads


def log_softmax(logits):
    """Log-probabilities over the last axis, shifted by the row max."""
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_xent_fwd(logits, targets):
    """Mean token-level cross entropy in nats. targets: int, shaped like the
    leading axes of logits."""
    logp = log_softmax(logits)
    targets = np.asarray(targets)
    rows = logp.reshape(-1, logp.shape[-1])
    picked = rows[np.arange(len(rows)), targets.reshape(-1)]
    loss = float(-picked.mean())
    # The cache keeps log-probabilities; the backward exponentiates them, so
    # a forward-only loss never pays for the probabilities.
    return loss, (logp, targets)


def softmax_xent_bwd(cache):
    logp, targets = cache
    d = np.exp(logp)
    rows = d.reshape(-1, d.shape[-1])
    rows[np.arange(len(rows)), targets.reshape(-1)] -= 1.0
    d /= len(rows)
    return d
