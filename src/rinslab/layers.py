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

A cache holds only what its primitive computed, never the input it was
handed: attention_bwd and mlp_bwd take their normalized input from the
caller, as _dense_bwd takes x. The executor does not keep LayerNorm
outputs for them, nor mlp_bwd GELU's: _layernorm_out and _gelu_out rebuild
them from the caches by the forward's own operations, so the bits match.

Primitives build their results in buffers they allocate and then update in
place (GELU, LayerNorm, the softmax on the scores buffer). They never write
into an argument or into a cache they are handed, so a backward can run
twice on one cache with bitwise-equal results.
"""

from __future__ import annotations

import functools
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
    return _gelu_out((x, t)), (x, t)


def _gelu_out(cache):
    """GELU's output 0.5 x (1 + t) from its cache (x, t), in one buffer;
    gelu_fwd builds its output here too."""
    x, t = cache
    y = t + 1.0
    y *= x
    y *= 0.5
    return y


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
    cache = (xhat, inv, gamma, beta)
    return _layernorm_out(cache).reshape(x.shape), cache


def _layernorm_out(cache):
    """LayerNorm's (rows, d) output from its cache: xhat * gamma + beta, in
    one buffer. layernorm_fwd builds its output here too, so an output
    rebuilt in a backward has the forward's bits."""
    xhat, _, gamma, beta = cache
    y = xhat * gamma
    y += beta
    return y


def layernorm_bwd(dy, cache):
    xhat, inv, gamma, _ = cache
    dy2 = dy.reshape(xhat.shape)
    d = xhat.shape[1]
    dgamma = np.einsum("ij,ij->j", dy2, xhat)
    # einsum adds the rows in sequence, as .sum(axis=0) does for two or more
    # columns: the same bits in about half the time at these shapes
    dbeta = np.einsum("ij->j", dy2)
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


@functools.lru_cache(maxsize=64)
def _above_diagonal(T):
    """(T, T) boolean, True where a key comes after its query: the scores
    causal attention masks. Cached per T, so it is read-only."""
    blocked = ~np.tri(T, dtype=bool)
    blocked.flags.writeable = False
    return blocked


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
        grads[b] = np.einsum("ij->j", dy2)  # see layernorm_bwd's dbeta
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
    blocked = _above_diagonal(T)
    if mask is not None:
        blocked = blocked | ~mask
    xq = xn
    if rows is not None:
        xq = np.take_along_axis(xn, rows[:, :, None], axis=1)
        blocked = np.take_along_axis(
            np.broadcast_to(blocked, (B, 1, T, T)), rows[:, None, :, None], axis=2
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
    # The row max with an initial value takes numpy's faster reduction path;
    # a max is exact, so the result is the same either way.
    probs = qh @ kh.transpose(0, 1, 3, 2)
    probs *= scale
    np.copyto(probs, -np.inf, where=blocked)
    probs -= probs.max(axis=-1, keepdims=True, initial=-np.inf)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = np.empty_like(q)
    np.matmul(probs, vh, out=_heads(ctx, B, Tq, n_heads))
    out = _dense(ctx, p, prefix + "out", prefix + "out_bias")
    cache = (qh, kh, vh, probs, ctx, kv_in is not None, scale)
    return out.reshape(B, Tq, -1), (k, v), cache


def attention_bwd(dout, xn, cache, p, prefix, dk_extra=None, dv_extra=None):
    """Backward for attention_fwd, given the normalized input xn that the
    forward was given, as (B, T, d) or (B*T, d).

    Returns (dxn, grads, dk, dv). dk_extra/dv_extra, the k/v gradients that
    later calls consuming this call's k/v accumulated, are added to this
    call's own. When the forward consumed cached k/v, dk and dv are the sums,
    to be routed to the call that produced those tensors, and grads has no
    k/v projection entries. When the forward produced its own k/v, the sums
    go through the projections and dk and dv come back as None.
    """
    qh, kh, vh, probs, ctx, consumed_cache, scale = cache
    B, n_heads, T, _ = qh.shape
    d = ctx.shape[1]
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

    dxn = _dense_bwd(dq, xn, p, prefix + "q", prefix + "q_bias", grads)

    if dk_extra is not None:
        dk += dk_extra.reshape(-1, d)
    if dv_extra is not None:
        dv += dv_extra.reshape(-1, d)
    if consumed_cache:
        return dxn.reshape(B, T, d), grads, dk.reshape(B, T, d), dv.reshape(B, T, d)

    dxn += _dense_bwd(dk, xn, p, prefix + "k", prefix + "k_bias", grads)
    dxn += _dense_bwd(dv, xn, p, prefix + "v", prefix + "v_bias", grads)
    return dxn.reshape(B, T, d), grads, None, None


def mlp_fwd(xn, p, prefix):
    # The cache is GELU's input and tanh term; mlp_bwd rebuilds GELU's
    # output from them rather than keep a third rows x mlp_dim array on a tape.
    h1 = _dense(xn.reshape(-1, xn.shape[-1]), p, prefix + "w_in", prefix + "b_in")
    a, cache = gelu_fwd(h1)
    out = _dense(a, p, prefix + "w_out", prefix + "b_out")
    return out.reshape(xn.shape[:-1] + (-1,)), cache


def mlp_bwd(dout, xn, cache, p, prefix):
    """Backward for mlp_fwd, given the normalized input xn that the forward
    was given, as (..., d) or (rows, d). Returns (dxn, grads), dxn shaped
    like dout."""
    a = _gelu_out(cache)
    grads: dict[str, np.ndarray] = {}
    da = _dense_bwd(dout, a, p, prefix + "w_out", prefix + "b_out", grads)
    del a  # free before GELU's backward allocates its two buffers
    dh1 = gelu_bwd(da, cache)
    dxn = _dense_bwd(dh1, xn, p, prefix + "w_in", prefix + "b_in", grads)
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
