"""Adam with decoupled weight decay and an inverse-sqrt LR schedule.

The schedule has three pieces joined continuously: linear warmup from 0 to
peak_lr over warmup_steps, peak_lr * sqrt(warmup / step) afterwards, and a
linear cooldown from the inverse-sqrt value at total_steps - cooldown_steps
down to exactly 0 at total_steps. warmup = 0 starts at peak (the sqrt
reference becomes 1); cooldown = 0 means the decay branch never engages.

Weight decay is decoupled (param -= lr * wd * param, independent of the
moment estimates) and applied uniformly to every tensor; at the step counts
and rates used here the cumulative shrink on identity-initialized adapters
is ~1e-5 scale and irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TrainConfig",
    "AdamState",
    "NonFiniteGradientError",
    "lr_at",
    "init_adam_state",
    "global_grad_norm",
    "adam_step",
]


class NonFiniteGradientError(RuntimeError):
    """A gradient tensor contained NaN or inf; the step was aborted."""

    def __init__(self, name: str, step: int):
        super().__init__(f"non-finite gradient in {name!r} at step {step}")
        self.name = name
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    peak_lr: float = 5e-4
    weight_decay: float = 5e-5
    warmup_steps: int = 0
    cooldown_steps: int = 0
    total_steps: int = 1
    batch_size: int = 8
    grad_clip_norm: float = 1.0
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_interval: int = 200
    mask_reset: bool = False

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ValueError(f"peak_lr must be > 0, got {self.peak_lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.cooldown_steps < 0:
            raise ValueError(f"cooldown_steps must be >= 0, got {self.cooldown_steps}")
        if self.warmup_steps + self.cooldown_steps > self.total_steps:
            # the message opens with the piece to shorten: the cooldown, if any
            first, second = "cooldown_steps", "warmup_steps"
            if not self.cooldown_steps:
                first, second = second, first
            raise ValueError(
                f"{first} {getattr(self, first)} + {second} {getattr(self, second)} "
                f"exceeds total_steps {self.total_steps}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.grad_clip_norm < 0:
            raise ValueError(f"grad_clip_norm must be >= 0, got {self.grad_clip_norm}")
        if self.eval_interval < 1:
            raise ValueError(f"eval_interval must be >= 1, got {self.eval_interval}")


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not (0 <= step <= cfg.total_steps):
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    w = cfg.warmup_steps
    if w > 0 and step <= w:
        return cfg.peak_lr * step / w
    w0 = max(w, 1)

    def rsqrt(s: int) -> float:
        return cfg.peak_lr * math.sqrt(w0 / max(s, 1))

    cool_start = cfg.total_steps - cfg.cooldown_steps
    if cfg.cooldown_steps == 0 or step <= cool_start:
        return rsqrt(step)
    base = rsqrt(cool_start)
    return base * (cfg.total_steps - step) / cfg.cooldown_steps


class _Layout:
    """Where each named array sits in one flat buffer: back to back, in the
    order of the shapes it was built from."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.shapes = dict(shapes)
        self.spans: dict[str, tuple[int, int]] = {}
        start = 0
        for name, shape in self.shapes.items():
            self.spans[name] = (start, start + math.prod(shape))
            start += math.prod(shape)
        self.size = start

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        start, stop = self.spans[name]
        return flat[start:stop].reshape(self.shapes[name])

    def bind(self, flat: np.ndarray) -> "_Flat":
        """Every name, in layout order, as a view of flat."""
        out = _Flat(flat, self)
        for name in self.spans:
            out.view(name)
        return out

    def gather(self, arrays: dict) -> Optional["_Flat"]:
        """Copies of arrays in one fresh flat buffer, or None unless arrays
        are ndarrays of one dtype with exactly this layout's names and
        shapes."""
        if arrays.keys() != self.spans.keys() or any(
            not isinstance(a, np.ndarray) or a.shape != self.shapes[name]
            for name, a in arrays.items()
        ):
            return None
        dtypes = {a.dtype for a in arrays.values()}
        if len(dtypes) != 1:
            return None
        out = self.bind(np.empty(self.size, dtype=dtypes.pop()))
        for name, view in out.items():
            np.copyto(view, arrays[name])
        return out


class _Flat(dict):
    """A name -> array dict whose arrays are views of one flat array, .flat,
    laid out by .layout. It is whole when it holds every layout name.
    Rebinding, adding or removing an entry sets .flat to None, so a reader
    of .flat never sees a dict whose entries have left the buffer; copies
    and pickles are plain dicts."""

    __slots__ = ("flat", "layout")

    def __init__(self, flat: np.ndarray, layout: _Layout):
        super().__init__()
        self.flat = flat
        self.layout = layout

    def view(self, name: str) -> np.ndarray:
        """Bind name to its view of .flat and return the view."""
        view = self.layout.view(self.flat, name)
        dict.__setitem__(self, name, view)
        return view

    def add(self, name: str, g: np.ndarray):
        """Add g into the view of name; the first contribution binds the view
        and is copied into it."""
        view = self.get(name)
        if view is None:
            np.copyto(self.view(name), g)
        else:
            view += g

    def _unbind(method):
        def unbound(self, *args, **kwargs):
            self.flat = None
            return method(self, *args, **kwargs)
        return unbound

    __setitem__ = _unbind(dict.__setitem__)
    __delitem__ = _unbind(dict.__delitem__)
    __ior__ = _unbind(dict.__ior__)
    clear = _unbind(dict.clear)
    pop = _unbind(dict.pop)
    popitem = _unbind(dict.popitem)
    setdefault = _unbind(dict.setdefault)
    update = _unbind(dict.update)
    del _unbind

    def __reduce__(self):
        return dict, (dict(self),)


def _whole(d) -> Optional[np.ndarray]:
    """d's flat array when d is a whole, intact _Flat, else None."""
    if type(d) is _Flat and d.flat is not None and len(d) == len(d.layout.spans):
        return d.flat
    return None


def _flats(*dicts) -> Optional[list[np.ndarray]]:
    """The flat arrays of dicts that are all whole, intact _Flats of one
    layout and dtype, else None. It looks at no entry, so it costs the same
    whatever the tensor count."""
    flats = [_whole(d) for d in dicts]
    if any(f is None for f in flats):
        return None
    if len({(d.layout, f.dtype) for d, f in zip(dicts, flats)}) > 1:
        return None
    return flats


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    flat = _whole(params)
    if flat is not None:
        return AdamState(m=params.layout.bind(np.zeros_like(flat)),
                         v=params.layout.bind(np.zeros_like(flat)))
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """sqrt of the sum, in grads' order, of each tensor's float64 dot with
    itself."""
    total = 0.0
    for g in grads.values():
        x = np.asarray(g, dtype=np.float64).ravel()
        total += float(np.dot(x, x))
    return math.sqrt(total)


# Elements per pass of a flat Adam update: its five operands (parameters,
# gradients, both moments and a scratch buffer; 128 KiB each in float32) stay
# in a core's L2 cache across the update's passes. Per-tensor passes cost
# the same at the desk shape; the whole buffer at once streams it from
# memory on every pass and is slower there.
_CHUNK = 1 << 15


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
    step: int,
) -> float:
    """One update, in place. Returns the pre-clip global gradient norm.

    step is 1-based (it doubles as Adam's bias-correction counter) and sets
    the learning rate, lr_at(cfg, step). The whole gradient dict is clipped
    jointly to grad_clip_norm before the moment update; the clip scale is
    folded into the moment coefficients. The norm is a float64 dot per
    tensor. Only when it is not finite are the tensors scanned for NaN or
    inf, and the first non-finite one aborts the step with
    NonFiniteGradientError before params or state are touched.

    When params, grads and both moments are views of flat buffers in one
    layout and dtype (as train() and loss_and_grads build them), the update
    runs over cache-sized chunks of those buffers instead of per tensor;
    every element sees the same operations either way.
    """
    flats = _flats(params, grads, state.m, state.v)
    if flats is None:
        if set(params) != set(grads):
            missing = set(params) ^ set(grads)
            raise ValueError(f"params/grads key mismatch: {sorted(missing)[:4]}")
        if set(params) != set(state.m):
            raise ValueError("optimizer state does not match params")
    norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteGradientError(name, step)

    scale = 1.0
    if cfg.grad_clip_norm > 0 and norm > cfg.grad_clip_norm:
        scale = cfg.grad_clip_norm / norm

    lr = lr_at(cfg, step)
    bc1 = 1.0 - cfg.beta1 ** step
    rbc2 = math.sqrt(1.0 - cfg.beta2 ** step)
    # m += (1 - b1) scale g and v += (sqrt(1 - b2) scale g)^2, squared after
    # scaling so a huge clipped gradient cannot overflow; then
    # lr mhat / (sqrt(vhat) + eps) = (lr rbc2 / bc1) m / (sqrt(v) + eps rbc2).
    c1 = (1.0 - cfg.beta1) * scale
    c2 = math.sqrt(1.0 - cfg.beta2) * scale
    eps = cfg.adam_eps * rbc2
    step_size = lr * rbc2 / bc1
    keep = 1.0 - lr * cfg.weight_decay
    if flats is None:
        parts = ((p, grads[name], state.m[name], state.v[name])
                 for name, p in params.items())
    else:
        parts = (tuple(f[i:i + _CHUNK] for f in flats)
                 for i in range(0, flats[0].size, _CHUNK))
    for p, g, m, v in parts:
        buf = np.multiply(g, c1, dtype=m.dtype)
        m *= cfg.beta1
        m += buf
        np.multiply(g, c2, out=buf)
        np.square(buf, out=buf)
        v *= cfg.beta2
        v += buf
        np.sqrt(v, out=buf)
        buf += eps
        np.divide(m, buf, out=buf)
        buf *= step_size
        if cfg.weight_decay > 0:
            # Decoupled decay, from the pre-update parameter.
            p *= keep
        p -= buf
    return norm
