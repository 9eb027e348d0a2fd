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


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        flat = np.asarray(g, dtype=np.float64).ravel()
        total += float(np.dot(flat, flat))
    return math.sqrt(total)


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
    """
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
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
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
