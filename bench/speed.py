"""How fast the machine runs right now, from fixed kernels that are not rinslab.

On a shared host the same code can run 10-40% slower for minutes at a time
(frequency and cache contention from other tenants, not descheduling: CPU
time slows with wall time). Three kernels that share nothing with rinslab
track that: one BLAS-sized (desk-shape matmuls and a tanh GELU), one of many
small numpy calls (quick-shape tensors, where per-call overhead dominates)
and one pure-Python loop. `slowness()` is the mean, over the three, of the
kernel's time now divided by its time on the reference machine, so 1.0 is
reference speed and 1.2 is 20% slower. The benchmark times each round
between two of these probes and scales the round's timings to reference
speed with their mean. A change to rinslab cannot change the kernels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# seconds per kernel on the reference machine: 2-vCPU Intel Xeon, numpy 2.4,
# OpenBLAS 0.3.31 on one thread
REFERENCE = {"blas": 0.104, "small": 0.053, "python": 0.033}

# Preallocated, so a probe adds no transient memory to peak_rss_mb.
_rng = np.random.default_rng(0)
_X = _rng.standard_normal((384, 160)).astype(np.float32)
_W = (0.05 * _rng.standard_normal((160, 640))).astype(np.float32)
_H = np.empty((384, 640), np.float32)
_G = np.empty((384, 640), np.float32)
_Y = np.empty((384, 160), np.float32)
_XS = _rng.standard_normal((48, 48)).astype(np.float32)
_WS = (0.1 * _rng.standard_normal((48, 192))).astype(np.float32)


def _blas():
    h, g = _H, _G
    for _ in range(4):
        np.matmul(_X, _W, out=h)
        np.power(h, 3, out=g)              # tanh GELU, in place
        g *= 0.044715
        g += h
        g *= 0.79788456
        np.tanh(g, out=g)
        g += 1.0
        g *= h
        g *= 0.5
        np.matmul(g, _W.T, out=_Y)


def _small():
    for _ in range(800):
        y = np.tanh(_XS @ _WS) @ _WS.T
        y = y - y.mean(axis=-1, keepdims=True)


def _python():
    s = 0
    for i in range(300_000):
        s += i * i


KERNELS = {"blas": _blas, "small": _small, "python": _python}


def kernel_times() -> dict[str, float]:
    out = {}
    for name, fn in KERNELS.items():
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def slowness() -> float:
    """Mean of (kernel time now / reference kernel time) over the kernels."""
    times = kernel_times()
    return statistics.fmean(times[k] / REFERENCE[k] for k in KERNELS)
