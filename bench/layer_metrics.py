"""The traced run: spans around each layer's public functions, reduced to
per-layer metrics.

Normalisation: `*.ms` self times are per unit of work, where a unit is a
train step on the train workloads and an executor call (forward or loss) on
eval-depth. `.ms.p50`/`.ms.p90` are per call. Counts are per round and must
repeat exactly across the traced rounds, which do identical work. Memory is
measured by a separate untraced probe, so tracemalloc never slows the spans.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import rinslab as rl
import workloads
from tracer import Tracer, is_clean, summarize

__all__ = ["TracedRun", "traced_run", "PER_LAYER", "SHARE_SPANS", "shares"]

_MODEL_SPANS = ("model.loss_and_grads", "model.forward")
_LAYER_PRIMS = ("attention_fwd", "attention_bwd", "mlp_fwd", "mlp_bwd", "gelu_fwd",
                "gelu_bwd", "layernorm_fwd", "layernorm_bwd", "embed_bwd",
                "softmax_xent")
_COUNTS = ("layers.calls", "model.layer_calls", "optim.tensors",
           "evals.forwards_per_item", "checkpoint.saves", "checkpoint.bytes",
           "training.steps")

# name -> (unit, span names it is computed from)
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    **{f"layers.{p}.ms": ("ms", (f"layers.{p}",)) for p in _LAYER_PRIMS},
    "layers.calls": ("count", tuple(f"layers.{p}" for p in _LAYER_PRIMS)),
    "model.loss_and_grads.ms.p50": ("ms", ("model.loss_and_grads",)),
    "model.loss_and_grads.ms.p90": ("ms", ("model.loss_and_grads",)),
    "model.self.ms": ("ms", _MODEL_SPANS),
    "model.layer_calls": ("count", ("layers.attention_fwd",)),
    "model.ms_per_layer_call": ("ms", _MODEL_SPANS + ("layers.attention_fwd",)),
    "model.achieved_gflops": ("GFLOP/s", _MODEL_SPANS + ("layers.attention_fwd",)),
    "model.kv_cache_bytes": ("count", ()),
    "model.step_peak_alloc_mb": ("MB", ()),
    "model.forward.ms": ("ms", ("model.forward",)),
    "evals.forwards_per_item": ("count", ("model.forward", "evals.score_option")),
    "evals.score_option.ms.p50": ("ms", ("evals.score_option",)),
    "evals.score_option.ms.p90": ("ms", ("evals.score_option",)),
    "evals.self.ms": ("ms", ("evals.eval_mcq", "evals.score_option", "evals.held_out")),
    "evals.held_out.ms": ("ms", ("evals.held_out",)),
    "optim.adam_step.ms": ("ms", ("optim.adam_step",)),
    "optim.tensors": ("count", ("optim.adam_step",)),
    "training.step.ms.p50": ("ms", ("training.train", "model.loss_and_grads")),
    "training.step.ms.p90": ("ms", ("training.train", "model.loss_and_grads")),
    "training.eval.ms": ("ms", ("training.train", "evals.held_out")),
    "training.self.ms": ("ms", ("training.train",)),
    "training.steps": ("count", ("training.train", "model.loss_and_grads")),
    "training.aborted": ("count", ("training.train",)),
    "corpus.generate_corpus.s": ("s", ("corpus.generate_corpus",)),
    "corpus.tokens_per_s": ("tok/s", ("corpus.generate_corpus",)),
    "corpus.pack_sequences.s": ("s", ("corpus.pack_sequences",)),
    "corpus.load_tokens.ms": ("ms", ("corpus.load_tokens",)),
    "checkpoint.save.ms": ("ms", ("checkpoint.save",)),
    "checkpoint.saves": ("count", ("checkpoint.save",)),
    "checkpoint.bytes": ("count", ("checkpoint.save",)),
    "checkpoint.load.ms": ("ms", ("checkpoint.load",)),
    "lab.cmd_run.s": ("s", ("lab.cmd_run",)),
    "lab.self.ms": ("ms", ("lab.cmd_run",)),
    "lab.trace_write.ms": ("ms", ("lab.cmd_run", "lab.trace_write")),
    "lab.cmd_eval.self.ms": ("ms", ("lab.cmd_eval",)),
    "layers.share_of_train": ("ratio", ("training.train",)
                              + tuple(f"layers.{p}" for p in _LAYER_PRIMS)),
    "training.eval_share": ("ratio", ("lab.cmd_run", "training.train", "evals.held_out")),
    "checkpoint.save_share": ("ratio", ("lab.cmd_run", "checkpoint.save")),
}

# the spans shares() reads
SHARE_SPANS = {"lab.cmd_run", "training.train", "evals.held_out", "checkpoint.save",
               "lab.trace_write"}


def shares(tr: Tracer, run_id: Optional[int] = None) -> dict[str, float]:
    """Where training time goes (0 when a workload has no such phase):

    layers.share_of_train   layer-primitive self time / rl.train time
    training.eval_share     in-loop held-out evals / cmd_run time
    checkpoint.save_share   checkpoint writes / cmd_run time
    lab.trace_write_share   trace.csv and trace.jsonl writes / cmd_run time
    lab.outside_train_share cmd_run time outside rl.train / cmd_run time
    """
    spans = [s for s in tr.spans if run_id is None or s.run_id >= run_id]

    def total(prefix, inside=None):
        """Time of spans named prefix (or, for "layers.", their self time)."""
        return sum(s.self_time if prefix == "layers." else s.duration for s in spans
                   if s.name.startswith(prefix)
                   and (inside is None or tr.ancestor(s, (inside,)) is not None))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    run = total("lab.cmd_run")
    return {"layers.share_of_train": ratio(total("layers.", "training.train"),
                                           total("training.train")),
            "training.eval_share": ratio(total("evals.held_out", "training.train"), run),
            "checkpoint.save_share": ratio(total("checkpoint.save", "lab.cmd_run"), run),
            "lab.trace_write_share": ratio(total("lab.trace_write"), run),
            "lab.outside_train_share": ratio(run - total("training.train", "lab.cmd_run"),
                                             run)}


@dataclass
class TracedRun:
    rounds: list
    failures: list[str]
    setup_s: float
    metrics: dict[str, tuple]   # name -> (value or None when missing, unit)


def _hooks() -> dict:
    def put(key, fn):
        def hook(span, args, kwargs, result):
            span.info[key] = fn(args, kwargs, result)
        return hook

    return {
        "layers.attention_fwd": put("tokens", lambda a, k, r: a[0].shape[0] * a[0].shape[1]),
        "optim.adam_step": put("tensors", lambda a, k, r: len(a[0])),
        "checkpoint.save": put("bytes", lambda a, k, r: os.path.getsize(
            a[0] if a else k["path"])),
        "training.train": put("aborted", lambda a, k, r: int(r[0].aborted)),
        "corpus.generate_corpus": put("tokens", lambda a, k, r: sum(len(d) for d in r)),
    }


def probe(wl) -> tuple[int, float]:
    """One executor call per variant at full depth and seq_len, untraced:
    realized KV bytes per sequence (from info, summed over the variants) and
    the largest tracemalloc peak above the memory held before the call (MB).
    Train workloads probe loss_and_grads on a full batch, eval-depth probes
    forward on one sequence."""
    dims = wl.dims
    rows = wl.shape.batch if wl.trains else 1
    tokens = np.zeros((rows, dims.seq_len), dtype=np.int64)
    kv, peak = 0, 0
    for variant in workloads.VARIANTS:
        model = workloads.build_model(variant, dims)
        params = model.init_params(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if wl.trains:
                _, _, info = model.loss_and_grads(params, tokens, tokens)
            else:
                _, info = model.forward_with_info(params, tokens)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        kv += int(info["kv_cache_bytes"])
    return kv, peak / 2**20


def traced_run(wl, seed: int, workdir, budget: float, timed_rounds,
               spans_path: Optional[Path] = None) -> TracedRun:
    """Set-up (run id -1) and timed rounds (run ids 0, 1, ...) under the
    tracer. The spans go to spans_path as JSON lines when it is given."""
    tr = Tracer(_hooks())
    tr.run_id = -1
    tr.install()
    try:
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_s = time.perf_counter() - t0
    finally:
        tr.restore()
    failures = wl.check(state)
    kv_before, peak_mb = probe(wl)

    class Tagged:
        def run_round(self, st):
            tr.run_id += 1
            return wl.run_round(st)

    tr.install()
    try:
        rounds = timed_rounds(Tagged(), state, budget, min_rounds=2)
    finally:
        tr.restore()
    if not is_clean():
        failures.append("tracer left wrapped functions behind")
    kv = probe(wl)[0]
    if kv != kv_before:
        failures.append(f"model.kv_cache_bytes drifted: {kv_before} then {kv}")
    metrics, drift = _reduce(tr, rounds, wl, kv, peak_mb)
    failures += drift
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tr.write_spans(spans_path)
    return TracedRun(rounds, failures, setup_s, metrics)


def _round_counts(spans, tr, mcq_pairs: int) -> dict[str, float]:
    c = dict.fromkeys(_COUNTS, 0)
    forwards = 0
    for s in spans:
        if s.name.startswith("layers."):
            c["layers.calls"] += 1
        if s.name == "layers.attention_fwd":
            c["model.layer_calls"] += 1
        elif s.name == "optim.adam_step":
            c["optim.tensors"] += s.info.get("tensors", 0)
        elif s.name == "checkpoint.save":
            c["checkpoint.saves"] += 1
            c["checkpoint.bytes"] += s.info.get("bytes", 0)
        elif s.name == "model.loss_and_grads":
            c["training.steps"] += tr.ancestor(s, ("training.train",)) is not None
        elif s.name == "model.forward":
            forwards += tr.ancestor(s, ("evals.score_option",)) is not None
    c["evals.forwards_per_item"] = forwards / mcq_pairs if mcq_pairs else 0
    return c


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _reduce(tr: Tracer, rounds, wl, kv: int, peak_mb: float):
    timed = [s for s in tr.spans if s.run_id >= 0]
    setup = [s for s in tr.spans if s.run_id < 0]
    agg = summarize(timed)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}

    def a(name):
        return agg.get(name, empty)

    n_rounds = max(len(rounds), 1)
    per_round = [_round_counts([s for s in timed if s.run_id == i], tr,
                               rounds[i].mcq_pairs) for i in range(len(rounds))]
    drift = [f"count {k} drifted across identical rounds: "
             f"{[c[k] for c in per_round]}"
             for k in _COUNTS if len({c[k] for c in per_round}) > 1]
    counts = per_round[0] if per_round else dict.fromkeys(_COUNTS, 0)

    steps = sum(r.steps for r in rounds)
    units = steps if wl.trains else a("model.forward")["calls"]

    def per_unit(seconds):
        return 1e3 * seconds / units if units else 0.0

    def per_call(name, field="total"):
        return 1e3 * a(name)[field] / a(name)["calls"] if a(name)["calls"] else 0.0

    model_time = sum(a(n)["total"] for n in _MODEL_SPANS)
    layer_calls = a("layers.attention_fwd")["calls"]
    ab = rl.expand(rl.parse("AB"))
    flops_per_token_layer = (rl.step_cost(ab, wl.dims, "exact-flops")
                             / rl.step_cost(ab, wl.dims))
    flops = 0.0
    step_times, in_loop_eval = [], 0.0
    for s in timed:
        if s.name == "layers.attention_fwd":
            train = tr.ancestor(s, ("model.loss_and_grads",)) is not None
            flops += s.info.get("tokens", 0) * flops_per_token_layer * (3 if train else 1)
        elif s.name == "evals.held_out" and tr.ancestor(s, ("training.train",)):
            in_loop_eval += s.duration
    for i, s in enumerate(tr.spans):
        if s.name == "training.train" and s.run_id >= 0:
            starts = sorted(c.start for c in timed
                            if c.name == "model.loss_and_grads" and c.parent == i)
            step_times += [b - a_ for a_, b in zip(starts, starts[1:] + [s.end])]
    gen = summarize(setup).get("corpus.generate_corpus", empty)
    gen_tokens = sum(s.info.get("tokens", 0) for s in setup
                     if s.name == "corpus.generate_corpus")

    values = {f"layers.{p}.ms": per_unit(a(f"layers.{p}")["self"]) for p in _LAYER_PRIMS}
    values.update({
        "layers.calls": counts["layers.calls"],
        "model.loss_and_grads.ms.p50": _pct(a("model.loss_and_grads")["durations"], 50),
        "model.loss_and_grads.ms.p90": _pct(a("model.loss_and_grads")["durations"], 90),
        "model.self.ms": per_unit(sum(a(n)["self"] for n in _MODEL_SPANS)),
        "model.layer_calls": counts["model.layer_calls"],
        "model.ms_per_layer_call": 1e3 * model_time / layer_calls if layer_calls else 0.0,
        "model.achieved_gflops": flops / model_time / 1e9 if model_time else 0.0,
        "model.kv_cache_bytes": kv,
        "model.step_peak_alloc_mb": peak_mb,
        "model.forward.ms": _pct(a("model.forward")["durations"], 50),
        "evals.forwards_per_item": counts["evals.forwards_per_item"],
        "evals.score_option.ms.p50": _pct(a("evals.score_option")["durations"], 50),
        "evals.score_option.ms.p90": _pct(a("evals.score_option")["durations"], 90),
        "evals.self.ms": per_unit(sum(a(n)["self"] for n in (
            "evals.eval_mcq", "evals.score_option", "evals.held_out"))),
        "evals.held_out.ms": per_unit(a("evals.held_out")["total"]),
        "optim.adam_step.ms": per_unit(a("optim.adam_step")["self"]),
        "optim.tensors": counts["optim.tensors"],
        "training.step.ms.p50": _pct(step_times, 50),
        "training.step.ms.p90": _pct(step_times, 90),
        "training.eval.ms": per_unit(in_loop_eval),
        "training.self.ms": per_unit(a("training.train")["self"]),
        "training.steps": counts["training.steps"],
        "training.aborted": sum(s.info.get("aborted", 0) for s in timed) / n_rounds,
        "corpus.generate_corpus.s": gen["total"],
        "corpus.tokens_per_s": gen_tokens / gen["total"] if gen["total"] else 0.0,
        "corpus.pack_sequences.s": a("corpus.pack_sequences")["total"] / n_rounds,
        "corpus.load_tokens.ms": per_call("corpus.load_tokens"),
        "checkpoint.save.ms": per_call("checkpoint.save"),
        "checkpoint.saves": counts["checkpoint.saves"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "checkpoint.load.ms": per_call("checkpoint.load"),
        "lab.cmd_run.s": per_call("lab.cmd_run") / 1e3,
        "lab.self.ms": per_call("lab.cmd_run", "self"),
        "lab.trace_write.ms": (1e3 * a("lab.trace_write")["total"] / a("lab.cmd_run")["calls"]
                               if a("lab.cmd_run")["calls"] else 0.0),
        "lab.cmd_eval.self.ms": per_call("lab.cmd_eval", "self"),
    })
    values.update(shares(tr, run_id=0))
    metrics = {}
    for name, (unit, needs) in PER_LAYER.items():
        missing = any(n in tr.missing for n in needs)
        metrics[name] = (None if missing else values[name], unit)
    return metrics, drift
