"""Spans around rinslab's public functions, installed only while tracing.

The tracer swaps each traced function for a thin wrapper in every rinslab
module (and class) that holds it, records one span per call in memory, and
puts the originals back on `restore()`. Untraced runs never install it, so
they execute the library's own functions.

A span is (name, start, end, parent index, run id). A span's self time is
its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

_MARK = "__bench_traced__"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run_id: int = 0
    children_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time


# (span name, dotted owner, attribute). Owners are modules or classes; a
# function owner is patched in every rinslab module that bound the same
# object by `from ... import`.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("layers.attention_fwd", "rinslab.layers", "attention_fwd"),
    ("layers.attention_bwd", "rinslab.layers", "attention_bwd"),
    ("layers.mlp_fwd", "rinslab.layers", "mlp_fwd"),
    ("layers.mlp_bwd", "rinslab.layers", "mlp_bwd"),
    ("layers.gelu_fwd", "rinslab.layers", "gelu_fwd"),
    ("layers.gelu_bwd", "rinslab.layers", "gelu_bwd"),
    ("layers.layernorm_fwd", "rinslab.layers", "layernorm_fwd"),
    ("layers.layernorm_bwd", "rinslab.layers", "layernorm_bwd"),
    ("layers.embed_fwd", "rinslab.layers", "embed_fwd"),
    ("layers.embed_bwd", "rinslab.layers", "embed_bwd"),
    ("layers.softmax_xent", "rinslab.layers", "softmax_xent_fwd"),
    ("layers.softmax_xent", "rinslab.layers", "softmax_xent_bwd"),
    ("model.loss_and_grads", "rinslab.model.RecursiveModel", "loss_and_grads"),
    ("model.forward", "rinslab.model.RecursiveModel", "forward"),
    ("model.forward", "rinslab.model.RecursiveModel", "loss"),
    ("optim.adam_step", "rinslab.optim", "adam_step"),
    ("training.train", "rinslab.training", "train"),
    ("evals.eval_mcq", "rinslab.evals", "eval_mcq"),
    ("evals.score_option", "rinslab.evals", "score_option"),
    ("evals.held_out", "rinslab.evals", "held_out_log_perplexity"),
    ("corpus.generate_corpus", "rinslab.corpus", "generate_corpus"),
    ("corpus.pack_sequences", "rinslab.corpus", "pack_sequences"),
    ("corpus.save_tokens", "rinslab.corpus", "save_tokens"),
    ("corpus.load_tokens", "rinslab.corpus", "load_tokens"),
    ("checkpoint.save", "rinslab.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "rinslab.checkpoint", "load_checkpoint"),
    ("lab.trace_write", "rinslab.training.LossTrace", "to_csv"),
    ("lab.trace_write", "rinslab.training.LossTrace", "to_jsonl"),
    ("lab.cmd_run", "rinslab.lab", "cmd_run"),
    ("lab.cmd_eval", "rinslab.lab", "cmd_eval"),
)


def _resolve(dotted: str):
    """Module or class for a dotted name, or None when it no longer exists."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is None:
            continue
        obj = mod
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def is_clean() -> bool:
    """True when no traced wrapper is installed anywhere in rinslab."""
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "rinslab" or mod_name.startswith("rinslab.")):
            continue
        for value in vars(mod).values():
            if getattr(value, _MARK, False):
                return False
            if inspect.isclass(value) and any(
                getattr(v, _MARK, False) for v in vars(value).values()
            ):
                return False
    return True


class Tracer:
    """Records spans for the calls listed in TARGETS while installed.

    `hooks` maps a span name to a callable (span, args, kwargs, result) that
    can attach counts to span.info; it runs after the call returns. `only`
    limits the wrapped functions to the named spans.
    """

    def __init__(self, hooks: Optional[dict[str, Callable]] = None,
                 only: Optional[set[str]] = None):
        self.spans: list[Span] = []
        self.only = only
        self.missing: set[str] = set()   # span names with a target not found
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = hooks or {}

    # ------------------------------------------------------------ install

    def install(self):
        for span_name, owner_name, attr in TARGETS:
            if self.only is not None and span_name not in self.only:
                continue
            owner = _resolve(owner_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "rinslab" or mod_name.startswith("rinslab."):
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name: str, original):
        hook = self._hooks.get(span_name)
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    idx = self._open(span_name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            setattr(gen_wrapper, _MARK, True)
            return gen_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.spans[idx], args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent, run_id=self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_time += span.duration

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end (perf_counter seconds),
        parent (index of the enclosing span, -1 at top level), run_id."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "run_id": s.run_id}) + "\n")

    def ancestor(self, span: Span, names: tuple[str, ...]) -> Optional[Span]:
        """Nearest enclosing span whose name is in names."""
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name in names:
                return span
        return None


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, call durations."""
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}
    )
    for s in spans:
        agg = out[s.name]
        agg["calls"] += 1
        agg["total"] += s.duration
        agg["self"] += s.self_time
        agg["durations"].append(s.duration)
    return dict(out)
