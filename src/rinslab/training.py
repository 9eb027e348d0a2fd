"""Training loop: cyclic batches, a seeded depth schedule, Adam, tracing.

One round count per optimizer step, shared by the whole batch, read from a
schedule drawn once from cfg.seed before step 1 (a shorter run's schedule
is a prefix of a longer one's). Compute is accounted in per-sequence
layer-pass units by the ledger: the trace's expected-cost figure is
expected_stochastic_cost, and the cumulative column sums layer_pass_cost of
the calls each step's round count runs (plan.calls). Divergence (loss
above 10x the first step's loss) and non-finite gradients abort the run
early with the partial trace marked aborted rather than raising.

A checkpoint carries the trace up to its step next to the parameters and
Adam moments. Resume restores those and derives the rest from them, the
step and the seed (cumulative compute, the first step's loss, the next
batch, the round count), so a resumed run reproduces the uninterrupted one
bit for bit, trace included. A checkpoint written for another signature,
dims, policy or dtype is refused.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import PackedBatch, segments_from_boundaries
from .evals import held_out_log_perplexity
from .ledger import expected_stochastic_cost, layer_pass_cost
from .model import RecursiveModel, sample_rounds
from .optim import AdamState, NonFiniteGradientError, TrainConfig, adam_step, init_adam_state, lr_at
from .signatures import to_tagged

__all__ = ["TraceRecord", "LossTrace", "train"]

log = logging.getLogger("rinslab.train")

DIVERGENCE_FACTOR = 10.0


@dataclass
class TraceRecord:
    step: int
    compute: float          # cumulative realized cost, per-sequence units
    train_loss: float
    lr: float
    rounds: int
    eval_losses: dict[str, float] = field(default_factory=dict)


@dataclass
class LossTrace:
    records: list[TraceRecord] = field(default_factory=list)
    eval_names: list[str] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""
    expected_cost_per_step: float = 0.0
    meta: dict = field(default_factory=dict)

    def train_losses(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.records])

    def eval_points(self, name: str) -> list[tuple[float, float]]:
        """(cumulative compute, eval loss) pairs for one eval corpus."""
        return [
            (r.compute, r.eval_losses[name])
            for r in self.records
            if name in r.eval_losses
        ]

    def to_csv(self, path):
        """One row per record: the scalar TraceRecord fields, then one
        eval_<name> column per eval corpus (empty where it did not run)."""
        scalars = [f.name for f in fields(TraceRecord) if f.name != "eval_losses"]
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)  # writes floats by repr, so they round-trip
            w.writerow(scalars + [f"eval_{n}" for n in self.eval_names])
            for r in self.records:
                w.writerow([getattr(r, name) for name in scalars]
                           + [r.eval_losses.get(n, "") for n in self.eval_names])

    def to_jsonl(self, path):
        """A {"header": ...} line with every field but records, then one
        line per TraceRecord."""
        header = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for r in self.records:
                f.write(json.dumps(asdict(r)) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "LossTrace":
        with open(path, "r", encoding="utf-8") as f:
            header = json.loads(f.readline())["header"]
            records = [TraceRecord(**json.loads(line)) for line in f if line.strip()]
        return cls(records=records, **header)


def _header(signature: str, dims, policy, dtype) -> dict:
    """What a checkpoint must share with the model that resumes it, flat and
    in checking order: signature, dims.<field>, policy.<field>, dtype."""
    return {
        "signature": signature,
        **{f"dims.{k}": v for k, v in asdict(dims).items()},
        **{f"policy.{k}": v for k, v in asdict(policy).items()},
        "dtype": str(dtype),
    }


def train(
    model: RecursiveModel,
    params: dict[str, np.ndarray],
    batches: Sequence[PackedBatch],
    cfg: TrainConfig,
    eval_batches: Optional[dict[str, Sequence[PackedBatch]]] = None,
    checkpoint_path=None,
    resume_from=None,
) -> tuple[LossTrace, AdamState]:
    """Run cfg.total_steps optimizer steps (or fewer on abort/resume).

    batches cycle when exhausted (logged once). Evaluation runs every
    cfg.eval_interval steps and at the final step, at the policy's inference
    round count. With checkpoint_path, a checkpoint is written at the same
    cadence and at the end; it carries the trace so far, so a run resumed
    from that path continues from the stored step with identical arithmetic
    and returns the whole trace from step 1. A checkpoint without a trace is
    refused, and so is one whose signature, dims, policy or dtype differ
    from the model's (a ValueError names the first field that differs), or
    one past cfg.total_steps.
    After an abort the final checkpoint is the state after the last
    completed step, since the aborted step updated nothing.
    """
    if not batches:
        raise ValueError("no training batches")
    eval_batches = eval_batches or {}
    policy = model.policy
    expected_step_cost = expected_stochastic_cost(model.plan, model.dims, policy.p_skip)

    trace = LossTrace(
        eval_names=sorted(eval_batches),
        expected_cost_per_step=expected_step_cost,
        meta={
            "signature": to_tagged(model.plan.source),
            "total_steps": cfg.total_steps,
            "cost_mode": "layer-pass",
        },
    )
    start_step = 0
    schedule = sample_rounds(
        policy,
        np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0]),
        size=cfg.total_steps,
    )
    adam: Optional[AdamState] = None

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if "trace" not in ckpt.extra:
            raise ValueError(
                f"checkpoint {resume_from} holds no trace (written by an older "
                f"rinslab); rerun with --force to start the run afresh"
            )
        have = _header(ckpt.signature, ckpt.dims, ckpt.policy, ckpt.dtype)
        want = _header(to_tagged(model.plan.source), model.dims, policy, model.dtype)
        diff = next((k for k in want if have[k] != want[k]), None)
        if diff is not None:
            raise ValueError(
                f"checkpoint {resume_from} was written for {diff} {have[diff]!r}, "
                f"but the model has {want[diff]!r}"
            )
        if ckpt.step > cfg.total_steps:
            raise ValueError(
                f"checkpoint {resume_from} is at step {ckpt.step}, past "
                f"total_steps {cfg.total_steps}"
            )
        params.clear()
        params.update(ckpt.params)
        if ckpt.adam_m is not None:
            adam = AdamState(m=ckpt.adam_m, v=ckpt.adam_v)
        start_step = ckpt.step
        trace.records = [TraceRecord(**row) for row in ckpt.extra["trace"]]

    if adam is None:
        adam = init_adam_state(params)
    cum_compute = trace.records[-1].compute if trace.records else 0.0
    initial_loss = trace.records[0].train_loss if trace.records else None

    def save(step):
        if checkpoint_path is None:
            return
        save_checkpoint(
            checkpoint_path,
            model.dims,
            to_tagged(model.plan.source),
            policy,
            params,
            step=step,
            adam_m=adam.m,
            adam_v=adam.v,
            extra={"trace": [asdict(r) for r in trace.records if r.step <= step]},
        )

    step = start_step
    for step in range(start_step + 1, cfg.total_steps + 1):
        if step - 1 == len(batches):
            log.info("training stream exhausted; cycling from the start")
        batch = batches[(step - 1) % len(batches)]

        rounds = int(schedule[step - 1])
        segments = (
            segments_from_boundaries(batch.boundaries) if cfg.mask_reset else None
        )

        try:
            loss, grads, _ = model.loss_and_grads(
                params, batch.tokens, batch.targets, rounds=rounds, segments=segments
            )
        except FloatingPointError as e:
            trace.aborted = True
            trace.abort_reason = f"forward/backward failure at step {step}: {e}"
            break
        if not np.isfinite(loss):
            trace.aborted = True
            trace.abort_reason = f"non-finite loss at step {step}"
            break

        calls = len(model.plan.calls(rounds))
        cum_compute += layer_pass_cost(model.plan, model.dims, calls)

        if initial_loss is None:
            initial_loss = loss
        if loss > DIVERGENCE_FACTOR * initial_loss:
            trace.aborted = True
            trace.abort_reason = (
                f"divergence at step {step}: loss {loss:.4g} exceeds "
                f"{DIVERGENCE_FACTOR}x initial {initial_loss:.4g}"
            )
            trace.records.append(
                TraceRecord(step, cum_compute, loss, lr_at(cfg, step), rounds)
            )
            break

        try:
            adam_step(params, grads, adam, cfg, step)
        except NonFiniteGradientError as e:
            trace.aborted = True
            trace.abort_reason = str(e)
            break

        record = TraceRecord(step, cum_compute, loss, lr_at(cfg, step), rounds)
        if eval_batches and (step % cfg.eval_interval == 0 or step == cfg.total_steps):
            full = model.resolve_rounds(None)
            record.eval_losses = {
                name: held_out_log_perplexity(
                    model, params, held, rounds=full, mask_reset=cfg.mask_reset
                )
                for name, held in eval_batches.items()
            }
        trace.records.append(record)

        if step % cfg.eval_interval == 0 and step < cfg.total_steps:
            save(step)  # the last step is saved below

    # An aborted step updated nothing, so the final checkpoint describes
    # the step before it.
    save(step - trace.aborted)
    return trace, adam
