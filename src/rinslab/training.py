"""Training loop: cyclic batches, per-step round sampling, Adam, tracing.

One rounds draw per optimizer step, shared by the whole batch. Compute is
accounted in per-sequence layer-pass units so the trace's expected-cost
figure equals the ledger's expected_stochastic_cost exactly; the cumulative
column uses realized (sampled) cost. Divergence (loss above 10x the first
step's loss) and non-finite gradients abort the run early with the partial
trace marked aborted rather than raising.

Resume restores parameters, Adam moments, the rounds RNG state, and the
batch cursor from a checkpoint, so a resumed run reproduces the uninterrupted
one bit for bit.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from .corpus import PackedBatch, segments_from_boundaries
from .evals import held_out_log_perplexity
from .ledger import expected_stochastic_cost
from .model import RecursiveModel, sample_rounds
from .optim import AdamState, NonFiniteGradientError, TrainConfig, adam_step, init_adam_state, lr_at
from .signatures import to_tagged

__all__ = ["TraceRecord", "LossTrace", "train", "moving_average"]

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

    def steps(self) -> np.ndarray:
        return np.array([r.step for r in self.records])

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
        names = self.eval_names
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "compute", "train_loss", "lr", "rounds"]
                       + [f"eval_{n}" for n in names])
            for r in self.records:
                row = [
                    r.step,
                    repr(r.compute),
                    repr(r.train_loss),
                    repr(r.lr),
                    r.rounds,
                ]
                for n in names:
                    row.append(repr(r.eval_losses[n]) if n in r.eval_losses else "")
                w.writerow(row)

    def to_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            header = {
                "eval_names": self.eval_names,
                "aborted": self.aborted,
                "abort_reason": self.abort_reason,
                "expected_cost_per_step": self.expected_cost_per_step,
                "meta": self.meta,
            }
            f.write(json.dumps({"header": header}) + "\n")
            for r in self.records:
                f.write(
                    json.dumps(
                        {
                            "step": r.step,
                            "compute": r.compute,
                            "train_loss": r.train_loss,
                            "lr": r.lr,
                            "rounds": r.rounds,
                            "eval_losses": r.eval_losses,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def from_jsonl(cls, path) -> "LossTrace":
        trace = cls()
        with open(path, "r", encoding="utf-8") as f:
            first = json.loads(f.readline())
            header = first["header"]
            trace.eval_names = list(header["eval_names"])
            trace.aborted = bool(header["aborted"])
            trace.abort_reason = header["abort_reason"]
            trace.expected_cost_per_step = float(header["expected_cost_per_step"])
            trace.meta = header.get("meta", {})
            for line in f:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                trace.records.append(
                    TraceRecord(
                        step=int(obj["step"]),
                        compute=float(obj["compute"]),
                        train_loss=float(obj["train_loss"]),
                        lr=float(obj["lr"]),
                        rounds=obj["rounds"],
                        eval_losses={k: float(v) for k, v in obj["eval_losses"].items()},
                    )
                )
        return trace


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if window < 1 or window > v.size:
        raise ValueError(f"window {window} invalid for {v.size} values")
    kernel = np.ones(window) / window
    return np.convolve(v, kernel, mode="valid")


def _eval_all(model, params, eval_batches, rounds, mask_reset):
    out = {}
    for name, batches in eval_batches.items():
        out[name] = held_out_log_perplexity(
            model, params, batches, rounds=rounds, mask_reset=mask_reset
        )
    return out


def train(
    model: RecursiveModel,
    params: dict[str, np.ndarray],
    batches: Sequence[PackedBatch],
    cfg: TrainConfig,
    eval_batches: Optional[dict[str, Sequence[PackedBatch]]] = None,
    checkpoint_path=None,
    checkpoint_interval: Optional[int] = None,
    resume_from: Union[None, str, CheckpointData] = None,
) -> tuple[LossTrace, AdamState]:
    """Run cfg.total_steps optimizer steps (or fewer on abort/resume).

    batches cycle when exhausted (logged once). Evaluation runs every
    cfg.eval_interval steps and at the final step, at the policy's inference
    round count. Checkpoints carry everything resume needs; a resumed run
    continues from the stored step with identical arithmetic.
    """
    if not batches:
        raise ValueError("no training batches")
    eval_batches = eval_batches or {}
    policy = model.policy
    expected_step_cost = expected_stochastic_cost(model.plan, model.dims, policy.p_skip)
    lpb = model.layers_per_block
    seq = model.dims.seq_len

    start_step = 0
    cum_compute = 0.0
    initial_loss: Optional[float] = None
    rounds_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    batch_cursor = 0
    adam: Optional[AdamState] = None

    if resume_from is not None:
        ckpt = (
            resume_from
            if isinstance(resume_from, CheckpointData)
            else load_checkpoint(resume_from)
        )
        params.clear()
        params.update(ckpt.params)
        if ckpt.adam_m is not None:
            adam = AdamState(m=ckpt.adam_m, v=ckpt.adam_v, t=ckpt.step)
        start_step = ckpt.step
        extra = ckpt.extra
        cum_compute = float(extra.get("cum_compute", 0.0))
        il = extra.get("initial_loss")
        initial_loss = None if il is None else float(il)
        batch_cursor = int(extra.get("batch_cursor", 0))
        if "rounds_rng" in extra:
            rounds_rng.bit_generator.state = extra["rounds_rng"]

    if adam is None:
        adam = init_adam_state(params)

    trace = LossTrace(
        eval_names=sorted(eval_batches),
        expected_cost_per_step=expected_step_cost,
        meta={
            "signature": to_tagged(model.plan.source),
            "start_step": start_step,
            "total_steps": cfg.total_steps,
            "cost_mode": "layer-pass",
        },
    )

    wrapped = False
    n_batches = len(batches)

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
            extra={
                "cum_compute": cum_compute,
                "initial_loss": initial_loss,
                "batch_cursor": batch_cursor,
                "rounds_rng": _jsonable_rng_state(rounds_rng),
            },
        )

    step = start_step
    for step in range(start_step + 1, cfg.total_steps + 1):
        if batch_cursor >= n_batches:
            batch_cursor = 0
            if not wrapped:
                wrapped = True
                log.info("training stream exhausted; cycling from the start")
        batch = batches[batch_cursor]
        batch_cursor += 1

        rounds = int(sample_rounds(policy, rounds_rng))
        segments = (
            segments_from_boundaries(batch.boundaries) if cfg.mask_reset else None
        )

        try:
            loss, grads, info = model.loss_and_grads(
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

        exec_len = len(info["exec"])
        cum_compute += exec_len * lpb * seq

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
            record.eval_losses = _eval_all(
                model, params, eval_batches, model.resolve_rounds(None), cfg.mask_reset
            )
        trace.records.append(record)

        if checkpoint_interval and step % checkpoint_interval == 0:
            save(step)

    save(step)
    return trace, adam


def _jsonable_rng_state(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return json.loads(json.dumps(state, default=int))
