"""Compute accounting for execution plans.

This module is the one place that turns a plan into layers per block and
into cost; the executor, the trainer and the run specs all read them from
here. Costs are forward-pass costs per sequence (batch size cancels out of
every matched-budget ratio, so it is deliberately absent). The unit is the
layer pass: executed leaf calls x layers_per_block x seq_len, priced by
layer_pass_cost. Budget matching and expected stochastic cost use layer
passes only; step_cost also reports "exact-flops", the FLOPs of the GEMMs a
layer runs per token, since the two units can rank variants differently
when sequence length or width varies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Literal

from .signatures import ExecutionPlan, Signature, parse, to_tagged

__all__ = [
    "InfeasiblePlanError",
    "ModelDims",
    "CostMode",
    "plan_layers_per_block",
    "layer_pass_cost",
    "step_cost",
    "matched_steps",
    "expected_stochastic_cost",
    "enumerate_sweep",
    "SWEEP_SIGNATURES",
    "SWEEP_DEGREES",
]

CostMode = Literal["layer-pass", "exact-flops"]


class InfeasiblePlanError(ValueError):
    """Signature needs more distinct leaf blocks than there are layers."""


@dataclass(frozen=True)
class ModelDims:
    """Architecture dimensions shared by the ledger and the executor."""

    d_model: int
    n_heads: int
    mlp_dim: int
    vocab: int
    seq_len: int
    total_layers: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{f.name} must be a positive integer, got {v!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads {self.n_heads} does not divide d_model {self.d_model}")


def _layers_per_block(plan: ExecutionPlan | Signature, total_layers: int) -> int:
    """total_layers // plan.unique_leaf_count; 0 means infeasible."""
    return total_layers // plan.unique_leaf_count


def plan_layers_per_block(plan: ExecutionPlan | Signature, dims: ModelDims) -> int:
    """Layers each of the plan's distinct leaf blocks gets: total_layers //
    plan.unique_leaf_count, the leaves the executor builds parameters for.
    Raises InfeasiblePlanError when that is 0. A Signature stands for
    expand(sig), whose leaf count it gives by arithmetic, so a spec is
    checked before its plan is built."""
    lpb = _layers_per_block(plan, dims.total_layers)
    if lpb < 1:
        source = plan if isinstance(plan, Signature) else plan.source
        raise InfeasiblePlanError(
            f"signature {to_tagged(source)} needs {plan.unique_leaf_count} "
            f"distinct blocks but only {dims.total_layers} layers exist "
            f"(layers_per_block=0)"
        )
    return lpb


def layer_pass_cost(plan: ExecutionPlan, dims: ModelDims, calls) -> float:
    """Layer-pass cost of `calls` executed leaf calls of the plan, per
    sequence: calls x layers_per_block x seq_len. calls may be a float, an
    expected count."""
    return float(calls * plan_layers_per_block(plan, dims) * dims.seq_len)


def _flops_per_token_layer(dims: ModelDims) -> float:
    d = dims.d_model
    return 8.0 * d * d + 4.0 * d * dims.seq_len + 4.0 * d * dims.mlp_dim


def step_cost(plan: ExecutionPlan, dims: ModelDims, mode: CostMode = "layer-pass") -> float:
    """Forward cost of one training sequence under the plan.

    layer-pass: layer_pass_cost of every call in the plan (an integer).
    exact-flops: the same layer count times the FLOPs a layer's GEMMs run
    per token, with a MAC counted as 2 FLOPs: 8 d^2 for the q, k, v and out
    projections, 4 d mlp_dim for the MLP, and 4 d seq_len for QK^T and PV,
    which attention_fwd computes over all seq_len keys before masking.
    """
    cost = layer_pass_cost(plan, dims, len(plan))
    if mode == "layer-pass":
        return cost
    if mode == "exact-flops":
        return cost * _flops_per_token_layer(dims)
    raise ValueError(f"unknown cost mode {mode!r}")


def matched_steps(
    baseline_plan: ExecutionPlan,
    variant_plan: ExecutionPlan,
    dims_baseline: ModelDims,
    dims_variant: ModelDims,
    baseline_steps: int,
) -> int:
    """Largest variant step count whose layer-pass cost fits the baseline
    budget.

    floor(baseline_steps * cost_baseline / cost_variant), computed with exact
    rational arithmetic so equal-cost plans match exactly. The result never
    exceeds the budget: matched * cost_variant <= baseline_steps * cost_base.
    """
    if baseline_steps < 0:
        raise ValueError(f"baseline_steps must be >= 0, got {baseline_steps}")
    cost_b = step_cost(baseline_plan, dims_baseline)
    cost_v = step_cost(variant_plan, dims_variant)
    # Fraction(float) is exact, so the floor below is exact too.
    ratio = Fraction(cost_b) / Fraction(cost_v)
    return int(baseline_steps * ratio)


def expected_stochastic_cost(plan: ExecutionPlan, dims: ModelDims, p_skip: float) -> float:
    """Expected per-step layer-pass cost when skip-eligible calls drop with
    prob p_skip.

    Affine and decreasing in p_skip; equals step_cost at p_skip = 0. Positions
    outside the eligible mask always execute.
    """
    if not (0.0 <= p_skip < 1.0):
        raise ValueError(f"p_skip must be in [0, 1), got {p_skip}")
    n_eligible = sum(plan.skip_eligible)
    n_always = len(plan) - n_eligible
    return layer_pass_cost(plan, dims, n_always + n_eligible * (1.0 - p_skip))


# Sweep ordering: the all-layers baseline, repeat-all-over at increasing
# repetition, then the fixed multi-block family crossed with degrees 1..3.
_SWEEP_MULTI = ["ABB", "ABA", "AAB", "ABBC", "AABC", "ABCC", "ABBB", "AAAB", "AABB"]
SWEEP_DEGREES = (1, 2, 3)
SWEEP_SIGNATURES: tuple[Signature, ...] = tuple(
    [parse("A", 1), parse("AA", 1), parse("AAA", 1), parse("AAAA", 1)]
    + [parse(s, d) for s in _SWEEP_MULTI for d in SWEEP_DEGREES]
)


def enumerate_sweep(total_layers: int) -> list[tuple[Signature, bool]]:
    """Fixed candidate list with per-candidate feasibility at this depth."""
    if total_layers < 1:
        raise ValueError(f"total_layers must be >= 1, got {total_layers}")
    return [(sig, _layers_per_block(sig, total_layers) >= 1)
            for sig in SWEEP_SIGNATURES]
