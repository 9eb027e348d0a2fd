"""Recursive transformer executor with hand-composed backward pass.

The executor runs an ExecutionPlan over a bank of leaf blocks that share
parameters whenever the plan repeats a leaf id. rounds = k runs the leaf
calls plan.calls(k) lists, for k in [1, plan.r_max]: for A^r B, k calls of A
and then B. Three optional mechanisms layer on top:

  * stochastic depth: rounds = 1 + Binomial(r_max - 1, 1 - p_skip), sampled
    once per step;
  * round adapters: bias-free d x d maps, identity at init, one per possible
    round count; when k rounds run, adapter k maps the hidden state that
    enters the plan's last call;
  * KV sharing: a later call of a leaf reuses the keys and values its first
    executed call produced at the same layer, recomputing only queries, so
    the cache footprint does not grow with rounds.

Adapters and KV sharing need a plan that runs A^r B. Gradients for a shared
block are the sum of the per-call gradients; the backward pass realizes this
by plain accumulation into one dict keyed by parameter name.

One executor serves every entry point. It takes a list of round counts:
training and forward() pass one, forward_depths() several, and then each
distinct prefix of leaf calls runs once for all of them.

A training step (loss_and_grads) and a held-out loss (loss) run the batch
in micro-batches of whole sequences, and a step sums their gradients, so it
holds the activations of one micro-batch per lane, not of the batch. Groups
are cut by the work alone (see group_size), never by the machine. The
process has two lanes when it may use two CPUs and BLAS runs one thread
(see _LANES); then the caller runs one group while a helper thread runs the
next (see _in_order), and numpy releases the GIL inside BLAS and ufuncs, so
the two overlap. Results are combined in group order, so losses, gradients
and scores are bitwise the same on one lane and on two. Forward-only calls
keep no layer's activations past that layer.
forward_depths can ask for the logits of chosen rows only; then the last
layer of each depth's last call runs its queries, MLP and head on those rows
alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import layers as _layers
from .layers import (
    _dense,
    _dense_bwd,
    attention_bwd,
    attention_fwd,
    embed_bwd,
    embed_fwd,
    layernorm_bwd,
    layernorm_fwd,
    mlp_bwd,
    mlp_fwd,
    softmax_xent_bwd,
    softmax_xent_fwd,
)
from .ledger import ModelDims, plan_layers_per_block
from .signatures import ExecutionPlan, leaf_label, to_tagged

__all__ = [
    "RecursionPolicy",
    "RecursiveModel",
    "sample_rounds",
    "adapter_fraction",
    "param_count",
    "segments_to_mask",
]


@dataclass(frozen=True)
class RecursionPolicy:
    """Recursion behavior knobs.

    r_max must equal the plan's r_max (the recursion count r for A^r B).
    inference_rounds, when set, fixes the round count used by forward()
    when no explicit rounds argument is given.
    """

    r_max: int = 1
    p_skip: float = 0.0
    kv_share: bool = False
    adapters: bool = False
    inference_rounds: Optional[int] = None

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if not (0.0 <= self.p_skip < 1.0):
            raise ValueError(f"p_skip must be in [0, 1), got {self.p_skip}")
        if self.p_skip > 0.0 and self.r_max < 2:
            raise ValueError(
                f"p_skip {self.p_skip} needs r_max >= 2; there is nothing to skip"
            )
        if self.inference_rounds is not None and not (
            1 <= self.inference_rounds <= self.r_max
        ):
            raise ValueError(
                f"inference_rounds must be in [1, {self.r_max}], "
                f"got {self.inference_rounds}"
            )


def sample_rounds(policy: RecursionPolicy, rng: np.random.Generator, size=None):
    """Draw the number of rounds to execute this step.

    1 + Binomial(r_max - 1, 1 - p_skip): each of the r_max - 1 skip-eligible
    positions runs independently with probability 1 - p_skip, and the
    executor keeps that many of them, first ones first. p_skip = 0 always
    yields r_max; r_max = 1 always yields 1 whatever p_skip says.
    """
    draw = rng.binomial(policy.r_max - 1, 1.0 - policy.p_skip, size=size)
    return 1 + draw


def segments_to_mask(segments: np.ndarray) -> np.ndarray:
    """(B, T) segment ids -> (B, 1, T, T) boolean same-segment mask."""
    seg = np.asarray(segments)
    return (seg[:, None, :, None] == seg[:, None, None, :])


def adapter_fraction(params: dict) -> dict:
    """Adapter share of the parameter count, reported two ways.

    The embedding-free denominator drops token/position tables, which at
    small vocab sizes would otherwise flatter the fraction.
    """
    adapter = sum(v.size for k, v in params.items() if k.startswith("adapter."))
    total = sum(v.size for v in params.values())
    non_embed = total - sum(
        v.size for k, v in params.items() if k.startswith("embed.")
    )
    return {
        "adapter_params": adapter,
        "total_params": total,
        "with_embeddings": adapter / total if total else 0.0,
        "without_embeddings": adapter / non_embed if non_embed else 0.0,
    }


# Bytes of the widest per-layer activation of one forward-only group, which
# one lane holds in its own core's cache; a training micro-batch holds half
# as many sequences (see RecursiveModel._micro_batches).
_GROUP_BYTES = 1 << 20


# The thread-count variables each BLAS reads, in the order it reads them;
# the manifest records them all.
_BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _blas_name() -> str:
    """The name numpy gives the BLAS it links, e.g. "scipy-openblas"; ""
    when numpy names none."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 takes no mode
        return ""
    return str(deps.get("blas", {}).get("name", ""))


def _count_lanes(blas: str) -> int:
    """2 when this process may run on two CPUs and the environment pins the
    BLAS named `blas` to one thread per call, else 1.

    A threaded BLAS already spreads each GEMM over the cores, and a second
    lane would then oversubscribe them, so it gets one lane, as does a
    process that `taskset` keeps to one CPU. Of the variables that BLAS
    reads (_BLAS_THREAD_VARS), the first that is set decides; a BLAS not
    listed there gets one lane.
    """
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return 1
    reads = next((v for k, v in _BLAS_THREAD_VARS.items() if k in blas.lower()), ())
    for var in reads:
        if os.environ.get(var, "").strip():
            return 2 if os.environ[var].strip() == "1" else 1
    return 1


# Groups one executor call runs at once (see _in_order). It schedules the
# groups and never decides what they are, so no result depends on it.
_LANES = _count_lanes(_blas_name())


def _param_shapes(
    plan: ExecutionPlan, dims: ModelDims, adapters: bool
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every array the executor builds for the plan, in
    init order: embeddings, final norm and head, one stack of
    layers_per_block layers per distinct leaf block and, with adapters, one
    d x d map per round count. Raises InfeasiblePlanError through
    plan_layers_per_block."""
    lpb = plan_layers_per_block(plan, dims)
    d, mlp, V, S = dims.d_model, dims.mlp_dim, dims.vocab, dims.seq_len
    shapes: dict[str, tuple[int, ...]] = {
        "embed.token": (V, d),
        "embed.pos": (S, d),
        "final_norm.gamma": (d,),
        "final_norm.beta": (d,),
        "head.w": (d, V),
        "head.b": (V,),
    }
    for leaf in range(plan.unique_leaf_count):
        for l in range(lpb):
            pre = f"block.{leaf_label(leaf)}.layer.{l}."
            shapes[pre + "ln1.gamma"] = (d,)
            shapes[pre + "ln1.beta"] = (d,)
            shapes[pre + "attn.q"] = (d, d)
            shapes[pre + "attn.q_bias"] = (d,)
            shapes[pre + "attn.k"] = (d, d)
            shapes[pre + "attn.k_bias"] = (d,)
            shapes[pre + "attn.v"] = (d, d)
            shapes[pre + "attn.v_bias"] = (d,)
            shapes[pre + "attn.out"] = (d, d)
            shapes[pre + "attn.out_bias"] = (d,)
            shapes[pre + "ln2.gamma"] = (d,)
            shapes[pre + "ln2.beta"] = (d,)
            shapes[pre + "mlp.w_in"] = (d, mlp)
            shapes[pre + "mlp.b_in"] = (mlp,)
            shapes[pre + "mlp.w_out"] = (mlp, d)
            shapes[pre + "mlp.b_out"] = (d,)
    if adapters:
        for k in range(1, plan.r_max + 1):
            shapes[f"adapter.{k}"] = (d, d)
    return shapes


def param_count(plan: ExecutionPlan, dims: ModelDims) -> int:
    """Summed sizes of the arrays the executor builds without adapters
    (adapter_fraction reports their share). Recursion buys compute, not
    parameters: repeating a leaf adds none."""
    return sum(math.prod(s) for s in _param_shapes(plan, dims, False).values())


class RecursiveModel:
    """Pre-norm decoder executing an ExecutionPlan with shared leaf blocks."""

    def __init__(
        self,
        dims: ModelDims,
        plan: ExecutionPlan,
        policy: RecursionPolicy = RecursionPolicy(),
        dtype=np.float32,
    ):
        self.dims = dims
        self.plan = plan
        self.policy = policy
        self.dtype = np.dtype(dtype)
        self.layers_per_block = plan_layers_per_block(plan, dims)
        if policy.r_max != plan.r_max:
            raise ValueError(
                f"policy r_max {policy.r_max} does not match plan "
                f"{to_tagged(plan.source)}: {plan.r_max - 1} skip-eligible "
                f"positions give r_max {plan.r_max}"
            )
        if (policy.kv_share or policy.adapters) and not _is_rins(plan.leaf_sequence):
            raise ValueError(
                "KV sharing and adapters require an A^r B signature, got "
                f"{to_tagged(plan.source)} running leaves {plan.leaf_sequence}"
            )
        self._labels = [leaf_label(i) for i in range(plan.unique_leaf_count)]

    # ---------------------------------------------------------------- params

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return _param_shapes(self.plan, self.dims, self.policy.adapters)

    def init_params(self, seed=0) -> dict[str, np.ndarray]:
        """Deterministic init: N(0, 0.02) weights with scaled-down residual
        output projections, zero biases, unit norms, identity adapters."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        std = 0.02
        out_std = std / math.sqrt(2.0 * self.dims.total_layers)
        params: dict[str, np.ndarray] = {}
        for name, shape in self.param_shapes().items():
            if name.startswith("adapter."):
                arr = np.eye(shape[0])
            elif name.endswith((".gamma",)):
                arr = np.ones(shape)
            elif name.endswith(("_bias", ".beta", ".b_in", ".b_out")) or name == "head.b":
                arr = np.zeros(shape)
            elif name.endswith(("attn.out", "mlp.w_out")):
                arr = rng.normal(0.0, out_std, size=shape)
            else:
                arr = rng.normal(0.0, std, size=shape)
            params[name] = arr.astype(self.dtype)
        return params

    # ------------------------------------------------------------- execution

    def resolve_rounds(self, rounds: Optional[int]) -> int:
        """rounds, or the policy's default when None: inference_rounds, else
        r_max. plan.calls checks the range."""
        if rounds is None:
            return self.policy.inference_rounds or self.policy.r_max
        return rounds

    def forward(self, params, tokens, rounds=None, segments=None):
        return self.forward_with_info(params, tokens, rounds, segments)[0]

    def forward_with_info(self, params, tokens, rounds=None, segments=None):
        (logits,), _, (info,) = self._run(
            params, tokens, [rounds], _mask(segments), need_tape=False
        )
        return logits, info

    def forward_depths(self, params, tokens, depths, allow=None, positions=None,
                       rows=None):
        """Logits at every round count in depths, from one executor pass.

        Entry i equals forward(params, tokens, rounds=depths[i]) bitwise when
        allow, positions and rows are None: each distinct prefix of leaf calls
        runs once and every depth branches off the longest prefix it shares,
        so A^r B at depths 1..r runs r calls of A and r of B instead of
        r(r+1)/2 and r. tokens are (B, T), or (T,) for one sequence. allow is
        a (T, T) or (B, 1, T, T) boolean ANDed with the causal mask.
        positions, when given, are the (T,) or (B, T) position-table rows the
        tokens read instead of 0..T-1; then the largest position, not T, must
        fit in seq_len. A repeated depth gets the same array.

        rows, a (B, R) int array ((R,) for 1-D tokens), asks for the logits
        of those query rows only, which come back as (B, R, V). The last
        layer of each depth's last call then takes keys and values from every
        row but runs queries, attention output, the MLP and the head on the
        chosen rows; the result equals the full logits at those rows to float
        rounding.
        """
        logits, _, _ = self._run(
            params, tokens, depths, allow, need_tape=False, positions=positions,
            rows=rows,
        )
        return logits

    def forward_groups(self, params, groups, depths, batch):
        """Yield, for each group in groups and in order, forward_depths(params,
        tokens, depths, allow, positions, rows) with (tokens, allow,
        positions, rows) = batch(group).

        The groups run two at a time when there are two lanes (see
        _in_order), batch included, and each lane holds one group, so cut
        them by group_size.
        """

        def run(group):
            tokens, allow, positions, rows = batch(group)
            return self.forward_depths(params, tokens, depths, allow, positions, rows)

        return _in_order(run, groups)

    def loss(self, params, tokens, targets, rounds=None, segments=None) -> float:
        """Mean cross entropy (nats), from the micro-batches loss_and_grads
        runs, so it equals loss_and_grads's loss bitwise."""

        def group_loss(job):
            share, tok, tgt, seg = job
            (logits,), _, _ = self._run(params, tok, [rounds], _mask(seg),
                                        need_tape=False)
            return softmax_xent_fwd(logits, tgt)[0] * share

        return sum(_in_order(group_loss, self._jobs(tokens, targets, segments)))

    def loss_and_grads(self, params, tokens, targets, rounds=None, segments=None):
        """Mean cross entropy (nats) and gradients for every parameter.

        The batch runs in micro-batches of whole sequences (see
        _micro_batches), each a forward and a backward of its own, and each
        group's loss and logit gradient are weighted by its share of the
        tokens. Each group backpropagates into a gradient dict of its own,
        and the group dicts are added to the total in group order, each
        freed as it is added; groups run two at a time on two lanes (see
        _in_order), so the sums are bitwise the same on one lane and on two.
        A batch that fits in one group runs exactly as one forward and
        backward over the whole batch. 1-D tokens are a batch of one
        sequence.

        Parameters a given execution never touches (other rounds' adapters,
        position rows beyond T) come back with zero gradients so the
        optimizer can treat the dict as total.
        """

        def group_grads(job):
            share, tok, tgt, seg = job
            (logits,), tape, (info,) = self._run(params, tok, [rounds], _mask(seg),
                                                 need_tape=True)
            loss, xc = softmax_xent_fwd(logits, tgt)
            dlogits = softmax_xent_bwd(xc)
            dlogits *= share
            grads = {}
            self._backward(params, tape, dlogits, grads)
            return loss * share, grads, info

        loss, grads = 0.0, {}
        jobs = self._jobs(tokens, targets, segments)
        for group_loss, group, info in _in_order(group_grads, jobs):
            loss += group_loss
            _acc_many(grads, group)
            del group  # hold no group's gradients while the next pair runs
        for name, p in params.items():
            if name not in grads:
                grads[name] = np.zeros_like(p)
        return loss, grads, info

    def kv_cache_bytes(self, rounds=None) -> int:
        """K/V bytes per sequence at seq_len for this round count; see _kv_bytes."""
        return self._kv_bytes(self.plan.calls(self.resolve_rounds(rounds)),
                              self.dims.seq_len)

    # -------------------------------------------------------------- internals

    def _run(self, params, tokens, depths, mask, need_tape, positions=None,
             rows=None):
        """Logits, tape and info per entry of depths (a list of round counts).

        Logits keep the leading shape of tokens, so 1-D tokens give (T, V).
        The tape exists only for a single depth. With several depths, the
        state after each prefix of leaf calls is kept, keyed by its leaf
        ids, and each depth resumes from the longest prefix already run.
        Adapter k maps the state entering depth k's last call, so that call
        is never shared. KV sharing state is copied on write, so a call on
        one branch never feeds another. rows (see forward_depths) trims the
        last layer of each depth's last call to those rows; that call's
        state holds only them, so it is never kept as a prefix.
        """
        tokens = np.asarray(tokens)
        _check_ids(tokens, self.dims.vocab, "tokens")
        batched = tokens[None, :] if tokens.ndim == 1 else tokens
        T = batched.shape[1]
        if rows is not None:
            rows = np.reshape(rows, (len(batched), -1))
        if positions is not None and np.min(positions) < 0:
            raise ValueError(f"positions must be >= 0, got {np.min(positions)}")
        span = T if positions is None else int(np.max(positions)) + 1
        if span > self.dims.seq_len:
            raise ValueError(
                f"sequence length {span} exceeds seq_len {self.dims.seq_len}"
            )
        depths = [self.resolve_rounds(k) for k in depths]
        h, emb_cache = embed_fwd(
            batched, params["embed.token"], params["embed.pos"], positions=positions
        )
        tape = {"emb": emb_cache, "calls": []} if need_tape else None
        share = self.policy.kv_share
        keep = len(set(depths)) > 1
        # leaf-id prefix -> (h, first_kv); first_kv maps (leaf, layer) to the
        # (k, v) of that leaf's first call
        states = {(): (h, {})}
        logits, infos = {}, {}
        for k in sorted(set(depths)):
            seq = self.plan.calls(k)
            adapter = f"adapter.{k}" if self.policy.adapters else None
            shared = len(seq) - (adapter is not None)  # calls before any adapter
            n = shared
            while tuple(seq[:n]) not in states:
                n -= 1
            h, first_kv = states[tuple(seq[:n])]
            if not keep:
                states.clear()  # one depth holds no state but the running one
            for ci in range(n, len(seq)):
                leaf = seq[ci]
                label = self._labels[leaf]
                # the layer that runs on the chosen rows only: the last layer
                # of the depth's last call
                trim_at = (
                    self.layers_per_block - 1
                    if rows is not None and ci == len(seq) - 1 else None
                )
                produce = share and (leaf, 0) not in first_kv
                if produce:
                    first_kv = dict(first_kv)  # copy on write: kept states never change
                adapted = None
                if ci == shared:
                    adapted = (adapter, h)
                    h = _dense(h, params, adapter)
                layer_records = []
                for l in range(self.layers_per_block):
                    prefix = f"block.{label}.layer.{l}."
                    xn1, c_ln1 = layernorm_fwd(
                        h, params[prefix + "ln1.gamma"], params[prefix + "ln1.beta"]
                    )
                    kv_in = first_kv.get((leaf, l))
                    # rows passes only where it trims, so a wrapper over the
                    # positional signature sees every other call unchanged
                    sel = {"rows": rows} if l == trim_at else {}
                    attn_out, kv, c_attn = attention_fwd(
                        xn1, params, prefix + "attn.", self.dims.n_heads, kv_in, mask,
                        **sel,
                    )
                    if produce:
                        first_kv[(leaf, l)] = kv
                    if sel:
                        h = np.take_along_axis(h, rows[:, :, None], axis=1)
                    h = h + attn_out
                    xn2, c_ln2 = layernorm_fwd(
                        h, params[prefix + "ln2.gamma"], params[prefix + "ln2.beta"]
                    )
                    mlp_out, c_mlp = mlp_fwd(xn2, params, prefix + "mlp.")
                    h = h + mlp_out
                    if need_tape:
                        layer_records.append((prefix, c_ln1, c_attn, c_ln2, c_mlp))
                    # without a tape, no layer runs with the last one's activations
                    del xn1, c_ln1, attn_out, kv, c_attn, xn2, c_ln2, mlp_out, c_mlp
                if need_tape:
                    tape["calls"].append(
                        {"leaf": leaf, "layers": layer_records, "adapter": adapted}
                    )
                if keep and ci < shared and trim_at is None:
                    states[tuple(seq[:ci + 1])] = (h, first_kv)
            out = self._head(params, h, tape)
            logits[k] = out[0] if tokens.ndim == 1 else out
            infos[k] = {
                "exec": seq,
                "rounds": k,
                "adapter": adapter,
                "kv_cache_bytes": self._kv_bytes(seq, T),
            }
        return [logits[k] for k in depths], tape, [infos[k] for k in depths]

    def _head(self, params, h, tape):
        xnf, c_final = layernorm_fwd(
            h, params["final_norm.gamma"], params["final_norm.beta"]
        )
        logits = _dense(xnf, params, "head.w", "head.b")
        if tape is not None:
            tape["final"] = (c_final, xnf)
        return logits

    def _kv_bytes(self, exec_seq: list[int], T: int) -> int:
        """Bytes per sequence of the per-layer (k, v) pairs at length T held by
        every executed call but the last. With kv_share a leaf counts once,
        since its later calls read its first call's pair.

        For A^r B at k rounds the last call is B, which runs once whatever the
        depth, so this is k calls of A, or one with kv_share. Other plans
        follow the same rule: ABCD counts A, B and C.
        """
        calls = exec_seq[:-1]
        held = len(set(calls)) if self.policy.kv_share else len(calls)
        return (
            held * self.layers_per_block * 2 * T * self.dims.d_model
            * self.dtype.itemsize
        )

    def group_size(self, T: int) -> int:
        """Most whole sequences of length T that one executor call should
        hold: those whose widest per-layer activation, rows x max(mlp_dim,
        n_heads * T) x itemsize (the GELU input or the attention scores),
        fits in _GROUP_BYTES, and at least one.

        It reads the work alone, never the lane count, so every machine cuts
        the same groups. forward_groups (batched MCQ scoring) cuts by it,
        and each lane holds one such group; micro-batches hold half as many
        (see _micro_batches)."""
        widest = T * max(self.dims.mlp_dim, self.dims.n_heads * T) * self.dtype.itemsize
        return max(1, _GROUP_BYTES // widest)

    def _micro_batches(self, tokens):
        """Row slices of whole sequences that loss and loss_and_grads run as
        groups.

        A sequence is never split, since attention spans it. Groups hold at
        most half of group_size(T) sequences, and at least one, and are
        near-equal: the two micro-batches in flight on two lanes together
        fit one forward-only group's budget, and one lane cuts the same
        ones. tokens is (B, T).
        """
        B, T = tokens.shape
        n = -(-B // max(1, self.group_size(T) // 2))
        return [slice(B * i // n, B * (i + 1) // n) for i in range(n)]

    def _jobs(self, tokens, targets, segments):
        """(share of the tokens, tokens, targets, segments or None) per
        micro-batch; 1-D arrays are a batch of one sequence."""
        T = np.shape(tokens)[-1]
        tokens, targets = np.reshape(tokens, (-1, T)), np.reshape(targets, (-1, T))
        _check_ids(targets, self.dims.vocab, "targets")
        if segments is not None:
            segments = np.reshape(segments, (-1, T))
        return [
            ((rows.stop - rows.start) / len(tokens),  # 1.0, exactly, for one group
             tokens[rows], targets[rows],
             None if segments is None else segments[rows])
            for rows in self._micro_batches(tokens)
        ]

    def _backward(self, params, tape, dlogits, grads):
        """Accumulate the tape's gradients into grads (name -> array), which
        starts empty: the head and the adapter, used once per tape, are set."""
        c_final, xnf = tape["final"]
        dxnf = _dense_bwd(dlogits, xnf, params, "head.w", "head.b", grads)
        dh, dgam, dbet = layernorm_bwd(dxnf, c_final)
        _acc(grads, "final_norm.gamma", dgam)
        _acc(grads, "final_norm.beta", dbet)

        # (leaf, layer) -> (dk, dv) summed over the calls that consumed that
        # leaf's first-call keys and values, awaiting the call that made them;
        # (None, None) once that call has folded them in
        pending_kv: dict[tuple[int, int], tuple] = {}
        for call in reversed(tape["calls"]):
            leaf = call["leaf"]
            for l in range(len(call["layers"]) - 1, -1, -1):
                prefix, c_ln1, c_attn, c_ln2, c_mlp = call["layers"][l]
                dxn2, g = mlp_bwd(dh, c_mlp, params, prefix + "mlp.")
                _acc_many(grads, g)
                dres, dgam, dbet = layernorm_bwd(dxn2, c_ln2)
                _acc(grads, prefix + "ln2.gamma", dgam)
                _acc(grads, prefix + "ln2.beta", dbet)
                dh = dh + dres

                dk, dv = pending_kv.get((leaf, l), (None, None))
                dxn1, g, dk, dv = attention_bwd(dh, c_attn, params, prefix + "attn.", dk, dv)
                pending_kv[(leaf, l)] = (dk, dv)
                _acc_many(grads, g)
                dres, dgam, dbet = layernorm_bwd(dxn1, c_ln1)
                _acc(grads, prefix + "ln1.gamma", dgam)
                _acc(grads, prefix + "ln1.beta", dbet)
                dh = dh + dres
            if call["adapter"] is not None:
                a_name, a_in = call["adapter"]
                dh = _dense_bwd(dh, a_in, params, a_name, None, grads)

        dtok, dpos_rows, T = embed_bwd(dh, tape["emb"])
        _acc(grads, "embed.token", dtok)
        dpos = np.zeros_like(params["embed.pos"])
        dpos[:T] = dpos_rows
        _acc(grads, "embed.pos", dpos)


def _in_order(fn, jobs):
    """Yield fn(job) for every job in jobs, in order.

    With two _LANES, the jobs run two at a time: the caller runs job i while
    one helper thread runs job i + 1, and each result is handed over before
    the next pair starts, so at most two jobs are in flight and no result
    waits while another pair runs. An exception from either lane propagates
    as raised once the other lane's job has ended, and the helper never
    outlives the generator. Fewer than two jobs, one lane, or wrapped layer
    functions (see _layers_wrapped) run every job on the caller and start no
    thread.
    """
    if len(jobs) < 2 or _LANES < 2 or _layers_wrapped():
        for job in jobs:
            yield fn(job)
        return
    with ThreadPoolExecutor(max_workers=1) as helper:
        for i in range(0, len(jobs), 2):
            ahead = helper.submit(fn, jobs[i + 1]) if i + 1 < len(jobs) else None
            yield fn(jobs[i])
            if ahead is not None:
                yield ahead.result()
            ahead = None  # the future holds its result until dropped


def _layers_wrapped() -> bool:
    """True while a public function of the layers module (one named in its
    __all__) is wrapped (functools.wraps leaves __wrapped__ on the
    wrapper), as a tracer or profiler wraps them. Such a wrapper may keep
    state, a stack of open spans say, that calls from two threads at once
    would interleave, so the groups then run on one lane; the groups, and
    so the results, stay the same. Private names are not scanned: a helper
    cached with functools.lru_cache carries __wrapped__ too."""
    return any(hasattr(getattr(_layers, name), "__wrapped__")
               for name in _layers.__all__)


def _is_rins(seq) -> bool:
    """True for an A^r B call sequence: every call but the last on one leaf,
    the last call on another."""
    return len(seq) > 1 and set(seq[:-1]) == {seq[0]} and seq[-1] != seq[0]


def _check_ids(ids: np.ndarray, vocab: int, name: str):
    """Refuse ids outside [0, vocab): numpy would read a negative id from the
    end of a table."""
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ValueError(
            f"{name} must be in [0, {vocab}), got ids from {ids.min()} to {ids.max()}"
        )


def _mask(segments):
    return None if segments is None else segments_to_mask(segments)


def _acc(grads: dict, name: str, g: np.ndarray):
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


def _acc_many(grads: dict, new: dict):
    for name, g in new.items():
        _acc(grads, name, g)
