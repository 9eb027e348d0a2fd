"""Zero-shot multiple-choice scoring by per-token log-perplexity.

Each option is scored as the mean cross entropy of the option's own tokens,
conditioned on the rendered context (which is never scored); the option with
the lowest score wins, ties to the lowest index. Scoring is deterministic:
no sampling anywhere. Three render styles exist: "plain" joins non-empty
fields with single spaces; "boolq" and "piqa" are fixed templates whose
byte-level output is part of this module's contract.

Scoring is batched. Each item is packed as one sequence, its context
followed by each distinct option, and the packed items run in groups of
similar length, one RecursiveModel.forward_depths call per group for every
depth at once. Those calls compute logits only at the rows a score reads.
An item's scores do not depend on the other items in its group, and they
match scoring each option alone to float rounding.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .corpus import ByteTokenizer, segments_from_boundaries
from .layers import log_softmax
from .model import RecursiveModel

__all__ = [
    "TemplateError",
    "ContextOverflowError",
    "MCQItem",
    "render_parts",
    "render_template",
    "score_option",
    "EvalResult",
    "eval_mcq",
    "eval_mcq_depths",
    "held_out_log_perplexity",
    "read_task_jsonl",
    "write_task_jsonl",
    "write_results_jsonl",
]

STYLES = ("plain", "boolq", "piqa")


class TemplateError(ValueError):
    pass


class ContextOverflowError(ValueError):
    def __init__(self, item_desc: str, length: int, seq_len: int):
        super().__init__(
            f"rendered item {item_desc} needs {length} tokens but seq_len is {seq_len}"
        )


@dataclass(frozen=True)
class MCQItem:
    """context/prefix are conditioning text; exactly one option is gold.

    For boolq, context is the passage and prefix the question. For piqa,
    context is the goal and prefix stays empty.
    """

    context: str
    prefix: str
    options: tuple[str, ...]
    gold_index: int
    style: str = "plain"

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError(f"need >= 2 options, got {len(self.options)}")
        if not (0 <= self.gold_index < len(self.options)):
            raise ValueError(
                f"gold_index {self.gold_index} out of range for "
                f"{len(self.options)} options"
            )
        if self.style not in STYLES:
            raise ValueError(f"unknown style {self.style!r}; expected {STYLES}")

    def describe(self) -> str:
        head = (self.context or self.prefix or self.options[0])[:40]
        return f"{self.style}:{head!r}"


def render_parts(style: str, item: MCQItem, option_index: int) -> tuple[str, str]:
    """(conditioning text, scored option text) for one option.

    Concatenating the two gives the full rendered sequence; the split point
    is where scoring starts.
    """
    if not (0 <= option_index < len(item.options)):
        raise ValueError(f"option index {option_index} out of range")
    option = item.options[option_index]
    if option == "":
        raise TemplateError(
            f"empty option {option_index} in item {item.describe()}"
        )
    if style == "plain":
        parts = [p for p in (item.context, item.prefix) if p]
        cond = " ".join(parts)
        return (cond, (" " + option) if cond else option)
    if style == "boolq":
        if not item.context or not item.prefix:
            raise TemplateError("boolq needs context (passage) and prefix (question)")
        cond = (
            f"{item.context} Based on this, the answer to the question: "
            f"{item.prefix}, is:"
        )
        return cond, f" {option}"
    if style == "piqa":
        if not item.context:
            raise TemplateError("piqa needs context (the goal)")
        if item.prefix:
            raise TemplateError("piqa does not use prefix; put the goal in context")
        cond = f"The goal is: {item.context} The solution is:"
        return cond, f" {option}."
    raise TemplateError(f"unknown style {style!r}; expected {STYLES}")


def render_template(style: str, item: MCQItem, option_index: int = 0) -> str:
    """Full rendered text for one option; byte-exact per style."""
    cond, opt = render_parts(style, item, option_index)
    return cond + opt


def score_option(
    model: RecursiveModel,
    params: dict,
    tokenizer: ByteTokenizer,
    item: MCQItem,
    option_index: int,
    rounds: Optional[int] = None,
    score_full: bool = False,
) -> float:
    """Mean cross entropy (nats/token) of the option tokens.

    Conditioning tokens contribute context but never loss. score_full=True
    scores the whole rendered sequence instead (from position 1). A rendered
    sequence longer than seq_len raises, naming the item.
    """
    pack = _pack(model, tokenizer, item, [option_index], score_full)
    return _score_packs(model, params, [pack], [rounds])[0][0][0]


@dataclass(frozen=True)
class _Pack:
    """One item as one sequence: tokens, (L, L) allow mask and positions;
    rows, the sorted query rows whose logits are scored; per packed option,
    gathers holds (indices into rows, the tokens they predict); slots maps
    each requested option to its packed option."""

    tokens: np.ndarray
    allow: np.ndarray
    positions: np.ndarray
    rows: np.ndarray
    gathers: list
    slots: list


def _pack(model, tokenizer, item, option_indices, score_full) -> _Pack:
    """Pack an item for scoring the options in option_indices.

    The conditioning text does not depend on the option, so the item is
    packed as cond + opt_1 + ... + opt_n with each option's positions
    restarting at len(cond), and each option token attending to the
    context and its own option only. Identical options are packed once. An
    option that cannot be scored raises, in index order, exactly as scoring
    it alone would.
    """
    seq_len = model.dims.seq_len
    packed: dict[tuple, int] = {}  # option ids -> slot in the pack
    slots = []
    for i in option_indices:
        cond, opt = render_parts(item.style, item, i)
        cond_ids, opt_ids = tokenizer.encode(cond), tokenizer.encode(opt)
        n = len(cond_ids) + len(opt_ids)
        if n > seq_len:
            raise ContextOverflowError(item.describe(), n, seq_len)
        # logits[t] predicts ids[t+1]; position 0 is never predicted.
        start = 1 if score_full else max(len(cond_ids), 1)
        if start >= n:
            raise TemplateError(
                f"nothing to score for option {i} in item {item.describe()}"
            )
        slots.append(packed.setdefault(tuple(opt_ids), len(packed)))
    C = len(cond_ids)
    opts = list(packed)
    tokens = np.asarray(cond_ids + [t for o in opts for t in o], dtype=np.int64)
    seg = np.repeat(np.arange(len(opts) + 1), [C] + [len(o) for o in opts])
    allow = (seg[:, None] == seg[None, :]) | (seg == 0)[None, :]
    positions = np.concatenate(
        [np.arange(C)] + [np.arange(C, C + len(o)) for o in opts]
    )
    gathers = []  # per packed option: rows predicting its scored tokens, tokens
    for j in range(1, len(opts) + 1):
        rows = np.flatnonzero((seg == 0) | (seg == j))  # its cond + option
        gathers.append((rows[start - 1:-1], tokens[rows[start:]]))
    scored = np.unique(np.concatenate([r for r, _ in gathers]))
    gathers = [(np.searchsorted(scored, r), ids) for r, ids in gathers]
    return _Pack(tokens, allow, positions, scored, gathers, slots)


def _score_packs(model, params, packs, depths):
    """scores[d][n][j]: the score of packs[n]'s j-th requested option at
    depths[d].

    Packs are ordered by length and cut into groups of at most
    model.group_size(T) sequences, T being the group's longest pack: the
    full budget of one lane, whatever the lane count, so the groups and the
    scores are the same on any machine. Each group is one forward_depths
    call over all depths that computes logits for the scored rows only;
    model.forward_groups runs the groups, two at a time when the process
    has two lanes. Within a group every pack is padded to T: real rows
    never attend to padding, and each padded row attends to itself alone,
    so no row is fully masked. A pack's scores match scoring it alone to
    float rounding.
    """
    order = sorted(range(len(packs)), key=lambda n: len(packs[n].tokens))
    groups = [[]]
    for n in order:
        if len(groups[-1]) >= model.group_size(len(packs[n].tokens)):
            groups.append([])
        groups[-1].append(n)

    def batch(group):
        B = len(group)
        T = max(len(packs[n].tokens) for n in group)
        R = max(len(packs[n].rows) for n in group)
        tokens = np.zeros((B, T), dtype=np.int64)
        positions = np.zeros((B, T), dtype=np.int64)
        allow = np.zeros((B, 1, T, T), dtype=bool)
        allow[:, 0] = np.eye(T, dtype=bool)
        rows = np.zeros((B, R), dtype=np.int64)
        for b, n in enumerate(group):
            pack = packs[n]
            L = len(pack.tokens)
            tokens[b, :L] = pack.tokens
            positions[b, :L] = pack.positions
            allow[b, 0, :L, :L] = pack.allow
            rows[b, :len(pack.rows)] = pack.rows
        return tokens, allow, positions, rows

    scores = [[None] * len(packs) for _ in depths]
    logits_by_group = model.forward_groups(params, groups, depths, batch)
    for group, logits_by_depth in zip(groups, logits_by_group):
        for scored, logits in zip(scores, logits_by_depth):
            logp = log_softmax(logits)
            for b, n in enumerate(group):
                per_opt = [float(-logp[b, idx, ids].mean())
                           for idx, ids in packs[n].gathers]
                scored[n] = [per_opt[s] for s in packs[n].slots]
    return scores


@dataclass
class EvalResult:
    accuracy: float
    n_items: int
    predictions: list[int] = field(default_factory=list)
    scores: list[list[float]] = field(default_factory=list)


def eval_mcq(
    model: RecursiveModel,
    params: dict,
    tokenizer: ByteTokenizer,
    items: Sequence[MCQItem],
    rounds: Optional[int] = None,
    score_full: bool = False,
) -> EvalResult:
    """Score every option of every item; lowest score wins, ties to the
    lowest option index."""
    return eval_mcq_depths(model, params, tokenizer, items, [rounds], score_full)[0]


def eval_mcq_depths(
    model: RecursiveModel,
    params: dict,
    tokenizer: ByteTokenizer,
    items: Sequence[MCQItem],
    depths: Sequence[Optional[int]],
    score_full: bool = False,
) -> list[EvalResult]:
    """eval_mcq at every round count in depths, one EvalResult each.

    Each item is packed as one sequence holding all of its options, and the
    items run in a few batched forward passes for all depths (see
    _score_packs); scores match per-option score_option to float rounding.
    Every item is packed, and so checked, before anything runs.
    """
    if not items:
        raise ValueError("no items to evaluate")
    packs = [
        _pack(model, tokenizer, item, range(len(item.options)), score_full)
        for item in items
    ]
    per_depth = _score_packs(model, params, packs, depths)
    results = []
    for all_scores in per_depth:
        preds = [int(np.argmin(s)) for s in all_scores]
        correct = sum(p == item.gold_index for p, item in zip(preds, items))
        results.append(
            EvalResult(
                accuracy=correct / len(items),
                n_items=len(items),
                predictions=preds,
                scores=all_scores,
            )
        )
    return results


def held_out_log_perplexity(
    model: RecursiveModel,
    params: dict,
    batches: Sequence,
    rounds: Optional[int] = None,
    mask_reset: bool = False,
) -> float:
    """Token-weighted mean cross entropy over packed batches.

    mask_reset evaluates with document-isolated attention, matching a
    training run that used the same flag.
    """
    total_loss = 0.0
    total_tokens = 0
    for batch in batches:
        segments = segments_from_boundaries(batch.boundaries) if mask_reset else None
        n = batch.targets.size
        total_loss += (
            model.loss(params, batch.tokens, batch.targets, rounds=rounds,
                       segments=segments) * n
        )
        total_tokens += n
    if total_tokens == 0:
        raise ValueError("no tokens in evaluation batches")
    return total_loss / total_tokens


def read_task_jsonl(path) -> list[MCQItem]:
    """One MCQItem per non-blank line. Keys that are not MCQItem fields are
    ignored; a missing context or prefix reads as empty, a missing style as
    plain."""
    names = [f.name for f in fields(MCQItem)]
    items = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                obj = {"context": "", "prefix": "", **json.loads(line)}
                kw = {k: obj[k] for k in names if k in obj}
                kw["options"] = tuple(kw["options"])
                items.append(MCQItem(**kw))
    return items


def write_task_jsonl(path, items: Sequence[MCQItem]):
    """One line of MCQItem fields per item; read_task_jsonl reads it back."""
    with open(path, "w", encoding="utf-8") as f:
        for item in items:
            f.write(json.dumps(asdict(item)) + "\n")


def write_results_jsonl(path, rows: Sequence[dict]):
    """Rows of {task, rounds, accuracy, n_items}."""
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(
                json.dumps(
                    {
                        "task": row["task"],
                        "rounds": row["rounds"],
                        "accuracy": row["accuracy"],
                        "n_items": row["n_items"],
                    }
                )
                + "\n"
            )
