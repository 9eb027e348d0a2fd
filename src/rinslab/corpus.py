"""Synthetic corpora from probabilistic grammars, plus packing utilities.

Documents are lists of integer terminal ids drawn by expanding a weighted
context-free grammar. The depth cap makes even supercritical grammars
terminate: once a derivation reaches the cap, the sampler switches to a
fixed minimum-depth production for each nonterminal. Grammars where some
nonterminal has no terminating derivation at all are rejected up front,
since no cap can rescue them.

Packing concatenates documents with an EOS separator, cuts the stream into
contiguous windows of seq_len + 1 tokens (inputs are the first seq_len,
targets the last seq_len), and groups windows into batches. Only the final
sub-window remainder is dropped.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "GrammarError",
    "GrammarSpec",
    "default_grammar",
    "validate_grammar",
    "min_depths",
    "generate_corpus",
    "ByteTokenizer",
    "PackedBatch",
    "pack_sequences",
    "segments_from_boundaries",
    "save_tokens",
    "load_tokens",
    "ingest_text",
]

Symbol = Union[str, int]  # str names a nonterminal, int is a terminal id


class GrammarError(ValueError):
    pass


@dataclass(frozen=True)
class GrammarSpec:
    """Weighted CFG: rules maps nonterminal -> [(rhs symbols, probability)]."""

    rules: dict[str, tuple[tuple[tuple[Symbol, ...], float], ...]]
    start: str
    depth_cap: int
    terminal_vocab: int
    seed: int = 0

    @classmethod
    def from_productions(
        cls,
        rules: dict[str, Sequence[tuple[Sequence[Symbol], float]]],
        start: str,
        depth_cap: int,
        terminal_vocab: int,
        seed: int = 0,
    ) -> "GrammarSpec":
        frozen = {
            nt: tuple((tuple(rhs), float(p)) for rhs, p in prods)
            for nt, prods in rules.items()
        }
        spec = cls(frozen, start, depth_cap, terminal_vocab, seed)
        validate_grammar(spec)
        return spec


def _rhs_depth(rhs, depth: dict[str, float]) -> float:
    """Depth of a production: 1 + its deepest nonterminal's depth."""
    return 1.0 + max((depth[sym] for sym in rhs if isinstance(sym, str)), default=0.0)


def min_depths(spec: GrammarSpec) -> dict[str, float]:
    """Minimum derivation depth per nonterminal; inf if it cannot terminate."""
    depth = {nt: float("inf") for nt in spec.rules}
    changed = True
    while changed:
        changed = False
        for nt, prods in spec.rules.items():
            best = min(_rhs_depth(rhs, depth) for rhs, _ in prods)
            if best < depth[nt]:
                depth[nt] = best
                changed = True
    return depth


def validate_grammar(spec: GrammarSpec):
    if spec.depth_cap < 1:
        raise GrammarError(f"depth_cap must be >= 1, got {spec.depth_cap}")
    if spec.terminal_vocab < 1:
        raise GrammarError("terminal_vocab must be >= 1")
    if spec.start not in spec.rules:
        raise GrammarError(f"start symbol {spec.start!r} has no rules")
    for nt, prods in spec.rules.items():
        if not prods:
            raise GrammarError(f"nonterminal {nt!r} has no productions")
        total = sum(p for _, p in prods)
        if abs(total - 1.0) > 1e-9:
            raise GrammarError(
                f"probabilities for {nt!r} sum to {total}, expected 1"
            )
        for rhs, p in prods:
            if p < 0:
                raise GrammarError(f"negative probability in {nt!r}")
            for sym in rhs:
                if isinstance(sym, str):
                    if sym not in spec.rules:
                        raise GrammarError(
                            f"undefined nonterminal {sym!r} in rules of {nt!r}"
                        )
                else:
                    if not (0 <= sym < spec.terminal_vocab):
                        raise GrammarError(
                            f"terminal {sym} outside vocab [0, {spec.terminal_vocab})"
                        )
    depths = min_depths(spec)
    dead = [nt for nt, d in depths.items() if not np.isfinite(d)]
    if dead:
        raise GrammarError(
            f"nonterminals {dead} have no terminating derivation; "
            "the depth cap cannot force termination"
        )


def _forced_production(spec: GrammarSpec, depths: dict[str, float]) -> dict[str, int]:
    # Index of the first minimum-depth production, used once the cap is reached.
    return {
        nt: min(range(len(prods)), key=lambda i: _rhs_depth(prods[i][0], depths))
        for nt, prods in spec.rules.items()
    }


class _Sampler:
    """Precomputed tables for fast repeated expansion of one grammar."""

    def __init__(self, spec: GrammarSpec):
        self.spec = spec
        depths = min_depths(spec)
        self.forced = _forced_production(spec, depths)
        self.rhs = {nt: [rhs for rhs, _ in prods] for nt, prods in spec.rules.items()}
        self.cum = {
            nt: np.cumsum([p for _, p in prods]) for nt, prods in spec.rules.items()
        }

    def sample(self, rng: np.random.Generator) -> list[int]:
        out: list[int] = []
        # Explicit stack of (symbol, depth) so deep caps cannot hit the
        # Python recursion limit; children pushed reversed to preserve order.
        stack: list[tuple[Symbol, int]] = [(self.spec.start, 0)]
        cap = self.spec.depth_cap
        while stack:
            sym, depth = stack.pop()
            if not isinstance(sym, str):
                out.append(sym)
                continue
            choices = self.rhs[sym]
            if depth >= cap:
                rhs = choices[self.forced[sym]]
            else:
                cum = self.cum[sym]
                idx = int(np.searchsorted(cum, rng.random(), side="right"))
                rhs = choices[min(idx, len(choices) - 1)]
            for child in reversed(rhs):
                stack.append((child, depth + 1))
        return out


def generate_corpus(
    spec: GrammarSpec, n_tokens: int, rng: Optional[np.random.Generator] = None
) -> list[list[int]]:
    """Sample whole documents until at least n_tokens terminals exist.

    Deterministic for a given spec.seed (or supplied generator).
    """
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be >= 1, got {n_tokens}")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    sampler = _Sampler(spec)
    docs: list[list[int]] = []
    total = 0
    while total < n_tokens:
        doc = sampler.sample(rng)
        if not doc:
            continue
        docs.append(doc)
        total += len(doc)
    return docs


def default_grammar(seed: int = 0, terminal_vocab: int = 64) -> GrammarSpec:
    """House grammar: 4 nonterminals, branching 2-3, depth cap 8.

    Terminals come in deterministic digram pairs (t followed by (7t+3) mod V)
    with a long-tailed marginal, so there is local structure worth learning
    on top of the nesting statistics.
    """
    V = terminal_vocab
    weights = np.array([1.0 / (i + 2.0) for i in range(V)])
    weights /= weights.sum()
    w_prods = tuple(
        ((t, (7 * t + 3) % V), float(weights[t])) for t in range(V)
    )
    rules: dict = {
        "S": (((("P", "Q"), 0.35), (("P", "S", "Q"), 0.40), (("Q", "P"), 0.25))),
        "P": ((("W", "W"), 0.50), (("W", "P"), 0.30), (("W",), 0.20)),
        "Q": ((("W", "W", "W"), 0.40), (("Q", "W"), 0.30), (("W",), 0.30)),
        "W": w_prods,
    }
    return GrammarSpec.from_productions(
        rules, start="S", depth_cap=8, terminal_vocab=V, seed=seed
    )


class ByteTokenizer:
    """UTF-8 bytes as ids 0..255 plus an EOS id; round-trips text exactly."""

    vocab_size = 257
    eos_id = 256

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, ids: Iterable[int]) -> str:
        return bytes(i for i in ids if i != self.eos_id).decode("utf-8")


@dataclass
class PackedBatch:
    """tokens/targets are (rows, seq_len) int32; targets are tokens shifted
    one position into the future. boundaries marks EOS separator positions
    within tokens."""

    tokens: np.ndarray
    targets: np.ndarray
    boundaries: np.ndarray

    def __post_init__(self):
        if self.tokens.shape != self.targets.shape:
            raise ValueError("tokens and targets must share a shape")
        if self.boundaries.shape != self.tokens.shape:
            raise ValueError("boundaries must match tokens shape")


def pack_sequences(
    documents: Iterable[Sequence[int]],
    seq_len: int,
    batch_size: int,
    eos_id: int,
) -> Iterator[PackedBatch]:
    """Pack documents into training batches.

    Every document is followed by one EOS in the stream. Windows are
    contiguous, exactly seq_len + 1 long, never overlap, and only the final
    remainder shorter than seq_len + 1 is dropped. The last batch may have
    fewer than batch_size rows. A stream too short for even one window
    yields nothing, with a warning.
    """
    if seq_len < 1 or batch_size < 1:
        raise ValueError("seq_len and batch_size must be >= 1")
    window = seq_len + 1
    eos = np.array([eos_id], dtype=np.int32)
    parts = [eos[:0]]
    for doc in documents:
        parts += (np.asarray(doc, dtype=np.int32), eos)
    stream = np.concatenate(parts)
    rows = stream[: len(stream) // window * window].reshape(-1, window)
    if not len(rows):
        warnings.warn(
            f"stream shorter than one window ({window} tokens); nothing packed",
            stacklevel=2,
        )
    for i in range(0, len(rows), batch_size):
        chunk = rows[i : i + batch_size]
        tokens = chunk[:, :-1].copy()
        yield PackedBatch(tokens, chunk[:, 1:].copy(), tokens == eos_id)


def segments_from_boundaries(boundaries: np.ndarray) -> np.ndarray:
    """Segment ids per position: EOS closes its document, the next position
    starts a new segment. Used for document-isolated attention masks."""
    b = np.asarray(boundaries, dtype=np.int64)
    seg = np.zeros_like(b)
    seg[:, 1:] = np.cumsum(b[:, :-1], axis=1)
    return seg


def save_tokens(path, documents: Sequence[Sequence[int]], meta: Optional[dict] = None):
    """Raw int32 little-endian stream plus a JSON sidecar with doc lengths."""
    path = Path(path)
    flat = np.concatenate([np.asarray(d, dtype="<i4") for d in documents]) \
        if documents else np.zeros(0, dtype="<i4")
    path.write_bytes(flat.astype("<i4", copy=False).tobytes())
    sidecar = {
        "n_tokens": int(flat.size),
        "doc_lengths": [len(d) for d in documents],
        "dtype": "<i4",
    }
    if meta:
        sidecar.update(meta)
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar), encoding="utf-8"
    )


def load_tokens(path) -> tuple[list[list[int]], dict]:
    """Documents and sidecar of a save_tokens file. A sidecar whose counts
    do not cover the file exactly is refused with a ValueError."""
    path = Path(path)
    sidecar = json.loads(
        path.with_suffix(path.suffix + ".json").read_text(encoding="utf-8")
    )
    flat = np.frombuffer(path.read_bytes(), dtype="<i4")
    if flat.size != sidecar["n_tokens"]:
        raise ValueError(
            f"token file {path} holds {flat.size} tokens, sidecar says "
            f"{sidecar['n_tokens']}"
        )
    lengths = sidecar["doc_lengths"]
    if min(lengths, default=0) < 0:
        raise ValueError(
            f"token file {path}: sidecar gives doc length {min(lengths)}"
        )
    if sum(lengths) != flat.size:
        raise ValueError(
            f"token file {path}: sidecar doc lengths sum to {sum(lengths)}, "
            f"not its {flat.size} tokens"
        )
    docs = []
    off = 0
    for n in lengths:
        docs.append(flat[off:off + n].tolist())
        off += n
    return docs, sidecar


def ingest_text(path, tokenizer: Optional[ByteTokenizer] = None) -> list[list[int]]:
    """Split a .txt file on blank lines; each block becomes one document."""
    tok = tokenizer or ByteTokenizer()
    text = Path(path).read_text(encoding="utf-8")
    blocks = [b.strip() for b in text.split("\n\n")]
    return [tok.encode(b) for b in blocks if b]
