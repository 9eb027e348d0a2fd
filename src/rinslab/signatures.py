"""Signature algebra for recursive parameter-sharing patterns.

A signature is a string of block labels ("AB", "AAB", "ABAB") plus a nesting
degree. Degree 1 reads the string literally: each distinct label is one block
of layers, and repeated labels reuse the same block. Degree d > 1 substitutes
the whole pattern into each label recursively, so ("ABB", 2) expands to
A B B C D D C D D: the outer A becomes one fresh copy of the pattern, and the
two outer Bs share a second fresh copy.

Expansion yields an ExecutionPlan: the flat sequence of leaf block ids to run,
the number of distinct leaf blocks (which determines parameter count), and a
per-position skip-eligibility mask used by stochastic training.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "SignatureParseError",
    "Signature",
    "ExecutionPlan",
    "parse",
    "parse_tagged",
    "to_tagged",
    "expand",
    "rins_rounds",
    "leaf_label",
]


class SignatureParseError(ValueError):
    """Malformed signature text. `position` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _canonical_relabel(symbols: str) -> str:
    # Rename labels to A, B, C, ... in order of first occurrence.
    mapping: dict[str, str] = {}
    out = []
    for ch in symbols:
        if ch not in mapping:
            mapping[ch] = chr(ord("A") + len(mapping))
        out.append(mapping[ch])
    return "".join(out)


@dataclass(frozen=True)
class Signature:
    """A canonical block pattern: flat label string plus nesting degree.

    symbols holds the exponent-free form ("AAB", never "A^2B") with labels
    renamed so that first occurrences read A, B, C, ... left to right.
    """

    symbols: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if not self.symbols:
            raise SignatureParseError("empty signature", 0)
        for i, ch in enumerate(self.symbols):
            if not ("A" <= ch <= "Z"):
                raise SignatureParseError(f"invalid label {ch!r}", i)
        if self.symbols != _canonical_relabel(self.symbols):
            raise ValueError(
                f"symbols {self.symbols!r} are not canonical; "
                f"expected {_canonical_relabel(self.symbols)!r}"
            )

    @property
    def unique_symbols(self) -> int:
        return len(set(self.symbols))

    @property
    def unique_leaf_count(self) -> int:
        """Distinct leaf blocks after expansion: unique_symbols ** degree."""
        return self.unique_symbols ** self.degree

    def __str__(self) -> str:
        return to_tagged(self)


_TOKEN_RE = re.compile(r"([A-Z])(\^(\d+))?")


def parse(text: str, degree: int = 1) -> Signature:
    """Parse signature text into canonical form.

    Accepts both exponent form ("A^3B") and flat form ("AAAB"); the result is
    always flat. Labels are renamed to first-occurrence order, so "BBA" parses
    to the same signature as "AAB". Errors identify the offending position.
    """
    if not isinstance(text, str) or text == "":
        raise SignatureParseError("empty signature", 0)
    if degree < 1:
        raise SignatureParseError(f"degree must be >= 1, got {degree}", 0)
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.start() != pos:
            raise SignatureParseError(f"expected label, got {text[pos]!r}", pos)
        label = m.group(1)
        if m.group(2) is not None:
            exp = int(m.group(3))
            if exp < 1:
                raise SignatureParseError("exponent must be >= 1", m.start(2) + 1)
            out.append(label * exp)
        else:
            out.append(label)
        pos = m.end()
    return Signature(_canonical_relabel("".join(out)), degree)


def to_tagged(sig: Signature) -> str:
    """Stable textual form with the degree attached, e.g. "AAB@d2"."""
    return f"{sig.symbols}@d{sig.degree}"


def parse_tagged(text: str) -> Signature:
    """Parse "AAAB@d1" / "A^3B@d1" forms; a missing @d suffix means degree 1."""
    if "@" in text:
        body, _, tag = text.partition("@")
        if not tag.startswith("d"):
            raise SignatureParseError("degree tag must look like @d2", len(body) + 1)
        try:
            degree = int(tag[1:])
        except ValueError:
            raise SignatureParseError("degree tag must look like @d2", len(body) + 2)
        return parse(body, degree)
    return parse(text, 1)


def rins_rounds(sig: Signature) -> Optional[int]:
    """Recursion count r for A^r B shapes (AB gives 1); None otherwise.

    r leading calls of block A followed by one call of block B; expand()
    marks the r - 1 middle calls skip-eligible, so r_max = r.
    """
    s = sig.symbols
    if sig.degree == 1 and set(s) == {"A", "B"} and s == "A" * (len(s) - 1) + "B":
        return len(s) - 1
    return None


def leaf_label(leaf_id: int) -> str:
    """Display label for a leaf block id: A..Z, then AA, AB, ... for id >= 26."""
    if leaf_id < 0:
        raise ValueError(f"leaf id must be >= 0, got {leaf_id}")
    if leaf_id < 26:
        return chr(ord("A") + leaf_id)
    hi, lo = divmod(leaf_id - 26, 26)
    if hi >= 26:
        raise ValueError(f"leaf id {leaf_id} out of label range")
    return chr(ord("A") + hi) + chr(ord("A") + lo)


@dataclass(frozen=True)
class ExecutionPlan:
    """Flat execution recipe produced by expand().

    leaf_sequence lists leaf block ids (0-based, first-occurrence order) in
    execution order. unique_leaf_count is the number of distinct leaf blocks:
    parameters exist once per distinct leaf, so it fixes parameter count.
    skip_eligible marks positions the stochastic sampler may drop; the first
    and last positions are never eligible. r_max is 1 + the number of
    eligible positions, and calls(k) lists the leaf calls k rounds run.
    """

    leaf_sequence: tuple[int, ...]
    unique_leaf_count: int
    skip_eligible: tuple[bool, ...]
    source: Signature = field(compare=False)

    def __post_init__(self):
        if not self.leaf_sequence:
            raise ValueError("empty leaf sequence")
        if len(self.skip_eligible) != len(self.leaf_sequence):
            raise ValueError("skip mask length must match leaf sequence length")
        if any(i < 0 or i >= self.unique_leaf_count for i in self.leaf_sequence):
            raise ValueError("leaf id out of range for unique_leaf_count")
        if len(set(self.leaf_sequence)) != self.unique_leaf_count:
            raise ValueError("unique_leaf_count does not match leaf sequence")
        if self.skip_eligible and (self.skip_eligible[0] or self.skip_eligible[-1]):
            raise ValueError("first and last positions are never skip-eligible")

    def __len__(self) -> int:
        return len(self.leaf_sequence)

    @property
    def r_max(self) -> int:
        """Most rounds the plan runs: 1 + its skip-eligible positions."""
        return 1 + sum(self.skip_eligible)

    def calls(self, rounds: int) -> list[int]:
        """Leaf ids that `rounds` rounds execute, in order: every position
        that always runs plus the first rounds - 1 skip-eligible ones."""
        if not (1 <= rounds <= self.r_max):
            raise ValueError(f"rounds must be in [1, {self.r_max}], got {rounds}")
        eligible = [i for i, e in enumerate(self.skip_eligible) if e]
        dropped = set(eligible[rounds - 1:])
        return [leaf for i, leaf in enumerate(self.leaf_sequence) if i not in dropped]


def _expand_ids(symbols: str, degree: int, next_id: int) -> tuple[list[int], int]:
    # Recursive substitution. At each level, every distinct outer label gets
    # one fresh copy of the sub-expansion; repeats of a label reuse that copy.
    # Ids are handed out in first-occurrence order, as ExecutionPlan promises.
    if degree == 1:
        ids: dict[str, int] = {}
        seq = []
        for ch in symbols:
            if ch not in ids:
                ids[ch] = next_id
                next_id += 1
            seq.append(ids[ch])
        return seq, next_id
    sub: dict[str, list[int]] = {}
    seq = []
    for ch in symbols:
        if ch not in sub:
            sub[ch], next_id = _expand_ids(symbols, degree - 1, next_id)
        seq.extend(sub[ch])
    return seq, next_id


def expand(sig: Signature) -> ExecutionPlan:
    """Expand a signature into its flat ExecutionPlan.

    The skip mask is the stochastic-recursion shape for degree-1 A^r B (first
    and last calls always run, the r - 1 middle calls eligible) and all-False
    for everything else. Plans with other masks are built as ExecutionPlan
    directly.
    """
    seq, unique = _expand_ids(sig.symbols, sig.degree, 0)
    r = rins_rounds(sig)
    if r is None:
        mask = (False,) * len(seq)
    else:
        mask = (False,) + (True,) * (r - 1) + (False,)
    return ExecutionPlan(tuple(seq), unique, mask, sig)

