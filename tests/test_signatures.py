"""Signature parsing, expansion, and the brute-force rewrite oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rinslab as rl
from rinslab.signatures import ExecutionPlan, leaf_label


def oracle_expand(symbols: str, degree: int) -> list[int]:
    """Textual-substitution expansion, mechanically unlike the library's
    recursive id allocator: rewrite each token into a fresh copy of the
    pattern degree-1 times, repeats reusing the first substitution, then
    number tokens by first appearance."""
    tokens = list(symbols)
    distinct = list(dict.fromkeys(symbols))
    for _ in range(degree - 1):
        sub_for: dict[str, list[str]] = {}
        new: list[str] = []
        for tok in tokens:
            if tok not in sub_for:
                sub = {ch: f"{tok}/{ch}" for ch in distinct}
                sub_for[tok] = [sub[ch] for ch in symbols]
            new.extend(sub_for[tok])
        tokens = new
    ids: dict[str, int] = {}
    out = []
    for tok in tokens:
        if tok not in ids:
            ids[tok] = len(ids)
        out.append(ids[tok])
    return out


def oracle_mask(symbols: str, degree: int, expanded_len: int) -> tuple[bool, ...]:
    r = None
    if degree == 1 and len(symbols) >= 3 and set(symbols) == {"A", "B"}:
        if symbols == "A" * (len(symbols) - 1) + "B":
            r = len(symbols) - 1
    if r is None:
        return (False,) * expanded_len
    return (False,) + (True,) * (r - 1) + (False,)


def all_canonical_signatures(max_len=4, max_symbols=3):
    """Every canonical signature string up to max_len over up to max_symbols."""
    letters = "ABC"[:max_symbols]
    for n in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=n):
            s = "".join(combo)
            seen = []
            ok = True
            for ch in s:
                if ch not in seen:
                    if ch != letters[len(seen)]:
                        ok = False
                        break
                    seen.append(ch)
            if ok:
                yield s


class TestParse:
    def test_caret_and_flat_forms_agree(self):
        assert rl.parse("A^3B") == rl.parse("AAAB")
        assert rl.parse("A^2B^2") == rl.parse("AABB")

    def test_noncanonical_relabeled(self):
        assert rl.parse("BBA").symbols == "AAB"
        assert rl.parse("CAB").symbols == "ABC"

    def test_degree_carried(self):
        sig = rl.parse("ABB", degree=2)
        assert sig.degree == 2
        assert sig.unique_leaf_count == 4

    def test_bad_inputs_raise_with_position(self):
        for text in ("", "A^", "A^0B", "ab", "A B", "A1B"):
            with pytest.raises(rl.SignatureParseError):
                rl.parse(text)

    def test_full_alphabet_allowed(self):
        import string

        sig = rl.parse(string.ascii_uppercase)
        assert sig.unique_leaf_count == 26

    def test_degree_must_be_positive(self):
        with pytest.raises(rl.SignatureParseError):
            rl.parse("AB", degree=0)

    def test_tagged_round_trip(self):
        sig = rl.parse("AAB", degree=3)
        assert rl.parse_tagged(rl.to_tagged(sig)) == sig
        assert rl.parse_tagged("AB") == rl.parse("AB")

    def test_render_uses_canonical_flat_form(self):
        assert rl.parse("A^3B").symbols == "AAAB"


class TestExpansionOracle:
    def test_matches_oracle_everywhere(self):
        # Acceptance criterion 1 runs this same sweep with a timer.
        for symbols in all_canonical_signatures(max_len=4, max_symbols=3):
            for degree in (1, 2, 3):
                sig = rl.parse(symbols, degree=degree)
                plan = rl.expand(sig)
                want = oracle_expand(symbols, degree)
                assert list(plan.leaf_sequence) == want, (symbols, degree)
                assert plan.unique_leaf_count == len(set(want))
                assert plan.unique_leaf_count == len(set(symbols)) ** degree
                assert plan.skip_eligible == oracle_mask(
                    symbols, degree, len(want)
                ), (symbols, degree)

    def test_paper_style_nested_example(self):
        plan = rl.expand(rl.parse("ABB", degree=2))
        assert list(plan.leaf_sequence) == [0, 1, 1, 2, 3, 3, 2, 3, 3]

    def test_rins_shapes(self):
        assert rl.rins_rounds(rl.parse("AAB")) == 2
        assert rl.rins_rounds(rl.parse("A^5B")) == 5
        assert rl.rins_rounds(rl.parse("AB")) == 1
        assert rl.rins_rounds(rl.parse("AAAB")) == 3
        assert rl.rins_rounds(rl.parse("ABB")) is None
        assert rl.rins_rounds(rl.parse("ABA")) is None
        assert rl.rins_rounds(rl.parse("AAB", degree=2)) is None

    def test_manual_mask_validation(self):
        sig = rl.parse("AAB")
        seq = (0, 0, 1)
        with pytest.raises(ValueError):
            rl.ExecutionPlan(seq, 2, (True, True, False), sig)  # first eligible
        with pytest.raises(ValueError):
            rl.ExecutionPlan(seq, 2, (False, True, True), sig)  # last eligible
        with pytest.raises(ValueError):
            rl.ExecutionPlan(seq, 2, (False, True), sig)  # wrong length


class TestPlanSerialization:
    def test_leaf_labels(self):
        assert leaf_label(0) == "A"
        assert leaf_label(25) == "Z"
        assert leaf_label(26) == "AA"


@st.composite
def signatures(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    n_sym = draw(st.integers(min_value=1, max_value=min(n, 4)))
    # random word over n_sym letters containing each at least once
    word = list("ABCD"[:n_sym]) + [
        draw(st.sampled_from("ABCD"[:n_sym])) for _ in range(n - n_sym)
    ]
    degree = draw(st.integers(min_value=1, max_value=3))
    return "".join(word), degree


@given(signatures())
@settings(max_examples=200, deadline=None)
def test_parse_render_round_trip(sig_spec):
    text, degree = sig_spec
    sig = rl.parse(text, degree=degree)
    assert rl.parse(sig.symbols, degree=degree) == sig
    assert rl.parse_tagged(rl.to_tagged(sig)) == sig


@given(signatures())
@settings(max_examples=100, deadline=None)
def test_expansion_invariants(sig_spec):
    text, degree = sig_spec
    sig = rl.parse(text, degree=degree)
    plan = rl.expand(sig)
    seq = plan.leaf_sequence
    assert len(seq) == len(text) ** degree
    assert len(set(seq)) == plan.unique_leaf_count
    # ids appear in first-occurrence order starting at 0
    firsts = list(dict.fromkeys(seq))
    assert firsts == list(range(plan.unique_leaf_count))
    # skip mask never marks first or last call
    assert not plan.skip_eligible[0]
    assert not plan.skip_eligible[-1]
