"""Grammar sampling, packing, and tokenizer behavior."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rinslab as rl


def two_symbol_grammar(p_recurse=0.4, cap=64, seed=0):
    # S -> 0 S (p) | 1 (1-p). Expected terminal frequencies are exactly
    # p and 1-p: E[zeros] = p/(1-p), E[ones] = 1 per document.
    return rl.GrammarSpec.from_productions(
        rules={"S": [((0, "S"), p_recurse), ((1,), 1 - p_recurse)]},
        start="S",
        depth_cap=cap,
        terminal_vocab=2,
        seed=seed,
    )


class TestGrammarValidation:
    def test_default_grammar_valid(self):
        spec = rl.default_grammar(seed=0)
        rl.validate_grammar(spec)  # should not raise
        depths = rl.min_depths(spec)
        assert all(np.isfinite(v) for v in depths.values())

    def test_nonterminating_rejected(self):
        with pytest.raises(rl.GrammarError):
            rl.GrammarSpec.from_productions(
                rules={"S": [(("S", "S"), 1.0)]},
                start="S",
                depth_cap=8,
                terminal_vocab=4,
                seed=0,
            )

    def test_bad_probability_sum_rejected(self):
        with pytest.raises(rl.GrammarError):
            rl.GrammarSpec.from_productions(
                rules={"S": [((0,), 0.5), ((1,), 0.4)]},
                start="S",
                depth_cap=8,
                terminal_vocab=2,
                seed=0,
            )

    def test_terminal_out_of_range_rejected(self):
        with pytest.raises(rl.GrammarError):
            rl.GrammarSpec.from_productions(
                rules={"S": [((5,), 1.0)]},
                start="S",
                depth_cap=8,
                terminal_vocab=2,
                seed=0,
            )


class TestSampling:
    def test_deterministic_given_seed(self):
        spec = rl.default_grammar(seed=3)
        a = rl.generate_corpus(spec, 5000)
        b = rl.generate_corpus(spec, 5000)
        assert a == b
        c = rl.generate_corpus(rl.default_grammar(seed=4), 5000)
        assert a != c

    def test_stationary_frequencies(self):
        docs = rl.generate_corpus(two_symbol_grammar(0.4), 1_000_000)
        flat = np.concatenate([np.asarray(d) for d in docs])
        freq0 = (flat == 0).mean()
        assert abs(freq0 - 0.4) < 0.01 * 0.4 + 0.005
        assert set(np.unique(flat)) <= {0, 1}

    def test_depth_cap_forces_termination(self):
        # With p_recurse=0.97 unbounded depth is near certain; the cap must
        # cut every document off via the min-depth production.
        spec = two_symbol_grammar(p_recurse=0.97, cap=10)
        docs = rl.generate_corpus(spec, 5000)
        assert max(len(d) for d in docs) <= 12
        assert all(d[-1] == 1 for d in docs)  # forced closer emits terminal

    def test_document_structure(self):
        docs = rl.generate_corpus(two_symbol_grammar(0.5), 2000)
        for d in docs[:50]:
            # shape is 0^k 1 exactly
            assert d[-1] == 1
            assert all(t == 0 for t in d[:-1])

    def test_default_grammar_token_range(self):
        docs = rl.generate_corpus(rl.default_grammar(seed=1), 10_000)
        flat = np.concatenate([np.asarray(d) for d in docs])
        assert flat.min() >= 0 and flat.max() < 64


def reference_sample(spec, rng):
    """One document by the plain sampler: every symbol pushed and popped,
    one np.searchsorted per sampled choice."""
    depths = rl.min_depths(spec)
    out, stack = [], [(spec.start, 0)]
    while stack:
        sym, depth = stack.pop()
        if not isinstance(sym, str):
            out.append(sym)
            continue
        prods = spec.rules[sym]
        if depth >= spec.depth_cap:
            rhs = min(prods, key=lambda pr: 1 + max(
                (depths[s] for s in pr[0] if isinstance(s, str)), default=0))[0]
        else:
            cum = np.cumsum([p for _, p in prods])
            idx = int(np.searchsorted(cum, rng.random(), side="right"))
            rhs = prods[min(idx, len(prods) - 1)][0]
        for child in reversed(rhs):
            stack.append((child, depth + 1))
    return out


def reference_corpus(spec, n_tokens, rng):
    docs, total = [], 0
    while total < n_tokens:
        doc = reference_sample(spec, rng)
        if doc:
            docs.append(doc)
            total += len(doc)
    return docs


class TestSamplerMatchesReference:
    """generate_corpus writes the reference sampler's documents and leaves
    the generator where the reference leaves it."""

    # S nests past a depth cap of 5 most of the time; T mixes a terminal
    # digram with a recursive production; S can also derive nothing
    CAPPED = rl.GrammarSpec.from_productions(
        rules={"S": [(("S", "S"), 0.6), (("T", 5), 0.3), ((), 0.1)],
               "T": [((1, "T"), 0.5), ((2, 3), 0.5)]},
        start="S", depth_cap=5, terminal_vocab=8, seed=2)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_house_grammar(self, seed):
        spec = rl.default_grammar(seed=seed)
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        assert rl.generate_corpus(spec, 4000, rng=ra) == reference_corpus(spec, 4000, rb)
        assert ra.random() == rb.random()

    @pytest.mark.parametrize("seed", [2, 9])
    def test_depth_capped_grammar(self, seed):
        spec = self.CAPPED
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        docs = rl.generate_corpus(spec, 3000, rng=ra)
        assert docs == reference_corpus(spec, 3000, rb)
        assert ra.random() == rb.random()
        # the cap shaped these documents: one level more gives others
        deeper = dataclasses.replace(spec, depth_cap=6)
        assert rl.generate_corpus(deeper, 3000, rng=np.random.default_rng(seed)) != docs

    def test_default_generator_is_seeded_by_the_spec(self):
        spec = rl.default_grammar(seed=5)
        assert rl.generate_corpus(spec, 2000) == reference_corpus(
            spec, 2000, np.random.default_rng(5))


class TestPacking:
    def test_window_shapes_and_shift(self, grammar_docs):
        batches = list(rl.pack_sequences(grammar_docs, 32, 8, eos_id=64))
        assert all(b.tokens.shape[1] == 32 for b in batches)
        for b in batches[:3]:
            assert np.array_equal(b.tokens[:, 1:], b.targets[:, :-1])
            assert b.tokens.dtype == np.int32

    def test_conservation(self, grammar_docs):
        seq_len = 32
        batches = list(rl.pack_sequences(grammar_docs, seq_len, 8, eos_id=64))
        stream_len = sum(len(d) + 1 for d in grammar_docs)
        n_windows = stream_len // (seq_len + 1)
        got_rows = sum(b.tokens.shape[0] for b in batches)
        assert got_rows == n_windows

    def test_boundaries_mark_eos(self, grammar_docs):
        batches = list(rl.pack_sequences(grammar_docs, 32, 8, eos_id=64))
        b = batches[0]
        assert np.array_equal(b.boundaries, b.tokens == 64)

    def test_empty_stream_warns(self):
        with pytest.warns(UserWarning):
            batches = list(rl.pack_sequences([], 32, 8, eos_id=64))
        assert batches == []

    def test_segments_from_boundaries(self):
        tokens = np.array([[5, 64, 7, 8, 64, 9]])
        bounds = tokens == 64
        seg = rl.segments_from_boundaries(bounds)
        assert seg.tolist() == [[0, 0, 1, 1, 1, 2]]


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=63), min_size=0, max_size=40),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_packing_properties(docs, seq_len, batch_size):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # tiny streams pack to nothing
        batches = list(rl.pack_sequences(docs, seq_len, batch_size, eos_id=64))
    stream_len = sum(len(d) + 1 for d in docs)
    n_windows = stream_len // (seq_len + 1)
    assert sum(b.tokens.shape[0] for b in batches) == n_windows
    for b in batches:
        assert 1 <= b.tokens.shape[0] <= batch_size
        assert np.array_equal(b.tokens[:, 1:], b.targets[:, :-1])
        # window contents reproduce the stream contiguously
        assert (b.tokens >= 0).all() and (b.tokens <= 64).all()


class TestTokenizer:
    def test_round_trip_ascii_and_utf8(self):
        tok = rl.ByteTokenizer()
        for text in ("hello world", "café ☃", ""):
            ids = tok.encode(text)
            assert tok.decode(ids) == text
        assert tok.vocab_size == 257
        assert tok.eos_id == 256

    def test_decode_drops_eos(self):
        tok = rl.ByteTokenizer()
        ids = tok.encode("ab") + [tok.eos_id]
        assert tok.decode(ids) == "ab"

    def test_ids_are_bytes(self):
        tok = rl.ByteTokenizer()
        assert tok.encode("A") == [65]


class TestStorage:
    def test_save_load_round_trip(self, tmp_path):
        docs = rl.generate_corpus(two_symbol_grammar(0.5), 3000)
        path = tmp_path / "corpus.tokens"
        rl.save_tokens(path, docs, meta={"origin": "test"})
        back, meta = rl.load_tokens(path)
        assert back == docs
        assert meta["origin"] == "test"
        assert meta["n_tokens"] == sum(len(d) for d in docs)

    def test_size_mismatch_detected(self, tmp_path):
        docs = [[1, 2, 3]]
        path = tmp_path / "c.tokens"
        rl.save_tokens(path, docs)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            rl.load_tokens(path)

    @pytest.mark.parametrize("lengths", [[3, 3], [6, 6], [4, -1, 7]])
    def test_doc_lengths_must_cover_the_file(self, tmp_path, lengths):
        # short, long, and a negative length that still sums to n_tokens
        path = tmp_path / "c.tokens"
        rl.save_tokens(path, [list(range(10))])
        sidecar = tmp_path / "c.tokens.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "doc_lengths": lengths}))
        with pytest.raises(ValueError, match="c.tokens"):
            rl.load_tokens(path)

    def test_ingest_text_splits_paragraphs(self, tmp_path):
        tok = rl.ByteTokenizer()
        f = tmp_path / "t.txt"
        f.write_text("first para\n\nsecond para", encoding="utf-8")
        docs = rl.ingest_text(f, tok)
        assert len(docs) == 2
        assert tok.decode(docs[0]) == "first para"
