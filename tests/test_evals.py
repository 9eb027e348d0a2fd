"""MCQ rendering, scoring, and the held-out perplexity helper."""

import numpy as np
import pytest

import rinslab as rl


@pytest.fixture
def byte_model():
    dims = rl.ModelDims(
        d_model=16, n_heads=2, mlp_dim=32, vocab=257, seq_len=128, total_layers=2
    )
    m = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    return m, m.init_params(0), rl.ByteTokenizer()


class TestTemplates:
    def test_plain_concatenation(self):
        item = rl.MCQItem("The sky is", "", ("blue", "green"), 0)
        assert rl.render_template("plain", item, 0) == "The sky is blue"
        both = rl.MCQItem("ctx", "pfx", ("opt", "other"), 0)
        assert rl.render_template("plain", both, 0) == "ctx pfx opt"

    def test_plain_empty_context_no_leading_space(self):
        item = rl.MCQItem("", "", ("blue", "green"), 0)
        assert rl.render_template("plain", item, 1) == "green"

    def test_boolq_byte_exact(self):
        item = rl.MCQItem(
            "The lake froze.", "did the lake freeze?", ("no", "yes"), 1,
            style="boolq",
        )
        want = (
            "The lake froze. Based on this, the answer to the question: "
            "did the lake freeze?, is: yes"
        )
        assert rl.render_template("boolq", item, 1) == want

    def test_piqa_byte_exact(self):
        item = rl.MCQItem(
            "Deep clean coffee grinder.", "",
            ("Scrape with rice.", "Scrape with flour."), 0, style="piqa",
        )
        want = "The goal is: Deep clean coffee grinder. The solution is: Scrape with rice.."
        assert rl.render_template("piqa", item, 0) == want

    def test_boolq_requires_both_fields(self):
        with pytest.raises(rl.TemplateError):
            item = rl.MCQItem("passage", "", ("no", "yes"), 0, style="boolq")
            rl.render_template("boolq", item, 0)

    def test_unknown_style_rejected(self):
        item = rl.MCQItem("c", "p", ("a", "b"), 0)
        with pytest.raises(rl.TemplateError):
            rl.render_template("essay", item, 0)

    def test_item_validation(self):
        with pytest.raises(ValueError):
            rl.MCQItem("c", "p", ("only",), 0)  # needs >= 2 options
        with pytest.raises(ValueError):
            rl.MCQItem("c", "p", ("a", "b"), 5)  # gold out of range


class TestScoring:
    def test_scores_only_option_tokens(self, byte_model):
        m, p, tok = byte_model
        # same option under different contexts: conditioning length differs
        i1 = rl.MCQItem("a", "", ("zz", "qq"), 0)
        i2 = rl.MCQItem("completely different longer context", "", ("zz", "qq"), 0)
        s1 = rl.score_option(m, p, tok, i1, 0)
        s2 = rl.score_option(m, p, tok, i2, 0)
        assert np.isfinite(s1) and np.isfinite(s2)
        # per-token mean: a doubled option shouldn't double the score scale
        i3 = rl.MCQItem("a", "", ("zzzz", "qq"), 0)
        s3 = rl.score_option(m, p, tok, i3, 0)
        assert abs(s3 - s1) < 10 * abs(s1) + 1

    def test_uniform_model_scores_log_vocab(self, byte_model):
        m, p, tok = byte_model
        p = dict(p)
        p["head.w"] = np.zeros_like(p["head.w"])
        p["head.b"] = np.zeros_like(p["head.b"])
        item = rl.MCQItem("hello", "", ("ab", "xy"), 0)
        s = rl.score_option(m, p, tok, item, 0)
        assert s == pytest.approx(np.log(257), rel=1e-6)

    def test_tie_breaks_to_lowest_index(self, byte_model):
        m, p, tok = byte_model
        p = dict(p)
        p["head.w"] = np.zeros_like(p["head.w"])
        p["head.b"] = np.zeros_like(p["head.b"])
        items = [rl.MCQItem("ctx", "", ("aa", "bb", "cc"), 2)]
        res = rl.eval_mcq(m, p, tok, items)
        assert res.predictions == [0]
        assert res.accuracy == 0.0

    def test_option_permutation_invariance(self, byte_model):
        m, p, tok = byte_model
        base = rl.MCQItem("some context here", "", ("alpha", "beta", "gamma"), 0)
        perm = rl.MCQItem("some context here", "", ("gamma", "alpha", "beta"), 1)
        s_base = [rl.score_option(m, p, tok, base, i) for i in range(3)]
        s_perm = [rl.score_option(m, p, tok, perm, i) for i in range(3)]
        assert s_base[0] == s_perm[1]  # alpha
        assert s_base[1] == s_perm[2]  # beta
        assert s_base[2] == s_perm[0]  # gamma

    def test_context_overflow_names_item(self, byte_model):
        m, p, tok = byte_model
        item = rl.MCQItem("x" * 500, "", ("a", "b"), 0)
        with pytest.raises(rl.ContextOverflowError) as ei:
            rl.score_option(m, p, tok, item, 0)
        assert "seq_len" in str(ei.value) or "128" in str(ei.value)

    def test_empty_option_rejected(self, byte_model):
        m, p, tok = byte_model
        item = rl.MCQItem("ctx", "", ("", "b"), 1)
        with pytest.raises(rl.TemplateError):
            rl.score_option(m, p, tok, item, 0)

    def test_score_full_includes_context(self, byte_model):
        m, p, tok = byte_model
        item = rl.MCQItem("shared context", "", ("aa", "bb"), 0)
        s_opt = rl.score_option(m, p, tok, item, 0)
        s_full = rl.score_option(m, p, tok, item, 0, score_full=True)
        assert s_opt != s_full


def _packing_model(dtype, text="AB", kv_share=False, adapters=False, seq_len=96):
    dims = rl.ModelDims(
        d_model=16, n_heads=2, mlp_dim=32, vocab=257, seq_len=seq_len, total_layers=4
    )
    r = rl.rins_rounds(rl.parse(text))
    pol = rl.RecursionPolicy(r_max=r, kv_share=kv_share, adapters=adapters)
    m = rl.RecursiveModel(dims, rl.expand(rl.parse(text)), pol, dtype=dtype)
    p = m.init_params(2)
    rng = np.random.default_rng(7)
    for name in p:
        if name.startswith("adapter."):
            p[name] = p[name] + rng.normal(0.0, 0.2, size=p[name].shape).astype(dtype)
    # a non-flat head so options score apart
    p["head.w"] = rng.normal(0.0, 1.0, size=p["head.w"].shape).astype(dtype)
    return m, p, rl.ByteTokenizer()


PACKING_ITEMS = [
    rl.MCQItem("The lake froze.", "did the lake freeze?", ("no", "yes"), 1,
               style="boolq"),
    rl.MCQItem("Deep clean coffee grinder.", "",
               ("Scrape with rice.", "Scrape with flour.", "Rinse"), 0, style="piqa"),
    rl.MCQItem("the cat sat on the", "", ("mat", "moon", "map", "mop"), 0),
    rl.MCQItem("", "", ("blue sky", "green", "red wine"), 2),  # empty context
]


class TestPackedScoring:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("score_full", [False, True])
    @pytest.mark.parametrize(
        "text,kv_share,adapters", [("AB", False, False), ("A^3B", True, True),
                                   ("A^2B", False, True)],
    )
    def test_matches_per_option_scores(self, dtype, tol, score_full, text, kv_share,
                                       adapters):
        m, p, tok = _packing_model(dtype, text, kv_share, adapters)
        depths = list(range(1, m.policy.r_max + 1))
        results = rl.eval_mcq_depths(m, p, tok, PACKING_ITEMS, depths, score_full)
        assert len(results) == len(depths)
        for k, res in zip(depths, results):
            for item, scores in zip(PACKING_ITEMS, res.scores):
                want = [rl.score_option(m, p, tok, item, i, k, score_full)
                        for i in range(len(item.options))]
                np.testing.assert_allclose(scores, want, rtol=0, atol=tol)
            assert res.predictions == [int(np.argmin(s)) for s in res.scores]

    def test_each_depth_equals_eval_mcq(self):
        m, p, tok = _packing_model(np.float64, "A^3B", True, True)
        results = rl.eval_mcq_depths(m, p, tok, PACKING_ITEMS, [3, 1, 2, 3])
        for k, res in zip([3, 1, 2, 3], results):
            assert res == rl.eval_mcq(m, p, tok, PACKING_ITEMS, rounds=k)

    def test_packed_length_beyond_seq_len_still_scores(self):
        m, p, tok = _packing_model(np.float64, seq_len=48)
        item = rl.MCQItem("x" * 30, "", ("a" * 12, "b" * 12, "c" * 12), 1)
        # each rendered option needs 43 tokens; packed, they need 69
        res = rl.eval_mcq(m, p, tok, [item])
        want = [rl.score_option(m, p, tok, item, i) for i in range(3)]
        np.testing.assert_allclose(res.scores[0], want, rtol=0, atol=1e-10)

    def test_identical_options_tie_to_lower_index(self, monkeypatch):
        m, p, tok = _packing_model(np.float64)
        cheap = rl.eval_mcq(m, p, tok, [rl.MCQItem("ctx", "", ("aa", "zz"), 0)])
        lo, hi = ("aa", "zz") if cheap.predictions[0] == 0 else ("zz", "aa")
        lengths = []
        real = m.forward_depths

        def recorded(params, tokens, *args, **kwargs):
            lengths.append(np.shape(tokens)[-1])  # tokens are (B, T)
            return real(params, tokens, *args, **kwargs)

        monkeypatch.setattr(m, "forward_depths", recorded)
        item = rl.MCQItem("ctx", "", (hi, lo, lo), 2)
        res = rl.eval_mcq(m, p, tok, [item])
        assert lengths == [len("ctx") + 2 * len(" aa")]  # the duplicate packed once
        assert res.scores[0][1] == res.scores[0][2]
        assert res.predictions == [1]
        assert res.accuracy == 0.0

    def test_errors_raise_per_option_in_order(self):
        m, p, tok = _packing_model(np.float64, seq_len=24)
        long_second = rl.MCQItem("context", "", ("ok", "x" * 40, ""), 0)
        with pytest.raises(rl.ContextOverflowError) as ei:
            rl.eval_mcq(m, p, tok, [long_second])
        with pytest.raises(rl.ContextOverflowError) as alone:
            rl.score_option(m, p, tok, long_second, 1)
        assert str(ei.value) == str(alone.value)
        empty_second = rl.MCQItem("context", "", ("ok", "", "x" * 40), 0)
        with pytest.raises(rl.TemplateError, match="empty option 1"):
            rl.eval_mcq(m, p, tok, [empty_second])
        # a one-byte option with no context leaves nothing to score in full mode
        bare = rl.MCQItem("", "", ("ab", "c"), 0)
        with pytest.raises(rl.TemplateError, match="nothing to score for option 1"):
            rl.eval_mcq(m, p, tok, [bare], score_full=True)


def _mixed_items():
    """Items from 2 rendered tokens up to near seq_len 96, in no length order."""
    rng = np.random.default_rng(11)
    words = "the a lake froze cat sat on mat moon river stone".split()

    def text(n):
        return " ".join(rng.choice(words, n))

    items = [rl.MCQItem("a", "", ("b", "c"), 0)]  # "a b": 3 tokens
    for n in (14, 2, 9, 1, 12, 5):
        n_opts = int(rng.integers(2, 5))
        opts = tuple(text(int(rng.integers(1, 3))) for _ in range(n_opts))
        items.append(rl.MCQItem(text(n), "", opts, 0))
    items.append(rl.MCQItem("x" * 80, "", ("y" * 14, "z" * 10, "w"), 1))  # 95 tokens
    items.append(rl.MCQItem("", "", ("ab", "cd"), 1))
    return items + PACKING_ITEMS


class TestBatchedScoring:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("score_full", [False, True])
    @pytest.mark.parametrize(
        "text,kv_share,adapters", [("AB", False, False), ("A^3B", True, True)],
    )
    def test_mixed_lengths_match_per_option_scores(self, dtype, tol, score_full,
                                                   text, kv_share, adapters):
        m, p, tok = _packing_model(dtype, text, kv_share, adapters)
        items = _mixed_items()
        lengths = {len(tok.encode(rl.render_template(it.style, it, i)))
                   for it in items for i in range(len(it.options))}
        assert min(lengths) <= 3 and max(lengths) >= m.dims.seq_len - 2
        depths = list(range(1, m.policy.r_max + 1))
        with np.errstate(invalid="raise"):  # a fully masked row would make NaN
            results = rl.eval_mcq_depths(m, p, tok, items, depths, score_full)
        for k, res in zip(depths, results):
            for item, scores in zip(items, res.scores):
                want = [rl.score_option(m, p, tok, item, i, k, score_full)
                        for i in range(len(item.options))]
                np.testing.assert_allclose(scores, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    def test_scores_in_a_group_equal_scores_alone(self, dtype, tol):
        m, p, tok = _packing_model(dtype, "A^2B", adapters=True)
        items = _mixed_items()
        together = rl.eval_mcq_depths(m, p, tok, items, [1, 2])
        for n, item in enumerate(items):
            alone = rl.eval_mcq_depths(m, p, tok, [item], [1, 2])
            for res, one in zip(together, alone):
                np.testing.assert_allclose(res.scores[n], one.scores[0], rtol=0,
                                           atol=tol)

    def test_items_share_executor_calls(self, monkeypatch):
        m, p, tok = _packing_model(np.float32, "A^3B", True, True)
        items = _mixed_items()
        calls = []
        real = m.forward_depths

        def counted(params, tokens, *args, **kwargs):
            calls.append(np.shape(tokens))
            return real(params, tokens, *args, **kwargs)

        monkeypatch.setattr(m, "forward_depths", counted)
        rl.eval_mcq_depths(m, p, tok, items, [1, 2, 3])
        assert len(calls) < len(items)
        assert sum(shape[0] for shape in calls) == len(items)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "text,kv_share,adapters", [("AB", False, False), ("A^3B", False, False),
                                   ("A^3B", True, False), ("A^3B", False, True),
                                   ("A^3B", True, True)],
    )
    def test_helper_on_and_off_bitwise_equal(self, monkeypatch, dtype, text,
                                             kv_share, adapters):
        import rinslab.model as model_mod

        m, p, tok = _packing_model(dtype, text, kv_share, adapters)
        items = _mixed_items()
        depths = list(range(1, m.policy.r_max + 1))
        # one item per group (an odd count of groups), groups of a few
        # items (three at seq_len), then the default groups; the lane count
        # only switches the helper, so the groups and the scores are the
        # same on one lane and on two
        widest = m.dims.seq_len * m.dims.n_heads * m.dims.seq_len * m.dtype.itemsize
        for budget in (1, 3 * widest, model_mod._GROUP_BYTES):
            monkeypatch.setattr(model_mod, "_GROUP_BYTES", budget)
            runs = []
            for lanes in (1, 2):
                monkeypatch.setattr(model_mod, "_LANES", lanes)
                runs.append(rl.eval_mcq_depths(m, p, tok, items, depths))
            assert runs[0] == runs[1]


class TestEvalLoop:
    def test_accuracy_counts_gold_matches(self, byte_model):
        m, p, tok = byte_model
        rng = np.random.default_rng(0)
        items = []
        for _ in range(10):
            opts = tuple(
                "".join(chr(97 + rng.integers(0, 26)) for _ in range(4))
                for _ in range(4)
            )
            items.append(rl.MCQItem("ctx", "", opts, int(rng.integers(0, 4))))
        res = rl.eval_mcq(m, p, tok, items)
        manual = sum(
            1 for it, pred in zip(items, res.predictions) if pred == it.gold_index
        ) / len(items)
        assert res.accuracy == pytest.approx(manual)
        assert res.n_items == 10
        assert len(res.scores) == 10 and len(res.scores[0]) == 4

    def test_task_jsonl_round_trip(self, tmp_path):
        items = [
            rl.MCQItem("c1", "p1", ("a", "b"), 0, style="plain"),
            rl.MCQItem("passage", "question", ("no", "yes"), 1, style="boolq"),
        ]
        path = tmp_path / "tasks.jsonl"
        rl.write_task_jsonl(path, items)
        back = rl.read_task_jsonl(path)
        assert back == items

    def test_results_jsonl(self, tmp_path):
        import json

        rows = [{"task": "t", "rounds": 2, "accuracy": 0.5, "n_items": 4}]
        path = tmp_path / "res.jsonl"
        rl.write_results_jsonl(path, rows)
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[0])["accuracy"] == 0.5


class TestHeldOut:
    def test_matches_manual_weighted_mean(self, small_dims, small_batches):
        m = rl.RecursiveModel(
            small_dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy()
        )
        p = m.init_params(0)
        batches = small_batches[:3]
        got = rl.held_out_log_perplexity(m, p, batches)
        num = 0.0
        den = 0
        for b in batches:
            n = b.tokens.size
            num += m.loss(p, b.tokens, b.targets) * n
            den += n
        assert got == pytest.approx(num / den, rel=1e-6)

    def test_mask_reset_changes_value(self, small_dims, small_batches):
        m = rl.RecursiveModel(
            small_dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy()
        )
        p = m.init_params(1)
        plain = rl.held_out_log_perplexity(m, p, small_batches[:2])
        isolated = rl.held_out_log_perplexity(
            m, p, small_batches[:2], mask_reset=True
        )
        assert plain != isolated
