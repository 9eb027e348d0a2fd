"""Acceptance gate: thirteen numbered criteria, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v`; a summary block at the end of
the session lists every criterion verdict. Criteria 12 and 13 train real
models at a reduced desk scale, so this file takes a few minutes.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
import scipy.stats

import rinslab as rl
from rinslab.lab import _batches_for, _resolve_corpus

import conftest
from test_signatures import all_canonical_signatures, oracle_expand, oracle_mask


def record(n: int, ok: bool, detail: str):
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_RESULTS[n] = (bool(ok), detail)
    assert ok, line


# ------------------------------------------------------------------ 1-3


def test_criterion_01_signature_oracle_sweep():
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for symbols in all_canonical_signatures(max_len=4, max_symbols=3):
        for degree in (1, 2, 3):
            plan = rl.expand(rl.parse(symbols, degree=degree))
            want_seq = oracle_expand(symbols, degree)
            want_mask = oracle_mask(symbols, degree, len(want_seq))
            ok = (
                list(plan.leaf_sequence) == want_seq
                and plan.unique_leaf_count == len(set(want_seq))
                and tuple(plan.skip_eligible) == want_mask
            )
            if not ok:
                mismatches.append((symbols, degree))
            checked += 1
    elapsed = time.perf_counter() - t0
    record(
        1,
        not mismatches and elapsed < 1.0,
        f"{checked} signature/degree pairs match the brute-force expander "
        f"(sequence, unique count, skip mask) in {elapsed:.3f}s"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_02_nested_literal():
    plan = rl.expand(rl.parse("ABB", degree=2))
    got = " ".join(rl.leaf_label(i) for i in plan.leaf_sequence)
    record(2, got == "A B B C D D C D D", f"(ABB) at degree 2 expands to {got!r}")


def test_criterion_03_compute_matching():
    from fractions import Fraction

    dims = rl.ModelDims(
        d_model=32, n_heads=2, mlp_dim=64, vocab=65, seq_len=32, total_layers=4
    )
    ab = rl.expand(rl.parse("AB"))
    aab = rl.expand(rl.parse("AAB"))
    abab = rl.expand(rl.parse("ABAB"))
    m1 = rl.matched_steps(ab, aab, dims, dims, 200_000)
    m2 = rl.matched_steps(ab, abab, dims, dims, 200_000)
    m3 = rl.matched_steps(ab, ab, dims, dims, 200_000)

    dims6 = dataclasses.replace(dims, total_layers=6)
    ratio = Fraction(
        int(rl.step_cost(rl.expand(rl.parse("ABBC")), dims6)),
        int(rl.step_cost(rl.expand(rl.parse("ABC")), dims6)),
    )
    ok = (m1, m2, m3) == (133_333, 100_000, 200_000) and ratio == Fraction(4, 3)
    record(
        3,
        ok,
        f"matched steps AB->AAB {m1}, AB->ABAB {m2}, identity {m3}; "
        f"ABBC/ABC layer-pass cost ratio {ratio}",
    )


# ------------------------------------------------------------------ 4-7


def _fd_rel_errors(model, params, tokens, targets, rounds, h=1e-6):
    """(worst relative error, worst absolute diff, name). Absolute diffs below
    1e-9 count as agreement: FD noise there swamps any relative measure, and a
    genuinely wrong gradient differs by orders of magnitude more."""
    _, grads, _ = model.loss_and_grads(params, tokens, targets, rounds=rounds)
    worst = 0.0
    worst_abs = 0.0
    worst_name = ""
    for name in sorted(params):
        w = params[name]
        g = grads[name]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            lp = model.loss(params, tokens, targets, rounds=rounds)
            w[idx] = orig - h
            lm = model.loss(params, tokens, targets, rounds=rounds)
            w[idx] = orig
            fd = (lp - lm) / (2 * h)
            diff = abs(g[idx] - fd)
            worst_abs = max(worst_abs, diff)
            if diff < 1e-9:
                continue
            rel = diff / max(abs(g[idx]), abs(fd))
            if rel > worst:
                worst, worst_name = rel, name
    return worst, worst_abs, worst_name


def test_criterion_04_gradients_match_finite_differences(tiny_dims):
    t0 = time.perf_counter()
    plan = rl.expand(rl.parse("AAAB"))
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, tiny_dims.vocab, size=tiny_dims.seq_len)
    targets = rng.integers(0, tiny_dims.vocab, size=tiny_dims.seq_len)
    worst = 0.0
    worst_abs = 0.0
    worst_at = "-"
    for adapters in (False, True):
        for kv_share in (False, True):
            policy = rl.RecursionPolicy(
                r_max=3, adapters=adapters, kv_share=kv_share
            )
            model = rl.RecursiveModel(tiny_dims, plan, policy, dtype=np.float64)
            params = model.init_params(1)
            for name in params:  # move off the symmetric init point
                params[name] = params[name] + 0.01 * rng.standard_normal(
                    params[name].shape
                )
            for rounds in (1, 2, 3):
                rel, ab, name = _fd_rel_errors(model, params, tokens, targets, rounds)
                worst_abs = max(worst_abs, ab)
                if rel > worst:
                    worst = rel
                    worst_at = f"{name} (rounds={rounds} ad={adapters} kv={kv_share})"
    elapsed = time.perf_counter() - t0
    record(
        4,
        worst < 1e-4 and elapsed < 120.0,
        f"max FD relative error {worst:.3g} (worst absolute diff "
        f"{worst_abs:.2g}, worst site {worst_at}), over rounds 1-3 x adapters "
        f"on/off x kv_share on/off, all parameters, in {elapsed:.1f}s",
    )


def test_criterion_05_tied_gradient_identity(tiny_dims):
    tied_model = rl.RecursiveModel(
        tiny_dims, rl.expand(rl.parse("AAB")), rl.RecursionPolicy(r_max=2),
        dtype=np.float64,
    )
    tied = tied_model.init_params(3)
    clone_dims = dataclasses.replace(tiny_dims, total_layers=6)
    clone_model = rl.RecursiveModel(
        clone_dims, rl.expand(rl.parse("ABC")), rl.RecursionPolicy(),
        dtype=np.float64,
    )
    clone = {}
    for name, arr in tied.items():
        if name.startswith("block.A."):
            clone[name] = arr.copy()
            clone[name.replace("block.A.", "block.B.")] = arr.copy()
        elif name.startswith("block.B."):
            clone[name.replace("block.B.", "block.C.")] = arr.copy()
        else:
            clone[name] = arr.copy()

    rng = np.random.default_rng(5)
    tokens = rng.integers(0, tiny_dims.vocab, size=tiny_dims.seq_len)
    targets = rng.integers(0, tiny_dims.vocab, size=tiny_dims.seq_len)
    _, g_tied, _ = tied_model.loss_and_grads(tied, tokens, targets)
    _, g_clone, _ = clone_model.loss_and_grads(clone, tokens, targets)

    worst = 0.0
    for name in g_tied:
        if name.startswith("block.A."):
            summed = g_clone[name] + g_clone[name.replace("block.A.", "block.B.")]
        elif name.startswith("block.B."):
            summed = g_clone[name.replace("block.B.", "block.C.")]
        else:
            summed = g_clone[name]
        worst = max(worst, float(np.max(np.abs(g_tied[name] - summed))))
    record(
        5,
        worst < 1e-10,
        f"tied AAB gradients equal per-call sums of an untied ABC clone, "
        f"max abs diff {worst:.3g}",
    )


def test_criterion_06_rounds_one_equals_plain_ab(small_dims):
    rec = rl.RecursiveModel(
        small_dims, rl.expand(rl.parse("AAAB")), rl.RecursionPolicy(r_max=3)
    )
    plain = rl.RecursiveModel(
        small_dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy()
    )
    params = rec.init_params(0)
    assert sorted(params) == sorted(plain.init_params(0))
    rng = np.random.default_rng(7)
    mismatch = 0
    for _ in range(100):
        tokens = rng.integers(0, small_dims.vocab, size=small_dims.seq_len)
        targets = rng.integers(0, small_dims.vocab, size=small_dims.seq_len)
        la = rec.forward(params, tokens, rounds=1)
        lb = plain.forward(params, tokens)
        l1, g1, _ = rec.loss_and_grads(params, tokens, targets, rounds=1)
        l2, g2, _ = plain.loss_and_grads(params, tokens, targets)
        same = (
            np.array_equal(la, lb)
            and l1 == l2
            and sorted(g1) == sorted(g2)
            and all(np.array_equal(g1[k], g2[k]) for k in g1)
        )
        mismatch += not same
    record(
        6,
        mismatch == 0,
        f"recursive executor at rounds=1 bitwise-equal to plain AB on 100 "
        f"random inputs ({mismatch} mismatches): logits, loss, grads",
    )


def test_criterion_07_adapters_identity_at_init(small_dims):
    plan = rl.expand(rl.parse("AAAB"))
    with_a = rl.RecursiveModel(
        small_dims, plan, rl.RecursionPolicy(r_max=3, adapters=True)
    )
    without = rl.RecursiveModel(small_dims, plan, rl.RecursionPolicy(r_max=3))
    pa = with_a.init_params(0)
    pb = {k: v for k, v in pa.items() if not k.startswith("adapter.")}
    rng = np.random.default_rng(11)
    changed = 0
    for rounds in (1, 2, 3):
        tokens = rng.integers(0, small_dims.vocab, size=small_dims.seq_len)
        changed += not np.array_equal(
            with_a.forward(pa, tokens, rounds=rounds),
            without.forward(pb, tokens, rounds=rounds),
        )
    record(
        7,
        changed == 0,
        "identity-initialized adapters leave every logit bitwise unchanged "
        "at rounds 1-3",
    )


# ------------------------------------------------------------------ 8-9


def test_criterion_08_stochastic_sampling(small_dims):
    policy = rl.RecursionPolicy(r_max=3, p_skip=0.5)
    rng = np.random.default_rng(2024)
    draws = rl.sample_rounds(policy, rng, size=100_000)
    counts = np.bincount(draws, minlength=4)[1:4]
    expected = 100_000 * np.array([0.25, 0.5, 0.25])
    chi = scipy.stats.chisquare(counts, expected)
    mean = float(draws.mean())
    sigma = float(np.sqrt(2 * 0.25 / 100_000))  # Binomial(2, 1/2) mean spread
    mean_ok = abs(mean - 2.0) <= 3 * sigma

    model = rl.RecursiveModel(
        small_dims, rl.expand(rl.parse("AAAB")), policy
    )
    lpb = model.layers_per_block
    seq = small_dims.seq_len
    cost_at = {
        k: len(model.plan.calls(k)) * lpb * seq for k in (1, 2, 3)
    }
    sub = draws[:10_000]
    realized = float(np.mean([cost_at[int(k)] for k in sub]))
    expected_cost = rl.expected_stochastic_cost(model.plan, small_dims, 0.5)
    cost_ok = abs(realized - expected_cost) / expected_cost < 0.01

    record(
        8,
        chi.pvalue > 0.01 and mean_ok and cost_ok,
        f"1e5 draws at (r=3, p_skip=0.5): chi-square p={chi.pvalue:.3f} vs "
        f"Binomial(2,0.5), mean {mean:.4f} within 3 sigma of 2.0; realized "
        f"cost {realized:.1f} vs ledger {expected_cost:.1f} "
        f"({abs(realized - expected_cost) / expected_cost:.2%})",
    )


def test_criterion_09_kv_cache_accounting(small_dims):
    plan = rl.expand(rl.parse("AAAAB"))
    shared = rl.RecursiveModel(
        small_dims, plan, rl.RecursionPolicy(r_max=4, kv_share=True)
    )
    plain = rl.RecursiveModel(small_dims, plan, rl.RecursionPolicy(r_max=4))
    shared_bytes = [shared.kv_cache_bytes(rounds=k) for k in (1, 2, 3, 4)]
    plain_bytes = [plain.kv_cache_bytes(rounds=k) for k in (1, 2, 3, 4)]
    diffs = set(np.diff(plain_bytes).tolist())
    linear = len(diffs) == 1 and next(iter(diffs)) > 0
    constant = len(set(shared_bytes)) == 1
    record(
        9,
        constant and linear,
        f"kv_share bytes constant across rounds 1-4 ({shared_bytes[0]}); "
        f"unshared exactly linear {plain_bytes}",
    )


# ------------------------------------------------------------------ 10


def test_criterion_10_scaling_law_recovery():
    x = np.geomspace(1e2, 1e6, 40)
    clean = 2.0 * x**-0.5 + 0.1

    f = rl.fit_power_law(list(zip(x, clean)))
    noiseless_errs = (
        abs(f.beta - 2.0) / 2.0,
        abs(f.c - 0.5) / 0.5,
        abs(f.eps_inf - 0.1) / 0.1,
    )
    noiseless_ok = max(noiseless_errs) < 0.01

    errs = {"beta": [], "c": [], "eps_inf": []}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = clean * np.exp(rng.normal(0.0, 0.01, size=x.size))
        fn = rl.fit_power_law(list(zip(x, noisy)))
        errs["beta"].append(abs(fn.beta - 2.0) / 2.0)
        errs["c"].append(abs(fn.c - 0.5) / 0.5)
        errs["eps_inf"].append(abs(fn.eps_inf - 0.1) / 0.1)
    medians = {k: f"{float(np.median(v)):.2%}" for k, v in errs.items()}
    noisy_ok = max(float(np.median(v)) for v in errs.values()) < 0.05

    f_scaled = rl.fit_power_law(list(zip(x * 1000.0, clean)))
    rescale_err = abs(f_scaled.c - f.c) / f.c
    rescale_ok = rescale_err < 0.01

    fam = {
        1: rl.FitResult(3.0, 0.45, 0.12, 0.0, 8, 1e2, 1e8),
        2: rl.FitResult(5.0, 0.60, 0.05, 0.0, 8, 1e2, 1e8),
    }
    res = rl.optimal_r(fam, np.geomspace(1e2, 1e8, 4000))
    bps = {r: xb for xb, r in res.breakpoints}
    lo, hi = 1e2, 1e8
    fa, fb = fam[1], fam[2]
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if fa.predict(mid) - fb.predict(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = np.sqrt(lo * hi)
    bp_err = abs(bps[2] - oracle) / oracle
    bp_ok = bp_err < 0.02

    record(
        10,
        noiseless_ok and noisy_ok and rescale_ok and bp_ok,
        f"noiseless recovery errs {tuple(f'{e:.2%}' for e in noiseless_errs)}; "
        f"1% log-normal noise medians over 20 seeds {medians}; x-rescale c "
        f"drift {rescale_err:.2%}; breakpoint vs bisection {bp_err:.2%}",
    )


# ------------------------------------------------------------------ 11


def test_criterion_11_eval_protocol():
    tok = rl.ByteTokenizer()

    # untrained model on random 4-option items: chance level
    dims = rl.ModelDims(
        d_model=16, n_heads=2, mlp_dim=32, vocab=257, seq_len=64, total_layers=2
    )
    model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    params = model.init_params(0)
    rng = np.random.default_rng(100)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    items = []
    for _ in range(400):
        ctx = "".join(rng.choice(letters, size=12))
        opts = tuple("".join(rng.choice(letters, size=6)) for _ in range(4))
        items.append(rl.MCQItem(ctx, "", opts, int(rng.integers(0, 4))))
    chance = rl.eval_mcq(model, params, tok, items).accuracy
    band = 3 * float(np.sqrt(0.25 * 0.75 / 400))
    chance_ok = abs(chance - 0.25) <= band

    # copy task after overfitting: every document fills one packed window so
    # the rendered item reproduces the training layout exactly
    cdims = rl.ModelDims(
        d_model=32, n_heads=2, mlp_dim=64, vocab=257, seq_len=48, total_layers=2
    )
    cmodel = rl.RecursiveModel(cdims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    cparams = cmodel.init_params(0)
    words = ["bramble", "cathode", "drizzle", "harpoon", "lantern", "mineral"]
    docs = [tok.encode(f"{w} {w}".ljust(48)) for w in words] * 6
    batches = list(rl.pack_sequences(docs, 48, 6, eos_id=256))
    cfg = rl.TrainConfig(peak_lr=1e-2, warmup_steps=10, total_steps=300, seed=0)
    trace, _ = rl.train(cmodel, cparams, batches, cfg)
    copy_items = [
        rl.MCQItem(w, "", tuple(words[(i + k) % len(words)] for k in range(4)), 0)
        for i, w in enumerate(words)
    ]
    copy_acc = rl.eval_mcq(cmodel, cparams, tok, copy_items).accuracy

    # option permutation invariance, exact
    base = rl.MCQItem("some context here", "", ("alpha", "beta", "gamma"), 0)
    perm = rl.MCQItem("some context here", "", ("gamma", "alpha", "beta"), 1)
    sb = [rl.score_option(model, params, tok, base, i) for i in range(3)]
    sp = [rl.score_option(model, params, tok, perm, i) for i in range(3)]
    perm_ok = sb[0] == sp[1] and sb[1] == sp[2] and sb[2] == sp[0]

    # template byte-exactness
    bq = rl.render_template(
        "boolq",
        rl.MCQItem("The lake froze.", "did the lake freeze?", ("no", "yes"), 1,
                   style="boolq"),
        1,
    )
    pq = rl.render_template(
        "piqa",
        rl.MCQItem("Deep clean coffee grinder.", "",
                   ("Scrape with rice.", "Scrape with flour."), 0, style="piqa"),
        0,
    )
    bytes_ok = bq == (
        "The lake froze. Based on this, the answer to the question: "
        "did the lake freeze?, is: yes"
    ) and pq == (
        "The goal is: Deep clean coffee grinder. The solution is: "
        "Scrape with rice.."
    )

    record(
        11,
        chance_ok and copy_acc == 1.0 and perm_ok and bytes_ok,
        f"untrained accuracy {chance:.3f} within 25% +/- {band:.3f}; copy "
        f"task {copy_acc:.0%} after overfitting (final loss "
        f"{trace.records[-1].train_loss:.4f}); permutation invariance exact; "
        f"templates byte-exact",
    )


# ------------------------------------------------------------- 12-13 (desk)


DESK_INI = """
[run]
name = {name}
out_dir = desk/{tag}
seed = 0

[signature]
value = {signature}

[model]
d_model = 48
n_heads = 4
mlp_dim = 192
vocab = 65
seq_len = 48
total_layers = 4
{policy}
[train]
peak_lr = 3e-3
warmup_steps = 50
total_steps = 1500
batch_size = 8
eval_interval = 500

[corpus]
train = grammar:60000
eval = held=grammar:8000

[baseline]
signature = AB
steps = 1500
"""


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Five compute-matched runs on the shared grammar corpus.

    AB / AAB / AAAB deterministic (depth comparison) plus two stochastic
    adapter-on AAB runs (skip rates 0.5 and 0.8). Reduced scale: the full
    configuration lives in demos/desk_scale_run.py.
    """
    root = tmp_path_factory.mktemp("desk")
    specs = [
        ("desk-ab", "ab", "AB", ""),
        ("desk-aab", "aab", "AAB", ""),
        ("desk-aaab", "aaab", "AAAB", ""),
        ("desk-aab-p05", "aab-p05", "AAB", "\n[policy]\np_skip = 0.5\nadapters = true\n"),
        ("desk-aab-p08", "aab-p08", "AAB", "\n[policy]\np_skip = 0.8\nadapters = true\n"),
    ]
    dirs = {}
    for name, tag, sig, policy in specs:
        cfg = root / f"{name}.ini"
        cfg.write_text(
            DESK_INI.format(name=name, tag=tag, signature=sig, policy=policy)
        )
        manifest = rl.cmd_run(cfg, out_root=str(root / "runs"))
        assert manifest["status"] == "done", (name, manifest.get("abort_reason"))
        dirs[name] = root / "runs" / "desk" / tag
    return root, dirs


def test_criterion_12_desk_scale_depth_comparison(desk_runs, tmp_path):
    root, dirs = desk_runs
    out_dir = tmp_path / "report"
    family = [str(dirs["desk-ab"]), str(dirs["desk-aab"]), str(dirs["desk-aaab"])]
    summary = rl.cmd_report(family, out_dir, last_frac=0.5)

    artifacts_ok = all(
        (out_dir / f).exists()
        for f in ("fits.json", "summary.json", "breakpoints.csv",
                  "curve-desk-ab.csv", "curve-desk-aab.csv",
                  "curve-desk-aaab.csv")
    )
    fits = summary["fits"]
    fits_ok = all(
        np.isfinite(v["c"]) and np.isfinite(v["eps_inf"]) and v["beta"] > 0
        for v in fits.values()
    )
    pattern = summary.get("pattern", {})
    held = pattern.get("c_increases_with_r") and pattern.get(
        "final_loss_decreases_with_r"
    )
    per_r = {
        name: (round(v["c"], 4), round(v["eps_inf"], 4))
        for name, v in fits.items()
    }
    record(
        12,
        artifacts_ok and fits_ok,
        "compute-matched AB/AAB/AAAB runs emitted loss-vs-compute CSVs and "
        f"fitted (c, eps_inf) per r: {per_r}; directional pattern "
        f"{'HELD' if held else 'NOT HELD'} at this reduced scale "
        f"(flags {pattern}; reported, not asserted)",
    )


def test_criterion_13_stochastic_no_regret(desk_runs):
    root, dirs = desk_runs
    base_manifest = json.loads(
        (dirs["desk-ab"] / "manifest.json").read_text()
    )
    base_loss = base_manifest["final_eval_losses"]["held"]

    gaps = {}
    for p, name in ((0.5, "desk-aab-p05"), (0.8, "desk-aab-p08")):
        ckpt = rl.load_checkpoint(dirs[name] / "checkpoint.rlab")
        model = rl.RecursiveModel(
            ckpt.dims, rl.expand(rl.parse_tagged(ckpt.signature)), ckpt.policy
        )
        eval_docs = _resolve_corpus("grammar:8000", ckpt.dims, 1, root)
        eval_batches = _batches_for(eval_docs, ckpt.dims, 8)
        loss_r1 = rl.held_out_log_perplexity(
            model, ckpt.params, eval_batches, rounds=1
        )
        gaps[p] = (loss_r1 - base_loss) / base_loss

    ok = all(abs(g) < 0.05 for g in gaps.values())
    record(
        13,
        ok,
        "rounds=1 eval after stochastic adapter-on training vs compute-matched "
        f"baseline final held-out loss {base_loss:.4f}: relative gaps "
        + ", ".join(f"p_skip={p}: {g:+.2%}" for p, g in sorted(gaps.items()))
        + f" (caveat: verified at reduced desk scale, "
        f"{base_manifest['params_count']:,} parameters)",
    )
