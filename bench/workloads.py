"""The three benchmark workloads, driven through rinslab's public API.

Each workload has the same shape:

    state = wl.setup(seed, workdir)   # everything before the timed phase
    wl.check(state)                   # untimed correctness gate -> failures
    wl.run_round(state)               # one timed pass over all variants

A round trains (or scores) the four variants AB, AAB, AAAB and AAAB-rins
(AAAB with p_skip 0.5, kv_share and adapters) once. Rounds of one run do
identical work, so their timings are samples of one quantity and their
results must agree exactly.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import rinslab as rl

VARIANTS: dict[str, dict] = {
    "AB": {},
    "AAB": {},
    "AAAB": {},
    "AAAB-rins": {"p_skip": 0.5, "kv_share": True, "adapters": True},
}


def _signature(variant: str) -> rl.Signature:
    return rl.parse(variant.split("-")[0])


def build_model(variant: str, dims: rl.ModelDims,
                dtype=np.float32) -> rl.RecursiveModel:
    sig = _signature(variant)
    policy = rl.RecursionPolicy(r_max=rl.rins_rounds(sig), **VARIANTS[variant])
    return rl.RecursiveModel(dims, rl.expand(sig), policy, dtype=dtype)


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _full_batches(docs, seq_len: int, batch: int, eos: int) -> list:
    got = [b for b in rl.pack_sequences(docs, seq_len, batch, eos_id=eos)
           if b.tokens.shape[0] == batch]
    if not got:
        raise ValueError(f"corpus too short for one {batch}x{seq_len} batch")
    return got


@dataclass
class Round:
    """What one timed round did. main: variant -> (tokens, seconds)."""

    main: dict[str, tuple[int, float]] = field(default_factory=dict)
    evals: list[tuple[int, float]] = field(default_factory=list)
    held: dict[str, float] = field(default_factory=dict)
    mcq_pairs: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    steps: int = 0
    slowness: float = 1.0  # machine slowness around the round (bench/speed.py)

    def fail(self, msg: str):
        self.failed += 1
        self.errors.append(msg)


@dataclass(frozen=True)
class TrainShape:
    d_model: int
    mlp_dim: int
    seq_len: int
    batch: int
    base_steps: int        # AB steps per round; the others are step-matched
    train_tokens: int
    held_tokens: int
    eval_interval: int = 1
    eval_repeats: int = 1  # timed passes of the benchmark's own held-out eval
    peak_lr: float = 3e-3
    n_heads: int = 4
    vocab: int = 65        # 64 grammar terminals + EOS
    total_layers: int = 4

    @property
    def dims(self) -> rl.ModelDims:
        return rl.ModelDims(d_model=self.d_model, n_heads=self.n_heads,
                            mlp_dim=self.mlp_dim, vocab=self.vocab,
                            seq_len=self.seq_len, total_layers=self.total_layers)

    def matched(self) -> dict[str, int]:
        ab = rl.expand(rl.parse("AB"))
        return {v: rl.matched_steps(ab, rl.expand(_signature(v)), self.dims,
                                    self.dims, self.base_steps)
                for v in VARIANTS}


# ------------------------------------------------------------ shared gates


def gradient_failures(seed: int) -> list[str]:
    """float64 finite-difference check of loss_and_grads for every variant
    at a tiny shape, at every round count the variant can execute."""
    dims = rl.ModelDims(d_model=8, n_heads=2, mlp_dim=16, vocab=13, seq_len=5,
                        total_layers=4)
    rng = _rngs(seed, 1)[0]
    tokens = rng.integers(0, dims.vocab, size=(2, dims.seq_len))
    targets = rng.integers(0, dims.vocab, size=(2, dims.seq_len))
    failures = []
    for variant in VARIANTS:
        model = build_model(variant, dims, dtype=np.float64)
        params = model.init_params(rng)
        for p in params.values():
            p += 0.05 * rng.standard_normal(p.shape)
        for rounds in range(1, model.policy.r_max + 1):
            _, grads, _ = model.loss_and_grads(params, tokens, targets, rounds=rounds)
            names = sorted(params)
            for _ in range(6):
                name = names[rng.integers(len(names))]
                idx = int(rng.integers(params[name].size))
                flat = params[name].reshape(-1)
                keep = flat[idx]
                eps = 1e-6
                flat[idx] = keep + eps
                up = model.loss(params, tokens, targets, rounds=rounds)
                flat[idx] = keep - eps
                down = model.loss(params, tokens, targets, rounds=rounds)
                flat[idx] = keep
                fd = (up - down) / (2 * eps)
                g = float(grads[name].reshape(-1)[idx])
                if not abs(fd - g) <= 1e-7 + 1e-5 * abs(g):
                    failures.append(
                        f"gradient {variant} rounds={rounds} {name}[{idx}]: "
                        f"analytic {g:.10g} vs finite difference {fd:.10g}")
    return failures


def _trace_failures(variant: str, trace: rl.LossTrace, steps: int) -> list[str]:
    out = []
    if trace.aborted:
        out.append(f"{variant}: training aborted: {trace.abort_reason}")
    if len(trace.records) != steps:
        out.append(f"{variant}: {len(trace.records)} trace rows, expected {steps}")
    if not np.all(np.isfinite(trace.train_losses())):
        out.append(f"{variant}: non-finite training loss")
    return out


# -------------------------------------------------------------- desk-train


# The desk rate is gentler than the desk demo's 3e-3 so that four steps
# without warm-up reliably bring held-out loss below ln(vocab).
DESK = TrainShape(d_model=160, mlp_dim=640, seq_len=96, batch=16, base_steps=4,
                  train_tokens=7_000, held_tokens=1_600, peak_lr=1e-3)
QUICK = TrainShape(d_model=48, mlp_dim=192, seq_len=48, batch=8, base_steps=60,
                   train_tokens=12_000, held_tokens=600, eval_interval=500,
                   eval_repeats=15)
TINY_TRAIN = TrainShape(d_model=16, mlp_dim=32, seq_len=12, batch=2, base_steps=24,
                        train_tokens=400, held_tokens=120, eval_interval=3)


class DeskTrain:
    """rl.train on in-memory batches; held-out loss after each variant.

    The TrainConfig seed (which drives stochastic-depth draws) is fixed, so
    every workload seed trains AAAB-rins on the same depth schedule; the
    workload seed sets the corpus, the held-out text and the init.
    """

    name = "desk-train"
    trains = True

    def __init__(self, shape: TrainShape = DESK):
        self.shape = shape
        self.dims = shape.dims
        self.vocab = shape.vocab

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.shape
        dims = s.dims
        spec = rl.default_grammar(seed=0, terminal_vocab=dims.vocab - 1)
        r_train, r_held = _rngs(seed, 2)
        eos = dims.vocab - 1
        batches = _full_batches(rl.generate_corpus(spec, s.train_tokens, rng=r_train),
                                s.seq_len, s.batch, eos)
        held = _full_batches(rl.generate_corpus(spec, s.held_tokens, rng=r_held),
                             s.seq_len, s.batch, eos)
        models = {v: build_model(v, dims) for v in VARIANTS}
        init = {v: m.init_params(seed) for v, m in models.items()}
        return {"seed": seed, "batches": batches, "held": held, "models": models,
                "init": init, "steps": s.matched()}

    def check(self, state: dict) -> list[str]:
        return gradient_failures(state["seed"])

    def run_round(self, state: dict) -> Round:
        s = self.shape
        out = Round()
        batches, held = state["batches"], state["held"]
        for variant, model in state["models"].items():
            steps = state["steps"][variant]
            params = {k: v.copy() for k, v in state["init"][variant].items()}
            cfg = rl.TrainConfig(peak_lr=s.peak_lr, total_steps=steps,
                                 batch_size=s.batch, seed=0)
            out.attempted += steps + 1
            try:
                t0 = time.perf_counter()
                trace, _ = rl.train(model, params, batches, cfg)
                dt = time.perf_counter() - t0
            except Exception as e:  # counted, the other variants still run
                out.fail(f"{variant}: train raised {type(e).__name__}: {e}")
                out.failed += steps
                continue
            problems = _trace_failures(variant, trace, steps)
            done = len(trace.records)
            if problems:
                out.failed += max(steps - done, 1)
                out.errors += problems
            out.steps += done
            out.main[variant] = (sum(batches[i % len(batches)].tokens.size
                                     for i in range(done)), dt)
            _held_eval(out, variant, model, params, held, None)
        return out


def _held_eval(out: Round, variant, model, params, batches, rounds, repeats: int = 1):
    """held_out_log_perplexity, timed over `repeats` identical passes that
    must agree bitwise."""
    try:
        t0 = time.perf_counter()
        losses = {rl.held_out_log_perplexity(model, params, batches, rounds=rounds)
                  for _ in range(repeats)}
        dt = time.perf_counter() - t0
    except Exception as e:
        out.fail(f"{variant}: held-out eval raised {type(e).__name__}: {e}")
        return None
    if len(losses) != 1:
        out.fail(f"{variant}: repeated held-out evals differ: {sorted(losses)}")
        return None
    loss = losses.pop()
    out.evals.append((repeats * sum(b.targets.size for b in batches), dt))
    if rounds is None or rounds == model.policy.r_max:
        out.held[variant] = loss
    return loss


# ------------------------------------------------------------- quick-train


_INI = """\
[run]
name = {name}
out_dir = {name}
seed = {seed}

[signature]
value = {signature}

[model]
d_model = {d_model}
n_heads = {n_heads}
mlp_dim = {mlp_dim}
vocab = {vocab}
seq_len = {seq_len}
total_layers = {total_layers}
{policy}
[train]
peak_lr = {peak_lr}
total_steps = {base_steps}
batch_size = {batch}
eval_interval = {eval_interval}

[corpus]
train = train.tokens
eval = held=held.tokens

[baseline]
signature = AB
steps = {base_steps}
"""


class QuickTrain:
    """rl.cmd_run on INI specs at the --quick shape, with pre-saved .tokens
    corpora; checkpoints and held-out evals run at the eval cadence.

    The INI `[run] seed` (init and stochastic-depth draws) is fixed at 0, so
    every workload seed trains AAAB-rins on the same depth schedule and does
    the same work; the workload seed sets the train and held-out corpora.
    """

    name = "quick-train"
    trains = True

    def __init__(self, shape: TrainShape = QUICK):
        self.shape = shape
        self.dims = shape.dims
        self.vocab = shape.vocab

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.shape
        dims = s.dims
        spec = rl.default_grammar(seed=0, terminal_vocab=dims.vocab - 1)
        r_train, r_held = _rngs(seed, 2)
        train_docs = rl.generate_corpus(spec, s.train_tokens, rng=r_train)
        held_docs = rl.generate_corpus(spec, s.held_tokens, rng=r_held)
        rl.save_tokens(workdir / "train.tokens", train_docs)
        rl.save_tokens(workdir / "held.tokens", held_docs)
        eos = dims.vocab - 1
        # cmd_run packs the same way, so these are the batches it trains on
        sizes = [b.tokens.size for b in
                 rl.pack_sequences(train_docs, s.seq_len, s.batch, eos_id=eos)]
        held = list(rl.pack_sequences(held_docs, s.seq_len, s.batch, eos_id=eos))
        configs = {}
        for variant, knobs in VARIANTS.items():
            policy = "".join(f"{k} = {str(v).lower()}\n" for k, v in knobs.items())
            name = variant.lower()
            path = workdir / f"{name}.ini"
            path.write_text(_INI.format(
                name=name, seed=0, signature=_signature(variant).symbols,
                policy=f"\n[policy]\n{policy}" if policy else "",
                **{k: getattr(s, k) for k in (
                    "d_model", "n_heads", "mlp_dim", "vocab", "seq_len",
                    "total_layers", "base_steps", "batch", "eval_interval",
                    "peak_lr")}),
                encoding="utf-8")
            configs[variant] = path
        return {"seed": seed, "configs": configs, "sizes": sizes, "held": held,
                "out_root": workdir / "runs", "steps": s.matched()}

    def check(self, state: dict) -> list[str]:
        return gradient_failures(state["seed"])

    def run_round(self, state: dict) -> Round:
        out = Round()
        sizes = state["sizes"]
        for variant, cfg_path in state["configs"].items():
            steps = state["steps"][variant]
            out.attempted += 1
            try:
                t0 = time.perf_counter()
                manifest = rl.cmd_run(cfg_path, out_root=str(state["out_root"]),
                                      force=True)
                dt = time.perf_counter() - t0
            except Exception as e:
                out.fail(f"{variant}: cmd_run raised {type(e).__name__}: {e}")
                continue
            run_dir = state["out_root"] / cfg_path.stem
            problems = self._run_dir_failures(variant, manifest, run_dir, steps)
            if problems:
                out.failed += 1
                out.errors += problems
                continue
            out.steps += steps
            out.main[variant] = (sum(sizes[i % len(sizes)] for i in range(steps)), dt)
            out.attempted += 1
            try:
                ckpt = rl.load_checkpoint(run_dir / "checkpoint.rlab")
                sig = rl.parse_tagged(ckpt.signature)
                model = rl.RecursiveModel(ckpt.dims, rl.expand(sig), ckpt.policy,
                                          dtype=np.dtype(ckpt.dtype))
            except Exception as e:
                out.fail(f"{variant}: checkpoint unreadable: {type(e).__name__}: {e}")
                continue
            loss = _held_eval(out, variant, model, ckpt.params, state["held"], None,
                              self.shape.eval_repeats)
            in_loop = manifest["final_eval_losses"].get("held")
            if loss is not None and not _close(loss, in_loop):
                out.fail(f"{variant}: held-out loss {loss!r} from the checkpoint "
                         f"differs from the run's final eval {in_loop!r}")
        return out

    @staticmethod
    def _run_dir_failures(variant, manifest, run_dir: Path, steps: int) -> list[str]:
        out = []
        if manifest.get("status") != "done":
            out.append(f"{variant}: run status {manifest.get('status')!r}: "
                       f"{manifest.get('abort_reason', '')}")
        if manifest.get("total_steps") != steps:
            out.append(f"{variant}: manifest total_steps {manifest.get('total_steps')} "
                       f"!= matched steps {steps}")
        with open(run_dir / "trace.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))[1:]
        with open(run_dir / "trace.jsonl", encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()][1:]
        for kind, n in (("trace.csv", len(rows)), ("trace.jsonl", len(records))):
            if n != steps:
                out.append(f"{variant}: {kind} has {n} rows, expected {steps}")
        if not all(math.isfinite(r["train_loss"]) for r in records):
            out.append(f"{variant}: non-finite training loss in trace.jsonl")
        return out


def _close(a: Optional[float], b: Optional[float], rtol: float = 1e-9) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * max(abs(a), abs(b))


# -------------------------------------------------------------- eval-depth


_WORDS = (
    "the a of and to in is was it for on that with as at by from this be are "
    "or have not had but one all were they we when there can an which their "
    "said if do will each about how up out them then she many some so these "
    "would other into has more her two like him see time could no make than "
    "first been its who now people my made over did down only way find use "
    "may water long little very after words called just where most know get "
    "through back much go good new write our me man too any day same right "
    "look think also around another came come work three word must because "
    "does part even place well such here take why things help put years "
    "different away again off went old number great tell men say small every "
    "found still between name should home big give air line set own under "
    "read last never us left end along while might next sound below saw "
    "something thought both few those always looked show large often together "
    "asked house world going want school important until form food keep "
    "children feet land side without boy once animals life enough took sometimes"
).split()


class _TextGen:
    """Seeded word-salad English: Zipf-weighted words, short sentences."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        w = 1.0 / np.arange(1, len(_WORDS) + 1)
        self.p = w / w.sum()

    def words(self, lo: int, hi: int) -> str:
        n = int(self.rng.integers(lo, hi + 1))
        return " ".join(_WORDS[i] for i in self.rng.choice(len(_WORDS), n, p=self.p))

    def sentence(self, lo: int = 6, hi: int = 12) -> str:
        s = self.words(lo, hi)
        return s[0].upper() + s[1:] + "."


EVAL_DIMS = rl.ModelDims(d_model=160, n_heads=4, mlp_dim=640, vocab=257,
                         seq_len=160, total_layers=4)
TINY_EVAL_DIMS = rl.ModelDims(d_model=16, n_heads=2, mlp_dim=32, vocab=257,
                              seq_len=160, total_layers=4)


class EvalDepth:
    """rl.cmd_eval over a seeded boolq/piqa/plain task file at every depth
    each byte-level variant can run, plus held-out log-perplexity per depth.

    The checkpoints are freshly initialized with the output bias set to the
    log unigram frequencies of seeded training text, so held-out loss beats
    a uniform guess without any training step in the workload.
    """

    name = "eval-depth"
    trains = False

    def __init__(self, dims: rl.ModelDims = EVAL_DIMS, n_items: int = 15,
                 held_docs: int = 30, held_batch: int = 4):
        self.dims = dims
        self.vocab = dims.vocab
        self.n_items = n_items
        self.held_docs = held_docs
        self.held_batch = held_batch

    def _items(self, gen: _TextGen) -> list[rl.MCQItem]:
        tok = rl.ByteTokenizer()
        items = []
        while len(items) < self.n_items:
            style = ("boolq", "piqa", "plain")[len(items) % 3]
            if style == "boolq":
                item = rl.MCQItem(gen.sentence(6, 10), "is " + gen.words(3, 5),
                                  ("yes", "no"), int(gen.rng.integers(2)), style)
            elif style == "piqa":
                item = rl.MCQItem(gen.sentence(4, 7), "",
                                  (gen.words(2, 5), gen.words(2, 5)),
                                  int(gen.rng.integers(2)), style)
            else:
                n_opt = int(gen.rng.integers(2, 4))
                item = rl.MCQItem(gen.sentence(5, 9), gen.words(1, 3),
                                  tuple(gen.words(1, 2) for _ in range(n_opt)),
                                  int(gen.rng.integers(n_opt)), style)
            longest = max(len(tok.encode(rl.render_template(style, item, i)))
                          for i in range(len(item.options)))
            if longest <= self.dims.seq_len and len(set(item.options)) == len(item.options):
                items.append(item)
        return items

    def setup(self, seed: int, workdir: Path) -> dict:
        tok = rl.ByteTokenizer()
        dims = self.dims
        r_train, r_held, r_items, r_init = _rngs(seed, 4)
        train_text = [tok.encode(_TextGen(r_train).sentence()) for _ in range(200)]
        held_gen = _TextGen(r_held)
        held_docs = [tok.encode(held_gen.sentence()) for _ in range(self.held_docs)]
        counts = np.ones(dims.vocab)
        for doc in train_text:
            np.add.at(counts, doc, 1.0)
        counts[tok.eos_id] += len(train_text)
        log_freq = np.log(counts / counts.sum())

        items = self._items(_TextGen(r_items))
        tasks = workdir / "tasks.jsonl"
        rl.write_task_jsonl(tasks, items)
        held = _full_batches(held_docs, dims.seq_len, self.held_batch, tok.eos_id)

        models, params, ckpts = {}, {}, {}
        for variant in VARIANTS:
            model = build_model(variant, dims)
            p = model.init_params(r_init)
            p["head.b"] = log_freq.astype(p["head.b"].dtype)
            path = workdir / f"{variant.lower()}.rlab"
            rl.save_checkpoint(path, dims, rl.to_tagged(model.plan.source),
                               model.policy, p)
            models[variant], params[variant], ckpts[variant] = model, p, path
        opt_tokens = sum(len(tok.encode(rl.render_template(it.style, it, i)))
                         for it in items for i in range(len(it.options)))
        return {"seed": seed, "items": items, "tasks": tasks, "held": held,
                "models": models, "params": params, "ckpts": ckpts,
                "opt_tokens": opt_tokens, "reference": {}}

    @staticmethod
    def depths(model: rl.RecursiveModel) -> list[int]:
        return list(range(1, model.policy.r_max + 1))

    def check(self, state: dict) -> list[str]:
        """eval_mcq scores against a reference from forward() logits on each
        full rendered sequence; stores the reference accuracy per depth."""
        tok = rl.ByteTokenizer()
        failures = []
        for variant, model in state["models"].items():
            params = state["params"][variant]
            for r in self.depths(model):
                got = rl.eval_mcq(model, params, tok, state["items"], rounds=r)
                correct, ties = 0, 0
                for n, item in enumerate(state["items"]):
                    ref = [_reference_score(model, params, tok, item, i, r)
                           for i in range(len(item.options))]
                    for i, (a, b) in enumerate(zip(got.scores[n], ref)):
                        if not abs(a - b) <= 1e-4:
                            failures.append(
                                f"{variant} rounds={r} item {n} option {i}: "
                                f"eval_mcq {a:.7g} vs reference {b:.7g}")
                    order = sorted(ref)
                    ties += order[1] - order[0] <= 2e-4
                    correct += int(np.argmin(ref)) == item.gold_index
                state["reference"][(variant, r)] = (correct / len(state["items"]),
                                                    ties / len(state["items"]))
        return failures

    def run_round(self, state: dict) -> Round:
        out = Round()
        n_items = len(state["items"])
        for variant, model in state["models"].items():
            depths = self.depths(model)
            out.attempted += n_items * len(depths)
            try:
                t0 = time.perf_counter()
                rows = rl.cmd_eval(state["ckpts"][variant], state["tasks"],
                                   rounds_list=depths)
                dt = time.perf_counter() - t0
            except Exception as e:
                out.fail(f"{variant}: cmd_eval raised {type(e).__name__}: {e}")
                out.failed += n_items * len(depths) - 1
                continue
            for row, r in zip(rows, depths):
                acc, tie_share = state["reference"].get((variant, r), (None, 0.0))
                if acc is None or abs(row["accuracy"] - acc) > tie_share + 1e-12:
                    out.fail(f"{variant} rounds={r}: cmd_eval accuracy "
                             f"{row['accuracy']} != reference {acc}")
            out.mcq_pairs += n_items * len(depths)
            out.main[variant] = (state["opt_tokens"] * len(depths), dt)
            for r in depths:
                out.attempted += 1
                _held_eval(out, variant, model, state["params"][variant],
                           state["held"], r)
        return out


def _reference_score(model, params, tok, item, option, rounds) -> float:
    cond, opt = rl.render_parts(item.style, item, option)
    cond_ids, opt_ids = tok.encode(cond), tok.encode(opt)
    ids = np.asarray(cond_ids + opt_ids, dtype=np.int64)
    logits = np.asarray(model.forward(params, ids, rounds=rounds), dtype=np.float64)
    logp = logits - logits.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    start = max(len(cond_ids), 1)
    return float(-logp[np.arange(start - 1, len(ids) - 1), ids[start:]].mean())


WORKLOADS = {"desk-train": DeskTrain, "quick-train": QuickTrain,
             "eval-depth": EvalDepth}


def make(name: str, tiny: bool = False):
    if not tiny:
        return WORKLOADS[name]()
    if name == "eval-depth":
        return EvalDepth(TINY_EVAL_DIMS, n_items=6, held_docs=12, held_batch=2)
    return WORKLOADS[name](TINY_TRAIN)
