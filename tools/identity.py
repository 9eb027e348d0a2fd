#!/usr/bin/env python3
"""Byte-identity check: one fixed battery of outputs from two source trees.

    python3 tools/identity.py --rev <git rev>

Extracts `git archive <rev>` into a temporary directory and runs the battery
(see battery()) once against that tree and once against the working tree this
script sits in. Each run is a child process with PYTHONPATH=<tree>/src, one
BLAS thread and the same seeds. It prints the machine facts, then every
output whose sha256 differs or that only one tree wrote, and exits 1 if there
is any such output, else 0.

The battery calls rinslab's public API only, so it runs against older trees.
A section that raises, a name that a tree lacks included, writes
<section>.error with the exception instead of crashing the run; the
comparison then reports that file. Manifests are compared without
started_at, finished_at and processes, which vary from run to run.

Bitwise results hold on one machine with one BLAS build: OpenBLAS with
DYNAMIC_ARCH picks its kernels by CPU. So the two trees are compared within
one invocation, never against outputs saved elsewhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("signature_taxonomy", "compute_matching", "gradient_verification",
         "grammar_corpus", "scaling_fits", "mcq_eval")
VOLATILE = ("started_at", "finished_at", "processes")  # manifest keys left out
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_RUN = """\
[run]
name = {name}
seed = 3

[signature]
value = {signature}

[model]
d_model = 16
n_heads = 2
mlp_dim = 32
vocab = 257
seq_len = 24
total_layers = 4
{policy}
[train]
peak_lr = 3e-3
warmup_steps = 1
total_steps = 12
batch_size = 4
eval_interval = 3
{train}
[corpus]
train = train.tokens
eval = held=held.tokens
"""

# name -> (signature, [policy] lines, extra [train] lines)
RUNS = {
    "ab": ("AB", "", ""),
    "aab-kv-ad": ("AAB", "kv_share = true\nadapters = true\n", ""),
    "aaab-rins": ("AAAB", "p_skip = 0.5\nkv_share = true\nadapters = true\n", ""),
    "aaab-reset": ("AAAB", "", "mask_reset = true\n"),
}

_SWEEP = """\
[sweep]
name = sweep
baseline_signature = AB
baseline_steps = 8

[model]
d_model = 8
n_heads = 2
mlp_dim = 16
vocab = 65
seq_len = 12
total_layers = 4

[train]
peak_lr = 3e-3
total_steps = 8
batch_size = 2

[corpus]
train = grammar:300
"""

# (seq_len, batch_size, doc lengths, eos id): short, long, empty and exact-fit
# documents, a last partial batch, windows of one token pair and a stream too
# short for one window
PACK_CASES = [
    (8, 2, (5, 9, 3, 12, 7), 64), (8, 4, (5, 9, 3, 12, 7), 64),
    (4, 3, (0, 0, 4, 1), 64), (16, 1, (40,), 64), (2, 5, (1,) * 13, 64),
    (1, 3, (2, 2, 2), 64), (7, 2, (6, 6, 6, 6), 63), (5, 8, (3,) * 4, 64),
    (12, 2, (11, 0, 23, 5, 1), 64), (3, 3, (30,), 64), (9, 2, (8,), 64),
    (6, 6, tuple(range(12)), 64),
]


# ------------------------------------------------------------------- battery


def battery(out: Path, demos: Path):
    """Write every battery output under out (the child's working directory),
    one section at a time, each section's failure to <section>.error."""
    import numpy as np

    import rinslab as rl

    def section(name, fn):
        try:
            fn()
        except Exception as e:  # a missing name or any other failure, recorded
            (out / f"{name}.error").write_text(f"{type(e).__name__}: {e}\n",
                                               encoding="utf-8")

    def corpora():
        spec = rl.default_grammar(seed=0, terminal_vocab=64)
        rng = np.random.default_rng(7)
        rl.save_tokens(out / "train.tokens", rl.generate_corpus(spec, 900, rng=rng))
        rl.save_tokens(out / "held.tokens", rl.generate_corpus(spec, 200, rng=rng))

    def runs():
        for name, (sig, policy, train) in RUNS.items():
            path = out / f"{name}.ini"
            path.write_text(_RUN.format(
                name=name, signature=sig, train=train,
                policy=f"\n[policy]\n{policy}" if policy else ""), encoding="utf-8")
            rl.cmd_run(path, out_root=str(out / "runs"))

    def fits():
        dirs = [out / "runs" / name for name in RUNS]
        rl.cmd_fit(dirs, out_path=out / "fits.json")
        rl.cmd_report(dirs[:3], out / "report-train")
        rl.cmd_report(dirs[:3], out / "report-held", use="eval:held")

    def sweep():
        (out / "sweep.ini").write_text(_SWEEP, encoding="utf-8")
        rl.cmd_sweep(out / "sweep.ini", out_root=str(out / "runs"))

    items = [rl.MCQItem("the cat sat on the", "", ("mat", "moon", "map"), 0),
             rl.MCQItem("water is", "", ("wet", "dry"), 0),
             rl.MCQItem("q", "", ("a", "b", "c"), 2)]

    def evals():
        rl.write_task_jsonl(out / "tasks.jsonl", items)
        ckpt = out / "runs" / "aaab-rins" / "checkpoint.rlab"
        for full in (False, True):
            rl.cmd_eval(ckpt, out / "tasks.jsonl", rounds_list=[1, 2, 3],
                        out_path=out / f"eval-full{int(full)}.jsonl", score_full=full)

    def arrays():
        ckpt = rl.load_checkpoint(out / "runs" / "aaab-rins" / "checkpoint.rlab")
        plan = rl.expand(rl.parse_tagged(ckpt.signature))
        rng = np.random.default_rng(11)
        tokens = rng.integers(0, ckpt.dims.vocab, size=(3, ckpt.dims.seq_len))
        targets = rng.integers(0, ckpt.dims.vocab, size=tokens.shape)
        tok = rl.ByteTokenizer()
        for dtype in (np.float32, np.float64):
            model = rl.RecursiveModel(ckpt.dims, plan, ckpt.policy, dtype=dtype)
            params = {k: v.astype(dtype) for k, v in ckpt.params.items()}
            tag = np.dtype(dtype).name
            depths = list(range(1, plan.r_max + 1))
            for r in depths:
                loss, grads, _ = model.loss_and_grads(params, tokens, targets, rounds=r)
                np.savez(out / f"grads-{tag}-r{r}.npz", loss=np.array(loss),
                         **{k: grads[k] for k in sorted(grads)})
            # a batch that loss_and_grads cuts into three micro-batches
            many = rng.integers(0, ckpt.dims.vocab, size=(240, ckpt.dims.seq_len))
            loss, grads, _ = model.loss_and_grads(params, many, many[::-1])
            np.savez(out / f"grads-{tag}-batched.npz", loss=np.array(loss),
                     **{k: grads[k] for k in sorted(grads)})
            logits = model.forward_depths(params, tokens, depths)
            np.savez(out / f"forward-{tag}.npz", *logits)
            results = rl.eval_mcq_depths(model, params, tok, items, depths)
            (out / f"mcq-{tag}.json").write_text(json.dumps(
                [[r.accuracy, r.predictions, r.scores] for r in results]),
                encoding="utf-8")

    def optim():
        # the gradient norm of loss_and_grads's flat gradients and of a plain
        # dict copy, then one Adam step from each, clipped to a quarter of
        # the norm
        ckpt = rl.load_checkpoint(out / "runs" / "aaab-rins" / "checkpoint.rlab")
        model = rl.RecursiveModel(ckpt.dims, rl.expand(rl.parse_tagged(ckpt.signature)),
                                  ckpt.policy)
        tokens = np.random.default_rng(13).integers(
            0, ckpt.dims.vocab, size=(3, ckpt.dims.seq_len))
        _, flat, _ = model.loss_and_grads(ckpt.params, tokens, tokens[::-1])
        got = {}
        for tag, grads in (("flat", flat), ("plain", dict(flat))):
            norm = rl.global_grad_norm(grads)
            cfg = rl.TrainConfig(grad_clip_norm=norm / 4, total_steps=2)
            params = {k: v.copy() for k, v in ckpt.params.items()}
            state = rl.init_adam_state(params)
            step_norm = rl.adam_step(params, grads, state, cfg, 1)
            got[f"{tag}.norm"] = np.array([norm, step_norm])
            for kind, d in (("param", params), ("m", state.m), ("v", state.v)):
                got.update({f"{tag}.{kind}.{k}": d[k] for k in sorted(d)})
        np.savez(out / "optim.npz", **got)

    def checkpoints():
        # each battery checkpoint as loaded, then the refusals of a copy cut
        # short and of a copy with one payload byte flipped
        bad = out / "bad.rlab"
        for path in sorted((out / "runs").rglob("checkpoint.rlab")):
            tag = path.parent.relative_to(out / "runs").as_posix().replace("/", "-")
            ckpt = rl.load_checkpoint(path)
            fields = {k: getattr(ckpt, k) for k in ("signature", "step", "dtype", "extra")}
            fields.update(dims=dataclasses.asdict(ckpt.dims),
                          policy=dataclasses.asdict(ckpt.policy))
            arrays = {f"{kind}{k}": v
                      for kind, d in (("", ckpt.params), ("adam.m.", ckpt.adam_m),
                                      ("adam.v.", ckpt.adam_v))
                      for k, v in (d or {}).items()}
            np.savez(out / f"ckpt-{tag}.npz", **arrays)
            blob = path.read_bytes()
            flipped = bytearray(blob)
            flipped[(16 + int.from_bytes(blob[8:16], "little") + len(blob)) // 2] ^= 1
            refusals = []
            for damaged in (blob[:-5], bytes(flipped)):
                bad.write_bytes(damaged)
                try:
                    rl.load_checkpoint(bad)
                    refusals.append(None)
                except ValueError as e:
                    refusals.append(str(e).replace(str(out), "<out>"))
            bad.unlink()
            (out / f"ckpt-{tag}.json").write_text(
                json.dumps({"fields": fields, "refusals": refusals}, sort_keys=True),
                encoding="utf-8")

    def packs():
        for i, (seq_len, batch, lengths, eos) in enumerate(PACK_CASES):
            docs, start = [], 0
            for n in lengths:
                docs.append([(start + j) % eos for j in range(n)])
                start += n
            got = rl.pack_sequences(docs, seq_len, batch, eos_id=eos)
            np.savez(out / f"pack-{i:02d}.npz",
                     *[a for b in got for a in (b.tokens, b.targets, b.boundaries)])

    def grammar_docs():
        # the house grammar at two seeds, and one that mostly runs into its
        # depth cap; each with the generator's next draw, so a sampler that
        # draws more or fewer numbers shows
        capped = rl.GrammarSpec.from_productions(
            {"S": [(("S", "S"), 0.6), (("T", 5), 0.3), ((), 0.1)],
             "T": [((1, "T"), 0.5), ((2, 3), 0.5)]},
            start="S", depth_cap=5, terminal_vocab=8, seed=2)
        for tag, spec, n in (("seed0", rl.default_grammar(seed=0), 3000),
                             ("seed5", rl.default_grammar(seed=5), 3000),
                             ("capped", capped, 2000)):
            rng = np.random.default_rng(spec.seed)
            docs = rl.generate_corpus(spec, n, rng=rng)
            (out / f"corpus-{tag}.json").write_text(
                json.dumps({"docs": docs, "next": rng.random()}), encoding="utf-8")

    def demo_output():
        env = dict(os.environ)
        for name in DEMOS:
            done = subprocess.run([sys.executable, str(demos / f"{name}.py")],
                                  cwd=out, env=env, capture_output=True, text=True)
            (out / f"demo-{name}.txt").write_text(
                f"exit {done.returncode}\n{done.stdout}", encoding="utf-8")

    warnings.simplefilter("ignore")  # tiny streams pack to nothing, and say so
    for name, fn in (("corpora", corpora), ("runs", runs), ("fits", fits),
                     ("sweep", sweep), ("evals", evals), ("arrays", arrays),
                     ("optim", optim),
                     ("checkpoint", checkpoints), ("packs", packs),
                     ("generate_corpus", grammar_docs),
                     ("demos", demo_output)):
        section(name, fn)


# ---------------------------------------------------------------- comparison


def run_battery(tree: Path, out: Path, timeout: float = 600) -> Path:
    """Run the battery against tree's src/ and demos/ in a child process;
    returns out, which it creates and fills."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"),
               **{var: "1" for var in THREAD_VARS})
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--battery",
                    str(out), "--tree", str(tree)],
                   cwd=out, env=env, check=True, timeout=timeout)
    return out


def digests(out: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under out, each manifest.json
    without its VOLATILE keys."""
    got = {}
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = {k: v for k, v in json.loads(data).items() if k not in VOLATILE}
            data = json.dumps(manifest, sort_keys=True).encode()
        got[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return got


def differences(a: Path, b: Path) -> list[str]:
    """One line per file that differs between two battery outputs, or that
    only one of them holds."""
    da, db = digests(a), digests(b)
    lines = []
    for name in sorted(da.keys() | db.keys()):
        if name not in db:
            lines.append(f"only in {a.name}: {name}")
        elif name not in da:
            lines.append(f"only in {b.name}: {name}")
        elif da[name] != db[name]:
            lines.append(f"differs: {name}")
    return lines


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "machine": platform.machine(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", help="git revision to compare the working tree with")
    ap.add_argument("--battery", help=argparse.SUPPRESS)  # child: output dir
    ap.add_argument("--tree", help=argparse.SUPPRESS)     # child: tree under test
    args = ap.parse_args(argv)
    if args.battery:
        battery(Path(args.battery), Path(args.tree) / "demos")
        return 0
    if not args.rev:
        ap.error("--rev is required")
    print(json.dumps(machine_facts()))
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        rev_tree = tmp / "rev-tree"
        rev_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive, check=True)
        a = run_battery(rev_tree, tmp / args.rev.replace("/", "_"))
        b = run_battery(ROOT, tmp / "worktree")
        lines = differences(a, b)
        for line in lines:
            print(line)
        print(f"{len(digests(b))} files compared, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
