"""End-to-end compute-matched comparison of recursion depths 1, 2, 3.

Trains AB, AAB, and AAAB on the same grammar corpus under an identical
compute budget (deeper runs get proportionally fewer optimizer steps),
then fits loss-vs-compute curves and reports which qualitative patterns
held. The outcome is DIRECTIONAL: at desk scale the ordering can flip
run to run, so flags are reported, never asserted.

Default configuration: ~1.3M parameters, a 20,000-step baseline budget.
Expect hours on one CPU core (the launch banner prints a measured
estimate). On two CPUs, run with OPENBLAS_NUM_THREADS=1: the process then
has two lanes and runs two micro-batches at once. Micro-batches are the
same on every host, so results are bitwise the same however the process
runs; a threaded BLAS, which runs them one after another, pays for that.
At the bench's desk shape on two CPUs, a step with OpenBLAS at its default
two threads took 4-9% longer than with micro-batches twice as large, and
two lanes took AB 200-220 ms and AAAB 365-450 ms per step against 265-300
and 410-545 ms for the threaded BLAS. Interrupted runs resume from the last
eval-cadence checkpoint: rerun the same command. Completed runs are
skipped entirely, so a finished sweep re-reports in seconds.

--quick drops to a ~150k-parameter, 1,500-step version of the same
pipeline (a few minutes) to exercise the plumbing.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

import rinslab as rl

INI = """\
[run]
name = {name}
out_dir = {name}
seed = 0

[signature]
value = {signature}

[model]
d_model = {d_model}
n_heads = 4
mlp_dim = {mlp_dim}
vocab = 65
seq_len = {seq_len}
total_layers = 4

[train]
peak_lr = 3e-3
warmup_steps = {warmup}
total_steps = {baseline_steps}
batch_size = {batch}
eval_interval = {eval_interval}

[corpus]
train = grammar:{train_tokens}
eval = held=grammar:{eval_tokens}

[baseline]
signature = AB
steps = {baseline_steps}
"""

FULL = dict(d_model=160, mlp_dim=640, seq_len=96, batch=16, warmup=200,
            baseline_steps=20_000, eval_interval=1000,
            train_tokens=600_000, eval_tokens=40_000)
QUICK = dict(d_model=48, mlp_dim=192, seq_len=48, batch=8, warmup=50,
             baseline_steps=1_500, eval_interval=500,
             train_tokens=60_000, eval_tokens=8_000)


def estimate_rate(scale) -> float:
    """Measured seconds per baseline step at this scale, from a short probe."""
    dims = rl.ModelDims(d_model=scale["d_model"], n_heads=4,
                        mlp_dim=scale["mlp_dim"], vocab=65,
                        seq_len=scale["seq_len"], total_layers=4)
    model = rl.RecursiveModel(dims, rl.expand(rl.parse("AB")), rl.RecursionPolicy())
    params = model.init_params(0)
    docs = rl.generate_corpus(rl.default_grammar(seed=9), 30_000)
    batches = list(rl.pack_sequences(docs, scale["seq_len"], scale["batch"], eos_id=64))
    cfg = rl.TrainConfig(peak_lr=1e-3, warmup_steps=2, total_steps=10,
                         batch_size=scale["batch"], seed=0)
    t0 = time.perf_counter()
    rl.train(model, params, batches, cfg)
    return (time.perf_counter() - t0) / 10


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="~150k params, 1.5k baseline steps (minutes)")
    ap.add_argument("--out", default="desk_scale_out",
                    help="output root (default: ./desk_scale_out)")
    ap.add_argument("--force", action="store_true",
                    help="rerun even if runs are already done")
    args = ap.parse_args()

    scale = QUICK if args.quick else FULL
    out_root = Path(args.out) / ("quick" if args.quick else "full")
    cfg_dir = out_root / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)

    sigs = ["AB", "AAB", "AAAB"]
    base = scale["baseline_steps"]
    dims = _dims(scale)
    ab = rl.expand(rl.parse("AB"))
    steps = {
        s: rl.matched_steps(ab, rl.expand(rl.parse(s)), dims, dims, base)
        for s in sigs
    }

    rate = estimate_rate(scale)
    budget_equiv = sum(
        steps[s] * int(rl.step_cost(rl.expand(rl.parse(s)), dims))
        for s in sigs
    ) / int(rl.step_cost(ab, dims))
    print(f"Compute-matched family at d_model={scale['d_model']}, "
          f"seq_len={scale['seq_len']}, baseline {base:,} steps:")
    for s in sigs:
        print(f"   {s:5s} -> {steps[s]:>7,} steps")
    print(f"Measured {rate*1000:.0f} ms per baseline step; the whole family "
          f"is ~{budget_equiv:,.0f} baseline-equivalents "
          f"(~{rate * budget_equiv / 60:.0f} min on this machine).")
    print()

    run_dirs = []
    for s in sigs:
        name = f"desk-{s.lower()}"
        ini = INI.format(name=name, signature=s, **scale)
        path = cfg_dir / f"{name}.ini"
        path.write_text(ini, encoding="utf-8")
        t0 = time.perf_counter()
        man = rl.cmd_run(path, out_root=str(out_root), force=args.force)
        dt = time.perf_counter() - t0
        if man["status"] != "done":
            raise SystemExit(f"{name} {man['status']}: {man.get('abort_reason')}")
        held = man["final_eval_losses"].get("held", float("nan"))
        print(f"   {name:10s} {man['params_count']:>9,} params  "
              f"{man['final_step']:>6,} steps  "
              f"train {man['final_train_loss']:.4f}  held {held:.4f}  "
              f"({dt:.0f}s)")
        run_dirs.append(out_root / name)

    print()
    print("Fitting the second half of each curve and checking the family")
    print("pattern (loss floor, amplitude, exponent per depth):")
    summary = rl.cmd_report(run_dirs, out_root / "report", last_frac=0.5)
    for name, f in summary["fits"].items():
        print(f"   {name:10s} beta={f['beta']:.4f}  c={f['c']:.4f}  "
              f"eps_inf={f['eps_inf']:.4f}")
    for flag, held_ in summary["pattern"].items():
        print(f"   {flag}: {held_}")
    bps = summary.get("breakpoints", [])
    if len(bps) > 1:
        print(f"   optimal-depth breakpoints: "
              + ", ".join(f"r={r} from compute {x:.3e}" for x, r in bps))
    print()
    held_flags = [v for v in summary["pattern"].values()]
    verdict = ("the deeper-is-better-per-unit-compute pattern held"
               if all(held_flags)
               else "the pattern held only partially at this scale")
    print(f"Outcome: {verdict}. Artifacts (traces, fits, curve CSVs,")
    print(f"breakpoints) are under {out_root}/.")


def _dims(scale) -> rl.ModelDims:
    return rl.ModelDims(d_model=scale["d_model"], n_heads=4,
                        mlp_dim=scale["mlp_dim"], vocab=65,
                        seq_len=scale["seq_len"], total_layers=4)


if __name__ == "__main__":
    main()
