#!/usr/bin/env python3
"""rinslab benchmark: one workload per invocation, metrics as JSON.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Workloads: desk-train, quick-train, eval-depth (see bench/README.md).
--trace 0 measures the end-to-end metrics with the library untouched.
--trace 1 measures them untraced for half the time, then wraps the
library's public functions (bench/tracer.py) for the other half and reports
per-layer metrics and the tracing overhead; it writes the spans to
.benchmarks/spans-<workload>-seed<n>-<pid>.jsonl. The last line of standard output
is one JSON object; the exit code is 0 only when every correctness check
passed and no operation failed.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed, and never above nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rinslab; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk-train", "quick-train", "eval-depth"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# ------------------------------------------------------------ machine facts


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": min(BLAS_THREADS, nproc or 1), "git": git_revision()}


def git_revision():
    """HEAD of the checkout, or None when the checkout is not itself the top
    of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ------------------------------------------------------------- measurement


def import_seconds() -> float:
    """Median time to import rinslab in a fresh interpreter (set-up's share
    that one process can pay only once)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_rounds(wl, state, seconds: float, min_rounds: int) -> list:
    """Run rounds while the next one is expected to end within the budget
    (or overrun it by less than half a round). Each round is bracketed by
    two machine-speed probes; their mean is the round's slowness."""
    rounds, start = [], time.perf_counter()
    before = speed.slowness()
    while True:
        t0 = time.perf_counter()
        r = wl.run_round(state)
        took = time.perf_counter() - t0
        after = speed.slowness()
        r.slowness, before = (before + after) / 2, after
        rounds.append(r)
        if (len(rounds) >= min_rounds
                and time.perf_counter() - start + took / 2 > seconds):
            return rounds


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def end_to_end(rounds, setup_s: float) -> dict:
    """Medians over rounds; each round contributes one sample per metric.
    Rates are scaled to reference machine speed by the round's slowness."""
    def rate(pairs, r):
        secs = sum(s for _, s in pairs)
        return r.slowness * sum(t for t, _ in pairs) / secs if secs > 0 else float("nan")

    def med(values):
        values = [v for v in values if math.isfinite(v)]
        return statistics.median(values) if values else float("nan")

    out = {"setup_s": setup_s,
           "tok_s": med([rate(r.main.values(), r) for r in rounds])}
    for v in ("AB", "AAB", "AAAB", "AAAB-rins"):
        out[f"tok_s.{v}"] = med([rate([r.main[v]], r) for r in rounds if v in r.main])
    out["held_loss"] = (statistics.fmean(rounds[0].held.values())
                        if rounds and rounds[0].held else float("nan"))
    out["eval_tok_s"] = med([rate(r.evals, r) for r in rounds])
    out["mcq_items_s"] = med([r.slowness * r.mcq_pairs / sum(s for _, s in r.main.values())
                              for r in rounds if r.mcq_pairs])
    return out


E2E_UNITS = {"setup_s": "s", "tok_s": "tok/s", "tok_s.AB": "tok/s",
             "tok_s.AAB": "tok/s", "tok_s.AAAB": "tok/s", "tok_s.AAAB-rins": "tok/s",
             "held_loss": "nats/tok", "eval_tok_s": "tok/s", "peak_rss_mb": "MB"}


def round_failures(rounds, vocab: int) -> list[str]:
    """Results must be identical across rounds, and held-out loss must beat
    a uniform guess over the vocabulary."""
    if not rounds:
        return ["no round completed"]
    out = []
    first = rounds[0].held
    for variant, loss in first.items():
        if not loss < math.log(vocab):
            out.append(f"{variant}: held-out loss {loss:.4f} not below ln({vocab})")
    for i, r in enumerate(rounds[1:], 1):
        if r.held != first:
            out.append(f"round {i} held-out losses {r.held} differ from round 0 {first}")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rinslab
        import layer_metrics
        import tracer
        import workloads
    except ImportError as e:
        print(f"bench: cannot import rinslab from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(rinslab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported rinslab from {rinslab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    setup_slowness = speed.slowness()
    import_s = import_seconds()

    facts = machine_facts()
    print("# machine " + json.dumps(facts, sort_keys=True))
    wl = workloads.make(args.workload, tiny=args.tiny)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    failures: list[str] = []
    all_rounds = []
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        setups = []
        for _ in range(SETUP_REPEATS):
            d = fresh_dir(work / "setup")
            t0 = time.perf_counter()
            state = wl.setup(args.seed, d)
            setups.append(time.perf_counter() - t0)
        setup_slowness = (setup_slowness + speed.slowness()) / 2
        failures += wl.check(state)
        if not tracer.is_clean():
            failures.append("library functions are still wrapped in an untraced run")
        rounds = timed_rounds(wl, state, budget, min_rounds=1)
        all_rounds += rounds
        failures += round_failures(rounds, wl.vocab)
        e2e = end_to_end(rounds, (import_s + statistics.median(setups)) / setup_slowness)
        e2e["peak_rss_mb"] = peak_rss_mb()
        per_layer = None
        if args.trace:
            spans = (ROOT / ".benchmarks"
                     / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
            traced = layer_metrics.traced_run(wl, args.seed, fresh_dir(work / "traced"),
                                              budget, timed_rounds, spans)
            print(f"# spans {spans.relative_to(ROOT)}")
            all_rounds += traced.rounds
            failures += traced.failures + round_failures(traced.rounds, wl.vocab)
            t_e2e = end_to_end(traced.rounds, (import_s + traced.setup_s) / setup_slowness)
            if traced.rounds and traced.rounds[0].held != rounds[0].held:
                failures.append("traced run changed held-out losses")
            per_layer = traced.metrics
            for name, unit in E2E_UNITS.items():
                if unit in ("s", "tok/s") and e2e.get(name):
                    per_layer[f"trace_overhead.{name}"] = (t_e2e[name] / e2e[name], "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    for r in all_rounds:
        failures += r.errors
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    for msg in failures:
        print(f"# FAIL {msg}")
    print(f"# slowness setup={setup_slowness:.4f} rounds="
          + ",".join(f"{r.slowness:.4f}" for r in rounds))
    report(args, e2e, setups, import_s, len(rounds), attempted, failed)
    if per_layer is not None:
        for name, (value, unit) in per_layer.items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {name:34s} {shown:>14s} {unit}")
        metrics = {n: _metric(v, u) for n, (v, u) in per_layer.items()}
    else:
        metrics = {n: _metric(e2e[n], u) for n, u in E2E_UNITS.items()}
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def _metric(value, unit: str) -> dict:
    """A missing (or not measurable) value is null and flagged, never NaN."""
    if value is None or not math.isfinite(value):
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def report(args, e2e, setups, import_s, n_rounds, attempted, failed):
    """Human-readable end-to-end table, with the workload-specific aliases
    (train_tok_s*, mcq_items_s) and failed_frac."""
    train = args.workload != "eval-depth"
    print(f"# {args.workload} seed={args.seed} rounds={n_rounds} "
          f"setups={len(setups)} import_s={import_s:.4f}")
    rows = [(n, e2e[n], u) for n, u in E2E_UNITS.items()]
    if train:
        rows += [("train_tok_s" + n[5:], e2e[n], "tok/s")
                 for n in E2E_UNITS if n.startswith("tok_s")]
    else:
        rows.append(("mcq_items_s", e2e["mcq_items_s"], "(item,depth)/s"))
    rows.append(("failed_frac", failed / max(attempted, 1), "ratio"))
    for name, value, unit in rows:
        print(f"  {name:34s} {value:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
