#!/usr/bin/env python3
"""Measure where a real `demos/desk_scale_run.py --quick` run spends its time,
next to the quick-train workload, so the workload's mix can be checked.

    python3 bench/cadence.py            # a few minutes on one core

It runs the demo's own --quick INI specs (AB, AAB, AAAB, step-matched, eval
and checkpoint every 500 steps) through rl.cmd_run, then a few rounds of the
quick-train workload, each with only the spans that layer_metrics.shares()
reads installed. It prints, for both, the share of cmd_run wall time spent
in in-loop held-out evals, checkpoint writes, trace writes and outside
rl.train (config parsing, corpus loading or generation, model init,
manifests). Scratch files
go to .bench_work/ and are deleted afterwards.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import rinslab as rl  # noqa: E402
import workloads  # noqa: E402
from layer_metrics import SHARE_SPANS, shares  # noqa: E402
from tracer import Tracer  # noqa: E402


def demo_specs(work: Path) -> list[Path]:
    spec = importlib.util.spec_from_file_location(
        "desk_scale_run", ROOT / "demos" / "desk_scale_run.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    paths = []
    for sig in ("AB", "AAB", "AAAB"):
        path = work / f"demo-{sig.lower()}.ini"
        path.write_text(demo.INI.format(name=f"demo-{sig.lower()}", signature=sig,
                                        **demo.QUICK), encoding="utf-8")
        paths.append(path)
    return paths


def traced(fn) -> dict[str, float]:
    tr = Tracer(only=SHARE_SPANS)
    tr.install()
    try:
        fn()
    finally:
        tr.restore()
    return shares(tr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=3,
                    help="quick-train workload rounds (default 3)")
    ap.add_argument("--skip-demo", action="store_true",
                    help="measure only the workload")
    args = ap.parse_args()
    work = ROOT / ".bench_work" / f"cadence-{os.getpid()}"
    work.mkdir(parents=True)
    rows = {}
    try:
        if not args.skip_demo:
            specs = demo_specs(work)
            rows["demo --quick"] = traced(lambda: [
                rl.cmd_run(p, out_root=str(work / "demo"), force=True) for p in specs])
        wl = workloads.make("quick-train")
        state = wl.setup(1, work)
        rows["quick-train"] = traced(lambda: [wl.run_round(state)
                                              for _ in range(args.rounds)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = ("training.eval_share", "checkpoint.save_share", "lab.trace_write_share",
             "lab.outside_train_share")
    print("share of cmd_run wall time")
    print(f"{'':16s}" + "".join(f"{n:>25s}" for n in names))
    for label, got in rows.items():
        print(f"{label:16s}" + "".join(f"{got[n]:25.4f}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
