"""Tiny-shape smoke run of every workload, untraced and traced.

No timing assertions: only that each run passes its correctness gates and
prints every metric BENCHMARK.json names. Run with
`python -m pytest bench/test_smoke.py`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] is not None for m in result["metrics"].values())
    assert not (ROOT / ".bench_work").exists()
    if trace:
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("# spans "))
        path = ROOT / line[len("# spans "):]
        spans = [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines()]
        path.unlink()
        assert spans
        assert set(spans[0]) == {"name", "start", "end", "parent", "run_id"}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("desk-train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_missing_function_is_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import layer_metrics
    import run
    import tracer
    import workloads

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("optim.adam_step", "rinslab.optim", "no_such_function"),))
    traced = layer_metrics.traced_run(workloads.make("desk-train", tiny=True), 0,
                                      tmp_path, 0.5, run.timed_rounds)
    assert tracer.is_clean()
    assert traced.metrics["optim.adam_step.ms"][0] is None
    assert traced.metrics["optim.tensors"][0] is None
    assert traced.metrics["layers.attention_fwd.ms"][0] > 0
    assert not traced.failures
