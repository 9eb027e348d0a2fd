"""Run orchestration: INI run specs, content hashing, artifact layout.

A run spec is a flat key-value INI file with sections. Parsing produces a
typed RunSpec; the config hash is the SHA-256 of the canonical JSON of the
parsed values, so reordering keys or sections never changes identity.

Run directory layout (under the output root, env RINSLAB_OUT_ROOT or
--out-root, default ./runs):

    <out_dir>/config.ini       copy of the spec as given
    <out_dir>/manifest.json    identity, derived values, processes, status (atomic write)
    <out_dir>/trace.csv        loss trace, one row per step
    <out_dir>/trace.jsonl      same trace with a header record
    <out_dir>/checkpoint.rlab  params, optimizer state and trace so far, for resume

The trace files are also written, atomically, with each checkpoint before
the final one, so a killed run keeps its curve up to its last checkpoint.

Corpus references are either a path to a .tokens file or "grammar:N[:seed]"
for N tokens of the house grammar; a relative path is read against the
directory of the spec that names it. Train references default to seed 0 and
eval references to seed 1, so compute-matched runs share training data while
evals stay held out; give explicit seeds to override. The model vocabulary
reserves its top id for EOS, so a grammar corpus with terminal vocab 64
needs vocab >= 65 and byte-tokenized text needs vocab >= 257.

When a [baseline] section is present, total_steps is always derived with
matched_steps from the baseline's signature and step count; a total_steps
key in [train] is recorded but overridden.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import corpus as corpus_mod
from . import model as model_mod
from .checkpoint import _atomic_open, _saved_step, load_checkpoint
from .corpus import ByteTokenizer
from .evals import eval_mcq_depths, read_task_jsonl, write_results_jsonl
from .ledger import (
    InfeasiblePlanError,
    ModelDims,
    enumerate_sweep,
    expected_stochastic_cost,
    matched_steps,
    plan_layers_per_block,
    step_cost,
)
from .model import RecursionPolicy, RecursiveModel, adapter_fraction, param_count
from .optim import TrainConfig
from .scaling import (
    FitResult,
    fit_power_law,
    optimal_r,
    write_breakpoints_csv,
    write_fits_json,
)
from .signatures import (
    Signature,
    SignatureParseError,
    expand,
    parse_tagged,
    rins_rounds,
    to_tagged,
)
from .training import LossTrace, train

__all__ = [
    "ConfigError",
    "RunSpec",
    "parse_run_config",
    "config_hash",
    "output_root",
    "cmd_run",
    "cmd_sweep",
    "cmd_fit",
    "cmd_report",
    "cmd_eval",
]

OUT_ROOT_ENV = "RINSLAB_OUT_ROOT"


class ConfigError(ValueError):
    """Invalid run spec; the message names the offending section.key."""


# ---------------------------------------------------------------- INI parsing


def _at_least(low: int):
    return lambda v: None if v >= low else f"must be >= {low}, got {v}"


def _nonempty(v: str):
    return None if v else "must not be empty"


def _below_root(v: str):
    """A run directory must stay inside the out-root: a fresh start there
    deletes the checkpoint and traces it finds."""
    if not v:
        return "must not be empty"
    if Path(v).is_absolute():
        return f"must be a path relative to the out-root, got {v!r}"
    if ".." in Path(v).parts:
        return f"must not leave the out-root through '..', got {v!r}"
    return None


# The sections that are a dataclass: its fields are the section's keys and
# hold their defaults and checks. The INI never sets r_max (it comes from
# the signature), seed (from [run]) or Adam's betas and eps (fixed).
_DATACLASS_SECTIONS = {"model": ModelDims, "policy": RecursionPolicy, "train": TrainConfig}
_FIXED_FIELDS = {"policy.r_max", "train.seed", "train.beta1", "train.beta2", "train.adam_eps"}

# Every key of a run spec: "section.key" -> (type, required, check), where
# check(value) returns a refusal or None. A section is required when it has
# a required key, except [baseline], which is optional as a whole.
_RUN_KEYS = {
    "run.name": ("str", True, _nonempty),
    "run.out_dir": ("str", False, _below_root),
    "run.seed": ("int", False, _at_least(0)),
    "signature.value": ("str", True, None),
    **{
        f"{section}.{f.name}":
            (f.type.removeprefix("Optional[").removesuffix("]"), f.default is MISSING, None)
        for section, cls in _DATACLASS_SECTIONS.items() for f in fields(cls)
        if f"{section}.{f.name}" not in _FIXED_FIELDS
    },
    "model.dtype": ("str", False, lambda v: None if v in ("float32", "float64")
                    else f"expected float32 or float64, got {v!r}"),
    "train.total_steps": ("int", True, None),
    "corpus.train": ("str", True, None),
    "corpus.eval": ("str", False, None),
    "baseline.signature": ("str", True, None),
    "baseline.steps": ("int", True, _at_least(1)),
}
# A sweep spec shares [model], [train], [corpus] and run.seed with the run
# spec it writes for each candidate.
_SWEEP_KEYS = {
    "sweep.name": ("str", False, _below_root),
    "sweep.baseline_signature": ("str", True, None),
    "sweep.baseline_steps": _RUN_KEYS["baseline.steps"],
    **{name: k for name, k in _RUN_KEYS.items()
       if name == "run.seed" or name.partition(".")[0] in ("model", "train", "corpus")},
}


def _parse_ini(text: str, keys: dict) -> dict[str, dict[str, str]]:
    # No section header can be empty, so [DEFAULT] is an ordinary, unknown
    # section here rather than defaults merged into every other section.
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse failure: {e}") from e
    raw = {s: dict(cp.items(s)) for s in cp.sections()}
    sections = {name.partition(".")[0] for name in keys}
    for section, values in raw.items():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in values:
            if f"{section}.{key}" not in keys:
                raise ConfigError(f"unknown key {section}.{key}")
    for name, (_, required, _) in keys.items():
        section, _, key = name.partition(".")
        if required and section not in raw and section != "baseline":
            raise ConfigError(f"missing required section [{section}]")
        if required and section in raw and key not in raw[section]:
            raise ConfigError(f"missing required key {name}")
    return raw


_CONVERTERS = {"str": str, "int": int, "float": float,
               "bool": lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()]}


def _value(raw: dict, keys: dict, name: str, default=None):
    """The value of "section.key" converted and checked, or default when the
    spec leaves it out; a refusal names the key."""
    section, _, key = name.partition(".")
    text = raw.get(section, {}).get(key)
    if text is None:
        return default
    type_name, _, check = keys[name]
    try:
        value = _CONVERTERS[type_name](text)
    except (ValueError, KeyError):
        raise ConfigError(f"{name}: expected {type_name}, got {text!r}") from None
    refusal = check and check(value)
    if refusal:
        raise ConfigError(f"{name}: {refusal}")
    return value


def _section(raw: dict, section: str, **given):
    """Build a section's dataclass from its keys; `given` sets derived fields.
    Each dataclass check opens its message with the field it refuses."""
    cls = _DATACLASS_SECTIONS[section]
    kwargs = {
        f.name: _value(raw, _RUN_KEYS, f"{section}.{f.name}")
        for f in fields(cls)
        if f.name in raw.get(section, {})
    }
    try:
        return cls(**{**kwargs, **given})
    except ValueError as e:
        raise ConfigError(f"{section}.{str(e).split()[0]}: {e}") from e


def _signature(text: str, where: str, dims: ModelDims) -> Signature:
    try:
        sig = parse_tagged(text)
        # checked on the signature: expand() is exponential in the degree
        plan_layers_per_block(sig, dims)
    except (SignatureParseError, InfeasiblePlanError) as e:
        raise ConfigError(f"{where}: {e}") from None
    return sig


@dataclass(frozen=True)
class RunSpec:
    name: str
    out_dir: str
    seed: int
    signature: Signature
    dims: ModelDims
    policy: RecursionPolicy
    train_cfg: TrainConfig
    corpus_train: str
    corpus_evals: tuple[tuple[str, str], ...]
    baseline: Optional[tuple[Signature, int]]
    dtype: str
    declared_total_steps: int

    def canonical_dict(self) -> dict:
        return {
            "name": self.name,
            "out_dir": self.out_dir,
            "seed": self.seed,
            "signature": to_tagged(self.signature),
            "dims": asdict(self.dims),
            "policy": asdict(self.policy),
            "train": asdict(self.train_cfg),
            "corpus_train": self.corpus_train,
            "corpus_evals": [list(e) for e in self.corpus_evals],
            "baseline": None
            if self.baseline is None
            else [to_tagged(self.baseline[0]), self.baseline[1]],
            "dtype": self.dtype,
        }


def config_hash(spec: RunSpec) -> str:
    blob = json.dumps(spec.canonical_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def parse_run_config(text: str) -> RunSpec:
    raw = _parse_ini(text, _RUN_KEYS)
    name = _value(raw, _RUN_KEYS, "run.name")
    out_dir = _value(raw, _RUN_KEYS, "run.out_dir")
    if out_dir is None:  # the name stands in for the run directory
        refusal = _below_root(name)
        if refusal:
            raise ConfigError(f"run.name: {refusal}")
        out_dir = name
    seed = _value(raw, _RUN_KEYS, "run.seed", 0)

    dims = _section(raw, "model")
    dtype = _value(raw, _RUN_KEYS, "model.dtype", "float32")
    signature = _signature(raw["signature"]["value"], "signature.value", dims)
    policy = _section(raw, "policy", r_max=rins_rounds(signature) or 1)

    declared_total = _value(raw, _RUN_KEYS, "train.total_steps")
    total_steps = declared_total
    baseline = None
    if "baseline" in raw:
        bsig = _signature(raw["baseline"]["signature"], "baseline.signature", dims)
        bsteps = _value(raw, _RUN_KEYS, "baseline.steps")
        baseline = (bsig, bsteps)
        total_steps = matched_steps(expand(bsig), expand(signature), dims, dims, bsteps)
        if total_steps < 1:
            raise ConfigError(
                "baseline.steps: matched step count is 0; budget too small"
            )
    train_cfg = _section(raw, "train", total_steps=total_steps, seed=seed)

    corpus_train = raw["corpus"]["train"]
    evals = []
    eval_text = raw["corpus"].get("eval")
    if eval_text:
        for part in eval_text.split(","):
            part = part.strip()
            if not part:
                continue
            ename, eq, ref = (s.strip() for s in part.partition("="))
            if not (ename and eq and ref):
                raise ConfigError(
                    f"corpus.eval: expected name=ref entries, got {part!r}"
                )
            if ename in [e for e, _ in evals]:
                raise ConfigError(f"corpus.eval: eval name {ename!r} given twice")
            evals.append((ename, ref))

    return RunSpec(
        name=name,
        out_dir=out_dir,
        seed=seed,
        signature=signature,
        dims=dims,
        policy=policy,
        train_cfg=train_cfg,
        corpus_train=corpus_train,
        corpus_evals=tuple(evals),
        baseline=baseline,
        dtype=dtype,
        declared_total_steps=declared_total,
    )


# ------------------------------------------------------------------- corpora


def _resolve_corpus(ref: str, dims: ModelDims, default_seed: int, base_dir: Path,
                    *, key: str = "corpus.train"):
    """ref, held by `key` -> list of documents. "grammar:N[:seed]" or a .tokens path."""
    where = f"{key}: corpus ref {ref!r}"
    if ref.startswith("grammar:"):
        parts = ref.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"{where}: expected grammar:N[:seed]")
        try:
            n_tokens = int(parts[1])
        except ValueError:
            raise ConfigError(f"{where}: token count must be an integer")
        if n_tokens < 1:
            raise ConfigError(f"{where}: token count must be >= 1")
        seed = default_seed
        if len(parts) == 3:
            try:
                seed = int(parts[2])
            except ValueError:
                raise ConfigError(f"{where}: seed must be an integer")
        eos = dims.vocab - 1
        if eos < 64:
            raise ConfigError(
                f"model.vocab: grammar corpora need vocab >= 65, got {dims.vocab}"
            )
        spec = corpus_mod.default_grammar(seed=seed, terminal_vocab=64)
        return corpus_mod.generate_corpus(spec, n_tokens)
    path = Path(ref)
    if not path.is_absolute():
        path = base_dir / path
    if not path.exists():
        raise ConfigError(f"{where}: file not found at {path}")
    try:
        docs, _ = corpus_mod.load_tokens(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{where}: {type(e).__name__}: {e}") from e
    min_id = min((min(d) for d in docs if d), default=0)
    if min_id < 0:
        raise ConfigError(f"{where}: negative token id {min_id}")
    max_id = max((max(d) for d in docs if d), default=0)
    if max_id >= dims.vocab - 1:
        raise ConfigError(
            f"{where}: token id {max_id} collides with EOS/vocab "
            f"{dims.vocab} (EOS is vocab-1)"
        )
    return docs


def _batches_for(docs, dims: ModelDims, batch_size: int):
    eos = dims.vocab - 1
    return list(
        corpus_mod.pack_sequences(docs, dims.seq_len, batch_size, eos_id=eos)
    )


def _load_corpora(spec: RunSpec, base_dir: Path):
    """The spec's train batches and {eval name: batches}, relative paths read
    against base_dir; a ref that fails or yields no batch is a ConfigError."""
    train_docs = _resolve_corpus(spec.corpus_train, spec.dims, 0, base_dir)
    train_batches = _batches_for(train_docs, spec.dims, spec.train_cfg.batch_size)
    if not train_batches:
        raise ConfigError(
            f"corpus.train: {spec.corpus_train!r} yields no batches at "
            f"seq_len {spec.dims.seq_len}"
        )
    eval_batches = {}
    for ename, ref in spec.corpus_evals:
        key = f"corpus.eval.{ename}"
        docs = _resolve_corpus(ref, spec.dims, 1, base_dir, key=key)
        got = _batches_for(docs, spec.dims, spec.train_cfg.batch_size)
        if not got:
            raise ConfigError(f"{key}: {ref!r} yields no batches")
        eval_batches[ename] = got
    return train_batches, eval_batches


def _anchored(ref: str, base_dir: Path) -> str:
    """ref as a spec in another directory must write it: a path joined to
    base_dir and made absolute, a grammar ref verbatim."""
    return ref if ref.startswith("grammar:") else str((base_dir / ref).absolute())


# ---------------------------------------------------------------------- runs


def output_root(cli_value: Optional[str] = None) -> Path:
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(OUT_ROOT_ENV)
    return Path(env) if env else Path("runs")


def _write_json_atomic(path: Path, obj: dict):
    with _atomic_open(path, "w") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True))


def _write_trace_atomic(run_dir: Path, trace: LossTrace):
    for name, write in (("trace.csv", trace.to_csv), ("trace.jsonl", trace.to_jsonl)):
        with _atomic_open(run_dir / name, "w") as f:
            write(f)


def cmd_run(config_path, out_root: Optional[str] = None, force: bool = False) -> dict:
    """Execute one run spec. Idempotent: a completed run with the same hash
    is skipped unless force. An existing checkpoint with matching hash is
    resumed; otherwise the run starts afresh and first removes any
    checkpoint and trace files in its directory."""
    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    text = config_path.read_text(encoding="utf-8")
    spec = parse_run_config(text)
    chash = config_hash(spec)

    root = output_root(out_root)
    run_dir = root / spec.out_dir
    manifest_path = run_dir / "manifest.json"
    ckpt_path = run_dir / "checkpoint.rlab"

    old = None
    if manifest_path.exists() and not force:
        old = json.loads(manifest_path.read_text(encoding="utf-8"))
        if old.get("config_hash") == chash and old.get("status") == "done":
            return old

    plan = expand(spec.signature)
    model = RecursiveModel(spec.dims, plan, spec.policy, dtype=np.dtype(spec.dtype))
    params = model.init_params(spec.seed)

    train_batches, eval_batches = _load_corpora(spec, config_path.parent)

    # Facts of each process that trained this run, not config: they schedule
    # the work and change no result, so config_hash leaves them out. A
    # resume keeps the entries of the processes whose steps it continues;
    # each entry covers the steps up to the next one's from_step.
    resume_from, from_step, processes = None, 0, []
    if ckpt_path.exists() and old is not None and old.get("config_hash") == chash:
        resume_from = str(ckpt_path)
        from_step = _saved_step(ckpt_path)
        processes = [e for e in old.get("processes", []) if e["from_step"] < from_step]
    else:
        # A fresh start: progress left by another config, or by a forced
        # rerun's predecessor, must never be resumed under this hash.
        for name in ("checkpoint.rlab", "trace.csv", "trace.jsonl"):
            (run_dir / name).unlink(missing_ok=True)
    processes.append({
        "from_step": from_step,
        "lanes": model_mod._LANES,
        "malloc": model_mod._MALLOC,
        "blas_threads": {
            var: os.environ.get(var)
            for reads in model_mod._BLAS_THREAD_VARS.values() for var in reads
        },
    })

    manifest = {
        "name": spec.name,
        "config_hash": chash,
        "seed": spec.seed,
        "signature": spec.signature.symbols,
        "degree": spec.signature.degree,
        "signature_tagged": to_tagged(spec.signature),
        "dims": asdict(spec.dims),
        "policy": asdict(spec.policy),
        "total_steps": spec.train_cfg.total_steps,
        "declared_total_steps": spec.declared_total_steps,
        "baseline": None
        if spec.baseline is None
        else {"signature": to_tagged(spec.baseline[0]), "steps": spec.baseline[1]},
        "params_count": param_count(plan, spec.dims),
        "adapter_fraction": adapter_fraction(params),
        "expected_cost_per_step": expected_stochastic_cost(
            plan, spec.dims, spec.policy.p_skip
        ),
        "step_cost_full": step_cost(plan, spec.dims),
        "processes": processes,
        "status": "running",
        "started_at": time.time(),
    }
    # the directory is made only now, so a spec that fails above leaves none
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.ini").write_text(text, encoding="utf-8")
    _write_json_atomic(manifest_path, manifest)

    trace, _ = train(
        model,
        params,
        train_batches,
        spec.train_cfg,
        eval_batches=eval_batches,
        # checkpoints follow the eval cadence, so a killed run resumes from
        # the last eval stamp instead of restarting
        checkpoint_path=str(ckpt_path),
        resume_from=resume_from,
        on_checkpoint=lambda so_far: _write_trace_atomic(run_dir, so_far),
    )
    # the whole trace, which after a divergence holds one row past the final
    # checkpoint
    trace.to_csv(run_dir / "trace.csv")
    trace.to_jsonl(run_dir / "trace.jsonl")

    manifest["status"] = "aborted" if trace.aborted else "done"
    manifest["abort_reason"] = trace.abort_reason
    manifest["finished_at"] = time.time()
    if trace.records:
        last = trace.records[-1]
        manifest["final_step"] = last.step
        manifest["final_train_loss"] = last.train_loss
        manifest["realized_compute_total"] = last.compute
        final_evals = {}
        for r in reversed(trace.records):
            if r.eval_losses:
                final_evals = r.eval_losses
                break
        manifest["final_eval_losses"] = final_evals
    _write_json_atomic(manifest_path, manifest)
    return manifest


# --------------------------------------------------------------------- sweep


def _sweep_candidate_config(raw: dict, sig: Signature, sweep_name: str) -> str:
    lines = ["[run]"]
    tag = to_tagged(sig).replace("^", "").lower()
    lines.append(f"name = {sweep_name}-{tag}")
    lines.append(f"out_dir = {sweep_name}/{tag.replace('@', '-')}")
    lines.append(f"seed = {raw.get('run', {}).get('seed', '0')}")
    lines.append("")
    lines.append("[signature]")
    lines.append(f"value = {to_tagged(sig)}")
    lines.append("")
    for section in ("model", "train", "corpus"):
        lines.append(f"[{section}]")
        for k, v in raw[section].items():
            lines.append(f"{k} = {v}")
        lines.append("")
    lines.append("[baseline]")
    lines.append(f"signature = {raw['sweep']['baseline_signature']}")
    lines.append(f"steps = {raw['sweep']['baseline_steps']}")
    return "\n".join(lines) + "\n"


def cmd_sweep(config_path, out_root: Optional[str] = None) -> list[dict]:
    """Run every feasible sweep candidate compute-matched to the baseline.

    Candidates run one after another from the candidate-*.ini files written
    to the sweep directory; completed runs are skipped on re-invocation, so
    an interrupted sweep resumes where it stopped. The shared sections and
    corpus refs are checked before any candidate starts, relative paths
    against the sweep spec's directory, and the candidate specs name those
    paths resolved. A candidate that raises is recorded with status
    "failed" and the sweep goes on. A feasible candidate that the baseline
    budget gives 0 matched steps is recorded "skipped-budget" before any
    candidate runs, and gets no spec. Policies are deterministic full-depth
    here; stochastic knobs belong to single runs.
    Emits comparison.csv with one row per candidate, skipped ones
    included."""
    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    raw = _parse_ini(config_path.read_text(encoding="utf-8"), _SWEEP_KEYS)
    sweep_name = _value(raw, _SWEEP_KEYS, "sweep.name", "sweep")
    # checked under the sweep's key; the candidates say baseline.steps
    bsteps = _value(raw, _SWEEP_KEYS, "sweep.baseline_steps")
    dims = _section(raw, "model")
    bsig = _signature(raw["sweep"]["baseline_signature"], "sweep.baseline_signature", dims)
    # the shared sections and corpora fail here, once, not in every candidate,
    # under the keys the sweep spec gives them
    spec = parse_run_config(_sweep_candidate_config(raw, bsig, sweep_name))
    base_dir = config_path.parent
    _load_corpora(spec, base_dir)
    # candidate specs live under the out-root, so they name each path ref
    # resolved against the sweep spec's directory
    corpus = dict(raw["corpus"], train=_anchored(spec.corpus_train, base_dir))
    evals = [(ename, _anchored(ref, base_dir)) for ename, ref in spec.corpus_evals]
    if evals != list(spec.corpus_evals):
        corpus["eval"] = ", ".join(f"{ename}={ref}" for ename, ref in evals)
    raw = {**raw, "corpus": corpus}

    root = output_root(out_root)
    sweep_dir = root / sweep_name
    sweep_dir.mkdir(parents=True, exist_ok=True)

    candidates = enumerate_sweep(dims.total_layers)
    bplan = expand(bsig)
    rows: list[dict] = []
    pending: list[tuple[dict, Path]] = []
    for sig, feasible in candidates:
        row = {
            "signature": sig.symbols,
            "degree": sig.degree,
            "feasible": feasible,
            "layers_per_block": plan_layers_per_block(sig, dims) if feasible else 0,
        }
        if not feasible:
            row["status"] = "skipped-infeasible"
            rows.append(row)
            continue
        if matched_steps(bplan, expand(sig), dims, dims, bsteps) < 1:
            row["status"] = "skipped-budget"
            row["steps"] = 0
            rows.append(row)
            continue
        cfg_text = _sweep_candidate_config(raw, sig, sweep_name)
        tag = to_tagged(sig).replace("@", "-").lower()
        cfg_path = sweep_dir / f"candidate-{tag}.ini"
        cfg_path.write_text(cfg_text, encoding="utf-8")
        pending.append((row, cfg_path))
        rows.append(row)

    for row, cfg_path in pending:
        try:
            manifest = cmd_run(cfg_path, str(root))
        except Exception as e:  # recorded, not fatal to the sweep
            manifest = {"status": "failed", "error": f"{type(e).__name__}: {e}"}
        row["status"] = manifest.get("status", "failed")
        row["params"] = manifest.get("params_count")
        row["steps"] = manifest.get("total_steps")
        row["final_train_loss"] = manifest.get("final_train_loss")
        row["realized_compute_total"] = manifest.get("realized_compute_total")
        evals = manifest.get("final_eval_losses") or {}
        for k, v in evals.items():
            row[f"final_eval_{k}"] = v
        if "error" in manifest:
            row["error"] = manifest["error"]

    columns = ["signature", "degree", "feasible", "layers_per_block", "status",
               "params", "steps", "final_train_loss", "realized_compute_total"]
    extra_cols = sorted({k for r in rows for k in r} - set(columns))
    columns += extra_cols
    with open(sweep_dir / "comparison.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=columns)
        w.writeheader()
        for r in rows:
            w.writerow(r)
    return rows


# ----------------------------------------------------------------- fit/report


_FIT_POINTS = 4  # the fewest points fit_power_law takes


def _check_fit_args(use: str, last_frac: float):
    if use != "train" and not use.startswith("eval:"):
        raise ConfigError(f"--use must be 'train' or 'eval:<name>', got {use!r}")
    if not (0.0 < last_frac <= 1.0):
        raise ConfigError(f"--last-frac must be in (0, 1], got {last_frac}")


def _load_run(run_dir: Path, use: str) -> tuple[dict, list[tuple[float, float]]]:
    """A run directory's manifest and every (compute, loss) point of `use`;
    a run with fewer points than a fit needs is refused by name."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    trace = LossTrace.from_jsonl(run_dir / "trace.jsonl")
    if use == "train":
        pts = [(r.compute, r.train_loss) for r in trace.records]
    else:
        name = use[len("eval:"):]
        pts = trace.eval_points(name)
        if not pts:
            raise ConfigError(
                f"{run_dir}: no eval points named {name!r} in trace "
                f"(have {trace.eval_names})"
            )
    if len(pts) < _FIT_POINTS:
        raise ConfigError(
            f"{run_dir}: {len(pts)} points of {use!r}, a fit needs at least "
            f"{_FIT_POINTS}"
        )
    return manifest, pts


def _load_runs(run_dirs, use: str) -> list[tuple[dict, list[tuple[float, float]]]]:
    """_load_run for each directory; fits and curves are keyed by the
    manifest name, so two directories with one name are refused."""
    runs, seen = [], {}
    for rd in run_dirs:
        manifest, pts = _load_run(Path(rd), use)
        name = manifest["name"]
        if name in seen:
            raise ConfigError(
                f"run name {name!r} is shared by {seen[name]} and {rd}; "
                f"give each run its own [run] name"
            )
        seen[name] = rd
        runs.append((manifest, pts))
    return runs


def _fit_runs(runs, out_path, last_frac: float) -> dict[str, FitResult]:
    """Fit the last last_frac of each run's points (at least _FIT_POINTS)."""
    fits: dict[str, FitResult] = {}
    for manifest, pts in runs:
        k = max(_FIT_POINTS, int(round(len(pts) * last_frac)))
        fits[manifest["name"]] = fit_power_law(pts[-k:])
    if out_path is not None:
        write_fits_json(out_path, fits)
    return fits


def cmd_fit(
    run_dirs,
    out_path=None,
    use: str = "train",
    last_frac: float = 1.0,
) -> dict[str, FitResult]:
    """Fit each run's loss-vs-compute trace; write fits JSON when asked."""
    _check_fit_args(use, last_frac)
    return _fit_runs(_load_runs(run_dirs, use), out_path, last_frac)


def _family(manifests) -> Optional[dict[int, str]]:
    """Map rounds r -> run name when the runs form an A^r B family."""
    mapping: dict[int, str] = {}
    for manifest in manifests:
        sig = parse_tagged(manifest["signature_tagged"])
        r = rins_rounds(sig)
        if r is None or r in mapping:
            return None
        mapping[r] = manifest["name"]
    return mapping if len(mapping) >= 2 else None


def cmd_report(
    run_dirs,
    out_dir,
    use: str = "train",
    last_frac: float = 1.0,
) -> dict:
    """Fits + plot-data CSVs + (for A^r B families) optimal-r breakpoints.

    summary.json records the fitted constants per run and, for families,
    whether the qualitative pattern held: exponents rising with r, late-run
    loss falling with r. Flags are reported, never asserted.
    """
    _check_fit_args(use, last_frac)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = _load_runs(run_dirs, use)
    fits = _fit_runs(runs, out_dir / "fits.json", last_frac)

    all_points: dict[str, list[tuple[float, float]]] = {}
    for manifest, pts in runs:
        all_points[manifest["name"]] = pts
        with open(out_dir / f"curve-{manifest['name']}.csv", "w",
                  encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["compute", "loss"])
            for x, y in pts:
                w.writerow([repr(x), repr(y)])

    summary: dict = {
        "fits": {name: asdict(f) for name, f in fits.items()},
        "use": use,
        "last_frac": last_frac,
    }

    family_map = _family([manifest for manifest, _ in runs])
    if family_map:
        family = {r: fits[name] for r, name in family_map.items()}
        rs = sorted(family_map)
        cs = [fits[family_map[r]].c for r in rs]
        betas = [fits[family_map[r]].beta for r in rs]
        final_losses = [all_points[family_map[r]][-1][1] for r in rs]
        summary["family"] = {str(r): family_map[r] for r in rs}
        summary["pattern"] = {
            "c_increases_with_r": all(b > a for a, b in zip(cs, cs[1:])),
            "beta_increases_with_r": all(b > a for a, b in zip(betas, betas[1:])),
            "final_loss_decreases_with_r": all(
                b < a for a, b in zip(final_losses, final_losses[1:])
            ),
        }
        x_lo = min(f.fit_x_min for f in family.values())
        x_hi = max(f.fit_x_max for f in family.values())
        grid = np.geomspace(max(x_lo, 1e-12), x_hi, 512)
        result = optimal_r(family, grid)
        write_breakpoints_csv(out_dir / "breakpoints.csv", result)
        summary["breakpoints"] = [[x, r] for x, r in result.breakpoints]
        summary["optimal_r_extrapolated"] = bool(result.any_extrapolation)

    _write_json_atomic(out_dir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------- eval


def cmd_eval(
    checkpoint_path,
    tasks_path,
    rounds_list: Optional[list[int]] = None,
    out_path=None,
    score_full: bool = False,
) -> list[dict]:
    """Zero-shot MCQ accuracy of a checkpoint, per requested round count.

    Every round count is checked against the checkpoint before any item is
    scored; each item then takes one forward pass for all of them.
    """
    ckpt_path = Path(checkpoint_path)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    tasks_path = Path(tasks_path)
    if not tasks_path.exists():
        raise ConfigError(f"task file not found: {tasks_path}")

    ckpt = load_checkpoint(ckpt_path)
    sig = parse_tagged(ckpt.signature)
    model = RecursiveModel(
        ckpt.dims, expand(sig), ckpt.policy, dtype=np.dtype(ckpt.dtype)
    )
    tok = ByteTokenizer()
    if ckpt.dims.vocab < tok.vocab_size:
        raise ConfigError(
            f"checkpoint vocab {ckpt.dims.vocab} cannot score byte-tokenized "
            f"text (needs >= {tok.vocab_size})"
        )
    if rounds_list is None:
        rounds_list = [model.resolve_rounds(None)]  # model default
    if not rounds_list:
        raise ConfigError("--rounds: no round count given")
    for r in rounds_list:
        try:
            model.plan.calls(r)
        except ValueError as e:
            raise ConfigError(f"--rounds for {ckpt.signature}: {e}") from e
    items = read_task_jsonl(tasks_path)
    results = eval_mcq_depths(model, ckpt.params, tok, items, rounds_list,
                              score_full=score_full)
    rows = [
        {
            "task": tasks_path.stem,
            "rounds": r,
            "accuracy": result.accuracy,
            "n_items": result.n_items,
        }
        for r, result in zip(rounds_list, results)
    ]
    if out_path is not None:
        write_results_jsonl(out_path, rows)
    return rows
