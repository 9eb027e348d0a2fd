"""Desk-scale laboratory for recursive parameter-sharing transformers.

Pure-numpy models whose layer stack is described by a repetition signature
(AB, AAB, AABB, (ABB)@d2, ...), trained under compute-matched budgets with
optional stochastic recursion depth, per-depth linear adapters, and KV-cache
sharing across recursive calls; saturating power-law fits and zero-shot MCQ
scoring close the loop.
"""

from .signatures import (
    Signature,
    SignatureParseError,
    ExecutionPlan,
    parse,
    parse_tagged,
    to_tagged,
    expand,
    rins_rounds,
    leaf_label,
)
from .ledger import (
    InfeasiblePlanError,
    ModelDims,
    step_cost,
    matched_steps,
    expected_stochastic_cost,
    enumerate_sweep,
)
from .model import (
    RecursionPolicy,
    RecursiveModel,
    sample_rounds,
    adapter_fraction,
    param_count,
    segments_to_mask,
)
from .optim import (
    TrainConfig,
    AdamState,
    NonFiniteGradientError,
    lr_at,
    init_adam_state,
    adam_step,
    global_grad_norm,
)
from .training import LossTrace, TraceRecord, train, DIVERGENCE_FACTOR
from .corpus import (
    GrammarError,
    GrammarSpec,
    ByteTokenizer,
    PackedBatch,
    default_grammar,
    validate_grammar,
    min_depths,
    generate_corpus,
    pack_sequences,
    segments_from_boundaries,
    save_tokens,
    load_tokens,
    ingest_text,
)
from .scaling import (
    FitError,
    FitResult,
    OptimalRResult,
    fit_power_law,
    optimal_r,
    write_fits_json,
    write_breakpoints_csv,
)
from .evals import (
    TemplateError,
    ContextOverflowError,
    MCQItem,
    EvalResult,
    render_template,
    render_parts,
    score_option,
    eval_mcq,
    eval_mcq_depths,
    held_out_log_perplexity,
    read_task_jsonl,
    write_task_jsonl,
    write_results_jsonl,
)
from .checkpoint import CheckpointData, save_checkpoint, load_checkpoint
from .lab import (
    ConfigError,
    RunSpec,
    parse_run_config,
    config_hash,
    cmd_run,
    cmd_sweep,
    cmd_fit,
    cmd_report,
    cmd_eval,
)

__version__ = "0.1.0"

__all__ = [
    "Signature", "SignatureParseError", "ExecutionPlan", "parse", "parse_tagged",
    "to_tagged", "expand", "rins_rounds", "leaf_label",
    "InfeasiblePlanError", "ModelDims", "param_count", "step_cost",
    "matched_steps", "expected_stochastic_cost", "enumerate_sweep",
    "RecursionPolicy", "RecursiveModel", "sample_rounds",
    "adapter_fraction", "segments_to_mask",
    "TrainConfig", "AdamState", "NonFiniteGradientError", "lr_at",
    "init_adam_state", "adam_step", "global_grad_norm",
    "LossTrace", "TraceRecord", "train", "DIVERGENCE_FACTOR",
    "GrammarError", "GrammarSpec", "ByteTokenizer", "PackedBatch",
    "default_grammar", "validate_grammar", "min_depths",
    "generate_corpus", "pack_sequences", "segments_from_boundaries",
    "save_tokens", "load_tokens", "ingest_text",
    "FitError", "FitResult", "OptimalRResult", "fit_power_law",
    "optimal_r", "write_fits_json", "write_breakpoints_csv",
    "TemplateError", "ContextOverflowError", "MCQItem", "EvalResult",
    "render_template", "render_parts", "score_option", "eval_mcq",
    "eval_mcq_depths", "held_out_log_perplexity", "read_task_jsonl",
    "write_task_jsonl", "write_results_jsonl",
    "CheckpointData", "save_checkpoint", "load_checkpoint",
    "ConfigError", "RunSpec", "parse_run_config", "config_hash",
    "cmd_run", "cmd_sweep", "cmd_fit", "cmd_report", "cmd_eval",
    "__version__",
]
