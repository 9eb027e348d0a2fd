"""Command line front end.

Exit codes: 0 success, 2 invalid config or infeasible plan (the message
names the offending field), 3 runtime failure, including a sweep in which
any feasible candidate failed (reported after comparison.csv is written).
"""

from __future__ import annotations

import argparse
import sys

from .lab import ConfigError, cmd_eval, cmd_fit, cmd_report, cmd_run, cmd_sweep
from .ledger import InfeasiblePlanError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rinslab",
        description="Desk-scale recursive transformer experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one run spec (INI file)")
    run.add_argument("config", help="path to the run spec")
    run.add_argument("--out-root", default=None, help="output root directory")
    run.add_argument(
        "--force", action="store_true",
        help="re-run even if a completed run with the same hash exists",
    )

    sweep = sub.add_parser("sweep", help="compute-matched signature sweep")
    sweep.add_argument("config", help="path to the sweep spec")
    sweep.add_argument("--out-root", default=None)

    fit = sub.add_parser("fit", help="fit saturating power laws to run traces")
    fit.add_argument("run_dirs", nargs="+", help="run directories with traces")
    fit.add_argument("--out", default=None, help="fits JSON output path")
    fit.add_argument("--use", default="train", help="'train' or 'eval:<name>'")
    fit.add_argument(
        "--last-frac", type=float, default=1.0,
        help="fit only the trailing fraction of points",
    )

    rep = sub.add_parser("report", help="fits + plot data + breakpoints")
    rep.add_argument("run_dirs", nargs="+")
    rep.add_argument("--out-dir", required=True)
    rep.add_argument("--use", default="train")
    rep.add_argument("--last-frac", type=float, default=1.0)

    ev = sub.add_parser("eval", help="zero-shot MCQ scoring of a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--tasks", required=True, help="task JSONL file")
    ev.add_argument(
        "--rounds", default=None,
        help="comma-separated recursion depths to score at (default: model's)",
    )
    ev.add_argument("--out", default=None, help="results JSONL path")
    ev.add_argument(
        "--score-full", action="store_true",
        help="score the whole rendered sequence, not just the option tokens",
    )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            manifest = cmd_run(args.config, out_root=args.out_root, force=args.force)
            print(f"run {manifest['name']}: {manifest['status']}")
            if manifest.get("final_train_loss") is not None:
                print(
                    f"  steps={manifest.get('final_step')} "
                    f"train_loss={manifest['final_train_loss']:.4f}"
                )
        elif args.command == "sweep":
            rows = cmd_sweep(args.config, out_root=args.out_root)
            for r in rows:
                loss = r.get("final_train_loss")
                loss_s = f" loss={loss:.4f}" if isinstance(loss, float) else ""
                print(
                    f"{r['signature']}@d{r['degree']}: {r.get('status')}{loss_s}"
                )
            failed = sum(r["status"] == "failed" for r in rows)
            if failed:
                print(f"error: {failed} of {sum(r['feasible'] for r in rows)} "
                      "feasible candidates failed", file=sys.stderr)
                return EXIT_RUNTIME
        elif args.command == "fit":
            fits = cmd_fit(
                args.run_dirs, out_path=args.out, use=args.use,
                last_frac=args.last_frac,
            )
            for name, f in fits.items():
                print(
                    f"{name}: beta={f.beta:.6g} c={f.c:.6g} "
                    f"eps_inf={f.eps_inf:.6g} residual={f.residual:.6g}"
                )
        elif args.command == "report":
            summary = cmd_report(
                args.run_dirs, args.out_dir, use=args.use,
                last_frac=args.last_frac,
            )
            print(f"report written to {args.out_dir}")
            if "pattern" in summary:
                for k, v in summary["pattern"].items():
                    print(f"  {k}: {v}")
        elif args.command == "eval":
            rounds_list = None
            if args.rounds is not None:
                try:
                    rounds_list = [int(x) for x in args.rounds.split(",") if x.strip()]
                except ValueError:
                    raise ConfigError(
                        f"--rounds: expected comma-separated integers, got {args.rounds!r}"
                    )
            rows = cmd_eval(
                args.checkpoint, args.tasks, rounds_list=rounds_list,
                out_path=args.out, score_full=args.score_full,
            )
            for row in rows:
                print(
                    f"{row['task']} rounds={row['rounds']}: "
                    f"accuracy={row['accuracy']:.4f} ({row['n_items']} items)"
                )
    except (ConfigError, InfeasiblePlanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
