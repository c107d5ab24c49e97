"""Command-line entry point.

Subcommands:
    run        train a stream and write matrix.csv, summary.json, per-task
               training logs, and checkpoint.bin with its sidecar
               checkpoint.bin.frozen into the output directory
    eval       re-evaluate the last completed stage of a saved checkpoint
    ablate     run the three method variants and print a comparison table
    gradcheck  end-to-end finite-difference check of the training gradients
    gen-sbm    write a synthetic block-model graph in the citation text format

The output directory is resolved as --out flag, then $TAAM_OUT_DIR, then the
config's out_dir.  Exit codes: 0 ok, 1 runtime/data failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from .checkpoint import average_accuracy, load_checkpoint
from .config import ABLATIONS, METHODS, PRECISIONS, RunConfig, make_config, read_config_file
from .datasets import SBM_PARAMS, write_planetoid
from .errors import ContractError, IntegrityError, NumericError, ParseError
from .fileio import sole_writer, write_atomic
from .graph import generate_sbm
from .harness import evaluate_final_row, run_continual, stream_from_config, summary, write_matrix_csv
from .training import end_to_end_grad_check

log = logging.getLogger(__name__)


# The config flags of `run`, in help order: each one's add_argument keywords,
# and whether `ablate`, which picks the method and ablation itself, takes it.
_CONFIG_FLAGS = {
    "dataset": ({"help": "file prefix or sbm:spec"}, True),
    "method": ({"choices": METHODS}, False),
    "protocol": ({"help": "equal:K or unequal:a,b,..."}, True),
    "seed": ({"type": int}, True),
    "ablation": ({"choices": ABLATIONS}, False),
    "epochs": ({"type": int}, True),
    "precision": ({"choices": PRECISIONS}, False),
}


def _add_config_flags(parser, ablate: bool, out_help: str) -> None:
    parser.add_argument("--config", help="key = value config file")
    for key, (kwargs, in_ablate) in _CONFIG_FLAGS.items():
        if in_ablate or not ablate:
            parser.add_argument(f"--{key}", **kwargs)
    parser.add_argument("--out", help=out_help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train a continual stream and write artifacts")
    _add_config_flags(run, ablate=False, out_help="output directory")
    run.add_argument("--resume", help="checkpoint to continue from")
    run.add_argument("--stop-after", type=int, default=None,
                     help="stop after this stage (for scripted interruption)")

    ev = sub.add_parser("eval", help="re-evaluate a checkpoint's last stage")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", help="override the dataset location if it moved")
    ev.add_argument("--out", help="where to write eval_summary.json")

    ab = sub.add_parser("ablate", help="run nsm_only, retrieval_only, and full variants")
    _add_config_flags(ab, ablate=True, out_help="output directory (one subdir per variant)")

    gc = sub.add_parser("gradcheck", help="finite-difference check of training gradients")
    gc.add_argument("--seeds", type=int, default=20)
    gc.add_argument("--nodes", type=int, default=10)
    gc.add_argument("--tolerance", type=float, default=1e-4)

    gen = sub.add_parser("gen-sbm", help="write a synthetic graph as .content/.cites")
    gen.add_argument("--out", required=True, help="output file prefix")
    for _, _, default, flag in SBM_PARAMS:
        gen.add_argument(flag, type=type(default), default=default)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def _resolve_config(args, forced: dict | None = None) -> RunConfig:
    file_values = read_config_file(args.config) if args.config else {}
    overrides = {key: getattr(args, key, None) for key in _CONFIG_FLAGS}
    if forced:
        overrides.update(forced)
    cfg = make_config(file_values, overrides)
    out = args.out or os.environ.get("TAAM_OUT_DIR")
    if out:
        cfg.out_dir = out
    return cfg


def _dump_json(path, payload) -> None:
    write_atomic(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _epoch_lines(epochs: np.ndarray) -> list[bytes]:
    """A task's train log: one line per row of its (epochs, 3) epoch log."""
    return [
        f"epoch={e} loss={loss!r} train_acc={train_acc:.4f} val_acc={val_acc:.4f}\n".encode("utf-8")
        for e, (loss, train_acc, val_acc) in enumerate(epochs.tolist(), 1)
    ]


def _run_one(cfg: RunConfig, out_dir: str, resume_path=None, stop_after=None) -> dict:
    with sole_writer(out_dir):
        stream = stream_from_config(cfg)
        resume = load_checkpoint(resume_path) if resume_path else None
        checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        started = time.perf_counter()
        state = run_continual(
            stream, cfg, resume=resume, checkpoint_path=checkpoint_path, stop_after=stop_after
        )
        record = summary(state, time.perf_counter() - started)
        write_matrix_csv(os.path.join(out_dir, "matrix.csv"), state.matrix, state.completed)
        _dump_json(os.path.join(out_dir, "summary.json"), record)
        for t, stage in enumerate(state.stages, 1):
            write_atomic(os.path.join(out_dir, f"task_{t:02d}_train.log"), _epoch_lines(stage.epochs))
    return record


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    summary = _run_one(cfg, cfg.out_dir, resume_path=args.resume, stop_after=args.stop_after)
    print(
        f"method={summary['method']} dataset={summary['dataset']} seed={summary['seed']} "
        f"stages={summary['stages_completed']}/{summary['tasks_total']} "
        f"AA={summary['AA']} AF={summary['AF']}"
    )
    print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    cfg = state.config
    if args.dataset:
        cfg.dataset = args.dataset
    # the lock makes the directory, so it is taken once the checkpoint has
    # loaded: a missing checkpoint leaves no directory behind
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    with sole_writer(out_dir):
        row, decisions = evaluate_final_row(stream_from_config(cfg), cfg, state)
        payload = {
            "checkpoint": args.checkpoint,
            "stage": state.completed,
            "accuracies": [float(v) for v in row],
            "AA": average_accuracy(row[None]),
            "retrieval": decisions,
        }
        _dump_json(os.path.join(out_dir, "eval_summary.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_ablate(args) -> int:
    rows = []
    for variant in ("nsm_only", "retrieval_only", "full"):
        cfg = _resolve_config(args, forced={"method": "taam", "ablation": variant})
        out_dir = os.path.join(cfg.out_dir, variant)
        summary = _run_one(cfg, out_dir)
        rows.append((variant, summary["AA"], summary["AF"]))
    print(f"{'variant':<16}{'AA':>10}{'AF':>10}")
    for variant, aa, af in rows:
        af_text = f"{af:.2f}" if af is not None else "-"
        print(f"{variant:<16}{aa:>10.2f}{af_text:>10}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ContractError(f"--seeds must be >= 1, got {args.seeds}")
    if not np.isfinite(args.tolerance) or args.tolerance < 0:
        raise ContractError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    worst_overall = 0.0
    failed = False
    for seed in range(args.seeds):
        worst = end_to_end_grad_check(seed, num_nodes=args.nodes)
        worst_overall = max(worst_overall, worst)
        status = "ok" if worst <= args.tolerance else "FAIL"
        print(f"seed={seed} max_rel_err={worst:.3e} {status}")
        failed = failed or worst > args.tolerance
    print(f"worst over {args.seeds} seeds: {worst_overall:.3e} (tolerance {args.tolerance:g})")
    return 1 if failed else 0


def _cmd_gen_sbm(args) -> int:
    params = {name: getattr(args, flag[2:].replace("-", "_")) for _, name, _, flag in SBM_PARAMS}
    graph = generate_sbm(**params, seed=args.seed)
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    content, cites = write_planetoid(graph, args.out)
    print(f"wrote {content} ({graph.num_nodes} nodes) and {cites} ({graph.num_edges // 2} edges)")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "eval": _cmd_eval,
        "ablate": _cmd_ablate,
        "gradcheck": _cmd_gradcheck,
        "gen-sbm": _cmd_gen_sbm,
    }
    try:
        return handlers[args.command](args)
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ParseError, IntegrityError, NumericError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
