"""Measure one workload in this process and print one JSON result line.

Started by run.py in a fresh process, with thread counts and PYTHONPATH set
in its environment.  The run is a closed loop of rounds, one client, until
the time budget is spent.  A round is:

    set-up   resolve_dataset + build_stream              -> setup_s
    run      run_continual, checkpoint after every stage -> run_s, AA, AF, retrieval
    evals    evals_per_round eval ops on that checkpoint -> eval_ms_*
             (build_stream on the in-memory graph, load_checkpoint,
             evaluate_final_row: the `taam eval` path without data generation)

Every eval op must reproduce the run's final matrix row and retrieval
decisions, and every round must reproduce the first round's matrix and
checkpoint bytes.  With --trace 1, untraced and traced rounds alternate:
traced rounds give the per-layer metrics and the counts that are checked
against their formulas, untraced ones the base of trace.overhead_pct.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import taam  # noqa: E402
from taam import checkpoint, datasets, harness  # noqa: E402
from taam.config import make_config  # noqa: E402

from tracer import Tracer, reduce_spans  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

clock = time.perf_counter


class Ops:
    """Counts operations and checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def error(self, what: str, exc: Exception) -> None:
        traceback.print_exc(file=sys.stderr)
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def make_stream(g, cfg):
    classes_per_task, sizes = cfg.protocol_spec()
    return harness.build_stream(
        g,
        classes_per_task=classes_per_task or 2,
        task_sizes=sizes,
        seed=cfg.seed,
        shuffle_classes=cfg.shuffle_classes,
        train_frac=cfg.train_frac,
        val_frac=cfg.val_frac,
    )


def run_round(cfg, evals: int, ckpt: Path, ops: Ops) -> dict | None:
    """One set-up, one run and `evals` eval ops; None if the run failed."""
    gc.collect()
    t0 = clock()
    try:
        g = datasets.resolve_dataset(cfg.dataset, cfg.seed, row_normalize=cfg.row_normalize)
        stream = make_stream(g, cfg)
    except Exception as e:  # counted as a failed op; the benchmark keeps going
        ops.error("set-up", e)
        return None
    setup_s = clock() - t0
    ops.check(True, "set-up")

    gc.collect()
    t0 = clock()
    try:
        result = harness.run_continual(stream, cfg, checkpoint_path=str(ckpt))
    except Exception as e:
        ops.error("run", e)
        return None
    run_s = clock() - t0
    ops.check(True, "run")
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    expected_row = result.matrix[result.completed - 1, : result.completed]
    expected_decisions = [e for e in result.retrieval_log if e["stage"] == result.completed]

    eval_ms = []
    for _ in range(evals):
        t0 = clock()
        try:
            s = make_stream(g, cfg)
            state = checkpoint.load_checkpoint(str(ckpt))
            row, decisions = harness.evaluate_final_row(s, cfg, state)
        except Exception as e:
            ops.error("eval op", e)
            continue
        eval_ms.append(1000.0 * (clock() - t0))
        ops.check(
            np.array_equal(row, expected_row) and decisions == expected_decisions,
            "eval op did not reproduce the final matrix row and retrieval decisions",
        )
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "eval_ms": eval_ms,
        "matrix": result.matrix,
        "digest": digest,
        "aa": result.aa,
        "af": result.af,
        "retrieval": result.per_stage_retrieval[-1] if result.per_stage_retrieval else None,
        "tasks": len(stream.tasks),
    }


def check_counts(layer: dict, tasks: int, epochs: int, evals: int, ops: Ops) -> None:
    calls = lambda name: layer.get(name, {}).get("calls", 0)  # noqa: E731
    expect = {
        "training.Adam.step": tasks * epochs,
        "training.train_task": tasks,
        "checkpoint.save_checkpoint": tasks,
        "harness.run_continual": 1,
        "harness.evaluate_final_row": evals,
        "checkpoint.load_checkpoint": evals,
        "prototypes.PrototypeBank.retrieve": tasks * (tasks + 1) // 2 + tasks * evals,
        "modulator.modulate": 2 * calls("backbone.Backbone.forward"),
    }
    for name, want in expect.items():
        ops.check(calls(name) == want, f"{name}.calls = {calls(name)}, expected {want}")
    ops.check(calls("tensor.layer_norm") > 0, "tensor.layer_norm was never seen")


def layer_metrics(layer: dict, counters: dict) -> dict:
    out = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in counters:
            out[name] = float(counters[name])
        elif kind in layer.get(base, {}):
            out[name] = float(layer[base][kind])
        elif kind in ("s", "self_s", "calls"):
            out[name] = 0.0
    return out


def environment(threads: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = clock()

    if not Path(taam.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"taam imported from {taam.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cfg = make_config({}, dict(wl.overrides, seed=args.seed))
    WORK.mkdir(exist_ok=True)
    ckpt = WORK / f"{wl.name}-{os.getpid()}.bin"
    ops = Ops()
    tracer = Tracer() if args.trace else None
    rounds: list[dict] = []
    traced: list[dict] = []
    all_spans: list = []
    min_rounds = 3 if args.trace else wl.min_rounds()
    try:
        # An untimed one-epoch round first: imports, allocator growth and file
        # creation would otherwise land in the first sample.
        run_round(dataclasses.replace(cfg, epochs=1), 2, ckpt, ops)
        while True:
            elapsed = clock() - started
            last = rounds[-1]["wall_s"] if rounds else 0.0
            if len(rounds) >= min_rounds and elapsed + last > args.seconds:
                break
            t0 = clock()
            # With tracing, rounds alternate: traced, untraced, traced, ...
            tracing = tracer is not None and len(rounds) % 2 == 0
            if tracing:
                with tracer.installed():
                    r = run_round(cfg, wl.evals_per_round, ckpt, ops)
                spans, counters = tracer.take()
                all_spans.append(spans)
            else:
                r = run_round(cfg, wl.evals_per_round, ckpt, ops)
            if r is None:
                break
            r["wall_s"] = clock() - t0
            r["traced"] = tracing
            if tracing:
                r["layer"] = reduce_spans(tracer.names, spans)
                r["in_run"] = reduce_spans(tracer.names, spans, within="harness.run_continual")
                r["counters"] = counters
                traced.append(r)
            rounds.append(r)
    finally:
        ckpt.unlink(missing_ok=True)
    if not rounds:
        print("no round completed: " + "; ".join(ops.errors), file=sys.stderr)
        return 1

    first = rounds[0]
    for r in rounds[1:]:
        ops.check(
            np.array_equal(r["matrix"], first["matrix"], equal_nan=True),
            "a repeat gave a different accuracy matrix",
        )
        ops.check(r["digest"] == first["digest"], "a repeat wrote different checkpoint bytes")

    plain = [r for r in rounds if not r["traced"]]
    if tracer is None:
        evals = [ms for r in plain for ms in r["eval_ms"]]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "eval_ms_p50": statistics.median(evals) if evals else math.nan,
            "eval_ms_p90": percentile(evals, 0.9) if evals else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "aa_pct": first["aa"],
            "retained_pct": 100.0 - first["af"],
            "retrieval_pct": first["retrieval"],
        }
        samples = {
            "setup_s": len(rounds),
            "run_s": len(plain),
            "eval_ms_p50": len(evals),
            "eval_ms_p90": len(evals),
            "peak_rss_mb": 1,
            "aa_pct": len(rounds),
            "retained_pct": len(rounds),
            "retrieval_pct": len(rounds),
        }
        units = END_TO_END
    else:
        per_round = []
        for r in traced:
            check_counts(r["layer"], r["tasks"], cfg.epochs, wl.evals_per_round, ops)
            per_round.append(layer_metrics(r["layer"], r["counters"]))
        for r in per_round[1:]:
            for name, value in r.items():
                if name.endswith(".calls"):
                    ops.check(value == per_round[0][name], f"{name} differs between traced rounds")
        metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        traced_run = statistics.median(r["run_s"] for r in traced)
        plain_run = statistics.median(r["run_s"] for r in plain) if plain else math.nan
        metrics["trace.overhead_pct"] = 100.0 * (traced_run / plain_run - 1.0)
        samples = {name: len(traced) for name in metrics}
        samples["trace.overhead_pct"] = len(traced) + len(plain)
        units = PER_LAYER
        write_spans(wl.name, tracer.names, all_spans)

    missing = [name for name in units if name not in metrics and name != "ok_ops_pct"]
    ops.check(not missing, f"metrics not measured: {missing}")
    for name, value in metrics.items():
        ops.check(value is not None and math.isfinite(value), f"{name} is not finite: {value}")
    if "ok_ops_pct" in units:
        metrics["ok_ops_pct"] = 100.0 * (ops.attempted - ops.failed) / ops.attempted
        samples["ok_ops_pct"] = ops.attempted

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_times": [
            {"traced": r["traced"], "setup_s": r["setup_s"], "run_s": r["run_s"]} for r in rounds
        ],
        "env": environment(os.environ.get("OMP_NUM_THREADS", "unset")),
        "errors": ops.errors,
        "samples": samples,
        "units": {name: units[name] for name in metrics},
        "split": split_of_run(traced) if traced else None,
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def split_of_run(traced: list[dict]) -> dict:
    """Median share of run_continual's time spent inside each traced name."""
    shares: dict[str, list[float]] = {}
    for r in traced:
        total = r["in_run"]["total_s"]
        for name, rec in r["in_run"].items():
            if name != "total_s":
                key = f"{name}.self_s" if name == "harness.run_continual" else name
                value = rec["self_s"] if name == "harness.run_continual" else rec["s"]
                shares.setdefault(key, []).append(100.0 * value / total)
    return {name: statistics.median(v) for name, v in sorted(shares.items())}


def write_spans(workload: str, names: list[str], rounds: list) -> None:
    """Spans of every traced round: [name id, start, end, parent index]."""
    path = WORK / f"spans-{workload}.json"
    with open(path, "w") as fh:
        json.dump({"names": names, "rounds": rounds}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
