"""Workloads and metric names of the taam benchmark.

This module imports nothing heavy, so the launcher (run.py) and the
measuring child (worker.py) can both use it.  README.md in this directory
explains why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_EVAL_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # RunConfig fields
    evals_per_round: int

    def min_rounds(self) -> int:
        """Enough rounds for two repeats and MIN_EVAL_SAMPLES eval ops."""
        return max(2, -(-MIN_EVAL_SAMPLES // self.evals_per_round))


WORKLOADS = {
    w.name: w
    for w in (
        # `taam run` defaults: about 72 train nodes per task, so per-call
        # Python and tape overhead and Adam.step dominate.
        Workload("sbm-small-f64", {"precision": "f64", "epochs": 100}, evals_per_round=80),
        # n = 6000: dense kernels (matmul, layer_norm, Tape.backward) dominate
        # the run and the dense n x n SBM draw dominates set-up.
        Workload(
            "sbm-large-f32",
            {
                "dataset": "sbm:classes=6,npc=1000,p_in=0.01,p_out=0.002,dim=128,sep=8",
                "precision": "f32",
                "epochs": 50,
            },
            evals_per_round=25,
        ),
        # 20 tasks of 5 epochs: the stream dominates, with 210 stage
        # evaluations and 20 rewrites of a growing checkpoint.
        Workload(
            "sbm-long-stream",
            {
                "dataset": "sbm:classes=40,npc=100,p_in=0.05,p_out=0.005,dim=40,sep=8",
                "precision": "f64",
                "epochs": 5,
            },
            evals_per_round=20,
        ),
    )
}

# name -> unit; the same set on every workload.  Every value is nonzero on a
# healthy run: forgetting and failures are reported as what is kept.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "eval_ms_p50": "ms",
    "eval_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "aa_pct": "%",
    "retained_pct": "%",
    "retrieval_pct": "%",
    "ok_ops_pct": "%",
}

TENSOR_OPS = (
    "matmul",
    "add",
    "mul",
    "transpose",
    "reshape",
    "slice_cols",
    "layer_norm",
    "softmax_rows",
    "weighted_cross_entropy",
)


def _per_layer() -> dict:
    names = {
        "graph.generate_sbm.s": "s",
        "graph.propagate.s": "s",
        "graph.propagate.calls": "count",
        "harness.build_stream.s": "s",
        "harness.run_continual.self_s": "s",
        "harness.evaluate_final_row.s": "s",
    }
    for op in TENSOR_OPS:
        names[f"tensor.{op}.s"] = "s"
        names[f"tensor.{op}.calls"] = "count"
    names.update(
        {
            "tensor.Tape.backward.s": "s",
            "tensor.Tape.backward.calls": "count",
            "training.Adam.step.s": "s",
            "training.Adam.step.calls": "count",
            "training.train_task.s": "s",
            "training.train_task.self_s": "s",
            "training.train_task.calls": "count",
            "modulator.modulate.s": "s",
            "modulator.modulate.self_s": "s",
            "modulator.modulate.calls": "count",
            "backbone.Backbone.forward.s": "s",
            "backbone.Backbone.forward.self_s": "s",
            "backbone.Backbone.forward.calls": "count",
            "prototypes.PrototypeBank.retrieve.s": "s",
            "prototypes.PrototypeBank.retrieve.calls": "count",
            "prototypes.compute_prototype.s": "s",
            "prototypes.task_aware_init.s": "s",
            "classifier.ClassifierHead.predict.s": "s",
            "classifier.ClassifierHead.predict.calls": "count",
            "checkpoint.save_checkpoint.s": "s",
            "checkpoint.save_checkpoint.calls": "count",
            "checkpoint.save_checkpoint.bytes": "B",
            "checkpoint.load_checkpoint.s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return names


# name -> unit; per traced round (one set-up, one run, evals_per_round eval ops).
PER_LAYER = _per_layer()
