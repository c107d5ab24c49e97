"""Class-incremental evaluation harness.

Builds disjoint-class task streams from one labeled graph, trains stage by
stage, and fills the lower-triangular accuracy matrix M[t][j]: accuracy on
task j's test nodes after finishing stage t.  Average accuracy is the mean
of the final row; average forgetting is the mean drop from each task's
just-trained diagonal entry to its final-row entry.

Methods:
    taam      modulator per task over a frozen backbone; at eval time the
              task id is recovered by nearest-prototype retrieval.
              Ablations: "full" (warm start + retrieval), "retrieval_only"
              (random init + retrieval), "nsm_only" (random init, always the
              newest modulator, prediction over all classes seen).
    oracle    same training; evaluation is handed the true task id.
    finetune  naive sequential training of one shared model, nothing frozen.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .backbone import Backbone, init_backbone
from .classifier import ClassifierHead
from .errors import ContractError
from .graph import SparseGraph, induced_subgraph, normalize_adjacency, propagate
from .prototypes import PrototypeBank
from .rng import rng_for
from .tensor import Tensor
from .training import FinetuneModel, TaskTrainLog, train_finetune_task, train_task

log = logging.getLogger(__name__)

METHODS = ("taam", "oracle", "finetune")
ABLATIONS = ("full", "retrieval_only", "nsm_only")


@dataclass
class TaskSpec:
    """One stage of the stream: an induced subgraph plus its splits.

    Index arrays are local to `graph`; `classes` is the global class list of
    the task and defines the local label order.
    """

    task_id: int
    classes: list[int]
    graph: SparseGraph
    orig_nodes: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    local_labels: np.ndarray
    _prop_cache: dict = field(default_factory=dict, repr=False)

    def propagated(self, hops: int) -> np.ndarray:
        """Propagated features of the whole task subgraph, cached per hop count."""
        if hops not in self._prop_cache:
            s = normalize_adjacency(self.graph)
            self._prop_cache[hops] = propagate(s, self.graph.features, hops)
        return self._prop_cache[hops]


@dataclass
class TaskStream:
    tasks: list[TaskSpec]
    dropped_classes: list[int]
    source_nodes: int

    def __len__(self) -> int:
        return len(self.tasks)


def build_stream(
    g: SparseGraph,
    classes_per_task: int = 2,
    task_sizes: list[int] | None = None,
    seed: int = 0,
    shuffle_classes: bool = False,
    train_frac: float = 0.6,
    val_frac: float = 0.2,
) -> TaskStream:
    """Partition the graph's classes into disjoint tasks with per-class splits.

    Classes are taken in ascending label order (or a seeded shuffle).  With
    `task_sizes` the groups have the given sizes in order; otherwise equal
    groups of `classes_per_task`.  Classes that do not fill a group are
    dropped from the stream.  Within each class the nodes are split
    train/val/test by `train_frac`/`val_frac` (test gets the remainder) with
    a per-class seeded shuffle, so splits do not depend on stream order.
    """
    if not 0 < train_frac < 1 or not 0 <= val_frac < 1 or train_frac + val_frac >= 1:
        raise ContractError(f"bad split fractions train={train_frac} val={val_frac}")
    order = [int(c) for c in np.unique(g.labels)]
    if shuffle_classes:
        perm = rng_for(seed, "class-shuffle").permutation(len(order))
        order = [order[i] for i in perm]

    groups: list[list[int]] = []
    if task_sizes is not None:
        sizes = [int(s) for s in task_sizes]
        if any(s < 1 for s in sizes):
            raise ContractError(f"task sizes must be >= 1, got {sizes}")
        if sum(sizes) > len(order):
            raise ContractError(f"task sizes {sizes} need {sum(sizes)} classes, graph has {len(order)}")
        at = 0
        for s in sizes:
            groups.append(order[at : at + s])
            at += s
        dropped = order[at:]
    else:
        if classes_per_task < 1:
            raise ContractError(f"classes_per_task must be >= 1, got {classes_per_task}")
        full = len(order) // classes_per_task
        groups = [order[i * classes_per_task : (i + 1) * classes_per_task] for i in range(full)]
        dropped = order[full * classes_per_task :]
    if not groups:
        raise ContractError("stream has no tasks; not enough classes for one group")
    if dropped:
        log.info("stream drops classes %s (do not fill a task)", dropped)

    split_of: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for c in order:
        nodes = np.where(g.labels == c)[0]
        perm = rng_for(seed, "split", c).permutation(nodes.size)
        nodes = nodes[perm]
        n_tr = int(nodes.size * train_frac)
        n_val = int(nodes.size * val_frac)
        tr, va, te = nodes[:n_tr], nodes[n_tr : n_tr + n_val], nodes[n_tr + n_val :]
        if tr.size == 0 or te.size == 0:
            raise ContractError(f"class {c} too small to split ({nodes.size} nodes)")
        split_of[c] = (tr, va, te)

    tasks = []
    for tid, classes in enumerate(groups, start=1):
        members = np.sort(np.concatenate([np.where(g.labels == c)[0] for c in classes]))
        sub, old2new = induced_subgraph(g, members)
        to_local = lambda ids: np.sort(np.array([old2new[int(v)] for v in ids], dtype=np.int64))
        lab2local = {c: i for i, c in enumerate(classes)}
        tasks.append(
            TaskSpec(
                task_id=tid,
                classes=list(classes),
                graph=sub,
                orig_nodes=members,
                train_idx=to_local(np.concatenate([split_of[c][0] for c in classes])),
                val_idx=to_local(np.concatenate([split_of[c][1] for c in classes])),
                test_idx=to_local(np.concatenate([split_of[c][2] for c in classes])),
                local_labels=np.array([lab2local[int(l)] for l in sub.labels], dtype=np.int64),
            )
        )
    return TaskStream(tasks=tasks, dropped_classes=[int(c) for c in dropped], source_nodes=g.num_nodes)


def average_accuracy(matrix: np.ndarray) -> float:
    """Mean of the final row (accuracy on every task after the last stage)."""
    last = matrix[-1]
    if np.isnan(last).any():
        raise ContractError("final matrix row is incomplete")
    return float(last.mean())


def average_forgetting(matrix: np.ndarray) -> float:
    """Mean over earlier tasks of (accuracy right after training it) minus
    (accuracy after the final stage).  Positive means performance was lost."""
    t = matrix.shape[0]
    if t < 2:
        raise ContractError("forgetting needs at least two stages")
    diag = np.diagonal(matrix)[: t - 1]
    final = matrix[-1, : t - 1]
    if np.isnan(diag).any() or np.isnan(final).any():
        raise ContractError("matrix entries needed for forgetting are missing")
    return float((diag - final).mean())


def write_matrix_csv(path, matrix: np.ndarray, completed: int) -> None:
    """Rows `stage,task_1..task_T`; cells use repr() so values round-trip exactly."""
    t_total = matrix.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage"] + [f"task_{j}" for j in range(1, t_total + 1)])
        for t in range(1, completed + 1):
            row = [str(t)]
            for j in range(t_total):
                row.append(repr(float(matrix[t - 1, j])) if j < t else "")
            writer.writerow(row)


def read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    t_total = len(header) - 1
    out = np.full((t_total, t_total), np.nan)
    for row in rows[1:]:
        t = int(row[0])
        for j, cell in enumerate(row[1 : t_total + 1]):
            if cell:
                out[t - 1, j] = float(cell)
    return out


@dataclass
class RunResult:
    matrix: np.ndarray
    completed: int
    aa: float | None
    af: float | None
    retrieval_log: list[dict]
    per_stage_retrieval: list[float] | None
    donors: list[int | None]
    task_logs: list[TaskTrainLog]
    wall_time_seconds: float
    state: "object"

    def summary(self, cfg) -> dict:
        return {
            "dataset": cfg.dataset,
            "method": cfg.method,
            "ablation": cfg.ablation if cfg.method == "taam" else None,
            "seed": cfg.seed,
            "tasks_total": int(self.matrix.shape[0]),
            "stages_completed": self.completed,
            "AA": self.aa,
            "AF": self.af,
            "per_stage_retrieval_accuracy": self.per_stage_retrieval,
            "warm_start_donors": self.donors,
            "wall_time_seconds": self.wall_time_seconds,
            "config": cfg.echo(),
        }


def _evaluate_stage(stream, cfg, backbone, model, bank, head, stage, matrix, retrieval_log):
    """Fill row `stage` of the matrix and append retrieval decisions."""
    dtype = cfg.np_dtype
    for j in range(1, stage + 1):
        task = stream.tasks[j - 1]
        x64 = task.propagated(cfg.hops)
        x = x64.astype(dtype, copy=False)
        test = task.test_idx
        truth = task.graph.labels[test]
        inferred = None
        if cfg.method == "finetune":
            emb = model.embed(Tensor(x[test])).data
            pred = head.predict(emb, head.registered)
        else:
            if cfg.method == "oracle":
                inferred = j
            elif cfg.ablation == "nsm_only":
                inferred = bank.latest_task()
            else:
                inferred, _, _ = bank.retrieve(task.graph, test, cfg.hops, x_prop=x64)
            mod = bank.modulator(inferred)
            emb = backbone.forward(Tensor(x[test]), mod).embedding.data
            if cfg.ablation == "nsm_only" or cfg.predict_over_all:
                classes = head.registered
            else:
                classes = head.tasks[inferred - 1]
            pred = head.predict(emb, classes)
        acc = 100.0 * float((pred == truth).sum()) / truth.size
        matrix[stage - 1, j - 1] = acc
        entry = {"stage": stage, "task": j, "true": j, "inferred": inferred}
        entry["correct"] = (inferred == j) if inferred is not None else None
        retrieval_log.append(entry)


def _per_stage_retrieval(cfg, retrieval_log, completed) -> list[float] | None:
    if cfg.method == "finetune" or cfg.ablation == "nsm_only" and cfg.method == "taam":
        return None
    out = []
    for t in range(1, completed + 1):
        decisions = [e for e in retrieval_log if e["stage"] == t]
        out.append(100.0 * sum(1 for e in decisions if e["correct"]) / len(decisions))
    return out


def run_continual(stream: TaskStream, cfg, resume=None, checkpoint_path=None, stop_after=None):
    """Train the stream stage by stage and evaluate after every stage.

    `resume` is a RunState from a saved checkpoint: training continues after
    its last completed stage and, because every random draw is keyed by
    (seed, purpose, task), reproduces the uninterrupted run exactly.
    `checkpoint_path` is rewritten after each completed stage.
    """
    from .checkpoint import RunState, save_checkpoint  # local import, no cycle

    if cfg.method not in METHODS:
        raise ContractError(f"unknown method {cfg.method!r}; choose from {METHODS}")
    if cfg.ablation not in ABLATIONS:
        raise ContractError(f"unknown ablation {cfg.ablation!r}; choose from {ABLATIONS}")
    t_total = len(stream.tasks)
    started = time.perf_counter()
    dtype = cfg.np_dtype
    in_dim = stream.tasks[0].graph.feature_dim

    matrix = np.full((t_total, t_total), np.nan)
    retrieval_log: list[dict] = []
    donors: list[int | None] = []
    task_logs: list[TaskTrainLog] = []
    first_stage = 1

    if resume is None:
        rng_bb = rng_for(cfg.seed, "backbone")
        if cfg.method == "finetune":
            frozen = init_backbone(in_dim, cfg.hidden_dim, rng_bb, hops=cfg.hops, dtype=dtype)
            model = FinetuneModel(frozen.w1, frozen.w2)
            backbone = None
        else:
            backbone = init_backbone(in_dim, cfg.hidden_dim, rng_bb, hops=cfg.hops, dtype=dtype)
            model = None
        bank = PrototypeBank()
        head = ClassifierHead(cfg.hidden_dim, dtype=dtype)
    else:
        resume.check_config(cfg)
        if resume.stage >= t_total:
            raise ContractError(f"checkpoint already covers all {t_total} stages")
        backbone, model, bank, head = resume.rebuild(cfg)
        for t in range(1, resume.stage + 1):
            matrix[t - 1, :t] = resume.matrix_rows[t - 1]
        retrieval_log = [dict(e) for e in resume.retrieval_log]
        donors = list(resume.donors)
        first_stage = resume.stage + 1

    last = t_total if stop_after is None else min(int(stop_after), t_total)
    if last < first_stage:
        raise ContractError(f"stop_after={stop_after} is before the first stage to run ({first_stage})")

    completed = first_stage - 1
    for stage in range(first_stage, last + 1):
        task = stream.tasks[stage - 1]
        if cfg.method == "finetune":
            task_logs.append(train_finetune_task(task, model, head, cfg))
            donors.append(None)
        else:
            tl = train_task(task, backbone, bank, head, cfg)
            task_logs.append(tl)
            donors.append(tl.donor)
        _evaluate_stage(stream, cfg, backbone, model, bank, head, stage, matrix, retrieval_log)
        completed = stage
        if checkpoint_path is not None:
            w1, w2 = (model.w1.data, model.w2.data) if model is not None else (backbone.w1, backbone.w2)
            state = RunState(
                config=cfg.echo(),
                stage=completed,
                tasks_total=t_total,
                backbone_w1=w1,
                backbone_w2=w2,
                bank=bank,
                head=head,
                matrix_rows=[list(map(float, matrix[t - 1, :t])) for t in range(1, completed + 1)],
                retrieval_log=retrieval_log,
                donors=donors,
            )
            save_checkpoint(checkpoint_path, state)

    aa = af = None
    if completed >= 1:
        aa = float(np.mean(matrix[completed - 1, :completed]))
    if completed >= 2:
        sub = matrix[:completed, :completed]
        af = average_forgetting(sub)

    w1, w2 = (model.w1.data, model.w2.data) if model is not None else (backbone.w1, backbone.w2)
    final_state = RunState(
        config=cfg.echo(),
        stage=completed,
        tasks_total=t_total,
        backbone_w1=w1,
        backbone_w2=w2,
        bank=bank,
        head=head,
        matrix_rows=[list(map(float, matrix[t - 1, :t])) for t in range(1, completed + 1)],
        retrieval_log=retrieval_log,
        donors=donors,
    )
    return RunResult(
        matrix=matrix,
        completed=completed,
        aa=aa,
        af=af,
        retrieval_log=retrieval_log,
        per_stage_retrieval=_per_stage_retrieval(cfg, retrieval_log, completed),
        donors=donors,
        task_logs=task_logs,
        wall_time_seconds=time.perf_counter() - started,
        state=final_state,
    )


def evaluate_final_row(stream: TaskStream, cfg, state) -> tuple[np.ndarray, list[dict]]:
    """Re-run the evaluation of the last completed stage from a restored state."""
    backbone, model, bank, head = state.rebuild(cfg)
    t_total = len(stream.tasks)
    matrix = np.full((t_total, t_total), np.nan)
    log_entries: list[dict] = []
    _evaluate_stage(stream, cfg, backbone, model, bank, head, state.stage, matrix, log_entries)
    return matrix[state.stage - 1, : state.stage], log_entries
