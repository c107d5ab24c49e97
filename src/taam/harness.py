"""Class-incremental evaluation harness.

Builds disjoint-class task streams from one labeled graph, trains stage by
stage, and fills the lower-triangular accuracy matrix M[t][j]: accuracy on
task j's test nodes after finishing stage t.  The `RunState` that
`run_continual` returns keeps each stage as a `checkpoint.Stage` and derives
M and its metrics, AA and AF, which `checkpoint` defines next to RunState.

A stream is one block-diagonal graph: each task's induced subgraph is one
diagonal block, and a task is a row range of it.  The stream graph is built,
validated and normalized once, and row for row it gives the same bits as
each task's subgraph would on its own.  The stream propagates it once per
hop count, and training is handed each task's rows of that.  Evaluating a
checkpoint on a fresh stream reads only test rows, so there the last
propagation hop runs at those rows alone.

Methods:
    taam      modulator per task over a frozen backbone; at eval time the
              task id is recovered by nearest-prototype retrieval.
              Ablations: "full" (warm start + retrieval), "retrieval_only"
              (random init + retrieval), "nsm_only" (random init, always the
              newest modulator, prediction over all classes seen).
    oracle    same training; evaluation is handed the true task id.
    finetune  naive sequential training of one shared model, nothing frozen.

What each variant changes is read from the table `config.VARIANTS`.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .backbone import init_backbone
from .checkpoint import RunState, Stage, decisions, save_checkpoint
from .classifier import ClassifierHead
from .config import check_split_fractions
from .datasets import resolve_dataset
from .errors import ContractError
from .fileio import write_atomic
from .graph import SparseGraph, normalize_adjacency, propagate
from .prototypes import PrototypeBank
from .rng import rng_for
from .tensor import Tensor
from .training import FinetuneModel, accuracy_percent, train_task

log = logging.getLogger(__name__)


@dataclass
class TaskSpec:
    """One stage of the stream: a row range of the stream graph plus its splits.

    `rows` is the task's range of stream graph nodes; `labels` is a read-only
    view of it.  Index arrays are local to the task (0 is row `rows.start`);
    `classes` is the global class list of the task and defines the local
    label order.
    """

    task_id: int
    classes: list[int]
    rows: slice
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    local_labels: np.ndarray


@dataclass
class TaskStream:
    """The tasks of a stream and the one graph they are row ranges of.

    `graph` holds the kept nodes task by task, each task's nodes in ascending
    id order, and only the edges inside a task, so every task is one diagonal
    block of its adjacency.
    """

    tasks: list[TaskSpec]
    dropped_classes: list[int]
    graph: SparseGraph
    _by_hops: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def propagated(self, hops: int) -> np.ndarray:
        """S^hops X of the stream graph, computed once per hop count and
        shared, read-only, by every task: task t's rows are `[task.rows]`."""
        if hops not in self._by_hops:
            out = propagate(normalize_adjacency(self.graph), self.graph.features, hops)
            out.setflags(write=False)
            self._by_hops[hops] = out
        return self._by_hops[hops]

    def propagated_test_rows(self, hops: int, count: int) -> list[np.ndarray]:
        """Propagated features of the test nodes of tasks 1..count, one array
        per task in test_idx order.  They are gathered from `propagated(hops)`
        when it is built, else made by one propagation whose last hop runs at
        those rows alone; either way the same bits."""
        tasks = self.tasks[:count]
        rows = np.concatenate([task.rows.start + task.test_idx for task in tasks])
        ends = np.cumsum([task.test_idx.size for task in tasks])
        if hops in self._by_hops:
            x = self._by_hops[hops][rows]
        else:
            x = propagate(normalize_adjacency(self.graph), self.graph.features, hops, rows)
        return np.split(x, ends[:-1])


def build_stream(
    g: SparseGraph,
    classes_per_task: int | None,
    task_sizes: list[int] | None = None,
    seed: int = 0,
    shuffle_classes: bool = False,
    *,
    train_frac: float,
    val_frac: float,
) -> TaskStream:
    """Partition the graph's classes into disjoint tasks with per-class splits.

    Classes are taken in ascending label order (or a seeded shuffle).  With
    `task_sizes` the groups have the given sizes in order; otherwise equal
    groups of `classes_per_task`.  Classes that do not fill a group are
    dropped from the stream.  Within each kept class the nodes are split
    train/val/test by `train_frac`/`val_frac` (test gets the remainder) with
    a per-class seeded shuffle, so splits do not depend on stream order.

    The stream may share `g`'s feature and label arrays (read-only views),
    so leave them unchanged while the stream is in use.
    """
    check_split_fractions(train_frac, val_frac)
    classes, class_of_node = np.unique(g.labels, return_inverse=True)
    order = [int(c) for c in classes]
    if shuffle_classes:
        perm = rng_for(seed, "class-shuffle").permutation(len(order))
        order = [order[i] for i in perm]

    if task_sizes is None:
        if classes_per_task < 1:
            raise ContractError(f"classes_per_task must be >= 1, got {classes_per_task}")
        sizes = [classes_per_task] * (len(order) // classes_per_task)
    else:
        sizes = [int(s) for s in task_sizes]
        if any(s < 1 for s in sizes):
            raise ContractError(f"task sizes must be >= 1, got {sizes}")
        if sum(sizes) > len(order):
            raise ContractError(f"task sizes {sizes} need {sum(sizes)} classes, graph has {len(order)}")
    groups: list[list[int]] = []
    at = 0
    for size in sizes:
        groups.append(order[at : at + size])
        at += size
    dropped = order[at:]
    if not groups:
        raise ContractError("stream has no tasks; not enough classes for one group")
    if dropped:
        log.info("stream drops classes %s (do not fill a task)", dropped)

    split_of: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for c in (c for group in groups for c in group):
        nodes = np.where(g.labels == c)[0]
        perm = rng_for(seed, "split", c).permutation(nodes.size)
        nodes = nodes[perm]
        n_tr = int(nodes.size * train_frac)
        n_val = int(nodes.size * val_frac)
        tr, va, te = nodes[:n_tr], nodes[n_tr : n_tr + n_val], nodes[n_tr + n_val :]
        if tr.size == 0 or te.size == 0:
            raise ContractError(f"class {c} too small to split ({nodes.size} nodes)")
        split_of[c] = (tr, va, te)

    task_of_class = np.full(classes.size, -1)
    for t, group in enumerate(groups):
        task_of_class[np.searchsorted(classes, group)] = t
    block = task_of_class[class_of_node]
    graph, kept = _block_diagonal(g, block)
    graph.features.setflags(write=False)
    graph.labels.setflags(write=False)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(block[block >= 0], minlength=len(groups)))])
    tasks = []
    for tid, group in enumerate(groups, start=1):
        rows = slice(int(bounds[tid - 1]), int(bounds[tid]))
        train_idx, val_idx, test_idx = (
            np.searchsorted(kept[rows], np.sort(np.concatenate(parts)))
            for parts in zip(*(split_of[c] for c in group))
        )
        labels = graph.labels[rows]
        tasks.append(
            TaskSpec(
                task_id=tid,
                classes=list(group),
                rows=rows,
                labels=labels,
                train_idx=train_idx,
                val_idx=val_idx,
                test_idx=test_idx,
                local_labels=(labels[:, None] == np.asarray(group)).argmax(1),
            )
        )
    return TaskStream(tasks=tasks, dropped_classes=[int(c) for c in dropped], graph=graph)


def _block_diagonal(g: SparseGraph, block: np.ndarray) -> tuple[SparseGraph, np.ndarray]:
    """The graph of the nodes of `g` in a block (block[i] >= 0), ordered by
    block and within a block by id, with only the edges inside a block.
    Returns it and `kept`: node kept[k] of `g` is its node k.

    Rows keep their entries in `g`'s order, and within a block the new ids
    follow the old ones, so each block is exactly the subgraph that the
    block's nodes induce in `g`, numbered in id order.  One SparseGraph
    validates them all: a symmetric, well-formed CSR none of whose edges
    leaves its block.
    """
    kept = np.argsort(block, kind="stable")[np.count_nonzero(block < 0) :]
    new_id = np.full(g.num_nodes, -1, dtype=np.int64)
    new_id[kept] = np.arange(kept.size)
    picked = g.adj[kept]
    keep = block[picked.indices] == np.repeat(block[kept], np.diff(picked.indptr))
    indptr = np.concatenate([[0], np.cumsum(keep)])[picked.indptr]
    adj = sp.csr_matrix(
        (picked.data[keep], new_id[picked.indices[keep]], indptr), shape=(kept.size, kept.size)
    )
    # Nodes kept as one run of ids in order, as when classes are stored one
    # after another, are sliced: their features and labels stay views of g's.
    first = int(kept[0])
    run = np.array_equal(kept, np.arange(first, first + kept.size))
    at = slice(first, first + kept.size) if run else kept
    return SparseGraph(adj, g.features[at], g.labels[at]), kept


def stream_from_config(cfg) -> TaskStream:
    """Load cfg's dataset and cut it into the stream its protocol describes."""
    g = resolve_dataset(cfg.dataset, cfg.seed, row_normalize=cfg.row_normalize)
    classes_per_task, sizes = cfg.protocol_spec()
    return build_stream(
        g,
        classes_per_task=classes_per_task,
        task_sizes=sizes,
        seed=cfg.seed,
        shuffle_classes=cfg.shuffle_classes,
        train_frac=cfg.train_frac,
        val_frac=cfg.val_frac,
    )


def write_matrix_csv(path, matrix: np.ndarray, completed: int) -> None:
    """Rows `stage,task_1..task_T`; cells use repr() so values round-trip exactly."""
    t_total = matrix.shape[1]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["stage"] + [f"task_{j}" for j in range(1, t_total + 1)])
    for t in range(1, completed + 1):
        row = [str(t)]
        for j in range(t_total):
            row.append(repr(float(matrix[t - 1, j])) if j < t else "")
        writer.writerow(row)
    write_atomic(path, [text.getvalue().encode("utf-8")])


def summary(state: RunState, wall_time_seconds: float) -> dict:
    """summary.json's record of the run that reached `state`."""
    cfg = state.config
    return {
        "dataset": cfg.dataset,
        "method": cfg.method,
        "ablation": cfg.ablation if cfg.method == "taam" else None,
        "seed": cfg.seed,
        "tasks_total": state.tasks_total,
        "stages_completed": state.completed,
        "AA": state.aa,
        "AF": state.af,
        "per_stage_retrieval_accuracy": state.per_stage_retrieval,
        "warm_start_donors": state.donors,
        "wall_time_seconds": wall_time_seconds,
        "config": cfg.echo(),
    }


def _evaluate_stage(stream, cfg, state, stage, embeddings: dict) -> tuple[list[float], list[int | None]]:
    """Matrix row `stage` (accuracy on each task seen so far) and the task id
    picked for each of those tasks (None where the variant picks none).

    `embeddings` maps (task j, modulator id) to task j's test embedding.  The
    backbone and every stored modulator are frozen, so within a run each
    entry is a constant; pass the same dict at every stage to compute each
    one once.  Finetune's net changes every stage and never uses it.
    """
    variant = cfg.variant
    net, bank, head = state.net, state.bank, state.head
    row: list[float] = []
    picks: list[int | None] = []
    for j, x64 in enumerate(stream.propagated_test_rows(cfg.hops, stage), start=1):
        task = stream.tasks[j - 1]
        x = Tensor(x64.astype(cfg.np_dtype, copy=False))
        truth = task.labels[task.test_idx]
        if variant.task_id is None:
            inferred = None
            emb = net.embed(x).data
        else:
            if variant.task_id == "true":
                inferred = j
            elif variant.task_id == "latest":
                inferred = bank.latest_task()
            else:
                inferred = bank.retrieve(x64)
            if (j, inferred) not in embeddings:
                embeddings[j, inferred] = net.forward(x, bank.modulator(inferred)).data
            emb = embeddings[j, inferred]
        seen = variant.label_space == "seen" or cfg.predict_over_all
        pred = head.predict(emb, None if seen else inferred)
        row.append(accuracy_percent(pred, truth))
        picks.append(inferred)
    return row, picks


def run_continual(stream: TaskStream, cfg, resume=None, checkpoint_path=None, stop_after=None):
    """Train the stream stage by stage and evaluate after every stage.

    `resume` is a RunState from a saved checkpoint: training continues after
    its last completed stage and, because every random draw is keyed by
    (seed, purpose, task), reproduces the uninterrupted run exactly.  A fresh
    run is a resume from stage 0, of the initial net with an empty bank and
    head.  The run advances its state in place and returns it; a checkpoint
    of every stage trains nothing.
    After each completed stage the checkpoint at `checkpoint_path` is saved:
    its first save writes it whole, each later one appends only the newly
    frozen blocks.  A run that trains nothing saves it once.  A checkpointed
    run then holds each past task as a loaded checkpoint does: the inference
    form and prototype in memory, the generator in the sidecar, read each
    time a warm start needs it.  Without a checkpoint every generator stays
    in memory.
    """
    cfg.validate()
    t_total = len(stream.tasks)
    state = resume
    if state is None:  # stage 0
        net = init_backbone(stream.graph.feature_dim, cfg.hidden_dim, rng_for(cfg.seed, "backbone"), dtype=cfg.np_dtype)
        if cfg.method == "finetune":
            net = FinetuneModel(net.w1, net.w2)
        state = RunState(cfg, t_total, net, PrototypeBank(), ClassifierHead(cfg.hidden_dim, dtype=cfg.np_dtype), [])
    state.check_config(cfg)
    _check_stream(stream, state)
    # Any stored task may be a donor and the first save rewrites the sidecar,
    # so every generator is read and checked now, and dropped: a damaged one
    # stops the run before it trains or writes.
    for t in range(1, len(state.bank) + 1):
        state.bank.modulator(t).generator()
    first_stage = state.completed + 1
    last = t_total if stop_after is None else min(int(stop_after), t_total)
    if last < min(first_stage, t_total):
        raise ContractError(f"stop_after={stop_after} is before stage {min(first_stage, t_total)}")
    state.config = cfg

    embeddings: dict = {}
    crcs = None
    for stage in range(first_stage, last + 1):
        task = stream.tasks[stage - 1]
        x_prop64 = stream.propagated(cfg.hops)[task.rows]
        donor, epochs = train_task(task, x_prop64, state.net, state.bank, state.head, cfg)
        row, inferred = _evaluate_stage(stream, cfg, state, stage, embeddings)
        state.stages.append(Stage(row, inferred, donor, epochs))
        if checkpoint_path is not None:
            crcs = save_checkpoint(checkpoint_path, state, crcs)
    if checkpoint_path is not None and crcs is None:
        save_checkpoint(checkpoint_path, state)
    return state


def _check_stream(stream: TaskStream, state) -> None:
    """Raise ContractError unless `stream` can be the one `state` was trained
    on: as many tasks, and tasks 1..completed with the class groups of its head."""
    t_total = len(stream.tasks)
    if t_total != state.tasks_total:
        raise ContractError(f"checkpoint is for {state.tasks_total} tasks, the stream has {t_total}")
    groups = [task.classes for task in stream.tasks[: state.completed]]
    if groups != state.head.tasks:
        raise ContractError(f"checkpoint has the class groups {state.head.tasks}, the stream {groups}")


def evaluate_final_row(stream: TaskStream, cfg, state) -> tuple[np.ndarray, list[dict]]:
    """Re-run the evaluation of the last completed stage from a restored state.

    The stream must pass the resume check (`_check_stream`).  On a fresh
    stream only the test rows of tasks 1..stage go through the last
    propagation hop.  Returns the row and the stage's retrieval-log records.
    """
    _check_stream(stream, state)
    row, inferred = _evaluate_stage(stream, cfg, state, state.completed, {})
    return np.array(row), decisions(inferred)
