"""Stream construction, metrics, matrix IO, and the continual loop."""

import dataclasses
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taam import harness
from taam.backbone import Backbone, init_backbone
from taam.checkpoint import RunState, average_accuracy, average_forgetting, frozen_path, load_checkpoint
from taam.classifier import ClassifierHead
from taam.config import make_config
from taam.errors import ContractError
from taam.graph import SparseGraph, generate_sbm, normalize_adjacency, propagate
from taam.harness import (
    build_stream,
    evaluate_final_row,
    run_continual,
    stream_from_config,
    summary,
    write_matrix_csv,
)
from taam.prototypes import PrototypeBank
from taam.rng import rng_for

from matrix_csv import read_matrix_csv
from streams import DEFAULT_SPLIT, default_stream, dropped_classes
from subgraph import induced_subgraph


def seven_class_graph(seed=0):
    return generate_sbm(7, 15, 0.3, 0.05, 8, 8.0, seed=seed)


def cfg_for(**overrides):
    base = {"dataset": "sbm:classes=4,npc=25,dim=8,sep=10",
            "hidden_dim": 16, "epochs": 30, "seed": 0}
    base.update(overrides)
    return make_config(None, base)


def stream_for(cfg, classes=4, npc=25, sep=10.0, seed=None):
    g = generate_sbm(classes, npc, 0.1, 0.02, 8, sep, seed=cfg.seed if seed is None else seed)
    return build_stream(g, classes_per_task=2, seed=cfg.seed,
                        train_frac=cfg.train_frac, val_frac=cfg.val_frac)


# ---------------------------------------------------------------- streams

def test_equal_grouping_drops_leftover():
    g = seven_class_graph()
    stream = default_stream(g, classes_per_task=2, seed=0)
    assert [t.classes for t in stream.tasks] == [[0, 1], [2, 3], [4, 5]]
    assert dropped_classes(g, stream) == [6]


def test_equal_grouping_is_unequal_grouping_of_equal_sizes():
    g = seven_class_graph()
    equal = default_stream(g, classes_per_task=2, seed=0)
    sizes = default_stream(g, task_sizes=[2, 2, 2], seed=0)
    assert dropped_classes(g, equal) == dropped_classes(g, sizes) == [6]
    assert np.array_equal(equal.graph.features, sizes.graph.features)
    for a, b in zip(equal.tasks, sizes.tasks, strict=True):
        assert (a.task_id, a.classes, a.rows) == (b.task_id, b.classes, b.rows)
        for name in ("labels", "train_idx", "val_idx", "test_idx", "local_labels"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_unequal_grouping():
    g = seven_class_graph()
    stream = default_stream(g, task_sizes=[3, 2], seed=0)
    assert [t.classes for t in stream.tasks] == [[0, 1, 2], [3, 4]]
    assert dropped_classes(g, stream) == [5, 6]
    with pytest.raises(ContractError):
        default_stream(seven_class_graph(), task_sizes=[5, 4], seed=0)
    with pytest.raises(ContractError):
        default_stream(seven_class_graph(), task_sizes=[0, 2], seed=0)


def test_stream_contracts():
    g = seven_class_graph()
    with pytest.raises(ContractError):
        default_stream(g, classes_per_task=0, seed=0)
    with pytest.raises(ContractError):
        default_stream(g, classes_per_task=8, seed=0)  # zero full groups
    with pytest.raises(ContractError):
        build_stream(g, classes_per_task=2, seed=0, train_frac=0.9, val_frac=0.2)


def test_shuffled_class_order_is_seeded():
    a = default_stream(seven_class_graph(), classes_per_task=2, seed=3, shuffle_classes=True)
    b = default_stream(seven_class_graph(), classes_per_task=2, seed=3, shuffle_classes=True)
    c = default_stream(seven_class_graph(), classes_per_task=2, seed=4, shuffle_classes=True)
    assert [t.classes for t in a.tasks] == [t.classes for t in b.tasks]
    assert [t.classes for t in a.tasks] != [t.classes for t in c.tasks]


def test_split_sizes_and_disjointness():
    g = seven_class_graph()
    stream = build_stream(g, classes_per_task=2, seed=0, train_frac=0.6, val_frac=0.2)
    task = stream.tasks[0]
    # per class: floor(15*0.6)=9 train, floor(15*0.2)=3 val, 3 test
    assert task.train_idx.size == 18 and task.val_idx.size == 6 and task.test_idx.size == 6
    all_idx = np.concatenate([task.train_idx, task.val_idx, task.test_idx])
    assert np.array_equal(np.sort(all_idx), np.arange(task.labels.size))


def test_splits_do_not_depend_on_stream_shape():
    # the same class must get the same member split under both protocols
    g = seven_class_graph()
    a = default_stream(g, classes_per_task=2, seed=5)
    b = default_stream(g, task_sizes=[3, 2, 2], seed=5)

    def train_nodes_of(stream, cls):
        for t in stream.tasks:
            if cls in t.classes:
                members = np.flatnonzero(np.isin(g.labels, t.classes))[t.train_idx]
                return set(int(v) for v in members if g.labels[v] == cls)
        raise AssertionError(f"class {cls} not found")

    for cls in range(4):
        assert train_nodes_of(a, cls) == train_nodes_of(b, cls)


def test_local_labels_consistent_with_classes():
    stream = default_stream(seven_class_graph(), classes_per_task=2, seed=0)
    for task in stream.tasks:
        globals_back = np.array(task.classes)[task.local_labels]
        assert np.array_equal(globals_back, task.labels)


def test_class_too_small_to_split():
    feats = np.random.default_rng(0).normal(size=(4, 2))
    g = SparseGraph.from_edges(4, [(0, 1)], feats, np.array([0, 0, 0, 1]))
    with pytest.raises(ContractError, match="too small"):
        default_stream(g, classes_per_task=1, seed=0)


def test_dropped_class_is_never_split():
    # 5 + 5 + 1 nodes: classes 0 and 1 fill the one task, class 2 is dropped
    feats = np.random.default_rng(0).normal(size=(11, 2))
    g = SparseGraph.from_edges(11, [(0, 1), (5, 6)], feats, np.array([0] * 5 + [1] * 5 + [2]))
    stream = default_stream(g, classes_per_task=2, seed=0)
    assert dropped_classes(g, stream) == [2]
    without = default_stream(induced_subgraph(g, np.arange(10)), classes_per_task=2, seed=0)
    for a, b in zip(stream.tasks, without.tasks, strict=True):
        for split in ("train_idx", "val_idx", "test_idx"):
            assert np.array_equal(getattr(a, split), getattr(b, split))


def assert_tasks_match_their_own_subgraphs(g, stream, seed):
    """Each task's rows of the one stream graph equal, bit for bit, what its
    induced subgraph gives when normalized and propagated on its own, and
    each class's split in them is the documented rule applied to the class's
    nodes of that subgraph.  `stream` is `default_stream(g, seed=seed, ...)`."""
    for task in stream.tasks:
        sub = induced_subgraph(g, np.flatnonzero(np.isin(g.labels, task.classes)))
        assert np.array_equal(task.labels, sub.labels)
        assert np.array_equal(stream.graph.features[task.rows], sub.features)
        s = normalize_adjacency(sub.adj)
        for hops in range(4):
            assert np.array_equal(stream.propagate_task(task, hops), propagate(s, sub.features, hops))
        for c in task.classes:
            nodes = np.flatnonzero(sub.labels == c)
            nodes = nodes[rng_for(seed, "split", c).permutation(nodes.size)]
            n_tr = int(nodes.size * DEFAULT_SPLIT["train_frac"])
            n_val = int(nodes.size * DEFAULT_SPLIT["val_frac"])
            rule = (nodes[:n_tr], nodes[n_tr : n_tr + n_val], nodes[n_tr + n_val :])
            for name, ids in zip(("train_idx", "val_idx", "test_idx"), rule):
                split = getattr(task, name)
                assert np.array_equal(split[sub.labels[split] == c], np.sort(ids)), (task.task_id, c, name)


def graph_of(labels, edges, dim=3, seed=0):
    labels = np.asarray(labels)
    feats = np.random.default_rng(seed).normal(size=(labels.size, dim))
    return SparseGraph.from_edges(labels.size, np.asarray(edges, dtype=np.int64).reshape(-1, 2), feats, labels)


def ring(n):
    return [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 3) % n) for i in range(n)]


@pytest.mark.parametrize(
    "g, protocol",
    [
        # labels interleaved in node order, as in the citation files
        (graph_of(np.arange(24) % 4, ring(24)), {"classes_per_task": 2}),
        (graph_of(np.arange(12) % 3, []), {"classes_per_task": 1}),  # no edges
        (graph_of(np.repeat([0, 1, 2, 3], 4), [(0, 5), (1, 9), (8, 12)]), {"classes_per_task": 2}),  # isolated
        (graph_of(np.arange(35) % 7, ring(35)), {"classes_per_task": 3}),  # drops class 6
        (graph_of(np.arange(30) % 6, ring(30)), {"classes_per_task": 2, "shuffle_classes": True}),
        (graph_of(np.arange(30) % 6, ring(30)), {"task_sizes": [3, 1, 2]}),
    ],
    ids=["interleaved", "edgeless", "isolated", "dropped", "shuffled", "unequal"],
)
def test_stream_graph_blocks_equal_per_task_subgraphs(g, protocol):
    assert_tasks_match_their_own_subgraphs(g, default_stream(g, seed=1, **protocol), seed=1)


@st.composite
def graphs_and_protocols(draw):
    classes = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(2, 7), min_size=classes, max_size=classes))
    labels = np.repeat(np.arange(classes), sizes)[draw(st.permutations(range(sum(sizes))))]
    n = labels.size
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    g = graph_of(labels, edges, dim=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        protocol = {"classes_per_task": draw(st.integers(1, classes))}
    else:
        protocol = {"task_sizes": draw(st.lists(st.integers(1, 3), min_size=1, max_size=classes)
                                       .filter(lambda s: sum(s) <= classes))}
    return g, dict(protocol, shuffle_classes=draw(st.booleans()), seed=draw(st.integers(0, 9)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs_and_protocols())
def test_stream_graph_blocks_equal_per_task_subgraphs_property(case):
    g, protocol = case
    assert_tasks_match_their_own_subgraphs(g, default_stream(g, **protocol), protocol["seed"])


def test_stream_slices_a_run_of_nodes_and_gathers_any_other_order():
    g = seven_class_graph()  # classes stored one after another
    run = default_stream(g, classes_per_task=2, seed=0)  # keeps nodes 0..89, drops class 6
    assert np.shares_memory(run.graph.features, g.features)
    assert g.features.flags.writeable  # only the stream's view is read-only
    shuffled = default_stream(g, classes_per_task=2, seed=3, shuffle_classes=True)
    assert [t.classes for t in shuffled.tasks] != [t.classes for t in run.tasks]
    assert not np.shares_memory(shuffled.graph.features, g.features)
    assert_tasks_match_their_own_subgraphs(g, run, seed=0)
    assert_tasks_match_their_own_subgraphs(g, shuffled, seed=3)


def test_changing_one_task_leaves_the_other_tasks_unchanged():
    g = seven_class_graph()
    before = default_stream(g, classes_per_task=2, seed=0)
    feats = g.features.copy()
    feats[g.labels == 2] += 1.0  # class 2 is in task 2
    after = default_stream(SparseGraph(g.adj, feats, g.labels), classes_per_task=2, seed=0)
    for a, b in zip(before.tasks, after.tasks, strict=True):
        same = np.array_equal(before.propagate_task(a, 2), after.propagate_task(b, 2))
        assert same == (a.task_id != 2)


def test_a_run_propagates_each_task_block_alone(monkeypatch, tmp_path):
    # training never propagates the whole stream: each task's block is
    # propagated alone, once, and a resume propagates the test rows of the
    # tasks it had finished once, with the last hop at those rows
    cfg = cfg_for(dataset="sbm:classes=6,npc=25,dim=8,sep=10", epochs=3)
    stream = stream_for(cfg, classes=6)
    calls = []

    def counted(s, x, hops, rows=None):
        calls.append((x.shape[0], None if rows is None else len(rows)))
        return propagate(s, x, hops, rows)

    monkeypatch.setattr(harness, "propagate", counted)
    full = run_continual(stream, cfg)
    heights = [task.rows.stop - task.rows.start for task in stream.tasks]
    assert max(x_rows for x_rows, _ in calls) <= max(heights) < stream.graph.num_nodes
    assert calls == [(height, None) for height in heights]

    part = run_continual(stream_for(cfg, classes=6), cfg, checkpoint_path=tmp_path / "run.bin", stop_after=1)
    calls.clear()
    fresh = stream_for(cfg, classes=6)
    resumed = run_continual(fresh, cfg, resume=part)
    task1 = fresh.tasks[0]
    assert calls == [(heights[1], None), (fresh.graph.num_nodes, task1.test_idx.size), (heights[2], None)]
    assert resumed.matrix.tobytes() == full.matrix.tobytes()


def test_task_views_are_read_only():
    stream = default_stream(seven_class_graph(), classes_per_task=2, seed=0)
    for task in stream.tasks:
        propagated = (stream.propagate_task(task, hops) for hops in (0, 2))
        for arr in (*propagated, stream.graph.features[task.rows], task.labels, *stream.propagated_test_rows(2, 3)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


# ---------------------------------------------------------------- metrics

def test_average_accuracy_mean_of_final_row():
    m = np.array([[90.0, np.nan], [80.0, 85.0]])
    assert average_accuracy(m) == 82.5
    with pytest.raises(ContractError):
        average_accuracy(np.array([[90.0, np.nan]]))


def stage_zero_state(cfg, stream):
    """The state a fresh run starts from: no completed stage."""
    net = init_backbone(stream.graph.feature_dim, cfg.hidden_dim, rng_for(cfg.seed, "backbone"))
    return RunState(cfg, len(stream.tasks), net, PrototypeBank(), ClassifierHead(cfg.hidden_dim), [])


def test_accuracy_of_no_completed_stage_is_a_contract_error():
    with pytest.raises(ContractError, match="final matrix row is missing"):
        average_accuracy(np.empty((0, 0)))
    cfg = cfg_for()
    state = stage_zero_state(cfg, stream_for(cfg))
    with pytest.raises(ContractError, match="final matrix row is missing"):
        state.aa
    with pytest.raises(ContractError, match="final matrix row is missing"):
        summary(state, 0.0)


def test_evaluating_a_state_with_no_completed_stage_is_a_contract_error():
    cfg = cfg_for()
    stream = stream_for(cfg)
    with pytest.raises(ContractError, match="no completed stage"):
        evaluate_final_row(stream, cfg, stage_zero_state(cfg, stream))


def test_average_forgetting_hand_matrix():
    m = np.array([[90.0, np.nan], [80.0, 85.0]])
    assert average_forgetting(m) == 10.0
    improved = np.array([[50.0, np.nan], [60.0, 70.0]])
    assert average_forgetting(improved) == -10.0
    with pytest.raises(ContractError):
        average_forgetting(np.array([[90.0]]))
    with pytest.raises(ContractError):
        average_forgetting(np.array([[np.nan, np.nan], [80.0, 85.0]]))


def test_matrix_csv_round_trip(tmp_path):
    m = np.full((3, 3), np.nan)
    m[0, 0] = 100.0 / 3.0
    m[1, :2] = [81.25, 0.1 + 0.2]  # values that expose any repr shortcuts
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, m, completed=2)
    back = read_matrix_csv(path)
    assert back[0, 0] == m[0, 0]
    assert back[1, 0] == m[1, 0] and back[1, 1] == m[1, 1]
    assert np.isnan(back[0, 1]) and np.isnan(back[2, :]).all()
    header = path.read_text().splitlines()[0]
    assert header == "stage,task_1,task_2,task_3"


# ------------------------------------------------------------ continual loop

def test_run_taam_full_fills_lower_triangle():
    cfg = cfg_for()
    res = run_continual(stream_for(cfg), cfg)
    assert res.completed == 2
    assert not np.isnan(res.matrix[np.tril_indices(2)]).any()
    assert np.isnan(res.matrix[0, 1])
    assert res.aa == pytest.approx(res.matrix[1].mean())
    assert res.af == pytest.approx(res.matrix[0, 0] - res.matrix[1, 0])
    assert res.donors == [None, 1]
    assert len(res.retrieval_log) == 3
    assert {e["stage"] for e in res.retrieval_log} == {1, 2}
    assert res.per_stage_retrieval is not None and len(res.per_stage_retrieval) == 2


def test_oracle_marks_every_decision_correct():
    cfg = cfg_for(method="oracle")
    res = run_continual(stream_for(cfg), cfg)
    assert all(e["inferred"] == e["task"] for e in res.retrieval_log)
    assert res.per_stage_retrieval == [100.0, 100.0]


def test_finetune_has_no_retrieval_and_no_donors():
    cfg = cfg_for(method="finetune")
    res = run_continual(stream_for(cfg), cfg)
    assert res.per_stage_retrieval is None
    assert res.donors == [None, None]
    assert all(e["inferred"] is None for e in res.retrieval_log)
    assert not np.isnan(res.matrix[np.tril_indices(2)]).any()


def test_nsm_only_uses_latest_modulator():
    cfg = cfg_for(ablation="nsm_only")
    res = run_continual(stream_for(cfg), cfg)
    assert res.per_stage_retrieval is None
    last_stage = [e for e in res.retrieval_log if e["stage"] == 2]
    assert [e["inferred"] for e in last_stage] == [2, 2]


def test_summary_fields():
    cfg = cfg_for()
    res = run_continual(stream_for(cfg), cfg)
    s = summary(res, 0.0)
    assert set(s) == {
        "dataset", "method", "ablation", "seed", "tasks_total", "stages_completed",
        "AA", "AF", "per_stage_retrieval_accuracy", "warm_start_donors",
        "wall_time_seconds", "config",
    }
    assert s["config"]["hidden_dim"] == 16
    assert s["tasks_total"] == 2 and s["stages_completed"] == 2


def test_stop_after_first_stage():
    cfg = cfg_for()
    res = run_continual(stream_for(cfg), cfg, stop_after=1)
    assert res.completed == 1
    assert res.af is None
    assert res.aa == pytest.approx(res.matrix[0, 0])
    with pytest.raises(ContractError):
        run_continual(stream_for(cfg), cfg, stop_after=0)


def test_resume_reproduces_uninterrupted_run(tmp_path):
    cfg = cfg_for(dataset="sbm:classes=6,npc=25,dim=8,sep=10")
    stream = stream_for(cfg, classes=6)
    full = run_continual(stream, cfg, checkpoint_path=tmp_path / "full.bin")

    partial = run_continual(stream, cfg, checkpoint_path=tmp_path / "part.bin", stop_after=2)
    resumed = run_continual(stream, cfg, resume=partial, checkpoint_path=tmp_path / "res.bin")

    tri = np.tril_indices(3)
    assert np.array_equal(full.matrix[tri], resumed.matrix[tri])
    assert full.retrieval_log == resumed.retrieval_log
    assert full.donors == resumed.donors
    assert (tmp_path / "full.bin").read_bytes() == (tmp_path / "res.bin").read_bytes()


def test_resume_contracts():
    cfg = cfg_for()
    stream = stream_for(cfg)
    done = run_continual(stream, cfg)
    with pytest.raises(ContractError, match="stop_after=1"):
        run_continual(stream, cfg, resume=done, stop_after=1)
    part = run_continual(stream, cfg, stop_after=1)
    other = cfg_for(seed=1)
    with pytest.raises(ContractError, match="seed"):
        run_continual(stream, other, resume=part)
    longer = dataclasses.replace(part, tasks_total=len(stream.tasks) + 1)
    with pytest.raises(ContractError, match="the stream has"):
        run_continual(stream, cfg, resume=longer)
    with pytest.raises(ContractError):
        run_continual(stream, cfg, resume=part, stop_after=1)
    # every check runs before the state is advanced
    assert part.completed == 1


def test_resume_of_every_stage_trains_nothing(tmp_path, monkeypatch):
    cfg = cfg_for()
    stream = stream_for(cfg)
    done = run_continual(stream, cfg, checkpoint_path=tmp_path / "done.bin")
    monkeypatch.setattr(harness, "train_task", None)  # any training would fail
    again = run_continual(stream, cfg, resume=load_checkpoint(tmp_path / "done.bin"),
                          checkpoint_path=tmp_path / "again.bin")
    assert again.completed == 2
    assert np.array_equal(again.matrix, done.matrix, equal_nan=True)
    assert (again.aa, again.af, again.donors) == (done.aa, done.af, done.donors)
    assert all(np.array_equal(a.epochs, d.epochs) for a, d in zip(again.stages, done.stages))
    # the run's checkpoint is written all the same
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "done.bin").read_bytes()
    assert Path(frozen_path(tmp_path / "again.bin")).read_bytes() == Path(frozen_path(tmp_path / "done.bin")).read_bytes()


def test_resume_rejects_another_class_grouping():
    # same config, same graph, same task count: only the class groups differ
    cfg = cfg_for(dataset="sbm:classes=6,npc=25,dim=8,sep=10", epochs=3)
    g = generate_sbm(6, 25, 0.1, 0.02, 8, 10.0, seed=0)
    part = run_continual(default_stream(g, classes_per_task=2, seed=0), cfg, stop_after=1)
    regrouped = default_stream(g, classes_per_task=2, seed=1, shuffle_classes=True)
    assert len(regrouped.tasks) == part.tasks_total
    assert regrouped.tasks[0].classes != part.head.tasks[0]
    with pytest.raises(ContractError, match="class groups"):
        run_continual(regrouped, cfg, resume=part)
    assert part.completed == 1


def test_bad_method_rejected():
    cfg = cfg_for()
    cfg.method = "svm"
    with pytest.raises(ContractError, match="unknown method"):
        run_continual(stream_for(cfg_for()), cfg)


def test_identical_tasks_tie_to_the_lowest_task_id():
    # sep=0 and noise=0: both tasks draw the same features, so retrieval and
    # the warm-start donor tie, and the tie goes to the lowest task id
    cfg = cfg_for(dataset="sbm:classes=4,npc=10,dim=4,sep=0,noise=0", epochs=20)
    res = run_continual(stream_from_config(cfg), cfg)
    assert [e["inferred"] for e in res.retrieval_log] == [1, 1, 1]
    assert res.donors == [None, 1]
    assert res.aa == 25.0


def test_evaluate_final_row_matches_run():
    cfg = cfg_for()
    stream = stream_for(cfg)
    res = run_continual(stream, cfg)
    row, decisions = evaluate_final_row(stream, cfg, res)
    assert np.array_equal(row, res.matrix[1, :2])
    assert len(decisions) == 2


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize(
    "method, ablation",
    [("taam", "full"), ("taam", "retrieval_only"), ("taam", "nsm_only"), ("oracle", "full"), ("finetune", "full")],
)
def test_evaluate_final_row_propagates_only_test_rows_of_a_fresh_stream(monkeypatch, method, ablation, precision):
    # a fresh stream has propagated no task, so the eval path is the one a
    # checkpoint takes in `taam eval`
    cfg = cfg_for(dataset="sbm:classes=6,npc=25,dim=8,sep=10", method=method, ablation=ablation,
                  precision=precision, epochs=10)
    res = run_continual(stream_for(cfg, classes=6), cfg)
    fresh = stream_for(cfg, classes=6)
    heights = []

    def counted(*args, **kwargs):
        out = propagate(*args, **kwargs)
        heights.append(out.shape[0])
        return out

    monkeypatch.setattr(harness, "propagate", counted)
    row, decisions = evaluate_final_row(fresh, cfg, res)
    assert heights == [sum(task.test_idx.size for task in fresh.tasks)]
    assert heights[0] < fresh.graph.num_nodes
    assert np.array_equal(row, res.matrix[2])
    assert decisions == [e for e in res.retrieval_log if e["stage"] == 3]


def test_evaluate_final_row_rejects_another_stream():
    cfg = cfg_for(dataset="sbm:classes=6,npc=25,dim=8,sep=10", epochs=3)
    g = generate_sbm(6, 25, 0.1, 0.02, 8, 10.0, seed=0)
    res = run_continual(default_stream(g, classes_per_task=2, seed=0), cfg)
    shuffled = default_stream(g, classes_per_task=2, seed=0, shuffle_classes=True)
    assert [t.classes for t in shuffled.tasks] != res.head.tasks
    with pytest.raises(ContractError, match="class groups"):
        evaluate_final_row(shuffled, cfg, res)
    with pytest.raises(ContractError, match="3 tasks, the stream has 2"):
        evaluate_final_row(default_stream(g, classes_per_task=3, seed=0), cfg, res)


@pytest.mark.parametrize("field, value", [("hops", 0), ("ablation", "nsm_only"), ("precision", "f32")])
def test_evaluate_final_row_rejects_another_config(field, value):
    # each of these scores the same trained state differently, as a resume
    # with them would train it differently
    cfg = cfg_for(epochs=3)
    stream = stream_for(cfg)
    res = run_continual(stream, cfg)
    moved = make_config(None, {**cfg.echo(), "out_dir": "elsewhere"})
    assert np.array_equal(evaluate_final_row(stream, moved, res)[0], res.matrix[1])
    with pytest.raises(ContractError, match=f"differs in \\['{field}'\\]"):
        evaluate_final_row(stream, make_config(None, {**cfg.echo(), field: value}), res)


def test_predict_over_all_widens_the_label_space():
    cfg = cfg_for(predict_over_all=True, epochs=40)
    res = run_continual(stream_for(cfg), cfg)
    # retrieval still works and the run completes; scores just compete globally
    assert res.completed == 2
    assert not np.isnan(res.matrix[np.tril_indices(2)]).any()


def count_eval_calls(monkeypatch, cls, name):
    """Count calls of cls.name outside train_task, i.e. by stage evaluation."""
    calls, training = [0], [False]
    original, train = getattr(cls, name), harness.train_task

    def counted(*args, **kwargs):
        calls[0] += not training[0]
        return original(*args, **kwargs)

    def flagged(*args, **kwargs):
        training[0] = True
        try:
            return train(*args, **kwargs)
        finally:
            training[0] = False

    monkeypatch.setattr(cls, name, counted)
    monkeypatch.setattr(harness, "train_task", flagged)
    return calls


def keep_each_stage(monkeypatch, root):
    """Copy the checkpoint after every save to root/stageN.bin (both files)."""
    save = harness.save_checkpoint

    def saving(path, state, segments=None):
        table = save(path, state, segments)
        dst = root / f"stage{state.completed}.bin"
        shutil.copyfile(path, dst)
        shutil.copyfile(frozen_path(path), frozen_path(dst))
        return table

    monkeypatch.setattr(harness, "save_checkpoint", saving)


def test_stage_evaluation_embeds_each_frozen_pair_once(tmp_path, monkeypatch):
    cfg = cfg_for(dataset="sbm:classes=6,npc=25,dim=8,sep=10")
    stream = stream_for(cfg, classes=6)
    calls = count_eval_calls(monkeypatch, Backbone, "forward")
    keep_each_stage(monkeypatch, tmp_path)
    res = run_continual(stream, cfg, checkpoint_path=tmp_path / "run.bin")
    assert all(e["correct"] for e in res.retrieval_log)
    assert calls[0] == 3  # one per task, not one per (stage, task)
    for t in (1, 2, 3):
        row, _ = evaluate_final_row(stream, cfg, load_checkpoint(tmp_path / f"stage{t}.bin"))
        assert np.array_equal(row, res.matrix[t - 1, :t])


def test_finetune_evaluation_embeds_every_stage_task(tmp_path, monkeypatch):
    cfg = cfg_for(dataset="sbm:classes=6,npc=25,dim=8,sep=10", method="finetune")
    stream = stream_for(cfg, classes=6)
    calls = count_eval_calls(monkeypatch, harness.FinetuneModel, "embed")
    keep_each_stage(monkeypatch, tmp_path)
    res = run_continual(stream, cfg, checkpoint_path=tmp_path / "run.bin")
    assert calls[0] == 3 * 4 // 2  # its net changes every stage
    for t in (1, 2, 3):
        row, _ = evaluate_final_row(stream, cfg, load_checkpoint(tmp_path / f"stage{t}.bin"))
        assert np.array_equal(row, res.matrix[t - 1, :t])


def traced_run(stream, cfg, **kwargs):
    """run_continual's state and the peak of the memory tracemalloc traced in it."""
    tracemalloc.start()
    try:
        state = run_continual(stream, cfg, **kwargs)
        return state, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_a_checkpointed_run_is_the_same_run_without_its_generators_in_memory(tmp_path, precision):
    cfg = cfg_for(dataset="sbm:classes=12,npc=25,dim=12,sep=10", epochs=5, precision=precision)
    g = generate_sbm(12, 25, 0.1, 0.02, 12, 10.0, seed=cfg.seed)
    stream = build_stream(g, classes_per_task=2, seed=cfg.seed, train_frac=cfg.train_frac, val_frac=cfg.val_frac)
    kept, kept_peak = traced_run(stream, cfg)
    spilled, spilled_peak = traced_run(stream, cfg, checkpoint_path=tmp_path / "run.bin")

    assert spilled.completed == kept.completed == 6
    for a, b in zip(spilled.stages, kept.stages, strict=True):
        assert (a.accuracy, a.inferred, a.donor) == (b.accuracy, b.inferred, b.donor)
        assert a.epochs.tobytes() == b.epochs.tobytes()
    assert None not in spilled.donors[1:]  # every later task warm-starts from a spilled generator
    assert spilled.head.weight.dtype == kept.head.weight.dtype == cfg.np_dtype
    assert spilled.head.weight.tobytes() == kept.head.weight.tobytes()
    for t in range(1, 7):
        read, held = spilled.bank.modulator(t).generator(), kept.bank.modulator(t).generator()
        assert [a.dtype for a in read] == [a.dtype for a in held]
        assert [a.tobytes() for a in read] == [a.tobytes() for a in held]
    generator_bytes = sum(a.nbytes for a in kept.bank.modulator(1).generator())
    assert spilled_peak <= kept_peak - 4 * generator_bytes
