"""Optimizer against a scalar reference, loss wrappers, both training loops.

The separable-data test uses a from-scratch softmax regression (plain
gradient descent, no shared code) as an oracle that the task's propagated
features are linearly learnable; the packaged trainer must then reach the
same regime.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from taam import training
from taam.config import make_config
from taam.errors import ContractError
from taam.graph import generate_sbm
from taam.prototypes import PrototypeBank
from taam.classifier import ClassifierHead
from taam.backbone import init_backbone
from taam.rng import rng_for
from taam.tensor import Tape, Tensor, weighted_cross_entropy
from taam.training import (
    Adam,
    FinetuneModel,
    class_weights,
    end_to_end_grad_check,
    train_task,
)

from streams import default_stream


def adam_reference(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    # straight transcription of the update rule with python floats
    m = v = 0.0
    path = []
    for t, g in enumerate(grads, start=1):
        g = g + wd * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        path.append(theta)
    return path


def test_adam_matches_scalar_reference_100_steps():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=100)
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam([p], lr=0.01, weight_decay=0.002)
    got = []
    for g in grads:
        p.grad = np.array([[g]])
        opt.step()
        got.append(float(p.data[0, 0]))
    want = adam_reference(1.0, list(grads), lr=0.01, wd=0.002)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_adam_single_step_bias_correction():
    # theta=1, g=1: both moment estimates bias-correct to exactly 1,
    # so the first step moves by lr/(1+eps)
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam([p], lr=0.005, weight_decay=0.0)
    p.grad = np.array([[1.0]])
    opt.step()
    assert float(p.data[0, 0]) == pytest.approx(1.0 - 0.005 / (1.0 + 1e-8), abs=1e-15)


def test_adam_zero_grad_zero_decay_is_a_fixed_point():
    p = Tensor(np.array([[3.0, -2.0]]), requires_grad=True)
    opt = Adam([p], lr=0.1, weight_decay=0.0)
    for _ in range(5):
        p.grad = np.zeros((1, 2))
        opt.step()
    assert np.array_equal(p.data, np.array([[3.0, -2.0]]))


def test_adam_decay_is_coupled_into_the_gradient():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam([p], lr=0.01, weight_decay=0.5)
    p.grad = np.zeros((1, 1))
    opt.step()
    want = adam_reference(1.0, [0.0], lr=0.01, wd=0.5)[-1]
    assert float(p.data[0, 0]) == pytest.approx(want, rel=1e-14)


def test_adam_elementwise_on_matrices():
    rng = np.random.default_rng(1)
    init = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(20)]
    p = Tensor(init.copy(), requires_grad=True)
    opt = Adam([p], lr=0.02, weight_decay=0.0)
    for g in grads:
        p.grad = g
        opt.step()
    for i in range(3):
        for j in range(2):
            want = adam_reference(init[i, j], [g[i, j] for g in grads], lr=0.02)[-1]
            assert float(p.data[i, j]) == pytest.approx(want, rel=1e-12)


def test_adam_contracts():
    frozen = Tensor(np.zeros((1, 1)))
    with pytest.raises(ContractError):
        Adam([frozen], lr=0.005, weight_decay=0.0)
    p = Tensor(np.zeros((1, 1)), requires_grad=True)
    opt = Adam([p], lr=0.005, weight_decay=0.0)
    with pytest.raises(ContractError, match="missing gradient"):
        opt.step()
    p.grad = np.ones((1, 1))
    opt.zero_grad()
    assert p.grad is None


def test_class_weights_inverse_frequency():
    labels = np.array([4, 4, 4, 9])
    assert np.array_equal(class_weights(labels, [4, 9]), np.array([1 / 3, 1.0]))
    assert np.array_equal(class_weights(labels, [9, 4]), np.array([1.0, 1 / 3]))
    # a class with no training nodes gets weight 1, not a zero division
    assert np.array_equal(class_weights(labels, [4, 7]), np.array([1 / 3, 1.0]))


def test_reduction_mean_is_sum_over_n():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(8, 3))
    labels = rng.integers(0, 3, size=8)
    node_w = np.ones(8)
    s = weighted_cross_entropy(Tensor(z), labels, node_w, reduction="sum").item()
    m = weighted_cross_entropy(Tensor(z), labels, node_w, reduction="mean").item()
    assert m == pytest.approx(s / 8, rel=1e-15)


# ------------------------------------------------------------- full loops

def tiny_cfg(**overrides):
    base = {"dataset": "sbm:classes=2,npc=30,dim=8,sep=10",
            "hidden_dim": 16, "epochs": 60, "seed": 0}
    base.update(overrides)
    return make_config(None, base)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_step_gives_the_bits_of_its_expression_form(dtype):
    # parameters of several sizes share the step's scratch buffers
    rng = np.random.default_rng(0)
    params = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in [(7, 5), (3,), (40, 2), (1, 1)]]
    expected = [p.data.copy() for p in params]
    moments = [(np.zeros_like(e), np.zeros_like(e)) for e in expected]
    opt = Adam(params, lr=0.01, weight_decay=5e-4)
    for t in range(1, 6):
        c1, c2 = 1.0 - Adam.BETA1**t, 1.0 - Adam.BETA2**t
        for p, theta, (m, v) in zip(params, expected, moments):
            p.grad = rng.normal(size=p.data.shape).astype(dtype)
            g = p.grad + opt.weight_decay * theta
            m *= Adam.BETA1
            m += (1.0 - Adam.BETA1) * g
            v *= Adam.BETA2
            v += (1.0 - Adam.BETA2) * (g * g)
            theta -= opt.lr * (m / c1) / (np.sqrt(v / c2) + Adam.EPS)
        opt.step()
        for p, theta in zip(params, expected):
            assert p.data.dtype == dtype and p.data.tobytes() == theta.tobytes()


def train(stream, i, net, bank, head, cfg):
    """train_task on task i (0-based) of `stream`, given the task's
    propagated block as `run_continual` gives it."""
    task = stream.tasks[i]
    return train_task(task, stream.propagate_task(task, cfg.hops), net, bank, head, cfg)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_train_task_holds_few_activation_sized_arrays(precision):
    # 1200 train nodes at the default hidden width 256, with 8 features and a
    # small modulator: arrays of n_train x hidden dominate a training step.
    # Freeing each backward's inputs once it has run, and recomputing the
    # site-2 scale, keep the peak near five and a half of them; a tape that
    # kept its records until the next step would peak near eight and a half.
    cfg = tiny_cfg(epochs=2, hidden_dim=256, embed_dim=8, heads=2, precision=precision)
    stream = default_stream(generate_sbm(2, 1000, 0.02, 0.004, 8, 8.0, seed=0), seed=cfg.seed)
    task = stream.tasks[0]
    backbone = init_backbone(8, cfg.hidden_dim, rng_for(cfg.seed, "backbone"), dtype=cfg.np_dtype)
    bank, head = PrototypeBank(), ClassifierHead(cfg.hidden_dim, dtype=cfg.np_dtype)
    unit = task.train_idx.size * cfg.hidden_dim * np.dtype(cfg.np_dtype).itemsize
    tracemalloc.start()
    try:
        train(stream, 0, backbone, bank, head, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert task.train_idx.size == 1200
    assert peak <= 6 * unit


def logistic_regression_oracle(x, y, classes=2, steps=400, lr=0.5):
    # plain full-batch gradient descent on mean cross-entropy
    w = np.zeros((x.shape[1], classes))
    onehot = np.eye(classes)[y]
    for _ in range(steps):
        z = x @ w
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        w -= lr * x.T @ (p - onehot) / x.shape[0]
    z = x @ w
    return 100.0 * float((z.argmax(axis=1) == y).sum()) / y.size


def test_train_task_learns_separable_classes():
    cfg = tiny_cfg()
    g = generate_sbm(2, 30, 0.3, 0.05, 8, 10.0, seed=0)
    stream = default_stream(g, classes_per_task=2, seed=cfg.seed)
    task = stream.tasks[0]

    x = stream.propagate_task(task, cfg.hops)[task.train_idx]
    y = task.local_labels[task.train_idx]
    assert logistic_regression_oracle(x, y) >= 99.0  # the data is learnable

    backbone = init_backbone(g.feature_dim, cfg.hidden_dim, rng_for(cfg.seed, "backbone"))
    bank, head = PrototypeBank(), ClassifierHead(cfg.hidden_dim)
    donor, epochs = train(stream, 0, backbone, bank, head, cfg)

    assert donor is None
    assert epochs.shape == (cfg.epochs, 3) and epochs.dtype == np.float64
    loss, train_acc, val_acc = epochs.T
    assert train_acc[-1] >= 99.0
    assert loss[-1] < loss[0]
    assert not np.isnan(val_acc[-1])
    # side effects: columns written and locked, pair committed
    assert head.frozen.all() and head.tasks == [[0, 1]]
    assert len(bank) == 1 and bank.modulator(1).frozen


@pytest.mark.parametrize("method", ["taam", "finetune"])
def test_a_training_step_folds_w2_into_the_head_block(monkeypatch, method):
    # one step records the matmul by w1 (n, hidden), then w2·w (hidden, k),
    # then h·(w2·w) (n, k); (h·w2)·w would record an (n, hidden) product
    # second.  A modulated step adds one fused op per site and the loss: a
    # site composed from primitive ops again would add entries.
    recorded = []

    class RecordingTape(training.Tape):
        def backward(self, loss):
            recorded.append([(fn.__qualname__.split(".")[0], out.shape) for out, fn in self._entries])
            super().backward(loss)

    monkeypatch.setattr(training, "Tape", RecordingTape)
    cfg = tiny_cfg(epochs=1, method=method)
    g = generate_sbm(2, 30, 0.3, 0.05, 8, 10.0, seed=0)
    stream = default_stream(g, classes_per_task=2, seed=cfg.seed)
    net = init_backbone(g.feature_dim, cfg.hidden_dim, rng_for(cfg.seed, "backbone"))
    if method == "finetune":
        net = FinetuneModel(net.w1, net.w2)
    train(stream, 0, net, PrototypeBank(), ClassifierHead(cfg.hidden_dim), cfg)
    [entries] = recorded
    n, hidden = stream.tasks[0].train_idx.size, cfg.hidden_dim
    assert [shape for op, shape in entries if op == "matmul"] == [(n, hidden), (hidden, 2), (n, 2)]
    ops = Counter(op for op, _ in entries)
    assert ops == {"matmul": 3, "weighted_cross_entropy": 1, **({"modulate": 2} if method == "taam" else {})}


def test_train_task_second_task_warm_starts_from_first():
    cfg = tiny_cfg(dataset="sbm:classes=4,npc=30,dim=8,sep=10", epochs=15)
    g = generate_sbm(4, 30, 0.3, 0.05, 8, 10.0, seed=0)
    stream = default_stream(g, classes_per_task=2, seed=cfg.seed)
    backbone = init_backbone(g.feature_dim, cfg.hidden_dim, rng_for(cfg.seed, "backbone"))
    bank, head = PrototypeBank(), ClassifierHead(cfg.hidden_dim)
    first, _ = train(stream, 0, backbone, bank, head, cfg)
    second, _ = train(stream, 1, backbone, bank, head, cfg)
    assert (first, second) == (None, 1)

    # with warm start ablated away the donor disappears
    cfg_abl = tiny_cfg(dataset=cfg.dataset, epochs=15, ablation="retrieval_only")
    bank2, head2 = PrototypeBank(), ClassifierHead(cfg.hidden_dim)
    train(stream, 0, backbone, bank2, head2, cfg_abl)
    second_abl, _ = train(stream, 1, backbone, bank2, head2, cfg_abl)
    assert second_abl is None


def test_train_task_without_validation_split():
    cfg = tiny_cfg(epochs=5, val_frac=0.0)
    g = generate_sbm(2, 20, 0.3, 0.05, 8, 10.0, seed=1)
    stream = default_stream(g, classes_per_task=2, seed=1, val_frac=0.0)
    backbone = init_backbone(g.feature_dim, cfg.hidden_dim, rng_for(1, "backbone"))
    _, epochs = train(stream, 0, backbone, PrototypeBank(), ClassifierHead(cfg.hidden_dim), cfg)
    assert np.isnan(epochs[:, 2]).all()


def test_finetune_trains_shared_weights_over_all_columns():
    cfg = tiny_cfg(dataset="sbm:classes=4,npc=30,dim=8,sep=10", epochs=400, method="finetune")
    g = generate_sbm(4, 30, 0.3, 0.05, 8, 10.0, seed=0)
    stream = default_stream(g, classes_per_task=2, seed=0)
    bb = init_backbone(g.feature_dim, cfg.hidden_dim, rng_for(0, "backbone"))
    model = FinetuneModel(bb.w1, bb.w2)
    head = ClassifierHead(cfg.hidden_dim)
    bank = PrototypeBank()
    w1_before = model.w1.copy()
    train(stream, 0, model, bank, head, cfg)
    assert not np.array_equal(model.w1, w1_before)  # backbone actually moves
    train(stream, 1, model, bank, head, cfg)
    assert head.num_classes == 4
    assert not head.frozen.any() and len(bank) == 0  # the naive loop freezes and stores nothing

    # second-task training happily overwrites first-task behavior: after task 2,
    # task-1 test nodes are mostly dragged to the new classes
    t1 = stream.tasks[0]
    x = Tensor(stream.propagate_task(t1, cfg.hops)[t1.test_idx])
    pred = head.predict(model.embed(x).data, model.w2)
    truth = t1.labels[t1.test_idx]
    acc = 100.0 * float((pred == truth).sum()) / truth.size
    assert acc < 50.0


@pytest.mark.parametrize("seed", range(3))
def test_end_to_end_gradients_sample(seed):
    assert end_to_end_grad_check(seed) <= 1e-4


def test_end_to_end_grad_check_needs_even_nodes():
    with pytest.raises(ContractError):
        end_to_end_grad_check(0, num_nodes=9)
