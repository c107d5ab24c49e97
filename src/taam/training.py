"""Optimization: Adam, the per-task loss, and the one epoch loop.

`train_task` trains one task of the stream.  With modulators (methods taam
and oracle) it touches only the new task's modulator and the head columns of
its classes; everything older is frozen by construction.  For the naive
baseline (method finetune) it trains one shared backbone and every head
column, with the loss over all classes seen so far.  Both run the same epoch
loop, `_fit`.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .modulator import init_modulator
from .prototypes import compute_prototype, task_aware_init
from .rng import rng_for
from .tensor import Tape, Tensor, grad_check, layer_norm, matmul, weighted_cross_entropy


class Adam:
    """Adam with decoupled-from-nothing weight decay: the decay term is added
    to the gradient before the moment updates (classic L2-coupled variant).

    update: g      = grad + weight_decay * theta
            m      = b1*m + (1-b1)*g
            v      = b2*v + (1-b2)*g^2
            theta -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    `step` evaluates each expression in this order, one numpy operation at a
    time, into two scratch buffers shared by all parameters and allocated
    once, so a step allocates nothing.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr: float, weight_decay: float):
        self.params = list(params)
        for p in self.params:
            if not p.requires_grad:
                raise ContractError("Adam given a non-trainable tensor")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        size = max((p.data.nbytes for p in self.params), default=0)
        self._scratch = (np.empty(size, np.uint8), np.empty(size, np.uint8))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                raise ContractError("step() with a missing gradient; run backward first")
            g, tmp = (b[: p.data.nbytes].view(p.data.dtype).reshape(p.data.shape) for b in self._scratch)
            np.multiply(self.weight_decay, p.data, out=g)
            np.add(p.grad, g, out=g)
            m *= self.BETA1
            m += np.multiply(1.0 - self.BETA1, g, out=tmp)
            v *= self.BETA2
            np.multiply(g, g, out=tmp)
            v += np.multiply(1.0 - self.BETA2, tmp, out=tmp)
            # g is spent: it takes the numerator, tmp the denominator
            np.multiply(self.lr, np.divide(m, c1, out=g), out=g)
            np.add(np.sqrt(np.divide(v, c2, out=tmp), out=tmp), self.EPS, out=tmp)
            p.data -= np.divide(g, tmp, out=g)


def class_weights(labels, classes) -> np.ndarray:
    """Inverse-frequency weights, aligned to `classes` order.

    Counts are taken over `labels`; a class absent from `labels` gets weight
    1/1 rather than a division by zero.
    """
    labels = np.asarray(labels)
    counts = np.array([(labels == c).sum() for c in classes], dtype=np.float64)
    return 1.0 / np.maximum(counts, 1.0)


def accuracy_percent(pred: np.ndarray, truth: np.ndarray) -> float:
    """Percentage of predictions equal to the truth; NaN for no nodes."""
    if truth.size == 0:
        return float("nan")
    return 100.0 * float((pred == truth).sum()) / truth.size


def _fit(embed, readout, params, w: Tensor, x_train, x_val, task, labels, node_w, cfg) -> np.ndarray:
    """Train `params` and the head block `w` on the task's train nodes.

    `x_train` and `x_val` are the propagated features of the task's train
    and validation nodes, in the run's dtype; they are all of the task's
    features that training reads.  `embed` maps propagated features and
    their layer norm (both Tensors) to activations h, and the logits are
    `matmul(h, readout(w))`.  `labels` gives every node of the task graph
    its column of `w`, and `node_w` weights the loss of each train node.  The
    features are constant within the task, so they are normalized once,
    here.  Returns the (epochs, 3) float64 log of loss and train/validation
    accuracy per epoch; the validation pass reuses the epoch's `readout(w)`
    off the tape.
    """
    y_train = labels[task.train_idx]
    y_val = labels[task.val_idx]
    x_train = Tensor(x_train)
    n_train = layer_norm(x_train)
    x_val = Tensor(x_val) if task.val_idx.size else None
    n_val = layer_norm(x_val) if x_val is not None else None
    opt = Adam(params + [w], lr=cfg.lr, weight_decay=cfg.weight_decay)
    epochs = np.full((cfg.epochs, 3), np.nan)  # without validation nodes, val_acc stays NaN
    for epoch in range(cfg.epochs):
        with Tape() as tape:
            z = matmul(embed(x_train, n_train), w_h := readout(w))
            loss = weighted_cross_entropy(z, y_train, node_w, reduction=cfg.reduction)
        epochs[epoch, :2] = loss.item(), accuracy_percent(z.data.argmax(axis=1), y_train)
        if x_val is not None:
            z_val = embed(x_val, n_val).data @ w_h.data
            epochs[epoch, 2] = accuracy_percent(z_val.argmax(axis=1), y_val)
        opt.zero_grad()
        tape.backward(loss)
        opt.step()
    return epochs


def train_task(task, x_prop64, backbone, bank, head, cfg) -> tuple[int | None, np.ndarray]:
    """Train one task and register its classes in the head; return its
    warm-start donor (None without one) and its epoch log (see `_fit`).

    `x_prop64` is the float64 propagated features of the task's own block
    (`stream.propagate_task(task, cfg.hops)`).  Only its train and
    validation rows are kept, cast to the run's dtype, and the block is
    dropped before training: pass it without keeping a reference, and it is
    freed then.

    With modulators, only a fresh modulator and the task's new head columns
    receive gradients.  The task's prototype is computed from its train nodes
    before training and committed with the frozen modulator afterwards.

    For method finetune, `backbone` is the shared trainable FinetuneModel and
    `bank` is unused: everything is trained, over every class registered so
    far, and nothing is frozen or stored.
    """
    finetune = cfg.method == "finetune"
    proto = None if finetune else compute_prototype(x_prop64, task.train_idx)
    x_train = x_prop64[task.train_idx].astype(cfg.np_dtype, copy=False)
    x_val = x_prop64[task.val_idx].astype(cfg.np_dtype, copy=False)
    del x_prop64
    t = head.extend(task.classes, rng_for(cfg.seed, "task", task.task_id, "head"))
    cw = class_weights(task.labels[task.train_idx], task.classes)
    node_w = cw[task.local_labels[task.train_idx]]

    if finetune:
        w = Tensor(head.block(), requires_grad=True)
        labels = task.local_labels + head.span(t).start
        embed = lambda x, _norm: backbone.embed(x)  # no norm in the baseline
        epochs = _fit(embed, backbone.readout, backbone.parameters(), w, x_train, x_val, task, labels, node_w, cfg)
        head.set_block(w.data)
        return None, epochs

    rng_mod = rng_for(cfg.seed, "task", task.task_id, "nsm")
    dims = {"embed_dim": cfg.embed_dim, "heads": cfg.heads, "dtype": cfg.np_dtype}
    if cfg.variant.warm_start:
        mod, donor = task_aware_init(bank, proto, backbone.site_widths, rng_mod, **dims)
    else:
        mod, donor = init_modulator(backbone.site_widths, rng_mod, **dims), None
    w = Tensor(head.block(t), requires_grad=True)
    embed = lambda x, x_norm: backbone.forward(x, mod, x_norm)
    epochs = _fit(embed, backbone.readout, mod.parameters(), w, x_train, x_val, task, task.local_labels, node_w, cfg)
    head.set_block(w.data, t)
    head.freeze(t)
    bank.commit(proto, mod)
    if not cfg.variant.warm_start:
        mod.spill(None)  # no later task reads its generator
    return donor, epochs


class FinetuneModel:
    """Trainable two-matrix backbone for the naive baseline (no modulators,
    no normalization, weights shared and overwritten across tasks).  As a
    Backbone's, its logits are `embed(x)`·`readout(w)` = x·w1·(w2·w).

    `w1` and `w2` are ndarrays, like a Backbone's; the trainable Tensors wrap
    the same buffers, which Adam updates in place.
    """

    def __init__(self, w1: np.ndarray, w2: np.ndarray):
        self.w1 = np.array(w1)
        self.w2 = np.array(w2)
        self._params = [Tensor(self.w1, requires_grad=True), Tensor(self.w2, requires_grad=True)]

    def embed(self, x: Tensor) -> Tensor:
        return matmul(x, self._params[0])

    def readout(self, w: Tensor) -> Tensor:
        return matmul(self._params[1], w)

    def parameters(self) -> list[Tensor]:
        return self._params


def end_to_end_grad_check(seed: int, num_nodes: int = 10) -> float:
    """Worst relative gradient error of the full pipeline loss on a small graph.

    Builds a two-class block-model instance (feature width 7), runs its
    2-hop propagated features through a frozen backbone of width 9 with a
    fresh modulator (embedding 5, 3 heads) and a head block, and compares
    every trainable parameter's tape gradient against central differences.
    """
    from .backbone import init_backbone
    from .graph import generate_sbm, normalize_adjacency, propagate

    if num_nodes % 2:
        raise ContractError("num_nodes must be even (two equal classes)")
    in_dim, hidden_dim = 7, 9
    g = generate_sbm(2, num_nodes // 2, 0.6, 0.3, in_dim, 4.0, seed)
    x_prop = propagate(normalize_adjacency(g.adj), g.features, 2)
    backbone = init_backbone(in_dim, hidden_dim, rng_for(seed, "gc-backbone"))
    mod = init_modulator(backbone.site_widths, rng_for(seed, "gc-mod"), embed_dim=5, heads=3)
    # Basis-weight gradients are outer products with the embedding, so a
    # near-zero embedding coordinate (likely at the production init scale of
    # 0.02) pushes entries below the float64 difference-quotient noise floor.
    # Checking at magnitudes in [0.5, 1.5] keeps every entry well above it
    # without changing any formula under test.
    e_rng = rng_for(seed, "gc-embed")
    signs = np.where(e_rng.random(mod.embedding.shape) < 0.5, -1.0, 1.0)
    mod.embedding.data[:] = signs * e_rng.uniform(0.5, 1.5, size=mod.embedding.shape)
    rng = rng_for(seed, "gc-head")
    w = Tensor(rng.uniform(-0.5, 0.5, size=(hidden_dim, 2)), requires_grad=True)
    node_w = class_weights(g.labels, [0, 1])[g.labels]
    x = Tensor(x_prop)

    def loss_fn():
        z = matmul(backbone.forward(x, mod), backbone.readout(w))
        return weighted_cross_entropy(z, g.labels, node_w, reduction="sum")

    return grad_check(loss_fn, mod.parameters() + [w])
