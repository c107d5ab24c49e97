"""Dense tensors with tape-based reverse-mode differentiation.

A `Tape` records every op applied to tensors that require gradients while it
is the active context.  `Tape.backward(loss)` replays the records in reverse,
accumulating gradients into the `.grad` buffers of leaf tensors (parameters).
Intermediate results never get `.grad` buffers, and tensors with
`requires_grad=False` are never touched, so frozen parameters stay untracked
for free.

The model records three op kinds: 2-d matmul, one fused op per modulator
site (`modulator.modulate`, built on the helpers `_normalize_rows`,
`_softmax` and `_maybe_record` here) and a weighted softmax cross-entropy.
Each op's backward is a fused closed form rather than a composition of
primitive backwards.  One backward pass per tape; build a fresh tape per step.

The primitives that the modulator site fuses (broadcast add, elementwise
multiply, transpose, reshape, column slicing, row-wise LayerNorm and softmax)
stay defined as tape ops: the tests compose them into the oracle that the
fused op must match bit for bit, and `layer_norm` also normalizes a constant
site-1 input once per task.  `add` ... `softmax_rows` and `Tape` also stay
because the benchmark's tracer (`perfbench/tracer.py`) looks each one up by
name and raises on a missing one: retiring them (ROADMAP D7) waits for D1.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_TAPE_STACK: list["Tape"] = []
LAYER_NORM_EPS = 1e-5


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """An ndarray plus a gradient buffer.

    `requires_grad=True` marks a trainable leaf; ops set it on their outputs
    only while a tape is recording, which is what routes the backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Records ops for one forward pass and replays them backward once.

    Usage:
        with Tape() as tape:
            loss = ...            # ops on tensors record themselves
        tape.backward(loss)       # fills .grad on reachable leaves

    Dropping the tape releases every recorded intermediate; parameter
    tensors and their gradients persist.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, object]] = []
        self._done = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def _record(self, out: Tensor, backward_fn) -> None:
        self._entries.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self._done:
            raise ContractError("tape already backpropagated; build a fresh tape")
        produced = {id(out) for out, _ in self._entries}
        if id(loss) not in produced:
            raise ContractError("loss was not computed on this tape")
        self._done = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}

        def accum(t: Tensor, g: np.ndarray) -> None:
            if not t.requires_grad:
                return
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                leaves[key] = t

        for out, fn in reversed(self._entries):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            leaves.pop(id(out), None)
            fn(g, accum)

        # Whatever is left was never produced by an op: those are the leaves.
        for key, g in grads.items():
            t = leaves[key]
            t.grad = g if t.grad is None else t.grad + g


def _maybe_record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._record(out, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-d matrix product a @ b."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g, accum):
        if a.requires_grad:
            accum(a, g @ b.data.T)
        if b.requires_grad:
            accum(b, a.data.T @ g)

    return _maybe_record(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a (1, n) row vector for b, broadcast over rows."""
    broadcast_row = (
        a.data.ndim == 2
        and b.data.ndim == 2
        and b.data.shape[0] == 1
        and a.data.shape[1] == b.data.shape[1]
        and a.data.shape != b.data.shape
    )
    if a.data.shape != b.data.shape and not broadcast_row:
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g, accum):
        if a.requires_grad:
            accum(a, g)
        if b.requires_grad:
            accum(b, g.sum(axis=0, keepdims=True) if broadcast_row else g)

    return _maybe_record(out, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with a same-shape tensor or a python scalar."""
    if isinstance(b, Tensor):
        if a.data.shape != b.data.shape:
            raise ShapeError(f"mul shapes incompatible: {a.data.shape} * {b.data.shape}")
        out = Tensor(a.data * b.data)

        def bwd(g, accum):
            if a.requires_grad:
                accum(a, g * b.data)
            if b.requires_grad:
                accum(b, g * a.data)

        return _maybe_record(out, (a, b), bwd)

    c = float(b)
    out = Tensor(a.data * c)

    def bwd_scalar(g, accum):
        if a.requires_grad:
            accum(a, g * c)

    return _maybe_record(out, (a,), bwd_scalar)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got shape {a.data.shape}")
    out = Tensor(a.data.T)

    def bwd(g, accum):
        accum(a, g.T)

    return _maybe_record(out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = Tensor(a.data.reshape(shape))

    def bwd(g, accum):
        accum(a, g.reshape(old))

    return _maybe_record(out, (a,), bwd)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-d tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-d tensor, got shape {a.data.shape}")
    if not (0 <= start <= stop <= a.data.shape[1]):
        raise ContractError(f"slice_cols [{start}:{stop}] out of range for shape {a.data.shape}")
    out = Tensor(a.data[:, start:stop])

    def bwd(g, accum):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        accum(a, full)

    return _maybe_record(out, (a,), bwd)


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (x - mean) / sqrt(var + eps) and the factor 1 / sqrt(var + eps),
    eps = LAYER_NORM_EPS."""
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    centered *= inv
    return centered, inv


def _softmax(x: np.ndarray, op: str) -> np.ndarray:
    """Row-wise softmax with max subtraction; a non-finite entry is a NumericError."""
    finite = np.isfinite(x)
    if not finite.all():
        bad = int(np.argwhere(~finite.all(axis=1))[0, 0])
        raise NumericError(f"{op}: non-finite entry in row {bad}")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def layer_norm(x: Tensor) -> Tensor:
    """Row-wise standardization (x - mean) / sqrt(var + eps), no learned affine.

    Population variance; eps = LAYER_NORM_EPS sits inside the sqrt.  Backward uses the fused
    form dx = (y') where y' = (g - mean(g) - y * mean(g*y)) / sqrt(var + eps),
    means taken per row.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm needs a 2-d tensor, got shape {x.data.shape}")
    y, inv = _normalize_rows(x.data)
    out = Tensor(y)

    def bwd(g, accum):
        gm = g.mean(axis=1, keepdims=True)
        gym = (g * y).mean(axis=1, keepdims=True)
        accum(x, inv * (g - gm - y * gym))

    return _maybe_record(out, (x,), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for overflow safety."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-d tensor, got shape {x.data.shape}")
    y = _softmax(x.data, "softmax_rows")
    out = Tensor(y)

    def bwd(g, accum):
        dot = (g * y).sum(axis=1, keepdims=True)
        accum(x, y * (g - dot))

    return _maybe_record(out, (x,), bwd)


def weighted_cross_entropy(logits: Tensor, labels, node_weights, reduction: str = "sum") -> Tensor:
    """Softmax cross-entropy with a per-row weight, reduced to a scalar.

    Args:
        logits: (n, C) tensor.
        labels: (n,) integer array, values in [0, C).
        node_weights: (n,) float array multiplying each row's loss term.
        reduction: "sum" or "mean" over rows.

    Log-softmax is computed via max subtraction, so logit magnitudes around
    1e3 lose no precision.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross-entropy needs (n, C) logits, got shape {z.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    w = np.asarray(node_weights, dtype=z.dtype)
    n, c = z.shape
    if labels.shape != (n,) or w.shape != (n,):
        raise ShapeError(
            f"cross-entropy labels/weights shapes {labels.shape}/{w.shape} do not match {n} rows"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ContractError(f"label out of range [0, {c}): {int(labels[labels >= c][0]) if (labels >= c).any() else int(labels.min())}")
    if not np.isfinite(z).all():
        raise NumericError("cross-entropy: non-finite logit")
    if reduction not in ("sum", "mean"):
        raise ContractError(f"unknown reduction {reduction!r}")

    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    nll = -logp[np.arange(n), labels]
    total = (w * nll).sum()
    if reduction == "mean":
        total = total / n
    out = Tensor(np.asarray(total))

    def bwd(g, accum):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        dz = w[:, None] * p * float(g)
        if reduction == "mean":
            dz = dz / n
        accum(logits, dz)

    return _maybe_record(out, (logits,), bwd)


def grad_check(f, params: list[Tensor]) -> float:
    """Compare tape gradients of `f()` against central finite differences
    with half-step 1e-5.

    Args:
        f: zero-argument callable returning a scalar Tensor; must read the
           current values of `params` and be deterministic.
        params: tensors whose gradients are checked (requires_grad=True).

    Returns the worst relative error max(|a - n|) / max(|a|, |n|, 1e-12)
    over every entry of every parameter.  Use float64 parameters; float32
    round-off swamps the difference quotient.
    """
    step = 1e-5
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = []
    for p in params:
        analytic.append(np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        p.grad = None

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f().item()
            flat[i] = orig - step
            f_minus = f().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(an_flat[i]), abs(numeric), 1e-12)
            worst = max(worst, abs(an_flat[i] - numeric) / denom)
    return worst
