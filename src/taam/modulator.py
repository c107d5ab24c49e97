"""Per-task modulators that steer a frozen backbone.

A modulator owns a task embedding plus, per insertion site, a small
parameter set that turns node activations into per-node scale and shift:

    basis   = reshape(W_base @ e + b_base)      -> (heads, 2 * width)
    attn    = softmax(H @ W_attn^T + b_attn)    -> (n, heads), rows on the simplex
    [g | b] = attn @ basis                      -> per-node scale and shift
    out     = g * layernorm(H) + b

Each basis row holds the scale part in its first `width` entries and the
shift part in the last `width`.  Per-node coefficients are convex mixtures
of the basis rows, so they live in the basis rows' convex hull.  This is the
FiLM form (a feature-wise scale and shift), with coefficients chosen per
node.  A site is one tape op, `modulate`, with a closed-form backward; the
basis-row layout above is known to this module alone.

A finished task's modulator is frozen into its inference form: each site's
basis, computed once, and its attention weights.  The basis generators
(W_base, b_base), most of a modulator's floats, only seed a later task's
warm start, and the embedding is dropped.  A checkpointed run keeps a
generator in its checkpoint's sidecar, not in memory, and reads it from
there whenever a warm start needs it (`Modulator.spill`); a run that never
warm-starts keeps none.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, _maybe_record, _normalize_rows, _softmax

EMBED_INIT_STD = 0.02


def param_layout(site_widths, heads: int, embed_dim: int) -> list[tuple[str, tuple[int, int]]]:
    """Every parameter's name and shape: per site w_base, b_base, w_attn,
    b_attn, then the embedding.  This one order is `Modulator.parameters()`
    and the draw order of `init_modulator`."""
    layout = []
    for s, width in enumerate(site_widths):
        layout += [
            (f"site{s}.w_base", (heads * 2 * width, embed_dim)),
            (f"site{s}.b_base", (heads * 2 * width, 1)),
            (f"site{s}.w_attn", (heads, width)),
            (f"site{s}.b_attn", (1, heads)),
        ]
    return layout + [("embedding", (embed_dim, 1))]


def frozen_layout(site_widths, heads: int, embed_dim: int):
    """The array shapes of a frozen modulator's two parts, in storage order:
    its inference form (per site basis, w_attn, b_attn), which is
    `Modulator.sites` flattened, and its generator (per site w_base, b_base),
    which is `Modulator.generator()`."""
    shapes = dict(param_layout(site_widths, heads, embed_dim))
    inference, generator = [], []
    for s, width in enumerate(site_widths):
        inference += [(heads, 2 * width), shapes[f"site{s}.w_attn"], shapes[f"site{s}.b_attn"]]
        generator += [shapes[f"site{s}.w_base"], shapes[f"site{s}.b_base"]]
    return inference, generator


def _basis(w_base, b_base, embedding, heads: int, width: int) -> np.ndarray:
    """A site's basis rows (heads, 2 * width) from its generator and the embedding."""
    return (w_base @ embedding + b_base).reshape(heads, 2 * width)


class Modulator:
    """A task's modulator, trainable or frozen.

    Trainable, it holds Tensors in `param_layout` order: `sites[s]` is site
    s's (w_base, b_base, w_attn, b_attn), and `embedding` the task embedding.
    Frozen, it holds its inference form: `sites[s]` is site s's (basis,
    w_attn, b_attn), and the embedding is None.  A frozen modulator's
    generator is kept apart, for warm starts, as a function that returns it
    (`generator`): a closure over its arrays once frozen, and a reader of
    the checkpoint's sidecar once loaded or spilled.  Every array of it is
    read-only.  A run that never warm-starts keeps none: its function is None.
    """

    def __init__(self, sites: list[tuple[Tensor, ...]], embedding: Tensor | None, generator=None):
        self.sites = sites
        self.embedding = embedding
        self._generator = generator

    @property
    def frozen(self) -> bool:
        return self.embedding is None

    @property
    def site_widths(self) -> tuple[int, ...]:
        return tuple(site[-2].shape[1] for site in self.sites)

    @classmethod
    def from_arrays(cls, arrays) -> "Modulator":
        """Trainable modulator from arrays in `param_layout` order."""
        params = [Tensor(a, requires_grad=True) for a in arrays]
        w_attns = params[2:-1:4]  # each site's (heads, width)
        heads = w_attns[0].shape[0] if w_attns else 0
        layout = param_layout([w.shape[-1] for w in w_attns], heads, params[-1].shape[0])
        shapes, wanted = [p.shape for p in params], [shape for _, shape in layout]
        if shapes != wanted:
            raise ShapeError(f"modulator parameter shapes {shapes} != {wanted}")
        *site_params, embedding = params
        return cls([tuple(site_params[i : i + 4]) for i in range(0, len(site_params), 4)], embedding)

    @classmethod
    def from_frozen(cls, inference, read_generator) -> "Modulator":
        """Frozen modulator from its inference arrays, in `frozen_layout`
        order; `read_generator()` returns its generator arrays, and is called
        at each `generator()` call, never at construction (None: no generator)."""
        return cls(_frozen_sites(inference), None, read_generator)

    def parameters(self) -> list[Tensor]:
        """The trainable Tensors, in `param_layout` order; none once frozen."""
        if self.frozen:
            return []
        return [t for site in self.sites for t in site] + [self.embedding]

    def generator(self) -> list[np.ndarray]:
        """A frozen modulator's w_base and b_base of each site, in
        `frozen_layout` order.  A modulator built by `from_frozen` or spilled
        reads them at every call and keeps nothing; one that keeps none
        (trainable, or of a run that never warm-starts) raises ContractError."""
        if self._generator is None:
            raise ContractError("this modulator keeps no frozen generator")
        return _read_only(self._generator())

    def spill(self, read_generator) -> None:
        """Drop a frozen modulator's generator from memory: from now on
        `generator()` calls `read_generator()`, which must return the same
        values (as the checkpoint that stores them does), or, if None, raise."""
        self._generator = read_generator

    def freeze(self) -> None:
        """Turn the modulator into its inference form.  Each site's basis is
        computed once, as `modulate` computes it for a trainable modulator;
        the generator is kept, in a closure, and the embedding dropped."""
        e = self.embedding.data
        inference, generator = [], []
        for w_base, b_base, w_attn, b_attn in self.sites:
            inference += [_basis(w_base.data, b_base.data, e, *w_attn.shape), w_attn.data, b_attn.data]
            generator += _read_only([w_base.data, b_base.data])
        self.sites, self.embedding, self._generator = _frozen_sites(inference), None, lambda: generator


def _read_only(arrays: list[np.ndarray]) -> list[np.ndarray]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _frozen_sites(inference) -> list[tuple[Tensor, Tensor, Tensor]]:
    """Each site's (basis, w_attn, b_attn), read-only, from the inference arrays."""
    return [tuple(map(Tensor, _read_only(inference[i : i + 3]))) for i in range(0, len(inference), 3)]


def modulate(site, embedding: Tensor | None, h: Tensor, h_norm: Tensor | None = None) -> Tensor:
    """One modulator site, the formula in the module docstring, as a single
    tape op on activations h (n, width).  `site` is an entry of
    `Modulator.sites` and `embedding` the modulator's embedding; a frozen
    modulator's site holds its basis, and its embedding is None.

    `h_norm`, if given, is `layer_norm(h)` computed ahead of time, for an h
    that is constant and embedded many times; h must then not require a
    gradient.  The arithmetic, and the order in which the backward adds up
    each gradient's terms, are those of the same formula composed from the
    primitive tape ops in `tensor`, so both give the same bits.
    """
    *source, w_attn, b_attn = site  # the basis, or its generator w_base, b_base
    heads, width = w_attn.shape
    if h.data.ndim != 2 or h.data.shape[1] != width:
        raise ShapeError(f"modulate: activations {h.data.shape} do not match width {width}")
    if h_norm is not None and h.requires_grad:
        raise ContractError("modulate: a precomputed norm needs a constant h")
    hd = h.data
    if embedding is None:
        basis = source[0].data
    else:
        w_base, b_base = source
        basis = _basis(w_base.data, b_base.data, embedding.data, heads, width)
    scale_rows, shift_rows = basis[:, :width], basis[:, width:]
    attn = _softmax(hd @ w_attn.data.T + b_attn.data, "modulate")
    if h_norm is None:
        norm, inv = _normalize_rows(hd)
    else:
        norm = h_norm.data
    out = (attn @ scale_rows) * norm
    out += attn @ shift_rows

    # The backward keeps only what it reads (the per-node scale is not one
    # of them: the h branch computes it again, as the forward did) and works
    # in two n x width buffers, so no other n x width array is allocated.
    def bwd(g, accum):
        g_scale = g * norm
        if embedding is not None:
            # each half of a basis row gets one term, added to the zero that
            # the other half's column slice contributes
            g_basis = np.zeros_like(basis)
            g_basis[:, :width] += attn.T @ g_scale
            g_basis[:, width:] += attn.T @ g
            g_flat = g_basis.reshape(heads * 2 * width, 1)
            # the outer product g_flat @ embedding^T as a broadcast multiply,
            # without a k = 1 matmul; adding zero turns -0.0 into +0.0, as
            # that matmul's accumulator does
            g_w = g_flat * embedding.data.T
            g_w += 0.0
            accum(w_base, g_w)
            accum(b_base, g_flat)
            accum(embedding, w_base.data.T @ g_flat)
        g_attn = g @ shift_rows.T
        g_attn += g_scale @ scale_rows.T
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=1, keepdims=True))
        accum(w_attn, (hd.T @ g_scores).T)
        accum(b_attn, g_scores.sum(axis=0, keepdims=True))
        if h.requires_grad:
            # layer_norm's backward, inv * (g' - mean(g') - norm * mean(g' * norm))
            # with g' = g * scale, then the attention term; g_scale is spent,
            # so its buffer takes g_h, and the scale's the other terms
            tmp = attn @ scale_rows
            g_h = np.multiply(g, tmp, out=g_scale)
            g_norm_mean = np.multiply(g_h, norm, out=tmp).mean(axis=1, keepdims=True)
            g_h -= g_h.mean(axis=1, keepdims=True)
            g_h -= np.multiply(norm, g_norm_mean, out=tmp)
            g_h *= inv
            g_h += np.matmul(g_scores, w_attn.data, out=tmp)
            accum(h, g_h)

    inputs = (h, *site) if embedding is None else (h, embedding, *site)
    return _maybe_record(Tensor(out), inputs, bwd)


def init_modulator(
    site_widths,
    rng: np.random.Generator,
    embed_dim: int,
    heads: int,
    dtype=np.float64,
) -> Modulator:
    """Fresh trainable modulator, drawn in `param_layout` order.

    Weights and biases are uniform +-1/sqrt(fan_in) (fan_in = embed_dim for
    the basis generator, site width for the attention); the task embedding is
    N(0, 0.02^2).
    """
    if min(site_widths, default=1) < 1:
        raise ContractError(f"site widths must be >= 1, got {tuple(site_widths)}")
    *site_shapes, (_, e_shape) = param_layout(site_widths, heads, embed_dim)
    bounds = [1.0 / np.sqrt(fan) for w in site_widths for fan in (embed_dim, embed_dim, w, w)]
    arrays = [rng.uniform(-b, b, size=shape).astype(dtype) for b, (_, shape) in zip(bounds, site_shapes)]
    arrays.append(rng.normal(0.0, EMBED_INIT_STD, size=e_shape).astype(dtype))
    return Modulator.from_arrays(arrays)


def clone_structural(src: Modulator, rng: np.random.Generator) -> Modulator:
    """Warm start: copy a frozen modulator's generator and attention weights,
    and draw a fresh embedding as `init_modulator` draws it.

    The copy is trainable; the source stays frozen and untouched.
    """
    if not src.frozen:
        raise ContractError("clone source must be a frozen modulator")
    generator = src.generator()
    arrays = []
    for s, (_, w_attn, b_attn) in enumerate(src.sites):
        arrays += [np.array(a) for a in (*generator[2 * s : 2 * s + 2], w_attn.data, b_attn.data)]
    w_base = generator[0]
    e = rng.normal(0.0, EMBED_INIT_STD, size=(w_base.shape[1], 1)).astype(w_base.dtype)
    return Modulator.from_arrays(arrays + [e])
