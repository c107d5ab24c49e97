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
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, _maybe_record, _normalize_rows, _softmax

EMBED_INIT_STD = 0.02


def param_layout(site_widths, heads: int, embed_dim: int) -> list[tuple[str, tuple[int, int]]]:
    """Every parameter's name and shape: per site w_base, b_base, w_attn,
    b_attn, then the embedding.  This one order is `Modulator.parameters()`,
    the draw order of `init_modulator` and the checkpoint's payload order."""
    layout = []
    for s, width in enumerate(site_widths):
        layout += [
            (f"site{s}.w_base", (heads * 2 * width, embed_dim)),
            (f"site{s}.b_base", (heads * 2 * width, 1)),
            (f"site{s}.w_attn", (heads, width)),
            (f"site{s}.b_attn", (1, heads)),
        ]
    return layout + [("embedding", (embed_dim, 1))]


class Modulator:
    """A task embedding and, per insertion site, four parameters: Tensors in
    `param_layout` order, so `sites[s]` is site s's (w_base, b_base, w_attn,
    b_attn)."""

    def __init__(self, params: list[Tensor]):
        self._params = params
        *site_params, self.embedding = params
        self.sites = [tuple(site_params[i : i + 4]) for i in range(0, len(site_params), 4)]
        self.frozen = False

    @property
    def site_widths(self) -> tuple[int, ...]:
        return tuple(w_attn.shape[1] for _, _, w_attn, _ in self.sites)

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
        return cls(params)

    def parameters(self) -> list[Tensor]:
        """All tensors, in `param_layout` order."""
        return list(self._params)

    def freeze(self) -> None:
        """Make every parameter non-trainable and its buffer read-only."""
        for t in self._params:
            t.requires_grad = False
            t.grad = None
            t.data.setflags(write=False)
        self.frozen = True


def modulate(site, embedding: Tensor, h: Tensor, h_norm: Tensor | None = None) -> Tensor:
    """One modulator site, the formula in the module docstring, as a single
    tape op on activations h (n, width).  `site` is the site's four Tensors,
    an entry of `Modulator.sites`.

    `h_norm`, if given, is `layer_norm(h)` computed ahead of time, for an h
    that is constant and embedded many times; h must then not require a
    gradient.  The arithmetic, and the order in which the backward adds up
    each gradient's terms, are those of the same formula composed from the
    primitive tape ops in `tensor`, so both give the same bits.
    """
    w_base, b_base, w_attn, b_attn = site
    heads, width = w_attn.shape
    if h.data.ndim != 2 or h.data.shape[1] != width:
        raise ShapeError(f"modulate: activations {h.data.shape} do not match width {width}")
    if h_norm is not None and h.requires_grad:
        raise ContractError("modulate: a precomputed norm needs a constant h")
    hd = h.data
    basis = (w_base.data @ embedding.data + b_base.data).reshape(heads, 2 * width)
    scale_rows, shift_rows = basis[:, :width], basis[:, width:]
    attn = _softmax(hd @ w_attn.data.T + b_attn.data, "modulate")
    scale = attn @ scale_rows
    if h_norm is None:
        norm, inv = _normalize_rows(hd)
    else:
        norm = h_norm.data
    out = scale * norm
    out += attn @ shift_rows

    # The backward works in place where it can: every n x width temporary
    # it does not allocate saves a pass over fresh memory.
    def bwd(g, accum):
        g_scale = g * norm
        # each half of a basis row gets one term, added to the zero that the
        # other half's column slice contributes
        g_basis = np.zeros_like(basis)
        g_basis[:, :width] += attn.T @ g_scale
        g_basis[:, width:] += attn.T @ g
        g_flat = g_basis.reshape(heads * 2 * width, 1)
        # the outer product g_flat @ embedding^T as a broadcast multiply,
        # without a k = 1 matmul; adding zero turns -0.0 into +0.0, as that
        # matmul's accumulator does
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
            # with g' = g * scale, then the attention term
            g_h = g * scale
            g_norm_mean = (g_h * norm).mean(axis=1, keepdims=True)
            g_h -= g_h.mean(axis=1, keepdims=True)
            g_h -= norm * g_norm_mean
            g_h *= inv
            g_h += g_scores @ w_attn.data
            accum(h, g_h)

    return _maybe_record(Tensor(out), (h, embedding, w_base, b_base, w_attn, b_attn), bwd)


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
    """Warm start: copy a frozen modulator's site parameters, redraw the embedding.

    The copy is trainable; the source stays frozen and untouched.
    """
    if not src.frozen:
        raise ContractError("clone source must be a frozen modulator")
    *site_params, embedding = src.parameters()
    e = rng.normal(0.0, EMBED_INIT_STD, size=embedding.shape).astype(embedding.dtype)
    return Modulator.from_arrays([np.array(p.data) for p in site_params] + [e])
