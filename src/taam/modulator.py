"""Per-task modulators that steer a frozen backbone.

A modulator owns a task embedding plus, per insertion site, a small
parameter set that turns node activations into per-node scale and shift:

    basis   = reshape(W_base @ e + b_base)      -> (heads, 2 * width)
    attn    = softmax(H @ W_attn^T + b_attn)    -> (n, heads), rows on the simplex
    [g | b] = attn @ basis                      -> per-node scale and shift
    out     = g * layernorm(H) + b

Each basis row holds the scale part in its first `width` entries and the
shift part in the last `width`.  Per-node coefficients are convex mixtures
of the basis rows, so they live in the basis rows' convex hull.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import (
    Tensor,
    add,
    layer_norm,
    matmul,
    mul,
    reshape,
    slice_cols,
    softmax_rows,
    transpose,
)

EMBED_DIM = 64
NUM_HEADS = 3
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


class SiteParams:
    """Trainable parameters of one insertion site."""

    def __init__(self, w_base, b_base, w_attn, b_attn):
        self.w_base, self.b_base, self.w_attn, self.b_attn = (
            t if isinstance(t, Tensor) else Tensor(t, requires_grad=True)
            for t in (w_base, b_base, w_attn, b_attn)
        )
        heads, width = self.w_attn.shape
        shapes = [t.shape for t in self.tensors()]
        wanted = [shape for _, shape in param_layout([width], heads, self.w_base.shape[-1])[:4]]
        if shapes != wanted:
            raise ShapeError(f"site parameter shapes {shapes} != {wanted} for {heads} heads of width {width}")
        self.width = int(width)
        self.heads = int(heads)

    def tensors(self) -> list[Tensor]:
        return [self.w_base, self.b_base, self.w_attn, self.b_attn]


class Modulator:
    """Task embedding + one SiteParams per insertion site."""

    def __init__(self, embedding: Tensor, sites: list[SiteParams]):
        if embedding.data.ndim != 2 or embedding.data.shape[1] != 1:
            raise ShapeError(f"embedding must be (embed_dim, 1), got {embedding.data.shape}")
        self.embedding = embedding
        self.sites = sites
        self.frozen = False

    @property
    def site_widths(self) -> tuple[int, ...]:
        return tuple(s.width for s in self.sites)

    @classmethod
    def from_arrays(cls, arrays) -> "Modulator":
        """Trainable modulator from arrays in `param_layout` order."""
        *site_arrays, embedding = arrays
        sites = [SiteParams(*site_arrays[i : i + 4]) for i in range(0, len(site_arrays), 4)]
        return cls(Tensor(embedding, requires_grad=True), sites)

    def parameters(self) -> list[Tensor]:
        """All tensors, in `param_layout` order."""
        return [t for s in self.sites for t in s.tensors()] + [self.embedding]

    def freeze(self) -> None:
        """Make every parameter non-trainable and its buffer read-only."""
        for t in self.parameters():
            t.requires_grad = False
            t.grad = None
            t.data.setflags(write=False)
        self.frozen = True


def base_heads(site: SiteParams, embedding: Tensor) -> Tensor:
    """Basis rows for one site: (heads, 2 * width), scale part first."""
    flat = add(matmul(site.w_base, embedding), site.b_base)
    return reshape(flat, (site.heads, 2 * site.width))


def node_attention(site: SiteParams, h: Tensor) -> Tensor:
    """Per-node mixture weights over the basis rows: (n, heads) simplex rows."""
    scores = add(matmul(h, transpose(site.w_attn)), site.b_attn)
    return softmax_rows(scores)


def modulate(site: SiteParams, embedding: Tensor, h: Tensor) -> Tensor:
    """Scale-and-shift the layer-normalized activations with per-node coefficients."""
    if h.data.ndim != 2 or h.data.shape[1] != site.width:
        raise ShapeError(f"activations shape {h.data.shape} does not match site width {site.width}")
    basis = base_heads(site, embedding)
    attn = node_attention(site, h)
    scale = matmul(attn, slice_cols(basis, 0, site.width))
    shift = matmul(attn, slice_cols(basis, site.width, 2 * site.width))
    return add(mul(scale, layer_norm(h)), shift)


def init_modulator(
    site_widths,
    rng: np.random.Generator,
    embed_dim: int = EMBED_DIM,
    heads: int = NUM_HEADS,
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
