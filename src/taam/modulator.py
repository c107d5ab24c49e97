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


class SiteParams:
    """Trainable parameters of one insertion site."""

    def __init__(self, w_base, b_base, w_attn, b_attn):
        self.w_base = w_base if isinstance(w_base, Tensor) else Tensor(w_base, requires_grad=True)
        self.b_base = b_base if isinstance(b_base, Tensor) else Tensor(b_base, requires_grad=True)
        self.w_attn = w_attn if isinstance(w_attn, Tensor) else Tensor(w_attn, requires_grad=True)
        self.b_attn = b_attn if isinstance(b_attn, Tensor) else Tensor(b_attn, requires_grad=True)
        heads, width = self.w_attn.shape
        if self.w_base.shape[0] != heads * 2 * width:
            raise ShapeError(
                f"w_base rows {self.w_base.shape[0]} != heads*2*width = {heads * 2 * width}"
            )
        if self.b_base.shape != (heads * 2 * width, 1):
            raise ShapeError(f"b_base shape {self.b_base.shape} != ({heads * 2 * width}, 1)")
        if self.b_attn.shape != (1, heads):
            raise ShapeError(f"b_attn shape {self.b_attn.shape} != (1, {heads})")
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
    def embed_dim(self) -> int:
        return int(self.embedding.shape[0])

    @property
    def site_widths(self) -> tuple[int, ...]:
        return tuple(s.width for s in self.sites)

    def parameters(self) -> list[Tensor]:
        """All tensors, in checkpoint order: per-site params, then embedding."""
        out: list[Tensor] = []
        for s in self.sites:
            out.extend(s.tensors())
        out.append(self.embedding)
        return out

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
    """Fresh trainable modulator.

    Weights and biases are uniform +-1/sqrt(fan_in) (fan_in = embed_dim for
    the basis generator, site width for the attention); the task embedding is
    N(0, 0.02^2).  Draw order is fixed: per site w_base, b_base, w_attn,
    b_attn, then the embedding.
    """
    sites = []
    for width in site_widths:
        if width < 1:
            raise ContractError(f"site width must be >= 1, got {width}")
        be = 1.0 / np.sqrt(embed_dim)
        ba = 1.0 / np.sqrt(width)
        w_base = rng.uniform(-be, be, size=(heads * 2 * width, embed_dim)).astype(dtype)
        b_base = rng.uniform(-be, be, size=(heads * 2 * width, 1)).astype(dtype)
        w_attn = rng.uniform(-ba, ba, size=(heads, width)).astype(dtype)
        b_attn = rng.uniform(-ba, ba, size=(1, heads)).astype(dtype)
        sites.append(
            SiteParams(
                Tensor(w_base, requires_grad=True),
                Tensor(b_base, requires_grad=True),
                Tensor(w_attn, requires_grad=True),
                Tensor(b_attn, requires_grad=True),
            )
        )
    e = rng.normal(0.0, EMBED_INIT_STD, size=(embed_dim, 1)).astype(dtype)
    return Modulator(Tensor(e, requires_grad=True), sites)


def clone_structural(src: Modulator, rng: np.random.Generator) -> Modulator:
    """Warm start: copy a frozen modulator's site parameters, redraw the embedding.

    The copy is trainable; the source stays frozen and untouched.
    """
    if not src.frozen:
        raise ContractError("clone source must be a frozen modulator")
    sites = []
    for s in src.sites:
        sites.append(
            SiteParams(
                Tensor(np.array(s.w_base.data), requires_grad=True),
                Tensor(np.array(s.b_base.data), requires_grad=True),
                Tensor(np.array(s.w_attn.data), requires_grad=True),
                Tensor(np.array(s.b_attn.data), requires_grad=True),
            )
        )
    dtype = src.embedding.data.dtype
    e = rng.normal(0.0, EMBED_INIT_STD, size=(src.embed_dim, 1)).astype(dtype)
    return Modulator(Tensor(e, requires_grad=True), sites)
