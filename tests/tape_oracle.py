"""Tape helpers that only the tests use.

`sum_all` reduces a tensor to a scalar loss.  `composed_modulate` is one
modulator site built from the primitive tape ops, in the order the model
used before the site became one fused op; `modulator.modulate` must give the
same bits, forward and backward.
"""

import numpy as np

from taam.tensor import (
    Tensor,
    _maybe_record,
    add,
    layer_norm,
    matmul,
    mul,
    reshape,
    slice_cols,
    softmax_rows,
    transpose,
)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum()))

    def bwd(g, accum):
        accum(a, np.full_like(a.data, float(g)))

    return _maybe_record(out, (a,), bwd)


def composed_modulate(site, embedding, h):
    w_base, b_base, w_attn, b_attn = site
    heads, width = w_attn.shape
    basis = reshape(add(matmul(w_base, embedding), b_base), (heads, 2 * width))
    attn = softmax_rows(add(matmul(h, transpose(w_attn)), b_attn))
    scale = matmul(attn, slice_cols(basis, 0, width))
    shift = matmul(attn, slice_cols(basis, width, 2 * width))
    return add(mul(scale, layer_norm(h)), shift)
