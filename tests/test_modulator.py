"""Per-task modulator: forward oracle, convexity, init and freeze contracts,
and the fused site op against its primitive composition.

The forward path is re-derived here with plain numpy (no tape, no shared
helpers) so the packaged implementation is checked against an independent
transcription, not against itself.  The fused op `modulate` is also checked
bit for bit against the same site composed from primitive tape ops
(`tape_oracle.composed_modulate`), forward and backward; that check
compares two code paths on one machine, so it holds on any BLAS build.
"""

import numpy as np
import pytest

from taam.errors import ContractError, NumericError, ShapeError
from taam.modulator import (
    EMBED_INIT_STD,
    Modulator,
    clone_structural,
    frozen_layout,
    init_modulator,
    modulate,
    param_layout,
)
from taam.rng import rng_for
from taam.tensor import Tape, Tensor, grad_check, layer_norm, mul

from tape_oracle import composed_modulate, sum_all


def fresh(width=6, embed_dim=5, heads=3, seed=0):
    return init_modulator([width], rng_for(seed, "t"), embed_dim=embed_dim, heads=heads)


def softmax_np(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def modulate_oracle(site, e, h, eps=1e-5):
    w_base, b_base, w_attn, b_attn = (t.data for t in site)
    heads, w = w_attn.shape
    basis = (w_base @ e + b_base).reshape(heads, 2 * w)
    attn = softmax_np(h @ w_attn.T + b_attn)
    mu = h.mean(axis=1, keepdims=True)
    var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
    ln = (h - mu) / np.sqrt(var + eps)
    return (attn @ basis[:, :w]) * ln + attn @ basis[:, w:]


@pytest.mark.parametrize("seed", range(5))
def test_modulate_matches_straight_line_oracle(seed):
    mod = fresh(seed=seed)
    site = mod.sites[0]
    h = np.random.default_rng(seed).normal(size=(7, 6)) * 2.0
    got = modulate(site, mod.embedding, Tensor(h)).data
    want = modulate_oracle(site, mod.embedding.data, h)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_attention_rows_on_simplex():
    # head k's shift row is the unit vector e_k and every scale row is zero,
    # so the first `heads` output columns are the attention weights themselves
    mod = fresh(seed=3)
    site = mod.sites[0]
    w_base, b_base, _, _ = site
    rows = np.zeros((3, 2 * 6))
    rows[:, 6:9] = np.eye(3)
    w_base.data[:] = 0.0
    b_base.data[:] = rows.reshape(-1, 1)
    h = np.random.default_rng(1).normal(size=(9, 6)) * 10
    attn = modulate(site, mod.embedding, Tensor(h), Tensor(np.zeros((9, 6)))).data[:, :3]
    assert attn.shape == (9, 3)
    assert np.all(attn >= 0)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)


def test_coefficients_stay_in_basis_hull():
    # per-node scale/shift are convex mixtures of the basis rows; a norm of
    # zeros exposes the shift, a norm of ones scale + shift, so their
    # difference is the scale
    mod = fresh(seed=4)
    site = mod.sites[0]
    w_base, b_base, _, _ = site
    h = np.random.default_rng(2).normal(size=(20, 6)) * 5
    basis = (w_base.data @ mod.embedding.data + b_base.data).reshape(3, 2 * 6)
    out0, out1 = (
        modulate(site, mod.embedding, Tensor(h), Tensor(np.full(h.shape, fill))).data for fill in (0.0, 1.0)
    )
    coeffs = np.hstack([out1 - out0, out0])
    lo, hi = basis.min(axis=0), basis.max(axis=0)
    assert np.all(coeffs >= lo - 1e-9)
    assert np.all(coeffs <= hi + 1e-9)


def identity_site(width, heads=3):
    # zero basis generator, bias pinned to scale 1 / shift 0 for every head
    row = np.concatenate([np.ones(width), np.zeros(width)])
    return Modulator.from_arrays([
        np.zeros((heads * 2 * width, 5)),
        np.tile(row, heads).reshape(-1, 1),
        np.random.default_rng(0).normal(size=(heads, width)),
        np.zeros((1, heads)),
        np.zeros((5, 1)),
    ]).sites[0]


def test_unit_scale_zero_shift_reduces_to_norm():
    site = identity_site(4)
    e = Tensor(np.zeros((5, 1)))
    h = np.random.default_rng(5).normal(size=(6, 4))
    got = modulate(site, e, Tensor(h)).data
    mu = h.mean(axis=1, keepdims=True)
    var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
    assert np.allclose(got, (h - mu) / np.sqrt(var + 1e-5), rtol=1e-13)


def test_width_one_normalizes_to_zero_so_shift_wins():
    # a single feature per row: the row is its own mean, norm outputs zeros,
    # and the site reduces to its per-node shift
    mod = fresh(width=1, seed=7)
    site = mod.sites[0]
    w_base, b_base, w_attn, b_attn = (t.data for t in site)
    h = np.random.default_rng(3).normal(size=(5, 1))
    got = modulate(site, mod.embedding, Tensor(h)).data
    basis = (w_base @ mod.embedding.data + b_base).reshape(3, 2)
    attn = softmax_np(h @ w_attn.T + b_attn)
    assert np.allclose(got, attn @ basis[:, 1:], rtol=1e-12)


def test_permutation_equivariance():
    mod = fresh(seed=8)
    site = mod.sites[0]
    h = np.random.default_rng(4).normal(size=(10, 6))
    perm = np.random.default_rng(5).permutation(10)
    out = modulate(site, mod.embedding, Tensor(h)).data
    out_perm = modulate(site, mod.embedding, Tensor(h[perm])).data
    assert np.allclose(out[perm], out_perm, rtol=1e-13, atol=1e-13)


def test_modulate_width_mismatch():
    mod = fresh(width=6)
    with pytest.raises(ShapeError):
        modulate(mod.sites[0], mod.embedding, Tensor(np.zeros((3, 5))))


def test_init_shapes_bounds_and_determinism():
    mod = init_modulator([7, 4], rng_for(11, "x"), embed_dim=6, heads=2)
    assert mod.site_widths == (7, 4)
    assert mod.embedding.shape == (6, 1)
    be, (w_base, b_base, w_attn, _) = 1.0 / np.sqrt(6), mod.sites[0]
    assert w_base.shape == (2 * 2 * 7, 6)
    assert np.abs(w_base.data).max() <= be
    assert np.abs(b_base.data).max() <= be
    assert np.abs(w_attn.data).max() <= 1.0 / np.sqrt(7)
    again = init_modulator([7, 4], rng_for(11, "x"), embed_dim=6, heads=2)
    for a, b in zip(mod.parameters(), again.parameters()):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(ContractError):
        init_modulator([0], rng_for(0, "x"), embed_dim=4, heads=2)


def test_embedding_init_scale():
    draws = [fresh(seed=s).embedding.data.std() for s in range(10)]
    assert abs(float(np.mean(draws)) - EMBED_INIT_STD) < 0.01


def test_parameters_order_and_dtype():
    mod = init_modulator([3, 2], rng_for(0, "y"), embed_dim=4, heads=2, dtype=np.float32)
    params = mod.parameters()
    s0, s1 = mod.sites
    assert params == [*s0, *s1, mod.embedding]
    assert [p.shape for p in params] == [shape for _, shape in param_layout([3, 2], 2, 4)]
    assert all(p.dtype == np.float32 for p in params)


def test_freeze_locks_everything():
    mod = fresh()
    (w_base, b_base, w_attn, b_attn), e = mod.sites[0], mod.embedding.data
    mod.freeze()
    assert mod.frozen and mod.embedding is None and mod.parameters() == []
    basis, attn_w, attn_b = mod.sites[0]
    assert attn_w is not w_attn and attn_w.data is w_attn.data and attn_b.data is b_attn.data
    assert basis.data.tobytes() == (w_base.data @ e + b_base.data).reshape(3, 12).tobytes()
    assert [a is b for a, b in zip(mod.generator(), (w_base.data, b_base.data))] == [True, True]
    for a in [t.data for t in mod.sites[0]] + mod.generator():
        with pytest.raises(ValueError):
            a[0] = 0.0
    for t in mod.sites[0]:
        assert not t.requires_grad
    # frozen weights record nothing on a tape
    h = Tensor(np.ones((2, 6)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(modulate(mod.sites[0], mod.embedding, h))
    tape.backward(loss)
    assert all(t.grad is None for t in mod.sites[0]) and h.grad is not None


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_frozen_site_gives_the_trainable_bits(dtype):
    # the stored basis is the one each trainable forward computes
    mod = init_modulator([40, 256], rng_for(3, "t"), embed_dim=64, heads=3, dtype=dtype)
    rng = np.random.default_rng(3)
    hs = [Tensor(rng.normal(size=(30, w)).astype(dtype)) for w in (40, 256)]
    before = [modulate(site, mod.embedding, h).data for site, h in zip(mod.sites, hs)]
    mod.freeze()
    after = [modulate(site, mod.embedding, h).data for site, h in zip(mod.sites, hs)]
    for a, b in zip(before, after):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()


def test_frozen_layout_is_the_frozen_modulator():
    mod = init_modulator([3, 2], rng_for(0, "z"), embed_dim=4, heads=2)
    mod.freeze()
    inference, generator = frozen_layout([3, 2], 2, 4)
    assert [t.shape for site in mod.sites for t in site] == inference
    assert [a.shape for a in mod.generator()] == generator


def test_from_frozen_reads_the_generator_at_every_call_and_keeps_none():
    src = fresh(seed=4)
    src.freeze()
    reads = []
    arrays = [t.data.copy() for site in src.sites for t in site]
    loaded = Modulator.from_frozen(arrays, lambda: reads.append(1) or [a.copy() for a in src.generator()])
    assert loaded.frozen and reads == []
    assert all(not a.flags.writeable for a in arrays)
    clone = clone_structural(loaded, rng_for(1, "c"))
    assert reads == [1]
    first, second = loaded.generator(), loaded.generator()
    assert reads == [1, 1, 1] and all(a is not b for a, b in zip(first, second))
    assert all(not a.flags.writeable for a in first)
    want = clone_structural(src, rng_for(1, "c"))
    for a, b in zip(clone.parameters(), want.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_spill_swaps_the_generator_for_its_reader():
    mod = fresh(seed=5)
    mod.freeze()
    kept = mod.generator()
    copies = [a.copy() for a in kept]
    mod.spill(lambda: [a.copy() for a in copies])
    read = mod.generator()
    assert all(a is not b and a.tobytes() == b.tobytes() for a, b in zip(read, kept))
    assert all(not a.flags.writeable for a in read)


def test_gradients_reach_every_parameter():
    mod = fresh(seed=9)
    h = Tensor(np.random.default_rng(6).normal(size=(5, 6)))
    with Tape() as tape:
        loss = sum_all(modulate(mod.sites[0], mod.embedding, h))
    tape.backward(loss)
    for p in mod.parameters():
        assert p.grad is not None
        assert np.isfinite(p.grad).all()
        assert np.abs(p.grad).max() > 0


def test_clone_requires_frozen_source():
    mod = fresh()
    with pytest.raises(ContractError, match="frozen"):
        clone_structural(mod, rng_for(1, "c"))


def test_clone_copies_sites_redraws_embedding():
    src = fresh(seed=12)
    trained = [t.data.copy() for t in src.parameters()]
    src.freeze()
    clone = clone_structural(src, rng_for(1, "c"))
    assert not clone.frozen
    for a, b in zip(clone.sites[0], trained):
        assert np.array_equal(a.data, b)
        assert a.requires_grad
    # the embedding is drawn as init_modulator draws it: same shape, dtype and scale
    redraw = rng_for(1, "c").normal(0.0, EMBED_INIT_STD, size=(5, 1))
    assert np.array_equal(clone.embedding.data, redraw)
    assert not np.array_equal(clone.embedding.data, trained[-1])
    # mutating the clone must not leak into the frozen source
    before = src.generator()[0].copy()
    clone.sites[0][0].data[0, 0] += 1.0
    assert np.array_equal(src.generator()[0], before)


def test_site_params_shape_checks():
    e = np.zeros((4, 1))
    with pytest.raises(ShapeError):
        Modulator.from_arrays([np.zeros((5, 4)), np.zeros((12, 1)), np.zeros((3, 2)), np.zeros((1, 3)), e])
    with pytest.raises(ShapeError):
        Modulator.from_arrays([np.zeros((12, 4)), np.zeros((11, 1)), np.zeros((3, 2)), np.zeros((1, 3)), e])
    with pytest.raises(ShapeError):
        Modulator.from_arrays([np.zeros((12, 4)), np.zeros((12, 1)), np.zeros((3, 2)), np.zeros((3, 1)), e])
    with pytest.raises(ShapeError):
        Modulator.from_arrays([np.zeros((4,))])


# ------------------------------------------ fused op vs primitive composition

# (train nodes per task, site-1 width) of the three benchmark workloads:
# sbm-small-f64, sbm-large-f32 and sbm-long-stream; site 2 is hidden 256.
WORKLOAD_SHAPES = {"small": (72, 32), "large": (1200, 128), "long": (120, 40)}


def site_inputs(n, width, dtype, seed, trainable_h, embed_dim=64, heads=3):
    """A fresh site, its embedding, activations h and an upstream gradient.

    The gradient's first column is zero, so some basis gradients are exact
    zeros: their products with negative embedding entries test signed zeros.
    """
    mod = init_modulator([width], rng_for(seed, "fused"), embed_dim=embed_dim, heads=heads, dtype=dtype)
    rng = np.random.default_rng(seed)
    h = Tensor(rng.normal(size=(n, width)).astype(dtype), requires_grad=trainable_h)
    upstream = Tensor(rng.normal(size=(n, width)).astype(dtype))
    upstream.data[:, 0] = 0.0
    return mod, h, upstream


def forward_and_grads(site_op, mod, h, upstream, **kw):
    """Output and every gradient (parameters, then h) after one backward."""
    with Tape() as tape:
        out = site_op(mod.sites[0], mod.embedding, h, **kw)
        loss = sum_all(mul(out, upstream))
    tape.backward(loss)
    grads = [p.grad for p in mod.parameters()] + [h.grad]
    for p in mod.parameters() + [h]:
        p.grad = None
    return out.data, grads


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("path", ["site1_precomputed_norm", "site2_trainable_h"])
def test_fused_site_matches_composition_bitwise(workload, dtype, path):
    n, in_dim = WORKLOAD_SHAPES[workload]
    site2 = path == "site2_trainable_h"
    mod, h, upstream = site_inputs(n, 256 if site2 else in_dim, dtype, 11, trainable_h=site2)
    kw = {} if site2 else {"h_norm": layer_norm(h)}
    want_out, want_grads = forward_and_grads(composed_modulate, mod, h, upstream)
    got_out, got_grads = forward_and_grads(modulate, mod, h, upstream, **kw)
    assert same_bits(got_out, want_out)
    assert len(got_grads) == 6
    for got, want in zip(got_grads[:5], want_grads[:5]):
        assert same_bits(got, want)
    if site2:
        assert same_bits(got_grads[5], want_grads[5])
    else:
        assert got_grads[5] is None and want_grads[5] is None


@pytest.mark.parametrize("path", ["site1_precomputed_norm", "site2_trainable_h"])
def test_fused_site_gradcheck(path):
    site2 = path == "site2_trainable_h"
    mod, h, upstream = site_inputs(6, 5, np.float64, 13, trainable_h=site2, embed_dim=4)
    # magnitudes in [0.5, 1.5] keep every basis-weight gradient, an outer
    # product with the embedding, above the difference-quotient noise floor
    e_rng = np.random.default_rng(14)
    signs = np.where(e_rng.random(mod.embedding.shape) < 0.5, -1.0, 1.0)
    mod.embedding.data[:] = signs * e_rng.uniform(0.5, 1.5, size=mod.embedding.shape)
    kw = {} if site2 else {"h_norm": layer_norm(h)}
    params = mod.parameters() + ([h] if site2 else [])

    def loss():
        return sum_all(mul(modulate(mod.sites[0], mod.embedding, h, **kw), upstream))

    assert grad_check(loss, params) <= 1e-4


@pytest.mark.parametrize("path", ["site1_precomputed_norm", "site2_trainable_h"])
def test_fused_site_keeps_f32(path):
    site2 = path == "site2_trainable_h"
    mod, h, upstream = site_inputs(7, 6, np.float32, 15, trainable_h=site2, embed_dim=5)
    kw = {} if site2 else {"h_norm": layer_norm(h)}
    out, grads = forward_and_grads(modulate, mod, h, upstream, **kw)
    assert out.dtype == np.float32
    for g in grads[: 6 if site2 else 5]:
        assert g.dtype == np.float32


def test_precomputed_norm_needs_constant_h():
    mod, h, _ = site_inputs(4, 5, np.float64, 16, trainable_h=True, embed_dim=4)
    with pytest.raises(ContractError, match="constant h"):
        modulate(mod.sites[0], mod.embedding, h, h_norm=layer_norm(Tensor(h.data)))


def test_non_finite_activation_is_numeric_error():
    mod, h, _ = site_inputs(4, 5, np.float64, 17, trainable_h=False, embed_dim=4)
    h.data[2, 1] = np.nan
    with pytest.raises(NumericError, match="row 2"):
        modulate(mod.sites[0], mod.embedding, h)
