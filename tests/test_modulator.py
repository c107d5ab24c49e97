"""Per-task modulator: forward oracle, convexity, init and freeze contracts.

The forward path is re-derived here with plain numpy (no tape, no shared
helpers) so the packaged implementation is checked against an independent
transcription, not against itself.
"""

import numpy as np
import pytest

from taam.errors import ContractError, ShapeError
from taam.modulator import (
    EMBED_INIT_STD,
    Modulator,
    SiteParams,
    base_heads,
    clone_structural,
    init_modulator,
    modulate,
    node_attention,
)
from taam.rng import rng_for
from taam.tensor import Tape, Tensor, sum_all


def fresh(width=6, embed_dim=5, heads=3, seed=0):
    return init_modulator([width], rng_for(seed, "t"), embed_dim=embed_dim, heads=heads)


def softmax_np(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def modulate_oracle(site, e, h, eps=1e-5):
    w = site.width
    basis = (site.w_base.data @ e + site.b_base.data).reshape(site.heads, 2 * w)
    attn = softmax_np(h @ site.w_attn.data.T + site.b_attn.data)
    mu = h.mean(axis=1, keepdims=True)
    var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
    ln = (h - mu) / np.sqrt(var + eps)
    return (attn @ basis[:, :w]) * ln + attn @ basis[:, w:]


@pytest.mark.parametrize("seed", range(5))
def test_modulate_matches_straight_line_oracle(seed):
    mod = fresh(seed=seed)
    site = mod.sites[0]
    h = np.random.default_rng(seed).normal(size=(7, site.width)) * 2.0
    got = modulate(site, mod.embedding, Tensor(h)).data
    want = modulate_oracle(site, mod.embedding.data, h)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_attention_rows_on_simplex():
    mod = fresh(seed=3)
    h = np.random.default_rng(1).normal(size=(9, 6)) * 10
    attn = node_attention(mod.sites[0], Tensor(h)).data
    assert attn.shape == (9, 3)
    assert np.all(attn >= 0)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)


def test_coefficients_stay_in_basis_hull():
    # per-node scale/shift are convex mixtures of the basis rows
    mod = fresh(seed=4)
    site = mod.sites[0]
    h = np.random.default_rng(2).normal(size=(20, site.width)) * 5
    basis = base_heads(site, mod.embedding).data
    attn = node_attention(site, Tensor(h)).data
    coeffs = attn @ basis
    lo, hi = basis.min(axis=0), basis.max(axis=0)
    assert np.all(coeffs >= lo - 1e-9)
    assert np.all(coeffs <= hi + 1e-9)


def identity_site(width, heads=3):
    # zero basis generator, bias pinned to scale 1 / shift 0 for every head
    row = np.concatenate([np.ones(width), np.zeros(width)])
    return SiteParams(
        Tensor(np.zeros((heads * 2 * width, 5)), requires_grad=True),
        Tensor(np.tile(row, heads).reshape(-1, 1), requires_grad=True),
        Tensor(np.random.default_rng(0).normal(size=(heads, width)), requires_grad=True),
        Tensor(np.zeros((1, heads)), requires_grad=True),
    )


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
    h = np.random.default_rng(3).normal(size=(5, 1))
    got = modulate(site, mod.embedding, Tensor(h)).data
    basis = (site.w_base.data @ mod.embedding.data + site.b_base.data).reshape(3, 2)
    attn = softmax_np(h @ site.w_attn.data.T + site.b_attn.data)
    assert np.allclose(got, attn @ basis[:, 1:], rtol=1e-12)


def test_permutation_equivariance():
    mod = fresh(seed=8)
    site = mod.sites[0]
    h = np.random.default_rng(4).normal(size=(10, site.width))
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
    be, s1 = 1.0 / np.sqrt(6), mod.sites[0]
    assert s1.w_base.shape == (2 * 2 * 7, 6)
    assert np.abs(s1.w_base.data).max() <= be
    assert np.abs(s1.b_base.data).max() <= be
    assert np.abs(s1.w_attn.data).max() <= 1.0 / np.sqrt(7)
    again = init_modulator([7, 4], rng_for(11, "x"), embed_dim=6, heads=2)
    for a, b in zip(mod.parameters(), again.parameters()):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(ContractError):
        init_modulator([0], rng_for(0, "x"))


def test_embedding_init_scale():
    draws = [fresh(seed=s).embedding.data.std() for s in range(10)]
    assert abs(float(np.mean(draws)) - EMBED_INIT_STD) < 0.01


def test_parameters_order_and_dtype():
    mod = init_modulator([3, 2], rng_for(0, "y"), embed_dim=4, heads=2, dtype=np.float32)
    params = mod.parameters()
    s0, s1 = mod.sites
    assert params == [s0.w_base, s0.b_base, s0.w_attn, s0.b_attn,
                      s1.w_base, s1.b_base, s1.w_attn, s1.b_attn, mod.embedding]
    assert all(p.dtype == np.float32 for p in params)


def test_freeze_locks_everything():
    mod = fresh()
    mod.freeze()
    assert mod.frozen
    for p in mod.parameters():
        assert not p.requires_grad and p.grad is None
        with pytest.raises(ValueError):
            p.data[0] = 0.0
    # frozen params record nothing on a tape
    h = Tensor(np.ones((2, 6)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(modulate(mod.sites[0], mod.embedding, h))
    tape.backward(loss)
    assert mod.sites[0].w_base.grad is None and h.grad is not None


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
    src.freeze()
    clone = clone_structural(src, rng_for(1, "c"))
    assert not clone.frozen
    for a, b in zip(clone.sites[0].tensors(), src.sites[0].tensors()):
        assert np.array_equal(a.data, b.data)
        assert a.requires_grad
    assert not np.array_equal(clone.embedding.data, src.embedding.data)
    # mutating the clone must not leak into the frozen source
    before = src.sites[0].w_base.data.copy()
    clone.sites[0].w_base.data[0, 0] += 1.0
    assert np.array_equal(src.sites[0].w_base.data, before)


def test_site_params_shape_checks():
    with pytest.raises(ShapeError):
        SiteParams(np.zeros((5, 4)), np.zeros((12, 1)), np.zeros((3, 2)), np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        SiteParams(np.zeros((12, 4)), np.zeros((11, 1)), np.zeros((3, 2)), np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        SiteParams(np.zeros((12, 4)), np.zeros((12, 1)), np.zeros((3, 2)), np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        Modulator(Tensor(np.zeros((4,))), [])
