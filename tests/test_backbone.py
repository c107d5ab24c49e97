"""Frozen backbone: immutability, wiring of the two insertion sites."""

import numpy as np
import pytest

from taam import backbone, modulator
from taam.backbone import init_backbone
from taam.errors import ContractError
from taam.modulator import Modulator, init_modulator
from taam.rng import rng_for
from taam.tensor import Tape, Tensor, layer_norm, matmul

from tape_oracle import composed_modulate, sum_all


def small_backbone(in_dim=5, hidden=4, seed=0):
    return init_backbone(in_dim, hidden, rng_for(seed, "bb"))


def test_init_bounds_dtype_determinism():
    bb = small_backbone()
    assert bb.w1.shape == (5, 4) and bb.w2.shape == (4, 4)
    assert np.abs(bb.w1).max() <= 1.0 / np.sqrt(5)
    assert np.abs(bb.w2).max() <= 1.0 / np.sqrt(4)
    again = small_backbone()
    assert np.array_equal(bb.w1, again.w1) and np.array_equal(bb.w2, again.w2)
    f32 = init_backbone(5, 4, rng_for(0, "bb"), dtype=np.float32)
    assert f32.w1.dtype == np.float32
    with pytest.raises(ContractError):
        init_backbone(0, 4, rng_for(0, "bb"))


def test_weights_are_write_locked():
    bb = small_backbone()
    with pytest.raises(ValueError):
        bb.w1[0, 0] = 1.0
    with pytest.raises(ValueError):
        bb.w2[0, 0] = 1.0


def test_forward_is_pure():
    bb = small_backbone()
    mod = init_modulator(bb.site_widths, rng_for(1, "m"), embed_dim=4, heads=2)
    x = np.random.default_rng(2).normal(size=(6, 5))
    a = bb.forward(Tensor(x), mod).data
    b = bb.forward(Tensor(x), mod).data
    assert np.array_equal(a, b)


def test_forward_records_sites_and_shapes(monkeypatch):
    # record each insertion site by wrapping the module-level name the
    # backbone calls; the model itself carries no hook
    pre, post, norms = [], [], []

    def recording_modulate(site, embedding, h, h_norm=None):
        out = modulator.modulate(site, embedding, h, h_norm)
        pre.append(h.shape)
        post.append(out.shape)
        norms.append(h_norm)
        return out

    monkeypatch.setattr(backbone, "modulate", recording_modulate)
    bb = small_backbone()
    mod = init_modulator(bb.site_widths, rng_for(1, "m"), embed_dim=4, heads=2)
    x = Tensor(np.random.default_rng(2).normal(size=(6, 5)))
    emb = bb.forward(x, mod)
    assert pre == post == [(6, 5), (6, 4)]
    assert norms == [None, None]
    assert isinstance(emb, Tensor) and emb.shape == (6, 4)
    # a precomputed input norm reaches site 1 only and changes no bit
    x_norm = layer_norm(x)
    again = bb.forward(x, mod, x_norm)
    assert norms[2:] == [x_norm, None]
    assert again.data.tobytes() == emb.data.tobytes()


def composed_forward(bb, mod, x):
    # both sites from primitive tape ops, as the backbone ran them before
    # each site became one fused op
    h = x
    for site, w in zip(mod.sites, (bb.w1, bb.w2)):
        out = composed_modulate(site, mod.embedding, h)
        h = matmul(out, Tensor(w))
    return h


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_forward_and_gradients_match_composed_sites_bitwise(dtype):
    # the shared embedding gets one gradient term per site, summed by the
    # tape; the fused path must add them in the same order
    bb = init_backbone(32, 256, rng_for(0, "bb"), dtype=dtype)
    mod = init_modulator(bb.site_widths, rng_for(1, "m"), embed_dim=64, heads=3, dtype=dtype)
    x = Tensor(np.random.default_rng(2).normal(size=(72, 32)).astype(dtype))
    results = []
    for forward in (lambda: composed_forward(bb, mod, x), lambda: bb.forward(x, mod, layer_norm(x))):
        with Tape() as tape:
            loss = sum_all(forward())
        tape.backward(loss)
        results.append([loss.data] + [p.grad for p in mod.parameters()])
        for p in mod.parameters():
            p.grad = None
    for want, got in zip(*results):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_width_mismatch_rejected():
    bb = small_backbone()
    mod = init_modulator((5, 3), rng_for(1, "m"), embed_dim=4, heads=2)
    with pytest.raises(ContractError, match="widths"):
        bb.forward(Tensor(np.zeros((2, 5))), mod)


def passthrough_modulator(widths, heads=2):
    # unit scale, zero shift at every site, so each site is its layer norm
    arrays = []
    for w in widths:
        row = np.concatenate([np.ones(w), np.zeros(w)])
        arrays += [
            np.zeros((heads * 2 * w, 3)),
            np.tile(row, heads).reshape(-1, 1),
            np.random.default_rng(0).normal(size=(heads, w)),
            np.zeros((1, heads)),
        ]
    return Modulator.from_arrays(arrays + [np.zeros((3, 1))])


def layer_norm_np(h, eps=1e-5):
    mu = h.mean(axis=1, keepdims=True)
    var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
    return (h - mu) / np.sqrt(var + eps)


def test_linear_bypass_recovers_plain_projection():
    bb = small_backbone()
    mod = passthrough_modulator(bb.site_widths)
    x = np.random.default_rng(4).normal(size=(7, 5))
    got = bb.forward(Tensor(x), mod).data
    assert np.allclose(got, layer_norm_np(layer_norm_np(x) @ bb.w1) @ bb.w2, rtol=1e-12)


def test_backward_trains_modulator_not_backbone():
    bb = small_backbone()
    mod = init_modulator(bb.site_widths, rng_for(3, "m"), embed_dim=4, heads=2)
    x = Tensor(np.random.default_rng(5).normal(size=(6, 5)))
    w1_before = bb.w1.copy()
    with Tape() as tape:
        loss = sum_all(bb.forward(x, mod))
    tape.backward(loss)
    for p in mod.parameters():
        assert p.grad is not None
    assert x.grad is None
    assert np.array_equal(bb.w1, w1_before)
