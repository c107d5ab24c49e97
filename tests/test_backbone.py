"""Frozen backbone: immutability, wiring of the two insertion sites, and
the head block w2 is folded into: h·(w2·w) against (h·w2)·w."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taam import backbone, modulator
from taam.backbone import Backbone, init_backbone
from taam.classifier import ClassifierHead
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
    pre, post, norms, outs = [], [], [], []

    def recording_modulate(site, embedding, h, h_norm=None):
        out = modulator.modulate(site, embedding, h, h_norm)
        pre.append(h.shape)
        post.append(out.shape)
        norms.append(h_norm)
        outs.append(out)
        return out

    monkeypatch.setattr(backbone, "modulate", recording_modulate)
    bb = small_backbone()
    mod = init_modulator(bb.site_widths, rng_for(1, "m"), embed_dim=4, heads=2)
    x = Tensor(np.random.default_rng(2).normal(size=(6, 5)))
    h = bb.forward(x, mod)
    assert pre == post == [(6, 5), (6, 4)]
    assert norms == [None, None]
    # forward ends at site 2's output; w2 is left to `readout`
    assert h is outs[1]
    # a precomputed input norm reaches site 1 only and changes no bit
    x_norm = layer_norm(x)
    again = bb.forward(x, mod, x_norm)
    assert norms[2:] == [x_norm, None]
    assert again.data.tobytes() == h.data.tobytes()


def test_backward_frees_what_the_forward_made(monkeypatch):
    # once backward returns, the tape holds no record, so an array that only
    # the forward and its backward read, here the w1 product, is freed
    made = []

    def recording_matmul(a, b):
        out = matmul(a, b)
        made.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(backbone, "matmul", recording_matmul)
    bb = small_backbone()
    mod = init_modulator(bb.site_widths, rng_for(1, "m"), embed_dim=4, heads=2)
    x = Tensor(np.random.default_rng(2).normal(size=(6, 5)))
    with Tape() as tape:
        loss = sum_all(bb.forward(x, mod))
    assert len(made) == 1 and made[0]() is not None
    tape.backward(loss)
    assert tape._entries == []
    assert made[0]() is None
    assert all(p.grad is not None for p in mod.parameters())


def composed_forward(bb, mod, x):
    # both sites from primitive tape ops, as the backbone ran them before
    # each site became one fused op: site 1, w1, site 2
    h = matmul(composed_modulate(mod.sites[0], mod.embedding, x), Tensor(bb.w1))
    return composed_modulate(mod.sites[1], mod.embedding, h)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_forward_and_gradients_match_composed_sites_bitwise(dtype):
    # the shared embedding gets one gradient term per site, summed by the
    # tape; the fused path must add them in the same order.  Both chains end
    # in the head block's logits h·(w2·w), so w gets a gradient too.
    bb = init_backbone(32, 256, rng_for(0, "bb"), dtype=dtype)
    mod = init_modulator(bb.site_widths, rng_for(1, "m"), embed_dim=64, heads=3, dtype=dtype)
    x = Tensor(np.random.default_rng(2).normal(size=(72, 32)).astype(dtype))
    w = Tensor(np.random.default_rng(3).uniform(-0.1, 0.1, size=(256, 2)).astype(dtype), requires_grad=True)
    params = mod.parameters() + [w]
    results = []
    for forward in (lambda: composed_forward(bb, mod, x), lambda: bb.forward(x, mod, layer_norm(x))):
        with Tape() as tape:
            loss = sum_all(matmul(forward(), bb.readout(w)))
        tape.backward(loss)
        results.append([loss.data] + [p.grad for p in params])
        for p in params:
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
    got = bb.forward(Tensor(x), mod).data @ bb.w2
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


# The fold h·(w2·w) rounds otherwise than (h·w2)·w: per dtype, the largest
# difference allowed, relative to the largest |logit|.
FOLD_RTOL = {np.float64: 1e-10, np.float32: 1e-4}
dtypes = st.sampled_from([np.float64, np.float32])


def normal(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(dtype=dtypes, n=st.integers(1, 40), hidden=st.integers(1, 64), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_readout_logits_equal_the_unfolded_chain(dtype, n, hidden, k, seed):
    rng = np.random.default_rng(seed)
    h, w2, w = normal(rng, (n, hidden), dtype), normal(rng, (hidden, hidden), dtype), normal(rng, (hidden, k), dtype)
    bb = Backbone(w1=normal(rng, (3, hidden), dtype), w2=w2)
    got = matmul(Tensor(h), bb.readout(Tensor(w))).data
    want = (h @ w2) @ w
    assert got.dtype == dtype and got.shape == (n, k)
    assert np.abs(got - want).max() <= FOLD_RTOL[dtype] * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(
    dtype=dtypes,
    n=st.integers(1, 40),
    hidden=st.integers(1, 64),
    groups=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    pick=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_agrees_with_the_unfolded_chain_off_near_ties(dtype, n, hidden, groups, pick, seed):
    rng = np.random.default_rng(seed)
    head = ClassifierHead(hidden, dtype=dtype)
    for i, size in enumerate(groups):  # class ids are column numbers
        head.extend(range(head.num_classes, head.num_classes + size), rng_for(seed, "head", i))
    task = pick if 1 <= pick <= len(groups) else None
    h, w2 = normal(rng, (n, hidden), dtype), normal(rng, (hidden, hidden), dtype)
    cols = head.span(task)
    z = (h @ w2) @ head.weight[:, cols]
    top2 = np.sort(z, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > FOLD_RTOL[dtype] * np.abs(z).max()
    want = np.concatenate(head.tasks)[cols][z.argmax(axis=1)]
    got = head.predict(h, w2, task)
    assert np.array_equal(got[clear], want[clear])
