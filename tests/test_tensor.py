"""Autodiff engine: forward values, fused backwards, and tape contracts.

Every op's gradient is checked two ways: against a closed-form expression
written out independently here, and against central finite differences via
grad_check.  The cross-entropy forward is checked against an arbitrary-
precision Decimal evaluation so the max-subtraction trick is verified, not
assumed.
"""

import numpy as np
import pytest
from decimal import Decimal, localcontext
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taam.errors import ContractError, NumericError, ShapeError
from taam.tensor import (
    Tape,
    Tensor,
    add,
    grad_check,
    layer_norm,
    matmul,
    mul,
    reshape,
    slice_cols,
    softmax_rows,
    transpose,
    weighted_cross_entropy,
)

from tape_oracle import sum_all


def rand(shape, seed=0, scale=1.0, grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.normal(size=shape), requires_grad=grad)


# ---------------------------------------------------------------- forward

def test_matmul_forward_matches_numpy():
    a, b = rand((3, 4), 1), rand((4, 5), 2)
    assert np.array_equal(matmul(a, b).data, a.data @ b.data)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        matmul(rand((2, 3)), rand((2, 3)))
    assert "(2, 3)" in str(e.value)


def test_add_broadcasts_row_vector():
    a, b = rand((4, 3), 1), rand((1, 3), 2)
    assert np.array_equal(add(a, b).data, a.data + b.data)
    with pytest.raises(ShapeError):
        add(rand((4, 3)), rand((3, 1)))


def test_mul_scalar_and_tensor():
    a = rand((2, 3), 5)
    assert np.array_equal(mul(a, 2.5).data, a.data * 2.5)
    b = rand((2, 3), 6)
    assert np.array_equal(mul(a, b).data, a.data * b.data)
    with pytest.raises(ShapeError):
        mul(a, rand((3, 2)))


def test_reshape_transpose_slice_sum():
    a = rand((2, 6), 3)
    assert np.array_equal(reshape(a, (3, 4)).data, a.data.reshape(3, 4))
    assert np.array_equal(transpose(a).data, a.data.T)
    assert np.array_equal(slice_cols(a, 1, 4).data, a.data[:, 1:4])
    assert sum_all(a).item() == pytest.approx(a.data.sum(), rel=1e-15)
    with pytest.raises(ContractError):
        slice_cols(a, 2, 7)
    with pytest.raises(ShapeError):
        transpose(Tensor(np.zeros(3)))


def test_layer_norm_forward_oracle():
    x = rand((5, 7), 9, scale=3.0)
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    want = (x.data - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(layer_norm(x).data, want, rtol=1e-14, atol=0)


def test_layer_norm_constant_row_is_zero():
    # var = 0, eps keeps the division finite, numerator is exactly zero
    x = Tensor(np.full((2, 4), 3.7))
    assert np.array_equal(layer_norm(x).data, np.zeros((2, 4)))


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
                  elements=st.floats(-100, 100)))
def test_layer_norm_rows_standardized(arr):
    y = layer_norm(Tensor(arr)).data
    assert np.all(np.abs(y.mean(axis=1)) < 1e-8)
    # population variance of the output is var/(var+eps), never above 1
    assert np.all(y.var(axis=1) <= 1.0 + 1e-12)


def test_softmax_rows_forward():
    x = rand((4, 5), 11, scale=4.0)
    y = softmax_rows(x).data
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    assert np.allclose(y, e / e.sum(axis=1, keepdims=True), rtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=st.floats(-1000, 1000)))
def test_softmax_rows_on_simplex(arr):
    y = softmax_rows(Tensor(arr)).data
    assert np.all(y >= 0)
    assert np.allclose(y.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_softmax_shift_invariance():
    x = rand((3, 4), 13)
    shifted = Tensor(x.data + 123.0)
    assert np.allclose(softmax_rows(x).data, softmax_rows(shifted).data, rtol=1e-12)


def test_softmax_rejects_non_finite():
    bad = np.ones((2, 3))
    bad[1, 2] = np.inf
    with pytest.raises(NumericError) as e:
        softmax_rows(Tensor(bad))
    assert "row 1" in str(e.value)


def ce_decimal_oracle(z, labels, w, reduction):
    # arbitrary-precision reference; huge Emin/Emax so exp(+-1000) is exact
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.Emax = 10**9
        ctx.Emin = -(10**9)
        total = Decimal(0)
        for i in range(z.shape[0]):
            exps = [Decimal(float(v)).exp() for v in z[i]]
            p = exps[int(labels[i])] / sum(exps)
            total += Decimal(float(w[i])) * (-p.ln())
        if reduction == "mean":
            total /= z.shape[0]
        return float(total)


@pytest.mark.parametrize("reduction", ["sum", "mean"])
def test_cross_entropy_matches_decimal_oracle(reduction):
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 4)) * 3
    labels = rng.integers(0, 4, size=6)
    w = rng.uniform(0.1, 2.0, size=6)
    got = weighted_cross_entropy(Tensor(z), labels, w, reduction=reduction).item()
    want = ce_decimal_oracle(z, labels, w, reduction)
    assert got == pytest.approx(want, rel=1e-12)


def test_cross_entropy_stable_at_large_logits():
    z = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    labels = np.array([0, 0])
    w = np.ones(2)
    got = weighted_cross_entropy(Tensor(z), labels, w).item()
    assert np.isfinite(got)
    assert got == pytest.approx(ce_decimal_oracle(z, labels, w, "sum"), rel=1e-10, abs=1e-300)


def test_cross_entropy_uniform_logits():
    # all-equal logits: every row contributes w * log(C)
    z = Tensor(np.zeros((3, 5)))
    w = np.array([1.0, 2.0, 0.5])
    got = weighted_cross_entropy(z, np.zeros(3, dtype=int), w).item()
    assert got == pytest.approx(w.sum() * np.log(5.0), rel=1e-14)


def test_cross_entropy_contracts():
    z = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        weighted_cross_entropy(z, np.array([0, 3]), np.ones(2))
    with pytest.raises(ShapeError):
        weighted_cross_entropy(z, np.array([0]), np.ones(2))
    with pytest.raises(ContractError):
        weighted_cross_entropy(z, np.array([0, 1]), np.ones(2), reduction="median")
    nan_z = Tensor(np.array([[np.nan, 0.0]]))
    with pytest.raises(NumericError):
        weighted_cross_entropy(nan_z, np.array([0]), np.ones(1))


# --------------------------------------------------------------- backward

def test_matmul_backward_closed_form():
    a, b = rand((3, 4), 1), rand((4, 5), 2)
    with Tape() as tape:
        loss = sum_all(matmul(a, b))
    tape.backward(loss)
    assert np.allclose(a.grad, np.ones((3, 5)) @ b.data.T, rtol=1e-14)
    assert np.allclose(b.grad, a.data.T @ np.ones((3, 5)), rtol=1e-14)


def test_add_backward_bias_gets_column_sums():
    a, bias = rand((4, 3), 1), rand((1, 3), 2)
    scale = rand((4, 3), 3, grad=False)
    with Tape() as tape:
        loss = sum_all(mul(add(a, bias), scale))
    tape.backward(loss)
    assert np.allclose(bias.grad, scale.data.sum(axis=0, keepdims=True), rtol=1e-14)
    assert np.array_equal(a.grad, scale.data)


def test_cross_entropy_grad_rows_sum_to_zero():
    # each row's gradient is w * (softmax - onehot), which sums to zero
    z = rand((5, 4), 21)
    labels = np.array([0, 1, 2, 3, 1])
    w = np.random.default_rng(3).uniform(0.5, 2.0, size=5)
    with Tape() as tape:
        loss = weighted_cross_entropy(z, labels, w)
    tape.backward(loss)
    assert np.allclose(z.grad.sum(axis=1), 0.0, atol=1e-12)


OPS = {
    "matmul": lambda p: sum_all(matmul(p[0], transpose(p[1]))),
    "add_bias": lambda p: sum_all(mul(add(p[0], p[2]), p[1])),
    "mul": lambda p: sum_all(mul(mul(p[0], p[1]), 0.5)),
    "transpose": lambda p: sum_all(matmul(transpose(p[0]), p[0])),
    "reshape": lambda p: sum_all(mul(reshape(p[0], (4, 3)), reshape(p[1], (4, 3)))),
    "slice": lambda p: sum_all(mul(slice_cols(p[0], 1, 3), slice_cols(p[1], 0, 2))),
    "layer_norm": lambda p: sum_all(mul(layer_norm(p[0]), p[1])),
    "softmax": lambda p: sum_all(mul(softmax_rows(p[0]), p[1])),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_finite_difference(name):
    p = [rand((3, 4), 50 + i) for i in range(2)]
    p.append(rand((1, 4), 60))
    assert grad_check(lambda: OPS[name](p), p) < 1e-7


def test_cross_entropy_gradient_finite_difference():
    z = rand((4, 3), 77)
    labels = np.array([0, 2, 1, 1])
    w = np.array([1.0, 0.3, 2.0, 1.5])

    def f():
        return weighted_cross_entropy(z, labels, w, reduction="mean")

    assert grad_check(f, [z]) < 1e-7


def test_diamond_reuse_accumulates():
    a = rand((2, 2), 5)
    with Tape() as tape:
        loss = sum_all(add(mul(a, 2.0), mul(a, 3.0)))
    tape.backward(loss)
    assert np.allclose(a.grad, np.full((2, 2), 5.0), rtol=0, atol=0)


def test_grad_accumulates_across_tapes():
    a = rand((2, 2), 5)
    for _ in range(2):
        with Tape() as tape:
            loss = sum_all(a)
        tape.backward(loss)
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))


def test_intermediates_hold_no_grad():
    a, b = rand((2, 3), 1), rand((3, 2), 2)
    with Tape() as tape:
        c = matmul(a, b)
        loss = sum_all(c)
    tape.backward(loss)
    assert c.grad is None and loss.grad is None
    assert a.grad is not None


def test_frozen_tensors_untouched():
    a = rand((2, 3), 1, grad=False)
    b = rand((3, 2), 2)
    with Tape() as tape:
        loss = sum_all(matmul(a, b))
    tape.backward(loss)
    assert a.grad is None and b.grad is not None


def test_no_recording_outside_tape():
    a = rand((2, 2), 1)
    out = mul(a, 2.0)
    assert out.requires_grad is False


def test_backward_contracts():
    a = rand((2, 2), 1)
    with Tape() as tape:
        out = mul(a, 2.0)
    with pytest.raises(ContractError, match="scalar"):
        tape.backward(out)
    with Tape() as tape:
        loss = sum_all(a)
    tape.backward(loss)
    with pytest.raises(ContractError, match="already backpropagated"):
        tape.backward(loss)


def test_backward_rejects_foreign_loss():
    a = rand((2, 2), 1)
    with Tape() as tape:
        sum_all(a)
    stray = Tensor(np.asarray(1.0))
    with pytest.raises(ContractError, match="not computed on this tape"):
        tape.backward(stray)


def test_tensor_casts_ints_keeps_floats():
    assert Tensor(np.arange(4)).dtype == np.float64
    assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
    with pytest.raises(ContractError):
        Tensor(np.zeros((2, 2))).item()


def test_grad_check_detects_detached_graph():
    # value depends on p but the tape never sees it: analytic grad is zero,
    # numeric is 2p, so the reported error must be large
    p = rand((2, 2), 3)

    def f():
        detached = Tensor(p.data * p.data, requires_grad=True)
        return sum_all(detached)

    assert grad_check(f, [p]) > 0.5


def test_grad_check_happy_path():
    p = rand((2, 3), 9)

    def f():
        return sum_all(mul(p, p))

    assert grad_check(f, [p]) < 1e-9
