"""Growing classifier head: task blocks, freezing, prediction, ties."""

import numpy as np
import pytest

from taam.classifier import ClassifierHead
from taam.errors import ContractError, ShapeError
from taam.rng import rng_for


def head_with(*groups, hidden=4, dtype=np.float64):
    head = ClassifierHead(hidden, dtype=dtype)
    for i, g in enumerate(groups):
        head.extend(g, rng_for(i, "head"))
    return head


def test_extend_grows_and_registers():
    head = head_with([5, 3], [0, 7])
    assert head.num_classes == 4
    assert head.tasks == [[5, 3], [0, 7]]
    assert head.weight.shape == (4, 4)
    assert np.abs(head.weight).max() <= 0.5  # 1/sqrt(4)
    assert not head.frozen.any()
    assert head.extend([1], rng_for(9, "head")) == 3  # the new task's number


def test_extend_rejects_duplicates():
    head = head_with([5, 3])
    with pytest.raises(ContractError):
        head.extend([3], rng_for(9, "head"))
    with pytest.raises(ContractError):
        head.extend([1, 1], rng_for(9, "head"))


def test_span_follows_registration_not_value():
    head = head_with([5, 3], [0, 7, 1])
    assert head.span(1) == slice(0, 2)
    assert head.span(2) == slice(2, 5)
    assert head.span() == slice(0, 5)
    for bad in (0, 3):
        with pytest.raises(ContractError):
            head.span(bad)


def test_block_roundtrip_is_a_copy():
    head = head_with([5, 3], [0, 7])
    block = head.block(2)
    assert np.array_equal(block, head.weight[:, 2:])
    block[:, 0] = 9.0
    assert head.weight[0, 2] != 9.0  # copy, not a view
    head.set_block(block, 2)
    assert np.array_equal(head.weight[:, 2], np.full(4, 9.0))
    assert np.array_equal(head.block(), head.weight)


def test_set_block_contracts():
    head = head_with([5, 3], [0, 7])
    with pytest.raises(ShapeError):
        head.set_block(np.zeros((4, 3)), 1)
    head.freeze(1)
    with pytest.raises(ContractError, match="frozen"):
        head.set_block(np.zeros((4, 4)))
    # the unfrozen task can still be written on its own
    head.set_block(np.ones((4, 2)), 2)


def test_frozen_columns_survive_later_extensions():
    head = head_with([5, 3])
    head.set_block(np.arange(8, dtype=float).reshape(4, 2), 1)
    head.freeze(1)
    snapshot = head.weight[:, :2].copy()
    head.extend([0, 7], rng_for(1, "head"))
    head.set_block(np.full((4, 2), -1.0), 2)
    assert np.array_equal(head.weight[:, :2], snapshot)


def test_predict_scores_the_task_block_and_checks_shape():
    head = head_with([5, 3], [0, 7])
    rng = np.random.default_rng(0)
    h, w2 = rng.normal(size=(6, 4)), rng.normal(size=(4, 4))
    z = h @ (w2 @ head.weight[:, 2:])  # w2 folded into the block's two columns
    assert np.array_equal(head.predict(h, w2, 2), np.array([0, 7])[z.argmax(axis=1)])
    with pytest.raises(ShapeError):
        head.predict(np.zeros((2, 3)), w2, 1)


def test_predict_returns_global_ids_from_subset():
    head = head_with([5, 3], [0, 7])
    head.set_block(np.eye(4))
    eye = np.eye(4)
    assert list(head.predict(eye, eye)) == [5, 3, 0, 7]
    # restricted to one task, only its ids can come back
    pred = head.predict(np.random.default_rng(1).normal(size=(10, 4)), eye, 2)
    assert set(pred) <= {0, 7}


def test_predict_exact_tie_takes_lowest_class_id():
    head = head_with([9, 2])
    col = np.array([[1.0], [0.0], [0.0], [0.0]])
    head.set_block(np.hstack([col, col]), 1)  # identical scores for both classes
    rng = np.random.default_rng(2)
    h, w2 = rng.normal(size=(5, 4)), rng.normal(size=(4, 4))
    assert list(head.predict(h, w2, 1)) == [2] * 5
    assert list(head.predict(h, w2)) == [2] * 5


def test_f32_head_stays_f32():
    head = head_with([1, 2], hidden=3, dtype=np.float32)
    assert head.weight.dtype == np.float32
