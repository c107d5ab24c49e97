"""Growing classifier head: registration, freezing, subset logits, ties."""

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
    assert head.registered == [0, 3, 5, 7]
    assert head.tasks == [[5, 3], [0, 7]]
    assert head.weight.shape == (4, 4)
    assert np.abs(head.weight).max() <= 0.5  # 1/sqrt(4)
    assert not head.frozen.any()


def test_extend_rejects_duplicates():
    head = head_with([5, 3])
    with pytest.raises(ContractError):
        head.extend([3], rng_for(9, "head"))
    with pytest.raises(ContractError):
        head.extend([1, 1], rng_for(9, "head"))


def test_class_order_follows_registration_not_value():
    head = head_with([5, 3], [0, 7])
    assert head.class_order([0, 3, 5, 7]) == [5, 3, 0, 7]
    assert head.class_order([3, 0]) == [3, 0]
    with pytest.raises(ContractError):
        head.class_order([42])


def test_column_block_roundtrip_in_given_order():
    head = head_with([5, 3])
    block = head.column_block([3, 5])
    assert np.array_equal(block[:, 0], head.weight[:, 1])
    block[:, 0] = 9.0
    assert head.weight[0, 1] != 9.0  # copy, not a view
    head.set_columns([3, 5], block)
    assert np.array_equal(head.weight[:, 1], np.full(4, 9.0))


def test_set_columns_contracts():
    head = head_with([5, 3])
    with pytest.raises(ShapeError):
        head.set_columns([5], np.zeros((4, 2)))
    head.freeze_classes([5])
    with pytest.raises(ContractError, match=r"\[5\]"):
        head.set_columns([5, 3], np.zeros((4, 2)))
    # the unfrozen one can still be written on its own
    head.set_columns([3], np.ones((4, 1)))


def test_frozen_columns_survive_later_extensions():
    head = head_with([5, 3])
    head.set_columns([5, 3], np.arange(8, dtype=float).reshape(4, 2))
    head.freeze_classes([5, 3])
    snapshot = head.weight[:, :2].copy()
    head.extend([0, 7], rng_for(1, "head"))
    head.set_columns([0, 7], np.full((4, 2), -1.0))
    assert np.array_equal(head.weight[:, :2], snapshot)


def test_logits_subset_and_shape_check():
    head = head_with([5, 3], [0, 7])
    emb = np.random.default_rng(0).normal(size=(6, 4))
    z = head.logits(emb, [0, 7])
    cols = [head.columns[0], head.columns[7]]
    assert np.array_equal(z, emb @ head.weight[:, cols])
    with pytest.raises(ShapeError):
        head.logits(np.zeros((2, 3)), [0])


def test_predict_returns_global_ids_from_subset():
    head = head_with([5, 3], [0, 7])
    head.set_columns([5, 3, 0, 7], np.eye(4))
    emb = np.eye(4)
    assert list(head.predict(emb, [5, 3, 0, 7])) == [5, 3, 0, 7]
    # restricted to one task, only its ids can come back
    pred = head.predict(np.random.default_rng(1).normal(size=(10, 4)), [0, 7])
    assert set(pred) <= {0, 7}


def test_predict_exact_tie_takes_lowest_class_id():
    head = head_with([9, 2])
    col = np.array([[1.0], [0.0], [0.0], [0.0]])
    head.set_columns([9], col)
    head.set_columns([2], col)  # identical scores for both classes
    emb = np.random.default_rng(2).normal(size=(5, 4))
    assert list(head.predict(emb, [9, 2])) == [2] * 5


def test_f32_head_stays_f32():
    head = head_with([1, 2], hidden=3, dtype=np.float32)
    assert head.weight.dtype == np.float32
