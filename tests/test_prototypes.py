"""Prototype bank: mean computation, exact-arithmetic nearest oracle, commits.

nearest_task is validated against an exact rational-arithmetic argmin
(Fraction converts each float64 exactly), so tie-breaking and distance
comparisons are checked without floating-point slack.
"""

from fractions import Fraction

import numpy as np
import pytest

from taam.errors import ContractError, ShapeError
from taam.graph import generate_sbm, normalize_adjacency, propagate
from taam.modulator import init_modulator
from taam.prototypes import PrototypeBank, compute_prototype, task_aware_init
from taam.rng import rng_for


def nearest_oracle(vectors, query):
    best, best_d = None, None
    for tid, vec in enumerate(vectors, start=1):
        d = sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(vec, query))
        if best_d is None or d < best_d:  # strict: ties keep the lowest id
            best, best_d = tid, d
    return best


def mod_for(widths=(3,), seed=0):
    return init_modulator(list(widths), rng_for(seed, "p"), embed_dim=4, heads=2)


def bank_with(vectors, widths=(3,)):
    bank = PrototypeBank()
    for i, v in enumerate(vectors):
        bank.commit(np.asarray(v, float), mod_for(widths, seed=i))
    return bank


def test_compute_prototype_is_mean_of_propagated_rows():
    g = generate_sbm(2, 10, 0.5, 0.1, 4, 5.0, seed=3)
    x_prop = propagate(normalize_adjacency(g), g.features, 2)
    nodes = [0, 3, 7, 12]
    p = compute_prototype(x_prop, nodes)
    assert p.dtype == np.float64 and p.shape == (4,)
    assert np.allclose(p, x_prop[nodes].mean(axis=0), rtol=1e-14)


def test_compute_prototype_contracts():
    g = generate_sbm(2, 5, 0.5, 0.1, 3, 5.0, seed=0)
    x_prop = propagate(normalize_adjacency(g), g.features, 2)
    with pytest.raises(ContractError):
        compute_prototype(x_prop, [])
    with pytest.raises(ContractError):
        compute_prototype(x_prop, [99])
    with pytest.raises(ContractError):
        compute_prototype(x_prop, [-1])


def test_nearest_exact_tie_prefers_lowest_task():
    bank = bank_with([[0.0], [10.0]], widths=(1,))
    assert bank.nearest_task(np.array([5.0])) == 1
    assert nearest_oracle([[0.0], [10.0]], [5.0]) == 1


@pytest.mark.parametrize("seed", range(10))
def test_nearest_matches_fraction_oracle(seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(5, 6))
    bank = bank_with(vectors, widths=(3,))
    for q in rng.normal(size=(8, 6)):
        assert bank.nearest_task(q) == nearest_oracle(vectors, q)


def test_nearest_accepts_prototype_and_checks_dims():
    bank = bank_with([[1.0, 0.0], [0.0, 1.0]], widths=(2,))
    assert bank.nearest_task(np.array([0.9, 0.0])) == 1
    with pytest.raises(ShapeError):
        bank.nearest_task(np.zeros(3))
    with pytest.raises(ContractError):
        PrototypeBank().nearest_task(np.zeros(2))


def test_commit_assigns_sequential_ids_and_freezes():
    bank = PrototypeBank()
    for i in range(3):
        proto = np.array([float(i)])
        mod = mod_for((1,), seed=i)
        assert bank.commit(proto, mod) == i + 1
        assert mod.frozen
        with pytest.raises(ValueError):
            proto[0] = 99.0  # stored prototype is write-locked
    assert len(bank) == 3 and bank.latest_task() == 3


def test_commit_rejects_frozen_or_duplicate_modulator():
    bank = PrototypeBank()
    mod = mod_for((1,))
    bank.commit(np.zeros(1), mod)
    with pytest.raises(ContractError):
        bank.commit(np.ones(1), mod)
    pre_frozen = mod_for((1,), seed=5)
    pre_frozen.freeze()
    with pytest.raises(ContractError):
        bank.commit(np.ones(1), pre_frozen)


def test_restore_keeps_frozen_pairs_only():
    done = mod_for((1,), seed=1)
    done.freeze()
    proto = np.zeros(1)
    bank = PrototypeBank.restore([(proto, done)])
    assert len(bank) == 1 and bank.modulator(1) is done and not proto.flags.writeable
    with pytest.raises(ContractError, match="frozen"):
        PrototypeBank.restore([(np.zeros(1), mod_for((1,), seed=2))])


def test_commit_rejects_dim_drift():
    bank = bank_with([[1.0, 2.0]], widths=(2,))
    with pytest.raises(ShapeError):
        bank.commit(np.zeros(3), mod_for((2,), seed=9))


def test_bank_lookup_contracts():
    bank = bank_with([[0.0]], widths=(1,))
    with pytest.raises(ContractError):
        bank.modulator(2)
    with pytest.raises(ContractError):
        bank.prototype(0)
    with pytest.raises(ContractError):
        PrototypeBank().latest_task()


def test_task_aware_init_empty_bank_is_random():
    mod, donor = task_aware_init(
        PrototypeBank(), np.zeros(2), (3,), rng_for(0, "w"),
        embed_dim=4, heads=2,
    )
    assert donor is None and not mod.frozen
    fresh = init_modulator([3], rng_for(0, "w"), embed_dim=4, heads=2)
    assert np.array_equal(mod.sites[0][0].data, fresh.sites[0][0].data)


def test_task_aware_init_clones_nearest_donor():
    vectors = [[0.0, 0.0], [10.0, 0.0]]
    bank = bank_with(vectors, widths=(3,))
    query = np.array([9.0, 0.5])
    mod, donor = task_aware_init(bank, query, (3,), rng_for(1, "w"), embed_dim=4, heads=2)
    assert donor == nearest_oracle(vectors, query) == 2
    donor_mod = bank.modulator(2)
    w_base, b_base = donor_mod.generator()
    _, w_attn, b_attn = donor_mod.sites[0]
    for a, b in zip(mod.sites[0], (w_base, b_base, w_attn.data, b_attn.data)):
        assert np.array_equal(a.data, b)
    assert mod.embedding.shape == (4, 1)
    with pytest.raises(ContractError, match="widths"):
        task_aware_init(bank, query, (4,), rng_for(1, "w"), embed_dim=4, heads=2)


def test_retrieve_uses_the_given_node_set():
    # two stored prototypes sit at the two class means of the query graph;
    # the rows of one class must retrieve that class's task
    g = generate_sbm(2, 20, 0.4, 0.0, 4, 12.0, seed=7)
    x_prop = propagate(normalize_adjacency(g), g.features, 2)
    p_a = x_prop[g.labels == 0].mean(axis=0)
    p_b = x_prop[g.labels == 1].mean(axis=0)
    bank = bank_with([p_a, p_b], widths=(3,))
    assert bank.retrieve(x_prop[g.labels == 1]) == 2
    assert bank.retrieve(x_prop[g.labels == 0]) == 1


@pytest.mark.parametrize("seed", range(3))
def test_a_restored_bank_grown_by_commits_matches_the_oracle(seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(5, 6))
    restored = [mod_for((3,), seed=i) for i in range(3)]
    for mod in restored:
        mod.freeze()
    bank = PrototypeBank.restore(zip(vectors[:3].copy(), restored))
    for i, v in enumerate(vectors[3:], 3):
        bank.commit(v.copy(), mod_for((3,), seed=i))
    for t, v in enumerate(vectors, 1):
        assert bank.nearest_task(v) == t
    for q in rng.normal(size=(8, 6)):
        assert bank.nearest_task(q) == nearest_oracle(vectors, q)
