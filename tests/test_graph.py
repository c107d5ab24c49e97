"""Graph container, normalization, propagation, block model, and the
induced-subgraph oracle of the stream tests."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from taam import graph
from taam.errors import ContractError, NumericError, ShapeError
from taam.graph import SparseGraph, generate_sbm, normalize_adjacency, propagate

from subgraph import induced_subgraph


def path_graph(n=3, dim=2):
    feats = np.arange(n * dim, dtype=float).reshape(n, dim)
    return SparseGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)], feats, np.zeros(n, int))


def dense_norm(g):
    a = g.adj.toarray() + np.eye(g.num_nodes)
    d = a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * a * inv[None, :]


def test_normalize_single_isolated_node():
    g = SparseGraph.from_edges(1, [], np.zeros((1, 2)), np.zeros(1, int))
    assert np.array_equal(normalize_adjacency(g).toarray(), [[1.0]])


def test_normalize_two_node_edge_exact():
    g = SparseGraph.from_edges(2, [(0, 1)], np.zeros((2, 1)), np.zeros(2, int))
    # degrees with self-loop are 2, so every entry is 1/2 (up to the 1/sqrt(2) rounding)
    assert np.allclose(normalize_adjacency(g).toarray(), np.full((2, 2), 0.5), rtol=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_normalize_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 12
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = SparseGraph.from_edges(n, edges, rng.normal(size=(n, 3)), np.zeros(n, int))
    assert np.allclose(normalize_adjacency(g).toarray(), dense_norm(g), rtol=1e-13, atol=0)


def test_normalize_equals_the_two_diagonal_products_bitwise():
    g = generate_sbm(3, 8, 0.5, 0.1, 3, 2.0, seed=1)
    a = g.adj + sp.identity(g.num_nodes, format="csr")
    d = sp.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    want, got = (d @ a @ d).tocsr(), normalize_adjacency(g)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


def test_normalize_sorts_an_unsorted_adjacency_first():
    g = generate_sbm(3, 8, 0.5, 0.1, 3, 2.0, seed=1)
    indices = g.adj.indices.copy()
    for lo, hi in zip(g.adj.indptr[:-1], g.adj.indptr[1:]):
        indices[lo:hi] = indices[lo:hi][::-1]
    adj = sp.csr_matrix((g.adj.data, indices, g.adj.indptr), shape=g.adj.shape)
    assert not adj.has_canonical_format
    want, got = normalize_adjacency(g), normalize_adjacency(SparseGraph(adj, g.features, g.labels))
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


def test_propagate_zero_hops_is_copy():
    g = path_graph()
    s = normalize_adjacency(g)
    out = propagate(s, g.features, 0)
    assert np.array_equal(out, g.features)
    out[0, 0] = -99.0
    assert g.features[0, 0] != -99.0


@pytest.mark.parametrize("block_bytes", [8, 8 * 12 * 2, 1 << 20])
def test_propagate_in_column_blocks_is_bitwise_one_pass(monkeypatch, block_bytes):
    g = generate_sbm(3, 4, 0.6, 0.2, 7, 2.0, seed=2)  # 12 nodes: 1, 2 or all 7 columns per block
    s = normalize_adjacency(g)
    monkeypatch.setattr(graph, "PROPAGATE_BLOCK_BYTES", block_bytes)
    for hops in (1, 2, 3):
        want = g.features
        for _ in range(hops):
            want = s @ want
        assert np.array_equal(propagate(s, g.features, hops), want)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 9),
    dim=st.integers(1, 4),
    hops=st.integers(0, 3),
    block=st.sampled_from(["8 B", "one column", "1 MiB"]),
    data=st.data(),
)
def test_propagate_rows_is_bitwise_the_full_rows(n, dim, hops, block, data):
    # edges may be absent or leave nodes isolated; rows may be unsorted,
    # repeated or empty
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(n, dim))
    s = normalize_adjacency(SparseGraph.from_edges(n, edges, x, np.zeros(n, int)))
    block_bytes = {"8 B": 8, "one column": 8 * n, "1 MiB": 1 << 20}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "PROPAGATE_BLOCK_BYTES", block_bytes)
        got = propagate(s, x, hops, np.array(rows, dtype=np.int64))
        want = propagate(s, x, hops)[rows]
    assert got.shape == (len(rows), dim)
    assert np.array_equal(got, want)


def test_propagate_rows_out_of_range_is_a_contract_error():
    g = path_graph(4, 2)
    s = normalize_adjacency(g)
    for rows in ([4], [-1], [0, 7]):
        with pytest.raises(ContractError):
            propagate(s, g.features, 2, rows)


def test_propagate_matches_dense_power():
    g = path_graph(5, 3)
    s = normalize_adjacency(g)
    dense = dense_norm(g)
    want = dense @ (dense @ g.features)
    assert np.allclose(propagate(s, g.features, 2), want, rtol=1e-13)
    with pytest.raises(ContractError):
        propagate(s, g.features, -1)


def test_propagate_is_linear():
    g = path_graph(6, 2)
    s = normalize_adjacency(g)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    lhs = propagate(s, 2.0 * x + 3.0 * y, 2)
    rhs = 2.0 * propagate(s, x, 2) + 3.0 * propagate(s, y, 2)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_from_edges_symmetrizes_dedups_drops_loops():
    g = SparseGraph.from_edges(
        3, [(0, 1), (1, 0), (0, 1), (2, 2)], np.zeros((3, 1)), np.zeros(3, int)
    )
    a = g.adj.toarray()
    assert np.array_equal(a, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert g.num_edges == 2  # one undirected edge, two directed entries
    with pytest.raises(ContractError):
        SparseGraph.from_edges(3, [(0, 3)], np.zeros((3, 1)), np.zeros(3, int))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), data=st.data(), as_array=st.booleans())
def test_from_edges_matches_dense_oracle(n, data, as_array):
    # duplicates, both orientations and self-loops all occur; the list may be empty
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=30))
    want = np.zeros((n, n))
    for i, j in pairs:
        if i != j:
            want[i, j] = want[j, i] = 1.0
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
    g = SparseGraph.from_edges(n, edges, np.zeros((n, 1)), np.zeros(n, int))
    assert np.array_equal(g.adj.toarray(), want)
    assert g.num_edges == int(want.sum())
    for r in range(n):
        assert np.all(np.diff(g.adj.indices[g.adj.indptr[r] : g.adj.indptr[r + 1]]) > 0)


def test_validate_rejects_asymmetric():
    a = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
    with pytest.raises(ContractError, match="symmetric"):
        SparseGraph(a, np.zeros((2, 1)), np.zeros(2, int))


def test_validate_rejects_bad_shapes_and_values():
    g = path_graph()
    with pytest.raises(NumericError):
        SparseGraph(g.adj, np.full((3, 2), np.nan), g.labels)
    with pytest.raises(ShapeError):
        SparseGraph(g.adj, np.zeros((2, 2)), g.labels)
    with pytest.raises(ShapeError):
        SparseGraph(g.adj, g.features, np.zeros(2, int))
    with pytest.raises(ShapeError):
        SparseGraph(g.adj[:, :2], g.features, g.labels)  # not square
    with pytest.raises(ContractError):
        SparseGraph(g.adj.toarray(), g.features, g.labels)  # not a CSR matrix


@pytest.mark.parametrize(
    "indices,indptr",
    [([1, 3], [0, 1, 2, 2]), ([1, -1], [0, 1, 2, 2]), ([1, 0], [0, 2, 1, 2])],
    ids=["column-out-of-range", "negative-column", "decreasing-indptr"],
)
def test_malformed_csr_is_a_contract_error(indices, indptr):
    # scipy's constructor accepts these; read unchecked, they can corrupt memory
    a = sp.csr_matrix((np.ones(2), np.array(indices), np.array(indptr)), shape=(3, 3))
    with pytest.raises(ContractError, match="malformed CSR"):
        SparseGraph(a, np.zeros((3, 1)), np.zeros(3, int))


def test_induced_subgraph_path():
    g = path_graph(3)
    sub = induced_subgraph(g, [0, 2])
    assert sub.num_nodes == 2
    assert sub.num_edges == 0  # 0-2 were never adjacent
    assert np.array_equal(sub.features, g.features[[0, 2]])

    sub = induced_subgraph(g, [2, 1])  # node nodes[k] becomes node k
    assert sub.num_edges == 2
    assert np.array_equal(sub.features, g.features[[2, 1]])


def test_induced_subgraph_edge_oracle():
    rng = np.random.default_rng(3)
    n = 15
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25}
    g = SparseGraph.from_edges(n, list(edges), rng.normal(size=(n, 2)), np.zeros(n, int))
    keep = [0, 2, 3, 7, 8, 11, 14]
    sub = induced_subgraph(g, keep)
    m = {old: new for new, old in enumerate(keep)}
    want = {(m[i], m[j]) for i, j in edges if i in m and j in m}
    got = set()
    coo = sub.adj.tocoo()
    for i, j in zip(coo.row, coo.col):
        if i < j:
            got.add((int(i), int(j)))
    assert got == {(min(a, b), max(a, b)) for a, b in want}
    assert np.array_equal(sub.labels, g.labels[keep])


def test_induced_subgraph_contracts():
    g = path_graph()
    with pytest.raises(ContractError):
        induced_subgraph(g, [])
    with pytest.raises(ContractError):
        induced_subgraph(g, [0, 5])


def test_bernoulli_positions_follows_a_short_chunk_with_another():
    # gaps of 1 cover only a chunk's own length of the range each draw
    class OnesRng:
        def geometric(self, p, size):
            return np.ones(size, dtype=np.int64)

    got = graph._bernoulli_positions(OnesRng(), 1000, 0.01)
    assert got.dtype == np.int64 and np.array_equal(got, np.arange(1000))


def test_sbm_deterministic_per_seed():
    a = generate_sbm(3, 10, 0.5, 0.1, 4, 6.0, seed=42)
    b = generate_sbm(3, 10, 0.5, 0.1, 4, 6.0, seed=42)
    c = generate_sbm(3, 10, 0.5, 0.1, 4, 6.0, seed=43)
    assert (a.adj != b.adj).nnz == 0
    for name in ("features", "labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert not np.array_equal(a.features, c.features)
    assert (a.adj != c.adj).nnz != 0


def test_sbm_labels_and_block_structure():
    g = generate_sbm(3, 8, 1.0, 0.0, 3, 5.0, seed=1)
    assert np.array_equal(g.labels, np.repeat([0, 1, 2], 8))
    coo = g.adj.tocoo()
    same = g.labels[coo.row] == g.labels[coo.col]
    assert same.all()  # p_out = 0: no cross-class edge
    # p_in = 1: each block is complete
    assert g.num_edges == 3 * 8 * 7


def block_oracle(labels, p_in, p_out):
    """Dense adjacency that p in {0, 1} forces: full where p == 1, empty where 0."""
    a = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    np.fill_diagonal(a, 0.0)
    return a


@pytest.mark.parametrize(
    "classes,npc,p_in,p_out",
    [(4, 5, 1.0, 1.0), (3, 8, 0.0, 0.0), (1, 6, 1.0, 0.0), (5, 1, 1.0, 1.0), (2, 7, 1.0, 0.0)],
)
def test_sbm_extreme_probabilities_are_exact(classes, npc, p_in, p_out):
    # both 1: the complete graph; both 0: no edges; p_in = 1, p_out = 0: complete blocks
    g = generate_sbm(classes, npc, p_in, p_out, classes, 5.0, seed=1)
    assert np.array_equal(g.adj.toarray(), block_oracle(g.labels, p_in, p_out))


@pytest.mark.parametrize(
    "classes,npc,p_in,p_out", [(6, 60, 0.1, 0.02), (40, 20, 0.3, 0.01), (1, 50, 0.5, 0.0)]
)
def test_sbm_csr_is_clean(classes, npc, p_in, p_out):
    g = generate_sbm(classes, npc, p_in, p_out, classes, 5.0, seed=3)
    a = g.adj
    assert (a != a.T).nnz == 0
    assert np.all(a.diagonal() == 0)
    assert np.all(a.data == 1.0)
    rows = np.repeat(np.arange(g.num_nodes), np.diff(a.indptr))
    # strictly increasing columns within each row: sorted, and no edge twice
    assert np.all(np.diff(a.indices)[rows[1:] == rows[:-1]] > 0)


def test_sbm_edge_counts_match_expectation():
    classes, npc, p_in, p_out = 8, 150, 0.05, 0.004
    g = generate_sbm(classes, npc, p_in, p_out, classes, 5.0, seed=0)
    coo = sp.triu(g.adj, k=1).tocoo()
    within = int(np.sum(g.labels[coo.row] == g.labels[coo.col]))
    cross = coo.nnz - within
    pairs_in = classes * npc * (npc - 1) // 2
    pairs_out = classes * (classes - 1) // 2 * npc * npc
    for count, pairs, p in ((within, pairs_in, p_in), (cross, pairs_out, p_out)):
        sigma = np.sqrt(pairs * p * (1.0 - p))
        assert abs(count - pairs * p) < 5.0 * sigma, (count, pairs * p, sigma)


def test_sbm_memory_is_linear_in_nodes_and_edges():
    # n = 30000 in two blocks: one n x n float draw would be 7.2 GB, and even
    # one npc x npc boolean mask is 225 MB, well above the bound.
    tracemalloc.start()
    try:
        g = generate_sbm(2, 15000, 0.001, 0.0002, 4, 8.0, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_nodes == 30000 and g.num_edges > 0
    assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"


def test_sbm_default_means_pairwise_separation():
    sep = 8.0
    g = generate_sbm(4, 50, 0.2, 0.05, 6, sep, seed=5)
    emp = np.stack([g.features[g.labels == c].mean(axis=0) for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            d = np.linalg.norm(emp[i] - emp[j])
            # sample means of 50 unit-noise points sit well within 1 of truth
            assert abs(d - sep) < 1.0


def test_sbm_class_means_override():
    means = np.zeros((3, 4))
    means[1, 0] = 9.0  # classes 0 and 2 share a distribution
    g = generate_sbm(3, 40, 0.3, 0.05, 4, 99.0, seed=2, class_means=means)
    m0 = g.features[g.labels == 0].mean(axis=0)
    m2 = g.features[g.labels == 2].mean(axis=0)
    assert np.linalg.norm(m0 - m2) < 1.0
    with pytest.raises(ShapeError):
        generate_sbm(3, 5, 0.3, 0.05, 4, 1.0, seed=2, class_means=np.zeros((2, 4)))


def test_sbm_contracts():
    with pytest.raises(ContractError):
        generate_sbm(5, 10, 0.3, 0.1, 3, 1.0, seed=0)  # dim < classes, no override
    with pytest.raises(ContractError):
        generate_sbm(2, 10, 0.1, 0.3, 4, 1.0, seed=0)  # p_out > p_in
    with pytest.raises(ContractError):
        generate_sbm(0, 10, 0.3, 0.1, 4, 1.0, seed=0)


@pytest.mark.parametrize("name", ["separation", "feature_noise"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_sbm_rejects_a_non_finite_separation_or_noise(name, value):
    kwargs = {"separation": 2.0, "feature_noise": 1.0, name: value}
    with pytest.raises(ContractError, match=f"{name} must be finite"):
        generate_sbm(3, 4, 0.5, 0.1, 3, seed=0, **kwargs)
