"""Undirected graphs in CSR form, normalization, and feature propagation.

The graph type holds its adjacency as one scipy CSR matrix together with
node features and integer labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, NumericError, ShapeError
from .rng import rng_for


@dataclass
class SparseGraph:
    """Symmetric unweighted graph with dense node features and labels.

    adj is the (n, n) CSR adjacency matrix (values all 1.0, no self-loops),
    features is (n, d) float64, labels is (n,) int64.
    """

    adj: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.validate()

    @property
    def num_nodes(self) -> int:
        return int(self.adj.shape[0])

    @property
    def num_edges(self) -> int:
        """Directed entry count; each undirected edge contributes two."""
        return int(self.adj.nnz)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def validate(self) -> None:
        a = self.adj
        if not isinstance(a, sp.csr_matrix):
            raise ContractError(f"adjacency must be a scipy.sparse.csr_matrix, got {type(a).__name__}")
        # scipy's constructor leaves index ranges unchecked, and scipy
        # kernels given a malformed CSR can corrupt memory, so check it first.
        try:
            a.check_format(full_check=True)
        except ValueError as e:
            raise ContractError(f"malformed CSR adjacency: {e}") from None
        n = self.num_nodes
        if a.shape != (n, n):
            raise ShapeError(f"adjacency shape {a.shape} is not square")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ShapeError(f"features shape {self.features.shape} does not match {n} nodes")
        if not np.isfinite(self.features).all():
            raise NumericError("non-finite feature value")
        if self.labels.shape != (n,):
            raise ShapeError(f"labels shape {self.labels.shape} does not match {n} nodes")
        if (a != a.T).nnz != 0:
            raise ContractError("adjacency is not symmetric")

    @classmethod
    def from_edges(cls, num_nodes, edges, features, labels) -> "SparseGraph":
        """Build from an (E, 2) integer array or an iterable of (i, j) pairs.

        Edges are symmetrized and deduplicated; self-loops in the input are
        dropped (normalization adds its own).  O(E log E): duplicates go
        through a sort of the flat keys i * n + j, which order exactly like
        the (i, j) pairs, so each CSR row comes out with sorted indices.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= num_nodes):
            raise ContractError(f"edge endpoint out of range for {num_nodes} nodes")
        e = e[e[:, 0] != e[:, 1]]
        i, j = e[:, 0], e[:, 1]
        keys = np.sort(np.concatenate([i * num_nodes + j, j * num_nodes + i]))
        # Dedup by sort: np.unique on NumPy >= 2.3 hashes first, ~40x slower at 240k keys.
        keys = keys[np.diff(keys, prepend=-1) != 0]
        rows, cols = np.divmod(keys, num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
        adj = sp.csr_matrix((np.ones(keys.shape[0]), cols, indptr), shape=(num_nodes, num_nodes))
        return cls(adj, features, labels)


def normalize_adjacency(g: SparseGraph) -> sp.csr_matrix:
    """Symmetrically normalized adjacency with self-loops.

    Returns D^{-1/2} (A + I) D^{-1/2} where D is the degree matrix of A + I.
    Self-loops guarantee every row has positive degree, so isolated nodes get
    the identity row.

    Each row of the result depends on that row of A alone: entry (i, j) is
    (d_i * a_ij) * d_j, the multiply order of the two diagonal products, and
    rows keep A's column order.  So the normalized adjacency of a
    block-diagonal graph is, block by block, that of each block on its own.
    """
    a = g.adj
    if not a.has_canonical_format:
        # scipy adds unsorted or duplicated rows by another method, chosen
        # for the whole matrix; sorting first keeps the sum row by row.
        a = a.copy()
        a.sum_duplicates()
    a = a + sp.identity(g.num_nodes, format="csr")
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    a.data = (np.repeat(inv_sqrt, np.diff(a.indptr)) * a.data) * inv_sqrt[a.indices]
    return a


# Bytes per column block in `propagate`: bounds its temporaries, whatever the
# number of nodes, at a few blocks of this size.
PROPAGATE_BLOCK_BYTES = 1 << 20


def propagate(s: sp.csr_matrix, x: np.ndarray, hops: int, rows=None) -> np.ndarray:
    """Apply the propagation operator `hops` times: S^hops @ X, or only its
    rows `rows` (integer ids, any order, repeats allowed) when given.

    hops=0 returns a copy of X (or of X[rows]).  Linear in X.  Each output
    entry (i, c) is accumulated from row i of S alone, in its stored order,
    and from column c of X alone.  So the columns go through in blocks of
    PROPAGATE_BLOCK_BYTES, and the last hop multiplies by S[rows] only; the
    result is the same bits as (S^hops @ X)[rows] in one pass.  The first
    hops - 1 hops still run over every row.
    """
    if hops < 0:
        raise ContractError(f"hops must be >= 0, got {hops}")
    x = np.asarray(x, dtype=np.float64)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size and (rows.min() < 0 or rows.max() >= s.shape[0]):
            raise ContractError(f"row id out of range for {s.shape[0]} rows")
    if hops == 0:
        return x.copy() if rows is None else x[rows]
    last = s if rows is None else s[rows]
    out = np.empty((last.shape[0], x.shape[1]))
    width = max(1, PROPAGATE_BLOCK_BYTES // (8 * max(1, s.shape[0])))
    for lo in range(0, x.shape[1], width):
        part = x[:, lo : lo + width]
        for _ in range(hops - 1):
            part = s @ part
        out[:, lo : lo + width] = last @ part
    return out


def generate_sbm(
    num_classes: int,
    nodes_per_class: int,
    p_in: float,
    p_out: float,
    feature_dim: int,
    separation: float,
    seed: int,
    class_means: np.ndarray | None = None,
    feature_noise: float = 1.0,
) -> SparseGraph:
    """Stochastic block model with Gaussian features, one block per class.

    Edges are drawn independently with probability p_in inside a block and
    p_out across blocks.  Features are N(mean_c, noise^2 I); the default
    means are scaled one-hot vectors placed so every pair of class means is
    exactly `separation` apart (requires feature_dim >= num_classes).  Pass
    `class_means` (num_classes, feature_dim) to override, e.g. to give two
    classes identical feature distributions.

    Deterministic per seed: adjacency is drawn first, then features.  The
    edge draw takes O(n + edges) time and memory (Batagelj & Brandes 2005,
    "Efficient generation of large random networks"): geometric skipping
    runs first over the flat index space of all within-block pairs i < j,
    kept with p_in, then over that of all cross-block pairs, kept with
    p_out, and each kept index maps back to its pair exactly.
    """
    if num_classes < 1 or nodes_per_class < 1:
        raise ContractError("need at least one class and one node per class")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ContractError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in} p_out={p_out}")
    for name, value in (("separation", separation), ("feature_noise", feature_noise)):
        if not np.isfinite(value):
            raise ContractError(f"{name} must be finite, got {value}")
    n = num_classes * nodes_per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), nodes_per_class)
    rng = rng_for(seed, "sbm")

    within = _bernoulli_positions(rng, num_classes * _triangle(nodes_per_class), p_in)
    cross = _bernoulli_positions(rng, _triangle(num_classes) * nodes_per_class**2, p_out)
    edges = np.concatenate(
        [
            _within_block_pairs(nodes_per_class, within),
            _cross_block_pairs(num_classes, nodes_per_class, cross),
        ]
    )

    if class_means is None:
        if feature_dim < num_classes:
            raise ContractError(
                f"default class means need feature_dim >= num_classes "
                f"({feature_dim} < {num_classes}); pass class_means explicitly"
            )
        means = np.zeros((num_classes, feature_dim))
        means[np.arange(num_classes), np.arange(num_classes)] = separation / np.sqrt(2.0)
    else:
        means = np.asarray(class_means, dtype=np.float64)
        if means.shape != (num_classes, feature_dim):
            raise ShapeError(f"class_means shape {means.shape} != ({num_classes}, {feature_dim})")
    features = means[labels] + feature_noise * rng.normal(size=(n, feature_dim))
    return SparseGraph.from_edges(n, edges, features, labels)


def _triangle(m: int) -> int:
    """Number of unordered pairs among m items."""
    return m * (m - 1) // 2


def _bernoulli_positions(rng, total: int, p: float) -> np.ndarray:
    """Sorted indices of [0, total), each kept independently with probability p.

    The gaps between kept indices are i.i.d. Geometric(p), so the draw costs
    O(kept) rather than O(total).  Gaps come in chunks sized to cover the
    whole range with high probability; a short chunk is followed by another.
    """
    if total == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(total, dtype=np.int64)
    mean = total * p
    chunk = int(mean + 5.0 * np.sqrt(mean * (1.0 - p))) + 16
    parts = []
    last = -1
    while True:
        pos = last + np.cumsum(rng.geometric(p, size=chunk))
        if pos[-1] >= total:
            parts.append(pos[: np.searchsorted(pos, total)])
            return np.concatenate(parts)
        parts.append(pos)
        last = int(pos[-1])


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(x)) for non-negative int64 x below 2**52."""
    s = np.floor(np.sqrt(x.astype(np.float64))).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


def _within_block_pairs(npc: int, k: np.ndarray) -> np.ndarray:
    """Map flat within-block indices to (i, j) node pairs with i < j.

    Block c owns indices [c * T, (c + 1) * T) with T = npc(npc - 1)/2; inside a
    block, r = b(b - 1)/2 + a encodes local nodes a < b.
    """
    block, r = np.divmod(k, _triangle(npc))
    b = (_isqrt(8 * r + 1) + 1) // 2
    a = r - b * (b - 1) // 2
    base = block * npc
    return np.stack([base + a, base + b], axis=1)


def _cross_block_pairs(num_classes: int, npc: int, k: np.ndarray) -> np.ndarray:
    """Map flat cross-block indices to (i, j) node pairs with block(i) < block(j).

    Rows run in node order; a node of block c pairs with every node of the
    blocks after it, npc * (num_classes - 1 - c) partners.
    """
    partners = npc * np.arange(num_classes - 1, -1, -1, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(npc * partners)[:-1]])
    block = np.searchsorted(starts, k, side="right") - 1
    row, col = np.divmod(k - starts[block], partners[block])
    return np.stack([block * npc + row, (block + 1) * npc + col], axis=1)
