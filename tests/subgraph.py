"""The induced subgraph: the oracle a stream's per-task blocks are checked against."""

import numpy as np

from taam.errors import ContractError
from taam.graph import SparseGraph


def induced_subgraph(g: SparseGraph, nodes) -> SparseGraph:
    """Subgraph on the node ids `nodes`, keeping only edges with both
    endpoints inside; node nodes[k] of `g` becomes node k."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise ContractError("induced_subgraph needs a non-empty node set")
    if nodes.min() < 0 or nodes.max() >= g.num_nodes:
        raise ContractError(f"node id out of range for graph with {g.num_nodes} nodes")
    return SparseGraph(g.adj[nodes][:, nodes], g.features[nodes], g.labels[nodes])
