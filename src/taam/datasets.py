"""Dataset IO: citation-network text files and synthetic graph specs.

The citation format is two tab-separated files sharing a name prefix:

    <prefix>.content    node_id <TAB> f_1 .. f_d <TAB> label_string
    <prefix>.cites      cited_id <TAB> citing_id

Node ids become indices in first-appearance order, label strings map to
integers in lexicographic order, citations are symmetrized, and citations
mentioning unknown node ids are skipped with one counted warning.

A dataset argument of the form "sbm:key=value,..." generates a block-model
graph instead of reading files (keys: those of `SBM_PARAMS`, and seed,
which defaults to the run seed).
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .errors import ContractError, ParseError, text_lines
from .fileio import write_atomic
from .graph import SparseGraph, generate_sbm

log = logging.getLogger(__name__)

# Each parameter of an "sbm:" spec: its key, its generate_sbm keyword, its
# default (whose type parses the value) and its `taam gen-sbm` flag.
SBM_PARAMS = (
    ("classes", "num_classes", 6, "--classes"),
    ("npc", "nodes_per_class", 60, "--nodes-per-class"),
    ("p_in", "p_in", 0.1, "--p-in"),
    ("p_out", "p_out", 0.02, "--p-out"),
    ("dim", "feature_dim", 32, "--dim"),
    ("sep", "separation", 8.0, "--separation"),
    ("noise", "feature_noise", 1.0, "--noise"),
)


def load_planetoid(content_path, cites_path, row_normalize: bool = False) -> SparseGraph:
    ids: dict[str, int] = {}
    rows: list[np.ndarray] = []
    label_strings: list[str] = []
    width = None
    for lineno, raw in text_lines(content_path, ParseError):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ParseError(f"{content_path}:{lineno}: expected id, features, label")
        node_id, feats, label = parts[0], parts[1:-1], parts[-1]
        if node_id in ids:
            raise ParseError(f"{content_path}:{lineno}: duplicate node id {node_id!r}")
        if width is None:
            width = len(feats)
        elif len(feats) != width:
            raise ParseError(f"{content_path}:{lineno}: {len(feats)} features, expected {width}")
        try:
            rows.append(np.array([float(v) for v in feats], dtype=np.float64))
        except ValueError:
            raise ParseError(f"{content_path}:{lineno}: non-numeric feature value") from None
        ids[node_id] = len(ids)
        label_strings.append(label)
    if not rows:
        raise ParseError(f"{content_path}: no content lines")

    label_index = {name: i for i, name in enumerate(sorted(set(label_strings)))}
    labels = np.array([label_index[s] for s in label_strings], dtype=np.int64)
    features = np.stack(rows)

    edges = []
    dangling = 0
    for lineno, raw in text_lines(cites_path, ParseError):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{cites_path}:{lineno}: expected cited<TAB>citing")
        a, b = ids.get(parts[0]), ids.get(parts[1])
        if a is None or b is None:
            dangling += 1
            continue
        edges.append((a, b))
    if dangling:
        log.warning("skipped %d citation(s) referencing unknown node ids", dangling)

    if row_normalize:
        log.info("row-normalizing features to unit sum")
        sums = features.sum(axis=1, keepdims=True)
        features = features / np.where(sums == 0.0, 1.0, sums)
    return SparseGraph.from_edges(len(ids), edges, features, labels)


def write_planetoid(graph: SparseGraph, prefix) -> tuple[str, str]:
    """Write a graph in the citation text format; inverse of load_planetoid.

    Features are written with repr() so float64 values round-trip exactly;
    labels become class_00, class_01, ... which sort lexicographically in
    numeric order.  Each file is written whole or not at all.
    """
    content_path = f"{prefix}.content"
    cites_path = f"{prefix}.cites"

    def content_lines():
        for i in range(graph.num_nodes):
            feats = "\t".join(repr(float(v)) for v in graph.features[i])
            yield f"n{i}\t{feats}\tclass_{int(graph.labels[i]):02d}\n".encode()

    adj = graph.adj.tocoo()
    write_atomic(content_path, content_lines())
    write_atomic(cites_path, (f"n{i}\tn{j}\n".encode() for i, j in zip(adj.row, adj.col) if i < j))
    return content_path, cites_path


def parse_sbm_spec(spec: str, default_seed: int) -> dict:
    """Turn "sbm:classes=6,npc=60,..." into generate_sbm keyword arguments."""
    body = spec[len("sbm:"):] if spec.startswith("sbm:") else spec
    values = {**{key: default for key, _, default, _ in SBM_PARAMS}, "seed": default_seed}
    if body.strip():
        for item in body.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep or key not in values:
                raise ContractError(f"bad sbm spec item {item!r}; keys: {', '.join(sorted(values))}")
            values[key] = val.strip()
    try:
        kwargs = {name: type(default)(values[key]) for key, name, default, _ in SBM_PARAMS}
        return {**kwargs, "seed": int(values["seed"])}
    except ValueError as e:
        raise ContractError(f"bad sbm spec value in {spec!r}") from e


def resolve_dataset(spec: str, seed: int, row_normalize: bool = False) -> SparseGraph:
    """Load the dataset named by `spec`: an sbm: string or a file prefix.

    A path may be given as a prefix (data/cora/cora), as either file's path,
    or as a directory containing <dirname>.content/.cites.
    """
    if spec.startswith("sbm:"):
        return generate_sbm(**parse_sbm_spec(spec, seed))
    prefix = spec
    for ext in (".content", ".cites"):
        if prefix.endswith(ext):
            prefix = prefix[: -len(ext)]
    if os.path.isdir(prefix):
        prefix = os.path.join(prefix, os.path.basename(os.path.normpath(prefix)))
    content, cites = prefix + ".content", prefix + ".cites"
    missing = [p for p in (content, cites) if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(
            f"dataset files not found: {', '.join(missing)} "
            f"(expected <prefix>.content and <prefix>.cites)"
        )
    return load_planetoid(content, cites, row_normalize=row_normalize)
