"""Citation text format parsing/writing and dataset spec resolution."""

import logging

import numpy as np
import pytest

from taam import datasets, fileio
from taam.datasets import (
    load_planetoid,
    parse_sbm_spec,
    resolve_dataset,
    write_planetoid,
)
from taam.errors import ContractError, ParseError
from taam.graph import generate_sbm


CONTENT = (
    "n1\t1.0\t0.0\t0.5\tlabel_b\n"
    "n2\t0.0\t2.0\t1.0\tlabel_a\n"
    "\n"
    "n3\t1.5\t1.0\t0.0\tlabel_b\n"
    "n4\t0.0\t0.0\t0.0\tlabel_c\n"
)
CITES = (
    "n1\tn2\n"
    "n3\tn1\n"
    "n9\tn2\n"
    "n4\tn4\n"
)


def write_fixture(tmp_path, content=CONTENT, cites=CITES):
    c = tmp_path / "toy.content"
    e = tmp_path / "toy.cites"
    c.write_text(content)
    e.write_text(cites)
    return c, e


def test_parse_fixture(tmp_path, caplog):
    c, e = write_fixture(tmp_path)
    with caplog.at_level(logging.WARNING):
        graph = load_planetoid(c, e)
    assert graph.num_nodes == 4
    # node order is first appearance, label ints follow sorted label strings:
    # label_a -> 0, label_b -> 1, label_c -> 2
    assert np.array_equal(graph.labels, [1, 0, 1, 2])
    assert np.array_equal(graph.features[1], [0.0, 2.0, 1.0])
    # n9 is unknown (1 dangling), n4->n4 is a self-loop and vanishes
    assert "skipped 1 citation(s)" in caplog.text
    a = graph.adj.toarray()
    assert np.array_equal(a, np.array([
        [0, 1, 1, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
    ], dtype=float))


def test_parse_errors_carry_line_numbers(tmp_path):
    c, e = write_fixture(tmp_path, content="n1\tlabel_only\n" + CONTENT)
    with pytest.raises(ParseError, match=r"\.content:1"):
        load_planetoid(c, e)

    c, e = write_fixture(tmp_path, content=CONTENT + "n1\t0.0\t0.0\t0.0\tlabel_a\n")
    with pytest.raises(ParseError, match="duplicate node id 'n1'"):
        load_planetoid(c, e)

    c, e = write_fixture(tmp_path, content=CONTENT + "n9\t1.0\t2.0\tlabel_a\n")
    with pytest.raises(ParseError, match="2 features, expected 3"):
        load_planetoid(c, e)

    c, e = write_fixture(tmp_path, content=CONTENT + "n9\t1.0\toops\t0.0\tlabel_a\n")
    with pytest.raises(ParseError, match="non-numeric"):
        load_planetoid(c, e)

    c, e = write_fixture(tmp_path, cites="n1\tn2\tn3\n")
    with pytest.raises(ParseError, match=r"\.cites:1"):
        load_planetoid(c, e)

    c, e = write_fixture(tmp_path, content="\n\n")
    with pytest.raises(ParseError, match="no content lines"):
        load_planetoid(c, e)


@pytest.mark.parametrize("suffix,line", [("content", 2), ("cites", 1)])
def test_non_utf8_file_is_a_parse_error(tmp_path, suffix, line):
    c, e = write_fixture(tmp_path)
    path = c if suffix == "content" else e
    path.write_bytes(path.read_bytes().replace(b"n2", b"n\xff2", 1))
    with pytest.raises(ParseError, match=rf"toy\.{suffix}:{line}: not UTF-8"):
        load_planetoid(c, e)


def test_row_normalize_leaves_zero_rows_alone(tmp_path):
    c, e = write_fixture(tmp_path)
    g = load_planetoid(c, e, row_normalize=True)
    sums = g.features.sum(axis=1)
    assert sums[0] == pytest.approx(1.0)
    assert sums[3] == 0.0  # n4 has all-zero features; left untouched
    plain = load_planetoid(c, e, row_normalize=False)
    assert np.array_equal(plain.features[0], [1.0, 0.0, 0.5])


def test_write_then_parse_round_trips_bitwise(tmp_path, caplog, monkeypatch):
    written = []

    def recording_write_atomic(path, chunks):
        written.append(path)
        fileio.write_atomic(path, chunks)

    monkeypatch.setattr(datasets, "write_atomic", recording_write_atomic)
    g = generate_sbm(3, 12, 0.4, 0.1, 5, 6.0, seed=9)
    prefix = tmp_path / "synth"
    content, cites = write_planetoid(g, prefix)
    assert written == [content, cites]  # each file whole or not at all
    with caplog.at_level(logging.WARNING):
        back = load_planetoid(content, cites)
    assert np.array_equal(back.features, g.features)
    assert np.array_equal(back.labels, g.labels)
    assert np.array_equal(back.adj.indptr, g.adj.indptr)
    assert np.array_equal(back.adj.indices, g.adj.indices)
    assert "skipped" not in caplog.text  # no dangling citation
    with open(content) as fh:
        assert {line.rstrip("\n").rsplit("\t", 1)[1] for line in fh} == {"class_00", "class_01", "class_02"}


def test_parse_sbm_spec_defaults_and_overrides():
    kw = parse_sbm_spec("sbm:", default_seed=7)
    assert kw == {"num_classes": 6, "nodes_per_class": 60, "p_in": 0.1, "p_out": 0.02,
                  "feature_dim": 32, "separation": 8.0, "feature_noise": 1.0, "seed": 7}
    kw = parse_sbm_spec("sbm:classes=3,npc=10,sep=4.5,seed=2", default_seed=7)
    assert (kw["num_classes"], kw["nodes_per_class"], kw["separation"], kw["seed"]) == (3, 10, 4.5, 2)
    with pytest.raises(ContractError, match="keys:"):
        parse_sbm_spec("sbm:bogus=1", default_seed=0)
    with pytest.raises(ContractError, match="bad sbm spec value"):
        parse_sbm_spec("sbm:classes=many", default_seed=0)


def test_resolve_dataset_sbm_spec():
    g = resolve_dataset("sbm:classes=3,npc=10,dim=4,sep=5", seed=1)
    assert g.num_nodes == 30
    # the run seed feeds the generator unless the spec pins its own
    h = resolve_dataset("sbm:classes=3,npc=10,dim=4,sep=5", seed=2)
    assert not np.array_equal(g.features, h.features)


def test_resolve_dataset_file_forms(tmp_path):
    g = generate_sbm(2, 8, 0.5, 0.1, 3, 5.0, seed=1)
    d = tmp_path / "toy"
    d.mkdir()
    write_planetoid(g, d / "toy")
    for spec in (d / "toy", d, d / "toy.content", d / "toy.cites"):
        back = resolve_dataset(str(spec), seed=0)
        assert back.num_nodes == 16
    with pytest.raises(FileNotFoundError, match="missing.content"):
        resolve_dataset(str(tmp_path / "missing"), seed=0)
