"""Finished graphs are sealed: every per-node adjacency list is a tuple.

Sealing keeps a cached analysis small and invisible to the cycle
collector (tuples of atoms are untracked); it also turns any late
mutation of a shared graph into an error instead of a silent change.
"""

from __future__ import annotations

import pytest

from repro.cfg.graph import EdgeLabel
from repro.corpus import PAPER_PROGRAMS
from repro.pdg.builder import analyze_program
from repro.pdg.graph import DATA


@pytest.fixture(scope="module")
def analysis():
    return analyze_program(PAPER_PROGRAMS["fig3a"].source)


def _tables(analysis):
    return {
        "cfg._succ": analysis.cfg._succ,
        "cfg._pred": analysis.cfg._pred,
        "pdg._forward": analysis.pdg._forward,
        "pdg._back": analysis.pdg._back,
        "cdg._deps": analysis.cdg._deps,
        "cdg._controlled": analysis.cdg._controlled,
        "ddg._deps": analysis.ddg._deps,
        "ddg._uses": analysis.ddg._uses,
        "pdt._children": analysis.pdt._children,
        "lst._children": analysis.lst._children,
        "augmented_cfg._succ": analysis.augmented_cfg._succ,
        "augmented_pdg._back": analysis.augmented_pdg._back,
    }


def test_every_table_is_sealed(analysis):
    for name, table in _tables(analysis).items():
        assert table, name
        assert all(type(row) is tuple for row in table.values()), name


def test_sealed_tables_reject_append(analysis):
    for name, table in _tables(analysis).items():
        row = next(iter(table.values()))
        with pytest.raises(AttributeError):
            row.append(row[0] if row else 0)


def test_adding_to_a_sealed_graph_fails():
    analysis = analyze_program(PAPER_PROGRAMS["fig3a"].source)
    cfg = analysis.cfg
    with pytest.raises(AttributeError):
        cfg.add_edge(cfg.entry_id, cfg.exit_id, EdgeLabel.FALSE)
    node = next(iter(analysis.pdg._back))
    supplier = analysis.pdg._back[node][0][0]
    with pytest.raises(AttributeError):
        analysis.pdg.add_edge(supplier, node, DATA, "fresh")


def test_queries_read_sealed_tables(analysis):
    cfg = analysis.cfg
    assert cfg.successors(cfg.entry_id) == list(cfg._succ[cfg.entry_id])
    assert isinstance(analysis.pdt.children_of(cfg.exit_id), list)
    assert list(analysis.pdt.preorder())[0] == cfg.exit_id
