"""Slice payloads strip ENTRY and EXIT by id, not by node kind.

``SliceResult.statement_nodes``, ``SDGSliceResult.statement_nodes`` and
Lyle's fixed point drop a unit's two boundary nodes by
``cfg.entry_id``/``cfg.exit_id``.  That is the kind filter they replaced
only because the CFG builder makes exactly one ENTRY and one EXIT per
unit.  These tests pin that invariant, and hold the by-id strip to the
by-kind filter on every criterion of the corpus and of generated
structured, unstructured and multi-procedure programs.
"""

import random

import pytest

from repro.cfg.graph import NodeKind
from repro.corpus import PAPER_PROGRAMS
from repro.gen.generator import (
    generate_interprocedural,
    generate_structured,
    generate_unstructured,
    realize,
)
from repro.lang.errors import SliceError
from repro.lang.pretty import pretty
from repro.pdg.builder import analyze_program
from repro.sdg.builder import sdg_for_analysis
from repro.service.engine import enumerate_criteria
from repro.slicing.registry import algorithm_names, get_algorithm

BOUNDARY = (NodeKind.ENTRY, NodeKind.EXIT)

#: Every single-unit registry algorithm (``interprocedural`` is covered
#: by the SDG test below).
ALGORITHMS = [name for name in algorithm_names() if name != "interprocedural"]


def by_kind(cfg, nodes):
    """The filter the by-id strip replaced."""
    return [
        node_id for node_id in sorted(nodes)
        if cfg.nodes[node_id].kind not in BOUNDARY
    ]


def _single_unit_programs():
    for name in sorted(PAPER_PROGRAMS):
        yield f"corpus:{name}", PAPER_PROGRAMS[name].source
    for seed in range(4):
        yield f"structured:{seed}", pretty(
            realize(generate_structured(random.Random(seed)))
        )
        yield f"unstructured:{seed}", pretty(
            realize(generate_unstructured(random.Random(seed)))
        )


def _multi_unit_programs():
    for seed in range(4):
        yield f"multi:{seed}", pretty(
            generate_interprocedural(random.Random(seed))
        )


SINGLE = [pytest.param(src, id=name) for name, src in _single_unit_programs()]
MULTI = [pytest.param(src, id=name) for name, src in _multi_unit_programs()]


def _unit_cfgs(analysis):
    if not analysis.program.procs:
        return [analysis.cfg]
    sdg = sdg_for_analysis(analysis)
    return [unit.analysis.cfg for unit in sdg.procs.values()]


@pytest.mark.parametrize("source", SINGLE + MULTI)
def test_one_entry_and_one_exit_per_unit(source):
    for cfg in _unit_cfgs(analyze_program(source)):
        for kind, node_id in (
            (NodeKind.ENTRY, cfg.entry_id), (NodeKind.EXIT, cfg.exit_id)
        ):
            assert [
                node.id for node in cfg.nodes.values() if node.kind == kind
            ] == [node_id]


@pytest.mark.parametrize("source", SINGLE)
def test_slice_statement_nodes_match_the_kind_filter(source):
    analysis = analyze_program(source)
    checked = 0
    for criterion in enumerate_criteria(analysis, mode="all"):
        for algorithm in ALGORITHMS:
            try:
                result = get_algorithm(algorithm)(analysis, criterion)
            except SliceError:
                continue
            # EXIT is never a member; add it so the strip is exercised.
            for nodes in (result.nodes, result.nodes | {analysis.cfg.exit_id}):
                result.nodes = nodes
                assert result.statement_nodes() == by_kind(
                    analysis.cfg, nodes
                )
            checked += 1
    assert checked


@pytest.mark.parametrize("source", MULTI)
def test_sdg_statement_nodes_match_the_kind_filter(source):
    analysis = analyze_program(source)
    slicer = get_algorithm("interprocedural")
    checked = 0
    for criterion in enumerate_criteria(analysis, mode="all"):
        try:
            sdg_result = slicer(analysis, criterion).sdg_result
        except SliceError:
            continue
        for unit, nodes in sdg_result.per_proc.items():
            cfg = sdg_result.sdg.procs[unit].analysis.cfg
            assert sdg_result.statement_nodes(unit) == by_kind(cfg, nodes)
            checked += 1
    assert checked
