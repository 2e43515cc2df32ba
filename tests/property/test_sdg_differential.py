"""Differential properties of the interprocedural slicer.

Three claims gate the SDG subsystem:

* **degeneracy** — on a single-procedure program the SDG *is* the main
  unit's PDG and the two-pass slicer must reduce to exactly Agrawal's
  Fig. 7 algorithm: same statement nodes, same traversal count, same
  re-associated labels.  Checked over the paper corpus plus a pinned
  fleet of generated programs, structured and goto-ridden.
* **well-formedness across calls** — on multi-procedure programs every
  slice must satisfy the paper's correctness conditions per unit *and*
  the SL205 call-site consistency conditions (an actual node without
  its call, a retained call without its callee, a retained procedure
  without a retained call site are all bugs).  Checked over a pinned
  fleet of generated multi-procedure programs, recursion included.
* **one fixpoint** — the builder's callees-first SCC assembly reaches
  the same summary-edge least fixed point as the monolithic worklist
  kept in ``reference_summary.py``: same per-unit local edge lists,
  offsets, ``summary_edges`` and formal pairs, built cold and built
  through a unit cache warmed by an edit trace.
"""

import random
from pathlib import Path

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.corpus.extras import EXTRA_PROGRAMS
from repro.gen.generator import (
    GeneratorConfig,
    generate_interprocedural,
    generate_structured,
    generate_unstructured,
    random_criterion,
    realize,
)
from repro.lang.ast_nodes import Assign, Num
from repro.lang.errors import SlangError, UnreachableCriterionError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.lint.slice_check import verify_interprocedural
from repro.pdg.builder import analyze_program
from repro.sdg.builder import build_sdg, sdg_for_analysis
from repro.sdg.callgraph import build_call_graph
from repro.sdg.slicer import interprocedural_slice
from repro.service.cache import AnalysisCache
from repro.service.incremental import UnitCache
from repro.slicing.agrawal import agrawal_slice
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.extract import extract_interprocedural_source

from tests.property.reference_summary import reference_sdg
from tests.property.test_incremental_differential import mutate_one_assignment

#: Pinned seeds — at least 25 per fleet, so a regression reproduces.
STRUCTURED_SEEDS = range(3100, 3113)
UNSTRUCTURED_SEEDS = range(7100, 7113)
MULTIPROC_SEEDS = range(9100, 9130)
#: The builder-vs-worklist fleet; odd seeds allow recursion.
ORACLE_SEEDS = range(12000, 12300)
ORACLE_EDITS = 2
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "interprocedural"


def _assert_degenerate_identity(analysis, criterion):
    try:
        reference = agrawal_slice(analysis, criterion)
    except SlangError as error:
        with pytest.raises(type(error)):
            interprocedural_slice(analysis, criterion)
        return
    via_sdg = interprocedural_slice(analysis, criterion)
    assert via_sdg.statement_nodes() == reference.statement_nodes()
    assert via_sdg.traversals == reference.traversals
    assert via_sdg.label_map == reference.label_map


class TestDegeneracy:
    def test_paper_corpus(self):
        for entry in PAPER_PROGRAMS.values():
            analysis = analyze_program(entry.source)
            criterion = SlicingCriterion(*entry.criterion)
            _assert_degenerate_identity(analysis, criterion)

    @pytest.mark.parametrize("seed", STRUCTURED_SEEDS)
    def test_structured_fleet(self, seed):
        rng = random.Random(seed)
        program = realize(generate_structured(rng))
        line, var = random_criterion(rng, program)
        _assert_degenerate_identity(
            analyze_program(program), SlicingCriterion(line=line, var=var)
        )

    @pytest.mark.parametrize("seed", UNSTRUCTURED_SEEDS)
    def test_unstructured_fleet(self, seed):
        rng = random.Random(seed)
        program = realize(generate_unstructured(rng))
        line, var = random_criterion(rng, program)
        _assert_degenerate_identity(
            analyze_program(program), SlicingCriterion(line=line, var=var)
        )


class TestMultiProcWellFormedness:
    @pytest.mark.parametrize("seed", MULTIPROC_SEEDS)
    def test_generated_fleet_verifies_clean(self, seed):
        rng = random.Random(seed)
        config = GeneratorConfig(allow_recursion=(seed % 5 == 0))
        program = realize(generate_interprocedural(rng, config))
        assert program.procs, "generator must emit procedures"
        analysis = analyze_program(program)
        line, var = random_criterion(rng, program)
        try:
            result = interprocedural_slice(
                analysis, SlicingCriterion(line=line, var=var)
            )
        except UnreachableCriterionError:
            # The generator's fallback can pick a dead write; the
            # rejection is the correct answer for it.
            return
        diagnostics = verify_interprocedural(result.sdg_result)
        assert diagnostics == [], (
            f"seed {seed}: {[str(d) for d in diagnostics]}"
        )
        # The extracted slice must itself be valid SL.
        sliced = extract_interprocedural_source(result.sdg_result)
        reparsed = parse_program(sliced)
        assert len(reparsed.procs) <= len(program.procs)

    def test_slice_is_subset_of_program(self):
        rng = random.Random(9001)
        program = realize(generate_interprocedural(rng))
        analysis = analyze_program(program)
        line, var = random_criterion(rng, program)
        result = interprocedural_slice(
            analysis, SlicingCriterion(line=line, var=var)
        )
        sdg_result = result.sdg_result
        for unit in sdg_result.units():
            cfg = sdg_result.sdg.procs[unit].analysis.cfg
            for node_id in sdg_result.statement_nodes(unit):
                assert node_id in cfg.nodes


def _cut_one_dependence(program, rng: random.Random) -> str:
    """Replace one random assignment's right-hand side by a constant and
    return the re-rendered source.  Unlike ``mutate_one_assignment``
    this drops uses, so a procedure's formal pairs can shrink and its
    callers' stitched graphs must not be salvaged under the old key."""
    assigns = [
        stmt for stmt in program.all_statements() if isinstance(stmt, Assign)
    ]
    rng.choice(assigns).value = Num(rng.randint(0, 9))
    return pretty(program)


def _oracle_source(seed: int) -> str:
    config = GeneratorConfig(allow_recursion=seed % 2 == 1)
    return pretty(generate_interprocedural(random.Random(seed), config))


def _corpus_sources():
    for entry in list(PAPER_PROGRAMS.values()) + list(EXTRA_PROGRAMS.values()):
        yield entry.source
    for path in sorted(EXAMPLES.glob("*.sl")):
        yield path.read_text(encoding="utf-8")


def _assert_matches_oracle(sdg, source: str) -> None:
    """*sdg* equals the worklist oracle's SDG of *source*: per-unit
    local edge lists and offsets, summary-edge count, formal pairs."""
    oracle = reference_sdg(source)
    assert list(sdg.procs) == list(oracle.procs)
    for unit, info in sdg.procs.items():
        expected = oracle.procs[unit]
        assert info.offset == expected.offset, unit
        assert list(info.local.edges()) == list(expected.local.edges()), unit
    assert sdg.summary_edges == oracle.summary_edges
    assert sdg.unit_pairs == oracle.unit_pairs


class TestOneBuilderMatchesWorklistOracle:
    def test_corpus_cold(self):
        for source in _corpus_sources():
            _assert_matches_oracle(build_sdg(source), source)

    def test_fleet_is_a_quarter_recursive(self):
        recursive = sum(
            bool(build_call_graph(parse_program(_oracle_source(seed))).recursive)
            for seed in ORACLE_SEEDS
        )
        assert recursive * 4 >= len(ORACLE_SEEDS), recursive

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_generated_cold(self, seed):
        source = _oracle_source(seed)
        _assert_matches_oracle(sdg_for_analysis(analyze_program(source)), source)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_generated_through_warm_unit_cache(self, seed):
        source = _oracle_source(seed)
        cache = AnalysisCache(capacity=4, unit_cache=UnitCache())
        rng = random.Random(seed)
        for step in range(ORACLE_EDITS + 1):
            analysis = cache.get_or_build(source)
            _assert_matches_oracle(sdg_for_analysis(analysis), source)
            edit = _cut_one_dependence if step % 2 == 0 else mutate_one_assignment
            source = edit(parse_program(source), rng)
        stats = cache.unit_cache.stats.snapshot()
        assert stats["units_reused"] > 0, stats
