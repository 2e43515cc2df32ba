"""Differential properties of incremental re-slicing (DESIGN.md §14).

The incremental layer is pure acceleration: an edit-trace served by a
persistent :class:`~repro.service.cache.AnalysisCache` (whose unit
cache salvages untouched procedures' analyses and stitched SDG graphs)
must produce slice payloads **byte-identical** to a cold recompute of
each edited program, its SDG built by the monolithic worklist oracle —
nodes, lines, ``label_map``, ``traversals``, notes, per-procedure
breakdowns, and the ``summary_edges`` count all included, since
:func:`slice_result_payload` is the protocol surface clients actually
see.

Edit model: each step perturbs one random assignment's right-hand side
(wrapping it in ``+ k``), re-renders the canonical source, and
re-slices a fresh random criterion.  The mutation preserves the line
layout, so every *other* unit's fingerprint is unchanged — the trace
exercises exactly the salvage paths (and the counters prove reuse
actually happened, so these tests cannot silently pass through the
cold path).
"""

import random

import pytest

from repro.gen.generator import (
    GeneratorConfig,
    generate_interprocedural,
    generate_structured,
    generate_unstructured,
    random_criterion,
    realize,
)
from repro.lang.ast_nodes import Assign, Binary, Num, Program
from repro.lang.errors import SliceError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.pdg.builder import analyze_program
from repro.service.cache import AnalysisCache
from repro.service.incremental import UnitCache, incremental
from repro.service.protocol import slice_result_payload
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import get_algorithm

from tests.property.reference_summary import reference_sdg

EDITS_PER_TRACE = 4


def mutate_one_assignment(program: Program, rng: random.Random) -> str:
    """Wrap one random assignment's RHS in ``(... + k)`` in place and
    return the re-rendered source.  Line layout is preserved, so only
    the edited unit's fingerprint changes."""
    assigns = [
        stmt
        for stmt in program.all_statements()
        if isinstance(stmt, Assign)
    ]
    if not assigns:
        # Degenerate generated program (writes only): nothing to edit,
        # the trace step re-slices the unchanged source instead.
        return pretty(program)
    target = rng.choice(assigns)
    target.value = Binary(op="+", left=target.value, right=Num(rng.randint(1, 9)))
    return pretty(program)


def fresh_payload(source: str, criterion: SlicingCriterion, algorithm: str):
    """The reference answer: a cold build, incremental off, whose SDG
    comes from the monolithic worklist oracle (``reference_summary.py``)
    so the trace is checked against an independent fixpoint.

    Returns either the payload dict or ``("error", message)`` — a
    criterion the slicers reject (e.g. a statically dead write) must be
    rejected identically by both paths."""
    with incremental(False):
        analysis = analyze_program(source)
        if algorithm == "interprocedural":
            analysis._sdg = reference_sdg(source, main_analysis=analysis)
        try:
            result = get_algorithm(algorithm)(analysis, criterion)
        except SliceError as exc:
            return ("error", str(exc))
        return slice_result_payload(result)


def run_trace(seed: int, make_program, algorithm: str) -> None:
    rng = random.Random(seed)
    program = make_program(rng)
    cache = AnalysisCache(capacity=8, unit_cache=UnitCache())
    source = pretty(program)
    # One criterion is pinned across the whole trace: a recurring query
    # under edit churn is exactly the shape the slice-result salvage
    # tier answers, so every step checks it against a cold recompute.
    pinned = random_criterion(random.Random(seed), parse_program(source))
    for step in range(EDITS_PER_TRACE):
        program = parse_program(source)
        line, var = random_criterion(random.Random(seed * 101 + step), program)
        analysis = cache.get_or_build(source)
        for criterion in (
            SlicingCriterion(line=line, var=var),
            SlicingCriterion(line=pinned[0], var=pinned[1]),
        ):
            try:
                got = slice_result_payload(
                    get_algorithm(algorithm)(analysis, criterion)
                )
            except SliceError as exc:
                got = ("error", str(exc))
            want = fresh_payload(source, criterion, algorithm)
            assert got == want, (
                f"seed {seed} step {step} criterion "
                f"({criterion.line}, {criterion.var!r}): incremental "
                "payload diverged from cold recompute"
            )
        source = mutate_one_assignment(program, rng)
    stats = cache.unit_cache.stats.snapshot()
    if len(program.procs) >= 2:
        # Multi-proc traces must actually salvage untouched units —
        # otherwise this suite would silently test the cold path twice.
        assert stats["units_reused"] > 0, stats


class TestSingleUnitTraces:
    @pytest.mark.parametrize("seed", range(6))
    def test_structured_edit_trace(self, seed):
        run_trace(
            seed,
            lambda rng: realize(generate_structured(rng, None)),
            "agrawal",
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_unstructured_edit_trace(self, seed):
        run_trace(
            seed,
            lambda rng: realize(generate_unstructured(rng, None)),
            "agrawal",
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_conventional_edit_trace(self, seed):
        run_trace(
            seed,
            lambda rng: realize(generate_structured(rng, None)),
            "conventional",
        )


class TestMultiProcTraces:
    @pytest.mark.parametrize("seed", range(6))
    def test_interprocedural_edit_trace(self, seed):
        run_trace(
            seed,
            lambda rng: generate_interprocedural(rng),
            "interprocedural",
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_recursive_edit_trace(self, seed):
        config = GeneratorConfig(allow_recursion=True)
        run_trace(
            seed,
            lambda rng: generate_interprocedural(rng, config),
            "interprocedural",
        )


class TestFormattingInvariance:
    def test_comment_edit_salvages_everything(self):
        """A same-line comment edit changes the source hash but no unit
        fingerprint: the whole analysis is salvaged and the payload is
        identical."""
        source = pretty(generate_interprocedural(random.Random(7)))
        program = parse_program(source)  # realizes line numbers
        line, var = random_criterion(random.Random(0), program)
        criterion = SlicingCriterion(line=line, var=var)
        cache = AnalysisCache(capacity=8, unit_cache=UnitCache())
        first = cache.get_or_build(source)
        got_first = slice_result_payload(
            get_algorithm("interprocedural")(first, criterion)
        )
        lines = source.splitlines()
        lines[0] += "  // reviewed"
        edited = "\n".join(lines) + "\n"
        second = cache.get_or_build(edited)
        assert second is not first  # a different program object...
        assert second.cfg is first.cfg  # ...sharing the salvaged CFG
        assert second.pdg is first.pdg
        got_second = slice_result_payload(
            get_algorithm("interprocedural")(second, criterion)
        )
        assert got_second == got_first
        stats = cache.unit_cache.stats.snapshot()
        assert stats["units_reused"] >= 1
        assert stats["units_built"] == len(list(program.units()))
        # No unit changed, so the recorded slice replays verbatim.
        assert stats["slices_salvaged"] >= 1

    def test_shells_never_share_mutable_slots(self):
        """The salvaged shell starts with empty memo/SDG/content-key
        slots — a stale slice memo or SDG can never leak across
        programs."""
        source = pretty(generate_interprocedural(random.Random(11)))
        program = parse_program(source)
        cache = AnalysisCache(capacity=8, unit_cache=UnitCache())
        first = cache.get_or_build(source)
        line, var = random_criterion(random.Random(0), program)
        get_algorithm("interprocedural")(
            first, SlicingCriterion(line=line, var=var)
        )
        first._slice_memo = object()
        lines = source.splitlines()
        lines[0] += "  // edited"
        second = cache.get_or_build("\n".join(lines) + "\n")
        assert second._slice_memo is None
        assert getattr(second, "_sdg", None) is None
        assert second._content_key != first._content_key
