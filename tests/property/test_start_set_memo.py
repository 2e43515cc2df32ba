"""The start-set memo: one jump fixpoint per distinct conventional slice.

Figs. 7, 12 and 13 (and the E4 repair pass) read nothing of the
criterion past its conventional slice, so the engine memoizes their
finish step by ``(algorithm, base)`` (DESIGN.md §11).  Three claims hold
that memo to the direct registry calls it stands in for:

* (a) two criteria with equal bases get equal payloads, apart from the
  ``criterion`` field, under each of the four start-set algorithms;
* (b) on generated programs the engine answers every ``all``-family
  criterion exactly as a direct call does, whether its body came from
  the memo or not — criteria are visited forwards and reversed, on
  fresh engines, so each one is sometimes a hit and sometimes a miss;
* (c) the three pinned erratum-E7 programs answer through the engine
  exactly as through direct calls (their wrong answers stay pinned as
  strict xfails in ``test_e7_regressions.py``).
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen.generator import (
    GeneratorConfig,
    generate_structured,
    generate_unstructured,
    random_criterion,
    realize,
)
from repro.lang.errors import SlangError
from repro.lang.pretty import pretty
from repro.pdg.builder import analyze_program
from repro.service.engine import SlicingEngine, enumerate_criteria
from repro.service.protocol import error_payload, slice_result_payload
from repro.slicing.common import StartSetSlicer, slice_start
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import ALGORITHMS, get_algorithm

START_SET = sorted(
    name for name, slicer in ALGORITHMS.items()
    if isinstance(slicer, StartSetSlicer)
)


def test_the_four_start_set_algorithms():
    assert START_SET == ["agrawal", "agrawal-lst", "conservative", "structured"]


#: Larger programs than the generator's default, for deeper fixpoints.
LARGE = {
    "structured": GeneratorConfig(max_depth=4, max_stmts=6, num_vars=6),
    "unstructured": GeneratorConfig(flat_length=60, num_vars=6),
}


def _program(kind, seed, config=None):
    generate = generate_structured if kind == "structured" else (
        generate_unstructured
    )
    return pretty(realize(generate(random.Random(seed), config)))


def _outcome(call):
    """A payload, or the wire error code of a refusal."""
    try:
        return ("ok", slice_result_payload(call()))
    except SlangError as error:
        return ("error", error_payload(error)["code"])


def _direct(analysis, algorithm, criterion):
    return _outcome(lambda: get_algorithm(algorithm)(analysis, criterion))


def _without_criterion(outcome):
    tag, body = outcome
    if tag == "ok":
        body = {k: v for k, v in body.items() if k != "criterion"}
    return tag, body


# ----------------------------------------------------------------------
# (a) equal bases, equal bodies
# ----------------------------------------------------------------------


def _equal_base_groups(analysis):
    groups = defaultdict(list)
    for criterion in enumerate_criteria(analysis, mode="all"):
        try:
            _, base = slice_start(analysis, criterion)
        except SlangError:
            continue
        groups[base].append(criterion)
    return [group for group in groups.values() if len(group) > 1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["structured", "unstructured"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pick=st.randoms(use_true_random=False),
)
def test_equal_bases_give_equal_payloads(kind, seed, pick):
    analysis = analyze_program(_program(kind, seed))
    groups = _equal_base_groups(analysis)
    if not groups:
        return
    first, second = pick.sample(pick.choice(groups), 2)
    for algorithm in START_SET:
        assert _without_criterion(
            _direct(analysis, algorithm, first)
        ) == _without_criterion(_direct(analysis, algorithm, second)), (
            algorithm, first, second,
        )


# ----------------------------------------------------------------------
# (b) engine ≡ direct calls, memo hits and misses alike
# ----------------------------------------------------------------------

FLEET = [
    (kind, seed, large)
    for kind, seeds in (
        ("structured", range(5100, 5104)),
        ("unstructured", range(8100, 8104)),
    )
    for seed in seeds
    for large in (False, True)
]
FLEET_IDS = [
    f"{kind}:{seed}{':large' if large else ''}" for kind, seed, large in FLEET
]


def _through_engine(source, criteria):
    """Every criterion under every start-set algorithm, in order, on a
    fresh engine: outcomes plus the start-set memo's counters."""
    with SlicingEngine(workers=1) as engine:
        analysis = engine.analysis_for(source)
        outcomes = {
            (algorithm, criterion.line, criterion.var): _outcome(
                lambda: engine.slice_cached(
                    analysis, criterion.line, criterion.var, algorithm
                )
            )
            for criterion in criteria
            for algorithm in START_SET
        }
        return outcomes, engine.start_set_stats.stats()


def _expected_lookups(analysis, criteria):
    """(hits, misses) the memo must count over *criteria*: one miss per
    distinct ``(algorithm, base)``, a hit for every repeat."""
    keys = []
    for algorithm in START_SET:
        for criterion in criteria:
            try:
                _, base = ALGORITHMS[algorithm].prepare(analysis, criterion)
            except SlangError:
                continue
            keys.append((algorithm, base))
    return len(keys) - len(set(keys)), len(set(keys))


@pytest.mark.parametrize("kind,seed,large", FLEET, ids=FLEET_IDS)
def test_engine_matches_direct_calls_both_ways(kind, seed, large):
    source = _program(kind, seed, LARGE[kind] if large else None)
    analysis = analyze_program(source)
    criteria = enumerate_criteria(analysis, mode="all")
    direct = {
        (algorithm, criterion.line, criterion.var): _direct(
            analysis, algorithm, criterion
        )
        for criterion in criteria
        for algorithm in START_SET
    }
    hits, misses = _expected_lookups(analysis, criteria)
    for order in (criteria, criteria[::-1]):
        outcomes, counters = _through_engine(source, order)
        assert outcomes == direct
        assert (counters["hits"], counters["misses"]) == (hits, misses)


def test_the_fleet_shares_start_sets():
    """Some criteria of the fleet are answered from the memo."""
    shared = 0
    for kind, seed, large in FLEET:
        analysis = analyze_program(
            _program(kind, seed, LARGE[kind] if large else None)
        )
        shared += _expected_lookups(
            analysis, enumerate_criteria(analysis, mode="all")
        )[0]
    assert shared


# ----------------------------------------------------------------------
# (c) the erratum-E7 programs
# ----------------------------------------------------------------------

E7_CASES = [(446295, 0), (46465, 0), (7279, 1)]


@pytest.mark.parametrize(
    "seed,salt", E7_CASES, ids=[f"seed{seed}" for seed, _ in E7_CASES]
)
def test_e7_programs_answer_as_direct_calls(seed, salt):
    program = realize(generate_structured(random.Random(seed), None))
    line, var = random_criterion(random.Random(salt), program)
    source = pretty(program)
    analysis = analyze_program(source)
    criteria = [SlicingCriterion(line, var)] + enumerate_criteria(
        analysis, mode="all"
    )
    direct = {
        (algorithm, criterion.line, criterion.var): _direct(
            analysis, algorithm, criterion
        )
        for criterion in criteria
        for algorithm in START_SET
    }
    outcomes, _ = _through_engine(source, criteria)
    assert outcomes == direct


# ----------------------------------------------------------------------
# Attribution: /stats, /metrics.prom and the trace
# ----------------------------------------------------------------------

FIG3A_SHARED = [(6, "sum"), (10, "sum")]  # one conventional slice


def _spans(tree):
    for node in tree:
        yield node
        yield from _spans(node.get("children", []))


def test_a_hit_is_one_trace_event_and_no_traversal_span():
    from repro.corpus import PAPER_PROGRAMS

    source = PAPER_PROGRAMS["fig3a"].source
    with SlicingEngine(workers=1) as engine:
        trees = {}
        for algorithm in ("agrawal", "structured"):
            for line, var in FIG3A_SHARED:
                envelope = engine.handle_payload({
                    "version": 1, "op": "slice", "source": source,
                    "line": line, "var": var, "algorithm": algorithm,
                    "trace": True,
                })
                trees[algorithm, line] = list(_spans(envelope["trace"]))
        stats = engine.stats_payload()["start_set_cache"]
    # fig3a is unstructured: Fig. 12 refuses it before any lookup.
    assert (stats["hits"], stats["misses"]) == (1, 1)
    miss, hit = trees["agrawal", 6], trees["agrawal", 10]
    assert any(span["name"] == "fig7-traversal" for span in miss)
    assert not any(span["name"].startswith("fig") for span in hit)
    events = [
        event for span in hit for event in span.get("events", [])
        if event["name"] == "start-set-hit"
    ]
    assert events == [
        {**events[0], "args": {"algorithm": "agrawal"}}
    ]


def test_start_set_counters_reach_prometheus():
    from repro.corpus import PAPER_PROGRAMS
    from repro.obs.prom import parse_prometheus, render_prometheus

    with SlicingEngine(workers=1) as engine:
        analysis = engine.analysis_for(PAPER_PROGRAMS["fig3a"].source)
        for line, var in FIG3A_SHARED:
            engine.slice_cached(analysis, line, var, "agrawal-lst")
        payload = engine.stats_payload()
    metrics = parse_prometheus(render_prometheus(payload))
    assert payload["start_set_cache"]["hit_rate"] == 0.5
    assert metrics["slang_start_set_cache_hits_total"][()] == 1.0
    assert metrics["slang_start_set_cache_misses_total"][()] == 1.0
    assert metrics["slang_start_set_cache_evictions_total"][()] == 0.0
