"""Single-unit programs fingerprint without a call graph.

A program with no ``proc`` has main's fixed empty interface and no call
sites, so :func:`repro.service.incremental.unit_fingerprints` skips the
call-graph and signature build for it.  The digests must not move:
durable-store sub-keys are derived from them.
"""

from __future__ import annotations

import random

from repro.cfg.builder import call_interface
from repro.corpus import PAPER_PROGRAMS
from repro.corpus.extras import EXTRA_PROGRAMS
from repro.gen.generator import (
    generate_structured,
    generate_unstructured,
    random_criterion,
    realize,
)
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.sdg import callgraph, params
from repro.service import incremental
from repro.service.cache import AnalysisCache
from repro.service.engine import SlicingEngine
from tests.unit.test_sdg import _count_calls


def _programs():
    for entry in PAPER_PROGRAMS.values():
        yield parse_program(entry.source)
    for entry in EXTRA_PROGRAMS.values():
        yield parse_program(entry.source)
    for seed in range(120):
        yield realize(generate_structured(random.Random(seed)))
        yield realize(generate_unstructured(random.Random(seed)))


def _via_call_graph(program):
    graph, sigs = call_interface(program)
    return graph.callees, sigs


def test_fingerprints_match_the_call_graph_path(monkeypatch):
    programs = list(_programs())
    single = [program for program in programs if not program.procs]
    assert len(single) >= 200
    fast = [incremental.unit_fingerprints(program) for program in programs]
    monkeypatch.setattr(incremental, "_call_interface", _via_call_graph)
    slow = [incremental.unit_fingerprints(program) for program in programs]
    assert fast == slow


def test_cold_single_unit_requests_build_no_call_graph(monkeypatch):
    jobs = []
    for seed in range(10):
        source = pretty(generate_structured(random.Random(seed)))
        line, var = random_criterion(
            random.Random(seed), parse_program(source)
        )
        jobs.append((source, line, var))
    graphs = _count_calls(monkeypatch, callgraph.build_call_graph)
    sigs = _count_calls(monkeypatch, params.signatures)
    engine = SlicingEngine(cache=AnalysisCache(capacity=16))
    try:
        for source, line, var in jobs:
            envelope = engine.handle_payload(
                {
                    "version": 2,
                    "op": "slice",
                    "source": source,
                    "line": line,
                    "var": var,
                    "algorithm": "agrawal",
                }
            )
            # A dead generated criterion is rejected after the
            # analysis build, which is what this test counts.
            assert envelope["ok"] or (
                envelope["error"]["code"] == "unreachable-criterion"
            ), envelope
        assert engine.stats_payload()["cache"]["misses"] == len(jobs)
    finally:
        engine.close()
    assert graphs == []
    assert sigs == []
