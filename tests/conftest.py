"""Shared fixtures: cached analyses of the paper corpus."""

from __future__ import annotations

import gc

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.obs import collector
from repro.pdg.builder import ProgramAnalysis, analyze_program

_ANALYSIS_CACHE = {}


def corpus_analysis(name: str) -> ProgramAnalysis:
    """Analyze a corpus program once per test session."""
    if name not in _ANALYSIS_CACHE:
        _ANALYSIS_CACHE[name] = analyze_program(PAPER_PROGRAMS[name].source)
    return _ANALYSIS_CACHE[name]


@pytest.fixture
def analyze():
    """Function fixture: source text -> ProgramAnalysis."""
    return analyze_program


@pytest.fixture(params=sorted(PAPER_PROGRAMS))
def corpus_entry(request):
    """Parametrised over every paper program: (PaperProgram, analysis)."""
    program = PAPER_PROGRAMS[request.param]
    return program, corpus_analysis(request.param)


@pytest.fixture(scope="module", autouse=True)
def _collect_what_each_module_froze():
    """Hand the frozen heap back to the collector after each test module.

    ``AnalysisCache.put`` freezes the whole heap (``gc.freeze``) when it
    caches a program.  That suits a server, whose long-lived objects
    never die, but a test process drops engines and hypothesis state by
    the thousand, and cycles that were alive at a freeze are never
    collected once they die.  One full pass per module reclaims them.
    """
    frozen = collector.snapshot()["frozen_objects"]
    yield
    if collector.snapshot()["frozen_objects"] != frozen:
        gc.unfreeze()
        gc.collect()
