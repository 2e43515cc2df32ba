"""Experiment O1 — cost of the tracing layer (our addition).

Three questions, answered on the full front-end pipeline
(``analyze_program`` + Fig. 7 slice, the instrumented hot path):

* **Tracing off** (no tracer installed): every ``trace_span`` call is
  one ``ContextVar.get`` plus a ``None`` check returning a shared null
  context manager.  Measured as (disabled-call cost × calls per
  request) / request time — the acceptance budget is **< 5 %**, the
  measured figure is typically well under 1 %.
* **Tracing on**: a :class:`Tracer` allocates one :class:`Span` per
  phase; overhead is reported as an A/B ratio against the untraced
  run.
* **Where the time goes**: per-phase totals for ``fig3a`` and a
  generated ~200-node unstructured program, each the median over
  ``ITERATIONS`` traced requests.

Standalone reporter::

    PYTHONPATH=src python benchmarks/bench_observability.py

writes ``BENCH_observability.json`` so the benchmark trajectory can
accumulate across PRs.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from repro.corpus import PAPER_PROGRAMS
from repro.gen.generator import random_criterion
from repro.lang.pretty import pretty
from repro.obs.tracer import Tracer, phase_totals, trace_span, use_tracer
from repro.pdg.builder import analyze_program
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import get_algorithm

try:
    from benchmarks.conftest import sized_programs
except ImportError:  # standalone: python benchmarks/bench_observability.py
    import os
    import sys

    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    from benchmarks.conftest import sized_programs

PROGRAM = "fig3a"
ALGORITHM = "agrawal"
ITERATIONS = 30
REPEATS = 3
GENERATED_SIZE = 200


def _workloads():
    """(name, source, criterion) for fig3a and the generated program."""
    entry = PAPER_PROGRAMS[PROGRAM]
    line, var = entry.criterion
    out = [(PROGRAM, entry.source, SlicingCriterion(line, var))]
    ((size, program),) = sized_programs("unstructured", [GENERATED_SIZE])
    analysis = analyze_program(program)
    gen_line, gen_var = random_criterion(random.Random(size), program)
    out.append(
        (
            f"generated-{len(analysis.cfg.nodes)}-nodes",
            pretty(program),
            SlicingCriterion(gen_line, gen_var),
        )
    )
    return out


def _run_once(source: str, criterion: SlicingCriterion) -> None:
    get_algorithm(ALGORITHM)(analyze_program(source), criterion)


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _untraced_seconds(source, criterion) -> float:
    return (
        _best_of(
            REPEATS,
            lambda: [_run_once(source, criterion) for _ in range(ITERATIONS)],
        )
        / ITERATIONS
    )


def _traced_seconds(source, criterion) -> float:
    def run():
        for _ in range(ITERATIONS):
            tracer = Tracer()
            with use_tracer(tracer):
                with tracer.span("slice", algorithm=ALGORITHM):
                    _run_once(source, criterion)

    return _best_of(REPEATS, run) / ITERATIONS


def _spans_per_request(source, criterion) -> int:
    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("slice", algorithm=ALGORITHM):
            _run_once(source, criterion)
    return sum(1 for _ in tracer.walk())


def disabled_call_seconds(samples: int = 200_000) -> float:
    """Cost of one ``trace_span`` call with no tracer installed."""

    def run():
        for _ in range(samples):
            with trace_span("noop"):
                pass

    return _best_of(REPEATS, run) / samples


def _phase_breakdown(source, criterion, samples: int = ITERATIONS):
    """Per-phase median over *samples* traced requests.  One request's
    split is at the mercy of a single garbage-collector pause, which can
    land in any phase and double it."""
    runs = []
    for _ in range(samples):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("slice", algorithm=ALGORITHM):
                _run_once(source, criterion)
        runs.append(phase_totals(tracer))
    wall = statistics.median(run["slice"][1] for run in runs) or 1e-12
    breakdown = {}
    for name in sorted(runs[0]):
        seconds = statistics.median(run.get(name, (0, 0.0))[1] for run in runs)
        breakdown[name] = {
            "count": runs[0][name][0],
            "total_ms": round(seconds * 1000.0, 4),
            "share_pct": round(100.0 * seconds / wall, 2),
        }
    return breakdown


def measure():
    report = {"bench": "observability-overhead", "algorithm": ALGORITHM}
    workloads = {}
    for name, source, criterion in _workloads():
        off = _untraced_seconds(source, criterion)
        on = _traced_seconds(source, criterion)
        spans = _spans_per_request(source, criterion)
        disabled = disabled_call_seconds()
        disabled_pct = 100.0 * spans * disabled / off
        workloads[name] = {
            "untraced_ms": round(off * 1000.0, 4),
            "traced_ms": round(on * 1000.0, 4),
            "tracing_on_overhead_pct": round(100.0 * (on / off - 1.0), 2),
            "spans_per_request": spans,
            "disabled_call_ns": round(disabled * 1e9, 1),
            "tracing_off_overhead_pct": round(disabled_pct, 4),
            "phases": _phase_breakdown(source, criterion),
        }
    report["workloads"] = workloads
    return report


def test_bench_traced_pipeline(benchmark):
    entry = PAPER_PROGRAMS[PROGRAM]
    line, var = entry.criterion
    criterion = SlicingCriterion(line, var)

    def traced():
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("slice", algorithm=ALGORITHM):
                _run_once(entry.source, criterion)

    benchmark.group = f"observability ({PROGRAM})"
    benchmark(traced)


def test_bench_untraced_pipeline(benchmark):
    entry = PAPER_PROGRAMS[PROGRAM]
    line, var = entry.criterion
    criterion = SlicingCriterion(line, var)
    benchmark.group = f"observability ({PROGRAM})"
    benchmark(_run_once, entry.source, criterion)


def test_tracing_disabled_overhead_under_budget():
    """The acceptance-criterion check: with no tracer installed, the
    instrumentation costs < 5 % of a request."""
    entry = PAPER_PROGRAMS[PROGRAM]
    line, var = entry.criterion
    criterion = SlicingCriterion(line, var)
    off = _untraced_seconds(entry.source, criterion)
    spans = _spans_per_request(entry.source, criterion)
    disabled = disabled_call_seconds(samples=50_000)
    overhead_pct = 100.0 * spans * disabled / off
    assert overhead_pct < 5.0, (
        f"disabled tracing costs {overhead_pct:.2f}% of a request "
        f"({spans} spans x {disabled * 1e9:.0f}ns over {off * 1e3:.2f}ms)"
    )


def main() -> None:
    report = measure()
    with open("BENCH_observability.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
