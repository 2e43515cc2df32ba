"""Experiment C1 — amortized multi-criterion slicing via the bitset
kernels and the condensed-PDG closure index (our addition; the paper
reports no timings).

The workload is the service's bulk shape: every ``(line, var)``
criterion a program admits, sliced with the conventional algorithm —
each query bottoms out in ``backward_closure``, so a per-query BFS
re-walks the same dependence edges once per criterion while the closure
index pays one SCC condensation and answers each query with a mask OR.
The shape claim (and the acceptance gate): on goto-ridden programs of
~300 nodes and up, the fast configuration (``engine="bitset"`` plus the
index) beats the set-based reference configuration by ≥ 5×, and the
gap *widens* with program size (BFS is O(V+E) per query; the index
query is O(answer)).

Besides the pytest-benchmark timings this module doubles as a
standalone reporter::

    PYTHONPATH=src python benchmarks/bench_closure.py          # full run
    PYTHONPATH=src python benchmarks/bench_closure.py --smoke  # CI gate

The full run writes ``BENCH_closure.json`` (per-size reference/fast
seconds, speedups, index build cost and component counts).  Smoke mode
replays the whole criterion family of fig3a through both configurations
and fails (exit 1) if the indexed path is slower than the reference —
the cheap CI regression tripwire; the ≥ 5× claim is asserted on the
sized workloads by :func:`test_closure_speedup_at_300` and the full
reporter.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import pytest

from repro.analysis.dataflow import dataflow_engine
from repro.corpus import PAPER_PROGRAMS
from repro.pdg.builder import analyze_program
from repro.pdg.closure import closure_index
from repro.service.engine import enumerate_criteria
from repro.slicing.registry import get_algorithm

try:
    from benchmarks.conftest import sized_programs
except ImportError:  # standalone: `python benchmarks/bench_closure.py`
    from conftest import sized_programs

ALGORITHM = "conventional"
SIZES = [300, 600, 1200]
#: Smoke mode re-times the tiny fig3a workload; the indexed path must
#: not be slower (2% tolerance so timer noise cannot flake the gate).
SMOKE_TOLERANCE = 1.02
#: Timed trials per side in :func:`measure`.  The fast side at 300 nodes
#: takes ~11 ms, so one trial is noisy; a median of alternating trials
#: keeps a single slow one from moving the ratio.
TRIALS = 7


def _workload(program):
    """(reference analysis, fast analysis, criterion family).

    Fresh analyses per configuration: dataflow results and the closure
    index memoize on the analysis object, so sharing one would let the
    reference run reuse fast-path state (or vice versa).
    """
    with dataflow_engine("sets"), closure_index(False):
        reference = analyze_program(program)
        criteria = enumerate_criteria(reference, mode="all")
    with dataflow_engine("bitset"), closure_index(True):
        fast = analyze_program(program)
    return reference, fast, criteria


def _run_batch(analysis, criteria):
    slicer = get_algorithm(ALGORITHM)
    for criterion in criteria:
        slicer(analysis, criterion)


def _best_of(fn, repeat: int = 3) -> float:
    """Best-of-N wall time — the standard noise-resistant estimator."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _timed_batch(analysis, criteria, engine: str, indexed: bool) -> float:
    with dataflow_engine(engine), closure_index(indexed):
        start = time.perf_counter()
        _run_batch(analysis, criteria)
        return time.perf_counter() - start


def measure(size: int, trials: int = TRIALS):
    """One sized workload through both configurations.

    After one untimed warm-up batch per side, the sides alternate for
    *trials* timed batches each, so host noise lands on both; each side
    reports its median."""
    (_, program), = sized_programs("unstructured", [size])
    reference, fast, criteria = _workload(program)

    with dataflow_engine("bitset"), closure_index(True):
        build_start = time.perf_counter()
        index = fast.pdg.ensure_closure_index()
        build_seconds = time.perf_counter() - build_start

    reference_times, fast_times = [], []
    for trial in range(trials + 1):
        reference_time = _timed_batch(reference, criteria, "sets", False)
        fast_time = _timed_batch(fast, criteria, "bitset", True)
        if trial:
            reference_times.append(reference_time)
            fast_times.append(fast_time)
    reference_seconds = statistics.median(reference_times)
    fast_seconds = statistics.median(fast_times)

    return {
        "size": size,
        "cfg_nodes": len(reference.cfg),
        "criteria": len(criteria),
        "reference_seconds": round(reference_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(reference_seconds / fast_seconds, 2),
        "index_build_seconds": round(build_seconds, 4),
        "index_components": index.component_count,
    }


# ----------------------------------------------------------------------
# pytest-benchmark timings (comparison groups per size)
# ----------------------------------------------------------------------

WORKLOADS = {
    size: _workload(sized_programs("unstructured", [size])[0][1])
    for size in SIZES[:2]  # keep the timed matrix small; 1200 is
    # covered by the standalone reporter
}


@pytest.mark.parametrize("size", sorted(WORKLOADS))
def test_bench_multi_criterion_reference(benchmark, size):
    reference, _, criteria = WORKLOADS[size]
    benchmark.group = f"multi-criterion n={size} ({ALGORITHM})"
    with dataflow_engine("sets"), closure_index(False):
        benchmark(_run_batch, reference, criteria)


@pytest.mark.parametrize("size", sorted(WORKLOADS))
def test_bench_multi_criterion_indexed(benchmark, size):
    _, fast, criteria = WORKLOADS[size]
    benchmark.group = f"multi-criterion n={size} ({ALGORITHM})"
    with dataflow_engine("bitset"), closure_index(True):
        fast.pdg.ensure_closure_index()
        benchmark(_run_batch, fast, criteria)


def test_closure_speedup_at_300():
    """The acceptance-criterion check: ≥ 5× on a ≥ 300-node
    multi-criterion workload, median against median."""
    entry = measure(300)
    assert entry["speedup"] >= 5.0, (
        f"indexed path only {entry['speedup']:.1f}x faster on "
        f"{entry['cfg_nodes']} nodes / {entry['criteria']} criteria "
        f"(reference {entry['reference_seconds']}s, fast "
        f"{entry['fast_seconds']}s); expected >= 5x"
    )


# ----------------------------------------------------------------------
# standalone reporter / CI smoke
# ----------------------------------------------------------------------

def smoke() -> int:
    """fig3a through both configurations; fail if the index loses."""
    source = PAPER_PROGRAMS["fig3a"].source
    reference, fast, criteria = _workload(source)

    def timed(analysis, engine, indexed, loops=30, repeat=5):
        with dataflow_engine(engine), closure_index(indexed):
            if indexed:
                analysis.pdg.ensure_closure_index()
            return _best_of(
                lambda: [_run_batch(analysis, criteria) for _ in range(loops)],
                repeat,
            ) / loops

    reference_seconds = timed(reference, "sets", False)
    fast_seconds = timed(fast, "bitset", True)
    report = {
        "bench": "closure-index-smoke",
        "program": "fig3a",
        "criteria": len(criteria),
        "reference_seconds": round(reference_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "ratio": round(reference_seconds / fast_seconds, 3),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if fast_seconds > reference_seconds * SMOKE_TOLERANCE:
        print(
            "FAIL: closure-index path slower than the reference on "
            "fig3a",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(smoke())
    report = {
        "bench": "closure-index-multi-criterion",
        "algorithm": ALGORITHM,
        "workload": "all (line, var) criteria, unstructured programs",
        "sizes": [measure(size) for size in SIZES],
    }
    report["speedup_at_300"] = report["sizes"][0]["speedup"]
    assert report["speedup_at_300"] >= 5.0, report
    with open("BENCH_closure.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
