"""Answer checking, outside the timed region.

Every answer the system gave is compared with the *reference path*: a
fresh analysis of the same source with both closure indexes and the
incremental machinery off, sliced by the same registry algorithm.  The
comparison covers ``nodes``, ``lines``, ``label_map`` and the
per-procedure breakdown, or the error code when the reference rejects
the criterion (``unreachable-criterion`` is a specified answer).  A
seeded sample of single-procedure answers also goes through the
interpreter oracle, ``check_slice_correctness``, which runs the original
program and the extracted slice and compares the criterion trajectory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import signal
from typing import Dict, Iterable, List, Tuple

from repro.interp.oracle import check_slice_correctness, criterion_trajectory
from repro.lang.errors import InterpreterError, SlangError, SliceError
from repro.pdg.builder import analyze_program
from repro.pdg.closure import closure_index
from repro.sdg.closure import sdg_closure_index
from repro.service.incremental import incremental
from repro.service.protocol import error_payload, slice_result_payload
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import get_algorithm

COMPARED = ("nodes", "lines", "label_map", "procedures")
#: Interpreter step limit for the original program in the oracle (the
#: slice gets twice as many).
STEPS = 20_000
#: Wall-clock limit for one run of the original program in the oracle.
#: The interpreter's integers are Python's: a generated loop that squares
#: a value (``v = f2(v)``, ``v = v * v``) doubles its digits each time
#: round, and one run can then take hours.  Within ``STEPS`` an ordinary
#: run takes a few hundredths of a second; a run past this limit is
#: skipped like one past the step limit.
ORIGINAL_SECONDS = 1.0
#: Wall-clock limit for checking the slice on an input on which the
#: original ran within ``ORIGINAL_SECONDS``.  The check runs the original
#: again, and a correct slice does no more work than the original, so a
#: slice that runs past this has gone wrong and counts as a failure.
SLICE_SECONDS = 10 * ORIGINAL_SECONDS

#: Criterion: (line, var, algorithm).
Criterion = Tuple[int, str, str]


def digest(envelope: Dict) -> bytes:
    """A fingerprint of the compared part of one response envelope."""
    if envelope.get("ok"):
        result = envelope.get("result") or {}
        key = {field: result.get(field) for field in COMPARED}
    else:
        key = {"error": (envelope.get("error") or {}).get("code")}
    return hashlib.sha1(
        json.dumps(key, sort_keys=True).encode("utf-8")
    ).digest()


def reference(
    source: str, criteria: Iterable[Criterion]
) -> Dict[Criterion, Tuple[bytes, object]]:
    """Reference digest (and slice result, or ``None`` for a rejection)
    per criterion, from one fresh analysis of *source*."""
    out: Dict[Criterion, Tuple[bytes, object]] = {}
    with incremental(False), closure_index(False), sdg_closure_index(False):
        try:
            analysis = analyze_program(source)
        except SlangError as error:
            rejected = digest({"ok": False, "error": error_payload(error)})
            return {criterion: (rejected, None) for criterion in criteria}
        for criterion in criteria:
            line, var, algorithm = criterion
            try:
                result = get_algorithm(algorithm)(
                    analysis, SlicingCriterion(line=line, var=var)
                )
            except SlangError as error:
                out[criterion] = (
                    digest({"ok": False, "error": error_payload(error)}),
                    None,
                )
                continue
            out[criterion] = (
                digest({"ok": True, "result": slice_result_payload(result)}),
                result,
            )
    return out


def _observable(result) -> bool:
    """Whether the oracle observes what the slice preserves.

    The oracle records the variable's value each time control *reaches*
    the criterion statement, before it runs.  ``resolve_criterion``
    slices a criterion whose statement defines the variable without
    using it at the value that statement *assigns*, which the oracle
    never sees; such criteria are left out of the sample.
    """
    node = result.analysis.cfg.nodes[result.resolved.node_id]
    var = result.criterion.var
    return var in node.uses or var not in node.defs


class _OutOfTime(Exception):
    """A run took longer than its wall-clock limit."""


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise :class:`_OutOfTime` in this (main) thread after *seconds*.

    The signal lands between bytecodes, so one huge multiplication in
    flight finishes first: a few times the cost of the one before it.
    """

    def expire(signum, frame):
        raise _OutOfTime(f"ran past its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _control_closed(result) -> bool:
    """Whether the slice holds every predicate its statements are
    control dependent on, as each algorithm's closure guarantees."""
    cdg = result.analysis.cdg
    nodes = set(result.nodes)
    return all(
        parent in nodes for node in nodes for parent in cdg.parents_of(node)
    )


def oracle(
    results: List[object], rng: random.Random, samples: int
) -> Tuple[List[str], List[str]]:
    """Run the interpreter oracle on a seeded sample of single-procedure
    results; returns (one line per result it failed, one line per result
    it could not run).

    An input on which the original program itself fails (the step limit,
    say) is skipped, and so are the result's remaining inputs once the
    original runs past ``ORIGINAL_SECONDS``.  Once the original has run
    cleanly, any error on the slice, and a check past ``SLICE_SECONDS``,
    is a failure.  A slice ``extract_slice`` rejects is a failure unless
    it is closed under control dependence: ``extract_slice`` rejects
    some closed slices that every algorithm agrees on (see the README,
    "A defect the oracle finds"), and those cannot be run.
    """
    candidates = [
        result
        for result in results
        if result is not None
        and not result.analysis.program.procs
        and _observable(result)
    ]
    failures: List[str] = []
    unrun: List[str] = []
    for result in rng.sample(candidates, min(samples, len(candidates))):
        inputs = [
            [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
            for _ in range(3)
        ]
        name = (
            f"{result.algorithm} slice at line {result.criterion.line} "
            f"on {result.criterion.var}"
        )
        for one in inputs:
            try:
                with _time_limit(ORIGINAL_SECONDS):
                    criterion_trajectory(
                        result.analysis, result.criterion, one, step_limit=STEPS
                    )
            except InterpreterError:
                continue
            except _OutOfTime:
                break
            try:
                with _time_limit(SLICE_SECONDS):
                    check_slice_correctness(result, [one], step_limit=STEPS)
            except SliceError as error:
                reason = str(error).splitlines()[0]
                if _control_closed(result):
                    unrun.append(f"{name}: {reason}")
                else:
                    failures.append(f"{name}, not control-closed: {reason}")
                break
            except (SlangError, _OutOfTime) as error:
                reason = str(error).splitlines()[0]
                failures.append(f"{name}: {type(error).__name__}: {reason}")
                break
    return failures, unrun
