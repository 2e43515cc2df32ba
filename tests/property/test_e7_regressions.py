"""Pinned wrong answers of the open erratum E7 (ROADMAP, first open item).

In each program a jump sits inside a compound statement that the slice
drops while keeping statements below it.  Each program is
``realize(generate_structured(random.Random(SEED), None))`` and each
criterion ``random_criterion(random.Random(SALT), program)``, so these
cases no longer depend on what a hypothesis run happens to draw.

Every test states the right answer and is a strict ``xfail``, pinned
to the exception it fails with today: a change that alters how one of
them fails, or fixes it, turns the run red and must update this file.
"""

import random

import pytest

from repro.gen.generator import generate_structured, random_criterion, realize
from repro.interp.oracle import check_slice_correctness
from repro.lang.errors import ValidationError
from repro.pdg.builder import analyze_program
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import get_algorithm

E7 = (
    "E7: nls steps over a dropped compound statement, and extraction "
    "keeps a jump whose enclosing switch was dropped"
)


def _case(seed, salt, expected):
    program = realize(generate_structured(random.Random(seed), None))
    line, var = random_criterion(random.Random(salt), program)
    assert (line, var) == expected
    return analyze_program(program), SlicingCriterion(line, var)


def _oracle(result, salt):
    rng = random.Random(salt ^ 0xABCDEF)
    inputs = [
        [rng.randint(-9, 9) for _ in range(rng.randint(0, 10))]
        for _ in range(4)
    ]
    return check_slice_correctness(result, inputs, step_limit=50_000)


def test_seed446295_ball_horwitz_keeps_the_case_break():
    """The reproduction still holds: node 26, the ``case 5: break;`` on
    line 47, is in the Ball–Horwitz slice."""
    analysis, criterion = _case(446295, 0, (70, "v3"))
    assert analysis.cfg.nodes[26].is_jump
    assert 26 in get_algorithm("ball-horwitz")(analysis, criterion).nodes


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=E7)
@pytest.mark.parametrize("algorithm", ["agrawal", "agrawal-lst"])
def test_seed446295_fig7_keeps_the_case_break(algorithm):
    analysis, criterion = _case(446295, 0, (70, "v3"))
    assert 26 in get_algorithm(algorithm)(analysis, criterion).nodes


@pytest.mark.xfail(strict=True, raises=ValidationError, reason=E7)
def test_seed46465_fig7_slice_extracts():
    analysis, criterion = _case(46465, 0, (47, "v2"))
    result = get_algorithm("agrawal")(analysis, criterion)
    assert _oracle(result, 0) == 4


@pytest.mark.xfail(strict=True, raises=ValidationError, reason=E7)
def test_seed7279_fig13_slice_extracts():
    analysis, criterion = _case(7279, 1, (8, "v1"))
    result = get_algorithm("conservative")(analysis, criterion)
    assert _oracle(result, 1) == 4
