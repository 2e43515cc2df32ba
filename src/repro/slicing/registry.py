"""Name → slicing-algorithm registry (CLI, benches, and compare tooling).

Every algorithm shares the signature
``f(analysis: ProgramAnalysis, criterion: SlicingCriterion) -> SliceResult``.
The paper's own algorithms (Figs. 7, 12 and 13, and the LST-driven
Fig. 7) are registered as :class:`~repro.slicing.common.StartSetSlicer`
entries: the same prepare and finish steps their public functions run,
exposed so the engine can memoize the finish by its start set.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from repro.pdg.builder import ProgramAnalysis
from repro.slicing.agrawal import fig7_finish
from repro.slicing.ball_horwitz import ball_horwitz_slice
from repro.slicing.common import SliceResult, StartSetSlicer, slice_start
from repro.slicing.conservative import fig13_finish
from repro.slicing.conventional import conventional_slice
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.gallagher import gallagher_slice
from repro.slicing.jiang import jiang_slice
from repro.slicing.lyle import lyle_slice
from repro.slicing.structured import fig12_finish, gated_start
from repro.slicing.weiser import weiser_slice
from repro.sdg.slicer import interprocedural_slice

Slicer = Callable[[ProgramAnalysis, SlicingCriterion], SliceResult]


ALGORITHMS: Dict[str, Slicer] = {
    "conventional": conventional_slice,
    "agrawal": StartSetSlicer("agrawal", slice_start, fig7_finish),
    # The LST-driven variant reports itself as "agrawal", as
    # agrawal_slice(drive_tree="lexical") does.
    "agrawal-lst": StartSetSlicer(
        "agrawal", slice_start, partial(fig7_finish, drive_tree="lexical")
    ),
    "structured": StartSetSlicer(
        "structured", partial(gated_start, figure="Fig. 12"), fig12_finish
    ),
    "conservative": StartSetSlicer(
        "conservative", partial(gated_start, figure="Fig. 13"), fig13_finish
    ),
    "ball-horwitz": ball_horwitz_slice,
    "lyle": lyle_slice,
    "gallagher": gallagher_slice,
    "jiang": jiang_slice,
    "weiser": weiser_slice,
    "interprocedural": interprocedural_slice,
}

#: Algorithms that produce *correct* slices on arbitrary programs.
#: ``interprocedural`` is additionally the only one correct on
#: multi-procedure programs (every other algorithm sees the main unit
#: alone and would treat a call's results as free inputs).
CORRECT_GENERAL = (
    "agrawal",
    "agrawal-lst",
    "ball-horwitz",
    "lyle",
    "interprocedural",
)

#: Algorithms correct on structured programs only.
CORRECT_STRUCTURED = ("structured", "conservative")


def get_algorithm(name: str) -> Slicer:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown slicing algorithm {name!r}; "
            f"known: {', '.join(sorted(ALGORITHMS))}"
        ) from None


def algorithm_names() -> List[str]:
    return sorted(ALGORITHMS)


def algorithm_capability(name: str) -> str:
    """Correctness class of one algorithm.

    ``correct-general`` — correct on arbitrary programs (the paper's
    Fig. 7 variants, Ball–Horwitz, Lyle); ``structured-only`` — correct
    only when every jump is structured (Figs. 12/13); ``baseline`` —
    a comparison baseline with known deficiencies on jumps.
    """
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown slicing algorithm {name!r}; "
            f"known: {', '.join(sorted(ALGORITHMS))}"
        )
    if name in CORRECT_GENERAL:
        return "correct-general"
    if name in CORRECT_STRUCTURED:
        return "structured-only"
    return "baseline"


def algorithm_metadata() -> Dict[str, str]:
    """Name → correctness class for every registered algorithm, so
    service clients can discover capabilities before submitting work."""
    return {name: algorithm_capability(name) for name in algorithm_names()}
