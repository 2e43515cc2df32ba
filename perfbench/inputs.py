"""Seeded input generation for the benchmark workloads.

Everything here runs outside the timed region.  Programs come from the
repository's own random generators (``repro.gen``); criteria are the
engine's ``all`` family, enumerated from a parse + CFG build rather than
a full analysis, or for cold programs ``main``'s output statements, found
in the text, so generation stays cheap.  Dead-code criteria are kept:
their ``unreachable-criterion`` rejection is the specified answer.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List, Tuple

from repro.cfg.builder import build_cfg
from repro.gen.generator import (
    GeneratorConfig,
    generate_interprocedural,
    generate_structured,
    generate_unstructured,
)
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.service.engine import enumerate_criteria

KINDS = ("structured", "unstructured", "multi")

_WRITE = re.compile(r"^write\(([A-Za-z_]\w*)\);$")

#: Structured programs are built from small generated pieces until they
#: reach a line count, and multi-procedure programs are drawn until their
#: line count falls in a band: the generators' own sizes are
#: heavy-tailed, and a run's cost should not hinge on a few giant draws.
_STRUCTURED_PIECE = GeneratorConfig(
    max_depth=2, max_stmts=5, num_vars=6, jump_probability=0.1
)

#: Per-size knobs: (structured lines, unstructured flat length,
#: (procedures, multi-procedure line band)).
SIZES = {
    "cold": (150, 110, (9, (120, 180))),
    "bulk": (260, 160, (14, (200, 280))),
}

@dataclass(frozen=True)
class Program:
    kind: str
    source: str

    @property
    def algorithm(self) -> str:
        return "interprocedural" if self.kind == "multi" else "agrawal"

    def all_criteria(self) -> Tuple[Tuple[int, str], ...]:
        """The ``all`` family: (line, var) pairs in CFG node order."""
        view = _CfgView(build_cfg(parse_program(self.source)))
        return tuple(
            (criterion.line, criterion.var)
            for criterion in enumerate_criteria(view, "all")
        )

    def output_criteria(self) -> Tuple[Tuple[int, str], ...]:
        """``main``'s top-level ``write(v)`` statements, found in the
        text (main's top level is the only unindented code), so picking
        a cold criterion costs no parse."""
        return tuple(
            (number, match.group(1))
            for number, line in enumerate(self.source.split("\n"), 1)
            for match in [_WRITE.match(line)]
            if match
        )


class _CfgView:
    """The one attribute ``enumerate_criteria(..., "all")`` reads."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg


def _statement_count(program) -> int:
    return sum(1 for _ in program.all_statements())


def _lines(program) -> int:
    return pretty(program).count("\n")


def _structured(rng: random.Random, lines: int):
    """Generated pieces concatenated until *lines* is reached; each
    piece's trailing ``write`` per variable is kept only on the last."""
    writes = _STRUCTURED_PIECE.num_vars
    body = []
    count = writes
    while True:
        piece = generate_structured(rng, _STRUCTURED_PIECE)
        count += _lines(piece) - writes
        if count >= lines:
            piece.body = body + piece.body
            return piece
        body += piece.body[:-writes]


def _multi(rng: random.Random, procs: int, band: Tuple[int, int]):
    config = GeneratorConfig(
        num_procs=procs,
        max_depth=3,
        max_stmts=8,
        num_vars=6,
        call_probability=0.3,
    )
    while True:
        program = generate_interprocedural(rng, config)
        if band[0] <= _lines(program) <= band[1]:
            return program


def generate_program(kind: str, rng: random.Random, size: str) -> Program:
    lines, flat_length, (procs, band) = SIZES[size]
    if kind == "structured":
        program = _structured(rng, lines)
    elif kind == "unstructured":
        program = generate_unstructured(
            rng, GeneratorConfig(flat_length=flat_length, num_vars=6)
        )
    else:
        program = _multi(rng, procs, band)
    return Program(kind=kind, source=pretty(program))


class ProgramStream:
    """An endless seeded stream of programs, one third of each kind.

    Kinds rotate in shuffled blocks of three, so every prefix of the
    stream holds the three kinds in near-equal shares.
    """

    def __init__(self, rng: random.Random, size: str) -> None:
        self.rng = rng
        self.size = size
        self._block: List[str] = []

    def next(self) -> Program:
        if not self._block:
            self._block = list(KINDS)
            self.rng.shuffle(self._block)
        return generate_program(self._block.pop(), self.rng, self.size)


def slice_payload(source: str, line: int, var: str, algorithm: str) -> dict:
    return {
        "version": 2,
        "op": "slice",
        "source": source,
        "line": line,
        "var": var,
        "algorithm": algorithm,
    }
