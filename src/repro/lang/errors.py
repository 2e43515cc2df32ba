"""Source locations and the diagnostic/error hierarchy for SL.

Every front-end and analysis error in the reproduction derives from
:class:`SlangError` so applications can catch a single exception type.
Errors carry a :class:`SourceLocation` when one is known and render a
``file:line:col`` prefix plus an optional source excerpt.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class SourceLocation(NamedTuple):
    """A 1-based (line, column) position in a source buffer.

    A named tuple, not a dataclass: the lexer makes one per token, and a
    tuple is built in C.  Ordering and hashing are the tuple's.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class SlangError(Exception):
    """Base class for every error raised by the reproduction.

    Parameters
    ----------
    message:
        Human-readable description of the problem.
    location:
        Where in the source the problem was detected, when known.
    source:
        The full source text; used to render an excerpt of the offending
        line under the message.
    """

    def __init__(
        self,
        message: str,
        location: Optional[SourceLocation] = None,
        source: Optional[str] = None,
    ) -> None:
        self.message = message
        self.location = location
        self.source = source
        super().__init__(self._render())

    def _render(self) -> str:
        parts: List[str] = []
        if self.location is not None:
            parts.append(f"{self.location}: {self.message}")
        else:
            parts.append(self.message)
        excerpt = self._excerpt()
        if excerpt:
            parts.append(excerpt)
        return "\n".join(parts)

    def _excerpt(self) -> Optional[str]:
        if self.source is None or self.location is None:
            return None
        lines = self.source.splitlines()
        if not (1 <= self.location.line <= len(lines)):
            return None
        text = lines[self.location.line - 1]
        caret = " " * max(self.location.column - 1, 0) + "^"
        return f"    {text}\n    {caret}"


class LexError(SlangError):
    """An unrecognised character or malformed token."""


class ParseError(SlangError):
    """A syntax error detected by the recursive-descent parser."""


class ValidationError(SlangError):
    """A semantic error: unresolved label, misplaced jump, and so on."""


class AnalysisError(SlangError):
    """An analysis precondition failed (for example, a CFG node cannot
    reach EXIT, so its postdominator is undefined)."""


class SliceError(SlangError):
    """A slicing request was malformed (unknown variable or location)."""


class UnreachableCriterionError(SliceError):
    """The criterion statement can never execute (no CFG path from
    ENTRY reaches it), so every slice with respect to it is vacuous —
    the empty program has the same (empty) trajectory.  Rejected so a
    "slice" of dead code is never mistaken for an answer; the ``slang
    check`` SL101 diagnostic points at the dead code itself."""


class InterpreterError(SlangError):
    """A runtime error while executing a program (for example, reading
    past the end of the input stream with no ``eof`` guard)."""
