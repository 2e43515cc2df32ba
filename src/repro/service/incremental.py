"""Incremental re-analysis under edit churn (DESIGN.md §14).

The dominant maintenance traffic shape — an IDE or CI fleet re-querying
slices after small edits — used to invalidate the whole
:class:`~repro.pdg.builder.ProgramAnalysis` on any byte change: the
analysis cache keys by the SHA-256 of the *source text*, so touching one
procedure rebuilt every unit's CFG, postdominator tree, LST, dependence
graphs, and closure index from scratch.

This module keys the expensive artefacts by **per-unit content
fingerprints** instead.  A program is split at ``proc`` boundaries
(single-proc programs are one unit, ``main``); each unit's fingerprint
covers exactly what its analysis consumes:

* the analysis options (they change CFG shape);
* the unit's kind, name and parameter list;
* the canonical pretty-printed body (so comment and whitespace edits
  do not invalidate anything);
* the absolute source line of every statement (analyses carry absolute
  lines — a unit whose text is unchanged but whose lines shifted is a
  *different* unit);
* the unit's own :class:`~repro.sdg.params.ParamSignature` and those of
  its **direct callees** — the CFG builder shapes call-site node chains
  from callee signatures (declared params plus the transitive-IO
  ``$in`` position), so a deep edit that flips a callee's IO-ness
  correctly dirties every direct caller.

An edit to one procedure then salvages every untouched unit's analysis
from the :class:`UnitCache`: the cached CFG/PDT/LST/CDG/DDG/PDG objects
are shared into a fresh :class:`ProgramAnalysis` *shell* (new program
object, fresh SDG / content-key slots, and a slice memo of its own on
its cache entry, so nothing staled can leak across programs), and the PDG's condensed closure index —
built lazily on the shared graph — survives the edit with it.

Interprocedural programs additionally reuse the *stitched* per-unit
slicing graphs.  The SDG builder (:func:`repro.sdg.builder.build_sdg`)
reads the unit cache and fingerprints this module attaches to an
analysis: summary edges at a call site depend only on the caller's own
content and the callee's formal-in→formal-out dependence pairs, so a
non-recursive unit's stitched graph is cached under (unit fingerprint,
every direct callee's pairs); recursive SCCs are always rebuilt from
empty pairs.  The graph, summary edges included, is the one a cold
build produces.

Two further salvage tiers close the gap between "rebuild one unit" and
"answer without recomputing":

* **Selective re-parse** — :func:`split_source` cuts the raw text at
  top-level ``proc`` boundaries (comment- and brace-aware); a span
  whose exact text *and* start line are unchanged reuses its parsed AST
  from the span cache, so an edit to one procedure re-parses only that
  procedure (line numbers are reproduced by padding the span with
  newlines).  Sources whose layout the splitter does not recognise —
  statements between or after ``proc`` blocks, unbalanced braces —
  fall back to the ordinary whole-source parse, errors included.
* **Slice-result salvage** — the interprocedural slicer records each
  fully-computed :class:`~repro.sdg.slicer.SDGSliceResult` together
  with the unit digests, every unit's formal dependence pairs, and the
  program-wide summary count it was computed under.  After an edit the
  stored result is replayed only when *every* dirty unit (a) is outside
  the recorded slice, (b) kept its formal-in→formal-out pairs, and
  (c) did not gain a statement at the criterion line, and the global
  summary count is unchanged — conditions under which the two-pass
  traversal provably never observes the edit (it enters a unit only
  through call sites in units already in the slice, and crosses
  non-slice callees only via summary edges, which the pair equality
  freezes).

Degraded (budget-shaped) results are never salvaged or stored — a
budget abort raises before the slicer reaches the record step, and the
engine's degrade path (see ``SlicingEngine._degrade``) never feeds the
memo/store tiers.

The process-wide knob (CLI ``--incremental on|off``) mirrors
:mod:`repro.pdg.closure`: incremental reuse is pure acceleration — the
differential property suite asserts node-for-node identity with a cold
rebuild — so it defaults on.  Off, the analysis cache attaches no unit
cache, so the SDG builder runs cold, and the slice salvage tier stands
aside.

The whole-SDG closure index is deliberately *not* a tier here: an
edited program's SDG builds a fresh one (:mod:`repro.sdg.closure`).
DESIGN.md §14 lists what each remaining tier saves on the edit trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.cfg.builder import call_interface
from repro.lang.ast_nodes import MAIN_UNIT, ProcDecl, Program, Stmt, walk_statements
from repro.lang.errors import SlangError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.obs.prom import FAMILIES
from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis, analyze_program
from repro.sdg.builder import StitchedUnit, build_sdg
from repro.sdg.params import MAIN_SIGNATURE, ParamSignature

#: Fingerprint schema version; bump to invalidate every cached unit.
FINGERPRINT_VERSION = "v1"

#: Process-wide enablement knob (CLI ``--incremental on|off``).
_enabled = True


def incremental_enabled() -> bool:
    return _enabled


def set_incremental_enabled(enabled: bool) -> None:
    global _enabled
    _enabled = bool(enabled)


@contextlib.contextmanager
def incremental(enabled: bool) -> Iterator[None]:
    """Temporarily force incremental reuse on or off (tests, benches)."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    try:
        yield
    finally:
        _enabled = previous


# ---------------------------------------------------------------------------
# Unit fingerprints
# ---------------------------------------------------------------------------


def _signature_facts(sig: ParamSignature) -> str:
    return f"{sig.name}({','.join(sig.declared)})io={int(sig.io)}"


def _call_interface(
    program: Program,
) -> Tuple[Dict[str, Set[str]], Dict[str, ParamSignature]]:
    """Callees and signatures per unit.  A single-unit program has
    main's fixed interface and no call sites, so it needs no call
    graph."""
    if not program.procs:
        return {}, {MAIN_UNIT: MAIN_SIGNATURE}
    graph, sigs = call_interface(program)
    return graph.callees, sigs


def unit_fingerprints(
    program: Program,
    fuse_cond_goto: bool = True,
    chain_io: bool = True,
    dominator_algorithm: str = "iterative",
) -> Dict[str, str]:
    """Per-unit content addresses: unit name → hex digest.

    Two units with equal fingerprints produce identical analyses
    (CFG/PDT/LST/CDG/DDG/PDG, node ids, absolute lines) under the same
    options — the invariant every salvage below rests on.
    """
    callees, sigs = _call_interface(program)
    header = (
        f"{FINGERPRINT_VERSION}|{int(fuse_cond_goto)}|{int(chain_io)}|"
        f"{dominator_algorithm}|"
    )
    out: Dict[str, str] = {}
    for unit, body in program.units():
        digest = hashlib.sha256()
        digest.update(header.encode("utf-8"))
        sig = sigs[unit]
        digest.update(f"unit:{_signature_facts(sig)}\n".encode("utf-8"))
        for callee in sorted(callees.get(unit, ())):
            digest.update(
                f"callee:{_signature_facts(sigs[callee])}\n".encode("utf-8")
            )
        lines: List[int] = []
        for top in body:
            digest.update(pretty(top).encode("utf-8"))
            digest.update(b"\x00")
            for stmt in walk_statements(top):
                lines.append(stmt.line)
        digest.update(("lines:" + ",".join(map(str, lines))).encode("utf-8"))
        out[unit] = digest.hexdigest()
    return out


# ---------------------------------------------------------------------------
# Selective re-parse
# ---------------------------------------------------------------------------

_PROC_HEADER = re.compile(r"proc\b")


@dataclass(frozen=True)
class SourceSpan:
    """One top-level textual region: the main prefix or one ``proc``."""

    kind: str  # "main" | "proc"
    text: str
    start_line: int  # 1-based


#: One comment on a line: a closed ``/* */``, a ``//`` to the end, or an
#: unclosed ``/*`` (group ``open``), which also runs to the end.
_LINE_COMMENT = re.compile(r"/\*.*?\*/|//.*|(?P<open>/\*).*")


def _strip_comments(line: str, in_block: bool) -> Tuple[str, bool]:
    """Code content of one line, tracking ``/* */`` state across lines."""
    if in_block:
        end = line.find("*/")
        if end == -1:
            return "", True
        line = line[end + 2 :]
    if "/" not in line:
        return line, False
    code: List[str] = []
    position = 0
    opened = False
    for match in _LINE_COMMENT.finditer(line):
        code.append(line[position : match.start()])
        position = match.end()
        opened = match.group("open") is not None
    code.append(line[position:])
    return "".join(code), opened


def split_source(source: str) -> Optional[List[SourceSpan]]:
    """Cut *source* at top-level ``proc`` boundaries.

    Returns the main prefix span followed by one span per procedure
    block, or ``None`` when the layout is not the canonical
    main-then-procs shape (statements between or after procedures,
    unbalanced braces, an unterminated block comment) — callers then
    fall back to the whole-source parse, which raises the canonical
    error for genuinely malformed input.  Blank and comment-only lines
    *between* procedures belong to no span: they carry no AST and their
    effect on line numbers is captured by the next span's start line.
    """
    lines = source.splitlines()
    spans: List[SourceSpan] = []
    in_block = False
    depth = 0
    proc_start: Optional[int] = None  # 0-based first line of open proc
    seen_brace = False
    main_end: Optional[int] = None  # 0-based exclusive end of main prefix
    for index, line in enumerate(lines):
        code, in_block_after = _strip_comments(line, in_block)
        stripped = code.strip()
        if proc_start is None:
            starts_proc = (
                depth == 0
                and not in_block
                and _PROC_HEADER.match(stripped) is not None
            )
            if starts_proc:
                if main_end is None:
                    main_end = index
                proc_start = index
                seen_brace = False
            elif main_end is not None and stripped:
                return None  # code between/after procs: unsupported
        if proc_start is not None:
            depth += code.count("{") - code.count("}")
            if depth < 0:
                return None
            seen_brace = seen_brace or "{" in code
            if seen_brace and depth == 0:
                spans.append(
                    SourceSpan(
                        kind="proc",
                        text="\n".join(lines[proc_start : index + 1]),
                        start_line=proc_start + 1,
                    )
                )
                proc_start = None
        elif stripped:
            depth += code.count("{") - code.count("}")
            if depth < 0:
                return None
        in_block = in_block_after
    if in_block or depth != 0 or proc_start is not None:
        return None
    if main_end is None:
        main_end = len(lines)
    main_text = "\n".join(lines[:main_end])
    return [
        SourceSpan(kind="main", text=main_text, start_line=1)
    ] + spans


def _span_key(span: SourceSpan) -> Tuple[str, str, int]:
    digest = hashlib.sha256(span.text.encode("utf-8")).hexdigest()
    return (span.kind, digest, span.start_line)


def incremental_parse(source: str, cache: "UnitCache") -> Program:
    """Parse *source*, reusing span ASTs for textually unchanged units.

    A span hit requires the exact text **and** the exact start line —
    both are part of the key — so reused statements carry correct
    absolute line numbers by construction.  Misses re-parse only their
    own span, padded with newlines to reproduce absolute lines.  Any
    irregularity (unsupported layout, a span that does not parse to the
    expected shape) falls back to :func:`parse_program` on the whole
    source, so error behaviour is byte-identical to the monolithic
    path.

    The reused AST nodes are shared across program objects, exactly as
    the cached analyses already share them (DESIGN.md §7: analyses and
    their ASTs are immutable after construction).
    """
    spans = split_source(source)
    if spans is None:
        return parse_program(source)
    body: List[Stmt] = []
    procs: List[ProcDecl] = []
    for span in spans:
        key = _span_key(span)
        node = cache.get_span(key)
        if node is None:
            cache.stats.record("spans_parsed")
            if span.kind == "main" and not span.text.strip():
                node = []
            else:
                padded = "\n" * (span.start_line - 1) + span.text
                try:
                    parsed = parse_program(padded)
                except SlangError:
                    return parse_program(source)
                if span.kind == "main":
                    if parsed.procs:
                        return parse_program(source)
                    node = parsed.body
                else:
                    if parsed.body or len(parsed.procs) != 1:
                        return parse_program(source)
                    node = parsed.procs[0]
            cache.put_span(key, node)
        else:
            cache.stats.record("spans_reused")
        if span.kind == "main":
            body = list(node)
        else:
            procs.append(node)
    return Program(body=body, source=source, procs=procs)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class IncrementalStats:
    """Thread-safe reuse counters, surfaced under ``/stats`` →
    ``incremental`` and as ``slang_incremental_*`` Prometheus families."""

    #: The ``incremental`` tier's counter rows of the metric table.
    FIELDS = tuple(
        family.field
        for family in FAMILIES
        if family.tier == "incremental" and family.kind == "counter"
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self.FIELDS}

    def record(self, name: str, count: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + count

    def reset(self) -> None:
        with self._lock:
            for name in list(self._counts):
                self._counts[name] = 0

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


# ---------------------------------------------------------------------------
# The unit cache
# ---------------------------------------------------------------------------


@dataclass
class UnitRecord:
    """Everything cached for one unit fingerprint."""

    analysis: ProgramAnalysis
    #: assumption key → stitched graph (bounded LRU, newest last).
    stitched: "OrderedDict[Tuple, StitchedUnit]" = field(
        default_factory=OrderedDict
    )


@dataclass
class SliceSalvageRecord:
    """One fully-computed interprocedural slice plus the facts that
    decide whether an edited program may replay it (see the module
    docstring's slice-result salvage conditions)."""

    digests: Dict[str, str]
    slice_units: FrozenSet[str]
    pairs: Dict[str, FrozenSet[Tuple[int, int]]]
    summary_total: int
    sdg_result: object  # SDGSliceResult (deferred type; avoids a cycle)


class UnitCache:
    """An LRU map ``unit fingerprint → UnitRecord``.

    Shared by the :class:`~repro.service.cache.AnalysisCache` (main-unit
    salvage) and the incremental SDG assembly (procedure units and
    stitched graphs).  The cached ``ProgramAnalysis`` objects are safe
    to share for the same reason the analysis cache's are: immutable
    after construction (DESIGN.md §7), with per-program mutable slots
    (SDG, content key, unit bookkeeping) living on the *shells*, never
    on the cached record.
    """

    def __init__(
        self,
        capacity: int = 512,
        stitched_per_unit: int = 4,
        span_capacity: int = 2048,
        slice_capacity: int = 256,
    ) -> None:
        self.capacity = capacity
        self.stitched_per_unit = stitched_per_unit
        self.span_capacity = span_capacity
        self.slice_capacity = slice_capacity
        self._records: "OrderedDict[str, UnitRecord]" = OrderedDict()
        self._spans: "OrderedDict[Tuple[str, str, int], object]" = (
            OrderedDict()
        )
        self._slices: "OrderedDict[Tuple, SliceSalvageRecord]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.stats = IncrementalStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def get_unit(self, unit_key: str) -> Optional[UnitRecord]:
        with self._lock:
            record = self._records.get(unit_key)
            if record is not None:
                self._records.move_to_end(unit_key)
            return record

    def put_unit(
        self, unit_key: str, analysis: ProgramAnalysis
    ) -> UnitRecord:
        with self._lock:
            record = self._records.get(unit_key)
            if record is not None:
                self._records.move_to_end(unit_key)
                return record
            record = UnitRecord(analysis=analysis)
            if self.capacity > 0:
                self._records[unit_key] = record
                while len(self._records) > self.capacity:
                    self._records.popitem(last=False)
            return record

    def get_stitched(
        self, unit_key: str, assume_key: Tuple
    ) -> Optional[StitchedUnit]:
        with self._lock:
            record = self._records.get(unit_key)
            if record is None:
                return None
            stitched = record.stitched.get(assume_key)
            if stitched is not None:
                record.stitched.move_to_end(assume_key)
            return stitched

    def put_stitched(
        self, unit_key: str, assume_key: Tuple, stitched: StitchedUnit
    ) -> StitchedUnit:
        with self._lock:
            record = self._records.get(unit_key)
            if record is None:
                return stitched
            existing = record.stitched.get(assume_key)
            if existing is not None:
                record.stitched.move_to_end(assume_key)
                return existing
            record.stitched[assume_key] = stitched
            while len(record.stitched) > self.stitched_per_unit:
                record.stitched.popitem(last=False)
            return stitched

    def get_span(self, key: Tuple[str, str, int]) -> Optional[object]:
        with self._lock:
            node = self._spans.get(key)
            if node is not None:
                self._spans.move_to_end(key)
            return node

    def put_span(self, key: Tuple[str, str, int], node: object) -> None:
        with self._lock:
            if key in self._spans:
                self._spans.move_to_end(key)
                return
            if self.span_capacity > 0:
                self._spans[key] = node
                while len(self._spans) > self.span_capacity:
                    self._spans.popitem(last=False)

    def get_slice(self, key: Tuple) -> Optional[SliceSalvageRecord]:
        with self._lock:
            record = self._slices.get(key)
            if record is not None:
                self._slices.move_to_end(key)
            return record

    def put_slice(self, key: Tuple, record: SliceSalvageRecord) -> None:
        with self._lock:
            self._slices[key] = record
            self._slices.move_to_end(key)
            while len(self._slices) > max(self.slice_capacity, 1):
                self._slices.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._spans.clear()
            self._slices.clear()

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            entries = len(self._records)
            stitched = sum(
                len(record.stitched) for record in self._records.values()
            )
            spans = len(self._spans)
            slices = len(self._slices)
        payload: Dict[str, object] = {
            "enabled": incremental_enabled(),
            "capacity": self.capacity,
            "entries": entries,
            "stitched_entries": stitched,
            "span_entries": spans,
            "slice_entries": slices,
        }
        payload.update(self.stats.snapshot())
        return payload


# ---------------------------------------------------------------------------
# Analysis salvage
# ---------------------------------------------------------------------------


def incremental_analyze(
    source: str,
    fuse_cond_goto: bool = True,
    chain_io: bool = True,
    dominator_algorithm: str = "iterative",
    cache: Optional[UnitCache] = None,
) -> ProgramAnalysis:
    """Analyse *source*, salvaging the main unit from *cache* when its
    fingerprint matches a previously analysed unit.

    Always attaches ``_unit_digests`` / ``_unit_cache`` to the returned
    analysis: the SDG builder salvages procedure units and stitched
    graphs through them, and the slice-result tier replays through
    them.
    """
    if cache is None:
        cache = UnitCache()
    with trace_span("parse", bytes=len(source), incremental=True):
        program = incremental_parse(source, cache)
    with trace_span("unit-fingerprints", units=len(program.procs) + 1):
        digests = unit_fingerprints(
            program,
            fuse_cond_goto=fuse_cond_goto,
            chain_io=chain_io,
            dominator_algorithm=dominator_algorithm,
        )
    cache.stats.record("programs")
    record = cache.get_unit(digests[MAIN_UNIT])
    if record is not None:
        cache.stats.record("units_reused")
        analysis = record.analysis.rebind(program)
    else:
        cache.stats.record("units_built")
        analysis = analyze_program(
            program,
            fuse_cond_goto=fuse_cond_goto,
            chain_io=chain_io,
            dominator_algorithm=dominator_algorithm,
        )
        # The cache keeps a shell: the analysis points at the cache, so
        # holding the analysis itself would close a cycle.
        cache.put_unit(digests[MAIN_UNIT], analysis.rebind(program))
    analysis._unit_digests = digests
    analysis._unit_cache = cache
    return analysis


#: The SDG builder; a cache-carrying analysis makes it salvage units and
#: stitched graphs.  Re-exported under this name because the benchmark's
#: per-layer timing (perfbench/layers.py) wraps it as an incremental layer.
build_sdg_incremental = build_sdg


# ---------------------------------------------------------------------------
# Slice-result salvage
# ---------------------------------------------------------------------------


def _slice_salvage_key(criterion) -> Tuple:
    return ("interprocedural", criterion.line, criterion.var, criterion.proc)


def _salvage_facts(analysis: ProgramAnalysis, sdg):
    """(cache, digests, pairs) when the analysis/SDG pair carries the
    incremental bookkeeping, else ``None`` — monolithic builds (knob
    off, direct ``build_sdg`` callers) never hit the salvage path."""
    if not incremental_enabled():
        return None
    if analysis._unit_cache is None:
        return None
    return analysis._unit_cache, analysis._unit_digests, sdg.unit_pairs


def salvage_sdg_slice(analysis: ProgramAnalysis, sdg, criterion):
    """Replay a previously recorded slice for *criterion* when the edit
    provably cannot have changed it (module docstring: the dirty units
    are outside the slice, kept their formal pairs, did not gain the
    criterion line, and the global summary count is unchanged).
    Returns the recorded ``SDGSliceResult`` or ``None``."""
    facts = _salvage_facts(analysis, sdg)
    if facts is None:
        return None
    cache, digests, pairs = facts
    record = cache.get_slice(_slice_salvage_key(criterion))
    if record is None:
        return None
    if record.digests.keys() != digests.keys():
        return None
    if record.summary_total != sdg.summary_edges:
        return None
    for unit, digest in digests.items():
        if record.digests[unit] == digest:
            continue
        if unit in record.slice_units:
            return None
        if record.pairs.get(unit) != pairs.get(unit):
            return None
        if criterion.proc is None and criterion.line in set(
            sdg.procs[unit].analysis.statement_lines()
        ):
            # The dirty unit now owns (or shares) the criterion line:
            # resolution could flip to it or turn ambiguous.
            return None
    cache.stats.record("slices_salvaged")
    return record.sdg_result


def record_sdg_slice(analysis: ProgramAnalysis, sdg, criterion, result) -> None:
    """Store a fully-computed slice for future salvage.  Only reached
    after the slicer returned normally — budget aborts and degraded
    results raise before this point and are never recorded."""
    facts = _salvage_facts(analysis, sdg)
    if facts is None:
        return
    cache, digests, pairs = facts
    cache.put_slice(
        _slice_salvage_key(criterion),
        SliceSalvageRecord(
            digests=dict(digests),
            slice_units=frozenset(result.per_proc),
            pairs=dict(pairs),
            summary_total=sdg.summary_edges,
            sdg_result=result,
        ),
    )
