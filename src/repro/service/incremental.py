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
object, fresh slice memo / SDG / content-key slots, so nothing staled
can leak across programs), and the PDG's condensed closure index —
built lazily on the shared graph — survives the edit with it.

Interprocedural programs additionally reuse the *stitched* per-unit
slicing graphs.  Summary edges at a call site depend only on the
caller's own content and the callee's formal-in→formal-out dependence
pairs, so stitched graphs are cached under an *assumption key* =
(unit fingerprint, every direct callee's pairs).  Assembly walks the
call graph's SCC condensation callees-first:

* a non-recursive unit whose assumption key hits reuses the stitched
  local graph (summary edges and closure index included) verbatim;
* a recursive SCC is always rebuilt by the original worklist from empty
  seeds — pairs can *shrink* under an edit, and seeding the fixpoint
  with stale pairs would overshoot the least fixed point.  Callees-first
  evaluation with empty seeds reproduces exactly the least fixpoint the
  monolithic worklist computes, so summary-edge sets (and the
  ``summary_edges`` count the protocol exposes) are identical.

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
rebuild — so it defaults on.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lang.ast_nodes import MAIN_UNIT, ProcDecl, Program, Stmt, walk_statements
from repro.lang.errors import SlangError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis, analyze_program
from repro.pdg.graph import ProgramDependenceGraph
from repro.sdg.callgraph import CallGraph, build_call_graph
from repro.sdg.params import ParamSignature, signatures
from repro.service.resilience import budget_check_nodes, budget_round, budget_tick

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


def unit_fingerprints(
    program: Program,
    fuse_cond_goto: bool = True,
    chain_io: bool = True,
    dominator_algorithm: str = "iterative",
    graph: Optional[CallGraph] = None,
) -> Dict[str, str]:
    """Per-unit content addresses: unit name → hex digest.

    Two units with equal fingerprints produce identical analyses
    (CFG/PDT/LST/CDG/DDG/PDG, node ids, absolute lines) under the same
    options — the invariant every salvage below rests on.
    """
    if graph is None:
        graph = build_call_graph(program)
    sigs = signatures(program, graph)
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
        for callee in sorted(graph.callees.get(unit, ())):
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


def units_digest(fingerprints: Dict[str, str]) -> str:
    """One digest over the whole per-unit fingerprint vector — the
    content address of the *program modulo formatting* (plus options),
    used for durable-store sub-keys."""
    digest = hashlib.sha256()
    digest.update(b"units|" + FINGERPRINT_VERSION.encode("utf-8"))
    for unit in sorted(fingerprints):
        digest.update(f"|{unit}={fingerprints[unit]}".encode("utf-8"))
    return digest.hexdigest()


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

    FIELDS = (
        "programs",
        "spans_reused",
        "spans_parsed",
        "units_reused",
        "units_built",
        "stitched_reused",
        "stitched_built",
        "recursive_rebuilt",
        "slices_salvaged",
        "indexes_salvaged",
        "store_unit_hits",
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
class StitchedUnit:
    """One unit's slicing graph under one callee-pairs assumption.

    ``local`` is shared across programs and **must not be mutated** —
    the SDG slicer only reads it (and lazily builds its closure index,
    which is idempotent); ``compute_summary_edges`` never runs on it.
    """

    local: ProgramDependenceGraph
    pairs: FrozenSet[Tuple[int, int]]
    summary_count: int


@dataclass
class UnitRecord:
    """Everything cached for one unit fingerprint."""

    analysis: ProgramAnalysis
    #: assumption key → stitched graph (bounded LRU, newest last).
    stitched: "OrderedDict[str, StitchedUnit]" = field(
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
    (slice memo, SDG, content key) living on the *shells*, never on the
    cached record.
    """

    def __init__(
        self,
        capacity: int = 512,
        stitched_per_unit: int = 4,
        span_capacity: int = 2048,
        slice_capacity: int = 256,
        index_capacity: int = 8,
    ) -> None:
        self.capacity = capacity
        self.stitched_per_unit = stitched_per_unit
        self.span_capacity = span_capacity
        self.slice_capacity = slice_capacity
        self.index_capacity = index_capacity
        self._records: "OrderedDict[str, UnitRecord]" = OrderedDict()
        self._spans: "OrderedDict[Tuple[str, str, int], object]" = (
            OrderedDict()
        )
        self._slices: "OrderedDict[Tuple, SliceSalvageRecord]" = (
            OrderedDict()
        )
        #: sdg-index assumption key → SDGClosureIndex (bounded LRU).
        self._indexes: "OrderedDict[str, object]" = OrderedDict()
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
        self, unit_key: str, assume_key: str
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
        self, unit_key: str, assume_key: str, stitched: StitchedUnit
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

    def get_index(self, key: str) -> Optional[object]:
        """A salvaged whole-SDG closure index (repro.sdg.closure), keyed
        by the unit-digest vector plus per-unit formal pairs — the same
        assumptions the summary edges were computed under.  Counted as
        ``indexes_salvaged`` by the caller on a validated hit."""
        with self._lock:
            index = self._indexes.get(key)
            if index is not None:
                self._indexes.move_to_end(key)
            return index

    def put_index(self, key: str, index: object) -> None:
        with self._lock:
            self._indexes[key] = index
            self._indexes.move_to_end(key)
            while len(self._indexes) > max(self.index_capacity, 1):
                self._indexes.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._spans.clear()
            self._slices.clear()
            self._indexes.clear()

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            entries = len(self._records)
            stitched = sum(
                len(record.stitched) for record in self._records.values()
            )
            spans = len(self._spans)
            slices = len(self._slices)
            indexes = len(self._indexes)
        payload: Dict[str, object] = {
            "enabled": incremental_enabled(),
            "capacity": self.capacity,
            "entries": entries,
            "stitched_entries": stitched,
            "span_entries": spans,
            "slice_entries": slices,
            "index_entries": indexes,
        }
        payload.update(self.stats.snapshot())
        return payload


# ---------------------------------------------------------------------------
# Analysis salvage
# ---------------------------------------------------------------------------


def _shell(cached: ProgramAnalysis, program: Program) -> ProgramAnalysis:
    """A fresh :class:`ProgramAnalysis` sharing *cached*'s immutable
    artefacts, carrying the **new** program object.

    The heavy graphs (CFG, trees, dependence graphs, reaching fixpoint)
    and the derived pure-function-of-CFG indexes are shared; the
    per-program mutable slots — slice memo, content key, SDG — start
    empty, so a stale memo entry or a stale SDG can never be served for
    a different program.
    """
    return ProgramAnalysis(
        program=program,
        cfg=cached.cfg,
        pdt=cached.pdt,
        lst=cached.lst,
        cdg=cached.cdg,
        ddg=cached.ddg,
        pdg=cached.pdg,
        reaching=cached.reaching,
        _augmented_cfg=cached._augmented_cfg,
        _augmented_pdg=cached._augmented_pdg,
        _reaching_index=cached._reaching_index,
        _line_index=cached._line_index,
        _goto_sites=cached._goto_sites,
    )


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
    analysis so the SDG builder and the durable-store read path can
    reuse the fingerprints without re-deriving them.
    """
    if cache is None:
        cache = UnitCache()
    with trace_span("parse", bytes=len(source), incremental=True):
        program = incremental_parse(source, cache)
    graph = build_call_graph(program)
    with trace_span("unit-fingerprints", units=len(graph.units)):
        digests = unit_fingerprints(
            program,
            fuse_cond_goto=fuse_cond_goto,
            chain_io=chain_io,
            dominator_algorithm=dominator_algorithm,
            graph=graph,
        )
    cache.stats.record("programs")
    record = cache.get_unit(digests[MAIN_UNIT])
    if record is not None:
        cache.stats.record("units_reused")
        analysis = _shell(record.analysis, program)
    else:
        cache.stats.record("units_built")
        analysis = analyze_program(
            program,
            fuse_cond_goto=fuse_cond_goto,
            chain_io=chain_io,
            dominator_algorithm=dominator_algorithm,
        )
        cache.put_unit(digests[MAIN_UNIT], analysis)
    analysis._unit_digests = digests
    analysis._unit_cache = cache
    return analysis


# ---------------------------------------------------------------------------
# Incremental SDG assembly
# ---------------------------------------------------------------------------


def _pairs_assumption_key(
    unit_key: str, callee_pairs: Dict[str, FrozenSet[Tuple[int, int]]]
) -> str:
    digest = hashlib.sha256()
    digest.update(f"assume|{FINGERPRINT_VERSION}|{unit_key}".encode("utf-8"))
    for callee in sorted(callee_pairs):
        pairs = ",".join(
            f"{i}:{j}" for i, j in sorted(callee_pairs[callee])
        )
        digest.update(f"|{callee}=[{pairs}]".encode("utf-8"))
    return digest.hexdigest()


def _local_pairs(
    local: ProgramDependenceGraph,
    formal_in: Dict[int, int],
    formal_out: Dict[int, int],
) -> FrozenSet[Tuple[int, int]]:
    """``formal_dependences`` over an explicit local graph (the summary
    module's version reads a whole SDG; assembly has the pieces)."""
    pairs: Set[Tuple[int, int]] = set()
    for j, f_out in formal_out.items():
        closure = local.backward_closure([f_out])
        for i, f_in in formal_in.items():
            if f_in in closure:
                pairs.add((i, j))
    return frozenset(pairs)


def _insert_summary_edges(local, info, site_pairs) -> int:
    """Add summary edges for every call site of *info*'s unit from the
    given per-callee pairs; returns the number of edges added (the
    ``add_edge`` dedupe makes re-insertion idempotent, and distinct
    ``(i, j)`` pairs map to distinct ``(actual-in, actual-out)`` node
    pairs per site, so the count matches the monolithic fixpoint's)."""
    added = 0
    for site in info.sites:
        pairs = site_pairs.get(site.callee)
        if not pairs:
            continue
        for i, j in pairs:
            ai = site.actual_in.get(i)
            ao = site.actual_out.get(j)
            if ai is None or ao is None:
                continue
            if local.has_edge(ai, ao, "summary", site.callee):
                continue
            local.add_edge(ai, ao, "summary", site.callee)
            added += 1
    return added


def _scc_order(graph: CallGraph) -> List[List[str]]:
    """SCCs of the call graph in callees-first (reverse topological)
    order, main's SCC last (nothing calls main).  Iterative Tarjan —
    generated call chains are shallow, but no recursion-limit risk."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in graph.units:
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(graph.callees.get(root, ()))))
        ]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (child, iter(sorted(graph.callees.get(child, ()))))
                    )
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
    return sccs


def build_sdg_incremental(
    program: Program,
    main_analysis: ProgramAnalysis,
    cache: UnitCache,
    fuse_cond_goto: bool = True,
    chain_io: bool = True,
    dominator_algorithm: str = "iterative",
):
    """Assemble an :class:`~repro.sdg.builder.SDGAnalysis`, reusing
    cached unit analyses and stitched local graphs.

    Produces the same graph ``build_sdg`` + ``compute_summary_edges``
    would — same per-unit node ids, same summary-edge sets, same
    ``summary_edges`` count (the least fixpoint is unique; see the
    module docstring for why recursive SCCs are rebuilt from empty
    seeds) — with ``summary_iterations`` counting SCC evaluations
    instead of worklist pops.
    """
    from repro.sdg.builder import (
        ProcedureInfo,
        SDGAnalysis,
        _local_graph,
        _site_nodes,
    )

    with trace_span("sdg-build", incremental=True) as span:
        graph = build_call_graph(program)
        sigs = signatures(program, graph)
        digests = getattr(main_analysis, "_unit_digests", None)
        if digests is None:
            digests = unit_fingerprints(
                program,
                fuse_cond_goto=fuse_cond_goto,
                chain_io=chain_io,
                dominator_algorithm=dominator_algorithm,
                graph=graph,
            )

        procs: Dict[str, ProcedureInfo] = {}
        sites_of: Dict[str, List] = {unit: [] for unit in graph.units}
        offset = 0
        for unit in graph.units:
            with trace_span("sdg-unit", unit=unit):
                if unit == MAIN_UNIT:
                    analysis = main_analysis
                else:
                    record = cache.get_unit(digests[unit])
                    if record is not None:
                        cache.stats.record("units_reused")
                        proc = program.proc_named(unit)
                        analysis = _shell(
                            record.analysis,
                            Program(
                                body=proc.body,
                                source=program.source,
                                procs=program.procs,
                            ),
                        )
                    else:
                        cache.stats.record("units_built")
                        analysis = analyze_program(
                            program,
                            fuse_cond_goto=fuse_cond_goto,
                            chain_io=chain_io,
                            dominator_algorithm=dominator_algorithm,
                            unit=unit,
                        )
                        cache.put_unit(digests[unit], analysis)
                cfg = analysis.cfg
                info = ProcedureInfo(
                    name=unit,
                    analysis=analysis,
                    local=None,  # assigned below, per SCC
                    offset=offset,
                )
                for node_id in cfg.formal_ins:
                    info.formal_in[cfg.nodes[node_id].param_index] = node_id
                for node_id in cfg.formal_outs:
                    info.formal_out[cfg.nodes[node_id].param_index] = node_id
                info.sites = _site_nodes(analysis, unit)
                for site in info.sites:
                    sites_of[site.callee].append(site)
                procs[unit] = info
                offset += info.size
                budget_check_nodes(offset, "sdg-build")

        # Summary edges, callees-first over the SCC condensation.
        pairs: Dict[str, FrozenSet[Tuple[int, int]]] = {}
        total_summary = 0
        iterations = 0
        with trace_span("sdg-summary", incremental=True) as summary_span:
            for component in _scc_order(graph):
                iterations += 1
                budget_round("sdg-summary")
                budget_tick("sdg-summary")
                recursive = len(component) > 1 or (
                    component[0] in graph.recursive
                )
                if not recursive:
                    unit = component[0]
                    info = procs[unit]
                    callee_pairs = {
                        callee: pairs[callee]
                        for callee in graph.callees.get(unit, ())
                    }
                    assume_key = _pairs_assumption_key(
                        digests[unit], callee_pairs
                    )
                    stitched = cache.get_stitched(digests[unit], assume_key)
                    if stitched is None:
                        cache.stats.record("stitched_built")
                        local = _local_graph(info.analysis)
                        count = _insert_summary_edges(
                            local, info, callee_pairs
                        )
                        unit_pairs = (
                            frozenset()
                            if unit == MAIN_UNIT
                            else _local_pairs(
                                local, info.formal_in, info.formal_out
                            )
                        )
                        stitched = cache.put_stitched(
                            digests[unit],
                            assume_key,
                            StitchedUnit(
                                local=local,
                                pairs=unit_pairs,
                                summary_count=count,
                            ),
                        )
                    else:
                        cache.stats.record("stitched_reused")
                    info.local = stitched.local
                    pairs[unit] = stitched.pairs
                    total_summary += stitched.summary_count
                    continue

                # Recursive SCC: rebuild from empty seeds (stale pairs
                # must never seed the fixpoint — they can shrink).
                cache.stats.record("recursive_rebuilt", len(component))
                members = set(component)
                for unit in component:
                    info = procs[unit]
                    info.local = _local_graph(info.analysis)
                    external = {
                        callee: pairs[callee]
                        for callee in graph.callees.get(unit, ())
                        if callee not in members
                    }
                    total_summary += _insert_summary_edges(
                        info.local, info, external
                    )
                changed = True
                while changed:
                    changed = False
                    budget_round("sdg-summary")
                    budget_tick("sdg-summary")
                    for unit in component:
                        info = procs[unit]
                        unit_pairs = _local_pairs(
                            info.local, info.formal_in, info.formal_out
                        )
                        if unit_pairs == pairs.get(unit):
                            continue
                        pairs[unit] = unit_pairs
                        internal = {unit: unit_pairs}
                        for site in sites_of[unit]:
                            if site.caller not in members:
                                continue
                            total_summary += _insert_summary_edges(
                                procs[site.caller].local,
                                procs[site.caller],
                                internal,
                            )
                        changed = True
            summary_span.set(edges=total_summary, iterations=iterations)

        sdg = SDGAnalysis(
            program=program,
            graph=graph,
            signatures=sigs,
            procs=procs,
            sites_of=sites_of,
            summary_edges=total_summary if program.procs else 0,
            summary_iterations=iterations if program.procs else 0,
        )
        # Formal pairs per unit: the slice-result salvage compares these
        # across versions to decide whether a dirty unit's edit could
        # have moved any summary edge.
        sdg._unit_pairs = dict(pairs)
        span.set(
            units=len(procs),
            vertices=offset,
            summary_edges=sdg.summary_edges,
        )
        return sdg


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
    cache = getattr(analysis, "_unit_cache", None)
    digests = getattr(analysis, "_unit_digests", None)
    pairs = getattr(sdg, "_unit_pairs", None)
    if cache is None or digests is None or pairs is None:
        return None
    return cache, digests, pairs


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
