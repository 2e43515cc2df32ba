"""PDG construction and the :class:`ProgramAnalysis` bundle.

:func:`analyze_program` runs the whole front-end pipeline once — parse
(when given source text), CFG, postdominator tree, lexical successor
tree, control and data dependence, PDG — and hands back one object the
slicing algorithms share.  The augmented variants (Ball–Horwitz) are
computed lazily since only that baseline needs them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.control_dependence import (
    ControlDependenceGraph,
    compute_control_dependence,
)
from repro.analysis.dataflow import DataflowResult
from repro.analysis.defuse import DataDependenceGraph, compute_data_dependence
from repro.analysis.lexical import LexicalSuccessorTree, build_lst
from repro.analysis.reaching_defs import (
    ReachingDefinitions,
    compute_reaching_definitions,
)
from repro.analysis.postdominance import build_postdominator_tree
from repro.analysis.tree import Tree
from repro.cfg.augmented import build_augmented_cfg
from repro.cfg.builder import build_cfg
from repro.cfg.graph import ControlFlowGraph, NodeKind
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.obs.tracer import trace_span
from repro.pdg.graph import CONTROL, DATA, ProgramDependenceGraph


def build_pdg(
    cfg: ControlFlowGraph,
    cdg: Optional[ControlDependenceGraph] = None,
    ddg: Optional[DataDependenceGraph] = None,
    pdt: Optional[Tree] = None,
) -> ProgramDependenceGraph:
    """Merge control and data dependence into a PDG.

    Any of the ingredient graphs may be passed in to avoid recomputation;
    missing ones are computed from *cfg*.
    """
    if cdg is None:
        if pdt is None:
            pdt = build_postdominator_tree(cfg)
        cdg = compute_control_dependence(cfg, pdt)
    if ddg is None:
        ddg = compute_data_dependence(cfg)
    pdg = ProgramDependenceGraph()
    for node_id in cfg.nodes:
        pdg.add_node(node_id)
    for src, dst, label in cdg.edges():
        pdg.add_edge(src, dst, CONTROL, label)
    for src, dst, var in ddg.edges():
        pdg.add_edge(src, dst, DATA, var)
    pdg.seal()
    return pdg


def build_augmented_pdg(
    cfg: ControlFlowGraph,
    ddg: Optional[DataDependenceGraph] = None,
    augmented: Optional[ControlFlowGraph] = None,
) -> ProgramDependenceGraph:
    """The Ball–Horwitz / Choi–Ferrante augmented PDG: control dependence
    from the **augmented** flowgraph, data dependence from the **plain**
    one (paper §5).  Pass *cfg*'s augmented flowgraph when it is already
    built."""
    if augmented is None:
        augmented = build_augmented_cfg(cfg)
    pdt = build_postdominator_tree(augmented)
    cdg = compute_control_dependence(augmented, pdt)
    return build_pdg(cfg, cdg=cdg, ddg=ddg)


@dataclass
class ProgramAnalysis:
    """Every analysis artefact for one program, computed once.

    Attributes mirror the paper's figures: ``cfg`` (the flowgraph),
    ``pdt`` (postdominator tree), ``cdg`` (control dependence graph),
    ``lst`` (lexical successor tree), ``ddg``/``pdg`` (data / program
    dependence graphs).
    """

    program: Program
    cfg: ControlFlowGraph
    pdt: Tree
    lst: LexicalSuccessorTree
    cdg: ControlDependenceGraph
    ddg: DataDependenceGraph
    pdg: ProgramDependenceGraph
    reaching: Optional[Union[ReachingDefinitions, DataflowResult]] = field(
        default=None, repr=False
    )
    _augmented_cfg: Optional[ControlFlowGraph] = field(default=None, repr=False)
    _augmented_pdg: Optional[ProgramDependenceGraph] = field(
        default=None, repr=False
    )
    #: (node, var) -> reaching definition sites of a set-based
    #: ``reaching``, built on the first reaching_defs_of call; criterion
    #: resolution hits that method per query, so the old linear scan of
    #: reaching.in_[node] was O(defs) per lookup in batch workloads.
    _reaching_index: Optional[Dict[Tuple[int, str], List[int]]] = field(
        default=None, repr=False, compare=False
    )
    #: Content address of this analysis (repro.service.cache.analysis_key),
    #: stashed by the AnalysisCache so the engine can derive durable-store
    #: keys without re-hashing the source on every slice.
    _content_key: Optional[str] = field(
        default=None, repr=False, compare=False
    )
    #: line -> statement node ids at that line (criterion resolution
    #: runs once per request; the scan of every statement node per
    #: lookup dominated multi-criterion batches).
    _line_index: Optional[Dict[int, Tuple[int, ...]]] = field(
        default=None, repr=False, compare=False
    )
    #: (node id, label, target id) for every goto/condgoto, in node-id
    #: order — the only nodes label re-association can touch.
    _goto_sites: Optional[Tuple[Tuple[int, str, int], ...]] = field(
        default=None, repr=False, compare=False
    )
    #: The jump nodes of ``pdt`` / ``lst`` in that tree's pre-order —
    #: the Fig. 7 visit schedules, built by :meth:`jump_preorder`.
    _pdt_jump_preorder: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )
    _lst_jump_preorder: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )
    #: The program's system dependence graph, memoized by
    #: :func:`repro.sdg.builder.sdg_for_analysis`.
    _sdg: Optional[object] = field(default=None, repr=False, compare=False)
    #: Unit name -> content fingerprint, and the unit cache the analysis
    #: was salvaged through; both set by the incremental front end
    #: (repro.service.incremental) and ``None`` on a cold analysis.
    _unit_digests: Optional[Dict[str, str]] = field(
        default=None, repr=False, compare=False
    )
    _unit_cache: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    #: Serialises the first build of the lazy augmented graphs, so two
    #: threads sharing a cached analysis build each of them once.
    _lazy_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def rebind(self, program: Program) -> "ProgramAnalysis":
        """A fresh analysis carrying *program* that shares this one's
        immutable graphs and derived indexes; its per-program slots
        (content key, SDG, unit bookkeeping) start empty, so nothing
        stale can be served for a different program.  The SDG keeps
        such a shell of its main analysis, so the analysis's memoized
        SDG never points back at it (DESIGN.md §17)."""
        return ProgramAnalysis(
            program=program,
            cfg=self.cfg,
            pdt=self.pdt,
            lst=self.lst,
            cdg=self.cdg,
            ddg=self.ddg,
            pdg=self.pdg,
            reaching=self.reaching,
            _augmented_cfg=self._augmented_cfg,
            _augmented_pdg=self._augmented_pdg,
            _reaching_index=self._reaching_index,
            _line_index=self._line_index,
            _goto_sites=self._goto_sites,
            _pdt_jump_preorder=self._pdt_jump_preorder,
            _lst_jump_preorder=self._lst_jump_preorder,
        )

    @property
    def augmented_cfg(self) -> ControlFlowGraph:
        """The Ball–Horwitz augmented flowgraph, built on first use:
        only that family reads it."""
        if self._augmented_cfg is None:
            with self._lazy_lock:
                if self._augmented_cfg is None:
                    with trace_span("augmented-cfg"):
                        self._augmented_cfg = build_augmented_cfg(self.cfg)
        return self._augmented_cfg

    @property
    def augmented_pdg(self) -> ProgramDependenceGraph:
        """The augmented PDG, built on first use under the same lock."""
        if self._augmented_pdg is None:
            augmented = self.augmented_cfg
            with self._lazy_lock:
                if self._augmented_pdg is None:
                    with trace_span("augmented-pdg"):
                        self._augmented_pdg = build_augmented_pdg(
                            self.cfg, ddg=self.ddg, augmented=augmented
                        )
        return self._augmented_pdg

    def node_text(self, node_id: int) -> str:
        return self.cfg.nodes[node_id].text

    def nodes_at_line(self, line: int) -> Tuple[int, ...]:
        """Statement node ids at *line*, from a per-analysis index.

        Safe to build once: the analysis (and its CFG) is immutable
        after construction (DESIGN.md §7)."""
        index = self._line_index
        if index is None:
            index = {}
            for node in self.cfg.statement_nodes():
                index.setdefault(node.line, []).append(node.id)
            index = {
                line_no: tuple(ids) for line_no, ids in index.items()
            }
            self._line_index = index
        return index.get(line, ())

    def statement_lines(self) -> List[int]:
        """All lines that hold at least one statement, sorted."""
        if self._line_index is None:
            self.nodes_at_line(0)
        return sorted(self._line_index)

    def goto_sites(self) -> Tuple[Tuple[int, str, int], ...]:
        """(node id, label, target node id) for every goto/condgoto, in
        node-id order — precomputed so label re-association visits only
        jump sites instead of scanning the whole slice."""
        sites = self._goto_sites
        if sites is None:
            cfg = self.cfg
            sites = tuple(
                (node.id, node.goto_target, cfg.label_entry[node.goto_target])
                for node in cfg.statement_nodes()
                if node.goto_target is not None
                and node.kind in (NodeKind.GOTO, NodeKind.CONDGOTO)
            )
            self._goto_sites = sites
        return sites

    def jump_preorder(self, tree: Tree) -> Tuple[int, ...]:
        """The jump nodes of *tree* (``pdt`` or ``lst``) in its pre-order.

        This is the Fig. 7 visit schedule: a traversal examines only
        unconditional jumps, so the restriction visits them in the same
        order as the full walk while skipping every other node
        (DESIGN.md §11, "jump schedule")."""
        if tree is self.pdt:
            schedule = self._pdt_jump_preorder
        elif tree is self.lst:
            schedule = self._lst_jump_preorder
        else:
            raise ValueError("jump_preorder takes this analysis's pdt or lst")
        if schedule is None:
            nodes = self.cfg.nodes
            schedule = tuple(
                node_id
                for node_id in tree.preorder()
                if node_id in nodes and nodes[node_id].is_jump
            )
            if tree is self.pdt:
                self._pdt_jump_preorder = schedule
            else:
                self._lst_jump_preorder = schedule
        return schedule

    def reaching_defs_of(self, node_id: int, var: str):
        """Nodes whose definition of *var* may reach the entry of
        *node_id* (used to resolve criteria naming a variable the
        criterion statement does not itself use).

        A mask-native result answers from its masks.  A set-based one
        (``engine="sets"``) answers from a per-(node, var) index built on
        first call — one pass over the fixed point instead of a linear
        scan of ``reaching.in_[node_id]`` per query.
        """
        if self.reaching is None:
            with trace_span("reaching-defs"):
                self.reaching = compute_reaching_definitions(self.cfg)
        if isinstance(self.reaching, ReachingDefinitions):
            return self.reaching.sites(node_id, var)
        index = self._reaching_index
        if index is None:
            built: Dict[Tuple[int, str], List[int]] = {}
            for entry_node, definitions in self.reaching.in_.items():
                per_var: Dict[str, set] = {}
                for definition in definitions:
                    per_var.setdefault(definition.var, set()).add(
                        definition.node
                    )
                for var_name, sites in per_var.items():
                    built[(entry_node, var_name)] = sorted(sites)
            index = built
            self._reaching_index = index
        return list(index.get((node_id, var), []))

    def lines_of(self, node_ids) -> Dict[int, int]:
        """Map node id → source line for a node set (reporting helper)."""
        return {
            node_id: self.cfg.nodes[node_id].line for node_id in sorted(node_ids)
        }


def analyze_program(
    source_or_program: Union[str, Program],
    unit: Optional[str] = None,
) -> ProgramAnalysis:
    """Run the full analysis pipeline on SL source text or a parsed AST.

    ``unit`` selects which unit of a multi-procedure program to analyse
    (``None`` = main); the SDG builder runs this pipeline once per
    procedure and stitches the results together.

    Each phase runs under an observability span (no-ops unless a
    :class:`repro.obs.Tracer` is installed), so a traced request or a
    ``slang slice --trace`` run can attribute front-end cost to parse
    vs. CFG vs. dominance vs. dependence construction.
    """
    with trace_span("analyze") as span:
        if isinstance(source_or_program, str):
            with trace_span("parse", bytes=len(source_or_program)):
                program = parse_program(source_or_program)
        else:
            program = source_or_program
        with trace_span("cfg-build", unit=unit or "main"):
            cfg = build_cfg(program, unit=unit)
        if unit is not None:
            # Downstream consumers (syntactic LST rebuild, extraction)
            # read ``analysis.program.body`` as *this unit's* body, so a
            # procedure analysis carries a unit view of the program.
            proc = program.proc_named(unit)
            program = Program(
                body=proc.body, source=program.source, procs=program.procs
            )
        span.set(nodes=len(cfg.nodes))
        with trace_span("postdominance"):
            pdt = build_postdominator_tree(cfg)
        with trace_span("lexical-successor-tree"):
            lst = build_lst(cfg)
        with trace_span("control-dependence"):
            cdg = compute_control_dependence(cfg, pdt)
        with trace_span("reaching-defs"):
            reaching = compute_reaching_definitions(cfg)
        with trace_span("data-dependence"):
            ddg = compute_data_dependence(cfg, reaching)
        with trace_span("pdg-build"):
            pdg = build_pdg(cfg, cdg=cdg, ddg=ddg)
    return ProgramAnalysis(
        program=program,
        cfg=cfg,
        pdt=pdt,
        lst=lst,
        cdg=cdg,
        ddg=ddg,
        pdg=pdg,
        reaching=reaching,
    )
