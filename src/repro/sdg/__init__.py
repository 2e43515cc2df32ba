"""System-dependence-graph (SDG) subsystem: interprocedural slicing.

Modules
-------
``callgraph``
    Call-graph construction over a parsed program (pure AST level — the
    CFG builder uses it to shape call-site nodes without an import
    cycle).
``params``
    The value-result parameter model: per-procedure formals (including
    the implicit ``$in`` input cursor) and per-call-site actuals.
``builder``
    Per-procedure analyses stitched into an :class:`SDGAnalysis` with
    globally-numbered vertices and interprocedural edges, and the
    Horwitz–Reps–Binkley summary edges (actual-in → actual-out),
    computed callees-first over the call graph's SCCs.  The one SDG
    builder, cold or salvaging through a unit cache.
``closure``
    The whole-SDG closure index that amortizes multi-criterion slicing.
``slicer``
    The classic two-pass backward interprocedural slicer, with
    Agrawal's Fig. 7 jump correction applied per procedure.

Only :mod:`repro.sdg.callgraph` is imported eagerly; import the other
modules directly (they pull in the whole analysis stack).
"""

from repro.sdg.callgraph import CallGraph, build_call_graph  # noqa: F401
