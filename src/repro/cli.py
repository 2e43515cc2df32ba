"""The ``slang`` command-line interface.

Subcommands::

    slang parse   FILE                    validate + pretty-print
    slang run     FILE [--input 1,2,3]    execute, print outputs
    slang graph   FILE --kind cfg|pdt|cdg|lst|ddg|pdg [--ascii]
    slang slice   FILE --line N --var V [--algorithm agrawal]
                  [--nodes] [--explain] [--json]
    slang compare FILE --line N --var V [--json]
    slang check   FILE [--format text|json] [--select SL1,...]
                  [--ignore SL105,...]      analysis-backed lint
    slang dynamic FILE --line N --var V --input 1,2,3   dynamic slice
    slang pyslice FILE.py --line N --var V              slice Python
    slang serve   [--host H] [--port P] [--deadline-ms N]
                  [--max-inflight N] [--degrade off|conservative]
                  [--fault-plan FILE] [--workers N] [--store-dir DIR]
                  HTTP slicing service; --workers N>1 runs the
                  supervised multi-process cluster (crash restarts,
                  content-hash sharding, SIGTERM drain)
    slang batch   FILE.jsonl [--stats] [--strict] [--url URL]
                  [--max-retries N] [--backoff S]   run a request batch
                  (in-process, or against a live server with --url)

``slang slice``, ``compare``, ``check``, and ``batch`` accept
``--trace FILE`` (write a Chrome trace-event JSON profile of the run —
every pipeline phase as a span) and ``--trace-summary`` (per-phase cost
table on stderr); ``slang serve --slow-trace-ms N`` traces every
request and retains exemplar span trees for slow ones under ``/stats``.
See the README "Observability" section.

``slang serve`` and ``slang batch`` accept the shared resilience flags
(``--deadline-ms``, ``--max-traversals``, ``--max-nodes``,
``--max-source-bytes``, ``--degrade``, ``--fault-plan``); see the
README "Resilience" section.  ``slang batch --strict`` exits 1 on
permanent failures and 75 (``EX_TEMPFAIL``) when every failure was
transient, so schedulers know whether a retry can help.

``slang slice`` prints the extracted slice as a runnable program;
``--nodes`` prints the node set instead, and ``--explain`` narrates the
Fig. 7 run (each jump's nearest-postdominator / nearest-lexical-
successor verdict, traversal by traversal — the paper's §3 walkthrough,
mechanised).  ``slang compare`` is the quickest way to see the paper's
story on any program: the conventional slice losing jumps, Agrawal's
algorithms restoring them, and the baselines' over- and
under-approximations.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.interp.interpreter import run_program
from repro.lang.errors import SlangError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.lang.validate import validate_program
from repro.pdg.builder import analyze_program
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.extract import extract_source
from repro.slicing.registry import algorithm_names, get_algorithm
from repro.viz.dot import ascii_tree, render_all


@contextmanager
def _maybe_trace(args: argparse.Namespace, root: str) -> Iterator[None]:
    """Run a command body under a tracer when ``--trace`` or
    ``--trace-summary`` was given; afterwards write the Chrome
    trace-event JSON and/or print the per-phase summary to stderr.
    Exports run even when the command fails, so slow *failing* runs can
    be profiled too."""
    trace_file = getattr(args, "trace", None)
    want_summary = getattr(args, "trace_summary", False)
    if not trace_file and not want_summary:
        yield
        return
    from repro.obs import (
        Tracer,
        dump_chrome_trace,
        summary_table,
        use_tracer,
    )

    tracer = Tracer()
    try:
        with use_tracer(tracer):
            with tracer.span(root):
                yield
    finally:
        if trace_file:
            dump_chrome_trace(tracer, trace_file)
        if want_summary:
            print(summary_table(tracer), file=sys.stderr)


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "write a Chrome trace-event JSON profile of this run "
            "(open in chrome://tracing or ui.perfetto.dev)"
        ),
    )
    group.add_argument(
        "--trace-summary",
        action="store_true",
        help="print a per-phase cost table to stderr afterwards",
    )


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_parse(args: argparse.Namespace) -> int:
    program = parse_program(_read_source(args.file))
    validate_program(program)
    sys.stdout.write(pretty(program))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = parse_program(_read_source(args.file))
    inputs: List[int] = []
    if args.input:
        inputs = [int(part) for part in args.input.split(",") if part.strip()]
    env = {}
    for binding in args.env or []:
        name, _, value = binding.partition("=")
        env[name] = int(value)
    result = run_program(program, inputs, initial_env=env)
    for value in result.outputs:
        print(value)
    if result.returned is not None:
        print(f"(returned {result.returned})", file=sys.stderr)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    analysis = analyze_program(_read_source(args.file))
    highlight = None
    if args.line is not None and args.var is not None:
        slicer = get_algorithm(args.algorithm)
        highlight = slicer(
            analysis, SlicingCriterion(line=args.line, var=args.var)
        ).statement_nodes()
    if args.ascii:
        if args.kind == "pdt":
            print(ascii_tree(analysis.pdt, analysis.cfg, highlight))
        elif args.kind == "lst":
            print(ascii_tree(analysis.lst, analysis.cfg, highlight))
        elif args.kind == "cfg":
            print(analysis.cfg.describe())
        else:
            print(
                f"--ascii supports pdt/lst/cfg, not {args.kind}",
                file=sys.stderr,
            )
            return 2
        return 0
    graphs = render_all(analysis, highlight)
    keymap = {
        "cfg": "flowgraph",
        "pdt": "postdominator-tree",
        "cdg": "control-dependence",
        "lst": "lexical-successor-tree",
        "ddg": "data-dependence",
        "pdg": "pdg",
    }
    print(graphs[keymap[args.kind]])
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    with _maybe_trace(args, "slice"):
        return _do_slice(args)


def _do_slice(args: argparse.Namespace) -> int:
    from repro.obs.tracer import trace_span

    with trace_span("read-source"):
        source = _read_source(args.file)
    analysis = analyze_program(source)
    proc = getattr(args, "proc", None)
    criterion = SlicingCriterion(line=args.line, var=args.var, proc=proc)
    from repro.service.engine import check_algorithm_capability

    check_algorithm_capability(analysis, args.algorithm)
    if args.json:
        from repro.service.engine import perform_slice
        from repro.service.protocol import dump_json, ok_envelope

        if args.explain:
            print("--explain and --json are mutually exclusive", file=sys.stderr)
            return 2
        with trace_span("slice-algorithm", algorithm=args.algorithm):
            payload = perform_slice(
                analysis, args.line, args.var, args.algorithm, proc=proc
            )
        with trace_span("emit"):
            print(dump_json(ok_envelope("slice", payload)))
        return 0
    if args.explain:
        if args.algorithm not in ("agrawal", "agrawal-lst"):
            print(
                "--explain narrates the Fig. 7 algorithm; use "
                "--algorithm agrawal or agrawal-lst",
                file=sys.stderr,
            )
            return 2
        from repro.slicing.agrawal import agrawal_slice

        log: List[str] = []
        drive = "lexical" if args.algorithm == "agrawal-lst" else (
            "postdominator"
        )
        with trace_span("slice-algorithm", algorithm=args.algorithm):
            result = agrawal_slice(
                analysis, criterion, drive_tree=drive, explain=log
            )
        for line in log:
            print(f"# {line}")
        print()
    else:
        slicer = get_algorithm(args.algorithm)
        with trace_span("slice-algorithm", algorithm=args.algorithm):
            result = slicer(analysis, criterion)
    with trace_span("emit"):
        sdg_result = getattr(result, "sdg_result", None)
        if args.nodes:
            if sdg_result is not None and sdg_result.sdg.program.procs:
                print(sdg_result.describe())
            else:
                print(result.describe())
        elif sdg_result is not None and sdg_result.sdg.program.procs:
            from repro.slicing.extract import extract_interprocedural_source

            sys.stdout.write(extract_interprocedural_source(sdg_result))
        else:
            sys.stdout.write(extract_source(result))
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    from repro.dynamic.slicer import dynamic_slice

    analysis = analyze_program(_read_source(args.file))
    inputs: List[int] = []
    if args.input:
        inputs = [int(part) for part in args.input.split(",") if part.strip()]
    env = {}
    for binding in args.env or []:
        name, _, value = binding.partition("=")
        env[name] = int(value)
    result = dynamic_slice(
        analysis,
        SlicingCriterion(line=args.line, var=args.var),
        inputs=inputs,
        initial_env=env,
        occurrence=args.occurrence,
    )
    print(
        f"dynamic slice of run on {inputs} w.r.t. "
        f"<{args.var}, line {args.line}> "
        f"(occurrence {args.occurrence}):"
    )
    for node_id in result.statement_nodes():
        node = analysis.cfg.nodes[node_id]
        print(f"  {node_id:>3}  line {node.line:<3} {node.text}")
    print(
        f"trace: {len(result.trace)} events; "
        f"{len(result.events)} in the dynamic closure"
    )
    return 0


def _cmd_pyslice(args: argparse.Namespace) -> int:
    from repro.pyfront.slicer import slice_python

    report = slice_python(
        _read_source(args.file),
        line=args.line,
        var=args.var,
        algorithm=args.algorithm,
    )
    print(report.annotated)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    with _maybe_trace(args, "compare"):
        return _do_compare(args)


def _do_compare(args: argparse.Namespace) -> int:
    analysis = analyze_program(_read_source(args.file))
    criterion = SlicingCriterion(line=args.line, var=args.var)
    if args.json:
        from repro.service.engine import perform_compare
        from repro.service.protocol import dump_json, ok_envelope

        payload = perform_compare(analysis, args.line, args.var)
        print(dump_json(ok_envelope("compare", payload)))
        return 0
    width = max(len(name) for name in algorithm_names())
    for name in algorithm_names():
        slicer = get_algorithm(name)
        try:
            result = slicer(analysis, criterion)
        except SlangError as error:
            first_line = str(error).splitlines()[0]
            print(f"{name:<{width}}  (refused: {first_line})")
            continue
        statements = result.statement_nodes()
        labels = (
            "  labels " + ",".join(f"{k}->{v}" for k, v in result.label_map.items())
            if result.label_map
            else ""
        )
        print(
            f"{name:<{width}}  {len(statements):>3} stmts  "
            f"nodes {statements}{labels}"
        )
    return 0


def _split_codes(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _cmd_check(args: argparse.Namespace) -> int:
    with _maybe_trace(args, "check"):
        return _do_check(args)


def _do_check(args: argparse.Namespace) -> int:
    from repro.lint.rules import run_lint

    report = run_lint(
        _read_source(args.file),
        select=_split_codes(args.select),
        ignore=_split_codes(args.ignore),
    )
    if args.format == "json":
        from repro.service.protocol import dump_json, ok_envelope

        print(dump_json(ok_envelope("check", report.payload())))
    else:
        print(report.format_text())
    return 1 if report.has_errors else 0


def _limits_from_args(args: argparse.Namespace):
    from repro.service.resilience import EngineLimits

    deadline_ms = getattr(args, "deadline_ms", None)
    return EngineLimits(
        deadline_seconds=deadline_ms / 1000.0 if deadline_ms else None,
        max_traversals=getattr(args, "max_traversals", None),
        max_cfg_nodes=getattr(args, "max_nodes", None),
        max_source_bytes=getattr(args, "max_source_bytes", None),
        max_inflight=getattr(args, "max_inflight", None),
        degrade=getattr(args, "degrade", "conservative"),
    )


def _faults_from_args(args: argparse.Namespace):
    if getattr(args, "fault_plan", None) is None:
        return None
    from repro.service.faults import FaultPlan

    return FaultPlan.from_json_file(args.fault_plan)


def _store_from_args(args: argparse.Namespace):
    store_dir = getattr(args, "store_dir", None)
    if store_dir is None:
        return None
    from repro.service.store import DurableStore

    kwargs = {}
    max_bytes = getattr(args, "store_max_bytes", None)
    if max_bytes is not None:
        kwargs["max_bytes"] = max_bytes
    return DurableStore(store_dir, **kwargs)


def _make_engine(args: argparse.Namespace):
    from repro.service.cache import AnalysisCache
    from repro.service.engine import SlicingEngine

    slow_ms = getattr(args, "slow_trace_ms", None)
    # serve: --threads is the pool width (--workers means processes);
    # batch keeps --workers as its thread-pool width.
    threads = getattr(args, "threads", None)
    if threads is None:
        threads = getattr(args, "workers", None)
    cache = AnalysisCache(capacity=args.cache_size)
    return SlicingEngine(
        cache=cache,
        workers=threads,
        limits=_limits_from_args(args),
        faults=_faults_from_args(args),
        store=_store_from_args(args),
        slow_trace_seconds=slow_ms / 1000.0 if slow_ms is not None else None,
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="per-request wall-clock budget in milliseconds",
    )
    group.add_argument(
        "--max-traversals",
        type=int,
        default=None,
        help="cap on Fig. 7 traversal / fixed-point rounds per request",
    )
    group.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="refuse programs whose CFG exceeds this many nodes",
    )
    group.add_argument(
        "--max-source-bytes",
        type=int,
        default=None,
        help="refuse request sources larger than this many bytes",
    )
    group.add_argument(
        "--degrade",
        choices=["off", "conservative"],
        default="conservative",
        help=(
            "on budget exhaustion, fall back to the sound Fig. 13 "
            "conservative slicer (default) or return the error (off)"
        ),
    )
    group.add_argument(
        "--fault-plan",
        metavar="FILE",
        default=None,
        help="JSON fault-injection plan (testing; see DESIGN.md §9)",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers > 1:
        return _serve_cluster(args)
    return _serve_single(args)


def _serve_cluster(args: argparse.Namespace) -> int:
    """``slang serve --workers N`` (N > 1): the supervised process pool."""
    import dataclasses
    import json

    from repro.service.cluster import ClusterConfig, ClusterSupervisor

    faults = None
    if args.fault_plan:
        with open(args.fault_plan, "r", encoding="utf-8") as handle:
            faults = json.load(handle)
    config = ClusterConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        threads=args.threads,
        store_root=args.store_dir,
        store_max_bytes=args.store_max_bytes,
        faults=faults,
        limits=dataclasses.asdict(_limits_from_args(args)),
        heartbeat_timeout=args.heartbeat_timeout,
        drain_seconds=args.drain_seconds,
        verbose=True,
    )
    supervisor = ClusterSupervisor(config)
    print(
        f"slang cluster supervisor on http://{args.host}:{args.port} "
        f"({args.workers} workers, sharded by program content hash)",
        file=sys.stderr,
    )
    try:
        supervisor.serve_forever()
    except KeyboardInterrupt:
        supervisor.stop(drain=True)
    return 0


def _serve_single(args: argparse.Namespace) -> int:
    import signal
    import threading
    import time

    from repro.service.server import make_server

    engine = _make_engine(args)
    server = make_server(
        args.host,
        args.port,
        engine=engine,
        verbose=args.verbose,
        max_body_bytes=args.max_body_bytes,
    )
    host, port = server.server_address[:2]
    print(f"slang service listening on http://{host}:{port}", file=sys.stderr)
    print(
        "endpoints: POST /slice /compare /graph /metrics /check /batch; "
        "GET /stats /metrics.prom /algorithms /healthz /readyz",
        file=sys.stderr,
    )

    def _drain() -> None:
        engine.begin_drain()
        deadline = time.monotonic() + args.drain_seconds
        while engine.gate.inflight > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        server.shutdown()

    def _on_term(signum: int, frame) -> None:
        print("draining (SIGTERM)", file=sys.stderr)
        threading.Thread(target=_drain, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        engine.close()
    return 0


#: ``slang batch --strict`` exit code when every failure was transient
#: (retry later): BSD ``EX_TEMPFAIL``.
EXIT_TEMPFAIL = 75


def _cmd_batch(args: argparse.Namespace) -> int:
    with _maybe_trace(args, "batch"):
        return _do_batch(args)


def _do_batch(args: argparse.Namespace) -> int:
    import json

    from repro.service.protocol import TRANSIENT_ERROR_CODES, dump_json
    from repro.service.resilience import RetryPolicy

    from repro.obs.tracer import trace_span

    payloads = []
    with trace_span("read-requests"):
        text = _read_source(args.file)
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payloads.append(json.loads(line))
            except json.JSONDecodeError as error:
                print(
                    f"error: {args.file}:{lineno}: not valid JSON: {error}",
                    file=sys.stderr,
                )
                return 2
    retry = None
    if args.max_retries:
        retry = RetryPolicy(
            max_retries=args.max_retries,
            backoff_seconds=args.backoff,
            seed=args.retry_seed,
        )
    if args.url:
        return _batch_remote(args, payloads, retry)
    engine = _make_engine(args)
    try:
        # Per-request pipeline spans live in the workers' own tracers
        # (request payloads may ask with "trace": true); this span is
        # the batch's wall clock.
        with trace_span("run-batch", requests=len(payloads)):
            responses = engine.run_batch(payloads, retry=retry)
    finally:
        engine.close()
    permanent = transient = 0
    for response in responses:
        if not response.get("ok"):
            code = response.get("error", {}).get("code")
            if code in TRANSIENT_ERROR_CODES:
                transient += 1
            else:
                permanent += 1
        print(dump_json(response))
    if permanent or transient:
        print(
            f"batch: {len(responses)} responses, "
            f"{permanent} permanent failure(s), "
            f"{transient} transient failure(s)",
            file=sys.stderr,
        )
    if args.stats:
        print(dump_json(engine.stats_payload()), file=sys.stderr)
    if args.strict:
        if permanent:
            return 1
        if transient:
            return EXIT_TEMPFAIL
    return 0


def _batch_remote(args: argparse.Namespace, payloads, retry) -> int:
    """``slang batch --url``: the batch over HTTP via the retrying
    client (each request posts to its own endpoint, so a cluster
    supervisor shards them across workers)."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import dump_json

    with ServiceClient(
        args.url,
        retry=retry if retry is not None else None,
    ) as client:
        responses = client.run_batch(
            payloads, concurrency=args.workers or 8
        )
        if args.stats:
            client_stats = client.stats()
            status, stats = client.get("/stats")
    permanent = transient = 0
    for response in responses:
        if not response.get("ok"):
            if response.get("error", {}).get("retryable"):
                transient += 1
            else:
                permanent += 1
        print(dump_json(response))
    if permanent or transient:
        print(
            f"batch: {len(responses)} responses, "
            f"{permanent} permanent failure(s), "
            f"{transient} transient failure(s)",
            file=sys.stderr,
        )
    if args.stats:
        print(dump_json(client_stats), file=sys.stderr)
        if status == 200:
            print(dump_json(stats), file=sys.stderr)
    if args.strict:
        if permanent:
            return 1
        if transient:
            return EXIT_TEMPFAIL
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slang",
        description=(
            "Program slicing with jump statements — reproduction of "
            "Agrawal, PLDI 1994"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="validate and pretty-print")
    p_parse.add_argument("file")
    p_parse.set_defaults(func=_cmd_parse)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("file")
    p_run.add_argument("--input", help="comma-separated input stream")
    p_run.add_argument(
        "--env", action="append", help="initial binding NAME=INT (repeatable)"
    )
    p_run.set_defaults(func=_cmd_run)

    p_graph = sub.add_parser("graph", help="emit analysis graphs")
    p_graph.add_argument("file")
    p_graph.add_argument(
        "--kind",
        choices=["cfg", "pdt", "cdg", "lst", "ddg", "pdg"],
        default="cfg",
    )
    p_graph.add_argument("--ascii", action="store_true")
    p_graph.add_argument("--line", type=int, help="highlight a slice")
    p_graph.add_argument("--var")
    p_graph.add_argument("--algorithm", default="agrawal")
    p_graph.set_defaults(func=_cmd_graph)

    p_slice = sub.add_parser("slice", help="slice a program")
    p_slice.add_argument("file")
    p_slice.add_argument("--line", type=int, required=True)
    p_slice.add_argument("--var", required=True)
    p_slice.add_argument(
        "--algorithm", default="agrawal", choices=algorithm_names()
    )
    p_slice.add_argument(
        "--proc",
        default=None,
        help=(
            "procedure the criterion line lives in ('main' for the "
            "top level); needed only when statements of several "
            "procedures share the line"
        ),
    )
    p_slice.add_argument(
        "--nodes", action="store_true", help="print node set, not source"
    )
    p_slice.add_argument(
        "--explain",
        action="store_true",
        help="narrate the Fig. 7 run (jump examinations, npd/nls verdicts)",
    )
    p_slice.add_argument(
        "--json",
        action="store_true",
        help="emit the service protocol envelope (same bytes as POST /slice)",
    )
    _add_trace_args(p_slice)
    p_slice.set_defaults(func=_cmd_slice)

    p_compare = sub.add_parser(
        "compare", help="run every algorithm on one criterion"
    )
    p_compare.add_argument("file")
    p_compare.add_argument("--line", type=int, required=True)
    p_compare.add_argument("--var", required=True)
    p_compare.add_argument(
        "--json",
        action="store_true",
        help="emit the service protocol envelope (same bytes as POST /compare)",
    )
    _add_trace_args(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_check = sub.add_parser(
        "check", help="run the analysis-backed lint rules"
    )
    p_check.add_argument("file")
    p_check.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="json emits the service envelope (same bytes as POST /check)",
    )
    p_check.add_argument(
        "--select",
        help="comma-separated code prefixes to keep (e.g. SL1,SL204)",
    )
    p_check.add_argument(
        "--ignore",
        help="comma-separated code prefixes to drop (applied after --select)",
    )
    _add_trace_args(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_dynamic = sub.add_parser(
        "dynamic", help="dynamic slice of one execution"
    )
    p_dynamic.add_argument("file")
    p_dynamic.add_argument("--line", type=int, required=True)
    p_dynamic.add_argument("--var", required=True)
    p_dynamic.add_argument("--input", help="comma-separated input stream")
    p_dynamic.add_argument(
        "--env", action="append", help="initial binding NAME=INT"
    )
    p_dynamic.add_argument(
        "--occurrence",
        type=int,
        default=-1,
        help="which execution of the criterion statement (default: last)",
    )
    p_dynamic.set_defaults(func=_cmd_dynamic)

    p_pyslice = sub.add_parser(
        "pyslice", help="slice a Python file (structured jumps only)"
    )
    p_pyslice.add_argument("file")
    p_pyslice.add_argument("--line", type=int, required=True)
    p_pyslice.add_argument("--var", required=True)
    p_pyslice.add_argument(
        "--algorithm",
        default="structured",
        choices=algorithm_names(),
    )
    p_pyslice.set_defaults(func=_cmd_pyslice)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP slicing service (stdlib only)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8377, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes; > 1 runs the supervised cluster "
            "(sharded by program content hash, crash-restarted, "
            "drained on SIGTERM — see README 'Running a cluster')"
        ),
    )
    p_serve.add_argument(
        "--threads",
        type=int,
        default=None,
        help="thread-pool width per process (default: executor default)",
    )
    p_serve.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help=(
            "durable on-disk analysis store shared by every worker and "
            "surviving restarts (checksummed, LRU-bounded)"
        ),
    )
    p_serve.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        help="evict least-recently-used store entries beyond this size",
    )
    p_serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=5.0,
        help="kill a worker that stops answering /healthz this long",
    )
    p_serve.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="graceful-drain deadline on SIGTERM",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=128, help="analysis cache capacity"
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="shed requests beyond this many concurrently in flight (503)",
    )
    p_serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="reject HTTP bodies larger than this (413)",
    )
    p_serve.add_argument(
        "--slow-trace-ms",
        type=float,
        default=None,
        help=(
            "trace every request and retain exemplar span trees for "
            "requests at least this slow (surfaced under /stats)"
        ),
    )
    _add_resilience_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_batch = sub.add_parser(
        "batch",
        help="run a JSONL file of service requests through the worker pool",
    )
    p_batch.add_argument("file", help="one JSON request per line ('-' = stdin)")
    p_batch.add_argument(
        "--stats",
        action="store_true",
        help="print request/latency/cache counters to stderr afterwards",
    )
    p_batch.add_argument(
        "--strict",
        action="store_true",
        help=(
            "exit 1 on permanent failures, 75 (EX_TEMPFAIL) when every "
            "failure was transient (overloaded / fault-injected)"
        ),
    )
    p_batch.add_argument("--workers", type=int, default=None)
    p_batch.add_argument(
        "--url",
        default=None,
        help=(
            "run the batch against a live server (e.g. "
            "http://127.0.0.1:8377) instead of in-process; transport "
            "failures and 503s retry per the retry flags, honoring "
            "server-sent Retry-After as the backoff floor"
        ),
    )
    p_batch.add_argument(
        "--cache-size", type=int, default=128, help="analysis cache capacity"
    )
    p_batch.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="re-issue transient failures up to N times with backoff",
    )
    p_batch.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="base backoff in seconds (exponential, jittered)",
    )
    p_batch.add_argument(
        "--retry-seed",
        type=int,
        default=None,
        help="seed the backoff jitter for reproducible schedules",
    )
    _add_trace_args(p_batch)
    _add_resilience_args(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlangError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
