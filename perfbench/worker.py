"""One workload in one fresh process (started by ``run.py``).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode probe|run|trace [--min-ops N]

Prints ``ready <input-generation seconds>`` once set-up is done (imports,
engine or server construction, warm-up), then, unless ``--mode probe``,
one ``result <json>`` line.

``run`` times operations for ``--seconds`` of operation wall time, then
checks every answer.  ``trace`` runs the same workload three times on the
same inputs: untraced for half the time, then with every layer wrapped
(:mod:`layers`) for the same number of operations, then unwrapped and
untraced again;
it reports the per-layer split of the traced pass and the tracing
overhead against the mean of the two untraced passes.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import signal
import statistics
import sys
import time
from typing import List


#: Fewest operations in a timed run, so that at least 10 samples lie
#: beyond the 95th percentile.
MIN_OPS = 200
#: Seconds of operation time between CPU swaps (see ``Workload.pin``).
SWAP_SECONDS = 0.5


def timed_loop(
    workload,
    seconds: float = None,
    max_ops: int = None,
    min_ops: int = MIN_OPS,
    recorder=None,
) -> List[float]:
    """Per-operation latencies; stops once ``seconds`` of summed
    operation time and ``min_ops`` operations are done, or after
    ``max_ops`` operations.  Peak RSS is read after the workload's
    ``RSS_AFTER_OPS`` operations (a fixed amount of work), and the
    workload swaps CPUs every ``SWAP_SECONDS`` of operation time.  With a
    ``recorder``, spans are recorded inside operations only."""
    gc.collect()
    clock = time.perf_counter
    latencies: List[float] = []
    total = 0.0
    swaps = 0
    workload.pin(swaps)
    while (
        (total < seconds or len(latencies) < min_ops)
        if max_ops is None
        else len(latencies) < max_ops
    ):
        op = workload.next_op()
        if recorder is not None:
            recorder.enabled = True
        start = clock()
        results = workload.execute(op)
        elapsed = clock() - start
        if recorder is not None:
            recorder.enabled = False
        workload.record(op, results)
        latencies.append(elapsed)
        total += elapsed
        if len(latencies) == workload.RSS_AFTER_OPS:
            workload.rss_mb = workload.peak_rss_mb()
        if total >= (swaps + 1) * SWAP_SECONDS:
            swaps += 1
            workload.pin(swaps)
    return latencies


def _ready(workload) -> None:
    print(f"ready {workload.gen_seconds!r}", flush=True)


def _run(name: str, seed: int, seconds: float, min_ops: int) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    _ready(workload)
    latencies = timed_loop(workload, seconds=seconds, min_ops=min_ops)
    peak_rss = workload.rss_mb or workload.peak_rss_mb()
    workload.close()
    failed, notes = workload.check()
    ops = len(latencies)
    total = sum(latencies)
    return {
        "attempted": ops,
        "failed": failed,
        "notes": notes,
        "metrics": {
            "throughput_per_s": (ops - failed) / total,
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_p95_ms": statistics.quantiles(
                latencies, n=20, method="inclusive"
            )[18]
            * 1000.0,
            "peak_rss_mb": peak_rss,
        },
    }


def _trace(name: str, seed: int, seconds: float, min_ops: int) -> dict:
    from layers import Recorder, counter_delta, install, layer_metrics
    from workloads import WORKLOADS, HttpMix

    plain = WORKLOADS[name](seed)
    plain.setup()
    _ready(plain)
    untraced = timed_loop(plain, seconds=seconds / 2, min_ops=min_ops)
    plain.close()

    recorder = Recorder()
    recorder.enabled = False
    # For http-mix the layers run in the traced server; this process,
    # the load generator, times only its client calls.  (Its own
    # request encoding is not the server's protocol layer.)
    http = WORKLOADS[name] is HttpMix
    uninstall = install(recorder, ("service.client.",) if http else ("",))
    traced = WORKLOADS[name](seed, traced=True)
    traced.setup()
    before = traced.counters()
    if http:
        traced.reset_trace()
    latencies = timed_loop(traced, max_ops=len(untraced), recorder=recorder)
    totals = recorder.totals()
    after = traced.counters()
    traced.close()
    uninstall()
    # A second untraced pass after the traced one, so that pass order
    # favours neither side of the comparison.
    again = WORKLOADS[name](seed)
    again.setup()
    replayed = timed_loop(again, max_ops=len(untraced))
    again.close()
    untraced_seconds = (sum(untraced) + sum(replayed)) / 2

    # In process every span nests inside an operation, so the self times
    # add up to the time the spans cover.
    caller_spans = sum(totals["self_s"].values())
    server_work = None
    if http:
        server = traced.server_totals or {}
        server_work = sum(
            server.get("incl_s", {}).get(key, 0.0)
            for key in ("service.engine.handle", "obs.prom.render")
        )
        caller_spans = totals["incl_s"].get("service.client.round_trip", 0.0)
        totals = _merge(totals, server)
    failed = 0
    notes = []
    for workload in (plain, traced, again):
        wrong, why = workload.check()
        failed += wrong
        notes += why
    ops = len(latencies)
    return {
        "attempted": len(untraced) + ops + len(replayed),
        "failed": failed,
        "notes": notes,
        "metrics": layer_metrics(
            totals,
            ops=ops,
            op_seconds=sum(latencies),
            caller_span_seconds=caller_spans,
            stats_delta=counter_delta(before, after),
            trace_overhead_pct=(sum(latencies) / untraced_seconds - 1.0) * 100.0,
            server_handle_seconds=server_work,
        ),
    }


def _merge(client: dict, server: dict) -> dict:
    """The server's span totals plus the load generator's client spans
    (the two processes time disjoint span keys)."""
    return {
        part: {**server.get(part, {}), **client.get(part, {})}
        for part in ("self_s", "incl_s", "calls", "counts")
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS)
    args = parser.parse_args()
    # The runner sends SIGUSR2 before killing a worker that ran out of
    # time: every thread's stack then shows on standard error.
    faulthandler.register(signal.SIGUSR2, all_threads=True)
    if args.mode == "probe":
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        workload.setup()
        _ready(workload)
        workload.close()
        return 0
    runner = _run if args.mode == "run" else _trace
    result = runner(args.workload, args.seed, args.seconds, args.min_ops)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
