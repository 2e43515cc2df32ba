"""The benchmark workloads.

Each workload is a closed loop with one caller: the runner asks for the
next operation (untimed: inputs are generated here, from the seed),
executes it (timed), then records the answers (untimed).  An operation
is one request; every answer is kept as a digest and checked against
the reference path after the timed region (:mod:`check`).

``bulk-all`` calls ``SlicingEngine.handle`` in process, decoding each
request from its JSON payload and encoding each response with
``dump_json`` the way ``slang batch`` does.  ``http-mix`` runs ``slang
serve`` in its own process and sends one request at a time through
``ServiceClient``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import check
import inputs
from layers import engine_counters
from repro.service import protocol
from repro.service.engine import SlicingEngine

HERE = os.path.dirname(os.path.abspath(__file__))
#: The CPUs this process may swap between: the runner's (it starts each
#: worker pinned to one of them), or this process's own.
CPUS = sorted(
    int(cpu) for cpu in os.environ["PERFBENCH_CPUS"].split(",")
) if os.environ.get("PERFBENCH_CPUS") else sorted(os.sched_getaffinity(0))

#: (source id, line, var, algorithm) — what the reference needs.
RefKey = Tuple[int, int, str, str]


class Workload:
    """Shared bookkeeping: sources, answer digests, generation time."""

    name = ""
    #: Peak RSS is read after this many operations, so it measures a
    #: fixed amount of work rather than however much a run got through.
    RSS_AFTER_OPS = 200

    def __init__(self, seed: int, traced: bool = False) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        #: Whether layers are wrapped (only ``http-mix`` must act on it:
        #: its server is another process).
        self.traced = traced
        self.seed = seed
        self.sources: List[str] = []
        self.answers: List[Tuple[RefKey, bytes]] = []
        self.gen_seconds = 0.0
        self.rss_mb: Optional[float] = None

    # -- inputs -----------------------------------------------------------

    def _source_id(self, source: str) -> int:
        self.sources.append(source)
        return len(self.sources) - 1

    def _timed_generation(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.gen_seconds += time.perf_counter() - start

    # -- the loop ---------------------------------------------------------

    def pin(self, swap: int) -> None:
        """Run on CPU ``swap`` (mod the CPUs available).

        On the calibration host each CPU's speed holds steady for many
        seconds but differs between CPUs by up to a third, and drifts
        over minutes; an unpinned process runs wherever the scheduler
        puts it.  Swapping CPUs every half second of operation time makes
        each run average over all CPUs.
        """
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {CPUS[swap % len(CPUS)]})

    def record(self, op, results) -> None:
        for (key, _), envelope in zip(op, results):
            self.answers.append((key, check.digest(envelope)))

    # -- checking ---------------------------------------------------------

    def check(self) -> Tuple[int, List[str]]:
        """(wrong answers, notes) over every recorded answer."""
        wanted: Dict[int, set] = defaultdict(set)
        for (source_id, line, var, algorithm), _ in self.answers:
            wanted[source_id].add((line, var, algorithm))
        expected = {}
        results = []
        for source_id, criteria in wanted.items():
            for criterion, (good, result) in check.reference(
                self.sources[source_id], sorted(criteria)
            ).items():
                expected[(source_id,) + criterion] = good
                results.append(result)
        wrong = sum(
            1 for key, answer in self.answers if expected[key] != answer
        )
        notes = []
        if wrong:
            notes.append(f"{wrong} answers differ from the reference path")
        failed_oracle, unrun = check.oracle(
            results, random.Random(f"oracle:{self.seed}"), samples=6
        )
        notes += [f"oracle failed: {failure}" for failure in failed_oracle]
        notes += [f"oracle could not run: {line}" for line in unrun]
        return wrong + len(failed_oracle), notes


class BulkAll(Workload):
    """Every ``all``-family criterion of each program, one request at a
    time through ``SlicingEngine.handle`` in this process; each
    program's analysis is built by its first request and shared by the
    rest.

    Programs come in threes, one of each kind, and the three criterion
    families are interleaved in proportion, so every stretch of a run
    holds the kinds in the same shares.  Sent one program after another,
    a run's mix depended on which program it stopped in: the kinds'
    per-criterion costs differ up to tenfold, and the median moved with
    the mix.
    """

    name = "bulk-all"
    RSS_AFTER_OPS = 4000
    #: Output criteria sliced per warm-up program, one program per kind.
    WARM_CRITERIA = 5

    def setup(self) -> None:
        self.engine = SlicingEngine()
        self.stream = inputs.ProgramStream(self.rng, "bulk")
        self.queue: List[list] = []
        rng = random.Random(f"warmup:{self.name}:{self.seed}")
        for kind in inputs.KINDS:
            program = self._timed_generation(
                inputs.generate_program, kind, rng, "cold"
            )
            for line, var in program.output_criteria()[: self.WARM_CRITERIA]:
                self.engine.handle_payload(
                    inputs.slice_payload(
                        program.source, line, var, program.algorithm
                    )
                )

    def next_op(self) -> list:
        if not self.queue:
            ranked = []
            for _ in inputs.KINDS:
                program = self._timed_generation(self.stream.next)
                criteria = self._timed_generation(program.all_criteria)
                source_id = self._source_id(program.source)
                for index, (line, var) in enumerate(criteria):
                    key = (source_id, line, var, program.algorithm)
                    payload = inputs.slice_payload(
                        program.source, line, var, program.algorithm
                    )
                    ranked.append(((index + 0.5) / len(criteria), [(key, payload)]))
            ranked.sort(key=lambda item: item[0], reverse=True)
            self.queue = [op for _, op in ranked]
        return self.queue.pop()

    def execute(self, op) -> list:
        engine = self.engine
        out = []
        for _, payload in op:
            envelope = engine.handle_payload(payload)
            protocol.dump_json(envelope)
            out.append(envelope)
        return out

    def counters(self) -> Dict[str, float]:
        return engine_counters(self.engine.stats_payload())

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        # Drop the engine and its caches: checking needs only the
        # recorded answers, and a later phase in this process must not
        # pay for this one's heap.
        self.engine.close()
        self.engine = None


class HttpMix(Workload):
    """``slang serve`` in its own process, one request at a time through
    ``ServiceClient``: per block of 100 requests, 83 repeated slices on a
    warm set, 10 new criteria on warm programs, 6 never-seen programs
    and 1 ``GET /metrics.prom`` scrape, shuffled.  Six cold requests in
    a hundred put the 95th percentile inside the cold requests' latency,
    so the cold share sets the tail; at four or five it falls on the
    edge between warm and cold traffic, and jumps between runs.

    A warm request's cost follows its program's size, so the warm set
    spreads over many programs: with 12 programs of 8 criteria, the
    median latency moved by a quarter between seeds with the warm set's
    mean program size."""

    name = "http-mix"
    RSS_AFTER_OPS = 1000
    WARM_PROGRAMS = 36
    WARM_CRITERIA = 3
    BLOCK = (("warm", 83), ("new", 10), ("cold", 6), ("scrape", 1))

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        self.server: Optional[subprocess.Popen] = None
        self.server_totals: Optional[dict] = None
        self.scrape_failures = 0

    # -- server lifecycle -------------------------------------------------

    def _start_server(self) -> str:
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if self.traced:
            command.append("--trace")
        self.server = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        while True:
            line = self.server.stderr.readline()
            if not line:
                raise RuntimeError("slang serve exited before listening")
            if "listening on " in line:
                url = line.rsplit("listening on ", 1)[1].strip()
                break
        # Pass on whatever else the server writes to standard error (its
        # errors, a stack dump): left unread, a full pipe would stall it.
        self.relay = threading.Thread(
            target=_relay, args=(self.server.stderr,), daemon=True
        )
        self.relay.start()
        return url

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(self._start_server())
        self.cold = inputs.ProgramStream(self.rng, "cold")
        self.warm: List[RefKey] = []
        self.fresh: Dict[int, List[Tuple[int, str]]] = {}
        self.programs: Dict[int, str] = {}
        for _ in range(self.WARM_PROGRAMS):
            program = self._timed_generation(self.cold.next)
            source_id = self._source_id(program.source)
            self.programs[source_id] = program.algorithm
            criteria = list(self._timed_generation(program.all_criteria))
            self.rng.shuffle(criteria)
            for line, var in criteria[: self.WARM_CRITERIA]:
                self.warm.append((source_id, line, var, program.algorithm))
            self.fresh[source_id] = criteria[self.WARM_CRITERIA :]
        for key in self.warm:
            self.client.post(self._payload(key))
        self.queue: List[list] = []

    def reset_trace(self) -> None:
        """Zero the traced server's span totals (after warm-up)."""
        self.server.send_signal(signal.SIGUSR1)
        if self.server.stdout.readline().strip() != "reset":
            raise RuntimeError("traced server did not reset its spans")

    def _payload(self, key: RefKey) -> dict:
        source_id, line, var, algorithm = key
        return inputs.slice_payload(self.sources[source_id], line, var, algorithm)

    # -- operations -------------------------------------------------------

    def _refill(self) -> None:
        kinds = [kind for kind, count in self.BLOCK for _ in range(count)]
        self.rng.shuffle(kinds)
        for kind in kinds:
            if kind == "scrape":
                self.queue.append([("scrape", None)])
                continue
            if kind == "new":
                open_ids = [sid for sid, rest in self.fresh.items() if rest]
                if open_ids:
                    source_id = self.rng.choice(open_ids)
                    line, var = self.fresh[source_id].pop()
                    key = (source_id, line, var, self.programs[source_id])
                else:
                    key = self.rng.choice(self.warm)
            elif kind == "cold":
                program = self._timed_generation(self.cold.next)
                line, var = self.rng.choice(program.output_criteria())
                key = (
                    self._source_id(program.source),
                    line,
                    var,
                    program.algorithm,
                )
            else:
                key = self.rng.choice(self.warm)
            self.queue.append([(key, self._payload(key))])
        self.queue.reverse()

    def next_op(self) -> list:
        if not self.queue:
            self._refill()
        return self.queue.pop()

    def execute(self, op) -> list:
        key, payload = op[0]
        if key == "scrape":
            status, _ = self.client.get("/metrics.prom")
            return [status]
        return [self.client.post(payload)]

    def record(self, op, results) -> None:
        if op[0][0] == "scrape":
            self.scrape_failures += results[0] != 200
            return
        super().record(op, results)

    def pin(self, swap: int) -> None:
        """Server and load generator on different CPUs, swapped every
        half second of operation time.  The server's request threads
        start from its main thread, so they follow its affinity."""
        if len(CPUS) > 1:
            os.sched_setaffinity(self.server.pid, {CPUS[swap % len(CPUS)]})
            os.sched_setaffinity(0, {CPUS[(swap + 1) % len(CPUS)]})

    # -- measurements -----------------------------------------------------

    def counters(self) -> Dict[str, float]:
        _, stats = self.client.get("/stats")
        out = engine_counters(stats)
        out["client_retries"] = self.client.stats()["retries"]
        return out

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def close(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        # The server writes at most its span totals, a few KB, to standard
        # output, so it never blocks on that pipe before exiting.
        out = self.server.stdout.read()
        self.relay.join()
        if self.traced and out.strip():
            self.server_totals = json.loads(out.strip().splitlines()[-1])
        self.server = None

    def check(self) -> Tuple[int, List[str]]:
        wrong, notes = super().check()
        if self.scrape_failures:
            notes.append(f"{self.scrape_failures} /metrics.prom scrapes failed")
        return wrong + self.scrape_failures, notes


def _relay(stream) -> None:
    for line in stream:
        sys.stderr.write(f"slang serve: {line}")
    stream.close()


WORKLOADS = {
    klass.name: klass for klass in (BulkAll, HttpMix)
}

