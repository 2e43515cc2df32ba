"""Serve never-seen programs and report what the collector sees.

Run by ``tests/integration/test_collector.py`` in a fresh interpreter per
scenario, so that disabling the collector, saving garbage and freezing
the heap touch neither the test process nor each other::

    python -m tests.integration.collector_probe engine|http|plateau

The last line of standard output is one JSON object:

* ``engine`` / ``http``: ``{"found": N, "kinds": [[type, count], ...]}``,
  the objects only the collector could free after ``COLD`` steady-state
  cold requests through ``SlicingEngine.handle_payload`` or through the
  HTTP server (with a ``/metrics.prom`` and ``/stats`` scrape every ten
  requests), served with the collector off, ``gc.DEBUG_SAVEALL`` on and
  the freeze disabled so nothing hides in the permanent generation;
* ``plateau``: ``{"after_k": N, "after_3k": M}``, the tracked heap after
  K and after 3K cold requests past ``PLATEAU_FILL``, freeze on.

Programs have the benchmark's ``http-mix`` size, one third of each kind.
"""

from __future__ import annotations

import collections
import gc
import json
import random
import re
import sys
import threading
from typing import Callable, Dict, List

from repro.gen.generator import (
    GeneratorConfig,
    generate_interprocedural,
    generate_structured,
    generate_unstructured,
)
from repro.lang.pretty import pretty
from repro.service.cache import AnalysisCache
from repro.service.client import ServiceClient
from repro.service.engine import SlicingEngine
from repro.service.incremental import UnitCache
from repro.service.server import make_server

#: Cache sizes small enough that FILL programs fill every tier, so that
#: each cold request evicts.  COLD requests are then checked for
#: garbage.  The heap itself settles later: the plateau compares it
#: after PLATEAU_FILL + K requests and after 2K more.
ANALYSIS_CAPACITY = 8
FILL = 20
COLD = 100
PLATEAU_FILL = 40
K = 25

_WRITE = re.compile(r"^write\(([A-Za-z_]\w*)\);$", re.MULTILINE)

#: Structured programs grow from small pieces to a line count, and
#: multi-procedure ones are drawn until their line count falls in a band,
#: so that program sizes, and with them the heap, vary little.
_PIECE = GeneratorConfig(
    max_depth=2, max_stmts=5, num_vars=6, jump_probability=0.1
)
_MULTI = GeneratorConfig(
    num_procs=9, max_depth=3, max_stmts=8, num_vars=6, call_probability=0.3
)


def _program(rng: random.Random, kind: int):
    """An ``http-mix``-size program: 150-line structured, 110-statement
    goto-unstructured, or 9 procedures in 120–180 lines."""
    if kind == 0:
        writes = _PIECE.num_vars
        body, lines = [], writes
        while True:
            piece = generate_structured(rng, _PIECE)
            lines += pretty(piece).count("\n") - writes
            if lines >= 150:
                piece.body = body + piece.body
                return pretty(piece), "agrawal"
            body += piece.body[:-writes]
    if kind == 1:
        program = generate_unstructured(
            rng, GeneratorConfig(flat_length=110, num_vars=6)
        )
        return pretty(program), "agrawal"
    while True:
        source = pretty(generate_interprocedural(rng, _MULTI))
        if 120 <= source.count("\n") <= 180:
            return source, "interprocedural"


def cold_requests(count: int) -> List[dict]:
    """Slice requests on *count* distinct programs; the criterion is one
    of ``main``'s top-level writes."""
    rng = random.Random(1707)
    requests = []
    for index in range(count):
        source, algorithm = _program(rng, index % 3)
        writes = [
            (source.count("\n", 0, match.start()) + 1, match.group(1))
            for match in _WRITE.finditer(source)
        ]
        line, var = rng.choice(writes)
        requests.append(
            {"version": 1, "op": "slice", "source": source, "line": line,
             "var": var, "algorithm": algorithm}
        )
    return requests


def engine() -> SlicingEngine:
    return SlicingEngine(
        cache=AnalysisCache(
            capacity=ANALYSIS_CAPACITY,
            unit_cache=UnitCache(
                capacity=16, span_capacity=32, slice_capacity=4
            ),
        ),
        workers=1,
    )


def check_served(envelope: dict) -> None:
    if not envelope["ok"] and envelope["error"]["code"] != (
        "unreachable-criterion"
    ):
        raise RuntimeError(f"request failed: {envelope}")


def _cyclic_garbage(serve: Callable[[dict], None]) -> Dict:
    requests = cold_requests(FILL + COLD)
    for request in requests[:FILL]:
        serve(request)
    gc.freeze = lambda: None
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    for request in requests[FILL:]:
        serve(request)
    found = gc.collect()
    kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    return {"found": found, "kinds": kinds.most_common(12)}


def engine_garbage() -> Dict:
    with engine() as served:
        return _cyclic_garbage(
            lambda request: check_served(served.handle_payload(request))
        )


def http_garbage() -> Dict:
    served = engine()
    server = make_server(port=0, engine=served)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    count = [0]

    def serve(request: dict) -> None:
        check_served(client.post(request))
        count[0] += 1
        if count[0] % 10 == 0:
            for path in ("/metrics.prom", "/stats"):
                status, _ = client.get(path)
                if status != 200:
                    raise RuntimeError(f"GET {path} answered {status}")

    try:
        return _cyclic_garbage(serve)
    finally:
        server.shutdown()
        server.server_close()
        served.close()
        thread.join(timeout=30)


def _tracked() -> int:
    """``len(gc.get_objects()) + gc.get_freeze_count()``, normalized.

    A frozen tuple keeps the tracked status it had when it was frozen,
    which depends on where the collector's own passes happened to fall,
    so the heap is first handed back to the collector for one full
    pass.  That pass saves what it finds in ``gc.garbage`` instead of
    freeing it, so a leaked cycle stays in every later count."""
    gc.unfreeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    count = len(gc.get_objects()) + gc.get_freeze_count()
    gc.set_debug(0)
    gc.freeze()
    return count


def plateau() -> Dict:
    requests = cold_requests(PLATEAU_FILL + 3 * K)
    with engine() as served:
        for request in requests[:PLATEAU_FILL + K]:
            check_served(served.handle_payload(request))
        after_k = _tracked()
        for request in requests[PLATEAU_FILL + K:]:
            check_served(served.handle_payload(request))
        after_3k = _tracked()
    return {"after_k": after_k, "after_3k": after_3k}


SCENARIOS = {
    "engine": engine_garbage,
    "http": http_garbage,
    "plateau": plateau,
}


def main(argv: List[str]) -> int:
    print(json.dumps(SCENARIOS[argv[0]]()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
