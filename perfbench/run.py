"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload runs in fresh processes started from the repository root
with ``src`` on ``PYTHONPATH`` (see ``perfbench/README.md``):

* ``--trace 0``: ``SETUP_SAMPLES`` fresh processes, one after another:
  set-up probes, with the measured process in the middle.  Each is
  pinned to one CPU from its start, the CPUs taken in turn.  ``setup_s``
  is the median over all of them of the time from spawning a fresh
  interpreter to "ready for the first timed operation", less the time
  spent generating inputs.  The measured process reports throughput,
  latency percentiles and peak RSS, and checks every answer.
* ``--trace 1``: one process that reports the per-layer metrics.

Metric names and units come from ``BENCHMARK.json``.  Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh interpreters timed for ``setup_s`` per run (probes + measured),
#: a multiple of 2 so that on 2 CPUs each sets up as often.  A start
#: now and then runs half as slow again as the rest; the median is not
#: moved by a few of them.  More would not fit the time the runs have:
#: an ``http-mix`` set-up takes about 3 s of wall time.
SETUP_SAMPLES = 6
#: The CPUs the benchmark may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))
#: Where the benchmark's processes keep compiled bytecode.
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")
#: Wall-clock budget for one workload's processes, in seconds.
WORKLOAD_BUDGET = 170.0
WORKLOADS = ("bulk-all", "http-mix")


def _compile() -> None:
    """Bring the bytecode under ``PYCACHE`` up to date with the sources
    (untimed; a no-op once current).  If it cannot be written, imports
    compile the sources instead."""
    subprocess.run(
        [
            sys.executable, "-m", "compileall", "-q",
            os.path.join(ROOT, "src"), HERE,
        ],
        cwd=ROOT,
        env=_environment(),
        stdout=subprocess.DEVNULL,
        check=False,
    )


class WorkerError(RuntimeError):
    pass


def _environment() -> Dict[str, str]:
    env = dict(os.environ)
    # Imports load bytecode compiled ahead (``_compile``), as an
    # installed package's do, whatever the caller's environment says:
    # compiling the sources on every start took most of set-up, and
    # varied the most.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    # Workers start pinned to one CPU; this tells them which CPUs they
    # may swap between.
    env["PERFBENCH_CPUS"] = ",".join(str(cpu) for cpu in CPUS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _pinning(cpu: int):
    """A ``preexec_fn`` that pins the child to *cpu*, or ``None`` on one
    CPU, so that set-up is timed on each CPU as often rather than
    wherever the scheduler puts it."""
    if len(CPUS) < 2:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def _spawn(
    workload: str,
    seed: int,
    seconds: float,
    mode: str,
    deadline: float,
    cpu: int,
    min_ops: Optional[int] = None,
) -> Tuple[float, Optional[dict]]:
    """Run one worker pinned to *cpu* from its start (with more than one
    CPU); returns (set-up seconds, result or None)."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--mode", mode,
    ]
    if min_ops is not None:
        command += ["--min-ops", str(min_ops)]
    start = time.perf_counter()
    # A session of its own, so a timeout also stops the server a worker
    # may have started.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_environment(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=_pinning(cpu),
    )
    try:
        ready = process.stdout.readline()
        ready_at = time.perf_counter()
        if not ready.startswith("ready "):
            raise WorkerError(f"{workload} worker ({mode}) failed during set-up")
        setup = ready_at - start - float(ready.split()[1])
        remaining = max(1.0, deadline - time.monotonic())
        out, _ = process.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        # Ask the worker and its server for their stacks first, so that
        # standard error shows where they were stuck.
        os.killpg(process.pid, signal.SIGUSR2)
        time.sleep(1.0)
        raise WorkerError(f"{workload} worker ({mode}) ran out of time") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise WorkerError(
            f"{workload} worker ({mode}) exited with {process.returncode}"
        )
    result = None
    for line in out.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
    if mode != "probe" and result is None:
        raise WorkerError(f"{workload} worker ({mode}) printed no result")
    return setup, result


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_samples: int,
    min_ops: Optional[int] = None,
) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET
    if trace:
        _, result = _spawn(
            workload, seed, seconds, "trace", deadline, CPUS[0], min_ops
        )
        return result
    setups: List[Tuple[int, float]] = []
    result: Optional[dict] = None
    # The measured process goes in the middle, so the probes straddle
    # its run rather than all set up within a few seconds.
    for sample in range(setup_samples):
        cpu = CPUS[sample % len(CPUS)]
        mode = "run" if sample == setup_samples // 2 else "probe"
        setup, answer = _spawn(
            workload, seed, seconds, mode, deadline, cpu, min_ops
        )
        setups.append((cpu, setup))
        result = answer or result
    result["metrics"]["setup_s"] = statistics.median(
        seconds for _, seconds in setups
    )
    result["notes"].append(
        "set-up samples (cpu, s): "
        + ", ".join(f"({cpu}, {value:.3f})" for cpu, value in setups)
    )
    return result


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="every workload briefly, untraced and traced, one set-up sample",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: src/repro not found next to perfbench/", file=sys.stderr)
        return 2
    _compile()
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    samples = SETUP_SAMPLES
    min_ops = None
    if args.smoke:
        seconds, samples, min_ops = min(seconds, 0.6), 1, 1
    print(
        f"host: nproc={os.cpu_count()} "
        f"cpus={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()}"
    )

    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for trace in modes:
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        for name in names:
            try:
                result = run_workload(
                    name, args.seed, seconds, trace, samples, min_ops
                )
            except WorkerError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            attempted += result["attempted"]
            failed += result["failed"]
            for note in result["notes"]:
                print(f"{name}: {note}", file=sys.stderr)
            print(
                f"{name}: attempted={result['attempted']} "
                f"failed={result['failed']} "
                f"failed_share={result['failed'] / result['attempted']!r}"
            )
            for metric in declared:
                value = result["metrics"][metric["name"]]
                key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
                print(f"{name}: {metric['name']} = {value!r} {metric['unit']}")
                metrics[key] = {"value": value, "unit": metric["unit"]}
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
