"""Smoke test of the benchmark: every workload briefly, untraced and
traced, with every answer checked.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_run_prints_every_metric_and_checks_answers():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    with open(
        os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8"
    ) as handle:
        spec = json.load(handle)
    names = [entry["name"] for entry in spec["workloads"]]
    declared = spec["end_to_end"] + spec["per_layer"]
    for workload in names:
        for metric in declared:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
