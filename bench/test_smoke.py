"""Smoke test of the benchmark itself: a tiny run of every workload.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
Checks the printed metric names and units against BENCHMARK.json, and that
the counts of a traced run repeat exactly for the same seed.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def check_names(metrics: dict, declared: list):
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, trace=0)["metrics"]
    check_names(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    check_names(first["metrics"], SPEC["per_layer"])
    counts = [
        name for name in first["metrics"]
        if name == "known_defect_frac" or name.endswith((".calls_per_doc", ".raised"))
    ]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
