"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

Counts are compared between two traced runs of one seed, never with fixed
values: a change to re-execution budgets or skipped runs moves them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from tracer import COUNTS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


def result(workload, trace, seed=5):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_across_traced_runs(workload):
    first, second = result(workload, 1), result(workload, 1)
    counts = [{n: out["metrics"][n]["value"] for n in COUNTS} for out in (first, second)]
    assert counts[0] == counts[1]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_per_layer_table_matches_spec():
    assert [(n, u) for n, u, _ in PER_LAYER] == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_end_to_end_metrics_match_spec():
    out = result("localize-l3", 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__", "tmp*")
            )
        proc = bench("--workload", "eval-l4", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
