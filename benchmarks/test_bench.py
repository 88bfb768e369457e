"""Smoke tests of the benchmark: every workload runs at a tiny size with all
its checks passing, and emits every metric BENCHMARK.json names, with its
unit. Run with ``python -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,seed", [(0, 42), (0, 7), (1, 42)])
def test_smoke_emits_every_metric_with_its_unit(workload, trace, seed):
    done = _run(BENCH_DIR / "run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    *_, provenance_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    provenance = json.loads(provenance_line)["provenance"]
    assert provenance["seed"] == seed
    assert provenance["calibrate_timer"]["resolution_ns"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    # the benchmark alone, without src/, must fail and print no result
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / BENCH_DIR.name / "run.py", "--workload", WORKLOADS[0])
    assert done.returncode != 0
    assert done.stdout == ""
