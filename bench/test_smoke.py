"""Smoke test of the benchmark: every workload at tiny sizes with all its
checks, untraced and traced, plus the refusal to run without the program.

Run from the repository root:

    python -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["report", "scan"])
def test_smoke_run_checks_and_reports_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(metric["value"] > 0 for metric in result["metrics"].values()), result


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "report", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
