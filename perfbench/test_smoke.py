"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced with --smoke, and the last
line must follow the result format BENCHMARK.json promises.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_result_line(workload, trace):
    done = run(ROOT, workload, "--seed", "3", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sample_bulk", "sample_deep"])
def test_same_seed_gives_same_digest_across_processes(workload):
    digests = []
    for _ in range(2):
        done = run(ROOT, workload, "--seed", "5", "--trace", "0", "--smoke")
        assert done.returncode == 0, done.stdout + done.stderr
        digests.append([ln for ln in done.stdout.splitlines() if "figure digest" in ln])
    assert digests[0] and digests[0] == digests[1]


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = run(tmp_path, "sample_bulk", "--seed", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
