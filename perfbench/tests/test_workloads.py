"""A tiny-scale run of every workload, output checks included, in both passes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.common import END_TO_END_UNITS
from perfbench.layers import PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("kernel-resident", "green-contended", "serve-http", "sweep-grid")


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    completed = run("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--scale", "smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = list(END_TO_END_UNITS) if trace == "0" else [name for name, _ in PER_LAYER]
    assert list(result["metrics"]) == expected
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "check " in completed.stdout and "FAIL" not in completed.stdout


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = run("--workload", "kernel-resident", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_pinned_digest_mismatch_fails_the_run():
    from perfbench import kernel
    from perfbench.common import scratch_dir

    with scratch_dir("test-") as workdir:
        outcome = kernel.measure("kernel-resident", 3, 0.1, "smoke", workdir, pinned="0" * 16)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0
