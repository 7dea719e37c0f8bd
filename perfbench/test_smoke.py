"""Smoke check of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that outputs are byte-identical at threads 1 and 2, that traced
counters repeat exactly between runs, that a run leaves no process
behind, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def command(workload: str, trace: int) -> list[str]:
    return [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
    ]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(command(workload, trace), cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = result_of(run(workload, 0))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    expected = units(BENCH["per_layer"])
    assert {k: v["unit"] for k, v in first.items()} == expected
    exact = [name for name, unit in expected.items() if unit in ("count", "ratio")]
    exact.remove("trace.overhead_frac")
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_identical_at_threads_1_and_2(workload, tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import scenes
    import workloads

    scene = scenes.generate(workload, 3, tmp_path, "tiny")
    t1, _ = workloads.run_pass(scene, tmp_path / "t1.csv", threads=1)
    t2, _ = workloads.run_pass(scene, tmp_path / "t2.csv", threads=2)
    assert t1.digest == t2.digest


REAPER = """
import os, subprocess, sys
sys.path.insert(0, "perfbench")
import run
if not run._become_subreaper():
    sys.exit(3)
subprocess.run(sys.argv[1:], check=True, capture_output=True)
try:
    print(os.waitpid(-1, os.WNOHANG))
except ChildProcessError:
    print("none left")
"""


def test_leaves_no_process_behind():
    # A fresh process (this one may own a resource tracker of its own)
    # becomes subreaper and so inherits whatever the run orphans; the
    # pool and multiprocessing's resource tracker are what could be left.
    proc = subprocess.run(
        [sys.executable, "-c", REAPER, *command("merge", 0)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode == 3:
        pytest.skip("needs PR_SET_CHILD_SUBREAPER (Linux)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "none left"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("_work", "__pycache__"),
        )
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
