"""Tests of the benchmark itself, at reduced input sizes.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3",
           "--seconds", "1"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()
    assert sorted(WORKLOADS) == sorted(run.workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_untraced(workload):
    res = _result(_bench("--workload", workload, "--trace", "0", "--small"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_traced(workload, tmp_path):
    res = _result(_bench("--workload", workload, "--trace", "1", "--small"))
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == [name for name, _ in run.per_layer_metrics()]
    for job in run.workloads.WORKLOADS[workload](tmp_path, 3, True):
        assert res["metrics"]["cli.%s_s" % job.key]["value"] > 0


def test_planted_gramian_fault_fails_operations():
    proc = _bench("--workload", "files", "--trace", "0", "--small",
                  "--job-env", "PWSIS_BUG_GRAMIAN_NO_CONJ=1")
    res = _result(proc)
    assert res["failed"] > 0 and not res["correct"]
    assert "FAILED solve" in proc.stderr


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
