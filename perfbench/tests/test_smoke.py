"""Every workload end to end at reduced size, through ``run.main`` in this
process (each analyzer invocation is still a fresh process), in a few
seconds each."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import generate
import run
from conftest import PERFBENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_workload_runs_and_checks_out(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(generate, "WORKLOADS", generate.SMALL_WORKLOADS)
    status = run.main(["--workload", workload, "--seed", "11", "--seconds", "0.1",
                       "--trace", str(trace)])
    assert status == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        assert result["metrics"]["runner.run_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_analyzer_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ci-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
