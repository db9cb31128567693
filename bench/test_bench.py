"""Smoke tests for the benchmark: tiny runs of every workload.

Run with `python3 -m pytest bench`.  Each run uses --scale 0.05 so the
whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.2", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _digest(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("digest "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload):
    digests = []
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in wanted}
        for m in wanted:
            assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                       for line in lines), m["name"]
        digests.append(_digest(lines))
    # both modes print the digest of the untraced pass 0; a traced run also
    # counts a traced pass whose results differ from it as failed
    assert digests[0] == digests[1]
    assert digests[0].startswith(f"digest {workload} sha256:")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("norm-queries", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
