"""Smoke test of the benchmark harness: tiny sizes, one op per workload and phase.

    python -m pytest perfbench

Each smoke run prints every metric of BENCHMARK.json with its unit (run.py
--workload all compares names and units and exits non-zero on a mismatch),
and checks that the correctness check rejects corrupted outputs.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--trace", trace],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    printed = re.findall(r"^(\w+): correct=True", proc.stdout, re.M)
    assert {w["name"] for w in spec["workloads"]} <= set(printed)
    for name in names:
        assert proc.stdout.count(f"  {name} ") == len(printed), name


def test_bare_directory_exits_without_result(tmp_path):
    """Without the package source next to it, the benchmark fails and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
