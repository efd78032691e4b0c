"""A short run of each benchmark workload, on a copy of the checkout.

``benchmarks/run.py`` builds what it runs from the ``src/`` next to it, so
each run works in a copy of ``src/``, ``benchmarks/*.py`` and
``BENCHMARK.json`` under a scratch directory: the checkout's
``benchmarks/out/`` gets nothing. A run must exit 0 and end in a result
line that reads correct, with no failed operation and every metric finite.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (root / "benchmarks").mkdir()
    for script in (ROOT / "benchmarks").glob("*.py"):
        shutil.copy(script, root / "benchmarks" / script.name)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.mark.parametrize("workload, trace", [
    ("train_t96", 0), ("train_t720", 0), ("forecast_sweep", 0), ("train_t720", 1),
])
def test_a_short_run_reads_correct_with_finite_metrics(checkout, workload, trace):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "11", "--seconds", "1",
         "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]
    bad = {name: m["value"] for name, m in result["metrics"].items() if not math.isfinite(m["value"])}
    assert not bad
