"""Smoke test of the benchmark itself: every workload at sf0.001 prints every
metric BENCHMARK.json names, with its unit, and passes its output check.

    python3 -m pytest perfbench/test_smoke.py -q

Takes a few minutes: each traced run also times every layer on its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# At 50 documents the near-dup pair set leaves empty shuffle blocks, and the
# engine's connected-components fast path fails on a schema-less empty block
# (a known engine defect); sf0.1, where the benchmark runs, is not affected.
_KNOWN_FAILURES = {
    "curate": "connected components fails on empty shuffle blocks at 50 documents",
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.001"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _params():
    # crawl is not in BENCHMARK.json (see README.md) but stays runnable
    for name in [w["name"] for w in SPEC["workloads"]] + ["crawl"]:
        for trace in (0, 1):
            marks = []
            if name in _KNOWN_FAILURES:
                marks.append(pytest.mark.xfail(reason=_KNOWN_FAILURES[name], strict=True))
            yield pytest.param(name, trace, marks=marks, id=f"{name}-trace{trace}")


@pytest.mark.parametrize("workload,trace", _params())
def test_metrics_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in expected)
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]


def test_exits_nonzero_without_the_engine(tmp_path):
    """In a directory holding only the benchmark, the run fails without
    printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
