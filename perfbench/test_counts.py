"""The benchmark's own checks (slow: about four minutes on two cores).

    python3 -m pytest perfbench/test_counts.py -q

* Every count row of the traced run repeats exactly across two runs of
  one seed and across two ``PYTHONHASHSEED`` values, on every workload,
  and every run passes its output check.
* Calibration guard: the kernel measured alone, before the program is
  imported (``bench.calib_pre_ms``), agrees with its value interleaved
  with the work (``bench.calib_ms``) within the runs' own spread of
  interleaved samples — the program's state does not slow the kernel.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, layer_units  # noqa: E402

COUNT_ROWS = sorted(name for name, unit in layer_units().items() if unit == "count")
HASH_SEEDS = ("0", "1", "0")
"""Two runs under hash seed 0 (same-seed repeat) and one under 1."""


@lru_cache(maxsize=None)
def traced_run(workload: str, hash_seed: str, attempt: int) -> dict:
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, env=environment, capture_output=True, text=True,
        timeout=180, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def runs(workload: str) -> list[dict]:
    return [traced_run(workload, seed, attempt) for attempt, seed in enumerate(HASH_SEEDS)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_rows_repeat_exactly(workload):
    results = runs(workload)
    for result in results:
        assert result["correct"] and result["failed"] == 0
    counts = [
        {name: result["metrics"][name]["value"] for name in COUNT_ROWS}
        for result in results
    ]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["bench.pass_items"] > 0


def test_calibration_guard():
    ratios, spreads = [], []
    for workload in WORKLOADS:
        for result in runs(workload):
            metrics = result["metrics"]
            ratios.append(metrics["bench.calib_pre_ms"]["value"] / metrics["bench.calib_ms"]["value"])
            spreads.append(metrics["bench.calib_spread"]["value"])
    assert abs(statistics.median(ratios) - 1.0) <= statistics.median(spreads), (ratios, spreads)
