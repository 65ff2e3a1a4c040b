"""Self-tests of the benchmark: traced counts repeat exactly, results parse.

Run from the checkout root with ``python3 -m pytest -q perfbench``; the
citeulike-L cases take a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent

# counts derived from call arguments, never from the clock
COMPUTED_COUNTS = (
    "factors.rows_solved",
    "sdae.gradients.gflop",
    "sdae.gradients.calls",
    "data.corrupt.calls",
    "metrics.rank.users",
    "metrics.rank.items_scored",
    "sampling.logpost.calls",
    "sampling.grad.calls",
    "sampling.sample_u.calls",
    "sampling.sample_v.calls",
    "training.objective.calls",
    "training.sweeps",
)


def run_bench(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "workload", ["joint-S", "chain-M", "citeulike-L-cli", "citeulike-L-fit"])
def test_traced_counts_repeat_exactly(workload):
    first = run_bench(workload, seed=3, trace=1)
    second = run_bench(workload, seed=3, trace=1)
    assert first["correct"] and second["correct"]
    for name in COMPUTED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    expected = {m["name"] for m in benchmark_spec()["per_layer"]}
    assert set(first["metrics"]) == expected


def test_timed_run_reports_every_end_to_end_metric():
    spec = benchmark_spec()
    result = run_bench("joint-S", seed=4, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_effective_sample_size_of_independent_draws():
    sys.path[:0] = [str(ROOT / "src"), str(RUN.parent)]
    import numpy as np
    from harness import effective_sample_size

    draws = np.random.default_rng(0).standard_normal(2000)
    assert effective_sample_size(draws) > 1000
    assert effective_sample_size(np.cumsum(draws)) < 100
