"""The names and call forms the benchmark relies on still exist.

``perfbench/tracing.py`` replaces module attributes by name, and
``perfbench/workloads.py`` calls the library with fixed arguments; a refactor
that drops or renames one would otherwise surface only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from cdl import data, sdae, training
from cdl.training import HyperParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _perfbench_module("tracing")


@pytest.mark.parametrize("module, attr", [
    (entry[0], entry[1]) for entry in _tracing.SPANNED + _tracing.COUNTED
], ids=lambda value: getattr(value, "__name__", value))
def test_traced_name_exists(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_fit_accepts_the_benchmark_batch_size(monkeypatch):
    # citeulike-L-fit calls fit(train, content, hyper, batch_size=fit_batch)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports gen
    fit_batch = _perfbench_module("workloads").CiteulikeFit.fit_batch
    assert fit_batch == sdae.BLOCK_ROWS
    hyper = HyperParams(n_factors=3, widths=(8, 3, 8), max_sweeps=1,
                        epochs_per_block=1, learning_rate=1e-3)
    ratings, content, *_ = data.generate_synthetic(10, 12, 8, 3, hyper, seed=2)
    _, factors, _ = training.fit(ratings, content, hyper, batch_size=fit_batch)
    assert factors.V.shape == (12, 3)


def test_traced_fits_count_sweeps_and_no_retries(monkeypatch):
    # the benchmark's training.diverged_sweeps counts objective calls beyond
    # one per report row, with none in two-step's frozen phase; a trainer
    # that calls the objective otherwise would read as retried sweeps
    monkeypatch.syspath_prepend(str(PERFBENCH))  # harness imports tracing, workloads
    harness = _perfbench_module("harness")
    hyper = HyperParams(n_factors=3, widths=(8, 3, 8), max_sweeps=2, epochs_per_block=1,
                        learning_rate=1e-3, early_stop_tol=0.0)
    ratings, content, *_ = data.generate_synthetic(10, 12, 8, 3, hyper, seed=2)
    with harness.Tracer() as tracer:
        training.fit(ratings, content, hyper)
        training.fit_two_step(ratings, content, hyper)
        training.fit_mf_baseline(ratings, hyper)
    _, sweeps, retried = harness._fit_sweeps(tracer)
    assert (sweeps, retried) == (4 * hyper.max_sweeps, 0)
