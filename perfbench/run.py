"""Benchmark of the cdl package: one seeded command per workload.

    python3 perfbench/run.py --workload joint-S --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  BLAS runs on a pinned thread count.  With ``--trace 0`` the
workload sets up its inputs several times, runs its untimed once-per-run
checks, then repeats rounds of its drivers for about ``--seconds`` (at least
the workload's minimum of rounds) and reports the median of each timing,
scaled to a reference host speed by a calibration loop run around it.  With
``--trace 1`` it sets up and runs one round with every layer wrapped in
spans and reports per-layer metrics, then alternates untraced and traced
rounds for about ``--seconds`` to measure the tracing overhead.  Every
output is checked; the last stdout line is the JSON result, the line before
it a report with the per-driver times, the environment and the failed
checks.  Results (and spans) are also written under ``.perfbench_out/``."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BLAS_THREADS = 1          # pinned, and never above nproc

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _pin_blas_threads():
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return int(threads)


def _confine_git():
    """``cdl`` manifests run ``git describe``; keep git from searching for a
    repository above the checkout."""
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


def _import_package():
    """Import cdl from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import cdl
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cdl from {src}: {exc}") from None
    if not Path(cdl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: cdl resolved to {cdl.__file__}, not under {src}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    threads = _pin_blas_threads()
    _confine_git()
    _import_package()
    import harness

    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    env = harness.environment(threads, args)
    if args.trace:
        result, report, spans = harness.traced_run(workload, args.seed, args.seconds, ROOT)
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        result, report = harness.timed_run(workload, args.seed, args.seconds, ROOT)
    report["environment"] = env
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"result": result, "report": report}, indent=2), encoding="utf-8")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"perfbench: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    sys.exit(code)
