"""Timed and traced runs of one workload, and the metrics they report."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

from tracing import Tracer
from workloads import CALIBRATION_REFERENCE_S, WORKLOADS, Checks, calibration_s, timed

# Each driver time is scaled to a reference host speed by the calibration
# loop run around it (workloads.Meter); a timing is the median of its
# scaled repeats, and train_s and eval_s sum those of their drivers.  The
# report keeps the raw wall times.  Set-up runs at least SETUP_MIN_REPEATS
# times, and more while it has taken less than SETUP_MIN_SECONDS, in batches
# of about SETUP_BATCH_SECONDS between runs of the calibration loop; each
# set-up is scaled by the loop around its batch, and setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 500
SETUP_BATCH_SECONDS = 0.2
# a traced run measures its overhead on at least this many pairs of an
# untraced and a traced round, in alternating order
OVERHEAD_MIN_PAIRS = 2

LAYERS = ("data", "sdae", "factors", "training", "metrics", "sampling", "cli")


def environment(blas_threads, args):
    """What a before/after pair must share to be comparable."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _result(checks, metrics):
    return {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": len(checks.failures), "metrics": metrics}


def _workdir(root):
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def _guarded(what, checks, fn, *args):
    """``fn(*args)``; an exception is a failed operation, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:  # the program under test failed: report it
        traceback.print_exc(file=sys.stderr)
        checks.raised(what, exc)
        return None


def _run_round(workload, inputs, checks, repeat_evals=True):
    return _guarded(f"{workload.name} round", checks, workload.run_round,
                    inputs, checks, repeat_evals)


def _reference(workload, inputs, checks):
    inputs.update(_guarded(f"{workload.name} reference", checks,
                           workload.reference, inputs, checks) or {})


def _timed_setups(workload, seed, workdir):
    """The last set-up's inputs, and (wall seconds, calibration seconds)
    for every set-up."""
    samples = []
    last = calibration_s()

    def more(count, wall):
        return count < SETUP_MAX_REPEATS and (count < SETUP_MIN_REPEATS
                                              or wall < SETUP_MIN_SECONDS)

    while more(len(samples), sum(wall for wall, _ in samples)):
        batch = []
        while not batch or (sum(batch) < SETUP_BATCH_SECONDS
                            and more(len(samples) + len(batch),
                                     sum(wall for wall, _ in samples) + sum(batch))):
            seconds_taken, inputs = timed(workload.setup, seed, workdir)
            batch.append(seconds_taken)
        now = calibration_s()
        samples += [(wall, 0.5 * (last + now)) for wall in batch]
        last = now
    return inputs, samples


def _scaled(wall, cal):
    return CALIBRATION_REFERENCE_S * wall / cal


def timed_run(workload, seed, seconds, root):
    """Set up repeatedly, run the workload's untimed reference, then repeat
    rounds for about ``seconds`` (at least ``workload.min_rounds``, and past
    those none that would end well past the time)."""
    checks = Checks()
    workdir = _workdir(root)
    try:
        inputs, setups = _timed_setups(workload, seed, workdir)
        _reference(workload, inputs, checks)
        rounds = []
        start = time.perf_counter()
        while True:
            rnd = _run_round(workload, inputs, checks)
            if rnd is None:
                break
            rounds.append(rnd)
            # past the workload's minimum, start another round only if it
            # should end within ``seconds``
            elapsed = time.perf_counter() - start
            if (len(rounds) >= workload.min_rounds
                    and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not rounds:
        raise SystemExit(f"perfbench: no round of {workload.name} completed")

    quality = rounds[0]["quality"]
    checks(all(r["quality"] == quality for r in rounds),
           "model quality differs between rounds of the same inputs")
    drivers = {}   # name -> [(wall seconds, calibration seconds)] per round
    for rnd in rounds:
        for key, value in {**rnd["train"], **rnd["eval"]}.items():
            drivers.setdefault(key, []).append(value)
    scaled = {name: statistics.median(_scaled(wall, cal) for wall, cal in v)
              for name, v in drivers.items()}
    metrics = {
        "setup_s": _metric(statistics.median(_scaled(*v) for v in setups), "s"),
        "train_s": _metric(sum(scaled[k] for k in rounds[0]["train"]), "s"),
        "eval_s": _metric(sum(scaled[k] for k in rounds[0]["eval"]), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "recall_at_50": _metric(quality["recall_at_50"], "ratio"),
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "rounds": len(rounds),
        "setup_s_samples": [wall for wall, _ in setups],
        "setup_calibration_s_samples": [cal for _, cal in setups],
        "driver_s_samples": {name: [wall for wall, _ in v] for name, v in drivers.items()},
        "calibration_s_samples": {name: [cal for _, cal in v]
                                  for name, v in drivers.items()},
        "named_metrics": {**scaled, **quality},
        "raw_medians": {name: statistics.median(wall for wall, _ in v)
                        for name, v in drivers.items()},
        "quality_detail": rounds[0].get("quality_detail", quality),
        "diagnostics": rounds[0].get("diagnostics", {}),
        "failed_checks": checks.failures,
    }
    return _result(checks, metrics), report


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def effective_sample_size(draws):
    """Geyer's initial-positive-sequence ESS of one chain of draws."""
    x = np.asarray(draws, dtype=np.float64)
    n = len(x)
    if n < 4 or np.var(x) == 0.0:
        return float(n)
    x = x - x.mean()
    acf = np.correlate(x, x, mode="full")[n - 1:] / (np.var(x) * n)
    tau = -1.0
    for k in range(0, n - 1, 2):
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return n / max(tau, 1e-12)


def _fit_sweeps(tracer):
    """(sweep seconds, sweeps, retried sweeps) over every returned report.

    A sweep whose objective turned non-finite is retried, so objective
    calls minus the rows they produced counts the retries.
    """
    seconds, sweeps, retried = [], 0, 0
    for name in ("training.fit", "training.fit_two_step", "training.fit_mf_baseline"):
        for root, result in zip(tracer.roots(name), tracer.returns[name]):
            report = result[-1]
            rows = report.rows
            seconds += [row.seconds for row in rows[1:]]
            sweeps += len(rows) - 1
            # two-step evaluates its frozen factor phase without objective()
            from_objective = (len(rows) + 1) // 2 if name.endswith("two_step") else len(rows)
            calls = sum(1 for i in tracer.subtree(root)
                        if tracer.spans[i][0] == "training.objective")
            retried += calls - from_objective
    return seconds, sweeps, retried


def layer_metrics(tracer, rnd, untraced_s, traced_s):
    """Every per-layer metric from one traced round."""
    c = tracer.counts
    t = tracer.total
    own = tracer.self_times()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), seconds in zip(tracer.spans, own):
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    sweep_seconds, sweeps, retried = _fit_sweeps(tracer)
    rows_solved = c["factors.rows_solved"]
    mwg = tracer.durations("sampling.mwg_step")
    acceptance = list((rnd or {}).get("diagnostics", {}).get("acceptance", {}).values())
    log_joint = (rnd or {}).get("log_joint", [])
    gflop = c["sdae.gradients.flop"] / 1e9
    m = {
        "data.corrupt.calls": (c["data.corrupt.calls"], "count"),
        "data.corrupt.s": (t("data.corrupt"), "s"),
        "data.corrupt.nnz_per_s": (_ratio(c["data.corrupt.nnz"], t("data.corrupt")), "1/s"),
        "data.load_ratings.s": (t("data.load_ratings"), "s"),
        "data.split.s": (t("data.split"), "s"),
        "sdae.gradients.calls": (c["sdae.gradients.calls"], "count"),
        "sdae.gradients.s": (t("sdae.gradients"), "s"),
        "sdae.gradients.gflop": (gflop, "GFLOP"),
        "sdae.gradients.gflop_per_s": (_ratio(gflop, t("sdae.gradients")), "GFLOP/s"),
        "sdae.encode.s": (t("sdae.encode"), "s"),
        "sdae.coupling_residuals.calls": (c["sdae.coupling_residuals.calls"], "count"),
        "sdae.coupling_residuals.s": (t("sdae.coupling_residuals"), "s"),
        "factors.sweep_users.s": (t("factors.sweep_users"), "s"),
        "factors.sweep_items.s": (t("factors.sweep_items"), "s"),
        "factors.rows_solved": (rows_solved, "count"),
        "factors.us_per_row": (1e6 * _ratio(
            t("factors.sweep_users") + t("factors.sweep_items"), rows_solved), "us"),
        "factors.rating_objective.s": (t("factors.rating_objective"), "s"),
        "factors.save_factors.s": (t("factors.save_factors"), "s"),
        "factors.export_factors_text.s": (t("factors.export_factors_text"), "s"),
        "training.objective.calls": (c["training.objective.calls"], "count"),
        "training.objective.s": (t("training.objective"), "s"),
        "training.sweeps": (sweeps, "count"),
        "training.sweep_s.p50": (_percentile(sweep_seconds, 50), "s"),
        "training.sweep_s.p80": (_percentile(sweep_seconds, 80), "s"),
        "training.diverged_sweeps": (retried, "count"),
        "metrics.rank.s": (t("metrics.rank"), "s"),
        "metrics.rank.users": (c["metrics.rank.users"], "count"),
        "metrics.rank.items_scored": (c["metrics.rank.items_scored"], "count"),
        "metrics.rank.users_per_s": (_ratio(c["metrics.rank.users"], t("metrics.rank")), "1/s"),
        "metrics.recall_curve.s": (t("metrics.recall_curve"), "s"),
        "metrics.map_at_500.s": (t("metrics.map_at_500"), "s"),
        "sampling.mwg_step.s.p50": (_percentile(mwg, 50), "s"),
        "sampling.mwg_step.s.p80": (_percentile(mwg, 80), "s"),
        "sampling.sample_u.calls": (c["sampling.sample_u.calls"], "count"),
        "sampling.sample_u.s": (t("sampling.sample_u"), "s"),
        "sampling.sample_v.calls": (c["sampling.sample_v.calls"], "count"),
        "sampling.sample_v.s": (t("sampling.sample_v"), "s"),
        "sampling.logpost.calls": (c["sampling.logpost.calls"], "count"),
        "sampling.grad.calls": (c["sampling.grad.calls"], "count"),
        "sampling.log_joint.s": (t("sampling.log_joint"), "s"),
        "sampling.accept_rate.min": (min(acceptance, default=0.0), "ratio"),
        "sampling.accept_rate.max": (max(acceptance, default=0.0), "ratio"),
        "sampling.ess_log_joint": (effective_sample_size(log_joint) if log_joint else 0.0,
                                   "draws"),
        "cli.write_manifest.s": (t("cli.write_manifest"), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_pct": (100.0 * _ratio(traced_s - untraced_s, untraced_s), "%"),
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = (seconds, "s")
    return {name: _metric(value, unit) for name, (value, unit) in m.items()}


DRIVER_SPANS = ("training.fit", "training.fit_two_step", "training.fit_mf_baseline",
                "metrics.evaluate_run", "sampling.run_chain", "cli.main")


def why_shares(tracer, why_layers):
    """For each driver a workload's *why* names: the share of its wall time
    (summed over its calls) spent as self time in the named layers."""
    out = {}
    for driver, layers in why_layers.items():
        wall = share = 0.0
        for idx in tracer.roots(driver):
            if tracer.spans[idx][3] != -1:
                continue
            wall += tracer.spans[idx][2] - tracer.spans[idx][1]
            own = tracer.subtree_layer_self(idx)
            share += sum(own[layer] for layer in layers)
        out[driver] = {"layers": list(layers), "share": _ratio(share, wall),
                       "majority": share > 0.5 * wall}
    return out


def driver_breakdown(tracer):
    """Per top-level driver call: wall time and each layer's self-time share."""
    out = []
    for idx, (name, start, end, parent) in enumerate(tracer.spans):
        if name not in DRIVER_SPANS or parent != -1:
            continue
        wall = end - start
        shares = tracer.subtree_layer_self(idx)
        out.append({"driver": name, "wall_s": wall,
                    "layer_share": {k: v / wall for k, v in sorted(shares.items())}})
    return out


def _traced_round(workload, inputs, checks, tracer=None):
    """One round, traced when a tracer is given."""
    if tracer is None:
        return _run_round(workload, inputs, checks, repeat_evals=False)
    with tracer:
        return _run_round(workload, inputs, checks, repeat_evals=False)


def _scaled_round_s(rnd):
    """A round's driver time, each driver scaled as in ``timed_run``."""
    return sum(_scaled(wall, cal) for wall, cal in {**rnd["train"], **rnd["eval"]}.values())


def traced_run(workload, seed, seconds, root):
    """Set up and run one round traced; the per-layer metrics come from
    those spans.  Then run pairs of an untraced and a traced round, in
    alternating order, for about ``seconds`` (at least OVERHEAD_MIN_PAIRS
    pairs).  The tracing overhead is the median scaled driver time of the
    traced rounds minus that of the untraced ones; the report marks it
    resolved only when every traced round took longer than every untraced
    one."""
    checks = Checks()
    workdir = _workdir(root)
    tracer = Tracer()
    untraced, traced = [], []
    try:
        with tracer:
            _, inputs = timed(workload.setup, seed, workdir)
        _reference(workload, inputs, checks)
        rnd = _traced_round(workload, inputs, checks, tracer)
        start = time.perf_counter()
        pairs = 0
        while rnd is not None and (pairs < OVERHEAD_MIN_PAIRS
                                   or time.perf_counter() - start < seconds):
            order = (None, Tracer()) if pairs % 2 == 0 else (Tracer(), None)
            for pair_tracer in order:
                pair = _traced_round(workload, inputs, checks, pair_tracer)
                if pair is not None:
                    (untraced if pair_tracer is None else traced).append(
                        _scaled_round_s(pair))
            pairs += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    untraced_s = statistics.median(untraced) if untraced else 0.0
    traced_s = statistics.median(traced) if traced else untraced_s
    metrics = layer_metrics(tracer, rnd, untraced_s, traced_s)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "overhead_resolved": bool(untraced and traced) and min(traced) > max(untraced),
        "drivers": driver_breakdown(tracer),
        "why_shares": why_shares(tracer, workload.why_layers),
        "diagnostics": (rnd or {}).get("diagnostics", {}),
        "failed_checks": checks.failures,
    }
    return _result(checks, metrics), report, tracer.dump()
