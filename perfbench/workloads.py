"""The benchmark workloads: inputs, drivers, and output checks.

A workload builds its inputs from the seed in ``setup``, runs any untimed
once-per-run work in ``reference``, and runs one round of its drivers in
``run_round``.  A round returns, for each driver, its wall time and the
time of the calibration loop around it (see :class:`Meter`), named as the
metric it feeds (training drivers under ``train``, evaluation drivers under
``eval``), and the model quality, and records every output check in the
given :class:`Checks`.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from pathlib import Path

import numpy as np

from cdl import cli, data, factors, metrics, sampling, training
from cdl.training import HyperParams

import gen

# Criterion 8's band for every Metropolis block.  chain-M reports each
# block's post-burn-in acceptance against it but does not count a block
# outside it as a failed operation: at chain-M's shape the chain is still
# drifting after any affordable burn-in (the weight norms grow for hundreds
# of scans, and w2's rate climbs to 0.55-0.8 as its frozen step falls
# behind), so on some seeds a block leaves the band; the band also misses
# on some seeds of criterion 8's own tiny model.  A rate outside the band
# makes the chain slower to mix, not its draws wrong; a rate pinned at 0 or
# 1 (a sampler warning) is still a failed check.
ACCEPT_BAND = (0.15, 0.5)
# quality references are medians over seeds 11-15 of the code this benchmark
# was written against; their seed-to-seed spread stays inside this tolerance
QUALITY_TOLERANCE = 0.3
# an evaluation shorter than this repeats until it has run this long
EVAL_MIN_SECONDS = 1.0
EVAL_MAX_REPEATS = 1000
# The host's speed drifts within and between runs: a fixed loop's time moves
# in steps of up to 1.5-2x that last seconds to minutes, on every vCPU at
# once, with no steal time shown.  So each driver runs between two runs of such a loop, and its time is
# scaled by the loop's: reported times are driver times at the host speed at
# which the loop takes CALIBRATION_REFERENCE_S, about its median time on a
# 2.1 GHz Xeon vCPU, so that there they read about as wall times.
CALIBRATION_REFERENCE_S = 0.025
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((100, 100))


class Checks:
    """Counts output checks; each failed one is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def raised(self, what, exc):
        self.attempted += 1
        self.failures.append(f"{what} raised {type(exc).__name__}: {exc}")


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def calibration_s():
    """Wall time of a fixed mix of interpreted arithmetic and small matrix
    products, like the drivers' own mix."""
    start = time.perf_counter()
    total = 0.0
    for i in range(90_000):
        total += i * 0.5
    for _ in range(600):
        _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX
    return time.perf_counter() - start


class Meter:
    """Times the drivers of one round, each between runs of the calibration
    loop.

    ``meter(group, name, fn, *args)`` returns ``fn(*args)`` and records in
    ``meter.times[group][name]`` the call's wall time and the mean time of
    the calibration loop just before and just after it.  With ``repeat`` a
    call repeats until EVAL_MIN_SECONDS have passed and its median counts.
    """

    def __init__(self):
        self.times = {"train": {}, "eval": {}}
        self._last = calibration_s()

    def __call__(self, group, name, fn, *args, repeat=False, **kwargs):
        times = []
        while True:
            seconds, result = timed(fn, *args, **kwargs)
            times.append(seconds)
            if (not repeat or sum(times) >= EVAL_MIN_SECONDS
                    or len(times) >= EVAL_MAX_REPEATS):
                break
        now = calibration_s()
        self.times[group][name] = (statistics.median(times), 0.5 * (self._last + now))
        self._last = now
        return result


def _finite_factors(checks, what, model):
    checks(bool(np.isfinite(model.U).all() and np.isfinite(model.V).all()),
           f"{what}: non-finite factors")


def _non_decreasing(checks, what, report):
    totals = report.totals()
    slack = 1e-9 * np.maximum(np.abs(totals[1:]), 1.0)
    checks(bool(np.all(np.diff(totals) >= -slack)),
           f"{what}: objective decreased over sweeps")


def _quality_floor(checks, what, values, reference):
    """Each quality value must reach its recorded reference less
    QUALITY_TOLERANCE of it; improvements always pass."""
    for name, ref in reference.items():
        value, floor = values[name], ref * (1.0 - QUALITY_TOLERANCE)
        checks(math.isfinite(value) and floor <= value <= 1.0,
               f"{what}: {name}={value:.4f} below {floor:.4f}, "
               f"the reference {ref} less {QUALITY_TOLERANCE:.0%}")


class Workload:
    """Defaults shared by the workloads."""

    # driver span -> layers whose self time should be most of it
    why_layers = {}
    # rounds a timed run makes even past --seconds
    min_rounds = 1

    def reference(self, inputs, checks):
        """Untimed work done once per run, after set-up; its result is
        merged into the inputs."""
        return {}


class JointS(Workload):
    """Criterion-9 shape: 200 users x 300 items x 100 words, K=5, P=1."""

    name = "joint-S"
    why = ("the paper's synthetic comparison; fit is bound by per-call overhead "
           "of 500 tiny sdae.gradients and data.corrupt calls per round")
    sweeps = 5
    gen_hyper = dict(lambda_u=1.0, lambda_v=100.0, lambda_n=1e4, lambda_w=1.0,
                     conf_a=1.0, conf_b=0.01, n_factors=5, seed=0)
    quality_reference = {"recall_at_50": 0.21, "map_at_500": 0.45}
    why_layers = {"training.fit": ("sdae", "data")}

    def setup(self, seed, workdir):
        ratings, content, *_ = data.generate_synthetic(
            200, 300, 100, 5, HyperParams(**self.gen_hyper), seed=seed)
        train, test, _ = data.split(ratings, data.SplitSpec(P=1, seed=seed + 100))
        hyper = HyperParams(
            lambda_u=1.0, lambda_v=10.0, lambda_n=10.0, lambda_w=1e-3,
            conf_a=2.0, conf_b=0.01, n_factors=5, widths=(100, 5, 100),
            noise_level=0.3, dropout_rate=0.0, learning_rate=1e-4, momentum=0.9,
            epochs_per_block=50, max_sweeps=self.sweeps, early_stop_tol=0.0,
            seed=seed)
        return {"train": train, "test": test, "content": content, "hyper": hyper}

    def run_round(self, inputs, checks, repeat_evals=True):
        train, content, hyper = inputs["train"], inputs["content"], inputs["hyper"]
        meter, quality = Meter(), {}
        _, joint, _ = meter("train", "fit_s", training.fit, train, content, hyper)
        _, frozen, _ = meter("train", "fit_two_step_s",
                             training.fit_two_step, train, content, hyper)
        baseline, mf_report = meter("train", "fit_mf_s",
                                    training.fit_mf_baseline, train, hyper)
        _non_decreasing(checks, "fit_mf_baseline", mf_report)
        models = {"cdl": joint, "two_step": frozen, "mf": baseline}
        for label, model in models.items():
            _finite_factors(checks, label, model)
        values = meter(
            "eval", "eval_s",
            lambda: {label: metrics.evaluate_run(model, train, inputs["test"], (50,), 500)
                     for label, model in models.items()},
            repeat=repeat_evals)
        for label, value in values.items():
            quality[label] = {"recall_at_50": value["recall@50"],
                              "map_at_500": value["map@500"]}
        _quality_floor(checks, "cdl", quality["cdl"], self.quality_reference)
        return {**meter.times, "quality": quality["cdl"], "quality_detail": quality}


class _CiteulikeL(Workload):
    """citeulike-a shape: 5551 users x 16980 items x 8000 words, P=10, K=50."""

    hyper = dict(lambda_u=0.01, lambda_v=10.0, lambda_n=1000.0, lambda_w=1e-4,
                 conf_a=1.0, conf_b=0.01, n_factors=50, noise_level=0.3,
                 dropout_rate=0.1, learning_rate=1e-4, momentum=0.9,
                 early_stop_tol=0.0)

    def generate(self, seed):
        ratings, content = gen.citeulike_like(seed, **gen.CITEULIKE_SHAPE)
        train, test, _ = data.split(ratings, data.SplitSpec(P=10, seed=seed))
        return train, test, content


class CiteulikeCli(_CiteulikeL):
    """``cdl train --variant mf`` and ``cdl eval`` at the citeulike-a shape."""

    name = "citeulike-L-cli"
    why = ("the paper's real setting through the CLI: train and eval are bound "
           "by K=50 sweeps, ranking 5551 x 16980 and file I/O")
    cli_sweeps = 2
    # one round takes most of --seconds; a second gives each driver two
    # samples, one of them past the cold first call
    min_rounds = 2
    quality_reference = {"recall_at_300": 0.18, "map_at_500": 0.015}
    why_layers = {"cli.main": ("factors", "metrics", "cli", "data")}

    def setup(self, seed, workdir):
        train, test, _ = self.generate(seed)
        workdir = Path(workdir)
        paths = {"train": workdir / "train.tsv", "test": workdir / "test.tsv",
                 "config": workdir / "mf.cfg"}
        data.save_ratings(train, paths["train"])
        data.save_ratings(test, paths["test"])
        cli_hyper = HyperParams(**self.hyper, max_sweeps=self.cli_sweeps,
                                epochs_per_block=1, seed=seed)
        paths["config"].write_text(training.config_text(cli_hyper), encoding="utf-8")
        return {"paths": paths, "workdir": workdir}

    def run_round(self, inputs, checks, repeat_evals=True):
        paths, workdir = inputs["paths"], inputs["workdir"]
        model_dir, eval_dir = workdir / "model", workdir / "eval"
        meter = Meter()
        argv = ["train", "--variant", "mf", "--config", str(paths["config"]),
                "--ratings", str(paths["train"]), "--out", str(model_dir)]
        code = meter("train", "cli_train_s", cli.main, argv)
        checks(code == 0, f"cdl train exited {code}")
        report = training.TrainReport.read_tsv(model_dir / "report.tsv")
        _non_decreasing(checks, "cdl train --variant mf", report)
        _finite_factors(checks, "cdl train", factors.load_factors(model_dir / "factors.npz"))

        argv = ["eval", "--model", str(model_dir), "--test", str(paths["test"]),
                "--m-grid", "50:300:50", "--out", str(eval_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = meter("eval", "cli_eval_s", cli.main, argv)
        checks(code == 0, f"cdl eval exited {code}")
        values = _read_metrics_tsv(eval_dir / "metrics.tsv", checks)
        quality = {"recall_at_50": values.get("recall@50", math.nan),
                   "recall_at_300": values.get("recall@300", math.nan),
                   "map_at_500": values.get("map@500", math.nan)}
        _quality_floor(checks, "cdl eval", quality, self.quality_reference)
        return {**meter.times, "quality": quality}


class CiteulikeFit(_CiteulikeL):
    """The library ``fit`` (widths 8000-200-50-200-8000) on citeulike-a-shaped
    data; ``cdl train`` has no batch-size flag, and unbatched this shape needs
    ~1 GB per activation."""

    name = "citeulike-L-fit"
    why = ("the paper's real setting in the library: the joint fit is bound by "
           "large sparse x dense SDAE GEMMs, the opposite regime from joint-S")
    # the fit runs on the first 4096 items (two 2048-row batches): enough to
    # make the SDAE GEMM-bound, at a quarter of the full fit's time
    fit_items = 4096
    fit_batch = 2048
    quality_reference = {"recall_at_50": 0.10, "map_at_500": 0.019}
    why_layers = {"training.fit": ("sdae",)}

    def setup(self, seed, workdir):
        train, test, content = self.generate(seed)
        hyper = HyperParams(**self.hyper, widths=(8000, 200, 50, 200, 8000),
                            max_sweeps=1, epochs_per_block=1, seed=seed)

        def first_items(ratings):
            keep = ratings.pairs[ratings.pairs[:, 1] < self.fit_items]
            return data.RatingsMatrix(ratings.num_users, self.fit_items, keep)

        sub_content = data.ContentMatrix(content.matrix[:self.fit_items],
                                         content.normalization_mode)
        return {"train": first_items(train), "test": first_items(test),
                "content": sub_content, "hyper": hyper}

    def run_round(self, inputs, checks, repeat_evals=True):
        train, meter = inputs["train"], Meter()
        _, joint, fit_report = meter("train", "fit_s", training.fit, train,
                                     inputs["content"], inputs["hyper"],
                                     batch_size=self.fit_batch)
        _finite_factors(checks, "fit", joint)
        checks(bool(np.isfinite(fit_report.totals()).all()), "fit: non-finite objective")
        values = meter("eval", "eval_s", metrics.evaluate_run, joint, train,
                       inputs["test"], (50,), 500, repeat=repeat_evals)
        quality = {"recall_at_50": values["recall@50"], "map_at_500": values["map@500"]}
        _quality_floor(checks, "fit", quality, self.quality_reference)
        return {**meter.times, "quality": quality}


def _read_metrics_tsv(path, checks):
    """The mean row of ``cdl eval``'s metrics.tsv as {metric: value}."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        values = {name: float(v) for name, v in zip(header[1:], rows["mean"][1:])}
    except (OSError, IndexError, KeyError, ValueError) as exc:
        checks.raised("parsing metrics.tsv", exc)
        return {}
    expected = [f"recall@{m}" for m in range(50, 301, 50)] + ["map@500"]
    checks(header[1:] == expected, f"metrics.tsv columns {header[1:]}")
    return values


class ChainM(Workload):
    """Sampler shape: 100 users x 150 items x 50 words, widths 50-20-5-20-50."""

    name = "chain-M"
    why = ("the only workload for sampling: per-row MALA proposals and "
           "sample_u/sample_v calls dominate; sdae, factors and metrics idle")
    # the timed chain is short, so a run repeats it many times; the check
    # chain runs once per run, untimed, long enough for criterion 8's band
    iters, burn_in, thin = 30, 20, 2
    check_iters, check_burn_in, check_thin = 150, 120, 2
    initial_step = 0.05
    hyper = dict(lambda_u=1.0, lambda_v=10.0, lambda_n=100.0, lambda_w=1.0,
                 lambda_s=100.0, conf_a=1.0, conf_b=0.01, n_factors=5)
    widths = (50, 20, 5, 20, 50)
    quality_reference = {"recall_at_50": 0.36, "map_at_500": 0.40}
    why_layers = {"sampling.run_chain": ("sampling",)}

    def setup(self, seed, workdir):
        ratings, content, *_ = data.generate_synthetic(
            100, 150, 50, 5, HyperParams(**self.hyper, seed=seed), seed=seed,
            widths=self.widths)
        train, test, _ = data.split(ratings, data.SplitSpec(P=10, seed=seed))
        hyper = HyperParams(**self.hyper, widths=self.widths, noise_level=0.3,
                            dropout_rate=0.0, seed=seed)
        return {"train": train, "test": test, "content": content, "hyper": hyper}

    def _chain(self, inputs, iters, burn_in, thin):
        return sampling.run_chain(inputs["train"], inputs["content"], inputs["hyper"],
                                  iters=iters, burn_in=burn_in, thin=thin,
                                  initial_step=self.initial_step)

    def reference(self, inputs, checks):
        """The check chain: acceptance against criterion 8's band (reported),
        warnings (checked), and the posterior mean that every round
        evaluates."""
        summary = self._chain(inputs, self.check_iters, self.check_burn_in,
                              self.check_thin)
        low, high = ACCEPT_BAND
        out_of_band = {block: rate for block, rate in sorted(summary.acceptance.items())
                       if not low <= rate <= high}
        checks(not summary.warnings, f"run_chain warnings: {summary.warnings}")
        posterior = factors.LatentFactors(summary.kept_U.mean(axis=0),
                                          summary.kept_V.mean(axis=0))
        _finite_factors(checks, "run_chain posterior mean", posterior)
        return {"posterior": posterior, "acceptance": dict(summary.acceptance),
                "out_of_band": out_of_band,
                "log_joint": summary.tracked["log_joint"].tolist()}

    def run_round(self, inputs, checks, repeat_evals=True):
        train, posterior, meter = inputs["train"], inputs["posterior"], Meter()
        summary = meter("train", "run_chain_s", self._chain, inputs,
                        self.iters, self.burn_in, self.thin)
        _finite_factors(checks, "run_chain last draw",
                        factors.LatentFactors(summary.kept_U[-1], summary.kept_V[-1]))
        values = meter("eval", "eval_s", metrics.evaluate_run, posterior, train,
                       inputs["test"], (50,), 500, repeat=repeat_evals)
        quality = {"recall_at_50": values["recall@50"], "map_at_500": values["map@500"]}
        _quality_floor(checks, "run_chain posterior mean", quality, self.quality_reference)
        return {**meter.times, "quality": quality, "log_joint": inputs["log_joint"],
                "diagnostics": {"acceptance": inputs["acceptance"],
                                "acceptance_out_of_band": inputs["out_of_band"]}}


WORKLOADS = {w.name: w for w in (JointS(), CiteulikeCli(), CiteulikeFit(), ChainM())}
