#!/usr/bin/env python3
"""Fixed-seed fingerprints of what cdl computes: the four MAP fits, a short
sampling chain, the factor sweeps, solves and draws at K = 1, 3, 8 and 50,
and the artifacts of ``cdl split``, ``train``, ``eval``, ``predict``,
``sample`` and ``grid``.

Each artifact prints as one line, its name and the first 16 hex digits of
the SHA-256 of its bytes, after one line naming the BLAS thread setting and
the numpy version.  Two trees that compute the same bits print the same
lines at the same thread count, so a change that claims byte identity runs
this script on its parent and on itself, at 1 and at 2 BLAS threads, and
quotes the diff:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/fingerprint.py > one.txt

Hashes depend on the BLAS build and the host, so none is stored; compare
runs made on one host.  ``--quick`` prints a small subset.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from cdl import cli, data, factors as mf, sampling, sdae, training
from cdl.exceptions import NumericError
from cdl.training import HyperParams

# manifest fields that differ between runs of the same code
VOLATILE = ("version", "wall_seconds", "peak_rss_mb")


def digest(*parts):
    """First 16 hex digits of the SHA-256 of ``parts``: arrays by dtype,
    shape and bytes, bytes as they are, anything else by its repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def report_bytes(report):
    """Every report row but its ``seconds``, each value as float.hex."""
    names = [n for n in training.REPORT_COLUMNS if n != "seconds"]
    return "\n".join("\t".join(float(getattr(row, n)).hex() for n in names)
                     for row in report.rows).encode()


def joint_s(seed=1, **changes):
    """The benchmark's joint-S inputs (criterion 9's shape: 200 users x 300
    items x 100 words, K=5, P=1) at ``seed``, with hyperparameter changes."""
    gen = HyperParams(lambda_u=1.0, lambda_v=100.0, lambda_n=1e4, lambda_w=1.0,
                      conf_a=1.0, conf_b=0.01, n_factors=5, seed=0)
    ratings, content, *_ = data.generate_synthetic(200, 300, 100, 5, gen, seed=seed)
    train, _, _ = data.split(ratings, data.SplitSpec(P=1, seed=seed + 100))
    hyper = dict(lambda_u=1.0, lambda_v=10.0, lambda_n=10.0, lambda_w=1e-3, conf_a=2.0,
                 conf_b=0.01, n_factors=5, widths=(100, 5, 100), noise_level=0.3,
                 dropout_rate=0.0, learning_rate=1e-4, momentum=0.9, epochs_per_block=50,
                 max_sweeps=5, early_stop_tol=0.0, seed=seed)
    return train, content, HyperParams(**{**hyper, **changes})


def small(num_items=40, density=None, **changes):
    """A small synthetic set (30 users, 12 words, K=3, widths 12-6-3-6-12):
    its content is about 87 % stored, or random of ``density``.  At noise
    0.3 the corruptions are sparse, at 0.1 dense, at 0.25 either."""
    hyper = dict(lambda_u=1.0, lambda_v=10.0, lambda_n=50.0, lambda_w=0.1, conf_a=1.0,
                 conf_b=0.01, n_factors=3, widths=(12, 6, 3, 6, 12), noise_level=0.3,
                 dropout_rate=0.2, learning_rate=0.002, momentum=0.5, epochs_per_block=2,
                 max_sweeps=3, early_stop_tol=0.0, seed=2)
    hyper = HyperParams(**{**hyper, **changes})
    ratings, content, *_ = data.generate_synthetic(30, num_items, 12, 3, hyper, seed=4,
                                                   widths=hyper.widths)
    if density is not None:
        rng = np.random.default_rng(6)
        shape = (num_items, 12)
        content = data.ContentMatrix(rng.random(shape) * (rng.random(shape) < density))
    return ratings, content, hyper


@contextlib.contextmanager
def failing_gradients(calls):
    """sdae.gradients raising NumericError on the given 1-based calls, so
    that a fit rolls back and halves its learning rate there."""
    real, count = sdae.gradients, [0]

    def gradients(*args, **kwargs):
        count[0] += 1
        if count[0] in calls:
            raise NumericError("injected")
        return real(*args, **kwargs)

    sdae.gradients = gradients
    try:
        yield
    finally:
        sdae.gradients = real


def fit_cases(quick):
    """(name, ratings, content, hyper, context) of every fit case."""
    none = contextlib.nullcontext
    if quick:
        return [("small", *small(), none)]
    return [
        ("joint-S", *joint_s(), none),
        ("joint-S-noise0", *joint_s(noise_level=0.0, epochs_per_block=10), none),
        ("joint-S-noise0.5", *joint_s(noise_level=0.5, epochs_per_block=10), none),
        ("joint-S-noise1", *joint_s(noise_level=1.0, epochs_per_block=10), none),
        ("joint-S-dropout", *joint_s(noise_level=0.5, dropout_rate=0.2,
                                     epochs_per_block=10), none),
        ("small", *small(), none),
        ("small-straddle", *small(noise_level=0.25, max_sweeps=5), none),
        ("small-sparse", *small(density=0.5), none),
        ("small-rollback", *small(noise_level=0.1, dropout_rate=0.0),
         lambda: failing_gradients({2, 5})),
        ("blocks", *small(num_items=sdae.BLOCK_ROWS + 52, noise_level=0.1, max_sweeps=2),
         none),
    ]


def fit_lines(quick):
    """U, V, the network and the report rows of each fit in each case."""
    runs = {"fit": training.fit, "fit_two_step": training.fit_two_step,
            "fit_encoder_only": training.fit_encoder_only}
    for case, ratings, content, hyper, context in fit_cases(quick):
        for name, fit in runs.items():
            with context():
                net, factors, report = fit(ratings, content, hyper)
            yield f"{case}/{name}/U", digest(factors.U)
            yield f"{case}/{name}/V", digest(factors.V)
            yield f"{case}/{name}/net", digest(*net.weights, *net.biases)
            yield f"{case}/{name}/report", digest(report_bytes(report))
        factors, report = training.fit_mf_baseline(ratings, hyper)
        yield f"{case}/fit_mf_baseline/U", digest(factors.U)
        yield f"{case}/fit_mf_baseline/V", digest(factors.V)
        yield f"{case}/fit_mf_baseline/report", digest(report_bytes(report))


def chain_lines():
    """A short chain at the benchmark's chain-M shape (100 users x 150 items
    x 50 words, widths 50-20-5-20-50), seed 1."""
    gen = dict(lambda_u=1.0, lambda_v=10.0, lambda_n=100.0, lambda_w=1.0, lambda_s=100.0,
               conf_a=1.0, conf_b=0.01, n_factors=5)
    widths = (50, 20, 5, 20, 50)
    ratings, content, *_ = data.generate_synthetic(
        100, 150, 50, 5, HyperParams(**gen, seed=1), seed=1, widths=widths)
    train, _, _ = data.split(ratings, data.SplitSpec(P=10, seed=1))
    hyper = HyperParams(**gen, widths=widths, noise_level=0.3, dropout_rate=0.0, seed=1)
    summary = sampling.run_chain(train, content, hyper, iters=30, burn_in=20, thin=2,
                                 initial_step=0.05)
    yield "chain/kept_U", digest(summary.kept_U)
    yield "chain/kept_V", digest(summary.kept_V)
    yield "chain/tracked", digest(*(summary.tracked[k] for k in sorted(summary.tracked)))
    yield "chain/acceptance", digest(sorted(summary.acceptance.items()))


def factor_lines():
    """The user and item sweeps, with and without a generator, and one-row
    ``update_user`` and ``sample_u``, at K = 1, 3, 8 and 50.  User r of 60
    rates items 0 to r - 1 of 70, so item j has 59 - j raters (none from
    item 59 on): at every K rows with c < K and rows with c >= K run on both
    sides, and the one-row calls take users K - 1 and K, one on each path."""
    users, items = 60, 70
    pairs = np.array([(u, i) for u in range(users) for i in range(u)])
    ratings = data.RatingsMatrix(users, items, pairs)
    conf = mf.ConfidenceParams(1.0, 0.01)
    for K in (1, 3, 8, 50):
        rng = np.random.default_rng(K)
        U, V, prior = (rng.normal(size=(n, K)) for n in (users, items, items))
        yield f"factors/K{K}/sweep_users", digest(mf.sweep_users(V, ratings, conf, 0.1))
        yield f"factors/K{K}/sweep_users-draw", digest(
            mf.sweep_users(V, ratings, conf, 0.1, np.random.default_rng(1)))
        yield f"factors/K{K}/sweep_items", digest(mf.sweep_items(U, ratings, conf, 10.0, prior))
        yield f"factors/K{K}/sweep_items-draw", digest(
            mf.sweep_items(U, ratings, conf, 10.0, prior, np.random.default_rng(2)))
        for user in (K - 1, K):
            rated = ratings.items_of(user)
            yield f"factors/K{K}/update_user/c{user}", digest(
                mf.update_user(V, rated, conf, 0.1))
            yield f"factors/K{K}/sample_u/c{user}", digest(
                sampling.sample_u(V, rated, conf, 0.1, np.random.default_rng(3)))


def file_bytes(path, root):
    """A CLI artifact's bytes, less what differs between runs of the same
    code: a report's seconds, a manifest's volatile fields and the run
    directory, an npz archive's zip metadata."""
    if path.suffix == ".npz":
        with np.load(path) as archive:
            return b"".join(name.encode() + digest(archive[name]).encode()
                            for name in sorted(archive.files))
    if path.name == "report.tsv":
        return report_bytes(training.TrainReport.read_tsv(path))
    text = path.read_text(encoding="utf-8")
    if path.name == "manifest.json":
        manifest = {k: v for k, v in json.loads(text).items() if k not in VOLATILE}
        text = json.dumps(manifest, sort_keys=True)
    return text.replace(str(root), "<run>").encode()


def cli_lines(quick):
    """``cdl split``, ``train`` and ``eval`` on the CLI tests' fixture (15
    users x 20 items x 8 words, K=3), in a temporary directory; then, on the
    cdl model and the split's training ratings, ``predict`` top-N and cold
    start, a short ``sample`` chain (lambda_s=100) and a 2-fold ``grid`` over
    two lambda_u values."""
    hyper = HyperParams(lambda_u=1.0, lambda_v=10.0, lambda_n=50.0, lambda_w=0.1,
                        conf_a=1.0, conf_b=0.01, n_factors=3, noise_level=0.3,
                        dropout_rate=0.0, learning_rate=0.002, momentum=0.5,
                        epochs_per_block=1, max_sweeps=3, early_stop_tol=0.0, seed=0)
    ratings, content, *_ = data.generate_synthetic(15, 20, 8, 3, hyper, seed=1)
    variants = ("cdl",) if quick else ("cdl", "two-step", "encoder-only", "mf")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data.save_ratings(ratings, root / "ratings.tsv")
        coo = content.matrix.tocoo()
        (root / "content.tsv").write_text(
            "".join(f"{i}\t{w}\t1\n" for i, w in zip(coo.row, coo.col)), encoding="utf-8")
        (root / "config.txt").write_text(training.config_text(hyper), encoding="utf-8")
        (root / "sample.txt").write_text(
            training.config_text(dataclasses.replace(hyper, lambda_s=100.0)), encoding="utf-8")
        (root / "grid.txt").write_text(training.config_text(hyper).replace(
            "lambda_u=1.0\n", "lambda_u=0.5,2.0\n"), encoding="utf-8")
        (root / "item.tsv").write_text("1\t2\n3\t1\n6\t4\n", encoding="utf-8")
        train = root / "split" / "rep_00" / "train.tsv"
        inputs = ("--ratings", train, "--content", root / "content.tsv")
        runs = [("split", "--ratings", root / "ratings.tsv", "--P", 2, "--seed", 5,
                 "--out", root / "split")]
        for variant in variants:
            content_args = () if variant == "mf" else ("--content", root / "content.tsv")
            runs.append(("train", "--config", root / "config.txt", "--ratings", train,
                         *content_args, "--variant", variant, "--out", root / variant))
            runs.append(("eval", "--model", root / variant, "--test",
                          root / "split" / "rep_00" / "test.tsv", "--m-grid", "2:10:2",
                          "--out", root / f"eval-{variant}"))
        runs += [
            ("predict", "--model", root / "cdl", "--user", 0, "--top", 5,
             "--out", root / "predict-top"),
            ("predict", "--model", root / "cdl", "--user", 0, "--item-content",
             root / "item.tsv", "--out", root / "predict-cold"),
            ("sample", "--config", root / "sample.txt", *inputs, "--iters", 12, "--burn-in", 6,
             "--thin", 2, "--out", root / "sample"),
            ("grid", "--config", root / "grid.txt", *inputs, "--folds", 2, "--select-m", 5,
             "--out", root / "grid"),
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):  # eval, predict, grid print
                code = cli.main([str(a) for a in argv])
            if code != 0:
                raise SystemExit(f"cdl {' '.join(map(str, argv))} failed")
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = path.relative_to(root).as_posix()
            yield f"cli/{name}", digest(file_bytes(path, root))


def fingerprints(quick=False):
    """[(name, hex)] of every artifact, in a fixed order."""
    lines = list(fit_lines(quick))
    if not quick:
        lines += chain_lines()
    lines += factor_lines()
    lines += cli_lines(quick)
    return lines


def environment():
    threads = next((os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS") if k in os.environ), "default")
    return f"env blas_threads={threads} numpy={np.__version__} python={sys.version.split()[0]}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="print a small subset")
    args = parser.parse_args(argv)
    print(environment())
    for name, value in fingerprints(args.quick):
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
