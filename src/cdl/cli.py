"""Batch command-line interface wiring all modules together.

Subcommands: split, train, eval, predict, sample, grid.  Every command is
deterministic given (inputs, config, seed), writes its artifacts under the
--out directory, and records a run manifest there.  CDL_LOG_LEVEL selects
the log level (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, data, factors as mf, metrics, sampling, sdae, training
from .exceptions import ArgumentError, CdlError, ConfigError, ParseError, ValidationError

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

GRID_KEYS = ("lambda_u", "lambda_v", "lambda_n", "lambda_w")

_VARIANTS = ("cdl", "two-step", "encoder-only", "mf")


def _version_string():
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if described.returncode == 0:
            return f"cdl {__version__} ({described.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"cdl {__version__}"


class _VersionAction(argparse.Action):
    """``--version``: print the version string, which runs ``git describe``,
    only when the flag is given, and exit."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _peak_rss_mb():
    """Peak resident set of the whole process so far, in MB; ru_maxrss is in
    KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def write_manifest(out_dir, command, args, inputs, outputs, seed=None, config=None):
    """Record what produced the artifacts in ``out_dir``, with the wall time
    since ``main`` started and the peak RSS of the whole process, which
    includes whatever ran in it before ``main``."""
    manifest = {
        "command": command,
        "args": {k: v for k, v in sorted(vars(args).items())
                 if k not in ("func", "started")},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "config": config,
        "version": _version_string(),
        "wall_seconds": time.perf_counter() - args.started,
        "peak_rss_mb": _peak_rss_mb(),
    }
    path = Path(out_dir) / "manifest.json"
    with data.open_output(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _require_file(path, what):
    if not Path(path).is_file():
        raise ArgumentError(f"{what} file not found: {path}")
    return Path(path)


def _parse_m_grid(text):
    ranged = ":" in text
    try:
        grid = [int(tok) for tok in text.split(":" if ranged else ",")]
    except ValueError:
        raise ArgumentError(
            f"--m-grid {text!r}: want integers, as start:stop:step or M1,M2,...") from None
    if ranged:
        if len(grid) != 3 or grid[2] < 1 or grid[1] < grid[0]:
            raise ArgumentError(f"--m-grid {text!r}: want start:stop:step, step >= 1")
        grid = range(grid[0], grid[1] + 1, grid[2])
    if min(grid) < 1:
        raise ArgumentError(f"--m-grid {text!r}: every M must be at least 1")
    return tuple(grid)


@contextlib.contextmanager
def _flag_named(flag):
    """Run the body; an ArgumentError from it is named at ``flag``, the one
    flag whose value it checks."""
    try:
        yield
    except ArgumentError as exc:
        raise ArgumentError(f"{flag}: {exc}") from None


def cmd_split(args):
    if args.P < 1:
        raise ArgumentError(f"--P must be at least 1, got {args.P}")
    if args.reps < 1:
        raise ArgumentError(f"--reps must be at least 1, got {args.reps}")
    with _flag_named("--seed"):
        spec = data.SplitSpec(args.P, args.seed, args.reps)
    ratings_path = _require_file(args.ratings, "ratings")
    ratings = data.load_ratings(ratings_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for rep, (train, test, eval_users) in enumerate(data.split_repetitions(ratings, spec)):
        rep_dir = out / f"rep_{rep:02d}"
        rep_dir.mkdir(exist_ok=True)
        data.save_ratings(train, rep_dir / "train.tsv")
        data.save_ratings(test, rep_dir / "test.tsv")
        data.write_split_manifest(rep_dir / "split_manifest.txt", train,
                                  spec.repetition(rep))
        outputs += [rep_dir / "train.tsv", rep_dir / "test.tsv",
                    rep_dir / "split_manifest.txt"]
        log.info("rep %d: %d train / %d test pairs, %d eval users",
                 rep, train.nnz, test.nnz, len(eval_users))
    write_manifest(out, "split", args, [ratings_path], outputs, seed=args.seed)
    return 0


@contextlib.contextmanager
def _vocabulary_named(content_path, hyper):
    """Run the body; with widths=auto the largest word id of ``content_path``
    sizes the network, and a network too large to allocate (training and
    sampling raise no other ValidationError) is named at that id's line."""
    try:
        yield
    except ValidationError as exc:
        if content_path is None or hyper.widths is not None:
            raise
        raise ValidationError(data.largest_id_line(content_path, "word", exc)) from None


def _train_one(ratings, content, hyper, variant, report_path=None):
    if variant == "cdl":
        return training.fit(ratings, content, hyper, report_path=report_path)
    if variant == "two-step":
        return training.fit_two_step(ratings, content, hyper, report_path=report_path)
    if variant == "encoder-only":
        return training.fit_encoder_only(ratings, content, hyper, report_path=report_path)
    if variant == "mf":
        factors, report = training.fit_mf_baseline(ratings, hyper, report_path=report_path)
        return None, factors, report
    raise ArgumentError(f"unknown variant {variant!r}")


def _load_run(args, check, grid=False):
    """The inputs of ``cdl train``, ``sample`` or ``grid``, checked before
    ``--out`` is created.  The config and ratings files must exist; then the
    config is read, once, and the hyperparameter sets built from it (the grid
    points, or the config with ``--seed`` applied), the ratings, and the
    content (one row per rated item, and the configured input width as its
    vocabulary), which ``--variant mf`` leaves unread outside a grid.
    ``check(ratings, content, hyper)`` runs on every set, with content None
    for ``--variant mf``, named at its config line.  Returns (hypers,
    ratings, content, content path, inputs, out)."""
    config_path = _require_file(args.config, "config")
    ratings_path = _require_file(args.ratings, "ratings")
    with data.open_text(config_path) as fh:
        lines = training.config_lines(fh.read(), str(config_path))
    if grid:
        hypers = _grid_points(lines, config_path)
    else:
        hypers = [training.hyper_from_config(lines, str(config_path))]
        if args.seed is not None:
            with _flag_named("--seed"):
                hypers = [dataclasses.replace(hypers[0], seed=args.seed)]
    ratings = data.load_ratings(ratings_path)
    inputs = [config_path, ratings_path]
    content = content_path = None
    content_free = getattr(args, "variant", None) == "mf"
    if content_free and not grid:
        if args.content:
            log.warning("variant 'mf' is content-free; ignoring %s", args.content)
    else:
        if not args.content:  # only train's --content is optional
            raise ArgumentError(f"variant {args.variant!r} needs --content")
        content_path = _require_file(args.content, "content")
        widths = hypers[0].widths
        content = data.load_content(content_path, mode=args.content_mode,
                                    num_items=ratings.num_items,
                                    vocab_size=None if widths is None else widths[0])
        inputs.append(content_path)
    try:
        for hyper in hypers:
            check(ratings, None if content_free else content, hyper)
    except ArgumentError as exc:
        if not exc.fields:
            raise
        raise training.named_at_line(exc, lines, config_path) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return hypers, ratings, content, content_path, inputs, out


def cmd_train(args):
    (hyper,), ratings, content, content_path, inputs, out = _load_run(
        args, training.check_inputs)
    report_path = out / "report.tsv"
    with _vocabulary_named(content_path, hyper):
        net, factors, _report = _train_one(ratings, content, hyper, args.variant,
                                           report_path=report_path)
    outputs = [report_path]
    if net is not None:
        sdae.save_network(net, out / "network.npz",
                          config=training.config_text(hyper))
        outputs.append(out / "network.npz")
    mf.save_factors(factors, out / "factors.npz")
    outputs.append(out / "factors.npz")
    with data.open_output(out / "config.txt") as fh:
        fh.write(training.config_text(hyper))
    outputs.append(out / "config.txt")
    write_manifest(out, "train", args, inputs, outputs, seed=hyper.seed,
                   config=training.config_text(hyper))
    return 0


def _load_model(model_dir, network=True):
    """(network, factors) of a trained model.  The network checkpoint is read
    only when ``network`` is set, and is None when the model has none."""
    model_dir = Path(model_dir)
    factors_path = model_dir / "factors.npz"
    if not factors_path.is_file():
        raise ArgumentError(f"no factors checkpoint under {model_dir}")
    factors = mf.load_factors(factors_path)
    net = None
    net_path = model_dir / "network.npz"
    if network and net_path.is_file():
        net = sdae.load_network(net_path)
    return net, factors


def _require_model_shape(factors, train, train_path):
    """The training ratings must cover the checkpoint's items, then its users."""
    for what, model, ratings in (("items", factors.V.shape[0], train.num_items),
                                 ("users", factors.U.shape[0], train.num_users)):
        if model != ratings:
            raise ArgumentError(f"checkpoint has {model} {what} but {train_path} has {ratings}")


def _train_path_from_manifest(model_dir):
    path = Path(model_dir) / "manifest.json"
    args = None
    if path.exists():
        try:
            with data.open_text(path) as fh:
                manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not JSON: {exc}") from None
        if not isinstance(manifest, dict):
            raise ParseError(f"{path}: expected a JSON object")
        args = manifest.get("args")
    ratings = args.get("ratings") if isinstance(args, dict) else None
    if not isinstance(ratings, str):
        raise ArgumentError(
            f"--train not given and no ratings path recorded in {model_dir}/manifest.json"
        )
    return ratings


def cmd_eval(args):
    models = args.model
    tests = args.test
    if len(models) == 1 and len(tests) > 1:
        models = models * len(tests)
    if len(models) != len(tests):
        raise ArgumentError(
            f"got {len(models)} models for {len(tests)} test files"
        )
    trains = args.train or []
    if trains and len(trains) not in (1, len(tests)):
        raise ArgumentError("--train must appear once or once per test file")
    m_grid = _parse_m_grid(args.m_grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = []
    per_rep = []
    for rep, (model_dir, test_path) in enumerate(zip(models, tests)):
        _, factors = _load_model(model_dir, network=False)
        if trains:
            train_path = trains[rep if len(trains) > 1 else 0]
        else:
            train_path = _train_path_from_manifest(model_dir)
        train_path = _require_file(train_path, "train ratings")
        test_path = _require_file(test_path, "test ratings")
        train = data.load_ratings(train_path)
        test = data.load_ratings(test_path)
        _require_model_shape(factors, train, train_path)
        if test.num_items != train.num_items or test.num_users != train.num_users:
            raise ArgumentError(
                f"train {train_path} and test {test_path} dimensions differ"
            )
        if test.nnz == 0:
            log.warning("test set %s is empty: no users evaluated", test_path)
        policy = metrics.ALL_ITEMS if args.all_items else metrics.EXCLUDE_TRAIN
        per_rep.append(metrics.evaluate_run(factors, train, test, m_grid,
                                            policy=policy))
        inputs += [train_path, test_path]
    report = metrics.aggregate(per_rep)
    report.write_tsv(out / "metrics.tsv")
    write_manifest(out, "eval", args, inputs, [out / "metrics.tsv"])
    for name in report.metric_names:
        print(f"{name}\t{report.mean[name]:.6f}\t(std {report.std[name]:.6f})")
    return 0


def cmd_predict(args):
    if args.top < 1:
        raise ArgumentError(f"--top must be at least 1, got {args.top}")
    net, factors = _load_model(args.model, network=bool(args.item_content))
    num_users = factors.U.shape[0]
    if not 0 <= args.user < num_users:
        raise ArgumentError(f"unknown user id {args.user} (have {num_users} users)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    u = factors.U[args.user]
    rows = []
    inputs = []
    if args.item_content:
        if net is None:
            raise ArgumentError("cold-start scoring needs a network checkpoint")
        content_path = _require_file(args.item_content, "item content")
        inputs.append(content_path)
        x = data.load_content(content_path, mode=args.content_mode, num_items=1,
                              vocab_size=net.widths[0], item_column=False).row(0)
        score = mf.predict_new_item(u, sdae.encode(net, x))
        rows.append(["new", format(score, ".17g")])
    else:
        train_path = args.train or _train_path_from_manifest(args.model)
        train_path = _require_file(train_path, "train ratings")
        inputs.append(train_path)
        train = data.load_ratings(train_path)
        _require_model_shape(factors, train, train_path)
        seen = train.items_of(args.user)
        one_user = data.RatingsMatrix(1, train.num_items,
                                      np.column_stack([np.zeros_like(seen), seen]))
        ranked = metrics.rank(u.reshape(1, -1), factors.V, one_user,
                              policy=metrics.EXCLUDE_TRAIN, limit=args.top)
        items = ranked.items[0]
        scores = factors.V[items] @ u
        rows += [[str(item), format(score, ".17g")] for item, score in zip(items, scores)]
    pred_path = out / "predictions.tsv"
    data.write_table(pred_path, ["item", "score"], rows)
    write_manifest(out, "predict", args, inputs, [pred_path])
    for cells in rows:
        print("\t".join(cells))
    return 0


def cmd_sample(args):
    if args.thin < 1:
        raise ArgumentError(f"--thin must be at least 1, got {args.thin}")
    if args.burn_in < 0:
        raise ArgumentError(f"--burn-in must be non-negative, got {args.burn_in}")
    if args.iters <= args.burn_in:
        raise ArgumentError(f"--iters {args.iters} must exceed --burn-in {args.burn_in}")
    (hyper,), ratings, content, content_path, inputs, out = _load_run(
        args, sampling.check_chain_inputs)
    with _vocabulary_named(content_path, hyper):
        summary = sampling.run_chain(ratings, content, hyper,
                                     iters=args.iters, burn_in=args.burn_in,
                                     thin=args.thin)
    summary.write_tsv(out / "chain.tsv")
    with data.open_output(out / "chain_summary.json") as fh:
        json.dump({
            "acceptance": summary.acceptance,
            "step_sizes": summary.step_sizes,
            "posterior_mean": summary.posterior_mean,
            "posterior_var": summary.posterior_var,
            "warnings": summary.warnings,
            "kept_iterations": len(summary.iterations),
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for warning in summary.warnings:
        log.warning("%s", warning)
    write_manifest(out, "sample", args, inputs,
                   [out / "chain.tsv", out / "chain_summary.json"],
                   seed=hyper.seed, config=training.config_text(hyper))
    return 0


def _grid_points(lines, path):
    """The run grid's HyperParams: config_lines' map ``lines`` of the config at
    ``path``, with its comma lists on the searched keys expanded, in
    Cartesian-product order."""
    lists = {}
    for key in GRID_KEYS:
        value, lineno = lines.get(key, ("", 0))
        if "," in value:
            try:
                lists[key] = [float(tok) for tok in value.split(",")]
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad grid list for {key}: {value!r}", [key]
                ) from None
    points = []
    for combo in itertools.product(*lists.values()):
        chosen = {key: (repr(v), lines[key][1]) for key, v in zip(lists, combo)}
        points.append(training.hyper_from_config({**lines, **chosen}, path))
    return points


def _round_robin_folds(ratings, n_folds, seed):
    """Per-user round-robin fold assignment over a seeded item shuffle: each
    user's i-th shuffled item is held out in fold i % n_folds."""
    rng = np.random.default_rng(seed)
    users = ratings.pairs[:, 0]
    items = ratings.pairs[:, 1].copy()
    bounds = np.searchsorted(users, np.arange(ratings.num_users + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rng.shuffle(items[lo:hi])
    fold = (np.arange(len(users)) - np.searchsorted(users, users)) % n_folds
    pairs = np.column_stack((users, items))
    return [(data.RatingsMatrix(ratings.num_users, ratings.num_items, pairs[fold != k]),
             data.RatingsMatrix(ratings.num_users, ratings.num_items, pairs[fold == k]))
            for k in range(n_folds)]


def cmd_grid(args):
    if args.folds < 2:
        raise ArgumentError(f"--folds must be at least 2, got {args.folds}")
    if args.select_m < 1:
        raise ArgumentError(f"--select-m must be at least 1, got {args.select_m}")
    points, ratings, content, content_path, inputs, out = _load_run(
        args, training.check_inputs, grid=True)
    folds = _round_robin_folds(ratings, args.folds, points[0].seed)

    metric_name = f"recall@{args.select_m}"

    def run_one(task):
        point_idx, fold_idx, hyper = task
        run_hyper = dataclasses.replace(hyper, seed=int(np.random.SeedSequence(
            [hyper.seed, point_idx, fold_idx]).generate_state(1)[0]) % (2 ** 31))
        train, held = folds[fold_idx]
        _, factors, _ = _train_one(train, content, run_hyper, args.variant)
        # a cutoff of M keeps the ranking M deep; the mAP beside it is unused
        return metrics.evaluate_run(factors, train, held, (args.select_m,),
                                    cutoff=args.select_m)[metric_name]

    tasks = [(pi, fi, hyper) for pi, hyper in enumerate(points) for fi in range(len(folds))]
    with (_vocabulary_named(content_path, points[0]),
          ThreadPoolExecutor(max_workers=max(args.threads, 1)) as pool):
        results = list(pool.map(run_one, tasks))

    def cells(hyper, value):
        return [repr(getattr(hyper, k)) for k in GRID_KEYS] + [format(value, ".10g")]

    runs_path = out / "grid_runs.tsv"
    data.write_table(runs_path, ["point", "fold", *GRID_KEYS, metric_name],
                     ([str(pi), str(fi)] + cells(hyper, value)
                      for (pi, fi, hyper), value in zip(tasks, results)))

    means = []
    for pi, hyper in enumerate(points):
        vals = [value for (qi, _, _), value in zip(tasks, results) if qi == pi]
        means.append((sum(vals) / len(vals), pi, hyper))
    # best first, ties in enumeration order: table[0] is the first best point
    table = sorted(means, key=lambda rec: (-rec[0], rec[1]))
    results_path = out / "grid_results.tsv"
    data.write_table(results_path, ["point", *GRID_KEYS, f"mean_{metric_name}"],
                     ([str(pi)] + cells(hyper, value) for value, pi, hyper in table))
    best = table[0]
    best_path = out / "best_config.txt"
    with data.open_output(best_path) as fh:
        fh.write(training.config_text(best[2]))
    write_manifest(out, "grid", args, inputs, [runs_path, results_path, best_path],
                   seed=points[0].seed)
    print(f"best point {best[1]}: mean {metric_name} = {best[0]:.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdl",
        description="Collaborative deep learning recommender toolkit",
    )
    parser.add_argument("--version", action=_VersionAction, nargs=0,
                        default=argparse.SUPPRESS,
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several commands, declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--content-mode", default=data.BINARY_PRESENCE,
                      choices=[data.BINARY_PRESENCE, data.COUNT_MAXNORM])
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True)
    run.add_argument("--ratings", required=True)

    p = sub.add_parser("split", help="per-user train/test splits", parents=[out])
    p.add_argument("--ratings", required=True)
    p.add_argument("--P", type=int, required=True,
                   help="training items per user (1=sparse, 10=dense)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model variant on a training ratings file",
                       parents=[run, mode, out])
    p.add_argument("--content", default=None)
    p.add_argument("--variant", default="cdl", choices=_VARIANTS)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="recall@M grid and mAP on held-out ratings",
                       parents=[out])
    p.add_argument("--model", required=True, nargs="+",
                   help="train output dir(s), one per repetition")
    p.add_argument("--test", required=True, nargs="+")
    p.add_argument("--train", nargs="+", default=None,
                   help="training ratings (defaults to the path in the model manifest)")
    p.add_argument("--M-grid", "--m-grid", dest="m_grid", default="50:300:50")
    p.add_argument("--all-items", action="store_true",
                   help="rank training items too instead of excluding them")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="top-N items or a cold-start score",
                       parents=[mode, out])
    p.add_argument("--model", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--item-content", default=None,
                   help="word<TAB>count file for one unrated item")
    p.add_argument("--train", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sample", help="posterior sampling chain", parents=[run, mode, out])
    p.add_argument("--content", required=True)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--burn-in", type=int, default=250)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("grid", help="cross-validated grid search over a config whose "
                       "lambda_u/v/n/w may hold comma lists", parents=[run, mode, out])
    p.add_argument("--content", required=True)
    p.add_argument("--variant", default="cdl", choices=_VARIANTS)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--select-m", type=int, default=300)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_grid)
    return parser


def main(argv=None):
    started = time.perf_counter()
    level = os.environ.get("CDL_LOG_LEVEL", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = started
    try:
        return args.func(args)
    except (CdlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
