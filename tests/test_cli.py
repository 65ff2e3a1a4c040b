import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdl import cli, data, factors as mf, metrics, sampling, sdae, training
from cdl.training import HyperParams
from test_metrics import naive_rank


@pytest.fixture()
def dataset(tmp_path):
    hyper = HyperParams(lambda_u=1.0, lambda_v=10.0, lambda_n=50.0, lambda_w=0.1,
                        conf_a=1.0, conf_b=0.01, n_factors=3, noise_level=0.3,
                        dropout_rate=0.0, learning_rate=0.002, momentum=0.5,
                        epochs_per_block=1, max_sweeps=3, early_stop_tol=0.0, seed=0)
    ratings, content, *_ = data.generate_synthetic(15, 20, 8, 3, hyper, seed=1)
    ratings_path = tmp_path / "ratings.tsv"
    data.save_ratings(ratings, ratings_path)
    content_path = tmp_path / "content.tsv"
    with open(content_path, "w") as fh:
        coo = content.matrix.tocoo()
        for i, w in zip(coo.row, coo.col):
            fh.write(f"{i}\t{w}\t1\n")
    config_path = tmp_path / "config.txt"
    config_path.write_text(training.config_text(hyper))
    return dict(hyper=hyper, ratings=ratings_path, content=content_path,
                config=config_path, root=tmp_path)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestSplitCommand:
    def test_writes_reproducible_outputs(self, dataset, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        for out in (out1, out2):
            code = run_cli("split", "--ratings", dataset["ratings"], "--P", 1,
                           "--seed", 3, "--reps", 2, "--out", out)
            assert code == 0
        for rep in ("rep_00", "rep_01"):
            a = (out1 / rep / "train.tsv").read_bytes()
            b = (out2 / rep / "train.tsv").read_bytes()
            assert a == b
            assert (out1 / rep / "test.tsv").read_bytes() == \
                   (out2 / rep / "test.tsv").read_bytes()
        assert (out1 / "manifest.json").exists()

    def test_train_and_test_partition_ratings(self, dataset, tmp_path):
        out = tmp_path / "s"
        run_cli("split", "--ratings", dataset["ratings"], "--P", 1,
                "--seed", 3, "--out", out)
        full = data.load_ratings(dataset["ratings"])
        train = data.load_ratings(out / "rep_00" / "train.tsv")
        test = data.load_ratings(out / "rep_00" / "test.tsv")
        merged = {tuple(p) for p in train.pairs} | {tuple(p) for p in test.pairs}
        assert merged == {tuple(p) for p in full.pairs}

    def test_missing_file_nonzero_exit_names_path(self, tmp_path, capsys):
        code = run_cli("split", "--ratings", tmp_path / "nope.tsv", "--P", 1,
                       "--seed", 0, "--out", tmp_path / "o")
        assert code != 0
        assert "nope.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--P", "--reps"])
    def test_count_below_one_rejected_up_front(self, dataset, tmp_path, capsys, flag):
        argv = {"--P": 1, "--reps": 1, flag: 0}
        code = run_cli("split", "--ratings", dataset["ratings"], "--seed", 0,
                       "--out", tmp_path / "o", *(x for kv in argv.items() for x in kv))
        assert code == 1
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_duplicate_pair_names_file_and_line(self, tmp_path, capsys):
        ratings = tmp_path / "dup.tsv"
        ratings.write_text("0\t1\n1\t0\n0\t1\n")
        code = run_cli("split", "--ratings", ratings, "--P", 1, "--out", tmp_path / "o")
        assert code == 1
        assert f"{ratings}:3: duplicate rating pair (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("blank", ["\t", " \t "], ids=["tab", "spaced-tab"])
    def test_tab_only_line_before_a_duplicate_named_without_traceback(self, tmp_path, capsys,
                                                                      blank):
        ratings = tmp_path / "r.tsv"
        ratings.write_text(f"0\t1\n{blank}\n0\t1\n")
        code = run_cli("split", "--ratings", ratings, "--P", 1, "--out", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"error: {ratings}:3: duplicate rating pair (0, 1)\n"

    def test_id_sizing_beyond_int64_named_without_traceback(self, tmp_path, capsys):
        # without a header the largest id sizes the matrix: 2**63 - 1 asks
        # for a dimension of 2**63
        ratings = tmp_path / "huge.tsv"
        ratings.write_text("0\t1\n9223372036854775807\t2\n")
        code = run_cli("split", "--ratings", ratings, "--P", 1, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert (f"error: {ratings}:2: id 9223372036854775807 sizes the matrix beyond int64"
                in err)
        assert "Traceback" not in err

    # without a header the largest id sizes the matrix: 10**12 asks for a
    # 7.28 TiB index, and np.arange(2**63) for 2**63 - 2 comes back empty
    @pytest.mark.parametrize("user", [10**12, 2**63 - 2], ids=["beyond-memory", "empty-arange"])
    def test_id_too_large_to_index_named_without_traceback(self, tmp_path, capsys, user):
        ratings = tmp_path / "huge.tsv"
        ratings.write_text(f"0\t1\n{user}\t2\n")
        code = run_cli("split", "--ratings", ratings, "--P", 1, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {ratings}:2: id {user} sizes the matrix too large to index" in err
        assert "Traceback" not in err

    def test_manifest_records_each_repetition_seed(self, dataset, tmp_path):
        out = tmp_path / "s"
        run_cli("split", "--ratings", dataset["ratings"], "--P", 1,
                "--seed", 3, "--reps", 2, "--out", out)
        spec = data.SplitSpec(P=1, seed=3, repetitions=2)
        for rep in range(2):
            rep_dir = out / f"rep_{rep:02d}"
            expected = tmp_path / f"manifest_{rep}.txt"
            data.write_split_manifest(expected, data.load_ratings(rep_dir / "train.tsv"),
                                      spec.repetition(rep))
            assert (rep_dir / "split_manifest.txt").read_bytes() == expected.read_bytes()


class TestTrainCommand:
    def test_cdl_variant_writes_artifacts(self, dataset, tmp_path):
        out = tmp_path / "model"
        code = run_cli("train", "--config", dataset["config"],
                       "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--out", out)
        assert code == 0
        for name in ("network.npz", "factors.npz",
                     "report.tsv", "config.txt", "manifest.json"):
            assert (out / name).exists(), name
        report = training.TrainReport.read_tsv(out / "report.tsv")
        assert np.isfinite(report.totals()).all()

    def test_widths_key_builds_requested_architecture(self, dataset, tmp_path):
        text = (dataset["config"].read_text()
                .replace("widths=auto", "widths=8,5,3,5,8"))
        config = tmp_path / "widths.txt"
        config.write_text(text)
        out = tmp_path / "model"
        assert run_cli("train", "--config", config, "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--out", out) == 0
        net = sdae.load_network(out / "network.npz")
        assert net.widths == [8, 5, 3, 5, 8]

    def test_mf_variant_warns_when_content_given(self, dataset, tmp_path, caplog):
        out = tmp_path / "mf"
        with caplog.at_level("WARNING"):
            code = run_cli("train", "--config", dataset["config"],
                           "--ratings", dataset["ratings"],
                           "--content", dataset["content"],
                           "--variant", "mf", "--out", out)
        assert code == 0
        assert "content-free" in caplog.text
        assert not (out / "network.npz").exists()
        assert (out / "factors.npz").exists()

    def test_missing_lambda_v_names_key(self, dataset, tmp_path, capsys):
        lines = [l for l in dataset["config"].read_text().splitlines()
                 if not l.startswith("lambda_v=")]
        config = tmp_path / "broken.txt"
        config.write_text("\n".join(lines))
        code = run_cli("train", "--config", config, "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--out", tmp_path / "x")
        assert code == 1
        assert "lambda_v" in capsys.readouterr().err

    # without a shape the largest ids size the content: an item id beyond
    # the ratings is named at its line, and with widths=auto a word id of
    # 10**12 asks for a 36 TiB first weight matrix
    @pytest.mark.parametrize("text, reason", [
        ("0\t1\t1\n1000000000000\t2\t1\n",
         "{content}:2: item id 1000000000000 outside [0, 20)"),
        ("0\t1\t1\n1\t1000000000000\t1\n",
         "{content}:2: id 1000000000000 sizes "
         "layer widths 1000000000001-3-1000000000001 too large to allocate"),
    ], ids=["item-id", "word-id"])
    def test_content_id_too_large_named_without_traceback(self, dataset, tmp_path, capsys,
                                                          text, reason):
        content = tmp_path / "huge.tsv"
        content.write_text(text)
        code = run_cli("train", "--config", dataset["config"], "--ratings", dataset["ratings"],
                       "--content", content, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {reason.format(content=content)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sample", "grid"])
    def test_word_id_sizing_the_network_named_at_its_line(self, dataset, tmp_path, capsys,
                                                          command):
        # as the word-id case above, for the other commands that size a
        # network from the content; the largest id's first line is named
        content = tmp_path / "huge.tsv"
        content.write_text(dataset["content"].read_text()
                           + "1\t1000000000000\t1\n2\t1000000000000\t1\n3\t5\t1\n")
        lineno = len(content.read_text().splitlines()) - 2
        config = tmp_path / "config.txt"
        config.write_text(dataset["config"].read_text().replace("lambda_s=inf",
                                                                "lambda_s=100.0"))
        argv = {"sample": ("--iters", 4, "--burn-in", 2),
                "grid": ("--folds", 2, "--select-m", 5)}[command]
        code = run_cli(command, "--config", config, "--ratings", dataset["ratings"],
                       "--content", content, *argv, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {content}:{lineno}: id 1000000000000 sizes layer widths "
                       "1000000000001-3-1000000000001 too large to allocate\n")

    def test_variants_all_trainable(self, dataset, tmp_path):
        for variant in ("two-step", "encoder-only"):
            out = tmp_path / variant
            assert run_cli("train", "--config", dataset["config"],
                           "--ratings", dataset["ratings"],
                           "--content", dataset["content"],
                           "--variant", variant, "--out", out) == 0
            assert (out / "network.npz").exists()


@pytest.fixture()
def trained(dataset, tmp_path):
    split_dir = tmp_path / "split"
    run_cli("split", "--ratings", dataset["ratings"], "--P", 2, "--seed", 5,
            "--out", split_dir)
    model_dir = tmp_path / "model"
    run_cli("train", "--config", dataset["config"],
            "--ratings", split_dir / "rep_00" / "train.tsv",
            "--content", dataset["content"], "--out", model_dir)
    return dict(split=split_dir / "rep_00", model=model_dir, **dataset)


class TestEvalCommand:
    def test_metrics_tsv_with_default_grid(self, trained, tmp_path):
        out = tmp_path / "eval"
        code = run_cli("eval", "--model", trained["model"],
                       "--test", trained["split"] / "test.tsv",
                       "--m-grid", "2:10:2", "--out", out)
        assert code == 0
        lines = (out / "metrics.tsv").read_text().splitlines()
        assert lines[0] == ("repetition\trecall@2\trecall@4\trecall@6"
                            "\trecall@8\trecall@10\tmap@500")
        assert lines[-1].startswith("std\t")

    def test_default_m_grid_is_50_to_300(self):
        assert cli._parse_m_grid("50:300:50") == (50, 100, 150, 200, 250, 300)
        parser = cli.build_parser()
        args = parser.parse_args(["eval", "--model", "m", "--test", "t", "--out", "o"])
        assert args.m_grid == "50:300:50"

    @pytest.mark.parametrize("grid", ["x", "50:abc:50", "0:300:50"])
    def test_bad_m_grid_rejected(self, trained, tmp_path, capsys, grid):
        code = run_cli("eval", "--model", trained["model"],
                       "--test", trained["split"] / "test.tsv",
                       "--m-grid", grid, "--out", tmp_path / "eval_bad")
        assert code == 1
        assert "--m-grid" in capsys.readouterr().err

    def test_train_path_comes_from_manifest(self, trained, tmp_path):
        # no --train flag: the model manifest records the ratings file
        out = tmp_path / "eval2"
        code = run_cli("eval", "--model", trained["model"],
                       "--test", trained["split"] / "test.tsv",
                       "--m-grid", "2,4", "--out", out)
        assert code == 0

    def test_empty_test_set_warns_and_exits_zero(self, trained, tmp_path, caplog):
        empty = tmp_path / "empty.tsv"
        ratings = data.load_ratings(trained["ratings"])
        data.save_ratings(
            data.RatingsMatrix(ratings.num_users, ratings.num_items, np.empty((0, 2))),
            empty)
        with caplog.at_level("WARNING"):
            code = run_cli("eval", "--model", trained["model"], "--test", empty,
                           "--m-grid", "2,4", "--out", tmp_path / "e3")
        assert code == 0
        assert "empty" in caplog.text

    def test_dimension_mismatch_rejected(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("# users=2 items=2\n0\t0\n")
        code = run_cli("eval", "--model", trained["model"], "--test", bad,
                       "--train", bad, "--m-grid", "1,2", "--out", tmp_path / "e4")
        assert code == 1
        assert "items" in capsys.readouterr().err

    def test_user_count_mismatch_names_train_file(self, trained, tmp_path, capsys):
        # the model has 15 users over 20 items; these files have 25 users
        train, test = tmp_path / "train25.tsv", tmp_path / "test25.tsv"
        train.write_text("# users=25 items=20\n0\t0\n24\t1\n")
        test.write_text("# users=25 items=20\n0\t1\n24\t2\n")
        code = run_cli("eval", "--model", trained["model"], "--test", test,
                       "--train", train, "--m-grid", "1,2", "--out", tmp_path / "e6")
        assert code == 1
        err = capsys.readouterr().err
        assert f"checkpoint has 15 users but {train} has 25" in err

    def test_multiple_reps_aggregate(self, trained, tmp_path):
        out = tmp_path / "eval5"
        test = trained["split"] / "test.tsv"
        code = run_cli("eval", "--model", trained["model"],
                       "--test", test, test, "--m-grid", "2,4", "--out", out)
        assert code == 0
        lines = (out / "metrics.tsv").read_text().splitlines()
        assert len(lines) == 5  # header + 2 reps + mean + std


class TestPredictCommand:
    def test_top_n_excludes_training_items(self, trained, tmp_path, capsys):
        out = tmp_path / "pred"
        code = run_cli("predict", "--model", trained["model"], "--user", 0,
                       "--top", 5, "--out", out)
        assert code == 0
        lines = (out / "predictions.tsv").read_text().splitlines()[1:]
        items = [int(l.split("\t")[0]) for l in lines]
        train = data.load_ratings(trained["split"] / "train.tsv")
        assert set(items).isdisjoint(int(j) for j in train.items_of(0))
        assert len(items) == 5

    def test_top_n_clamps_to_candidates(self, trained, tmp_path):
        out = tmp_path / "pred2"
        run_cli("predict", "--model", trained["model"], "--user", 0,
                "--top", 10_000, "--out", out)
        lines = (out / "predictions.tsv").read_text().splitlines()[1:]
        train = data.load_ratings(trained["split"] / "train.tsv")
        assert len(lines) == 20 - len(train.items_of(0))

    @pytest.mark.parametrize("tied", [False, True], ids=["trained", "tied"])
    @pytest.mark.parametrize("top", [5, 10_000])
    def test_order_and_scores_match_naive_rank(self, trained, tmp_path, top, tied):
        model = trained["model"]
        factors = mf.load_factors(model / "factors.npz")
        U, V = factors.U, factors.V.copy()
        train = data.load_ratings(trained["split"] / "train.tsv")
        if tied:
            # every even item scores as the best candidate does, so the head
            # of the list is one tie, broken by the lower item id
            V[::2] = V[naive_rank(U, V, train, metrics.EXCLUDE_TRAIN, 0)[0]]
            mf.save_factors(mf.LatentFactors(U, V), model / "factors.npz")
        out = tmp_path / "pred"
        assert run_cli("predict", "--model", model, "--user", 0, "--top", top,
                       "--out", out) == 0
        order = naive_rank(U, V, train, metrics.EXCLUDE_TRAIN, 0)[:top]
        rows = [f"{j}\t{score:.17g}" for j, score in zip(order, V[order] @ U[0])]
        assert (out / "predictions.tsv").read_text().splitlines() == ["item\tscore"] + rows

    def test_cold_start_score_matches_library(self, trained, tmp_path, capsys):
        item_file = tmp_path / "new_item.tsv"
        item_file.write_text("0\t2\n3\t1\n")
        out = tmp_path / "pred3"
        code = run_cli("predict", "--model", trained["model"], "--user", 1,
                       "--item-content", item_file, "--out", out)
        assert code == 0
        line = (out / "predictions.tsv").read_text().splitlines()[1]
        score = float(line.split("\t")[1])
        net, factors = cli._load_model(trained["model"])
        x = np.zeros(8)
        x[0] = 1.0
        x[3] = 1.0
        expected = mf.predict_new_item(factors.U[1], sdae.encode(net, x))
        assert score == expected

    @pytest.mark.parametrize("bad_line", ["x\t1", "99\t1", "2\tnan"])
    def test_bad_item_content_line_rejected(self, trained, tmp_path, capsys, bad_line):
        item_file = tmp_path / "bad_item.tsv"
        item_file.write_text("0\t2\n" + bad_line + "\n")
        code = run_cli("predict", "--model", trained["model"], "--user", 1,
                       "--item-content", item_file, "--out", tmp_path / "pred_bad")
        assert code == 1
        assert f"{item_file}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("items", [12, 25])
    def test_train_item_count_must_match_model(self, trained, tmp_path, capsys, items):
        train = tmp_path / "train.tsv"
        train.write_text(f"# users=15 items={items}\n0\t3\n")
        code = run_cli("predict", "--model", trained["model"], "--user", 0,
                       "--train", train, "--out", tmp_path / "p")
        assert code == 1
        assert f"checkpoint has 20 items but {train} has {items}" in capsys.readouterr().err

    def test_unknown_user_rejected(self, trained, tmp_path, capsys):
        code = run_cli("predict", "--model", trained["model"], "--user", 999,
                       "--out", tmp_path / "pred4")
        assert code == 1
        assert "user" in capsys.readouterr().err


    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_rejected(self, trained, tmp_path, capsys, top):
        code = run_cli("predict", "--model", trained["model"], "--user", 0,
                       "--top", top, "--out", tmp_path / "pred5")
        assert code == 1
        assert "--top" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["not-npz", "pickled", "missing-key"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_damaged_factors_checkpoint_named(trained, tmp_path, capsys, command, damage):
    path = trained["model"] / "factors.npz"
    if damage == "not-npz":
        path.write_text("not an archive\n")
    elif damage == "pickled":
        np.savez(path, U=np.array([None], dtype=object), V=np.zeros((1, 1)))
    else:
        np.savez(path, U=np.zeros((15, 3)))
    if command == "eval":
        argv = ("--test", trained["split"] / "test.tsv")
    else:
        argv = ("--user", 0)
    code = run_cli(command, "--model", trained["model"], *argv, "--out", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    if damage == "missing-key":
        assert "no array 'V'" in err


@pytest.mark.parametrize("command, bad", [
    ("train", "ratings"), ("train", "content"), ("train", "config"),
    ("grid", "config"), ("predict", "train"),
    ("eval", "manifest-not-json"), ("eval", "manifest-list"),
    ("predict", "manifest-not-json"), ("predict", "manifest-list")])
def test_bad_input_named_without_traceback(trained, tmp_path, capsys, command, bad):
    # a non-UTF-8 byte appended to a valid input, or a damaged model manifest
    files = {"ratings": trained["split"] / "train.tsv", "content": trained["content"],
             "config": trained["config"]}
    if bad.startswith("manifest"):
        path = trained["model"] / "manifest.json"
        path.write_text("[]\n" if bad == "manifest-list" else "{not json\n")
    else:
        source = files["ratings" if bad == "train" else bad]
        path = tmp_path / f"not_utf8_{source.name}"
        path.write_bytes(source.read_bytes() + b"\xff\xfe\n")
        files[bad] = path
    inputs = ("--config", files["config"], "--ratings", files["ratings"],
              "--content", files["content"])
    argv = {
        "train": inputs,
        "grid": inputs + ("--folds", 2),
        "eval": ("--model", trained["model"], "--test", trained["split"] / "test.tsv"),
        "predict": ("--model", trained["model"], "--user", 0)
                   + (("--train", path) if bad == "train" else ()),
    }[command]
    code = run_cli(command, *argv, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, where", [
    ("split", "flag"), ("train", "flag"), ("train", "config"),
    ("sample", "flag"), ("sample", "config"), ("grid", "config")])
def test_negative_seed_named_without_traceback(dataset, tmp_path, capsys, command, where):
    # the sampler needs a finite lambda_s, so the seed is the one bad value
    text = dataset["config"].read_text().replace("lambda_s=inf", "lambda_s=100.0")
    if where == "config":
        text = text.replace("\nseed=0\n", "\nseed=-1\n")
    config = tmp_path / "seed_config.txt"
    config.write_text(text)
    inputs = ("--config", config, "--ratings", dataset["ratings"],
              "--content", dataset["content"])
    argv = {"split": ("--ratings", dataset["ratings"], "--P", 1),
            "train": inputs, "sample": inputs, "grid": inputs + ("--folds", 2)}[command]
    if where == "flag":
        argv += ("--seed", -1)
    code = run_cli(command, *argv, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    if where == "flag":
        source = "--seed"
    else:
        source = f"{config}:{text.splitlines().index('seed=-1') + 1}"
    assert f"error: {source}: seed must be non-negative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, key, value, message", [
    ("train", "noise_level", "2.0", "noise_level must lie in [0, 1]"),
    ("grid", "noise_level", "2.0", "noise_level must lie in [0, 1]"),
    ("train", "max_sweeps", "0", "epochs_per_block >= 0 and max_sweeps >= 1 required"),
    ("grid", "lambda_u", "0.5,-1.0", "lambda_u must be positive"),
    ("train", "widths", "8,0,3,0,8", "all layer widths must be positive"),
    ("sample", "widths", "8,-2,3,-2,8", "all layer widths must be positive"),
    ("train", "lambda_u", "inf", "lambda_u must be finite here"),
    ("sample", "lambda_u", "inf", "lambda_u must be finite here"),
    ("train", "conf_a", "inf", "conf_a must be finite here"),
    ("sample", "conf_a", "inf", "conf_a must be finite here"),
    ("sample", "lambda_s", "inf", "the sampler needs a finite lambda_s"),
    ("grid", "lambda_u", "inf", "lambda_u must be finite here"),
    ("train", "lambda_n", "1e308", "lambda_n 1e+308 overflows the reconstruction term"),
    ("sample", "lambda_n", "1e308", "lambda_n 1e+308 overflows the reconstruction term"),
    ("grid", "lambda_n", "1e308", "lambda_n 1e+308 overflows the reconstruction term"),
    ("sample", "conf_a", "1e308", "conf_a 1e+308 overflows the rating term"),
], ids=["train-noise-level", "grid-noise-level", "train-max-sweeps", "grid-point",
        "train-zero-width", "sample-negative-width", "train-lambda-u-inf",
        "sample-lambda-u-inf", "train-conf-a-inf", "sample-conf-a-inf",
        "sample-lambda-s-inf", "grid-lambda-u-inf", "train-lambda-n-overflows",
        "sample-lambda-n-overflows", "grid-lambda-n-overflows", "sample-conf-a-overflows"])
def test_bad_config_value_named_at_its_line(dataset, tmp_path, capsys,
                                            command, key, value, message):
    # the value parses but lies outside its domain, or is one the fit or
    # chain cannot use: the error names its line before --out is made
    text = dataset["config"].read_text()
    if command == "sample":  # the sampler needs a finite lambda_s
        text = text.replace("lambda_s=inf", "lambda_s=100.0")
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key}="))
    lines[lineno - 1] = f"{key}={value}"
    config = tmp_path / "bad_config.txt"
    config.write_text("\n".join(lines) + "\n")
    argv = {"grid": ("--folds", 2), "sample": ("--iters", 4, "--burn-in", 2)}.get(command, ())
    code = run_cli(command, "--config", config, "--ratings", dataset["ratings"],
                   "--content", dataset["content"], *argv, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {config}:{lineno}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, variant", [
    ("train", "mf"), ("train", "cdl"), ("grid", "mf"), ("sample", None)],
    ids=["train-mf", "train-cdl", "grid-mf", "sample"])
def test_huge_n_factors_named_at_its_line(dataset, tmp_path, capsys, command, variant):
    # a factor matrix of 10**12 columns cannot be allocated: the error names
    # n_factors at its config line before --out is made, not a numpy
    # traceback from the baseline's draw, nor, with widths=auto, the content
    # file's largest word id
    text = dataset["config"].read_text()
    assert "widths=auto\n" in text
    if command == "sample":  # the sampler needs a finite lambda_s
        text = text.replace("lambda_s=inf", "lambda_s=100.0")
    lines = text.splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("n_factors="))
    lines[lineno - 1] = "n_factors=1000000000000"
    config = tmp_path / "huge_k.txt"
    config.write_text("\n".join(lines) + "\n")
    argv = {"grid": ("--folds", 2), "sample": ("--iters", 4, "--burn-in", 2)}.get(command, ())
    if variant is not None:
        argv += ("--variant", variant)
    code = run_cli(command, "--config", config, "--ratings", dataset["ratings"],
                   "--content", dataset["content"], *argv, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {config}:{lineno}: n_factors 1000000000000 makes the" in err
    assert "too large to allocate" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_nonfinite_objective_term_names_its_hyperparameter(dataset, tmp_path, capsys):
    # lambda_w=1e308 passes every static check, but its weight-decay term
    # overflows in training: the error names the field, not only the term
    text = dataset["config"].read_text()
    config = tmp_path / "huge_lambda_w.txt"
    config.write_text(text.replace("lambda_w=0.1\n", "lambda_w=1e308\n"))
    assert config.read_text() != text
    code = run_cli("train", "--config", config, "--ratings", dataset["ratings"],
                   "--content", dataset["content"], "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 1
    assert "objective term 'weight_prior' (lambda_w) is non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, line, code", [
    ("train", None, 0), ("train", "lambda_u=inf", 1), ("grid", "lambda_v=inf", 1)],
    ids=["train", "train-lambda-u-inf", "grid-lambda-v-inf"])
def test_config_text_is_read_once(dataset, tmp_path, capsys, monkeypatch, command, line, code):
    # a check that fails is named at its line from the map the run already
    # read; the manifest's digest opens the config in binary, which is not
    # counted
    lines = dataset["config"].read_text().splitlines()
    if line is not None:
        key = line.split("=")[0]
        lines = [line if old.startswith(f"{key}=") else old for old in lines]
    config = tmp_path / "once.txt"
    config.write_text("\n".join(lines) + "\n")
    reads = []
    real_open = open

    def counting_open(file, mode="r", *args, **kwargs):
        if "b" not in mode and str(file) == str(config):
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    argv = ("--folds", 2, "--select-m", 5) if command == "grid" else ()
    assert run_cli(command, "--config", config, "--ratings", dataset["ratings"],
                   "--content", dataset["content"], *argv,
                   "--out", tmp_path / "o") == code, capsys.readouterr().err
    assert len(reads) == 1


# Every flag of every subcommand: option strings, dest, type, nargs,
# default, required and choices, as vars(args) and the manifest's args see them.
_MODES = (data.BINARY_PRESENCE, data.COUNT_MAXNORM)
_VARIANT_CHOICES = ("cdl", "two-step", "encoder-only", "mf")
_PARSER_CONTRACT = {
    "split": [
        (("--ratings",), "ratings", None, None, None, True, None),
        (("--P",), "P", int, None, None, True, None),
        (("--seed",), "seed", int, None, 0, False, None),
        (("--reps",), "reps", int, None, 1, False, None),
        (("--out",), "out", None, None, None, True, None),
    ],
    "train": [
        (("--config",), "config", None, None, None, True, None),
        (("--ratings",), "ratings", None, None, None, True, None),
        (("--content",), "content", None, None, None, False, None),
        (("--content-mode",), "content_mode", None, None, data.BINARY_PRESENCE, False, _MODES),
        (("--variant",), "variant", None, None, "cdl", False, _VARIANT_CHOICES),
        (("--seed",), "seed", int, None, None, False, None),
        (("--out",), "out", None, None, None, True, None),
    ],
    "eval": [
        (("--model",), "model", None, "+", None, True, None),
        (("--test",), "test", None, "+", None, True, None),
        (("--train",), "train", None, "+", None, False, None),
        (("--M-grid", "--m-grid"), "m_grid", None, None, "50:300:50", False, None),
        (("--all-items",), "all_items", None, 0, False, False, None),
        (("--out",), "out", None, None, None, True, None),
    ],
    "predict": [
        (("--model",), "model", None, None, None, True, None),
        (("--user",), "user", int, None, None, True, None),
        (("--top",), "top", int, None, 10, False, None),
        (("--item-content",), "item_content", None, None, None, False, None),
        (("--content-mode",), "content_mode", None, None, data.BINARY_PRESENCE, False, _MODES),
        (("--train",), "train", None, None, None, False, None),
        (("--out",), "out", None, None, None, True, None),
    ],
    "sample": [
        (("--config",), "config", None, None, None, True, None),
        (("--ratings",), "ratings", None, None, None, True, None),
        (("--content",), "content", None, None, None, True, None),
        (("--content-mode",), "content_mode", None, None, data.BINARY_PRESENCE, False, _MODES),
        (("--iters",), "iters", int, None, 500, False, None),
        (("--burn-in",), "burn_in", int, None, 250, False, None),
        (("--thin",), "thin", int, None, 1, False, None),
        (("--seed",), "seed", int, None, None, False, None),
        (("--out",), "out", None, None, None, True, None),
    ],
    "grid": [
        (("--config",), "config", None, None, None, True, None),
        (("--ratings",), "ratings", None, None, None, True, None),
        (("--content",), "content", None, None, None, True, None),
        (("--content-mode",), "content_mode", None, None, data.BINARY_PRESENCE, False, _MODES),
        (("--variant",), "variant", None, None, "cdl", False, _VARIANT_CHOICES),
        (("--folds",), "folds", int, None, 5, False, None),
        (("--select-m",), "select_m", int, None, 300, False, None),
        (("--threads",), "threads", int, None, 1, False, None),
        (("--out",), "out", None, None, None, True, None),
    ],
}


def test_parser_flags_match_the_contract():
    commands = next(action for action in cli.build_parser()._actions
                    if action.dest == "command").choices
    assert sorted(commands) == sorted(_PARSER_CONTRACT)
    for name, parser in commands.items():
        flags = sorted(
            (tuple(a.option_strings), a.dest, a.type, a.nargs, a.default, a.required,
             None if a.choices is None else tuple(a.choices))
            for a in parser._actions if a.dest != "help")
        assert flags == sorted(_PARSER_CONTRACT[name], key=lambda flag: flag[0]), name


@pytest.mark.parametrize("command", ["train", "sample", "grid"])
@pytest.mark.parametrize("extra_word", [None, 12], ids=["words-below-width", "word-12"])
def test_config_widths_size_the_content_vocabulary(dataset, tmp_path, capsys,
                                                   command, extra_word):
    # the content uses at most words 0-7; widths=12,3,12 make its vocabulary
    # 12 words, so it loads, and a word id of 12 is named at its line
    text = dataset["config"].read_text().replace("widths=auto", "widths=12,3,12")
    if command == "sample":
        text = text.replace("lambda_s=inf", "lambda_s=100.0")
    config = tmp_path / "widths12.txt"
    config.write_text(text)
    content = tmp_path / "content.tsv"
    lines = dataset["content"].read_text().splitlines()
    if extra_word is not None:
        lines.append(f"0\t{extra_word}\t1")
    content.write_text("\n".join(lines) + "\n")
    argv = {"train": (), "sample": ("--iters", 4, "--burn-in", 2),
            "grid": ("--folds", 2, "--select-m", 5)}[command]
    code = run_cli(command, "--config", config, "--ratings", dataset["ratings"],
                   "--content", content, *argv, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    if extra_word is None:
        assert code == 0, err
    else:
        assert code == 1
        assert f"{content}:{len(lines)}: word id 12 outside vocabulary of size 12" in err


# Lines of small ratings files: pairs (a line drawn twice is a duplicate),
# blank and tab-only lines, comments, headers, and negative and 10**12 ids.
_RATINGS_LINES = ["0\t1", "1\t0", "1\t2", "2\t2", "", " ", "\t", " \t ", "#", "# x",
                  "# users=3 items=3", "# users=2 items=2", "-1\t0", "0\t-1",
                  "1000000000000\t1", "0\t1000000000000"]
_ratings_texts = st.lists(st.sampled_from(_RATINGS_LINES), max_size=6).map(
    lambda lines: "".join(line + "\n" for line in lines))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ratings=_ratings_texts, test=_ratings_texts)
@example(ratings="0\t1\n\t\n0\t1\n", test="1\t0\n")
def test_commands_on_small_ratings_files_exit_without_traceback(dataset, tmp_path, ratings,
                                                                test):
    # split, train --variant mf, eval and predict each return 0 or 1 and
    # raise nothing; eval and predict use the model trained on the drawn
    # ratings, or one trained on the fixture's when that training fails
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "r.tsv").write_text(ratings)
    (work / "t.tsv").write_text(test)
    codes = [run_cli("split", "--ratings", work / "r.tsv", "--P", 1, "--out", work / "s"),
             run_cli("train", "--variant", "mf", "--config", dataset["config"],
                     "--ratings", work / "r.tsv", "--out", work / "m")]
    if codes[-1] != 0:
        assert run_cli("train", "--variant", "mf", "--config", dataset["config"],
                       "--ratings", dataset["ratings"], "--out", work / "m") == 0
    codes += [run_cli("eval", "--model", work / "m", "--test", work / "t.tsv",
                      "--train", work / "r.tsv", "--out", work / "e"),
              run_cli("predict", "--model", work / "m", "--user", 0,
                      "--train", work / "r.tsv", "--out", work / "p")]
    assert set(codes) <= {0, 1}


# Config lines for `cdl sample`: the fixture's vocabulary has 8 words and
# n_factors=3, so widths 5,3,5 is too narrow for it, 12,3,12 wide enough,
# and 8,2,8 and 8,3 are malformed; the other values lie outside their field's
# domain, or on its edge.
_SAMPLE_CONFIG_LINES = [
    "lambda_s=inf", "lambda_s=nan", "lambda_s=-1", "lambda_s=1e-300",
    "widths=5,3,5", "widths=12,3,12", "widths=8,2,8", "widths=8,3", "widths=8,4,3,4,8",
    "noise_level=2.0", "noise_level=1.0", "n_factors=0", "lambda_w=0", "lambda_u=inf",
    "lambda_v=inf", "conf_b=2.0", "conf_a=inf", "dropout_rate=1.0", "seed=-1",
]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.sampled_from(_SAMPLE_CONFIG_LINES), max_size=3),
       chain=st.one_of(st.tuples(st.integers(3, 6), st.integers(0, 2), st.integers(1, 3)),
                       st.tuples(st.integers(-1, 6), st.integers(-2, 4), st.integers(-1, 3))))
@example(lines=["lambda_s=inf"], chain=(4, 2, 1))
@example(lines=["widths=5,3,5"], chain=(4, 2, 1))
@example(lines=["noise_level=2.0"], chain=(4, 2, 1))
@example(lines=[], chain=(2, 2, 0))
@example(lines=[], chain=(6, 0, 5))
def test_sample_on_bad_config_values_and_chain_lengths_exits_without_traceback(
        dataset, tmp_path, capsys, lines, chain):
    # each drawn line replaces its key's line in a config the sampler can
    # run (lambda_s=100), and half the chains are valid (iters, burn-in,
    # thin); the command returns 0, or 1 with an error line
    config = {line.split("=")[0]: line
              for line in dataset["config"].read_text().splitlines()}
    config["lambda_s"] = "lambda_s=100.0"
    config.update((line.split("=")[0], line) for line in lines)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "config.txt").write_text("\n".join(config.values()) + "\n")
    capsys.readouterr()
    code = run_cli("sample", "--config", work / "config.txt", "--ratings", dataset["ratings"],
                   "--content", dataset["content"], "--iters", chain[0],
                   "--burn-in", chain[1], "--thin", chain[2], "--out", work / "o")
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("error: ") for line in err.splitlines()), err


class TestSampleCommand:
    @pytest.mark.parametrize("iters, burn_in, thin, flag", [
        (30, 15, 0, "--thin must be at least 1"),
        (15, 15, 1, "--iters 15 must exceed --burn-in 15"),
        (4, -1, 1, "--burn-in must be non-negative, got -1"),
        (0, -1, 1, "--burn-in must be non-negative, got -1"),
    ])
    def test_bad_chain_lengths_rejected_up_front(self, tmp_path, capsys,
                                                 iters, burn_in, thin, flag):
        # the input files need not exist: flags are checked first
        code = run_cli("sample", "--config", tmp_path / "c", "--ratings", tmp_path / "r",
                       "--content", tmp_path / "x", "--iters", iters,
                       "--burn-in", burn_in, "--thin", thin, "--out", tmp_path / "o")
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_chain_outputs(self, dataset, tmp_path):
        config = tmp_path / "chain_config.txt"
        text = dataset["config"].read_text().replace("lambda_s=inf", "lambda_s=100.0")
        config.write_text(text)
        out = tmp_path / "chain"
        code = run_cli("sample", "--config", config, "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--iters", 30,
                       "--burn-in", 15, "--thin", 3, "--out", out)
        assert code == 0
        summary = json.loads((out / "chain_summary.json").read_text())
        assert set(summary["acceptance"]) == {"w1", "w2", "x1", "x2"}
        assert (out / "chain.tsv").exists()
        assert (out / "manifest.json").exists()


class TestGridCommand:
    def test_2x2_grid_runs_and_sorts(self, dataset, tmp_path):
        text = dataset["config"].read_text()
        text = text.replace("lambda_u=1.0", "lambda_u=0.5,2.0")
        text = text.replace("lambda_v=10.0", "lambda_v=5.0,20.0")
        text = text.replace("max_sweeps=3", "max_sweeps=1")
        config = tmp_path / "grid_config.txt"
        config.write_text(text)
        out = tmp_path / "grid"
        code = run_cli("grid", "--config", config, "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--folds", 5,
                       "--select-m", 5, "--out", out)
        assert code == 0
        runs = (out / "grid_runs.tsv").read_text().splitlines()
        assert len(runs) == 1 + 4 * 5
        results = (out / "grid_results.tsv").read_text().splitlines()
        values = [float(line.split("\t")[-1]) for line in results[1:]]
        assert values == sorted(values, reverse=True)
        best = training.load_config(out / "best_config.txt")
        assert best.lambda_u in (0.5, 2.0) and best.lambda_v in (5.0, 20.0)

    def test_single_point_grid_matches_train_eval(self, dataset, tmp_path):
        config = tmp_path / "single.txt"
        config.write_text(dataset["config"].read_text())
        out = tmp_path / "grid1"
        code = run_cli("grid", "--config", config, "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--folds", 3,
                       "--select-m", 5, "--out", out)
        assert code == 0
        runs = (out / "grid_runs.tsv").read_text().splitlines()
        assert len(runs) == 1 + 1 * 3
        best = training.load_config(out / "best_config.txt")
        loaded = training.load_config(dataset["config"])
        assert best.lambda_u == loaded.lambda_u
        assert best.lambda_v == loaded.lambda_v

    def test_threads_give_same_results(self, dataset, tmp_path):
        text = dataset["config"].read_text().replace("lambda_u=1.0", "lambda_u=0.5,2.0")
        text = text.replace("max_sweeps=3", "max_sweeps=1")
        config = tmp_path / "par.txt"
        config.write_text(text)
        outs = []
        for threads, name in ((1, "g1"), (4, "g4")):
            out = tmp_path / name
            run_cli("grid", "--config", config, "--ratings", dataset["ratings"],
                    "--content", dataset["content"], "--folds", 2,
                    "--select-m", 5, "--threads", threads, "--out", out)
            outs.append((out / "grid_runs.tsv").read_text())
        assert outs[0] == outs[1]

    def test_fold_scores_equal_rank_then_recall_at_m(self, dataset, tmp_path, monkeypatch):
        # each fold's score is read from held-out positions; it must be the
        # value rank + recall_at_m give for the same model and fold, bit for
        # bit, so the table is the bytes those values format to
        text = dataset["config"].read_text().replace("lambda_u=1.0", "lambda_u=0.5,2.0")
        config = tmp_path / "pinned.txt"
        config.write_text(text.replace("max_sweeps=3", "max_sweeps=1"))
        real, expected = metrics.evaluate_run, []

        def evaluate_run(factors, train, held, m_grid, **kwargs):
            value = real(factors, train, held, m_grid, **kwargs)[f"recall@{m_grid[0]}"]
            ranked = metrics.rank(factors.U, factors.V, train, limit=m_grid[0])
            _, mean = metrics.recall_at_m(ranked, held, m_grid[0])
            assert value.hex() == mean.hex()
            expected.append(format(mean, ".10g"))
            return {f"recall@{m_grid[0]}": value}

        monkeypatch.setattr(metrics, "evaluate_run", evaluate_run)
        out = tmp_path / "pinned"
        assert run_cli("grid", "--config", config, "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--folds", 3,
                       "--select-m", 5, "--out", out) == 0
        runs = (out / "grid_runs.tsv").read_text().splitlines()
        assert len(expected) == 2 * 3
        assert [line.split("\t")[-1] for line in runs[1:]] == expected


    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_rejected(self, dataset, tmp_path, capsys, folds):
        code = run_cli("grid", "--config", dataset["config"],
                       "--ratings", dataset["ratings"], "--content", dataset["content"],
                       "--folds", folds, "--out", tmp_path / "grid0")
        assert code == 1
        assert "--folds" in capsys.readouterr().err


    @pytest.mark.parametrize("line", ["lambda_w=0.5", "lambda_u=0.5,2.0"])
    def test_duplicate_key_names_file_and_line(self, dataset, tmp_path, capsys, line):
        text = dataset["config"].read_text()
        config = tmp_path / "dup.txt"
        config.write_text(text + line + "\n")
        code = run_cli("grid", "--config", config, "--ratings", dataset["ratings"],
                       "--content", dataset["content"], "--folds", 2,
                       "--out", tmp_path / "grid_dup")
        assert code == 1
        key = line.split("=")[0]
        lineno = len(text.splitlines()) + 1
        assert f"{config}:{lineno}: duplicate key {key!r}" in capsys.readouterr().err

    def test_select_m_below_one_rejected_before_training(self, dataset, tmp_path, capsys):
        out = tmp_path / "grid_m0"
        code = run_cli("grid", "--config", dataset["config"],
                       "--ratings", dataset["ratings"], "--content", dataset["content"],
                       "--folds", 3, "--select-m", 0, "--out", out)
        assert code == 1
        assert "--select-m" in capsys.readouterr().err
        assert not out.exists()


def _round_robin_folds_loop(ratings, n_folds, seed):
    """The per-pair loop cli._round_robin_folds had, kept as its reference."""
    rng = np.random.default_rng(seed)
    fold_pairs = [[] for _ in range(n_folds)]
    for user in range(ratings.num_users):
        items = np.array(ratings.items_of(user))
        rng.shuffle(items)
        for k in range(n_folds):
            for item in items[k::n_folds]:
                fold_pairs[k].append((user, item))
    return [(data.RatingsMatrix(ratings.num_users, ratings.num_items,
                                [p for kk in range(n_folds) if kk != k for p in fold_pairs[kk]]),
             data.RatingsMatrix(ratings.num_users, ratings.num_items, fold_pairs[k]))
            for k in range(n_folds)]


@pytest.mark.parametrize("n_folds", [2, 3, 5])
def test_round_robin_folds_match_the_pair_loop(n_folds):
    hyper = HyperParams(n_factors=3)
    for seed in range(5):
        # over these seeds: users with no, one and up to 30 items
        ratings, *_ = data.generate_synthetic(25, 30, 6, 3, hyper, seed=seed)
        for got, want in zip(cli._round_robin_folds(ratings, n_folds, seed),
                             _round_robin_folds_loop(ratings, n_folds, seed), strict=True):
            for a, b in zip(got, want):
                assert (a.num_users, a.num_items) == (b.num_users, b.num_items)
                assert np.array_equal(a.pairs, b.pairs)


class TestManifest:
    def test_every_command_writes_manifest(self, trained, tmp_path):
        for sub in (trained["model"],):
            manifest = json.loads((sub / "manifest.json").read_text())
            assert manifest["command"] == "train"
            assert manifest["seed"] is not None
            assert manifest["version"].startswith("cdl ")
            assert manifest["inputs"]
            for digest in manifest["inputs"].values():
                assert len(digest) == 64

    def test_train_and_eval_record_wall_time_and_peak_rss(self, trained, tmp_path):
        out = tmp_path / "eval"
        assert run_cli("eval", "--model", trained["model"], "--test",
                       trained["split"] / "test.tsv", "--m-grid", "2:10:2", "--out", out) == 0
        for sub in (trained["model"], out):
            manifest = json.loads((sub / "manifest.json").read_text())
            for key in ("wall_seconds", "peak_rss_mb"):
                assert isinstance(manifest[key], float), key
                assert math.isfinite(manifest[key]) and manifest[key] > 0, key
            assert "started" not in manifest["args"]


class TestOutputsAreNewFiles:
    """Every artifact is written as a new file: one at the output path is
    removed first, never truncated in place."""

    @staticmethod
    def _train_and_eval(trained, out, seed=None):
        seeded = () if seed is None else ("--seed", seed)
        assert run_cli("train", "--variant", "mf", "--config", trained["config"],
                       "--ratings", trained["split"] / "train.tsv", *seeded,
                       "--out", out) == 0
        assert run_cli("eval", "--model", out, "--test", trained["split"] / "test.tsv",
                       "--m-grid", "2:10:2", "--out", out) == 0

    @staticmethod
    def _snapshot(out):
        names = ("factors.npz", "report.tsv", "config.txt", "metrics.tsv")
        files = {name: (out / name).read_bytes() for name in names}
        # the seconds column of report.tsv is a wall time
        seconds = training.REPORT_COLUMNS.index("seconds")
        files["report.tsv"] = [line.split(b"\t")[:seconds] + line.split(b"\t")[seconds + 1:]
                               for line in files["report.tsv"].splitlines()]
        return files

    def test_rerun_into_the_same_out_gives_the_same_bytes(self, trained, tmp_path):
        out = tmp_path / "run"
        self._train_and_eval(trained, out)
        first = self._snapshot(out)
        self._train_and_eval(trained, out)
        assert self._snapshot(out) == first

    def test_links_to_old_artifacts_keep_the_old_bytes(self, trained, tmp_path):
        out = tmp_path / "run"
        self._train_and_eval(trained, out, seed=1)
        names = ["factors.npz", "report.tsv", "config.txt", "metrics.tsv", "manifest.json"]
        old = {name: (out / name).read_bytes() for name in names}
        (tmp_path / "links").mkdir()
        for name in names:
            os.link(out / name, tmp_path / "links" / name)
        self._train_and_eval(trained, out, seed=2)
        for name in names:
            assert (tmp_path / "links" / name).read_bytes() == old[name], name
        assert (out / "factors.npz").read_bytes() != old["factors.npz"]

    @pytest.mark.parametrize("command", ["split", "train", "eval", "predict", "sample",
                                         "grid"])
    def test_rerun_replaces_every_output_file(self, trained, tmp_path, command):
        # a file rewritten in place keeps its inode, so each output must be
        # a new file, while its hard link to the first run's file survives
        sample_config = tmp_path / "chain_config.txt"
        sample_config.write_text(trained["config"].read_text().replace("lambda_s=inf",
                                                                       "lambda_s=100.0"))
        inputs = ("--ratings", trained["split"] / "train.tsv", "--content", trained["content"])
        argv = {
            "split": ("--ratings", trained["ratings"], "--P", 2, "--reps", 2),
            "train": ("--config", trained["config"]) + inputs,
            "eval": ("--model", trained["model"], "--test", trained["split"] / "test.tsv"),
            "predict": ("--model", trained["model"], "--user", 0),
            "sample": ("--config", sample_config, *inputs, "--iters", 4, "--burn-in", 2),
            "grid": ("--config", trained["config"], *inputs, "--folds", 2, "--select-m", 5),
        }[command]
        out, links = tmp_path / "run", tmp_path / "links"
        assert run_cli(command, *argv, "--out", out) == 0
        first = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        for rel in first:
            (links / rel).parent.mkdir(parents=True, exist_ok=True)
            os.link(out / rel, links / rel)
        assert run_cli(command, *argv, "--out", out) == 0
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == first
        for rel in first:
            assert not (out / rel).samefile(links / rel), rel

    @pytest.mark.parametrize("command, name", [("train", "config.txt"),
                                               ("train", "factors.npz"),
                                               ("eval", "metrics.tsv")])
    def test_directory_at_an_output_path_named_without_traceback(self, trained, tmp_path,
                                                                 capsys, command, name):
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        argv = {"train": ("--variant", "mf", "--config", trained["config"],
                          "--ratings", trained["split"] / "train.tsv"),
                "eval": ("--model", trained["model"],
                         "--test", trained["split"] / "test.tsv")}[command]
        code = run_cli(command, *argv, "--out", out)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and str(out / name) in err
        assert "Traceback" not in err
        assert (out / name).is_dir()


@pytest.mark.parametrize("table", ["report.tsv", "chain.tsv", "conjugate-only chain.tsv",
                                   "metrics.tsv", "predictions.tsv", "grid_runs.tsv",
                                   "grid_results.tsv"])
def test_every_table_header_has_as_many_fields_as_each_row(trained, tmp_path, table):
    # a conjugate-only chain has no accept columns, so its header may not
    # hold an empty one
    out = tmp_path / "run"
    chain_config = tmp_path / "chain_config.txt"
    chain_config.write_text(trained["config"].read_text().replace("lambda_s=inf",
                                                                  "lambda_s=100.0"))
    grid_config = tmp_path / "grid_config.txt"
    grid_config.write_text(trained["config"].read_text().replace("lambda_u=1.0",
                                                                 "lambda_u=0.5,2.0"))
    inputs = ("--ratings", trained["ratings"], "--content", trained["content"])
    path = out / table
    if table == "report.tsv":
        path = trained["model"] / table
    elif table == "chain.tsv":
        assert run_cli("sample", "--config", chain_config, *inputs, "--iters", 6,
                       "--burn-in", 2, "--out", out) == 0
    elif table == "conjugate-only chain.tsv":
        ratings = data.load_ratings(trained["ratings"])
        summary = sampling.run_chain(
            ratings, data.load_content(trained["content"], num_items=ratings.num_items),
            training.load_config(chain_config), iters=6, burn_in=2, blocks=("u", "v"))
        out.mkdir()
        path = out / "chain.tsv"
        summary.write_tsv(path)
    elif table == "metrics.tsv":
        assert run_cli("eval", "--model", trained["model"], "--test",
                       trained["split"] / "test.tsv", "--m-grid", "2:10:2",
                       "--out", out) == 0
    elif table == "predictions.tsv":
        assert run_cli("predict", "--model", trained["model"], "--user", 0,
                       "--out", out) == 0
    else:
        assert run_cli("grid", "--config", grid_config, *inputs, "--variant", "mf",
                       "--folds", 2, "--select-m", 5, "--out", out) == 0
    header, *rows = path.read_text().splitlines()
    assert rows
    for row in rows:
        assert len(row.split("\t")) == len(header.split("\t")), (header, row)


class TestVersion:
    def test_eval_runs_git_describe_once(self, trained, tmp_path, monkeypatch):
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cli.subprocess, "run", counting_run)
        assert run_cli("eval", "--model", trained["model"],
                       "--test", trained["split"] / "test.tsv",
                       "--m-grid", "2:10:2", "--out", tmp_path / "eval") == 0
        assert len(calls) == 1  # the manifest's version

    def test_version_flag_prints_version_and_description(self, monkeypatch, capsys):
        def described(argv, **kwargs):
            assert argv[:2] == ["git", "describe"]
            return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")

        monkeypatch.setattr(cli.subprocess, "run", described)
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"cdl {cli.__version__} (abc1234)\n"

    def test_manifest_args_hold_no_version_key(self, trained):
        manifest = json.loads((trained["model"] / "manifest.json").read_text())
        assert "version" not in manifest["args"]


def test_damaged_network_read_only_for_cold_start(trained, tmp_path, capsys):
    net_path = trained["model"] / "network.npz"
    assert net_path.is_file()
    argv = ("--test", trained["split"] / "test.tsv", "--m-grid", "2:10:2")
    assert run_cli("eval", "--model", trained["model"], *argv, "--out", tmp_path / "sound") == 0
    net_path.write_text("not an archive\n")
    assert run_cli("eval", "--model", trained["model"], *argv, "--out", tmp_path / "damaged") == 0
    assert ((tmp_path / "damaged" / "metrics.tsv").read_bytes()
            == (tmp_path / "sound" / "metrics.tsv").read_bytes())
    assert run_cli("predict", "--model", trained["model"], "--user", 0,
                   "--out", tmp_path / "ranked") == 0
    capsys.readouterr()
    item_file = tmp_path / "new_item.tsv"
    item_file.write_text("0\t2\n")
    code = run_cli("predict", "--model", trained["model"], "--user", 1,
                   "--item-content", item_file, "--out", tmp_path / "cold")
    assert code == 1
    assert f"error: {net_path}: " in capsys.readouterr().err


@pytest.mark.parametrize("fault, message", [
    ("zero-width", "all layer widths must be positive"),
    ("mismatched", "layer 2: input width does not match layer 1")],
    ids=["zero-width", "mismatched"])
def test_rejected_network_checkpoint_named(trained, tmp_path, capsys, fault, message):
    # the archive reads, but the network it holds is rejected
    net_path = trained["model"] / "network.npz"
    hidden = 0 if fault == "zero-width" else 2
    np.savez(net_path, widths=np.array([4, hidden, 4]),
             weight_1=np.zeros((4, hidden)), bias_1=np.zeros(hidden),
             weight_2=np.zeros((hidden if fault == "zero-width" else 3, 4)),
             bias_2=np.zeros(4))
    item_file = tmp_path / "new_item.tsv"
    item_file.write_text("0\t2\n")
    code = run_cli("predict", "--model", trained["model"], "--user", 1,
                   "--item-content", item_file, "--out", tmp_path / "cold")
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {net_path}: {message}" in err
    assert "Traceback" not in err


def test_non_finite_factors_checkpoint_named(trained, tmp_path, capsys):
    path = trained["model"] / "factors.npz"
    factors = mf.load_factors(path)
    factors.U[0, 0] = np.nan
    np.savez(path, U=factors.U, V=factors.V)
    code = run_cli("eval", "--model", trained["model"], "--test",
                   trained["split"] / "test.tsv", "--out", tmp_path / "o")
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {path}: non-finite latent factor" in err
    assert "Traceback" not in err


# peak RSS of `cdl train --variant cdl` at citeulike-a's shape (5551 users,
# 16980 items, an 8000-word vocabulary, widths 8000-200-50-200-8000); the
# README quotes this bound
FULL_SHAPE_RSS_BOUND_MB = 560
REPO = Path(__file__).resolve().parent.parent


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  REPO / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def train_peak_rss_mb(src, workdir, num_items, seed=3):
    """Peak RSS in MB of one `cdl train --variant cdl` run (1 sweep, 1 epoch)
    on citeulike-a-shaped inputs with ``num_items`` items, imported from
    ``src``.  The child reports its own ru_maxrss, so earlier children and
    this process do not count."""
    workdir = Path(workdir)
    gen = _perfbench_gen()
    shape = dict(gen.CITEULIKE_SHAPE, num_items=num_items)
    ratings, content = gen.citeulike_like(seed, **shape)
    data.save_ratings(ratings, workdir / "ratings.tsv")
    coo = content.matrix.tocoo()
    with open(workdir / "content.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{w}\t1\n" for i, w in zip(coo.row.tolist(), coo.col.tolist()))
    del ratings, content, coo
    hyper = HyperParams(lambda_u=0.01, lambda_v=10.0, lambda_n=1000.0, lambda_w=1e-4,
                        n_factors=50, widths=(8000, 200, 50, 200, 8000),
                        learning_rate=1e-4, max_sweeps=1, epochs_per_block=1, seed=seed)
    (workdir / "config.txt").write_text(training.config_text(hyper), encoding="utf-8")
    child = ("import resource, sys\n"
             "from cdl import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", child, "train", "--variant", "cdl",
         "--config", str(workdir / "config.txt"), "--ratings", str(workdir / "ratings.tsv"),
         "--content", str(workdir / "content.tsv"), "--out", str(workdir / "model")],
        env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024


@pytest.mark.slow
def test_full_shape_cdl_train_peak_rss_is_bounded(tmp_path):
    gen = _perfbench_gen()
    peak = train_peak_rss_mb(REPO / "src", tmp_path, gen.CITEULIKE_SHAPE["num_items"])
    assert peak < FULL_SHAPE_RSS_BOUND_MB
    factors = mf.load_factors(tmp_path / "model" / "factors.npz")
    assert np.isfinite(factors.V).all()
