import logging
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdl import data, factors as mf, sampling, sdae, training
from cdl.exceptions import (ArgumentError, ConfigError, NumericError, ParseError, ShapeError,
                            TrainingError)
from cdl.factors import ConfidenceParams
from cdl.training import HyperParams


def tiny_hyper(**kw):
    base = dict(lambda_u=1.0, lambda_v=10.0, lambda_n=50.0, lambda_w=0.1,
                conf_a=1.0, conf_b=0.01, n_factors=3, noise_level=0.3,
                dropout_rate=0.0, learning_rate=0.002, momentum=0.5,
                epochs_per_block=2, max_sweeps=5, early_stop_tol=0.0, seed=0)
    base.update(kw)
    return HyperParams(**base)


def tiny_dataset(seed=3, num_users=20, num_items=30, vocab=12, k=3):
    hyper = tiny_hyper(n_factors=k)
    ratings, content, *_ = data.generate_synthetic(
        num_users, num_items, vocab, k, hyper, seed=seed)
    return ratings, content


def random_dataset(seed, num_users=15, num_items=25, vocab=10, density=0.5):
    rng = np.random.default_rng(seed)
    mask = rng.random((num_users, num_items)) < 0.25
    ratings = data.RatingsMatrix(num_users, num_items, np.argwhere(mask))
    dense = rng.random((num_items, vocab)) * (rng.random((num_items, vocab)) < density)
    content = data.ContentMatrix(dense, data.RAW)
    return ratings, content


class TestObjective:
    def test_closed_form_all_zero_no_ratings(self):
        # widths [2,1,2], all parameters zero, empty ratings, zero content:
        # every activation is 0.5, so the value is
        # -(lambda_v/2) J*K*0.25 - (lambda_n/2) J*S*0.25
        J, S, K = 4, 2, 1
        net = sdae.SdaeNetwork([np.zeros((2, 1)), np.zeros((1, 2))],
                               [np.zeros(1), np.zeros(2)])
        ratings = data.RatingsMatrix(3, J, np.empty((0, 2)))
        content = data.ContentMatrix(np.zeros((J, S)), data.RAW)
        lam_v, lam_n = 1.7, 0.9
        prior, rec_ss = sdae.coupling_residuals(net, content, content)
        total, terms = training.objective(
            ratings, np.zeros((3, K)), np.zeros((J, K)), ConfidenceParams(1, 0.01),
            lambda_u=2.0, lambda_v=lam_v, lambda_n=lam_n, lambda_w=3.0,
            net=net, prior=prior, rec_ss=rec_ss)
        expected = -(lam_v / 2) * J * K * 0.25 - (lam_n / 2) * J * S * 0.25
        np.testing.assert_allclose(total, expected, rtol=1e-12)
        assert terms["user_prior"] == 0.0 and terms["weight_prior"] == 0.0

    def test_empty_ratings_rating_term_only(self):
        ratings = data.RatingsMatrix(0, 0, np.empty((0, 2)))
        terms = training.objective_terms(
            ratings, np.zeros((0, 2)), np.zeros((0, 2)), ConfidenceParams(1, 0.01),
            lambda_u=0.0, lambda_v=0.0, lambda_n=0.0, lambda_w=0.0)
        assert sum(terms.values()) == 0.0

    def test_breakdown_sums_to_total(self):
        ratings, content = tiny_dataset(seed=5)
        hyper = tiny_hyper()
        net, factors, _ = training.fit(ratings, content, hyper)
        x0 = data.corrupt(content, 0.3, 99)
        total, terms = training.objective(
            ratings, factors.U, factors.V, hyper.confidence(),
            hyper.lambda_u, hyper.lambda_v, hyper.lambda_n, hyper.lambda_w,
            net, *sdae.coupling_residuals(net, x0, content))
        np.testing.assert_allclose(total, sum(terms.values()), rtol=1e-12)
        assert set(terms) == {"user_prior", "weight_prior", "item_offset",
                              "reconstruction", "rating"}

    def test_nonfinite_names_term(self):
        ratings = data.RatingsMatrix(1, 1, [[0, 0]])
        U = np.array([[np.inf]])
        with pytest.raises(NumericError, match="user_prior"):
            training.objective(ratings, U, np.ones((1, 1)),
                               ConfidenceParams(1, 0.01), 1.0, 1.0, 0.0, 1.0,
                               prior=np.zeros((1, 1)))


class TestFit:
    def test_pure_sweeps_monotone(self):
        # learning_rate 0 and epochs 0: exact block ascent on a fixed
        # objective never decreases it
        ratings, content = random_dataset(seed=1)
        hyper = tiny_hyper(learning_rate=0.0, epochs_per_block=0, max_sweeps=10)
        _, _, report = training.fit(ratings, content, hyper)
        totals = report.totals()
        assert len(totals) == 11
        diffs = np.diff(totals)
        assert np.all(diffs >= -1e-9 * (1.0 + np.abs(totals[:-1])))

    def test_final_objective_beats_initial_on_synthetic(self):
        hyper = tiny_hyper(n_factors=5, max_sweeps=8)
        ratings, content, *_ = data.generate_synthetic(50, 80, 40, 5, hyper, seed=7)
        _, _, report = training.fit(ratings, content, hyper)
        assert report.rows[-1].total > report.rows[0].total

    def test_deterministic_per_seed(self):
        ratings, content = tiny_dataset(seed=9)
        hyper = tiny_hyper(max_sweeps=3)
        _, fa, ra = training.fit(ratings, content, hyper)
        _, fb, rb = training.fit(ratings, content, hyper)
        np.testing.assert_array_equal(fa.U, fb.U)
        np.testing.assert_array_equal(fa.V, fb.V)
        for x, y in zip(ra.rows, rb.rows):
            assert x.total == y.total and x.sweep == y.sweep

    def test_one_small_epoch_does_not_decrease_objective(self):
        # fixed corruption, no dropout, tiny step: a single gradient epoch
        # cannot lower the objective
        ratings, content = tiny_dataset(seed=11)
        hyper = tiny_hyper()
        net = sdae.init_network(hyper.network_widths(content.vocab_size), 5,
                                hyper.lambda_w)
        x0 = data.corrupt(content, hyper.noise_level, 17)
        V = sdae.encode(net, x0)
        U = mf.sweep_users(V, ratings, hyper.confidence(), hyper.lambda_u)
        conf = hyper.confidence()

        def objective_now():
            total, _ = training.objective(
                ratings, U, V, conf, hyper.lambda_u, hyper.lambda_v, hyper.lambda_n,
                hyper.lambda_w, net, *sdae.coupling_residuals(net, x0, content))
            return total

        before = objective_now()
        gw, gb = sdae.gradients(net, x0, content, V, hyper.lambda_v,
                                hyper.lambda_n, hyper.lambda_w)
        flat = np.concatenate([g.ravel() for g in gw + gb])
        eta = 1e-7 / max(np.abs(flat).max(), 1.0)
        for l in range(net.num_layers):
            net.weights[l] += eta * gw[l]
            net.biases[l] += eta * gb[l]
        assert objective_now() >= before

    @pytest.mark.parametrize("fit_fn", [training.fit, training.fit_encoder_only,
                                        training.fit_two_step],
                             ids=["fit", "fit_encoder_only", "fit_two_step"])
    def test_divergence_raises_with_checkpoint(self, fit_fn):
        ratings, content = tiny_dataset(seed=13)
        hyper = tiny_hyper(learning_rate=1e200, momentum=0.0, epochs_per_block=1,
                           max_sweeps=3)
        with pytest.raises(TrainingError) as err:
            fit_fn(ratings, content, hyper)
        checkpoint = err.value.checkpoint
        assert checkpoint is not None
        assert np.isfinite(checkpoint["factors"].U).all()
        assert all(np.isfinite(w).all() for w in checkpoint["net"].weights)

    @pytest.mark.parametrize("fit_fn, rows", [
        (training.fit, 4), (training.fit_encoder_only, 4), (training.fit_two_step, 7),
    ], ids=["fit", "fit_encoder_only", "fit_two_step"])
    def test_divergence_recovery_by_halving(self, monkeypatch, caplog, fit_fn, rows):
        # force two failing epochs, then let training proceed: the policy
        # must restore the pre-sweep state, halve the rate, log each halving,
        # and complete
        ratings, content = tiny_dataset(seed=13)
        hyper = tiny_hyper(momentum=0.0, epochs_per_block=1, max_sweeps=3)
        real_gradients = sdae.gradients
        calls = {"n": 0}

        def flaky_gradients(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise NumericError("non-finite activation at layer 1")
            return real_gradients(*args, **kwargs)

        monkeypatch.setattr(training.sdae, "gradients", flaky_gradients)
        with caplog.at_level(logging.WARNING, logger="cdl.training"):
            _, _, report = fit_fn(ratings, content, hyper)
        # both failures are retries of sweep 1
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"sweep 1 diverged (non-finite activation at layer 1): learning "
                        f"rate halved to {lr} (halving {n} of 5)")
            for n, lr in ((1, 0.001), (2, 0.0005))]
        assert np.isfinite(report.totals()).all()
        assert len(report.rows) == rows
        assert [row.sweep for row in report.rows] == list(range(rows))
        # two failures plus the three successful network sweeps
        assert calls["n"] == 5

    def test_last_halving_names_the_cause(self, monkeypatch):
        ratings, content = tiny_dataset(seed=13)

        def failing_gradients(*args, **kwargs):
            raise NumericError("non-finite activation at layer 1")

        monkeypatch.setattr(training.sdae, "gradients", failing_gradients)
        with pytest.raises(TrainingError) as info:
            training.fit(ratings, content, tiny_hyper(max_sweeps=3))
        assert str(info.value) == ("sweep 1 diverged (non-finite activation at layer 1) "
                                   "after 5 learning-rate halvings")
        assert len(info.value.checkpoint["report"].rows) == 1

    @pytest.mark.parametrize("fit", ["fit", "fit_encoder_only", "fit_two_step",
                                     "fit_mf_baseline"])
    def test_nonfinite_row_zero_raises_the_same_error_in_every_fit(self, monkeypatch,
                                                                   caplog, fit):
        # row 0 is no sweep to retry: a non-finite term there raises at once,
        # with no learning-rate halving
        ratings, content = tiny_dataset(seed=13)
        monkeypatch.setattr(training.mf, "rating_objective", lambda *args: -math.inf)
        inputs = (ratings,) if fit == "fit_mf_baseline" else (ratings, content)
        with caplog.at_level(logging.WARNING, logger="cdl.training"):
            with pytest.raises(NumericError) as info:
                getattr(training, fit)(*inputs, tiny_hyper())
        assert str(info.value) == "objective term 'rating' (conf_a) is non-finite"
        assert not caplog.records

    def test_two_step_frozen_phase_checks_its_objective(self, monkeypatch, caplog):
        # the frozen phase trains no network, so a non-finite term in its
        # first sweep raises instead of entering the report
        ratings, content = tiny_dataset(seed=13)
        hyper = tiny_hyper(max_sweeps=2)
        real = mf.rating_objective
        calls = {"n": 0}

        def rating_objective(*args):
            calls["n"] += 1  # calls 1-3 give the network phase's rows 0-2
            return -math.inf if calls["n"] == 4 else real(*args)

        monkeypatch.setattr(training.mf, "rating_objective", rating_objective)
        with caplog.at_level(logging.WARNING, logger="cdl.training"):
            with pytest.raises(NumericError,
                               match=r"objective term 'rating' \(conf_a\) is non-finite"):
                training.fit_two_step(ratings, content, hyper)
        assert calls["n"] == 4
        assert not caplog.records

    def test_total_overflow_raises(self):
        with pytest.raises(NumericError, match="objective total overflows"):
            training._checked({"user_prior": -1e308, "rating": -1e308})

    def test_state_copy_shares_no_array(self):
        # velocities are updated in place, so a rollback is sound only if the
        # saved state owns every array it restores
        ratings, content = tiny_dataset(seed=13)
        state, train_block = training._network_setup(ratings, content, tiny_hyper(), 50.0)
        train_block(state, 1e-3, state.V, 10.0)
        saved = state.copy()
        arrays = [[s.U, s.V, *s.net.weights, *s.net.biases, *s.velocities]
                  for s in (state, saved)]
        assert len(arrays[0]) == 2 + 4 * len(state.net.weights)
        for live, copy in zip(*arrays):
            assert not np.shares_memory(live, copy)
            np.testing.assert_array_equal(live, copy)

    def test_shape_mismatch_rejected(self):
        ratings, content = tiny_dataset(seed=15)
        bad = data.ContentMatrix(np.zeros((ratings.num_items + 1, 12)), data.RAW)
        with pytest.raises(ShapeError):
            training.fit(ratings, bad, tiny_hyper())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fit", ["fit", "fit_two_step", "fit_encoder_only",
                                     "fit_mf_baseline"])
    def test_infinite_conf_a_rejected_before_the_first_sweep(self, monkeypatch, fit):
        # unchecked, the content fits end in a TrainingError after every
        # learning-rate halving, and the baseline in a non-finite rating term
        ratings, content = tiny_dataset(seed=15)

        def unreachable(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(sdae, "init_network", unreachable)
        monkeypatch.setattr(training, "_sweep_loop", unreachable)
        inputs = (ratings,) if fit == "fit_mf_baseline" else (ratings, content)
        with pytest.raises(ArgumentError, match="conf_a must be finite"):
            getattr(training, fit)(*inputs, tiny_hyper(conf_a=math.inf))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("run", ["fit", "fit_two_step", "fit_encoder_only",
                                     "run_chain"])
    def test_overflowing_lambda_n_rejected_before_the_first_sweep(self, run):
        # 0.5 * 1e308 * 8 items * 6 words is inf: unchecked, fit halves the
        # learning rate until it raises TrainingError, and the chain's log
        # joint is -inf in every draw, with overflow warnings
        hyper = tiny_hyper(n_factors=2, lambda_s=100.0)
        ratings, content, *_ = data.generate_synthetic(5, 8, 6, 2, hyper, seed=5)
        hyper = tiny_hyper(n_factors=2, lambda_s=100.0, lambda_n=1e308)
        fit = getattr(sampling if run == "run_chain" else training, run)
        kwargs = {"iters": 4, "burn_in": 2} if run == "run_chain" else {}
        with pytest.raises(ArgumentError) as info:
            fit(ratings, content, hyper, **kwargs)
        assert str(info.value) == ("lambda_n 1e+308 overflows the reconstruction term "
                                   "over 8 x 6 content")
        assert info.value.fields == ("lambda_n",)
        training.fit_mf_baseline(ratings, hyper)  # no network, no bound

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("run", ["fit", "fit_two_step", "fit_encoder_only",
                                     "fit_mf_baseline", "run_chain"])
    def test_overflowing_conf_a_rejected_before_the_first_sweep(self, run):
        # 1e306 * 259 ratings is inf, and so is the rating term at U = 0: the
        # bound names the field before any fit or chain starts
        hyper = tiny_hyper(lambda_s=100.0)
        ratings, content, *_ = data.generate_synthetic(20, 30, 10, 3, hyper, seed=0)
        assert ratings.nnz == 259
        hyper = tiny_hyper(lambda_s=100.0, conf_a=1e306)
        fit = getattr(sampling if run == "run_chain" else training, run)
        inputs = (ratings,) if run == "fit_mf_baseline" else (ratings, content)
        kwargs = {"iters": 4, "burn_in": 2} if run == "run_chain" else {}
        with pytest.raises(ArgumentError) as info:
            fit(*inputs, hyper, **kwargs)
        assert str(info.value) == "conf_a 1e+306 overflows the rating term over 259 ratings"
        assert info.value.fields == ("conf_a",)

    @pytest.mark.parametrize("k", [10 ** 12, 10 ** 30], ids=["memory", "overflow"])
    @pytest.mark.parametrize("run", ["fit", "fit_two_step", "fit_encoder_only",
                                     "fit_mf_baseline", "run_chain"])
    def test_huge_n_factors_rejected_before_any_draw(self, monkeypatch, run, k):
        # 30 items x 10**12 factors cannot be allocated, and 10**30 overflows
        # the array's size: the check names n_factors, and no generator is
        # made before it
        ratings, content = tiny_dataset(seed=15)
        hyper = tiny_hyper(n_factors=k, lambda_s=100.0)

        def unreachable(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", unreachable)
        fit = getattr(sampling if run == "run_chain" else training, run)
        inputs = (ratings,) if run == "fit_mf_baseline" else (ratings, content)
        kwargs = {"iters": 4, "burn_in": 2} if run == "run_chain" else {}
        with pytest.raises(ArgumentError) as info:
            fit(*inputs, hyper, **kwargs)
        assert str(info.value) == (f"n_factors {k} makes the 30 x {k} "
                                   "factor matrix too large to allocate")
        assert info.value.fields == ("n_factors",)

    def test_block_size_is_accepted_as_batch_size(self):
        ratings, content = tiny_dataset(seed=15)
        hyper = tiny_hyper(max_sweeps=1)
        _, named, _ = training.fit(ratings, content, hyper, batch_size=sdae.BLOCK_ROWS)
        _, default, _ = training.fit(ratings, content, hyper)
        np.testing.assert_array_equal(named.V, default.V)

    @pytest.mark.parametrize("batch_size", [1024, 4096, None])
    def test_other_batch_size_rejected_naming_block_rows(self, batch_size):
        ratings, content = tiny_dataset(seed=15)
        with pytest.raises(ArgumentError, match="BLOCK_ROWS"):
            training.fit(ratings, content, tiny_hyper(), batch_size=batch_size)


def stored_content(seed, density=1.0, zeros=(), index=np.int32, shape=(60, 50)):
    """Content with values in (0, 1] at about ``density`` of its entries,
    the stored entries at ``zeros`` set to 0 but kept stored (-0.0 at the
    first), and column indices of dtype ``index``."""
    rng = np.random.default_rng(seed)
    csr = sp.csr_matrix((1.0 - rng.random(shape)) * (rng.random(shape) < density))
    csr.data[list(zeros)] = 0.0
    if zeros:
        csr.data[zeros[0]] = -0.0
    csr.indices, csr.indptr = csr.indices.astype(index), csr.indptr.astype(index)
    return data.ContentMatrix(csr)


def same_operand(got, want):
    """The same layout (ndarray or CSR) and the same bits."""
    assert type(got) is type(want)
    if sp.issparse(want):
        assert got.indices.dtype == want.indices.dtype
        for name in ("indices", "indptr"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        got, want = got.data, want.data
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCorruptedOperand:
    # (content, layout per noise level 0, 0.3, 0.5, 1.0): the corruption is
    # dense exactly when its CSR, with the int32 indices scipy gives it,
    # would be no smaller than a float64 array; stored zeros are never kept
    CASES = {
        "stored-99.7%": (lambda: stored_content(1, density=0.997), "ddss"),
        "stored-100%": (lambda: stored_content(2), "ddss"),
        "stored-zeros": (lambda: stored_content(3, zeros=tuple(range(5, 3000, 100))), "ddss"),
        "stored-zeros-20%": (lambda: stored_content(4, zeros=tuple(range(5, 3000, 5))),
                             "dsss"),
        "int64-indices": (lambda: stored_content(5, density=0.997, index=np.int64), "ddss"),
        # dense as int64-indexed clean content, CSR once corrupted
        "int64-indices-60%": (lambda: stored_content(6, density=0.6, index=np.int64), "ssss"),
    }

    @pytest.mark.parametrize("noise_level", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("case", list(CASES))
    def test_each_operand_is_the_laid_out_corruption(self, monkeypatch, case, noise_level):
        # every operand the fit hands the network, at set-up, in each epoch
        # and in the closing pass, is sdae._as_matrix of data.corrupt's
        # ContentMatrix from the same seed, in layout and in bits
        make, layouts = self.CASES[case]
        content = make()
        if case.startswith("int64"):
            assert content.matrix.indices.dtype == np.int64
            assert isinstance(sdae._as_matrix(content), np.ndarray)
        ratings, _ = random_dataset(7, num_items=content.num_items)
        hyper = tiny_hyper(noise_level=noise_level, epochs_per_block=3, max_sweeps=1)
        operands = []
        for name in ("gradients", "coupling_residuals"):
            def spy(net, x0, *args, real=getattr(sdae, name), **kwargs):
                operands.append(sdae._as_matrix(x0))
                return real(net, x0, *args, **kwargs)
            monkeypatch.setattr(sdae, name, spy)
        training.fit(ratings, content, hyper)
        _, noise_seq, _ = np.random.SeedSequence(hyper.seed).spawn(3)
        seeds = noise_seq.spawn(1 + hyper.epochs_per_block)
        assert len(operands) == len(seeds) + 1
        for got, seed in zip(operands, seeds + seeds[-1:]):
            same_operand(got, sdae._as_matrix(data.corrupt(content, noise_level, seed)))
        layout = layouts[[0.0, 0.3, 0.5, 1.0].index(noise_level)]
        assert isinstance(operands[-1], np.ndarray) == (layout == "d")


class TestVariants:
    def test_encoder_only_decoder_gets_weight_decay_only(self):
        ratings, content = tiny_dataset(seed=17)
        hyper = tiny_hyper()
        net = sdae.init_network((12, 6, 3, 6, 12), 3, hyper.lambda_w)
        x0 = data.corrupt(content, 0.3, 21)
        V = np.random.default_rng(0).normal(size=(ratings.num_items, 3))
        gw, gb = sdae.gradients(net, x0, content, V, hyper.lambda_v, 0.0,
                                hyper.lambda_w)
        for l in range(net.middle, net.num_layers):
            np.testing.assert_array_equal(gw[l], -hyper.lambda_w * net.weights[l])
            np.testing.assert_array_equal(gb[l], -hyper.lambda_w * net.biases[l])

    def test_encoder_only_report_excludes_reconstruction(self):
        ratings, content = tiny_dataset(seed=19)
        _, _, report = training.fit_encoder_only(ratings, content, tiny_hyper(max_sweeps=2))
        assert all(row.reconstruction == 0.0 for row in report.rows)

    def test_encoder_only_trajectory_differs_from_joint(self):
        ratings, content = tiny_dataset(seed=21)
        hyper = tiny_hyper(max_sweeps=3)
        _, _, joint = training.fit(ratings, content, hyper)
        _, _, enc = training.fit_encoder_only(ratings, content, hyper)
        assert joint.totals()[-1] != enc.totals()[-1]

    def test_two_step_network_ignores_ratings(self):
        _, content = tiny_dataset(seed=23)
        hyper = tiny_hyper(max_sweeps=2)
        rng = np.random.default_rng(0)
        r1 = data.RatingsMatrix(20, content.num_items,
                                np.argwhere(rng.random((20, content.num_items)) < 0.2))
        r2 = data.RatingsMatrix(20, content.num_items,
                                np.argwhere(rng.random((20, content.num_items)) < 0.4))
        net1, _, _ = training.fit_two_step(r1, content, hyper)
        net2, _, _ = training.fit_two_step(r2, content, hyper)
        for a, b in zip(net1.weights, net2.weights):
            np.testing.assert_array_equal(a, b)

    def test_two_step_factor_phase_matches_manual_sweeps(self):
        ratings, content = tiny_dataset(seed=25)
        hyper = tiny_hyper(max_sweeps=2)
        net, factors, _ = training.fit_two_step(ratings, content, hyper)
        # reproduce the frozen-encoding sweeps bit-for-bit
        root = np.random.SeedSequence(hyper.seed)
        _, noise_seq, _ = root.spawn(3)
        seeds = noise_seq.spawn(1 + hyper.max_sweeps * hyper.epochs_per_block)
        x0 = data.corrupt(content, hyper.noise_level, seeds[-1])
        encodings = sdae.encode(net, x0)
        conf = hyper.confidence()
        V = encodings.copy()
        for _ in range(hyper.max_sweeps):
            U = mf.sweep_users(V, ratings, conf, hyper.lambda_u)
            V = mf.sweep_items(U, ratings, conf, hyper.lambda_v, encodings)
        np.testing.assert_array_equal(factors.U, U)
        np.testing.assert_array_equal(factors.V, V)

    def test_two_step_frozen_phase_reuses_phase_one(self):
        # the frozen phase takes phase one's last item prior and
        # reconstruction sum: its reconstruction term keeps phase one's bits
        ratings, content = tiny_dataset(seed=25)
        hyper = tiny_hyper(max_sweeps=3)
        _, _, report = training.fit_two_step(ratings, content, hyper)
        last = report.rows[hyper.max_sweeps].reconstruction
        frozen = [row.reconstruction for row in report.rows[hyper.max_sweeps + 1:]]
        assert len(frozen) == hyper.max_sweeps
        assert all(value.hex() == last.hex() for value in frozen)

    @pytest.mark.parametrize("fit, encode, passes", [
        ("fit", 0, 1), ("fit_two_step", 0, 1), ("fit_encoder_only", 1, 0)])
    def test_one_network_pass_per_row(self, monkeypatch, fit, encode, passes):
        # one no-dropout pass at set-up and at the end of each network step
        # gives both the factor sweep's item prior and the report row; the
        # encoder-only pass stops at the codes, and two-step's frozen phase
        # reuses phase one's last pass
        ratings, content = tiny_dataset(seed=25)
        hyper = tiny_hyper(max_sweeps=3)
        calls = {"encode": 0, "coupling_residuals": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(sdae, name, counted(name, getattr(sdae, name)))
        getattr(training, fit)(ratings, content, hyper)
        rows = hyper.max_sweeps + 1  # the network phase's rows
        assert calls == {"encode": encode * rows, "coupling_residuals": passes * rows}

    @pytest.mark.parametrize("fit, case, noise_level", [
        pytest.param(fit, case, noise_level,
                     id=fit if case == "tiny" else f"{fit}-{case}-{noise_level}")
        for case, noise_level in [("tiny", 0.3), ("dense", 0.3), ("dense", 0.5),
                                  ("blocks", 0.3)]
        for fit in ["fit", "fit_encoder_only", "fit_two_step"]])
    def test_last_row_measures_the_returned_model(self, fit, case, noise_level):
        # each phase's last row is the objective of the returned network and
        # factors, with the item prior and reconstruction sum of a no-dropout
        # pass over the last corruption, re-derived from the seed as a CSR;
        # on fully stored content the fit trains on dense corruptions at
        # noise 0.3 and on CSR ones at 0.5, and above BLOCK_ROWS items its
        # dense operand is sliced into row blocks
        if case == "tiny":
            ratings, content = tiny_dataset(seed=33)
        else:
            num_items = 30 if case == "dense" else sdae.BLOCK_ROWS + 100
            ratings, content = random_dataset(33, num_items=num_items, vocab=12, density=1.0)
            assert content.nnz == num_items * 12
        hyper = tiny_hyper(max_sweeps=3, widths=(12, 6, 3, 6, 12), dropout_rate=0.2,
                           noise_level=noise_level)
        assert (ratings.num_items > sdae.BLOCK_ROWS) == (case == "blocks")
        assert hyper.early_stop_tol == 0.0
        net, factors, report = getattr(training, fit)(ratings, content, hyper)
        _, noise_seq, _ = np.random.SeedSequence(hyper.seed).spawn(3)
        seeds = noise_seq.spawn(1 + hyper.max_sweeps * hyper.epochs_per_block)
        x0 = data.corrupt(content, hyper.noise_level, seeds[-1])
        if fit == "fit_encoder_only":
            prior, rec_ss = sdae.encode(net, x0), None
        else:
            prior, rec_ss = sdae.coupling_residuals(net, x0, content)
        args = (hyper.confidence(), hyper.lambda_u, hyper.lambda_v, hyper.lambda_n,
                hyper.lambda_w, net, prior, rec_ss)
        cases = [(report.rows[-1], factors.U, factors.V)]
        if fit == "fit_two_step":
            assert len(report.rows) == 2 * hyper.max_sweeps + 1
            cases.append((report.rows[hyper.max_sweeps], np.zeros_like(factors.U), prior))
        for row, U, V in cases:
            total, terms = training.objective(ratings, U, V, *args)
            assert row.total.hex() == total.hex()
            for name, value in terms.items():
                assert getattr(row, name).hex() == value.hex(), name

    def test_two_step_phase_one_terms_across_row_blocks(self, monkeypatch):
        # phase one sets V to the codes of the pass that also gives the
        # reconstruction sum; over several row blocks every term has the
        # bits of measuring V against itself (prior=V), and the offset term
        # is exactly -0.0
        ratings, content = random_dataset(41, num_items=2 * sdae.BLOCK_ROWS + 100)
        hyper = tiny_hyper(max_sweeps=2)
        real = training.objective
        expected = []

        def spy(ratings, U, V, *args):
            net, prior, rec_ss = args[-3:]
            if net is not None:
                expected.append(real(ratings, U, V, *args[:-2], V, rec_ss))
                np.testing.assert_array_equal(prior, V)
            return real(ratings, U, V, *args)

        monkeypatch.setattr(training, "objective", spy)
        _, _, report = training.fit_two_step(ratings, content, hyper)
        phase_one = report.rows[:hyper.max_sweeps + 1]
        assert len(expected) == len(phase_one)
        for row, (total, terms) in zip(phase_one, expected):
            assert row.total.hex() == total.hex()
            for name, value in terms.items():
                assert getattr(row, name).hex() == value.hex()
            assert row.item_offset.hex() == (-0.0).hex()

    def test_mf_baseline_matches_zero_encoder_sweeps(self):
        ratings, _ = tiny_dataset(seed=27)
        hyper = tiny_hyper(max_sweeps=3)
        factors, report = training.fit_mf_baseline(ratings, hyper)
        rng = np.random.default_rng(np.random.SeedSequence(hyper.seed))
        V = rng.normal(scale=hyper.lambda_v ** -0.5,
                       size=(ratings.num_items, hyper.n_factors))
        conf = hyper.confidence()
        zero = np.zeros_like(V)
        for _ in range(len(report.rows) - 1):
            U = mf.sweep_users(V, ratings, conf, hyper.lambda_u)
            V = mf.sweep_items(U, ratings, conf, hyper.lambda_v, zero)
        np.testing.assert_array_equal(factors.U, U)
        np.testing.assert_array_equal(factors.V, V)

    def test_mf_baseline_monotone(self):
        ratings, _ = tiny_dataset(seed=29)
        _, report = training.fit_mf_baseline(ratings, tiny_hyper(max_sweeps=8))
        totals = report.totals()
        assert np.all(np.diff(totals) >= -1e-9 * (1.0 + np.abs(totals[:-1])))

    def test_all_variants_reports_finite_and_reproducible(self):
        ratings, content = tiny_dataset(seed=31)
        hyper = tiny_hyper(max_sweeps=2)
        for fit_fn in (training.fit, training.fit_two_step, training.fit_encoder_only):
            _, _, r1 = fit_fn(ratings, content, hyper)
            _, _, r2 = fit_fn(ratings, content, hyper)
            assert np.isfinite(r1.totals()).all()
            np.testing.assert_array_equal(r1.totals(), r2.totals())
        _, r1 = training.fit_mf_baseline(ratings, hyper)
        _, r2 = training.fit_mf_baseline(ratings, hyper)
        np.testing.assert_array_equal(r1.totals(), r2.totals())


class TestEarlyStopping:
    @pytest.mark.parametrize("fit", ["fit", "fit_mf_baseline"])
    def test_fit_stops_at_patience(self, fit):
        # no relative change reaches a tolerance of 1e9, so every sweep
        # extends the streak: the fit stops after early_stop_patience sweeps,
        # with the outputs of a fit run for exactly that many
        ratings, content = tiny_dataset(seed=35)
        inputs = (ratings,) if fit == "fit_mf_baseline" else (ratings, content)
        stopping = tiny_hyper(max_sweeps=10, early_stop_tol=1e9, early_stop_patience=3)
        *_, factors, report = getattr(training, fit)(*inputs, stopping)
        assert len(report.rows) == 1 + stopping.early_stop_patience
        *_, want_factors, want = getattr(training, fit)(*inputs, tiny_hyper(max_sweeps=3))
        np.testing.assert_array_equal(factors.U, want_factors.U)
        np.testing.assert_array_equal(factors.V, want_factors.V)
        assert [row.total for row in report.rows] == [row.total for row in want.rows]

    def test_default_tolerance_stops_at_the_first_streak(self):
        # at the default tolerance the baseline stops after the first
        # early_stop_patience changes in a row below it, with the rows of
        # the same fit run without early stopping up to there
        ratings, _ = tiny_dataset(seed=37)
        hyper = tiny_hyper(max_sweeps=200, early_stop_tol=1e-6, early_stop_patience=3)
        _, report = training.fit_mf_baseline(ratings, hyper)
        _, full = training.fit_mf_baseline(ratings, tiny_hyper(max_sweeps=200))
        totals = full.totals()
        small = np.abs(np.diff(totals)) / np.abs(totals[1:]) < hyper.early_stop_tol
        runs = np.convolve(small, np.ones(3, dtype=int), mode="valid") == 3
        stop = int(np.argmax(runs)) + 3  # the sweep that completes the first streak
        assert runs.any() and stop < hyper.max_sweeps
        assert len(report.rows) == stop + 1
        np.testing.assert_array_equal(report.totals(), totals[:stop + 1])

    def test_streak_resets_when_a_change_exceeds_the_tolerance(self):
        # sweeps 2 and 3 change the total by less than the tolerance and
        # sweep 4 by more: the streak starts again, and the loop stops at
        # sweep 7, the third small change in a row
        totals = iter([-100.0, -50.0, -50.0, -50.0, -60.0, -60.0, -60.0, -60.0, -70.0])

        def evaluate(state):
            total = next(totals)
            return total, dict(user_prior=0.0, weight_prior=0.0, item_offset=0.0,
                               reconstruction=0.0, rating=total)

        report = training.TrainReport()
        training._sweep_loop(report, None, training._State(np.zeros((1, 1)), np.zeros((1, 1))),
                             lambda state, lr: None, evaluate,
                             tiny_hyper(max_sweeps=20, early_stop_tol=1e-3,
                                        early_stop_patience=3),
                             trains_network=False, may_stop=True)
        assert report.totals().tolist() == [-100.0, -50.0, -50.0, -50.0, -60.0, -60.0,
                                            -60.0, -60.0]


@st.composite
def hyper_params(draw):
    """Any valid HyperParams: each float over its whole domain (infinities,
    subnormals and -0.0 where the domain allows them), widths auto or a list
    whose middle is n_factors."""
    def floats(low, high=None, exclude_low=False, exclude_high=False):
        return draw(st.floats(low, high, exclude_min=exclude_low, exclude_max=exclude_high,
                              allow_nan=False, allow_infinity=high is None))
    conf_b = floats(-0.0, 1e300)
    n_factors = draw(st.integers(1, 2**40))
    half = draw(st.integers(1, 3))
    widths = draw(st.none() | st.tuples(
        *[st.integers(1, 2**40)] * half, st.just(n_factors), *[st.integers(1, 2**40)] * half))
    return HyperParams(
        **{name: floats(0.0, exclude_low=True)
           for name in ("lambda_u", "lambda_v", "lambda_n", "lambda_w", "lambda_s")},
        conf_a=draw(st.floats(abs(conf_b), exclude_min=True, allow_nan=False)), conf_b=conf_b,
        n_factors=n_factors, widths=widths, noise_level=floats(-0.0, 1.0),
        dropout_rate=floats(-0.0, 1.0, exclude_high=True), learning_rate=floats(-0.0),
        momentum=floats(-0.0, 1.0, exclude_high=True),
        epochs_per_block=draw(st.integers(0, 2**63)), max_sweeps=draw(st.integers(1, 2**63)),
        early_stop_tol=floats(-0.0), early_stop_patience=draw(st.integers(1, 2**63)),
        seed=draw(st.integers(0, 2**64)))


def assert_same_hyper(got, want):
    """Equal field by field, floats to the bit."""
    for name in training.CONFIG_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        assert (a.hex() == b.hex()) if isinstance(a, float) else a == b, name


class TestConfig:
    def test_round_trip(self):
        hyper = tiny_hyper(widths=(12, 6, 3, 6, 12))
        text = training.config_text(hyper)
        back = training.config_from_text(text)
        assert back == hyper

    @settings(max_examples=300, deadline=None)
    @given(hyper=hyper_params())
    @example(hyper=HyperParams())  # lambda_s=inf, widths=auto
    def test_any_config_round_trips_bit_exact(self, hyper):
        assert_same_hyper(training.config_from_text(training.config_text(hyper)), hyper)

    def test_missing_key_named(self):
        hyper = tiny_hyper()
        lines = [l for l in training.config_text(hyper).splitlines()
                 if not l.startswith("lambda_v=")]
        with pytest.raises(ConfigError, match="lambda_v") as err:
            training.config_from_text("\n".join(lines))
        assert "lambda_v" in err.value.bad_keys

    def test_unknown_key_listed_with_missing(self):
        hyper = tiny_hyper()
        text = training.config_text(hyper).replace("lambda_v=", "lambda_x=")
        with pytest.raises(ConfigError) as err:
            training.config_from_text(text)
        assert set(err.value.bad_keys) >= {"lambda_v", "lambda_x"}

    def test_widths_auto_and_list(self):
        hyper = tiny_hyper()
        assert training.config_from_text(training.config_text(hyper)).widths is None
        hyper2 = tiny_hyper(widths=(12, 3, 12))
        assert training.config_from_text(training.config_text(hyper2)).widths == (12, 3, 12)

    def test_lambda_s_inf_round_trips(self):
        hyper = tiny_hyper()
        assert math.isinf(training.config_from_text(training.config_text(hyper)).lambda_s)

    def test_file_round_trip(self, tmp_path):
        hyper = tiny_hyper()
        path = tmp_path / "config.txt"
        path.write_text(training.config_text(hyper))
        assert training.load_config(path) == hyper

    def test_nan_early_stop_tol_rejected(self):
        # nan compares false to every bound, which would turn early stopping off
        with pytest.raises(ArgumentError, match="bad early-stop settings"):
            tiny_hyper(early_stop_tol=math.nan)

    @pytest.mark.parametrize("key, value, fields", [
        ("noise_level", "2.0", ("noise_level",)),
        ("conf_b", "5.0", ("conf_a", "conf_b")),
        ("early_stop_patience", "0", ("early_stop_patience",)),
        ("seed", "-1", ("seed",)),
        ("widths", "12,5,12", ("widths", "n_factors")),
    ])
    def test_rejected_value_named_at_its_first_fields_line(self, key, value, fields):
        lines = training.config_text(tiny_hyper()).splitlines()
        lines[training.CONFIG_FIELDS.index(key)] = f"{key}={value}"
        with pytest.raises(ArgumentError) as err:
            training.config_from_text("\n".join(lines), path="c.txt")
        assert err.value.fields == fields
        first = training.CONFIG_FIELDS.index(fields[0]) + 1
        assert str(err.value).startswith(f"c.txt:{first}: ")

    def test_blank_and_comment_lines_skipped(self):
        # blank, whitespace-only and '#' lines, indented ones too, are
        # skipped; each key keeps its own line number, and a bad value is
        # named there
        lines = training.config_text(tiny_hyper()).splitlines()
        text = "\n".join(["# a comment", "", *lines[:4], "   ", "  # indented", *lines[4:]])
        assert training.config_from_text(text) == tiny_hyper()
        numbered = text.splitlines()
        for key, (value, lineno) in training.config_lines(text).items():
            assert numbered[lineno - 1].strip() == f"{key}={value}"
        bad = text.replace("noise_level=0.3", "noise_level=2.0")
        lineno = numbered.index("noise_level=0.3") + 1
        with pytest.raises(ArgumentError, match=f"^c.txt:{lineno}: noise_level must lie"):
            training.config_from_text(bad, path="c.txt")

    @pytest.mark.parametrize("name, value, message", [
        ("n_factors", 0, "n_factors must be at least 1"),
        ("dropout_rate", 1.0, r"dropout_rate must lie in \[0, 1\)"),
        ("learning_rate", -1.0, "learning_rate must be non-negative"),
        ("momentum", 1.0, r"momentum must lie in \[0, 1\)"),
    ])
    def test_value_outside_its_domain_named_with_its_field(self, name, value, message):
        with pytest.raises(ArgumentError, match=f"^{message}$") as err:
            tiny_hyper(**{name: value})
        assert err.value.fields == (name,)

    @pytest.mark.parametrize("vocab", [12, 14])
    def test_widths_off_the_vocabulary_rejected_by_the_input_check(self, vocab):
        # the first width and the last must both be the vocabulary's size
        ratings, content = tiny_dataset(seed=17, vocab=13)
        with pytest.raises(ArgumentError, match="^widths end at "
                           f"{vocab}/13 but the vocabulary has 13 words$") as err:
            training.check_inputs(ratings, content, tiny_hyper(widths=(vocab, 3, 13)))
        assert err.value.fields == ("widths",)

    def test_network_built_from_the_widths_the_input_check_returns(self, monkeypatch):
        # a network too large to allocate is named by the check, with the
        # network builder's message, before a fit or chain allocates it
        ratings, content = tiny_dataset(seed=17, vocab=13)
        wide = 2**62
        with pytest.raises(ArgumentError, match=f"^layer widths 13-{wide}-3-{wide}-13 too "
                                                "large to allocate$") as err:
            training.check_inputs(ratings, content, tiny_hyper(widths=(13, wide, 3, wide, 13)))
        assert err.value.fields == ("widths",)
        assert training.check_inputs(ratings, content, tiny_hyper()) == (13, 3, 13)
        assert training.check_inputs(ratings, None, tiny_hyper()) is None
        # the fits and the chain build exactly the widths the check returned
        checked = (13, 5, 3, 5, 13)
        built = []

        class Built(Exception):
            """Raised by the network builder: nothing past it is needed."""

        def init_network(widths, seed, lambda_w):
            built.append(widths)
            raise Built

        monkeypatch.setattr(training, "check_inputs", lambda *args: checked)
        monkeypatch.setattr(sampling, "check_inputs", lambda *args: checked)
        monkeypatch.setattr(sdae, "init_network", init_network)
        hyper = tiny_hyper(lambda_s=100.0)
        for run in (lambda: training.fit(ratings, content, hyper),
                    lambda: training.fit_two_step(ratings, content, hyper),
                    lambda: sampling.run_chain(ratings, content, hyper, iters=2, burn_in=1)):
            with pytest.raises(Built):
                run()
        assert len(built) == 3 and all(widths is checked for widths in built)

    def test_auto_widths_of_a_content_without_words_rejected_by_the_input_check(self):
        # no word gives widths (0, K, 0), named as the network builder would
        ratings, _ = tiny_dataset(seed=17)
        empty = data.ContentMatrix(sp.csr_matrix((ratings.num_items, 0)), data.RAW)
        with pytest.raises(ArgumentError, match="^all layer widths must be positive$") as err:
            training.check_inputs(ratings, empty, tiny_hyper())
        assert err.value.fields == ("widths",)

    def test_line_without_equals_named(self):
        with pytest.raises(ConfigError, match="^c.txt:2: expected key=value, got 'seed 3'$"):
            training.config_lines("# seeds\nseed 3\n", path="c.txt")

    def test_unparsable_value_named_at_its_line(self):
        lines = training.config_text(tiny_hyper()).splitlines()
        lineno = training.CONFIG_FIELDS.index("max_sweeps") + 1
        lines[lineno - 1] = "max_sweeps=many"
        with pytest.raises(ConfigError, match=f"^c.txt:{lineno}: bad value for max_sweeps: "
                                              "'many'$") as err:
            training.config_from_text("\n".join(lines), path="c.txt")
        assert err.value.bad_keys == ("max_sweeps",)

    def test_widths_middle_must_match_n_factors(self):
        with pytest.raises(ArgumentError):
            tiny_hyper(widths=(12, 5, 12))

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name", ["n_factors", "epochs_per_block", "max_sweeps",
                                      "early_stop_patience", "seed"])
    def test_integer_field_rejects_a_float_or_a_bool(self, name, value):
        # int() would round 2.5 away, and True would pass as 1
        with pytest.raises(ArgumentError, match=f"{name} must be an integer") as err:
            tiny_hyper(**{name: value})
        assert err.value.fields == (name,)

    def test_integer_fields_accept_numpy_integers(self):
        hyper = tiny_hyper(n_factors=np.int64(3), widths=(12, np.int32(3), 12),
                           seed=np.uint32(7))
        assert hyper.widths == (12, 3, 12)

    def test_non_integral_width_rejected(self):
        with pytest.raises(ArgumentError, match="all layer widths must be integers") as err:
            tiny_hyper(widths=(8.7, 3.2, 8))
        assert err.value.fields == ("widths",)


class TestReport:
    def test_tsv_round_trip(self, tmp_path):
        ratings, content = tiny_dataset(seed=33)
        _, _, report = training.fit(ratings, content, tiny_hyper(max_sweeps=2))
        path = tmp_path / "report.tsv"
        report.write_tsv(path)
        back = training.TrainReport.read_tsv(path)
        np.testing.assert_array_equal(back.totals(), report.totals())
        for name in ("user_prior", "weight_prior", "item_offset",
                     "reconstruction", "rating"):
            np.testing.assert_array_equal(back.term_series(name),
                                          report.term_series(name))

    def test_streamed_report_matches_returned(self, tmp_path):
        ratings, content = tiny_dataset(seed=35)
        path = tmp_path / "stream.tsv"
        _, _, report = training.fit(ratings, content, tiny_hyper(max_sweeps=2),
                                    report_path=path)
        streamed = training.TrainReport.read_tsv(path)
        np.testing.assert_array_equal(streamed.totals(), report.totals())
        written = tmp_path / "written.tsv"
        report.write_tsv(written)
        assert path.read_bytes() == written.read_bytes()

    def test_bad_header_named(self, tmp_path):
        path = tmp_path / "report.tsv"
        path.write_text("sweep\ttotal\n0\t-4\n")
        with pytest.raises(ConfigError, match="unexpected report header "
                                              r"\['sweep', 'total'\]$"):
            training.TrainReport.read_tsv(path)

    @pytest.mark.parametrize("row", [
        "1\t-3.5\t-1",
        "1\t-3.5\t-1\t-1\tx\t-1\t-1\t0.1",
        "one\t-3.5\t-1\t-1\t-1\t-1\t-1\t0.1",
        "1\t-3.5\t-1\t-1\t-1\t-1\t-1\t0.1\t9",
    ], ids=["short", "non-number", "non-integer-sweep", "long"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "report.tsv"
        good = "0\t-4\t-1\t-1\t-1\t-1\t0\t0"
        path.write_text("\t".join(training.REPORT_COLUMNS) + f"\n{good}\n{row}\n")
        with pytest.raises(ParseError, match="bad report row") as info:
            training.TrainReport.read_tsv(path)
        assert str(info.value).startswith(f"{path}:3: ")


@pytest.mark.slow
class TestSweepScaling:
    def test_doubling_items_less_than_quadruples_sweep_time(self):
        # sparse regime: per-sweep cost is near-linear in num_items, so the
        # observed ratio must stay under 4 with x1.5 slack
        rng = np.random.default_rng(0)
        conf = ConfidenceParams(1.0, 0.01)
        K = 8

        def sweep_time(num_items):
            num_users = 300
            pairs = [(u, int(j)) for u in range(num_users)
                     for j in rng.choice(num_items, size=5, replace=False)]
            ratings = data.RatingsMatrix(num_users, num_items, pairs)
            V = rng.normal(size=(num_items, K))
            enc = np.zeros((num_items, K))
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                U = mf.sweep_users(V, ratings, conf, 0.5)
                mf.sweep_items(U, ratings, conf, 0.5, enc)
                best = min(best, time.perf_counter() - start)
            return best

        small = sweep_time(1500)
        large = sweep_time(3000)
        assert large / small < 4.0 * 1.5
