import copy
import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.special import expit

from cdl import data, factors as mf, sampling, sdae
from cdl.exceptions import ArgumentError, NumericError, ShapeError, ValidationError
from cdl.factors import ConfidenceParams
from cdl.training import HyperParams


def chain_hyper(**kw):
    base = dict(lambda_u=1.0, lambda_v=10.0, lambda_n=100.0, lambda_w=1.0,
                lambda_s=100.0, conf_a=1.0, conf_b=0.01, n_factors=2,
                widths=(6, 4, 2, 4, 6), noise_level=0.3, dropout_rate=0.0,
                learning_rate=0.05, momentum=0.9, epochs_per_block=1,
                max_sweeps=2, seed=11)
    base.update(kw)
    return HyperParams(**base)


def tiny_chain_data(seed=5):
    hyper = chain_hyper()
    ratings, content, *_ = data.generate_synthetic(
        5, 5, 6, 2, hyper, seed=seed, widths=(6, 4, 2, 4, 6))
    return ratings, content


class _ZeroNoise:
    """Stub rng whose Gaussian draws are zero: a draw collapses to its mean."""

    def standard_normal(self, size):
        return np.zeros(size)


class _BasisNoise:
    """Stub rng whose Gaussian draws are the n-th basis vector."""

    def __init__(self, n):
        self.n = n

    def standard_normal(self, size):
        z = np.zeros(size)
        z[self.n] = 1.0
        return z


class TestLogpostWCol:
    def test_all_zero_closed_form(self):
        # sigmoid(0) = 0.5 against a zero column: -(lambda_s/2) * J * 0.25
        J, width = 7, 3
        lam_s = 4.0
        value = sampling.logpost_w_col(np.zeros(width + 1), np.zeros((J, width)),
                                       np.zeros(J), lambda_w=2.0, lambda_s=lam_s)
        np.testing.assert_allclose(value, -0.5 * lam_s * J * 0.25, rtol=1e-15)

    def test_huge_prior_prefers_zero(self):
        rng = np.random.default_rng(0)
        x_prev = rng.random((6, 3))
        x_col = rng.random(6)
        at_zero = sampling.logpost_w_col(np.zeros(4), x_prev, x_col, 1e12, 1.0)
        for _ in range(5):
            w = rng.normal(size=4)
            assert sampling.logpost_w_col(w, x_prev, x_col, 1e12, 1.0) < at_zero

    def test_matches_independent_evaluator(self):
        # second implementation with scalar loops, rel tol 1e-12
        rng = np.random.default_rng(1)
        for _ in range(10):
            J, width = 5, 3
            x_prev = rng.random((J, width))
            x_col = rng.random(J)
            w = rng.normal(size=width + 1)
            lam_w, lam_s = rng.uniform(0.1, 3.0, size=2)
            expected = -0.5 * lam_w * sum(float(v) ** 2 for v in w)
            for r in range(J):
                z = w[-1] + sum(x_prev[r, k] * w[k] for k in range(width))
                s = 1.0 / (1.0 + math.exp(-z))
                expected += -0.5 * lam_s * (x_col[r] - s) ** 2
            got = sampling.logpost_w_col(w, x_prev, x_col, lam_w, lam_s)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x_prev = rng.random((6, 4))
        x_col = rng.random(6)
        w = rng.normal(size=5)
        args = (x_prev, x_col, 0.7, 2.3)
        grad = sampling.grad_logpost_w_col(w, *args)
        h = 1e-6
        for k in range(5):
            up, down = w.copy(), w.copy()
            up[k] += h
            down[k] -= h
            num = (sampling.logpost_w_col(up, *args)
                   - sampling.logpost_w_col(down, *args)) / (2 * h)
            assert abs(num - grad[k]) / max(abs(num), 1e-12) < 1e-5


class TestLogpostXRow:
    def setup_row(self, seed=3, widths=(6, 4, 2, 4, 6)):
        rng = np.random.default_rng(seed)
        net = sdae.init_network(widths, seed=4, lambda_w=1.0)
        rows = [rng.random(w) for w in widths]
        return net, rows, rng

    def test_interior_layer_ignores_v(self):
        net, rows, rng = self.setup_row()
        x = rows[1]
        values = set()
        for _ in range(4):
            # away from the middle layer the item coupling is absent by
            # construction, so any v_row perturbation leaves the value alone
            values.add(sampling.logpost_x_row(
                1, 4, x, rows[0], net.weights[0], net.biases[0], 10.0,
                w_out=net.weights[1], b_out=net.biases[1], next_row=rows[2],
                v_row=rng.normal(size=4), lambda_v=3.0))
        assert len(values) == 1

    def test_middle_layer_huge_lambda_v_peaks_at_v(self):
        net, rows, rng = self.setup_row()
        v = rng.normal(size=2)
        kwargs = dict(w_out=net.weights[2], b_out=net.biases[2],
                      next_row=rows[3], v_row=v, lambda_v=1e10)
        at_v = sampling.logpost_x_row(2, 4, v, rows[1], net.weights[1],
                                      net.biases[1], 1.0, **kwargs)
        for _ in range(5):
            x = v + rng.normal(scale=0.5, size=2)
            val = sampling.logpost_x_row(2, 4, x, rows[1], net.weights[1],
                                         net.biases[1], 1.0, **kwargs)
            assert val < at_v

    @pytest.mark.parametrize("layer", [0, 5])
    def test_layer_outside_the_network_rejected(self, layer):
        net, rows, _ = self.setup_row()
        with pytest.raises(ArgumentError, match=rf"^layer must lie in \[1, 4\], got {layer}$"):
            sampling.logpost_x_row(layer, 4, rows[1], rows[0], net.weights[0],
                                   net.biases[0], 1.0)

    def test_missing_neighbor_raises(self):
        net, rows, _ = self.setup_row()
        with pytest.raises(ArgumentError, match="next_row"):
            sampling.logpost_x_row(1, 4, rows[1], rows[0], net.weights[0],
                                   net.biases[0], 1.0)
        with pytest.raises(ArgumentError, match="xc_row"):
            sampling.logpost_x_row(4, 4, rows[4], rows[3], net.weights[3],
                                   net.biases[3], 1.0)
        with pytest.raises(ArgumentError, match="v_row"):
            sampling.logpost_x_row(2, 4, rows[2], rows[1], net.weights[1],
                                   net.biases[1], 1.0,
                                   w_out=net.weights[2], b_out=net.biases[2],
                                   next_row=rows[3])

    def test_gradients_match_finite_differences(self):
        net, rows, rng = self.setup_row()
        cases = [
            # interior layer
            dict(layer=1, x=rows[1], prev=rows[0], w_in=net.weights[0],
                 b_in=net.biases[0],
                 kw=dict(w_out=net.weights[1], b_out=net.biases[1], next_row=rows[2])),
            # middle layer with item coupling
            dict(layer=2, x=rows[2], prev=rows[1], w_in=net.weights[1],
                 b_in=net.biases[1],
                 kw=dict(w_out=net.weights[2], b_out=net.biases[2],
                         next_row=rows[3], v_row=rng.normal(size=2), lambda_v=3.0)),
            # last layer with the clean-content term
            dict(layer=4, x=rows[4], prev=rows[3], w_in=net.weights[3],
                 b_in=net.biases[3],
                 kw=dict(xc_row=rng.random(6), lambda_n=7.0)),
        ]
        for case in cases:
            x = case["x"]
            args = (case["layer"], 4, x, case["prev"], case["w_in"], case["b_in"], 5.0)
            grad = sampling.grad_logpost_x_row(*args, **case["kw"])
            h = 1e-6
            for k in range(len(x)):
                up, down = x.copy(), x.copy()
                up[k] += h
                down[k] -= h
                num = (sampling.logpost_x_row(args[0], 4, up, *args[3:], **case["kw"])
                       - sampling.logpost_x_row(args[0], 4, down, *args[3:], **case["kw"])) / (2 * h)
                assert abs(num - grad[k]) / max(abs(num), 1e-12) < 1e-5

    def test_last_layer_is_exactly_quadratic(self):
        # incoming and content terms are both Gaussian in the row, so a
        # coordinate perturbation changes the value by the predicted
        # quadratic amount
        net, rows, rng = self.setup_row()
        lam_s, lam_n = 5.0, 7.0
        x = rows[4]
        args = (4, 4, x, rows[3], net.weights[3], net.biases[3], lam_s)
        kw = dict(xc_row=rng.random(6), lambda_n=lam_n)
        base = sampling.logpost_x_row(*args, **kw)
        grad = sampling.grad_logpost_x_row(*args, **kw)
        curvature = lam_s + lam_n
        for k in range(len(x)):
            for delta in (0.3, -1.7):
                moved = x.copy()
                moved[k] += delta
                predicted = base + grad[k] * delta - 0.5 * curvature * delta * delta
                got = sampling.logpost_x_row(4, 4, moved, *args[3:], **kw)
                np.testing.assert_allclose(got, predicted, rtol=1e-10)


class TestConjugateDraws:
    scalar_conf = ConfidenceParams(1.0, 0.01)

    def test_mean_equals_map_update_bitwise(self):
        rng = np.random.default_rng(4)
        V = rng.normal(size=(8, 3))
        rated = np.array([1, 5])
        draw = sampling.sample_u(V, rated, self.scalar_conf, 0.8, _ZeroNoise())
        np.testing.assert_array_equal(
            draw, mf.update_user(V, rated, self.scalar_conf, 0.8))

    def test_item_mean_equals_map_update_bitwise(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(6, 3))
        rated = np.array([0, 2])
        enc = rng.normal(size=3)
        draw = sampling.sample_v(U, rated, self.scalar_conf, 2.0, enc, _ZeroNoise())
        np.testing.assert_array_equal(
            draw, mf.update_item(U, rated, self.scalar_conf, 2.0, enc))

    @pytest.mark.parametrize("b", [0.0, 0.01])
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_draw_covariance_is_inverse_precision(self, k, b):
        # a draw is affine in its K + c normals, x = mean + M z: basis-vector
        # normals give M column by column, and M M^T must be A^-1
        rng = np.random.default_rng(11 + k + int(100 * b))
        conf = ConfidenceParams(1.0, b)
        eps = np.finfo(np.float64).eps
        F = rng.normal(size=(2 * k + 7, k))
        enc = rng.normal(size=k)
        for c in sorted({0, 1, max(k - 1, 0), k, k + 1}):
            rated = rng.choice(len(F), size=c, replace=False)
            for draw, (A, _) in [
                    (lambda r: sampling.sample_u(F, rated, conf, 0.8, r),
                     mf._user_system(F, rated, conf, 0.8)),
                    (lambda r: sampling.sample_v(F, rated, conf, 2.0, enc, r),
                     mf._item_system(F, rated, conf, 2.0, enc))]:
                mean = draw(_ZeroNoise())
                M = np.column_stack([draw(_BasisNoise(n)) - mean for n in range(k + c)])
                exact = np.linalg.inv(A)
                tol = 16 * np.linalg.cond(A) * eps * np.linalg.norm(exact, 2)
                assert np.linalg.norm(M @ M.T - exact, 2) <= tol

    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_block_draws_equal_per_row_draws_bitwise(self, k):
        # user counts 0 .. 2k + 1 and items drawn by a Zipf law, so both
        # blocks hold rows with no rating and counts on both sides of k; one
        # count group overflows a chunk
        rng = np.random.default_rng(40 + k)
        user_counts = [c for c in range(2 * k + 2) for _ in range(2)]
        user_counts += [1] * (mf.CHUNK_ROWS + 3)
        num_items = 40 * k + 300
        zipf = 1.0 / np.arange(1, num_items + 1)
        pairs = [(i, int(j)) for i, c in enumerate(user_counts)
                 for j in rng.choice(num_items, c, replace=False, p=zipf / zipf.sum())]
        ratings = data.RatingsMatrix(len(user_counts), num_items, pairs)
        item_counts = np.diff(ratings._item_ptr)
        assert (item_counts == 0).any() and (item_counts >= k).any()
        assert ((0 < item_counts) & (item_counts < k)).any() or k == 1
        conf = ConfidenceParams(1.0, 0.01)
        U = rng.normal(size=(ratings.num_users, k))
        V = rng.normal(size=(num_items, k))
        codes = rng.normal(size=V.shape)
        block = mf._sweep(V, *mf._user_rows(ratings), conf, 0.8,
                          rng=np.random.default_rng(7))
        one = np.random.default_rng(7)
        rows = [sampling.sample_u(V, ratings.items_of(i), conf, 0.8, one)
                for i in range(ratings.num_users)]
        assert block.tobytes() == np.array(rows).tobytes()
        block = mf._sweep(U, *mf._item_rows(ratings), conf, 2.0, codes,
                          np.random.default_rng(8))
        one = np.random.default_rng(8)
        rows = [sampling.sample_v(U, ratings.users_of(j), conf, 2.0, codes[j], one)
                for j in range(num_items)]
        assert block.tobytes() == np.array(rows).tobytes()

    def test_scalar_user_monte_carlo_mean(self):
        # K=1 case with closed-form mean 1/2.01 = 0.497512...
        V = np.array([[1.0], [1.0]])
        rated = np.array([0])
        rng = np.random.default_rng(6)
        n = 100_000
        draws = np.array([
            sampling.sample_u(V, rated, self.scalar_conf, 1.0, rng)[0]
            for _ in range(n)
        ])
        precision = 1.0 + 0.01 * 2.0 + 0.99 * 1.0
        se = precision ** -0.5 / math.sqrt(n)
        assert abs(draws.mean() - 1.0 / 2.01) < 4 * se

    def test_scalar_item_monte_carlo_mean(self):
        # closed-form mean 0.75 from the single-user case
        U = np.array([[1.0]])
        rated = np.array([0])
        enc = np.array([0.5])
        rng = np.random.default_rng(7)
        n = 100_000
        draws = np.array([
            sampling.sample_v(U, rated, self.scalar_conf, 1.0, enc, rng)[0]
            for _ in range(n)
        ])
        se = 2.0 ** -0.5 / math.sqrt(n)
        assert abs(draws.mean() - 0.75) < 4 * se

    def test_no_ratings_item_mean_is_encoding(self):
        rng = np.random.default_rng(8)
        U = rng.normal(size=(4, 2))
        enc = np.array([0.2, -0.7])
        draw = sampling.sample_v(U, np.array([], dtype=int),
                                 ConfidenceParams(1.0, 0.0), 3.0, enc, _ZeroNoise())
        np.testing.assert_allclose(draw, enc)

    def test_huge_lambda_u_concentrates_at_zero(self):
        rng = np.random.default_rng(9)
        V = rng.normal(size=(5, 2))
        lam = 1e6
        draws = np.array([
            sampling.sample_u(V, np.array([0, 1]), self.scalar_conf, lam, rng)
            for _ in range(2000)
        ])
        assert draws.var(axis=0).max() < 2.0 / lam

    def test_empirical_covariance_matches_inverse_precision(self):
        rng = np.random.default_rng(10)
        V = rng.normal(size=(7, 3))
        rated = np.array([0, 3, 4])
        lam = 0.6
        A, _ = mf._user_system(V, rated, self.scalar_conf, lam)
        exact = np.linalg.inv(A)
        n = 100_000
        draws = np.empty((n, 3))
        for t in range(n):
            draws[t] = sampling.sample_u(V, rated, self.scalar_conf, lam, rng)
        emp = np.cov(draws.T)
        assert np.abs(emp - exact).max() < 0.05 * np.abs(exact).max()


class TestMetropolisKernel:
    def test_detailed_balance_symmetry(self):
        rng = np.random.default_rng(11)
        x_prev = rng.random((6, 3))
        x_col = rng.random(6)

        def density(w):  # (log density, gradient) of one column, as one-row arrays
            return sampling._w_col_density(w, x_prev, x_col, 0.5, 2.0)

        for _ in range(10):
            x = rng.normal(size=(1, 4))
            y = rng.normal(size=(1, 4))
            fwd = sampling._log_ratio(x, density(x), y, density(y), 0.3)
            rev = sampling._log_ratio(y, density(y), x, density(x), 0.3)
            np.testing.assert_allclose(fwd, -rev, rtol=1e-10, atol=1e-10)

    def test_vanishing_proposal_scale_accepts_and_freezes_state(self):
        ratings, content = tiny_chain_data()
        hyper = chain_hyper()
        root = np.random.SeedSequence(0)
        net = sdae.init_network(hyper.widths, root.spawn(1)[0], hyper.lambda_w)
        x0 = data.corrupt(content, 0.3, 1)
        trace = sdae.forward(net, x0)
        layers = [x0.matrix.toarray()] + [o.copy() for o in trace[1:]]
        state = sampling.SamplerState(
            net=net, layers=layers,
            U=np.zeros((5, 2)), V=layers[net.middle].copy(),
            steps={f"{kind}{l}": 1e-12 for kind in "wx" for l in range(1, 5)},
        )
        before_w = [w.copy() for w in net.weights]
        before_x = [x.copy() for x in layers]
        counts = sampling.mwg_step(state, ratings, content.toarray(), hyper,
                                   np.random.default_rng(2), blocks=("w", "x"))
        for acc, prop in counts.values():
            assert acc == prop
        for a, b in zip(before_w, state.net.weights):
            np.testing.assert_allclose(a, b, atol=1e-9)
        for a, b in zip(before_x, state.layers):
            np.testing.assert_allclose(a, b, atol=1e-9)


    def test_each_proposal_evaluates_its_conditional_twice(self, monkeypatch):
        # each block's density is evaluated twice per scan, over all of the
        # block's rows each time: 2 x proposed rows
        ratings, content = tiny_chain_data()
        hyper = chain_hyper()
        net = sdae.init_network(hyper.widths, np.random.SeedSequence(0), hyper.lambda_w)
        x0 = data.corrupt(content, 0.3, 1)
        layers = [x0.matrix.toarray()] + [o.copy() for o in
                                          sdae.forward(net, x0)[1:]]
        state = sampling.SamplerState(
            net=net, layers=layers, U=np.zeros((5, 2)), V=layers[net.middle].copy(),
            steps={f"{kind}{l}": 0.1 for kind in "wx" for l in range(1, 5)})
        rows = {"w": [], "x": []}  # rows evaluated, per call

        def counted(kind, density, position):
            def wrapped(*args, **kwargs):
                rows[kind].append(len(args[position]))
                return density(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sampling, "_w_col_density",
                            counted("w", sampling._w_col_density, 0))
        monkeypatch.setattr(sampling, "_x_row_density",
                            counted("x", sampling._x_row_density, 2))
        counts = sampling.mwg_step(state, ratings, content.toarray(), hyper,
                                   np.random.default_rng(3), blocks=("w", "x"))
        for kind in "wx":
            proposed = [prop for block, (_, prop) in counts.items()
                        if block.startswith(kind)]
            assert len(proposed) == 4 and all(proposed)
            assert rows[kind] == [p for p in proposed for _ in range(2)]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_langevin_kernel_leaves_gaussian_invariant(self, seed):
        # start 4000 independent points at draws from N(mu, P^-1) and take 5
        # kernel steps, all points as one block: they must still follow the
        # target
        mu = np.array([1.0, -2.0, 0.5])
        P = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, 0.3], [0.0, 0.3, 0.5]])
        cov = np.linalg.inv(P)

        def density(X):
            d = X - mu
            return -0.5 * np.einsum("ij,jk,ik->i", d, P, d), -(d @ P)

        rng = np.random.default_rng(seed)
        n = 4000
        points = rng.multivariate_normal(mu, cov, size=n)
        for _ in range(5):
            accepted, proposed = sampling._mala_block(points, density, 0.8, rng)
            assert proposed == n and 0 < accepted < n
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(points.mean(axis=0) - mu) < 4 * se)
        np.testing.assert_allclose(points.var(axis=0, ddof=1), np.diag(cov), rtol=0.1)


class TestRunChain:
    def test_conjugate_only_chain_matches_closed_form(self):
        # with W and X frozen, the user draws are iid from the exact
        # conditional given the initial V
        ratings, content = tiny_chain_data()
        hyper = chain_hyper(seed=21)
        summary = sampling.run_chain(ratings, content, hyper,
                                     iters=2200, burn_in=200, thin=1,
                                     blocks=("u",))
        # reproduce the initial V (codes of the corrupted input)
        root = np.random.SeedSequence(hyper.seed)
        net_seed, noise_seed, _ = root.spawn(3)
        net = sdae.init_network(hyper.network_widths(6), net_seed, hyper.lambda_w)
        x0 = data.corrupt(content, hyper.noise_level, noise_seed)
        V = sdae.encode(net, x0)
        conf = hyper.confidence()
        n = len(summary.kept_U)
        for i in range(ratings.num_users):
            mean = mf.update_user(V, ratings.items_of(i), conf, hyper.lambda_u)
            A, _ = mf._user_system(V, ratings.items_of(i), conf, hyper.lambda_u)
            sd = np.sqrt(np.diag(np.linalg.inv(A)))
            emp = summary.kept_U[:, i, :].mean(axis=0)
            assert np.all(np.abs(emp - mean) < 4 * sd / math.sqrt(n))

    @pytest.mark.parametrize("users, items", [(4, 0), (0, 3)])
    def test_ratings_without_users_or_items_rejected(self, monkeypatch, users, items):
        # unchecked, the chain burns in, then its tracked reads of U[0, 0]
        # and V[0, 0] raise an IndexError
        hyper = chain_hyper()
        ratings = data.RatingsMatrix(users, items, np.empty((0, 2)))
        content = data.ContentMatrix(np.zeros((items, 6)), data.RAW)

        def unreachable(*args, **kwargs):
            raise AssertionError("the chain started")

        monkeypatch.setattr(sampling, "mwg_step", unreachable)
        with pytest.raises(ValidationError, match=f"got {users} users x {items} items$"):
            sampling.run_chain(ratings, content, hyper, iters=4, burn_in=2)

    def test_fixed_seed_identical_summary(self):
        ratings, content = tiny_chain_data()
        hyper = chain_hyper(seed=23)
        a = sampling.run_chain(ratings, content, hyper, iters=60, burn_in=30, thin=2)
        b = sampling.run_chain(ratings, content, hyper, iters=60, burn_in=30, thin=2)
        for name in a.tracked:
            np.testing.assert_array_equal(a.tracked[name], b.tracked[name])
        assert a.acceptance == b.acceptance
        assert a.step_sizes == b.step_sizes
        np.testing.assert_array_equal(a.kept_U, b.kept_U)

    def test_posterior_means_finite(self):
        ratings, content = tiny_chain_data()
        summary = sampling.run_chain(ratings, content, chain_hyper(seed=25),
                                     iters=80, burn_in=40, thin=2)
        for value in summary.posterior_mean.values():
            assert math.isfinite(value)
        assert len(summary.iterations) == 20
        assert all(0.0 <= r <= 1.0 for r in summary.acceptance.values())

    def test_requires_finite_lambda_s(self):
        ratings, content = tiny_chain_data()
        with pytest.raises(ArgumentError, match="lambda_s"):
            sampling.run_chain(ratings, content, chain_hyper(lambda_s=math.inf),
                               iters=10, burn_in=5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case, error, match", [
        ("5 content items", ShapeError, "content has 5 items, ratings 8"),
        ("11 content items", ShapeError, "content has 11 items, ratings 8"),
        ("lambda_n", ArgumentError, "lambda_n must be finite"),
        ("lambda_u", ArgumentError, "lambda_u must be finite"),
        ("lambda_v", ArgumentError, "lambda_v must be finite"),
        ("lambda_w", ArgumentError, "lambda_w must be finite"),
        ("conf_a", ArgumentError, "conf_a must be finite"),
    ])
    def test_bad_inputs_rejected_before_the_network_is_drawn(self, monkeypatch, case,
                                                             error, match):
        # the MAP fits' input checks; unchecked, too few content items end
        # in an IndexError, too many in a ShapeError after burn-in, an
        # infinite lambda_n in a chain of -inf log joints, and the other
        # infinite values in numpy warnings and unnamed numeric errors
        hyper = chain_hyper()
        ratings, content, *_ = data.generate_synthetic(5, 8, 6, 2, hyper, seed=5,
                                                       widths=hyper.widths)
        dense = content.toarray()
        if case == "5 content items":
            content = data.ContentMatrix(dense[:5], data.RAW)
        elif case == "11 content items":
            content = data.ContentMatrix(np.vstack([dense, dense[:3]]), data.RAW)
        else:
            hyper = dataclasses.replace(hyper, **{case: math.inf})

        def unreachable(*args, **kwargs):
            raise AssertionError("the chain started")

        monkeypatch.setattr(sdae, "init_network", unreachable)
        monkeypatch.setattr(sampling, "mwg_step", unreachable)
        with pytest.raises(error, match=match):
            sampling.run_chain(ratings, content, hyper, iters=4, burn_in=2)

    @pytest.mark.parametrize("shape", ["criterion-8", "chain-M"])
    def test_chain_starts_on_the_layer_map(self, monkeypatch, shape):
        # each starting layer is sdae's sigmoid of the layer before, bit for
        # bit, so every residual x_l - sigmoid(x_{l-1} W_l + b_l) is exactly 0
        if shape == "chain-M":
            ratings, content, hyper = chain_m_inputs(1)
        else:
            ratings, content = tiny_chain_data(seed=5)
            hyper = chain_hyper(seed=11)
        scan, starts = sampling.mwg_step, []

        def first_scan(state, *args, **kwargs):
            starts.append(copy.deepcopy(state))
            return scan(state, *args, **kwargs)

        monkeypatch.setattr(sampling, "mwg_step", first_scan)
        sampling.run_chain(ratings, content, hyper, iters=2, burn_in=1)
        start = starts[0]
        net = start.net
        assert isinstance(start.layers[0], np.ndarray)
        for l in range(1, net.num_layers + 1):
            mean = sdae._sigmoid(start.layers[l - 1] @ net.weights[l - 1] + net.biases[l - 1])
            assert start.layers[l].tobytes() == mean.tobytes()

    def test_iters_must_exceed_burn_in(self):
        ratings, content = tiny_chain_data()
        with pytest.raises(ArgumentError):
            sampling.run_chain(ratings, content, chain_hyper(), iters=5, burn_in=5)

    @pytest.mark.parametrize("iters", [0, 4])
    def test_negative_burn_in_rejected(self, iters):
        # a negative burn-in would keep no scan at iters 0 and shift the
        # kept scans otherwise
        ratings, content = tiny_chain_data()
        with pytest.raises(ArgumentError, match="burn_in must be non-negative"):
            sampling.run_chain(ratings, content, chain_hyper(), iters=iters, burn_in=-1)

    def test_thin_below_one_rejected(self):
        ratings, content = tiny_chain_data()
        with pytest.raises(ArgumentError, match="^thin must be at least 1$"):
            sampling.run_chain(ratings, content, chain_hyper(), iters=4, burn_in=1, thin=0)

    def test_unknown_block_rejected(self):
        # a misspelt block would otherwise run a chain in which nothing moves
        ratings, content = tiny_chain_data()
        with pytest.raises(ArgumentError, match="unknown block 'U'"):
            sampling.run_chain(ratings, content, chain_hyper(), iters=4, burn_in=1,
                               blocks=("U",))
        state, rng = initial_state(ratings, content, chain_hyper())
        with pytest.raises(ArgumentError, match="unknown block 'x1'"):
            sampling.mwg_step(state, ratings, content.toarray(), chain_hyper(), rng,
                              blocks=("w", "x1"))

    def test_scan_draws_factors_through_the_public_sweeps(self, monkeypatch):
        # one item sweep, then one user sweep, each given the ratings as its
        # second argument, as a caller counting rows reads it
        ratings, content = tiny_chain_data()
        hyper = chain_hyper()
        state, rng = initial_state(ratings, content, hyper)
        calls = []
        for name in ("sweep_users", "sweep_items"):
            def counted(*args, real=getattr(mf, name), name=name):
                calls.append((name, args[1]))
                return real(*args)

            monkeypatch.setattr(mf, name, counted)
        sampling.mwg_step(state, ratings, content.toarray(), hyper, rng)
        assert calls == [("sweep_items", ratings), ("sweep_users", ratings)]

    def test_pinned_acceptance_warns(self):
        # a huge frozen step rejects everything, which must surface as a
        # diagnostics warning
        ratings, content = tiny_chain_data()
        summary = sampling.run_chain(ratings, content, chain_hyper(seed=31),
                                     iters=12, burn_in=1, thin=1,
                                     initial_step=1e6)
        assert any(rate == 0.0 for rate in summary.acceptance.values())
        assert summary.warnings
        assert any("pinned" in w for w in summary.warnings)

    def test_chain_tsv_written(self, tmp_path):
        ratings, content = tiny_chain_data()
        summary = sampling.run_chain(ratings, content, chain_hyper(seed=27),
                                     iters=40, burn_in=20, thin=4)
        path = tmp_path / "chain.tsv"
        summary.write_tsv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iteration\t")
        assert len(lines) == 1 + len(summary.iterations)


class TestLogJoint:
    def test_matches_direct_formula(self):
        ratings, content = tiny_chain_data()
        hyper = chain_hyper(seed=29)
        root = np.random.SeedSequence(0)
        net = sdae.init_network(hyper.widths, root.spawn(1)[0], hyper.lambda_w)
        x0 = data.corrupt(content, 0.3, 3)
        trace = sdae.forward(net, x0)
        rng = np.random.default_rng(31)
        layers = [x0.matrix.toarray()] + [o + 0.01 * rng.normal(size=o.shape)
                                          for o in trace[1:]]
        state = sampling.SamplerState(
            net=net, layers=layers,
            U=rng.normal(size=(5, 2)), V=rng.normal(size=(5, 2)),
        )
        got = sampling.log_joint(state, ratings, content.toarray(), hyper)
        expected = -0.5 * hyper.lambda_u * np.sum(state.U ** 2)
        expected += -0.5 * hyper.lambda_w * net.squared_norm()
        expected += -0.5 * hyper.lambda_v * np.sum((state.V - layers[2]) ** 2)
        expected += -0.5 * hyper.lambda_n * np.sum((content.toarray() - layers[4]) ** 2)
        for l in range(1, 5):
            mean = expit(layers[l - 1] @ net.weights[l - 1] + net.biases[l - 1])
            expected += -0.5 * hyper.lambda_s * np.sum((layers[l] - mean) ** 2)
        expected += mf.rating_objective(state.U, state.V, ratings, hyper.confidence())
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def row_w_col_density(w, x_prev, x_col, lambda_w, lambda_s):
    """(log density, gradient) of one weight column with its bias as last
    entry: the per-row form of sampling._w_col_density."""
    s = expit(x_prev @ w[:-1] + w[-1])
    resid = x_col - s
    back = lambda_s * resid * s * (1.0 - s)
    value = -0.5 * lambda_w * float(w @ w) - 0.5 * lambda_s * float(resid @ resid)
    return value, np.append(x_prev.T @ back, back.sum()) - lambda_w * w


def row_x_density(layer, num_layers, x, mean_in, lambda_s, w_out=None, b_out=None,
                  next_row=None, xc_row=None, lambda_n=None, v_row=None, lambda_v=None):
    """(log density, gradient) of one hidden row: the per-row form of
    sampling._x_row_density."""
    diff = x - mean_in
    value = -0.5 * lambda_s * float(diff @ diff)
    grad = -lambda_s * diff
    if layer == num_layers:
        diff = xc_row - x
        value += -0.5 * lambda_n * float(diff @ diff)
        grad += lambda_n * diff
    else:
        s = expit(x @ w_out + b_out)
        diff = next_row - s
        value += -0.5 * lambda_s * float(diff @ diff)
        grad += lambda_s * (w_out @ (diff * s * (1.0 - s)))
    if layer == num_layers // 2:
        diff = v_row - x
        value += -0.5 * lambda_v * float(diff @ diff)
        grad += lambda_v * diff
    return value, grad


def reference_mala_rows(rows, density_of, step, rng):
    """One Langevin Metropolis step per row, a row at a time, on the block
    kernel's draw order: every proposal's normals, then one uniform per row.
    Row i's density is ``density_of(i)``; returns the per-row decisions."""
    z = rng.standard_normal(rows.shape)
    u = rng.random(len(rows))
    moved = np.zeros(len(rows), dtype=bool)
    half = 0.5 * step * step
    for i in range(len(rows)):
        x = rows[i].copy()
        density = density_of(i)
        here = density(x)
        proposal = x + half * here[1] + step * z[i]
        there = density(proposal)
        fwd = proposal - x - half * here[1]
        rev = x - proposal - half * there[1]
        log_ratio = there[0] - here[0] + (float(fwd @ fwd) - float(rev @ rev)) / (2 * step * step)
        if log_ratio >= 0.0 or u[i] < math.exp(log_ratio):
            rows[i] = proposal
            moved[i] = True
    return moved


def reference_mwg_step(state, ratings, clean, hyper, rng, blocks=("w", "x", "v", "u"),
                       decisions=None):
    """The scan as a loop over rows: each weight column copied out with its
    bias and written back when accepted, each hidden row's density built
    alone.  Appends each Metropolis block's per-row decisions to
    ``decisions``."""
    net = state.net
    L = net.num_layers
    mid = net.middle
    conf = hyper.confidence()
    lam_s = hyper.lambda_s
    decisions = [] if decisions is None else decisions
    counts = {}
    if "w" in blocks:
        for l in range(1, L + 1):
            W, b = net.weights[l - 1], net.biases[l - 1]
            x_prev, x_cur = state.layers[l - 1], state.layers[l]
            cols = np.column_stack([W.T, b])
            moved = reference_mala_rows(
                cols, lambda n: lambda w: row_w_col_density(w, x_prev, x_cur[:, n],
                                                            hyper.lambda_w, lam_s),
                state.steps[f"w{l}"], rng)
            for n in np.flatnonzero(moved):
                W[:, n] = cols[n, :-1]
                b[n] = cols[n, -1]
            decisions.append(moved)
            counts[f"w{l}"] = (int(moved.sum()), len(moved))
    if "x" in blocks:
        for l in range(1, L + 1):
            w_in, b_in = net.weights[l - 1], net.biases[l - 1]

            def density_of(j):
                if l == L:
                    kw = {"xc_row": clean[j], "lambda_n": hyper.lambda_n}
                else:
                    kw = {"w_out": net.weights[l], "b_out": net.biases[l],
                          "next_row": state.layers[l + 1][j]}
                if l == mid:
                    kw.update(v_row=state.V[j], lambda_v=hyper.lambda_v)
                mean_in = expit(state.layers[l - 1][j] @ w_in + b_in)
                return lambda x: row_x_density(l, L, x, mean_in, lam_s, **kw)

            moved = reference_mala_rows(state.layers[l], density_of,
                                        state.steps[f"x{l}"], rng)
            decisions.append(moved)
            counts[f"x{l}"] = (int(moved.sum()), len(moved))
    if "v" in blocks:
        state.V = mf._sweep(state.U, *mf._item_rows(ratings), conf,
                            hyper.lambda_v, priors=state.layers[mid], rng=rng)
    if "u" in blocks:
        state.U = mf._sweep(state.V, *mf._user_rows(ratings), conf,
                            hyper.lambda_u, rng=rng)
    return counts


def initial_state(ratings, content, hyper, initial_step=0.1):
    """run_chain's starting state, and its chain generator."""
    root = np.random.SeedSequence(hyper.seed)
    net_seed, noise_seed, chain_seed = root.spawn(3)
    net = sdae.init_network(hyper.network_widths(content.vocab_size), net_seed,
                            hyper.lambda_w)
    x0 = data.corrupt(content, hyper.noise_level, noise_seed)
    layers = [x0.matrix.toarray()] + sdae.forward(net, x0)[1:]
    state = sampling.SamplerState(
        net=net, layers=layers,
        U=np.zeros((ratings.num_users, hyper.n_factors)),
        V=layers[net.middle].copy(),
        steps={f"{kind}{l}": initial_step
               for kind in "wx" for l in range(1, net.num_layers + 1)},
    )
    return state, np.random.default_rng(chain_seed)


def reference_run_chain(ratings, content, hyper, iters, burn_in, thin=1,
                        blocks=("w", "x", "v", "u"), initial_step=0.1, decisions=None):
    """The chain as one loop over all scans, on the reference scan."""
    state, rng = initial_state(ratings, content, hyper, initial_step)
    net = state.net
    clean = content.toarray()
    post_counts = {}
    adapt_counts = {}
    kept_iters = []
    tracked = {name: [] for name in
               ("u_0_0", "v_0_0", "w1_0_0", "x_mid_0_0", "log_joint")}
    running = {}
    kept_U, kept_V = [], []
    for it in range(iters):
        counts = reference_mwg_step(state, ratings, clean, hyper, rng, blocks=blocks,
                                    decisions=decisions)
        totals = adapt_counts if it < burn_in else post_counts
        for block, (acc, prop) in counts.items():
            tot = totals.setdefault(block, [0, 0])
            tot[0] += acc
            tot[1] += prop
        if it < burn_in:
            if (it + 1) % sampling.ADAPT_INTERVAL == 0 or it + 1 == burn_in:
                window = it // sampling.ADAPT_INTERVAL
                for block, (acc, prop) in adapt_counts.items():
                    sampling._adapt(state.steps, block, acc, prop, window)
                adapt_counts = {}
        elif (it - burn_in) % thin == 0:
            kept_iters.append(it)
            tracked["u_0_0"].append(state.U[0, 0])
            tracked["v_0_0"].append(state.V[0, 0])
            tracked["w1_0_0"].append(state.net.weights[0][0, 0])
            tracked["x_mid_0_0"].append(state.layers[net.middle][0, 0])
            tracked["log_joint"].append(sampling.log_joint(state, ratings, clean, hyper))
            kept_U.append(state.U.copy())
            kept_V.append(state.V.copy())
            for block, (acc, prop) in post_counts.items():
                running.setdefault(block, []).append(acc / prop if prop else 0.0)
    acceptance = {block: (acc / prop if prop else 0.0)
                  for block, (acc, prop) in post_counts.items()}
    warnings = [
        f"block {block} acceptance pinned at {rate:.2f} after adaptation"
        for block, rate in acceptance.items() if rate <= 0.0 or rate >= 1.0
    ]
    tracked = {name: np.asarray(vals) for name, vals in tracked.items()}
    return sampling.ChainSummary(
        tracked=tracked,
        kept_U=np.asarray(kept_U),
        kept_V=np.asarray(kept_V),
        acceptance=acceptance,
        running_acceptance={b: np.asarray(v) for b, v in running.items()},
        step_sizes=dict(state.steps),
        posterior_mean={n: float(v.mean()) for n, v in tracked.items()},
        posterior_var={n: float(v.var(ddof=1)) if len(v) > 1 else 0.0
                       for n, v in tracked.items()},
        warnings=warnings,
        iterations=np.asarray(kept_iters),
    )


def assert_close(a, b, tol=1e-12):
    """Equal structure, types and integers; floats and float arrays equal
    within ``tol``, relative or absolute; dicts down to key order."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray) and a.dtype.kind == "f":
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_close(a[key], b[key], tol)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_close(x, y, tol)
    elif isinstance(a, float):
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol)
    else:
        assert a == b


def assert_same_state(new, ref):
    for name in ("layers", "U", "V", "steps"):
        assert_close(getattr(new, name), getattr(ref, name))
    assert_close(new.net.weights, ref.net.weights)
    assert_close(new.net.biases, ref.net.biases)


@pytest.fixture
def block_decisions(monkeypatch):
    """Each _mala_block call's per-row decisions, read as the rows it
    changed (a proposal equal to its row has probability 0)."""
    decided = []
    block = sampling._mala_block

    def recorded(rows, density, step, rng):
        before = rows.copy()
        counts = block(rows, density, step, rng)
        decided.append((rows != before).any(axis=1))
        return counts

    monkeypatch.setattr(sampling, "_mala_block", recorded)
    return decided


def assert_same_decisions(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


CHAIN_BLOCKS = [("w", "x", "v", "u"), ("w", "x"), ("u",)]
CHAIN_M_HYPER = dict(lambda_u=1.0, lambda_v=10.0, lambda_n=100.0, lambda_w=1.0,
                     lambda_s=100.0, conf_a=1.0, conf_b=0.01, n_factors=5)
CHAIN_M_WIDTHS = (50, 20, 5, 20, 50)


def chain_m_inputs(seed):
    """The benchmark's sampler shape: 100 users x 150 items x 50 words,
    widths 50-20-5-20-50, K = 5."""
    ratings, content, *_ = data.generate_synthetic(
        100, 150, 50, 5, HyperParams(**CHAIN_M_HYPER, seed=seed), seed=seed,
        widths=CHAIN_M_WIDTHS)
    train, _, _ = data.split(ratings, data.SplitSpec(P=10, seed=seed))
    hyper = HyperParams(**CHAIN_M_HYPER, widths=CHAIN_M_WIDTHS, noise_level=0.3,
                        dropout_rate=0.0, seed=seed)
    return train, content, hyper


class TestBatchedDensities:
    """The batched conditionals equal the per-row forms row by row."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_match_per_row_forms_at_chain_m_shape(self, seed):
        ratings, content, hyper = chain_m_inputs(seed)
        state, rng = initial_state(ratings, content, hyper)
        net, layers, L = state.net, state.layers, state.net.num_layers
        clean = content.toarray()
        for l in range(1, L + 1):
            W, b = net.weights[l - 1], net.biases[l - 1]
            cols = np.column_stack([W.T, b]) + 0.1 * rng.standard_normal((len(b), len(W) + 1))
            values, grads = sampling._w_col_density(cols, layers[l - 1], layers[l],
                                                    hyper.lambda_w, hyper.lambda_s)
            for n, col in enumerate(cols):
                value, grad = row_w_col_density(col, layers[l - 1], layers[l][:, n],
                                                hyper.lambda_w, hyper.lambda_s)
                np.testing.assert_allclose(values[n], value, rtol=1e-12)
                np.testing.assert_allclose(grads[n], grad, rtol=1e-12, atol=1e-12)

            X = layers[l] + 0.1 * rng.standard_normal(layers[l].shape)
            mean_in = expit(layers[l - 1] @ W + b)
            kw = ({"xc_row": clean, "lambda_n": hyper.lambda_n} if l == L else
                  {"w_out": net.weights[l], "b_out": net.biases[l], "next_row": layers[l + 1]})
            if l == net.middle:
                kw.update(v_row=state.V + 0.1, lambda_v=hyper.lambda_v)
            values, grads = sampling._x_row_density(l, L, X, mean_in, hyper.lambda_s, **kw)
            for j, x in enumerate(X):
                row_kw = {k: v[j] if k in ("next_row", "xc_row", "v_row") else v
                          for k, v in kw.items()}
                value, grad = row_x_density(l, L, x, mean_in[j], hyper.lambda_s, **row_kw)
                np.testing.assert_allclose(values[j], value, rtol=1e-12)
                np.testing.assert_allclose(grads[j], grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sparse_clean_content_gives_the_dense_bits(self, seed):
        # run_chain keeps the clean content sparse; the last layer's density
        # and log_joint subtract it at its stored entries, with the same bits
        ratings, content, hyper = chain_m_inputs(seed)
        state, rng = initial_state(ratings, content, hyper)
        net, L = state.net, state.net.num_layers
        state.U = rng.standard_normal(state.U.shape)
        state.layers[L] += 0.1 * rng.standard_normal(state.layers[L].shape)
        mean_in = sdae._layer(state.layers[L - 1], net.weights[-1], net.biases[-1])
        sparse, dense = (sampling._x_row_density(L, L, state.layers[L], mean_in,
                                                 hyper.lambda_s, xc_row=clean,
                                                 lambda_n=hyper.lambda_n)
                         for clean in (content.matrix, content.toarray()))
        for a, b in zip(sparse, dense):
            assert a.tobytes() == b.tobytes()
        assert (sampling.log_joint(state, ratings, content.matrix, hyper)
                == sampling.log_joint(state, ratings, content.toarray(), hyper))

    def test_any_non_finite_column_raises(self):
        rng = np.random.default_rng(3)
        cols = rng.normal(size=(4, 3))
        cols[2, 1] = np.nan
        with pytest.raises(NumericError, match="non-finite weight column"):
            sampling._w_col_density(cols, rng.random((6, 2)), rng.random((6, 4)), 1.0, 1.0)


class TestAgainstReferenceLoops:
    """mwg_step and run_chain make the per-row loops' decisions, and their
    arrays within 1e-12: batched products are not bitwise per-row gemv."""

    @pytest.mark.parametrize("blocks", CHAIN_BLOCKS, ids="".join)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_scan_matches_reference(self, seed, blocks, block_decisions):
        ratings, content = tiny_chain_data(seed=seed)
        clean = content.toarray()
        hyper = chain_hyper(seed=seed)
        net = sdae.init_network(hyper.widths, np.random.SeedSequence(seed), hyper.lambda_w)
        x0 = data.corrupt(content, 0.3, seed)
        layers = [x0.matrix.toarray()] + sdae.forward(net, x0)[1:]
        steps = {f"{kind}{l}": step for kind in "wx"
                 for l, step in zip(range(1, 5), (0.05, 0.2, 0.5, 1.0))}
        states = [sampling.SamplerState(
            net=net.copy(), layers=[x.copy() for x in layers],
            U=np.zeros((ratings.num_users, 2)), V=layers[net.middle].copy(),
            steps=dict(steps)) for _ in range(2)]
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        for _ in range(4):
            expected = []
            block_decisions.clear()
            counts = [sampling.mwg_step(states[0], ratings, clean, hyper, rngs[0],
                                        blocks=blocks),
                      reference_mwg_step(states[1], ratings, clean, hyper, rngs[1],
                                         blocks=blocks, decisions=expected)]
            assert counts[0] == counts[1]
            assert_same_decisions(block_decisions, expected)
            assert_same_state(*states)
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        accepted = sum(acc for acc, _ in counts[0].values())
        proposed = sum(prop for _, prop in counts[0].values())
        if "w" in blocks:  # both outcomes of a proposal are exercised
            assert 0 < accepted < proposed

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scans_match_reference_at_chain_m_shape(self, seed, block_decisions):
        # 20 scans, adapting the steps every ADAPT_INTERVAL scans as burn-in does
        ratings, content, hyper = chain_m_inputs(seed)
        clean = content.toarray()
        (new, rng), (ref, ref_rng) = (initial_state(ratings, content, hyper, 0.05)
                                      for _ in range(2))
        totals, seen, window = {}, {}, 0
        for scan in range(1, 21):
            expected = []
            block_decisions.clear()
            counts = sampling.mwg_step(new, ratings, clean, hyper, rng)
            assert counts == reference_mwg_step(ref, ratings, clean, hyper, ref_rng,
                                                decisions=expected)
            assert_same_decisions(block_decisions, expected)
            assert_same_state(new, ref)
            for block, pair in counts.items():
                totals[block] = [t + c for t, c in zip(totals.get(block, (0, 0)), pair)]
                seen[block] = [t + c for t, c in zip(seen.get(block, (0, 0)), pair)]
            if scan % sampling.ADAPT_INTERVAL == 0:
                for block, (acc, prop) in totals.items():
                    sampling._adapt(new.steps, block, acc, prop, window)
                    sampling._adapt(ref.steps, block, acc, prop, window)
                totals, window = {}, window + 1
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(0 < acc < prop for acc, prop in seen.values())  # both outcomes

    @staticmethod
    def check_chain_scan_by_scan(monkeypatch, block_decisions, ratings, content):
        # criterion 8's hyperparameters and chain.  Before each of its 900
        # scans the per-row scan starts from copies of the chain's state and
        # generator.  Two chains run side by side drift apart instead: the
        # dynamics amplify rounding, from 1e-16 to 1e-5 in 200 scans.
        scan, checked = sampling.mwg_step, []

        def checked_scan(state, ratings, clean, hyper, rng, blocks):
            ref, ref_rng, expected = copy.deepcopy(state), copy.deepcopy(rng), []
            block_decisions.clear()
            counts = scan(state, ratings, clean, hyper, rng, blocks=blocks)
            # the chain's clean content is dense or CSR by its density; the
            # per-row scan reads dense rows
            dense = clean.toarray() if scipy.sparse.issparse(clean) else clean
            assert counts == reference_mwg_step(ref, ratings, dense, hyper,
                                                ref_rng, blocks=blocks, decisions=expected)
            assert_same_decisions(block_decisions, expected)
            assert_same_state(state, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            checked.append(counts)
            return counts

        monkeypatch.setattr(sampling, "mwg_step", checked_scan)
        sampling.run_chain(ratings, content, chain_hyper(seed=11),
                           iters=900, burn_in=600, thin=3)
        assert len(checked) == 900
        accepted = sum(acc for counts in checked for acc, _ in counts.values())
        proposed = sum(prop for counts in checked for _, prop in counts.values())
        assert 0 < accepted < proposed

    def test_criterion_8_chain_matches_reference_scan_by_scan(self, monkeypatch,
                                                               block_decisions):
        # criterion 8's data: content dense enough that the chain holds it
        # as a dense array
        ratings, content = tiny_chain_data(seed=5)
        assert isinstance(sdae._as_matrix(content), np.ndarray)
        self.check_chain_scan_by_scan(monkeypatch, block_decisions, ratings, content)

    def test_binary_content_chain_matches_reference_scan_by_scan(self, monkeypatch,
                                                                 block_decisions):
        # the same chain on binary content of density 1/2, which the chain
        # keeps as CSR and subtracts at its stored entries
        ratings, content = tiny_chain_data(seed=5)
        values = content.toarray()
        binary = data.ContentMatrix(values > np.median(values, axis=1, keepdims=True))
        assert binary.nnz == binary.num_items * binary.vocab_size // 2
        assert scipy.sparse.issparse(sdae._as_matrix(binary))
        self.check_chain_scan_by_scan(monkeypatch, block_decisions, ratings, binary)

    @pytest.mark.parametrize("blocks", CHAIN_BLOCKS, ids="".join)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("iters, burn_in, thin",
                             [(25, 11, 2), (14, 0, 3), (31, 20, 1), (23, 10, 3)])
    def test_chain_matches_reference(self, seed, blocks, iters, burn_in, thin,
                                     block_decisions):
        ratings, content = tiny_chain_data(seed=seed)
        args = (ratings, content, chain_hyper(seed=seed), iters, burn_in, thin, blocks)
        expected = []
        new, ref = sampling.run_chain(*args), reference_run_chain(*args, decisions=expected)
        assert_same_decisions(block_decisions, expected)
        for f in dataclasses.fields(sampling.ChainSummary):
            assert_close(getattr(new, f.name), getattr(ref, f.name))
