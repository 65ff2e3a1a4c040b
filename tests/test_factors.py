import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cdl import data, factors as mf, sampling
from cdl.exceptions import ArgumentError, NumericError, ShapeError, ValidationError
from cdl.factors import ConfidenceParams


def random_ratings(rng, num_users, num_items, density=0.3):
    mask = rng.random((num_users, num_items)) < density
    return data.RatingsMatrix(num_users, num_items, np.argwhere(mask))


class TestConfidence:
    def test_requires_a_greater_than_b(self):
        with pytest.raises(ValidationError):
            ConfidenceParams(0.5, 0.5)
        with pytest.raises(ValidationError):
            ConfidenceParams(1.0, -0.1)
        ConfidenceParams(1.0, 0.0)  # b = 0 is the observed-only limit


class TestUpdateUser:
    def test_scalar_normal_equation(self):
        # K=1, V=(1,1), observed item 0, a=1, b=0.01, lambda_u=1:
        # (1 + 0.01*2 + 0.99*1) u = 1  ->  u = 1/2.01
        V = np.array([[1.0], [1.0]])
        conf = ConfidenceParams(1.0, 0.01)
        u = mf.update_user(V, np.array([0]), conf, 1.0)
        np.testing.assert_allclose(u, [1.0 / 2.01])
        assert abs(u[0] - 0.497512) < 5e-7

    def test_no_ratings_b_zero_gives_zero(self):
        V = np.random.default_rng(0).normal(size=(6, 3))
        u = mf.update_user(V, np.array([], dtype=int), ConfidenceParams(1.0, 0.0), 2.0)
        np.testing.assert_array_equal(u, np.zeros(3))

    def test_matches_iterative_solver_oracle(self):
        rng = np.random.default_rng(1)
        conf = ConfidenceParams(1.0, 0.01)
        lam = 0.7
        for _ in range(5):
            V = rng.normal(size=(8, 3))
            rated = rng.choice(8, size=3, replace=False)
            u = mf.update_user(V, rated, conf, lam)

            liked = set(int(j) for j in rated)

            def neg_obj(x):
                val = 0.5 * lam * x @ x
                grad = lam * x.copy()
                for j in range(8):
                    c = conf.a if j in liked else conf.b
                    r = 1.0 if j in liked else 0.0
                    e = x @ V[j] - r
                    val += 0.5 * c * e * e
                    grad += c * e * V[j]
                return val, grad

            res = scipy.optimize.minimize(neg_obj, np.zeros(3), jac=True,
                                          method="L-BFGS-B",
                                          options={"gtol": 1e-12, "ftol": 0.0})
            np.testing.assert_allclose(u, res.x, atol=1e-6)

    def test_block_optimality(self):
        rng = np.random.default_rng(2)
        conf = ConfidenceParams(2.0, 0.05)
        for _ in range(10):
            V = rng.normal(size=(10, 4))
            rated = rng.choice(10, size=4, replace=False)
            lam = float(rng.uniform(0.1, 3.0))
            u = mf.update_user(V, rated, conf, lam)
            grad = mf.user_gradient(u, V, rated, conf, lam)
            _, rhs = mf._user_system(V, rated, conf, lam)
            assert np.linalg.norm(grad) < 1e-8 * (1.0 + np.linalg.norm(rhs))

    def test_nonfinite_input_raises(self):
        V = np.array([[np.nan], [1.0]])
        with pytest.raises(NumericError):
            mf.update_user(V, np.array([0]), ConfidenceParams(1.0, 0.01), 1.0)


class TestUpdateItem:
    def test_scalar_normal_equation(self):
        # one user u=1 who rated the item, a=1, lambda_v=1, encoding 0.5:
        # (1 + 1) v = 1 + 0.5  ->  v = 0.75
        U = np.array([[1.0]])
        conf = ConfidenceParams(1.0, 0.01)
        v = mf.update_item(U, np.array([0]), conf, 1.0, np.array([0.5]))
        np.testing.assert_allclose(v, [0.75])

    def test_no_ratings_b_zero_returns_encoding(self):
        U = np.random.default_rng(3).normal(size=(5, 2))
        enc = np.array([0.3, -0.4])
        v = mf.update_item(U, np.array([], dtype=int), ConfidenceParams(1.0, 0.0), 1.5, enc)
        np.testing.assert_allclose(v, enc)

    def test_huge_lambda_v_pins_to_encoding(self):
        rng = np.random.default_rng(4)
        U = rng.normal(size=(20, 3))
        enc = rng.normal(size=3)
        v = mf.update_item(U, np.arange(10), ConfidenceParams(1.0, 0.01), 1e8, enc)
        assert np.linalg.norm(v - enc) < 1e-6

    def test_b_zero_is_ridge_over_observed(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(9, 3))
        rated = np.array([1, 4, 7])
        lam = 0.9
        enc = rng.normal(size=3)
        v = mf.update_item(U, rated, ConfidenceParams(1.0, 0.0), lam, enc)
        Uo = U[rated]
        expected = np.linalg.solve(Uo.T @ Uo + lam * np.eye(3),
                                   Uo.sum(axis=0) + lam * enc)
        np.testing.assert_allclose(v, expected, atol=1e-12)


class TestPredict:
    def test_orthogonal_zero(self):
        assert mf.predict(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_dot_product_by_hand(self):
        assert mf.predict(np.array([0.5, 0.5]), np.array([1.0, 1.0])) == 1.0

    def test_new_item_equals_predict_with_encoding(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=4)
        enc = rng.normal(size=4)
        assert mf.predict_new_item(u, enc) == mf.predict(u, enc)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            mf.predict(np.zeros(2), np.zeros(3))


class TestShapes:
    def test_factors_of_different_widths_rejected(self):
        with pytest.raises(ShapeError, match=r"^factor shapes \(2, 3\) and \(4, 2\) do not "
                                             "share a width$"):
            mf.LatentFactors(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_encoding_of_another_width_rejected(self):
        U = np.ones((3, 2))
        with pytest.raises(ShapeError, match=r"^encoding width \(3,\) != \(2,\)$"):
            mf.update_item(U, [0, 2], ConfidenceParams(1.0, 0.01), 1.0, np.zeros(3))

    def test_encodings_of_another_shape_rejected(self):
        ratings = data.RatingsMatrix(3, 4, [[0, 1], [2, 3]])
        with pytest.raises(ShapeError, match=r"^encodings shape \(3, 2\) != \(4, 2\)$"):
            mf.sweep_items(np.ones((3, 2)), ratings, ConfidenceParams(1.0, 0.01), 1.0,
                           np.zeros((3, 2)))

    @pytest.mark.parametrize("U, V, message", [
        (np.zeros((2, 2)), np.zeros((4, 2)), "factor row counts do not match the ratings matrix"),
        (np.zeros((3, 2)), np.zeros((2, 2)), "factor row counts do not match the ratings matrix"),
        (np.zeros((3, 2)), np.zeros((4, 3)), "factor widths differ"),
    ], ids=["users", "items", "widths"])
    def test_rating_objective_checks_the_factor_shapes(self, U, V, message):
        ratings = data.RatingsMatrix(3, 4, [[0, 1], [2, 3]])
        with pytest.raises(ShapeError, match=f"^{message}$"):
            mf.rating_objective(U, V, ratings, ConfidenceParams(1.0, 0.01))


class TestRatingObjective:
    def test_single_observed_rating_zero_factors(self):
        ratings = data.RatingsMatrix(1, 1, [[0, 0]])
        val = mf.rating_objective(np.zeros((1, 2)), np.zeros((1, 2)),
                                  ratings, ConfidenceParams(1.0, 0.01))
        assert val == -0.5

    def test_perfect_reconstruction_b_zero(self):
        # u.v = 1 on every pair, so observed residuals vanish and b = 0
        # removes the unobserved ones
        rng = np.random.default_rng(7)
        ratings = random_ratings(rng, 4, 6, density=0.4)
        U = np.full((4, 2), 0.5)
        V = np.ones((6, 2))
        val = mf.rating_objective(U, V, ratings, ConfidenceParams(1.0, 0.0))
        assert val == 0.0

    def test_empty_matrix_is_zero(self):
        ratings = data.RatingsMatrix(0, 0, np.empty((0, 2)))
        val = mf.rating_objective(np.zeros((0, 3)), np.zeros((0, 3)),
                                  ratings, ConfidenceParams(1.0, 0.01))
        assert val == 0.0

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(8)
        conf = ConfidenceParams(1.3, 0.07)
        for trial in range(5):
            U = rng.normal(size=(5, 3))
            V = rng.normal(size=(7, 3))
            ratings = random_ratings(rng, 5, 7, density=0.35)
            dense = ratings.to_dense()
            naive = 0.0
            for i in range(5):
                for j in range(7):
                    c = conf.a if dense[i, j] else conf.b
                    naive -= 0.5 * c * (dense[i, j] - U[i] @ V[j]) ** 2
            fast = mf.rating_objective(U, V, ratings, conf)
            np.testing.assert_allclose(fast, naive, rtol=1e-12)


class TestSweeps:
    def test_sweep_matches_single_updates(self):
        rng = np.random.default_rng(9)
        ratings = random_ratings(rng, 6, 8)
        V = rng.normal(size=(8, 3))
        conf = ConfidenceParams(1.0, 0.01)
        U = mf.sweep_users(V, ratings, conf, 0.5)
        for i in range(6):
            np.testing.assert_array_equal(
                U[i], mf.update_user(V, ratings.items_of(i), conf, 0.5))

    def test_item_sweep_matches_single_updates(self):
        rng = np.random.default_rng(10)
        ratings = random_ratings(rng, 6, 8)
        U = rng.normal(size=(6, 3))
        enc = rng.normal(size=(8, 3))
        conf = ConfidenceParams(1.0, 0.01)
        V = mf.sweep_items(U, ratings, conf, 2.0, enc)
        for j in range(8):
            np.testing.assert_array_equal(
                V[j], mf.update_item(U, ratings.users_of(j), conf, 2.0, enc[j]))

    @pytest.mark.parametrize("v_rows, u_rows", [(3, 1), (7, 9)])
    def test_factor_rows_must_match_the_ratings(self, v_rows, u_rows):
        # too many rows once put phantom items into b * V^T V; too few ended
        # in a raw IndexError
        ratings = data.RatingsMatrix(6, 5, [(0, 4), (2, 1), (5, 3), (5, 4)])
        conf = ConfidenceParams(1.0, 0.01)
        with pytest.raises(ShapeError) as info:
            mf.sweep_users(np.ones((v_rows, 2)), ratings, conf, 0.5)
        assert str(info.value) == f"V has {v_rows} rows but the ratings have 5 items"
        with pytest.raises(ShapeError) as info:
            mf.sweep_items(np.ones((u_rows, 2)), ratings, conf, 2.0, np.zeros((5, 2)))
        assert str(info.value) == f"U has {u_rows} rows but the ratings have 6 users"


def chunked_ratings(rng, extra_users, empty_users):
    """Ratings whose count groups overflow one chunk: CHUNK_ROWS + 12 users
    rate two items each and 2 * (CHUNK_ROWS + 12) items are rated once,
    before ``extra_users`` random raters; ``empty_users`` users and 20 items
    have no rating."""
    paired = mf.CHUNK_ROWS + 12
    num_items = 2 * paired + 20
    pairs = [(i, j) for i in range(paired) for j in (2 * i, 2 * i + 1)]
    for i in range(paired, paired + extra_users):
        count = int(rng.integers(1, 12))
        pairs += [(i, int(j)) for j in rng.choice(2 * paired, count, replace=False)]
    return data.RatingsMatrix(paired + extra_users + empty_users, num_items, pairs)


class TestGroupedSweeps:
    @settings(max_examples=20, deadline=None)
    @given(K=st.sampled_from([1, 5, 50]), seed=st.integers(0, 2 ** 32 - 1),
           extra_users=st.integers(0, 8), empty_users=st.integers(0, 3),
           zero_prior=st.booleans(), b=st.sampled_from([0.0, 0.01]))
    def test_sweeps_equal_single_updates(self, K, seed, extra_users, empty_users,
                                         zero_prior, b):
        rng = np.random.default_rng(seed)
        ratings = chunked_ratings(rng, extra_users, empty_users)
        conf = ConfidenceParams(1.0, b)
        U = rng.normal(size=(ratings.num_users, K))
        V = rng.normal(size=(ratings.num_items, K))
        enc = np.zeros_like(V) if zero_prior else rng.normal(size=V.shape)
        swept_U = mf.sweep_users(V, ratings, conf, 0.5)
        swept_V = mf.sweep_items(U, ratings, conf, 3.0, enc)
        assert np.array_equal(swept_U, np.array(
            [mf.update_user(V, ratings.items_of(i), conf, 0.5)
             for i in range(ratings.num_users)]))
        assert np.array_equal(swept_V, np.array(
            [mf.update_item(U, ratings.users_of(j), conf, 3.0, enc[j])
             for j in range(ratings.num_items)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_raises(self, bad):
        rng = np.random.default_rng(12)
        ratings = chunked_ratings(rng, 4, 0)   # every user rated, 20 items not
        conf = ConfidenceParams(1.0, 0.01)
        K = 3
        V = rng.normal(size=(ratings.num_items, K))
        V[ratings.items_of(0)[0], 1] = bad
        U = rng.normal(size=(ratings.num_users, K))
        U_bad = U.copy()
        U_bad[ratings.users_of(0)[0], 2] = bad
        enc_rated, enc_unrated = np.zeros((2, ratings.num_items, K))
        enc_rated[0, 0] = bad
        enc_unrated[-1, 0] = bad
        unrated = data.RatingsMatrix(4, ratings.num_items, np.empty((0, 2), dtype=int))
        for sweep in [lambda: mf.sweep_users(V, ratings, conf, 0.5),
                      lambda: mf.sweep_users(V, unrated, conf, 0.5),
                      lambda: mf.sweep_items(U_bad, ratings, conf, 3.0, np.zeros_like(V)),
                      lambda: mf.sweep_items(U, ratings, conf, 3.0, enc_rated),
                      lambda: mf.sweep_items(U, ratings, conf, 3.0, enc_unrated)]:
            with pytest.raises(NumericError, match="SPD solve failed: .*infs or NaNs"):
                sweep()

    def test_opposite_infinities_raise_before_any_warning(self):
        # inf and -inf in one column meet in F^T F: the check must come first
        V = np.array([[1.0, np.inf], [1.0, -np.inf]])
        ratings = data.RatingsMatrix(1, 2, [(0, 0)])
        conf = ConfidenceParams(1.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in [lambda: mf.sweep_users(V, ratings, conf, 0.5),
                          lambda: mf.update_user(V, np.array([0]), conf, 0.5)]:
                with pytest.raises(NumericError, match="infs or NaNs"):
                    solve()

    def test_singular_base_raises(self):
        # lambda = 0 and b = 0 leave a user with no ratings a zero system
        ratings = chunked_ratings(np.random.default_rng(13), 0, 1)
        V = np.random.default_rng(14).normal(size=(ratings.num_items, 4))
        conf = ConfidenceParams(1.0, 0.0)
        with pytest.raises(NumericError, match="not positive definite"):
            mf.sweep_users(V, ratings, conf, 0.0)
        with pytest.raises(NumericError, match="not positive definite"):
            mf.update_user(V, ratings.items_of(ratings.num_users - 1), conf, 0.0)

    @pytest.mark.parametrize("empty_users, K", [(0, 5), (3, 5), (3, 12)],
                             ids=["0", "3", "every-count-below-k"])
    def test_one_factorization_per_rated_row_and_one_for_the_rest(
            self, monkeypatch, empty_users, K):
        # rows with at least K ratings are each factored; the rows with fewer
        # share one factorization of the pass's base.  At K = 12, above every
        # count (at most 11), that is the only one.  A draw factors no row's
        # system for its noise alone.
        calls = []

        def counted_dpotrf(*args, **kwargs):
            calls.append(1)
            return dpotrf(*args, **kwargs)

        dpotrf = mf.dpotrf
        monkeypatch.setattr(mf, "dpotrf", counted_dpotrf)
        rng = np.random.default_rng(15)
        ratings = chunked_ratings(rng, 6, empty_users)
        conf = ConfidenceParams(1.0, 0.01)
        for sweep, (ptr, cols), F, args in [
            (mf.sweep_users, mf._user_rows(ratings),
             rng.normal(size=(ratings.num_items, K)), ()),
            (mf.sweep_items, mf._item_rows(ratings),
             rng.normal(size=(ratings.num_users, K)),
             (rng.normal(size=(ratings.num_items, K)),)),
        ]:
            for run in [lambda: sweep(F, ratings, conf, 0.5, *args),
                        lambda: mf._sweep(F, ptr, cols, conf, 0.5, *args,
                                          rng=np.random.default_rng(16))]:
                calls.clear()
                run()
                assert len(calls) == np.count_nonzero(np.diff(ptr) >= K) + 1

    @pytest.mark.parametrize("K", [1, 4, 50])
    def test_sweep_straddling_k_equals_single_updates(self, K):
        # user count groups 0 .. 2K + 1, the groups K - 1 and K overflowing
        # one chunk; items drawn by a Zipf law, so their counts straddle K
        rng = np.random.default_rng(17 + K)
        big = mf.CHUNK_ROWS + 5
        user_counts = [c for c in range(2 * K + 2) for _ in range(3)]
        user_counts += [K - 1] * big + [K] * big
        num_items = 40 * K + 300
        zipf = 1.0 / np.arange(1, num_items + 1)
        pairs = [(i, int(j)) for i, c in enumerate(user_counts)
                 for j in rng.choice(num_items, c, replace=False, p=zipf / zipf.sum())]
        ratings = data.RatingsMatrix(len(user_counts), num_items, pairs)
        item_counts = np.diff(ratings._item_ptr)
        assert (item_counts == 0).any() and (0 < item_counts).any()
        assert (item_counts < K).any() and (item_counts >= K).any()
        conf = ConfidenceParams(1.0, 0.01)
        U = rng.normal(size=(ratings.num_users, K))
        V = rng.normal(size=(num_items, K))
        enc = rng.normal(size=V.shape)
        swept_U = mf.sweep_users(V, ratings, conf, 0.5)
        swept_V = mf.sweep_items(U, ratings, conf, 3.0, enc)
        for i in range(ratings.num_users):
            assert swept_U[i].tobytes() == mf.update_user(
                V, ratings.items_of(i), conf, 0.5).tobytes()
        for j in range(num_items):
            assert swept_V[j].tobytes() == mf.update_item(
                U, ratings.users_of(j), conf, 3.0, enc[j]).tobytes()
        # a row with at least K ratings keeps the Cholesky solve of its own system
        for swept, system, rated in [
                (swept_U, lambda i: mf._user_system(V, ratings.items_of(i), conf, 0.5),
                 np.diff(ratings._user_ptr)),
                (swept_V, lambda j: mf._item_system(U, ratings.users_of(j), conf, 3.0, enc[j]),
                 item_counts)]:
            for r in np.flatnonzero(rated >= K):
                A, rhs = system(r)
                assert swept[r].tobytes() == mf._cho_solve(mf._cholesky(A), rhs).tobytes()
        # a row with no rating has an empty capacitance: a user's MAP row is
        # zero, an item's row base^-1 (lam * encoding)
        empty_users = np.diff(ratings._user_ptr) == 0
        assert swept_U[empty_users].tobytes() == bytes(8 * K * empty_users.sum())
        shared = mf._cholesky(mf._base(U, 3.0, conf))
        for j in np.flatnonzero(item_counts == 0):
            assert swept_V[j].tobytes() == mf._cho_solve(shared, 3.0 * enc[j]).tobytes()

    def test_singular_capacitance_row_takes_the_per_row_path(self, monkeypatch):
        # a - b = 1e20 drowns I/(a-b), so user 0, who rated two items with
        # equal rows, has a singular capacitance; the others do not.  So the
        # pass forms user 0's system alone, and factors it after base.  (At
        # this a - b no row's own system is positive definite in floating
        # point, so the first per-row factorization raises whichever rows
        # left the low-rank path: the rows formed are what tell.)
        formed, factored = [], []

        def counted_systems(Fo, *args):
            formed.append(len(Fo))
            return systems(Fo, *args)

        def counted_dpotrf(*args, **kwargs):
            factored.append(1)
            return dpotrf(*args, **kwargs)

        systems, dpotrf = mf._systems, mf.dpotrf
        monkeypatch.setattr(mf, "_systems", counted_systems)
        monkeypatch.setattr(mf, "dpotrf", counted_dpotrf)
        rng = np.random.default_rng(18)
        V = rng.normal(size=(12, 3))
        V[1] = V[0]
        pairs = [(0, 0), (0, 1)] + [(u, j) for u in range(1, 6) for j in (2 * u, 2 * u + 1)]
        ratings = data.RatingsMatrix(6, 12, pairs)
        conf = ConfidenceParams(1e20, 0.01)
        for solve in [lambda: mf._sweep(V, *mf._user_rows(ratings), conf, 1.0),
                      lambda: mf.update_user(V, ratings.items_of(0), conf, 1.0)]:
            formed.clear()
            factored.clear()
            with pytest.raises(NumericError, match="not positive definite"):
                solve()
            assert formed == [1] and len(factored) == 2

    def test_low_rank_rows_out_of_float_range_take_the_per_row_path(self):
        # with b = 0 and lam = 1e-300, F base^-1 overflows: the per-row path
        # finds the systems singular, without a warning
        V = np.random.default_rng(19).normal(size=(6, 3)) * 1e150
        ratings = data.RatingsMatrix(1, 6, [(0, 0), (0, 1)])
        conf = ConfidenceParams(1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in [lambda: mf.sweep_users(V, ratings, conf, 1e-300),
                          lambda: mf.update_user(V, np.array([0, 1]), conf, 1e-300),
                          lambda: mf.update_item(V, np.array([0, 1]), conf, 1e-300,
                                                 np.ones(3))]:
                with pytest.raises(NumericError, match="not positive definite"):
                    solve()


CONF = ConfidenceParams(1.0, 0.01)
ONE_ROW_CALLS = {
    "update_user": lambda F, rated: mf.update_user(F, rated, CONF, 0.5),
    "update_item": lambda F, rated: mf.update_item(F, rated, CONF, 0.5, np.ones(3)),
    "user_gradient": lambda F, rated: mf.user_gradient(np.ones(3), F, rated, CONF, 0.5),
    "item_gradient": lambda F, rated: mf.item_gradient(np.ones(3), F, rated, CONF, 0.5,
                                                       np.ones(3)),
    "sample_u": lambda F, rated: sampling.sample_u(F, rated, CONF, 0.5,
                                                   np.random.default_rng(0)),
    "sample_v": lambda F, rated: sampling.sample_v(F, rated, CONF, 0.5, np.ones(3),
                                                   np.random.default_rng(0)),
}


@pytest.mark.parametrize("call", ONE_ROW_CALLS.values(), ids=ONE_ROW_CALLS.keys())
class TestRatedIds:
    """A one-row call's rated ids are a 1-D set of distinct rows of F."""

    F = np.random.default_rng(20).normal(size=(6, 3))

    @pytest.mark.parametrize("rated, message", [
        ([-1], "rated id -1 is not an integer in [0, 6)"),
        ([0, 6], "rated id 6 is not an integer in [0, 6)"),
        ([99], "rated id 99 is not an integer in [0, 6)"),
        ([0.5], "rated id 0.5 is not an integer in [0, 6)"),
        (np.array([1.0]), "rated id 1.0 is not an integer in [0, 6)"),
        ([True], "rated id True is not an integer in [0, 6)"),
        ([0, 0], "rated id 0 is given twice"),
        (np.array([3, 1, 3], dtype=np.int32), "rated id 3 is given twice"),
        ([[0, 1]], "rated ids must be a 1-D array, got shape (1, 2)"),
        (np.int64(2), "rated ids must be a 1-D array, got shape ()"),
    ], ids=["negative", "past-the-end", "far-past", "fraction", "float-dtype", "bool",
            "repeated", "repeated-int32", "2-d", "0-d"])
    def test_bad_ids_named(self, call, rated, message):
        with pytest.raises(ArgumentError) as info:
            call(self.F, rated)
        assert str(info.value) == message

    @pytest.mark.parametrize("rated", [[], (), np.array([]), np.array([], dtype=np.uint8)],
                             ids=["list", "tuple", "float-array", "uint8-array"])
    def test_any_empty_sequence_is_the_empty_set(self, call, rated):
        assert call(self.F, rated).tobytes() == call(
            self.F, np.array([], dtype=np.int64)).tobytes()

    def test_id_dtype_does_not_change_the_bits(self, call):
        want = call(self.F, np.array([4, 1], dtype=np.int64)).tobytes()
        for rated in ([4, 1], (4, 1), np.array([4, 1], dtype=np.uint16)):
            assert call(self.F, rated).tobytes() == want


class TestLowRankSolve:
    """Rows with fewer ratings than factors solve as a rank-c update of the
    shared part; checked against a dense solve of the assembled system."""

    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("b", [0.0, 0.01])
    @pytest.mark.parametrize("K", [1, 5, 50])
    def test_matches_dense_solve(self, K, b, lam):
        # the forward error of a backward-stable solve is about cond(A) * eps,
        # which at b = 0 and lam = 1e-6 exceeds 1e-10; the backward error
        # does not grow with cond(A)
        rng = np.random.default_rng(K + int(100 * b) + int(np.log10(lam) + 10))
        conf = ConfidenceParams(1.0, b)
        eps = np.finfo(np.float64).eps
        for c in sorted({0, 1, max(K - 1, 0), K, K + 1}):
            for with_prior in (False, True):
                for _ in range(3):
                    F = rng.normal(size=(2 * K + 7, K))
                    rated = rng.choice(len(F), size=c, replace=False)
                    if with_prior:
                        enc = rng.normal(size=K)
                        x = mf.update_item(F, rated, conf, lam, enc)
                        A, rhs = mf._item_system(F, rated, conf, lam, enc)
                    else:
                        x = mf.update_user(F, rated, conf, lam)
                        A, rhs = mf._user_system(F, rated, conf, lam)
                    dense = np.linalg.solve(A, rhs)
                    tol = max(1e-10, 4 * np.linalg.cond(A) * eps)
                    assert np.linalg.norm(x - dense) <= tol * np.linalg.norm(dense)
                    residual = np.linalg.norm(rhs - A @ x)
                    assert residual <= 1e-13 * (np.linalg.norm(A, 2) * np.linalg.norm(x)
                                                + np.linalg.norm(rhs))


class TestFactorIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        factors = mf.LatentFactors(rng.normal(size=(4, 3)), rng.normal(size=(6, 3)))
        path = tmp_path / "factors.npz"
        mf.save_factors(factors, path)
        back = mf.load_factors(path)
        np.testing.assert_array_equal(back.U, factors.U)
        np.testing.assert_array_equal(back.V, factors.V)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data_=st.data(), num_users=st.integers(0, 6), num_items=st.integers(0, 6),
           K=st.integers(1, 4))
    def test_any_factors_round_trip_bit_exact(self, tmp_path, data_, num_users, num_items, K):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        factors = mf.LatentFactors(
            data_.draw(hnp.arrays(np.float64, (num_users, K), elements=finite)),
            data_.draw(hnp.arrays(np.float64, (num_items, K), elements=finite)))
        mf.save_factors(factors, tmp_path / "factors.npz")
        back = mf.load_factors(tmp_path / "factors.npz")
        for got, want in ((back.U, factors.U), (back.V, factors.V)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["factors.npz", "factors", "factors.bin"])
    def test_file_name_and_bytes_as_np_savez_gives_them(self, tmp_path, name):
        # ".npz" is appended to a path without it, as np.savez does for a
        # path, and the archive's bytes are those np.savez writes to a path
        rng = np.random.default_rng(12)
        factors = mf.LatentFactors(rng.normal(size=(4, 3)), rng.normal(size=(6, 3)))
        (tmp_path / "ref").mkdir()
        np.savez(tmp_path / "ref" / name, U=factors.U, V=factors.V)
        (written,) = (tmp_path / "ref").iterdir()
        for path in (tmp_path / name, str(tmp_path / name)):
            mf.save_factors(factors, path)
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["ref", written.name])
            assert (tmp_path / written.name).read_bytes() == written.read_bytes()

    def test_text_export_has_header(self, tmp_path):
        factors = mf.LatentFactors(np.ones((2, 2)), np.zeros((3, 2)))
        path = tmp_path / "factors.tsv"
        mf.export_factors_text(factors, path)
        text = path.read_text()
        assert text.startswith("# users=2 items=3 n_factors=2")

    def test_text_export_bytes_match_per_value_format(self, tmp_path):
        edge = [0.0, -0.0, 1e-300, 5e-324, -5e-324, 1.0 / 3.0, -2.5e17, 1.7976931348623157e308]
        factors = mf.LatentFactors(np.array(edge).reshape(2, 4),
                                   np.array(edge[::-1] * 2).reshape(4, 4))
        path = tmp_path / "factors.tsv"
        mf.export_factors_text(factors, path)
        lines = ["# users=2 items=4 n_factors=4", "# U"]
        lines += ["\t".join(format(x, ".17g") for x in row) for row in factors.U]
        lines.append("# V")
        lines += ["\t".join(format(x, ".17g") for x in row) for row in factors.V]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
