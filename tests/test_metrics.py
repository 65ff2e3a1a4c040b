import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cdl import data, metrics
from cdl.exceptions import ArgumentError, NumericError, ShapeError
from cdl.factors import LatentFactors


def random_instance(rng, num_users, num_items, k=3):
    U = rng.normal(size=(num_users, k))
    V = rng.normal(size=(num_items, k))
    mask = rng.random((num_users, num_items)) < 0.4
    pairs = np.argwhere(mask)
    keep = rng.random(len(pairs)) < 0.5
    train = data.RatingsMatrix(num_users, num_items, pairs[keep])
    test = data.RatingsMatrix(num_users, num_items, pairs[~keep])
    return U, V, train, test


def naive_rank(U, V, train, policy, user):
    """Brute-force ranking: stable sort on (-score, item id), then filter."""
    scores = [(float(-U[user] @ V[j]), j) for j in range(V.shape[0])]
    scores.sort()
    order = [j for _, j in scores]
    if policy == metrics.EXCLUDE_TRAIN:
        banned = set(int(j) for j in train.items_of(user))
        order = [j for j in order if j not in banned]
    return order


def naive_recall(order, liked, m):
    liked = set(int(j) for j in liked)
    hits = sum(1 for j in order[:m] if j in liked)
    return hits / len(liked)


def naive_ap(order, liked, cutoff):
    liked = set(int(j) for j in liked)
    hits = 0
    total = 0.0
    for pos, j in enumerate(order[:cutoff], start=1):
        if j in liked:
            hits += 1
            total += hits / pos
    return total / len(liked)



def cumsum_average_precisions(hits, liked):
    """The former ``_average_precisions``: a running hit count, a gains
    matrix and a running sum over every position, hits or not."""
    if hits.shape[1] == 0:
        return np.zeros(hits.shape[0])
    found = np.cumsum(hits, axis=1)
    gains = np.where(hits, found / np.arange(1, hits.shape[1] + 1), 0.0)
    return np.cumsum(gains, axis=1)[:, -1] / liked


class TestRank:
    def test_three_scalar_items(self):
        U = np.array([[1.0]])
        V = np.array([[0.9], [0.1], [0.5]])
        empty = data.RatingsMatrix(1, 3, np.empty((0, 2)))
        ranked = metrics.rank(U, V, empty)
        assert list(ranked.items[0]) == [0, 2, 1]

    def test_ties_broken_by_lower_id(self):
        U = np.array([[1.0]])
        V = np.array([[0.5], [0.5], [0.7]])
        empty = data.RatingsMatrix(1, 3, np.empty((0, 2)))
        ranked = metrics.rank(U, V, empty)
        assert list(ranked.items[0]) == [2, 0, 1]

    @pytest.mark.parametrize("case, error, message", [
        ("policy", ArgumentError, "unknown candidate policy 'bogus'"),
        ("no-train", ArgumentError, "exclude-train policy needs the training matrix"),
        ("widths", ShapeError, "factor widths differ"),
        ("train-too-small", ShapeError, "training matrix 1 x 3 does not cover 2 users x 3 items"),
    ])
    def test_arguments_checked_before_any_user_is_scored(self, case, error, message):
        U, V = np.ones((2, 1)), np.ones((3, 1))
        train = data.RatingsMatrix(2, 3, np.empty((0, 2)))
        policy = metrics.EXCLUDE_TRAIN
        if case == "policy":
            policy = "bogus"
        elif case == "no-train":
            train = None
        elif case == "widths":
            V = np.ones((3, 2))
        else:
            train = data.RatingsMatrix(1, 3, np.empty((0, 2)))
        with pytest.raises(error, match=f"^{message}$"):
            metrics.rank(U, V, train, policy=policy)

    def test_exclude_train_removes_exactly_train_items(self):
        rng = np.random.default_rng(0)
        U, V, train, _ = random_instance(rng, 4, 10)
        ranked = metrics.rank(U, V, train)
        for user in range(4):
            banned = set(int(j) for j in train.items_of(user))
            listed = set(int(j) for j in ranked.items[user])
            assert listed == set(range(10)) - banned

    def test_all_items_policy_keeps_everything(self):
        rng = np.random.default_rng(1)
        U, V, train, _ = random_instance(rng, 3, 8)
        ranked = metrics.rank(U, V, policy=metrics.ALL_ITEMS)
        for user in range(3):
            assert sorted(ranked.items[user]) == list(range(8))

    def test_limit_truncates_after_sorting(self):
        rng = np.random.default_rng(2)
        U, V, train, _ = random_instance(rng, 3, 12)
        full = metrics.rank(U, V, train)
        cut = metrics.rank(U, V, train, limit=4)
        for a, b in zip(full.items, cut.items):
            np.testing.assert_array_equal(a[:4], b)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        U, V, train, _ = random_instance(rng, 5, 9)
        a = metrics.rank(U, V, train)
        b = metrics.rank(U, V, train)
        for x, y in zip(a.items, b.items):
            np.testing.assert_array_equal(x, y)


    @pytest.mark.parametrize("bad", [np.nan, 1e200])
    def test_non_finite_score_raises(self, bad):
        # 1e200 * 1e200 overflows to inf: the factors are finite, the score is not
        U = np.array([[1.0], [bad]])
        V = np.array([[1.0], [1e200]])
        with pytest.raises(NumericError, match="user 1"):
            metrics.rank(U, V, policy=metrics.ALL_ITEMS)

    def test_negative_limit_rejected(self):
        rng = np.random.default_rng(10)
        U, V, train, _ = random_instance(rng, 3, 6)
        with pytest.raises(ArgumentError, match="limit"):
            metrics.rank(U, V, train, limit=-1)

    @pytest.mark.parametrize("limit", [None, 3])
    @pytest.mark.parametrize("policy", [metrics.EXCLUDE_TRAIN, metrics.ALL_ITEMS])
    def test_lists_do_not_pin_larger_buffers(self, policy, limit):
        # a list that is a view of a block-sized array would keep the whole
        # block alive for as long as the ranking lives
        rng = np.random.default_rng(11)
        U, V, train, _ = random_instance(rng, metrics.BLOCK_USERS + 3, 40)
        ranked = metrics.rank(U, V, train, policy=policy, limit=limit)
        for items in ranked.items:
            assert items.base is None or items.base.size <= items.size


@st.composite
def tied_instances(draw):
    """Integer-valued factors (scores are exact and tie often) on user counts
    on both sides of a block boundary; the last user has every item in train.
    Some user and item rows are all zero (every score of the row ties), and
    some test matrices are empty."""
    num_users = draw(st.one_of(
        st.integers(1, 4),
        st.integers(metrics.BLOCK_USERS - 1, 2 * metrics.BLOCK_USERS + 1)))
    num_items = draw(st.integers(1, 9))
    k = draw(st.integers(1, 3))
    U = draw(hnp.arrays(np.int8, (num_users, k), elements=st.integers(-2, 2)))
    V = draw(hnp.arrays(np.int8, (num_items, k), elements=st.integers(-2, 2)))
    U[draw(hnp.arrays(bool, num_users))] = 0
    V[draw(hnp.arrays(bool, num_items))] = 0
    # bit 0: train, bit 1: held out (both: held out but never a candidate)
    state = draw(hnp.arrays(np.int8, (num_users, num_items), elements=st.integers(0, 3)))
    state[-1] |= 1
    if draw(st.integers(0, 4)) == 0:
        state &= 1
    train = data.RatingsMatrix(num_users, num_items, np.argwhere(state & 1))
    test = data.RatingsMatrix(num_users, num_items, np.argwhere(state & 2))
    limit = draw(st.one_of(st.none(), st.sampled_from([0, 1, num_items + 2]),
                           st.integers(0, num_items)))
    policy = draw(st.sampled_from([metrics.EXCLUDE_TRAIN, metrics.ALL_ITEMS]))
    return U.astype(float), V.astype(float) / 2, train, test, limit, policy


class TestRankProperty:
    @settings(max_examples=60, deadline=None)
    @given(tied_instances())
    def test_rank_and_metrics_match_naive_oracle(self, instance):
        U, V, train, test, limit, policy = instance
        ranked = metrics.rank(U, V, train, policy=policy, limit=limit)
        orders = [naive_rank(U, V, train, policy, u)[:limit] for u in range(len(U))]
        assert [list(items) for items in ranked.items] == orders
        held = [u for u in range(len(U)) if len(test.items_of(u))]
        grid = (1, 2, V.shape[0] + 1)
        curve = metrics.recall_curve(ranked, test, grid)
        for m in grid:
            expected = {u: naive_recall(orders[u], test.items_of(u), m) for u in held}
            per_user, mean = metrics.recall_at_m(ranked, test, m)
            assert per_user == expected
            want = sum(expected.values()) / len(held) if held else 0.0
            assert mean == want and curve[m] == want
        for cutoff in (1, 3, 500):
            aps = [naive_ap(orders[u], test.items_of(u), cutoff) for u in held]
            want = sum(aps) / len(aps) if aps else 0.0
            assert metrics.map_at_500(ranked, test, cutoff) == want

    @settings(max_examples=60, deadline=None)
    @given(tied_instances())
    def test_evaluate_run_matches_naive_oracle(self, instance):
        U, V, train, test, _, policy = instance
        orders = [naive_rank(U, V, train, policy, u) for u in range(len(U))]
        held = [u for u in range(len(U)) if len(test.items_of(u))]
        # widths max(max(grid), cutoff) from 1 to above the item count
        for grid, cutoff in itertools.product(((1,), (2, 1), (1, 2, V.shape[0] + 1)),
                                              (1, 3, 500)):
            values = metrics.evaluate_run(LatentFactors(U, V), train, test, grid,
                                          cutoff=cutoff, policy=policy)
            want = {}
            for m in grid:
                recalls = [naive_recall(orders[u], test.items_of(u), m) for u in held]
                want[f"recall@{m}"] = sum(recalls) / len(held) if held else 0.0
            aps = [naive_ap(orders[u], test.items_of(u), cutoff) for u in held]
            want[f"map@{cutoff}"] = sum(aps) / len(aps) if aps else 0.0
            assert {n: v.hex() for n, v in values.items()} == \
                {n: v.hex() for n, v in want.items()}
            # the positions mark exactly the hits of rank's lists
            width = max(max(grid), cutoff)
            hits, liked = metrics._held_out_hits(U, V, train, test, policy, width)
            ranked = metrics.rank(U, V, train, policy=policy, limit=width)
            listed, listed_liked = metrics._hit_matrix(ranked, test, width)
            np.testing.assert_array_equal(hits[:, :listed.shape[1]], listed)
            assert not hits[:, listed.shape[1]:].any()
            np.testing.assert_array_equal(liked, listed_liked)


def tie_at_the_cut_instance(zero_items):
    """BLOCK_USERS + 5 users x 640 items with integer factors of width 2:
    the scores take a few dozen values, so a width of 500 falls inside a run
    of equal scores, and rows hold held-out items at several tied values
    near it.  Every seventh item row is zero, or every row with
    ``zero_items``, which ties every score of every user."""
    rng = np.random.default_rng(31)
    num_users, num_items = metrics.BLOCK_USERS + 5, 640
    U = rng.integers(-3, 4, size=(num_users, 2)).astype(float)
    V = rng.integers(-3, 4, size=(num_items, 2)).astype(float)
    V[::7] = 0.0
    if zero_items:
        V[:] = 0.0
    # some held-out items are training items too: never candidates
    train = data.RatingsMatrix(num_users, num_items,
                               np.argwhere(rng.random((num_users, num_items)) < 0.1))
    test = data.RatingsMatrix(num_users, num_items,
                              np.argwhere(rng.random((num_users, num_items)) < 0.2))
    return U, V, train, test


class TestTiesAtTheCut:
    WIDTH = 500

    @pytest.mark.parametrize("policy", [metrics.EXCLUDE_TRAIN, metrics.ALL_ITEMS])
    @pytest.mark.parametrize("zero_items", [False, True], ids=["zero-rows", "all-zero"])
    def test_positions_and_metrics_match_the_lists(self, zero_items, policy):
        U, V, train, test = tie_at_the_cut_instance(zero_items)
        scores = U @ V.T
        orders = [naive_rank(U, V, train, policy, u) for u in range(len(U))]
        # the instance is what it claims: every list is longer than the
        # width, a run of equal scores crosses the cut, and (unless every
        # score ties) a user holds held-out items at two or more distinct
        # scores, each shared with another candidate, within 100 of the cut
        assert min(map(len, orders)) > self.WIDTH
        assert any(scores[u, order[self.WIDTH - 1]] == scores[u, order[self.WIDTH]]
                   for u, order in enumerate(orders))
        tied_values = []
        for u, order in enumerate(orders):
            ranked_scores, liked = scores[u, order], set(test.items_of(u).tolist())
            near = [p for p, j in enumerate(order)
                    if abs(p - self.WIDTH) < 100 and j in liked
                    and np.count_nonzero(ranked_scores == ranked_scores[p]) > 1]
            tied_values.append(len(set(ranked_scores[near].tolist())))
        assert max(tied_values) >= (1 if zero_items else 2)

        hits, liked = metrics._held_out_hits(U, V, train, test, policy, self.WIDTH)
        ranked = metrics.rank(U, V, train, policy=policy, limit=self.WIDTH)
        listed, listed_liked = metrics._hit_matrix(ranked, test, self.WIDTH)
        np.testing.assert_array_equal(hits, listed)
        np.testing.assert_array_equal(liked, listed_liked)

        grid, cutoff = (50, 300, self.WIDTH), self.WIDTH
        values = metrics.evaluate_run(LatentFactors(U, V), train, test, grid,
                                      cutoff=cutoff, policy=policy)
        held = [u for u in range(len(U)) if len(test.items_of(u))]
        want = {f"recall@{m}": sum(naive_recall(orders[u], test.items_of(u), m)
                                   for u in held) / len(held) for m in grid}
        want[f"map@{cutoff}"] = sum(naive_ap(orders[u], test.items_of(u), cutoff)
                                    for u in held) / len(held)
        assert {n: v.hex() for n, v in values.items()} == \
            {n: v.hex() for n, v in want.items()}


class TestFloatScores:
    def test_rank_and_positions_follow_the_negated_product(self):
        # random float factors round in the product, unlike the integer
        # oracles above: rank's order must be exactly that of -(U V^T), block
        # by block, and the positions must mark exactly its lists' hits
        rng = np.random.default_rng(33)
        U, V, train, test = random_instance(rng, metrics.BLOCK_USERS + 20, 300, k=7)
        want = np.argsort(-(U @ V.T), axis=1, kind="stable")
        for policy in (metrics.ALL_ITEMS, metrics.EXCLUDE_TRAIN):
            ranked = metrics.rank(U, V, train, policy=policy)
            for user, (items, order) in enumerate(zip(ranked.items, want)):
                if policy == metrics.EXCLUDE_TRAIN:
                    order = order[~np.isin(order, train.items_of(user))]
                np.testing.assert_array_equal(items, order)
            for width in (1, 50, 300):
                hits, _ = metrics._held_out_hits(U, V, train, test, policy, width)
                listed, _ = metrics._hit_matrix(ranked, test, width)
                np.testing.assert_array_equal(hits[:, :listed.shape[1]], listed)
                assert not hits[:, listed.shape[1]:].any()


class TestRecall:
    def test_all_liked_in_top_m(self):
        ranked = metrics.RankedList([np.array([3, 1, 2, 0])], metrics.ALL_ITEMS)
        test = data.RatingsMatrix(1, 4, [[0, 3], [0, 1]])
        per_user, mean = metrics.recall_at_m(ranked, test, 2)
        assert per_user == {0: 1.0} and mean == 1.0

    def test_one_of_three_liked(self):
        # liked {0,1,2}, top-2 = [0, 5] -> recall 1/3
        ranked = metrics.RankedList([np.array([0, 5, 1, 2, 3, 4])], metrics.ALL_ITEMS)
        test = data.RatingsMatrix(1, 6, [[0, 0], [0, 1], [0, 2]])
        per_user, mean = metrics.recall_at_m(ranked, test, 2)
        assert mean == pytest.approx(1.0 / 3.0)

    def test_m_at_least_num_items_gives_one(self):
        rng = np.random.default_rng(4)
        U, V, _, test = random_instance(rng, 6, 9)
        ranked = metrics.rank(U, V, policy=metrics.ALL_ITEMS)
        _, mean = metrics.recall_at_m(ranked, test, 9)
        if test.nnz:
            assert mean == 1.0

    def test_users_without_test_items_excluded(self):
        ranked = metrics.RankedList(
            [np.array([0, 1]), np.array([1, 0])], metrics.ALL_ITEMS)
        test = data.RatingsMatrix(2, 2, [[0, 0]])
        per_user, mean = metrics.recall_at_m(ranked, test, 1)
        assert set(per_user) == {0}

    def test_curve_monotone_in_m(self):
        rng = np.random.default_rng(5)
        U, V, train, test = random_instance(rng, 8, 14)
        ranked = metrics.rank(U, V, train)
        curve = metrics.recall_curve(ranked, test, m_grid=range(1, 15))
        values = [curve[m] for m in range(1, 15)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_list_metrics_on_a_huge_sparse_test_matrix(self):
        # two held-out pairs in a 10**6 x 10**6 matrix: the metrics must not
        # size anything by users x items (a bit set would need 116 GiB)
        n = 10**6
        test = data.RatingsMatrix(n, n, [(0, n - 1), (2, 7)])
        orders = [[n - 1, 3], [5], [1, n - 2, 7]]
        ranked = metrics.RankedList([np.array(o) for o in orders], metrics.EXCLUDE_TRAIN)
        grid = (1, 2, 3)
        want = {m: {u: naive_recall(orders[u], test.items_of(u), m) for u in (0, 2)}
                for m in grid}
        for m in grid:
            assert metrics.recall_at_m(ranked, test, m) == (want[m], sum(want[m].values()) / 2)
        assert metrics.recall_curve(ranked, test, grid) == \
            {m: sum(want[m].values()) / 2 for m in grid}
        aps = [naive_ap(orders[u], test.items_of(u), 500) for u in (0, 2)]
        assert metrics.map_at_500(ranked, test) == sum(aps) / 2


class TestAveragePrecision:
    def test_single_liked_at_rank_one(self):
        order = np.array([7, 1, 2])
        assert metrics.average_precision(order, [7]) == 1.0

    def test_hits_at_ranks_one_and_three(self):
        # AP = (1/2)(1/1 + 2/3) = 5/6
        order = np.array([4, 0, 9, 1])
        ap = metrics.average_precision(order, [4, 9])
        assert ap == pytest.approx(5.0 / 6.0)

    def test_no_liked_item_rejected(self):
        with pytest.raises(ArgumentError, match="^average precision needs at least one liked "
                                                "item$"):
            metrics.average_precision(np.array([3, 1]), [])

    def test_item_beyond_cutoff_contributes_zero(self):
        order = np.arange(600)
        assert metrics.average_precision(order, [500], cutoff=500) == 0.0
        assert metrics.average_precision(order, [499], cutoff=500) > 0.0

    def test_ap_with_single_liked_is_reciprocal_rank(self):
        rng = np.random.default_rng(6)
        order = rng.permutation(40)
        liked = int(order[17])
        ap = metrics.average_precision(order, [liked], cutoff=10**9)
        assert ap == pytest.approx(1.0 / 18.0)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            order = rng.permutation(30)
            liked = rng.choice(30, size=rng.integers(1, 6), replace=False)
            ap = metrics.average_precision(order, liked)
            assert 0.0 <= ap <= 1.0

    def test_hit_sum_matches_the_cumsum_form_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for width in (0, 1, 2, 7, 64, 500, 600):
            for density in (0.0, 0.05, 0.5, 1.0):
                hits = rng.random((30, width)) < density
                liked = hits.sum(axis=1) + rng.integers(1, 4, size=30)
                got = metrics._average_precisions(hits, liked)
                want = cumsum_average_precisions(hits, liked)
                assert [v.hex() for v in got] == [v.hex() for v in want]


class TestBruteForceOracle:
    def test_matches_naive_scorer_exactly(self):
        rng = np.random.default_rng(8)
        for trial in range(15):
            num_users = int(rng.integers(2, 16))
            num_items = int(rng.integers(2, 16))
            U, V, train, test = random_instance(rng, num_users, num_items)
            ranked = metrics.rank(U, V, train)
            for m in (1, 3, num_items):
                got_per_user, got_mean = metrics.recall_at_m(ranked, test, m)
                values = []
                for user in range(num_users):
                    liked = test.items_of(user)
                    if len(liked) == 0:
                        assert user not in got_per_user
                        continue
                    order = naive_rank(U, V, train, metrics.EXCLUDE_TRAIN, user)
                    expected = naive_recall(order, liked, m)
                    assert got_per_user[user] == expected
                    values.append(expected)
                if values:
                    assert got_mean == sum(values) / len(values)
            got_map = metrics.map_at_500(ranked, test)
            aps = []
            for user in range(num_users):
                liked = test.items_of(user)
                if len(liked) == 0:
                    continue
                order = naive_rank(U, V, train, metrics.EXCLUDE_TRAIN, user)
                aps.append(naive_ap(order, liked, 500))
            if aps:
                assert got_map == sum(aps) / len(aps)


    def test_long_lists_match_naive_ap_exactly(self):
        # many hits per list: AP must add precisions in rank order, as the
        # oracle does; a pairwise sum rounds differently
        rng = np.random.default_rng(12)
        num_users, num_items = 40, 700
        orders = [rng.permutation(num_items) for _ in range(num_users)]
        pairs = [(u, j) for u in range(num_users)
                 for j in rng.choice(num_items, size=80, replace=False)]
        test = data.RatingsMatrix(num_users, num_items, pairs)
        ranked = metrics.RankedList(orders, metrics.ALL_ITEMS)
        for cutoff in (100, 500):
            aps = [naive_ap(list(orders[u]), test.items_of(u), cutoff)
                   for u in range(num_users)]
            assert metrics.map_at_500(ranked, test, cutoff) == sum(aps) / len(aps)
            for u in range(num_users):
                assert metrics.average_precision(orders[u], test.items_of(u), cutoff) == aps[u]


class TestAggregate:
    def test_identical_repetitions_zero_std(self):
        rep = {"recall@50": 0.4, "map@500": 0.1}
        report = metrics.aggregate([rep, dict(rep), dict(rep)])
        assert report.mean == rep
        assert report.std == {"recall@50": 0.0, "map@500": 0.0}

    def test_two_point_sample_std(self):
        report = metrics.aggregate([{"m": 0.2}, {"m": 0.4}])
        assert report.mean["m"] == pytest.approx(0.3)
        assert report.std["m"] == pytest.approx(0.1414213562373095)

    def test_five_repetitions_five_rows(self):
        reps = [{"m": 0.1 * i} for i in range(5)]
        report = metrics.aggregate(reps)
        assert len(report.per_rep) == 5

    def test_repetitions_with_different_metrics_rejected(self):
        with pytest.raises(ArgumentError, match="^repetitions report different metrics$"):
            metrics.aggregate([{"recall@50": 0.4}, {"recall@100": 0.5}])

    def test_single_repetition_zero_std(self):
        report = metrics.aggregate([{"m": 0.7}])
        assert report.std == {"m": 0.0}

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            metrics.aggregate([])

    def test_tsv_layout(self, tmp_path):
        report = metrics.aggregate([{"recall@50": 0.5, "map@500": 0.2}] * 2)
        path = tmp_path / "metrics.tsv"
        report.write_tsv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "repetition\trecall@50\tmap@500"
        assert len(lines) == 5  # header + 2 reps + mean + std
        assert lines[-2].startswith("mean\t")
        assert lines[-1].startswith("std\t")


class TestEvaluateRun:
    def test_returns_grid_and_map(self):
        rng = np.random.default_rng(9)
        U, V, train, test = random_instance(rng, 6, 20)
        values = metrics.evaluate_run(LatentFactors(U, V), train, test,
                                      m_grid=(2, 5), cutoff=10)
        assert set(values) == {"recall@2", "recall@5", "map@10"}
        assert all(0.0 <= v <= 1.0 for v in values.values())

    @pytest.mark.parametrize("m_grid, cutoff", [
        ((2, 5), 10), ((3, 12, 30), 7), ((1,), 1), ((40, 8), 40)])
    def test_equals_separate_recall_curve_and_map(self, m_grid, cutoff):
        # one hit matrix, max(max(m_grid), cutoff) wide, serves both metrics;
        # M beyond the cutoff and lists shorter than M (30 items, some of
        # them excluded as training items) read exactly as separate calls
        rng = np.random.default_rng(21)
        for policy in (metrics.EXCLUDE_TRAIN, metrics.ALL_ITEMS):
            U, V, train, test = random_instance(rng, 9, 30)
            values = metrics.evaluate_run(LatentFactors(U, V), train, test,
                                          m_grid=m_grid, cutoff=cutoff, policy=policy)
            ranked = metrics.rank(U, V, train, policy=policy,
                                  limit=max(max(m_grid), cutoff))
            expected = {f"recall@{m}": r
                        for m, r in metrics.recall_curve(ranked, test, m_grid).items()}
            expected[f"map@{cutoff}"] = metrics.map_at_500(ranked, test, cutoff)
            assert list(values) == list(expected)
            for name, value in values.items():
                assert value.hex() == expected[name].hex(), name

    @pytest.mark.parametrize("user", [1, metrics.BLOCK_USERS + 2])
    def test_non_finite_score_raises_as_rank_does(self, user):
        # 1e200 * 1e200 overflows; the user holds no test item, and is named
        # all the same
        U = np.ones((user + 2, 1))
        U[user] = 1e200
        V = np.array([[1.0], [1e200], [2.0]])
        test = data.RatingsMatrix(len(U), 3, [[0, 2]])
        message = f"non-finite predicted score for user {user}$"
        with pytest.raises(NumericError, match=message):
            metrics.rank(U, V, policy=metrics.ALL_ITEMS)
        with pytest.raises(NumericError, match=message):
            metrics.evaluate_run(LatentFactors(U, V), None, test, (1,),
                                 policy=metrics.ALL_ITEMS)

    def test_test_matrix_with_fewer_users_raises_as_the_list_path_does(self):
        rng = np.random.default_rng(22)
        U, V, train, test = random_instance(rng, 5, 8)
        short = data.RatingsMatrix(4, 8, test.pairs[test.pairs[:, 0] < 4])
        ranked = metrics.rank(U, V, train)
        message = "5 ranked users but the test matrix has 4"
        with pytest.raises(ShapeError, match=message):
            metrics.recall_curve(ranked, short, (1,))
        with pytest.raises(ShapeError, match=message):
            metrics.evaluate_run(LatentFactors(U, V), train, short, (1,))

    def test_held_out_items_past_the_model_count_but_never_hit(self):
        rng = np.random.default_rng(23)
        U, V, train, test = random_instance(rng, 6, 8)
        wide = data.RatingsMatrix(6, 10, np.vstack([test.pairs, [[0, 9], [3, 8]]]))
        values = metrics.evaluate_run(LatentFactors(U, V), train, wide, (2, 4), 5)
        ranked = metrics.rank(U, V, train, limit=5)
        expected = {f"recall@{m}": r for m, r in metrics.recall_curve(ranked, wide, (2, 4)).items()}
        expected["map@5"] = metrics.map_at_500(ranked, wide, 5)
        assert {n: v.hex() for n, v in values.items()} == \
            {n: v.hex() for n, v in expected.items()}

    @pytest.mark.parametrize("m_grid, cutoff, message", [
        ((), 500, "M grid is empty"), ((5, 0), 500, "M must be at least 1"),
        ((5,), 0, "cutoff must be at least 1")])
    def test_bad_grid_or_cutoff_rejected_before_scoring(self, m_grid, cutoff, message):
        # user 1's score overflows: an argument error raised first was
        # raised before anyone was scored
        U = np.array([[1.0], [1e200]])
        V = np.array([[1.0], [1e200]])
        test = data.RatingsMatrix(2, 2, [[0, 0]])
        with pytest.raises(ArgumentError, match=message):
            metrics.evaluate_run(LatentFactors(U, V), None, test, m_grid, cutoff,
                                 policy=metrics.ALL_ITEMS)
