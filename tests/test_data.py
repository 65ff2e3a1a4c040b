import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdl import data
from cdl.exceptions import ArgumentError, CdlError, ParseError, ValidationError
from cdl.training import HyperParams


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRatings:
    def test_direct_readback(self, tmp_path):
        path = write(tmp_path, "r.tsv", "0\t0\n1\t2\n")
        ratings = data.load_ratings(path)
        assert ratings.num_users == 2
        assert ratings.num_items == 3
        assert ratings.nnz == 2
        assert np.array_equal(ratings.pairs, [[0, 0], [1, 2]])

    def test_empty_file(self, tmp_path):
        ratings = data.load_ratings(write(tmp_path, "r.tsv", ""))
        assert (ratings.num_users, ratings.num_items, ratings.nnz) == (0, 0, 0)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a b\n")
        with pytest.raises(ParseError, match=":1:"):
            data.load_ratings(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = write(tmp_path, "r.tsv", "0\t1\n0\t1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            data.load_ratings(path)

    @pytest.mark.parametrize("text, lineno, reason", [
        ("0\t1\n1\t0\n0\t1\n", 3, "duplicate rating pair (0, 1)"),
        # sorted, (0, 0) is the first duplicate; in the file, (0, 1) is
        ("0\t1\n0\t0\n0\t1\n0\t0\n", 3, "duplicate rating pair (0, 1)"),
        ("# users=2 items=2\n0\t1\n\n1\t5\n", 4, "pair (1, 5) outside"),
        ("# users=2 items=2\n2\t0\n", 2, "pair (2, 0) outside"),
        ("0\t1\n99999999999999999999\t2\n", 2, "id outside int64"),
        ("# users=2 items=2\n0\t-99999999999999999999\n", 2, "id outside int64"),
        ("0\t1\n9223372036854775807\t2\n", 2,
         "id 9223372036854775807 sizes the matrix beyond int64"),
        ("0\t9223372036854775807\n", 1, "id 9223372036854775807 sizes the matrix beyond int64"),
        # 10**12 users ask for a 7.28 TiB index; np.arange(2**63) comes back empty
        ("0\t1\n1000000000000\t2\n", 2, "id 1000000000000 sizes the matrix too large to index"),
        ("0\t1\n9223372036854775806\t2\n", 2,
         "id 9223372036854775806 sizes the matrix too large to index"),
        # a whitespace-only line holding a tab is skipped, not read as a pair
        ("0\t1\n\t\n0\t1\n", 3, "duplicate rating pair (0, 1)"),
        ("0\t1\n \t \n0\t1\n", 3, "duplicate rating pair (0, 1)"),
        ("# users=2 items=2\n\t\n0\t1\n\t\t\n-1\t0\n", 5, "pair (-1, 0) outside"),
    ], ids=["duplicate", "first-duplicate-in-file", "item-outside-header",
            "user-outside-header", "id-beyond-int64", "id-below-int64",
            "user-id-sizes-beyond-int64", "item-id-sizes-beyond-int64",
            "user-id-sizes-beyond-memory", "user-id-sizes-empty-arange",
            "tab-line-before-duplicate", "spaced-tab-line-before-duplicate",
            "tab-lines-before-negative-id"])
    def test_rejected_pair_names_file_and_line(self, tmp_path, text, lineno, reason):
        path = write(tmp_path, "r.tsv", text)
        with pytest.raises(ValidationError) as info:
            data.load_ratings(path)
        assert str(info.value).startswith(f"{path}:{lineno}: {reason}")

    def test_header_overrides_dims(self, tmp_path):
        path = write(tmp_path, "r.tsv", "# users=5 items=7\n0\t0\n")
        ratings = data.load_ratings(path)
        assert (ratings.num_users, ratings.num_items) == (5, 7)

    def test_save_round_trip(self, tmp_path):
        ratings = data.RatingsMatrix(4, 6, [[0, 1], [3, 5], [2, 0]])
        path = tmp_path / "out.tsv"
        data.save_ratings(ratings, path)
        back = data.load_ratings(path)
        assert back.num_users == 4 and back.num_items == 6
        assert np.array_equal(back.pairs, ratings.pairs)

    def test_save_writes_the_bytes_of_a_line_loop(self, tmp_path):
        rng = np.random.default_rng(4)
        for num_users, num_items, nnz in ((0, 0, 0), (3, 4, 0), (120, 900, 3000)):
            flat = rng.choice(num_users * num_items, size=nnz, replace=False)
            ratings = data.RatingsMatrix(num_users, num_items,
                                         np.column_stack(np.divmod(flat, max(num_items, 1))))
            path, reference = tmp_path / "out.tsv", tmp_path / "loop.tsv"
            data.save_ratings(ratings, path)
            with open(reference, "w", encoding="utf-8") as fh:
                fh.write(f"# users={ratings.num_users} items={ratings.num_items}\n")
                for u, j in ratings.pairs:
                    fh.write(f"{u}\t{j}\n")
            assert path.read_bytes() == reference.read_bytes()

    def test_sorted_and_shuffled_pairs_give_one_matrix(self):
        rng = np.random.default_rng(6)
        flat = np.sort(rng.choice(40 * 50, size=300, replace=False))
        pairs = np.column_stack(np.divmod(flat, 50))
        shuffled = pairs[rng.permutation(len(pairs))]
        a = data.RatingsMatrix(40, 50, pairs)
        b = data.RatingsMatrix(40, 50, shuffled)
        assert np.array_equal(a.pairs, pairs) and np.array_equal(b.pairs, pairs)
        assert np.array_equal(a.users_of(7), b.users_of(7))
        with pytest.raises(ValidationError, match="duplicate"):
            data.RatingsMatrix(40, 50, np.repeat(pairs, 2, axis=0))
        pairs[0] = (39, 49)  # the matrix keeps a copy, not the caller's array
        assert a.pairs[0].tolist() == [0, int(flat[0])]
        assert pairs.flags.writeable

    @pytest.mark.parametrize("pairs, row, reason", [
        ([[0, 1], [3, 0], [1, 9]], 1, "pair (3, 0) outside [0, 3) x [0, 4)"),
        ([[0, 1], [1, 9], [3, 0]], 1, "pair (1, 9) outside [0, 3) x [0, 4)"),
        ([[0, 1], [1, -2], [2, 0]], 1, "pair (1, -2) outside [0, 3) x [0, 4)"),
        # sorted, (0, 3) is the first repeat; in input order, (2, 1) is
        ([[2, 1], [0, 3], [2, 1], [0, 3]], 2, "duplicate rating pair (2, 1)"),
    ], ids=["user-outside", "item-outside", "negative-id", "first-repeat-in-input"])
    def test_rejected_pair_named_as_from_a_file(self, tmp_path, pairs, row, reason):
        # the library and the file reader name the first bad pair alike
        with pytest.raises(ValidationError) as info:
            data.RatingsMatrix(3, 4, pairs)
        assert str(info.value) == reason
        path = write(tmp_path, "r.tsv", "# users=3 items=4\n"
                     + "".join(f"{u}\t{j}\n" for u, j in pairs))
        with pytest.raises(ValidationError) as info:
            data.load_ratings(path)
        assert str(info.value) == f"{path}:{row + 2}: {reason}"

    # 10**12 + 1 entries ask for 7.28 TiB, 2**62 + 1 overflow the byte size,
    # and np.arange(2**63) comes back empty
    @pytest.mark.parametrize("num_users, num_items", [
        (10**12 + 1, 3), (3, 10**12 + 1), (2**62, 3), (2**63 - 1, 3),
    ], ids=["users-beyond-memory", "items-beyond-memory", "byte-size-overflow",
            "empty-arange"])
    def test_dimensions_too_large_to_index_rejected(self, num_users, num_items):
        with pytest.raises(ValidationError, match=f"dimensions {num_users} x {num_items} "
                                                  "too large to index"):
            data.RatingsMatrix(num_users, num_items, [[0, 1]])

    def test_header_too_large_to_index_names_file(self, tmp_path):
        path = write(tmp_path, "r.tsv", "# users=1000000000000 items=3\n0\t1\n")
        with pytest.raises(ValidationError) as info:
            data.load_ratings(path)
        assert str(info.value) == (f"{path}: matrix dimensions 1000000000000 x 3 "
                                   "too large to index")

    def test_row_and_column_access(self):
        ratings = data.RatingsMatrix(3, 4, [[0, 1], [0, 3], [2, 1]])
        assert list(ratings.items_of(0)) == [1, 3]
        assert list(ratings.items_of(1)) == []
        assert list(ratings.users_of(1)) == [0, 2]
        dense = ratings.to_dense()
        assert dense.sum() == 3 and dense[0, 3] == 1.0


class TestMatrices:
    def test_reprs_name_the_shape(self):
        ratings = data.RatingsMatrix(2, 3, [[0, 1], [1, 2]])
        assert repr(ratings) == "RatingsMatrix(num_users=2, num_items=3, nnz=2)"
        content = data.ContentMatrix(np.eye(2, 4) * 0.5)
        assert repr(content) == ("ContentMatrix(num_items=2, vocab_size=4, nnz=2, "
                                 "mode='raw')")

    def test_unknown_normalization_mode_rejected(self):
        with pytest.raises(ArgumentError, match="^unknown normalization mode 'bogus'$"):
            data.ContentMatrix(np.zeros((1, 2)), "bogus")

    def test_raw_mode_is_no_reader_mode(self):
        # raw content is already in [0, 1]; triples are counts to normalize
        with pytest.raises(ArgumentError, match="^unknown normalization mode 'raw'$"):
            data.content_from_triples([(0, 1, 2.0)], mode=data.RAW)


class TestLoadContent:
    def test_maxnorm_divides_by_row_max(self, tmp_path):
        # row counts (3, 1, 0) -> (1.0, 1/3, 0.0)
        path = write(tmp_path, "c.tsv", "0\t0\t3\n0\t1\t1\n")
        content = data.load_content(path, mode=data.COUNT_MAXNORM, vocab_size=3)
        np.testing.assert_allclose(content.row(0), [1.0, 1.0 / 3.0, 0.0])

    def test_binary_presence_indicator(self, tmp_path):
        path = write(tmp_path, "c.tsv", "0\t0\t3\n0\t1\t1\n")
        content = data.load_content(path, mode=data.BINARY_PRESENCE, vocab_size=3)
        np.testing.assert_array_equal(content.row(0), [1.0, 1.0, 0.0])

    def test_all_zero_row_warns(self, tmp_path, caplog):
        path = write(tmp_path, "c.tsv", "1\t0\t2\n")
        with caplog.at_level("WARNING"):
            content = data.load_content(path, num_items=3)
        assert "all-zero" in caplog.text
        np.testing.assert_array_equal(content.row(0), [0.0])

    def test_word_id_out_of_vocab(self, tmp_path):
        path = write(tmp_path, "c.tsv", "0\t9\t1\n")
        with pytest.raises(ValidationError, match="word id 9"):
            data.load_content(path, vocab_size=5)
        path = write(tmp_path, "d.tsv", "0\t1\t1\n30\t2\t1\n")
        with pytest.raises(ValidationError, match=r"d\.tsv:2: item id 30"):
            data.load_content(path, num_items=30)

    def test_nonpositive_count(self, tmp_path):
        with pytest.raises(ValidationError, match="positive"):
            data.load_content(write(tmp_path, "a.tsv", "0\t0\t-2\n"))
        with pytest.raises(ValidationError, match="positive"):
            data.load_content(write(tmp_path, "b.tsv", "0\t0\t0\n"))
        for name, count in (("n.tsv", "nan"), ("i.tsv", "inf")):
            path = write(tmp_path, name, f"0\t0\t1\n1\t0\t{count}\n")
            for mode in (data.BINARY_PRESENCE, data.COUNT_MAXNORM):
                with pytest.raises(ValidationError, match=f"{name}:2: count must be positive and finite"):
                    data.load_content(path, mode=mode)

    # two finite counts of one pair that sum to inf: under count-maxnorm the
    # row's max was inf, and inf / inf a NaN with a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", [data.BINARY_PRESENCE, data.COUNT_MAXNORM])
    @pytest.mark.parametrize("shape", [{}, {"num_items": 2}, {"num_items": 2, "vocab_size": 3}])
    def test_pair_counts_summing_past_float_range_name_first_line(self, tmp_path, mode,
                                                                  shape):
        reason = "counts of item 0, word 1 sum to inf"
        path = write(tmp_path, "c.tsv", "1\t0\t1\n0\t1\t1e308\n0\t2\t1\n0\t1\t1e308\n")
        with pytest.raises(ValidationError) as info:
            data.load_content(path, mode=mode, **shape)
        assert str(info.value) == f"{path}:2: {reason}"
        path = write(tmp_path, "one.tsv", "1\t1e308\n# a note\n1\t1e308\n")
        with pytest.raises(ValidationError) as info:
            data.load_content(path, mode=mode, item_column=False)
        assert str(info.value) == f"{path}:1: {reason}"
        triples = [(1, 0, 1.0), (0, 1, 1e308), (0, 2, 1.0), (0, 1, 1e308)]
        with pytest.raises(ValidationError) as info:
            data.content_from_triples(triples, mode, **shape)
        assert str(info.value) == f"triple 1: {reason}"

    def test_id_beyond_int64_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "c.tsv", "0\t1\t1\n0\t99999999999999999999\t1\n")
        with pytest.raises(ValidationError) as info:
            data.load_content(path)
        assert str(info.value).startswith(f"{path}:2: id outside int64")
        path = write(tmp_path, "one.tsv", "99999999999999999999\t1\n")
        with pytest.raises(ValidationError) as info:
            data.load_content(path, item_column=False)
        assert str(info.value).startswith(f"{path}:1: id outside int64")

    # without a shape the largest item id sizes the matrix: 10**12 asks for
    # a 7.28 TiB row pointer array, 2**63 - 2 for more entries than numpy allows
    @pytest.mark.parametrize("text, item_column, reason", [
        ("0\t9223372036854775807\t1\n", True,
         "id 9223372036854775807 sizes the matrix beyond int64"),
        ("0\t1\t1\n9223372036854775807\t0\t1\n", True,
         "id 9223372036854775807 sizes the matrix beyond int64"),
        ("9223372036854775807\t1\n", False,
         "id 9223372036854775807 sizes the matrix beyond int64"),
        ("0\t1\t1\n1000000000000\t2\t1\n", True,
         "id 1000000000000 sizes the matrix too large to index"),
        ("0\t1\t1\n9223372036854775806\t2\t1\n", True,
         "id 9223372036854775806 sizes the matrix too large to index"),
    ], ids=["word", "item", "word-without-item-column", "item-beyond-memory",
            "item-beyond-numpy-dimension"])
    def test_id_sizing_beyond_int64_names_file_and_line(self, tmp_path, text, item_column,
                                                        reason):
        path = write(tmp_path, "c.tsv", text)
        with pytest.raises(ValidationError) as info:
            data.load_content(path, item_column=item_column)
        lineno = text.count("\n")
        assert str(info.value) == f"{path}:{lineno}: {reason}"

    def test_shape_too_large_to_index_names_file(self, tmp_path):
        path = write(tmp_path, "c.tsv", "0\t1\t1\n")
        with pytest.raises(ValidationError) as info:
            data.load_content(path, num_items=10**12)
        assert str(info.value) == (f"{path}: matrix dimensions 1000000000000 x 2 "
                                   "too large to index")

    def test_non_finite_content_values_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                data.ContentMatrix(sp.csr_matrix([[bad, 0.5]]))
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                data.ContentMatrix(np.array([[0.0, bad]]))

    def test_values_stay_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = [
            f"{i}\t{w}\t{rng.integers(1, 50)}"
            for i in range(20)
            for w in rng.choice(30, size=5, replace=False)
        ]
        path = _new_file(tmp_path, "\n".join(lines) + "\n")
        for mode in (data.BINARY_PRESENCE, data.COUNT_MAXNORM):
            content = data.load_content(path, mode=mode)
            assert content.matrix.data.min() >= 0.0
            assert content.matrix.data.max() <= 1.0


class TestCorrupt:
    def make_content(self, seed=0, shape=(40, 25), density=0.3):
        rng = np.random.default_rng(seed)
        dense = rng.random(shape) * (rng.random(shape) < density)
        return data.ContentMatrix(dense, data.RAW)

    def test_zero_noise_is_identity(self):
        content = self.make_content()
        out = data.corrupt(content, 0.0, seed=1)
        assert (out.matrix != content.matrix).nnz == 0

    def test_full_noise_zeroes_everything(self):
        out = data.corrupt(self.make_content(), 1.0, seed=1)
        assert out.matrix.nnz == 0

    def test_masked_fraction_concentrates(self):
        # binomial concentration: 1e5 nonzeros at level 0.3 -> within 0.01
        dense = np.ones((200, 500))
        content = data.ContentMatrix(dense, data.RAW)
        out = data.corrupt(content, 0.3, seed=5)
        masked = 1.0 - out.matrix.nnz / content.matrix.nnz
        assert abs(masked - 0.3) < 0.01

    def test_never_changes_zero_never_increases(self):
        content = self.make_content(seed=3)
        out = data.corrupt(content, 0.4, seed=9)
        before = content.toarray()
        after = out.toarray()
        assert np.all(after <= before)
        assert np.all(after[before == 0.0] == 0.0)
        # unmasked entries keep the clean value exactly
        kept = after != 0.0
        assert np.array_equal(after[kept], before[kept])

    def test_deterministic_per_seed(self):
        content = self.make_content(seed=4)
        a = data.corrupt(content, 0.5, seed=11)
        b = data.corrupt(content, 0.5, seed=11)
        assert (a.matrix != b.matrix).nnz == 0

    def test_bad_noise_level(self):
        with pytest.raises(ArgumentError):
            data.corrupt(self.make_content(), 1.5, seed=0)

    @staticmethod
    def copy_multiply_eliminate(content, noise_level, seed):
        """corrupt as a copy of the clean matrix, multiplied by the keep mask,
        with the zeros then eliminated: the reference for the compaction."""
        rng = np.random.default_rng(seed)
        csr = content.matrix.copy()
        if csr.nnz:
            keep = rng.random(csr.nnz) >= noise_level
            csr.data = csr.data * keep
            csr.eliminate_zeros()
        return data.ContentMatrix(csr, content.normalization_mode)

    def test_matches_copy_multiply_eliminate_bit_for_bit(self):
        # explicit stored zeros in the clean content are dropped, as
        # eliminate_zeros drops them
        with_zeros = self.make_content(seed=5).matrix.copy()
        with_zeros.data[::4] = 0.0
        contents = [self.make_content(seed=6), self.make_content(seed=7, shape=(90, 300)),
                    data.ContentMatrix(with_zeros), data.ContentMatrix(sp.csr_matrix((6, 9)))]
        assert (contents[2].matrix.data == 0.0).any() and contents[3].nnz == 0
        for content in contents:
            for noise_level in (0.0, 0.3, 1.0):
                for seed in range(6):
                    got = data.corrupt(content, noise_level, seed).matrix
                    want = self.copy_multiply_eliminate(content, noise_level, seed).matrix
                    assert got.shape == want.shape
                    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
                    for name in ("indices", "indptr"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    for name in ("data", "indices", "indptr"):
                        assert not np.shares_memory(getattr(got, name),
                                                    getattr(content.matrix, name))


class TestSplit:
    def make_ratings(self, seed=0, num_users=30, num_items=50, per_user=(1, 12)):
        rng = np.random.default_rng(seed)
        pairs = []
        for u in range(num_users):
            n = rng.integers(per_user[0], per_user[1])
            items = rng.choice(num_items, size=n, replace=False)
            pairs += [(u, int(j)) for j in items]
        return data.RatingsMatrix(num_users, num_items, pairs)

    def test_five_items_p1(self):
        ratings = data.RatingsMatrix(1, 5, [[0, j] for j in range(5)])
        train, test, eval_users = data.split(ratings, data.SplitSpec(P=1, seed=0))
        assert train.nnz == 1 and test.nnz == 4
        assert eval_users == {0}

    def test_too_few_items_all_in_train(self):
        ratings = data.RatingsMatrix(1, 5, [[0, 1], [0, 3]])
        train, test, eval_users = data.split(ratings, data.SplitSpec(P=10, seed=0))
        assert train.nnz == 2 and test.nnz == 0
        assert eval_users == set()

    def test_same_seed_same_split(self):
        ratings = self.make_ratings()
        a = data.split(ratings, data.SplitSpec(P=2, seed=7))
        b = data.split(ratings, data.SplitSpec(P=2, seed=7))
        assert np.array_equal(a[0].pairs, b[0].pairs)
        assert np.array_equal(a[1].pairs, b[1].pairs)
        assert a[2] == b[2]

    def test_union_and_disjointness(self):
        ratings = self.make_ratings(seed=2)
        train, test, _ = data.split(ratings, data.SplitSpec(P=3, seed=1))
        merged = {tuple(p) for p in train.pairs} | {tuple(p) for p in test.pairs}
        assert merged == {tuple(p) for p in ratings.pairs}
        assert train.nnz + test.nnz == ratings.nnz

    def test_exactly_p_train_items_per_eval_user(self):
        ratings = self.make_ratings(seed=5)
        P = 4
        train, test, eval_users = data.split(ratings, data.SplitSpec(P=P, seed=3))
        for u in eval_users:
            assert len(train.items_of(u)) == P
            assert len(test.items_of(u)) >= 1

    def test_manifest_round_trip(self, tmp_path):
        ratings = self.make_ratings(seed=8)
        spec = data.SplitSpec(P=2, seed=13)
        train, _, _ = data.split(ratings, spec)
        path = tmp_path / "split.txt"
        data.write_split_manifest(path, train, spec)
        # the per-pair loop the writer had, kept as the byte reference
        expected = f"seed=13\nP=2\nusers={train.num_users}\nitems={train.num_items}\n"
        for u, j in train.pairs:
            expected += f"{u}\t{j}\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("P, reps, message", [
        (0, 1, "P must be at least 1"), (1, 0, "repetitions must be at least 1")])
    def test_counts_below_one_rejected(self, P, reps, message):
        with pytest.raises(ArgumentError, match=f"^{message}$"):
            data.SplitSpec(P=P, seed=0, repetitions=reps)

    def test_repetition_seeds(self):
        # the derivation cdl split records in each split_manifest.txt
        spec = data.SplitSpec(P=3, seed=7, repetitions=4)
        for rep in range(spec.repetitions):
            seed = int(np.random.SeedSequence([7, rep]).generate_state(1)[0])
            assert spec.repetition(rep) == data.SplitSpec(P=3, seed=seed)


def synth_hyper(**kw):
    base = dict(lambda_u=1.0, lambda_v=100.0, lambda_n=1e4, lambda_w=1.0,
                conf_a=1.0, conf_b=0.01, n_factors=4, noise_level=0.3,
                dropout_rate=0.0, learning_rate=0.01, momentum=0.9,
                epochs_per_block=1, max_sweeps=2, seed=0)
    base.update(kw)
    return HyperParams(**base)


class TestGenerateSynthetic:
    def test_infinite_lambda_v_pins_items_to_codes(self):
        hyper = synth_hyper(lambda_v=math.inf)
        _, content, _, V, net = data.generate_synthetic(10, 15, 8, 4, hyper, seed=1)
        from cdl import sdae
        # regenerate the seed input through the recorded generator stages
        rngs = np.random.SeedSequence(1).spawn(5)
        x_seed = (np.random.default_rng(rngs[1]).random((15, 8)) < 0.2).astype(float)
        codes = sdae.forward(net, x_seed)[net.middle]
        np.testing.assert_array_equal(V, codes)

    def test_fixed_seed_bitwise_identical(self):
        hyper = synth_hyper()
        a = data.generate_synthetic(10, 15, 8, 4, hyper, seed=9)
        b = data.generate_synthetic(10, 15, 8, 4, hyper, seed=9)
        assert np.array_equal(a[0].pairs, b[0].pairs)
        assert (a[1].matrix != b[1].matrix).nnz == 0
        np.testing.assert_array_equal(a[2], b[2])
        np.testing.assert_array_equal(a[3], b[3])
        for wa, wb in zip(a[4].weights, b[4].weights):
            np.testing.assert_array_equal(wa, wb)

    def test_user_factor_mean_within_3_sigma(self):
        hyper = synth_hyper()
        _, _, U, _, _ = data.generate_synthetic(50, 80, 8, 4, hyper, seed=2)
        n = U.size
        sigma = hyper.lambda_u ** -0.5 / math.sqrt(n)
        assert abs(U.mean()) < 3 * sigma

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ArgumentError, match="all layer widths must be positive"):
            data.generate_synthetic(5, 6, 4, 3, synth_hyper(n_factors=3), seed=1,
                                    widths=(4, 0, 3, 0, 4))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ArgumentError, match="^all dimensions must be positive$"):
            data.generate_synthetic(5, 0, 4, 3, synth_hyper(n_factors=3), seed=1)

    def test_content_in_unit_interval(self):
        hyper = synth_hyper(lambda_n=10.0)
        _, content, _, _, _ = data.generate_synthetic(10, 20, 8, 4, hyper, seed=3)
        dense = content.toarray()
        assert dense.min() >= 0.0 and dense.max() <= 1.0


def _new_file(tmp_path, text=""):
    """A new file holding ``text``: on filesystems that discard freed blocks,
    truncating a written file can take tens of milliseconds."""
    fd, name = tempfile.mkstemp(suffix=".tsv", dir=tmp_path)
    with os.fdopen(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
    return Path(name)


def _same_outcome(bulk, walk):
    """Both readers' results, or both readers' CdlError class and message; any
    other exception is a bug in a reader and fails the test."""
    outcomes = []
    for read in (bulk, walk):
        try:
            outcomes.append(("ok", read()))
        except CdlError as exc:
            outcomes.append((type(exc), str(exc)))
    (kind_a, a), (kind_b, b) = outcomes
    assert kind_a == kind_b, (a, b)
    return (a, b) if kind_a == "ok" else None


def _assert_same_content(a, b):
    assert a.matrix.shape == b.matrix.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.matrix, name), getattr(b.matrix, name))


@st.composite
def _canonical_ratings(draw):
    """(lines, num_users, num_items) of a file save_ratings could write,
    header first, or without the header."""
    num_users, num_items = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, num_users * num_items - 1), min_size=1,
                         max_size=12, unique=True))
    lines = [f"{u}\t{j}" for u, j in sorted(divmod(k, num_items) for k in flat)]
    if draw(st.booleans()):
        lines.insert(0, f"# users={num_users} items={num_items}")
    return lines, num_users, num_items


@st.composite
def _canonical_content(draw):
    """(lines, triples, item_column) of a content file in the writers' layout."""
    item_column = draw(st.booleans())
    counts = st.one_of(st.integers(1, 50).map(float),
                       st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    triples = draw(st.lists(st.tuples(st.integers(0, 4) if item_column else st.just(0),
                                      st.integers(0, 6), counts), min_size=1, max_size=12))
    if item_column:
        lines = [f"{i}\t{w}\t{c!r}" for i, w, c in triples]
    else:
        lines = [f"{w}\t{c!r}" for _, w, c in triples]
    return lines, triples, item_column


# Field texts that int() or float() and loadtxt may judge differently.
_ODD_FIELDS = st.sampled_from(
    ["+1", " 1", "1 ", "1_0", "1.0", "1e3", "-1", "-0", "0x1", "١", "１",
     str(2**63), str(2**63 - 1), str(-2**63 - 1), "nan", "inf", "-inf", "0", "1 # x",
     "", " ", "\x0c1", "1\x0b", "Infinity", "1e400", ".5", "5."])


@st.composite
def _mutation(draw, lines, columns):
    """``lines`` with one or two changes, as text."""
    lines, newline = list(lines), "\n"
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["blank", "comment", "crlf", "cr", "field", "fields",
                                     "repeat", "none"]))
        if kind == "blank":
            lines.insert(k, draw(st.sampled_from(["", " ", "\t", " \t "])))
        elif kind == "comment":
            lines.insert(k, draw(st.sampled_from(["# x", "# users=9 items=9", "#"])))
        elif kind == "fields":
            fields = lines[k].split("\t")
            lines[k] = "\t".join(fields[:1] if draw(st.booleans()) else fields + ["0"])
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "field" and not lines[k].startswith("#"):
            fields = lines[k].split("\t")
            column = draw(st.integers(0, min(columns, len(fields)) - 1))
            fields[column] = draw(st.one_of(_ODD_FIELDS, st.integers(-3, 12).map(str),
                                            st.text("0123456789+-._ eE#nainf\t", max_size=4)))
            lines[k] = "\t".join(fields)
        newline = {"crlf": "\r\n", "cr": "\r"}.get(kind, newline)
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@st.composite
def _mutated_ratings(draw):
    return draw(_mutation(draw(_canonical_ratings())[0], 2))


class TestBulkReaders:
    """The bulk readers against the line walk they fall back to, which is the
    reference: equal matrices, or the same error naming the same line."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_canonical_ratings())
    def test_ratings_round_trip(self, tmp_path, case):
        _, num_users, num_items = case
        lines = case[0][1:] if case[0][0].startswith("#") else case[0]
        pairs = [tuple(map(int, line.split("\t"))) for line in lines]
        ratings = data.RatingsMatrix(num_users, num_items, pairs)
        path = _new_file(tmp_path)
        data.save_ratings(ratings, path)
        back = data.load_ratings(path)
        assert (back.num_users, back.num_items) == (num_users, num_items)
        assert back.pairs.dtype == np.int64 and np.array_equal(back.pairs, ratings.pairs)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_canonical_content(), mode=st.sampled_from([data.BINARY_PRESENCE,
                                                             data.COUNT_MAXNORM]),
           dims=st.booleans())
    def test_content_round_trip(self, tmp_path, case, mode, dims):
        lines, triples, item_column = case
        shape = dict(num_items=5, vocab_size=7) if dims else {}
        path = _new_file(tmp_path, "\n".join(lines) + "\n")
        _assert_same_content(
            data.load_content(path, mode=mode, item_column=item_column, **shape),
            data.content_from_triples(triples, mode, **shape))

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_mutated_ratings())
    # a whitespace-only line holding a tab, with a repeat or a negative id
    @example(text="0\t1\n\t\n0\t1\n")
    @example(text="0\t1\n \t \n0\t1\n")
    @example(text="# users=2 items=2\n\t\n0\t-1\n")
    def test_mutated_ratings_read_as_the_line_walk_reads_them(self, tmp_path, text):
        path = _new_file(tmp_path, text)
        both = _same_outcome(lambda: data.load_ratings(path),
                             lambda: data._ratings(path, path.read_text(encoding="utf-8"), None))
        if both:
            a, b = both
            assert (a.num_users, a.num_items) == (b.num_users, b.num_items)
            assert np.array_equal(a.pairs, b.pairs)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data_=st.data(), mode=st.sampled_from([data.BINARY_PRESENCE, data.COUNT_MAXNORM]),
           dims=st.booleans())
    def test_mutated_content_reads_as_the_line_walk_reads_it(self, tmp_path, data_, mode, dims):
        lines, _, item_column = data_.draw(_canonical_content())
        shape = dict(num_items=5, vocab_size=7) if dims else {}
        path = _new_file(tmp_path, data_.draw(_mutation(lines, 3 if item_column else 2)))
        both = _same_outcome(
            lambda: data.load_content(path, mode=mode, item_column=item_column, **shape),
            lambda: data._content(path, path.read_text(encoding="utf-8"), None,
                                  data._TRIPLES if item_column else data._WORD_COUNTS,
                                  mode, shape.get("num_items"), shape.get("vocab_size")))
        if both:
            _assert_same_content(*both)


class TestOpenOutput:
    def test_replaces_a_linked_file_instead_of_writing_through(self, tmp_path):
        path, hard, target = tmp_path / "out.tsv", tmp_path / "hard", tmp_path / "target"
        path.write_text("old\n")
        os.link(path, hard)
        target.write_text("target\n")
        symlinked = tmp_path / "sym.tsv"
        symlinked.symlink_to(target)
        for out in (path, symlinked):
            with data.open_output(out) as fh:
                fh.write("new\n")
            assert out.read_text() == "new\n" and not out.is_symlink()
        assert hard.read_text() == "old\n"
        assert target.read_text() == "target\n"

    def test_modes(self, tmp_path):
        path = tmp_path / "out"
        with data.open_output(path) as fh:
            fh.write("é\n")
        with data.open_output(path, "a") as fh:
            fh.write("b\n")
        assert path.read_bytes() == "é\nb\n".encode()
        with data.open_output(path, "wb") as fh:
            fh.write(b"\xff")
        assert path.read_bytes() == b"\xff"
        with data.open_output(tmp_path / "new", "a") as fh:
            fh.write("x")
        assert (tmp_path / "new").read_text() == "x"

    def test_directory_at_the_path_raises_os_error(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError):
            data.open_output(tmp_path / "d")
        assert (tmp_path / "d").is_dir()


class TestReadNpz:
    def test_plain_npy_file_named_as_no_checkpoint(self, tmp_path):
        # np.load reads a .npy file as one array, not as an archive
        path = tmp_path / "factors.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: unreadable checkpoint: not an npz archive") + "$"):
            data.read_npz(path, dict)
