"""Seeded input generators for the benchmark workloads.

``citeulike_like`` draws a dataset with the shape of citeulike-a (5551 users,
16980 items, an 8000-word binary vocabulary, ~37 ratings per user, ~66 words
per item) from the model's own story: items carry latent topic vectors, words
and users carry vectors in the same space, and each user's items and each
item's words are the top entries of noisy low-rank scores.  Rows are drawn in
blocks, so no dense users-by-items or items-by-words array is ever built.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from cdl import data

CITEULIKE_SHAPE = {"num_users": 5551, "num_items": 16980, "vocab_size": 8000}

_GEN_RANK = 30            # latent dimension of the generating story
_BLOCK_ROWS = 256         # rows scored at once: 256 x 16980 float32 = 17 MB
_MEAN_RATINGS = 37.0      # citeulike-a: 204,986 ratings / 5551 users
_MIN_RATINGS = 11         # more than P=10, so every user is evaluated
_MEAN_WORDS = 66.0        # citeulike-a: mult.dat averages ~66 distinct words
_MIN_WORDS = 10
# widths of the uniform score noise; uniform draws are 3x cheaper than
# Gaussian ones and the noise sd is width / sqrt(12)
_RATING_NOISE = 1.0
_WORD_NOISE = 1.7


def _row_counts(rng, n, mean, minimum, maximum):
    """Heavy-tailed per-row counts (log-normal) with the given mean."""
    sigma = 0.8
    raw = rng.lognormal(np.log(mean - minimum) - 0.5 * sigma ** 2, sigma, size=n)
    return np.clip(np.rint(raw).astype(np.int64) + minimum, minimum, maximum)


def _top_per_row(rng, left, right, bias, counts, noise):
    """Column ids of the ``counts[r]`` largest noisy scores in every row of
    ``left @ right.T + bias``, scored block by block; ids come out sorted by
    row, then by descending score."""
    rows, cols = [], []
    scale = np.float32(1.0 / np.sqrt(left.shape[1]))
    for start in range(0, len(left), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(left))
        scores = (left[start:stop] @ right.T) * scale + bias
        scores += noise * rng.random(scores.shape, dtype=np.float32)
        need = counts[start:stop]
        kmax = int(need.max())
        top = np.argpartition(scores, -kmax, axis=1)[:, -kmax:]
        order = np.argsort(-np.take_along_axis(scores, top, axis=1), axis=1,
                           kind="stable")
        top = np.take_along_axis(top, order, axis=1)
        keep = np.arange(kmax) < need[:, None]
        rows.append(np.repeat(np.arange(start, stop), need))
        cols.append(top[keep].astype(np.int64))
    return np.concatenate(rows), np.concatenate(cols)


def citeulike_like(seed, num_users, num_items, vocab_size):
    """Return (ratings, content) drawn from the low-rank story above.

    Content is binary presence; the item vectors behind the ratings are the
    topic vectors that also pick each item's words plus a Gaussian offset,
    so content is informative about ratings, as CDL assumes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC17E]))
    k = _GEN_RANK
    topics = rng.standard_normal((num_items, k), dtype=np.float32)
    words = rng.standard_normal((vocab_size, k), dtype=np.float32)
    word_bias = (0.7 * rng.standard_normal(vocab_size)).astype(np.float32)
    item_vecs = topics + 0.5 * rng.standard_normal((num_items, k), dtype=np.float32)
    users = rng.standard_normal((num_users, k), dtype=np.float32)
    popularity = (0.5 * rng.standard_normal(num_items)).astype(np.float32)

    n_words = _row_counts(rng, num_items, _MEAN_WORDS, _MIN_WORDS, vocab_size // 4)
    item_ids, word_ids = _top_per_row(rng, topics, words, word_bias, n_words,
                                      _WORD_NOISE)
    presence = np.ones(len(item_ids))
    content = data.ContentMatrix(
        sp.csr_matrix((presence, (item_ids, word_ids)),
                           shape=(num_items, vocab_size)),
        data.BINARY_PRESENCE,
    )

    n_rated = _row_counts(rng, num_users, _MEAN_RATINGS, _MIN_RATINGS, num_items // 4)
    user_ids, rated = _top_per_row(rng, users, item_vecs, popularity, n_rated,
                                   _RATING_NOISE)
    ratings = data.RatingsMatrix(num_users, num_items,
                                 np.column_stack([user_ids, rated]))
    return ratings, content
