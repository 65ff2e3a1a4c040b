"""Top-M ranking metrics: recall@M curves and truncated mean average precision.

Per-user lists are sorted by predicted rating descending with ties broken by
ascending item id, so ranking is a pure function of its inputs.  Users with
no held-out liked items are excluded from every mean.

Users are scored in blocks of ``BLOCK_USERS`` with one matrix product, so
working memory is bounded by one block of scores.  The product is taken with
the negated user factors, which gives the negated scores exactly, so
ascending order is the ranking; a training item is set to +inf and sorts
after every candidate.  The metrics read one users x positions hit matrix
instead of intersecting lists user by user.  ``evaluate_run`` builds it from
where each held-out item falls in the order, sorting only each block's top
scores, and builds no list: an item tied with another candidate is placed by
counting the equal scores with a lower item id, with no whole-row sort.
``rank`` builds the lists themselves (for ``cdl predict``) with one stable
sort of each block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_table
from .exceptions import ArgumentError, NumericError, ShapeError

EXCLUDE_TRAIN = "exclude-train"
ALL_ITEMS = "all-items"

DEFAULT_M_GRID = (50, 100, 150, 200, 250, 300)
MAP_CUTOFF = 500

BLOCK_USERS = 128  # users scored per matrix product
_HIGHEST = np.finfo(np.float64).max  # above every finite negated score, below +inf


@dataclass
class RankedList:
    """Per-user item rankings (descending score) under a candidate policy."""

    items: list          # one int array of distinct item ids per user
    policy: str

    @property
    def num_users(self):
        return len(self.items)


def _scored_blocks(U, V, train, policy):
    """Yield (first user, negated scores) for each block of ``BLOCK_USERS``
    users: one matrix product per block, ``negative(U[lo:hi]) @ V.T``, which
    under round-to-nearest is exactly -(U V^T), so ascending order is rank's
    order (negating the block's user rows copies no item-sized array).
    Under exclude-train the user's training items are set to +inf, after
    every candidate.  The arguments are checked before the first block is
    scored; a non-finite score raises :class:`NumericError` naming its
    user."""
    if policy not in (EXCLUDE_TRAIN, ALL_ITEMS):
        raise ArgumentError(f"unknown candidate policy {policy!r}")
    if policy == EXCLUDE_TRAIN and train is None:
        raise ArgumentError("exclude-train policy needs the training matrix")
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.shape[1] != V.shape[1]:
        raise ShapeError("factor widths differ")
    num_users, num_items = U.shape[0], V.shape[0]
    exclude = policy == EXCLUDE_TRAIN
    if exclude and (train.num_users < num_users or train.num_items > num_items):
        raise ShapeError(
            f"training matrix {train.num_users} x {train.num_items} does not "
            f"cover {num_users} users x {num_items} items"
        )
    pairs = train.pairs if exclude else None
    for lo in range(0, num_users, BLOCK_USERS):
        hi = min(lo + BLOCK_USERS, num_users)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = np.negative(U[lo:hi]) @ V.T  # a non-finite score is raised below
        finite = np.isfinite(scores)
        if not finite.all():
            user = lo + int(np.flatnonzero(~finite.all(axis=1))[0])
            raise NumericError(f"non-finite predicted score for user {user}")
        if exclude:
            seen = pairs[np.searchsorted(pairs[:, 0], lo):np.searchsorted(pairs[:, 0], hi)]
            scores[seen[:, 0] - lo, seen[:, 1]] = np.inf
        yield lo, scores


def rank(U, V, train=None, policy=EXCLUDE_TRAIN, limit=None):
    """Rank items for every user by predicted rating.

    Under the default exclude-train policy the user's training items are
    removed from the candidates; ``limit`` truncates each list after sorting
    (keep it >= max(M, cutoff) for downstream metrics).  Each block of users
    is sorted whole, stably, so ties go to the lower item id.  Every score
    must be finite: a non-finite one raises :class:`NumericError`.
    """
    if limit is not None and limit < 0:
        raise ArgumentError(f"limit must be non-negative, got {limit}")
    lists = []
    for _, scores in _scored_blocks(U, V, train, policy):
        # negated scores: training items are +inf, so they sort after every
        # candidate
        order = np.argsort(scores, axis=1, kind="stable")
        keep = np.isfinite(scores).sum(axis=1)
        if limit is not None:
            keep = np.minimum(keep, limit)
        lists.extend(row[:count].copy() for row, count in zip(order, keep))
    return RankedList(lists, policy)


def _hit_matrix(ranked, test, width):
    """Boolean users x positions matrix (is the item at that position of the
    user's list held out for them?) over the first ``width`` positions, cut to
    the longest list, with the number of held-out items per user."""
    liked = _liked(ranked.num_users, test)
    heads = [items[:width] for items in ranked.items]
    hits = np.zeros((len(heads), max(map(len, heads), default=0)), dtype=bool)
    for user, head in enumerate(heads):
        hits[user, :len(head)] = np.isin(head, test.items_of(user))
    return hits, liked


def _liked(num_users, test):
    """Held-out items of each of the first ``num_users`` users of ``test``."""
    if num_users > test.num_users:
        raise ShapeError(f"{num_users} ranked users but the test matrix has {test.num_users}")
    return np.bincount(test.pairs[:, 0], minlength=test.num_users)[:num_users]


def _count_below(sorted_rows, rows, values):
    """For each value, the number of entries below it in its row of
    ``sorted_rows`` (rows ascending): one binary search for all values, in
    steps of falling powers of two."""
    width = sorted_rows.shape[1]
    flat = sorted_rows.ravel()
    before = rows * width - 1  # the flat index just before each value's row
    below = np.zeros(len(values), dtype=np.intp)
    step = 1 << (width.bit_length() - 1)
    while step:
        probe = below + step
        below += step * ((probe <= width)
                         & (flat[before + np.minimum(probe, width)] < values))
        step >>= 1
    return below


def _equals_before(scores, rows, items, values):
    """For each (row, item, value), the number of entries of ``scores[row]``
    before ``item`` equal to ``value``: per ``BLOCK_USERS`` distinct (row,
    value) pairs, one sorted list of the flat indices of the entries equal
    to their pair's value, searched for each item."""
    order = np.lexsort((values, rows))
    first = np.ones(len(order), dtype=bool)
    first[1:] = ((rows[order[1:]] != rows[order[:-1]])
                 | (values[order[1:]] != values[order[:-1]]))
    pair = np.empty(len(order), dtype=np.intp)
    pair[order] = np.cumsum(first) - 1
    heads = order[first]  # one item of each pair, in pair order
    before = np.empty(len(order), dtype=np.intp)
    for lo in range(0, len(heads), BLOCK_USERS):
        chosen = heads[lo:lo + BLOCK_USERS]
        equal = np.flatnonzero(scores[rows[chosen]] == values[chosen, None])
        mine = (pair >= lo) & (pair < lo + len(chosen))
        start = (pair[mine] - lo) * scores.shape[1]  # the flat index of the pair's row
        before[mine] = np.searchsorted(equal, start + items[mine]) - np.searchsorted(equal, start)
    return before


def _held_out_hits(U, V, train, test, policy, width):
    """The hit matrix and held-out counts of ``_hit_matrix`` for
    ``rank(U, V, train, policy, width)``, read from the held-out items'
    positions instead of from lists, ``min(width, len(V))`` columns wide.

    An item's position is the number of candidates scoring higher plus the
    number scoring the same with a lower id, which is rank's order.  Per
    block of users only the ``width`` highest scores are sorted, and the
    equal scores with a lower id are counted only for an item tied with
    another candidate."""
    num_users, num_items = len(U), len(V)
    liked = _liked(num_users, test)
    width = min(width, num_items)
    hits = np.zeros((num_users, width), dtype=bool)
    held = test.pairs[test.pairs[:, 1] < num_items]
    for lo, neg in _scored_blocks(U, V, train, policy):
        block = held[np.searchsorted(held[:, 0], lo):
                     np.searchsorted(held[:, 0], lo + len(neg))]
        if not (width and len(block)):
            continue
        top = np.sort(np.partition(neg, width - 1, axis=1)[:, :width], axis=1)
        cut = np.minimum(top[:, -1], _HIGHEST)
        rows, items = block[:, 0] - lo, block[:, 1]
        value = neg[rows, items]
        near = value <= cut[rows]
        rows, items, value = rows[near], items[near], value[near]
        # every candidate scoring higher is in the top, so counting there
        # places an item with no tie; a tie shows as the same value next in
        # the top, and a value at the cut, whose equals may lie past the top,
        # always reads as tied (the next place is clamped to the cut)
        pos = _count_below(top, rows, value)
        tied = top[rows, np.minimum(pos + 1, width - 1)] == value
        if tied.any():
            pos[tied] += _equals_before(neg, rows[tied], items[tied], value[tied])
        listed = pos < width
        hits[lo + rows[listed], pos[listed]] = True
    return hits, liked


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _checked_grid(m_grid):
    m_grid = [int(m) for m in m_grid]
    if any(m < 1 for m in m_grid):
        raise ArgumentError("M must be at least 1")
    return m_grid


def _recalls(ranked, test, m_grid, hits=None):
    """Per-user recall (held-out users only) at every M of the grid, read
    from ``hits`` when given (see recall_curve)."""
    m_grid = _checked_grid(m_grid)
    widest = max(m_grid, default=0)
    hits, liked = hits or _hit_matrix(ranked, test, widest)
    found = np.cumsum(hits[:, :widest], axis=1)
    users = np.flatnonzero(liked)
    out = {}
    for m in m_grid:
        width = min(m, found.shape[1])
        counts = found[users, width - 1] if width else np.zeros(len(users), dtype=np.int64)
        out[m] = dict(zip(users.tolist(), (counts / liked[users]).tolist()))
    return out


def recall_at_m(ranked, test, m):
    """Per-user and mean recall of the held-out liked items in the top M."""
    per_user = _recalls(ranked, test, [m])[int(m)]
    return per_user, _mean(list(per_user.values()))


def recall_curve(ranked, test, m_grid=DEFAULT_M_GRID, *, hits=None):
    """Mean recall at every M of the grid; non-decreasing in M.

    ``hits`` is the ``_hit_matrix(ranked, test, width)`` pair of this
    ranking and test set, or its ``_held_out_hits`` equal, for any width of
    at least max(m_grid): a caller that also needs mAP builds it once, and
    ``ranked`` is then unused.  It is built here when None."""
    return {m: _mean(list(per_user.values()))
            for m, per_user in _recalls(ranked, test, m_grid, hits).items()}


def _average_precisions(hits, liked):
    """AP of each row of a hit matrix: precision at each hit, summed in rank
    order, over the row's number of liked items."""
    counts = hits.sum(axis=1)
    rows, pos = np.divmod(np.flatnonzero(hits), hits.shape[1])  # in rank order
    # a row's n-th hit, at position p, adds n / (p + 1); add.at adds them one
    # at a time, left to right, as the scalar loop did
    nth = np.arange(1, len(rows) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    total = np.zeros(hits.shape[0])
    np.add.at(total, rows, nth / (pos + 1))
    return total / liked


def _check_cutoff(cutoff):
    if cutoff < 1:
        raise ArgumentError(f"mAP cutoff must be at least 1, got {cutoff}")


def average_precision(ranked_items, liked, cutoff=MAP_CUTOFF):
    """AP of one list: mean over liked items of precision at each hit rank,
    counting only hits at rank <= cutoff."""
    _check_cutoff(cutoff)
    liked = set(int(j) for j in liked)
    if not liked:
        raise ArgumentError("average precision needs at least one liked item")
    hits = np.array([int(item) in liked for item in ranked_items[:cutoff]], dtype=bool)
    return float(_average_precisions(hits.reshape(1, -1), np.array([len(liked)]))[0])


def map_at_500(ranked, test, cutoff=MAP_CUTOFF, *, hits=None):
    """Mean average precision with a per-user rank cutoff (500 by default).
    ``hits`` is as for recall_curve, at least ``cutoff`` wide."""
    _check_cutoff(cutoff)
    hits, liked = hits or _hit_matrix(ranked, test, cutoff)
    users = liked > 0
    return _mean(_average_precisions(hits[users, :cutoff], liked[users]).tolist())


@dataclass
class MetricReport:
    """Per-repetition metric values with their mean and sample std."""

    per_rep: list        # one {metric: value} dict per repetition
    mean: dict
    std: dict

    @property
    def metric_names(self):
        return list(self.per_rep[0]) if self.per_rep else []

    def write_tsv(self, path):
        names = self.metric_names
        labelled = [*enumerate(self.per_rep), ("mean", self.mean), ("std", self.std)]
        write_table(path, ["repetition"] + names,
                    ([str(label)] + [format(values[n], ".10g") for n in names]
                     for label, values in labelled))


def evaluate_run(factors, train, test, m_grid=DEFAULT_M_GRID, cutoff=MAP_CUTOFF,
                 policy=EXCLUDE_TRAIN):
    """Metric dict (recall@M per grid point plus mAP) for one train/test pair.

    The values are those of ``rank`` followed by ``recall_curve`` and
    ``map_at_500``, but no list is built: one hit matrix, read from where
    each held-out item falls in its user's ranking, serves both metrics.
    The grid and the cutoff are checked before any user is scored."""
    m_grid = _checked_grid(m_grid)
    if not m_grid:
        raise ArgumentError("the M grid is empty")
    _check_cutoff(cutoff)
    hits = _held_out_hits(factors.U, factors.V, train, test, policy,
                          max(max(m_grid), cutoff))
    values = {f"recall@{m}": r
              for m, r in recall_curve(None, test, m_grid, hits=hits).items()}
    values[f"map@{cutoff}"] = map_at_500(None, test, cutoff, hits=hits)
    return values


def aggregate(per_rep):
    """Mean and sample standard deviation of metric dicts across repetitions."""
    per_rep = list(per_rep)
    if not per_rep:
        raise ArgumentError("need at least one repetition")
    names = list(per_rep[0])
    for rep in per_rep:
        if list(rep) != names:
            raise ArgumentError("repetitions report different metrics")
    mean, std = {}, {}
    for n in names:
        values = [rep[n] for rep in per_rep]
        if min(values) == max(values):
            # identical repetitions: exactly zero spread
            mean[n], std[n] = values[0], 0.0
        else:
            mean[n] = sum(values) / len(values)
            std[n] = float(np.sqrt(
                sum((v - mean[n]) ** 2 for v in values) / (len(values) - 1)))
    return MetricReport(per_rep, mean, std)
