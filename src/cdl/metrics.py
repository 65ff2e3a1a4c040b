"""Top-M ranking metrics: recall@M curves and truncated mean average precision.

Per-user lists are sorted by predicted rating descending with ties broken by
ascending item id, so ranking is a pure function of its inputs.  Users with
no held-out liked items are excluded from every mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ArgumentError, ShapeError

EXCLUDE_TRAIN = "exclude-train"
ALL_ITEMS = "all-items"

DEFAULT_M_GRID = (50, 100, 150, 200, 250, 300)
MAP_CUTOFF = 500


@dataclass
class RankedList:
    """Per-user item rankings (descending score) under a candidate policy."""

    items: list          # one int array per user
    policy: str

    @property
    def num_users(self):
        return len(self.items)


def rank(U, V, train=None, policy=EXCLUDE_TRAIN, limit=None):
    """Rank items for every user by predicted rating.

    Under the default exclude-train policy the user's training items are
    removed from the candidates; ``limit`` truncates each list after sorting
    (keep it >= max(M, cutoff) for downstream metrics).
    """
    if policy not in (EXCLUDE_TRAIN, ALL_ITEMS):
        raise ArgumentError(f"unknown candidate policy {policy!r}")
    if policy == EXCLUDE_TRAIN and train is None:
        raise ArgumentError("exclude-train policy needs the training matrix")
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.shape[1] != V.shape[1]:
        raise ShapeError("factor widths differ")
    num_items = V.shape[0]
    ids = np.arange(num_items)
    lists = []
    for i in range(U.shape[0]):
        scores = V @ U[i]
        order = np.lexsort((ids, -scores))
        if policy == EXCLUDE_TRAIN:
            drop = np.zeros(num_items, dtype=bool)
            drop[train.items_of(i)] = True
            order = order[~drop[order]]
        if limit is not None:
            order = order[:limit]
        lists.append(order)
    return RankedList(lists, policy)


def recall_at_m(ranked, test, m):
    """Per-user and mean recall of the held-out liked items in the top M."""
    if m < 1:
        raise ArgumentError("M must be at least 1")
    per_user = {}
    for user in range(ranked.num_users):
        liked = test.items_of(user)
        if len(liked) == 0:
            continue
        hits = np.intersect1d(ranked.items[user][:m], liked).size
        per_user[user] = hits / len(liked)
    mean = sum(per_user.values()) / len(per_user) if per_user else 0.0
    return per_user, mean


def recall_curve(ranked, test, m_grid=DEFAULT_M_GRID):
    """Mean recall at every M of the grid; non-decreasing in M."""
    return {int(m): recall_at_m(ranked, test, m)[1] for m in m_grid}


def average_precision(ranked_items, liked, cutoff=MAP_CUTOFF):
    """AP of one list: mean over liked items of precision at each hit rank,
    counting only hits at rank <= cutoff."""
    liked = set(int(j) for j in liked)
    if not liked:
        raise ArgumentError("average precision needs at least one liked item")
    hits = 0
    score = 0.0
    for pos, item in enumerate(ranked_items[:cutoff], start=1):
        if int(item) in liked:
            hits += 1
            score += hits / pos
    return score / len(liked)


def map_at_500(ranked, test, cutoff=MAP_CUTOFF):
    """Mean average precision with a per-user rank cutoff (500 by default)."""
    values = []
    for user in range(ranked.num_users):
        liked = test.items_of(user)
        if len(liked) == 0:
            continue
        values.append(average_precision(ranked.items[user], liked, cutoff))
    return sum(values) / len(values) if values else 0.0


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("repetition\t" + "\t".join(names) + "\n")
            for idx, rep in enumerate(self.per_rep):
                fh.write(str(idx) + "\t"
                         + "\t".join(format(rep[n], ".10g") for n in names) + "\n")
            fh.write("mean\t" + "\t".join(format(self.mean[n], ".10g") for n in names) + "\n")
            fh.write("std\t" + "\t".join(format(self.std[n], ".10g") for n in names) + "\n")


def evaluate_run(factors, train, test, m_grid=DEFAULT_M_GRID, cutoff=MAP_CUTOFF,
                 policy=EXCLUDE_TRAIN):
    """Metric dict (recall@M per grid point plus mAP) for one train/test pair."""
    limit = max(max(m_grid), cutoff)
    ranked = rank(factors.U, factors.V, train, policy=policy, limit=limit)
    values = {f"recall@{m}": r for m, r in recall_curve(ranked, test, m_grid).items()}
    values[f"map@{cutoff}"] = map_at_500(ranked, test, cutoff)
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
