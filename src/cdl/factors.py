"""Confidence-weighted matrix factorization with content-coupled item priors.

Closed-form block updates: each user (item) vector is the exact maximizer of
the joint objective given everything else, obtained from a symmetric
positive-definite solve.  The confidence decomposition (weight b everywhere
plus a-b on observed entries) keeps a full sweep at
O(K^2 * nnz + K^3 * (num_users + num_items)) without materializing dense
user-item products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import read_npz
from .exceptions import NumericError, ShapeError, ValidationError


@dataclass(frozen=True)
class ConfidenceParams:
    """Rating confidences: weight ``a`` on observed entries, ``b`` elsewhere."""

    a: float
    b: float

    def __post_init__(self):
        # b = 0 is allowed: it reduces the updates to regularized least
        # squares over observed entries only.
        if not (self.a > self.b >= 0.0):
            raise ValidationError(f"need a > b >= 0, got a={self.a}, b={self.b}")


@dataclass
class LatentFactors:
    """User matrix U (num_users x K) and item matrix V (num_items x K)."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2 or self.U.shape[1] != self.V.shape[1]:
            raise ShapeError(
                f"factor shapes {self.U.shape} and {self.V.shape} do not share a width"
            )
        if not (np.isfinite(self.U).all() and np.isfinite(self.V).all()):
            raise NumericError("non-finite latent factor")

    @property
    def n_factors(self):
        return self.U.shape[1]


def _solve_spd(A, rhs):
    """x solving A x = rhs for SPD A, and the upper Cholesky factor of A
    (only its upper triangle is meaningful) for callers that reuse it."""
    try:
        factor = scipy.linalg.cho_factor(A)
        return scipy.linalg.cho_solve(factor, rhs), factor[0]
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericError(f"SPD solve failed: {exc}") from exc


def _base(F, lam, conf):
    """lam*I + b*F^T F: the part of the system every row of a pass shares."""
    return lam * np.eye(F.shape[1]) + conf.b * (F.T @ F)


def _row_system(F, rows, conf, lam, base, prior=None):
    """One row's system: A = base + (a-b) F_o^T F_o over the observed
    ``rows`` of F, rhs = lam * prior + a * sum(F_o); users have no prior."""
    if not len(rows):
        return base, np.zeros(F.shape[1]) if prior is None else lam * prior
    Fo = F[rows]
    pull = conf.a * Fo.sum(axis=0)
    rhs = pull if prior is None else lam * prior + pull
    return base + (conf.a - conf.b) * (Fo.T @ Fo), rhs


def _user_system(V, rated_items, conf, lambda_u):
    return _row_system(V, rated_items, conf, lambda_u, _base(V, lambda_u, conf))


def _item_system(U, rated_users, conf, lambda_v, encoding):
    encoding = np.asarray(encoding, dtype=np.float64)
    if encoding.shape != (U.shape[1],):
        raise ShapeError(f"encoding width {encoding.shape} != ({U.shape[1]},)")
    return _row_system(U, rated_users, conf, lambda_v, _base(U, lambda_v, conf), encoding)


def update_user(V, rated_items, conf, lambda_u):
    """Exact maximizer of the joint objective in one user vector.

    ``rated_items`` are the item ids with an observed rating (value 1).
    """
    return _solve_spd(*_user_system(V, rated_items, conf, lambda_u))[0]


def update_item(U, rated_users, conf, lambda_v, encoding):
    """Exact maximizer in one item vector, pulled toward its content encoding."""
    return _solve_spd(*_item_system(U, rated_users, conf, lambda_v, encoding))[0]


def user_gradient(u, V, rated_items, conf, lambda_u):
    """Gradient of the joint objective w.r.t. one user vector (zero at the
    update_user output, up to solver round-off)."""
    A, rhs = _user_system(V, rated_items, conf, lambda_u)
    return rhs - A @ u


def item_gradient(v, U, rated_users, conf, lambda_v, encoding):
    A, rhs = _item_system(U, rated_users, conf, lambda_v, encoding)
    return rhs - A @ v


def _sweep(F, count, rows_of, conf, lam, priors=None):
    """Exact updates of ``count`` mutually independent rows against F."""
    base = _base(F, lam, conf)
    out = np.empty((count, F.shape[1]))
    for r in range(count):
        prior = None if priors is None else priors[r]
        out[r] = _solve_spd(*_row_system(F, rows_of(r), conf, lam, base, prior))[0]
    return out


def sweep_users(V, ratings, conf, lambda_u):
    """One full pass of exact user updates."""
    return _sweep(V, ratings.num_users, ratings.items_of, conf, lambda_u)


def sweep_items(U, ratings, conf, lambda_v, encodings):
    """One full pass of exact item updates toward the given encodings."""
    encodings = np.asarray(encodings, dtype=np.float64)
    if encodings.shape != (ratings.num_items, U.shape[1]):
        raise ShapeError(
            f"encodings shape {encodings.shape} != {(ratings.num_items, U.shape[1])}"
        )
    return _sweep(U, ratings.num_items, ratings.users_of, conf, lambda_v, encodings)


def predict(u, v):
    """Predicted rating: plain dot product of user and item vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeError(f"factor widths {u.shape} and {v.shape} differ")
    return float(u @ v)


def predict_new_item(u, encoding):
    """Cold-start rating for an unrated item: its offset is zero, so the item
    vector is exactly the content encoding."""
    return predict(u, encoding)


def rating_objective(U, V, ratings, conf):
    """Negative weighted squared rating error over all user-item pairs.

    Computed as the b-weighted sum over every pair plus the (a-b) correction
    on observed entries, so the dense product matrix is never formed.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.shape[0] != ratings.num_users or V.shape[0] != ratings.num_items:
        raise ShapeError("factor row counts do not match the ratings matrix")
    if U.shape[1] != V.shape[1]:
        raise ShapeError("factor widths differ")
    # overflow/nan propagate into the returned value; callers with a
    # divergence policy check finiteness themselves
    with np.errstate(over="ignore", invalid="ignore"):
        gram_v = V.T @ V
        background = conf.b * float(np.sum((U @ gram_v) * U))
        pairs = ratings.pairs
        if len(pairs):
            p = np.sum(U[pairs[:, 0]] * V[pairs[:, 1]], axis=1)
            observed = float(np.sum(conf.a * (1.0 - p) ** 2 - conf.b * p ** 2))
        else:
            observed = 0.0
    return -0.5 * (background + observed)


def save_factors(factors, path):
    """Checkpoint U and V; the round trip through load_factors is bit-exact."""
    np.savez(path, U=factors.U, V=factors.V)


def load_factors(path):
    return read_npz(path, lambda arrays: LatentFactors(arrays["U"], arrays["V"]))


def export_factors_text(factors, path):
    """Human-readable factor dump for inspection."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# users={factors.U.shape[0]} items={factors.V.shape[0]} "
            f"n_factors={factors.n_factors}\n"
        )
        fh.write("# U\n")
        np.savetxt(fh, factors.U, fmt="%.17g", delimiter="\t")
        fh.write("# V\n")
        np.savetxt(fh, factors.V, fmt="%.17g", delimiter="\t")
