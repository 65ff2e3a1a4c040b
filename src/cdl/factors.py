"""Confidence-weighted matrix factorization with content-coupled item priors.

Closed-form block updates: each user (item) vector is the exact maximizer of
the joint objective given everything else, obtained from a symmetric
positive-definite solve.  The confidence decomposition (weight b everywhere
plus a-b on observed entries) splits each system into a part every row of a
pass shares, lam*I + b*F^T F, and a Gram over the row's observed entries, so
no dense user-item product is ever formed.

A sweep groups its rows by their number of observed entries and runs each
group in chunks of at most CHUNK_ROWS rows.  Rows with none (half the items
of a sparse split) share one factorization of the shared part, and each of
their chunks is one multi-right-hand-side solve.  In the other chunks one
stacked matmul forms the Grams, and each row is factored and solved by
LAPACK's dpotrf/dpotrs called directly.  A pass therefore costs
O(K^2 * nnz) plus O(K^3) per row with at least one observation, plus one
O(K^3) factorization for all the others, and its working memory is one
chunk: CHUNK_ROWS K x K systems and the factor rows they gather.  Every
sweep solution equals the one-row update bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .data import open_output, read_npz, write_npz
from .exceptions import NumericError, ShapeError, ValidationError

CHUNK_ROWS = 128  # rows per stacked Gram: a chunk holds CHUNK_ROWS K x K systems


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


def _check_finite(*arrays):
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericError("SPD solve failed: array must not contain infs or NaNs")


def _cholesky(A, overwrite=False):
    """Upper Cholesky factor of the SPD matrix A through LAPACK's dpotrf,
    written over A when ``overwrite`` is set and A is Fortran-ordered.  Only
    the upper triangle is meaningful; the lower one keeps A's entries."""
    upper, info = dpotrf(A, lower=0, clean=0, overwrite_a=int(overwrite))
    if info:
        raise NumericError(
            f"SPD solve failed: {info}-th leading minor of the array is not "
            "positive definite"
        )
    return upper


def _cho_solve(upper, rhs, overwrite=False):
    """x solving (upper^T upper) x = rhs, for one right-hand side (K,) or
    the K x n columns of many."""
    x, info = dpotrs(upper, rhs, lower=0, overwrite_b=int(overwrite))
    if info:
        raise NumericError(f"SPD solve failed: dpotrs argument {-info} is illegal")
    return x


def _solve_spd(A, rhs):
    """x solving A x = rhs for SPD A, and the upper Cholesky factor of A
    (only its upper triangle is meaningful) for callers that reuse it."""
    _check_finite(A, rhs)
    upper = _cholesky(A)
    return _cho_solve(upper, rhs), upper


def _base(F, lam, conf):
    """lam*I + b*F^T F: the part of the system every row of a pass shares."""
    _check_finite(F)
    return lam * np.eye(F.shape[1]) + conf.b * (F.T @ F)


def _systems(F, observed, conf, lam, base, priors=None):
    """Systems of the rows whose observed rows of F are ``observed`` (one
    row of ids each, all of one length c >= 1): A = base + (a-b) F_o^T F_o
    stacked (rows x K x K), rhs = lam * prior + a * sum(F_o) (rows x K);
    users have no prior."""
    Fo = F[observed]
    pull = conf.a * Fo.sum(axis=1)
    rhs = pull if priors is None else lam * priors + pull
    A = np.matmul(Fo.transpose(0, 2, 1), Fo)
    A *= conf.a - conf.b
    A += base
    return A, rhs


def _row_system(F, rows, conf, lam, base, prior=None):
    """One row's system; with no observed ``rows`` it is base itself."""
    if not len(rows):
        return base, np.zeros(F.shape[1]) if prior is None else lam * prior
    A, rhs = _systems(F, np.asarray(rows)[None], conf, lam, base,
                      None if prior is None else prior[None])
    return A[0], rhs[0]


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


def _grouped_solves(F, ptr, cols, conf, lam, priors=None):
    """Solve the system of every row r, whose observed rows of F are
    ``cols[ptr[r]:ptr[r+1]]``, grouped by that count.

    Yields (row ids, solutions, upper factors) a chunk of at most
    CHUNK_ROWS rows of one count at a time.  Rows with no observed entries
    share base's factorization, and each chunk of them one
    multi-right-hand-side solve; the other chunks form their Grams with one
    stacked matmul.  The solutions equal the one-row ``_solve_spd`` of
    ``_row_system`` bit for bit.
    """
    counts = np.diff(ptr)
    if not len(counts):
        return
    base = _base(F, lam, conf)
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        c = counts[group[0]]
        if c == 0:
            _check_finite(base)
            shared = _cholesky(base)
        for start in range(0, len(group), CHUNK_ROWS):
            rows = group[start:start + CHUNK_ROWS]
            prior = None if priors is None else priors[rows]
            if c == 0:
                rhs = np.zeros((len(rows), F.shape[1])) if prior is None else lam * prior
                _check_finite(rhs)
                yield rows, _cho_solve(shared, rhs.T, overwrite=True).T, [shared] * len(rows)
                continue
            A, rhs = _systems(F, cols[ptr[rows][:, None] + np.arange(c)], conf, lam,
                              base, prior)
            _check_finite(A, rhs)
            # each A[r] is symmetric and C-ordered, so A[r].T is the same
            # matrix in Fortran order and dpotrf factors it in place
            uppers = [_cholesky(a.T, overwrite=True) for a in A]
            for r, upper in enumerate(uppers):
                rhs[r] = _cho_solve(upper, rhs[r], overwrite=True)
            yield rows, rhs, uppers


def _sweep(F, ptr, cols, conf, lam, priors=None):
    """Exact updates of the mutually independent rows ``ptr`` indexes."""
    out = np.empty((len(ptr) - 1, F.shape[1]))
    for rows, x, _ in _grouped_solves(F, ptr, cols, conf, lam, priors):
        out[rows] = x
    return out


def _user_rows(ratings):
    """(ptr, cols): user r rated the items cols[ptr[r]:ptr[r+1]]."""
    return ratings._user_ptr, ratings._pairs[:, 1]


def _item_rows(ratings):
    """(ptr, cols): item j was rated by the users cols[ptr[j]:ptr[j+1]]."""
    return ratings._item_ptr, ratings._item_users


def sweep_users(V, ratings, conf, lambda_u):
    """One full pass of exact user updates."""
    return _sweep(V, *_user_rows(ratings), conf, lambda_u)


def sweep_items(U, ratings, conf, lambda_v, encodings):
    """One full pass of exact item updates toward the given encodings."""
    encodings = np.asarray(encodings, dtype=np.float64)
    if encodings.shape != (ratings.num_items, U.shape[1]):
        raise ShapeError(
            f"encodings shape {encodings.shape} != {(ratings.num_items, U.shape[1])}"
        )
    return _sweep(U, *_item_rows(ratings), conf, lambda_v, encodings)


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
    write_npz(path, U=factors.U, V=factors.V)


def load_factors(path):
    return read_npz(path, lambda arrays: LatentFactors(arrays["U"], arrays["V"]))


def export_factors_text(factors, path):
    """Human-readable factor dump for inspection."""
    with open_output(path) as fh:
        fh.write(
            f"# users={factors.U.shape[0]} items={factors.V.shape[0]} "
            f"n_factors={factors.n_factors}\n"
        )
        fh.write("# U\n")
        np.savetxt(fh, factors.U, fmt="%.17g", delimiter="\t")
        fh.write("# V\n")
        np.savetxt(fh, factors.V, fmt="%.17g", delimiter="\t")
