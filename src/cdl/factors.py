"""Confidence-weighted matrix factorization with content-coupled item priors.

Closed-form block updates: each user (item) vector is the exact maximizer of
the joint objective given everything else, obtained from a symmetric
positive-definite solve.  The confidence decomposition (weight b everywhere
plus a-b on observed entries) splits each system into a part every row of a
pass shares, lam*I + b*F^T F, and a Gram over the row's observed entries, so
no dense user-item product is ever formed.

A sweep groups its rows by their number c of observed entries and runs each
group in chunks of at most CHUNK_ROWS rows.  The pass factors its shared
part B = lam*I + b*F^T F once, and a row with c < K (at the paper's sparse
settings every user and nearly every item) solves its system as a rank-c
update of B by the Woodbury identity: a chunk's B^-1 (lam * prior) is one
multi-right-hand-side solve, and its c x c capacitances
I/(a-b) + F_o B^-1 F_o^T take one stacked matmul and one stacked solve.
Such a row costs O(c^2 K + c^3), plus O(K^2) for a prior, instead of the
O(K^3) of factoring its own system.  Rows with c = 0 are the
multi-right-hand-side solve alone.  A row with c >= K would pay more for
its capacitance than for its own K x K system, so one stacked matmul forms
its chunk's Grams and LAPACK's dpotrf/dpotrs, called directly, factor and
solve each row; so does a low-rank row whose capacitance is singular to
working precision or whose values leave the float range.  A pass costs
O(n K^2) for the n rows of F on top, and its working memory is F B^-1 (as
large as F) and one chunk.  A one-row update runs as a sweep of one row, so
every sweep solution equals it bit for bit.

Given a generator, the same pass draws each row from its Gaussian
conditional N(A^-1 rhs, A^-1) instead, by perturbation (Papandreou & Yuille,
NIPS 2010): the row takes K + c standard normals e1, e3 and solves
A x = rhs + R_B^T e1 + sqrt(a-b) F_o^T e3, for R_B B's Cholesky factor.  The
added term has covariance B + (a-b) F_o^T F_o = A, so a draw needs no factor
of A and takes each path above unchanged.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .data import open_output, read_npz, write_npz
from .exceptions import NumericError, ShapeError, ValidationError

CHUNK_ROWS = 128  # rows per chunk: it holds CHUNK_ROWS K x K systems or c x c capacitances


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
    zero below the diagonal, written over A when ``overwrite`` is set and A
    is Fortran-ordered."""
    upper, info = dpotrf(A, lower=0, overwrite_a=int(overwrite))
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


def _base(F, lam, conf):
    """lam*I + b*F^T F: the part of the system every row of a pass shares."""
    _check_finite(F)
    return lam * np.eye(F.shape[1]) + conf.b * (F.T @ F)


def _systems(Fo, conf, base, rhs=None):
    """Systems of the rows whose observed rows of F are ``Fo`` (rows x c x K,
    c >= 1): A = base + (a-b) F_o^T F_o stacked (rows x K x K), and the
    right-hand sides ``rhs`` (lam * prior, plus a draw's R_B^T e1; None if
    zero) plus a * sum(F_o) (rows x K)."""
    A = np.matmul(Fo.transpose(0, 2, 1), Fo)
    A *= conf.a - conf.b
    A += base
    pull = conf.a * Fo.sum(axis=1)
    return A, pull if rhs is None else rhs + pull


def _row_system(F, rows, conf, lam, base, prior=None):
    """One row's system; with no observed ``rows`` it is base itself."""
    if not len(rows):
        return base, np.zeros(F.shape[1]) if prior is None else lam * prior
    A, rhs = _systems(F[np.asarray(rows)[None]], conf, base,
                      None if prior is None else lam * prior[None])
    return A[0], rhs[0]


def _encoding(U, encoding):
    encoding = np.asarray(encoding, dtype=np.float64)
    if encoding.shape != (U.shape[1],):
        raise ShapeError(f"encoding width {encoding.shape} != ({U.shape[1]},)")
    return encoding


def _user_system(V, rated_items, conf, lambda_u):
    return _row_system(V, rated_items, conf, lambda_u, _base(V, lambda_u, conf))


def _item_system(U, rated_users, conf, lambda_v, encoding):
    return _row_system(U, rated_users, conf, lambda_v, _base(U, lambda_v, conf),
                       _encoding(U, encoding))


def _solve_row(F, rated, conf, lam, prior=None, rng=None):
    """One row's solution, or with ``rng`` its draw: the row runs as a sweep
    of one, so it takes a sweep's path, normals and bits."""
    rated = np.asarray(rated)
    ((_, x),) = _grouped_solves(F, np.array([0, len(rated)]), rated, conf, lam,
                                None if prior is None else prior[None], rng)
    return x[0]


def update_user(V, rated_items, conf, lambda_u):
    """Exact maximizer of the joint objective in one user vector.

    ``rated_items`` are the item ids with an observed rating (value 1).
    """
    return _solve_row(V, rated_items, conf, lambda_u)


def update_item(U, rated_users, conf, lambda_v, encoding):
    """Exact maximizer in one item vector, pulled toward its content encoding."""
    return _solve_row(U, rated_users, conf, lambda_v, _encoding(U, encoding))


def user_gradient(u, V, rated_items, conf, lambda_u):
    """Gradient of the joint objective w.r.t. one user vector (zero at the
    update_user output, up to solver round-off)."""
    A, rhs = _user_system(V, rated_items, conf, lambda_u)
    return rhs - A @ u


def item_gradient(v, U, rated_users, conf, lambda_v, encoding):
    A, rhs = _item_system(U, rated_users, conf, lambda_v, encoding)
    return rhs - A @ v


def _prior_solves(shared, rhs, shape):
    """base^-1 rhs of each row (rows x K), one multi-right-hand-side solve
    through base's factor ``shared``; zero where ``rhs`` is None (a user's
    MAP solve)."""
    if rhs is None:
        return np.zeros(shape)
    _check_finite(rhs)
    return _cho_solve(shared, rhs.T).T


def _low_rank_solves(Fo, Wo, shared, conf, rhs, e3):
    """Solutions of the rows whose 0 < c < K observed rows of F are ``Fo``
    (rows x c x K), as rank-c updates of base (Woodbury).  ``shared`` is
    base's factor, ``Wo`` the same rows of W = F base^-1, ``rhs`` the part of
    the right-hand sides that base alone meets (None if zero) and ``e3`` a
    draw's normals on the observed entries (None for a solve):

        y = base^-1 rhs,
        x = y + W_o^T (I/(a-b) + F_o W_o^T)^-1 (a/(a-b) + e3/sqrt(a-b) - F_o y).

    The pull a * sum(F_o) enters only through the c x c capacitance, so a
    small lam does not leave x the difference of two large vectors.  The
    rows' capacitances take one stacked matmul and one stacked solve.
    Returns (x, ok): ok is False for a row whose capacitance is singular to
    working precision or whose values leave the float range."""
    c = Fo.shape[1]
    y = _prior_solves(shared, rhs, (len(Fo), Fo.shape[2]))
    Wo_t = Wo.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        cap = np.matmul(Fo, Wo_t)
        cap.reshape(len(cap), c * c)[:, ::c + 1] += 1.0 / (conf.a - conf.b)
        pull = np.full((len(cap), c, 1), conf.a / (conf.a - conf.b))
        if e3 is not None:
            pull += e3[:, :, None] / math.sqrt(conf.a - conf.b)
        if rhs is not None:
            pull -= np.matmul(Fo, y[:, :, None])
        try:
            t = np.linalg.solve(cap, pull)
        except np.linalg.LinAlgError:   # solve the rows one by one, NaN if singular
            t = np.full_like(pull, np.nan)
            for r in range(len(cap)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    t[r] = np.linalg.solve(cap[r:r + 1], pull[r:r + 1])[0]
        y += np.matmul(Wo_t, t)[:, :, 0]
    return y, np.isfinite(y).all(axis=1)


def _grouped_solves(F, ptr, cols, conf, lam, priors=None, rng=None):
    """Solve the system A x = rhs of every row r, whose observed rows of F
    are ``cols[ptr[r]:ptr[r+1]]``, grouped by that count c.

    Yields (row ids, solutions) for at most CHUNK_ROWS rows of one count at
    a time.  The pass factors base = R_B^T R_B once if any row has c < K or
    it draws.  Rows with c = 0 are one multi-right-hand-side solve a chunk;
    rows with 0 < c < K are low-rank updates of base.  Rows with c >= K, and
    low-rank rows out of float range, form their systems with one stacked
    matmul, and each is factored and solved by LAPACK's dpotrf/dpotrs called
    directly.

    With a generator ``rng`` each solution is a draw instead, perturbed as
    the module docstring gives: one call draws every row's K + c normals,
    rows in order, and zero normals give the solve's bits.
    """
    counts = np.diff(ptr)
    if not len(counts):
        return
    K = F.shape[1]
    base = _base(F, lam, conf)
    z = None if rng is None else rng.standard_normal(len(counts) * K + ptr[-1])
    shared = W = None
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        c = counts[group[0]]
        if shared is None and (c < K or z is not None):
            _check_finite(base)
            shared = _cholesky(base)
        if 0 < c < K and W is None:
            W = _cho_solve(shared, F.T).T
        for start in range(0, len(group), CHUNK_ROWS):
            rows = group[start:start + CHUNK_ROWS]
            rhs = None if priors is None else lam * priors[rows]
            e3 = None
            if z is not None:
                at = (rows * K + ptr[rows])[:, None]
                # one stacked one-row product per row: a chunk GEMM would
                # change the bits with the chunk's size
                noise = np.matmul(z[at + np.arange(K)][:, None], shared)[:, 0]
                rhs = noise if rhs is None else rhs + noise
                e3 = z[at + K + np.arange(c)]
            if c == 0:
                yield rows, _prior_solves(shared, rhs, (len(rows), K))
                continue
            observed = cols[ptr[rows][:, None] + np.arange(c)]
            Fo = F[observed]
            if c < K:
                x, ok = _low_rank_solves(Fo, W[observed], shared, conf, rhs, e3)
                if ok.all():
                    yield rows, x
                    continue
                if ok.any():
                    yield rows[ok], x[ok]
                rows, Fo = rows[~ok], Fo[~ok]
                rhs = None if rhs is None else rhs[~ok]
                e3 = None if e3 is None else e3[~ok]
            A, rhs = _systems(Fo, conf, base, rhs)
            if e3 is not None:
                rhs += math.sqrt(conf.a - conf.b) * np.matmul(e3[:, None], Fo)[:, 0]
            _check_finite(A, rhs)
            for r, a in enumerate(A):
                # a is symmetric and C-ordered, so a.T is the same matrix in
                # Fortran order and dpotrf factors it in place
                rhs[r] = _cho_solve(_cholesky(a.T, overwrite=True), rhs[r], overwrite=True)
            yield rows, rhs


def _sweep(F, ptr, cols, conf, lam, priors=None, rng=None):
    """Exact updates of the mutually independent rows ``ptr`` indexes, or
    with ``rng`` exact draws from their Gaussian conditionals."""
    out = np.empty((len(ptr) - 1, F.shape[1]))
    for rows, x in _grouped_solves(F, ptr, cols, conf, lam, priors, rng):
        out[rows] = x
    return out


def _user_rows(ratings):
    """(ptr, cols): user r rated the items cols[ptr[r]:ptr[r+1]]."""
    return ratings._user_ptr, ratings._pairs[:, 1]


def _item_rows(ratings):
    """(ptr, cols): item j was rated by the users cols[ptr[j]:ptr[j+1]]."""
    return ratings._item_ptr, ratings._item_users


def _check_rows(F, name, count, what):
    if F.shape[0] != count:
        raise ShapeError(f"{name} has {F.shape[0]} rows but the ratings have {count} {what}")


def sweep_users(V, ratings, conf, lambda_u, rng=None):
    """One full pass of exact user updates, or with ``rng`` exact draws."""
    _check_rows(V, "V", ratings.num_items, "items")
    return _sweep(V, *_user_rows(ratings), conf, lambda_u, rng=rng)


def sweep_items(U, ratings, conf, lambda_v, encodings, rng=None):
    """One full pass of exact item updates toward the encodings, or with ``rng`` draws."""
    _check_rows(U, "U", ratings.num_users, "users")
    encodings = np.asarray(encodings, dtype=np.float64)
    if encodings.shape != (ratings.num_items, U.shape[1]):
        raise ShapeError(
            f"encodings shape {encodings.shape} != {(ratings.num_items, U.shape[1])}"
        )
    return _sweep(U, *_item_rows(ratings), conf, lambda_v, encodings, rng)


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
