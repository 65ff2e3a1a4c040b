"""Posterior sampling for the finite-precision model.

User and item vectors have conjugate Gaussian conditionals and are drawn
exactly, a whole block per pass, by the MAP sweep itself: ``factors`` folds
each row's standard normals into the right-hand side of the row's system,
so the solution is a draw, and zero normals give the MAP update.
Given the weights and adjacent layers, one layer's hidden rows are
conditionally independent, as are one layer's weight columns with their
biases, so each such block takes one batched Langevin Metropolis step: a
proposal per row in array ops, with the asymmetric-proposal correction and
a per-row accept/reject.  Step sizes adapt toward a 20-40% acceptance band
during burn-in and are then frozen.  Every layer mean is ``sdae``'s own layer
map, and the clean content takes the layout ``sdae`` chooses for it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sdae
from .data import corrupt, write_table
from .exceptions import ArgumentError, NumericError
from .factors import _encoding, _item_rows, _solve_row, _sweep, _user_rows, rating_objective
from .training import check_inputs

ACCEPT_TARGET = 0.32  # inside the 20-40% adaptation band
ADAPT_GAIN = 1.0
ADAPT_DECAY = 0.6
ADAPT_INTERVAL = 10   # scans pooled per adaptation window


def _sq_rows(a):
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", a, a)


def _w_col_density(cols, x_prev, x_cur, lambda_w, lambda_s):
    """(log densities, gradients) of weight columns: row n of ``cols`` is
    column n with its bias as last entry, feeding column n of ``x_cur`` (1-D
    for one column) from the previous layer's rows ``x_prev``.  Constant
    terms are dropped."""
    cols = np.asarray(cols, dtype=np.float64)
    if not np.isfinite(cols).all():
        raise NumericError("non-finite weight column")
    s = sdae._layer(x_prev, cols[:, :-1].T, cols[:, -1])
    resid = np.reshape(x_cur, s.shape) - s
    back = lambda_s * resid * s * (1.0 - s)
    value = -0.5 * lambda_w * _sq_rows(cols) - 0.5 * lambda_s * _sq_rows(resid.T)
    return value, np.hstack([back.T @ x_prev, back.sum(axis=0)[:, None]]) - lambda_w * cols


def _x_row_density(layer, num_layers, x, mean_in, lambda_s, *, w_out=None,
                   b_out=None, next_row=None, xc_row=None, lambda_n=None,
                   v_row=None, lambda_v=None):
    """(log densities, gradients) of hidden rows at the given layer, one per
    row of ``x``: the Gaussian around its incoming mean (row of ``mean_in``),
    then the outgoing Gaussian toward its row of the next layer, or on the
    last layer its clean content row with precision ``lambda_n``, and at the
    middle layer the item-vector coupling.  The row arguments hold one row
    per row of ``x``; a single 1-D row is shared by all.  ``xc_row`` may be
    canonical CSR, subtracted at its stored entries."""
    if not 1 <= layer <= num_layers:
        raise ArgumentError(f"layer must lie in [1, {num_layers}], got {layer}")
    x = np.asarray(x, dtype=np.float64)
    diff = x - mean_in
    value = -0.5 * lambda_s * _sq_rows(diff)
    grad = -lambda_s * diff
    if layer == num_layers:
        if xc_row is None or lambda_n is None:
            raise ArgumentError("last layer needs xc_row and lambda_n")
        diff = sdae._subtract_clean(x.copy(), xc_row)
        value -= 0.5 * lambda_n * _sq_rows(diff)
        grad -= lambda_n * diff
    else:
        if w_out is None or b_out is None or next_row is None:
            raise ArgumentError(f"layer {layer} needs w_out, b_out and next_row")
        s = sdae._layer(x, w_out, b_out)
        diff = next_row - s
        value -= 0.5 * lambda_s * _sq_rows(diff)
        grad += lambda_s * ((diff * s * (1.0 - s)) @ w_out.T)
    if layer == num_layers // 2:
        if v_row is None or lambda_v is None:
            raise ArgumentError("middle layer needs v_row and lambda_v")
        diff = v_row - x
        value -= 0.5 * lambda_v * _sq_rows(diff)
        grad += lambda_v * diff
    return value, grad


def logpost_w_col(w_col_plus, x_prev, x_col, lambda_w, lambda_s):
    """Unnormalized log conditional of one weight column with its bias entry."""
    return _w_col_density([w_col_plus], x_prev, x_col, lambda_w, lambda_s)[0][0]


def grad_logpost_w_col(w_col_plus, x_prev, x_col, lambda_w, lambda_s):
    return _w_col_density([w_col_plus], x_prev, x_col, lambda_w, lambda_s)[1][0]


def logpost_x_row(layer, num_layers, x, prev_row, w_in, b_in, lambda_s, **couplings):
    """Unnormalized log conditional of one hidden row; see ``_x_row_density``."""
    mean_in = sdae._layer(prev_row, w_in, b_in)
    return _x_row_density(layer, num_layers, [x], mean_in, lambda_s, **couplings)[0][0]


def grad_logpost_x_row(layer, num_layers, x, prev_row, w_in, b_in, lambda_s, **couplings):
    mean_in = sdae._layer(prev_row, w_in, b_in)
    return _x_row_density(layer, num_layers, [x], mean_in, lambda_s, **couplings)[1][0]


def sample_u(V, rated_items, conf, lambda_u, rng):
    """Exact draw from the Gaussian conditional of one user vector."""
    return _solve_row(V, rated_items, conf, lambda_u, rng=rng)


def sample_v(U, rated_users, conf, lambda_v, code_row, rng):
    """Exact draw from the Gaussian conditional of one item vector, centered
    on its middle-layer code."""
    return _solve_row(U, rated_users, conf, lambda_v, _encoding(U, code_row), rng)


def _log_ratio(x, here, proposal, there, step):
    """Metropolis-Hastings log acceptance ratio of each row's Langevin
    proposal, from the (log density, gradient) pairs at both points."""
    half = 0.5 * step * step
    fwd = proposal - x - half * here[1]
    rev = x - proposal - half * there[1]
    return there[0] - here[0] + (_sq_rows(fwd) - _sq_rows(rev)) / (2.0 * step * step)


def _mala_block(rows, density, step, rng):
    """One Langevin Metropolis step for every row of ``rows``, in place;
    ``density`` maps rows to their (log densities, gradients).  Draws one
    normal per entry, then one uniform per row, always; row i moves iff its
    log ratio r >= 0 or its uniform < exp(r).  Returns (accepted, proposed)."""
    here = density(rows)
    proposal = rows + 0.5 * step * step * here[1] + step * rng.standard_normal(rows.shape)
    log_ratio = _log_ratio(rows, here, proposal, density(proposal), step)
    moved = (log_ratio >= 0.0) | (rng.random(len(rows)) < np.exp(np.minimum(log_ratio, 0.0)))
    rows[moved] = proposal[moved]
    return int(moved.sum()), len(rows)


@dataclass
class SamplerState:
    """Mutable chain state: network, hidden rows, factors, and step sizes."""

    net: sdae.SdaeNetwork
    layers: list          # layers[l]: items x width_l; layers[0] is fixed
    U: np.ndarray
    V: np.ndarray
    steps: dict = field(default_factory=dict)   # block ("w1", "x3") -> step size


@dataclass
class ChainSummary:
    """Thinned draws, per-block acceptance, and posterior summaries."""

    tracked: dict                 # name -> array over kept iterations
    kept_U: np.ndarray
    kept_V: np.ndarray
    acceptance: dict              # block -> post-burn-in acceptance rate
    running_acceptance: dict      # block -> running rate at each kept iteration
    step_sizes: dict              # block -> frozen step size
    posterior_mean: dict
    posterior_var: dict
    warnings: list
    iterations: np.ndarray

    def write_tsv(self, path):
        names = sorted(self.tracked)
        blocks = sorted(self.running_acceptance)
        write_table(path, ["iteration"] + [f"accept_{b}" for b in blocks] + names, (
            [str(int(it))] + [format(self.running_acceptance[b][k], ".6f") for b in blocks]
            + [format(self.tracked[n][k], ".17g") for n in names]
            for k, it in enumerate(self.iterations)))


def log_joint(state, ratings, clean, hyper):
    """Finite-precision joint log density (up to a constant) of the current
    chain state, per-layer consistency terms included; ``clean``, the clean
    content, is dense or canonical CSR, as sdae._as_matrix lays it out."""
    net = state.net
    L = net.num_layers
    lam_s = hyper.lambda_s
    value = -0.5 * hyper.lambda_u * float(np.sum(state.U * state.U))
    value += -0.5 * hyper.lambda_w * net.squared_norm()
    offsets = state.V - state.layers[net.middle]
    value += -0.5 * hyper.lambda_v * float(np.sum(offsets * offsets))
    recon = sdae._subtract_clean(state.layers[L].copy(), clean)
    value += -0.5 * hyper.lambda_n * float(np.sum(recon * recon))
    for l in range(1, L + 1):
        mean = sdae._layer(state.layers[l - 1], net.weights[l - 1], net.biases[l - 1])
        diff = state.layers[l] - mean
        value += -0.5 * lam_s * float(np.sum(diff * diff))
    value += rating_objective(state.U, state.V, ratings, hyper.confidence())
    return value


def _check_blocks(blocks):
    for block in blocks:
        if block not in ("w", "x", "v", "u"):
            raise ArgumentError(f"unknown block {block!r}: blocks are 'w', 'x', 'v' and 'u'")


def mwg_step(state, ratings, clean, hyper, rng,
             blocks=("w", "x", "v", "u")):
    """One full scan over the clean content ``clean``, canonical CSR or
    dense; returns per-block (accepted, proposed) counts."""
    _check_blocks(blocks)
    net = state.net
    L = net.num_layers
    conf = hyper.confidence()
    counts = {}
    if "w" in blocks:
        for l in range(1, L + 1):
            W, b = net.weights[l - 1], net.biases[l - 1]
            x_prev, x_cur = state.layers[l - 1], state.layers[l]
            cols = np.hstack([W.T, b[:, None]])  # row n: column n with its bias
            counts[f"w{l}"] = _mala_block(
                cols, lambda c: _w_col_density(c, x_prev, x_cur, hyper.lambda_w,
                                               hyper.lambda_s),
                state.steps[f"w{l}"], rng)
            W[:], b[:] = cols[:, :-1].T, cols[:, -1]
    if "x" in blocks:
        for l in range(1, L + 1):
            kw = ({"xc_row": clean, "lambda_n": hyper.lambda_n} if l == L else
                  {"w_out": net.weights[l], "b_out": net.biases[l],
                   "next_row": state.layers[l + 1]})
            if l == net.middle:
                kw.update(v_row=state.V, lambda_v=hyper.lambda_v)
            mean_in = sdae._layer(state.layers[l - 1], net.weights[l - 1], net.biases[l - 1])
            counts[f"x{l}"] = _mala_block(
                state.layers[l],
                lambda x: _x_row_density(l, L, x, mean_in, hyper.lambda_s, **kw),
                state.steps[f"x{l}"], rng)
    if "v" in blocks:
        state.V = _sweep(state.U, *_item_rows(ratings), conf, hyper.lambda_v,
                         state.layers[net.middle], rng)
    if "u" in blocks:
        state.U = _sweep(state.V, *_user_rows(ratings), conf, hyper.lambda_u, rng=rng)
    return counts


def _adapt(steps, block, accepted, proposed, window):
    """Robbins-Monro update of the log step size toward the target rate;
    the decaying gain makes late windows barely move the step."""
    if proposed == 0:
        return
    rate = accepted / proposed
    gain = ADAPT_GAIN / (1.0 + window) ** ADAPT_DECAY
    steps[block] *= math.exp(gain * (rate - ACCEPT_TARGET))


def check_chain_inputs(ratings, content, hyper):
    """Reject, before anything is allocated, inputs the chain cannot use:
    those of the MAP fits, and an infinite lambda_s."""
    if not math.isfinite(hyper.lambda_s):
        raise ArgumentError("the sampler needs a finite lambda_s", ["lambda_s"])
    check_inputs(ratings, content, hyper)


def run_chain(ratings, content, hyper, iters, burn_in, thin=1,
              blocks=("w", "x", "v", "u"), initial_step=0.1):
    """Run the Metropolis-within-Gibbs chain and summarize it.

    Step sizes adapt per block during ``burn_in`` scans and are frozen after;
    kept iterations are every ``thin``-th post-burn-in scan.  Deterministic
    per ``hyper.seed``.
    """
    if burn_in < 0:
        raise ArgumentError("burn_in must be non-negative")
    if iters <= burn_in:
        raise ArgumentError("iters must exceed burn_in")
    if thin < 1:
        raise ArgumentError("thin must be at least 1")
    _check_blocks(blocks)
    check_chain_inputs(ratings, content, hyper)
    root = np.random.SeedSequence(hyper.seed)
    net_seed, noise_seed, chain_seed = root.spawn(3)
    rng = np.random.default_rng(chain_seed)
    widths = hyper.network_widths(content.vocab_size)
    net = sdae.init_network(widths, net_seed, hyper.lambda_w)
    x0 = corrupt(content, hyper.noise_level, noise_seed)
    layers = sdae.forward(net, x0.toarray())
    clean = sdae._as_matrix(content)
    state = SamplerState(
        net=net, layers=layers,
        U=np.zeros((ratings.num_users, hyper.n_factors)),
        V=layers[net.middle].copy(),
        steps={f"{kind}{l}": initial_step
               for kind in "wx" for l in range(1, net.num_layers + 1)},
    )

    def scan(totals):
        for block, pair in mwg_step(state, ratings, clean, hyper, rng,
                                    blocks=blocks).items():
            totals[block] = [t + c for t, c in zip(totals.get(block, (0, 0)), pair)]

    for window, start in enumerate(range(0, burn_in, ADAPT_INTERVAL)):
        counts = {}
        for _ in range(min(ADAPT_INTERVAL, burn_in - start)):
            scan(counts)
        for block, (acc, prop) in counts.items():
            _adapt(state.steps, block, acc, prop, window)

    reads = {"u_0_0": lambda: state.U[0, 0],
             "v_0_0": lambda: state.V[0, 0],
             "w1_0_0": lambda: net.weights[0][0, 0],
             "x_mid_0_0": lambda: state.layers[net.middle][0, 0],
             "log_joint": lambda: log_joint(state, ratings, clean, hyper)}
    post_counts, running, kept = {}, {}, []
    for it in range(burn_in, iters):
        scan(post_counts)
        if (it - burn_in) % thin:
            continue
        kept.append((it, state.U.copy(), state.V.copy(), *(read() for read in reads.values())))
        for block, (acc, prop) in post_counts.items():
            running.setdefault(block, []).append(acc / prop if prop else 0.0)
    iterations, kept_U, kept_V, *columns = map(np.asarray, zip(*kept))
    tracked = dict(zip(reads, columns))

    acceptance = {block: (acc / prop if prop else 0.0)
                  for block, (acc, prop) in post_counts.items()}
    warnings = [
        f"block {block} acceptance pinned at {rate:.2f} after adaptation"
        for block, rate in acceptance.items() if rate <= 0.0 or rate >= 1.0
    ]
    return ChainSummary(
        tracked=tracked,
        kept_U=kept_U,
        kept_V=kept_V,
        acceptance=acceptance,
        running_acceptance={b: np.asarray(v) for b, v in running.items()},
        step_sizes=dict(state.steps),
        posterior_mean={n: float(v.mean()) for n, v in tracked.items()},
        posterior_var={n: float(v.var(ddof=1)) if len(v) > 1 else 0.0
                       for n, v in tracked.items()},
        warnings=warnings,
        iterations=iterations,
    )
