"""Posterior sampling for the finite-precision model.

User and item vectors have conjugate Gaussian conditionals and are drawn
exactly, a whole block per pass through the MAP sweeps' grouped solves.
Weight columns (with their bias entry) and per-item hidden rows are updated
by Langevin Metropolis steps whose acceptance ratio carries the
asymmetric-proposal correction, so the kernel targets the exact conditional.
Each conditional is one function returning (log density, gradient), evaluated
once at the current point and once at the proposal.  Step sizes adapt toward
a 20-40% acceptance band during burn-in and are then frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import expit

from . import sdae
from .data import corrupt, open_output
from .exceptions import ArgumentError, NumericError
from .factors import (_grouped_solves, _item_rows, _item_system, _solve_spd,
                      _user_rows, _user_system, rating_objective)

ACCEPT_TARGET = 0.32  # inside the 20-40% adaptation band
ADAPT_GAIN = 1.0
ADAPT_DECAY = 0.6
ADAPT_INTERVAL = 10   # scans pooled per adaptation window


def _w_col_density(w, x_prev, x_col, lambda_w, lambda_s):
    """(log density, gradient) of one weight column with its bias entry.

    ``w`` is the column stacked with its bias as last entry; ``x_prev`` holds
    the previous layer's rows (items x width) and ``x_col`` the current
    layer's column the weights feed.  Constant terms are dropped.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NumericError("non-finite weight column")
    s = expit(x_prev @ w[:-1] + w[-1])
    resid = x_col - s
    back = lambda_s * resid * s * (1.0 - s)
    value = -0.5 * lambda_w * float(w @ w) - 0.5 * lambda_s * float(resid @ resid)
    return value, np.append(x_prev.T @ back, back.sum()) - lambda_w * w


def _x_row_density(layer, num_layers, x, mean_in, lambda_s, *, w_out=None,
                   b_out=None, next_row=None, xc_row=None, lambda_n=None,
                   v_row=None, lambda_v=None):
    """(log density, gradient) of one hidden row at the given layer: the
    Gaussian around its incoming mean ``mean_in``, then the outgoing Gaussian
    toward the next layer, or on the last layer the clean content row with
    precision ``lambda_n``, and at the middle layer the item-vector coupling."""
    if not 1 <= layer <= num_layers:
        raise ArgumentError(f"layer must lie in [1, {num_layers}], got {layer}")
    x = np.asarray(x, dtype=np.float64)
    diff = x - mean_in
    value = -0.5 * lambda_s * float(diff @ diff)
    grad = -lambda_s * diff
    if layer == num_layers:
        if xc_row is None or lambda_n is None:
            raise ArgumentError("last layer needs xc_row and lambda_n")
        diff = xc_row - x
        value += -0.5 * lambda_n * float(diff @ diff)
        grad += lambda_n * diff
    else:
        if w_out is None or b_out is None or next_row is None:
            raise ArgumentError(f"layer {layer} needs w_out, b_out and next_row")
        s = expit(x @ w_out + b_out)
        diff = next_row - s
        value += -0.5 * lambda_s * float(diff @ diff)
        grad += lambda_s * (w_out @ (diff * s * (1.0 - s)))
    if layer == num_layers // 2:
        if v_row is None or lambda_v is None:
            raise ArgumentError("middle layer needs v_row and lambda_v")
        diff = v_row - x
        value += -0.5 * lambda_v * float(diff @ diff)
        grad += lambda_v * diff
    return value, grad


def logpost_w_col(w_col_plus, x_prev, x_col, lambda_w, lambda_s):
    """Unnormalized log conditional of one weight column with its bias entry."""
    return _w_col_density(w_col_plus, x_prev, x_col, lambda_w, lambda_s)[0]


def grad_logpost_w_col(w_col_plus, x_prev, x_col, lambda_w, lambda_s):
    return _w_col_density(w_col_plus, x_prev, x_col, lambda_w, lambda_s)[1]


def logpost_x_row(layer, num_layers, x, prev_row, w_in, b_in, lambda_s, **couplings):
    """Unnormalized log conditional of one hidden row; see ``_x_row_density``."""
    mean_in = expit(prev_row @ w_in + b_in)
    return _x_row_density(layer, num_layers, x, mean_in, lambda_s, **couplings)[0]


def grad_logpost_x_row(layer, num_layers, x, prev_row, w_in, b_in, lambda_s, **couplings):
    mean_in = expit(prev_row @ w_in + b_in)
    return _x_row_density(layer, num_layers, x, mean_in, lambda_s, **couplings)[1]


def _gaussian_draw(mean, upper, z):
    """mean + upper^-1 z: a draw from N(mean, A^-1) for A = upper^T upper
    and standard normals z."""
    x, info = dtrtrs(upper, z, lower=0)
    if info:
        raise NumericError(f"triangular solve failed: dtrtrs info {info}")
    return mean + x


def sample_u(V, rated_items, conf, lambda_u, rng):
    """Exact draw from the Gaussian conditional of one user vector."""
    mean, upper = _solve_spd(*_user_system(V, rated_items, conf, lambda_u))
    return _gaussian_draw(mean, upper, rng.standard_normal(len(mean)))


def sample_v(U, rated_users, conf, lambda_v, code_row, rng):
    """Exact draw from the Gaussian conditional of one item vector, centered
    on its middle-layer code."""
    mean, upper = _solve_spd(*_item_system(U, rated_users, conf, lambda_v, code_row))
    return _gaussian_draw(mean, upper, rng.standard_normal(len(mean)))


def _draw_rows(out, F, ptr, cols, conf, lam, rng, priors=None):
    """Exact draws of every row of ``out`` from its Gaussian conditional,
    bit for bit the per-row sample_u/sample_v draws in row order: the MAP
    sweeps' grouped solves give the means and factors, and one block of
    standard normals holds each row's draw where the per-row calls took it."""
    z = rng.standard_normal(out.shape)
    for rows, means, uppers in _grouped_solves(F, ptr, cols, conf, lam, priors):
        for r, mean, upper in zip(rows, means, uppers):
            out[r] = _gaussian_draw(mean, upper, z[r])


def _log_ratio(x, here, proposal, there, step):
    """mala_log_ratio from the (log density, gradient) pairs at both points."""
    half = 0.5 * step * step
    fwd = proposal - x - half * here[1]
    rev = x - proposal - half * there[1]
    return (there[0] - here[0]
            + (float(fwd @ fwd) - float(rev @ rev)) / (2.0 * step * step))


def mala_log_ratio(logpost, grad, x, proposal, step):
    """Metropolis-Hastings log acceptance ratio for a Langevin proposal.

    Swapping (x, proposal) flips the sign exactly: the kernel is reversible.
    """
    return _log_ratio(x, (logpost(x), grad(x)), proposal,
                      (logpost(proposal), grad(proposal)), step)


def _mala_update(x, density, step, rng):
    """One Langevin Metropolis step; ``density`` returns (log density,
    gradient) and is evaluated at x and at the proposal only."""
    here = density(x)
    proposal = x + 0.5 * step * step * here[1] + step * rng.standard_normal(x.shape)
    log_ratio = _log_ratio(x, here, proposal, density(proposal), step)
    if log_ratio >= 0.0 or rng.random() < math.exp(log_ratio):
        return proposal, True
    return x, False


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
        with open_output(path) as fh:
            fh.write("iteration\t" + "\t".join(f"accept_{b}" for b in blocks)
                     + "\t" + "\t".join(names) + "\n")
            for k, it in enumerate(self.iterations):
                cells = [str(int(it))]
                cells += [format(self.running_acceptance[b][k], ".6f") for b in blocks]
                cells += [format(self.tracked[n][k], ".17g") for n in names]
                fh.write("\t".join(cells) + "\n")


def log_joint(state, ratings, content, hyper):
    """Finite-precision joint log density (up to a constant) of the current
    chain state, including the per-layer consistency terms."""
    net = state.net
    L = net.num_layers
    lam_s = hyper.lambda_s
    value = -0.5 * hyper.lambda_u * float(np.sum(state.U * state.U))
    value += -0.5 * hyper.lambda_w * net.squared_norm()
    offsets = state.V - state.layers[net.middle]
    value += -0.5 * hyper.lambda_v * float(np.sum(offsets * offsets))
    recon = content.toarray() - state.layers[L]
    value += -0.5 * hyper.lambda_n * float(np.sum(recon * recon))
    for l in range(1, L + 1):
        mean = expit(state.layers[l - 1] @ net.weights[l - 1] + net.biases[l - 1])
        diff = state.layers[l] - mean
        value += -0.5 * lam_s * float(np.sum(diff * diff))
    value += rating_objective(state.U, state.V, ratings, hyper.confidence())
    return value


def _mala_rows(rows, density_of, step, rng):
    """One Langevin Metropolis step per row of ``rows``, in place, with row i's
    density from ``density_of(i)``; returns (accepted, proposed)."""
    accepted = 0
    for i, row in enumerate(rows):
        new, ok = _mala_update(row, density_of(i), step, rng)
        if ok:
            rows[i] = new
            accepted += 1
    return accepted, len(rows)


def _x_row_densities(state, l, xc, hyper):
    """density_of(j) for the hidden rows of layer l; each row's incoming mean
    is computed once, when its density is built."""
    net = state.net
    L = net.num_layers

    def density_of(j):
        if l == L:
            kw = {"xc_row": xc[j], "lambda_n": hyper.lambda_n}
        else:
            kw = {"w_out": net.weights[l], "b_out": net.biases[l],
                  "next_row": state.layers[l + 1][j]}
        if l == net.middle:
            kw.update(v_row=state.V[j], lambda_v=hyper.lambda_v)
        mean_in = expit(state.layers[l - 1][j] @ net.weights[l - 1] + net.biases[l - 1])
        return lambda x: _x_row_density(l, L, x, mean_in, hyper.lambda_s, **kw)
    return density_of


def mwg_step(state, ratings, content, hyper, rng,
             blocks=("w", "x", "v", "u")):
    """One full scan; returns per-block (accepted, proposed) counts."""
    net = state.net
    L = net.num_layers
    conf = hyper.confidence()
    counts = {}
    if "w" in blocks:
        for l in range(1, L + 1):
            W, b = net.weights[l - 1], net.biases[l - 1]
            x_prev, x_cur = state.layers[l - 1], state.layers[l]
            cols = np.hstack([W.T, b[:, None]])  # row n: column n with its bias
            counts[f"w{l}"] = _mala_rows(
                cols, lambda n: lambda w: _w_col_density(w, x_prev, x_cur[:, n],
                                                         hyper.lambda_w, hyper.lambda_s),
                state.steps[f"w{l}"], rng)
            W[:], b[:] = cols[:, :-1].T, cols[:, -1]
    if "x" in blocks:
        xc = content.toarray()
        for l in range(1, L + 1):
            counts[f"x{l}"] = _mala_rows(state.layers[l], _x_row_densities(state, l, xc, hyper),
                                         state.steps[f"x{l}"], rng)
    if "v" in blocks:
        _draw_rows(state.V, state.U, *_item_rows(ratings), conf, hyper.lambda_v, rng,
                   priors=state.layers[net.middle])
    if "u" in blocks:
        _draw_rows(state.U, state.V, *_user_rows(ratings), conf, hyper.lambda_u, rng)
    return counts


def _adapt(steps, block, accepted, proposed, window):
    """Robbins-Monro update of the log step size toward the target rate;
    the decaying gain makes late windows barely move the step."""
    if proposed == 0:
        return
    rate = accepted / proposed
    gain = ADAPT_GAIN / (1.0 + window) ** ADAPT_DECAY
    steps[block] *= math.exp(gain * (rate - ACCEPT_TARGET))


def run_chain(ratings, content, hyper, iters, burn_in, thin=1,
              blocks=("w", "x", "v", "u"), initial_step=0.1):
    """Run the Metropolis-within-Gibbs chain and summarize it.

    Step sizes adapt per block during ``burn_in`` scans and are frozen after;
    kept iterations are every ``thin``-th post-burn-in scan.  Deterministic
    per ``hyper.seed``.
    """
    if not math.isfinite(hyper.lambda_s):
        raise ArgumentError("the sampler needs a finite lambda_s")
    if burn_in < 0:
        raise ArgumentError("burn_in must be non-negative")
    if iters <= burn_in:
        raise ArgumentError("iters must exceed burn_in")
    if thin < 1:
        raise ArgumentError("thin must be at least 1")
    root = np.random.SeedSequence(hyper.seed)
    net_seed, noise_seed, chain_seed = root.spawn(3)
    rng = np.random.default_rng(chain_seed)
    widths = hyper.network_widths(content.vocab_size)
    net = sdae.init_network(widths, net_seed, hyper.lambda_w)
    x0 = corrupt(content, hyper.noise_level, noise_seed)
    layers = [x0.matrix.toarray()] + sdae.forward(net, x0)[1:]
    state = SamplerState(
        net=net, layers=layers,
        U=np.zeros((ratings.num_users, hyper.n_factors)),
        V=layers[net.middle].copy(),
        steps={f"{kind}{l}": initial_step
               for kind in "wx" for l in range(1, net.num_layers + 1)},
    )

    def scan(totals):
        for block, pair in mwg_step(state, ratings, content, hyper, rng,
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
             "log_joint": lambda: log_joint(state, ratings, content, hyper)}
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
