"""Sigmoid stacked autoencoder: forward evaluation, dropout, analytic gradients.

The network has an even number L of sigmoid layers; the first L/2 encode a
content row into a low-dimensional code, the last L/2 reconstruct the input.
``gradients`` returns the exact ascent direction of the joint training
objective (weight decay, code-vs-item-factor coupling, reconstruction error),
assembled by reverse accumulation through the sigmoid chain.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import _dense_is_smaller, read_npz, write_npz
from .exceptions import ArgumentError, NumericError, ShapeError, ValidationError

# rows evaluated at once by gradients, coupling_residuals, encode and
# reconstruct: their working memory is one block's activations, and each
# block is freed before the next is evaluated
BLOCK_ROWS = 2048
# bytes of output-layer rows that gradients forms its output error over at
# once; the output layer's delta is written into that layer's activations
CHUNK_BYTES = 4 << 20


@dataclass
class SdaeNetwork:
    """Weights and biases of an even-depth sigmoid network.

    ``weights[l]`` has shape (width_l, width_{l+1}); ``biases[l]`` has length
    width_{l+1}.  All values must be finite.
    """

    weights: list
    biases: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ArgumentError("weights and biases must have one entry per layer")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for l, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {l}: weight {w.shape} and bias {b.shape} mismatch")
            if l > 1 and self.weights[l - 2].shape[1] != w.shape[0]:
                raise ShapeError(f"layer {l}: input width does not match layer {l - 1}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError(f"layer {l}: non-finite parameter")
        check_widths(self.widths)

    @property
    def num_layers(self):
        return len(self.weights)

    @property
    def middle(self):
        return len(self.weights) // 2

    @property
    def widths(self):
        return [w.shape[0] for w in self.weights[:1]] + [w.shape[1] for w in self.weights]

    @property
    def code_size(self):
        return self.weights[self.middle - 1].shape[1]

    def copy(self):
        return SdaeNetwork([w.copy() for w in self.weights],
                           [b.copy() for b in self.biases])

    def squared_norm(self):
        """Sum of squared weights and biases over all layers.

        Overflow to inf is legal here; the training loop's divergence policy
        handles it.
        """
        with np.errstate(over="ignore"):
            return float(
                sum(np.sum(w * w) for w in self.weights)
                + sum(np.sum(b * b) for b in self.biases)
            )


def check_widths(widths):
    """``widths`` as a tuple of ints, when they describe an even layer count
    of at least 2 with every width at least 1; otherwise ArgumentError naming
    the ``widths`` field.  Every network, configured, drawn, initialized or
    loaded, passes this one check."""
    if any(isinstance(w, bool) or not isinstance(w, (int, np.integer)) for w in widths):
        raise ArgumentError("all layer widths must be integers", ["widths"])
    widths = tuple(int(w) for w in widths)
    L = max(len(widths) - 1, 0)
    if L < 2 or L % 2:
        raise ArgumentError(f"layer count must be even and >= 2, got {L}", ["widths"])
    if min(widths) < 1:
        raise ArgumentError("all layer widths must be positive", ["widths"])
    return widths


def dropout_mask(widths, num_rows, rate, seed):
    """Inverted-scaling dropout masks, ``{layer: scales}``, for every hidden
    layer except the code layer.

    ``scales[l]`` holds 0 or 1/keep entries; layers 0, L/2, and L never get a
    mask.  Rate 0 yields all-ones masks, reproducing the unmasked forward
    pass bit-exactly.
    """
    if not 0.0 <= rate < 1.0:
        raise ArgumentError(f"dropout rate must lie in [0, 1), got {rate}")
    L = len(widths) - 1
    rng = np.random.default_rng(seed)
    scales = {}
    for l in range(1, L):
        if l == L // 2:
            continue
        keep = rng.random((num_rows, widths[l])) >= rate
        scales[l] = keep / (1.0 - rate)
    return scales


@contextlib.contextmanager
def _allocating(widths):
    """Names by its widths a network whose arrays cannot be allocated."""
    try:
        yield
    except (MemoryError, ValueError):  # the allocation fails or its byte size overflows
        raise ValidationError(f"layer widths {'-'.join(map(str, widths))} "
                              "too large to allocate") from None


def _prior_scale(lambda_w):
    """The weight prior's standard deviation lambda_w**-0.5, 0 at +inf; a
    lambda_w that is not positive is named."""
    if not lambda_w > 0:
        raise ArgumentError("lambda_w must be positive", ["lambda_w"])
    return lambda_w ** -0.5


def init_network(widths, seed, lambda_w=1.0):
    """Gaussian weight init with per-layer scale min(lambda_w**-0.5, fan_in**-0.5)
    and zero biases.  Deterministic per seed."""
    widths = check_widths(widths)
    prior = _prior_scale(lambda_w)
    L = len(widths) - 1
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    with _allocating(widths):
        for l in range(1, L + 1):
            scale = min(prior, widths[l - 1] ** -0.5)
            weights.append(rng.normal(0.0, scale, size=(widths[l - 1], widths[l])))
            biases.append(np.zeros(widths[l]))
    return SdaeNetwork(weights, biases)


def sample_network(widths, lambda_w, rng):
    """Draw weights and biases from the N(0, 1/lambda_w) prior (used when
    synthesizing data, where biases are random too)."""
    widths = check_widths(widths)
    L = len(widths) - 1
    scale = _prior_scale(lambda_w)
    with _allocating(widths):
        weights = [rng.normal(0.0, scale, size=(widths[l - 1], widths[l]))
                   for l in range(1, L + 1)]
        biases = [rng.normal(0.0, scale, size=widths[l]) for l in range(1, L + 1)]
    return SdaeNetwork(weights, biases)


def _as_matrix(x):
    """Accept ContentMatrix, scipy sparse, or ndarray; return a 2-D operand
    whose row blocks can be sliced.  A sparse operand comes back as a dense
    array when that array is no larger than its CSR, by data's
    _dense_is_smaller, since dense products and subtractions are then faster
    at no cost in memory; otherwise as canonical CSR (no repeated entries,
    sorted indices).  It is copied only when it is not canonical, so the
    caller's matrix is never changed."""
    if hasattr(x, "matrix"):
        x = x.matrix
    if sp.issparse(x):
        x = x.tocsr()
        if not x.has_canonical_format:
            x = x.copy()
            x.sum_duplicates()
        if not _dense_is_smaller(x.nnz, x.data.itemsize + x.indices.itemsize, x.shape):
            return x
        x = x.toarray()
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def _input(net, x):
    X = _as_matrix(x)
    if X.shape[1] != net.widths[0]:
        raise ShapeError(
            f"input width {X.shape[1]} does not match network input {net.widths[0]}"
        )
    return X


def _row_blocks(net, x0, xc=None, item_factors=None):
    """Check the operands' shapes, then yield (rows, input rows[, clean
    rows][, item factor rows]) for each block of BLOCK_ROWS rows, in order.
    Clean rows kept sparse by _as_matrix stay sparse: the caller subtracts
    them at their stored entries.  When one block covers every row the
    operands themselves are yielded; a CSR row slice is a copy."""
    X0 = _input(net, x0)
    num_rows = X0.shape[0]
    operands = [X0]
    if xc is not None:
        Xc = _as_matrix(xc)
        if Xc.shape != (num_rows, net.widths[-1]):
            raise ShapeError(f"clean content shape {Xc.shape} != {(num_rows, net.widths[-1])}")
        operands.append(Xc)
    if item_factors is not None:
        V = np.asarray(item_factors, dtype=np.float64)
        if V.shape != (num_rows, net.code_size):
            raise ShapeError(f"item factor shape {V.shape} != {(num_rows, net.code_size)}")
        operands.append(V)
    for start in range(0, num_rows, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        yield rows, *(operands if num_rows <= BLOCK_ROWS else [m[rows] for m in operands])


def _sigmoid(z):
    """Logistic sigmoid 1/(1+exp(-z)) of a float array, in place.  exp(-z)
    overflows to inf below z of about -709.78 and gives exactly 0 there, as
    scipy.special's logistic function does, so the overflow is not reported."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _layer(x, w, b):
    """One layer's map, sigmoid(x @ w + b), into a new array; the sampler's
    layer means are this map too."""
    act = x @ w
    act += b
    return _sigmoid(act)


def _subtract_clean(out, clean):
    """``out -= clean`` in place.  ``clean`` is dense or CSR as _as_matrix
    chose it by its density; a CSR block is read at its stored entries only,
    through flat indices into ``out``, and is never densified.  It must be
    canonical, as _as_matrix makes it and as every row slice of it stays: a
    repeated index would be subtracted once.  Either layout gives the same
    bits, since subtracting an unstored 0.0 changes no value."""
    if not sp.issparse(clean):
        out -= clean
        return out
    out.reshape(-1)[_flat_positions(clean)] -= clean.data
    return out


def _flat_positions(csr):
    """The flat index of each stored entry of ``csr`` in a dense array."""
    rows, cols = csr.shape
    return np.repeat(np.arange(rows) * cols, np.diff(csr.indptr)) + csr.indices


def _propagate(net, X, scales=None, depth=None):
    """The sigmoid layer recursion through layer ``depth`` (default: all).

    ``scales`` maps a layer to the dropout scales multiplied into its
    output; layers without an entry pass the plain activation on.  Returns
    (outputs, raws), input first; raws, the plain sigmoid activations, share
    objects with outputs at layers without scales.
    """
    depth = net.num_layers if depth is None else depth
    outputs = [X]
    raws = [X]
    for l in range(1, depth + 1):
        raws.append(_layer(outputs[-1], net.weights[l - 1], net.biases[l - 1]))
        outputs.append(raws[-1] * scales[l] if scales and l in scales else raws[-1])
    return outputs, raws


def forward(net, x0, mask=None):
    """Row-wise forward pass; returns the list of layer outputs, input first.

    ``mask``, a dict from :func:`dropout_mask`, applies inverted-scaling
    dropout (training path); without one every output is the plain sigmoid.
    """
    return _propagate(net, _input(net, x0), mask)[0]


def _output_at(net, x, depth):
    one_row = np.ndim(x) == 1 and not sp.issparse(x) and not hasattr(x, "matrix")
    X = _as_matrix(x)
    out = np.empty((X.shape[0], net.widths[depth]))
    for rows, block in _row_blocks(net, X):
        out[rows] = _propagate(net, block, depth=depth)[0][-1]
    return out[0] if one_row else out


def encode(net, x):
    """Middle-layer code of the (corrupted) content rows; 1-D in, 1-D out."""
    return _output_at(net, x, net.middle)


def reconstruct(net, x):
    """Final-layer reconstruction of the (corrupted) content rows."""
    return _output_at(net, x, net.num_layers)


def gradients(net, x0, xc, item_factors, lambda_v, lambda_n, lambda_w, mask=None):
    """Exact gradients of the joint objective w.r.t. every weight and bias.

    The objective terms seen by the network are
    ``-lambda_w/2 (|W|^2 + |b|^2) - lambda_v/2 sum_j |code_j - v_j|^2
    - lambda_n/2 sum_j |recon_j - xc_j|^2``;
    the returned arrays are ascent directions for that sum.  Rows are
    processed in blocks of BLOCK_ROWS, in order, so the reduction is
    deterministic.

    Args:
        x0: corrupted input rows (items x vocab), sparse or dense.
        xc: clean content rows of the same shape.
        item_factors: items x code_size matrix the codes are pulled toward.
        mask: optional dropout_mask dict drawn for all rows of x0.
    """
    grads_w = [-lambda_w * w for w in net.weights]
    grads_b = [-lambda_w * b for b in net.biases]
    for rows, X0, Xc, V in _row_blocks(net, x0, xc, item_factors):
        scales = {} if mask is None else {l: arr[rows] for l, arr in mask.items()}
        _block_gradients(net, X0, Xc, V, scales, lambda_v, lambda_n, grads_w, grads_b)
    return grads_w, grads_b


def _block_gradients(net, X0, Xc, V, scales, lambda_v, lambda_n, grads_w, grads_b):
    """Add one row block's reconstruction and coupling terms into grads_w
    and grads_b.  The block's activations are its only block-sized arrays,
    and they are freed on return."""
    L = net.num_layers
    mid = net.middle
    outs, raws = _propagate(net, X0, scales)
    for l in range(1, L + 1):
        if not np.isfinite(raws[l]).all():
            raise NumericError(f"non-finite activation at layer {l}")
    delta = _output_delta(outs[L], raws[L], Xc, lambda_n, scales.get(L))
    for l in range(L, 0, -1):
        if l < L:
            if l == mid:
                g += lambda_v * (outs[l] - V)
            if l in scales:
                g *= scales[l]
            delta = g  # g * raw * (1 - raw), in place; raws[l] is read no more
            delta *= raws[l]
            delta *= np.subtract(1.0, raws[l], out=raws[l])
        grads_w[l - 1] -= outs[l - 1].T @ delta
        grads_b[l - 1] -= delta.sum(axis=0)
        if l > 1:
            g = delta @ net.weights[l - 1].T


def _output_delta(out, raw, clean, lambda_n, scale):
    """The output layer's delta ``(out - clean) * lambda_n [* scale] * raw *
    (1 - raw)``, written into ``raw``, which is read no more.  It is formed
    over chunks of CHUNK_BYTES of rows, so the only other array it needs is
    one chunk's error; the products are those of a whole-block error, in
    the same order up to commuting the last one, so the bits are too."""
    step = max(1, CHUNK_BYTES // (raw.itemsize * raw.shape[1]))
    for start in range(0, raw.shape[0], step):
        rows = slice(start, start + step)
        g = _subtract_clean(out[rows].copy(),
                            clean if step >= raw.shape[0] else clean[rows])
        g *= lambda_n
        if scale is not None:
            g *= scale[rows]
        g *= raw[rows]
        chunk = np.subtract(1.0, raw[rows], out=raw[rows])
        chunk *= g
    return raw


def coupling_residuals(net, x0, xc):
    """(codes, rec_ss): the middle-layer codes of the rows of ``x0`` and the
    squared reconstruction residual sum |recon - xc|^2 over all rows, from
    one pass without dropout; each row block's activations are freed before
    the next block is evaluated."""
    X0 = _input(net, x0)
    codes = np.empty((X0.shape[0], net.code_size))
    rec_ss = 0.0
    for rows, block, Xc in _row_blocks(net, X0, xc):
        outs = _propagate(net, block)[0]
        codes[rows] = outs[net.middle]
        rec_diff = _subtract_clean(outs[net.num_layers], Xc).reshape(-1)
        rec_ss += float(rec_diff @ rec_diff)
        del outs, rec_diff  # freed before the next block is evaluated
    return codes, rec_ss


def save_network(net, path, config=None):
    """Checkpoint the network, optionally embedding the hyperparameter
    config text; the round trip through load_network is bit-exact."""
    arrays = {}
    for l in range(1, net.num_layers + 1):
        arrays[f"weight_{l}"] = net.weights[l - 1]
        arrays[f"bias_{l}"] = net.biases[l - 1]
    if config is not None:
        arrays["config"] = np.asarray(str(config))
    write_npz(path, widths=np.asarray(net.widths, dtype=np.int64), **arrays)


def load_network(path):
    def network(arrays):
        L = len(arrays["widths"]) - 1
        return SdaeNetwork([arrays[f"weight_{l}"] for l in range(1, L + 1)],
                           [arrays[f"bias_{l}"] for l in range(1, L + 1)])
    return read_npz(path, network)


def load_network_config(path):
    """Config text embedded in a checkpoint, or None if absent."""
    return read_npz(path, lambda arrays: str(arrays["config"])
                    if "config" in arrays else None)
