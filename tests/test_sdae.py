import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cdl import data, sdae, training
from cdl.exceptions import (ArgumentError, NumericError, ParseError, ShapeError,
                            ValidationError)
from test_training import hyper_params


def zero_net(widths):
    L = len(widths) - 1
    return sdae.SdaeNetwork(
        [np.zeros((widths[l - 1], widths[l])) for l in range(1, L + 1)],
        [np.zeros(widths[l]) for l in range(1, L + 1)],
    )


def random_instance(widths, num_rows, seed):
    rng = np.random.default_rng(seed)
    net = sdae.init_network(widths, seed=rng.integers(2**31), lambda_w=1.0)
    x0 = rng.random((num_rows, widths[0])) * (rng.random((num_rows, widths[0])) < 0.6)
    xc = rng.random((num_rows, widths[-1]))
    V = rng.normal(size=(num_rows, widths[len(widths) // 2]))
    lams = rng.uniform(0.1, 2.0, size=3)
    return net, x0, xc, V, float(lams[0]), float(lams[1]), float(lams[2])


def halved_repeats(dense):
    """CSR of ``dense`` with every stored entry written twice, as two halves:
    not canonical, and summing its repeats gives ``dense`` exactly."""
    coo = sp.coo_matrix(dense)
    twice = np.repeat(np.arange(coo.nnz), 2)
    indptr = np.concatenate([[0], np.cumsum(2 * np.bincount(coo.row, minlength=dense.shape[0]))])
    halves = sp.csr_matrix((coo.data[twice] / 2, coo.col[twice], indptr), shape=dense.shape)
    assert not halves.has_canonical_format
    return halves


def reference_gradients(net, x0, xc, item_factors, lambda_v, lambda_n, lambda_w, mask=None):
    """sdae.gradients as a loop whose blocks stay alive until the next one
    replaces them, and whose output-layer error is a full copy of that layer."""
    L = net.num_layers
    mid = net.middle
    grads_w = [-lambda_w * w for w in net.weights]
    grads_b = [-lambda_w * b for b in net.biases]
    for rows, X0, Xc, V in sdae._row_blocks(net, x0, xc, item_factors):
        scales = {} if mask is None else {l: arr[rows] for l, arr in mask.items()}
        outs, raws = sdae._propagate(net, X0, scales)
        for l in range(1, L + 1):
            if not np.isfinite(raws[l]).all():
                raise NumericError(f"non-finite activation at layer {l}")
        g = sdae._subtract_clean(outs[L].copy(), Xc)
        g *= lambda_n
        for l in range(L, 0, -1):
            if l == mid:
                g += lambda_v * (outs[l] - V)
            if l in scales:
                g *= scales[l]
            delta = g
            delta *= raws[l]
            delta *= np.subtract(1.0, raws[l], out=raws[l])
            grads_w[l - 1] -= outs[l - 1].T @ delta
            grads_b[l - 1] -= delta.sum(axis=0)
            if l > 1:
                g = delta @ net.weights[l - 1].T
    return grads_w, grads_b


def reference_coupling_residuals(net, x0, xc):
    """sdae.coupling_residuals as a loop whose blocks stay alive until the
    next one replaces them, and whose codes are stacked at the end."""
    codes = []
    rec_ss = 0.0
    for _, X0, Xc in sdae._row_blocks(net, x0, xc):
        outs = sdae._propagate(net, X0)[0]
        codes.append(outs[net.middle])
        rec_diff = sdae._subtract_clean(outs[net.num_layers], Xc).reshape(-1)
        rec_ss += float(rec_diff @ rec_diff)
    return np.concatenate(codes), rec_ss


def assert_same_residuals(got, want):
    """Two (codes, rec_ss) pairs of coupling_residuals hold the same bits."""
    assert_same_bits([got[0]], [want[0]])
    assert got[1].hex() == want[1].hex()


def offset_ss(codes, V):
    """The squared code residual sum |codes - V|^2 over all rows."""
    diff = codes - V
    return float(np.sum(diff * diff))


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
        assert [v.hex() for v in a.ravel().tolist()] == [v.hex() for v in b.ravel().tolist()]


def network_objective(net, x0, xc, V, lam_v, lam_n, lam_w):
    """Network-dependent part of the joint objective, via forward passes only."""
    codes, rec_ss = sdae.coupling_residuals(net, x0, xc)
    return (-0.5 * lam_w * net.squared_norm()
            - 0.5 * lam_v * offset_ss(codes, V) - 0.5 * lam_n * rec_ss)


def masked_objective(net, x0, xc, V, lam_v, lam_n, lam_w, mask):
    trace = sdae.forward(net, x0, mask)
    enc = trace[net.middle] - V
    rec = trace[net.num_layers] - xc
    return (-0.5 * lam_w * net.squared_norm()
            - 0.5 * lam_v * float(np.sum(enc * enc))
            - 0.5 * lam_n * float(np.sum(rec * rec)))


def finite_difference_grads(objective, net, step=1e-5):
    """Central differences of `objective(net)` for every weight and bias."""
    grads_w, grads_b = [], []
    for W in net.weights:
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + step
            up = objective(net)
            W[idx] = orig - step
            down = objective(net)
            W[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads_w.append(g)
    for b in net.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            up = objective(net)
            b[idx] = orig - step
            down = objective(net)
            b[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads_b.append(g)
    return grads_w, grads_b


def flatten(grads_w, grads_b):
    return np.concatenate([g.ravel() for g in grads_w + grads_b])


class TestInit:
    def test_shapes(self):
        net = sdae.init_network([10, 5, 2, 5, 10], seed=0)
        assert [w.shape for w in net.weights] == [(10, 5), (5, 2), (2, 5), (5, 10)]
        assert [b.shape for b in net.biases] == [(5,), (2,), (5,), (10,)]
        assert net.widths == [10, 5, 2, 5, 10]
        assert net.middle == 2 and net.code_size == 2

    def test_deterministic(self):
        a = sdae.init_network([6, 3, 6], seed=42)
        b = sdae.init_network([6, 3, 6], seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_sample_variance_matches_policy(self):
        # scale = min(lambda_w**-0.5, fan_in**-0.5); 1e4 entries within 10%
        lambda_w = 0.25
        net = sdae.init_network([100, 100, 100], seed=3, lambda_w=lambda_w)
        for l, W in enumerate(net.weights):
            s = min(lambda_w ** -0.5, W.shape[0] ** -0.5)
            assert W.size == 10_000
            assert abs(W.var() - s * s) < 0.1 * s * s

    def test_biases_zero(self):
        net = sdae.init_network([4, 2, 4], seed=1)
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_odd_layer_count_rejected(self):
        with pytest.raises(ArgumentError):
            sdae.init_network([4, 3, 2, 4], seed=0)

    @pytest.mark.parametrize("widths, message", [
        ((4, 3, 2, 4), "layer count must be even and >= 2, got 3"),
        ((4,), "layer count must be even and >= 2, got 0"),
        ((4, 0, 3, 0, 4), "all layer widths must be positive"),
        ((4, 3, -1), "all layer widths must be positive"),
    ], ids=["odd", "no-layer", "zero-width", "negative-width"])
    def test_every_network_passes_one_widths_check(self, tmp_path, widths, message):
        # configured, initialized, drawn, built or loaded: one check, one
        # error, which a loaded checkpoint prefixes with its path
        rng = np.random.default_rng(0)
        sized = [max(w, 0) for w in widths]
        weights = [np.zeros(shape) for shape in zip(sized[:-1], sized[1:])]
        biases = [np.zeros(w) for w in sized[1:]]
        path = tmp_path / "net.npz"
        np.savez(path, widths=np.asarray(widths),
                 **{f"weight_{l}": w for l, w in enumerate(weights, 1)},
                 **{f"bias_{l}": b for l, b in enumerate(biases, 1)})
        for make, prefix in ((sdae.check_widths, ""),
                             (lambda w: sdae.init_network(w, seed=0), ""),
                             (lambda w: sdae.sample_network(w, 1.0, rng), ""),
                             (lambda w: sdae.SdaeNetwork(weights, biases), ""),
                             (lambda w: sdae.load_network(path), f"{path}: ")):
            with pytest.raises(ArgumentError) as info:
                make(widths)
            assert str(info.value) == prefix + message
            assert info.value.fields == ("widths",)

    def test_non_integral_width_rejected(self):
        # int() would truncate 8.7 to 8 and build an 8-3-8 network
        rng = np.random.default_rng(0)
        for make in (sdae.check_widths, lambda w: sdae.init_network(w, seed=0),
                     lambda w: sdae.sample_network(w, 1.0, rng)):
            with pytest.raises(ArgumentError) as info:
                make((8.7, 3, 8))
            assert str(info.value) == "all layer widths must be integers"
            assert info.value.fields == ("widths",)

    @pytest.mark.parametrize("lambda_w", [-1.0, 0.0, math.nan])
    def test_non_positive_lambda_w_named(self, lambda_w):
        rng = np.random.default_rng(0)
        for make in (lambda: sdae.init_network((4, 2, 4), 0, lambda_w),
                     lambda: sdae.sample_network((4, 2, 4), lambda_w, rng)):
            with pytest.raises(ArgumentError) as info:
                make()
            assert str(info.value) == "lambda_w must be positive"
            assert info.value.fields == ("lambda_w",)

    def test_infinite_lambda_w_gives_zero_weights(self):
        # the prior's limit, which synthesis uses
        for net in (sdae.init_network((4, 2, 4), 0, math.inf),
                    sdae.sample_network((4, 2, 4), math.inf, np.random.default_rng(0))):
            assert all(np.all(w == 0.0) for w in net.weights)

    def test_every_oversized_network_named_by_its_widths(self):
        # initialized, drawn, or drawn for synthetic data: a failed allocation
        # names the widths instead of surfacing numpy's memory error
        message = "layer widths 1000000000000-2-1000000000000 too large to allocate"
        widths = (10**12, 2, 10**12)
        for make in (lambda: sdae.init_network(widths, seed=0),
                     lambda: sdae.sample_network(widths, 1.0, np.random.default_rng(0)),
                     lambda: data.generate_synthetic(5, 5, 10**12, 2,
                                                     training.HyperParams(n_factors=2), 0)):
            with pytest.raises(ValidationError) as info:
                make()
            assert str(info.value) == message

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sdae.SdaeNetwork([np.zeros((3, 2)), np.zeros((3, 3))],
                             [np.zeros(2), np.zeros(3)])

    def test_weight_and_bias_of_one_layer_must_agree(self):
        with pytest.raises(ShapeError, match=r"^layer 2: weight \(2, 3\) and bias \(2,\) "
                                             "mismatch$"):
            sdae.SdaeNetwork([np.zeros((3, 2)), np.zeros((2, 3))],
                             [np.zeros(2), np.zeros(2)])

    def test_one_bias_per_weight_required(self):
        with pytest.raises(ArgumentError, match="^weights and biases must have one entry "
                                                "per layer$"):
            sdae.SdaeNetwork([np.zeros((3, 2)), np.zeros((2, 3))], [np.zeros(2)])

    def test_nonfinite_rejected(self):
        W = np.zeros((2, 2))
        W[0, 0] = np.inf
        with pytest.raises(NumericError):
            sdae.SdaeNetwork([W, np.zeros((2, 2))], [np.zeros(2), np.zeros(2)])


class TestForward:
    def test_zero_net_gives_half_everywhere(self):
        net = zero_net([3, 2, 3])
        X0 = np.random.default_rng(0).random((4, 3))
        trace = sdae.forward(net, X0)
        for out in trace[1:]:
            np.testing.assert_array_equal(out, np.full(out.shape, 0.5))

    def test_two_one_two_midpoint(self):
        net = sdae.SdaeNetwork(
            [np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])],
            [np.zeros(1), np.zeros(2)],
        )
        trace = sdae.forward(net, np.array([[0.0, 0.0]]))
        assert trace[1][0, 0] == 0.5

    def test_matches_independent_single_row_evaluator(self):
        # second implementation: pure-python per-row loop
        net, x0, _, _, _, _, _ = random_instance([5, 4, 3, 4, 5], 5, seed=7)
        trace = sdae.forward(net, x0)
        for r in range(5):
            row = list(x0[r])
            for l in range(1, net.num_layers + 1):
                W, b = net.weights[l - 1], net.biases[l - 1]
                nxt = []
                for n in range(W.shape[1]):
                    z = b[n] + sum(row[k] * W[k, n] for k in range(W.shape[0]))
                    nxt.append(1.0 / (1.0 + math.exp(-z)))
                row = nxt
                np.testing.assert_allclose(
                    trace[l][r], row, atol=1e-12, rtol=0,
                )

    def test_sparse_input_equals_dense(self):
        import scipy.sparse as sp
        net, x0, _, _, _, _, _ = random_instance([6, 3, 6], 4, seed=1)
        dense = sdae.forward(net, x0)
        sparse = sdae.forward(net, sp.csr_matrix(x0))
        for a, b in zip(dense[1:], sparse[1:]):
            np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        net = zero_net([3, 2, 3])
        with pytest.raises(ShapeError):
            sdae.forward(net, np.zeros((2, 4)))

    def test_activations_in_open_unit_interval(self):
        net, x0, _, _, _, _, _ = random_instance([6, 4, 2, 4, 6], 8, seed=9)
        trace = sdae.forward(net, x0)
        for out in trace[1:]:
            assert np.all(out > 0.0) and np.all(out < 1.0)


class TestEncodeReconstruct:
    def test_l6_uses_third_and_sixth_layers(self):
        net, x0, _, _, _, _, _ = random_instance([5, 4, 3, 2, 3, 4, 5], 3, seed=2)
        assert net.num_layers == 6
        trace = sdae.forward(net, x0)
        np.testing.assert_array_equal(sdae.encode(net, x0), trace[3])
        np.testing.assert_array_equal(sdae.reconstruct(net, x0), trace[6])

    def test_encode_matches_trace_exactly(self):
        net, x0, _, _, _, _, _ = random_instance([6, 2, 6], 4, seed=3)
        trace = sdae.forward(net, x0)
        np.testing.assert_array_equal(sdae.encode(net, x0), trace[net.middle])

    def test_single_row_shapes(self):
        net, x0, _, _, _, _, _ = random_instance([6, 4, 2, 4, 6], 3, seed=4)
        assert sdae.encode(net, x0[0]).shape == (2,)
        assert sdae.reconstruct(net, x0[0]).shape == (6,)

    def test_encoder_width_is_code_size(self):
        for widths in ([4, 2, 4], [7, 5, 3, 5, 7], [6, 4, 1, 4, 6]):
            net = sdae.init_network(widths, seed=0)
            out = sdae.encode(net, np.zeros(widths[0]))
            assert out.shape == (widths[len(widths) // 2],)

    def test_overfit_three_one_hot_rows(self):
        # autoencoder trained to convergence on 3 rows reconstructs them
        rng = np.random.default_rng(0)
        X = np.eye(3)
        net = sdae.init_network([3, 8, 4, 8, 3], seed=1, lambda_w=1.0)
        V = np.zeros((3, 4))
        for _ in range(4000):
            gw, gb = sdae.gradients(net, X, X, V, 0.0, 1.0, 1e-6)
            for l in range(net.num_layers):
                net.weights[l] += 0.5 * gw[l]
                net.biases[l] += 0.5 * gb[l]
        err = np.abs(sdae.reconstruct(net, X) - X)
        assert err.max() < 0.1


class TestGradients:
    def test_weight_decay_only(self):
        net, x0, xc, V, _, _, _ = random_instance([4, 3, 2, 3, 4], 3, seed=5)
        lam_w = 0.37
        gw, gb = sdae.gradients(net, x0, xc, V, 0.0, 0.0, lam_w)
        for l in range(net.num_layers):
            np.testing.assert_array_equal(gw[l], -lam_w * net.weights[l])
            np.testing.assert_array_equal(gb[l], -lam_w * net.biases[l])

    def test_zero_residuals_reduce_to_weight_decay(self):
        net, x0, _, _, _, _, _ = random_instance([4, 3, 2, 3, 4], 3, seed=6)
        V = sdae.encode(net, x0)
        xc = sdae.reconstruct(net, x0)
        lam_w = 0.8
        gw, gb = sdae.gradients(net, x0, xc, V, 1.3, 0.7, lam_w)
        for l in range(net.num_layers):
            np.testing.assert_allclose(gw[l], -lam_w * net.weights[l], atol=1e-12)
            np.testing.assert_allclose(gb[l], -lam_w * net.biases[l], atol=1e-12)

    def test_finite_difference_oracle_tiny_net(self):
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([4, 3, 2, 3, 4], 3, seed=8)
        gw, gb = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)
        ow, ob = finite_difference_grads(
            lambda n: network_objective(n, x0, xc, V, lam_v, lam_n, lam_w), net)
        analytic = flatten(gw, gb)
        numeric = flatten(ow, ob)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-5

    def test_batched_equals_unbatched(self, monkeypatch):
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([5, 3, 5], 7, seed=10)
        full_w, full_b = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)
        monkeypatch.setattr(sdae, "BLOCK_ROWS", 2)
        bat_w, bat_b = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)
        for a, b in zip(full_w + full_b, bat_w + bat_b):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_sparse_input_equals_dense(self):
        import scipy.sparse as sp
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([5, 3, 5], 6, seed=11)
        dense_w, dense_b = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)
        sp_w, sp_b = sdae.gradients(net, sp.csr_matrix(x0), sp.csr_matrix(xc), V,
                                    lam_v, lam_n, lam_w)
        for a, b in zip(dense_w + dense_b, sp_w + sp_b):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_ascent_step_does_not_decrease_objective(self):
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([4, 2, 4], 5, seed=12)
        before = network_objective(net, x0, xc, V, lam_v, lam_n, lam_w)
        gw, gb = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)
        norm = max(np.abs(flatten(gw, gb)).max(), 1.0)
        eta = 1e-6 / norm
        for l in range(net.num_layers):
            net.weights[l] += eta * gw[l]
            net.biases[l] += eta * gb[l]
        after = network_objective(net, x0, xc, V, lam_v, lam_n, lam_w)
        assert after >= before

    def test_nonfinite_activation_names_layer(self):
        net, x0, xc, V, _, _, _ = random_instance([4, 3, 2, 3, 4], 3, seed=13)
        net.weights[1][0, 0] = np.nan
        with pytest.raises(NumericError, match="layer 2"):
            sdae.gradients(net, x0, xc, V, 1.0, 1.0, 1.0)


class TestRowBlocks:
    """gradients, coupling_residuals, encode and reconstruct walk their rows
    in blocks of sdae.BLOCK_ROWS; the block size changes no value beyond
    summation order, and bounds the working memory."""

    def test_blocks_match_one_block(self, monkeypatch):
        net, x0, xc, V, _, _, _ = random_instance([5, 4, 3, 4, 5], 7, seed=10)
        whole = (sdae.coupling_residuals(net, x0, xc),
                 sdae.encode(net, x0), sdae.reconstruct(net, x0))
        monkeypatch.setattr(sdae, "BLOCK_ROWS", 2)
        codes, rec_ss = sdae.coupling_residuals(net, x0, xc)
        np.testing.assert_allclose(rec_ss, whole[0][1], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(offset_ss(codes, V), offset_ss(whole[0][0], V),
                                   rtol=1e-12, atol=1e-14)
        # the pass's codes are encode's, whatever the block size
        assert_same_bits([codes, whole[0][0]], [whole[1], whole[1]])
        np.testing.assert_array_equal(sdae.encode(net, x0), whole[1])
        np.testing.assert_array_equal(sdae.reconstruct(net, x0), whole[2])

    def test_peak_memory_is_one_block(self, monkeypatch):
        import tracemalloc
        rows, words = 1024, 400
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance(
            [words, 40, 8, 40, words], rows, seed=21)
        one_array = rows * words * 8
        monkeypatch.setattr(sdae, "BLOCK_ROWS", 64)
        calls = {
            "gradients": lambda: sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w),
            "coupling_residuals": lambda: sdae.coupling_residuals(net, x0, xc),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < one_array, f"{name} peaked at {peak} bytes"

    @pytest.mark.parametrize("fmt", ["coo", "csc"])
    def test_any_sparse_format_gives_the_csr_outputs(self, fmt):
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([4, 2, 4], 4, seed=27)
        xc[xc < 0.5] = 0.0
        csr0, csrc = sp.csr_matrix(x0), sp.csr_matrix(xc)
        other0, otherc = csr0.asformat(fmt), csrc.asformat(fmt)
        np.testing.assert_array_equal(sdae.encode(net, other0), sdae.encode(net, csr0))
        np.testing.assert_array_equal(sdae.reconstruct(net, other0), sdae.reconstruct(net, csr0))
        got = sdae.gradients(net, other0, otherc, V, lam_v, lam_n, lam_w)
        want = sdae.gradients(net, csr0, csrc, V, lam_v, lam_n, lam_w)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            np.testing.assert_array_equal(a, b)
        assert_same_residuals(sdae.coupling_residuals(net, other0, otherc),
                              sdae.coupling_residuals(net, csr0, csrc))

    def test_one_block_leaves_a_non_canonical_operand_unchanged(self):
        # the rows fit one block, so no slice copies the operands: a
        # non-canonical CSR is summed in a copy, never in the caller's matrix
        net, _, xc, V, lam_v, lam_n, lam_w = random_instance([4, 3, 2, 3, 4], 5, seed=29)
        assert xc.shape[0] <= sdae.BLOCK_ROWS
        xc[xc < 0.5] = 0.0  # below the dense layout's 2/3 density: it stays CSR
        halves = halved_repeats(xc)
        assert sp.issparse(sdae._as_matrix(halves))
        before = [halves.data.copy(), halves.indices.copy(), halves.indptr.copy()]
        canonical = halves.copy()
        canonical.sum_duplicates()

        def outputs(x):
            grads_w, grads_b = sdae.gradients(net, x, x, V, lam_v, lam_n, lam_w)
            codes, rec_ss = sdae.coupling_residuals(net, x, x)
            return [*grads_w, *grads_b, codes, np.array(rec_ss), sdae.encode(net, x)]

        got = outputs(halves)
        for arr, old in zip((halves.data, halves.indices, halves.indptr), before):
            np.testing.assert_array_equal(arr, old)
        for a, b in zip(got, outputs(canonical)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("one_row", ["item_factors", "clean"])
    def test_residuals_reject_one_row_operand(self, one_row):
        # the row blocks check every operand: the pass takes the clean
        # content, and gradients the item factors too
        net, x0, xc, V, _, _, _ = random_instance([5, 3, 5], 4, seed=22)
        if one_row == "item_factors":
            V = V[:1]
        else:
            xc = xc[:1]
            with pytest.raises(ShapeError, match="clean content shape"):
                sdae.coupling_residuals(net, x0, xc)
        with pytest.raises(ShapeError, match={"item_factors": "item factor shape",
                                              "clean": "clean content shape"}[one_row]):
            sdae.gradients(net, x0, xc, V, 1.0, 1.0, 1.0)


class TestLayout:
    """_as_matrix holds a sparse operand dense exactly when the dense array
    is no larger than its CSR: nnz x (value + index bytes) >= rows x cols x 8,
    a density of 2/3 with int32 indices and 1/2 with int64 ones."""

    @staticmethod
    def csr_with(nnz, index_dtype, rows=6, cols=10):
        rng = np.random.default_rng(nnz)
        dense = np.zeros(rows * cols)
        dense[rng.permutation(rows * cols)[:nnz]] = rng.uniform(0.1, 1.0, nnz)
        csr = sp.csr_matrix(dense.reshape(rows, cols))
        csr.indices, csr.indptr = csr.indices.astype(index_dtype), csr.indptr.astype(index_dtype)
        return csr

    @pytest.mark.parametrize("index_dtype, line, repeated", [
        (np.int32, 40, False), (np.int64, 30, False), (np.int32, 40, True)],
        ids=["int32", "int64", "int32-repeated"])
    def test_dense_exactly_when_no_larger_than_csr(self, index_dtype, line, repeated):
        # 6 x 10 float64s take 480 bytes: 40 entries of 12 bytes or 30 of 16;
        # repeated entries are summed before they are counted
        for nnz, dense in ((line - 1, False), (line, True)):
            csr = self.csr_with(nnz, index_dtype)
            given = halved_repeats(csr.toarray()) if repeated else csr
            before = [a.copy() for a in (given.data, given.indices, given.indptr)]
            got = sdae._as_matrix(given)
            assert isinstance(got, np.ndarray) == dense and sp.issparse(got) != dense
            np.testing.assert_array_equal(got if dense else got.toarray(), csr.toarray())
            for arr, old in zip((given.data, given.indices, given.indptr), before):
                assert arr.dtype == old.dtype
                np.testing.assert_array_equal(arr, old)

    def test_zero_rows_are_dense(self):
        # an empty array takes no more bytes than an empty CSR
        got = sdae._as_matrix(sp.csr_matrix((0, 5)))
        assert isinstance(got, np.ndarray) and got.shape == (0, 5)

    def test_above_the_line_gives_the_dense_bits(self, monkeypatch):
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([8, 4, 2, 4, 8], 9, seed=45)
        x0[x0 == 0.0] = 0.5  # every entry stored
        xc[0, :2] = 0.0      # 70 of 72 entries stored
        csr0, csrc = sp.csr_matrix(x0), sp.csr_matrix(xc)
        assert csrc.nnz == 70
        for block_rows in (sdae.BLOCK_ROWS, 4):
            monkeypatch.setattr(sdae, "BLOCK_ROWS", block_rows)
            got = sdae.gradients(net, csr0, csrc, V, lam_v, lam_n, lam_w)
            want = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)
            assert_same_bits(got[0] + got[1], want[0] + want[1])
            assert_same_residuals(sdae.coupling_residuals(net, csr0, csrc),
                                  sdae.coupling_residuals(net, x0, xc))
            assert_same_bits([sdae.encode(net, csr0)], [sdae.encode(net, x0)])


class TestAgainstReferenceLoops:
    """gradients and coupling_residuals free each row block before the next
    and form the output-layer delta in place, over chunks of CHUNK_BYTES;
    their outputs keep the reference loops' bits."""

    @pytest.mark.parametrize("clean_format", ["dense", "csr"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("block_rows,chunk_rows", [
        (5, 2), (5, 3), (5, 1), (5, 5), (5, 64), (4, 3), (64, 7)])
    def test_bits_match_reference(self, monkeypatch, clean_format, dropout,
                                  block_rows, chunk_rows):
        # 23 rows: every block size leaves a partial last block, and no
        # chunk size but 1 divides it
        widths = [30, 7, 3, 7, 30]
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance(widths, 23, seed=41)
        xc[xc < 0.4] = 0.0
        xc[[2, 22]] = 0.0
        clean = sp.csr_matrix(xc) if clean_format == "csr" else xc
        mask = sdae.dropout_mask(widths, 23, dropout, seed=8) if dropout else None
        monkeypatch.setattr(sdae, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(sdae, "CHUNK_BYTES", chunk_rows * widths[-1] * 8)
        for inputs in (x0, sp.csr_matrix(x0)):
            got = sdae.gradients(net, inputs, clean, V, lam_v, lam_n, lam_w, mask=mask)
            want = reference_gradients(net, inputs, clean, V, lam_v, lam_n, lam_w, mask=mask)
            assert_same_bits(got[0] + got[1], want[0] + want[1])
            assert_same_residuals(sdae.coupling_residuals(net, inputs, clean),
                                  reference_coupling_residuals(net, inputs, clean))

    def test_bits_match_reference_across_default_blocks(self, monkeypatch):
        # more rows than one default block, chunked at 300 rows, which
        # divides neither the block nor the partial last block
        widths = [40, 8, 3, 8, 40]
        rows = sdae.BLOCK_ROWS + 301
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance(widths, rows, seed=43)
        mask = sdae.dropout_mask(widths, rows, 0.1, seed=9)
        for chunk_bytes in (sdae.CHUNK_BYTES, 300 * widths[-1] * 8):
            monkeypatch.setattr(sdae, "CHUNK_BYTES", chunk_bytes)
            got = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w, mask=mask)
            want = reference_gradients(net, x0, xc, V, lam_v, lam_n, lam_w, mask=mask)
            assert_same_bits(got[0] + got[1], want[0] + want[1])
        assert_same_residuals(sdae.coupling_residuals(net, x0, xc),
                              reference_coupling_residuals(net, x0, xc))

    def test_output_layer_mask_is_applied(self, monkeypatch):
        # dropout_mask never scales the output layer, but a caller's mask may
        widths = [6, 3, 6]
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance(widths, 9, seed=44)
        rng = np.random.default_rng(3)
        mask = {1: rng.random((9, 3)) * 2, 2: rng.random((9, 6)) * 2}
        monkeypatch.setattr(sdae, "BLOCK_ROWS", 4)
        monkeypatch.setattr(sdae, "CHUNK_BYTES", 3 * widths[-1] * 8)
        got = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w, mask=mask)
        want = reference_gradients(net, x0, xc, V, lam_v, lam_n, lam_w, mask=mask)
        assert_same_bits(got[0] + got[1], want[0] + want[1])


class TestSigmoid:
    """sdae's in-place sigmoid against scipy's expit, and the output layer
    that subtracts clean content at its stored entries."""

    def test_matches_expit_within_four_ulp(self):
        from scipy.special import expit
        z = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                            [709.8, -709.8, 745.0, -745.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sdae._sigmoid(z.copy())
        want = expit(z)
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
        # exp(-z) overflows below about -709.78: both give exactly 0 there
        assert np.all(got[z < -709.79] == 0.0) and np.all(want[z < -709.79] == 0.0)

    def test_infinities_and_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sdae._sigmoid(np.array([np.inf, -np.inf, np.nan]))
        assert got[0] == 1.0 and got[1] == 0.0 and np.isnan(got[2])

    def test_saturated_network_stays_finite_without_warnings(self):
        # every pre-activation is at most -1000, so every activation is 0
        widths = [5, 4, 3, 4, 5]
        net = sdae.SdaeNetwork(
            [np.full((widths[l - 1], widths[l]), -1000.0) for l in range(1, 5)],
            [np.full(widths[l], -1000.0) for l in range(1, 5)],
        )
        _, x0, xc, V, lam_v, lam_n, lam_w = random_instance(widths, 6, seed=25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gw, gb = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)
            codes, rec_ss = sdae.coupling_residuals(net, x0, xc)
        for l in range(net.num_layers):
            np.testing.assert_array_equal(gw[l], -lam_w * net.weights[l])
            np.testing.assert_array_equal(gb[l], -lam_w * net.biases[l])
        np.testing.assert_array_equal(codes, 0.0)
        np.testing.assert_allclose([offset_ss(codes, V), rec_ss],
                                   [np.sum(V * V), np.sum(xc * xc)], rtol=1e-14)

    def test_sparse_clean_content_equals_dense_bit_for_bit(self, monkeypatch):
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([5, 4, 3, 4, 5], 10, seed=23)
        xc[xc < 0.5] = 0.0
        xc[[0, 4, 9]] = 0.0  # empty rows, one in the partial last block
        clean = sp.csr_matrix(xc)
        mask = sdae.dropout_mask(net.widths, 10, 0.2, seed=5)
        monkeypatch.setattr(sdae, "BLOCK_ROWS", 3)
        for inputs in (x0, sp.csr_matrix(x0)):
            dense = sdae.gradients(net, inputs, xc, V, lam_v, lam_n, lam_w, mask=mask)
            sparse = sdae.gradients(net, inputs, clean, V, lam_v, lam_n, lam_w, mask=mask)
            for a, b in zip(dense[0] + dense[1], sparse[0] + sparse[1]):
                np.testing.assert_array_equal(a, b)
            assert_same_residuals(sdae.coupling_residuals(net, inputs, xc),
                                  sdae.coupling_residuals(net, inputs, clean))
        np.testing.assert_array_equal(clean.toarray(), xc)

    def test_repeated_sparse_entries_are_summed(self):
        net, x0, xc, V, _, _, _ = random_instance([4, 2, 4], 3, seed=26)
        xc[xc < 0.5] = 0.0  # below the dense layout's 2/3 density: it stays CSR
        halves = halved_repeats(xc)
        assert sp.issparse(sdae._as_matrix(halves))
        np.testing.assert_allclose(sdae.coupling_residuals(net, x0, halves)[1],
                                   sdae.coupling_residuals(net, x0, xc)[1], rtol=1e-14)

    def test_peak_memory_with_sparse_clean_content(self, monkeypatch):
        import tracemalloc
        rows, words = 1024, 400
        net, _, _, V, lam_v, lam_n, lam_w = random_instance(
            [words, 30, 8, 30, words], rows, seed=24)
        rng = np.random.default_rng(24)
        content = rng.random((rows, words))
        content[rng.random((rows, words)) >= 0.05] = 0.0
        clean = sp.csr_matrix(content)
        monkeypatch.setattr(sdae, "BLOCK_ROWS", 64)
        monkeypatch.setattr(sdae, "CHUNK_BYTES", 8 * words * 8)
        block = 64 * words * 8
        # in blocks: about 3 and 1.7; keeping the previous block alive while
        # the next one is evaluated, and copying the whole output layer for
        # its error, takes about 4 and 3.  The pass's codes (rows x code
        # size, the shape of the item factors gradients reads) are its
        # output, not working memory, so its peak is counted above them
        calls = {
            "gradients": (3.5, 0, lambda: sdae.gradients(net, clean, clean, V,
                                                         lam_v, lam_n, lam_w)),
            "coupling_residuals": (2.0, V.nbytes,
                                   lambda: sdae.coupling_residuals(net, clean, clean)),
        }
        for name, (bound, output, call) in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1] - output
            finally:
                tracemalloc.stop()
            assert peak < bound * block, f"{name} peaked at {peak / block:.2f} blocks"


class TestDropout:
    def test_rate_zero_reproduces_forward_bit_exactly(self):
        net, x0, _, _, _, _, _ = random_instance([6, 4, 2, 4, 6], 5, seed=14)
        mask = sdae.dropout_mask(net.widths, 5, 0.0, seed=3)
        with_mask = sdae.forward(net, x0, mask)
        without = sdae.forward(net, x0)
        for a, b in zip(with_mask, without):
            np.testing.assert_array_equal(np.asarray(a.todense()) if hasattr(a, "todense") else a,
                                          np.asarray(b.todense()) if hasattr(b, "todense") else b)

    def test_mask_skips_input_code_output_layers(self):
        mask = sdae.dropout_mask([6, 4, 2, 4, 6], 5, 0.5, seed=1)
        assert set(mask) == {1, 3}
        mask2 = sdae.dropout_mask([6, 2, 6], 5, 0.5, seed=1)
        assert set(mask2) == set()

    def test_inverted_scaling_values(self):
        mask = sdae.dropout_mask([6, 4, 2, 4, 6], 50, 0.2, seed=2)
        values = np.unique(mask[1])
        np.testing.assert_allclose(values, [0.0, 1.0 / 0.8])

    def test_bad_rate_rejected(self):
        with pytest.raises(ArgumentError):
            sdae.dropout_mask([4, 2, 4], 3, 1.0, seed=0)

    def test_gradients_with_fixed_mask_match_finite_differences(self):
        net, x0, xc, V, lam_v, lam_n, lam_w = random_instance([4, 3, 2, 3, 4], 3, seed=15)
        mask = sdae.dropout_mask(net.widths, 3, 0.3, seed=4)
        gw, gb = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w, mask=mask)
        ow, ob = finite_difference_grads(
            lambda n: masked_objective(n, x0, xc, V, lam_v, lam_n, lam_w, mask), net)
        rel = (np.linalg.norm(flatten(gw, gb) - flatten(ow, ob))
               / max(np.linalg.norm(flatten(ow, ob)), 1e-12))
        assert rel < 1e-5


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def networks(draw):
    """Any network of 2 or 4 layers, with every finite weight and bias."""
    widths = draw(st.lists(st.integers(1, 5), min_size=3, max_size=5)
                  .filter(lambda w: len(w) % 2))
    return sdae.SdaeNetwork(
        [draw(hnp.arrays(np.float64, (widths[l], widths[l + 1]), elements=FINITE))
         for l in range(len(widths) - 1)],
        [draw(hnp.arrays(np.float64, widths[l + 1], elements=FINITE))
         for l in range(len(widths) - 1)])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net, _, _, _, _, _, _ = random_instance([7, 4, 2, 4, 7], 3, seed=16)
        path = tmp_path / "net.npz"
        sdae.save_network(net, path)
        back = sdae.load_network(path)
        assert back.widths == net.widths
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)
        assert sdae.load_network_config(path) is None

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(net=networks(), hyper=st.none() | hyper_params())
    def test_any_network_round_trips_bit_exact(self, tmp_path, net, hyper):
        config = None if hyper is None else training.config_text(hyper)
        path = tmp_path / "net.npz"
        sdae.save_network(net, path, config=config)
        back = sdae.load_network(path)
        assert_same_bits(back.weights + back.biases, net.weights + net.biases)
        assert sdae.load_network_config(path) == config

    @pytest.mark.parametrize("name", ["net.npz", "net"])
    def test_file_name_and_bytes_as_np_savez_gives_them(self, tmp_path, name):
        net, _, _, _, _, _, _ = random_instance([5, 2, 5], 3, seed=18)
        sdae.save_network(net, tmp_path / name, config="n_factors=2\n")
        np.savez(tmp_path / "ref", widths=np.asarray(net.widths, dtype=np.int64),
                 weight_1=net.weights[0], bias_1=net.biases[0], weight_2=net.weights[1],
                 bias_2=net.biases[1], config=np.asarray("n_factors=2\n"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.npz", "ref.npz"]
        assert (tmp_path / "net.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()

    def test_embedded_config_round_trips(self, tmp_path):
        net, _, _, _, _, _, _ = random_instance([5, 2, 5], 3, seed=17)
        path = tmp_path / "net.npz"
        sdae.save_network(net, path, config="lambda_v=10.0\nn_factors=2\n")
        assert sdae.load_network_config(path) == "lambda_v=10.0\nn_factors=2\n"
        back = sdae.load_network(path)
        np.testing.assert_array_equal(back.weights[0], net.weights[0])

    def test_damaged_checkpoint_names_path_and_key(self, tmp_path):
        net, _, _, _, _, _, _ = random_instance([5, 2, 5], 3, seed=17)
        path = tmp_path / "net.npz"
        np.savez(path, widths=np.asarray(net.widths), weight_1=net.weights[0],
                 bias_1=net.biases[0], weight_2=net.weights[1])
        with pytest.raises(ParseError, match="no array 'bias_2'") as info:
            sdae.load_network(path)
        assert str(path) in str(info.value)
        path.write_bytes(b"")
        for load in (sdae.load_network, sdae.load_network_config):
            with pytest.raises(ParseError, match="unreadable checkpoint"):
                load(path)
