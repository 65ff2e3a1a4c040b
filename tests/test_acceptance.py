"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import os
import time

import numpy as np
import pytest
import scipy.optimize

from cdl import data, factors as mf, metrics, sampling, sdae, training
from cdl.factors import ConfidenceParams
from cdl.training import HyperParams


def report(number, label, ok):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_gradient_fidelity():
    """Analytic network gradients match central finite differences to 1e-5
    relative error on >= 20 random instances in under 30 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for trial in range(20):
        widths = [
            [4, 3, 2, 3, 4], [6, 4, 3, 4, 6], [10, 6, 3, 6, 10], [5, 2, 5],
        ][trial % 4]
        num_rows = int(rng.integers(2, 9))
        net = sdae.init_network(widths, seed=int(rng.integers(2**31)), lambda_w=1.0)
        x0 = rng.random((num_rows, widths[0])) * (rng.random((num_rows, widths[0])) < 0.7)
        xc = rng.random((num_rows, widths[-1]))
        V = rng.normal(size=(num_rows, widths[len(widths) // 2]))
        lam_v, lam_n, lam_w = rng.uniform(0.1, 2.0, size=3)

        gw, gb = sdae.gradients(net, x0, xc, V, lam_v, lam_n, lam_w)

        def objective(n):
            codes, rec_ss = sdae.coupling_residuals(n, x0, xc)
            return (-0.5 * lam_w * n.squared_norm()
                    - 0.5 * lam_v * float(np.sum((codes - V) ** 2)) - 0.5 * lam_n * rec_ss)

        numeric = []
        analytic = []
        step = 1e-5
        for params, grads in ((net.weights, gw), (net.biases, gb)):
            for arr, grad in zip(params, grads):
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + step
                    up = objective(net)
                    arr[idx] = orig - step
                    down = objective(net)
                    arr[idx] = orig
                    numeric.append((up - down) / (2 * step))
                    analytic.append(grad[idx])
        numeric = np.asarray(numeric)
        analytic = np.asarray(analytic)
        rel = (np.linalg.norm(analytic - numeric)
               / max(np.linalg.norm(numeric), 1e-12))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(1, f"gradient fidelity (worst rel err {worst:.2e}, {elapsed:.1f}s)",
           worst < 1e-5 and elapsed < 30.0)


def test_criterion_2_block_update_exactness():
    """Factor updates are stationary points (residual < 1e-8 * (1 + |rhs|))
    and match an independent L-BFGS oracle to 1e-6, on 50 random instances."""
    rng = np.random.default_rng(20240102)
    ok = True
    for trial in range(50):
        K = int(rng.integers(1, 6))
        num_other = int(rng.integers(2, 12))
        conf = ConfidenceParams(float(rng.uniform(0.5, 3.0)),
                                float(rng.uniform(0.0, 0.3)))
        lam = float(rng.uniform(0.1, 5.0))
        M = rng.normal(size=(num_other, K))
        rated = rng.choice(num_other, size=int(rng.integers(0, num_other)),
                           replace=False)
        if trial % 2 == 0:
            x = mf.update_user(M, rated, conf, lam)
            grad = mf.user_gradient(x, M, rated, conf, lam)
            _, rhs = mf._user_system(M, rated, conf, lam)
            enc = None
        else:
            enc = rng.normal(size=K)
            x = mf.update_item(M, rated, conf, lam, enc)
            grad = mf.item_gradient(x, M, rated, conf, lam, enc)
            _, rhs = mf._item_system(M, rated, conf, lam, enc)
        ok &= np.linalg.norm(grad) < 1e-8 * (1.0 + np.linalg.norm(rhs))

        liked = set(int(j) for j in rated)

        def negative_subobjective(z):
            val = 0.5 * lam * z @ z
            g = lam * z.copy()
            if enc is not None:
                val -= lam * z @ enc
                g -= lam * enc
            for j in range(num_other):
                c = conf.a if j in liked else conf.b
                r = 1.0 if j in liked else 0.0
                e = z @ M[j] - r
                val += 0.5 * c * e * e
                g += c * e * M[j]
            return val, g

        res = scipy.optimize.minimize(negative_subobjective, np.zeros(K),
                                      jac=True, method="L-BFGS-B",
                                      options={"gtol": 1e-12, "ftol": 0.0,
                                               "maxiter": 2000})
        ok &= bool(np.all(np.abs(x - res.x) < 1e-6))
    report(2, "block-update exactness vs stationarity and L-BFGS oracle", ok)


def test_criterion_3_coordinate_ascent_monotonicity():
    """With the network frozen, 10 factor sweeps never decrease the
    objective (tolerance 1e-9)."""
    rng = np.random.default_rng(20240103)
    ok = True
    for trial in range(5):
        num_users, num_items, vocab = 25, 35, 15
        mask = rng.random((num_users, num_items)) < 0.2
        ratings = data.RatingsMatrix(num_users, num_items, np.argwhere(mask))
        dense = rng.random((num_items, vocab)) * (rng.random((num_items, vocab)) < 0.5)
        content = data.ContentMatrix(dense, data.RAW)
        hyper = HyperParams(lambda_u=1.0, lambda_v=5.0, lambda_n=20.0,
                            lambda_w=0.1, conf_a=1.0, conf_b=0.01, n_factors=4,
                            noise_level=0.3, dropout_rate=0.0,
                            learning_rate=0.0, momentum=0.0,
                            epochs_per_block=0, max_sweeps=10,
                            early_stop_tol=0.0, seed=trial)
        _, _, rep = training.fit(ratings, content, hyper)
        totals = rep.totals()
        diffs = np.diff(totals)
        ok &= bool(np.all(diffs >= -1e-9 * (1.0 + np.abs(totals[:-1]))))
    report(3, "coordinate-ascent monotonicity over 10 sweeps", ok)


def test_criterion_4_objective_decomposition_equivalence():
    """Sparse rating objective equals the naive dense double loop to 1e-12
    relative error over 100 random instances with I, J <= 20."""
    rng = np.random.default_rng(20240104)
    ok = True
    for _ in range(100):
        num_users = int(rng.integers(1, 21))
        num_items = int(rng.integers(1, 21))
        K = int(rng.integers(1, 5))
        conf = ConfidenceParams(float(rng.uniform(0.5, 2.0)),
                                float(rng.uniform(0.001, 0.4)))
        U = rng.normal(size=(num_users, K))
        V = rng.normal(size=(num_items, K))
        mask = rng.random((num_users, num_items)) < 0.3
        ratings = data.RatingsMatrix(num_users, num_items, np.argwhere(mask))
        dense = ratings.to_dense()
        naive = 0.0
        for i in range(num_users):
            for j in range(num_items):
                c = conf.a if dense[i, j] else conf.b
                naive -= 0.5 * c * (dense[i, j] - U[i] @ V[j]) ** 2
        fast = mf.rating_objective(U, V, ratings, conf)
        ok &= bool(np.isclose(fast, naive, rtol=1e-12, atol=1e-15))
    report(4, "sparse rating objective equals the dense double loop", ok)


def test_criterion_5_degenerate_variant_contracts():
    """Dropping the reconstruction term leaves the decoder pure weight
    decay (exact); a huge item-prior precision pins item vectors to their
    encodings after convergence."""
    rng = np.random.default_rng(20240105)
    net = sdae.init_network((12, 6, 3, 6, 12), 7, 0.5)
    x0 = rng.random((9, 12)) * (rng.random((9, 12)) < 0.5)
    xc = rng.random((9, 12))
    V = rng.normal(size=(9, 3))
    lam_w = 0.31
    gw, gb = sdae.gradients(net, x0, xc, V, 1.7, 0.0, lam_w)
    decay_exact = all(
        np.array_equal(gw[l], -lam_w * net.weights[l])
        and np.array_equal(gb[l], -lam_w * net.biases[l])
        for l in range(net.middle, net.num_layers)
    )

    hyper = HyperParams(lambda_u=1.0, lambda_v=1e8, lambda_n=20.0, lambda_w=0.1,
                        conf_a=1.0, conf_b=0.01, n_factors=3, noise_level=0.3,
                        dropout_rate=0.0, learning_rate=0.0, momentum=0.0,
                        epochs_per_block=0, max_sweeps=15, early_stop_tol=0.0,
                        seed=3)
    gen = HyperParams(lambda_u=1.0, lambda_v=50.0, lambda_n=1e4, lambda_w=1.0,
                      conf_a=1.0, conf_b=0.01, n_factors=3, seed=0)
    ratings, content, *_ = data.generate_synthetic(12, 15, 10, 3, gen, seed=5)
    net2, factors, _ = training.fit(ratings, content, hyper)
    root = np.random.SeedSequence(hyper.seed)
    _, noise_seq, _ = root.spawn(3)
    x0_fit = data.corrupt(content, hyper.noise_level, noise_seq.spawn(1)[0])
    encodings = sdae.encode(net2, x0_fit)
    pinned = bool(np.all(np.linalg.norm(factors.V - encodings, axis=1) < 1e-3))
    report(5, "degenerate variants: exact decoder decay and pinned items",
           decay_exact and pinned)


def test_criterion_6_cold_start_rule():
    """A new item's score is exactly the dot product of the user vector and
    the item's content encoding (zero offset)."""
    rng = np.random.default_rng(20240106)
    net = sdae.init_network((20, 8, 4, 8, 20), 11, 1.0)
    ok = True
    for _ in range(25):
        u = rng.normal(size=4)
        x = rng.random(20) * (rng.random(20) < 0.4)
        encoding = sdae.encode(net, x)
        ok &= mf.predict_new_item(u, encoding) == float(u @ encoding)
        ok &= mf.predict_new_item(u, encoding) == mf.predict(u, encoding)
    report(6, "cold-start score is exactly u . encode(x)", ok)


def test_criterion_7_metric_oracles():
    """Recall@M and mAP@500 equal an exhaustive brute-force scorer on all
    instances with I, J <= 15, and every recall curve is monotone in M."""
    rng = np.random.default_rng(20240107)
    ok = True
    for _ in range(25):
        num_users = int(rng.integers(2, 16))
        num_items = int(rng.integers(2, 16))
        U = rng.normal(size=(num_users, 3))
        V = rng.normal(size=(num_items, 3))
        mask = rng.random((num_users, num_items)) < 0.45
        pairs = np.argwhere(mask)
        keep = rng.random(len(pairs)) < 0.5
        train = data.RatingsMatrix(num_users, num_items, pairs[keep])
        test = data.RatingsMatrix(num_users, num_items, pairs[~keep])
        ranked = metrics.rank(U, V, train)

        def brute_order(user):
            scored = sorted((float(-U[user] @ V[j]), j) for j in range(num_items))
            banned = set(int(j) for j in train.items_of(user))
            return [j for _, j in scored if j not in banned]

        for m in range(1, num_items + 1):
            per_user, mean = metrics.recall_at_m(ranked, test, m)
            values = []
            for user in range(num_users):
                liked = set(int(j) for j in test.items_of(user))
                if not liked:
                    continue
                hits = sum(1 for j in brute_order(user)[:m] if j in liked)
                expected = hits / len(liked)
                ok &= per_user[user] == expected
                values.append(expected)
            if values:
                ok &= mean == sum(values) / len(values)

        curve = metrics.recall_curve(ranked, test, m_grid=range(1, num_items + 1))
        vals = [curve[m] for m in range(1, num_items + 1)]
        ok &= all(b >= a for a, b in zip(vals, vals[1:]))

        aps = []
        for user in range(num_users):
            liked = set(int(j) for j in test.items_of(user))
            if not liked:
                continue
            hits, total = 0, 0.0
            for pos, j in enumerate(brute_order(user)[:500], start=1):
                if j in liked:
                    hits += 1
                    total += hits / pos
            aps.append(total / len(liked))
        expected_map = sum(aps) / len(aps) if aps else 0.0
        ok &= metrics.map_at_500(ranked, test) == expected_map
    report(7, "metrics equal exhaustive brute force; recall curve monotone", ok)


def test_criterion_8_sampler_correctness():
    """Conjugate draws match closed-form means within 4 Monte-Carlo standard
    errors; Metropolis blocks adapt into [0.15, 0.5] on the tiny full model.
    Runtime under 2 minutes."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240108)
    conf = ConfidenceParams(1.0, 0.01)
    n = 100_000
    ok = True
    for K in (1, 2, 3):
        V = rng.normal(size=(6, K))
        rated = np.array([0, 2])
        lam = 0.8
        mean = mf.update_user(V, rated, conf, lam)
        A, _ = mf._user_system(V, rated, conf, lam)
        sd = np.sqrt(np.diag(np.linalg.inv(A)))
        draws = np.empty((n, K))
        for t in range(n):
            draws[t] = sampling.sample_u(V, rated, conf, lam, rng)
        ok &= bool(np.all(np.abs(draws.mean(axis=0) - mean) < 4 * sd / math.sqrt(n)))

        U = rng.normal(size=(5, K))
        enc = rng.normal(size=K)
        vmean = mf.update_item(U, rated, conf, 2.0, enc)
        Av, _ = mf._item_system(U, rated, conf, 2.0, enc)
        vsd = np.sqrt(np.diag(np.linalg.inv(Av)))
        vdraws = np.empty((n, K))
        for t in range(n):
            vdraws[t] = sampling.sample_v(U, rated, conf, 2.0, enc, rng)
        ok &= bool(np.all(np.abs(vdraws.mean(axis=0) - vmean) < 4 * vsd / math.sqrt(n)))

    hyper = HyperParams(lambda_u=1.0, lambda_v=10.0, lambda_n=100.0, lambda_w=1.0,
                        lambda_s=100.0, conf_a=1.0, conf_b=0.01, n_factors=2,
                        widths=(6, 4, 2, 4, 6), noise_level=0.3, dropout_rate=0.0,
                        learning_rate=0.05, momentum=0.9, epochs_per_block=1,
                        max_sweeps=2, seed=11)
    ratings, content, *_ = data.generate_synthetic(5, 5, 6, 2, hyper, seed=5,
                                                   widths=(6, 4, 2, 4, 6))
    summary = sampling.run_chain(ratings, content, hyper,
                                 iters=900, burn_in=600, thin=3)
    in_band = all(0.15 <= rate <= 0.5 for rate in summary.acceptance.values())
    elapsed = time.perf_counter() - start
    report(8, f"sampler MC means and acceptance band "
              f"(rates {min(summary.acceptance.values()):.2f}-"
              f"{max(summary.acceptance.values()):.2f}, {elapsed:.0f}s)",
           ok and in_band and elapsed < 120.0)


@pytest.mark.slow
def test_criterion_9_end_to_end_directional():
    """On five seeds of synthetic data (200 users, 300 items, 100 words,
    5 factors, one training rating per user), jointly trained CDL beats the
    content-free MF baseline and the two-step variant on mean recall@50, in
    under 10 minutes."""
    start = time.perf_counter()
    gen = HyperParams(lambda_u=1.0, lambda_v=100.0, lambda_n=1e4, lambda_w=1.0,
                      conf_a=1.0, conf_b=0.01, n_factors=5, seed=0)
    scores = {"cdl": [], "two_step": [], "mf": []}
    for seed in range(5):
        ratings, content, *_ = data.generate_synthetic(200, 300, 100, 5, gen,
                                                       seed=seed)
        train, test, _ = data.split(ratings, data.SplitSpec(P=1, seed=seed + 100))
        hyper = HyperParams(lambda_u=1.0, lambda_v=10.0, lambda_n=10.0,
                            lambda_w=1e-3, conf_a=2.0, conf_b=0.01, n_factors=5,
                            widths=(100, 5, 100), noise_level=0.3,
                            dropout_rate=0.0, learning_rate=1e-4, momentum=0.9,
                            epochs_per_block=50, max_sweeps=60,
                            early_stop_tol=0.0, seed=seed)
        _, joint, _ = training.fit(train, content, hyper)
        scores["cdl"].append(
            metrics.evaluate_run(joint, train, test, (50,), 50)["recall@50"])
        _, frozen, _ = training.fit_two_step(train, content, hyper)
        scores["two_step"].append(
            metrics.evaluate_run(frozen, train, test, (50,), 50)["recall@50"])
        baseline, _ = training.fit_mf_baseline(train, hyper)
        scores["mf"].append(
            metrics.evaluate_run(baseline, train, test, (50,), 50)["recall@50"])
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    elapsed = time.perf_counter() - start
    report(9, f"directional ordering cdl={means['cdl']:.4f} > "
              f"two_step={means['two_step']:.4f} and > mf={means['mf']:.4f} "
              f"({elapsed:.0f}s)",
           means["cdl"] > means["two_step"] and means["cdl"] > means["mf"]
           and elapsed < 600.0)


@pytest.mark.slow
def test_criterion_10_citeulike_a_optional():
    """Optional, data-dependent: with the citeulike-a corpus supplied via
    CDL_CITEULIKE_A_DIR (users.dat + mult.dat), a 2-layer model
    (8000-200-50-200-8000, a=1, b=0.01, 50 factors, noise 0.3) reaches
    recall@300 >= 28% in the sparse setting, averaged over 5 splits."""
    corpus = os.environ.get("CDL_CITEULIKE_A_DIR")
    if not corpus:
        pytest.skip("citeulike-a corpus not supplied (set CDL_CITEULIKE_A_DIR)")

    users_path = os.path.join(corpus, "users.dat")
    mult_path = os.path.join(corpus, "mult.dat")
    pairs = []
    with open(users_path, encoding="utf-8") as fh:
        for user, line in enumerate(fh):
            for tok in line.split():
                pairs.append((user, int(tok)))
    triples = []
    with open(mult_path, encoding="utf-8") as fh:
        for item, line in enumerate(fh):
            toks = line.split()
            for pair in toks[1:]:
                word, count = pair.split(":")
                triples.append((item, int(word), float(count)))
    num_items = max(max(p[1] for p in pairs), max(t[0] for t in triples)) + 1
    ratings = data.RatingsMatrix(max(p[0] for p in pairs) + 1, num_items, pairs)
    content = data.content_from_triples(triples, mode=data.BINARY_PRESENCE,
                                        num_items=num_items, vocab_size=8000)

    recalls = []
    for rep, (train, test, _) in enumerate(
            data.split_repetitions(ratings, data.SplitSpec(P=1, seed=0,
                                                           repetitions=5))):
        hyper = HyperParams(lambda_u=1.0, lambda_v=10.0, lambda_n=1000.0,
                            lambda_w=1e-4, conf_a=1.0, conf_b=0.01,
                            n_factors=50, widths=(8000, 200, 50, 200, 8000),
                            noise_level=0.3, dropout_rate=0.1,
                            learning_rate=1e-5, momentum=0.9,
                            epochs_per_block=10, max_sweeps=20,
                            early_stop_tol=1e-6, seed=rep)
        _, factors, _ = training.fit(train, content, hyper, batch_size=2048)
        recalls.append(
            metrics.evaluate_run(factors, train, test, (300,), 500)["recall@300"])
    mean = float(np.mean(recalls))
    report(10, f"citeulike-a sparse recall@300 = {mean:.4f}", mean >= 0.28)
