"""Acceptance suite: one check per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import math
import time

import numpy as np

from nldd.br import br_fit, br_predict_proba_matrix, smbr_predict
from nldd.evaluate import (generate_synthetic, holdout_eval,
                           scaling_experiment, wilcoxon_signed_rank)
from nldd.metrics import instance_metrics_matrix
from nldd.model import (BinomialFit, fit_binomial_glm, mine_pairs,
                        nldd_predict, nldd_train, theta)
from nldd.persist import load_model, save_model

from test_evaluate import wilcoxon_oracle
from test_metrics import set_oracle
from test_model import mine_pairs_oracle, pair_tuples

SCENE_COEFS = (-3.5023, 0.0134, 1.8269)


def _report(num, desc, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _split(ds, seed, frac=0.75):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    cut = int(round(frac * ds.n))
    return ds.subset(np.sort(perm[:cut])), ds.subset(np.sort(perm[cut:]))


def test_criterion_01_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        L = int(rng.integers(1, 11))
        y = rng.integers(0, 2, L)
        yhat = rng.integers(0, 2, L)
        got = tuple(instance_metrics_matrix([y], [yhat])[0])
        ok = ok and got == set_oracle(y, yhat)
    elapsed = time.perf_counter() - t0
    _report(1, f"metrics equal brute-force set oracle on 1000 pairs "
               f"({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_02_pair_mining_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        m = int(rng.integers(2, 201))
        d = int(rng.integers(1, 8))
        L = int(rng.integers(2, 6))
        feats = rng.standard_normal((m, d))
        if rng.uniform() < 0.5:  # exercise both tie rules
            feats[1] = feats[0]
        labels = rng.integers(0, 2, (m, L))
        p_hat = rng.uniform(0.01, 0.99, L)
        x = rng.standard_normal(d)
        true = rng.integers(0, 2, L)
        got = pair_tuples(mine_pairs(p_hat[None], true[None], feats, labels,
                                     x_std=x[None]))
        want = mine_pairs_oracle(p_hat, true, feats, labels, x)
        ok = ok and len(got) == len(want) and all(
            g[2] == w[2] and abs(g[0] - w[0]) < 1e-12 and abs(g[1] - w[1]) < 1e-12
            for g, w in zip(got, want))
    elapsed = time.perf_counter() - t0
    _report(2, f"pair mining equals exhaustive scan on 200 configurations "
               f"({elapsed:.2f}s)", ok and elapsed < 5.0)


def test_criterion_03_glm_correctness():
    t0 = time.perf_counter()
    # (a) intercept-only MLE is the empirical logit
    losses = np.array([2, 0, 1, 3, 1, 2])
    fit = fit_binomial_glm(np.zeros(6), np.zeros(6), losses, 5)
    rate = losses.sum() / (5 * losses.size)
    ok_a = abs(fit.beta0 - math.log(rate / (1 - rate))) < 1e-8

    # (b) simulated recovery of the published coefficient triple
    rng = np.random.default_rng(4)
    n, L = 5000, 6
    dx = rng.uniform(0, 20, n)
    dy = rng.uniform(0, 2, n)
    th = 1 / (1 + np.exp(-(SCENE_COEFS[0] + SCENE_COEFS[1] * dx
                           + SCENE_COEFS[2] * dy)))
    losses = rng.binomial(L, th)
    fit_b = fit_binomial_glm(dx, dy, losses, L)
    ok_b = all(abs(got - want) <= 0.10 * abs(want)
               for got, want in zip((fit_b.beta0, fit_b.beta1, fit_b.beta2),
                                    SCENE_COEFS))

    # (c) gradient max-norm at the optimum
    ok_c = fit_b.converged and fit_b.final_gradient_norm < 1e-7
    elapsed = time.perf_counter() - t0
    _report(3, f"GLM intercept/recovery/gradient checks ({elapsed:.2f}s)",
            ok_a and ok_b and ok_c and elapsed < 10.0)


def test_criterion_04_theta_spot_check():
    fit = BinomialFit(*SCENE_COEFS, True, 0, 0.0)
    t = theta(fit, 0.0, 0.0)
    # the published expected loss multiplies the 4-decimal theta
    ok = abs(t - 0.0292) <= 1e-4 and abs(6 * round(t, 4) - 0.1752) <= 1e-4
    _report(4, f"theta(0,0)={t:.6f} matches 0.0292 and 6*0.0292=0.1752", ok)


def test_criterion_05_structural_invariants():
    train = generate_synthetic(400, 10, 6, 0.8, 0.3, seed=0)
    test = generate_synthetic(500, 10, 6, 0.8, 0.3, seed=100)
    model = nldd_train(train, seed=0)
    br = br_fit(train)
    observed = {tuple(r) for r in train.labels}
    ok = True
    for i in range(test.n):
        x = test.features[i][None]
        ok = ok and tuple(nldd_predict(model, x)[0]) in observed
        ok = ok and tuple(smbr_predict(br, train, x)[0]) in observed
        p = br_predict_proba_matrix(br, x)[0]
        ok = ok and np.all(p > 0) and np.all(p < 1)
    half = math.ceil(train.n / 2)
    ok = ok and half <= model.pair_count <= 2 * half
    _report(5, f"500 predictions observed, probabilities interior, "
               f"|S|={model.pair_count} in [{half}, {2 * half}]", ok)


def test_criterion_06_coefficient_signs():
    ok = True
    worst = np.inf
    for seed in range(10):
        ds = generate_synthetic(400, 10, 6, 0.8, 0.3, seed=seed)
        train, _ = _split(ds, seed)
        model = nldd_train(train, seed=seed)
        worst = min(worst, model.fit.beta1, model.fit.beta2)
        ok = ok and model.fit.beta1 >= 0 and model.fit.beta2 >= 0
    _report(6, f"beta1, beta2 >= 0 for all 10 seeds (min={worst:.4f})", ok)


def test_criterion_07_qualitative_ordering():
    t0 = time.perf_counter()
    zo = {"nldd": 0.0, "br": 0.0}
    hm = {"nldd": 0.0, "br": 0.0}
    for seed in range(10):
        ds = generate_synthetic(400, 10, 6, 0.8, 0.3, seed=seed)
        train, test = _split(ds, seed)
        for method in ("nldd", "br"):
            rep = holdout_eval(train, test, (method,), seed=seed)[method]
            zo[method] += rep.zero_one / 10
            hm[method] += rep.hamming / 10
    elapsed = time.perf_counter() - t0
    ok = (zo["nldd"] <= zo["br"] and hm["nldd"] <= hm["br"] + 0.01
          and elapsed < 120.0)
    _report(7, f"mean 0/1 {zo['nldd']:.4f} <= {zo['br']:.4f}; "
               f"hamming {hm['nldd']:.4f} <= {hm['br']:.4f}+0.01 "
               f"({elapsed:.1f}s)", ok)


def test_criterion_08_wilcoxon_exactness():
    res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5],
                               alternative="greater")
    ok = res.statistic == 15.0 and res.p_value == 0.03125
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        if np.all(a == b):
            a[0] += 1
        for alt in ("greater", "less", "two_sided"):
            got = wilcoxon_signed_rank(a, b, alternative=alt).p_value
            ok = ok and abs(got - wilcoxon_oracle(a, b, alt)) < 1e-12
    _report(8, "exact p-values equal full sign enumeration "
               "(100 inputs, n <= 12; all-positive n=5 gives 0.03125)", ok)


def test_criterion_09_scaling_law():
    data = generate_synthetic(320, 6, 4, 0.8, 0.3, seed=9)
    fractions = [round(0.1 * k, 1) for k in range(1, 11)]
    rows = scaling_experiment(data, fractions, seed=9)
    n_train = 240
    ok = True
    for row in rows:
        m = round(row["fraction"] * n_train)
        ok = ok and row["distance_ops"] == math.ceil(m / 2) * math.floor(m / 2)
    total_time = sum(row["wall_time"] for row in rows)
    _report(9, f"distance counters follow ceil(fN/2)*floor(fN/2) across "
               f"{{0.1..1.0}} (total wall time {total_time:.2f}s, reported "
               f"not asserted)", ok)


def test_criterion_10_determinism_and_persistence(tmp_path):
    train = generate_synthetic(200, 6, 4, 0.8, 0.3, seed=10)
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(nldd_train(train, seed=42), a_path)
    save_model(nldd_train(train, seed=42), b_path)
    ok = open(a_path, "rb").read() == open(b_path, "rb").read()

    model = nldd_train(train, seed=42)
    _, back = load_model(a_path)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(train.d)[None]
        ok = ok and np.array_equal(nldd_predict(model, x),
                                   nldd_predict(back, x))
    _report(10, "fixed seed gives byte-identical models; save/load "
                "round-trip preserves predictions", ok)
