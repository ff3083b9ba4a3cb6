"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Several criteria share the ten seeded mixed-data fits, built once per session.
"""

import time

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from copulafill.copula_em import (
    CopulaModel,
    FitConfig,
    fit_minibatch_offline,
    fit_standard,
)
from copulafill.data_model import DataTable, ORDINAL, VariableType, detect_variable_types
from copulafill.evaluation import (
    coverage,
    mae,
    mask_mcar,
    random_correlation,
    sample_gc,
    smae,
)
from copulafill.imputer import (
    confidence_intervals,
    impute_multiple,
    impute_single,
    transform_out_of_sample,
)
from copulafill.latent import conditional_mvn, row_posterior, truncnorm_moments
from copulafill.lrgc import LowRankParams, fit_lrgc, implied_corr
from copulafill.marginals import fit_marginal
from copulafill.streaming import StreamConfig, init_stream, step

from conftest import (
    make_continuous_dataset,
    make_mixed_dataset,
    quad_truncnorm,
)

N_RECOVERY_RUNS = 10


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def mixed_fits():
    """Ten seeded recovery runs shared by criteria 3, 4, 5 and 6."""
    runs = []
    for seed in range(N_RECOVERY_RUNS):
        corr, truth, masked = make_mixed_dataset(n=4000, seed=seed,
                                                 mask_fraction=0.1)
        t0 = time.monotonic()
        model = fit_standard(masked, FitConfig(seed=seed))
        elapsed = time.monotonic() - t0
        runs.append((corr, truth, masked, model, elapsed))
    return runs


def test_criterion_1_truncnorm_vs_quadrature():
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(200):  # two-sided anywhere, incl. straddling zero
        a = rng.uniform(-12, 12)
        cases.append((a, a + rng.uniform(0.05, 6.0)))
    for _ in range(120):  # one-sided lower
        cases.append((rng.uniform(-12, 12), np.inf))
    for _ in range(120):  # one-sided upper
        cases.append((-np.inf, rng.uniform(-12, 12)))
    for _ in range(60):   # narrow intervals far in both tails
        a = rng.choice([-1, 1]) * rng.uniform(8, 14)
        lo = min(a, a + rng.uniform(0.1, 2.0))
        cases.append((lo, max(a, a + rng.uniform(0.1, 2.0))))
    assert len(cases) == 500

    t0 = time.monotonic()
    worst_mean = worst_var = 0.0
    for a, b in cases:
        mu = rng.uniform(-3, 3)
        var = rng.uniform(0.25, 4.0)
        sd = np.sqrt(var)
        lo = mu + sd * a if np.isfinite(a) else -np.inf
        hi = mu + sd * b if np.isfinite(b) else np.inf
        m, v, _ = truncnorm_moments(mu, var, (lo, hi))
        om, ov, _ = quad_truncnorm(mu, var, lo, hi)
        worst_mean = max(worst_mean, abs(m - om))
        worst_var = max(worst_var, abs(v - ov))
    elapsed = time.monotonic() - t0
    ok = worst_mean <= 1e-8 and worst_var <= 1e-8 and elapsed < 10
    report(1, ok, f"500 cases: max |mean err| {worst_mean:.2e}, "
                  f"max |var err| {worst_var:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_2_exact_continuous_rows():
    rng = np.random.default_rng(43)
    worst = 0.0
    for i in range(100):
        p = int(rng.integers(3, 9))
        sigma = random_correlation(p, seed=1000 + i, n_factors=2, noise=0.6)
        z = rng.standard_normal(p)
        n_mis = int(rng.integers(1, p))
        mis = rng.choice(p, size=n_mis, replace=False)
        obs = np.setdiff1d(np.arange(p), mis)
        lower = z.copy()
        lower[mis] = np.nan
        upper = lower.copy()
        post = row_posterior(sigma, lower, upper)
        mean, cov = conditional_mvn(sigma, obs, z[obs], np.sort(mis))
        worst = max(worst,
                    np.abs(post.cond_mean[np.sort(mis)] - mean).max(),
                    np.abs(post.cond_cov_missing - cov).max())
    ok = worst <= 1e-10
    report(2, ok, f"100 rows: max deviation from closed form {worst:.2e} "
                  f"(tol 1e-10)")


def test_criterion_3_correlation_recovery(mixed_fits):
    rels = [np.linalg.norm(model.corr - corr) / np.linalg.norm(corr)
            for corr, _, _, model, _ in mixed_fits]
    times = [t for *_, t in mixed_fits]
    n_ok = sum(r <= 0.15 for r in rels)
    ok = n_ok >= 9 and max(times) < 120
    report(3, ok, f"rel Frobenius errors {np.round(rels, 3).tolist()}, "
                  f"{n_ok}/10 within 0.15, slowest fit {max(times):.1f}s")


def test_criterion_4_imputation_beats_median(mixed_fits):
    scores = []
    for _, truth, masked, model, _ in mixed_fits:
        res = impute_single(model, masked)
        scores.append(float(np.nanmean(smae(res.imputed, truth, masked))))
    n_ok = sum(s < 0.95 for s in scores)
    ok = n_ok >= 9
    report(4, ok, f"mean SMAE per run {np.round(scores, 3).tolist()}, "
                  f"{n_ok}/10 below 0.95")


def test_criterion_5_convergence_behavior(mixed_fits):
    iters = [len(model.fit_trace) for *_, model, _ in mixed_fits]
    mono_ok = True
    depth = []
    for seed in range(3):
        # heavier masking plus a tighter tolerance yields multi-iteration
        # traces; the exact likelihood must still never decrease
        _, _, masked = make_continuous_dataset(n=4000, p=8, seed=seed,
                                               mask_fraction=0.5)
        model = fit_standard(masked, FitConfig(tol=0.003))
        lls = [ll for _, ll in model.fit_trace]
        depth.append(len(lls))
        mono_ok &= all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))
    ok = max(iters) <= 30 and mono_ok and max(depth) > 1
    report(5, ok, f"iterations per run {iters} (max 30); all-continuous "
                  f"traces of depth {depth} nondecreasing (slack 1e-8)")


def test_criterion_6_minibatch_consistency(mixed_fits):
    corr, truth, masked, std_model, _ = mixed_fits[0]
    cfg = FitConfig(seed=0)  # defaults: c=5, num_pass=2, batch_size=100 >= p
    mb = fit_minibatch_offline(masked, cfg)
    rel = (np.linalg.norm(mb.corr - std_model.corr)
           / np.linalg.norm(std_model.corr))
    expected_iters = int(np.ceil(masked.n_rows / cfg.batch_size)) * cfg.num_pass
    ok = rel <= 0.05 and len(mb.fit_trace) == expected_iters
    report(6, ok, f"minibatch vs standard rel Frobenius {rel:.4f} (tol 0.05), "
                  f"{len(mb.fit_trace)} iterations = ceil(n/s)*num_pass = "
                  f"{expected_iters}")


def test_criterion_7_lowrank_recovery():
    rng = np.random.default_rng(44)
    w = rng.standard_normal((40, 3))
    w *= np.sqrt(0.9) / np.linalg.norm(w, axis=1, keepdims=True)
    truth_params = LowRankParams(w, 0.1)
    truth = sample_gc(2000, [norm.ppf] * 40, lowrank=truth_params, seed=45)
    masked = mask_mcar(truth, 0.2, seed=46)

    t0 = time.monotonic()
    low = fit_lrgc(masked, rank=3)
    elapsed = time.monotonic() - t0
    est = implied_corr(low.lowrank)
    target = implied_corr(truth_params)
    rel = np.linalg.norm(est - target) / np.linalg.norm(target)

    full = fit_standard(masked)
    mae_low = mae(impute_single(low, masked).imputed, truth, masked)
    mae_full = mae(impute_single(full, masked).imputed, truth, masked)

    # structural memory check: a fit at p=3000 must stay far below the
    # p x p footprint (72 MB); only implied_corr may ever materialize that
    import tracemalloc

    wide_w = rng.standard_normal((3000, 3))
    wide_w *= np.sqrt(0.9) / np.linalg.norm(wide_w, axis=1, keepdims=True)
    wide = sample_gc(40, [norm.ppf] * 3000,
                     lowrank=LowRankParams(wide_w, 0.1), seed=47)
    wide_masked = mask_mcar(wide, 0.2, seed=48)
    tracemalloc.start()
    fit_lrgc(wide_masked, rank=3, config=FitConfig(max_iter=2))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    pxp_bytes = 3000 * 3000 * 8

    ok = (rel <= 0.1 and mae_low <= 1.05 * mae_full and elapsed < 120
          and peak < pxp_bytes / 4)
    report(7, ok, f"implied-corr rel error {rel:.4f} (tol 0.1), MAE ratio "
                  f"{mae_low / mae_full:.3f} (tol 1.05), {elapsed:.1f}s, "
                  f"peak alloc {peak / 1e6:.0f} MB vs p^2 {pxp_bytes / 1e6:.0f} MB")


def test_criterion_8_ci_coverage():
    corr = random_correlation(6, seed=49, n_factors=2, noise=0.8)
    specs = [norm(loc=j, scale=1 + 0.2 * j).ppf for j in range(6)]
    truth = sample_gc(3000, specs, corr=corr, seed=50)
    masked = mask_mcar(truth, 0.2, seed=51)
    model = fit_standard(masked)
    lo_a, hi_a = confidence_intervals(model, masked, alpha=0.05)
    lo_q, hi_q = confidence_intervals(model, masked, alpha=0.05,
                                      kind="quantile", num_samples=200, seed=52)
    cov_a = coverage(lo_a, hi_a, truth, masked)
    cov_q = coverage(lo_q, hi_q, truth, masked)
    ok = 0.92 <= cov_a <= 0.97 and abs(cov_a - cov_q) <= 0.02
    report(8, ok, f"analytic coverage {cov_a:.3f} (range [0.92, 0.97]), "
                  f"quantile coverage {cov_q:.3f}, gap {abs(cov_a - cov_q):.3f} "
                  f"(tol 0.02)")


def test_criterion_9_multiple_imputation_calibration():
    masses = np.array([0.5, 0.25, 0.25])
    levels = np.repeat([1.0, 2.0, 3.0], (masses * 400).astype(int))
    marginal = fit_marginal(levels, VariableType(ORDINAL))
    model = CopulaModel(np.eye(1), [marginal], [marginal.vartype], ["x"])
    draws = impute_multiple(model, np.array([[np.nan]]), num=5000, seed=53)
    counts = np.array([(draws[:, 0, 0] == lv).sum() for lv in (1.0, 2.0, 3.0)])
    stat = chisquare(counts, f_exp=masses * 5000)
    ok = stat.pvalue > 0.01
    report(9, ok, f"draw counts {counts.tolist()} vs masses {masses.tolist()}, "
                  f"chi-square p = {stat.pvalue:.3f} (level 0.01)")


def test_criterion_10_streaming_limits():
    # (a) decay -> 0 reproduces the last observation within the window grid
    rng = np.random.default_rng(54)
    rows = rng.standard_normal((90, 3))
    rows[:, 2] = np.cumsum(rng.normal(0, 0.1, 90)) + 5.0
    state = init_stream(rows[:60], StreamConfig(
        window_size=30, n_train=60, decay=1e-6, batch_size=10**6))
    for t in range(60, 85):
        _, state = step(state, rows[t])
    hidden = rows[85].copy()
    hidden[2] = np.nan
    got, state = step(state, hidden)
    grid = np.sort(np.fromiter(state.buffers[2], dtype=float))
    locf_err = abs(got[2] - rows[84, 2])
    grid_tol = np.diff(grid).max() + 1e-12
    ok_a = locf_err <= grid_tol

    # (b) decay = 1 equals offline imputation under the same marginals/corr
    state_b = init_stream(rows[:60], StreamConfig(window_size=60, n_train=60))
    row = rows[60].copy()
    row[1] = np.nan
    offline = CopulaModel(state_b.corr.copy(), list(state_b.marginals),
                          state_b.vartypes, state_b.col_names)
    expect = impute_single(offline, row[None, :]).imputed[0]
    got_b, _ = step(state_b, row)
    ok_b = np.array_equal(got_b, expect)

    # (c) after a correlation shift, trailing MSE recovers to within 20%
    # of an oracle fit on post-shift data within 10/eta batches
    p = 4
    corr_pre = random_correlation(p, seed=55, n_factors=2, noise=3.0)
    corr_post = random_correlation(p, seed=56, n_factors=2, noise=0.4)
    rng = np.random.default_rng(57)
    pre = rng.multivariate_normal(np.zeros(p), corr_pre, size=1000)
    eta, batch = 0.1, 40
    n_post = int(10 / eta) * batch  # 10/eta batches of post-shift data
    post = rng.multivariate_normal(np.zeros(p), corr_post, size=n_post)
    truth = np.vstack([pre, post])
    masked = truth.copy()
    masked[:, 3] = np.nan
    cfg = StreamConfig(window_size=200, const_stepsize=eta, batch_size=batch,
                       n_train=25)
    st = init_stream(truth[:25], cfg)
    imputed = np.zeros(len(truth))
    for t in range(25, len(truth)):
        out, st = step(st, masked[t], revealed=truth[t])
        imputed[t] = out[3]
    trail = slice(len(truth) - 500, len(truth))
    mse_stream = float(np.mean((imputed[trail] - truth[trail, 3]) ** 2))
    oracle = fit_standard(DataTable(post))
    ora = transform_out_of_sample(oracle, masked[trail]).imputed[:, 3]
    mse_oracle = float(np.mean((ora - truth[trail, 3]) ** 2))
    ok_c = mse_stream <= 1.2 * mse_oracle

    ok = ok_a and ok_b and ok_c
    report(10, ok, f"(a) LOCF error {locf_err:.4f} <= grid {grid_tol:.4f}: "
                   f"{ok_a}; (b) offline match exact: {ok_b}; (c) trailing "
                   f"MSE {mse_stream:.4f} vs oracle {mse_oracle:.4f} "
                   f"(ratio {mse_stream / mse_oracle:.3f}, tol 1.2): {ok_c}")


def test_criterion_11_rank_invariance():
    _, truth, masked = make_mixed_dataset(n=1500, seed=58, mask_fraction=0.1)
    cont_cols = [0, 1, 2]
    cfg = FitConfig(max_iter=6, tol=1e-12)
    model_a = fit_standard(masked, cfg)
    mapped = masked.values.copy()
    for j in cont_cols:
        mapped[:, j] = np.exp(mapped[:, j])
    model_b = fit_standard(DataTable(mapped, masked.col_names), cfg)
    corr_bitwise = np.array_equal(model_a.corr, model_b.corr)

    imp_a = impute_single(model_a, masked).imputed
    imp_b = impute_single(model_b, DataTable(mapped, masked.col_names)).imputed
    cells = np.isnan(masked.values)
    discrete_exact = all(
        np.array_equal(imp_a[cells[:, j], j], imp_b[cells[:, j], j])
        for j in range(8) if j not in cont_cols
    )
    # continuous imputations are convex combinations of adjacent observed
    # values; the transformed fit uses the same weights on exp-nodes, so
    # each imputation must land between the exp of its bracketing nodes
    # (and equal exp exactly at clamped or node-hitting cells)
    cont_ok = True
    for j in cont_cols:
        nodes = np.unique(masked.values[~np.isnan(masked.values[:, j]), j])
        va = imp_a[cells[:, j], j]
        vb = imp_b[cells[:, j], j]
        idx = np.searchsorted(nodes, va)
        at_node = np.isin(va, nodes)
        cont_ok &= bool(np.allclose(vb[at_node], np.exp(va[at_node]),
                                    rtol=1e-12))
        lo = np.exp(nodes[np.clip(idx - 1, 0, len(nodes) - 1)])
        hi = np.exp(nodes[np.clip(idx, 0, len(nodes) - 1)])
        inner = ~at_node
        cont_ok &= bool(np.all((vb[inner] >= lo[inner] * (1 - 1e-12))
                               & (vb[inner] <= hi[inner] * (1 + 1e-12))))
    ok = corr_bitwise and discrete_exact and cont_ok
    report(11, ok, f"corr bitwise equal: {corr_bitwise}; discrete cells "
                   f"exact: {discrete_exact}; continuous cells exp-mapped "
                   f"within their node bracket: {cont_ok}")


def test_criterion_12_type_detection_rules():
    rng = np.random.default_rng(59)
    continuous = rng.normal(size=1000)                       # mode freq ~0.001
    truncated = np.concatenate([np.zeros(300),
                                rng.uniform(0.1, 10, 700)])  # boundary 0.3
    ordinal = rng.integers(1, 6, size=1000).astype(float)    # mode freq ~0.2
    tab = DataTable(np.column_stack([continuous, truncated, ordinal]))
    tags = [t.tag for t in detect_variable_types(tab)]
    rules_ok = tags == ["continuous", "lower_truncated", "ordinal"]

    perm_ok = True
    for s in range(100):
        perm = np.random.default_rng(s).permutation(1000)
        shuffled = DataTable(tab.values[perm])
        perm_ok &= [t.tag for t in detect_variable_types(shuffled)] == tags
    ok = rules_ok and perm_ok
    report(12, ok, f"rule cases -> {tags}: {rules_ok}; invariant under 100 "
                   f"row shuffles: {perm_ok}")
