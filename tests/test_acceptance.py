"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s -v` to see the per-criterion lines.
Criteria 10-13 need the non-redistributable provincial dataset; they run
only when CLUSTERREG_SICHUAN_DATA points at a long-layout panel CSV.
"""

import os
import time

import numpy as np
import pytest

from clusterreg import regression
from clusterreg.clustering import ClusterAssignment, NeighborhoodParams, dbscan, silhouette, sse
from clusterreg.dataio import save_panel_long
from clusterreg.pipeline import PipelineConfig, prepare_inputs, run_pipeline
from clusterreg.preprocess import FeatureMatrix
from clusterreg.regression import (
    DesignMatrix,
    PenaltySpec,
    fit_ols,
    fit_penalized,
    fit_report,
    kkt_check,
    predict,
)
from clusterreg.synth import generate_synthetic

from conftest import TEST_YEARS, TRAIN_YEARS, map_partitions
from oracles import (
    check_dbscan_against_oracle,
    grid_minimize,
    penalized_objective,
    random_instance,
    silhouette_by_hand,
)

SICHUAN_DATA = os.environ.get("CLUSTERREG_SICHUAN_DATA", "")
needs_dataset = pytest.mark.skipif(
    not SICHUAN_DATA,
    reason="set CLUSTERREG_SICHUAN_DATA to the provincial long-layout panel CSV",
)


def line(num, ok, label):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    return ok


@pytest.fixture(scope="module")
def solver_corpus():
    """100 seeded random instances with all three penalized fits each."""
    rng = np.random.default_rng(20240810)
    corpus = []
    for _ in range(100):
        x, y = random_instance(rng)
        d = DesignMatrix(x, y, tuple(f"c{j}" for j in range(x.shape[1])))
        lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(3.0))))
        lam2 = float(np.exp(rng.uniform(np.log(1e-3), np.log(3.0))))
        fits = {
            "ridge": (fit_penalized(d, PenaltySpec.ridge(lam)), 0.0, lam),
            "lasso": (fit_penalized(d, PenaltySpec.lasso(lam)), lam, 0.0),
            "elastic_net": (fit_penalized(d, PenaltySpec.elastic_net(lam, lam2)), lam, lam2),
        }
        corpus.append((d, lam, lam2, fits))
    return corpus


def test_criterion_1_solver_oracle_equivalence(solver_corpus):
    start = time.monotonic()
    worst = 0.0
    for d, lam, lam2, fits in solver_corpus:
        for kind, (model, l1, l2) in fits.items():
            a, beta, oracle_value = grid_minimize(d.x, d.y, l1, l2)
            solver_value = penalized_objective(
                d.x, d.y, model.intercept, model.coefficients, l1, l2)
            assert oracle_value <= solver_value + 1e-6 * max(1.0, abs(solver_value)), (
                f"{kind}: oracle failed to reach the solver's objective")
            gap = max(float(np.abs(model.coefficients - beta).max()),
                      abs(model.intercept - a))
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    line(1, ok, f"solver vs dense-grid oracle on 100 instances "
                f"(worst gap {worst:.2e}, {elapsed:.1f}s < 60s)")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_2_kkt_suite(solver_corpus):
    worst = 0.0
    for d, lam, lam2, fits in solver_corpus:
        for kind in ("lasso", "elastic_net"):
            model = fits[kind][0]
            assert model.converged
            worst = max(worst, kkt_check(model, d))
    ok = worst < 1e-6
    line(2, ok, f"KKT violations on the corpus (worst {worst:.2e} < 1e-6)")
    assert worst < 1e-6


def test_criterion_3_boundary_reductions(solver_corpus):
    worst = 0.0
    for d, lam, lam2, fits in solver_corpus:
        ols = fit_ols(d)
        pairs = [
            (fit_penalized(d, PenaltySpec.lasso(0.0)), ols),
            (fit_penalized(d, PenaltySpec.ridge(0.0)), ols),
            (fit_penalized(d, PenaltySpec.elastic_net(0.0, lam2)),
             fit_penalized(d, PenaltySpec.ridge(lam2))),
            (fit_penalized(d, PenaltySpec.elastic_net(lam, 0.0)),
             fit_penalized(d, PenaltySpec.lasso(lam))),
        ]
        for got, want in pairs:
            worst = max(worst, float(np.abs(got.coefficients - want.coefficients).max()),
                        abs(got.intercept - want.intercept))
    ok = worst < 1e-8
    line(3, ok, f"lambda-zero boundary reductions (worst gap {worst:.2e} < 1e-8)")
    assert worst < 1e-8


def test_criterion_4_closed_form_fixtures():
    # mean-zero fixtures: the intercept fit solves the no-intercept problem,
    # with x'x = x'y = 14 (uni) and x'x = x'y = 2 (pm)
    uni = DesignMatrix([[-3.0], [1.0], [2.0]], [-3.0, 1.0, 2.0], ("x",))
    pm = DesignMatrix([[1.0], [-1.0]], [1.0, -1.0], ("x",))
    ridge = fit_penalized(uni, PenaltySpec.ridge(1.0)).coefficients[0]
    lasso = fit_penalized(pm, PenaltySpec.lasso(1.0)).coefficients[0]
    enet = fit_penalized(pm, PenaltySpec.elastic_net(1.0, 1.0)).coefficients[0]
    ok = (abs(ridge - 14.0 / 15.0) < 1e-10
          and abs(lasso - 0.75) < 1e-10
          and abs(enet - 0.5) < 1e-10)
    line(4, ok, f"closed-form fixtures ridge={ridge:.12f} lasso={lasso:.12f} enet={enet:.12f}")
    assert abs(ridge - 14.0 / 15.0) < 1e-10
    assert abs(lasso - 0.75) < 1e-10
    assert abs(enet - 0.5) < 1e-10


def test_criterion_5_dbscan_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        dims = int(rng.integers(1, 5))
        pts = rng.random((n, dims)) * rng.uniform(0.5, 3.0)
        eps = float(rng.uniform(0.02, 1.0))
        min_pts = int(rng.integers(1, 6))
        m = FeatureMatrix(tuple(f"p{i}" for i in range(n)),
                          tuple(f"f{j}" for j in range(dims)), pts)
        out = dbscan(m, NeighborhoodParams(eps, min_pts))
        check_dbscan_against_oracle(pts, eps, min_pts, out)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    line(5, ok, f"density clustering vs brute-force oracle on 100 point sets "
                f"({elapsed:.1f}s < 30s)")
    assert elapsed < 30.0


def test_criterion_6a_duplicated_clusters_silhouette_one():
    m = FeatureMatrix(("a", "b", "c", "d"), ("x", "y"),
                      np.array([[0.0, 0.0], [0.0, 0.0], [7.0, 7.0], [7.0, 7.0]]))
    s = silhouette(m, ClusterAssignment((0, 0, 1, 1), 2, (True,) * 4))
    ok = np.mean(s) == 1.0 and s.tolist() == [1.0, 1.0, 1.0, 1.0]
    line("6a", ok, "duplicated-cluster silhouette is exactly 1")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated value 0.904762 is the s_i of the two outer points only; the "
        "silhouette formula gives b=9.5 for the inner points, so the true "
        "mean is 0.899749 (see the module test pinning the hand-oracle value)"
    ),
)
def test_criterion_6b_four_point_silhouette_as_stated():
    m = FeatureMatrix(("a", "b", "c", "d"), ("x",),
                      np.array([[0.0], [1.0], [10.0], [11.0]]))
    sc = float(np.mean(silhouette(m, ClusterAssignment((0, 0, 1, 1), 2, (True,) * 4))))
    hand = silhouette_by_hand([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])[1]
    assert abs(sc - hand) < 1e-12  # implementation matches the formula
    ok = abs(sc - 0.904762) <= 1e-6
    line("6b", ok, f"four-point mean silhouette {sc:.6f} vs stated 0.904762±1e-6")
    assert ok


def test_criterion_6c_two_point_sse():
    m = FeatureMatrix(("a", "b"), ("x", "y"), np.array([[0.0, 0.0], [2.0, 0.0]]))
    total = sse(m, ClusterAssignment((0, 0), 1, (True, True)))
    ok = total == 2.0
    line("6c", ok, f"two-point cluster SSE = {total} (exactly 2)")
    assert total == 2.0


def test_criterion_7_forecast_summary_fixture():
    from clusterreg.pipeline import summarize_forecast

    mean, var = summarize_forecast([-0.0221, 0.0548, 0.0635, 0.0972, 0.0916])
    ok = abs(mean - 0.0570) <= 1e-4 and abs(var - 0.0023) <= 1e-4
    line(7, ok, f"published difference column -> mean {mean:.5f} (0.0570±1e-4), "
                f"variance {var:.5f} (0.0023±1e-4)")
    assert abs(mean - 0.0570) <= 1e-4
    assert abs(var - 0.0023) <= 1e-4


def _pipeline_recovery(tmp_dir, seed, noise_sd):
    panel, truth = generate_synthetic(seed=seed, noise_sd=noise_sd)
    path = tmp_dir / f"panel_{seed}_{noise_sd:g}.csv"
    save_panel_long(panel, path)
    config = PipelineConfig(data_path=str(path),
                            train_years=list(TRAIN_YEARS),
                            test_years=list(TEST_YEARS))
    report = run_pipeline(config)
    mapping = map_partitions(report.promoted.labels, truth.labels)
    count_ok = report.promoted.num_clusters == truth.n_clusters and mapping is not None
    support_ok = False
    if count_ok:
        lasso = report.models["lasso"]
        support = {mapping[i] for i, b in enumerate(lasso.coefficients)
                   if abs(b) > 1e-10}
        support_ok = support == set(truth.support)
    return count_ok, support_ok, report, panel


@pytest.fixture(scope="module")
def recovery_runs(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("recovery")
    start = time.monotonic()
    clean = _pipeline_recovery(tmp_dir, seed=2024, noise_sd=0.0)
    noisy = []
    for seed in range(20):
        _, ref = generate_synthetic(seed=seed, noise_sd=0.0)
        noise_sd = 0.01 * ref.signal_sd
        noisy.append(_pipeline_recovery(tmp_dir, seed=seed, noise_sd=noise_sd))
    elapsed = time.monotonic() - start
    return clean, noisy, elapsed


def test_criterion_8_synthetic_recovery(recovery_runs):
    clean, noisy, elapsed = recovery_runs
    count_ok, support_ok, _, _ = clean
    hits = sum(1 for _, s_ok, _, _ in noisy if s_ok)
    ok = count_ok and support_ok and hits >= 18 and elapsed < 120.0
    line(8, ok, f"synthetic recovery: noiseless count/support "
                f"{count_ok}/{support_ok}, noisy {hits}/20 >= 18, "
                f"{elapsed:.0f}s < 120s")
    assert count_ok and support_ok
    assert hits >= 18
    assert elapsed < 120.0


def test_each_model_is_its_path_row(recovery_runs):
    """The refit at the penalty CV chose starts from the path's row at
    that grid value, and the search accepts the row on its first step:
    each model's coefficients, intercept and flags are the row's, bit for
    bit, on the seed-2024 panel and the 20 noisy panels (seeds 0-5 are the
    default-46 benchmark panels)."""
    clean, noisy, _ = recovery_runs
    for _, _, report, _ in [clean] + noisy:
        config = report.config
        for kind, model in report.models.items():
            path = report.paths[kind]
            [row] = [i for i, lam in enumerate(path.lambdas)
                     if PenaltySpec.of(kind, lam, config.enet_alpha) == model.penalty]
            coefs, intercepts, flags = regression._fit_grid(
                report.train_design,
                *regression._grid_weights(kind, list(path.lambdas), config.enet_alpha),
                config.tol)
            assert coefs.tobytes() == path.coefficient_matrix.tobytes()
            assert model.coefficients.tobytes() == coefs[row].tobytes(), kind
            assert repr(model.intercept) == repr(float(intercepts[row])), kind
            assert model.flags == flags[row], kind


def test_criterion_9_conservation(recovery_runs, synthetic_report):
    clean, noisy, _ = recovery_runs
    worst = 0.0
    for _, _, report, panel in [clean] + noisy:
        totals = panel.values[[panel.years.index(y) for y in report.years]].sum(axis=(1, 2))
        regressor_sum = np.asarray(report.regressors).sum(axis=1)
        scale = max(1.0, float(np.abs(totals).max()))
        worst = max(worst, float(np.abs(regressor_sum - np.asarray(report.target)).max()) / scale,
                    float(np.abs(regressor_sum - totals).max()) / scale)
    rep_sum = np.asarray(synthetic_report.regressors).sum(axis=1)
    worst = max(worst, float(np.abs(rep_sum - np.asarray(synthetic_report.target)).max())
                / max(1.0, float(np.abs(synthetic_report.target).max())))
    ok = worst <= 1e-9
    line(9, ok, f"cluster totals reproduce the grand total on every run "
                f"(worst relative gap {worst:.2e} <= 1e-9)")
    assert worst <= 1e-9


@pytest.fixture(scope="module")
def sichuan():
    config = PipelineConfig(
        data_path=SICHUAN_DATA,
        train_years=list(range(2000, 2015)),
        test_years=list(range(2015, 2020)),
    )
    prep = prepare_inputs(config)
    return config, prep


@needs_dataset
def test_criterion_10_clustering_matches_published(sichuan):
    _, prep = sichuan
    c = prep.assignment.num_clusters
    sc = prep.quality.sc
    sse_val = prep.quality.sse
    ok = c == 16 and abs(sc - 0.6) <= 0.05 and abs(sse_val - 5.0) <= 1.0
    line(10, ok, f"provincial clustering C={c} (16), SC={sc:.3f} (0.6±0.05), "
                 f"SSE={sse_val:.2f} (5±1)")
    assert ok


@needs_dataset
def test_criterion_11_lasso_at_published_lambda(sichuan):
    _, prep = sichuan
    model = fit_penalized(prep.train_design, PenaltySpec.lasso(0.0081))
    rep = fit_report(model, prep.train_design)
    nonzero = int(np.count_nonzero(np.abs(model.coefficients) > 1e-10))
    ok = nonzero == 7 and rep.sparsity == pytest.approx(0.4375) and rep.r2 >= 0.995 and rep.mse <= 5e-4
    line(11, ok, f"lasso@0.0081: {nonzero} nonzero (7), s={rep.sparsity:.4f} "
                 f"(0.4375), R2={rep.r2:.4f} (>=0.995), MSE={rep.mse:.2e} (<=5e-4)")
    assert ok


@needs_dataset
def test_criterion_12_elastic_net_at_published_lambdas(sichuan):
    _, prep = sichuan
    model = fit_penalized(prep.train_design, PenaltySpec.elastic_net(2.7826e-4, 2.7826e-4))
    rep = fit_report(model, prep.train_design)
    ok = rep.r2 >= 0.998 and rep.mse <= 5e-5
    line(12, ok, f"elastic net@2.7826e-4: R2={rep.r2:.4f} (>=0.998), "
                 f"MSE={rep.mse:.2e} (<=5e-5)")
    assert ok


@needs_dataset
def test_criterion_13_holdout_forecast_error(sichuan):
    _, prep = sichuan
    model = fit_penalized(prep.train_design, PenaltySpec.elastic_net(2.7826e-4, 2.7826e-4))
    predictions = predict(model, prep.log_regressors[prep.test_idx])
    truths = prep.log_target[prep.test_idx]
    mean_error = float(np.mean(truths - predictions))
    ok = abs(mean_error) <= 0.07
    line(13, ok, f"holdout forecast mean error {mean_error:+.4f} (|.|<=0.07)")
    assert ok
