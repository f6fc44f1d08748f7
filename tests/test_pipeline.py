import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from clusterreg import pipeline
from clusterreg.clustering import NOISE, ClusterAssignment
from clusterreg.dataio import EnergyPanel
from clusterreg.errors import ClusterRegError, ConfigError, PipelineStageError
from clusterreg.pipeline import (
    ARTIFACT_FILES,
    PipelineConfig,
    aggregate_by_cluster,
    parse_grid,
    parse_years,
    profile_clusters,
    run_pipeline,
    summarize_forecast,
)

from conftest import map_partitions


def panel_from(values):
    values = np.asarray(values, dtype=float)
    years = tuple(range(2000, 2000 + values.shape[0]))
    return EnergyPanel(
        years,
        tuple(f"e{i}" for i in range(values.shape[1])),
        tuple(f"f{j}" for j in range(values.shape[2])),
        values,
    )


class TestAggregate:
    def test_single_cluster_equals_total(self):
        panel = panel_from(np.arange(1.0, 13.0).reshape(2, 3, 2))
        assign = ClusterAssignment((0, 0, 0), 1, (True,) * 3)
        regressors, target = aggregate_by_cluster(panel, assign)
        assert np.allclose(regressors[:, 0], target)
        assert np.allclose(target, panel.values.sum(axis=(1, 2)))

    def test_two_entities_two_clusters(self):
        values = np.zeros((1, 2, 2))
        values[0, 0] = [1.0, 2.0]  # totals 3
        values[0, 1] = [1.5, 2.5]  # totals 4
        panel = panel_from(values)
        assign = ClusterAssignment((0, 1), 2, (True, True))
        regressors, target = aggregate_by_cluster(panel, assign)
        assert np.allclose(regressors[0], [3.0, 4.0])
        assert target[0] == 7.0

    def test_conservation_random(self):
        rng = np.random.default_rng(8)
        panel = panel_from(rng.random((4, 7, 3)))
        labels = (0, 1, 2, 0, 1, 2, 0)
        assign = ClusterAssignment(labels, 3, (True,) * 7)
        regressors, target = aggregate_by_cluster(panel, assign)
        independent = panel.values.sum(axis=(1, 2))
        assert np.allclose(regressors.sum(axis=1), independent, atol=1e-12)
        assert np.allclose(target, independent, atol=1e-12)

    def test_noise_rejected(self):
        panel = panel_from(np.ones((1, 2, 1)))
        assign = ClusterAssignment((0, NOISE), 1, (True, False))
        with pytest.raises(ClusterRegError, match="promote"):
            aggregate_by_cluster(panel, assign)

    def test_entity_count_mismatch(self):
        panel = panel_from(np.ones((1, 3, 1)))
        assign = ClusterAssignment((0, 0), 1, (True, True))
        with pytest.raises(ClusterRegError, match="covers"):
            aggregate_by_cluster(panel, assign)

    def test_promoting_noise_preserves_total(self):
        from clusterreg.clustering import promote_noise

        panel = panel_from(np.random.default_rng(1).random((3, 5, 2)))
        assign = ClusterAssignment((0, NOISE, 0, 1, NOISE), 2,
                                   (True, False, True, True, False))
        promoted = promote_noise(assign)
        _, target = aggregate_by_cluster(panel, promoted)
        assert np.allclose(target, panel.values.sum(axis=(1, 2)), atol=1e-12)


class TestProfiles:
    def test_constant_series(self):
        values = np.full((5, 1, 1), 2.0)
        panel = panel_from(values)
        assign = ClusterAssignment((0,), 1, (True,))
        profile = profile_clusters(panel, assign, list(panel.years))[0]
        assert profile.total == 10.0
        assert profile.mean == 2.0
        assert profile.variance == 0.0
        assert profile.minimum == profile.p25 == profile.median == profile.p75 == profile.maximum == 2.0

    def test_interpolated_quantiles(self):
        values = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        panel = panel_from(values)
        assign = ClusterAssignment((0,), 1, (True,))
        profile = profile_clusters(panel, assign, list(panel.years))[0]
        assert profile.p25 == pytest.approx(1.75)
        assert profile.median == pytest.approx(2.5)
        assert profile.p75 == pytest.approx(3.25)

    def test_quantiles_ordered_random(self):
        rng = np.random.default_rng(14)
        panel = panel_from(rng.random((6, 4, 3)))
        assign = ClusterAssignment((0, 1, 0, 1), 2, (True,) * 4)
        for p in profile_clusters(panel, assign, list(panel.years)):
            assert p.minimum <= p.p25 <= p.median <= p.p75 <= p.maximum
            assert p.variance >= 0.0

    def test_zero_heavy_profile(self):
        values = np.zeros((5, 1, 1))
        values[3:, 0, 0] = [1.23, 4.0]
        panel = panel_from(values)
        assign = ClusterAssignment((0,), 1, (True,))
        profile = profile_clusters(panel, assign, list(panel.years))[0]
        assert profile.minimum == 0.0 and profile.p25 == 0.0

    def test_window_subset(self):
        values = np.array([1.0, 2.0, 100.0]).reshape(3, 1, 1)
        panel = panel_from(values)
        assign = ClusterAssignment((0,), 1, (True,))
        profile = profile_clusters(panel, assign, [2000, 2001])[0]
        assert profile.total == 3.0 and profile.maximum == 2.0


class TestForecastSummary:
    def test_published_difference_column(self):
        diffs = [-0.0221, 0.0548, 0.0635, 0.0972, 0.0916]
        mean, var = summarize_forecast(diffs)
        assert mean == pytest.approx(0.0570, abs=1e-4)
        assert var == pytest.approx(0.0023, abs=1e-4)

    def test_all_zero(self):
        assert summarize_forecast([0.0, 0.0, 0.0]) == (0.0, 0.0)

    def test_two_values_sample_variance(self):
        mean, var = summarize_forecast([1.0, -1.0])
        assert mean == 0.0
        assert var == 2.0

    def test_needs_two(self):
        with pytest.raises(ClusterRegError):
            summarize_forecast([0.5])


class TestConfig:
    def test_overlap_rejected(self):
        cfg = PipelineConfig(train_years=[2000, 2001], test_years=[2001, 2002])
        with pytest.raises(ConfigError, match="overlap"):
            cfg.validate()

    def test_test_before_train_rejected(self):
        cfg = PipelineConfig(train_years=[2010, 2011], test_years=[2005, 2006])
        with pytest.raises(ConfigError, match="after"):
            cfg.validate()

    def test_anchor_year_required(self):
        cfg = PipelineConfig(train_years=[2000], test_years=[2001], anchor="year")
        with pytest.raises(ConfigError, match="anchor_year"):
            cfg.validate()

    def test_solver_settings_checked(self):
        for bad, named in ((dict(tol=float("nan")), "tol"), (dict(tol=float("inf")), "tol"),
                           (dict(tol=0.0), "tol"), (dict(max_iter=0), "max_iter")):
            cfg = PipelineConfig(train_years=[2000], test_years=[2001], **bad)
            with pytest.raises(ConfigError, match=named):
                cfg.validate()

    def test_parse_grid_forms(self):
        assert parse_grid("0.0:0.5:0.25") == [0.0, 0.25, 0.5]
        assert parse_grid("1,2,3") == [1.0, 2.0, 3.0]
        log = parse_grid("logspace:-2:0:3")
        assert log == pytest.approx([0.01, 0.1, 1.0])
        with pytest.raises(ConfigError):
            parse_grid("")

    def test_parse_years_forms(self):
        assert parse_years("2000-2003") == [2000, 2001, 2002, 2003]
        assert parse_years("2000,2005") == [2000, 2005]

    def test_from_file_roundtrip(self, tmp_path):
        text = """
[data]
path = panel.csv
layout = long

[preprocess]
log_epsilon = 1e-5
anchor = year
anchor_year = 2003

[cluster]
eps_grid = 0.1:0.3:0.1
minpts_grid = 1,2

[regress]
ridge_lambdas = 0.0:0.5:0.1
lasso_lambdas = logspace:-4:0:5
enet_lambdas = logspace:-4:0:5
enet_alpha = 0.4
cv_folds = 3
standardize = true

[forecast]
train_years = 2000-2009
test_years = 2010-2012
"""
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        cfg = PipelineConfig.from_file(path)
        assert cfg.layout == "long"
        assert cfg.log_epsilon == 1e-5
        assert cfg.anchor == "year" and cfg.anchor_year == 2003
        assert cfg.eps_grid == pytest.approx([0.1, 0.2, 0.3])
        assert cfg.minpts_grid == [1, 2]
        assert cfg.enet_alpha == 0.4
        assert cfg.cv_folds == 3
        assert cfg.standardize is True
        assert cfg.train_years == list(range(2000, 2010))
        assert cfg.test_years == [2010, 2011, 2012]
        cfg.validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(tmp_path / "nope.ini")


class TestRunPipeline:
    def test_recovers_planted_structure(self, synthetic_case, synthetic_report):
        panel, truth, path, config = synthetic_case
        report = synthetic_report
        assert report.promoted.num_clusters == truth.n_clusters
        mapping = map_partitions(report.promoted.labels, truth.labels)
        assert mapping is not None
        lasso = report.models["lasso"]
        support = {mapping[i] for i, b in enumerate(lasso.coefficients)
                   if abs(b) > 1e-10}
        assert support == set(truth.support)
        assert report.reports["lasso"].sparsity == pytest.approx(
            truth.support_size / truth.n_clusters)

    def test_conservation_held(self, synthetic_case, synthetic_report):
        panel, truth, path, config = synthetic_case
        report = synthetic_report
        totals = np.asarray(report.regressors).sum(axis=1)
        assert np.allclose(totals, report.target, rtol=0, atol=1e-9 * max(report.target))

    def test_deterministic_artifacts(self, synthetic_case, tmp_path):
        panel, truth, path, config = synthetic_case
        out = tmp_path / "det"
        cfg = dataclasses.replace(config, out_dir=str(out))
        run_pipeline(cfg)
        first = {f: (out / f).read_bytes() for f in ARTIFACT_FILES}
        run_pipeline(cfg)
        for fname in ARTIFACT_FILES:
            assert (out / fname).read_bytes() == first[fname]

    def test_artifact_set_exact(self, synthetic_case, tmp_path):
        panel, truth, path, config = synthetic_case
        out = tmp_path / "arts"
        cfg = dataclasses.replace(config, out_dir=str(out))
        run_pipeline(cfg)
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_FILES)

    def test_config_error_stage_tagged(self, synthetic_case):
        panel, truth, path, config = synthetic_case
        bad = dataclasses.replace(config, test_years=list(config.train_years))
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(bad)
        assert err.value.stage == "config"

    def test_missing_data_stage_tagged(self, synthetic_case):
        panel, truth, path, config = synthetic_case
        bad = dataclasses.replace(config, data_path="/nonexistent/panel.csv")
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(bad)
        assert err.value.stage == "load"

    def test_forecast_rows_definitional(self, synthetic_case, synthetic_report):
        panel, truth, path, config = synthetic_case
        report = synthetic_report
        for row in report.forecast_rows:
            assert row["difference"] == pytest.approx(row["true"] - row["predict"])
        mean, var = summarize_forecast([r["difference"] for r in report.forecast_rows])
        assert report.mean_error == mean and report.variance == var

    def test_noiseless_coefficients_recovered_to_1e6(self, synthetic_case, synthetic_report):
        panel, truth, path, config = synthetic_case
        report = synthetic_report
        mapping = map_partitions(report.promoted.labels, truth.labels)
        assert mapping is not None
        lasso = report.models["lasso"]
        beta_true = np.asarray(truth.beta)
        for det_id, coef in enumerate(lasso.coefficients):
            assert coef == pytest.approx(beta_true[mapping[det_id]], abs=1e-6)
        assert lasso.intercept == pytest.approx(truth.intercept, abs=1e-6)

    def test_matched_penalties_reduce_consistently(self, synthetic_report):
        from clusterreg.pipeline import build_design
        from clusterreg.regression import (
            fit_elastic_net, fit_lasso, fit_report, fit_ridge,
        )

        report = synthetic_report
        design = build_design(
            np.asarray(report.log_regressors), np.asarray(report.log_target),
            report.columns,
            [report.years.index(y) for y in report.config.train_years])
        lam = 0.01
        enet_as_lasso = fit_report(fit_elastic_net(design, lam, 0.0), design).r2
        lasso_r2 = fit_report(fit_lasso(design, lam), design).r2
        enet_as_ridge = fit_report(fit_elastic_net(design, 0.0, lam), design).r2
        ridge_r2 = fit_report(fit_ridge(design, lam), design).r2
        assert enet_as_lasso == pytest.approx(lasso_r2, abs=1e-8)
        assert enet_as_ridge == pytest.approx(ridge_r2, abs=1e-8)

    def test_zero_aggregate_cells_get_epsilon_and_are_listed(self, tmp_path):
        from clusterreg.dataio import save_panel_long
        from clusterreg.pipeline import prepare_inputs
        from clusterreg.synth import generate_synthetic

        panel, truth = generate_synthetic(
            seed=6, n_entities=8, n_features=6, n_clusters=4,
            n_years=10, support_size=2)
        values = panel.values.copy()
        zero_entities = [i for i, lab in enumerate(truth.labels)
                         if lab == truth.labels[0]]
        values[0, zero_entities, :] = 0.0  # first cluster emits nothing in year 1
        panel = type(panel)(panel.years, panel.entities, panel.features, values)
        path = tmp_path / "panel.csv"
        save_panel_long(panel, path)
        config = PipelineConfig(
            data_path=str(path),
            train_years=list(range(2000, 2008)),
            test_years=[2008, 2009],
        )
        prep = prepare_inputs(config)
        assert prep.epsilon_cells, "zeroed aggregate should be listed"
        assert all(year == 2000 for _, year in prep.epsilon_cells)
        assert np.all(np.isfinite(prep.log_regressors))
        listed = {col for col, _ in prep.epsilon_cells}
        zero_cols = {prep.columns[c] for c in range(prep.promoted.num_clusters)
                     if prep.regressors[0, c] == 0.0}
        assert listed == zero_cols

    def test_report_roundtrips_as_json(self, synthetic_case, synthetic_report, tmp_path):
        from clusterreg.dataio import load_report, save_report

        panel, truth, path, config = synthetic_case
        report = synthetic_report
        p = tmp_path / "rep.json"
        save_report(report.to_dict(), p)
        assert load_report(p) == report.to_dict()


def test_non_finite_report_leaves_no_artifacts(synthetic_report, tmp_path):
    from clusterreg.pipeline import write_artifacts

    bad = dataclasses.replace(synthetic_report, mean_error=float("nan"))
    with pytest.raises(ValueError):
        write_artifacts(bad, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


EVERY_KEY = """
[data]
path = data/panel
layout = wide

[preprocess]
log_epsilon = 1e-4
anchor = year
anchor_year = 2001

[cluster]
eps_grid = 0.1,0.2
minpts_grid = 1:3:1

[regress]
ridge_lambdas = 0.0:0.2:0.1
lasso_lambdas = logspace:-3:0:4
enet_lambdas = 0.5
enet_alpha = 0.25
cv_folds = 4
tol = 1e-9
max_iter = 500
standardize = on

[forecast]
train_years = 2000-2004
test_years = 2005,2006
"""


class TestConfigKeys:
    def test_every_key(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(EVERY_KEY)
        assert PipelineConfig.from_file(path) == PipelineConfig(
            data_path="data/panel", layout="wide", train_years=[2000, 2001, 2002, 2003, 2004],
            test_years=[2005, 2006], anchor="year", anchor_year=2001, log_epsilon=1e-4,
            eps_grid=[0.1, 0.2], minpts_grid=[1, 2, 3], ridge_lambdas=parse_grid("0.0:0.2:0.1"),
            lasso_lambdas=parse_grid("logspace:-3:0:4"), enet_lambdas=[0.5], enet_alpha=0.25,
            cv_folds=4, tol=1e-9, max_iter=500, standardize=True)

    def test_blank_keys_keep_defaults(self, tmp_path):
        blank = "\n".join(line.split("=")[0] + "=" if "=" in line else line
                          for line in EVERY_KEY.splitlines())
        path = tmp_path / "cfg.ini"
        path.write_text(blank)
        assert PipelineConfig.from_file(path) == PipelineConfig()

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("Yes", True), ("TRUE", True), ("on", True),
        ("0", False), ("no", False), ("false", False), ("Off", False),
    ])
    def test_boolean_states(self, tmp_path, text, value):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[regress]\nstandardize = {text}\n")
        assert PipelineConfig.from_file(path).standardize is value


def test_every_benchmark_span_fires(synthetic_case, tmp_path):
    """The benchmark tracer wraps layer functions at the module globals their
    callers resolve; a refactor that calls one some other way silently drops
    its span. Runs one pipeline under that tracer (bench/spans.py, loaded
    read-only) on the benchmark's small warm-up grids."""
    source = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", source)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    _, _, _, config = synthetic_case
    config = dataclasses.replace(
        config, out_dir=str(tmp_path / "out"), eps_grid=[0.1, 0.4, 1.0], minpts_grid=[1, 2],
        ridge_lambdas=[0.1, 0.5], lasso_lambdas=[0.1, 1.0], enet_lambdas=[0.1, 1.0])
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(config)  # through the module, where the root span is
    finally:
        tracer.uninstall()
    metrics = spans.panel_metrics(tracer.take())
    assert spans.missing_spans([metrics]) == []
    assert metrics["clustering.silhouette_calls"] == metrics["clustering.distinct_labellings"]
