import dataclasses
import errno
import importlib.util
import json
import re
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from clusterreg import clustering, pipeline, regression
from clusterreg.clustering import NOISE, ClusterAssignment
from clusterreg.dataio import EnergyPanel, save_panel_long
from clusterreg.errors import ClusterRegError, ConfigError, PipelineStageError
from clusterreg.pipeline import (
    ARTIFACT_FILES,
    ClusterProfile,
    PipelineConfig,
    aggregate_by_cluster,
    parse_grid,
    parse_years,
    prepare_inputs,
    profile_clusters,
    run_pipeline,
    summarize_forecast,
)

from conftest import TEST_YEARS, TRAIN_YEARS, map_partitions, overflowing_panel, small_runs


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

    def test_overflowing_total_rejected_naming_cluster_and_year(self):
        one = ClusterAssignment((0,) * 6, 1, (True,) * 6)
        with pytest.raises(ClusterRegError, match="cluster 0 total in 2003 is inf"):
            aggregate_by_cluster(overflowing_panel(), one)
        # each entity's total is finite (3 * 4e307), their sum is not
        values = np.ones((2, 6, 3))
        values[1] *= 4e307
        singletons = ClusterAssignment(tuple(range(6)), 6, (True,) * 6)
        with pytest.raises(ClusterRegError, match="grand total in 2001 is inf"):
            aggregate_by_cluster(panel_from(values), singletons)

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
        profile = profile_clusters(aggregate_by_cluster(panel, assign)[0])[0]
        assert profile.total == 10.0
        assert profile.mean == 2.0
        assert profile.variance == 0.0
        assert profile.minimum == profile.p25 == profile.median == profile.p75 == profile.maximum == 2.0

    def test_interpolated_quantiles(self):
        values = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
        panel = panel_from(values)
        assign = ClusterAssignment((0,), 1, (True,))
        profile = profile_clusters(aggregate_by_cluster(panel, assign)[0])[0]
        assert profile.p25 == pytest.approx(1.75)
        assert profile.median == pytest.approx(2.5)
        assert profile.p75 == pytest.approx(3.25)

    def test_quantiles_ordered_random(self):
        rng = np.random.default_rng(14)
        panel = panel_from(rng.random((6, 4, 3)))
        assign = ClusterAssignment((0, 1, 0, 1), 2, (True,) * 4)
        for p in profile_clusters(aggregate_by_cluster(panel, assign)[0]):
            assert p.minimum <= p.p25 <= p.median <= p.p75 <= p.maximum
            assert p.variance >= 0.0

    def test_zero_heavy_profile(self):
        values = np.zeros((5, 1, 1))
        values[3:, 0, 0] = [1.23, 4.0]
        panel = panel_from(values)
        assign = ClusterAssignment((0,), 1, (True,))
        profile = profile_clusters(aggregate_by_cluster(panel, assign)[0])[0]
        assert profile.minimum == 0.0 and profile.p25 == 0.0

    def test_window_subset(self):
        values = np.array([1.0, 2.0, 100.0]).reshape(3, 1, 1)
        panel = panel_from(values)
        assign = ClusterAssignment((0,), 1, (True,))
        profile = profile_clusters(aggregate_by_cluster(panel, assign)[0][[0, 1]])[0]
        assert profile.total == 3.0 and profile.maximum == 2.0

    def test_overflowing_statistic_rejected_naming_cluster_and_statistic(self):
        totals = np.array([[1.0, 1e160], [2.0, -1e160], [3.0, 1e160]])
        with pytest.raises(ClusterRegError, match="cluster 1 profile: variance is inf"):
            profile_clusters(totals)


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

    def test_solver_settings_checked(self):
        for bad, named in ((dict(train_years=[]), "train_years and test_years must be set"),
                           (dict(test_years=[]), "train_years and test_years must be set"),
                           (dict(lasso_lambdas=[]), "lasso_lambdas must be non-empty"),
                           (dict(enet_alpha=1.5), r"enet_alpha must be in \[0, 1\]"),
                           (dict(log_epsilon=0.0), "log_epsilon must be finite and > 0"),
                           (dict(log_epsilon=float("nan")), "log_epsilon must be finite and > 0"),
                           (dict(cv_folds=1), "cv_folds must be >= 2")):
            cfg = PipelineConfig(**{"train_years": [2000], "test_years": [2001], **bad})
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

[preprocess]
log_epsilon = 1e-5
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

[forecast]
train_years = 2000-2009
test_years = 2010-2012
"""
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        cfg = PipelineConfig.from_file(path)
        assert cfg.log_epsilon == 1e-5
        assert cfg.anchor_year == 2003
        assert cfg.eps_grid == pytest.approx([0.1, 0.2, 0.3])
        assert cfg.minpts_grid == [1, 2]
        assert cfg.enet_alpha == 0.4
        assert cfg.cv_folds == 3
        assert cfg.train_years == list(range(2000, 2010))
        assert cfg.test_years == [2010, 2011, 2012]
        cfg.validate()

    def test_from_file_drops_a_leading_byte_order_mark(self, tmp_path):
        text = "[cluster]\nminpts_grid = 1,2\n[forecast]\ntest_years = 2010-2012\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert PipelineConfig.from_file(marked) == PipelineConfig.from_file(plain)

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

    def test_long_file_and_wide_directory_give_the_same_run(self, synthetic_case, tmp_path):
        """The path alone picks the layout: the same panel as one long CSV and
        as a directory of panel_<year>.csv files gives the same artifacts,
        but for the data path the report records."""
        panel, _, path, config = synthetic_case
        wide = tmp_path / "wide"
        wide.mkdir()
        for yi, year in enumerate(panel.years):
            rows = [",".join([e, *map(repr, panel.values[yi, ei].tolist())])
                    for ei, e in enumerate(panel.entities)]
            (wide / f"panel_{year}.csv").write_text(
                "\n".join([",".join(["entity", *panel.features]), *rows]) + "\n")
        runs = {}
        out = tmp_path / "out"
        for name, data_path in (("long", path), ("wide", wide)):
            run_pipeline(dataclasses.replace(config, data_path=str(data_path),
                                             out_dir=str(out)))
            runs[name] = {f: (out / f).read_bytes() for f in ARTIFACT_FILES}
        reports = [json.loads(runs[name].pop("pipeline_report.json")) for name in runs]
        assert runs["long"] == runs["wide"]
        assert [r["config"].pop("data_path") for r in reports] == [str(path), str(wide)]
        assert reports[0] == reports[1]

    def test_anchor_year_alone_clusters_on_that_years_profile(self, tmp_path):
        """A set anchor_year is the clustering window; nothing else says so."""
        from clusterreg.pipeline import cluster_matrix, load_clean, prepare_inputs
        from clusterreg.preprocess import entity_profile, minmax_normalize_rows
        from clusterreg.synth import generate_synthetic

        panel, _ = generate_synthetic(seed=2024)
        values = panel.values.copy()
        year = panel.year_index(2003)
        values[year, 0, values[year, 0].argmax()] *= 50
        panel = EnergyPanel(panel.years, panel.entities, panel.features, values)
        save_panel_long(panel, tmp_path / "panel.csv")
        (tmp_path / "cfg.ini").write_text(
            f"[data]\npath = {tmp_path / 'panel.csv'}\n[preprocess]\nanchor_year = 2003\n"
            f"[forecast]\ntrain_years = 2000-2014\ntest_years = 2015-2019\n")
        cfg = PipelineConfig.from_file(tmp_path / "cfg.ini")
        cleaned = load_clean(cfg)[0]
        anchored = minmax_normalize_rows(entity_profile(cleaned, [2003]))
        train_mean = minmax_normalize_rows(entity_profile(cleaned, cfg.train_years))
        assert not np.array_equal(anchored.values, train_mean.values)
        assert np.array_equal(cluster_matrix(cfg, cleaned).values, anchored.values)
        swept = clustering.sweep_params(anchored, cfg.eps_grid, cfg.minpts_grid)
        assert clustering.quality_rows(prepare_inputs(cfg).sweep) == clustering.quality_rows(swept)

    def test_profiles_summarise_the_training_rows_of_the_aggregates(self, synthetic_report):
        report = synthetic_report
        assert report.profiles == profile_clusters(report.regressors[report.train_idx])
        assert len(report.profiles) == report.regressors.shape[1]

    def test_overflowing_profile_fails_the_run_at_stage_profiles(self, synthetic_case,
                                                                  tmp_path):
        """The profiles are derived, but a run that writes nothing still
        checks them: the sample variance of yearly totals near 1e160
        overflows."""
        panel, _, _, config = synthetic_case
        path = tmp_path / "huge.csv"
        save_panel_long(EnergyPanel(panel.years, panel.entities, panel.features,
                                    panel.values * 1e160), path)
        with pytest.raises(PipelineStageError, match="variance is inf") as err:
            run_pipeline(dataclasses.replace(config, data_path=str(path)))
        assert err.value.stage == "profiles"

    def test_overflowing_total_fails_the_run_at_stage_aggregate(self, tmp_path):
        """Cells near 4e307 load and cluster, but a cluster's total for one
        year overflows: the run fails at stage aggregate, with no
        RuntimeWarning (an error under this suite's filterwarnings) and no
        output directory."""
        path, out = tmp_path / "panel.csv", tmp_path / "out"
        save_panel_long(overflowing_panel(), path)
        config = PipelineConfig(data_path=str(path), train_years=TRAIN_YEARS,
                                test_years=TEST_YEARS, out_dir=str(out))
        with pytest.raises(PipelineStageError, match="cluster 0 total in 2003 is inf") as err:
            run_pipeline(config)
        assert err.value.stage == "aggregate"
        assert not out.exists()

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
        from clusterreg.regression import PenaltySpec, fit_penalized, fit_report

        design = synthetic_report.train_design
        lam = 0.01
        def r2(spec):
            return fit_report(fit_penalized(design, spec), design).r2

        enet_as_lasso = r2(PenaltySpec.elastic_net(lam, 0.0))
        lasso_r2 = r2(PenaltySpec.lasso(lam))
        enet_as_ridge = r2(PenaltySpec.elastic_net(0.0, lam))
        ridge_r2 = r2(PenaltySpec.ridge(lam))
        assert enet_as_lasso == pytest.approx(lasso_r2, abs=1e-8)
        assert enet_as_ridge == pytest.approx(ridge_r2, abs=1e-8)

    def test_chosen_clustering_and_year_rows_are_derived(self, synthetic_report):
        report = synthetic_report
        params, quality, assignment = report.sweep[0]
        assert report.params is params and report.quality is quality
        assert report.assignment is assignment
        assert np.array_equal(report.log_target[report.train_idx], report.train_design.y)
        years = [report.years[i] for i in report.test_idx]
        assert years == [row["year"] for row in report.forecast_rows]
        cv = report.to_dict()["cv"]
        for kind, table in report.cv_tables.items():
            assert cv[kind] == {"penalty": report.models[kind].penalty.to_dict(),
                                "table": [list(row) for row in table]}

    def test_dropped_names_split_into_features_and_entities(self, tmp_path):
        from clusterreg.dataio import save_panel_long
        from clusterreg.pipeline import prepare_inputs
        from clusterreg.synth import generate_synthetic

        panel, _ = generate_synthetic(seed=6, n_entities=8, n_features=6, n_clusters=4,
                                      n_years=10, support_size=2)
        values = panel.values.copy()
        values[:, :, 5] = 0.0
        values[:, 7, :] = 0.0
        panel = type(panel)(panel.years, panel.entities, panel.features, values)
        save_panel_long(panel, tmp_path / "panel.csv")
        config = PipelineConfig(data_path=str(tmp_path / "panel.csv"),
                                train_years=list(range(2000, 2008)), test_years=[2008, 2009])
        prep = prepare_inputs(config)
        assert prep.dropped_features == [panel.features[5]]
        assert prep.dropped_entities == [panel.entities[7]]
        assert prep.entities == list(panel.entities[:7])

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


def _nan_cv_mse(report, **changes):
    """A copy of the report whose first lasso CV row has a NaN cv_mse."""
    table = list(report.cv_tables["lasso"])
    table[0] = (table[0][0], float("nan"))
    return dataclasses.replace(report, cv_tables={**report.cv_tables, "lasso": table},
                               **changes)


def test_non_finite_report_leaves_no_artifacts(synthetic_report, tmp_path):
    from clusterreg.pipeline import write_artifacts

    bad = _nan_cv_mse(synthetic_report)
    with pytest.raises(ValueError):
        write_artifacts(bad, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


def test_failed_rerun_leaves_the_previous_artifacts(synthetic_report, tmp_path):
    """A rerun that fails on its last file (a non-finite number in the JSON
    report) replaces none of the previous run's files."""
    from clusterreg.pipeline import ARTIFACT_FILES, write_artifacts

    out = tmp_path / "out"
    write_artifacts(synthetic_report, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == sorted(ARTIFACT_FILES)
    config = synthetic_report.config
    changed = _nan_cv_mse(synthetic_report, config=dataclasses.replace(
        config, test_years=config.test_years[:2]))  # forecast.csv would change too
    with pytest.raises(ValueError):
        write_artifacts(changed, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_rename_puts_the_previous_artifacts_back(synthetic_report, tmp_path,
                                                        monkeypatch):
    """A rerun whose 4th move into out_dir fails, after assignment.csv,
    cluster_quality.csv and a changed forecast.csv were placed, leaves the
    previous run's files byte for byte and no staging directory."""
    from clusterreg.pipeline import ARTIFACT_FILES, write_artifacts

    out = tmp_path / "out"
    write_artifacts(synthetic_report, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    config = synthetic_report.config
    changed = dataclasses.replace(synthetic_report, config=dataclasses.replace(
        config, test_years=config.test_years[:2]))  # forecast.csv changes
    real, placements = pipeline.os.replace, []

    def fourth_placement_fails(src, dst):
        if Path(dst).parent == out:
            placements.append(Path(dst).name)
            if len(placements) == 4:
                raise OSError(errno.EIO, "Input/output error", str(dst))
        real(src, dst)

    monkeypatch.setattr(pipeline.os, "replace", fourth_placement_fails)
    with pytest.raises(OSError, match="Input/output error"):
        write_artifacts(changed, out)
    assert placements[:4] == ["assignment.csv", "cluster_quality.csv", "forecast.csv",
                              "path_ridge.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_FILES)  # no .staging-*
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _rerun_failing(report, out, monkeypatch, fails):
    """Rerun write_artifacts over out with os.replace raising the first time
    fails(dst, placements) says so, placements being the names of the new
    files moved into out_dir so far, this one included; return those names."""
    real, placements, failed = pipeline.os.replace, [], []

    def failing_replace(src, dst):
        if Path(src).parent.name.startswith(".staging-"):
            placements.append(Path(dst).name)
        if not failed and fails(Path(dst), placements):
            failed.append(dst)
            raise OSError(errno.EIO, "Input/output error", str(dst))
        real(src, dst)

    changed = dataclasses.replace(report, config=dataclasses.replace(
        report.config, test_years=report.config.test_years[:2]))  # forecast.csv changes
    monkeypatch.setattr(pipeline.os, "replace", failing_replace)
    with pytest.raises(OSError, match="Input/output error"):
        pipeline.write_artifacts(changed, out)
    monkeypatch.undo()
    return placements


@pytest.mark.parametrize("at", [1, len(ARTIFACT_FILES)], ids=["first", "last"])
def test_failed_rename_at_either_end_puts_the_previous_artifacts_back(synthetic_report,
                                                                      tmp_path, monkeypatch,
                                                                      at):
    """A failure at the first move into out_dir (after one previous file was
    moved aside) and at the last (after all others were placed) both leave
    the previous run's files byte for byte and no staging directory."""
    out = tmp_path / "out"
    pipeline.write_artifacts(synthetic_report, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    placed = _rerun_failing(synthetic_report, out, monkeypatch,
                            lambda dst, placed: dst.parent == out and len(placed) == at)
    assert len(placed) == at
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_move_aside_puts_the_previous_artifacts_back(synthetic_report, tmp_path,
                                                            monkeypatch):
    """A rerun whose 4th move of a previous file aside fails, after three new
    files were placed, leaves the previous run's files byte for byte and no
    staging directory."""
    out = tmp_path / "out"
    pipeline.write_artifacts(synthetic_report, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    aside = []

    def fourth_move_aside(dst, placed):
        if dst.parent.name.startswith(".previous-"):
            aside.append(dst.name)
        return len(aside) == 4

    placed = _rerun_failing(synthetic_report, out, monkeypatch, fourth_move_aside)
    assert placed == ["assignment.csv", "cluster_quality.csv", "forecast.csv"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_rename_into_a_new_directory_leaves_it_empty(synthetic_report, tmp_path,
                                                           monkeypatch):
    """With no previous run, a 4th move into out_dir that fails removes the
    three files placed before it and the staging directory."""
    out = tmp_path / "out"
    out.mkdir()
    placed = _rerun_failing(synthetic_report, out, monkeypatch,
                            lambda dst, placed: dst.parent == out and len(placed) == 4)
    assert len(placed) == 4
    assert list(out.iterdir()) == []


def test_a_rerun_leaves_files_that_are_not_artifacts_alone(synthetic_report, tmp_path,
                                                           monkeypatch):
    """Files of other names in out_dir are neither moved nor removed, by a
    rerun that fails at its 4th placement or by one that succeeds."""
    out = tmp_path / "out"
    pipeline.write_artifacts(synthetic_report, out)
    (out / "notes.txt").write_bytes(b"kept\n")
    (out / "forecast.csv.bak").write_bytes(b"also kept\n")
    placed = _rerun_failing(synthetic_report, out, monkeypatch,
                            lambda dst, placed: dst.parent == out and len(placed) == 4)
    assert len(placed) == 4
    pipeline.write_artifacts(synthetic_report, out)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*ARTIFACT_FILES, "notes.txt", "forecast.csv.bak"])
    assert (out / "notes.txt").read_bytes() == b"kept\n"
    assert (out / "forecast.csv.bak").read_bytes() == b"also kept\n"


def test_failed_json_write_leaves_none_of_the_call_files(tmp_path, monkeypatch):
    """A disk that fills up halfway through b.json: the partial b.json goes
    too, with the files written before it."""
    real = Path.write_text

    def full_disk(self, text, *args, **kwargs):
        if self.name != "b.json":
            return real(self, text, *args, **kwargs)
        real(self, text[:5], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="No space"):
        pipeline.write_files(out, {"t.csv": (["x"], [[1]])}, {"a.json": {"k": 1},
                                                             "b.json": {"k": 2}})
    assert list(out.iterdir()) == []


EVERY_KEY = """
[data]
path = data/panel

[preprocess]
log_epsilon = 1e-4
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

[forecast]
train_years = 2000-2004
test_years = 2005,2006
"""


@pytest.mark.parametrize("years, message", [
    (dict(test_years=[2019]), "test_years needs at least 2"),
    (dict(train_years=[2011, 2012, 2013, 2014]), "cv_folds = 5"),
    (dict(train_years=[2000, 2000, 2001]), "train_years repeats"),
    (dict(test_years=[2015, 2015, 2016]), "test_years repeats"),
])
def test_year_counts_fail_at_the_config_stage(synthetic_case, years, message):
    """Too few test years for a variance, fewer train years than CV folds,
    and a repeated year all fail before the panel is read: the data path
    does not exist, so a later check would fail at stage "load"."""
    _, _, _, config = synthetic_case
    bad = dataclasses.replace(config, data_path="/nonexistent/panel.csv", **years)
    with pytest.raises(PipelineStageError, match=message) as err:
        run_pipeline(bad)
    assert err.value.stage == "config"


@pytest.mark.parametrize("bad, message", [
    (dict(log_epsilon=float("nan")), "log_epsilon must be finite and > 0"),
    (dict(log_epsilon=float("inf")), "log_epsilon must be finite and > 0"),
    (dict(cv_folds=2.5), "cv_folds must be an integer, got 2.5"),
    (dict(train_years=[float(y) for y in range(2000, 2015)]),
     "train_years entry must be an integer, got 2000.0"),
    (dict(test_years=[2015, 2016.0, 2017]), "test_years entry must be an integer, got 2016.0"),
    (dict(anchor_year=2003.0), "anchor_year must be an integer, got 2003.0"),
    (dict(ridge_lambdas=[0.1, float("nan")]),
     "ridge_lambdas holds nan: penalty weights must be finite and >= 0"),
    (dict(lasso_lambdas=[-1.0]), "lasso_lambdas holds -1.0: penalty weights must be finite"),
    (dict(enet_lambdas=[float("inf")]), "enet_lambdas holds inf: penalty weights must be"),
    (dict(eps_grid=[float("nan")]), "eps_grid holds nan: eps must be finite and >= 0"),
    (dict(eps_grid=[0.5, -0.1]), "eps_grid holds -0.1: eps must be finite and >= 0"),
    (dict(minpts_grid=[1.5]), "minpts_grid holds 1.5: min_pts must be an integer"),
    (dict(minpts_grid=[2, 0]), "minpts_grid holds 0: min_pts must be >= 1"),
    (dict(minpts_grid=["2"]), "minpts_grid holds '2': not a number"),
    (dict(eps_grid=["0.1"]), "eps_grid holds '0.1': not a number"),
    (dict(ridge_lambdas=["0.1"]), "ridge_lambdas holds '0.1': not a number"),
    (dict(enet_alpha="0.5"), r"enet_alpha must be in \[0, 1\], got '0.5'"),
    (dict(log_epsilon="x"), "log_epsilon must be finite and > 0, got 'x'"),
], ids=["log_epsilon_nan", "log_epsilon_inf", "cv_folds_fractional",
        "train_years_float", "test_years_float", "anchor_year_float", "ridge_lambda_nan",
        "lasso_lambda_negative", "enet_lambda_inf", "eps_nan", "eps_negative",
        "min_pts_fractional", "min_pts_zero", "min_pts_str", "eps_str", "ridge_lambda_str",
        "enet_alpha_str", "log_epsilon_str"])
def test_code_built_values_the_ini_parser_rejects_fail_at_the_config_stage(
        synthetic_case, bad, message):
    """A config built in code can hold values that no INI file parses to: a
    non-finite log epsilon (the run would end in the JSON writer's
    ValueError), fractional CV folds (np.array_split would use 2 folds and
    the report record 2.5), float years (the run would complete and record
    2000.0 where an int-year run records 2000), non-finite grid values and strings where numbers belong
    (they would escape as a bare TypeError). Those and negative grid
    values, which an INI file can hold, would fail only at the sweep or the
    fits, after the panel was loaded and cleaned. Each fails before the
    panel is read, naming the field."""
    _, _, _, config = synthetic_case
    bad = dataclasses.replace(config, data_path="/nonexistent/panel.csv", **bad)
    with pytest.raises(PipelineStageError, match=message) as err:
        run_pipeline(bad)
    assert err.value.stage == "config"


@pytest.mark.parametrize("bad, message", [
    (dict(eps_grid=0.1), "eps_grid must be a list, got 0.1"),
    (dict(train_years=2000), "train_years must be a list, got 2000"),
    (dict(eps_grid=np.array([0.1, 0.2])), r"eps_grid must be a list, got array\(\[0.1, 0.2\]\)"),
    (dict(minpts_grid=np.array([2])), r"minpts_grid must be a list, got array\(\[2\]\)"),
    (dict(eps_grid="0.1"), "eps_grid must be a list, got '0.1'"),
], ids=["eps_float", "train_years_int", "eps_ndarray", "min_pts_ndarray", "eps_str"])
def test_a_list_field_that_is_not_a_list_fails_at_the_config_stage(synthetic_case, bad,
                                                                   message):
    """The years and the grids must be lists (or tuples). A bare number
    would escape as a TypeError, an array as numpy's ambiguous-truth
    ValueError or, for a min_pts grid, as the JSON writer's TypeError after
    a whole run, and a string would be checked character by character."""
    _, _, _, config = synthetic_case
    bad = dataclasses.replace(config, data_path="/nonexistent/panel.csv", **bad)
    with pytest.raises(PipelineStageError, match=message) as err:
        run_pipeline(bad)
    assert err.value.stage == "config"


# A code-built field holding numpy scalars, and its built-in twin.
NUMPY_FIELDS = {
    "cv_folds": (np.int64(5), 5),
    "anchor_year": (np.int64(2003), 2003),
    "log_epsilon": (np.float32(1e-6), float(np.float32(1e-6))),
    "minpts_grid": ([np.int64(1), 2, np.int64(3)], [1, 2, 3]),
    "train_years": ([np.int64(y) for y in TRAIN_YEARS], list(TRAIN_YEARS)),
    "eps_grid": ([np.float32(e) for e in pipeline._DEFAULT_EPS_GRID],
                 [float(np.float32(e)) for e in pipeline._DEFAULT_EPS_GRID]),
}


@pytest.mark.parametrize("name", NUMPY_FIELDS)
def test_validate_turns_numpy_scalars_into_builtin_numbers(synthetic_case, name):
    """np.int64 and np.float32 pass every check, yet the JSON writer takes
    neither: such a run would load, sweep and fit, then escape the write
    stage as a bare TypeError. validate turns each into the int or float
    of equal value, so to_dict holds only built-in types."""
    _, _, _, config = synthetic_case
    given, builtin = NUMPY_FIELDS[name]
    cfg = dataclasses.replace(config, **{name: given})
    cfg.validate()
    assert cfg.to_dict() == dataclasses.replace(config, **{name: builtin}).to_dict()
    leaves = [v for value in cfg.to_dict().values()
              for v in (value if isinstance(value, list) else [value])]
    assert {type(v) for v in leaves} <= {int, float, str, type(None)}


def test_a_run_configured_with_numpy_scalars_writes_the_builtin_runs_bytes(
        synthetic_case, tmp_path):
    """Every numpy-scalar field at once: the run writes the artifacts of
    the run configured with the built-in twins, byte for byte."""
    _, _, _, config = synthetic_case
    runs = []
    for side in (0, 1):  # one out_dir, which the report records
        run_pipeline(dataclasses.replace(
            config, out_dir=str(tmp_path), **{k: v[side] for k, v in NUMPY_FIELDS.items()}))
        runs.append({f: (tmp_path / f).read_bytes() for f in ARTIFACT_FILES})
    assert runs[0] == runs[1]


# A code-built float field holding ints, and its float twin; and a min_pts
# grid holding integral floats, and its int twin.
INT_FIELDS = {
    "eps_grid": ([int(e) if e.is_integer() else e for e in pipeline._DEFAULT_EPS_GRID],
                 pipeline._DEFAULT_EPS_GRID),
    "ridge_lambdas": ([0, *pipeline._DEFAULT_RIDGE_GRID[1:]], pipeline._DEFAULT_RIDGE_GRID),
    "lasso_lambdas": ([*pipeline._DEFAULT_L1_GRID[:-1], 10], pipeline._DEFAULT_L1_GRID),
    "enet_alpha": (1, 1.0),
    "minpts_grid": ([1.0, 2, 3.0, 4, 5], [1, 2, 3, 4, 5]),
}


@pytest.mark.parametrize("name", INT_FIELDS)
def test_validate_gives_each_number_the_type_of_its_field(synthetic_case, name):
    """An INI file records every value of a float field as a float, and of
    an integer field as an int. validate does the same for a config built
    in code, so equal configs write one report."""
    _, _, _, config = synthetic_case
    given, twin = INT_FIELDS[name]
    cfg = dataclasses.replace(config, **{name: given})
    cfg.validate()
    assert cfg.to_dict() == dataclasses.replace(config, **{name: twin}).to_dict()
    values, twins = getattr(cfg, name), twin
    if name == "enet_alpha":
        values, twins = [values], [twins]
    assert [type(v) for v in values] == [type(v) for v in twins]


def test_a_run_configured_with_ints_for_floats_writes_the_float_runs_bytes(
        synthetic_case, tmp_path):
    """Every field of INT_FIELDS at once: the run writes the artifacts of
    the run configured with the twins, pipeline_report.json included, byte
    for byte."""
    _, _, _, config = synthetic_case
    runs = []
    for side in (0, 1):  # one out_dir, which the report records
        run_pipeline(dataclasses.replace(
            config, out_dir=str(tmp_path), **{k: v[side] for k, v in INT_FIELDS.items()}))
        runs.append({f: (tmp_path / f).read_bytes() for f in ARTIFACT_FILES})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("bad, message", [
    (dict(eps_grid=[True, 0.5]), "eps_grid must be a number, not the bool True"),
    (dict(minpts_grid=[True, 2]), "minpts_grid must be a number, not the bool True"),
    (dict(lasso_lambdas=[0.1, np.False_]), "lasso_lambdas must be a number, not the bool"),
    (dict(cv_folds=True), "cv_folds must be a number, not the bool True"),
    (dict(enet_alpha=False), "enet_alpha must be a number, not the bool False"),
    (dict(anchor_year=True), "anchor_year must be a number, not the bool True"),
    (dict(test_years=[2015, True]), "test_years must be a number, not the bool True"),
    (dict(log_epsilon=10**400), "log_epsilon holds a number too large for a float"),
    (dict(minpts_grid=[2, 10**400]), "minpts_grid holds a number too large for a float"),
    (dict(enet_lambdas=[10**400]), "enet_lambdas holds a number too large for a float"),
], ids=["eps", "min_pts", "lasso_numpy_bool", "cv_folds", "enet_alpha", "anchor_year",
        "test_years", "log_epsilon_huge_int", "minpts_grid_huge_int", "enet_lambdas_huge_int"])
def test_a_bool_or_a_huge_int_in_a_number_field_fails_at_the_config_stage(synthetic_case,
                                                                          bad, message):
    """bool is an int subclass, so True would pass every check as 1: a
    min_pts grid of [True, 2] would run min_pts 1 and 2 and record True in
    the report. An int past the float range passes every bound, or
    overflows in a grid's check (float() of a min_pts, alpha*lam of an
    elastic-net weight), and would escape as a bare OverflowError. Each
    fails before the panel is read, naming the field."""
    _, _, _, config = synthetic_case
    bad = dataclasses.replace(config, data_path="/nonexistent/panel.csv", **bad)
    with pytest.raises(PipelineStageError, match=message) as err:
        run_pipeline(bad)
    assert err.value.stage == "config"


def test_a_config_of_path_objects_writes_the_str_configs_artifacts(synthetic_case, tmp_path):
    """data_path and out_dir given as pathlib.Path: validate stores each as
    its str, so the run writes the artifacts of the str-configured run,
    byte for byte, and the report records the paths as strings."""
    _, _, path, config = synthetic_case
    runs = []
    for kind in (str, Path):  # one out_dir, which the report records
        run_pipeline(dataclasses.replace(config, data_path=kind(path), out_dir=kind(tmp_path)))
        runs.append({f: (tmp_path / f).read_bytes() for f in ARTIFACT_FILES})
    assert runs[0] == runs[1]
    recorded = json.loads(runs[1]["pipeline_report.json"])["config"]
    assert (recorded["data_path"], recorded["out_dir"]) == (str(path), str(tmp_path))


@pytest.mark.parametrize("bad, message", [
    (dict(data_path=None), "data_path must be a str or path, got None"),
    (dict(data_path=3), "data_path must be a str or path, got 3"),
    (dict(data_path=b"x"), "data_path must be a str or path, got b'x'"),
    (dict(out_dir=5), "out_dir must be a str or path, got 5"),
], ids=["data_path_none", "data_path_int", "data_path_bytes", "out_dir_int"])
def test_a_path_field_that_is_not_a_path_fails_at_the_config_stage(synthetic_case, tmp_path,
                                                                   bad, message):
    """A path field holding no str or path would escape as a bare TypeError
    from Path(), or, as bytes, reach the JSON writer after a whole run. It
    fails before the panel is read, naming the field, and writes no file."""
    _, _, _, config = synthetic_case
    bad = dataclasses.replace(config, **{"out_dir": str(tmp_path / "out"), **bad})
    with pytest.raises(PipelineStageError, match=message) as err:
        run_pipeline(bad)
    assert err.value.stage == "config"
    assert list(tmp_path.iterdir()) == []


SPECS_ABOVE_THE_CAP = [
    ("cluster", "eps_grid", parse_grid, "0:1:1e-12"),
    ("regress", "ridge_lambdas", parse_grid, "-1e308:1e308:1"),
    ("regress", "lasso_lambdas", parse_grid, "logspace:0:1:1000000000000"),
    ("cluster", "minpts_grid", parse_grid, "1:1e12:1"),
    ("forecast", "train_years", parse_years, "2000-1000000000000"),
]


@pytest.mark.parametrize("section, key, parse, text", SPECS_ABOVE_THE_CAP,
                         ids=[spec[1] for spec in SPECS_ABOVE_THE_CAP])
def test_a_spec_far_above_the_value_cap_fails_before_anything_is_built(
        tmp_path, monkeypatch, section, key, parse, text):
    """A range, logspace or year-range spec of 10^12 values (or of inf,
    when b - a overflows) would fill memory before any check ran. Its
    count is checked first: range() and np.logspace are never called, and
    from_file names the file, section and key."""
    def refuse(*args, **kwargs):
        pytest.fail(f"{text!r} was built")

    monkeypatch.setattr(pipeline, "range", refuse, raising=False)
    monkeypatch.setattr(np, "logspace", refuse)
    cap = f"{text!r} expands to more than {pipeline.MAX_SPEC_VALUES} values"
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert str(err.value) == cap
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        PipelineConfig.from_file(ini)
    assert str(err.value) == f"{ini}: [{section}] {key}: {cap}"


class TestDerivedRecord:
    def test_derived_attributes_equal_their_formulas(self, synthetic_report):
        from clusterreg.clustering import promote_noise
        from clusterreg.preprocess import log_transform
        from clusterreg.regression import DesignMatrix, fit_report, predict

        report = synthetic_report
        eps = report.config.log_epsilon
        assert [f.name for f in dataclasses.fields(pipeline.PreparedInputs)] == [
            "config", "dropped_features", "dropped_entities", "sweep", "entities", "years",
            "regressors"]
        assert len(dataclasses.fields(report)) == 10
        promoted = promote_noise(report.assignment)
        assert np.array_equal(report.promoted.labels, promoted.labels)
        assert report.promoted.num_clusters == promoted.num_clusters
        assert report.columns == [f"cluster_{c}" for c in range(promoted.num_clusters)]
        assert np.array_equal(report.target, report.regressors.sum(axis=1))
        assert np.array_equal(report.log_regressors, log_transform(report.regressors, eps))
        assert np.array_equal(report.log_target, log_transform(report.target, eps))
        rows = [report.years.index(y) for y in report.config.train_years]
        design = DesignMatrix(report.log_regressors[rows], report.log_target[rows],
                              report.columns)
        assert np.array_equal(report.train_design.x, design.x)
        assert np.array_equal(report.train_design.y, design.y)
        for kind, model in report.models.items():
            assert report.reports[kind].to_dict() == fit_report(model, design).to_dict()
        test_idx = report.test_idx
        pred = predict(report.models["elastic_net"], report.log_regressors[test_idx])
        assert [r["predict"] for r in report.forecast_rows] == [float(v) for v in pred]
        assert [r["true"] for r in report.forecast_rows] == [
            float(report.log_target[i]) for i in test_idx]
        diffs = [r["difference"] for r in report.forecast_rows]
        assert (report.mean_error, report.variance) == summarize_forecast(diffs)

    def test_replace_rederives_from_the_new_fields(self, synthetic_report):
        report = synthetic_report
        cached_target, cached_design = report.log_target, report.train_design
        regressors = report.regressors[:, :3].copy()
        regressors[1, 2] = 0.0
        changed = dataclasses.replace(report, regressors=regressors)
        assert changed.columns == ["cluster_0", "cluster_1", "cluster_2"]
        assert np.array_equal(changed.target, regressors.sum(axis=1))
        assert changed.epsilon_cells == [("cluster_2", report.years[1])]
        assert changed.log_regressors.shape == regressors.shape
        assert not np.array_equal(changed.log_target, cached_target)
        assert changed.train_design is not cached_design
        assert changed.train_design.column_names == tuple(changed.columns)

    def test_fields_cannot_be_assigned(self, synthetic_report):
        with pytest.raises(dataclasses.FrozenInstanceError):
            synthetic_report.regressors = synthetic_report.regressors[:, :1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            synthetic_report.models = {}


def _feature_matrix():
    values = np.array([[0.0, 1.0], [3.0, 1.0], [0.0, 5.0]])
    m = clustering.FeatureMatrix(("a", "b", "c"), ("f", "g"), values)
    return [values], lambda: [m.values, m.distances, *clustering.reachability_tree(m, 2)[1:]]


def _design_matrix():
    x, y = np.array([[1.0, 0.0], [2.0, 1.0], [4.0, 3.0]]), np.array([1.5, 2.5, 3.5])
    d = regression.DesignMatrix(x, y, ("a", "b"))
    return [x, y], lambda: [d.x, d.y, d.moments.x_mean, d.moments.yc, d.moments.gram,
                            d.moments.corr]


def _energy_panel():
    values = np.arange(1.0, 13.0).reshape(2, 3, 2)
    panel = panel_from(values)
    return [values], lambda: [panel.values]


def _linear_model():
    b = np.array([0.5, -2.0])
    m = regression.LinearModel(1.0, b, None, ("a", "b"))
    return [b], lambda: [m.coefficients]


@pytest.mark.parametrize("record", [_feature_matrix, _design_matrix, _energy_panel,
                                    _linear_model],
                         ids=["FeatureMatrix", "DesignMatrix", "EnergyPanel", "LinearModel"])
def test_a_record_owns_its_arrays(record):
    """A record keeps its own read-only copy of each array it is given: the
    caller's array stays writable, and writing to it changes no value of
    the record, nor the distances, trees or moments it has cached."""
    given, held = record()
    before = [a.copy() for a in held()]
    for a in given:
        assert a.flags.writeable
        a[...] = 50.0
    after = held()
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    assert not any(a.flags.writeable for a in after)


class TestConfigKeys:
    def test_the_inputs_decide_layout_and_anchor(self):
        import inspect

        from clusterreg.dataio import load_panel

        assert len(dataclasses.fields(PipelineConfig)) == 13
        # one row of the field table per field, and an INI key for all but out_dir
        assert sorted(f.name for f in pipeline._FIELDS) == sorted(
            f.name for f in dataclasses.fields(PipelineConfig))
        assert [f.name for f in pipeline._FIELDS if not f.section] == ["out_dir"]
        assert {"layout", "anchor", "standardize", "max_iter", "tol"}.isdisjoint(
            f.name for f in dataclasses.fields(PipelineConfig))
        for removed in (dict(max_iter=100_000), dict(tol=1e-10)):
            with pytest.raises(TypeError, match=next(iter(removed))):
                PipelineConfig(**removed)
        assert list(inspect.signature(load_panel).parameters) == ["path"]

    def test_tol_is_the_fixed_solver_constant_and_read_only(self):
        """The acceptance bound's scale is regression.TOL: a config reads it
        but holds no field for it, so no INI key or report line sets it."""
        cfg = PipelineConfig()
        assert cfg.tol == regression.TOL == 1e-10
        assert "tol" not in cfg.to_dict()
        with pytest.raises(AttributeError):
            cfg.tol = 1e-8
        assert cfg.tol == regression.TOL

    def test_every_key(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(EVERY_KEY)
        assert PipelineConfig.from_file(path) == PipelineConfig(
            data_path="data/panel", train_years=[2000, 2001, 2002, 2003, 2004],
            test_years=[2005, 2006], anchor_year=2001, log_epsilon=1e-4,
            eps_grid=[0.1, 0.2], minpts_grid=[1, 2, 3], ridge_lambdas=parse_grid("0.0:0.2:0.1"),
            lasso_lambdas=parse_grid("logspace:-3:0:4"), enet_lambdas=[0.5], enet_alpha=0.25,
            cv_folds=4)

    def test_blank_keys_keep_defaults(self, tmp_path):
        blank = "\n".join(line.split("=")[0] + "=" if "=" in line else line
                          for line in EVERY_KEY.splitlines())
        path = tmp_path / "cfg.ini"
        path.write_text(blank)
        assert PipelineConfig.from_file(path) == PipelineConfig()


def test_work_of_one_default_run_on_seed_2024(synthetic_case, tmp_path, monkeypatch):
    """Pins the work of one run with the default grids, counted by spies at
    the module attributes their callers look up, as bench/spans.py counts
    them: every fit runs through _fit_grid, once per design for each grid
    of a kind (5 folds + the path) and once per kind for the refit, which
    enters through fit_penalized as a one-point grid (18 + 3 calls),
    dbscan runs once per min_pts and eps interval that the 40 eps values
    cut from the panel's pairwise distances (25 of the 40 x 5 grid
    points), and the centered moments are computed once per fold design and once for
    the full design (5*3+1). The regression module makes 287 np.linalg.solve
    calls: each refit starts from its path row and solves one pattern,
    where a lasso or elastic-net refit from zero took 9 steps on this
    panel (303 in all). The panel is aggregated once: the cluster
    profiles summarise those totals rather than aggregating again. A change
    that routes fits around an entry point, or changes what the benchmark's
    exact counters record, fails here."""
    calls = Counter()

    def spy(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(regression, "fit_penalized", lambda d, spec, *rest: spec.kind)
    spy(regression, "_fit_grid", lambda *args: "grid")
    spy(clustering, "dbscan", lambda *args: "dbscan")
    spy(regression, "_compute_moments", lambda *args: "moments")
    spy(pipeline, "aggregate_by_cluster", lambda *args: "aggregate")
    spy(np.linalg, "solve", lambda *args: "solve")  # only the regression module calls it
    _, _, _, config = synthetic_case
    pipeline.run_pipeline(dataclasses.replace(config, out_dir=str(tmp_path / "out")))
    assert calls == {"ridge": 1, "lasso": 1, "elastic_net": 1, "grid": 21, "dbscan": 25,
                     "moments": 16, "aggregate": 1, "solve": 287}


def _bench_module(name):
    """A module of bench/, loaded read-only from its file."""
    source = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_fires(synthetic_case, tmp_path):
    """The benchmark tracer wraps layer functions at the module globals their
    callers resolve; a refactor that calls one some other way silently drops
    its span. Runs one pipeline under that tracer (bench/spans.py, loaded
    read-only) on small grids, one with a repeated value, and checks the
    counts the spans read off the fit records and the sweep."""
    spans = _bench_module("spans")
    _, _, _, config = synthetic_case
    config = dataclasses.replace(
        config, out_dir=str(tmp_path / "out"), eps_grid=[0.1, 0.4, 1.0], minpts_grid=[1, 2],
        ridge_lambdas=[0.1, 0.5], lasso_lambdas=[0.1, 1.0, 0.1], enet_lambdas=[0.1, 1.0])
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(config)  # through the module, where the root span is
    finally:
        tracer.uninstall()
    metrics = spans.panel_metrics(tracer.take())
    assert spans.missing_spans([metrics]) == []
    assert metrics["clustering.silhouette_calls"] == metrics["clustering.distinct_labellings"]
    # no pairwise distance of the panel lies in (0.1, 1.0]: the three eps
    # values are one interval, so dbscan runs once per min_pts
    assert metrics["clustering.dbscan_calls"] == len(config.minpts_grid)
    for kind in ("ridge", "lasso", "elastic_net"):
        # CV and the path fit whole grids in _fit_grid; only the refit
        # enters through fit_penalized
        assert metrics[f"regression.fits.{kind}"] == 1, kind
        assert metrics[f"regression.non_converged.{kind}"] == 0, kind


@pytest.fixture(scope="module")
def bench_checks():
    return _bench_module("checks")


@given(run=small_runs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_small_run_passes_the_benchmark_checks_or_fails_at_a_stage(bench_checks, run):
    """Each run either fails with a PipelineStageError or passes the
    benchmark's checks (bench/checks.py, loaded read-only: conservation,
    the KKT bound, the exact artifact set, strict JSON) and writes the
    same bytes when run again. Warnings are errors here too."""
    panel, config = run
    with tempfile.TemporaryDirectory() as work:
        data, out = Path(work) / "panel.csv", Path(work) / "out"
        save_panel_long(panel, data)
        config = dataclasses.replace(config, data_path=str(data), out_dir=str(out))
        try:
            report = run_pipeline(config)
        except PipelineStageError:
            return
        assert bench_checks.check_run(report, panel, out) == []
        first = bench_checks.artifact_digests(out)
        shutil.rmtree(out)
        run_pipeline(config)
        assert bench_checks.artifact_digests(out) == first


def _unconserved_target(monkeypatch, config):
    def aggregate(panel, assignment):
        regressors, target = aggregate_by_cluster(panel, assignment)
        return regressors, target * (1 + 1e-6)

    monkeypatch.setattr(pipeline, "aggregate_by_cluster", aggregate)
    prepare_inputs(config)


@pytest.mark.parametrize("build, error, message", [
    (lambda mp, config: ClusterProfile(0, 1.0, 1.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0),
     ClusterRegError, "cluster profile quantiles out of order"),
    (lambda mp, config: ClusterProfile(0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
     ClusterRegError, "cluster profile variance negative"),
    (lambda mp, config: profile_clusters(np.empty((0, 2))), ClusterRegError,
     "empty year window for cluster profiles"),
    (_unconserved_target, PipelineStageError, "[aggregate] conservation identity violated"),
], ids=["profile-quantiles", "profile-variance", "profile-window", "conservation"])
def test_malformed_pipeline_inputs_raise(monkeypatch, synthetic_case, build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(monkeypatch, synthetic_case[3])
