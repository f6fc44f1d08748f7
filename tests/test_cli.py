import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from clusterreg.cli import main
from clusterreg.dataio import save_panel_long
from clusterreg.pipeline import ARTIFACT_FILES
from clusterreg.regression import PENALTY_KINDS

from conftest import TEST_YEARS, TRAIN_YEARS, overflowing_panel, small_runs


def write_config(path, data_path, **overrides):
    lines = {
        "data": {"path": str(data_path)},
        "preprocess": {},
        "cluster": {},
        "regress": {},
        "forecast": {
            "train_years": f"{TRAIN_YEARS[0]}-{TRAIN_YEARS[-1]}",
            "test_years": f"{TEST_YEARS[0]}-{TEST_YEARS[-1]}",
        },
    }
    for section, key, value in overrides.get("extra", []):
        lines[section][key] = value
    text = []
    for section, kv in lines.items():
        text.append(f"[{section}]")
        for k, v in kv.items():
            text.append(f"{k} = {v}")
        text.append("")
    path.write_text("\n".join(text))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


@pytest.fixture(scope="module")
def synthetic_cli(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    code = main(["gen-synthetic", "--seed", "2024", "--out", str(root)])
    assert code == 0
    return root / "synthetic_panel.csv", root


class TestValidate:
    def test_clean_panel_exit_zero(self, synthetic_cli, capsys):
        panel_path, _ = synthetic_cli
        assert main(["validate", str(panel_path)]) == 0

    def test_layout_flag_is_gone(self, synthetic_cli, capsys):
        panel_path, _ = synthetic_cli
        with pytest.raises(SystemExit) as exit_:
            main(["validate", "--layout", "long", str(panel_path)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --layout" in capsys.readouterr().err

    def test_negative_cell_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,entity,feature,value\n2000,A,f,-1.0\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "value[2000,A,f]" in err and "negative" in err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_content_exit_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,entity,feature,value\n2000,A,f,xyz\n")
        assert main(["validate", str(bad)]) == 1


class TestGenSynthetic:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-synthetic", "--seed", "11", "--out", str(out)]) == 0
        for name in ("synthetic_panel.csv", "ground_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mirrors_default_geometry(self, tmp_path):
        import json

        out = tmp_path / "g"
        assert main(["gen-synthetic", "--seed", "3", "--clusters", "16",
                     "--support", "7", "--out", str(out)]) == 0
        truth = json.loads((out / "ground_truth.json").read_text())
        assert truth["n_clusters"] == 16
        assert len(truth["support"]) == 7   # 7/16 = 0.4375 sparsity target

    def test_bad_sizes_exit_one(self, tmp_path):
        assert main(["gen-synthetic", "--seed", "1", "--support", "99",
                     "--out", str(tmp_path)]) == 1


class TestCluster:
    def test_two_blob_fixture(self, tmp_path, capsys):
        panel = tmp_path / "blobs.csv"
        rows = ["year,entity,feature,value"]
        for year in range(2000, 2020):
            g = 1.0 + 0.01 * (year - 2000)
            for i in range(3):
                rows.append(f"{year},A{i},f1,{2.0 * g}")
                rows.append(f"{year},A{i},f2,{0.2 * g}")
                rows.append(f"{year},B{i},f1,{0.2 * g}")
                rows.append(f"{year},B{i},f2,{2.0 * g}")
        # entity names must be unique across groups
        panel.write_text("\n".join(dict.fromkeys(rows)) + "\n")
        cfg = write_config(tmp_path / "cfg.ini", panel)
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert "c=2" in line
        header, assignment = read_rows(out / "assignment.csv")
        assert header == ["entity", "cluster_id", "is_core"]
        assert len(assignment) == 6
        header, quality = read_rows(out / "cluster_quality.csv")
        assert header == ["eps", "min_pts", "c", "sc", "sse"]

    def test_single_point_no_admissible_exit_one(self, tmp_path, capsys):
        panel = tmp_path / "one.csv"
        rows = ["year,entity,feature,value"]
        for year in range(2000, 2020):
            rows.append(f"{year},only,f1,{1.0 + year - 2000}")
            rows.append(f"{year},only,f2,2.0")
        panel.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path / "cfg.ini", panel,
                           extra=[("cluster", "minpts_grid", "2")])
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "no admissible clustering" in capsys.readouterr().err

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["cluster", "--out", str(tmp_path)]) == 1


class TestRegress:
    def test_lasso_prints_sparse_metrics(self, synthetic_cli, tmp_path, capsys):
        panel_path, _ = synthetic_cli
        cfg = write_config(tmp_path / "cfg.ini", panel_path)
        out = tmp_path / "out"
        assert main(["regress", "--kind", "lasso", "--config", str(cfg),
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("lasso lambda=")
        sparsity = float(line.split("sparsity=")[1])
        assert sparsity < 1.0
        assert (out / "model_lasso.json").exists()
        assert (out / "path_lasso.csv").exists()

    def test_ridge_lambda_zero_matches_ols(self, synthetic_cli, tmp_path, capsys):
        from clusterreg.pipeline import PipelineConfig, prepare_inputs
        from clusterreg.regression import fit_ols, fit_report

        panel_path, _ = synthetic_cli
        cfg_path = write_config(tmp_path / "cfg.ini", panel_path,
                                extra=[("regress", "ridge_lambdas", "0")])
        out = tmp_path / "out"
        assert main(["regress", "--kind", "ridge", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        r2_printed = float(line.split("r2=")[1].split()[0])
        cfg = PipelineConfig.from_file(cfg_path)
        prep = prepare_inputs(cfg)
        r2_ols = fit_report(fit_ols(prep.train_design), prep.train_design).r2
        assert r2_printed == pytest.approx(r2_ols, abs=1e-6)


@pytest.fixture(scope="module")
def pipeline_out(synthetic_cli, tmp_path_factory):
    panel_path, _ = synthetic_cli
    root = tmp_path_factory.mktemp("pipe")
    cfg = write_config(root / "cfg.ini", panel_path,
                       extra=[("regress", "lasso_lambdas", "logspace:-6:2:17")])
    out = root / "out"
    code = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return cfg, out


class TestPipelineCommands:
    def test_artifact_set_exact(self, pipeline_out):
        _, out = pipeline_out
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_FILES)

    def test_pipeline_command_prints_the_forecast_rows(self, synthetic_cli, tmp_path, capsys):
        """One line for the clustering and one per penalty kind, then one
        per test year and the forecast summary; there is no forecast
        subcommand."""
        panel_path, _ = synthetic_cli
        cfg = write_config(tmp_path / "cfg.ini", panel_path)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == [
            "clustering", *PENALTY_KINDS, *map(str, TEST_YEARS), "forecast"]
        assert lines[-1].startswith("forecast mean_error=")
        with pytest.raises(SystemExit) as exit_:
            main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "invalid choice: 'forecast'" in capsys.readouterr().err

    def test_plot_data_forecast_shape(self, pipeline_out, capsys):
        cfg, out = pipeline_out
        assert main(["plot-data", "--figure", "forecast", "--config", str(cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out / "fig_forecast.csv")
        assert header == ["year", "true", "predict", "difference"]
        assert len(rows) == len(TEST_YEARS)

    def test_plot_data_fit_scatter_has_n_rows(self, pipeline_out):
        cfg, out = pipeline_out
        assert main(["plot-data", "--figure", "fit_scatter", "--config", str(cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out / "fig_fit_scatter.csv")
        assert header == ["actual", "predicted"]
        assert len(rows) == len(TRAIN_YEARS)

    def test_plot_data_lambda_path_dead_zone(self, pipeline_out):
        from clusterreg.pipeline import PipelineConfig, prepare_inputs
        from clusterreg.regression import lasso_lambda_max

        cfg, out = pipeline_out
        assert main(["plot-data", "--figure", "lambda_path", "--config", str(cfg),
                     "--out", str(out)]) == 0
        header, rows = read_rows(out / "fig_lambda_path.csv")
        assert header == ["lambda", "coef_name", "value"]
        lam_max = lasso_lambda_max(prepare_inputs(PipelineConfig.from_file(cfg)).train_design)
        beyond = [r for r in rows if float(r[0]) > lam_max]
        assert beyond, "grid should extend past lambda_max"
        assert all(float(r[2]) == 0.0 for r in beyond)

    def test_plot_data_energy_trends_and_heatmap(self, pipeline_out, synthetic_cli):
        cfg, out = pipeline_out
        panel_path, _ = synthetic_cli
        for figure, cols in (("energy_trends", ["year", "feature", "value"]),
                             ("heatmap", ["entity", "feature", "value"]),
                             ("cluster_boxes", ["cluster", "year", "value"])):
            assert main(["plot-data", "--figure", figure, "--config", str(cfg),
                         "--out", str(out)]) == 0
            header, rows = read_rows(out / f"fig_{figure}.csv")
            assert header == cols and rows

    def test_plot_data_missing_artifact_names_stage(self, pipeline_out, tmp_path, capsys):
        cfg, _ = pipeline_out
        code = main(["plot-data", "--figure", "forecast", "--config", str(cfg),
                     "--out", str(tmp_path / "empty")])
        assert code == 1
        assert "pipeline" in capsys.readouterr().err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["regress"])  # --kind is required
    assert err.value.code == 2


def test_subcommand_files_match_pipeline_bytes(synthetic_cli, tmp_path):
    """cluster and regress write the same bytes as pipeline's files of the
    same name (every CSV ends its lines with a bare newline)."""
    panel_path, _ = synthetic_cli
    cfg = write_config(tmp_path / "run.ini", panel_path)
    full = tmp_path / "pipeline"
    assert main(["pipeline", "--config", str(cfg), "--out", str(full)]) == 0
    runs = {"cluster": (["cluster"], ["assignment.csv", "cluster_quality.csv"])}
    for kind in ("ridge", "lasso", "elastic_net"):
        runs[kind] = (["regress", "--kind", kind], [f"model_{kind}.json", f"path_{kind}.csv"])
    for name, (argv, files) in runs.items():
        out = tmp_path / name
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == files
        for fname in files:
            assert (out / fname).read_bytes() == (full / fname).read_bytes(), (name, fname)


MALFORMED_CONFIGS = [
    ("[regress]\ntol = abc\n", "[regress] tol"),
    ("[cluster]\neps_grid = 0.1,x\n", "[cluster] eps_grid"),
    ("[cluster]\neps_grid = 0:inf:1\n", "[cluster] eps_grid"),
    ("[regress]\ncv_folds = 2.5\n", "[regress] cv_folds"),
    ("[forecast]\ntrain_years = 2000-x\n", "[forecast] train_years"),
    ("[preprocess]\nanchor_year = 20o3\n", "[preprocess] anchor_year"),
    ("[regress]\nenet_alpha = half\n", "[regress] enet_alpha"),
    ("[regress]\nstandardize = true\n", "unknown key [regress] standardize"),
    ("[regress]\nmax_iter = 100000\n", "unknown key [regress] max_iter"),
    ("[cluster]\nminpts_grid = 1:0:1\n", "[cluster] minpts_grid: bad range grid"),
    ("[cluster]\nminpts_grid = 1.5,2.7\n", "[cluster] minpts_grid: min_pts values must be integers"),
    ("[regress]\ntol = nan\n", "[regress] tol: not a finite number"),
    ("[regress]\ntol = inf\n", "[regress] tol: not a finite number"),
    ("[regress]\ntol = 0\n", "[regress] tol: tol must be > 0"),
    ("[regress]\nenet_alpha = nan\n", "[regress] enet_alpha: not a finite number"),
    ("[preprocess]\nlog_epsilon = inf\n", "[preprocess] log_epsilon: not a finite number"),
    ("[cluster]\neps_grid = 0.1,-inf\n", "[cluster] eps_grid: not a finite number"),
    ("[cluster]\nminpts_grid = 1,inf\n", "[cluster] minpts_grid: not a finite number"),
    ("[regress]\nlasso_lambdas = 0.1,nan\n", "[regress] lasso_lambdas: not a finite number"),
    ("[regress]\nenet_lambdas = 0:1:nan\n", "[regress] enet_lambdas: not a finite number"),
    ("[regress]\nridge_lambdas = logspace:nan:1:3\n", "[regress] ridge_lambdas: not a finite"),
    ("[regress]\nridge_lambdas = logspace:0:400:3\n", "[regress] ridge_lambdas: logspace grid"),
    ("[cluster]\neps_grid = -0.1,0.2\n", "[cluster] eps_grid: eps_grid holds -0.1: eps must be"),
    ("[cluster]\nminpts_grid = 0\n", "[cluster] minpts_grid: minpts_grid holds 0: min_pts must"),
    ("[regress]\nridge_lambdas = -1\n", "[regress] ridge_lambdas: ridge_lambdas holds -1.0: "),
    ("[regress]\nenet_alpha = 2\n", "[regress] enet_alpha: enet_alpha must be in [0, 1], got 2.0"),
    ("[regress]\ncv_folds = 1\n", "[regress] cv_folds: cv_folds must be >= 2, got 1"),
    ("[regress]\ntolerance = 1e-8\n", "unknown key [regress] tolerance"),
    ("[data]\nlayuot = wide\n", "unknown key [data] layuot"),
    ("[data]\nlayout = wide\n", "unknown key [data] layout"),
    ("[preprocess]\nanchor = year\n", "unknown key [preprocess] anchor"),
    ("[regres]\ntol = 1e-8\n", "unknown section [regres]"),
    ("[output]\n", "unknown section [output]"),
    ("[DEFAULT]\ntol = 1e-8\n", "[DEFAULT] tol"),
    ("[regress]\ntol = 1e-8\ntol = 1e-9\n", "'tol'"),
    ("tol = 1e-8\n[regress]\n", "cfg.ini"),  # no section header
]


@pytest.mark.parametrize("text, named", MALFORMED_CONFIGS)
def test_malformed_config_exits_one_naming_the_key(tmp_path, capsys, text, named):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "cfg.ini" in err
    assert not out.exists()


@given(run=small_runs())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_small_run_through_the_command_exits_zero_or_one(run):
    """`clusterreg pipeline` over a small panel and an INI file of its split
    and folds either exits 0 with exactly the artifact set, or exits 1 with
    one `error: ` line on stderr and no artifact written."""
    panel, config = run
    with tempfile.TemporaryDirectory() as work:
        data, cfg, out = Path(work) / "panel.csv", Path(work) / "cfg.ini", Path(work) / "out"
        save_panel_long(panel, data)
        cfg.write_text(f"[data]\npath = {data}\n[regress]\ncv_folds = {config.cv_folds}\n"
                       f"[forecast]\ntrain_years = {','.join(map(str, config.train_years))}\n"
                       f"test_years = {','.join(map(str, config.test_years))}\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pipeline", "--config", str(cfg), "--out", str(out)])
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_FILES)
            assert err.getvalue() == ""
        else:
            assert code == 1, err.getvalue()
            [line] = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert not out.exists() or not any(out.iterdir())


def test_heatmap_is_the_matrix_the_sweep_clustered(tmp_path):
    """With anchor_year set, fig_heatmap.csv holds the anchor-year matrix the
    sweep clustered, not a training-window profile."""
    from clusterreg.clustering import quality_rows, sweep_params
    from clusterreg.dataio import save_panel_long
    from clusterreg.pipeline import (
        PipelineConfig, cluster_matrix, load_clean, prepare_inputs)
    from clusterreg.synth import generate_synthetic

    panel, _ = generate_synthetic(seed=2024)
    values = panel.values.copy()
    year = panel.year_index(2003)
    values[year, 0, values[year, 0].argmax()] *= 50
    panel = type(panel)(panel.years, panel.entities, panel.features, values)
    save_panel_long(panel, tmp_path / "panel.csv")
    cfg_path = write_config(tmp_path / "cfg.ini", tmp_path / "panel.csv", extra=[
        ("preprocess", "anchor_year", "2003")])
    out = tmp_path / "out"
    assert main(["plot-data", "--figure", "heatmap", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    header, rows = read_rows(out / "fig_heatmap.csv")
    assert header == ["entity", "feature", "value"]

    cfg = PipelineConfig.from_file(cfg_path)
    matrix = cluster_matrix(cfg, load_clean(cfg)[0])
    expected = [[e, f, repr(float(matrix.values[i, j]))]
                for i, e in enumerate(matrix.entities) for j, f in enumerate(matrix.features)]
    assert rows == expected
    prep = prepare_inputs(cfg)
    swept = sweep_params(matrix, cfg.eps_grid, cfg.minpts_grid)
    assert quality_rows(swept) == quality_rows(prep.sweep)


def test_plot_data_rejects_negative_cell(tmp_path, capsys):
    panel = tmp_path / "neg.csv"
    rows = ["year,entity,feature,value"]
    for year in range(2000, 2020):
        rows += [f"{year},A,f1,1.0", f"{year},A,f2,2.0", f"{year},B,f1,3.0", f"{year},B,f2,0.5"]
    rows.append("2003,C,f1,-1.0")
    panel.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path / "cfg.ini", panel)
    out = tmp_path / "out"
    for figure in ("energy_trends", "heatmap"):
        assert main(["plot-data", "--figure", figure, "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "value[2003,C,f1]" in err and "negative" in err
        assert not (out / f"fig_{figure}.csv").exists()


def test_cluster_failed_write_leaves_no_partial_files(synthetic_cli, tmp_path):
    panel_path, _ = synthetic_cli
    cfg = write_config(tmp_path / "cfg.ini", panel_path)
    out = tmp_path / "out"
    (out / "cluster_quality.csv").mkdir(parents=True)
    assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["cluster_quality.csv"]


def test_gen_synthetic_writes_bare_line_feeds(tmp_path):
    assert main(["gen-synthetic", "--seed", "5", "--entities", "6", "--features", "3",
                 "--clusters", "3", "--years", "4", "--support", "2",
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / "synthetic_panel.csv").read_bytes()
    assert b"\r" not in data
    assert data.count(b"\n") == 1 + 4 * 6 * 3 and data.endswith(b"\n")


@pytest.mark.parametrize("argv, shape", [
    ([], {}),
    (["--entities", "9", "--features", "5", "--clusters", "3", "--years", "7",
      "--support", "2", "--noise-sd", "0.5"],
     dict(n_entities=9, n_features=5, n_clusters=3, n_years=7, support_size=2, noise_sd=0.5)),
], ids=["default", "small-noisy"])
def test_gen_synthetic_panel_is_save_panel_long_bytes(tmp_path, argv, shape):
    """gen-synthetic writes its panel through save_panel_long, so the file
    is byte for byte the one save_panel_long writes for the same seed and
    shape."""
    from clusterreg.dataio import save_panel_long
    from clusterreg.synth import generate_synthetic

    assert main(["gen-synthetic", "--seed", "2024", *argv, "--out", str(tmp_path)]) == 0
    save_panel_long(generate_synthetic(seed=2024, **shape)[0], tmp_path / "copy.csv")
    assert ((tmp_path / "synthetic_panel.csv").read_bytes()
            == (tmp_path / "copy.csv").read_bytes())


def test_validate_bad_utf8_exit_one_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"year,entity,feature,value\n2000,A\xff,f,1.0\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: not valid UTF-8" in err


def test_missing_anchor_year_exits_one(synthetic_cli, tmp_path, capsys):
    panel_path, _ = synthetic_cli
    cfg = write_config(tmp_path / "cfg.ini", panel_path, extra=[
        ("preprocess", "anchor_year", "1999")])
    out = tmp_path / "out"
    for argv in (["pipeline"], ["plot-data", "--figure", "heatmap"]):
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert "[load] configured year 1999 not present in data" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("content", [b'{"not json', b"\xff\xfe{}", b"{}",
                                     b'{"aggregates": 5, "forecast": {"rows": [7]}}'])
def test_plot_data_corrupt_report_exits_one_naming_the_file(tmp_path, capsys, content):
    tmp_path.joinpath("pipeline_report.json").write_bytes(content)
    for figure in ("forecast", "fit_scatter", "cluster_boxes"):
        assert main(["plot-data", "--figure", figure, "--out", str(tmp_path)]) == 1
        assert "pipeline_report.json" in capsys.readouterr().err
        assert not (tmp_path / f"fig_{figure}.csv").exists()


def test_plot_data_report_without_a_key_names_the_key(tmp_path, capsys):
    tmp_path.joinpath("pipeline_report.json").write_text('{"aggregates": {}}\n')
    assert main(["plot-data", "--figure", "forecast", "--out", str(tmp_path)]) == 1
    assert "pipeline_report.json: report has no key 'forecast'" in capsys.readouterr().err


@pytest.mark.parametrize("content, reason", [
    (b"", "empty file"),
    (b"lambda,c0,c1,r2,mse\n0.1,\xff,0.0,1.0,0.0\n", "not valid UTF-8"),
    (b"lambda,c0,c1,r2,mse\n0.1,0.0,0.0,1.0,0.0\n0.2,0.0\n",
     ":3: expected 5 columns, got 2"),
])
def test_plot_data_bad_lambda_path_exits_one_naming_the_file(tmp_path, capsys, content,
                                                             reason):
    path_csv = tmp_path / "path_lasso.csv"
    path_csv.write_bytes(content)
    assert main(["plot-data", "--figure", "lambda_path", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path_csv}") and err.count("\n") == 1 and reason in err
    assert not (tmp_path / "fig_lambda_path.csv").exists()


def test_overflowing_cluster_profile_exits_one_and_writes_nothing(tmp_path, capsys):
    """Finite cells near 1e160 load, cluster and fit, but the sample variance
    of a cluster's yearly totals overflows: the run fails at stage profiles
    with one error line, and the output directory keeps what it held."""
    from clusterreg.dataio import save_panel_long
    from clusterreg.synth import generate_synthetic

    panel, _ = generate_synthetic(seed=2024)
    panel = type(panel)(panel.years, panel.entities, panel.features, panel.values * 1e160)
    save_panel_long(panel, tmp_path / "panel.csv")
    cfg = write_config(tmp_path / "cfg.ini", tmp_path / "panel.csv")
    out = tmp_path / "out"
    out.mkdir()
    (out / "pipeline_report.json").write_text("previous run\n")
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [profiles] cluster ") and "variance is inf" in err
    assert err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["pipeline_report.json"]
    assert (out / "pipeline_report.json").read_text() == "previous run\n"


def test_overflowing_cluster_total_exits_one_and_writes_nothing(tmp_path, capsys):
    """A cluster total that overflows fails the run at stage aggregate with
    one stage-tagged error line, and no output directory is made."""
    from clusterreg.dataio import save_panel_long

    save_panel_long(overflowing_panel(), tmp_path / "panel.csv")
    cfg = write_config(tmp_path / "cfg.ini", tmp_path / "panel.csv")
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: [aggregate] cluster 0 total in 2003 is inf\n"
    assert not out.exists()
