"""Command-line front end.

Subcommands: validate, cluster, regress, pipeline, forecast,
gen-synthetic, plot-data. Exit codes: 0 success, 1 domain failure,
2 usage or I/O failure. Every invocation is deterministic given its
flags, config, input files, and (for gen-synthetic) the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import preprocess, regression
from .dataio import load_panel, save_panel_long, save_report, validate_panel
from .errors import ClusterRegError, ConfigError
from .pipeline import (
    PipelineConfig,
    clustering_tables,
    fit_kind,
    prepare_inputs,
    run_pipeline,
    write_csv,
)
from .synth import generate_synthetic

FIGURES = ("energy_trends", "heatmap", "cluster_boxes", "lambda_path", "fit_scatter", "forecast")


def _load_config(args) -> PipelineConfig:
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    cfg = PipelineConfig.from_file(args.config)
    cfg.out_dir = args.out
    return cfg


def cmd_validate(args) -> int:
    worst = 0
    for path in args.paths:
        panel = load_panel(path, args.layout)
        report = validate_panel(panel)
        for severity, location, message in report.issues:
            print(f"{path}: {severity}: {location}: {message}", file=sys.stderr)
        if not report.ok:
            worst = max(worst, 1)
    return worst


def cmd_cluster(args) -> int:
    cfg = _load_config(args)
    prep = prepare_inputs(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in clustering_tables(prep).items():
        write_csv(out / name, header, rows)
    q = prep.quality
    print(f"eps={prep.params.eps:g} min_pts={prep.params.min_pts} "
          f"c={q.c} sc={q.sc:.6f} sse={q.sse:.6f}")
    return 0


def _metrics_line(spec: regression.PenaltySpec, report) -> str:
    return (f"{spec.kind} lambda={sum(spec.weights):.6g} r2={report.r2:.6f} "
            f"mse={report.mse:.6g} sparsity={report.sparsity:.4f}")


def cmd_regress(args) -> int:
    cfg = _load_config(args)
    kind = args.kind
    spec, _, model, report, path = fit_kind(cfg, prepare_inputs(cfg).train_design, kind)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_report(model, out / f"model_{kind}.json")
    write_csv(out / f"path_{kind}.csv", path.header(), path.rows())
    print(_metrics_line(spec, report))
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    report = run_pipeline(cfg)
    q = report.quality
    print(f"clustering eps={report.params.eps:g} min_pts={report.params.min_pts} "
          f"c={q.c} sc={q.sc:.6f} sse={q.sse:.6f}")
    for kind in regression.PENALTY_KINDS:
        print(_metrics_line(report.models[kind].penalty, report.reports[kind]))
    print(f"forecast mean_error={report.mean_error:.6f} variance={report.variance:.6f}")
    return 0


def cmd_forecast(args) -> int:
    cfg = _load_config(args)
    report = run_pipeline(cfg)
    for row in report.forecast_rows:
        print(f"{row['year']} true={row['true']:.6f} predict={row['predict']:.6f} "
              f"difference={row['difference']:.6f}")
    print(f"forecast mean_error={report.mean_error:.6f} variance={report.variance:.6f}")
    return 0


def cmd_gen_synthetic(args) -> int:
    panel, truth = generate_synthetic(
        seed=args.seed,
        n_entities=args.entities,
        n_features=args.features,
        n_clusters=args.clusters,
        n_years=args.years,
        support_size=args.support,
        noise_sd=args.noise_sd,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    panel_path = out / "synthetic_panel.csv"
    truth_path = out / "ground_truth.json"
    save_panel_long(panel, panel_path)
    save_report(truth.to_dict(), truth_path)
    print(f"wrote {panel_path} and {truth_path}")
    return 0


def _need_report(out: Path) -> dict:
    path = out / "pipeline_report.json"
    if not path.exists():
        raise ClusterRegError(
            f"missing upstream artifact {path}: run the pipeline stage first"
        )
    return json.loads(path.read_text(encoding="utf-8"))


def cmd_plot_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    figure = args.figure
    target = out / f"fig_{figure}.csv"

    if figure in ("energy_trends", "heatmap"):
        cfg = _load_config(args)
        panel = load_panel(cfg.data_path, cfg.layout)
        panel, _ = preprocess.drop_zero_series(panel)
        if figure == "energy_trends":
            header, rows = ["year", "feature", "value"], []
            totals = panel.values.sum(axis=1)  # (years, features)
            for yi, year in enumerate(panel.years):
                for fi, feat in enumerate(panel.features):
                    rows.append([year, feat, repr(float(totals[yi, fi]))])
        else:
            window = cfg.train_years if cfg.train_years else list(panel.years)
            window = [y for y in window if y in panel.years] or list(panel.years)
            profile = preprocess.minmax_normalize_rows(
                preprocess.entity_profile(panel, window))
            header, rows = ["entity", "feature", "value"], []
            for ei, entity in enumerate(profile.entities):
                for fi, feat in enumerate(profile.features):
                    rows.append([entity, feat, repr(float(profile.values[ei, fi]))])
    elif figure == "lambda_path":
        path_csv = out / "path_lasso.csv"
        if not path_csv.exists():
            raise ClusterRegError(
                f"missing upstream artifact {path_csv}: run the pipeline or regress stage first"
            )
        with open(path_csv, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            coef_names = next(reader)[1:-2]
            header, rows = ["lambda", "coef_name", "value"], []
            for row in reader:
                lam = row[0]
                for name, value in zip(coef_names, row[1:-2]):
                    rows.append([lam, name, value])
    elif figure == "cluster_boxes":
        agg = _need_report(out)["aggregates"]
        header, rows = ["cluster", "year", "value"], []
        for ci, column in enumerate(agg["columns"]):
            for yi, year in enumerate(agg["years"]):
                rows.append([column, year, repr(float(agg["regressors"][yi][ci]))])
    elif figure == "fit_scatter":
        report = _need_report(out)
        fit = report["fit_reports"]["elastic_net"]
        train_years = report["config"]["train_years"]
        years = report["aggregates"]["years"]
        log_target = report["aggregates"]["log_target"]
        actual = [log_target[years.index(y)] for y in train_years]
        header = ["actual", "predicted"]
        rows = [[repr(float(a)), repr(float(p))] for a, p in zip(actual, fit["y_hat"])]
    else:  # forecast
        header = ["year", "true", "predict", "difference"]
        rows = [
            [r["year"], repr(float(r["true"])), repr(float(r["predict"])),
             repr(float(r["difference"]))]
            for r in _need_report(out)["forecast"]["rows"]
        ]
    write_csv(target, header, rows)
    print(f"wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterreg",
        description="Cluster-then-regress analysis of emission panels.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the INI config file")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a panel file")
    p.add_argument("paths", nargs="+", help="panel files (or directories for wide layout)")
    p.add_argument("--layout", choices=["long", "wide"], default="long")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cluster", parents=[common], help="sweep and export the clustering")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("regress", parents=[common], help="cross-validate and fit one penalty")
    p.add_argument("--kind", choices=list(regression.PENALTY_KINDS), required=True)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("pipeline", parents=[common], help="run the full workflow")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("forecast", parents=[common], help="run the workflow and print forecasts")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("gen-synthetic", parents=[common], help="generate a benchmark panel")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--entities", type=int, default=46)
    p.add_argument("--features", type=int, default=16)
    p.add_argument("--clusters", type=int, default=16)
    p.add_argument("--years", type=int, default=20)
    p.add_argument("--support", type=int, default=7)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("plot-data", parents=[common], help="emit tidy CSV data for a figure")
    p.add_argument("--figure", choices=list(FIGURES), required=True)
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClusterRegError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
