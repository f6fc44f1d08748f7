"""Command-line front end.

Subcommands: validate, cluster, regress, pipeline, gen-synthetic,
plot-data. Exit codes: 0 success, 1 domain failure,
2 usage or I/O failure. Every invocation is deterministic given its
flags, config, input files, and (for gen-synthetic) the seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import regression
from .dataio import _csv_rows, load_panel, load_report, validate_panel
from .errors import ClusterRegError, ConfigError
from .pipeline import (
    PipelineConfig,
    cluster_matrix,
    clustering_tables,
    fit_kind,
    load_clean,
    prepare_inputs,
    run_pipeline,
    write_files,
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
        panel = load_panel(path)
        report = validate_panel(panel)
        for severity, location, message in report.issues:
            print(f"{path}: {severity}: {location}: {message}", file=sys.stderr)
        if not report.ok:
            worst = max(worst, 1)
    return worst


def cmd_cluster(args) -> int:
    cfg = _load_config(args)
    prep = prepare_inputs(cfg)
    write_files(args.out, clustering_tables(prep), {})
    q = prep.quality
    print(f"eps={prep.params.eps:g} min_pts={prep.params.min_pts} "
          f"c={prep.assignment.num_clusters} sc={q.sc:.6f} sse={q.sse:.6f}")
    return 0


def _metrics_line(spec: regression.PenaltySpec, report) -> str:
    return (f"{spec.kind} lambda={spec.lam:.6g} r2={report.r2:.6f} "
            f"mse={report.mse:.6g} sparsity={report.sparsity:.4f}")


def cmd_regress(args) -> int:
    cfg = _load_config(args)
    kind = args.kind
    design = prepare_inputs(cfg).train_design
    _, model, path = fit_kind(cfg, design, kind)
    write_files(args.out, {f"path_{kind}.csv": (path.header(), path.rows())},
                {f"model_{kind}.json": model})
    print(_metrics_line(model.penalty, regression.fit_report(model, design)))
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    report = run_pipeline(cfg)
    q = report.quality
    print(f"clustering eps={report.params.eps:g} min_pts={report.params.min_pts} "
          f"c={report.assignment.num_clusters} sc={q.sc:.6f} sse={q.sse:.6f}")
    for kind in regression.PENALTY_KINDS:
        print(_metrics_line(report.models[kind].penalty, report.reports[kind]))
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
    panel_path, truth_path = write_files(
        args.out, {"synthetic_panel.csv": panel}, {"ground_truth.json": truth})
    print(f"wrote {panel_path} and {truth_path}")
    return 0


def _upstream(out: Path, name: str, producer: str) -> Path:
    path = out / name
    if not path.exists():
        raise ClusterRegError(f"missing upstream artifact {path}: run the {producer} first")
    return path


def _tidy(row_names, col_names, values) -> list[list]:
    """One [row name, column name, repr(value)] row per matrix cell, row-major."""
    return [[r, c, repr(float(values[i][j]))]
            for i, r in enumerate(row_names) for j, c in enumerate(col_names)]


def cmd_plot_data(args) -> int:
    out = Path(args.out)
    figure = args.figure
    if figure in ("energy_trends", "heatmap"):
        cfg = _load_config(args)
        panel, _, _ = load_clean(cfg)
        if figure == "energy_trends":
            header = ["year", "feature", "value"]
            rows = _tidy(panel.years, panel.features, panel.values.sum(axis=1))
        else:
            matrix = cluster_matrix(cfg, panel)
            header = ["entity", "feature", "value"]
            rows = _tidy(matrix.entities, matrix.features, matrix.values)
    elif figure == "lambda_path":
        path_csv = _upstream(out, "path_lasso.csv", "pipeline or regress stage")
        reader = _csv_rows(path_csv)
        columns = next(reader)[1]
        header = ["lambda", "coef_name", "value"]
        rows = []
        for line, row in reader:
            if len(row) != len(columns):
                raise ClusterRegError(
                    f"{path_csv}:{line}: expected {len(columns)} columns, got {len(row)}")
            rows += [[row[0], name, value] for name, value in zip(columns[1:-2], row[1:-2])]
    else:
        report_path = _upstream(out, "pipeline_report.json", "pipeline stage")
        report = load_report(report_path)
        try:
            agg = report["aggregates"]
            if figure == "cluster_boxes":
                header = ["cluster", "year", "value"]
                rows = _tidy(agg["columns"], agg["years"], list(zip(*agg["regressors"])))
            elif figure == "fit_scatter":
                years, log_target = agg["years"], agg["log_target"]
                actual = [log_target[years.index(y)] for y in report["config"]["train_years"]]
                y_hat = report["fit_reports"]["elastic_net"]["y_hat"]
                header = ["actual", "predicted"]
                rows = [[repr(float(a)), repr(float(p))] for a, p in zip(actual, y_hat)]
            else:  # forecast
                header = ["year", "true", "predict", "difference"]
                rows = [[r["year"], repr(float(r["true"])), repr(float(r["predict"])),
                         repr(float(r["difference"]))] for r in report["forecast"]["rows"]]
        except KeyError as err:
            raise ClusterRegError(f"{report_path}: report has no key {err}") from None
        except (IndexError, TypeError, ValueError) as err:
            raise ClusterRegError(f"{report_path}: malformed report: {err}") from None
    [target] = write_files(out, {f"fig_{figure}.csv": (header, rows)}, {})
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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cluster", parents=[common], help="sweep and export the clustering")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("regress", parents=[common], help="cross-validate and fit one penalty")
    p.add_argument("--kind", choices=list(regression.PENALTY_KINDS), required=True)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("pipeline", parents=[common], help="run the full workflow")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("gen-synthetic", parents=[common], help="generate a benchmark panel",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="A value that starts with '-' and is not a plain number, such\n"
                              "as -inf or -1e3, reads as an option: give --noise-sd=-inf.")
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
