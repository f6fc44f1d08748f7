"""End-to-end workflow: clean, cluster, aggregate, log-transform, fit the
three penalized models, profile clusters, and forecast a holdout window.

The regression target I(t) is the grand total emission in year t, which
by construction equals the sum of the per-cluster regressors x_i(t); the
conservation identity is asserted on every run. Models are fitted on the
training years only; the elastic-net fit produces the holdout forecasts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import clustering, preprocess, regression
from .clustering import NOISE, ClusterAssignment
from .dataio import EnergyPanel, load_panel, save_report, validate_panel, write_csv
from .errors import ClusterRegError, ConfigError, PipelineStageError

ARTIFACT_FILES = (
    "assignment.csv",
    "cluster_quality.csv",
    "model_ridge.json",
    "model_lasso.json",
    "model_elastic_net.json",
    "path_ridge.csv",
    "path_lasso.csv",
    "path_elastic_net.csv",
    "forecast.csv",
    "pipeline_report.json",
)

CONSERVATION_TOL = 1e-9

_DEFAULT_EPS_GRID = [round(0.05 * k, 2) for k in range(1, 41)]  # 0.05 .. 2.00
_DEFAULT_MINPTS_GRID = [1, 2, 3, 4, 5]
_DEFAULT_RIDGE_GRID = [round(0.01 * k, 2) for k in range(0, 51)]  # 0.00 .. 0.50
_DEFAULT_L1_GRID = [float(v) for v in np.logspace(-8, 1, 28)]


def _finite(text: str) -> float:
    """float(text), rejecting NaN and +-inf."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return v


def parse_grid(text: str) -> list[float]:
    """Parse a grid spec: 'a:b:step' (inclusive), 'logspace:e0:e1:count',
    or a comma-separated list. Every value must be finite."""
    text = text.strip()
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError(f"bad logspace grid {text!r}, want logspace:e0:e1:count")
        e0, e1, count = _finite(parts[1]), _finite(parts[2]), int(parts[3])
        if count < 1:
            raise ConfigError("logspace grid needs count >= 1")
        with np.errstate(over="ignore"):  # an overflow to inf is rejected below
            vals = [float(v) for v in np.logspace(e0, e1, count)]
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"logspace grid {text!r} overflows")
        return vals
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad range grid {text!r}, want start:stop:step")
        a, b, step = (_finite(p) for p in parts)
        if step <= 0 or b < a:
            raise ConfigError(f"bad range grid {text!r}")
        count = int(round((b - a) / step)) + 1
        vals = [a + step * k for k in range(count)]
        return [v for v in vals if v <= b + 1e-12]
    vals = [_finite(p) for p in text.split(",") if p.strip()]
    if not vals:
        raise ConfigError(f"empty grid {text!r}")
    return vals


def parse_years(text: str) -> list[int]:
    """Parse a year range 'a-b' (inclusive) or a comma-separated list."""
    text = text.strip()
    if "-" in text and "," not in text:
        a, b = text.split("-", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ConfigError(f"bad year range {text!r}")
        return list(range(lo, hi + 1))
    years = [int(p) for p in text.split(",") if p.strip()]
    if not years:
        raise ConfigError(f"empty year list {text!r}")
    return years


@dataclass
class PipelineConfig:
    """All knobs of a pipeline run; every field has a documented default."""

    data_path: str = "panel.csv"
    layout: str = "long"
    train_years: list[int] = field(default_factory=list)
    test_years: list[int] = field(default_factory=list)
    anchor: str = "train_mean"  # or "year"
    anchor_year: int | None = None
    log_epsilon: float = 1e-6
    eps_grid: list[float] = field(default_factory=lambda: list(_DEFAULT_EPS_GRID))
    minpts_grid: list[int] = field(default_factory=lambda: list(_DEFAULT_MINPTS_GRID))
    ridge_lambdas: list[float] = field(default_factory=lambda: list(_DEFAULT_RIDGE_GRID))
    lasso_lambdas: list[float] = field(default_factory=lambda: list(_DEFAULT_L1_GRID))
    enet_lambdas: list[float] = field(default_factory=lambda: list(_DEFAULT_L1_GRID))
    enet_alpha: float = 0.5
    cv_folds: int = 5
    tol: float = 1e-10
    max_iter: int = 100_000
    standardize: bool = False
    out_dir: str | None = None

    def validate(self) -> None:
        if not self.train_years or not self.test_years:
            raise ConfigError("train_years and test_years must be set")
        if set(self.train_years) & set(self.test_years):
            raise ConfigError("train and test year ranges overlap")
        if max(self.train_years) >= min(self.test_years):
            raise ConfigError("test years must come after train years")
        if self.layout not in ("long", "wide"):
            raise ConfigError(f"unknown layout {self.layout!r}")
        if self.anchor not in ("train_mean", "year"):
            raise ConfigError(f"unknown normalization anchor {self.anchor!r}")
        if self.anchor == "year" and self.anchor_year is None:
            raise ConfigError("anchor=year requires anchor_year")
        for name, grid in (
            ("eps_grid", self.eps_grid),
            ("minpts_grid", self.minpts_grid),
            ("ridge_lambdas", self.ridge_lambdas),
            ("lasso_lambdas", self.lasso_lambdas),
            ("enet_lambdas", self.enet_lambdas),
        ):
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
        if not 0.0 <= self.enet_alpha <= 1.0:
            raise ConfigError("enet_alpha must be in [0, 1]")
        if self.log_epsilon <= 0:
            raise ConfigError("log_epsilon must be > 0")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be >= 2")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Read an INI config. A missing or blank key keeps its default; a
        malformed value or a key or section not in _CONFIG_KEYS raises
        ConfigError naming the file, section and key."""
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, ValueError) as err:
            raise ConfigError(f"{path}: {err}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        known = {(sec, key) for sec, key, _ in _CONFIG_KEYS.values()}
        for sec in parser.sections():
            if sec not in {s for s, _ in known}:
                raise ConfigError(f"{path}: unknown section [{sec}]")
        for sec in [parser.default_section, *parser.sections()]:
            for key in parser[sec]:
                if (sec, key) not in known:
                    raise ConfigError(f"{path}: unknown key [{sec}] {key}")
        cfg = cls()
        for name, (sec, key, parse) in _CONFIG_KEYS.items():
            try:
                text = parser.get(sec, key, fallback="").strip()
                if text:
                    setattr(cfg, name, parse(text))
            except (configparser.Error, ConfigError, ValueError, OverflowError) as err:
                raise ConfigError(f"{path}: [{sec}] {key}: {err}") from None
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_bool(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _parse_tol(text: str) -> float:
    tol = _finite(text)
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {text!r}")
    return tol


def _parse_max_iter(text: str) -> int:
    max_iter = int(text)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {text!r}")
    return max_iter


def _parse_int_grid(text: str) -> list[int]:
    vals = parse_grid(text)
    if any(v != int(v) for v in vals):
        raise ValueError(f"min_pts values must be integers, got {text!r}")
    return [int(v) for v in vals]


# PipelineConfig field -> (INI section, key, parser of the stripped value).
_CONFIG_KEYS = {
    "data_path": ("data", "path", str),
    "layout": ("data", "layout", str),
    "log_epsilon": ("preprocess", "log_epsilon", _finite),
    "anchor": ("preprocess", "anchor", str),
    "anchor_year": ("preprocess", "anchor_year", int),
    "eps_grid": ("cluster", "eps_grid", parse_grid),
    "minpts_grid": ("cluster", "minpts_grid", _parse_int_grid),
    "ridge_lambdas": ("regress", "ridge_lambdas", parse_grid),
    "lasso_lambdas": ("regress", "lasso_lambdas", parse_grid),
    "enet_lambdas": ("regress", "enet_lambdas", parse_grid),
    "enet_alpha": ("regress", "enet_alpha", _finite),
    "cv_folds": ("regress", "cv_folds", int),
    "tol": ("regress", "tol", _parse_tol),
    "max_iter": ("regress", "max_iter", _parse_max_iter),
    "standardize": ("regress", "standardize", _parse_bool),
    "train_years": ("forecast", "train_years", parse_years),
    "test_years": ("forecast", "test_years", parse_years),
}


@dataclass(frozen=True)
class ClusterProfile:
    """Distribution summary of one cluster's annual emission totals.

    The pooled values are the cluster's per-year totals (summed over
    member entities and all features), one value per year in the window."""

    cluster_id: int
    total: float
    mean: float
    variance: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    def __post_init__(self):
        order = (self.minimum, self.p25, self.median, self.p75, self.maximum)
        if any(b < a - 1e-12 for a, b in zip(order, order[1:])):
            raise ClusterRegError("cluster profile quantiles out of order")
        if self.variance < 0:
            raise ClusterRegError("cluster profile variance negative")

    def to_dict(self) -> dict:
        return {("sum" if k == "total" else k): v for k, v in asdict(self).items()}


def aggregate_by_cluster(
    panel: EnergyPanel, assignment: ClusterAssignment
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-level yearly totals and the grand total target.

    regressors[t, i] sums every feature of every entity in cluster i for
    year t; target[t] is the sum over clusters. The assignment must cover
    exactly the panel's entities with noise already promoted."""
    if assignment.n_points != panel.n_entities:
        raise ClusterRegError(
            f"assignment covers {assignment.n_points} entities, panel has {panel.n_entities}"
        )
    labels = np.asarray(assignment.labels)
    if np.any(labels == NOISE):
        raise ClusterRegError("assignment still contains noise; promote it first")
    entity_totals = panel.values.sum(axis=2)  # (years, entities)
    regressors = np.zeros((panel.n_years, assignment.num_clusters))
    for cid in range(assignment.num_clusters):
        regressors[:, cid] = entity_totals[:, labels == cid].sum(axis=1)
    target = regressors.sum(axis=1)
    return regressors, target


def profile_clusters(
    panel: EnergyPanel, assignment: ClusterAssignment, years: list[int]
) -> list[ClusterProfile]:
    """Summary statistics of each cluster's annual totals over the window.

    Quartiles interpolate linearly between order statistics; variance is
    the sample variance (n-1 denominator) of the yearly totals."""
    idx = [panel.year_index(y) for y in years]
    if not idx:
        raise ClusterRegError("empty year window for cluster profiles")
    regressors, _ = aggregate_by_cluster(panel, assignment)
    profiles = []
    for cid in range(assignment.num_clusters):
        vals = regressors[idx, cid]
        p25, median, p75 = np.percentile(vals, [25, 50, 75])
        profiles.append(
            ClusterProfile(
                cluster_id=cid,
                total=float(vals.sum()),
                mean=float(vals.mean()),
                variance=float(vals.var(ddof=1)) if len(vals) > 1 else 0.0,
                minimum=float(vals.min()),
                p25=float(p25),
                median=float(median),
                p75=float(p75),
                maximum=float(vals.max()),
            )
        )
    return profiles


def summarize_forecast(differences) -> tuple[float, float]:
    """Mean and sample variance (n-1 denominator) of forecast differences."""
    diffs = np.asarray(differences, dtype=float).ravel()
    if diffs.size < 2:
        raise ClusterRegError("need at least 2 forecast differences")
    return float(diffs.mean()), float(diffs.var(ddof=1))


@dataclass
class PreparedInputs:
    """Front half of a run: the cleaned panel's clustering, its cluster
    aggregates in levels and logs, and the training design matrix."""

    config: PipelineConfig
    dropped_features: list[str]
    dropped_entities: list[str]
    params: clustering.NeighborhoodParams
    quality: clustering.ClusteringQuality
    assignment: ClusterAssignment
    promoted: ClusterAssignment
    sweep: list
    entities: list[str]
    profiles: list[ClusterProfile]
    years: list[int]
    columns: list[str]
    regressors: np.ndarray
    target: np.ndarray
    log_regressors: np.ndarray
    log_target: np.ndarray
    epsilon_cells: list[tuple[str, int]]
    train_idx: list[int]
    test_idx: list[int]
    train_design: regression.DesignMatrix


@dataclass
class PipelineReport(PreparedInputs):
    """Everything a pipeline run produced, serializable to one JSON file."""

    cv_tables: dict
    models: dict
    reports: dict
    paths: dict
    forecast_rows: list[dict]
    mean_error: float
    variance: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "dropped": {
                "features": list(self.dropped_features),
                "entities": list(self.dropped_entities),
            },
            "clustering": {
                "eps": self.params.eps,
                "min_pts": self.params.min_pts,
                "num_clusters": self.assignment.num_clusters,
                "sc": self.quality.sc,
                "sse": self.quality.sse,
                "labels": {e: int(l) for e, l in zip(self.entities, self.assignment.labels)},
                "core": {e: bool(c) for e, c in zip(self.entities, self.assignment.core_flags)},
                "promoted_labels": {
                    e: int(l) for e, l in zip(self.entities, self.promoted.labels)
                },
                "promoted_num_clusters": self.promoted.num_clusters,
            },
            "cluster_profiles": [p.to_dict() for p in self.profiles],
            "aggregates": {
                "years": list(self.years),
                "columns": list(self.columns),
                "regressors": [[float(v) for v in row] for row in self.regressors],
                "target": [float(v) for v in self.target],
                "log_regressors": [[float(v) for v in row] for row in self.log_regressors],
                "log_target": [float(v) for v in self.log_target],
                "epsilon_cells": [[col, int(year)] for col, year in self.epsilon_cells],
            },
            "cv": {
                kind: {
                    "penalty": spec.to_dict(),
                    "table": [[lam, m] for lam, m in table],
                }
                for kind, (spec, table) in self.cv_tables.items()
            },
            "models": {kind: m.to_dict() for kind, m in self.models.items()},
            "fit_reports": {kind: r.to_dict() for kind, r in self.reports.items()},
            "forecast": {
                "rows": list(self.forecast_rows),
                "mean_error": self.mean_error,
                "variance": self.variance,
            },
        }


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except (ClusterRegError, OSError) as err:
        raise PipelineStageError(name, str(err)) from err


def build_design(
    log_regressors: np.ndarray,
    log_target: np.ndarray,
    columns: list[str],
    row_idx: list[int],
) -> regression.DesignMatrix:
    """Design matrix over a subset of year rows of the log aggregates."""
    rows = np.asarray(row_idx, dtype=int)
    return regression.DesignMatrix(log_regressors[rows], log_target[rows], tuple(columns))


def load_clean(config: PipelineConfig) -> tuple[EnergyPanel, EnergyPanel]:
    """Validate the config, then load, validate, year-check and clean the
    panel. Returns (raw panel, cleaned panel)."""
    _stage("config", config.validate)
    raw = _stage("load", load_panel, config.data_path, config.layout)
    check = validate_panel(raw)
    if not check.ok:
        issues = "; ".join(f"{loc}: {msg}" for sev, loc, msg in check.issues if sev == "error")
        raise PipelineStageError("load", f"panel validation failed: {issues}")
    anchor = [config.anchor_year] if config.anchor == "year" else []
    for year in [*config.train_years, *config.test_years, *anchor]:
        if year not in raw.years:
            raise PipelineStageError("load", f"configured year {year} not present in data")
    panel, _ = _stage("clean", preprocess.drop_zero_series, raw)
    return raw, panel


def cluster_matrix(config: PipelineConfig, panel: EnergyPanel) -> preprocess.FeatureMatrix:
    """The matrix the sweep clusters: each entity's mean feature profile
    over the anchor window (the anchor year, or the training years),
    min-max normalized per entity."""
    window = [config.anchor_year] if config.anchor == "year" else list(config.train_years)
    profile = _stage("cluster-matrix", preprocess.entity_profile, panel, window)
    return preprocess.minmax_normalize_rows(profile)


def prepare_inputs(config: PipelineConfig) -> PreparedInputs:
    """Run the front half of the pipeline: load, clean, cluster, aggregate,
    profile the clusters, log-transform, and build the training design."""
    raw_panel, panel = load_clean(config)
    dropped_features = [f for f in raw_panel.features if f not in panel.features]
    dropped_entities = [e for e in raw_panel.entities if e not in panel.entities]
    normalized = cluster_matrix(config, panel)

    sweep = _stage("sweep", clustering.sweep_params, normalized,
                   config.eps_grid, config.minpts_grid)
    params, quality, assignment = sweep[0]
    promoted = clustering.promote_noise(assignment)

    regressors, target = _stage("aggregate", aggregate_by_cluster, panel, promoted)
    # independent check: cluster totals must reproduce the full-panel totals
    panel_totals = panel.values.sum(axis=(1, 2))
    gap = np.abs(regressors.sum(axis=1) - panel_totals)
    if gap.max() > CONSERVATION_TOL * max(1.0, float(np.abs(panel_totals).max())):
        raise PipelineStageError("aggregate", "conservation identity violated")
    profiles = _stage("profiles", profile_clusters, panel, promoted, list(config.train_years))

    columns = [f"cluster_{cid}" for cid in range(promoted.num_clusters)]
    epsilon_cells = [
        (columns[cid], panel.years[yi])
        for yi, cid in zip(*np.nonzero(regressors == 0.0))
    ]
    log_regressors = _stage("log", preprocess.log_transform, regressors,
                            config.log_epsilon, True)
    log_target = _stage("log", preprocess.log_transform, target,
                        config.log_epsilon, True)

    train_idx = [panel.year_index(y) for y in config.train_years]
    test_idx = [panel.year_index(y) for y in config.test_years]
    train_design = build_design(log_regressors, log_target, columns, train_idx)
    return PreparedInputs(
        config=config,
        dropped_features=dropped_features,
        dropped_entities=dropped_entities,
        params=params,
        quality=quality,
        assignment=assignment,
        promoted=promoted,
        sweep=sweep,
        entities=list(panel.entities),
        profiles=profiles,
        years=list(panel.years),
        columns=columns,
        regressors=regressors,
        target=target,
        log_regressors=log_regressors,
        log_target=log_target,
        epsilon_cells=epsilon_cells,
        train_idx=train_idx,
        test_idx=test_idx,
        train_design=train_design,
    )


def fit_kind(config: PipelineConfig, design: regression.DesignMatrix, kind: str):
    """Cross-validate one penalty kind on design, refit at the chosen
    penalty, and trace the path over the kind's grid.

    Returns (spec, cv_table, model, fit_report, path)."""
    grid = {"ridge": config.ridge_lambdas, "lasso": config.lasso_lambdas,
            "elastic_net": config.enet_lambdas}[kind]
    solver = {"tol": config.tol, "max_iter": config.max_iter,
              "standardize": config.standardize}
    spec, table = _stage("fit", regression.cross_validate, design, kind, grid,
                         folds=config.cv_folds, alpha=config.enet_alpha, **solver)
    model = _stage("fit", regression.fit_penalized, design, spec, **solver)
    report = regression.fit_report(model, design)
    path = _stage("fit", regression.iterate_lambda, design, kind,
                  sorted(set(float(v) for v in grid)), alpha=config.enet_alpha, **solver)
    return spec, table, model, report, path


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute the full workflow and (if configured) write all artifacts.

    Stages: load -> clean -> cluster matrix -> parameter sweep -> noise
    promotion -> cluster aggregation -> log transform -> cross-validated
    ridge/lasso/elastic-net fits -> holdout forecast. Any stage failure
    aborts with a stage-tagged error and no partial output files."""
    prep = prepare_inputs(config)
    cv_tables: dict = {}
    models: dict = {}
    reports: dict = {}
    paths: dict = {}
    for kind in regression.PENALTY_KINDS:
        spec, table, models[kind], reports[kind], paths[kind] = fit_kind(
            config, prep.train_design, kind)
        cv_tables[kind] = (spec, table)

    predictions = regression.predict(models["elastic_net"], prep.log_regressors[prep.test_idx])
    forecast_rows = []
    for k, year in enumerate(config.test_years):
        true = float(prep.log_target[prep.test_idx[k]])
        pred = float(predictions[k])
        forecast_rows.append(
            {"year": int(year), "true": true, "predict": pred, "difference": true - pred}
        )
    mean_error, variance = _stage("forecast", summarize_forecast,
                                  [r["difference"] for r in forecast_rows])

    report = PipelineReport(
        **vars(prep),
        cv_tables=cv_tables,
        models=models,
        reports=reports,
        paths=paths,
        forecast_rows=forecast_rows,
        mean_error=mean_error,
        variance=variance,
    )
    if config.out_dir is not None:
        _stage("write", write_artifacts, report, config.out_dir)
    return report


def clustering_tables(prep: PreparedInputs) -> dict[str, tuple[list, list[list]]]:
    """(header, rows) of assignment.csv and cluster_quality.csv."""
    return {
        "assignment.csv": (
            ["entity", "cluster_id", "is_core"],
            clustering.assignment_rows(tuple(prep.entities), prep.assignment),
        ),
        "cluster_quality.csv": (
            ["eps", "min_pts", "c", "sc", "sse"], clustering.quality_rows(prep.sweep)
        ),
    }


def write_files(out_dir: str | Path, tables: dict, records: dict) -> list[Path]:
    """Write each CSV table (name -> (header, rows)) and JSON record (name ->
    record) into out_dir, creating it; a failed write removes what this call
    already wrote before the error propagates."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, (header, rows) in tables.items():
            written.append(write_csv(out / name, header, rows))
        for name, record in records.items():
            save_report(record, out / name)
            written.append(out / name)
    except (OSError, ValueError):  # ValueError: a non-finite number in a JSON record
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def write_artifacts(report: PipelineReport, out_dir: str | Path) -> list[Path]:
    """Write the documented artifact set; clean up on partial failure."""
    tables = clustering_tables(report)
    tables["forecast.csv"] = (
        ["year", "true", "predict", "difference"],
        [[r["year"], r["true"], r["predict"], r["difference"]] for r in report.forecast_rows],
    )
    records: dict = {}
    for kind in regression.PENALTY_KINDS:
        tables[f"path_{kind}.csv"] = (report.paths[kind].header(), report.paths[kind].rows())
        records[f"model_{kind}.json"] = report.models[kind]
    records["pipeline_report.json"] = report.to_dict()
    return write_files(out_dir, tables, records)
