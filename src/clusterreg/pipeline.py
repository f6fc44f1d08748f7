"""End-to-end workflow: clean, cluster, aggregate, log-transform, fit the
three penalized models, profile clusters, and forecast a holdout window.

The regression target I(t) is the grand total emission in year t, which
by construction equals the sum of the per-cluster regressors x_i(t); the
conservation identity is asserted on every run. Models are fitted on the
training years only; the elastic-net fit produces the holdout forecasts.
"""

from __future__ import annotations

import configparser
import copy
import errno
import math
import numbers
import operator
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, fields
from decimal import Decimal
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import clustering, preprocess, regression
from .clustering import NOISE, ClusterAssignment
from .dataio import (
    EnergyPanel, load_panel, save_panel_long, save_report, validate_panel, write_csv)
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
MAX_SPEC_VALUES = 10**6  # most values a range, logspace or year spec expands to


def _finite(text: str) -> float:
    """float(text), rejecting NaN and +-inf."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return v


def _check_count(count: int, text: str) -> None:
    """Reject a spec that expands to more than MAX_SPEC_VALUES values,
    before any value is built."""
    if count > MAX_SPEC_VALUES:
        raise ConfigError(f"{text!r} expands to more than {MAX_SPEC_VALUES} values")


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
        _check_count(count, text)
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
        # capped before round(), which rejects the inf of an overflowing b - a
        count = int(round(min((b - a) / step, MAX_SPEC_VALUES))) + 1
        _check_count(count, text)
        # start + k*step in decimal, rounded once: 0.05:2.0:0.05 holds 0.15,
        # where 0.05 + 2*0.05 is 0.15000000000000002
        start, stride = Decimal(parts[0]), Decimal(parts[2])
        vals = [float(start + stride * k) for k in range(count)]
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
        _check_count(hi - lo + 1, text)
        return list(range(lo, hi + 1))
    years = [int(p) for p in text.split(",") if p.strip()]
    if not years:
        raise ConfigError(f"empty year list {text!r}")
    return years


@dataclass
class PipelineConfig:
    """All knobs of a pipeline run; every field has a documented default."""

    data_path: str = "panel.csv"  # a directory holds the wide layout
    train_years: list[int] = field(default_factory=list)
    test_years: list[int] = field(default_factory=list)
    anchor_year: int | None = None  # None: cluster on the training-window mean
    log_epsilon: float = 1e-6
    eps_grid: list[float] = field(default_factory=lambda: list(_DEFAULT_EPS_GRID))
    minpts_grid: list[int] = field(default_factory=lambda: list(_DEFAULT_MINPTS_GRID))
    ridge_lambdas: list[float] = field(default_factory=lambda: list(_DEFAULT_RIDGE_GRID))
    lasso_lambdas: list[float] = field(default_factory=lambda: list(_DEFAULT_L1_GRID))
    enet_lambdas: list[float] = field(default_factory=lambda: list(_DEFAULT_L1_GRID))
    enet_alpha: float = 0.5
    cv_folds: int = 5
    out_dir: str | None = None

    @property
    def tol(self) -> float:
        """The fixed regression.TOL that scales every fit's acceptance bound.
        Its one reader is check_run of bench/checks.py, whose KKT bound is
        10 * tol * max(1, |2X'y|_inf)."""
        return regression.TOL

    def validate(self) -> None:
        given = [f for f in _CHECK_ORDER if not (f.optional and getattr(self, f.name) is None)]
        for f in given:
            value = getattr(self, f.name)
            if f.number is None:  # a path, which the JSON report holds as a string
                path = os.fspath(value) if isinstance(value, (str, os.PathLike)) else value
                if not isinstance(path, str):
                    raise ConfigError(f"{f.name} must be a str or path, got {value!r}")
                setattr(self, f.name, path)
            elif f.many and not isinstance(value, (list, tuple)):
                raise ConfigError(f"{f.name} must be a list, got {value!r}")
        held = [(f, v) for f in given if f.number  # every number, with its field
                for v in (getattr(self, f.name) if f.many else [getattr(self, f.name)])]
        for f, v in held:  # bool is an int subclass; no INI value parses to one
            if isinstance(v, (bool, np.bool_)):
                raise ConfigError(f"{f.name} must be a number, not the bool {v!r}")
        if not self.train_years or not self.test_years:
            raise ConfigError("train_years and test_years must be set")
        for f, v in held:  # a grid's own check tests that its values are integers
            if f.number is int and not (f.many and f.check):
                try:
                    operator.index(v)
                except TypeError:
                    name = f"{f.name} entry" if f.many else f.name
                    raise ConfigError(f"{name} must be an integer, got {v!r}") from None
        for name, years in (("train_years", self.train_years), ("test_years", self.test_years)):
            if len(set(years)) != len(years):
                raise ConfigError(f"{name} repeats a year")
        if set(self.train_years) & set(self.test_years):
            raise ConfigError("train and test year ranges overlap")
        if max(self.train_years) >= min(self.test_years):
            raise ConfigError("test years must come after train years")
        for f in given:
            f.check_value(getattr(self, f.name))
        if len(self.train_years) < self.cv_folds:
            raise ConfigError(f"cv_folds = {self.cv_folds} needs at least as many train years, "
                              f"got {len(self.train_years)}")
        if len(self.test_years) < 2:
            raise ConfigError("test_years needs at least 2 years for the forecast variance")
        # A numpy scalar passes every check above, but no JSON writer takes it;
        # and an int where a float belongs would be recorded as an int, where
        # an INI file of the same values records floats. Each number becomes
        # the built-in type of its field.
        for f in given:
            value = getattr(self, f.name)
            try:
                if isinstance(value, tuple):
                    setattr(self, f.name, tuple(map(f.number, value)))
                elif isinstance(value, list):
                    setattr(self, f.name, list(map(f.number, value)))
                elif f.number:
                    setattr(self, f.name, f.number(value))
            except OverflowError:  # an int past the float range
                raise ConfigError(f"{f.name} holds a number too large for a float") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Read an INI config. A missing or blank key keeps its default; a
        malformed value, one that fails its field's check, or a key or
        section that no field of _FIELDS reads raises ConfigError naming
        the file, section and key."""
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path, encoding="utf-8-sig")
        except (configparser.Error, ValueError) as err:
            raise ConfigError(f"{path}: {err}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        known = {(f.section, f.key) for f in _FIELDS if f.section}
        for sec in parser.sections():
            if sec not in {s for s, _ in known}:
                raise ConfigError(f"{path}: unknown section [{sec}]")
        for sec in [parser.default_section, *parser.sections()]:
            for key in parser[sec]:
                if (sec, key) not in known:
                    raise ConfigError(f"{path}: unknown key [{sec}] {key}")
        cfg = cls()
        for f in _FIELDS:
            try:
                text = parser.get(f.section, f.key, fallback="").strip() if f.section else ""
                if text:
                    setattr(cfg, f.name, f.parse(text))
                    f.check_value(getattr(cfg, f.name))
            except (configparser.Error, ConfigError, ValueError, OverflowError) as err:
                raise ConfigError(f"{path}: [{f.section}] {f.key}: {err}") from None
        return cfg

    def to_dict(self) -> dict:
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}


class _Field(NamedTuple):
    """One PipelineConfig field, and all that validate and from_file know of it."""

    name: str
    section: str | None  # the INI section and key that set it; None for out_dir
    key: str | None
    parse: Callable[[str], object] | None  # of the key's stripped text
    number: type | None = None  # the built-in type of its numbers; None for a path
    many: bool = False  # a list: the years and the grids
    optional: bool = False  # may be None
    check: Callable | None = None  # a number's test, or a grid's check of each value
    need: str = ""  # what a number's test asks

    def check_value(self, value) -> None:
        """The check that validate and from_file make of the field's value."""
        if self.check and not self.many:
            if not (isinstance(value, numbers.Real) and self.check(value)):
                raise ConfigError(f"{self.name} must be {self.need}, got {value!r}")
        elif self.check:
            if not value:
                raise ConfigError(f"{self.name} must be non-empty")
            for v in value:
                try:
                    if not isinstance(v, numbers.Real):
                        raise ConfigError("not a number")
                    self.check(v)
                except ClusterRegError as err:
                    raise ConfigError(f"{self.name} holds {v!r}: {err}") from None
                except OverflowError:  # an int past the float range
                    raise ConfigError(f"{self.name} holds a number too large for a float") from None


def _parse_int_grid(text: str) -> list[int]:
    vals = parse_grid(text)
    if any(v != int(v) for v in vals):
        raise ValueError(f"min_pts values must be integers, got {text!r}")
    return [int(v) for v in vals]


# The fields in INI order, as README "Config file" lists them. A grid's check is its
# stage's; any alpha in [0, 1] splits a valid total weight into valid weights.
_FIELDS = (
    _Field("data_path", "data", "path", str),
    _Field("log_epsilon", "preprocess", "log_epsilon", _finite, float,
           check=lambda v: 0.0 < v < math.inf, need="finite and > 0"),
    _Field("anchor_year", "preprocess", "anchor_year", int, int, optional=True),
    _Field("eps_grid", "cluster", "eps_grid", parse_grid, float, many=True,
           check=clustering._check_eps),
    _Field("minpts_grid", "cluster", "minpts_grid", _parse_int_grid, int, many=True,
           check=clustering._check_min_pts),
    _Field("ridge_lambdas", "regress", "ridge_lambdas", parse_grid, float, many=True,
           check=partial(regression.PenaltySpec.of, "ridge", alpha=0.5)),
    _Field("lasso_lambdas", "regress", "lasso_lambdas", parse_grid, float, many=True,
           check=partial(regression.PenaltySpec.of, "lasso", alpha=0.5)),
    _Field("enet_lambdas", "regress", "enet_lambdas", parse_grid, float, many=True,
           check=partial(regression.PenaltySpec.of, "elastic_net", alpha=0.5)),
    _Field("enet_alpha", "regress", "enet_alpha", _finite, float,
           check=lambda v: 0.0 <= v <= 1.0, need="in [0, 1]"),
    _Field("cv_folds", "regress", "cv_folds", int, int, check=lambda v: v >= 2, need=">= 2"),
    _Field("train_years", "forecast", "train_years", parse_years, int, many=True),
    _Field("test_years", "forecast", "test_years", parse_years, int, many=True),
    _Field("out_dir", None, None, None, optional=True),
)
# validate's order: single values (those that may be None last), the years, the
# grids. So a config with several faults raises the error it always raised first.
_CHECK_ORDER = sorted(_FIELDS, key=lambda f: (f.many, f.many and bool(f.check), f.optional))


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ClusterRegError(f"cluster {self.cluster_id} profile: {f.name} is {value}")
        order = (self.minimum, self.p25, self.median, self.p75, self.maximum)
        if any(b < a - 1e-12 for a, b in zip(order, order[1:])):
            raise ClusterRegError("cluster profile quantiles out of order")
        if self.variance < 0:
            raise ClusterRegError("cluster profile variance negative")

    def to_dict(self) -> dict:
        return {("sum" if k == "total" else k): v for k, v in asdict(self).items()}


@np.errstate(over="ignore", invalid="ignore")
def aggregate_by_cluster(
    panel: EnergyPanel, assignment: ClusterAssignment
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster-level yearly totals and the grand total target.

    regressors[t, i] sums every feature of every entity in cluster i for
    year t; target[t] is the sum over clusters. The assignment must cover
    exactly the panel's entities with noise already promoted. A total that
    overflows is not finite, and is rejected naming its cluster and year."""
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
    # the first total that overflowed, if any: a cluster's, else a grand total
    for yi, cid in np.argwhere(~np.isfinite(regressors)):
        raise ClusterRegError(f"cluster {cid} total in {panel.years[yi]} is {regressors[yi, cid]}")
    for yi in np.flatnonzero(~np.isfinite(target)):
        raise ClusterRegError(f"grand total in {panel.years[yi]} is {target[yi]}")
    return regressors, target


@np.errstate(over="ignore", invalid="ignore")
def profile_clusters(totals: np.ndarray) -> list[ClusterProfile]:
    """Summary statistics of each column of totals, the (years x clusters)
    yearly cluster totals over the profile window.

    Quartiles interpolate linearly between order statistics; variance is
    the sample variance (n-1 denominator) of the yearly totals. A statistic
    that overflows is not finite, and ClusterProfile rejects it."""
    if not len(totals):
        raise ClusterRegError("empty year window for cluster profiles")
    # One cluster per contiguous row: a reduction along it adds in the same
    # (pairwise) order as on the cluster's own 1-d series.
    rows = np.ascontiguousarray(totals.T)
    p25, median, p75 = np.percentile(rows, [25, 50, 75], axis=1)
    variance = rows.var(axis=1, ddof=1) if len(totals) > 1 else np.zeros(len(rows))
    stats = zip(rows.sum(axis=1).tolist(), rows.mean(axis=1).tolist(), variance.tolist(),
                rows.min(axis=1).tolist(), p25.tolist(), median.tolist(), p75.tolist(),
                rows.max(axis=1).tolist())
    return [ClusterProfile(cid, *values) for cid, values in enumerate(stats)]


def summarize_forecast(differences) -> tuple[float, float]:
    """Mean and sample variance (n-1 denominator) of forecast differences."""
    diffs = np.asarray(differences, dtype=float).ravel()
    if diffs.size < 2:
        raise ClusterRegError("need at least 2 forecast differences")
    return float(diffs.mean()), float(diffs.var(ddof=1))


@dataclass(frozen=True)
class PreparedInputs:
    """Front half of a run: the cleaned panel's clustering and cluster
    aggregates; the chosen clustering is the sweep's first entry. The rest,
    the cluster profiles over the training years included, is derived, and
    frozen fields keep a value cached on first read from going stale
    (dataclasses.replace builds a record with an empty cache)."""

    config: PipelineConfig
    dropped_features: list[str]
    dropped_entities: list[str]
    sweep: list
    entities: list[str]
    years: list[int]
    regressors: np.ndarray

    @property
    def params(self) -> clustering.NeighborhoodParams:
        return self.sweep[0][0]

    @property
    def quality(self) -> clustering.ClusteringQuality:
        return self.sweep[0][1]

    @property
    def assignment(self) -> ClusterAssignment:
        return self.sweep[0][2]

    @cached_property
    def promoted(self) -> ClusterAssignment:
        return clustering.promote_noise(self.assignment)

    @property
    def columns(self) -> list[str]:
        return [f"cluster_{cid}" for cid in range(self.regressors.shape[1])]

    @property
    def target(self) -> np.ndarray:
        return self.regressors.sum(axis=1)  # as aggregate_by_cluster sums it

    @property
    def epsilon_cells(self) -> list[tuple[str, int]]:
        """The (column, year) cells whose log takes the epsilon offset."""
        columns = self.columns
        return [(columns[cid], self.years[yi])
                for yi, cid in zip(*np.nonzero(self.regressors == 0.0))]

    @cached_property
    def log_regressors(self) -> np.ndarray:
        return _stage("log", preprocess.log_transform, self.regressors,
                      self.config.log_epsilon)

    @cached_property
    def log_target(self) -> np.ndarray:
        return _stage("log", preprocess.log_transform, self.target,
                      self.config.log_epsilon)

    @property
    def train_idx(self) -> list[int]:
        return [self.years.index(y) for y in self.config.train_years]

    @cached_property
    def profiles(self) -> list[ClusterProfile]:
        return _stage("profiles", profile_clusters, self.regressors[self.train_idx])

    @property
    def test_idx(self) -> list[int]:
        return [self.years.index(y) for y in self.config.test_years]

    @cached_property
    def train_design(self) -> regression.DesignMatrix:
        rows = self.train_idx
        return regression.DesignMatrix(self.log_regressors[rows], self.log_target[rows],
                                       self.columns)


@dataclass(frozen=True)
class PipelineReport(PreparedInputs):
    """Everything a pipeline run produced, serializable to one JSON file.
    cv_tables maps each kind to its (lambda, cv_mse) table; the penalty CV
    chose is the model's. The fit reports and the holdout forecast of the
    elastic-net model are derived."""

    cv_tables: dict
    models: dict
    paths: dict

    @cached_property
    def reports(self) -> dict:
        return {kind: regression.fit_report(m, self.train_design)
                for kind, m in self.models.items()}

    @cached_property
    def forecast_rows(self) -> list[dict]:
        test_idx = self.test_idx
        predictions = regression.predict(self.models["elastic_net"], self.log_regressors[test_idx])
        rows = []
        for year, i, pred in zip(self.config.test_years, test_idx, predictions.tolist()):
            true = float(self.log_target[i])
            rows.append({"year": int(year), "true": true, "predict": pred,
                         "difference": true - pred})
        return rows

    @property
    def mean_error(self) -> float:
        return summarize_forecast([r["difference"] for r in self.forecast_rows])[0]

    @property
    def variance(self) -> float:
        return summarize_forecast([r["difference"] for r in self.forecast_rows])[1]

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
                    "penalty": self.models[kind].penalty.to_dict(),
                    "table": [[lam, m] for lam, m in table],
                }
                for kind, table in self.cv_tables.items()
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


def load_clean(config: PipelineConfig) -> tuple[EnergyPanel, list[str], list[str]]:
    """Validate the config, then load, validate, year-check and clean the
    panel. Returns (cleaned panel, dropped features, dropped entities)."""
    _stage("config", config.validate)
    raw = _stage("load", load_panel, config.data_path)
    check = validate_panel(raw)
    if not check.ok:
        issues = "; ".join(f"{loc}: {msg}" for sev, loc, msg in check.issues if sev == "error")
        raise PipelineStageError("load", f"panel validation failed: {issues}")
    anchor = [] if config.anchor_year is None else [config.anchor_year]
    for year in [*config.train_years, *config.test_years, *anchor]:
        if year not in raw.years:
            raise PipelineStageError("load", f"configured year {year} not present in data")
    panel, dropped = _stage("clean", preprocess.drop_zero_series, raw)
    n_features = raw.n_features - panel.n_features  # the names list features first
    return panel, dropped[:n_features], dropped[n_features:]


def cluster_matrix(config: PipelineConfig, panel: EnergyPanel) -> clustering.FeatureMatrix:
    """The matrix the sweep clusters: each entity's mean feature profile
    over the anchor window (the anchor year if set, else the training
    years), min-max normalized per entity."""
    window = list(config.train_years) if config.anchor_year is None else [config.anchor_year]
    profile = _stage("cluster-matrix", preprocess.entity_profile, panel, window)
    return preprocess.minmax_normalize_rows(profile)


def prepare_inputs(config: PipelineConfig) -> PreparedInputs:
    """Run the front half of the pipeline: load, clean, cluster and
    aggregate. The cluster profiles, the log aggregates and the training
    design are derived from the record on first read."""
    panel, dropped_features, dropped_entities = load_clean(config)
    normalized = cluster_matrix(config, panel)

    sweep = _stage("sweep", clustering.sweep_params, normalized,
                   config.eps_grid, config.minpts_grid)
    promoted = clustering.promote_noise(sweep[0][2])

    regressors, target = _stage("aggregate", aggregate_by_cluster, panel, promoted)
    # independent check: cluster totals must reproduce the full-panel totals
    panel_totals = panel.values.sum(axis=(1, 2))
    gap = np.abs(target - panel_totals)
    if not gap.max() <= CONSERVATION_TOL * max(1.0, float(np.abs(panel_totals).max())):
        raise PipelineStageError("aggregate", "conservation identity violated")
    return PreparedInputs(
        config=config,
        dropped_features=dropped_features,
        dropped_entities=dropped_entities,
        sweep=sweep,
        entities=list(panel.entities),
        years=list(panel.years),
        regressors=regressors,
    )


def fit_kind(config: PipelineConfig, design: regression.DesignMatrix, kind: str):
    """Cross-validate one penalty kind on design, trace the path over the
    kind's grid, and refit at the penalty CV chose, starting from the
    path's row at the grid value CV chose. The search accepts that row on
    its first step, so the refit repeats no search work of the path.

    Returns (cv_table, model, path); the model's penalty is the one CV
    chose."""
    grid = {"ridge": config.ridge_lambdas, "lasso": config.lasso_lambdas,
            "elastic_net": config.enet_lambdas}[kind]
    spec, table = _stage("fit", regression.cross_validate, design, kind, grid,
                         folds=config.cv_folds, alpha=config.enet_alpha)
    path = _stage("fit", regression.iterate_lambda, design, kind,
                  sorted(set(float(v) for v in grid)), alpha=config.enet_alpha)
    row = path.lambdas.index(spec.lam)  # spec.lam = lam1 + lam2 is the grid value
    model = _stage("fit", regression.fit_penalized, design, spec,
                   start=path.coefficient_matrix[row])
    return table, model, path


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Execute the full workflow and (if configured) write all artifacts.

    Stages: load -> clean -> cluster matrix -> parameter sweep -> noise
    promotion -> cluster aggregation -> log transform -> cross-validated
    ridge/lasso/elastic-net fits -> holdout forecast. Any stage failure
    aborts with a stage-tagged error and no partial output files."""
    prep = prepare_inputs(config)
    cv_tables: dict = {}
    models: dict = {}
    paths: dict = {}
    for kind in regression.PENALTY_KINDS:
        cv_tables[kind], models[kind], paths[kind] = fit_kind(config, prep.train_design, kind)
    # from the stored fields only: vars(prep) also holds the values cached so far
    report = PipelineReport(**{f.name: getattr(prep, f.name) for f in fields(prep)},
                            cv_tables=cv_tables, models=models, paths=paths)
    report.profiles  # derived, yet checked on every run, written or not
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
    """Write each CSV table (name -> (header, rows), or an EnergyPanel,
    written by save_panel_long) and JSON record (name -> record) into
    out_dir, creating it. The files are written into a hidden temporary
    directory inside out_dir (on the same file system, and writable
    wherever out_dir is) and then moved into place one by one with
    os.replace, each after moving the previous file of its name aside, so
    out_dir never holds a partly written file. A failed write or rename,
    or a directory where a file must go, leaves out_dir as it was: the new
    files go and the previous ones move back (or stay in the hidden
    directory if that fails). A kill between two renames can leave a mix."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = [*tables, *records]
    for name in names:
        if (out / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    previous = Path(tempfile.mkdtemp(prefix=".previous-", dir=staging))
    placed = []
    try:
        for name, table in tables.items():
            if isinstance(table, EnergyPanel):
                save_panel_long(table, staging / name)
            else:
                write_csv(staging / name, *table)
        for name, record in records.items():
            save_report(record, staging / name)
        for name in names:
            if os.path.lexists(out / name):
                os.replace(out / name, previous / name)
            os.replace(staging / name, out / name)
            placed.append(name)
    except BaseException:
        for name in placed:
            (out / name).unlink()
        for path in previous.iterdir():
            os.replace(path, out / path.name)
        shutil.rmtree(staging)
        raise
    shutil.rmtree(staging)
    return [out / name for name in names]


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
