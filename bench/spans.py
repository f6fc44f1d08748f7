"""Outside-in span tracing of the clusterreg layers.

The tracer replaces each public layer function listed in TRACED with a
wrapper at the module attribute its caller looks up at call time, so no
file under src/ changes. Each call inside a traced ``run_pipeline`` call
appends one span ``[name, start, end, parent, attrs]`` to an in-memory
list; ``take`` hands over the spans of one pipeline call, and
``panel_metrics`` turns them into the per-layer times and counts.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

KINDS = ("ridge", "lasso", "elastic_net")
ROOT = "pipeline.run_pipeline"


def _kind_arg(args, kwargs, result):
    return {"kind": kwargs.get("kind", args[1] if len(args) > 1 else None)}


def _fit(args, kwargs, result):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return {"kind": spec.kind, "converged": bool(result.converged)}


def _labels(args, kwargs, result):
    assignment = kwargs.get("assignment", args[1] if len(args) > 1 else None)
    raw = ",".join(map(str, assignment.labels)).encode()
    return {"labels": hashlib.sha1(raw).hexdigest()[:16]}


def _rows(args, kwargs, result):
    return {"rows": int(result.values.size)}


# (module, attribute, span name, attribute recorder). The module is the one
# whose global the caller resolves: pipeline imports load_panel,
# validate_panel and save_report by name; sweep_params calls dbscan,
# silhouette and sse as clustering globals; cross_validate and
# iterate_lambda call fit_penalized, fit_report and predict as regression
# globals; pipeline reaches preprocess, clustering and regression through
# the modules.
TRACED = (
    ("pipeline", "load_panel", "dataio.load_panel", _rows),
    ("pipeline", "validate_panel", "dataio.validate_panel", None),
    ("pipeline", "save_report", "dataio.save_report", None),
    ("preprocess", "drop_zero_series", "preprocess.drop_zero_series", None),
    ("preprocess", "entity_profile", "preprocess.entity_profile", None),
    ("preprocess", "minmax_normalize_rows", "preprocess.minmax_normalize_rows", None),
    ("preprocess", "log_transform", "preprocess.log_transform", None),
    ("clustering", "sweep_params", "clustering.sweep_params", None),
    ("clustering", "dbscan", "clustering.dbscan", None),
    ("clustering", "silhouette", "clustering.silhouette", _labels),
    ("clustering", "sse", "clustering.sse", None),
    ("regression", "cross_validate", "regression.cross_validate", _kind_arg),
    ("regression", "fit_penalized", "regression.fit_penalized", _fit),
    ("regression", "iterate_lambda", "regression.iterate_lambda", _kind_arg),
    ("regression", "fit_report", "regression.fit_report", None),
    ("regression", "predict", "regression.predict", None),
    ("pipeline", "run_pipeline", ROOT, None),
    ("pipeline", "prepare_inputs", "pipeline.prepare_inputs", None),
    ("pipeline", "aggregate_by_cluster", "pipeline.aggregate_by_cluster", None),
    ("pipeline", "profile_clusters", "pipeline.profile_clusters", None),
    ("pipeline", "write_artifacts", "pipeline.write_artifacts", None),
)
SPAN_NAMES = tuple(name for _, _, name, _ in TRACED)

# Counts that depend only on the inputs and the code, never on the machine.
EXACT_COUNTERS = (
    "dataio.load_rows",
    "dataio.bytes_written",
    "clustering.dbscan_calls",
    "clustering.silhouette_calls",
    "clustering.distinct_labellings",
    *(f"regression.fits.{k}" for k in KINDS),
    *(f"regression.non_converged.{k}" for k in KINDS),
)


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until taken."""

    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, note in TRACED:
            module = importlib.import_module(f"clusterreg.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Spans recorded since the last call; indices restart at 0."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = list(self._spans)
        self._spans.clear()
        return spans

    def _wrap(self, fn, name, note):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            # Calls outside a pipeline run (the benchmark's own checks) are
            # not part of any request and are not recorded.
            if not stack and name != ROOT:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def panel_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run_pipeline call.

    A span's self time is its duration minus its direct children's (calls
    are sequential, so children never overlap). A layer's time sums the
    spans of that layer whose parent belongs to another layer, so nested
    calls within a layer are not counted twice."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
    total: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    layer: Counter = Counter()
    fits: Counter = Counter()
    fit_s: Counter = Counter()
    non_converged: Counter = Counter()
    by_kind: dict[str, Counter] = defaultdict(Counter)
    labellings: set[str] = set()
    rows = 0
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        total[name] += dur[i]
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        if parent is None or _layer(spans[parent][0]) != _layer(name):
            layer[_layer(name)] += dur[i]
        if name == "regression.fit_penalized":
            fits[attrs["kind"]] += 1
            fit_s[attrs["kind"]] += dur[i]
            non_converged[attrs["kind"]] += not attrs["converged"]
        elif name in ("regression.cross_validate", "regression.iterate_lambda"):
            by_kind[name][attrs["kind"]] += dur[i]
        elif name == "clustering.silhouette":
            labellings.add(attrs["labels"])
        elif name == "dataio.load_panel":
            rows += attrs["rows"]
    run_s = total[ROOT]
    metrics = {
        "calls": dict(calls),
        "run_s": run_s,
        "layer_s": dict(layer),
        "dataio.load_s": total["dataio.load_panel"],
        "dataio.load_rows": rows,
        "dataio.validate_s": total["dataio.validate_panel"],
        "dataio.save_report_s": total["dataio.save_report"],
        "preprocess.s": layer["preprocess"],
        "clustering.sweep_s": total["clustering.sweep_params"],
        "clustering.sweep_self_s": self_s["clustering.sweep_params"],
        "clustering.dbscan_s": total["clustering.dbscan"],
        "clustering.dbscan_calls": calls["clustering.dbscan"],
        "clustering.silhouette_s": total["clustering.silhouette"],
        "clustering.silhouette_calls": calls["clustering.silhouette"],
        "clustering.sse_s": total["clustering.sse"],
        "clustering.distinct_labellings": len(labellings),
        "pipeline.aggregate_s": total["pipeline.aggregate_by_cluster"],
        "pipeline.profiles_s": total["pipeline.profile_clusters"],
        "pipeline.write_s": total["pipeline.write_artifacts"],
        "pipeline.self_s": self_s[ROOT] + self_s["pipeline.prepare_inputs"],
    }
    for k in KINDS:
        metrics[f"regression.cv_s.{k}"] = by_kind["regression.cross_validate"][k]
        metrics[f"regression.path_s.{k}"] = by_kind["regression.iterate_lambda"][k]
        metrics[f"regression.fit_s.{k}"] = fit_s[k]
        metrics[f"regression.fits.{k}"] = fits[k]
        metrics[f"regression.non_converged.{k}"] = non_converged[k]
    return metrics


def combine(per_panel: list[dict]) -> dict[str, float]:
    """Per-panel means of the panel metrics, plus ratios of their totals."""
    keys = [k for k, v in per_panel[0].items() if not isinstance(v, dict)]
    out = {k: sum(m[k] for m in per_panel) / len(per_panel) for k in keys}
    silhouette_calls = sum(m["clustering.silhouette_calls"] for m in per_panel)
    out["clustering.distinct_ratio"] = (
        sum(m["clustering.distinct_labellings"] for m in per_panel) / silhouette_calls
    )
    run_s = sum(m["run_s"] for m in per_panel)
    for name in ("dataio", "clustering", "regression"):
        out[f"share.{name}"] = sum(m["layer_s"].get(name, 0.0) for m in per_panel) / run_s
    del out["run_s"]
    return out


def missing_spans(per_panel: list[dict]) -> list[str]:
    """Listed span names that recorded no call in any traced panel."""
    seen = set()
    for m in per_panel:
        seen.update(m["calls"])
    return [name for name in SPAN_NAMES if name not in seen]
