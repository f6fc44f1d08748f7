"""Correctness checks and recovery scores for one benchmark pipeline run."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from clusterreg import regression
from clusterreg.pipeline import ARTIFACT_FILES, CONSERVATION_TOL


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def check_run(report, panel, out_dir: Path) -> list[str]:
    """Problems found in one run's report and artifacts; empty when it passes.

    Checks the conservation identity against the generated panel, the
    subgradient optimality of every final model within the repository's
    bound 10*tol*max(1, |2 X'y|_inf), that the output directory holds
    exactly ARTIFACT_FILES, and that every JSON artifact parses strictly."""
    problems = []
    if tuple(report.years) != tuple(panel.years):
        problems.append("report years differ from the generated panel")
    else:
        totals = panel.values.sum(axis=(1, 2))
        regressor_sum = np.asarray(report.regressors).sum(axis=1)
        gap = max(float(np.abs(regressor_sum - totals).max()),
                  float(np.abs(regressor_sum - np.asarray(report.target)).max()))
        scale = max(1.0, float(np.abs(totals).max()))
        if not gap <= CONSERVATION_TOL * scale:
            problems.append(f"conservation gap {gap:.3e} exceeds {CONSERVATION_TOL} x {scale:.3g}")

    rows = [report.years.index(y) for y in report.config.train_years]
    design = regression.DesignMatrix(
        np.asarray(report.log_regressors)[rows], np.asarray(report.log_target)[rows],
        report.columns,
    )
    bound = 10 * report.config.tol * max(1.0, float(np.abs(2 * design.x.T @ design.y).max()))
    for kind, model in report.models.items():
        violation = regression.kkt_check(model, design)
        if not violation <= bound:
            problems.append(f"{kind} KKT violation {violation:.3e} exceeds {bound:.3e}")

    names = sorted(p.name for p in out_dir.iterdir())
    if names != sorted(ARTIFACT_FILES):
        problems.append(f"artifact set {names} differs from {sorted(ARTIFACT_FILES)}")
    for name in names:
        if name.endswith(".json"):
            try:
                json.loads((out_dir / name).read_text(encoding="utf-8"),
                           parse_constant=_reject_constant)
            except ValueError as err:
                problems.append(f"{name} is not strict JSON: {err}")
    return problems


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in the output directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir())


def map_partitions(detected_labels, planted_labels) -> dict[int, int] | None:
    """Bijection detected cluster id -> planted cluster id, or None when the
    two partitions of the entities differ."""
    detected: dict[int, set[int]] = {}
    planted: dict[int, set[int]] = {}
    for i, label in enumerate(detected_labels):
        detected.setdefault(label, set()).add(i)
    for i, label in enumerate(planted_labels):
        planted.setdefault(label, set()).add(i)
    by_members = {frozenset(members): pid for pid, members in planted.items()}
    mapping = {}
    for did, members in detected.items():
        pid = by_members.get(frozenset(members))
        if pid is None:
            return None
        mapping[did] = pid
    return mapping if len(mapping) == len(planted) else None


def recovery(report, truth) -> tuple[bool, bool, float]:
    """(promoted partition == planted partition, lasso support maps exactly
    onto the planted support, mean |elastic-net holdout difference|)."""
    mapping = map_partitions(report.promoted.labels, truth.labels)
    partition_ok = mapping is not None and report.promoted.num_clusters == truth.n_clusters
    support_ok = False
    if partition_ok:
        lasso = report.models["lasso"]
        support = {mapping[i] for i, b in enumerate(lasso.coefficients)
                   if abs(b) > regression.NONZERO_TOL}
        support_ok = support == set(truth.support)
    mae = float(np.mean([abs(row["difference"]) for row in report.forecast_rows]))
    return partition_ok, support_ok, mae
