"""Golden artifacts of the seed-2024 synthetic run.

The digests below were recorded before the warm-started solver and the
shared-distance sweep landed, so this test shows that those changes kept
every artifact byte. Later, only the penalty records of model_lasso.json,
model_elastic_net.json and pipeline_report.json were regenerated, when
they began to record the true weights (a lasso's lambda1 and an elastic
net's total lambda had read 0.0). pipeline_report.json was regenerated
once more when the config lost its layout and anchor keys (the path and
anchor_year now decide both): the file lost exactly the two lines
"anchor": "train_mean" and "layout": "long". It lost exactly one more,
"standardize": false, when the column-scale option went (columns are
never rescaled), and one more, "max_iter": 100000, when the cap on the
sweeps of the coordinate-descent fallback became a constant (no caller
set another value). When that fallback gave way to a least-squares retry
of the feature-sign search, which no fit of this run needs, no digest
changed. pipeline_report.json lost exactly one more line, "tol": 1e-10,
when the scale of the acceptance bound became the constant
regression.TOL (no caller set another value). The digests hold for the
numpy/BLAS build they were recorded with; on another build, a file whose
digest differs is compared value by value against the committed copy in
tests/golden/seed2024 at 1e-12, and the assertion names the file that
differed.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

from clusterreg.dataio import save_panel_long
from clusterreg.pipeline import ARTIFACT_FILES, PipelineConfig, run_pipeline
from clusterreg.synth import generate_synthetic

from conftest import TEST_YEARS, TRAIN_YEARS

GOLDEN_DIR = Path(__file__).parent / "golden" / "seed2024"
GOLDEN_SHA256 = {
    "assignment.csv": "a35c5514b8a589655388cb84aa02861e7287dd58f0bce514ecd85a908f070c21",
    "cluster_quality.csv": "74f5fd321caade9201a6c4382e530a53bc7197064ef7adf422df4138bbfd6287",
    "model_ridge.json": "fe5e5f5b2a163bc6d7b33e06a930dd56b88b21457e918d93f4e32513e4e05c4f",
    "model_lasso.json": "e23bcf9799b87c4f8652bb9b4098015d66ac80ee069044baa2f8e1ce1e441ae1",
    "model_elastic_net.json": "38c95435e919c57e38b2037ca54d03ec8d9e77f88a4812ad2d93d26793767ee1",
    "path_ridge.csv": "b8cf43f07e3900037ea4a6ae16fcc4f5922167806311c26a7cfdf2babf2e4b46",
    "path_lasso.csv": "b10b4df4f2fdfb5c70f23e6a73cc6a03b8e05536b8011656286e57f8986e6bbb",
    "path_elastic_net.csv": "56340e37eff00323b948734913745fb287d656b84260df4fa2e0553f876aaf07",
    "forecast.csv": "b9af46af482503c90b20d27046a305ad73ad99a414bd7f38edf8f3f312d84cc4",
    "pipeline_report.json": "c07574922e68d194cfc1d578f44caee1b0b1e3ae2bb3a3cc6f6088f819dad680",
}
TOL = 1e-12


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        return [list(row) for row in csv.reader(fh)]


def _as_number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _differences(got, want, where="$") -> list[str]:
    """Locations where two parsed artifacts differ beyond TOL."""
    a, b = _as_number(got), _as_number(want)
    if a is not None and b is not None:
        if math.isnan(a) and math.isnan(b):
            return []
        if abs(a - b) <= TOL * max(1.0, abs(a), abs(b)):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def test_golden_copies_match_recorded_digests():
    for name in ARTIFACT_FILES:
        assert _sha256(GOLDEN_DIR / name) == GOLDEN_SHA256[name], name


def test_seed_2024_artifacts_match_golden(tmp_path, monkeypatch):
    # The report records data_path and out_dir, so both are relative.
    monkeypatch.chdir(tmp_path)
    panel, _ = generate_synthetic(seed=2024)
    save_panel_long(panel, "panel.csv")
    run_pipeline(PipelineConfig(data_path="panel.csv", train_years=list(TRAIN_YEARS),
                                test_years=list(TEST_YEARS), out_dir="out"))
    assert sorted(GOLDEN_SHA256) == sorted(ARTIFACT_FILES)
    for name in ARTIFACT_FILES:
        produced = tmp_path / "out" / name
        if _sha256(produced) == GOLDEN_SHA256[name]:
            continue
        diffs = _differences(_parse(produced), _parse(GOLDEN_DIR / name))
        assert not diffs, f"{name} differs from the golden run: {diffs[:5]}"
