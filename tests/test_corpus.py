"""The benchmark corpus's artifacts, byte for byte.

The benchmark (bench/run.py) runs 9 synthetic panels: default-46 seeds
0-5, wide-400 seed 0 and tall-full-rank seeds 0-1, each generated with
noise of 0.01 x the signal_sd of the same seed's noiseless panel, with
the workload's train and test years and the default grids. This test
runs the same 9 pipelines and compares the sha256 of all 10 artifacts of
each with the table in tests/golden/corpus_sha256.json, so a change that
moves any artifact byte of the corpus fails tier-1 and names the panel
and the file. The panels and outputs are written under the relative
paths the benchmark uses, so the table also equals the digests that a
benchmark run records in .bench_out/<run>.json.

The table holds for the build it was recorded with, which it names: the
numpy version, its BLAS library and the machine architecture. A recorded
build, not committed copies of the 90 artifacts (about 0.9 MB): on any
other build the test skips and says which build the table needs, and
tests/test_golden.py still compares the seed-2024 run value by value.
On the recorded build it compares every digest and never skips.
"""

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from clusterreg.dataio import save_panel_long
from clusterreg.pipeline import ARTIFACT_FILES, PipelineConfig, run_pipeline
from clusterreg.synth import generate_synthetic

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).parent / "golden" / "corpus_sha256.json"
NOISE_SHARE = 0.01
# workload: (generate_synthetic size arguments, panel seeds 0..n-1,
# train years, test years), as in bench/run.py WORKLOADS
CORPUS = {
    "default-46": ({}, 6, range(2000, 2015), range(2015, 2020)),
    "wide-400": ({"n_entities": 400}, 1, range(2000, 2015), range(2015, 2020)),
    "tall-full-rank": ({"n_years": 60, "support_size": 16}, 2,
                       range(2000, 2045), range(2045, 2060)),
}


def _build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def test_corpus_is_the_benchmarks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # run.py imports spans and speed
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up there
    spec.loader.exec_module(run)
    assert run.NOISE_SHARE == NOISE_SHARE
    assert {name: (w.shape, w.panels, w.train_years, w.test_years)
            for name, w in run.WORKLOADS.items()} == CORPUS


def test_corpus_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    # numpy before 1.26 has no show_config(mode=...), and is another build
    if np.__version__ != table["build"]["numpy"] or _build() != table["build"]:
        pytest.skip(f"digests recorded on {table['build']}, not this build")
    # The report records data_path and out_dir, so both are relative.
    monkeypatch.chdir(tmp_path)
    digests = {}
    for workload, (shape, panels, train_years, test_years) in CORPUS.items():
        work = Path(".bench_out", "work", workload)
        work.mkdir(parents=True)
        for seed in range(panels):
            _, reference = generate_synthetic(seed=seed, **shape)
            panel, _ = generate_synthetic(
                seed=seed, noise_sd=NOISE_SHARE * reference.signal_sd, **shape)
            save_panel_long(panel, work / f"panel_{seed}.csv")
            out = work / f"out_{seed}"
            run_pipeline(PipelineConfig(
                data_path=str(work / f"panel_{seed}.csv"), out_dir=str(out),
                train_years=list(train_years), test_years=list(test_years)))
            digests[f"{workload}/{seed}"] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ARTIFACT_FILES}
    assert sorted(digests) == sorted(table["digests"])
    for key, files in table["digests"].items():
        assert sorted(files) == sorted(ARTIFACT_FILES), key
    differ = [f"panel {key}: {name}" for key, files in table["digests"].items()
              for name, digest in files.items() if digests[key][name] != digest]
    assert not differ, f"artifacts differ from the recorded digests: {differ}"
