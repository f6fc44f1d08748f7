"""Benchmark of the clusterreg batch pipeline on synthetic panels.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload default-46 --seed 1 --seconds 30 --trace 0

The process pins BLAS/OpenMP to one thread, imports clusterreg from ./src,
generates the workload's panels, and runs clusterreg.pipeline.run_pipeline
on them back to back: a closed loop with one client. Every run is checked
(see checks.py). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run (see spans.py) with
--trace 1. Metric names and units come from BENCHMARK.json. Provenance,
per-call times and artifact digests go to .bench_out/<run>.json. The exit
status is non-zero when a check fails or clusterreg cannot be imported.

Each workload runs a fixed panel set (panel seeds 0..K-1, generated with
noise 0.01 x signal_sd of the same seed's noiseless panel, as in acceptance
criterion 8). At the seed commit one panel's run time ranges from 1.6 s to
23 s with its panel seed, so panels drawn afresh for every --seed would
move batch_s by far more than any bound allows. --seed therefore picks the
order in which the panels run and the warm-up panel, a panel drawn from
the seed that runs twice on reduced grids, is checked, and is not timed.

The end-to-end times are reference-speed seconds: each timed interval is
scaled by the machine speed that speed.py samples within it, because the
shared hosts this runs on change speed by 30% or more within minutes.
The raw wall and CPU seconds of every interval are in the results file.
The per-layer times of a traced run are raw wall seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NOISE_SHARE = 0.01
SETUP_REPEATS = 5
WARMUP_GRIDS = {
    "eps_grid": [0.1, 0.4, 1.0],
    "minpts_grid": [1, 2],
    "ridge_lambdas": [0.1, 0.5],
    "lasso_lambdas": [0.1, 1.0],
    "enet_lambdas": [0.1, 1.0],
}


@dataclass(frozen=True)
class Workload:
    shape: dict  # size arguments of generate_synthetic
    panels: int  # the panel set is panel seeds 0..panels-1
    train_years: range
    test_years: range


WORKLOADS = {
    # The paper's shape; CV on the rank-7 15x16 design dominates.
    "default-46": Workload({}, 6, range(2000, 2015), range(2015, 2020)),
    # 400 entities; the (eps, min_pts) sweep and the loader dominate.
    "wide-400": Workload({"n_entities": 400}, 1, range(2000, 2015), range(2015, 2020)),
    # 60 years, support 16: CV on a full-rank 45x16 design.
    "tall-full-rank": Workload({"n_years": 60, "support_size": 16}, 2,
                               range(2000, 2045), range(2045, 2060)),
}


@dataclass
class Panel:
    seed: int
    path: Path
    panel: object
    truth: object


@dataclass
class Call:
    seed: int
    timing: speed.Timing
    digests: dict
    bytes_written: int
    report: object = field(repr=False, default=None)
    layer: dict | None = None  # per-layer metrics of a traced call


def import_clusterreg():
    """Import clusterreg from ./src only; None (with a message) otherwise."""
    sys.path.insert(0, str(SRC))
    try:
        import clusterreg
    except ImportError as err:
        print(f"cannot import clusterreg from {SRC}: {err}", file=sys.stderr)
        return None
    if Path(clusterreg.__file__).resolve().parent.parent != SRC.resolve():
        print(f"clusterreg resolved to {clusterreg.__file__}, not under {SRC}",
              file=sys.stderr)
        return None
    return clusterreg


def source_digest() -> str:
    """sha256 over the package sources: the code identity of a result, also
    in a checkout that carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "clusterreg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def median_of_medians(calls: list[Call], attr: str) -> float:
    by_seed: dict[int, list[float]] = {}
    for call in calls:
        by_seed.setdefault(call.seed, []).append(getattr(call.timing, attr))
    return statistics.median(statistics.median(v) for v in by_seed.values())


class Bench:
    """One workload's panels, checked pipeline runs and failure count."""

    def __init__(self, args, clusterreg, probe: speed.SpeedProbe):
        import checks  # imports numpy and clusterreg, so only after setup starts

        self.workload = WORKLOADS[args.workload]
        self.cr = clusterreg
        self.probe = probe
        self.checks = checks
        self.rng = random.Random(args.seed)
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        # The report records data_path and out_dir. A path relative to the
        # repository root that names neither the seed nor the mode keeps the
        # artifact bytes identical across runs and checkouts, so their
        # digests and dataio.bytes_written can be compared. Runs of one
        # workload therefore must not overlap in one checkout.
        self.work = OUT.relative_to(ROOT) / "work" / args.workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def write_panels(self, seeds: list[int]) -> list[Panel]:
        panels = []
        for seed in seeds:
            shape = self.workload.shape
            _, reference = self.cr.generate_synthetic(seed=seed, **shape)
            panel, truth = self.cr.generate_synthetic(
                seed=seed, noise_sd=NOISE_SHARE * reference.signal_sd, **shape)
            path = self.work / f"panel_{seed}.csv"
            self.cr.save_panel_long(panel, path)
            panels.append(Panel(seed, path, panel, truth))
        return panels

    def setup(self) -> tuple[list[Panel], Panel, list[speed.Timing]]:
        """Generate and write the panel set SETUP_REPEATS times over, then
        the warm-up panel once, untimed, because its cost varies with its
        seed; returns the panels, the warm-up panel and the time of each
        repetition."""
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            interval = self.probe.interval()
            panels = self.write_panels(list(range(self.workload.panels)))
            times.append(interval.stop())
        [warmup] = self.write_panels([self.rng.randrange(1_000, 1_000_000)])
        return panels, warmup, times

    def config(self, panel: Panel, out_dir: Path, **grids):
        return self.cr.PipelineConfig(
            data_path=str(panel.path),
            train_years=list(self.workload.train_years),
            test_years=list(self.workload.test_years),
            out_dir=str(out_dir),
            **grids,
        )

    def run(self, panel: Panel, **grids) -> Call | None:
        """One checked run_pipeline call; None when it raised or failed a check."""
        self.attempted += 1
        out_dir = self.work / f"out_{panel.seed}"
        shutil.rmtree(out_dir, ignore_errors=True)
        config = self.config(panel, out_dir, **grids)
        gc.collect()
        interval = self.probe.interval()
        try:
            report = self.cr.pipeline.run_pipeline(config)
        except Exception:  # a failed panel is counted, and the run goes on
            self.fail(f"panel {panel.seed}: {traceback.format_exc()}")
            return None
        timing = interval.stop()
        problems = self.checks.check_run(report, panel.panel, out_dir)
        call = Call(panel.seed, timing, self.checks.artifact_digests(out_dir),
                    self.checks.bytes_written(out_dir), report)
        shutil.rmtree(out_dir)
        if problems:
            self.fail(*(f"panel {panel.seed}: {p}" for p in problems))
            return None
        return call

    def fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def run_pass(self, panels: list[Panel], on_call=None) -> list[Call]:
        """Run every panel once, in an order drawn from the seed."""
        calls = []
        for panel in self.rng.sample(panels, len(panels)):
            call = self.run(panel)
            if on_call is not None:
                on_call(panel, call)
            if call is not None:
                calls.append(call)
        return calls

    def check_repeat(self, calls: list[Call], what: str, value) -> None:
        """Record a problem when one panel's value differs between calls."""
        first: dict[int, object] = {}
        for call in calls:
            v = value(call)
            if first.setdefault(call.seed, v) != v:
                self.fail(f"panel {call.seed}: {what} differs between runs")


def end_to_end(bench: Bench, panels: list[Panel], seconds: float) -> dict:
    """Whole passes of the panel set while the next one fits in `seconds`
    (at least one); the end-to-end metrics other than setup and memory."""
    passes: list[list[Call]] = []
    start = time.perf_counter()
    while True:
        calls = bench.run_pass(panels)
        passes.append(calls)
        elapsed = time.perf_counter() - start
        if elapsed + sum(c.timing.raw_wall for c in calls) > seconds or len(calls) < len(panels):
            break
    calls = [c for p in passes for c in p]
    if not calls:
        return {"metrics": {}}
    bench.check_repeat(calls, "artifact digest", lambda c: c.digests)
    first = {c.seed: c for c in passes[0]}
    scores = [bench.checks.recovery(first[p.seed].report, p.truth)
              for p in panels if p.seed in first]
    return {
        "metrics": {
            "pipeline_s": median_of_medians(calls, "wall"),
            "pipeline_cpu_s": median_of_medians(calls, "cpu"),
            "batch_s": statistics.median(sum(c.timing.wall for c in p) for p in passes),
            "partition_recovery": sum(s[0] for s in scores) / len(panels),
            "support_recovery": sum(s[1] for s in scores) / len(panels),
            "forecast_mae": statistics.mean(s[2] for s in scores) if scores else None,
        },
        "passes": len(passes),
        "calls": [(c.seed, vars(c.timing)) for c in calls],
        "digests": {c.seed: c.digests for c in passes[0]},
    }


def per_layer(bench: Bench, panels: list[Panel], warmup: Panel) -> dict:
    """One untraced and one traced pass of the panel set, then two traced
    calls of the warm-up panel, whose exact counters must agree."""
    untraced = bench.run_pass(panels)
    tracer = spans.Tracer()
    traced: list[Call] = []
    recorded: list[dict] = []

    def collect(panel, call):
        taken = tracer.take()
        recorded.append({"panel": panel.seed, "spans": taken})
        if call is not None:
            call.layer = spans.panel_metrics(taken)
            call.layer["dataio.bytes_written"] = call.bytes_written
            traced.append(call)

    tracer.install()
    try:
        bench.run_pass(panels, on_call=collect)
        for _ in range(2):
            collect(warmup, bench.run(warmup, **WARMUP_GRIDS))
    finally:
        tracer.uninstall()
    bench.check_repeat(untraced + traced, "artifact digest", lambda c: c.digests)
    for name in spans.EXACT_COUNTERS:
        bench.check_repeat(traced, name, lambda c: c.layer[name])
    traced = [c for c in traced if c.seed != warmup.seed]
    per_panel = [c.layer for c in traced]
    missing = spans.missing_spans(per_panel) if per_panel else list(spans.SPAN_NAMES)
    if missing:
        bench.fail(f"traced spans recorded no call: {missing}")
    metrics = spans.combine(per_panel) if per_panel else {}
    if traced and untraced:
        metrics["trace.overhead_s"] = (median_of_medians(traced, "wall")
                                       - median_of_medians(untraced, "wall"))
    return {
        "metrics": metrics,
        "calls": [(c.seed, vars(c.timing)) for c in untraced + traced],
        "digests": {c.seed: c.digests for c in untraced},
        "spans": recorded,
    }


def measure(args, bench: Bench) -> tuple[dict, list[speed.Timing]]:
    """The metrics and records of the workload's runs, and the timings of
    the set-up repetitions."""
    try:
        panels, warmup, setup_times = bench.setup()
        # Two warm-up calls, so that every run compares the artifact digests
        # of one panel between calls, also when one pass fills --seconds.
        warm = [bench.run(warmup, **WARMUP_GRIDS) for _ in range(2)]
        bench.check_repeat([c for c in warm if c is not None], "artifact digest",
                           lambda c: c.digests)
        if args.trace:
            result = per_layer(bench, panels, warmup)
        else:
            result = end_to_end(bench, panels, args.seconds)
            result["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return result, setup_times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    for var in THREAD_VARS:
        os.environ[var] = "1"
    load_avg = os.getloadavg()
    probe = speed.SpeedProbe()
    if not args.trace:
        # A traced run reports raw span times: the probe's handler would
        # run inside the spans.
        probe.start()
    try:
        interval = probe.interval()
        clusterreg = import_clusterreg()
        import_timing = interval.stop()
        if clusterreg is None:
            return 2
        bench = Bench(args, clusterreg, probe)
        result, setup_times = measure(args, bench)
    finally:
        probe.stop()

    import numpy  # already imported by clusterreg

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_avg_start": load_avg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_sha256": source_digest(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }

    metrics = result.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = (import_timing.wall
                              + statistics.median(t.wall for t in setup_times))
    if set(metrics) != set(units):
        bench.fail(
            f"metrics {sorted(set(metrics) ^ set(units))} computed or listed but not both")
    record = {
        "provenance": provenance,
        "setup": {"import": vars(import_timing),
                  "generate_write": [vars(t) for t in setup_times]},
        "metrics": metrics,
        "problems": bench.problems,
        **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{bench.tag}.json").write_text(json.dumps(record))
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": min(bench.failed, bench.attempted),
        "metrics": {name: {"value": metrics.get(name), "unit": units[name]}
                    for name in units},
    }))
    return 1 if bench.problems else 0


if __name__ == "__main__":
    sys.exit(main())
