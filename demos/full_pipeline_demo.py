# End-to-end run on a generated panel: clean, cluster, aggregate,
# log-transform, fit the three penalized models, and forecast a holdout
# window. Prints the highlights a report consumer would look at.

import tempfile
from pathlib import Path

import numpy as np

from clusterreg import PipelineConfig, generate_synthetic, run_pipeline, save_panel_long

workdir = Path(tempfile.mkdtemp(prefix="clusterreg_demo_"))

# A 46-entity, 16-feature panel over 2000-2019 with 16 planted clusters
# and a sparse log-linear target over 7 of them.
panel, truth = generate_synthetic(seed=2024)
panel_path = workdir / "panel.csv"
save_panel_long(panel, panel_path)
print("panel written to", panel_path)
print("planted clusters:", truth.n_clusters, "| planted support:", truth.support)

config = PipelineConfig(
    data_path=str(panel_path),
    train_years=list(range(2000, 2015)),
    test_years=list(range(2015, 2020)),
    out_dir=str(workdir / "out"),
)
report = run_pipeline(config)

# The chosen clustering is the sweep's first entry; report.params,
# report.quality and report.assignment read it from there.
print("\n-- clustering --")
print(f"eps={report.params.eps} min_pts={report.params.min_pts} "
      f"clusters={report.assignment.num_clusters} "
      f"sc={report.quality.sc:.4f} sse={report.quality.sse:.4f}")

print("\n-- cluster profiles (first five) --")
print(f"{'id':>3} {'sum':>9} {'mean':>8} {'var':>8} {'median':>8} {'max':>8}")
for p in report.profiles[:5]:
    print(f"{p.cluster_id:>3} {p.total:>9.3f} {p.mean:>8.3f} "
          f"{p.variance:>8.3f} {p.median:>8.3f} {p.maximum:>8.3f}")

print("\n-- fitted models on training years --")
for kind in ("ridge", "lasso", "elastic_net"):
    rep = report.reports[kind]
    lam = report.models[kind].penalty.lam
    print(f"{kind:>12}: lambda={lam:<10.3g} r2={rep.r2:.6f} "
          f"mse={rep.mse:.3e} sparsity={rep.sparsity:.4f}")

lasso = report.models["lasso"]
selected = [name for name, b in zip(lasso.column_names, lasso.coefficients)
            if abs(b) > 1e-10]
print("\nlasso-selected regressors:", selected)

print("\n-- holdout forecast (log scale) --")
for row in report.forecast_rows:
    print(f"  {row['year']}: true={row['true']:.4f} predict={row['predict']:.4f} "
          f"difference={row['difference']:+.4f}")
print(f"mean error={report.mean_error:.6f} sample variance={report.variance:.6f}")

# The conservation identity behind the target: cluster totals add up to
# the panel's grand total in every year.
gap = np.abs(np.asarray(report.regressors).sum(axis=1) - np.asarray(report.target)).max()
print("\nconservation gap:", gap)
print("artifacts in", config.out_dir)
