# Penalized regression tour: how ridge, lasso, and elastic net behave as
# the penalty weight grows, how cross-validation picks a weight, and how
# the KKT check certifies a solution.

import numpy as np

from clusterreg import (
    DesignMatrix,
    PenaltySpec,
    cross_validate,
    fit_ols,
    fit_penalized,
    fit_report,
    iterate_lambda,
    kkt_check,
    lasso_lambda_max,
)

# A small correlated design with a sparse truth: only two of five columns
# carry signal, and two columns are near-copies of each other.
rng = np.random.default_rng(42)
n = 40
base = rng.normal(size=(n, 3))
x = np.column_stack([base[:, 0], base[:, 0] + 0.05 * rng.normal(size=n),
                     base[:, 1], base[:, 2], rng.normal(size=n)])
y = 1.5 * x[:, 0] - 2.0 * x[:, 3] + 0.7 + 0.1 * rng.normal(size=n)
d = DesignMatrix(x, y, ("a", "a_copy", "b", "c", "noise"))

ols = fit_ols(d)
print("OLS coefficients:", np.round(ols.coefficients, 3))
print("OLS R^2:", round(fit_report(ols, d).r2, 4))

# Every penalized fit goes through fit_penalized; its PenaltySpec names the
# kind and the weights (PenaltySpec.ridge(lam), .lasso(lam),
# .elastic_net(lam1, lam2)).
# Ridge shrinks smoothly; the coefficient norm decreases monotonically.
print("\nridge shrinkage (lambda: ||beta||):")
for lam in (0.0, 0.5, 5.0, 50.0):
    m = fit_penalized(d, PenaltySpec.ridge(lam))
    print(f"  {lam:>5}: {np.linalg.norm(m.coefficients):.4f}")

# The lasso reaches exact zeros. Past lambda_max everything is zero.
lam_max = lasso_lambda_max(d)
print("\nlasso lambda_max:", round(lam_max, 3))
for lam in (0.01, 1.0, lam_max * 1.1):
    m = fit_penalized(d, PenaltySpec.lasso(lam))
    nonzero = [name for name, b in zip(d.column_names, m.coefficients)
               if abs(b) > 1e-10]
    print(f"  lambda={lam:<8.3g} nonzero={nonzero}")

# Trajectories along an ascending grid (the data behind a path plot).
grid = [float(v) for v in np.logspace(-3, np.log10(lam_max * 1.2), 12)]
path = iterate_lambda(d, "lasso", grid)
print("\nlasso path (lambda, nonzero count, training R^2):")
for i, lam in enumerate(path.lambdas):
    k = int(np.count_nonzero(np.abs(path.coefficient_matrix[i]) > 1e-10))
    print(f"  {lam:9.4f}  {k}  {path.r2[i]:.4f}")

# Cross-validation picks the weight with the lowest held-out error, using
# contiguous blocks because samples are ordered.
spec, table = cross_validate(d, "lasso", grid, folds=5)
print("\ncross-validated lambda:", round(spec.lam, 4))

best = fit_penalized(d, PenaltySpec.lasso(spec.lam))
print("selected coefficients:",
      {name: round(float(b), 3) for name, b in zip(d.column_names, best.coefficients)})

# kkt_check certifies optimality of the printed objective: near zero for a
# converged fit, clearly positive for a perturbed one.
print("\nKKT violation at the solution:", f"{kkt_check(best, d):.2e}")
perturbed = type(best)(intercept=best.intercept,
                       coefficients=best.coefficients + 0.05,
                       penalty=best.penalty,
                       column_names=best.column_names)
print("KKT violation after perturbing:", f"{kkt_check(perturbed, d):.2e}")

# Elastic net splits the weight between the two penalties; at matched
# settings it reduces exactly to its parents.
enet = fit_penalized(d, PenaltySpec.elastic_net(spec.lam, 0.0))
print("\nelastic net with lam2=0 equals the lasso:",
      bool(np.allclose(enet.coefficients, best.coefficients, atol=1e-8)))

# With an exact copy of a column the L2 term splits the weight evenly
# between the copies (the grouping effect), however small lam2 is.
twins = DesignMatrix(np.column_stack([x[:, 0], x[:, 0], x[:, 3]]), y, ("a", "a_twin", "c"))
split = fit_penalized(twins, PenaltySpec.elastic_net(spec.lam, 1e-8)).coefficients
print("elastic net (lam2=1e-8) on an exact copy:", np.round(split, 4))
