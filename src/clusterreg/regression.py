"""Penalized linear regression: closed-form ridge, lasso and elastic net by
feature-sign search with a coordinate-descent fallback, with metrics,
cross-validated penalty selection, path tracing, and subgradient
optimality checks.

Objective conventions (shared by every solver and by kkt_check):

    ols:          sum_i (y_i - yhat_i)^2
    ridge:        sum_i (y_i - yhat_i)^2 + lam  * sum_j beta_j^2
    lasso:        sum_i (y_i - yhat_i)^2 + lam  * sum_j |beta_j|
    elastic net:  sum_i (y_i - yhat_i)^2 + lam1 * sum_j |beta_j|
                                         + lam2 * sum_j beta_j^2

The residual sum of squares is unscaled (no 1/n or 1/2 factor), so
penalty weights are comparable across sample sizes at face value. The
intercept is never penalized: fits center y and the columns of X, solve
for beta, then restore the intercept from the means. Columns are not
rescaled unless standardize=True is requested.

A lasso or elastic-net fit is first sought by the feature-sign search,
which returns the exact solve of one sign pattern. Only when the search
gives up does coordinate descent run; its updates follow directly from
the objective: for column j with partial residual correlation rho_j,

    beta_j = soft_threshold(rho_j, lam1 / 2) / (sum_i x_ij^2 + lam2)

which reduces to the lasso update at lam2 = 0 and to a smooth shrinkage
at lam1 = 0. Both accept a fit by one test, _optimality within the
kkt_check bound 10*tol*max(1, |2X'y|_inf).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import RegressionError

NONZERO_TOL = 1e-10
PENALTY_KINDS = ("ridge", "lasso", "elastic_net")


@dataclass(frozen=True)
class DesignMatrix:
    """Samples-by-regressors design with a target vector and column names."""

    x: np.ndarray  # shape (n, p)
    y: np.ndarray  # shape (n,)
    column_names: tuple[str, ...]

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise RegressionError(f"design matrix must be n x p with n,p >= 1, got {x.shape}")
        if y.shape[0] != x.shape[0]:
            raise RegressionError(f"target length {y.shape[0]} != sample count {x.shape[0]}")
        if len(self.column_names) != x.shape[1]:
            raise RegressionError("column name count does not match regressor count")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise RegressionError("design matrix entries must be finite")
        x.setflags(write=False)
        y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def subset(self, rows: np.ndarray) -> "DesignMatrix":
        return DesignMatrix(self.x[rows], self.y[rows], self.column_names)


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty kind plus the weights lam1 of its L1 term and lam2 of its
    squared-L2 term: a ridge carries only lam2, a lasso only lam1. An
    elastic net has the mixing ratio alpha = lam1 / (lam1 + lam2) when the
    total is positive."""

    kind: str
    lam1: float = 0.0
    lam2: float = 0.0

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise RegressionError(f"unknown penalty kind {self.kind!r}")
        if not (0.0 <= self.lam1 < np.inf and 0.0 <= self.lam2 < np.inf):
            raise RegressionError("penalty weights must be finite and >= 0")
        if self.kind == "ridge" and self.lam1:
            raise RegressionError("a ridge penalty has no L1 weight")
        if self.kind == "lasso" and self.lam2:
            raise RegressionError("a lasso penalty has no L2 weight")

    @property
    def lam(self) -> float:
        """The total weight lam1 + lam2."""
        return self.lam1 + self.lam2

    @property
    def alpha(self) -> float | None:
        if self.kind != "elastic_net" or self.lam == 0:
            return None
        return self.lam1 / self.lam

    @classmethod
    def of(cls, kind: str, lam: float, alpha: float) -> "PenaltySpec":
        """Spec of one grid point: lam is the weight, or for elastic_net the
        total weight split as lam1 = alpha*lam, lam2 = (1-alpha)*lam."""
        if kind == "ridge":
            return cls(kind, lam2=lam)
        if kind == "lasso":
            return cls(kind, lam1=lam)
        if not 0.0 <= alpha <= 1.0:
            raise RegressionError("alpha must be in [0, 1]")
        return cls(kind, lam1=alpha * lam, lam2=(1.0 - alpha) * lam)

    @classmethod
    def ridge(cls, lam: float) -> "PenaltySpec":
        return cls("ridge", lam2=lam)

    @classmethod
    def lasso(cls, lam: float) -> "PenaltySpec":
        return cls("lasso", lam1=lam)

    @classmethod
    def elastic_net(cls, lam1: float, lam2: float) -> "PenaltySpec":
        return cls("elastic_net", lam1=lam1, lam2=lam2)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lambda": self.lam,
            "lambda1": self.lam1,
            "lambda2": self.lam2,
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class LinearModel:
    """Fitted intercept and coefficient vector with its penalty."""

    intercept: float
    coefficients: np.ndarray
    penalty: PenaltySpec | None
    column_names: tuple[str, ...]
    converged: bool = True
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        beta = np.asarray(self.coefficients, dtype=float).ravel()
        object.__setattr__(self, "coefficients", beta)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if len(self.column_names) != beta.shape[0]:
            raise RegressionError("column name count does not match coefficient count")
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(beta))):
            raise RegressionError("model parameters must be finite")
        beta.setflags(write=False)

    @property
    def p(self) -> int:
        return self.coefficients.shape[0]

    def to_dict(self) -> dict:
        return {
            "intercept": float(self.intercept),
            "coefficients": {
                name: float(v) for name, v in zip(self.column_names, self.coefficients)
            },
            "penalty": None if self.penalty is None else self.penalty.to_dict(),
            "converged": self.converged,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class FitReport:
    """Training metrics of a fitted model on a design."""

    mse: float
    r2: float
    sparsity: float
    residuals: np.ndarray
    y_hat: np.ndarray
    y_bar: float

    def to_dict(self) -> dict:
        return {
            "mse": float(self.mse),
            "r2": float(self.r2),
            "sparsity": float(self.sparsity),
            "residuals": [float(v) for v in self.residuals],
            "y_hat": [float(v) for v in self.y_hat],
            "y_bar": float(self.y_bar),
        }


@dataclass(frozen=True)
class PathReport:
    """Coefficients and training metrics along an ascending penalty grid."""

    lambdas: tuple[float, ...]
    coefficient_matrix: np.ndarray  # shape (len(lambdas), p)
    r2: tuple[float, ...]
    mse: tuple[float, ...]
    column_names: tuple[str, ...]

    def rows(self) -> list[list]:
        """Rows for the `lambda,<coef names...>,r2,mse` CSV export."""
        out = []
        for i, lam in enumerate(self.lambdas):
            out.append([lam, *self.coefficient_matrix[i].tolist(), self.r2[i], self.mse[i]])
        return out

    def header(self) -> list[str]:
        return ["lambda", *self.column_names, "r2", "mse"]


def _center(d: DesignMatrix, fit_intercept: bool):
    if fit_intercept:
        x_mean = d.x.mean(axis=0)
        y_mean = float(d.y.mean())
        return d.x - x_mean, d.y - y_mean, x_mean, y_mean
    return d.x, d.y, np.zeros(d.p), 0.0


def _scale_columns(xc: np.ndarray):
    scale = xc.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return xc / scale, scale


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0); the coordinate-wise L1 minimizer."""
    if gamma < 0:
        raise RegressionError("gamma must be >= 0")
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def fit_ols(d: DesignMatrix, fit_intercept: bool = True) -> LinearModel:
    """Least squares baseline (no penalty).

    Singular systems fall back to the minimum-norm solution and the model
    is flagged 'singular_system'."""
    return replace(fit_ridge(d, 0.0, fit_intercept=fit_intercept), penalty=None)


def fit_ridge(
    d: DesignMatrix,
    lam: float,
    fit_intercept: bool = True,
    standardize: bool = False,
) -> LinearModel:
    """Closed-form ridge: solves (X'X + lam*I) beta = X'y on centered data."""
    return fit_penalized(d, PenaltySpec.ridge(lam), fit_intercept=fit_intercept,
                         standardize=standardize)


def _solve_pattern(
    gram: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    lam2: float,
    active: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray | None:
    """Stationary point of the objective restricted to one sign pattern:
    the solve of (G_AA + lam2*I) b = c_A - (lam1/2)*s_A, or None when that
    system is singular or its solution is not finite."""
    sub = gram[np.ix_(active, active)] + lam2 * np.eye(active.size)
    try:
        b = np.linalg.solve(sub, corr[active] - 0.5 * lam1 * signs)
    except np.linalg.LinAlgError:
        return None
    return b if np.all(np.isfinite(b)) else None


def _optimality(
    gram: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    lam2: float,
    beta: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The acceptance test's two parts at beta: the largest stationarity
    residual |g_j + lam1*sign(beta_j) + 2*lam2*beta_j| over the nonzero
    coefficients, and the gradient g = -2(corr - gram @ beta) of the
    squared error with its nonzero entries zeroed. beta passes when the
    residual and max |g_j| - lam1 are both within the kkt_check bound."""
    g = -2.0 * (corr - gram @ beta)
    nonzero = beta != 0.0
    stationarity = np.abs(g[nonzero] + lam1 * np.sign(beta[nonzero]) + 2.0 * lam2 * beta[nonzero])
    g[nonzero] = 0.0
    return float(stationarity.max(initial=0.0)), g


def _line_search(
    gram: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    lam2: float,
    x: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """The point of lowest objective among x, b and the points of the
    segment from x to b where a nonzero coefficient of x reaches zero (set
    exactly to zero there). x wins ties, so a step that cannot lower the
    objective leaves x in place."""
    cross = np.flatnonzero((x != 0.0) & (x * b <= 0.0))
    steps = x[cross] / (x[cross] - b[cross])
    points = x + np.outer(np.concatenate(([0.0], steps, [1.0])), b - x)
    points[1 + np.arange(cross.size), cross] = 0.0
    objective = ((points @ gram + lam2 * points - 2.0 * corr) * points).sum(axis=1)
    objective += lam1 * np.abs(points).sum(axis=1)
    return points[np.argmin(objective)]


def _feature_sign_search(
    gram: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    lam2: float,
    beta: np.ndarray,
    bound: float,
) -> np.ndarray | None:
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) from the start
    beta: the solve of some sign pattern that passes _optimality within
    bound, or None.

    Each step solves the objective on the current sign pattern. A solve
    that keeps its signs is returned if it passes; otherwise the worst
    inactive KKT violator j joins the pattern with sign -sign(g_j). A
    solve that breaks a sign is approached by _line_search, and the
    coefficients left at zero leave the pattern. The objective never
    rises, so the search ends on a pattern seen before, after 2p steps, on
    a singular G_AA, or when only stationarity fails (no repair applies);
    the caller then goes on with coordinate descent."""
    p = beta.shape[0]
    x = beta.copy()
    theta = np.sign(x)
    seen = set()
    for _ in range(2 * p):
        key = theta.tobytes()
        if key in seen:
            return None
        seen.add(key)
        active = np.flatnonzero(theta)
        signs = theta[active]
        b = _solve_pattern(gram, corr, lam1, lam2, active, signs)
        if b is None:
            return None
        if np.all(b * signs > 0):
            x = np.zeros(p)
            x[active] = b
            stationarity, g = _optimality(gram, corr, lam1, lam2, x)
            j = int(np.argmax(np.abs(g)))
            if abs(g[j]) <= lam1 + bound:
                return x if stationarity <= bound else None
            theta[j] = -np.sign(g[j])
        else:
            x[active] = _line_search(gram[np.ix_(active, active)], corr[active], lam1, lam2,
                                     x[active], b)
            theta = np.sign(x)
    return None


def _coordinate_descent(
    gram: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    lam2: float,
    tol: float,
    max_iter: int,
    bound: float,
    beta: np.ndarray,
) -> tuple[np.ndarray, bool, int]:
    """Cyclic coordinate descent for RSS + lam1*L1 + lam2*L2 (no intercept)
    on gram = X'X and corr = X'y, from the start beta.

    Stops when the largest coefficient change in a sweep drops below tol
    and the iterate passes _optimality within bound. Zero-norm columns
    (centered constants) are skipped and keep their start value."""
    p = beta.shape[0]
    beta = beta.copy()
    denom = np.diag(gram) + lam2
    thresh = lam1 / 2.0
    for sweep in range(max_iter):
        q = gram @ beta  # refreshed each sweep so incremental drift cannot build up
        max_delta = 0.0
        for j in range(p):
            if denom[j] == 0.0:
                continue
            rho = corr[j] - q[j] + gram[j, j] * beta[j]
            new = soft_threshold(float(rho), thresh) / denom[j]
            delta = new - beta[j]
            if delta != 0.0:
                q += gram[:, j] * delta
                beta[j] = new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        if max_delta < tol:
            stationarity, g = _optimality(gram, corr, lam1, lam2, beta)
            if stationarity <= bound and np.abs(g).max() <= lam1 + bound:
                return beta, True, sweep + 1
    return beta, False, max_iter


def fit_lasso(
    d: DesignMatrix,
    lam: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    fit_intercept: bool = True,
    standardize: bool = False,
) -> LinearModel:
    """L1-penalized fit by feature-sign search, falling back to cyclic
    coordinate descent when the search gives up.

    A fallback that does not converge within max_iter sweeps is flagged on
    the returned model (converged=False, flag 'non_converged'), never
    silently accepted."""
    return fit_penalized(d, PenaltySpec.lasso(lam), tol=tol, max_iter=max_iter,
                         fit_intercept=fit_intercept, standardize=standardize)


def fit_elastic_net(
    d: DesignMatrix,
    lam1: float,
    lam2: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    fit_intercept: bool = True,
    standardize: bool = False,
) -> LinearModel:
    """Combined L1/L2 penalty by feature-sign search, falling back to cyclic
    coordinate descent when the search gives up.

    Reduces exactly to the lasso at lam2=0 and to ridge at lam1=0."""
    return fit_penalized(d, PenaltySpec.elastic_net(lam1, lam2), tol=tol, max_iter=max_iter,
                         fit_intercept=fit_intercept, standardize=standardize)


def fit_penalized(
    d: DesignMatrix,
    spec: PenaltySpec,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    fit_intercept: bool = True,
    standardize: bool = False,
    start: np.ndarray | None = None,
) -> LinearModel:
    """Fit the penalty a PenaltySpec describes.

    Ridge is solved in closed form and ignores tol, max_iter and `start`;
    at lam=0 it is least squares, whose minimum-norm solution on a
    rank-deficient design is flagged 'singular_system'. Lasso and elastic
    net run the feature-sign search from the coefficients `start` (as
    reported on a model, e.g. the fit at a neighbouring penalty) or from
    zero, and coordinate descent from the same point only when the search
    gives up."""
    ridge = spec.kind == "ridge"
    if not ridge:
        if start is not None and np.shape(start) != (d.p,):
            raise RegressionError(f"start must have shape ({d.p},), got {np.shape(start)}")
        if not 0.0 < tol < np.inf:
            raise RegressionError("tol must be finite and > 0")
        if max_iter < 1:
            raise RegressionError("max_iter must be >= 1")
    xc, yc, x_mean, y_mean = _center(d, fit_intercept)
    scale = np.ones(d.p)
    flags: tuple[str, ...] = ()
    if standardize:
        xc, scale = _scale_columns(xc)
        flags = ("standardized",)
    lam1, lam2 = spec.lam1, spec.lam2
    converged = True
    if ridge and lam2 == 0:
        beta, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=None)
        if rank < d.p:
            flags = flags + ("singular_system",)
    elif ridge:
        beta = np.linalg.solve(xc.T @ xc + lam2 * np.eye(d.p), xc.T @ yc)
    else:
        gram, corr = xc.T @ xc, xc.T @ yc
        start = np.zeros(d.p) if start is None else np.asarray(start, dtype=float) * scale
        start = np.where(np.diag(gram) > 0.0, start, 0.0)  # zero-norm columns stay at zero
        bound = 10.0 * tol * max(1.0, float(np.abs(2.0 * (d.x.T @ d.y)).max()))
        beta = _feature_sign_search(gram, corr, lam1, lam2, start, bound)
        if beta is None:
            beta, converged, _ = _coordinate_descent(gram, corr, lam1, lam2, tol, max_iter,
                                                     bound, start)
            if not converged:
                flags = flags + ("non_converged",)
    beta = beta / scale
    intercept = y_mean - float(x_mean @ beta)
    return LinearModel(intercept, beta, spec, d.column_names, converged=converged, flags=flags)


def kkt_check(model: LinearModel, d: DesignMatrix) -> float:
    """Largest violation of the subgradient optimality conditions.

    With g_j = -2 x_j'(y - yhat): an L1-penalized coefficient at zero must
    satisfy |g_j| <= lam1 (excess is the violation); a nonzero one must
    satisfy g_j + lam1*sign(beta_j) + 2*lam2*beta_j = 0. Ridge and OLS use
    the smooth stationarity residual. Applies to unstandardized fits."""
    if model.p != d.p:
        raise RegressionError("model and design have different regressor counts")
    if "standardized" in model.flags:
        raise RegressionError("kkt_check applies to unstandardized fits")
    residual = d.y - predict(model, d.x)
    g = -2.0 * (d.x.T @ residual)
    penalty = model.penalty
    lam1, lam2 = (0.0, 0.0) if penalty is None else (penalty.lam1, penalty.lam2)
    beta = model.coefficients
    v = np.abs(g + lam1 * np.sign(beta) + 2.0 * lam2 * beta)
    if lam1 > 0:
        v = np.where(beta == 0.0, np.maximum(np.abs(g) - lam1, 0.0), v)
    return float(v.max())


def lasso_lambda_max(d: DesignMatrix, fit_intercept: bool = True) -> float:
    """Smallest L1 weight at which the lasso solution is identically zero:
    max_j |2 x_j'(y - ybar)|."""
    xc, yc, _, _ = _center(d, fit_intercept)
    return float(np.max(np.abs(2.0 * (xc.T @ yc))))


def compute_mse(y, y_hat) -> float:
    """Mean squared difference between observed and predicted values."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise RegressionError("y and y_hat lengths differ")
    return float(np.mean((y - y_hat) ** 2))


def compute_r2(y, y_hat) -> float:
    """Proportion of target variance explained: 1 - RSS/TSS.

    Raises when the target has zero variance (the ratio is undefined)."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise RegressionError("y and y_hat lengths differ")
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        raise RegressionError("R^2 undefined: target has zero variance")
    rss = float(np.sum((y - y_hat) ** 2))
    return 1.0 - rss / tss


def compute_sparsity(model: LinearModel) -> float:
    """Fraction of coefficients with |beta_j| > 1e-10."""
    return float(np.count_nonzero(np.abs(model.coefficients) > NONZERO_TOL)) / model.p


def predict(model: LinearModel, x_new) -> np.ndarray:
    """yhat = intercept + x_new @ beta for rows of width p."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x_new.shape[1] != model.p:
        raise RegressionError(
            f"prediction rows have width {x_new.shape[1]}, model expects {model.p}"
        )
    return model.intercept + x_new @ model.coefficients


def fit_report(model: LinearModel, d: DesignMatrix) -> FitReport:
    """Training metrics (MSE, R^2, sparsity, residuals) of a model on d."""
    y_hat = predict(model, d.x)
    residuals = d.y - y_hat
    return FitReport(
        mse=compute_mse(d.y, y_hat),
        r2=compute_r2(d.y, y_hat),
        sparsity=compute_sparsity(model),
        residuals=residuals,
        y_hat=y_hat,
        y_bar=float(d.y.mean()),
    )


def _warm_descent(d: DesignMatrix, kind: str, grid: list[float], alpha: float, **solver):
    """Fit every grid value from the largest down, each fit starting from the
    previous fit's coefficients (the largest from zero; ridge ignores the
    start). Yields (grid index, model); equal values keep grid order."""
    start = None
    for i in sorted(range(len(grid)), key=lambda i: -grid[i]):
        model = fit_penalized(d, PenaltySpec.of(kind, grid[i], alpha), start=start, **solver)
        start = model.coefficients
        yield i, model


def cross_validate(
    d: DesignMatrix,
    kind: str,
    lambda_grid,
    folds: int = 5,
    alpha: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    fit_intercept: bool = True,
    standardize: bool = False,
) -> tuple[PenaltySpec, list[tuple[float, float]]]:
    """Pick the penalty weight minimizing mean validation MSE.

    Folds are contiguous blocks in sample order (the samples are ordered
    years, so shuffling would leak time structure). Ties break toward the
    larger lambda. For elastic_net the grid holds total weights split as
    lam1 = alpha*total, lam2 = (1-alpha)*total. Returns the winning spec
    and the full (lambda, cv_mse) table in grid order.

    Within each fold the grid is fitted from the largest lambda down, and
    every lasso or elastic-net fit starts from the previous fit's
    coefficients (the largest starts from zero). Each fit still meets the
    kkt_check bound and agrees with a cold-started fit within it."""
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise RegressionError("lambda grid is empty")
    if folds < 2:
        raise RegressionError("folds must be >= 2")
    if d.n < folds:
        raise RegressionError(f"need at least {folds} samples for {folds} folds, got {d.n}")
    fold_mse: list[list[float]] = [[] for _ in grid]
    for block in np.array_split(np.arange(d.n), folds):
        train = d.subset(np.setdiff1d(np.arange(d.n), block))
        for i, model in _warm_descent(train, kind, grid, alpha, tol=tol, max_iter=max_iter,
                                      fit_intercept=fit_intercept, standardize=standardize):
            fold_mse[i].append(compute_mse(d.y[block], predict(model, d.x[block])))
    table = [(lam, float(np.mean(m))) for lam, m in zip(grid, fold_mse)]
    best_lam, best_mse = table[0]
    for lam, m in table[1:]:
        if m < best_mse or (m == best_mse and lam > best_lam):
            best_lam, best_mse = lam, m
    return PenaltySpec.of(kind, best_lam, alpha), table


def iterate_lambda(
    d: DesignMatrix,
    kind: str,
    grid,
    alpha: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    fit_intercept: bool = True,
    standardize: bool = False,
) -> PathReport:
    """Fit at every grid value (ascending) and record the trajectories.

    The fits run from the largest lambda down; each lasso or elastic-net
    fit starts from the coefficients of the next larger lambda (the
    largest starts from zero). Every row meets the kkt_check bound
    10*tol*max(1, |2X'y|_inf) and differs from a cold-started one-off fit
    with the same penalty by at most that bound."""
    grid = [float(v) for v in grid]
    if not grid:
        raise RegressionError("lambda grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise RegressionError("lambda grid must be strictly ascending")
    coefs = np.zeros((len(grid), d.p))
    r2s = [0.0] * len(grid)
    mses = [0.0] * len(grid)
    for i, model in _warm_descent(d, kind, grid, alpha, tol=tol, max_iter=max_iter,
                                  fit_intercept=fit_intercept, standardize=standardize):
        coefs[i] = model.coefficients
        report = fit_report(model, d)
        r2s[i] = report.r2
        mses[i] = report.mse
    return PathReport(tuple(grid), coefs, tuple(r2s), tuple(mses), d.column_names)
