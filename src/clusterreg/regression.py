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
for beta, then restore the intercept from the means. Columns are never
rescaled, so every fit is one that kkt_check checks.

In Gram form every penalty is a problem on one system matrix: with
H = X'X + lam2*I and c = X'y on the centered design, the objective is
b'Hb - 2c'b + lam1*|b|_1 up to a constant (Zou & Hastie 2005, Lemma 1).
The weights pick the solve: least squares at lam1 = lam2 = 0, the closed
form H b = c at lam1 = 0, and otherwise the feature-sign search, which
returns the exact solve of one sign pattern. Only when the search gives
up does coordinate descent run, with the update

    beta_j = soft_threshold(rho_j, lam1 / 2) / H_jj

for column j with partial residual correlation rho_j. Both accept a fit
by _optimality within the kkt_check bound 10*tol*max(1, |2X'y|_inf),
except that the search, whose solves are exact, gives its zero
coordinates only rounding slack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import RegressionError

NONZERO_TOL = 1e-10
PENALTY_KINDS = ("ridge", "lasso", "elastic_net")
_EPS = np.finfo(float).eps


class Moments(NamedTuple):
    """What every fit on one design shares: the column and target means,
    the centered, never rescaled design xc and target yc, the Gram matrix
    xc'xc, the correlations xc'yc, and |2X'y|_inf of the uncentered design,
    the scale of the kkt_check bound. (A NamedTuple: cheaper to define at
    import than a frozen dataclass.)"""

    x_mean: np.ndarray
    y_mean: float
    xc: np.ndarray
    yc: np.ndarray
    gram: np.ndarray
    corr: np.ndarray
    score_max: float


def _compute_moments(d: "DesignMatrix") -> Moments:
    x_mean = d.x.mean(axis=0)
    y_mean = float(d.y.mean())
    xc, yc = d.x - x_mean, d.y - y_mean
    gram, corr = xc.T @ xc, xc.T @ yc
    for shared in (x_mean, xc, yc, gram, corr):
        shared.setflags(write=False)
    score_max = float(np.abs(2.0 * (d.x.T @ d.y)).max())
    return Moments(x_mean, y_mean, xc, yc, gram, corr, score_max)


@dataclass(frozen=True)
class DesignMatrix:
    """Samples-by-regressors design with a target vector and column names."""

    x: np.ndarray  # shape (n, p)
    y: np.ndarray  # shape (n,)
    column_names: tuple[str, ...]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim < 2:
            x = np.atleast_2d(x)
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
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
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

    @cached_property
    def moments(self) -> Moments:
        """The Moments of this design, computed on first read and kept:
        every fit on the design reuses them."""
        return _compute_moments(self)


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
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        beta = np.asarray(self.coefficients, dtype=float).ravel()
        object.__setattr__(self, "coefficients", beta)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if len(self.column_names) != beta.shape[0]:
            raise RegressionError("column name count does not match coefficient count")
        if not (np.isfinite(self.intercept) and np.isfinite(beta).all()):
            raise RegressionError("model parameters must be finite")
        beta.setflags(write=False)

    @property
    def p(self) -> int:
        return self.coefficients.shape[0]

    @property
    def converged(self) -> bool:
        """False only for a fit flagged 'non_converged'."""
        return "non_converged" not in self.flags

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


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0); the coordinate-wise L1 minimizer."""
    if gamma < 0:
        raise RegressionError("gamma must be >= 0")
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def fit_ols(d: DesignMatrix) -> LinearModel:
    """Least squares baseline (no penalty).

    Singular systems fall back to the minimum-norm solution and the model
    is flagged 'singular_system'."""
    return replace(fit_penalized(d, PenaltySpec.ridge(0.0)), penalty=None)


def _solve_pattern(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    active: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray | None:
    """Stationary point of the objective restricted to one sign pattern:
    the solve of H_AA b = c_A - (lam1/2)*s_A, or None when that system is
    singular or its solution is not finite."""
    try:
        b = np.linalg.solve(hess[active[:, None], active], corr[active] - 0.5 * lam1 * signs)
    except np.linalg.LinAlgError:
        return None
    return b if np.isfinite(b).all() else None


def _optimality(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    beta: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The acceptance test's two parts at beta: the largest stationarity
    residual |g_j + lam1*sign(beta_j)| over the nonzero coefficients, and
    the gradient g = -2(corr - hess @ beta) of the smooth part with its
    nonzero entries zeroed. beta passes when the residual and
    max |g_j| - lam1 are both within the kkt_check bound."""
    g = -2.0 * (corr - hess @ beta)
    nonzero = beta != 0.0
    stationarity = np.abs(g[nonzero] + lam1 * np.sign(beta[nonzero]))
    g[nonzero] = 0.0
    return float(stationarity.max(initial=0.0)), g


def _line_search(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    x: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """The point of lowest objective among x, b and the points of the
    segment from x to b where a nonzero coefficient of x reaches zero (set
    exactly to zero there). x wins ties, so a step that cannot lower the
    objective leaves x in place."""
    cross = ((x != 0.0) & (x * b <= 0.0)).nonzero()[0]
    steps = x[cross] / (x[cross] - b[cross])
    points = x + np.outer(np.concatenate(([0.0], steps, [1.0])), b - x)
    points[1 + np.arange(cross.size), cross] = 0.0
    objective = ((points @ hess - 2.0 * corr) * points).sum(axis=1)
    objective += lam1 * np.abs(points).sum(axis=1)
    return points[objective.argmin()]


def _feature_sign_search(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    beta: np.ndarray,
    bound: float,
) -> np.ndarray | None:
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) from the start
    beta: the solve of some sign pattern whose stationarity residual is
    within bound and whose zero coordinates satisfy |g_j| <= lam1 up to
    rounding, or None.

    Each step solves the objective on the current sign pattern. A solve
    that keeps its signs is returned if it passes; otherwise the worst
    inactive KKT violator j joins the pattern with sign -sign(g_j). A
    solve that breaks a sign is approached by _line_search, and the
    coefficients left at zero leave the pattern. The objective never
    rises, so the search ends on a pattern seen before, after 2p steps, on
    a singular H_AA, or when only stationarity fails (no repair applies);
    the caller then goes on with coordinate descent.

    The inactive test allows no iterative slack, since a pattern solve is
    exact: only the rounding of evaluating g_j = -2(c_j - H_j x), whose
    error is at most 2*gamma_(p+1)*(|c_j| + sum_k |H_jk||x_k|) with
    gamma_(p+1) ~ (p+1)*eps/2 (Higham 2002, eq. 3.5). The slack is four
    times that. A slack of bound would keep a copied column at a small
    lam2 inactive, as its |g_j| - lam1 = 2*lam2*|beta| falls within it."""
    p = beta.shape[0]
    rounding = 8.0 * p * _EPS
    abs_hess, abs_corr = np.abs(hess), np.abs(corr)
    x = beta.copy()
    theta = np.sign(x)
    seen = set()
    for _ in range(2 * p):
        key = theta.tobytes()
        if key in seen:
            return None
        seen.add(key)
        active = theta.nonzero()[0]
        signs = theta[active]
        b = _solve_pattern(hess, corr, lam1, active, signs)
        if b is None:
            return None
        if (b * signs > 0).all():
            x = np.zeros(p)
            x[active] = b
            stationarity, g = _optimality(hess, corr, lam1, x)
            excess = np.abs(g) - lam1 - rounding * (abs_corr + abs_hess @ np.abs(x))
            j = int(excess.argmax())
            if excess[j] <= 0.0:
                return x if stationarity <= bound else None
            theta[j] = -np.sign(g[j])
        else:
            x[active] = _line_search(hess[active[:, None], active], corr[active], lam1,
                                     x[active], b)
            theta = np.sign(x)
    return None


def _coordinate_descent(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    tol: float,
    max_iter: int,
    bound: float,
    beta: np.ndarray,
) -> tuple[np.ndarray, bool, int]:
    """Cyclic coordinate descent for b'Hb - 2c'b + lam1*|b|_1 (the
    centered fit) on hess = H and corr = c, from the start beta.

    Stops when the largest coefficient change in a sweep drops below tol
    and the iterate passes _optimality within bound. Coordinates with a
    zero diagonal (centered constants at lam2 = 0) are skipped and keep
    their start value."""
    p = beta.shape[0]
    beta = beta.copy()
    diag = hess.diagonal()
    thresh = lam1 / 2.0
    for sweep in range(max_iter):
        q = hess @ beta  # refreshed each sweep so incremental drift cannot build up
        max_delta = 0.0
        for j in range(p):
            if diag[j] == 0.0:
                continue
            rho = corr[j] - q[j] + diag[j] * beta[j]
            new = soft_threshold(float(rho), thresh) / diag[j]
            delta = new - beta[j]
            if delta != 0.0:
                q += hess[:, j] * delta
                beta[j] = new
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        if max_delta < tol:
            stationarity, g = _optimality(hess, corr, lam1, beta)
            if stationarity <= bound and np.abs(g).max() <= lam1 + bound:
                return beta, True, sweep + 1
    return beta, False, max_iter


@lru_cache(maxsize=8)
def _identity(p: int) -> np.ndarray:
    """The read-only p x p identity that every fit on p columns shares."""
    eye = np.eye(p)
    eye.setflags(write=False)
    return eye


def fit_penalized(
    d: DesignMatrix,
    spec: PenaltySpec,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    start: np.ndarray | None = None,
) -> LinearModel:
    """Fit the penalty a PenaltySpec describes. Its weights, not its kind,
    pick the solve on H = X'X + lam2*I (centered design): least squares at
    lam1 = lam2 = 0 (flagged 'singular_system' on a rank-deficient design,
    where it is the minimum-norm solution), H beta = X'y at lam1 = 0, and
    otherwise the feature-sign search from the coefficients `start` (as
    reported on a model, e.g. the fit at a neighbouring penalty) or zero,
    with coordinate descent from the same point only when the search gives
    up. A descent that does not converge within max_iter sweeps is flagged
    'non_converged' on the model, never silently accepted. tol, max_iter
    and start are checked for every fit."""
    if start is not None and np.shape(start) != (d.p,):
        raise RegressionError(f"start must have shape ({d.p},), got {np.shape(start)}")
    if not 0.0 < tol < np.inf:
        raise RegressionError("tol must be finite and > 0")
    if max_iter < 1:
        raise RegressionError("max_iter must be >= 1")
    m = d.moments
    flags: tuple[str, ...] = ()
    lam1, lam2 = spec.lam1, spec.lam2
    hess = m.gram + lam2 * _identity(d.p)  # also at lam2 = 0: + 0.0 turns a -0.0 into +0.0
    if lam1 == lam2 == 0:
        beta, _, rank, _ = np.linalg.lstsq(m.xc, m.yc, rcond=None)
        if rank < d.p:
            flags = ("singular_system",)
    elif lam1 == 0:
        beta = np.linalg.solve(hess, m.corr)
    else:
        start = np.zeros(d.p) if start is None else np.asarray(start, dtype=float)
        start = np.where(m.gram.diagonal() > 0.0, start, 0.0)  # zero-norm columns stay at zero
        bound = 10.0 * tol * max(1.0, m.score_max)
        beta = _feature_sign_search(hess, m.corr, lam1, start, bound)
        if beta is None:
            beta, converged, _ = _coordinate_descent(hess, m.corr, lam1, tol, max_iter, bound,
                                                     start)
            if not converged:
                flags = ("non_converged",)
    intercept = m.y_mean - float(m.x_mean @ beta)
    return LinearModel(intercept, beta, spec, d.column_names, flags=flags)


def kkt_check(model: LinearModel, d: DesignMatrix) -> float:
    """Largest violation of the subgradient optimality conditions.

    With g_j = -2 x_j'(y - yhat): an L1-penalized coefficient at zero must
    satisfy |g_j| <= lam1 (excess is the violation); a nonzero one must
    satisfy g_j + lam1*sign(beta_j) + 2*lam2*beta_j = 0. Ridge and OLS use
    the smooth stationarity residual."""
    if model.p != d.p:
        raise RegressionError("model and design have different regressor counts")
    residual = d.y - predict(model, d.x)
    g = -2.0 * (d.x.T @ residual)
    penalty = model.penalty
    lam1, lam2 = (0.0, 0.0) if penalty is None else (penalty.lam1, penalty.lam2)
    beta = model.coefficients
    v = np.abs(g + lam1 * np.sign(beta) + 2.0 * lam2 * beta)
    if lam1 > 0:
        v = np.where(beta == 0.0, np.maximum(np.abs(g) - lam1, 0.0), v)
    return float(v.max())


def lasso_lambda_max(d: DesignMatrix) -> float:
    """Smallest L1 weight at which the lasso solution is identically zero:
    max_j |2 x_j'(y - ybar)|."""
    return float(np.max(np.abs(2.0 * d.moments.corr)))


def _paired(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    """y and y_hat as flat float arrays of one nonzero length."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise RegressionError("y and y_hat lengths differ")
    if not y.size:
        raise RegressionError("y and y_hat are empty")
    return y, y_hat


def compute_mse(y, y_hat) -> float:
    """Mean squared difference between observed and predicted values."""
    y, y_hat = _paired(y, y_hat)
    r = y - y_hat
    return float(np.add.reduce(r * r) / r.size)  # np.mean's sum and division


def compute_r2(y, y_hat) -> float:
    """Proportion of target variance explained: 1 - RSS/TSS.

    Raises when the target has zero variance (the ratio is undefined)."""
    y, y_hat = _paired(y, y_hat)
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
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim < 2:
        x_new = np.atleast_2d(x_new)
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
    previous fit's coefficients (the largest from zero; a fit without an L1
    weight ignores the start). Yields (grid index, model); equal values
    keep grid order."""
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
        x_out, y_out = d.x[block], d.y[block]
        for i, model in _warm_descent(train, kind, grid, alpha, tol=tol, max_iter=max_iter):
            fold_mse[i].append(compute_mse(y_out, predict(model, x_out)))
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
    for i, model in _warm_descent(d, kind, grid, alpha, tol=tol, max_iter=max_iter):
        coefs[i] = model.coefficients
        report = fit_report(model, d)
        r2s[i] = report.r2
        mses[i] = report.mse
    return PathReport(tuple(grid), coefs, tuple(r2s), tuple(mses), d.column_names)
