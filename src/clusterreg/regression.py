"""Penalized linear regression: closed-form ridge, lasso and elastic net by
feature-sign search, with metrics, cross-validated penalty selection, path
tracing, and subgradient optimality checks.

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
returns the solve of one sign pattern. A solve that breaks a sign of its
pattern is repaired at once; only one that keeps them meets the
acceptance test, _pattern_test: stationarity within the kkt_check bound
B = 10*TOL*max(1, |2X'y|_inf) with the fixed TOL = 1e-10, and, as
the solves are direct, not iterative, only rounding slack for the zero
coordinates, worked out only when some zero coordinate has |g_j| > lam1,
the one case in which it can decide. It reads the stationarity residuals
and the zero coordinates' |g_j| off the one vector |g + lam1*sign(b)|. A
search started from the solution it would return (such as the path's row
at the same weights) accepts it on its first step. When the search gives up (a
singular H_AA, or a nearly singular one whose solve breaks a sign and
leads back to a pattern seen before), it is run once more from the same
start with every pattern solved by minimum-norm least squares; so every
fit returned without a 'non_converged' flag passes the one acceptance
test.

Every fit runs through one dispatch, _fit_grid, which fits a whole
penalty grid per design, not per point; fit_penalized is a grid of one
point. It solves every positive ridge weight of the grid in one stacked
solve; the fits with lam1 >= lasso_lambda_max = |2X'y|_inf (centered) as
zero in closed form, which is what the search from zero returns there
(Friedman, Hastie & Tibshirani 2010 start their paths at that point);
and the other fits warm-started down the grid, one by one until their
sign pattern settles and then the run of fits that keep it in one
stacked solve. Each fit equals, bit for bit, the per-point solve at its
weights from the fit before it. cross_validate and iterate_lambda score
all fits of a grid by stacked products, each bit for bit what predict
and compute_mse give for that fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import RegressionError

NONZERO_TOL = 1e-10
TOL = 1e-10  # scales the acceptance bound, see _bound
PENALTY_KINDS = ("ridge", "lasso", "elastic_net")
_EPS = np.finfo(float).eps


class Moments(NamedTuple):
    """What every fit on one design shares: the column and target means,
    the centered, never rescaled design xc and target yc, the Gram matrix
    xc'xc, the correlations xc'yc and their absolute values, and |2X'y|_inf
    of the uncentered design, the scale of the kkt_check bound. (A
    NamedTuple: cheaper to define at import than a frozen dataclass.)"""

    x_mean: np.ndarray
    y_mean: float
    xc: np.ndarray
    yc: np.ndarray
    gram: np.ndarray
    corr: np.ndarray
    abs_corr: np.ndarray
    score_max: float


def _compute_moments(d: "DesignMatrix") -> Moments:
    """The Moments of d; raises when X'X, X'y or |2X'y|_inf overflows,
    since no fit's optimality can then be tested."""
    x_mean = d.x.mean(axis=0)
    y_mean = float(d.y.mean())
    xc, yc = d.x - x_mean, d.y - y_mean
    gram, corr = xc.T @ xc, xc.T @ yc
    score_max = float(np.abs(2.0 * (d.x.T @ d.y)).max())
    if not np.isfinite(gram).all():
        raise RegressionError("X'X of the centered design is not finite")
    if not (np.isfinite(corr).all() and np.isfinite(score_max)):
        raise RegressionError("X'y of the design is not finite")
    abs_corr = np.abs(corr)
    for shared in (x_mean, xc, yc, gram, corr, abs_corr):
        shared.setflags(write=False)
    return Moments(x_mean, y_mean, xc, yc, gram, corr, abs_corr, score_max)


@dataclass(frozen=True)
class DesignMatrix:
    """Samples-by-regressors design with a target vector and column names."""

    x: np.ndarray  # shape (n, p)
    y: np.ndarray  # shape (n,)
    column_names: tuple[str, ...]

    def __post_init__(self):
        x = np.array(self.x, dtype=float)  # own copies, kept read-only: moments stay true
        if x.ndim < 2:
            x = np.atleast_2d(x)
        y = np.array(self.y, dtype=float).ravel()
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
    elastic net with a positive total has a mixing ratio alpha: the one it
    was split by (PenaltySpec.of), else lam1 / (lam1 + lam2). Any other
    spec has alpha None."""

    kind: str
    lam1: float = 0.0
    lam2: float = 0.0
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise RegressionError(f"unknown penalty kind {self.kind!r}")
        if not (0.0 <= self.lam1 < np.inf and 0.0 <= self.lam2 < np.inf):
            raise RegressionError("penalty weights must be finite and >= 0")
        if self.kind == "ridge" and self.lam1:
            raise RegressionError("a ridge penalty has no L1 weight")
        if self.kind == "lasso" and self.lam2:
            raise RegressionError("a lasso penalty has no L2 weight")
        if self.kind != "elastic_net" or self.lam == 0:
            object.__setattr__(self, "alpha", None)
        elif self.alpha is None:
            object.__setattr__(self, "alpha", self.lam1 / self.lam)

    @property
    def lam(self) -> float:
        """The total weight lam1 + lam2."""
        return self.lam1 + self.lam2

    @classmethod
    def of(cls, kind: str, lam: float, alpha: float) -> "PenaltySpec":
        """Spec of one grid point: lam is the weight, or for elastic_net the
        total weight split as lam1 = alpha*lam, lam2 = (1-alpha)*lam. The
        larger share is the product and the smaller is lam less it, which
        is exact (Sterbenz lemma), so lam1 + lam2 == lam. An elastic net
        records alpha as given, which lam1 / lam need not equal."""
        if kind == "ridge":
            return cls(kind, lam2=lam)
        if kind == "lasso":
            return cls(kind, lam1=lam)
        if not 0.0 <= alpha <= 1.0:
            raise RegressionError("alpha must be in [0, 1]")
        alpha = float(alpha)
        if alpha >= 0.5:
            return cls(kind, alpha * lam, lam - alpha * lam, alpha)
        return cls(kind, lam - (1.0 - alpha) * lam, (1.0 - alpha) * lam, alpha)

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
        beta = np.array(self.coefficients, dtype=float).ravel()  # its own copy, kept read-only
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


def fit_ols(d: DesignMatrix) -> LinearModel:
    """Least squares baseline (no penalty).

    Singular systems fall back to the minimum-norm solution and the model
    is flagged 'singular_system'."""
    return replace(fit_penalized(d, PenaltySpec.ridge(0.0)), penalty=None)


class _System(NamedTuple):
    """The smooth part on one design at one lam2: H = X'X + lam2*I, or a
    stack (m, p, p) of them, and c = X'y, with |H| and |c|, which only the
    rounding slack of _pattern_test reads."""

    hess: np.ndarray
    corr: np.ndarray
    abs_hess: np.ndarray
    abs_corr: np.ndarray


def _system(m: Moments, lam2: float | np.ndarray) -> _System:
    """The _System of lam2 (a float, or (m, 1, 1) for a stack) on the
    design of m. H is m.gram + lam2*I also at lam2 = 0, where + 0.0 turns a
    -0.0 into +0.0."""
    hess = m.gram + lam2 * _identity(m.gram.shape[0])
    return _System(hess, m.corr, np.abs(hess), m.abs_corr)


def _solve_pattern(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    active: np.ndarray,
    signs: np.ndarray,
    exact: bool = True,
) -> np.ndarray | None:
    """Stationary point of the objective restricted to one sign pattern:
    the solve of H_AA b = c_A - (lam1/2)*s_A, or, unless exact, its
    minimum-norm least-squares solution; None when the solve raises (for
    the exact solve, a singular system). The caller tests whether b is
    finite."""
    hess_aa, rhs = hess.take(active, 0).take(active, 1), corr.take(active) - 0.5 * lam1 * signs
    try:
        if exact:
            return np.linalg.solve(hess_aa, rhs)
        return np.linalg.lstsq(hess_aa, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None


def _pattern_test(
    system: _System,
    lam1: float | np.ndarray,
    theta: np.ndarray,
    active: np.ndarray,
    b: np.ndarray,
    bound: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The feature-sign search's acceptance test of solves b (..., a) of
    the sign pattern theta (p,), nonzero on the columns `active`, that keep
    its signs, with the L1 weight lam1 (a float, or (m, 1) for a stack of
    m) and system's H one matrix or a stack (..., p, p). Returns the solves
    as coefficient vectors x (..., p); whether each passes: its
    stationarity residual is within bound, and every zero coordinate has
    |g_j| <= lam1 up to rounding; and, for the search's next step, the
    gradient g = -2(c - H x) of the smooth part and the excess |g_j| - lam1
    of the zero coordinates (-inf at the active ones), less the slack
    wherever the slack was worked out. The sign test comes first, in the
    caller: a solve that breaks a sign fails without this test.

    Both tests read v = |g + lam1*theta|: as lam1*theta_j is exactly
    +-lam1 or 0, v holds the stationarity residual |g_j + lam1*s_j| at an
    active column and |g_j| at any other. Each product is one slice's
    matrix-vector product, so a candidate's values do not depend on the
    stack it is in.

    The inactive test allows no iterative slack, since a pattern solve is
    direct, not an iterate: only the rounding of evaluating g_j = -2(c_j - H_j x), whose
    error is at most 2*gamma_(p+1)*(|c_j| + sum_k |H_jk||x_k|) with
    gamma_(p+1) ~ (p+1)*eps/2 (Higham 2002, eq. 3.5). The slack is four
    times that. A slack of bound would keep a copied column at a small
    lam2 inactive, as its |g_j| - lam1 = 2*lam2*|beta| falls within it.
    The slack is >= 0, so it can turn only an excess > 0 into a pass: it is
    worked out only when some excess is > 0 or not a number."""
    hess, corr, abs_hess, abs_corr = system
    p = theta.shape[-1]
    x = np.zeros(b.shape[:-1] + (p,))
    x.T[active] = b.T
    g = -2.0 * (corr - (hess @ x[..., None])[..., 0])
    v = np.abs(g + lam1 * theta)
    stationarity = np.maximum.reduce(v.take(active, -1), axis=-1, initial=0.0)
    excess = v - lam1
    excess.T[active] = -np.inf  # excess[..., active], without the slower Ellipsis index
    if np.maximum.reduce(excess, axis=None) <= 0.0:
        return x, stationarity <= bound, g, excess
    excess -= 8.0 * p * _EPS * (abs_corr + (abs_hess @ np.abs(x)[..., None])[..., 0])
    return x, (stationarity <= bound) & (np.maximum.reduce(excess, axis=-1) <= 0.0), g, excess


def _line_search(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    x: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """The point of lowest objective among the points of the segment from
    x to b where a nonzero coefficient of x reaches zero (set exactly to
    zero there), b and x, the first of them on a tie: a step that zeroes a
    coefficient without raising the objective is taken."""
    cross = ((x != 0.0) & (x * b <= 0.0)).nonzero()[0]
    steps = x[cross] / (x[cross] - b[cross])
    points = x + np.outer(np.concatenate((steps, [1.0, 0.0])), b - x)
    points[np.arange(cross.size), cross] = 0.0
    objective = ((points @ hess - 2.0 * corr) * points).sum(axis=1)
    objective += lam1 * np.abs(points).sum(axis=1)
    return points[objective.argmin()]


def _feature_sign_search(
    system: _System,
    lam1: float,
    beta: np.ndarray,
    bound: float,
    exact: bool = True,
) -> np.ndarray | None:
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) from the start
    beta: the solve of some sign pattern that keeps its signs and passes
    _pattern_test, or None. Each pattern is solved by _solve_pattern with
    `exact`.

    Each step solves the objective on the current sign pattern. A solve
    that keeps its signs is returned if it passes; otherwise the worst
    inactive KKT violator j joins the pattern with sign -sign(g_j). A
    solve that breaks a sign is approached by _line_search, and the
    coefficients left at zero leave the pattern. When only stationarity
    fails, no b solves H_AA b = rhs: a least-squares solve then steps
    along r = rhs - H_AA b, in null(H_AA), on which the objective falls,
    twice as far as the first coefficient r drives to zero (so that one
    surely crosses), and _line_search takes it from there. The objective
    never rises, so a pattern seen before ends the search: it gives up
    there, on a solve that raises or is not finite, or when only
    stationarity fails an exact solve or r breaks no sign."""
    hess, corr = system.hess, system.corr
    x = beta.copy()
    theta = np.sign(x)
    seen = set()
    while True:
        key = theta.tobytes()
        if key in seen:
            return None
        seen.add(key)
        active = theta.nonzero()[0]
        signs = theta[active]
        b = _solve_pattern(hess, corr, lam1, active, signs, exact)
        if b is None:
            return None
        # b*signs is not finite where b is not, and > 0 where b keeps its sign
        bs = b * signs
        low = np.minimum.reduce(bs, initial=np.inf)
        if not (-np.inf < low and np.maximum.reduce(bs, initial=0.0) < np.inf):
            return None
        if low > 0.0:
            x, passes, g, excess = _pattern_test(system, lam1, theta, active, b, bound)
            if passes:
                return x
            j = int(excess.argmax())
            if excess[j] > 0.0:
                theta[j] = -np.sign(g[j])
                continue
            if exact:  # only stationarity fails
                return None
            r = -0.5 * (g[active] + lam1 * signs)  # rhs - H_AA b
            breaks = (r * signs < 0.0).nonzero()[0]
            if not breaks.size:
                return None
            b = b + 2.0 * (b[breaks] / -r[breaks]).min() * r
        x[active] = _line_search(hess.take(active, 0).take(active, 1), corr[active], lam1,
                                 x[active], b)
        theta = np.sign(x)


@lru_cache(maxsize=8)
def _identity(p: int) -> np.ndarray:
    """The read-only p x p identity that every fit on p columns shares."""
    eye = np.eye(p)
    eye.setflags(write=False)
    return eye


def _search(
    system: _System,
    lam1: float,
    start: np.ndarray,
    bound: float,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Coefficients and flags of the fit at lam1 > 0 on the system: the
    fit that the feature-sign search returns from `start`, first with
    exact pattern solves and then with least-squares ones; or, when both
    give up, `start` flagged 'non_converged'."""
    for exact in (True, False):
        beta = _feature_sign_search(system, lam1, start, bound, exact)
        if beta is not None:
            return beta, ()
    return start, ("non_converged",)


def _bound(m: Moments) -> float:
    """The kkt_check bound 10*TOL*max(1, |2X'y|_inf) a fit must meet."""
    return 10.0 * TOL * max(1.0, m.score_max)


def _intercepts(m: Moments, coefs: np.ndarray) -> np.ndarray:
    """The intercepts (k,) that restore the means to the centered fits
    coefs (k, p), each bit for bit y_mean - x_mean @ beta of its fit beta
    alone; raises when one of them or of the coefficients is not
    finite."""
    intercepts = m.y_mean - (m.x_mean @ coefs[:, :, None])[:, 0]
    if not (np.isfinite(intercepts).all() and np.isfinite(coefs).all()):
        raise RegressionError("model parameters must be finite")
    return intercepts


def fit_penalized(
    d: DesignMatrix,
    spec: PenaltySpec,
    start: np.ndarray | None = None,
) -> LinearModel:
    """Fit the penalty a PenaltySpec describes: _fit_grid on the grid of
    its one point, so its weights, not its kind, pick the solve on H =
    X'X + lam2*I (centered design). That is least squares at lam1 = lam2 =
    0 (flagged 'singular_system' on a rank-deficient design, where it is
    the minimum-norm solution), H beta = X'y at lam1 = 0 (a
    RegressionError naming lam2 when H is singular in floating point),
    zero in closed form at lam1 >= lasso_lambda_max, and otherwise the
    feature-sign search from the coefficients `start` (as reported on a
    model, e.g. the fit at a neighbouring penalty) or zero, run once more
    from that start with least-squares pattern solves only when it gives
    up (see _search). A fit neither search finishes is flagged
    'non_converged' on the model, never silently accepted. start is
    checked for every fit."""
    if start is not None and np.shape(start) != (d.p,):
        raise RegressionError(f"start must have shape ({d.p},), got {np.shape(start)}")
    coefs, intercepts, flags = _fit_grid(d, [spec.lam1], [spec.lam2], start)
    return LinearModel(float(intercepts[0]), coefs[0], spec, d.column_names, flags=flags[0])


def _kept_pattern_fits(
    m: Moments,
    lam1s: np.ndarray,
    lam2s: np.ndarray,
    start: np.ndarray,
    bound: float,
) -> np.ndarray:
    """The coefficients (r, p) of the longest run of fits at the weights
    lam1s, lam2s (in descent order, each started from the fit before, the
    first from `start`) whose searches accept the sign pattern of `start`
    on their first step: the solves of that pattern, in one stacked
    np.linalg.solve, that keep its signs and pass _pattern_test, up to the
    first that does not. Each equals, bit for bit, what its search
    returns."""
    theta = np.sign(start)
    active = theta.nonzero()[0]
    signs = theta[active]
    system = _system(m, lam2s[:, None, None])
    rhs = m.corr[active] - (0.5 * lam1s)[:, None] * signs
    try:
        # b is (r, a, 1): numpy 1.x reads an (r, a) b as r vectors, numpy
        # 2.x as one matrix
        b = np.linalg.solve(system.hess.take(active, 1).take(active, 2),
                            rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # some H_AA is singular: its search gives up
        return np.empty((0, start.size))
    fits, passes, _, _ = _pattern_test(system, lam1s[:, None], theta, active, b, bound)
    passes &= np.logical_and.reduce(b * signs > 0.0, axis=-1)
    return fits[:passes.size if passes.all() else passes.argmin()]


def _grid_weights(kind: str, grid: list[float], alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The weights lam1s, lam2s of the grid values, each split and checked
    by PenaltySpec.of."""
    specs = [PenaltySpec.of(kind, lam, alpha) for lam in grid]
    return (np.array([spec.lam1 for spec in specs], dtype=float),
            np.array([spec.lam2 for spec in specs], dtype=float))


def _fit_grid(
    d: DesignMatrix,
    lam1s: np.ndarray | list[float],
    lam2s: np.ndarray | list[float],
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[tuple[str, ...]]]:
    """The coefficients (k, p), intercepts (k,) and flags of the fits at
    the weights lam1s, lam2s (k values each, checked by the caller), in
    their order: every fit the package makes, a single one being a grid of
    one point (as glmnet treats it; Friedman, Hastie & Tibshirani 2010).

    The fits with lam1 = lam2 = 0 are least squares, the minimum-norm
    solution flagged 'singular_system' on a rank-deficient design. The
    fits with lam1 = 0 < lam2 (every positive ridge weight) are one stacked
    np.linalg.solve, bit for bit the solves one at a time; a singular one
    raises a RegressionError naming the first such lam2. The fits with
    lam1 > 0 run in descent order, by lam1 and then lam2 (equal weights
    keep their order), each starting from the previous fit's coefficients,
    the first from `start` with its zero-norm columns set to zero, or from
    zero. The leading ones, with lam1 >= lasso_lambda_max, are zero in
    closed form: there the search from zero accepts the empty pattern at
    once, as every |g_j| = |2c_j| <= lam1, and the solution is unique, so
    no start is searched from. Once two fits in a row keep the sign pattern
    they start from, the later fits are solved on that pattern in one
    stacked solve, and the run of them that passes the search's acceptance
    test is kept: each is the first and accepted step of its own search.
    The fits go on one at a time from the first that fails. (After a single
    kept pattern, mid-path, a stacked solve kept no fit about as often as
    it kept some, and cost more than the searches it saved.) Every fit is
    +0.0 on the zero-norm columns, so it is its own masked start, and H =
    X'X + lam2*I and |H| are built once per lam2 in turn: once per lasso
    grid."""
    lam1s, lam2s = np.asarray(lam1s, dtype=float), np.asarray(lam2s, dtype=float)
    m = d.moments
    coefs = np.empty((lam1s.size, d.p))
    flags: list[tuple[str, ...]] = [()] * lam1s.size
    stacked = ((lam1s == 0) & (lam2s > 0)).nonzero()[0]
    if stacked.size:
        # b is (k, p, 1), as in _kept_pattern_fits
        rhs = np.broadcast_to(m.corr[:, None], (stacked.size, d.p, 1))
        try:
            solved = np.linalg.solve(m.gram + lam2s[stacked, None, None] * _identity(d.p), rhs)
        except np.linalg.LinAlgError:
            for lam2 in lam2s[stacked].tolist():  # name the first singular weight
                try:
                    np.linalg.solve(m.gram + lam2 * _identity(d.p), m.corr)
                except np.linalg.LinAlgError:
                    raise RegressionError(f"X'X + lam2*I is singular at lam2 = {lam2!r}") from None
            raise
        coefs[stacked] = solved[..., 0]
    for i in ((lam1s == 0) & (lam2s == 0)).nonzero()[0].tolist():  # least squares
        coefs[i], _, rank, _ = np.linalg.lstsq(m.xc, m.yc, rcond=None)
        if rank < d.p:
            flags[i] = ("singular_system",)
    order = np.lexsort((-lam2s, -lam1s))  # stable
    order = order[lam1s[order] > 0]
    zeros = np.count_nonzero(lam1s[order] >= lasso_lambda_max(d))
    coefs[order[:zeros]] = 0.0
    if start is None or zeros:
        start = np.zeros(d.p)
    else:  # zero-norm columns stay at zero
        start = np.where(m.gram.diagonal() > 0.0, np.asarray(start, dtype=float), 0.0)
    bound = _bound(m)
    pattern = np.sign(start).tobytes()
    kept = zeros > 0  # whether the last fit kept the sign pattern it started from
    lam1_list, lam2_list = lam1s.tolist(), lam2s.tolist()
    system, system_lam2 = None, None
    k = zeros
    while k < order.size:
        i = order[k]
        if lam2_list[i] != system_lam2:
            system_lam2 = lam2_list[i]
            system = _system(m, system_lam2)
        coefs[i], flags[i] = _search(system, lam1_list[i], start, bound)
        k += 1
        # a -0.0 reads as a changed sign, which only forgoes a stacked solve
        start, was, pattern = coefs[i], pattern, np.sign(coefs[i]).tobytes()
        steady, kept = kept and pattern == was, pattern == was
        if steady and k < order.size:
            run = order[k:]
            fits = _kept_pattern_fits(m, lam1s[run], lam2s[run], start, bound)
            if len(fits):
                run = run[:len(fits)]
                coefs[run] = fits
                k += len(fits)
                start = coefs[run[-1]]
    return coefs, _intercepts(m, coefs), flags


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
    tss = _total_sum_of_squares(y)
    rss = float(np.sum((y - y_hat) ** 2))
    return 1.0 - rss / tss


def _total_sum_of_squares(y: np.ndarray) -> float:
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        raise RegressionError("R^2 undefined: target has zero variance")
    return tss


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


def _grid_rss(
    coefs: np.ndarray,
    intercepts: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """The residual sum of squares on (x, y) of every fit of a grid, each
    bit for bit the sum compute_mse and compute_r2 take of what predict
    gives for that fit."""
    r = y - (intercepts[:, None] + (x[None] @ coefs[:, :, None])[..., 0])
    return np.add.reduce(r * r, axis=1)


def cross_validate(
    d: DesignMatrix,
    kind: str,
    lambda_grid,
    folds: int = 5,
    alpha: float = 0.5,
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
    lam1s, lam2s = _grid_weights(kind, grid, alpha)
    fold_mse = np.empty((len(grid), folds))
    rows = np.arange(d.n)
    for f, block in enumerate(np.array_split(rows, folds)):  # contiguous: the rest is two slices
        train = d.subset(np.concatenate((rows[:block[0]], rows[block[-1] + 1:])))
        coefs, intercepts, _ = _fit_grid(train, lam1s, lam2s)
        fold_mse[:, f] = _grid_rss(coefs, intercepts, d.x[block], d.y[block]) / block.size
    table = list(zip(grid, fold_mse.mean(axis=1).tolist()))
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
) -> PathReport:
    """Fit at every grid value (ascending) and record the trajectories.

    The fits run from the largest lambda down; each lasso or elastic-net
    fit starts from the coefficients of the next larger lambda (the
    largest starts from zero). Every row meets the kkt_check bound
    10*TOL*max(1, |2X'y|_inf) and differs from a cold-started one-off fit
    with the same penalty by at most that bound."""
    grid = [float(v) for v in grid]
    if not grid:
        raise RegressionError("lambda grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise RegressionError("lambda grid must be strictly ascending")
    coefs, intercepts, _ = _fit_grid(d, *_grid_weights(kind, grid, alpha))
    rss = _grid_rss(coefs, intercepts, d.x, d.y)
    r2 = 1.0 - rss / _total_sum_of_squares(d.y)
    return PathReport(tuple(grid), coefs, tuple(r2.tolist()), tuple((rss / d.n).tolist()),
                      d.column_names)
