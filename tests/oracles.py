"""Independent brute-force oracles used to cross-check the solvers.

Everything here is derived directly from the printed objective and
definitions, not from the package implementation: penalized fits are
minimized by multi-stage dense grid search over the coefficients, and
density clustering is reproduced by explicit neighborhood enumeration
plus union-find over core points. region_query is an exception: it reads
one point's neighbourhood through the package's one distance routine, so
that its count is the one dbscan's core flag sees. The grid references at
the end are another: they replay a penalty grid one fit at a time through
the per-point dispatch the package had before every fit ran through its
grid solver, which that solver must reproduce bit for bit. So is
the reference feature-sign search after them, a copy of the package's
search in a form that spends more numpy calls per step, whose every result
the package's search must return bit for bit. enumerated_minimum, beside
grid_minimize, is the exact minimum of a small fit, found by solving every
sign pattern and sharing no step with the search; collinear_designs builds
the corpus of near-singular designs on which the search's least-squares
retry is tested. Last come the config checks as they stood before each field's
facts moved into one row of one table.
"""

from __future__ import annotations

import configparser
import itertools
import math
import numbers
import operator
import os
from dataclasses import asdict
from functools import partial

import numpy as np

from clusterreg import clustering, regression
from clusterreg.errors import ClusterRegError, ConfigError
from clusterreg.pipeline import _finite, parse_grid, parse_years


def penalized_objective(x, y, intercept, beta, lam1, lam2):
    """RSS + lam1*sum|beta| + lam2*sum(beta^2), with an explicit intercept."""
    beta = np.asarray(beta, dtype=float)
    resid = y - intercept - x @ beta
    return float(resid @ resid + lam1 * np.abs(beta).sum() + lam2 * (beta**2).sum())


def best_intercept(x, y, beta):
    """Optimal intercept for fixed beta: mean residual (calculus on a)."""
    return float(np.mean(y - x @ np.asarray(beta, dtype=float)))


def grid_minimize(x, y, lam1, lam2, final_spacing=2.5e-4):
    """Dense-grid minimizer of the penalized objective, refined in stages.

    Each stage evaluates a 13-point-per-axis coordinate grid and halves
    the window around the best point until the spacing drops below
    final_spacing. Returns (intercept, beta, objective)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = x.shape[1]
    ls_beta = np.linalg.lstsq(np.c_[np.ones(len(y)), x], y, rcond=None)[0][1:]
    span = 2.0 * max(1.0, float(np.abs(ls_beta).max(initial=0.0)))
    center = np.zeros(p)
    spacing = span / 6.0
    offsets = np.arange(-6, 7, dtype=float)
    while True:
        axes = [center[j] + spacing * offsets for j in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)  # (13^p, p)
        resid = y[:, None] - x @ grid.T
        resid = resid - resid.mean(axis=0, keepdims=True)
        values = (
            (resid**2).sum(axis=0)
            + lam1 * np.abs(grid).sum(axis=1)
            + lam2 * (grid**2).sum(axis=1)
        )
        center = grid[int(np.argmin(values))]
        if spacing <= final_spacing:
            break
        spacing /= 2.0
    a = best_intercept(x, y, center)
    return a, center, penalized_objective(x, y, a, center, lam1, lam2)


def enumerated_minimum(x, y, lam1, lam2):
    """Exact minimizer of the penalized objective, for lam1 > 0 or lam2 > 0,
    by enumerating the 3^p sign patterns s. With H = X'X + lam2*I and c =
    X'y on the centered design, each pattern whose H_AA has full rank is
    solved, H_AA b = c_A - (lam1/2)*s_A; a solve that keeps the signs of s
    is the minimizer on that pattern's face. The least objective among
    those and zero's is the minimum: with lam2 > 0 every H_AA is
    nonsingular, and at lam2 = 0 < lam1 some lasso minimizer has linearly
    independent active columns (Tibshirani 2013, "The Lasso Problem and
    Uniqueness"), so its face is one that is solved. The
    precondition is that case split; least squares (lam1 = lam2 = 0) is
    np.linalg.lstsq's. Returns (intercept, beta, objective)."""
    if not (lam1 > 0 or lam2 > 0):
        raise ValueError("enumerated_minimum needs lam1 > 0 or lam2 > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc, yc = x - x.mean(axis=0), y - y.mean()
    hess = xc.T @ xc + lam2 * np.eye(x.shape[1])
    corr = xc.T @ yc
    candidates = [np.zeros(x.shape[1])]
    for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=x.shape[1]):
        s = np.array(pattern)
        active = s.nonzero()[0]
        hess_aa = hess[np.ix_(active, active)]
        if not active.size or np.linalg.matrix_rank(hess_aa) < active.size:
            continue
        b = np.linalg.solve(hess_aa, corr[active] - 0.5 * lam1 * s[active])
        if (b * s[active] > 0).all():
            beta = np.zeros(x.shape[1])
            beta[active] = b
            candidates.append(beta)
    best = None
    for beta in candidates:
        a = best_intercept(x, y, beta)
        value = penalized_objective(x, y, a, beta, lam1, lam2)
        if best is None or value < best[2]:
            best = a, beta, value
    return best


def brute_dbscan(values, eps, min_pts):
    """Direct enumeration of the density clustering structure.

    Returns (core: set of indices,
             core_components: list of frozensets partitioning the cores,
             border_allowed: dict non-core index -> set of component ids
                             it may join (adjacent cores' components),
             noise: set of indices)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    dist = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).sum(axis=2))
    neighbors = [set(np.nonzero(dist[i] <= eps)[0].tolist()) for i in range(n)]
    core = {i for i in range(n) if len(neighbors[i]) >= min_pts}

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in core:
        for j in neighbors[i]:
            if j in core:
                union(i, j)
    roots: dict[int, set[int]] = {}
    for i in core:
        roots.setdefault(find(i), set()).add(i)
    core_components = [frozenset(s) for s in roots.values()]
    comp_of_core = {}
    for k, comp in enumerate(core_components):
        for i in comp:
            comp_of_core[i] = k

    border_allowed: dict[int, set[int]] = {}
    noise = set()
    for i in range(n):
        if i in core:
            continue
        adjacent = {comp_of_core[j] for j in neighbors[i] if j in core}
        if adjacent:
            border_allowed[i] = adjacent
        else:
            noise.add(i)
    return core, core_components, border_allowed, noise


def check_dbscan_against_oracle(values, eps, min_pts, assignment) -> None:
    """Assert a ClusterAssignment matches the brute-force structure."""
    core, components, border_allowed, noise = brute_dbscan(values, eps, min_pts)
    labels = list(assignment.labels)
    flags = list(assignment.core_flags)

    assert {i for i, f in enumerate(flags) if f} == core, "core flags differ"
    # partition of core points equals the connected components
    got = {}
    for i in core:
        got.setdefault(labels[i], set()).add(i)
    assert set(map(frozenset, got.values())) == set(components), "core partition differs"
    comp_label = {}
    for lab, members in got.items():
        comp_label[components.index(frozenset(members))] = lab
    for i, allowed in border_allowed.items():
        assert labels[i] in {comp_label[k] for k in allowed}, f"border {i} mislabeled"
    for i in noise:
        assert labels[i] == -1, f"point {i} should be noise"
    for i in border_allowed:
        assert labels[i] != -1, f"border {i} wrongly marked noise"


def region_query(points, index: int, eps: float) -> list[int]:
    """Indices (self included, ascending) within Euclidean distance eps of
    the row `index` of a FeatureMatrix, by the distance routine dbscan
    uses, with its eps check."""
    from clusterreg import clustering

    n = len(points.entities)
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for {n} points")
    clustering._check_eps(eps)
    d = clustering._distances(points.values[index:index + 1], points.values)[0]
    return np.flatnonzero(d <= eps).tolist()


def silhouette_by_hand(values, labels):
    """Per-point silhouette by direct loops over the definition.

    labels: cluster id per point, -1 for noise (excluded). Singleton
    clusters score 0. Returns (per-point list over scored points, mean)."""
    values = np.asarray(values, dtype=float)
    scored = [i for i, l in enumerate(labels) if l != -1]
    out = []
    for i in scored:
        own = [j for j in scored if labels[j] == labels[i] and j != i]
        others = sorted({labels[j] for j in scored} - {labels[i]})
        b = min(
            float(np.mean([np.linalg.norm(values[i] - values[j])
                           for j in scored if labels[j] == c]))
            for c in others
        )
        if not own:
            out.append(0.0)
            continue
        a = float(np.mean([np.linalg.norm(values[i] - values[j]) for j in own]))
        out.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return out, float(np.mean(out))


def silhouette_loop(dist, labels):
    """Per-point silhouette over a given distance matrix, one point and one
    cluster at a time: a is the summed distance to the rest of the point's
    cluster over its size minus one, b the smallest mean distance to another
    cluster. Noise (-1) is excluded and singletons score 0. The arithmetic
    follows the definition term by term, so an array implementation that
    sums the same distances in the same order must match it exactly.
    Returns (per-point list over scored points, mean)."""
    labels = np.asarray(labels)
    ids = sorted(set(labels.tolist()) - {-1})
    members = {c: np.flatnonzero(labels == c) for c in ids}
    out = []
    for i in np.flatnonzero(labels != -1):
        own = members[labels[i]]
        b = min(float(dist[i, members[c]].mean()) for c in ids if c != labels[i])
        if len(own) == 1:
            out.append(0.0)
            continue
        a = float(dist[i, own].sum() / (len(own) - 1))
        out.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return out, float(np.mean(out))


def random_instance(rng, max_n=8, max_p=3, cond_cap=10.0):
    """Random small regression instance with a conditioning cap.

    The cap keeps the grid oracle's refinement windows honest (badly
    elongated valleys would need wider windows than the refinement uses)."""
    while True:
        n = int(rng.integers(3, max_n + 1))
        p = int(rng.integers(1, min(max_p, n - 2) + 1))
        x = rng.normal(size=(n, p))
        xc = x - x.mean(axis=0)
        sv = np.linalg.svd(xc, compute_uv=False)
        if sv[-1] <= 1e-9 or sv[0] / sv[-1] > cond_cap:
            continue
        beta = rng.normal(size=p) * (rng.random(p) < 0.7)
        y = x @ beta + rng.normal() + 0.3 * rng.normal(size=n)
        return x, y


def collinear_designs(seed, count):
    """The first `count` designs of a collinear corpus, each 16 columns on
    15, 30 or 60 rows (in turn): 8 Gaussian columns, then 8 more, each an
    exact copy of one of them, a scaled copy plus 1e-8 noise, a copy plus
    noise at 10^U(-15, -4), the exact combination a - 0.3b, or a constant.
    The target is sparse in the 16 columns (4 nonzero weights) plus noise
    at 0.1. Near-copies make pattern solves that np.linalg.solve does not
    refuse but whose H_AA has condition 1e15 or more; exact copies and
    combinations make singular ones."""
    from clusterreg.regression import DesignMatrix

    rng = np.random.default_rng(seed)
    designs = []
    for i in range(count):
        n = (15, 30, 60)[i % 3]
        base = rng.normal(size=(n, 8))
        columns = []
        for _ in range(8):
            kind = rng.integers(5)
            a = base[:, rng.integers(8)]
            b = base[:, rng.integers(8)]
            if kind == 0:
                columns.append(a)
            elif kind == 1:
                columns.append(rng.uniform(0.5, 3) * a + 1e-8 * rng.normal(size=n))
            elif kind == 2:
                columns.append(a + 10 ** rng.uniform(-15, -4) * rng.normal(size=n))
            elif kind == 3:
                columns.append(a - 0.3 * b)
            else:
                columns.append(np.full(n, rng.normal()))
        x = np.column_stack([base, *columns])
        beta = np.zeros(16)
        beta[rng.choice(16, 4, replace=False)] = rng.normal(size=4)
        y = x @ beta + 0.1 * rng.normal(size=n)
        designs.append(DesignMatrix(x, y, tuple(f"c{j}" for j in range(16))))
    return designs


def collinear_grid(d):
    """The (lam1s, lam2s) pairs each collinear design is fitted on: 28 lasso
    weights from lasso_lambda_max down to 1e-6 of it, at lam2 = 0 and at
    lam2 = 1e-6 * max diag(X'X) of the centered design."""
    from clusterreg.regression import lasso_lambda_max

    lam1s = lasso_lambda_max(d) * np.logspace(0, -6, 28)
    small = 1e-6 * float(d.moments.gram.diagonal().max())
    return [(lam1s, np.full(28, lam2)) for lam2 in (0.0, small)]


def kkt_loop(model, d):
    """Largest violation of the subgradient optimality conditions, one
    coefficient at a time: with g_j = -2 x_j'(y - yhat), a zero coefficient
    under an L1 weight violates by max(|g_j| - lam1, 0), any other by
    |g_j + lam1*sign(beta_j) + 2*lam2*beta_j|."""
    residual = d.y - (model.intercept + d.x @ model.coefficients)
    g = -2.0 * (d.x.T @ residual)
    penalty = model.penalty
    lam1, lam2 = (0.0, 0.0) if penalty is None else (penalty.lam1, penalty.lam2)
    worst = 0.0
    for j in range(d.p):
        beta_j = model.coefficients[j]
        if lam1 > 0 and beta_j == 0.0:
            v = max(abs(g[j]) - lam1, 0.0)
        else:
            v = abs(g[j] + lam1 * np.sign(beta_j) + 2.0 * lam2 * beta_j)
        worst = max(worst, float(v))
    return worst


def _solve(d, lam1, lam2, start):
    """Coefficients, intercept and flags of one fit, by the per-point
    dispatch the package had before a single fit became a one-point grid:
    least squares at lam1 = lam2 = 0, the ridge solve at lam1 = 0, and
    otherwise the package's search from `start` with its zero-norm columns
    set to zero, even where lam1 >= lasso_lambda_max."""
    from clusterreg import regression

    m = d.moments
    flags = ()
    if lam1 == lam2 == 0:
        beta, _, rank, _ = np.linalg.lstsq(m.xc, m.yc, rcond=None)
        if rank < d.p:
            flags = ("singular_system",)
    elif lam1 == 0:
        beta = np.linalg.solve(m.gram + lam2 * _identity(d.p), m.corr)
    else:
        start = np.where(m.gram.diagonal() > 0.0, start, 0.0)  # zero-norm columns stay at zero
        beta, flags = regression._search(regression._hess(m, lam2), m.corr, lam1, start,
                                         regression._bound(m))
    return beta, m.y_mean - float(m.x_mean @ beta), flags


def warm_descent(d, kind, grid, alpha):
    """The models of one grid in grid order, fitted one _solve call at a
    time from the largest value down, each from the previous fit's
    coefficients (the largest from zero; equal values keep grid order)."""
    from clusterreg.regression import LinearModel, PenaltySpec

    models = [None] * len(grid)
    start = np.zeros(d.p)
    for i in sorted(range(len(grid)), key=lambda i: -grid[i]):
        spec = PenaltySpec.of(kind, grid[i], alpha)
        beta, intercept, flags = _solve(d, spec.lam1, spec.lam2, start)
        models[i] = LinearModel(intercept, beta, spec, d.column_names, flags=flags)
        start = models[i].coefficients
    return models


def cv_table_loop(d, kind, grid, folds, alpha):
    """The (lambda, mean validation MSE) table of contiguous-block CV, each
    fold's grid fitted by warm_descent and scored by predict and
    compute_mse."""
    from clusterreg.regression import compute_mse, predict

    fold_mse = [[] for _ in grid]
    rows = np.arange(d.n)
    for block in np.array_split(rows, folds):
        train = d.subset(np.setdiff1d(rows, block))
        for i, model in enumerate(warm_descent(train, kind, grid, alpha)):
            fold_mse[i].append(compute_mse(d.y[block], predict(model, d.x[block])))
    return [(lam, float(np.mean(m))) for lam, m in zip(grid, fold_mse)]


def path_scores_loop(d, kind, grid, alpha):
    """The (r2, mse) lists of a path, each fit of warm_descent scored by
    fit_report."""
    from clusterreg.regression import fit_report

    reports = [fit_report(m, d) for m in warm_descent(d, kind, grid, alpha)]
    return [r.r2 for r in reports], [r.mse for r in reports]


# The feature-sign search, its acceptance test and the stacked run of kept
# patterns in their reference form, as they stood before the package's
# pattern test read the stationarity residuals and the inactive |g_j| off
# one vector, and worked the slack out only where it can decide. Here every
# step computes both from separate vectors and the slack in full. The
# package's search must return the same None or the same coefficients, and
# its stacked run keep the same rows.
_EPS = np.finfo(float).eps


def _identity(p):
    return np.eye(p)


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
    lam1: float | np.ndarray,
    x: np.ndarray,
    active: np.ndarray,
    signs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of the acceptance tests at candidates x (..., p) that
    are nonzero on the columns `active` with the signs `signs`, with the L1
    weight lam1 (a float, or (m, 1) for a stack of m) on hess (..., p, p):
    the largest stationarity residual |g_j + lam1*s_j| over the active
    columns, and the gradient g = -2(corr - hess @ x) of the smooth part
    with its active entries zeroed. Each product is one slice's
    matrix-vector product, so a candidate's values do not depend on the
    stack it is in."""
    g = -2.0 * (corr - (hess @ x[..., None])[..., 0])
    stationarity = np.maximum.reduce(np.abs(g.take(active, -1) + lam1 * signs), axis=-1,
                                     initial=0.0)
    g.T[active] = 0.0  # g[..., active], without the slower Ellipsis index
    return stationarity, g


def _pattern_test(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float | np.ndarray,
    active: np.ndarray,
    signs: np.ndarray,
    b: np.ndarray,
    bound: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The feature-sign search's acceptance test of solves b (..., a) of
    the sign pattern (active, signs) that keep its signs, with lam1 and
    hess as _optimality takes them. Returns the solves as coefficient
    vectors x (..., p); whether each passes: its stationarity residual is
    within bound, and every zero coordinate has |g_j| <= lam1 up to
    rounding; and, for the search's next step, the gradient g with the
    active entries zeroed and the excess |g_j| - lam1 - slack of the zero
    coordinates. The sign test comes first, in the caller: a solve that
    breaks a sign fails without this test.

    The inactive test allows no iterative slack, since a pattern solve is
    exact: only the rounding of evaluating g_j = -2(c_j - H_j x), whose
    error is at most 2*gamma_(p+1)*(|c_j| + sum_k |H_jk||x_k|) with
    gamma_(p+1) ~ (p+1)*eps/2 (Higham 2002, eq. 3.5). The slack is four
    times that. A slack of bound would keep a copied column at a small
    lam2 inactive, as its |g_j| - lam1 = 2*lam2*|beta| falls within it."""
    p = hess.shape[-1]
    x = np.zeros(b.shape[:-1] + (p,))
    x.T[active] = b.T
    stationarity, g = _optimality(hess, corr, lam1, x, active, signs)
    slack = 8.0 * p * _EPS * (np.abs(corr) + (np.abs(hess) @ np.abs(x)[..., None])[..., 0])
    excess = np.abs(g) - lam1 - slack
    passes = (stationarity <= bound) & (np.maximum.reduce(excess, axis=-1) <= 0.0)
    return x, passes, g, excess


def _line_search(
    hess: np.ndarray,
    corr: np.ndarray,
    lam1: float,
    x: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """The point of lowest objective among the points of the segment from
    x to b where a nonzero coefficient of x reaches zero (set exactly to
    zero there), b and x, the first of them on a tie."""
    cross = ((x != 0.0) & (x * b <= 0.0)).nonzero()[0]
    steps = x[cross] / (x[cross] - b[cross])
    points = x + np.outer(np.concatenate((steps, [1.0, 0.0])), b - x)
    points[np.arange(cross.size), cross] = 0.0
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
    beta: the solve of some sign pattern that keeps its signs and passes
    _pattern_test, or None.

    Each step solves the objective on the current sign pattern. A solve
    that keeps its signs is returned if it passes; otherwise the worst
    inactive KKT violator j joins the pattern with sign -sign(g_j). A
    solve that breaks a sign is approached by _line_search, and the
    coefficients left at zero leave the pattern. The objective never
    rises, so the search ends on a pattern seen before, on a singular
    H_AA, or when only stationarity fails (no repair applies); the caller
    then runs the search again with least-squares pattern solves."""
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
        b = _solve_pattern(hess, corr, lam1, active, signs)
        if b is None:
            return None
        if (b * signs > 0).all():
            x, passes, g, excess = _pattern_test(hess, corr, lam1, active, signs, b, bound)
            if passes:
                return x
            j = int(excess.argmax())
            if excess[j] <= 0.0:  # only stationarity fails
                return None
            theta[j] = -np.sign(g[j])
        else:
            x[active] = _line_search(hess[active[:, None], active], corr[active], lam1,
                                     x[active], b)
            theta = np.sign(x)


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
    active = start.nonzero()[0]
    signs = np.sign(start[active])
    hess = m.gram + lam2s[:, None, None] * _identity(start.size)
    rhs = m.corr[active] - (0.5 * lam1s)[:, None] * signs
    try:
        # b is (r, a, 1): numpy 1.x reads an (r, a) b as r vectors, numpy
        # 2.x as one matrix
        b = np.linalg.solve(hess[:, active[:, None], active], rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # some H_AA is singular: its search gives up
        return np.empty((0, start.size))
    fits, passes, _, _ = _pattern_test(hess, m.corr, lam1s[:, None], active, signs, b, bound)
    passes &= np.logical_and.reduce(b * signs > 0.0, axis=-1)
    return fits[:passes.size if passes.all() else passes.argmin()]


# The config checks in their reference form, as they stood while each
# PipelineConfig field's facts were spread over five parallel tables:
# validate, _check_field, from_file and to_dict are the methods of that
# form, taking the config (or, for from_file, its class) as their first
# argument, and the tables below them are its tables. Every config, code
# built or read from an INI file, must raise the same error with the same
# text in the package, or give an equal config with an equal to_dict.
def validate(self) -> None:
    paths = ("data_path",) if self.out_dir is None else ("data_path", "out_dir")
    for name in paths:
        value = getattr(self, name)
        path = os.fspath(value) if isinstance(value, (str, os.PathLike)) else value
        if not isinstance(path, str):  # the JSON report holds it as a string
            raise ConfigError(f"{name} must be a str or path, got {value!r}")
        setattr(self, name, path)
    for name in ("train_years", "test_years", *_GRID_CHECKS):
        if not isinstance(getattr(self, name), (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
    for name in _NUMBER_FIELDS:  # bool is an int subclass; no INI value parses to one
        value = getattr(self, name)
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(v, (bool, np.bool_)):
                raise ConfigError(f"{name} must be a number, not the bool {v!r}")
    if not self.train_years or not self.test_years:
        raise ConfigError("train_years and test_years must be set")
    integers = [("cv_folds", self.cv_folds),
                *(("anchor_year", y) for y in [self.anchor_year] if y is not None),
                *(("train_years entry", y) for y in self.train_years),
                *(("test_years entry", y) for y in self.test_years)]
    for name, value in integers:
        try:
            operator.index(value)
        except TypeError:
            raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    for name, years in (("train_years", self.train_years), ("test_years", self.test_years)):
        if len(set(years)) != len(years):
            raise ConfigError(f"{name} repeats a year")
    if set(self.train_years) & set(self.test_years):
        raise ConfigError("train and test year ranges overlap")
    if max(self.train_years) >= min(self.test_years):
        raise ConfigError("test years must come after train years")
    for name in (*_BOUNDS, *_GRID_CHECKS):
        _check_field(self, name)
    if len(self.train_years) < self.cv_folds:
        raise ConfigError(f"cv_folds = {self.cv_folds} needs at least as many train years, "
                          f"got {len(self.train_years)}")
    if len(self.test_years) < 2:
        raise ConfigError("test_years needs at least 2 years for the forecast variance")
    # A numpy scalar passes every check above, but no JSON writer takes it;
    # and an int where a float belongs would be recorded as an int, where
    # an INI file of the same values records floats. Each number becomes
    # the built-in type of its field.
    for name in _NUMBER_FIELDS:
        value = getattr(self, name)
        number = float if name in _FLOAT_FIELDS else int
        try:
            if isinstance(value, tuple):
                setattr(self, name, tuple(map(number, value)))
            elif isinstance(value, list):
                setattr(self, name, list(map(number, value)))
            elif value is not None:
                setattr(self, name, number(value))
        except OverflowError:  # an int past the float range
            raise ConfigError(f"{name} holds a number too large for a float") from None


def _check_field(self, name: str) -> None:
    """The test of one field that validate and from_file share: its
    _BOUNDS, or for a grid the check its stage makes of each value."""
    value = getattr(self, name)
    if name in _BOUNDS:
        ok, need = _BOUNDS[name]
        if not (isinstance(value, numbers.Real) and ok(value)):
            raise ConfigError(f"{name} must be {need}, got {value!r}")
    elif name in _GRID_CHECKS:
        if not value:
            raise ConfigError(f"{name} must be non-empty")
        for v in value:
            try:
                if not isinstance(v, numbers.Real):
                    raise ConfigError("not a number")
                _GRID_CHECKS[name](v)
            except ClusterRegError as err:
                raise ConfigError(f"{name} holds {v!r}: {err}") from None
            except OverflowError:  # an int past the float range
                raise ConfigError(f"{name} holds a number too large for a float") from None


def from_file(cls, path):
    """Read an INI config. A missing or blank key keeps its default; a
    malformed value, one that fails its field's check, or a key or
    section not in _CONFIG_KEYS raises ConfigError naming the file,
    section and key."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    known = {(sec, key) for sec, key, _ in _CONFIG_KEYS.values()}
    for sec in parser.sections():
        if sec not in {s for s, _ in known}:
            raise ConfigError(f"{path}: unknown section [{sec}]")
    for sec in [parser.default_section, *parser.sections()]:
        for key in parser[sec]:
            if (sec, key) not in known:
                raise ConfigError(f"{path}: unknown key [{sec}] {key}")
    cfg = cls()
    for name, (sec, key, parse) in _CONFIG_KEYS.items():
        try:
            text = parser.get(sec, key, fallback="").strip()
            if text:
                setattr(cfg, name, parse(text))
                _check_field(cfg, name)
        except (configparser.Error, ConfigError, ValueError, OverflowError) as err:
            raise ConfigError(f"{path}: [{sec}] {key}: {err}") from None
    return cfg


def to_dict(self) -> dict:
    return asdict(self)


# Field -> (test of its value, what the test asks).
_BOUNDS = {
    "log_epsilon": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "enet_alpha": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "cv_folds": (lambda v: v >= 2, ">= 2"),
}
# Grid field -> the check its stage makes of each value. Any alpha in
# [0, 1] splits a valid total weight into valid weights.
_GRID_CHECKS = {
    "eps_grid": clustering._check_eps,
    "minpts_grid": clustering._check_min_pts,
    "ridge_lambdas": partial(regression.PenaltySpec.of, "ridge", alpha=0.5),
    "lasso_lambdas": partial(regression.PenaltySpec.of, "lasso", alpha=0.5),
    "enet_lambdas": partial(regression.PenaltySpec.of, "elastic_net", alpha=0.5),
}
_NUMBER_FIELDS = (*_BOUNDS, "anchor_year", "train_years", "test_years", *_GRID_CHECKS)
# The fields, or grids, of floats; every other number field holds integers.
_FLOAT_FIELDS = ("log_epsilon", "enet_alpha", "eps_grid", "ridge_lambdas", "lasso_lambdas",
                 "enet_lambdas")


def _parse_int_grid(text: str) -> list[int]:
    vals = parse_grid(text)
    if any(v != int(v) for v in vals):
        raise ValueError(f"min_pts values must be integers, got {text!r}")
    return [int(v) for v in vals]


# PipelineConfig field -> (INI section, key, parser of the stripped value).
_CONFIG_KEYS = {
    "data_path": ("data", "path", str),
    "log_epsilon": ("preprocess", "log_epsilon", _finite),
    "anchor_year": ("preprocess", "anchor_year", int),
    "eps_grid": ("cluster", "eps_grid", parse_grid),
    "minpts_grid": ("cluster", "minpts_grid", _parse_int_grid),
    "ridge_lambdas": ("regress", "ridge_lambdas", parse_grid),
    "lasso_lambdas": ("regress", "lasso_lambdas", parse_grid),
    "enet_lambdas": ("regress", "enet_lambdas", parse_grid),
    "enet_alpha": ("regress", "enet_alpha", _finite),
    "cv_folds": ("regress", "cv_folds", int),
    "train_years": ("forecast", "train_years", parse_years),
    "test_years": ("forecast", "test_years", parse_years),
}
