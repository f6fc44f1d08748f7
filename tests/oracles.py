"""Independent brute-force oracles used to cross-check the solvers.

Everything here is derived directly from the printed objective and
definitions, not from the package implementation: penalized fits are
minimized by multi-stage dense grid search over the coefficients, and
density clustering is reproduced by explicit neighborhood enumeration
plus union-find over core points. The grid references at the end are the
exception: they replay a penalty grid one fit_penalized call at a time, the
per-point form the package's grid solver must reproduce bit for bit. So is
the reference feature-sign search after them, a copy of the package's
search in a form that spends more numpy calls per step, whose every result
the package's search must return bit for bit.
"""

from __future__ import annotations

import numpy as np


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


def warm_descent(d, kind, grid, alpha):
    """The models of one grid in grid order, fitted one fit_penalized call
    at a time from the largest value down, each from the previous fit's
    coefficients (the largest from zero; equal values keep grid order)."""
    from clusterreg.regression import PenaltySpec, fit_penalized

    models = [None] * len(grid)
    start = None
    for i in sorted(range(len(grid)), key=lambda i: -grid[i]):
        models[i] = fit_penalized(d, PenaltySpec.of(kind, grid[i], alpha), start=start)
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
# pattern test took |H| and |c| once per system, read the stationarity
# residuals and the inactive |g_j| off one vector, and worked the slack out
# only where it can decide. Here every step computes both from separate
# vectors and the slack in full. The package's search must return the same
# None or the same coefficients, and its stacked run keep the same rows.
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
    beta: the solve of some sign pattern that keeps its signs and passes
    _pattern_test, or None.

    Each step solves the objective on the current sign pattern. A solve
    that keeps its signs is returned if it passes; otherwise the worst
    inactive KKT violator j joins the pattern with sign -sign(g_j). A
    solve that breaks a sign is approached by _line_search, and the
    coefficients left at zero leave the pattern. The objective never
    rises, so the search ends on a pattern seen before, after 2p steps, on
    a singular H_AA, or when only stationarity fails (no repair applies);
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
    return None


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
