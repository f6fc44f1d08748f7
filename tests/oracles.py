"""Independent brute-force oracles used to cross-check the solvers.

Everything here is derived directly from the printed objective and
definitions, not from the package implementation: penalized fits are
minimized by multi-stage dense grid search over the coefficients, and
density clustering is reproduced by explicit neighborhood enumeration
plus union-find over core points.
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
