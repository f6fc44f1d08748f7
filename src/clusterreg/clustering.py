"""Density clustering with silhouette and within-cluster SSE quality.

A point is core when its epsilon neighborhood, self included, holds at
least min_pts points; clusters are the connected sets of core points
within eps of each other, plus the border points they reach. Distances
are Euclidean and the labelling is fully deterministic.

Every eps is labelled from one reachability tree per min_pts (Campello,
Moulavi & Sander 2013; Schubert et al. 2017). A point's core distance is
its min_pts-th smallest distance, counting itself (inf when min_pts > n),
so it is core exactly when that distance is <= eps. The tree is a Prim
minimum spanning tree of the mutual reachability max(cd_i, cd_j, d_ij):
its edges of weight <= eps join exactly the core points within eps of
each other, so they give the core components at that eps. At min_pts 1
and 2 that is d_ij itself, so the two share one Prim tree. Cluster ids
follow the smallest core index in each component, and a non-core point
within eps of a core point joins the lowest-id such cluster: the order
in which a scan of the points by index discovers them. The core
distances and tree weights are entries of the distance matrix (or inf),
so an eps labels the points as every other eps that the same pairwise
distances are <= to: sweep_params runs dbscan once per such eps interval
and min_pts. The points carry their distances and their trees, each
built once, on first use, and kept read-only (FeatureMatrix).

Noise points carry the NOISE label (-1). For downstream aggregation they
can be promoted to singleton clusters via promote_noise, which keeps
every entity in play.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ClusteringError, PreprocessError

NOISE = -1
# Rows of the distance matrix computed per step, which bounds the
# (rows, n, p) difference tensor a step holds.
DISTANCE_BLOCK = 64


@dataclass(frozen=True)
class FeatureMatrix:
    """2-d entity-by-feature matrix; one row per clustering point. It keeps
    what every clustering of its rows reads, built on first read and
    read-only: its distances, and its reachability_tree for each min_pts."""

    entities: tuple[str, ...]
    features: tuple[str, ...]
    values: np.ndarray  # shape (n_entities, n_features)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # its own copy, kept read-only
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "features", tuple(self.features))
        if values.shape != (len(self.entities), len(self.features)):
            raise PreprocessError(
                f"matrix shape {values.shape} does not match axes "
                f"({len(self.entities)}, {len(self.features)})"
            )
        if not np.all(np.isfinite(values)):
            raise PreprocessError("matrix contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "_trees", {})  # min_pts -> ReachabilityTree

    @cached_property
    def distances(self) -> np.ndarray:
        """The Euclidean distance matrix of the rows, shape (n, n)."""
        dist = _distances(self.values, self.values)
        dist.setflags(write=False)
        return dist


@dataclass(frozen=True)
class NeighborhoodParams:
    """Radius and density threshold for the epsilon neighborhood."""

    eps: float
    min_pts: int

    def __post_init__(self):
        _check_eps(self.eps)
        object.__setattr__(self, "min_pts", _check_min_pts(self.min_pts))


def _check_eps(eps: float) -> None:
    # A NaN eps would make every point noise, and an infinite one would make
    # a point with an infinite core distance (min_pts > n) core.
    if not 0.0 <= eps < np.inf:
        raise ClusteringError(f"eps must be finite and >= 0, got {eps!r}")


def _check_min_pts(min_pts) -> int:
    if min_pts < 1:
        raise ClusteringError("min_pts must be >= 1")
    if not float(min_pts).is_integer():
        raise ClusteringError(f"min_pts must be an integer, got {min_pts!r}")
    return int(min_pts)


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-entity labels in 0..num_clusters-1 or NOISE, plus core flags."""

    labels: tuple[int, ...]
    num_clusters: int
    core_flags: tuple[bool, ...]

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        core = np.asarray(self.core_flags, dtype=bool)
        object.__setattr__(self, "labels", tuple(labels.tolist()))
        object.__setattr__(self, "core_flags", tuple(core.tolist()))
        if labels.shape != core.shape:
            raise ClusteringError("labels and core_flags length mismatch")
        clustered = labels != NOISE
        ids = set(labels[clustered].tolist())
        if ids != set(range(self.num_clusters)):
            raise ClusteringError(f"labels must use exactly the ids 0..{self.num_clusters - 1}")
        coreless = ids - set(labels[clustered & core].tolist())
        if coreless:
            raise ClusteringError(f"cluster {min(coreless)} has no core point")

    @property
    def n_points(self) -> int:
        return len(self.labels)


class ClusteringQuality(NamedTuple):
    """Summary quality of one clustering: the mean silhouette and the
    within-cluster SSE. (A NamedTuple: cheaper to define at import than a
    frozen dataclass.)"""

    sc: float
    sse: float


def _distances(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Euclidean distances from each of `rows` to each row of `values`: the
    one distance formula, so a single row matches the full matrix bit for bit.
    Computed DISTANCE_BLOCK rows at a time into the result; each block's
    difference tensor is freed when _distance_block returns, before the
    next one is built."""
    out = np.empty((len(rows), len(values)))
    for start in range(0, len(rows), DISTANCE_BLOCK):
        out[start:start + DISTANCE_BLOCK] = _distance_block(
            rows[start:start + DISTANCE_BLOCK], values)
    return out


def _distance_block(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    diff = rows[:, None, :] - values[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class ReachabilityTree(NamedTuple):
    """Prim minimum spanning tree of the mutual reachability distances for
    one min_pts: each point's core distance, its parent in the tree and the
    weight of the edge to that parent. A root is its own parent with weight
    inf; a point that no finite edge reaches starts a new root. (A
    NamedTuple: cheaper to define at import than a frozen dataclass.)"""

    min_pts: int
    core_dist: np.ndarray  # shape (n,)
    parent: np.ndarray  # shape (n,)
    weight: np.ndarray  # shape (n,)


def reachability_tree(points: FeatureMatrix, min_pts: int) -> ReachabilityTree:
    """The reachability tree that labels the rows at every eps for min_pts:
    built on the first request for this min_pts, kept read-only on the
    points, and returned unchanged after that.

    The core distance cd_i is the min_pts-th smallest entry of row i of
    points.distances (inf when min_pts > n), and the tree spans the mutual
    reachability max(cd_i, cd_j, d_ij). Only comparisons and max touch the
    distances, so a point is core at eps exactly when its neighborhood
    count reaches min_pts. The trees of min_pts 1 and 2 share their parent
    and weight arrays."""
    min_pts = _check_min_pts(min_pts)
    if min_pts in points._trees:
        return points._trees[min_pts]
    dist = points.distances
    n = len(dist)
    if min_pts <= n:
        # a copy, so the kept tree does not hold the partitioned matrix
        core_dist = np.partition(dist, min_pts - 1, axis=1)[:, min_pts - 1].copy()
    else:
        core_dist = np.full(n, np.inf)
    if min_pts == 2 and n >= 2:
        # cd_i is the least entry of row i besides d_ii = 0, so cd_i <= d_ij,
        # and cd_j <= d_ji = d_ij as points.distances is bitwise symmetric: the
        # mutual reachability is d_ij, as at min_pts 1 (cd = 0). Same tree.
        parent, weight = reachability_tree(points, 1)[2:]
    else:
        parent, weight = _prim(dist, core_dist)
    for kept in (core_dist, parent, weight):
        kept.setflags(write=False)
    tree = points._trees[min_pts] = ReachabilityTree(min_pts, core_dist, parent, weight)
    return tree


def _prim(dist: np.ndarray, core_dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parent and weight arrays of the Prim tree of max(cd_i, cd_j,
    d_ij), built one row per step, never as a full matrix."""
    n = len(dist)
    parent = np.arange(n)
    weight = np.full(n, np.inf)
    best = np.full(n, np.inf)  # lightest edge from each point to the tree
    near = np.arange(n)  # the tree point at the other end of that edge
    open_cd = core_dist.copy()  # inf once a point is in the tree
    done = np.zeros(n, dtype=bool)
    row = np.empty(n)
    closer = np.empty(n, dtype=bool)
    for _ in range(n):
        v = int(best.argmin())
        if best[v] == np.inf:  # nothing finite reaches the tree
            v = int(done.argmin())
        else:
            parent[v], weight[v] = near[v], best[v]
        done[v] = True
        open_cd[v] = best[v] = np.inf
        np.maximum(dist[v], open_cd, out=row)  # row v of the mutual reachability
        np.maximum(row, core_dist[v], out=row)
        np.less(row, best, out=closer)
        np.minimum(best, row, out=best)
        near[closer] = v
    return parent, weight


def dbscan(points: FeatureMatrix, params: NeighborhoodParams) -> ClusterAssignment:
    """Density clustering of the matrix rows.

    A point is core iff its eps neighborhood (self included) has at least
    min_pts points; clusters are maximal density-connected sets; non-core
    points within eps of a core point join that core's cluster; the rest
    are NOISE. Empty input yields the vacuous assignment (0 clusters).
    The labels are read off the points' reachability tree for
    params.min_pts, and the border distances off points.distances, so
    every eps on the same points shares one tree per min_pts.

    The core points are the core distances <= eps, and the tree edges of
    weight <= eps, resolved by pointer jumping, join them into components.
    Cluster ids follow each component's smallest core index, and a
    non-core point within eps of core points joins the lowest-id cluster
    among theirs, as a breadth-first expansion by index would label it."""
    n = len(points.entities)
    if n == 0:
        return ClusterAssignment((), 0, ())
    tree = reachability_tree(points, params.min_pts)
    eps = params.eps
    core = tree.core_dist <= eps
    root = np.where(tree.weight <= eps, tree.parent, np.arange(n))
    while True:
        up = root[root]
        if (up == root).all():
            break
        root = up
    labels = np.full(n, NOISE, dtype=int)
    cores = core.nonzero()[0]
    core_roots = root[cores]
    roots = list(dict.fromkeys(core_roots.tolist()))  # in order of first core index
    id_of = np.empty(n, dtype=int)
    id_of[roots] = np.arange(len(roots))
    labels[cores] = id_of[core_roots]
    rest = (~core).nonzero()[0]
    if cores.size and rest.size:
        by_id = cores[labels[cores].argsort(kind="stable")]
        near = points.distances[rest[:, None], by_id] <= eps
        border = near.any(axis=1)
        labels[rest[border]] = labels[by_id[near[border].argmax(axis=1)]]
    return ClusterAssignment(labels, len(roots), core)


def _check_covers(points: FeatureMatrix, assignment: ClusterAssignment) -> None:
    n = len(points.entities)
    if assignment.n_points != n:
        raise ClusteringError(f"assignment covers {assignment.n_points} points, matrix has {n}")


def silhouette(points: FeatureMatrix, assignment: ClusterAssignment) -> np.ndarray:
    """Silhouette values s_i = (b_i - a_i) / max(a_i, b_i) of the non-noise
    points, in index order.

    a_i is the mean distance to the other members of the point's cluster,
    b_i the smallest mean distance to any other cluster. Singleton-cluster
    points score 0. Noise points are excluded from scoring and from the
    mean. Requires at least 2 clusters and one label per row."""
    _check_covers(points, assignment)
    if assignment.num_clusters < 2:
        raise ClusteringError("silhouette undefined for fewer than 2 clusters")
    labels = np.asarray(assignment.labels)
    scored = np.flatnonzero(labels != NOISE)
    own = labels[scored]
    counts = np.bincount(own, minlength=assignment.num_clusters)
    # A gathered block's rows sum in the order a per-point loop would, so the
    # scores match that loop bit for bit (a one-hot matmul would not).
    sums = np.stack([
        points.distances[np.ix_(scored, np.flatnonzero(labels == cid))].sum(axis=1)
        for cid in range(assignment.num_clusters)
    ], axis=1)
    rows = np.arange(len(scored))
    others = sums / counts
    others[rows, own] = np.inf
    b = others.min(axis=1)
    a = sums[rows, own] / np.maximum(counts[own] - 1, 1)
    denom = np.maximum(a, b)
    live = (counts[own] > 1) & (denom > 0)
    s = np.zeros(len(scored))
    s[live] = (b - a)[live] / denom[live]
    return s


def sse(points: FeatureMatrix, assignment: ClusterAssignment) -> float:
    """Within-cluster sum of squared distances to the centroids.

    Centroid of a cluster is the mean of its member rows; noise points
    contribute 0. Requires one label per row."""
    _check_covers(points, assignment)
    if assignment.num_clusters < 1:
        raise ClusteringError("sse requires at least 1 cluster")
    labels = np.asarray(assignment.labels)
    total = 0.0
    for cid in range(assignment.num_clusters):
        members = points.values[labels == cid]
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def sweep_params(
    points: FeatureMatrix,
    eps_grid: list[float],
    minpts_grid: list[int],
) -> list[tuple[NeighborhoodParams, ClusteringQuality, ClusterAssignment]]:
    """Evaluate every (eps, min_pts) pair and rank the admissible clusterings.

    A result is admissible when it has at least 2 clusters. Ranking is by
    descending mean silhouette, then ascending SSE, then ascending cluster
    count; remaining ties fall back to ascending (eps, min_pts) so the
    output order is deterministic. Raises when nothing is admissible.

    The points build their distance matrix once for the whole grid, and
    their reachability tree once per min_pts, on the first dbscan call
    that reads it. dbscan runs once per min_pts and eps interval: it
    reads eps only by comparing it with distances, core distances and
    tree weights, and the last two are themselves entries of the distance
    matrix (or inf). Two eps values with the same count of pairwise
    distances <= eps therefore have none of these values between them,
    and label every point alike. Each distinct labelling is scored
    once, and grid points that yield the same labels and core flags share
    one (quality, assignment) pair of objects."""
    if not eps_grid or not minpts_grid:
        raise ClusteringError("parameter grids must be non-empty")
    within: dict[float, int] = {}  # eps -> count of pairwise distances <= eps
    quality_of: dict[tuple[int, ...], ClusteringQuality] = {}
    record_of: dict[tuple, tuple[ClusteringQuality, ClusterAssignment]] = {}
    # (min_pts, count) -> the record of that eps interval, None when inadmissible
    found: dict[tuple[int, int], tuple[ClusteringQuality, ClusterAssignment] | None] = {}
    results = []
    for eps in eps_grid:
        for min_pts in minpts_grid:
            params = NeighborhoodParams(float(eps), min_pts)
            if params.eps not in within:
                within[params.eps] = int(np.count_nonzero(points.distances <= params.eps))
            interval = (params.min_pts, within[params.eps])
            if interval not in found:
                assignment = dbscan(points, params)
                found[interval] = None
                if assignment.num_clusters >= 2:
                    key = (assignment.labels, assignment.core_flags)
                    if key not in record_of:
                        quality = quality_of.get(assignment.labels)
                        if quality is None:
                            sc = float(np.mean(silhouette(points, assignment)))
                            quality = ClusteringQuality(sc, sse(points, assignment))
                            quality_of[assignment.labels] = quality
                        record_of[key] = (quality, assignment)
                    found[interval] = record_of[key]
            if found[interval] is not None:
                results.append((params, *found[interval]))
    if not results:
        raise ClusteringError("no admissible clustering")
    results.sort(key=lambda r: (-r[1].sc, r[1].sse, r[2].num_clusters, r[0].eps, r[0].min_pts))
    return results


def promote_noise(assignment: ClusterAssignment) -> ClusterAssignment:
    """Give each noise point its own singleton cluster.

    New ids are appended after the existing ones in entity-index order.
    A promoted point is marked core: it is trivially the core of its own
    singleton (min_pts = 1 semantics)."""
    labels = np.asarray(assignment.labels, dtype=int)
    flags = np.asarray(assignment.core_flags, dtype=bool)
    noise = labels == NOISE
    promoted = int(noise.sum())
    labels[noise] = assignment.num_clusters + np.arange(promoted)
    flags[noise] = True
    return ClusterAssignment(labels, assignment.num_clusters + promoted, flags)


def assignment_rows(entities: tuple[str, ...], assignment: ClusterAssignment) -> list[list]:
    """Rows for the `entity,cluster_id,is_core` CSV export."""
    if len(entities) != assignment.n_points:
        raise ClusteringError("entity list does not match assignment size")
    return [
        [entity, assignment.labels[i], int(assignment.core_flags[i])]
        for i, entity in enumerate(entities)
    ]


def quality_rows(
    ranked: list[tuple[NeighborhoodParams, ClusteringQuality, ClusterAssignment]],
) -> list[list]:
    """Rows for the `eps,min_pts,c,sc,sse` CSV export."""
    return [
        [params.eps, params.min_pts, assignment.num_clusters, quality.sc, quality.sse]
        for params, quality, assignment in ranked
    ]
