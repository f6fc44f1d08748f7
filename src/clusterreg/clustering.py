"""Density clustering with silhouette and within-cluster SSE quality.

The clusterer grows clusters from core points (points whose epsilon
neighborhood, self included, holds at least min_pts points) and is fully
deterministic: entities are scanned by index, cluster ids are assigned in
order of first discovery, and a border point reachable from several
clusters joins the one discovered first. Distances are Euclidean.

Noise points carry the NOISE label (-1). For downstream aggregation they
can be promoted to singleton clusters via promote_noise, which keeps
every entity in play.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError
from .preprocess import FeatureMatrix

NOISE = -1


@dataclass(frozen=True)
class NeighborhoodParams:
    """Radius and density threshold for the epsilon neighborhood."""

    eps: float
    min_pts: int

    def __post_init__(self):
        if self.eps < 0:
            raise ClusteringError("eps must be >= 0")
        if self.min_pts < 1:
            raise ClusteringError("min_pts must be >= 1")
        if not float(self.min_pts).is_integer():
            raise ClusteringError(f"min_pts must be an integer, got {self.min_pts!r}")
        object.__setattr__(self, "min_pts", int(self.min_pts))


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


@dataclass(frozen=True)
class SilhouetteReport:
    """Per-point silhouette values over the scored points."""

    per_point: tuple[float, ...]

    @property
    def mean_sc(self) -> float:
        return float(np.mean(self.per_point))


@dataclass(frozen=True)
class ClusteringQuality:
    """Summary quality of one clustering: silhouette mean, SSE, centroids."""

    sc: float | None
    sse: float
    centroids: np.ndarray  # shape (c, n_features)

    def __post_init__(self):
        object.__setattr__(self, "centroids", np.asarray(self.centroids, dtype=float))

    @property
    def c(self) -> int:
        """The cluster count: one centroid per cluster."""
        return len(self.centroids)


def _distances(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Euclidean distances from each of `rows` to each row of `values`: the
    one distance formula, so a single row matches the full matrix bit for bit."""
    diff = rows[:, None, :] - values[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def region_query(points: FeatureMatrix, index: int, eps: float) -> list[int]:
    """Indices (self included, ascending) within Euclidean distance eps."""
    n = len(points.entities)
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for {n} points")
    if eps < 0:
        raise ClusteringError("eps must be >= 0")
    d = _distances(points.values[index:index + 1], points.values)[0]
    return np.flatnonzero(d <= eps).tolist()


def _check_dist(points: FeatureMatrix, dist: np.ndarray | None) -> np.ndarray:
    """The pairwise distance matrix of the rows, built unless one is given."""
    if dist is None:
        return _distances(points.values, points.values)
    n = len(points.entities)
    if dist.shape != (n, n):
        raise ClusteringError(f"distance matrix shape {dist.shape} != ({n}, {n})")
    return dist


def dbscan(
    points: FeatureMatrix,
    params: NeighborhoodParams,
    dist: np.ndarray | None = None,
) -> ClusterAssignment:
    """Density clustering of the matrix rows.

    A point is core iff its eps neighborhood (self included) has at least
    min_pts points; clusters are maximal density-connected sets; non-core
    points within eps of a core point join that core's cluster; the rest
    are NOISE. Empty input yields the vacuous assignment (0 clusters).
    `dist` is the pairwise distance matrix of the rows (as built by
    sweep_params), computed here when omitted.

    Each cluster grows from its lowest-index unlabelled core point one
    frontier at a time: an unlabelled point joins when it is within eps of
    a core point of the frontier. This labels exactly as a breadth-first
    expansion would, so a border point goes to the cluster found first."""
    n = len(points.entities)
    if n == 0:
        return ClusterAssignment((), 0, ())
    within = _check_dist(points, dist) <= params.eps
    core = within.sum(axis=1) >= params.min_pts

    labels = np.full(n, NOISE, dtype=int)
    next_id = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        labels[i] = next_id
        frontier = np.zeros(n, dtype=bool)
        frontier[i] = True
        while True:
            frontier = within[frontier & core].any(axis=0) & (labels == NOISE)
            if not frontier.any():
                break
            labels[frontier] = next_id
        next_id += 1
    return ClusterAssignment(labels, next_id, core)


def silhouette(
    points: FeatureMatrix,
    assignment: ClusterAssignment,
    dist: np.ndarray | None = None,
) -> SilhouetteReport:
    """Silhouette values s_i = (b_i - a_i) / max(a_i, b_i) over non-noise points.

    a_i is the mean distance to the other members of the point's cluster,
    b_i the smallest mean distance to any other cluster. Singleton-cluster
    points score 0. Noise points are excluded from scoring and from the
    mean. Requires at least 2 clusters. `dist` is the pairwise distance
    matrix of the rows, computed here when omitted."""
    if assignment.num_clusters < 2:
        raise ClusteringError("silhouette undefined for fewer than 2 clusters")
    labels = np.asarray(assignment.labels)
    scored = np.flatnonzero(labels != NOISE)
    dist = _check_dist(points, dist)
    own = labels[scored]
    counts = np.bincount(own, minlength=assignment.num_clusters)
    # A gathered block's rows sum in the order a per-point loop would, so the
    # scores match that loop bit for bit (a one-hot matmul would not).
    sums = np.stack([
        dist[np.ix_(scored, np.flatnonzero(labels == cid))].sum(axis=1)
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
    return SilhouetteReport(per_point=tuple(s.tolist()))


def sse(points: FeatureMatrix, assignment: ClusterAssignment, sc: float | None = None) -> ClusteringQuality:
    """Within-cluster sum of squared distances to centroids.

    Centroid of a cluster is the mean of its member rows; noise points
    contribute 0. The optional sc value is carried into the quality record
    (silhouette is computed separately)."""
    if assignment.num_clusters < 1:
        raise ClusteringError("sse requires at least 1 cluster")
    labels = np.asarray(assignment.labels)
    centroids = np.zeros((assignment.num_clusters, points.values.shape[1]))
    total = 0.0
    for cid in range(assignment.num_clusters):
        members = points.values[labels == cid]
        centroids[cid] = members.mean(axis=0)
        total += float(((members - centroids[cid]) ** 2).sum())
    return ClusteringQuality(sc=sc, sse=total, centroids=centroids)


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

    The distance matrix is built once for the whole grid, and each distinct
    labelling is scored once. Grid points that yield the same labels and
    core flags share one (quality, assignment) pair of objects."""
    if not eps_grid or not minpts_grid:
        raise ClusteringError("parameter grids must be non-empty")
    dist = _distances(points.values, points.values)
    quality_of: dict[tuple[int, ...], ClusteringQuality] = {}
    record_of: dict[tuple, tuple[ClusteringQuality, ClusterAssignment]] = {}
    results = []
    for eps in eps_grid:
        for min_pts in minpts_grid:
            params = NeighborhoodParams(float(eps), min_pts)
            assignment = dbscan(points, params, dist)
            if assignment.num_clusters < 2:
                continue
            key = (assignment.labels, assignment.core_flags)
            if key not in record_of:
                quality = quality_of.get(assignment.labels)
                if quality is None:
                    sil = silhouette(points, assignment, dist)
                    quality = sse(points, assignment, sc=sil.mean_sc)
                    quality_of[assignment.labels] = quality
                record_of[key] = (quality, assignment)
            results.append((params, *record_of[key]))
    if not results:
        raise ClusteringError("no admissible clustering")
    results.sort(key=lambda r: (-r[1].sc, r[1].sse, r[1].c, r[0].eps, r[0].min_pts))
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
        [params.eps, params.min_pts, quality.c, quality.sc, quality.sse]
        for params, quality, _ in ranked
    ]
