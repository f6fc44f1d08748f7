import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterreg import clustering
from clusterreg.clustering import (
    DISTANCE_BLOCK,
    NOISE,
    ClusterAssignment,
    ClusteringQuality,
    NeighborhoodParams,
    ReachabilityTree,
    assignment_rows,
    dbscan,
    promote_noise,
    reachability_tree,
    silhouette,
    sse,
    sweep_params,
)
from clusterreg import preprocess
from clusterreg.errors import ClusteringError
from clusterreg.preprocess import FeatureMatrix
from clusterreg.synth import generate_synthetic

from oracles import check_dbscan_against_oracle, region_query, silhouette_by_hand, silhouette_loop

# Integer coordinates make every distance exact, so eps values that are
# themselves distances (1, sqrt 2, 2, ...) put points exactly on the boundary.
INT_POINTS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2)), min_size=1, max_size=24)
EXACT_EPS = st.sampled_from([0.0, 1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0])
# The exact distances and values strictly between and beyond them: runs of
# eps values with equal neighbourhood counts, as well as d == eps ties.
SWEEP_EPS = EXACT_EPS | st.sampled_from([0.5, 1.2, 1.7, 2.1, 2.5, 2.9, 3.5])


def matrix(points):
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.shape[0] == 1 and len(points) > 1:
        arr = arr.T
    return FeatureMatrix(
        entities=tuple(f"p{i}" for i in range(arr.shape[0])),
        features=tuple(f"f{j}" for j in range(arr.shape[1])),
        values=arr,
    )


@pytest.fixture
def blob6():
    return matrix([0.0, 0.5, 1.0, 10.0, 10.5, 11.0])


class TestRegionQuery:
    def test_tiny_eps_returns_self_only(self):
        m = matrix([0.0, 1.0, 2.0])
        assert region_query(m, 1, 0.1) == [1]

    def test_derived_example(self):
        m = matrix([0.0, 0.5, 1.0, 10.0])
        assert region_query(m, 1, 0.6) == [0, 1, 2]

    def test_huge_eps_returns_everything(self):
        m = matrix([0.0, 0.5, 1.0, 10.0])
        assert region_query(m, 2, 100.0) == [0, 1, 2, 3]

    def test_out_of_range_index(self):
        m = matrix([0.0, 1.0])
        with pytest.raises(IndexError):
            region_query(m, 2, 1.0)

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_eps_rejected(self, eps):
        m = matrix([0.0, 1.0])
        with pytest.raises(ClusteringError, match="eps must be finite and >= 0"):
            region_query(m, 0, eps)
        with pytest.raises(ClusteringError, match="eps must be finite and >= 0"):
            NeighborhoodParams(eps, 2)

    def test_matches_dbscan_neighbourhood_on_the_boundary(self):
        """At eps equal to a pairwise distance a point sits exactly on the
        boundary, where two distance formulas can disagree in the last bit.
        region_query's count must be the one that makes dbscan's core flag
        flip: core at min_pts = count, not core at count + 1."""
        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.random((12, 5))
            m = matrix(v.tolist())
            for i in range(12):
                row = np.sqrt(((v - v[i]) ** 2).sum(axis=1))
                for eps in [*row, *np.linalg.norm(v - v[i], axis=1)]:
                    k = len(region_query(m, i, eps))
                    assert dbscan(m, NeighborhoodParams(eps, k)).core_flags[i]
                    assert not dbscan(m, NeighborhoodParams(eps, k + 1)).core_flags[i]


class TestDbscan:
    def test_empty_input_is_vacuous(self):
        m = FeatureMatrix((), ("f",), np.zeros((0, 1)))
        out = dbscan(m, NeighborhoodParams(0.5, 2))
        assert out.num_clusters == 0 and out.labels == ()

    def test_two_blob_example(self, blob6):
        out = dbscan(blob6, NeighborhoodParams(0.6, 2))
        assert out.num_clusters == 2
        assert out.labels == (0, 0, 0, 1, 1, 1)
        assert all(out.core_flags)

    def test_all_noise_when_eps_too_small(self, blob6):
        out = dbscan(blob6, NeighborhoodParams(0.05, 2))
        assert out.num_clusters == 0
        assert set(out.labels) == {NOISE}

    def test_border_point_joins_first_discovered_cluster(self):
        # 1.25 sits within eps of a core on each side but is not core itself
        m = matrix([0.0, 0.2, 0.4, 0.6, 1.9, 2.1, 2.3, 2.5, 1.25])
        out = dbscan(m, NeighborhoodParams(0.7, 4))
        assert out.num_clusters == 2
        assert out.core_flags == (True,) * 8 + (False,)
        assert out.labels == (0, 0, 0, 0, 1, 1, 1, 1, 0)  # first cluster claims it

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            dims = int(rng.integers(1, 4))
            pts = rng.random((n, dims)) * 2
            eps = float(rng.uniform(0.05, 0.8))
            min_pts = int(rng.integers(1, 5))
            m = matrix(pts.tolist())
            out = dbscan(m, NeighborhoodParams(eps, min_pts))
            check_dbscan_against_oracle(pts, eps, min_pts, out)

    def test_permutation_stability(self):
        rng = np.random.default_rng(5)
        pts = rng.random((20, 2))
        m = matrix(pts.tolist())
        out = dbscan(m, NeighborhoodParams(0.3, 2))
        perm = rng.permutation(20)
        m2 = matrix(pts[perm].tolist())
        out2 = dbscan(m2, NeighborhoodParams(0.3, 2))
        # same partition up to relabeling; core flags permute with rows
        def parts(labels):
            groups = {}
            for i, l in enumerate(labels):
                groups.setdefault(l, set()).add(i)
            return {frozenset(v) for k, v in groups.items() if k != NOISE}

        orig = parts([out.labels[perm[i]] for i in range(20)])
        assert parts(out2.labels) == orig
        assert out2.core_flags == tuple(out.core_flags[perm[i]] for i in range(20))

    def test_noise_count_monotone_in_eps(self):
        rng = np.random.default_rng(9)
        pts = rng.random((25, 2))
        m = matrix(pts.tolist())
        for min_pts in (1, 2, 3):
            counts = []
            for eps in np.linspace(0.01, 1.0, 12):
                out = dbscan(m, NeighborhoodParams(float(eps), min_pts))
                counts.append(sum(l == NOISE for l in out.labels))
            assert all(b <= a for a, b in zip(counts, counts[1:]))


def bfs_dbscan_labels(values, eps, min_pts):
    """Reference labels from a queue-driven breadth-first expansion."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    dist = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).sum(axis=2))
    neighbors = [np.nonzero(dist[i] <= eps)[0] for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [NOISE] * n
    next_id = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        labels[i] = next_id
        queue = deque([i])
        while queue:
            j = queue.popleft()
            if core[j]:
                for k in neighbors[j]:
                    if labels[k] == NOISE:
                        labels[k] = next_id
                        queue.append(int(k))
        next_id += 1
    return tuple(labels), tuple(core)


def dense_prim(mutual):
    """Reference Prim tree of an explicit mutual reachability matrix, with
    the library's choices: the first open point of least edge weight joins
    next, and when none is finite the first open point starts a new root."""
    n = len(mutual)
    parent, weight = np.arange(n), np.full(n, np.inf)
    best, near, done = np.full(n, np.inf), np.arange(n), np.zeros(n, dtype=bool)
    for _ in range(n):
        open_points = np.flatnonzero(~done)
        v = open_points[best[open_points].argmin()]
        if best[v] == np.inf:
            v = open_points[0]
        else:
            parent[v], weight[v] = near[v], best[v]
        done[v] = True
        for j in np.flatnonzero(~done):
            if mutual[v, j] < best[j]:
                best[j], near[j] = mutual[v, j], v
    return parent, weight


class TestDbscanTreeLabelling:
    # A border point at exactly eps from a core of each of two clusters,
    # listed so that either cluster is discovered first.
    @example(points=[(0, 0), (1, 0), (2, 0), (4, 0), (6, 0), (7, 0), (8, 0)], eps=2.0, min_pts=4)
    @example(points=[(6, 0), (7, 0), (8, 0), (4, 0), (0, 0), (1, 0), (2, 0)], eps=2.0, min_pts=4)
    @given(points=INT_POINTS, eps=EXACT_EPS, min_pts=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_breadth_first_reference_and_oracle(self, points, eps, min_pts):
        m = matrix([list(pt) for pt in points])
        out = dbscan(m, NeighborhoodParams(eps, min_pts))
        assert (out.labels, out.core_flags) == bfs_dbscan_labels(m.values, eps, min_pts)
        check_dbscan_against_oracle(m.values, eps, min_pts, out)

    # n = 0 and 1, min_pts > n, and duplicate points at exact-eps ties.
    @example(points=[], eps_grid=[0.0, 3.0], min_pts=1)
    @example(points=[(2, 1)], eps_grid=[0.0], min_pts=1)
    @example(points=[(2, 1)], eps_grid=[3.0], min_pts=2)
    @example(points=[(0, 0), (0, 0), (1, 0), (1, 0), (3, 0)], eps_grid=[0.0, 1.0, 2.0], min_pts=2)
    @given(points=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=24),
           eps_grid=st.lists(EXACT_EPS, min_size=1, max_size=6),
           min_pts=st.integers(1, 26))
    @settings(max_examples=200, deadline=None)
    def test_shared_tree_labels_every_eps_as_its_own_tree(self, points, eps_grid, min_pts):
        """The tree a matrix keeps for min_pts, as sweep_params shares it,
        labels each eps as a fresh matrix's own tree, the breadth-first
        reference and the oracle."""
        m = FeatureMatrix(tuple(f"p{i}" for i in range(len(points))), ("x", "y"),
                          np.asarray(points, dtype=float).reshape(len(points), 2))
        for eps in eps_grid:
            params = NeighborhoodParams(eps, min_pts)
            fresh = FeatureMatrix(m.entities, m.features, m.values)
            shared, own = dbscan(m, params), dbscan(fresh, params)
            assert (shared.labels, shared.core_flags) == (own.labels, own.core_flags)
            assert shared.num_clusters == own.num_clusters
            if points:
                reference = bfs_dbscan_labels(m.values, eps, min_pts)
                assert (shared.labels, shared.core_flags) == reference
                check_dbscan_against_oracle(m.values, eps, min_pts, shared)

    def test_core_flags_are_the_neighbourhood_counts(self):
        """Core distances only compare distances, so the core flags equal the
        counts on the distance matrix bit for bit, at every pairwise distance."""
        m = matrix(np.random.default_rng(8).random((30, 4)).tolist())
        for min_pts in (1, 2, 5, 30, 31):
            for eps in np.unique(m.distances)[::7]:
                counted = (m.distances <= eps).sum(axis=1) >= min_pts
                out = dbscan(m, NeighborhoodParams(float(eps), min_pts))
                assert out.core_flags == tuple(counted.tolist())

    def test_points_no_finite_distance_reaches_start_new_roots(self):
        """Distances that overflow to inf leave parts of the tree that no
        finite edge joins; each such part grows from its own root."""
        m = matrix([-1e200, -1e200, 1e200, 1e200 * (1 + 2**-52), 1e200])
        tree = reachability_tree(m, 2)
        assert tree.parent.tolist() == [0, 0, 2, 3, 2]  # two pairs and a lone point
        assert np.isinf(tree.weight[[0, 2, 3]]).all()
        out = dbscan(m, NeighborhoodParams(1.0, 2))
        assert out.labels == (0, 0, 1, NOISE, 1)
        with np.errstate(over="ignore"):
            assert out.labels == bfs_dbscan_labels(m.values, 1.0, 2)[0]

    @pytest.mark.parametrize("values", [
        [2.0],
        [0.0, 3.0],
        [[1.0, 1.0], [1.0, 1.0]],
        [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 1.0], [0.0, 0.0]],
        [-1e200, -1e200, 1e200, 1e200 * (1 + 2**-52), 1e200],
        np.random.default_rng(11).integers(0, 3, (40, 2)).tolist(),
        np.random.default_rng(12).random((70, 5)).tolist(),
    ], ids=["n1", "n2", "n2-duplicate", "duplicates", "overflow-to-inf", "int-ties", "n70"])
    def test_min_pts_two_shares_the_min_pts_one_tree(self, values):
        """At min_pts 2 a point's core distance is its least distance to
        another point, so the mutual reachability is the distance itself,
        as at min_pts 1: the tree keeps its own core distances and the
        min_pts 1 tree's parent and weight arrays, which are the Prim tree
        of the explicit max(cd_i, cd_j, d_ij). At n = 1 no point has
        another, cd is inf, and the tree is its own root either way."""
        m = matrix(values)
        n = len(m.entities)
        tree = reachability_tree(m, 2)
        one = reachability_tree(m, 1)
        if n >= 2:
            assert tree.parent is one.parent and tree.weight is one.weight
        counted = np.sort(m.distances, axis=1)[:, 1] if n >= 2 else np.full(n, np.inf)
        assert np.array_equal(tree.core_dist, counted)
        mutual = np.maximum(np.maximum(tree.core_dist[:, None], tree.core_dist[None, :]),
                            m.distances)
        parent, weight = dense_prim(mutual)
        assert tree.parent.tolist() == parent.tolist()
        assert np.array_equal(tree.weight.view(np.int64), weight.view(np.int64))

    def test_tree_for_fractional_min_pts_rejected(self, blob6):
        with pytest.raises(ClusteringError, match="min_pts must be an integer"):
            reachability_tree(blob6, 2.5)


def test_result_records_state_each_fact_once(blob6):
    """A quality is its two scores (the cluster count is the assignment's),
    the silhouette is its per-point array, and the points carry their
    distances and trees, so no clustering function takes them: a matrix
    builds its tree for a min_pts once."""
    import inspect

    import clusterreg

    assert ClusteringQuality._fields == ("sc", "sse")
    assert not hasattr(clusterreg, "SilhouetteReport")
    for fn, names in [(reachability_tree, ["points", "min_pts"]), (dbscan, ["points", "params"]),
                      (silhouette, ["points", "assignment"]), (sse, ["points", "assignment"])]:
        assert list(inspect.signature(fn).parameters) == names, fn
    assert ReachabilityTree._fields == ("min_pts", "core_dist", "parent", "weight")
    tree = reachability_tree(blob6, 2)
    assert reachability_tree(blob6, 2.0) is tree
    assert reachability_tree(matrix(blob6.values), 2) is not tree
    a = dbscan(blob6, NeighborhoodParams(0.6, 2))
    assert isinstance(silhouette(blob6, a), np.ndarray)
    assert type(sse(blob6, a)) is float


def naive_sweep(points, eps_grid, minpts_grid):
    """sweep_params as a plain loop: every grid point clustered and scored
    on its own, with no shared distance matrix or memo."""
    results = []
    for eps in eps_grid:
        for min_pts in minpts_grid:
            params = NeighborhoodParams(float(eps), int(min_pts))
            assignment = dbscan(points, params)
            if assignment.num_clusters < 2:
                continue
            sc = float(np.mean(silhouette(points, assignment)))
            results.append((params, ClusteringQuality(sc, sse(points, assignment)), assignment))
    results.sort(key=lambda r: (-r[1].sc, r[1].sse, r[2].num_clusters, r[0].eps, r[0].min_pts))
    return results


def sweep_summary(results):
    return [(p.eps, p.min_pts, a.num_clusters, q.sc, q.sse, a.labels, a.core_flags)
            for p, q, a in results]


class TestSweepMemo:
    @given(points=INT_POINTS.filter(lambda pts: len(pts) >= 2),
           eps_grid=st.lists(SWEEP_EPS, min_size=1, max_size=40),
           minpts_grid=st.lists(st.integers(1, 4), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_loop_and_shares_records(self, points, eps_grid, minpts_grid):
        m = matrix([list(pt) for pt in points])
        expected = naive_sweep(m, eps_grid, minpts_grid)
        if not expected:
            with pytest.raises(ClusteringError, match="no admissible"):
                sweep_params(m, eps_grid, minpts_grid)
            return
        got = sweep_params(m, eps_grid, minpts_grid)
        assert sweep_summary(got) == sweep_summary(expected)
        first: dict = {}
        for _, quality, assignment in got:
            key = (assignment.labels, assignment.core_flags)
            q0, a0 = first.setdefault(key, (quality, assignment))
            assert quality is q0 and assignment is a0

    def test_each_distinct_labelling_scored_once(self, monkeypatch):
        import clusterreg.clustering as clustering

        calls = {"dbscan": 0, "silhouette": [], "trees": {}}
        real_dbscan, real_silhouette = clustering.dbscan, clustering.silhouette
        real_tree = clustering.reachability_tree

        def counting_dbscan(*args, **kwargs):
            calls["dbscan"] += 1
            return real_dbscan(*args, **kwargs)

        def counting_tree(points, min_pts):
            tree = real_tree(points, min_pts)
            calls["trees"].setdefault(id(tree), tree.min_pts)  # trees live on m
            return tree

        def counting_silhouette(points, assignment, *args, **kwargs):
            calls["silhouette"].append(assignment.labels)
            return real_silhouette(points, assignment, *args, **kwargs)

        monkeypatch.setattr(clustering, "dbscan", counting_dbscan)
        monkeypatch.setattr(clustering, "silhouette", counting_silhouette)
        monkeypatch.setattr(clustering, "reachability_tree", counting_tree)
        m = matrix([0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 10.0, 10.4])
        eps_grid = [0.15, 0.3, 0.5, 1.0, 6.0]
        out = sweep_params(m, eps_grid, [1, 2, 3, 2])
        # 0.5 and 1.0 bound the same distances, and min_pts 2 repeats: one
        # dbscan per distinct (min_pts, eps interval)
        assert calls["dbscan"] == 4 * 3
        assert list(calls["trees"].values()) == [1, 2, 3]  # one tree per distinct min_pts
        scored = calls["silhouette"]
        assert len(scored) == len(set(scored)) == len({a.labels for _, _, a in out})


class TestSilhouette:
    def test_duplicated_clusters_score_one(self):
        m = matrix([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        a = ClusterAssignment((0, 0, 1, 1), 2, (True,) * 4)
        s = silhouette(m, a)
        assert s.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert np.mean(s) == 1.0

    def test_four_point_example_matches_hand_oracle(self):
        pts = [[0.0], [1.0], [10.0], [11.0]]
        labels = [0, 0, 1, 1]
        per_point, mean = silhouette_by_hand(pts, labels)
        s = silhouette(matrix([0.0, 1.0, 10.0, 11.0]),
                       ClusterAssignment(tuple(labels), 2, (True,) * 4))
        assert s.tolist() == pytest.approx(per_point, abs=1e-12)
        assert np.mean(s) == pytest.approx(mean, abs=1e-12)
        # outer points match the (10.5-1)/10.5 evaluation; inner ones use b=9.5
        assert s[0] == pytest.approx(9.5 / 10.5, abs=1e-9)
        assert s[1] == pytest.approx(8.5 / 9.5, abs=1e-9)
        assert mean == pytest.approx(0.8997493734335839, abs=1e-12)

    def test_single_cluster_rejected(self):
        m = matrix([0.0, 1.0])
        a = ClusterAssignment((0, 0), 1, (True, True))
        with pytest.raises(ClusteringError, match="fewer than 2"):
            silhouette(m, a)

    def test_noise_excluded_and_singletons_zero(self):
        m = matrix([0.0, 0.1, 5.0, 9.0])
        a = ClusterAssignment((0, 0, 1, NOISE), 2, (True, True, True, False))
        s = silhouette(m, a)
        assert isinstance(s, np.ndarray) and s.shape == (3,)
        assert s[2] == 0.0  # singleton cluster
        assert all(-1.0 <= v <= 1.0 for v in s)

    def test_random_inputs_bounded_and_match_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(4, 16))
            pts = rng.random((n, 2))
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]  # every id used
            m = matrix(pts.tolist())
            a = ClusterAssignment(tuple(int(v) for v in labels), 3, (True,) * n)
            s = silhouette(m, a)
            hand_per, hand_mean = silhouette_by_hand(pts, labels)
            assert s.tolist() == pytest.approx(hand_per, abs=1e-12)
            assert np.mean(s) == pytest.approx(hand_mean, abs=1e-12)
            assert -1.0 <= np.mean(s) <= 1.0

    def test_equals_per_point_loop_with_noise_and_singletons(self):
        rng = np.random.default_rng(33)
        for n in [*range(3, 40), 120, 250]:
            v = rng.random((n, 3))
            m = matrix(v.tolist())
            k = int(rng.integers(2, min(n, 9) + 1))
            labels = rng.integers(NOISE, k - 1, size=n)
            labels[rng.permutation(n)[:k]] = np.arange(k)  # id k-1 is a singleton
            a = ClusterAssignment(tuple(labels.tolist()), k, (True,) * n)
            s = silhouette(m, a)
            per_point, mean = silhouette_loop(m.distances, labels)
            assert s.tolist() == list(per_point)
            assert np.mean(s) == mean


class TestSse:
    def test_singletons_have_zero_sse(self):
        m = matrix([0.0, 3.0, 9.0])
        a = ClusterAssignment((0, 1, 2), 3, (True,) * 3)
        assert sse(m, a) == 0.0

    def test_two_point_cluster(self):
        m = matrix([[0.0, 0.0], [2.0, 0.0]])
        a = ClusterAssignment((0, 0), 1, (True, True))
        assert sse(m, a) == 2.0

    def test_noise_contributes_zero(self):
        m = matrix([0.0, 0.2, 50.0, 0.4, 100.0])
        labels = (0, 0, NOISE, 0, 1)
        a = ClusterAssignment(labels, 2, (True, True, False, True, True))
        with_noise = sse(m, a)
        m2 = matrix([0.0, 0.2, 0.4, 100.0])
        a2 = ClusterAssignment((0, 0, 0, 1), 2, (True,) * 4)
        assert with_noise == pytest.approx(sse(m2, a2))

    def test_sse_nonnegative_random(self):
        rng = np.random.default_rng(2)
        pts = rng.random((12, 3))
        labels = tuple(int(v) for v in rng.integers(0, 2, 12)) or None
        labels = (0, 1) + tuple(int(v) for v in rng.integers(0, 2, 10))
        m = matrix(pts.tolist())
        a = ClusterAssignment(labels, 2, (True,) * 12)
        assert sse(m, a) >= 0.0


class TestSweep:
    def test_single_admissible_pair(self, blob6):
        out = sweep_params(blob6, [0.6], [2])
        assert len(out) == 1
        assert out[0][2].num_clusters == 2

    def test_ranking_prefers_higher_sc(self, blob6):
        # eps=0.05 is inadmissible (all noise); 0.6 and 2.0 both admissible
        out = sweep_params(blob6, [0.05, 0.6], [2])
        assert len(out) == 1
        assert out[0][0].eps == 0.6

    def test_order_contract(self):
        # two separated pairs plus a looser third blob: larger eps merges
        m = matrix([0.0, 0.1, 5.0, 5.1, 10.0, 10.4])
        out = sweep_params(m, [0.2, 0.5, 6.0], [1, 2])
        scs = [q.sc for _, q, _ in out]
        assert scs == sorted(scs, reverse=True)
        for (p1, q1, a1), (p2, q2, a2) in zip(out, out[1:]):
            if q1.sc == q2.sc:
                assert ((q1.sse, a1.num_clusters, p1.eps, p1.min_pts)
                        <= (q2.sse, a2.num_clusters, p2.eps, p2.min_pts))

    def test_no_admissible_clustering(self):
        m = matrix([0.0])
        with pytest.raises(ClusteringError, match="no admissible clustering"):
            sweep_params(m, [0.5], [2])

    def test_empty_grid_rejected(self, blob6):
        with pytest.raises(ClusteringError):
            sweep_params(blob6, [], [2])

    @pytest.mark.parametrize("min_pts", [1.5, 2.7, float("nan"), float("inf")])
    def test_fractional_min_pts_rejected(self, min_pts):
        m = matrix([0.0, 0.1, 5.0, 5.1])
        with pytest.raises(ClusteringError, match="min_pts must be an integer"):
            sweep_params(m, [0.5], [1, min_pts])

    def test_integral_float_min_pts_reads_as_int(self):
        params = NeighborhoodParams(0.5, 2.0)
        assert params.min_pts == 2 and type(params.min_pts) is int


class TestPromoteNoise:
    def test_noise_becomes_singletons(self):
        a = ClusterAssignment((0, NOISE, 0, NOISE), 1, (True, False, True, False))
        out = promote_noise(a)
        assert out.labels == (0, 1, 0, 2)
        assert out.num_clusters == 3
        assert out.core_flags == (True, True, True, True)

    def test_no_noise_is_identity(self):
        a = ClusterAssignment((0, 1), 2, (True, True))
        out = promote_noise(a)
        assert out.labels == a.labels and out.num_clusters == 2


def test_assignment_rows_export(blob6):
    out = dbscan(blob6, NeighborhoodParams(0.6, 2))
    rows = assignment_rows(blob6.entities, out)
    assert rows[0] == ["p0", 0, 1]
    assert len(rows) == 6


def test_assignment_invariants_enforced():
    with pytest.raises(ClusteringError):
        ClusterAssignment((0, 2), 2, (True, True))  # id 1 unused
    with pytest.raises(ClusteringError):
        ClusterAssignment((0, 0), 1, (False, False))  # no core point


def test_assignment_errors_name_the_lowest_failing_id():
    with pytest.raises(ClusteringError, match=r"exactly the ids 0\.\.1"):
        ClusterAssignment((0, -2), 2, (True, True))  # -2 is neither an id nor NOISE
    with pytest.raises(ClusteringError, match="cluster 1 has no core point"):
        ClusterAssignment((0, 1, 2, 1, 2), 3, (True, False, False, False, False))


@pytest.mark.parametrize("size", [4, 7])
def test_assignment_of_another_size_rejected(blob6, size):
    """A labelling must cover the matrix's rows: a short one would score
    the wrong points, a long one index past them."""
    a = ClusterAssignment(tuple(range(size)), size, (True,) * size)
    for score in (silhouette, sse):
        with pytest.raises(ClusteringError, match=f"assignment covers {size} points, matrix has 6"):
            score(blob6, a)


def test_points_build_their_distances_and_trees_once(monkeypatch):
    """A sweep, then dbscan, silhouette and sse on the same matrix, read one
    distance matrix and one tree per distinct min_pts, and a caller cannot
    write to either, so no later labelling reads a corrupted copy."""
    distances, trees = [], {}
    real_distances, real_tree = clustering._distances, clustering.reachability_tree

    def counting_distances(rows, values):
        distances.append(len(rows))
        return real_distances(rows, values)

    def counting_tree(points, min_pts):
        tree = real_tree(points, min_pts)
        trees.setdefault(id(tree), tree)
        return tree

    monkeypatch.setattr(clustering, "_distances", counting_distances)
    monkeypatch.setattr(clustering, "reachability_tree", counting_tree)
    m = matrix([0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 10.0, 10.4])
    sweep_params(m, [0.15, 0.3, 1.0, 6.0], [1, 2, 3, 2])
    a = dbscan(m, NeighborhoodParams(0.3, 2))
    silhouette(m, a)
    sse(m, a)
    dbscan(m, NeighborhoodParams(6.0, 3))
    assert distances == [8]
    assert sorted(tree.min_pts for tree in trees.values()) == [1, 2, 3]
    cached = [m.distances, *(arr for t in trees.values() for arr in t[1:])]
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_blocked_distances_match_the_one_shot_formula():
    """130 rows leave a partial last block; every distance keeps its bits."""
    values = np.random.default_rng(3).random((130, 16))
    assert 130 % DISTANCE_BLOCK != 0
    diff = values[:, None, :] - values[None, :, :]
    expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    got = clustering._distances(values, values)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    row = clustering._distances(values[100:101], values)
    assert np.array_equal(row.view(np.int64), expected[100:101].view(np.int64))


def workload_cluster_matrix(shape, train_years):
    """The matrix the sweep clusters on a benchmark workload's panel 0:
    noise at 0.01 x the noiseless panel's signal_sd, zero series dropped,
    the mean profile over the training years, min-max normalized."""
    reference = generate_synthetic(seed=0, **shape)[1]
    panel = generate_synthetic(seed=0, noise_sd=0.01 * reference.signal_sd, **shape)[0]
    panel = preprocess.drop_zero_series(panel)[0]
    return preprocess.minmax_normalize_rows(preprocess.entity_profile(panel, train_years))


def random_matrices():
    """Random matrices of 1 to 130 rows, so one or more DISTANCE_BLOCKs,
    with entries of magnitudes from 1e-5 to 1e5 and a third of their rows
    copies of others."""
    rng = np.random.default_rng(21)
    for n in [1, 2, 3, 5, 17, 63, 64, 65, 100, 128, 129, 130] * 8:
        p = int(rng.integers(1, 17))
        values = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-5, 5, (n, p))
        values[rng.integers(0, n, n // 3)] = values[rng.integers(0, n, n // 3)]
        yield values


def test_distances_are_bitwise_symmetric():
    """d_ij and d_ji differ only in the sign of each difference, which the
    square drops, and each sums its p squares in the same order, so the
    matrix equals its transpose bit for bit: the min_pts 2 tree rests on
    this (reachability_tree). Checked on random matrices and on the cluster
    matrices of the benchmark workloads' panel 0."""
    workloads = [({}, 2015), ({"n_entities": 400}, 2015),
                 ({"n_years": 60, "support_size": 16}, 2045)]  # shape, first test year
    for values in [*random_matrices(),
                   *(workload_cluster_matrix(shape, list(range(2000, end))).values
                     for shape, end in workloads)]:
        dist = matrix(values).distances
        assert np.array_equal(dist.view(np.int64), dist.T.view(np.int64))


def test_default_sweep_runs_the_prim_loop_four_times(monkeypatch, synthetic_case):
    """The default minpts grid 1..5 on seed 2024 builds five trees but runs
    the Prim loop four times: min_pts 2 takes the min_pts 1 tree's arrays."""
    from clusterreg.pipeline import cluster_matrix, load_clean

    config = synthetic_case[3]
    m = cluster_matrix(config, load_clean(config)[0])
    real_prim, calls = clustering._prim, []
    monkeypatch.setattr(clustering, "_prim", lambda *a: calls.append(1) or real_prim(*a))
    sweep_params(m, config.eps_grid, config.minpts_grid)
    assert config.minpts_grid == [1, 2, 3, 4, 5]
    assert sorted(m._trees) == [1, 2, 3, 4, 5]
    assert len(calls) == 4
    assert m._trees[2].parent is m._trees[1].parent


def test_distance_matrix_peak_memory():
    """At 400 x 16 points the whole (n, n, p) difference tensor takes
    19.5 MiB; built in row blocks, the peak is the 1.2 MiB result plus one
    block's 3.1 MiB tensor (4.7 MiB measured)."""
    values = np.random.default_rng(4).random((400, 16))
    tracemalloc.start()
    try:
        clustering._distances(values, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * 2**20
