# Density clustering walkthrough: neighborhoods, cluster growth, and the
# two quality scores (mean silhouette and within-cluster SSE), ending with
# the parameter sweep that picks a clustering automatically.

import numpy as np

from clusterreg import (
    FeatureMatrix,
    NeighborhoodParams,
    dbscan,
    silhouette,
    sse,
    sweep_params,
)

# Six points on a line: two tight groups far apart.
points = FeatureMatrix(
    entities=tuple(f"p{i}" for i in range(6)),
    features=("x",),
    values=np.array([[0.0], [0.5], [1.0], [10.0], [10.5], [11.0]]),
)

# A neighborhood is every point within the radius, self included.
distance = np.linalg.norm(points.values - points.values[1], axis=1)
print("neighbors of p1 within 0.6:", np.flatnonzero(distance <= 0.6).tolist())
print("neighbors of p1 within 0.1:", np.flatnonzero(distance <= 0.1).tolist())

# With eps=0.6 and min_pts=2 every point has a neighbor, so each group
# grows into one cluster.
assignment = dbscan(points, NeighborhoodParams(eps=0.6, min_pts=2))
print("\nlabels:", assignment.labels)
print("clusters:", assignment.num_clusters)
print("core flags:", assignment.core_flags)

# Shrinking eps below the spacing turns everything into noise (-1).
sparse = dbscan(points, NeighborhoodParams(eps=0.05, min_pts=2))
print("\nwith eps=0.05:", sparse.labels, "->", sparse.num_clusters, "clusters")

# Quality scores for the good clustering. Silhouette contrasts cohesion
# with separation per point; SSE totals the squared centroid distances.
sil = silhouette(points, assignment)
print("\nper-point silhouette:", np.round(sil, 4))
print("mean silhouette:", round(float(np.mean(sil)), 4))
print("within-cluster SSE:", round(sse(points, assignment), 4))

# The sweep tries every (eps, min_pts) pair, drops degenerate results, and
# ranks the rest by silhouette (ties: lower SSE, then fewer clusters).
ranked = sweep_params(points, eps_grid=[0.05, 0.3, 0.6, 2.0, 6.0], minpts_grid=[1, 2, 3])
print("\nsweep ranking (best first):")
for params, q, a in ranked[:5]:
    print(f"  eps={params.eps:<4} min_pts={params.min_pts}  "
          f"c={a.num_clusters}  sc={q.sc:.4f}  sse={q.sse:.4f}")
print("selected:", ranked[0][0])
