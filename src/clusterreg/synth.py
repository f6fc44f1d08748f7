"""Synthetic panel generator with known clusters and a known sparse target.

The generator plants three things at once, so every stage of the pipeline
has a checkable ground truth:

* cluster structure -- each cluster has a distinctive feature profile
  (peaked at its own feature), entities inherit their cluster's profile
  with a small multiplicative jitter, so the row-normalized profiles form
  well-separated blobs;
* conservation -- entity values decompose each cluster's yearly total
  through fixed shares and unit-sum shapes, so cluster aggregation
  reproduces the planted totals exactly;
* a sparse log-linear target -- ln(total(t)) equals
  intercept + sum_j beta_j * ln(x_j(t)) + noise_t over the support
  clusters, exactly. Non-support clusters get time-constant totals (their
  centered log columns are zero, so penalized fits exclude them), and the
  last support series is solved numerically so the identity closes.

Everything is a deterministic function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import EnergyPanel
from .errors import ClusterRegError

START_YEAR = 2000
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class SyntheticTruth:
    """Planted ground truth written alongside a generated panel."""

    seed: int
    labels: tuple[int, ...]  # per-entity planted cluster id
    support: tuple[int, ...]  # planted cluster ids with nonzero beta
    beta: tuple[float, ...]  # per-cluster coefficient (zeros off support)
    intercept: float
    noise_sd: float
    noise: tuple[float, ...]  # per-year target noise
    log_target: tuple[float, ...]  # ln(total) per year
    years: tuple[int, ...]
    n_features: int

    @property
    def n_entities(self) -> int:
        return len(self.labels)

    @property
    def n_clusters(self) -> int:
        return len(self.beta)

    @property
    def support_size(self) -> int:
        return len(self.support)

    @property
    def signal_sd(self) -> float:
        """Std of the noiseless log target (for sizing noise levels)."""
        clean = np.asarray(self.log_target) - np.asarray(self.noise)
        return float(clean.std())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "labels": list(self.labels),
            "support": list(self.support),
            "beta": list(self.beta),
            "intercept": self.intercept,
            "noise_sd": self.noise_sd,
            "noise": list(self.noise),
            "log_target": list(self.log_target),
            "years": list(self.years),
            "n_entities": self.n_entities,
            "n_features": self.n_features,
            "n_clusters": self.n_clusters,
            "support_size": self.support_size,
            "signal_sd": self.signal_sd,
        }


def _solve_last_series(a_t: float, beta_last: float, d_t: float, u_hi: float) -> float:
    """Root of exp(a + beta*u) - d - exp(u) = 0 on (-inf, u_hi] by bisection.

    The caller guarantees f(u_hi) > 0 and beta in (0, 1), which puts one
    root below u_hi with f negative far left. The bisection runs at most
    200 steps and stops at its fixed point: a step that would leave the
    bracket as it is leaves every later step the same."""

    def f(u: float) -> float:
        return math.exp(a_t + beta_last * u) - d_t - math.exp(u)

    lo, hi = u_hi - 80.0, u_hi
    if f(lo) >= 0 or f(hi) <= 0:
        raise ClusterRegError("synthetic target bracket failed; widen margins")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (lo, mid) if f(mid) > 0 else (mid, hi)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    return 0.5 * (lo + hi)


def generate_synthetic(
    seed: int,
    n_entities: int = 46,
    n_features: int = 16,
    n_clusters: int = 16,
    n_years: int = 20,
    support_size: int = 7,
    noise_sd: float = 0.0,
) -> tuple[EnergyPanel, SyntheticTruth]:
    """Build a panel with planted clusters and a planted sparse target.

    Requires n_entities >= n_clusters, n_features >= n_clusters (one peak
    feature per cluster), 2 <= support_size <= n_clusters, n_years >= 2,
    noise_sd >= 0. Deterministic in the seed."""
    if min(n_entities, n_features, n_clusters, n_years) < 1:
        raise ClusterRegError("sizes must be positive")
    if support_size > n_clusters:
        raise ClusterRegError("support_size must be <= n_clusters")
    if support_size < 2:
        raise ClusterRegError(
            "support_size must be >= 2: with a single support cluster the "
            "conservation identity admits no exact sparse log-linear target"
        )
    if n_entities < n_clusters:
        raise ClusterRegError("need n_entities >= n_clusters")
    if n_features < n_clusters:
        raise ClusterRegError("need n_features >= n_clusters (one peak feature per cluster)")
    if n_years < 2:
        raise ClusterRegError("need n_years >= 2")
    if noise_sd < 0:
        raise ClusterRegError("noise_sd must be >= 0")

    rng = np.random.default_rng(seed)

    # cluster membership: two entities per cluster when possible, rest random
    labels = np.empty(n_entities, dtype=int)
    per_cluster = 2 if n_entities >= 2 * n_clusters else 1
    base = np.repeat(np.arange(n_clusters), per_cluster)
    labels[: base.size] = base
    rest = n_entities - base.size
    if rest > 0:
        labels[base.size:] = rng.integers(0, n_clusters, size=rest)

    # peaked feature profiles, one peak per cluster
    prototypes = 0.05 + 0.10 * rng.random((n_clusters, n_features))
    prototypes[np.arange(n_clusters), np.arange(n_clusters)] = 1.0

    # smaller clusters get tighter profiles so that discarding them as
    # noise (large min_pts) always lowers the mean silhouette: the intact
    # planted partition stays the sweep's argmax
    sizes = np.bincount(labels, minlength=n_clusters)
    jitter_amp = {1: 0.0, 2: 0.002, 3: 0.02}
    shapes = np.empty((n_entities, n_features))
    for e in range(n_entities):
        amp = jitter_amp.get(int(sizes[labels[e]]), 0.04)
        jitter = 1.0 + amp * (rng.random(n_features) - 0.5)
        shape = prototypes[labels[e]] * jitter
        shapes[e] = shape / shape.sum()

    shares = np.empty(n_entities)
    for cid in range(n_clusters):
        members = np.nonzero(labels == cid)[0]
        raw = rng.uniform(0.5, 1.5, size=members.size)
        shares[members] = raw / raw.sum()

    support = np.sort(rng.choice(n_clusters, size=support_size, replace=False))
    solved = int(support[-1])
    free_support = [int(c) for c in support[:-1]]

    tau = np.arange(n_years) / (n_years - 1)
    log_series = np.zeros((n_years, n_clusters))
    for cid in free_support:
        mu = rng.uniform(-0.5, 1.0)
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.2)
        wiggle = rng.uniform(-0.35, 0.35, size=n_years)
        log_series[:, cid] = mu + slope * tau + wiggle

    beta = np.zeros(n_clusters)
    for cid in free_support:
        beta[cid] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.9)
    beta[solved] = rng.uniform(0.55, 0.75)

    constants = np.zeros(n_clusters)
    non_support = [c for c in range(n_clusters) if c not in set(int(s) for s in support)]
    for cid in non_support:
        constants[cid] = math.exp(rng.uniform(-0.5, 1.0))

    noise = rng.normal(0.0, noise_sd, size=n_years) if noise_sd > 0 else np.zeros(n_years)

    # intercept chosen so the root bracket holds in every year, with the
    # anchor placed where the solved series is comparable to the rest of
    # the total (keeps the solved log series well away from the span of
    # the free ones)
    m = log_series[:, free_support] @ beta[free_support]
    d = constants.sum() + np.exp(log_series[:, free_support]).sum(axis=1)
    u_hi = np.log(1.5 * d)
    intercept = float(
        np.max(np.log(1.15 * (np.exp(u_hi) + d)) - m - beta[solved] * u_hi - noise)
    ) + 0.02

    for t in range(n_years):
        a_t = intercept + float(m[t]) + float(noise[t])
        log_series[t, solved] = _solve_last_series(a_t, float(beta[solved]), float(d[t]), float(u_hi[t]))

    cluster_totals = np.where(
        np.isin(np.arange(n_clusters), support),
        np.exp(log_series),
        constants[None, :],
    )
    totals = cluster_totals.sum(axis=1)
    log_target = np.log(totals)
    identity = intercept + np.log(cluster_totals[:, support]) @ beta[support] + noise
    if np.max(np.abs(log_target - identity)) > IDENTITY_TOL:
        raise ClusterRegError("planted log-linear identity failed to close")

    years = tuple(range(START_YEAR, START_YEAR + n_years))
    values = shares[None, :, None] * shapes[None, :, :] * cluster_totals[:, labels][:, :, None]
    panel = EnergyPanel(
        years=years,
        entities=tuple(f"industry_{i + 1:02d}" for i in range(n_entities)),
        features=tuple(f"energy_{j + 1:02d}" for j in range(n_features)),
        values=values,
    )

    truth = SyntheticTruth(
        seed=int(seed),
        labels=tuple(int(v) for v in labels),
        support=tuple(int(v) for v in support),
        beta=tuple(float(v) for v in beta),
        intercept=intercept,
        noise_sd=float(noise_sd),
        noise=tuple(float(v) for v in noise),
        log_target=tuple(float(v) for v in log_target),
        years=years,
        n_features=n_features,
    )
    return panel, truth
