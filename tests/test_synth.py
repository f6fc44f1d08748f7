import math

import numpy as np
import pytest

from clusterreg import synth
from clusterreg.clustering import ClusterAssignment
from clusterreg.errors import ClusterRegError
from clusterreg.pipeline import aggregate_by_cluster
from clusterreg.preprocess import entity_profile, minmax_normalize_rows
from clusterreg.synth import generate_synthetic


def planted_assignment(truth):
    return ClusterAssignment(truth.labels, truth.n_clusters,
                             (True,) * truth.n_entities)


def test_same_seed_identical():
    p1, t1 = generate_synthetic(seed=5)
    p2, t2 = generate_synthetic(seed=5)
    assert np.array_equal(p1.values, p2.values)
    assert t1.to_dict() == t2.to_dict()


def test_different_seeds_differ():
    p1, _ = generate_synthetic(seed=5)
    p2, _ = generate_synthetic(seed=6)
    assert not np.array_equal(p1.values, p2.values)


def test_planted_identity_exact():
    panel, truth = generate_synthetic(seed=3, noise_sd=0.01)
    regressors, target = aggregate_by_cluster(panel, planted_assignment(truth))
    log_target = np.log(target)
    support = list(truth.support)
    ident = (truth.intercept
             + np.log(regressors[:, support]) @ np.asarray(truth.beta)[support]
             + np.asarray(truth.noise))
    assert np.abs(log_target - ident).max() < 1e-9
    assert np.allclose(log_target, truth.log_target)


def test_conservation_exact():
    panel, truth = generate_synthetic(seed=4)
    regressors, target = aggregate_by_cluster(panel, planted_assignment(truth))
    panel_totals = panel.values.sum(axis=(1, 2))
    assert np.abs(regressors.sum(axis=1) - panel_totals).max() < 1e-9


def test_nonsupport_aggregates_constant():
    panel, truth = generate_synthetic(seed=8)
    regressors, _ = aggregate_by_cluster(panel, planted_assignment(truth))
    for cid in range(truth.n_clusters):
        if cid not in truth.support:
            assert np.ptp(regressors[:, cid]) < 1e-12
        else:
            assert np.ptp(regressors[:, cid]) > 1e-6


def test_cluster_profiles_well_separated():
    panel, truth = generate_synthetic(seed=9)
    profile = minmax_normalize_rows(entity_profile(panel, panel.years))
    values = profile.values
    labels = np.asarray(truth.labels)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            dist = np.linalg.norm(values[i] - values[j])
            if labels[i] == labels[j]:
                assert dist < 0.3
            else:
                assert dist > 0.8


def test_beta_zero_off_support_and_bounded_on_it():
    _, truth = generate_synthetic(seed=10)
    beta = np.asarray(truth.beta)
    for cid in range(truth.n_clusters):
        if cid in truth.support:
            assert abs(beta[cid]) >= 0.3
        else:
            assert beta[cid] == 0.0


def test_every_cluster_inhabited():
    _, truth = generate_synthetic(seed=12)
    assert set(truth.labels) == set(range(truth.n_clusters))


def test_noise_recorded_and_scaled():
    _, truth = generate_synthetic(seed=13, noise_sd=0.05, n_years=200)
    noise = np.asarray(truth.noise)
    assert noise.std() == pytest.approx(0.05, rel=0.3)
    _, clean = generate_synthetic(seed=13, noise_sd=0.0, n_years=200)
    assert np.all(np.asarray(clean.noise) == 0.0)


def test_signal_sd_positive():
    _, truth = generate_synthetic(seed=14)
    assert truth.signal_sd > 0.01


def test_size_validation():
    with pytest.raises(ClusterRegError, match="support_size"):
        generate_synthetic(seed=1, support_size=17)
    with pytest.raises(ClusterRegError, match="support_size"):
        generate_synthetic(seed=1, support_size=1)
    with pytest.raises(ClusterRegError, match="n_entities"):
        generate_synthetic(seed=1, n_entities=10, n_clusters=16)
    with pytest.raises(ClusterRegError, match="n_features"):
        generate_synthetic(seed=1, n_features=8, n_clusters=16)
    with pytest.raises(ClusterRegError, match="noise_sd"):
        generate_synthetic(seed=1, noise_sd=-0.1)
    with pytest.raises(ClusterRegError, match="n_years"):
        generate_synthetic(seed=1, n_years=1)


@pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -math.inf, -0.1])
def test_noise_sd_must_be_finite_and_non_negative(noise_sd):
    """A NaN noise_sd once passed the check (nan < 0 is False) and gave a
    noiseless panel whose truth recorded NaN; an infinite one failed as a
    bracket failure."""
    with pytest.raises(ClusterRegError, match=r"^noise_sd must be finite and >= 0, got "):
        generate_synthetic(seed=1, noise_sd=noise_sd)


@pytest.mark.parametrize("argument,value,message", [
    ("seed", 1.5, "seed must be an integer, got {!r}"),
    ("n_years", 2.5, "n_years must be an integer, got {!r}"),
    ("n_entities", 46.0, "n_entities must be an integer, got {!r}"),
    ("support_size", "7", "support_size must be an integer, got {!r}"),
    ("noise_sd", "0.1", "noise_sd must be a real number, got {!r}"),
    ("noise_sd", 0.1j, "noise_sd must be a real number, got {!r}"),
    ("seed", True, "seed must be a number, not the bool {!r}"),
    ("n_features", np.True_, "n_features must be a number, not the bool {!r}"),
    ("noise_sd", False, "noise_sd must be a number, not the bool {!r}"),
])
def test_wrong_typed_argument_is_named(argument, value, message):
    """Each once escaped as a bare TypeError, or, for a bool, was taken as 0
    or 1."""
    with pytest.raises(ClusterRegError) as err:
        generate_synthetic(**{"seed": 1, argument: value})
    assert str(err.value) == message.format(value)


def test_integer_like_arguments_are_accepted():
    a = generate_synthetic(seed=np.int64(3), n_years=np.int32(6), noise_sd=np.float32(0.1))
    b = generate_synthetic(seed=3, n_years=6, noise_sd=float(np.float32(0.1)))
    np.testing.assert_array_equal(a[0].values, b[0].values)


def test_negative_seed_refused():
    with pytest.raises(ClusterRegError, match=r"^seed must be >= 0, got -1$"):
        generate_synthetic(seed=-1)
    assert generate_synthetic(seed=0)[1].seed == 0


def test_small_configuration_works():
    panel, truth = generate_synthetic(seed=2, n_entities=8, n_features=6,
                                      n_clusters=4, n_years=6, support_size=2)
    assert panel.values.shape == (6, 8, 6)
    assert (truth.n_entities, truth.n_clusters, truth.support_size) == (8, 4, 2)
    record = truth.to_dict()
    assert (record["n_entities"], record["n_clusters"], record["support_size"]) == (8, 4, 2)
    assert np.all(panel.values >= 0)


def bisect_200_steps(a_t, beta_last, d_t, u_hi):
    """The last-series root by all 200 bisection steps, with no stop at the
    fixed point."""

    def f(u):
        return math.exp(a_t + beta_last * u) - d_t - math.exp(u)

    lo, hi = u_hi - 80.0, u_hi
    if f(lo) >= 0 or f(hi) <= 0:
        raise ClusterRegError("synthetic target bracket failed; widen margins")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("seed,shape,noise_sd", [
    (2024, {}, 0.0), (0, {}, 0.003), (1, {"n_entities": 400}, 0.0),
    (3, {"n_years": 60, "support_size": 16}, 0.004), (5, {"n_years": 6, "support_size": 2}, 0.1),
    (7, {"n_entities": 8, "n_features": 6, "n_clusters": 4, "n_years": 6, "support_size": 2},
     0.02),
])
def test_bisection_stopped_at_its_fixed_point_gives_the_200_step_panel(
        seed, shape, noise_sd, monkeypatch):
    """A bisection step that leaves the bracket as it is leaves every later
    step the same, so stopping there changes no bit of the panel or the
    truth."""
    panel, truth = generate_synthetic(seed, noise_sd=noise_sd, **shape)
    monkeypatch.setattr(synth, "_solve_last_series", bisect_200_steps)
    full_panel, full_truth = generate_synthetic(seed, noise_sd=noise_sd, **shape)
    assert panel.values.tobytes() == full_panel.values.tobytes()
    assert truth.to_dict() == full_truth.to_dict()


def test_bisection_root_equals_the_200_step_root():
    """On brackets drawn as generate_synthetic draws them, and wider."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        beta_last, d_t = rng.uniform(0.05, 0.95), math.exp(rng.uniform(-3.0, 5.0))
        u_hi = math.log(rng.uniform(1.01, 3.0) * d_t)
        a_t = math.log(rng.uniform(1.01, 2.0) * (math.exp(u_hi) + d_t)) - beta_last * u_hi
        root = synth._solve_last_series(a_t, beta_last, d_t, u_hi)
        assert root.hex() == bisect_200_steps(a_t, beta_last, d_t, u_hi).hex()
