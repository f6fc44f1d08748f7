import numpy as np
import pytest
from hypothesis import strategies as st

from clusterreg.dataio import EnergyPanel, save_panel_long
from clusterreg.pipeline import PipelineConfig
from clusterreg.preprocess import FeatureMatrix
from clusterreg.synth import generate_synthetic

TRAIN_YEARS = list(range(2000, 2015))
TEST_YEARS = list(range(2015, 2020))


def overflowing_panel():
    """6 entities x 3 features over 2000-2019 with cells in [1, 3), and year
    2003 scaled by 4e307: every cell is finite, yet cluster 0's total for
    2003 overflows whatever the clustering."""
    values = np.random.default_rng(0).uniform(1.0, 3.0, (20, 6, 3))
    values[3] *= 4e307
    return EnergyPanel(tuple(range(2000, 2020)), tuple(f"e{i}" for i in range(6)),
                       ("f0", "f1", "f2"), values)


@pytest.fixture(scope="session")
def synthetic_case(tmp_path_factory):
    """Noiseless default-size synthetic panel on disk, with its truth."""
    panel, truth = generate_synthetic(seed=2024)
    root = tmp_path_factory.mktemp("synthetic")
    path = root / "panel.csv"
    save_panel_long(panel, path)
    config = PipelineConfig(
        data_path=str(path),
        train_years=list(TRAIN_YEARS),
        test_years=list(TEST_YEARS),
    )
    return panel, truth, path, config


@pytest.fixture(scope="session")
def synthetic_report(synthetic_case):
    """One default pipeline run over the synthetic panel, shared by tests."""
    from clusterreg.pipeline import run_pipeline

    _, _, _, config = synthetic_case
    return run_pipeline(config)


@pytest.fixture
def two_blobs():
    """Six 1-d points forming two tight far-apart groups."""
    values = np.array([[0.0], [0.5], [1.0], [10.0], [10.5], [11.0]])
    return FeatureMatrix(
        entities=tuple(f"p{i}" for i in range(6)),
        features=("x",),
        values=values,
    )


def map_partitions(promoted_labels, truth_labels):
    """Bijection detected-cluster-id -> planted-cluster-id, or None if the
    partitions differ."""
    detected: dict[int, set[int]] = {}
    planted: dict[int, set[int]] = {}
    for i, lab in enumerate(promoted_labels):
        detected.setdefault(lab, set()).add(i)
    for i, lab in enumerate(truth_labels):
        planted.setdefault(lab, set()).add(i)
    mapping = {}
    for did, members in detected.items():
        for pid, pmembers in planted.items():
            if members == pmembers:
                mapping[did] = pid
                break
        else:
            return None
    if len(mapping) != len(planted):
        return None
    return mapping


@st.composite
def small_runs(draw):
    """A small panel, with zero cells, copied entity rows (so distances tie
    at 0) and copied feature columns, each entity at its own magnitude from
    1e-300 to 1e300, and a config over it: a train/test split and cv_folds."""
    n_years, n_entities, n_features = (draw(st.integers(4, 12)), draw(st.integers(1, 8)),
                                       draw(st.integers(1, 4)))
    size = n_years * n_entities * n_features
    values = np.array(draw(st.lists(st.floats(1.0, 100.0), min_size=size, max_size=size)))
    values[draw(st.lists(st.integers(0, size - 1), max_size=size // 2))] = 0.0
    values = values.reshape(n_years, n_entities, n_features)
    top = draw(st.integers(-300, 298))
    for i in range(n_entities):
        values[:, i] *= 10.0 ** draw(st.integers(-300, top))
        copied = draw(st.none() | st.integers(0, i - 1)) if i else None
        if copied is not None:
            values[:, i] = values[:, copied]
    for j in range(1, n_features):
        copied = draw(st.none() | st.integers(0, j - 1))
        if copied is not None:
            values[:, :, j] = values[:, :, copied]
    years = tuple(range(2000, 2000 + n_years))
    panel = EnergyPanel(years, tuple(f"e{i}" for i in range(n_entities)),
                        tuple(f"f{j}" for j in range(n_features)), values)
    n_train = draw(st.integers(2, n_years - 2))
    n_test = draw(st.integers(2, n_years - n_train))
    config = PipelineConfig(train_years=list(years[:n_train]),
                            test_years=list(years[n_train:n_train + n_test]),
                            cv_folds=draw(st.integers(2, n_train)))
    return panel, config
