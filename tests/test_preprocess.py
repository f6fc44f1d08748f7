import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterreg.dataio import EnergyPanel
from clusterreg.errors import PreprocessError
from clusterreg.preprocess import (
    FeatureMatrix,
    drop_zero_series,
    entity_profile,
    log_transform,
    minmax_normalize_rows,
)


def matrix(rows):
    arr = np.atleast_2d(np.asarray(rows, dtype=float))
    return FeatureMatrix(
        entities=tuple(f"e{i}" for i in range(arr.shape[0])),
        features=tuple(f"f{j}" for j in range(arr.shape[1])),
        values=arr,
    )


def panel_from(values):
    values = np.asarray(values, dtype=float)
    years = tuple(range(2000, 2000 + values.shape[0]))
    return EnergyPanel(
        years,
        tuple(f"e{i}" for i in range(values.shape[1])),
        tuple(f"f{j}" for j in range(values.shape[2])),
        values,
    )


class TestDropZeroSeries:
    def test_drops_all_zero_entity(self):
        values = np.ones((2, 3, 2))
        values[:, 1, :] = 0.0
        panel, dropped = drop_zero_series(panel_from(values))
        assert panel.entities == ("e0", "e2")
        assert "e1" in dropped

    def test_drops_all_zero_feature(self):
        values = np.ones((2, 2, 3))
        values[:, :, 2] = 0.0
        panel, dropped = drop_zero_series(panel_from(values))
        assert panel.features == ("f0", "f1")
        assert dropped == ["f2"]

    def test_no_op_when_nothing_zero(self):
        original = panel_from(np.ones((2, 2, 2)))
        panel, dropped = drop_zero_series(original)
        assert dropped == []
        assert panel is original

    def test_all_zero_panel_errors(self):
        with pytest.raises(PreprocessError, match="panel empty after cleaning"):
            drop_zero_series(panel_from(np.zeros((2, 2, 2))))

    def test_never_drops_series_with_a_nonzero_entry(self):
        rng = np.random.default_rng(3)
        values = (rng.random((3, 5, 4)) < 0.15) * rng.random((3, 5, 4))
        try:
            panel, dropped = drop_zero_series(panel_from(values))
        except PreprocessError:
            return
        for name in dropped:
            assert name not in panel.entities and name not in panel.features
        assert np.all(panel.values.sum(axis=(0, 2)) > 0)
        assert np.all(panel.values.sum(axis=(0, 1)) > 0)


class TestMinMaxNormalize:
    def test_row_maximum_maps_to_one(self):
        m = matrix([[0.552, 2.460, 0.037, 39.03]])
        out = minmax_normalize_rows(m)
        assert out.values[0, 3] == 1.0
        assert out.values[0].min() == 0.0

    def test_simple_row(self):
        out = minmax_normalize_rows(matrix([[0.0, 1.0, 3.0]]))
        assert np.allclose(out.values[0], [0.0, 1 / 3, 1.0])

    def test_constant_row_maps_to_zeros(self):
        out = minmax_normalize_rows(matrix([[5.0, 5.0, 5.0]]))
        assert np.array_equal(out.values[0], [0.0, 0.0, 0.0])

    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
                    min_size=1, max_size=5).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_bounded(self, rows):
        once = minmax_normalize_rows(matrix(rows))
        twice = minmax_normalize_rows(once)
        assert np.all(once.values >= 0.0) and np.all(once.values <= 1.0)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_preserves_within_row_order(self, row):
        out = minmax_normalize_rows(matrix([row])).values[0]
        order = np.argsort(row, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-12)


class TestLogTransform:
    def test_ln_one_is_zero(self):
        assert log_transform([1.0], epsilon=0.0) == pytest.approx([0.0])

    def test_paper_exp_inverse(self):
        assert math.exp(5.61789) == pytest.approx(275.308, abs=0.01)

    def test_negative_input_rejected(self):
        with pytest.raises(PreprocessError, match="non-negative"):
            log_transform([-0.1], epsilon=1e-6)

    def test_zero_with_zero_epsilon_rejected(self):
        with pytest.raises(PreprocessError, match="not positive"):
            log_transform([0.0], epsilon=0.0)

    def test_offset_only_on_zero_cells(self):
        out = log_transform([2.0, 0.0], epsilon=1e-6)
        assert out[0] == math.log(2.0)
        assert out[1] == math.log(1e-6)

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300, exclude_min=True)),
                    min_size=1, max_size=8),
           st.floats(1e-12, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_cells_are_their_log_and_zeros_the_log_of_epsilon(self, xs, eps):
        # Compared with np.log, not math.log: numpy's SIMD log and the C
        # library's may differ in the last bit.
        x = np.array(xs)
        out = log_transform(xs, eps)
        assert np.array_equal(out[x > 0], np.log(x[x > 0]))
        assert (out[x == 0] == np.log(eps)).all()

    def test_monotone(self):
        out = log_transform([0.5, 1.0, 2.0], epsilon=1e-6)
        assert np.all(np.diff(out) > 0)


class TestEntityProfile:
    def test_mean_over_window(self):
        values = np.array([[[2.0, 0.0]], [[4.0, 2.0]], [[100.0, 100.0]]])
        panel = panel_from(values)
        prof = entity_profile(panel, [2000, 2001])
        assert np.allclose(prof.values, [[3.0, 1.0]])

    def test_unknown_year_rejected(self):
        panel = panel_from(np.ones((2, 1, 1)))
        with pytest.raises(KeyError):
            entity_profile(panel, [1999])

    def test_empty_year_window_rejected(self):
        panel = panel_from(np.ones((2, 1, 1)))
        with pytest.raises(PreprocessError, match="^empty year window for entity profile$"):
            entity_profile(panel, [])
