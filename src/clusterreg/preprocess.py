"""Data cleaning and transforms feeding clustering and regression.

Cleaning removes feature columns and entity rows that are zero in every
year. Normalization is per-entity min-max across features, which makes
each entity's dominant feature map to 1 regardless of the entity's
absolute scale. The log transform handles structural zeros through a
small epsilon offset.
"""

from __future__ import annotations

import numpy as np

from .clustering import FeatureMatrix
from .dataio import EnergyPanel
from .errors import PreprocessError


def drop_zero_series(panel: EnergyPanel) -> tuple[EnergyPanel, list[str]]:
    """Remove every feature column and entity row that is zero in all years.

    Returns the cleaned panel and the removed names (features first, then
    entities). A series with any nonzero entry is never removed. Raises
    PreprocessError if nothing remains."""
    values = panel.values
    keep_f = values.any(axis=(0, 1))
    keep_e = values.any(axis=(0, 2))
    dropped = [f for f, k in zip(panel.features, keep_f) if not k]
    dropped += [e for e, k in zip(panel.entities, keep_e) if not k]
    if not keep_f.any() or not keep_e.any():
        raise PreprocessError("panel empty after cleaning")
    if not dropped:
        return panel, []
    cleaned = EnergyPanel(
        panel.years,
        tuple(e for e, k in zip(panel.entities, keep_e) if k),
        tuple(f for f, k in zip(panel.features, keep_f) if k),
        values[:, keep_e, :][:, :, keep_f],
    )
    return cleaned, dropped


def entity_profile(panel: EnergyPanel, years: list[int]) -> FeatureMatrix:
    """Per-entity feature profile: mean over the given years.

    One row per entity; this is the matrix handed to clustering after
    min-max normalization."""
    idx = [panel.year_index(y) for y in years]
    if not idx:
        raise PreprocessError("empty year window for entity profile")
    return FeatureMatrix(panel.entities, panel.features, panel.values[idx].mean(axis=0))


def minmax_normalize_rows(m: FeatureMatrix) -> FeatureMatrix:
    """Rescale each row to [0, 1] via (x - min) / (max - min).

    Constant rows map to all zeros (a flat profile carries no shape
    information). Idempotent and order-preserving within each row."""
    values = m.values
    lo = values.min(axis=1, keepdims=True)
    hi = values.max(axis=1, keepdims=True)
    span = hi - lo
    out = np.zeros_like(values)
    nonconst = (span > 0).ravel()
    out[nonconst] = (values[nonconst] - lo[nonconst]) / span[nonconst]
    return FeatureMatrix(m.entities, m.features, out)


def log_transform(series, epsilon: float) -> np.ndarray:
    """Natural log with the epsilon offset only on structural zeros: ln(x)
    where x > 0 and ln(epsilon) where x is exactly 0. Raises on negative
    inputs and on a zero cell when epsilon is not positive."""
    x = np.asarray(series, dtype=float)
    if np.any(x < 0):
        raise PreprocessError("log_transform requires non-negative inputs")
    arg = np.where(x == 0, epsilon, x)
    if np.any(arg <= 0):
        raise PreprocessError("log_transform argument not positive; increase epsilon")
    return np.log(arg)
