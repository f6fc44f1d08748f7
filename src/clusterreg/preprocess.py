"""Data cleaning and transforms feeding clustering and regression.

Cleaning removes feature columns and entity rows that are zero in every
year. Normalization is per-entity min-max across features, which makes
each entity's dominant feature map to 1 regardless of the entity's
absolute scale. The log transform handles structural zeros through a
small epsilon offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EnergyPanel
from .errors import PreprocessError


@dataclass(frozen=True)
class FeatureMatrix:
    """2-d entity-by-feature matrix; one row per clustering point."""

    entities: tuple[str, ...]
    features: tuple[str, ...]
    values: np.ndarray  # shape (n_entities, n_features)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
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


def entity_profile(panel: EnergyPanel, years: list[int] | None = None) -> FeatureMatrix:
    """Per-entity feature profile: mean over the given years (default all).

    One row per entity; this is the matrix handed to clustering after
    min-max normalization."""
    if years is None:
        idx = list(range(panel.n_years))
    else:
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


def log_transform(series, epsilon: float = 1e-6, zeros_only: bool = False) -> np.ndarray:
    """Natural log with an epsilon offset: ln(x + epsilon).

    With zeros_only=True the offset is applied only to cells that are
    exactly 0 (the pipeline convention for structural zeros). Raises on
    negative inputs and on any cell whose offset argument is not positive."""
    x = np.asarray(series, dtype=float)
    if epsilon < 0:
        raise PreprocessError("epsilon must be >= 0")
    if np.any(x < 0):
        raise PreprocessError("log_transform requires non-negative inputs")
    if zeros_only:
        arg = np.where(x == 0, x + epsilon, x)
    else:
        arg = x + epsilon
    if np.any(arg <= 0):
        raise PreprocessError("log_transform argument not positive; increase epsilon")
    return np.log(arg)
