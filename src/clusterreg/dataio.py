"""Panel dataset loading, validation, and JSON report persistence.

Two on-disk layouts are supported for panel data:

* long CSV -- one file, header exactly ``year,entity,feature,value``;
  missing (year, entity, feature) cells default to 0.
* wide CSV -- one file per year named ``panel_<year>.csv`` inside a
  directory; first column ``entity``, remaining columns are feature names.

The long layout is parsed in blocks of ``BLOCK_ROWS`` rows, a column at a
time. A file the block parser cannot take as it stands (a blank line, a
bad field, a duplicate key, ...) is read again by the row loop
``_load_long_rows``, which reports the first problem or skips the blank
lines. Every loader error names the file and the physical line on which
the offending record starts, so a quoted name that spans lines does not
shift the line numbers after it.

Reports are plain JSON (UTF-8, sorted keys) so external tools can parse
them without this package.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ClusterRegError, PanelFormatError

LONG_HEADER = ["year", "entity", "feature", "value"]
# Rows per block of the long parser: big enough that per-block work is
# negligible, small enough that a block's row lists stay well under 1 MB.
BLOCK_ROWS = 1024
_WIDE_NAME = re.compile(r"^panel_(\d+)\.csv$")


@dataclass(frozen=True)
class EnergyPanel:
    """Dense 3-d panel: values[year, entity, feature] in Mt CO2."""

    years: tuple[int, ...]
    entities: tuple[str, ...]
    features: tuple[str, ...]
    values: np.ndarray  # shape (n_years, n_entities, n_features)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "features", tuple(self.features))
        if values.shape != (len(self.years), len(self.entities), len(self.features)):
            raise PanelFormatError(
                f"value array shape {values.shape} does not match axes "
                f"({len(self.years)}, {len(self.entities)}, {len(self.features)})"
            )
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise PanelFormatError("years must be strictly increasing")
        for kind, names in (("entity", self.entities), ("feature", self.features)):
            if any(not n for n in names):
                raise PanelFormatError(f"empty {kind} name")
            if len(set(names)) != len(names):
                raise PanelFormatError(f"duplicate {kind} names")
        values.setflags(write=False)

    @property
    def n_years(self) -> int:
        return len(self.years)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def year_index(self, year: int) -> int:
        try:
            return self.years.index(year)
        except ValueError:
            raise KeyError(f"year {year} not in panel") from None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_panel: ok iff no issue has severity 'error'."""

    ok: bool
    issues: tuple[tuple[str, str, str], ...]  # (severity, location, message)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "issues": [
                {"severity": s, "location": loc, "message": msg}
                for s, loc, msg in self.issues
            ],
        }


def _parse_value(text: str, where: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise PanelFormatError(f"non-numeric value {text!r} at {where}") from None
    if not math.isfinite(v):
        raise PanelFormatError(f"non-finite value {text!r} at {where}")
    return v


def _parse_year(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PanelFormatError(f"non-integer year {text!r} at {where}") from None


def _csv_rows(path: Path):
    """Yield (line, row) for each record of a UTF-8 CSV file, the header
    first; line is the physical line on which the record starts. An empty
    file, bytes that are not UTF-8 and csv errors raise PanelFormatError."""
    start = 1
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield start, row
                start = reader.line_num + 1
        except UnicodeDecodeError as err:
            raise PanelFormatError(f"{path}: not valid UTF-8: {err.reason}") from None
        except csv.Error as err:
            raise PanelFormatError(f"{path}: {err}") from None
    if start == 1:
        raise PanelFormatError(f"{path}: empty file")


def _pair(a: int, b: int) -> int:
    """Cantor's pairing: a distinct int for each pair of ints >= 0."""
    s = a + b
    return s * (s + 1) // 2 + b


def _long_panel(years: dict, entities: dict, features: dict,
                year_codes: array, entity_codes: array, feature_codes: array,
                cells: array) -> EnergyPanel:
    """Scatter coded cells into a dense panel with the years sorted; names
    keep their first-seen order (each dict maps a name to its code)."""
    order = sorted(years)
    rank = np.empty(len(order), dtype=np.int64)
    rank[[years[y] for y in order]] = np.arange(len(order))
    values = np.zeros((len(years), len(entities), len(features)))
    values[rank[np.frombuffer(year_codes, dtype=np.int64)],
           np.frombuffer(entity_codes, dtype=np.int64),
           np.frombuffer(feature_codes, dtype=np.int64)] = np.frombuffer(cells)
    return EnergyPanel(tuple(order), tuple(entities), tuple(features), values)


def _load_long(path: Path) -> EnergyPanel:
    return _load_long_blocks(path) or _load_long_rows(path)


def _load_long_blocks(path: Path) -> EnergyPanel | None:
    """Parse a long CSV BLOCK_ROWS rows at a time, one column at a time.

    Returns None when the file is not a plain sequence of valid rows (wrong
    header or column count, a blank line, an empty name, a field int/float
    rejects, a non-finite value, a duplicate key, no data rows, bytes that
    are not UTF-8, a csv error); the row loop then reports the problem or
    skips the blank lines. Otherwise the panel is the one _load_long_rows
    returns, bit for bit."""
    years: dict[int, int] = {}
    entities: dict[str, int] = {}
    features: dict[str, int] = {}
    year_codes, entity_codes, feature_codes = array("q"), array("q"), array("q")
    cells = array("d")
    columns = ((years, year_codes), (entities, entity_codes), (features, feature_codes))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if [h.strip() for h in next(reader, ())] != LONG_HEADER:
                return None
            while block := list(islice(reader, BLOCK_ROWS)):
                if set(map(len, block)) != {4}:
                    return None
                year_col, entity_col, feature_col, value_col = zip(*block)
                cells.extend(map(float, map(str.strip, value_col)))
                parsed = (list(map(int, map(str.strip, year_col))),
                          list(map(str.strip, entity_col)),
                          list(map(str.strip, feature_col)))
                for (table, codes), col in zip(columns, parsed):
                    for name in dict.fromkeys(col):
                        table.setdefault(name, len(table))
                    codes.extend(map(table.__getitem__, col))
        except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
            return None
    n_years, n_entities, n_features = len(years), len(entities), len(features)
    if (not cells or "" in entities or "" in features
            or n_years * n_entities * n_features > np.iinfo(np.int64).max):
        return None
    if not np.isfinite(np.frombuffer(cells)).all():
        return None
    keys = np.frombuffer(year_codes, dtype=np.int64) * n_entities
    keys += np.frombuffer(entity_codes, dtype=np.int64)
    keys *= n_features
    keys += np.frombuffer(feature_codes, dtype=np.int64)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    return _long_panel(years, entities, features, year_codes, entity_codes,
                       feature_codes, cells)


def _load_long_rows(path: Path) -> EnergyPanel:
    """The row-at-a-time long loader: raises PanelFormatError naming the
    file and line of the first bad row, and skips blank lines. It is the
    error path of _load_long and the reference its block parser is
    tested against."""
    reader = _csv_rows(path)
    header = [h.strip() for h in next(reader)[1]]
    if header != LONG_HEADER:
        raise PanelFormatError(
            f"{path}: malformed header {header!r}, expected {','.join(LONG_HEADER)}"
        )
    # Names are coded 0, 1, ... in first-seen order; one int keys a cell.
    years: dict[int, int] = {}
    entities: dict[str, int] = {}
    features: dict[str, int] = {}
    first_row: dict[int, int] = {}  # cell key -> line of its first row
    year_codes, entity_codes, feature_codes = array("q"), array("q"), array("q")
    cells = array("d")
    name = str(path)
    for lineno, row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4:
            raise PanelFormatError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        where = f"{name}:{lineno}"
        year = _parse_year(row[0].strip(), where)
        entity = row[1].strip()
        feat = row[2].strip()
        if not entity or not feat:
            raise PanelFormatError(f"{where}: empty entity or feature name")
        value = _parse_value(row[3].strip(), where)
        yi = years.setdefault(year, len(years))
        ei = entities.setdefault(entity, len(entities))
        fi = features.setdefault(feat, len(features))
        key = _pair(_pair(yi, ei), fi)
        first = first_row.setdefault(key, lineno)
        if first != lineno:
            raise PanelFormatError(
                f"{where}: duplicate key {(year, entity, feat)}, first seen at row {first}"
            )
        year_codes.append(yi)
        entity_codes.append(ei)
        feature_codes.append(fi)
        cells.append(value)
    if not cells:
        raise PanelFormatError(f"{path}: no data rows")
    return _long_panel(years, entities, features, year_codes, entity_codes,
                       feature_codes, cells)


def _load_wide(path: Path) -> EnergyPanel:
    year_files: list[tuple[int, Path]] = []
    for child in sorted(path.iterdir()):
        m = _WIDE_NAME.match(child.name)
        if m:
            year_files.append((int(m.group(1)), child))
    if not year_files:
        raise PanelFormatError(f"{path}: no panel_<year>.csv files found")
    year_files.sort()

    features: list[str] | None = None
    entities: dict[str, None] = {}  # insertion-ordered name set
    per_year: dict[int, dict[str, list[float]]] = {}
    for year, file in year_files:
        reader = _csv_rows(file)
        header = [h.strip() for h in next(reader)[1]]
        if not header or header[0] != "entity":
            raise PanelFormatError(f"{file}: first header column must be 'entity'")
        file_feats = header[1:]
        if not file_feats:
            raise PanelFormatError(f"{file}: no feature columns")
        if features is None:
            features = file_feats
        elif file_feats != features:
            raise PanelFormatError(
                f"{file}: feature columns {file_feats!r} differ from {features!r}"
            )
        rows: dict[str, list[float]] = {}
        for lineno, row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(features) + 1:
                raise PanelFormatError(
                    f"{file}:{lineno}: expected {len(features) + 1} columns, got {len(row)}"
                )
            entity = row[0].strip()
            if not entity:
                raise PanelFormatError(f"{file}:{lineno}: empty entity name")
            if entity in rows:
                raise PanelFormatError(f"{file}:{lineno}: duplicate entity {entity!r}")
            rows[entity] = [_parse_value(c.strip(), f"{file}:{lineno}") for c in row[1:]]
            entities[entity] = None
        if not rows:
            raise PanelFormatError(f"{file}: no data rows")
        per_year[year] = rows

    assert features is not None
    years = [y for y, _ in year_files]
    values = np.zeros((len(years), len(entities), len(features)))
    for yi, year in enumerate(years):
        rows = per_year[year]
        for ei, entity in enumerate(entities):
            if entity in rows:
                values[yi, ei, :] = rows[entity]
    return EnergyPanel(tuple(years), tuple(entities), tuple(features), values)


def load_panel(path: str | Path, layout: str = "long") -> EnergyPanel:
    """Load a panel from disk. layout is 'long' (one CSV) or 'wide' (a
    directory of panel_<year>.csv files). Deterministic: identical bytes
    load to identical panels."""
    path = Path(path)
    if layout == "long":
        return _load_long(path)
    if layout == "wide":
        return _load_wide(path)
    raise ValueError(f"unknown layout {layout!r}")


def validate_panel(panel: EnergyPanel) -> ValidationReport:
    """Check a panel for sign/finiteness errors and all-zero series.

    Negative or non-finite cells are errors; all-zero feature columns and
    all-zero entity rows are warnings (preprocessing drops them)."""
    issues: list[tuple[str, str, str]] = []
    values = panel.values
    bad = ~np.isfinite(values)
    for yi, ei, fi in zip(*np.nonzero(bad)):
        loc = f"value[{panel.years[yi]},{panel.entities[ei]},{panel.features[fi]}]"
        issues.append(("error", loc, "non-finite value"))
    neg = np.isfinite(values) & (values < 0)
    for yi, ei, fi in zip(*np.nonzero(neg)):
        loc = f"value[{panel.years[yi]},{panel.entities[ei]},{panel.features[fi]}]"
        issues.append(("error", loc, f"negative value {values[yi, ei, fi]}"))
    finite = np.where(np.isfinite(values), values, 0.0)
    for fi, feat in enumerate(panel.features):
        if not finite[:, :, fi].any():
            issues.append(("warning", f"feature[{feat}]", "zero for all years and entities"))
    for ei, entity in enumerate(panel.entities):
        if not finite[:, ei, :].any():
            issues.append(("warning", f"entity[{entity}]", "zero for all years and features"))
    ok = not any(sev == "error" for sev, _, _ in issues)
    return ValidationReport(ok=ok, issues=tuple(issues))


def _jsonable(record) -> dict | list:
    if hasattr(record, "to_dict"):
        return record.to_dict()
    if isinstance(record, (dict, list)):
        return record
    raise TypeError(f"cannot serialize {type(record).__name__}: expected to_dict(), dict, or list")


def save_report(record, path: str | Path) -> None:
    """Write any report record as round-trippable JSON (UTF-8, sorted keys).

    The JSON is strict: a NaN or infinite number raises ValueError before
    the file is created."""
    payload = json.dumps(_jsonable(record), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def load_report(path: str | Path):
    """Read back a JSON report written by save_report. Bytes that are not
    UTF-8 JSON raise ClusterRegError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ClusterRegError(f"{path}: not a valid JSON report: {err}") from None


class _LineFeed:
    """File proxy for csv.writer. csv quotes only fields holding a character
    of its line terminator, so rows are formatted with the default \\r\\n
    (a bare \\r in a name gets quoted too) and written ending in \\n."""

    def __init__(self, fh):
        self.write = lambda line: fh.write(line[:-2] + "\n")


def write_csv(path: str | Path, header: list, rows) -> Path:
    """Stream one CSV file: UTF-8, each line ending in a bare LF. rows may be
    any iterable; a failed write removes the partial file."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        try:
            writer = csv.writer(_LineFeed(fh))
            writer.writerow(header)
            writer.writerows(rows)
        except BaseException:
            path.unlink()
            raise
    return path


def panel_long_rows(panel: EnergyPanel):
    """Rows of the long CSV layout (all cells, including zeros), one at a time."""
    for yi, year in enumerate(panel.years):
        for entity, row in zip(panel.entities, panel.values[yi].tolist()):
            for feat, value in zip(panel.features, row):
                yield [year, entity, feat, repr(value)]


def save_panel_long(panel: EnergyPanel, path: str | Path) -> None:
    """Write a panel in the long CSV layout (all cells, including zeros)."""
    write_csv(path, LONG_HEADER, panel_long_rows(panel))
