"""Panel dataset loading, validation, and JSON report persistence.

Two on-disk layouts are supported for panel data, told apart by the path:

* long CSV -- one file, header exactly ``year,entity,feature,value``;
  missing (year, entity, feature) cells default to 0.
* wide CSV -- one file per year named ``panel_<year>.csv`` inside a
  directory; first column ``entity``, remaining columns are feature names.

The long layout is parsed in binary chunks of whole lines of about
``CHUNK_BYTES`` bytes, a column at a time; a chunk ends at a ``\n``,
which never falls inside a UTF-8 sequence, so each chunk decodes alone.
A chunk that holds no quote, ``\r`` or NUL and is no longer than
``csv.field_size_limit()`` is plain: on it ``csv.reader`` would only
split on ``\n`` and ``,``. One pass over its bytes checks that the
separators run ``,,,\n`` row after row, and then one ``str.split`` cuts
its fields. Every other file (a chunk that is not plain, a blank line, a
bad field, a duplicate key, ...) is read again by the row loop
``_load_long_rows``, which takes quotes and CRLF line ends, and reports
the first problem or skips the blank lines. Every loader error names the
file and the physical line on which the offending record starts, so a
quoted name that spans lines does not shift the line numbers after it.

Reports are plain JSON (UTF-8, sorted keys) so external tools can parse
them without this package.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ClusterRegError, PanelFormatError

LONG_HEADER = ["year", "entity", "feature", "value"]
# Bytes per chunk of the long parser: big enough that per-chunk work is
# negligible, small enough that a chunk's field list stays well under 1 MB.
CHUNK_BYTES = 1 << 16
_WIDE_NAME = re.compile(r"panel_(\d+)\.csv", re.ASCII)  # ASCII digits; use fullmatch


@dataclass(frozen=True)
class EnergyPanel:
    """Dense 3-d panel: values[year, entity, feature] in Mt CO2."""

    years: tuple[int, ...]
    entities: tuple[str, ...]
    features: tuple[str, ...]
    values: np.ndarray  # shape (n_years, n_entities, n_features)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # its own copy, kept read-only
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
            for n in names:
                if n != n.strip():
                    raise PanelFormatError(f"{kind} name {n!r} has surrounding whitespace")
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

    issues: tuple[tuple[str, str, str], ...]  # (severity, location, message)

    @property
    def ok(self) -> bool:
        return not any(sev == "error" for sev, _, _ in self.issues)


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


def _long_panel(years: dict, entities: dict, features: dict,
                year_codes, entity_codes, feature_codes, cells) -> EnergyPanel:
    """Scatter coded cells into a dense panel with the years sorted; names
    keep their first-seen order (each dict maps a name to its code). The
    codes and cells are int64 and float64 buffers of one length."""
    order = sorted(years)
    rank = np.empty(len(order), dtype=np.int64)
    rank[[years[y] for y in order]] = np.arange(len(order))
    values = np.zeros((len(years), len(entities), len(features)))
    values[rank[np.asarray(year_codes)], np.asarray(entity_codes),
           np.asarray(feature_codes)] = np.asarray(cells)
    return EnergyPanel(tuple(order), tuple(entities), tuple(features), values)


def _load_long(path: Path) -> EnergyPanel:
    return _load_long_blocks(path) or _load_long_rows(path)


# Every byte but the two separators: bytes.translate deletes these, so a
# chunk of rows of 4 fields leaves ",,,\n" once per row.
_NOT_SEPARATORS = bytes(range(256)).translate(None, b",\n")


def _long_fields(path: Path):
    """Yield the fields of a plain long CSV file a chunk at a time: one flat
    list of 4 fields a record, the header's first. A chunk that is not
    plain or holds a record of other than 4 fields raises ValueError, and
    so do bytes that are not UTF-8."""
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK_BYTES):
            chunk += fh.readline()
            if len(chunk) > limit or b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                raise ValueError("a chunk that is not plain")
            if not chunk.endswith(b"\n"):
                chunk += b"\n"  # a missing final \n counts as one
            seps = chunk.translate(None, _NOT_SEPARATORS)
            rows = len(seps) // 4
            if seps != b",,,\n" * rows:
                raise ValueError("a line does not hold 4 fields")
            fields = chunk.decode().replace("\n", ",").split(",")
            fields.pop()  # the empty field after the last \n
            yield fields


def _codes(col: list, table: dict, raw: dict, parse) -> np.ndarray:
    """The codes of a column of raw key fields. raw maps each raw field
    seen so far to its code in table, the dict of parsed keys, so a raw
    field is parsed only the first time it is seen, in first-seen order."""
    try:
        return np.fromiter(map(raw.__getitem__, col), np.int64, len(col))
    except KeyError:
        for s in dict.fromkeys(col):
            if s not in raw:
                raw[s] = table.setdefault(parse(s), len(table))
        return np.fromiter(map(raw.__getitem__, col), np.int64, len(col))


def _joined(parts: list) -> np.ndarray:
    """Concatenate a list of arrays and empty it, so that of the four
    columns only the one being joined is held twice."""
    whole = np.concatenate(parts)
    parts.clear()
    return whole


def _load_long_blocks(path: Path) -> EnergyPanel | None:
    """Parse a plain long CSV a chunk at a time, one column at a time.

    Returns None when the file is not a plain sequence of valid rows (a
    quote, \\r or NUL, a chunk longer than csv.field_size_limit(), a wrong
    header or column count, a blank line, an empty name, a field int/float
    rejects, a non-finite value, a duplicate key, no data rows, bytes that
    are not UTF-8); the row loop then reads the file, and reports the
    problem or skips the blank lines. Otherwise the panel is the one
    _load_long_rows returns, bit for bit."""
    years: dict[int, int] = {}
    entities: dict[str, int] = {}
    features: dict[str, int] = {}
    # Per key column: the table of parsed keys, a table from each raw field
    # to its code, and the parse. Names are interned, so that the panels of
    # repeated loads share one copy of each.
    columns = ((years, {}, lambda s: int(s.strip())),
               (entities, {}, lambda s: sys.intern(s.strip())),
               (features, {}, lambda s: sys.intern(s.strip())))
    parts = ([], [], [], [])  # per chunk: year, entity and feature codes, cells
    start = 4  # the header's fields lead the first chunk
    try:
        for fields in _long_fields(path):
            if start and [h.strip() for h in fields[:4]] != LONG_HEADER:
                return None
            for k, column in enumerate(columns):
                parts[k].append(_codes(fields[start + k::4], *column))
            # float() strips what str.strip would, but \x1c-\x1f, which it
            # rejects: the row loop then reads the file, to the same panel.
            col = fields[start + 3::4]
            parts[3].append(np.fromiter(map(float, col), float, len(col)))
            start = 0
    except ValueError:  # UnicodeDecodeError is a ValueError
        return None
    if not parts[3]:  # an empty file
        return None
    year_codes, entity_codes, feature_codes, cells = map(_joined, parts)
    n_years, n_entities, n_features = len(years), len(entities), len(features)
    if (not cells.size or "" in entities or "" in features
            or n_years * n_entities * n_features > np.iinfo(np.int64).max):
        return None
    if not np.isfinite(cells).all():
        return None
    keys = year_codes * n_entities
    keys += entity_codes
    keys *= n_features
    keys += feature_codes
    if np.bincount(keys).max() > 1:  # a duplicate key
        return None
    return _long_panel(years, entities, features, year_codes, entity_codes,
                       feature_codes, cells)


def _load_long_rows(path: Path) -> EnergyPanel:
    """The row-at-a-time long loader: raises PanelFormatError naming the
    file and line of the first bad row, and skips blank lines. It reads
    every long file the block parser declines (quoted, CRLF or invalid),
    and is the reference that parser is tested against."""
    reader = _csv_rows(path)
    header = [h.strip() for h in next(reader)[1]]
    if header != LONG_HEADER:
        raise PanelFormatError(
            f"{path}: malformed header {header!r}, expected {','.join(LONG_HEADER)}"
        )
    # Names are coded 0, 1, ... in first-seen order; their codes key a cell.
    years: dict[int, int] = {}
    entities: dict[str, int] = {}
    features: dict[str, int] = {}
    year_codes, entity_codes, feature_codes = array("q"), array("q"), array("q")
    lines = array("q")  # the line each row starts on
    cells = array("d")
    name = str(path)
    try:
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
            year_codes.append(years.setdefault(year, len(years)))
            entity_codes.append(entities.setdefault(entity, len(entities)))
            feature_codes.append(features.setdefault(feat, len(features)))
            lines.append(lineno)
            cells.append(value)
    finally:  # a duplicate among the rows before a bad one is the first fault
        _check_unique_keys(path, years, entities, features, year_codes, entity_codes,
                           feature_codes, lines)
    if not cells:
        raise PanelFormatError(f"{path}: no data rows")
    return _long_panel(years, entities, features, year_codes, entity_codes,
                       feature_codes, cells)


def _check_unique_keys(path: Path, years: dict, entities: dict, features: dict,
                       year_codes, entity_codes, feature_codes, lines) -> None:
    """Raise PanelFormatError at the first row whose (year, entity, feature)
    codes an earlier row has, naming both rows' lines. The rows are sorted
    by their three codes, not by one product key, which could overflow
    int64."""
    codes = [np.asarray(c) for c in (year_codes, entity_codes, feature_codes)]
    order = np.lexsort(codes[::-1])  # stable: the rows of one key keep file order
    repeat = np.ones(max(order.size - 1, 0), dtype=bool)  # sorted row t repeats row t-1
    for c in codes:
        ranked = c[order]
        repeat &= ranked[1:] == ranked[:-1]
    if repeat.any():
        row = int(order[1:][repeat].min())
        first = int(np.flatnonzero(np.logical_and.reduce([c == c[row] for c in codes]))[0])
        year, entity, feat = (list(table)[int(c[row])]
                              for table, c in zip((years, entities, features), codes))
        raise PanelFormatError(f"{path}:{lines[row]}: duplicate key {(year, entity, feat)}, "
                               f"first seen at row {lines[first]}") from None


def _load_wide(path: Path) -> EnergyPanel:
    files: dict[int, Path] = {}
    for child in sorted(path.iterdir()):
        m = _WIDE_NAME.fullmatch(child.name)
        if m:
            year = int(m.group(1))
            if year in files:
                raise PanelFormatError(f"{child}: year {year} already named by {files[year]}")
            files[year] = child
    if not files:
        raise PanelFormatError(f"{path}: no panel_<year>.csv files found")
    year_files = sorted(files.items())

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


def load_panel(path: str | Path) -> EnergyPanel:
    """Load a panel from disk: a directory of panel_<year>.csv files in the
    wide layout, anything else as a long CSV. Deterministic: identical
    bytes load to identical panels."""
    path = Path(path)
    return _load_wide(path) if path.is_dir() else _load_long(path)


def validate_panel(panel: EnergyPanel) -> ValidationReport:
    """Check a panel for sign/finiteness errors and all-zero series.

    Negative or non-finite cells are errors; all-zero feature columns and
    all-zero entity rows are warnings (preprocessing drops them)."""
    issues: list[tuple[str, str, str]] = []
    values = panel.values
    finite = np.isfinite(values)
    bad = np.nonzero(~finite)
    for yi, ei, fi in zip(*bad):
        loc = f"value[{panel.years[yi]},{panel.entities[ei]},{panel.features[fi]}]"
        issues.append(("error", loc, "non-finite value"))
    neg = finite & (values < 0)
    for yi, ei, fi in zip(*np.nonzero(neg)):
        loc = f"value[{panel.years[yi]},{panel.entities[ei]},{panel.features[fi]}]"
        issues.append(("error", loc, f"negative value {values[yi, ei, fi]}"))
    if bad[0].size:  # a non-finite cell counts as zero for the all-zero tests
        values = np.where(finite, values, 0.0)
    for fi in np.flatnonzero(~values.any(axis=(0, 1))):
        issues.append(("warning", f"feature[{panel.features[fi]}]",
                       "zero for all years and entities"))
    for ei in np.flatnonzero(~values.any(axis=(0, 2))):
        issues.append(("warning", f"entity[{panel.entities[ei]}]",
                       "zero for all years and features"))
    return ValidationReport(tuple(issues))


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


class _Echo:
    """File proxy for csv.writer whose write returns the text it is given,
    so that writerow returns the formatted row."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _csv_lines(rows):
    """Yield each row as csv.writer formats it, ending in a bare \\n. csv
    quotes only fields holding a character of its line terminator, so rows
    are formatted with the default \\r\\n (a bare \\r in a name gets quoted
    too) and that ending is then swapped for \\n."""
    format_row = csv.writer(_Echo()).writerow
    for row in rows:
        yield format_row(row)[:-2] + "\n"


def _write_text(path: str | Path, pieces) -> Path:
    """Write an iterable of strings to one UTF-8 file, the strings as they
    are; a failed write removes the partial file."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        try:
            fh.writelines(pieces)
        except BaseException:
            path.unlink()
            raise
    return path


def write_csv(path: str | Path, header: list, rows) -> Path:
    """Stream one CSV file: UTF-8, each line ending in a bare LF. rows may be
    any iterable; a failed write removes the partial file."""
    return _write_text(path, _csv_lines(chain([header], rows)))


def save_panel_long(panel: EnergyPanel, path: str | Path) -> None:
    """Write a panel in the long CSV layout (all cells, including zeros).

    The bytes are those write_csv writes for the rows [year, entity,
    feature, repr(value)], but each name is formatted by csv once and each
    year is written as one text block, so the cost is about that of repr."""
    entities = [line[:-1] for line in _csv_lines([e] for e in panel.entities)]
    features = [line[:-1] for line in _csv_lines([f] for f in panel.features)]
    keys = [f"{e},{f}," for e in entities for f in features]

    def blocks():
        yield from _csv_lines([LONG_HEADER])
        for year, values in zip(panel.years, panel.values):
            prefix = f"{year},"
            yield "".join([f"{prefix}{key}{value!r}\n"
                           for key, value in zip(keys, values.ravel().tolist())])

    _write_text(path, blocks())
