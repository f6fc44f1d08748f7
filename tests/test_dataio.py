import csv
import errno
import math
import tracemalloc

import numpy as np
import pytest

from clusterreg import dataio
from clusterreg.dataio import (
    LONG_HEADER,
    EnergyPanel,
    load_panel,
    load_report,
    save_panel_long,
    save_report,
    validate_panel,
    write_csv,
)
from clusterreg.errors import PanelFormatError
from clusterreg.synth import generate_synthetic


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_long_basic(tmp_path):
    p = write(tmp_path / "p.csv", "year,entity,feature,value\n"
              "2000,Metal,Coke,39.03\n"
              "2000,Metal,Raw Coal,0.552\n")
    panel = load_panel(p)
    assert panel.years == (2000,)
    assert panel.entities == ("Metal",)
    assert panel.features == ("Coke", "Raw Coal")
    assert panel.values[0, 0, 0] == 39.03
    assert panel.values[0, 0, 1] == 0.552


def test_load_long_missing_cells_default_zero(tmp_path):
    p = write(tmp_path / "p.csv", "year,entity,feature,value\n"
              "2000,A,f1,1.0\n"
              "2001,B,f2,2.0\n")
    panel = load_panel(p)
    assert panel.values.shape == (2, 2, 2)
    assert panel.values[0, 1, 0] == 0.0  # (2000, B, f1) was never given


def test_load_long_sorts_years_seen_out_of_order(tmp_path):
    p = write(tmp_path / "p.csv", "year,entity,feature,value\n"
              "2001,B,f2,1.0\n"
              "2000,A,f1,2.0\n"
              "2001,A,f1,3.0\n")
    panel = load_panel(p)
    assert panel.years == (2000, 2001)
    assert panel.entities == ("B", "A") and panel.features == ("f2", "f1")
    assert panel.values.tolist() == [[[0.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 3.0]]]


def test_load_long_empty_data_rows(tmp_path):
    p = write(tmp_path / "p.csv", "year,entity,feature,value\n")
    with pytest.raises(PanelFormatError, match="no data rows"):
        load_panel(p)


def test_load_long_duplicate_key_names_both_rows(tmp_path):
    p = write(tmp_path / "p.csv", "year,entity,feature,value\n"
              "2000,A,f1,1.0\n"
              "2000,A,f1,2.0\n")
    with pytest.raises(PanelFormatError) as err:
        load_panel(p)
    assert ":3" in str(err.value) and "row 2" in str(err.value)


@pytest.mark.parametrize("layout,text,message", [
    # The bad value is on line 4: the quoted name of the record before it
    # spans lines 2 and 3.
    ("long", 'year,entity,feature,value\n2000,"A\nB",f,1.0\n2000,C,f,x\n',
     "non-numeric value 'x' at {}:4"),
    ("long", 'year,entity,feature,value\n2000,"A\r\nB",f,1.0\n2000,"A\r\nB",f,2.0\n',
     "{}:4: duplicate key (2000, 'A\\r\\nB', 'f'), first seen at row 2"),
    # A duplicate before another bad row is the first fault; the first
    # repeated row, not the first repeated key, is named; a bad row before a
    # duplicate is the first fault.
    ("long", "year,entity,feature,value\n2000,A,f,1.0\n2000,A,f,2.0\n2000,C,f,x\n",
     "{}:3: duplicate key (2000, 'A', 'f'), first seen at row 2"),
    ("long", "year,entity,feature,value\n2000,A,f,1.0\n2000,B,f,1.0\n2000,B,f,2.0\n"
     "2000,A,f,2.0\n2000,C,f\n", "{}:4: duplicate key (2000, 'B', 'f'), first seen at row 3"),
    ("long", "year,entity,feature,value\n2000,A,f,1.0\n2000,C,f\n2000,A,f,2.0\n",
     "{}:3: expected 4 columns, got 3"),
    # A row that repeats a key and holds a bad value reports the value.
    ("long", "year,entity,feature,value\n2000,A,f,1.0\n2000,A,f,x\n",
     "non-numeric value 'x' at {}:3"),
    ("long", "year,entity,feature,value\n2000,A,f,1.0\n2000,A,f,inf\n",
     "non-finite value 'inf' at {}:3"),
    ("wide", 'entity,f\n"A\nB",1.0\nC,x\n', "non-numeric value 'x' at {}:4"),
    ("wide", 'entity,f\n"A\nB",1.0\n"A\nB",2.0\n', "{}:4: duplicate entity 'A\\nB'"),
    ("wide", 'entity,f\n"A\nB",1.0\n ,2.0\n', "{}:4: empty entity name"),
])
def test_errors_name_the_physical_line_the_record_starts_on(tmp_path, layout, text, message):
    if layout == "long":
        path = bad = write(tmp_path / "p.csv", text)
    else:
        path, bad = tmp_path, write(tmp_path / "panel_2000.csv", text)
    with pytest.raises(PanelFormatError) as err:
        load_panel(path)
    assert str(err.value) == message.format(bad)


@pytest.mark.parametrize("layout,text,message", [
    ("long", "", "{}: empty file"),
    ("wide", None, "{}: no panel_<year>.csv files found"),
    ("wide", "entity\nA\n", "{}: no feature columns"),
    ("wide", "entity,f\n\n", "{}: no data rows"),
])
def test_errors_of_a_whole_file_name_the_file(tmp_path, layout, text, message):
    """A long file with no header, a directory with no panel_<year>.csv
    file, and a wide file with no feature column or no data row: each
    raises naming the file or directory."""
    if layout == "long":
        path = bad = write(tmp_path / "p.csv", text)
    elif text is None:
        path = bad = tmp_path
        write(tmp_path / "panel.csv", "entity,f\nA,1.0\n")
    else:
        path, bad = tmp_path, write(tmp_path / "panel_2000.csv", text)
    with pytest.raises(PanelFormatError) as err:
        load_panel(path)
    assert str(err.value) == message.format(bad)


def test_load_long_malformed_header(tmp_path):
    """A 3-field header fails the field count; a 4-field one with a wrong
    name reaches the header comparison itself."""
    for text in ("year,entity,value\n2000,A,1\n", "year,entity,feature,val\n2000,A,f1,1\n"):
        p = write(tmp_path / "p.csv", text)
        with pytest.raises(PanelFormatError, match="malformed header"):
            load_panel(p)


def test_load_long_non_numeric_value_reports_location(tmp_path):
    p = write(tmp_path / "p.csv", "year,entity,feature,value\n2000,A,f1,abc\n")
    with pytest.raises(PanelFormatError, match=r"(?s)abc.*:2"):
        load_panel(p)


def test_load_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_panel(tmp_path / "nope.csv")


def test_long_and_wide_load_identically(tmp_path):
    long_file = write(tmp_path / "long.csv", "year,entity,feature,value\n"
                      "2000,A,f1,1.0\n2000,A,f2,2.0\n2000,B,f1,3.0\n2000,B,f2,0.0\n"
                      "2001,A,f1,5.0\n2001,A,f2,6.0\n2001,B,f1,7.0\n2001,B,f2,8.0\n")
    wide_dir = tmp_path / "wide"
    wide_dir.mkdir()
    write(wide_dir / "panel_2000.csv", "entity,f1,f2\nA,1.0,2.0\nB,3.0,0.0\n")
    write(wide_dir / "panel_2001.csv", "entity,f1,f2\nA,5.0,6.0\nB,7.0,8.0\n")
    a = load_panel(long_file)
    b = load_panel(wide_dir)
    assert a.years == b.years and a.entities == b.entities and a.features == b.features
    assert np.array_equal(a.values, b.values)


def test_wide_inconsistent_features_rejected(tmp_path):
    wide_dir = tmp_path / "wide"
    wide_dir.mkdir()
    write(wide_dir / "panel_2000.csv", "entity,f1,f2\nA,1,2\n")
    write(wide_dir / "panel_2001.csv", "entity,f1,f3\nA,1,2\n")
    with pytest.raises(PanelFormatError, match="differ"):
        load_panel(wide_dir)


def test_wide_two_files_for_one_year_name_both(tmp_path):
    write(tmp_path / "panel_2000.csv", "entity,f\nA,1.0\n")
    write(tmp_path / "panel_02000.csv", "entity,f\nA,2.0\n")
    with pytest.raises(PanelFormatError) as err:
        load_panel(tmp_path)
    assert str(err.value) == (f"{tmp_path / 'panel_2000.csv'}: year 2000 already named by "
                              f"{tmp_path / 'panel_02000.csv'}")


@pytest.mark.parametrize("name", ["panel_２０００.csv", "panel_2000.csv\n"])
def test_wide_year_is_ascii_digits_and_the_whole_name(tmp_path, name):
    """Fullwidth digits are decimal digits to `\\d` and to int(), and `$`
    matches before a trailing newline: neither file is a panel_<year>.csv."""
    write(tmp_path / name, "entity,f\nA,1.0\n")
    write(tmp_path / "panel_2001.csv", "entity,f\nA,2.0\n")
    assert load_panel(tmp_path).years == (2001,)


def test_load_deterministic(tmp_path):
    p = write(tmp_path / "p.csv", "year,entity,feature,value\n"
              "2000,A,f1,1.25\n2001,A,f1,2.5\n")
    a = load_panel(p)
    b = load_panel(p)
    assert a.years == b.years and np.array_equal(a.values, b.values)


def test_save_panel_long_roundtrip(tmp_path):
    panel = EnergyPanel((2000, 2001), ("A", "B"), ("f1",),
                        np.array([[[1.5], [0.0]], [[2.25], [3.125]]]))
    path = tmp_path / "out.csv"
    save_panel_long(panel, path)
    back = load_panel(path)
    assert back.years == panel.years
    assert np.array_equal(back.values, panel.values)


def test_panel_invariants_enforced():
    with pytest.raises(PanelFormatError, match="strictly increasing"):
        EnergyPanel((2001, 2000), ("A",), ("f",), np.zeros((2, 1, 1)))
    with pytest.raises(PanelFormatError, match="duplicate entity"):
        EnergyPanel((2000,), ("A", "A"), ("f",), np.zeros((1, 2, 1)))
    with pytest.raises(PanelFormatError, match="shape"):
        EnergyPanel((2000,), ("A",), ("f",), np.zeros((1, 2, 1)))


def test_validate_flags_negative_cell():
    panel = EnergyPanel((2000,), ("A",), ("f", "g"), np.array([[[1.0, -2.0]]]))
    report = validate_panel(panel)
    assert not report.ok
    errors = [i for i in report.issues if i[0] == "error"]
    assert len(errors) == 1 and "value[2000,A,g]" in errors[0][1]


def test_validate_warns_all_zero_feature_and_entity():
    values = np.zeros((2, 2, 2))
    values[:, 0, 0] = [1.0, 2.0]  # entity A, feature f nonzero
    panel = EnergyPanel((2000, 2001), ("A", "B"), ("f", "g"), values)
    report = validate_panel(panel)
    assert report.ok  # warnings only
    warned = {loc for sev, loc, _ in report.issues if sev == "warning"}
    assert warned == {"feature[g]", "entity[B]"}


def test_validate_counts_non_finite_cells_as_zero_and_keeps_the_issue_order():
    values = np.zeros((2, 3, 3))
    values[:, 0, 0] = [1.0, -2.0]  # entity A, feature f: one negative cell
    values[1, 1, 1] = np.nan  # feature g is zero apart from one NaN
    values[0, 0, 1] = -np.inf
    values[:, 2, 2] = np.inf  # entity C is non-finite or zero throughout
    panel = EnergyPanel((2000, 2001), ("A", "B", "C"), ("f", "g", "h"), values)
    assert validate_panel(panel).issues == (
        ("error", "value[2000,A,g]", "non-finite value"),
        ("error", "value[2000,C,h]", "non-finite value"),
        ("error", "value[2001,B,g]", "non-finite value"),
        ("error", "value[2001,C,h]", "non-finite value"),
        ("error", "value[2001,A,f]", "negative value -2.0"),
        ("warning", "feature[g]", "zero for all years and entities"),
        ("warning", "feature[h]", "zero for all years and entities"),
        ("warning", "entity[B]", "zero for all years and features"),
        ("warning", "entity[C]", "zero for all years and features"),
    )


def test_validate_clean_panel():
    panel = EnergyPanel((2000,), ("A",), ("f",), np.array([[[1.0]]]))
    report = validate_panel(panel)
    assert report.ok and report.issues == ()


def test_save_report_roundtrip_and_idempotent(tmp_path):
    record = {"r2": 0.9991, "issues": [], "nested": {"a": [1, 2.5]}}
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    save_report(record, p1)
    loaded = load_report(p1)
    assert loaded == record
    assert loaded["r2"] == 0.9991
    save_report(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_report_fit_report(tmp_path):
    from clusterreg.regression import DesignMatrix, fit_ols, fit_report

    d = DesignMatrix([[1.0], [2.0], [3.0]], [1.0, 2.1, 2.9], ("x",))
    report = fit_report(fit_ols(d), d)
    path = tmp_path / "fit.json"
    save_report(report, path)
    loaded = load_report(path)
    assert loaded == report.to_dict()
    assert "r2" in loaded and loaded["r2"] == report.r2


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_save_report_rejects_non_finite_and_writes_nothing(tmp_path, value):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        save_report({"sc": value}, path)
    assert not path.exists()


def test_panel_rejects_names_with_surrounding_whitespace():
    # save_panel_long would write these and load_panel, which strips every
    # field, would reject the file (" " empties) or merge two names ("A ").
    for entities in ((" ", "A "), ("A", "A "), ("\tA",)):
        with pytest.raises(PanelFormatError, match="entity name .* surrounding whitespace"):
            EnergyPanel((2000,), entities, ("f",), np.zeros((1, len(entities), 1)))
    with pytest.raises(PanelFormatError, match=r"feature name 'f\\n'"):
        EnergyPanel((2000,), ("A",), ("f\n",), np.zeros((1, 1, 1)))


def test_names_with_inner_whitespace_round_trip(tmp_path):
    panel = EnergyPanel((2000, 2001), ("A B", "C\tD"), ("f 1",),
                        np.array([[[1.5], [0.0]], [[2.25], [3.125]]]))
    save_panel_long(panel, tmp_path / "p.csv")
    back = load_panel(tmp_path / "p.csv")
    assert (back.years, back.entities, back.features) == (
        panel.years, panel.entities, panel.features)
    assert np.array_equal(back.values, panel.values)


# -- writer/loader round trip and loader robustness (hypothesis) -------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Names a panel may hold: non-empty, no surrounding whitespace (the loader
# strips each field, and EnergyPanel rejects padded names).
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5).filter(
    lambda s: s == s.strip())
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw):
    years = sorted(draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=3, unique=True)))
    entities = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    features = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    n = len(years) * len(entities) * len(features)
    values = draw(st.lists(FINITE, min_size=n, max_size=n))
    shape = (len(years), len(entities), len(features))
    return EnergyPanel(years, entities, features, np.array(values).reshape(shape))


@given(panel=panels())
@example(panel=EnergyPanel((2000,), ("a\rb", 'c\n"d'), ("e,f",), np.array([[[1.0], [-0.0]]])))
@settings(max_examples=150, deadline=None)
def test_save_panel_long_load_panel_roundtrip(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("roundtrip") / "panel.csv"
    save_panel_long(panel, path)
    back = load_panel(path)
    assert (back.years, back.entities, back.features) == (
        panel.years, panel.entities, panel.features)
    assert np.array_equal(back.values, panel.values)


def assert_same_panel(a, b):
    assert (a.years, a.entities, a.features) == (b.years, b.entities, b.features)
    assert a.values.tobytes() == b.values.tobytes()


# Stripped non-empty names that often hold the characters csv must quote.
QUOTED_NAMES = st.text(
    st.one_of(st.sampled_from(',\r\n"'), st.characters(blacklist_categories=("Cs",))),
    min_size=1, max_size=5).filter(lambda s: s == s.strip())
PADS = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def valid_long_files(draw):
    """Rows of a valid long file: a shuffled subset of the cells (so cells
    are missing and years out of order), every field padded with
    whitespace; and whether lines end in CRLF."""
    years = draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=4, unique=True))
    entities = draw(st.lists(QUOTED_NAMES, min_size=1, max_size=4, unique=True))
    features = draw(st.lists(QUOTED_NAMES, min_size=1, max_size=3, unique=True))
    keys = [(y, e, f) for y in years for e in entities for f in features]
    rows = []
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)):
        fields = [str(key[0]), key[1], key[2], repr(draw(FINITE))]
        rows.append([draw(PADS) + field + draw(PADS) for field in fields])
    return rows, draw(st.booleans())


@given(file=valid_long_files(), chunk_bytes=st.sampled_from([1, 40, dataio.CHUNK_BYTES]))
@example(file=([["2001", "a,b", "f", "1.0"], ["2000", '"c\rd', "f", "2.5"],
                ["2001", '"c\rd', "g\n", " -0.0"]], True), chunk_bytes=40)
@example(file=([["2001", "a", "f", "1.0"], ["2000", " c", "f ", "2.5"],
                ["2001", "c", "\tg", " -0.0"]], False), chunk_bytes=1)
@example(file=([["2001", "a", "f", "\x1c1.0"], ["2000", "\x1fc", "f", "2.5 \x1d"],
                ["2001", "c", "g\x1e", "-0.0"]], False), chunk_bytes=40)
@settings(max_examples=200, deadline=None)
def test_block_parser_equals_row_loop(tmp_path_factory, file, chunk_bytes):
    """On a valid long file the block parser returns None exactly when the
    file holds a quote, \\r or NUL, or a value padded with \\x1c-\\x1f (which
    str.strip removes and float of bytes rejects) or holding a character
    that is not ASCII (none here: values are repr text padded with ASCII
    whitespace), and else the row loop's panel bit for bit; load_panel
    returns that panel either way. Small chunks make the code tables run
    across chunks."""
    rows, crlf = file
    path = tmp_path_factory.mktemp("blocks") / "panel.csv"
    if crlf:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([LONG_HEADER, *rows])
    else:
        write_csv(path, LONG_HEADER, rows)
    expected = dataio._load_long_rows(path)
    data = path.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "CHUNK_BYTES", chunk_bytes)
        panel = dataio._load_long_blocks(path)
        if (b'"' in data or b"\r" in data or b"\0" in data
                or any(set(row[3]) & set("\x1c\x1d\x1e\x1f") or not row[3].isascii()
                       for row in rows)):
            assert panel is None
        else:
            assert_same_panel(panel, expected)
        assert_same_panel(load_panel(path), expected)


# Names a plain file may hold: no comma, quote, \r, \n or NUL, none padded.
PLAIN_NAMES = st.text(st.sampled_from("ab xé漢"), min_size=1, max_size=3).filter(
    lambda s: s == s.strip())


@st.composite
def block_files(draw):
    """Rows of a dense plain long file in year blocks, each block holding
    the first block's (entity, feature) sequence, then up to three later
    blocks perturbed: two rows swapped, a row dropped or repeated, a name
    respelled with surrounding whitespace, or a row put under another
    year."""
    years = draw(st.lists(st.integers(1990, 2030), min_size=1, max_size=5, unique=True))
    entities = draw(st.lists(PLAIN_NAMES, min_size=1, max_size=4, unique=True))
    features = draw(st.lists(PLAIN_NAMES, min_size=1, max_size=3, unique=True))
    keys = draw(st.permutations([(e, f) for e in entities for f in features]))
    blocks = [[[str(y), e, f, repr(draw(FINITE))] for e, f in keys] for y in years]
    for _ in range(draw(st.integers(0, 3)) if len(blocks) > 1 else 0):
        block = blocks[draw(st.integers(1, len(blocks) - 1))]
        if not block:
            continue
        i = draw(st.integers(0, len(block) - 1))
        kind = draw(st.sampled_from(["swap", "drop", "repeat", "respell", "year"]))
        if kind == "swap":
            j = draw(st.integers(0, len(block) - 1))
            block[i], block[j] = block[j], block[i]
        elif kind == "drop":
            del block[i]
        elif kind == "repeat":
            block.insert(i, list(block[i]))
        elif kind == "respell":
            k = draw(st.sampled_from([1, 2]))
            block[i][k] = draw(st.sampled_from([" ", "\t"])) + block[i][k] + " "
        else:
            block[i][0] = str(draw(st.integers(1990, 2031)))
    return [row for block in blocks for row in block]


@given(rows=block_files(), chunk_bytes=st.sampled_from([1, 40, 200, dataio.CHUNK_BYTES]))
@example(rows=[], chunk_bytes=dataio.CHUNK_BYTES)  # a header-only file
@example(rows=[["2000", "a", "f", "1.0"], ["2000", "a", "g", "2.0"], ["2000", "b", "f", "3.0"]],
         chunk_bytes=40)
@example(rows=[[str(2000 + i), "a", "f", f"{i}.5"] for i in range(40)], chunk_bytes=40)
@example(rows=[[str(2000 + i), "a", "f", f"{i}.5"] for i in range(40)]
         + [["2000", "a", "f", "1.0"]], chunk_bytes=200)
@example(rows=[[str(2000 + i // 2) if i != 9 else "2030", "ab"[i % 2], "f", f"{i}.5"]
               for i in range(12)], chunk_bytes=40)
@settings(max_examples=300, deadline=None)
def test_block_parser_on_repeated_year_blocks(tmp_path_factory, rows, chunk_bytes):
    """On a plain file whose later year blocks repeat the first block's
    (entity, feature) sequence, or nearly do, the block parser returns the
    row loop's panel bit for bit, or None where the row loop raises: a
    chunk that repeats the first block is coded from it, any other chunk
    row by row, and the two must agree wherever a chunk cut or a
    perturbation falls. Examples: a header-only file, a single-year file,
    one-row blocks (with a repeated key in the last chunk), and a row put
    under another year inside a two-row block of a chunk that holds
    three."""
    path = tmp_path_factory.mktemp("repeat") / "panel.csv"
    write_csv(path, LONG_HEADER, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "CHUNK_BYTES", chunk_bytes)
        panel = dataio._load_long_blocks(path)
    try:
        expected = dataio._load_long_rows(path)
    except PanelFormatError:
        assert panel is None
    else:
        assert_same_panel(panel, expected)


@pytest.mark.parametrize("shape", [{}, {"n_years": 60, "support_size": 16}],
                         ids=["default-46", "tall-full-rank"])
def test_plain_long_file_is_split_without_csv_reader(tmp_path, monkeypatch, shape):
    """save_panel_long output holds no quote, \\r or NUL, so the loader
    splits it with str.split: csv.reader is never built and the row loop
    never runs, over one chunk or many, on the default and the 60-year
    benchmark panels."""
    panel, _ = generate_synthetic(seed=0, **shape)
    path = tmp_path / "panel.csv"
    save_panel_long(panel, path)
    reader, calls = csv.reader, []
    monkeypatch.setattr(csv, "reader", lambda *a: calls.append("csv.reader") or reader(*a))
    monkeypatch.setattr(dataio, "_load_long_rows", lambda path: calls.append("rows"))
    for chunk_bytes in (dataio.CHUNK_BYTES, 1000):
        monkeypatch.setattr(dataio, "CHUNK_BYTES", chunk_bytes)
        back = load_panel(path)
        assert calls == []
        assert_same_panel(back, panel)


@pytest.mark.parametrize("chunk_bytes", [dataio.CHUNK_BYTES, 1000])
@pytest.mark.parametrize("shape", [{}, {"n_entities": 400}, {"n_years": 60, "support_size": 16}],
                         ids=["default-46", "wide-400", "tall-full-rank"])
def test_chunks_that_repeat_the_first_year_block_skip_the_code_tables(tmp_path, monkeypatch,
                                                                      shape, chunk_bytes):
    """save_panel_long writes every year block in the first block's
    (entity, feature) order, so _codes sees the columns of the chunks up to
    the one in which the second year starts, and of every later chunk only
    the raw year of each block it holds. Two adjacent rows of the last
    year swapped send exactly the chunks that hold them to _codes too; the
    panel is the same."""
    panel, _ = generate_synthetic(seed=0, **shape)
    path, swapped = tmp_path / "panel.csv", tmp_path / "swapped.csv"
    save_panel_long(panel, path)
    block = panel.n_entities * panel.n_features
    row = block * (panel.n_years - 1) + block // 2  # a data row of the last year
    lines = path.read_text().splitlines(keepends=True)
    lines[row + 1], lines[row + 2] = lines[row + 2], lines[row + 1]
    swapped.write_text("".join(lines))
    monkeypatch.setattr(dataio, "CHUNK_BYTES", chunk_bytes)
    codes, calls = dataio._codes, []
    monkeypatch.setattr(dataio, "_codes", lambda col, *a: calls.append(col) or codes(col, *a))
    for file, moved in ((path, ()), (swapped, (row, row + 1))):
        calls.clear()
        assert_same_panel(dataio._load_long_blocks(file), panel)
        expected, start, sent = [], 0, 0
        for k, fields in enumerate(dataio._long_fields(file)):
            cols = [fields[4 * (k == 0) + j::4] for j in range(3)]
            end = start + len(cols[0])
            if start <= block or any(start <= r < end for r in moved):
                expected += cols
                sent += 1
            else:
                expected.append(list(dict.fromkeys(cols[0])))
            start = end
        assert calls == expected
        assert sent < k / 2  # most chunks take the block's codes


def test_a_chunk_longer_than_the_csv_field_limit_goes_to_the_row_loop(tmp_path):
    """A plain chunk longer than csv.field_size_limit() is declined, though
    each of its fields is shorter: the row loop, which csv.reader limits
    per field, loads the file."""
    path = write(tmp_path / "panel.csv", "year,entity,feature,value\n"
                 + "".join(f"2000,E{i},f,{i}.5\n" for i in range(20)))
    old = csv.field_size_limit(100)
    try:
        assert dataio._load_long_blocks(path) is None
        assert_same_panel(load_panel(path), dataio._load_long_rows(path))
    finally:
        csv.field_size_limit(old)
    assert_same_panel(dataio._load_long_blocks(path), load_panel(path))


def test_wide_panel_in_small_chunks_loads_the_row_loop_panel(tmp_path, monkeypatch):
    """The 400-entity panel (128,000 rows) cut into chunks of about 1000
    characters: the block parser, which fills its columns a chunk at a
    time, returns the row loop's panel bit for bit."""
    panel, _ = generate_synthetic(seed=0, n_entities=400)
    path = tmp_path / "panel.csv"
    save_panel_long(panel, path)
    monkeypatch.setattr(dataio, "CHUNK_BYTES", 1000)
    blocks = dataio._load_long_blocks(path)
    assert blocks is not None
    assert_same_panel(blocks, dataio._load_long_rows(path))
    assert_same_panel(blocks, panel)


def csv_writer_oracle(panel) -> bytes:
    """The long layout written one row at a time through csv.writer: rows
    [year, entity, feature, repr(value)] formatted with csv's default
    \\r\\n ending, which is then swapped for \\n."""
    lines = []
    writer = csv.writer(type("Lines", (), {"write": staticmethod(lines.append)}))
    writer.writerow(LONG_HEADER)
    for year, block in zip(panel.years, panel.values):
        for entity, row in zip(panel.entities, block.tolist()):
            for feature, value in zip(panel.features, row):
                writer.writerow([year, entity, feature, repr(value)])
    return "".join(line[:-2] + "\n" for line in lines).encode("utf-8")


ODD_VALUES = [-0.0, 5e-324, 1e300, 0.1 + 0.2]
WRITER_PANELS = {
    "quoted-names": EnergyPanel(
        (1999, 2000), ("a,b", 'q"x', "c\rd", "e\nf", "g\r\nh"), ("f,1", "é", "漢字"),
        np.resize(ODD_VALUES, (2, 5, 3))),
    "odd-values": EnergyPanel((-5, 0, 2000), ("E",), ("f", "g"), np.resize(ODD_VALUES, (3, 1, 2))),
    "default-46": generate_synthetic(seed=0)[0],
    "wide-400": generate_synthetic(seed=0, n_entities=400)[0],
    "tall-full-rank": generate_synthetic(seed=0, n_years=60, support_size=16)[0],
}


@pytest.mark.parametrize("name", WRITER_PANELS)
def test_save_panel_long_bytes_equal_the_csv_writer_oracle(tmp_path, name):
    """Names holding a comma, quote, \\r, \\n, \\r\\n or non-ASCII text, values
    whose repr is unusual (-0.0, the least subnormal, 1e300, 0.1+0.2) and
    the three benchmark shapes: the year-block writer writes the bytes of
    the row-by-row csv.writer oracle."""
    panel = WRITER_PANELS[name]
    path = tmp_path / "panel.csv"
    save_panel_long(panel, path)
    assert path.read_bytes() == csv_writer_oracle(panel)


@given(years=st.lists(st.integers(-3000, 3000), min_size=1, max_size=3, unique=True),
       entities=st.lists(QUOTED_NAMES, min_size=1, max_size=3, unique=True),
       features=st.lists(QUOTED_NAMES, min_size=1, max_size=3, unique=True),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_save_panel_long_equals_the_oracle_on_any_names(tmp_path_factory, years, entities,
                                                         features, data):
    shape = (len(years), len(entities), len(features))
    n = math.prod(shape)
    values = data.draw(st.lists(FINITE, min_size=n, max_size=n))
    panel = EnergyPanel(sorted(years), entities, features, np.reshape(values, shape))
    path = tmp_path_factory.mktemp("oracle") / "panel.csv"
    save_panel_long(panel, path)
    assert path.read_bytes() == csv_writer_oracle(panel)


def test_save_panel_long_failing_mid_file_leaves_no_file(tmp_path, monkeypatch):
    """The disk fills after the header and the first year's block have been
    written: the error propagates and the partial file is removed."""
    class FillsUp:
        def __init__(self, fh):
            self.fh, self.room = fh, 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            if not self.room:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.room -= 1
            return self.fh.write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    monkeypatch.setattr(dataio, "open", lambda *a, **k: FillsUp(open(*a, **k)), raising=False)
    path = tmp_path / "panel.csv"
    with pytest.raises(OSError, match="No space left"):
        save_panel_long(generate_synthetic(seed=0)[0], path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("chunk_bytes", [1, 40, 200])
@pytest.mark.parametrize("tail", [
    '2001,\tB ,f,4.0\n',  # plain: the block parser loads the file
    '2001,"B,b",f,4.0\n',  # a quoted field
    '2001,B,f,4.0\r2001,C,f,5.0',  # a bare \r ending a record
    '2001,B\rx,f,4.0\n',  # a bare \r inside a field: csv.Error
    '2001,B\0,f,4.0\n',  # NUL: csv.Error before Python 3.11, a name after
    '2001,"B\nb",f,"4.0"\n2000, E1,f0,9\n',  # a quoted line end; a duplicate key
])
def test_chunk_cuts_and_a_last_chunk_that_is_not_plain(tmp_path, monkeypatch, chunk_bytes, tail):
    """Small chunks put chunk cuts mid-file, and the only quote, bare \\r or
    NUL of a file in its last chunk: the block parser declines the file,
    and load_panel returns the row
    loop's panel or raises the row loop's error. A plain tail loads the
    row loop's panel by the block parser. Raw years and names that parse
    alike span chunks, and values padded with \\x0b, which float strips."""
    body = "".join(f"{'0' * (i % 2)}{2000 + i % 3},{' ' * (i % 4)}E{i % 5},f{i % 2},"
                   f"{i}.5{chr(0x0b) * (i % 3)}\n" for i in range(24))
    path = write(tmp_path / "panel.csv", "year,entity,feature,value\n" + body + tail)
    monkeypatch.setattr(dataio, "CHUNK_BYTES", chunk_bytes)
    panel = dataio._load_long_blocks(path)
    plain = not any(c in tail for c in '"\r\0')
    try:
        expected = dataio._load_long_rows(path)
    except PanelFormatError as err:
        assert panel is None
        with pytest.raises(PanelFormatError) as got:
            load_panel(path)
        assert str(got.value) == str(err)
    else:
        if plain:
            assert_same_panel(panel, expected)
        else:
            assert panel is None
        assert_same_panel(load_panel(path), expected)


# Padding str.strip removes: ASCII whitespace, the \x1c-\x1f separators,
# NEL, no-break and ideographic spaces (the last three are not ASCII).
STRIPPED_PADS = st.sampled_from(["", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x1f", "\x85", "\xa0", "\u3000", " \x1f\xa0"])
MULTIBYTE_NAMES = st.sampled_from(["a", "b", "a b", "é", "漢字", "😀x", "\xa0", ""])
# Bytes that are not UTF-8: a stray continuation or lead byte, a cut
# sequence, an encoded surrogate, an over-long encoding.
BAD_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe6\xbc", b"\xf0\x9f\x98",
                            b"\xed\xa0\x80", b"\xc0\xaf"])


@st.composite
def long_file_bytes(draw):
    """A long file's bytes: rows of 4 fields, now and then of 3 or 5, from
    few years and names (so keys repeat), every field padded; a field of
    any column may hold bytes that are not UTF-8, and the last line may
    lack its \n. No row is blank, so the row loop skips none."""
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        fields = [draw(st.sampled_from(["2000", "2001", "02000", "-5"])),
                  draw(MULTIBYTE_NAMES), draw(MULTIBYTE_NAMES), repr(draw(FINITE))]
        width = draw(st.sampled_from([4, 4, 4, 4, 4, 3, 5]))
        if width == 3:
            del fields[draw(st.integers(0, 3))]
        elif width == 5:
            fields.insert(draw(st.integers(0, 4)), repr(draw(FINITE)))
        rows.append([(draw(STRIPPED_PADS) + f + draw(STRIPPED_PADS)).encode() for f in fields])
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        k = draw(st.integers(0, len(row) - 1))
        at = draw(st.integers(0, len(row[k])))
        row[k] = row[k][:at] + draw(BAD_UTF8) + row[k][at:]
    text = b"\n".join(b",".join(row) for row in rows)
    return b"year,entity,feature,value\n" + text + draw(st.sampled_from([b"\n", b""]))


@given(data=long_file_bytes(), chunk_bytes=st.sampled_from([1, 40, 200, dataio.CHUNK_BYTES]))
@example(data=b"year,entity,feature,value\n2000,a,b\n5,2001,c,d,6\n", chunk_bytes=200)
@example(data=b"year,entity,feature,value\n2000,a,b,1\n2000,a,c,2", chunk_bytes=40)
@example(data="year,entity,feature,value\n2000,\xa0a,\u3000b,1\x1c\n2000,a,b\x1f,2\n".encode(),
         chunk_bytes=1)
@example(data=b"year,entity,feature,value\n2000,a,f,1\n2000,\xe6\xbc,f,2\n", chunk_bytes=200)
# Values float(str) takes and float(bytes) does not: padded with U+00A0 or
# U+0085, and written in Arabic-Indic digits.
@example(data="year,entity,feature,value\n2000,a,f,1\n2000,b,f,\xa02.5\xa0\n".encode(),
         chunk_bytes=200)
@example(data="year,entity,feature,value\n2000,a,f,0.0\x85\n".encode(), chunk_bytes=1)
@example(data="year,entity,feature,value\n2000,a,f,1\n2001,a,f,\u0661.\u0665\n".encode(),
         chunk_bytes=40)
@settings(max_examples=300, deadline=None)
def test_block_parser_returns_the_row_loops_panel_or_declines(tmp_path_factory, data,
                                                               chunk_bytes):
    """On any such bytes and chunk size, the block parser returns the row
    loop's panel bit for bit, or None exactly when the row loop raises (and
    then load_panel raises the row loop's error) or a value holds
    \\x1c-\\x1f or a byte that is not ASCII: float of bytes rejects both,
    where the row loop strips the first and float of str takes Unicode
    spaces and digits. A 3-field row followed by a 5-field row holds 8
    fields in all, so only a check of each row's separators declines it."""
    path = tmp_path_factory.mktemp("layout") / "panel.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "CHUNK_BYTES", chunk_bytes)
        panel = dataio._load_long_blocks(path)
        try:
            expected = dataio._load_long_rows(path)
        except PanelFormatError as err:
            assert panel is None
            with pytest.raises(PanelFormatError) as got:
                load_panel(path)
            assert str(got.value) == str(err)
        else:
            values = [line.split(b",")[3] for line in data.split(b"\n")[1:] if line]
            if any(set(value) & set(b"\x1c\x1d\x1e\x1f") or not value.isascii()
                   for value in values):
                assert panel is None
            else:
                assert_same_panel(panel, expected)
            assert_same_panel(load_panel(path), expected)


@pytest.mark.parametrize("shape,limit_mib", [({"n_entities": 400}, 12.0), ({}, 2.1)])
def test_long_loader_peak_memory(tmp_path, shape, limit_mib):
    """The long loader's peak Python allocation stays bounded. On the
    400-entity panel (128,000 rows) the row lists of the whole file alone
    take 41 MiB, and the row loop with its per-cell key table peaks at
    18.4 MiB; on the default panel the row loop peaks at 2.1 MiB."""
    panel, _ = generate_synthetic(seed=0, **shape)
    path = tmp_path / "panel.csv"
    save_panel_long(panel, path)
    tracemalloc.start()
    try:
        load_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


FIELDS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["2000", "2001", "A", "f", "1.5", "-2", "nan", "inf", "1e999", "", " "]),
)


@given(rows=st.lists(st.lists(FIELDS, max_size=5), max_size=6),
       junk=st.binary(max_size=4), at=st.integers(0, 500))
@example(rows=[["2000", "A", "f", "1.5"], ["2000", "A", "f", "-2"]], junk=b"", at=0)
@example(rows=[["2000", " ", "f", "1.5"]], junk=b"", at=0)
@example(rows=[["2000", "A", "", "1.5"]], junk=b"", at=0)
@example(rows=[["2000", "A", "f", "1e999"]], junk=b"", at=0)
@example(rows=[["2000", "A", "f", "1.5"], ["2001", "A", "f", "2", "x"]], junk=b"", at=0)
@example(rows=[["2000", "A", "f"], ["1.5", "2001", "A", "f", "2"]], junk=b"", at=0)
@example(rows=[[], ["2000", "A", "f", "1.5"], [" ", ""]], junk=b"", at=0)
@example(rows=[["2000", "A\0", "f", "1.5"]], junk=b"", at=0)
@example(rows=[["2000", "A", "f", "1.5\r2001", "A", "f", "2"]], junk=b"", at=0)
@example(rows=[["2000", "A" * (csv.field_size_limit() + 1), "f", "1.5"]], junk=b"", at=0)
@example(rows=[["2000", "A", "f", "1.5\x1c"]], junk=b"", at=0)
@example(rows=[["2000", "A", "f", "1.5"], ["02000", "A", "g", "2"]], junk=b"", at=0)
@example(rows=[["2000", "A", "f", "1.5"], ["02000", "A", "f", "2"]], junk=b"", at=0)
@settings(max_examples=300, deadline=None)
def test_malformed_long_csv_raises_only_panel_format_error(tmp_path_factory, rows, junk, at):
    """Whatever the bytes (bad UTF-8 included), the long loader either loads
    the row loop's panel or raises the row loop's PanelFormatError."""
    text = "year,entity,feature,value\n" + "\n".join(",".join(r) for r in rows)
    data = text.encode("utf-8")
    at = min(at, len(data))
    path = tmp_path_factory.mktemp("fuzz") / "panel.csv"
    path.write_bytes(data[:at] + junk + data[at:])
    try:
        expected = dataio._load_long_rows(path)
    except PanelFormatError as err:
        with pytest.raises(PanelFormatError) as got:
            load_panel(path)
        assert str(got.value) == str(err)
    else:
        assert_same_panel(load_panel(path), expected)


@given(rows=st.lists(st.lists(FIELDS, max_size=5), max_size=6),
       junk=st.binary(max_size=4), at=st.integers(0, 500))
@settings(max_examples=300, deadline=None)
def test_malformed_wide_csv_raises_only_panel_format_error(tmp_path_factory, rows, junk, at):
    """Whatever the bytes of one panel_<year>.csv (bad UTF-8 included), the
    wide loader either loads a panel or raises PanelFormatError."""
    text = "entity,f,g\n" + "\n".join(",".join(r) for r in rows)
    data = text.encode("utf-8")
    at = min(at, len(data))
    root = tmp_path_factory.mktemp("fuzz")
    (root / "panel_2000.csv").write_bytes(data[:at] + junk + data[at:])
    write(root / "panel_2001.csv", "entity,f,g\nA,1.0,2.0\n")
    try:
        load_panel(root)
    except PanelFormatError:
        pass


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_bad_utf8_raises_panel_format_error_naming_the_file(tmp_path, layout):
    if layout == "long":
        path = bad = tmp_path / "p.csv"
        bad.write_bytes(b"year,entity,feature,value\n2000,A,f\xe9,1.0\n")
    else:
        path, bad = tmp_path, tmp_path / "panel_2000.csv"
        bad.write_bytes(b"entity,f\nA\xe9,1.0\n")
    with pytest.raises(PanelFormatError, match=f"{bad}: not valid UTF-8"):
        load_panel(path)


def test_wide_loader_keeps_first_seen_entity_order(tmp_path):
    write(tmp_path / "panel_2000.csv", "entity,f\nB,1.0\nA,2.0\n")
    write(tmp_path / "panel_2001.csv", "entity,f\nC,3.0\nA,4.0\nB,5.0\n")
    panel = load_panel(tmp_path)
    assert panel.entities == ("B", "A", "C")
    assert panel.values[:, :, 0].tolist() == [[1.0, 2.0, 0.0], [5.0, 4.0, 3.0]]
