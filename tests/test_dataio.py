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
    ("wide", 'entity,f\n"A\nB",1.0\nC,x\n', "non-numeric value 'x' at {}:4"),
    ("wide", 'entity,f\n"A\nB",1.0\n"A\nB",2.0\n', "{}:4: duplicate entity 'A\\nB'"),
])
def test_errors_name_the_physical_line_the_record_starts_on(tmp_path, layout, text, message):
    if layout == "long":
        path = bad = write(tmp_path / "p.csv", text)
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


@given(file=valid_long_files(), block_rows=st.integers(1, 5))
@example(file=([["2001", "a,b", "f", "1.0"], ["2000", '"c\rd', "f", "2.5"],
                ["2001", '"c\rd', "g\n", " -0.0"]], True), block_rows=2)
@settings(max_examples=200, deadline=None)
def test_block_parser_equals_row_loop(tmp_path_factory, file, block_rows):
    """On a valid long file the block parser returns the row loop's panel
    bit for bit, and the row loop does not run. Small blocks make the code
    tables run across blocks."""
    rows, crlf = file
    path = tmp_path_factory.mktemp("blocks") / "panel.csv"
    if crlf:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([LONG_HEADER, *rows])
    else:
        write_csv(path, LONG_HEADER, rows)
    expected = dataio._load_long_rows(path)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "BLOCK_ROWS", block_rows)
        mp.setattr(dataio, "_load_long_rows", lambda path: calls.append(path))
        panel = load_panel(path)
    assert calls == []
    assert_same_panel(panel, expected)


def test_plain_long_file_is_split_without_csv_reader(tmp_path, monkeypatch):
    """save_panel_long output holds no quote, \\r or NUL, so the loader
    splits it with str.split: csv.reader is never built and the row loop
    never runs, over one chunk or many."""
    panel, _ = generate_synthetic(seed=0)
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
    '2001,"B,b",f,4.0\n',  # a quoted field
    '2001,B,f,4.0\r2001,C,f,5.0',  # a bare \r ending a record
    '2001,B\rx,f,4.0\n',  # a bare \r inside a field: csv.Error
    '2001,B\0,f,4.0\n',  # NUL: csv.Error before Python 3.11, a name after
    '2001,"B\nb",f,"4.0"\n2000, E1,f0,9\n',  # a quoted line end; a duplicate key
])
def test_chunk_cuts_and_the_hand_over_to_csv_reader(tmp_path, monkeypatch, chunk_bytes, tail):
    """Small chunks put chunk cuts and the hand-over to csv.reader mid-file:
    a file whose only quote, bare \\r or NUL is in its last chunk loads
    the row loop's panel by the block parser, or raises the row loop's
    error. Raw years and names that parse alike span chunks, and values
    padded with \\x1c, which str.strip removes and float rejects."""
    body = "".join(f"{'0' * (i % 2)}{2000 + i % 3},{' ' * (i % 4)}E{i % 5},f{i % 2},"
                   f"{i}.5{chr(0x1c) * (i % 3)}\n" for i in range(24))
    path = write(tmp_path / "panel.csv", "year,entity,feature,value\n" + body + tail)
    monkeypatch.setattr(dataio, "CHUNK_BYTES", chunk_bytes)
    try:
        expected = dataio._load_long_rows(path)
    except PanelFormatError as err:
        with pytest.raises(PanelFormatError) as got:
            load_panel(path)
        assert str(got.value) == str(err)
    else:
        panel = dataio._load_long_blocks(path)
        assert panel is not None
        assert_same_panel(panel, expected)


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
