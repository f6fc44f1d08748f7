"""PipelineConfig against its reference form in oracles.py: every config,
built in code or read from an INI file, raises the reference's error with
the reference's text, or gives an equal config whose to_dict is equal and
holds values of the same types."""

import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clusterreg import pipeline
from clusterreg.pipeline import PipelineConfig

TRAIN = list(range(2000, 2015))
TEST = list(range(2015, 2020))
HUGE = 10**400  # an int past the float range
NAN, INF = math.nan, math.inf

GRIDS = ("eps_grid", "minpts_grid", "ridge_lambdas", "lasso_lambdas", "enet_lambdas")
# Field -> the values it may hold; the years are drawn as one
# (train_years, test_years) pair.
GOOD = {
    "data_path": ["panel.csv", Path("data/panel")],
    "out_dir": [None, "out", Path("out")],
    "log_epsilon": [1e-6, 1, np.float32(1e-4), np.float64(2.5)],
    "anchor_year": [None, 2003, np.int64(2001), np.int32(2010)],
    "enet_alpha": [0.5, 0, 1, 0.25, np.float64(0.1), np.int64(1)],
    "cv_folds": [5, 2, np.int64(3)],
    "eps_grid": [[0.1, 0.5], (0.2, 1), [np.float32(0.3), np.float64(0.6)], [0, 2]],
    "minpts_grid": [[1, 2], (3,), [np.int64(2), 4.0], [np.float64(1)]],
    "ridge_lambdas": [[0, 0.5], (0.1,), [np.float32(0.25), 1]],
    "lasso_lambdas": [[1e-8, 10], [0, np.float64(0.5)]],
    "enet_lambdas": [[1e-8, 10], (np.int64(1), 2.5)],
    "years": [(TRAIN, TEST), (tuple(TRAIN), TEST), ([np.int64(y) for y in TRAIN], TEST),
              (list(range(2000, 2010)), [2010, 2011]), (TRAIN, (2017, 2015))],
}
# Fault -> field -> the values with that fault. The faults of one kind are
# met in one pass of validate, so a config drawing several of one kind
# shows which field that pass names first.
FAULTS = {
    "not a path": {"data_path": [None, 3, b"x", 2.5, ["panel.csv"]], "out_dir": [5, b"x", 0.5]},
    "not a list": {**{grid: [0.1, "0.1", None, Path("x"), np.array([0.1])] for grid in GRIDS},
                   "years": [(2000, TEST), (TRAIN, 2015), (np.array(TRAIN), TEST),
                             ("2000-2014", TEST), (TRAIN, None)]},
    "a bool": {"log_epsilon": [True, np.bool_(False)], "anchor_year": [True],
               "enet_alpha": [False], "cv_folds": [True, np.True_],
               **{grid: [[True, 0.5], [np.bool_(True)]] for grid in GRIDS},
               "years": [(TRAIN, [2015, True]), ([True, *TRAIN], TEST)]},
    "not an integer": {"anchor_year": [2003.0, np.float64(2003), "2003", b"x", [2003]],
                       "cv_folds": [2.5, 5.0, np.float64(3), NAN, INF, "5", None, [5]],
                       "years": [([float(y) for y in TRAIN], TEST), (TRAIN, [2015, 2016.0]),
                                 (TRAIN, ["2015", "2016"]), (TRAIN, [2015, None, 2017])]},
    "bad years": {"years": [([], TEST), (TRAIN, []), (TRAIN, [2019]),
                            ([2011, 2012, 2013, 2014], TEST), ([2000, 2000, *TRAIN[1:]], TEST),
                            (TRAIN, [2015, 2015, 2016]), (TRAIN, [2014, 2015, 2016]),
                            (TEST, TRAIN)]},
    "out of range": {"log_epsilon": [0.0, -1.0, NAN, INF, "0.5", Path("x"), None, [0.5],
                                     np.array([0.5])],
                     "enet_alpha": [1.5, -0.1, NAN, INF, "0.5", None, (0.5,)],
                     "cv_folds": [1, 0, -2],
                     "eps_grid": [[], [NAN], [0.1, INF], [-0.1], ["0.1"], [None]],
                     "minpts_grid": [[], [0], [1.5], [NAN], [INF], ["2"], [2, None]],
                     "ridge_lambdas": [[], [-1], [NAN], [INF], ["0.1"]],
                     "lasso_lambdas": [[], (), [-1e-3], [NAN], ["1"], [Path("x")]],
                     "enet_lambdas": [[], [-2], [INF], [None]]},
    "too large for a float": {name: [HUGE] for name in (
        "log_epsilon", "enet_alpha", "cv_folds")} | {grid: [[HUGE]] for grid in GRIDS},
}


@st.composite
def code_built(draw):
    """A config built in code: each field holds a value it may hold, but for
    up to three fields (the years count as one) of each of up to two kinds
    of fault, which hold a value with that fault."""
    values = {name: draw(st.sampled_from(good)) for name, good in GOOD.items()}
    for kind in draw(st.lists(st.sampled_from(list(FAULTS)), max_size=2)):
        for name in draw(st.sets(st.sampled_from(list(FAULTS[kind])), min_size=1, max_size=3)):
            values[name] = draw(st.sampled_from(FAULTS[kind][name]))
    values["train_years"], values["test_years"] = values.pop("years")
    return values


def snapshot(to_dict, cfg):
    """The config, and the items of its to_dict in order, with the type of
    every value there."""
    record = list(to_dict(cfg).items())
    types = [[type(v) for v in value] if isinstance(value, (list, tuple)) else type(value)
             for _, value in record]
    return cfg, record, types


def outcome(validate, to_dict, cfg):
    """The error validate raises on cfg, as (type, text), or the snapshot of
    the config it leaves."""
    try:
        validate(cfg)
    except Exception as err:  # a bare error the reference lets escape must escape alike
        return type(err), str(err)
    return snapshot(to_dict, cfg)


@settings(max_examples=400, deadline=None)
@given(code_built())
def test_validate_raises_or_gives_what_the_reference_does(values):
    want = outcome(oracles.validate, oracles.to_dict, PipelineConfig(**copy.deepcopy(values)))
    got = outcome(PipelineConfig.validate, PipelineConfig.to_dict,
                  PipelineConfig(**copy.deepcopy(values)))
    assert got == want


# INI value texts per key: those a key may hold, a blank one among them,
# and those it may not (malformed, out of range, or a spec past
# MAX_SPEC_VALUES).
TEXTS = {
    "path": (["", "panel.csv", "data/wide"], []),
    "log_epsilon": (["", "1e-5", "1"], ["0", "-1", "nan", "inf", "abc", "1e400"]),
    "anchor_year": (["", "2003", "-5"], ["2003.0", "20o3"]),
    "eps_grid": (["", "0.1:0.3:0.1", "0.05:2.0:0.05", "0.1,0.5", "logspace:-2:0:3", "0"],
                 ["-0.1,0.2", "0.1,inf", "logspace:0:400:3", "0:1:1e-12", "0:inf:1", "1:0:1",
                  ",", "logspace:1:2"]),
    "minpts_grid": (["", "1,2,3", "1:5:1"], ["0", "1.5,2.7", "1,inf", "1:1e12:1", "1:0:1"]),
    "ridge_lambdas": (["", "0.0:0.5:0.01", "0.0:0.2:0.1", "0"],
                      ["-1", "-1e308:1e308:1", "0.1,nan", "logspace:nan:1:3",
                       "logspace:-3:0:0"]),
    "lasso_lambdas": (["", "logspace:-8:1:28", "0.1"], ["logspace:0:1:1000000000000", "x"]),
    "enet_lambdas": (["", "logspace:-4:0:5", "0.5"], ["0:1:nan", "-0.5"]),
    "enet_alpha": (["", "0.25", "1", "-0.0", "0.1"], ["2", "half", "nan"]),
    "cv_folds": (["", "3", "2"], ["1", "2.5", "x"]),
    "train_years": (["", "2000-2014", "2000,2001,2002", "2000-2004", "2014-2014"],
                    ["2000-x", "2014-2000", "2000-1000000000000", ","]),
    "test_years": (["", "2015-2019", "2015,2016", "2015"], ["x"]),
}
SECTION_OF = {key: sec for sec, key, _ in oracles._CONFIG_KEYS.values()}
SECTIONS = {sec: [key for key in SECTION_OF if SECTION_OF[key] == sec]
            for sec in SECTION_OF.values()}


@st.composite
def ini_text(draw):
    """An INI text of the known sections, each holding some of its keys with
    values they may hold (the years always set), and up to four faults: a
    value a key may not hold, a key unknown to its section, an unknown
    section, a [DEFAULT] key, a repeated key, or a key before any section
    header."""
    body = {sec: [f"{key} = {draw(st.sampled_from(TEXTS[key][0]))}"
                  for key in keys if draw(st.booleans())]
            for sec, keys in SECTIONS.items() if draw(st.booleans())}
    body["forecast"] = [f"{key} = {draw(st.sampled_from(TEXTS[key][0][1:]))}"
                        for key in SECTIONS["forecast"]]
    head = []
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(["value", "key", "section", "default", "repeat", "header"]))
        key = draw(st.sampled_from([k for k in TEXTS if TEXTS[k][1]]))
        lines = body.setdefault(draw(st.sampled_from(list(SECTIONS))), [])
        if fault == "value":
            lines = body.setdefault(SECTION_OF[key], [])
            lines[:] = [line for line in lines if not line.startswith(f"{key} =")]
            lines.insert(draw(st.integers(0, len(lines))),
                         f"{key} = {draw(st.sampled_from(TEXTS[key][1]))}")
        elif fault == "key":
            unknown = ["tol", "tolerance", "max_iter", "standardize"]  # removed keys, a typo
            lines.append(f"{draw(st.sampled_from([*unknown, *TEXTS]))} = 1")
        elif fault == "section":
            body[draw(st.sampled_from(["regres", "output"]))] = ["cv_folds = 3"]
        elif fault == "default":
            body["DEFAULT"] = [f"{key} = 1"]
        elif fault == "repeat" and lines:
            lines.append(lines[0])
        elif fault == "header":
            head = ["cv_folds = 3"]
    order = draw(st.permutations(list(body)))
    return "\n".join([*head, *(f"[{sec}]\n" + "\n".join(body[sec]) for sec in order)]) + "\n"


@pytest.fixture(scope="module")
def ini_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.ini"


@settings(max_examples=400, deadline=None)
@given(text=ini_text())
def test_from_file_raises_or_reads_what_the_reference_does(ini_path, text):
    """from_file, then validate on what it read, each as the reference."""
    ini_path.write_text(text, encoding="utf-8")
    results = []
    for read, validate, to_dict in (
            (lambda p: oracles.from_file(PipelineConfig, p), oracles.validate, oracles.to_dict),
            (PipelineConfig.from_file, PipelineConfig.validate, PipelineConfig.to_dict)):
        try:
            cfg = read(ini_path)
        except Exception as err:
            results.append((type(err), str(err)))
            continue
        results.append((snapshot(to_dict, cfg), outcome(validate, to_dict, cfg)))
    assert results[0] == results[1]


def test_the_readme_config_table_is_the_field_table():
    """README "Config file" lists the INI keys of the field table, in its
    order, each with a documented default that parses to the field's
    default: a spec through the field's parser (parse_grid or parse_years),
    `unset` as None and `required` as an empty list."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")][2:]  # no header
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")][:3]
            for line in lines]
    ini_fields = [f for f in pipeline._FIELDS if f.section]
    assert [(sec, key) for sec, key, _ in rows] == [(f.section, f.key) for f in ini_fields]
    default, words = PipelineConfig(), {"unset": None, "required": []}
    for (_, key, text), f in zip(rows, ini_fields):
        documented = words[text] if text in words else f.parse(text)
        assert documented == getattr(default, f.name), key
