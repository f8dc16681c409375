"""Hostile dataset, prediction, model and config files and ``simulate`` options, run
in-process through ``cli.main``.

Hypothesis draws the files and options; the search is derandomized, so every
run tries the same cases.  Whatever they hold, the run exits 0, 2 or 3,
prints only ``error:``, ``numeric failure:`` or ``warning:`` lines and no
traceback, lets no RuntimeWarning escape and writes only strict JSON.  A run
that exits 2 or 3 prints one line and leaves no path beyond its inputs.
"""

import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudosurv.cli import main

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
N = 10  # subjects in data.csv
# what one prediction cell or one float option may hold: finite, signed zero, tiny and huge
# numbers, non-finite, missing and text
CELLS = ["0", "-0", "1e-300", "1e308", "inf", "-inf", "nan", "", "abc", "0.5", "1.5", "-1"]
VALID = ["0", "-0", "1e-300", "1e308", "0.5", "1.5", "-1"]
JSON_CELLS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN", "": '""', "abc": '"abc"'}
STDERR_PREFIXES = ("error: ", "numeric failure: ", "warning: ")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """data.csv (10 subjects, one covariate) and model.json, a network trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    with open(root / "data.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["time", "event", "z"]]
                                 + [[t, int(t % 3 != 0), t % 4 - 1.5] for t in range(1, N + 1)])
    assert main(["train", "--input", str(root / "data.csv"), "--model-out",
                 str(root / "model.json"), "--grid-times", "2.5,5,7.5", "--budget", "1",
                 "--folds", "2", "--epochs", "2", "--threads", "1"]) == 0
    return root


def _run(root: Path, files: dict, argv: list, strict_json) -> int:
    """Write ``files`` into a fresh directory (a name whose text is None is an empty
    directory), run ``argv`` there ({d} is the directory) and check the contract; the exit
    code."""
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        d = Path(tmp)
        for name, text in files.items():
            if text is None:
                (d / name).mkdir()
            else:
                (d / name).write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([arg.format(d=d, root=root) for arg in argv])
        assert code in (0, 2, 3)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = err.getvalue().splitlines()
        assert all(line.startswith(STDERR_PREFIXES) for line in lines), lines
        assert "Traceback" not in err.getvalue()
        if code:
            assert len(lines) == 1 and {p.name for p in d.rglob("*")} == set(files)
        for path in d.rglob("*.json"):
            if path.name not in files:
                strict_json(path)
        return code


@st.composite
def prediction_files(draw):
    """1-30 rows: ids permuted, then perhaps duplicated, dropped or out of range; valid cells
    with a few drawn from CELLS."""
    ids = [str(i) for i in draw(st.permutations(range(N)))]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["duplicate", "drop", "out of range", "text"]))
        k = draw(st.integers(0, len(ids) - 1))
        if edit == "duplicate":
            ids.insert(draw(st.integers(0, len(ids))), ids[k])
        elif edit == "drop" and len(ids) > 1:
            del ids[k]
        elif edit != "drop":
            ids[k] = draw(st.sampled_from(["-1", str(N), "99", "1.0", "x", ""]))
    ids = (ids * 3)[:draw(st.integers(1, 30))] if draw(st.booleans()) else ids
    times = draw(st.sampled_from([["2.5"], ["2.5", "5"], ["1", "4.5", "8"]]))
    rows = [[sid] + [draw(st.sampled_from(VALID)) for _ in times] for sid in ids]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(1, len(times)))] = draw(st.sampled_from(CELLS))
    return "\n".join(",".join(row) for row in [["id", *times], *rows]) + "\n"


@SETTINGS
@given(text=prediction_files())
def test_prediction_files(inputs, strict_json, text):
    _run(inputs, {"pred.csv": text}, ["evaluate", "--input", "{root}/data.csv",
                                      "--predictions", "{d}/pred.csv", "--output", "{d}/r.csv"],
         strict_json)


def _replace(draw, value):
    """``value`` with one item replaced at some depth, or replaced whole, by a non-finite
    number, a string, a list or a number."""
    if isinstance(value, dict) and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: _replace(draw, value[key])}
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [_replace(draw, value[i])] + value[i + 1:]
    return draw(st.sampled_from([float("inf"), float("-inf"), float("nan"), "abc", "", [],
                                 [1.0, 2.0], [[0.5]], None, 0.0, -1.0, 0.5, 1e308]))


@SETTINGS
@given(data=st.data(), command=st.sampled_from(["predict", "evaluate"]))
def test_model_files(inputs, strict_json, data, command):
    payload = json.loads((inputs / "model.json").read_text())
    field = data.draw(st.sampled_from(sorted(payload)))
    payload[field] = _replace(data.draw, payload[field])
    out = ["--output", "{d}/p.csv" if command == "predict" else "{d}/r.csv"]
    _run(inputs, {"model.json": json.dumps(payload)},
         [command, "--model", "{d}/model.json", "--input", "{root}/data.csv", *out], strict_json)


# a command that takes a float option, the option and the command's other arguments
FLOAT_OPTIONS = [
    ("transform", "weight_cap", ["--input", "{root}/data.csv", "--output", "{d}/o.csv"]),
    ("transform", "weight_cap", ["--input", "{root}/data.csv", "--output", "{d}/o.csv",
                                 "--ipcw"]),
    ("split", "fraction", ["--input", "{root}/data.csv", "--train-out", "{d}/a.csv",
                           "--test-out", "{d}/b.csv"]),
    ("simulate", "censoring_rate", ["--study", "cox-dependent", "--replicates", "1", "--n", "40",
                                    "--threads", "1", "--out", "{d}/study"]),
]


@SETTINGS
@given(case=st.sampled_from(FLOAT_OPTIONS), cell=st.sampled_from(CELLS + ["1e400"]))
def test_float_options_in_config_files(inputs, strict_json, case, cell):
    command, key, argv = case
    config = f'{{"{key}": {JSON_CELLS.get(cell, cell)}}}'
    code = _run(inputs, {"c.json": config}, [command, "--config", "{d}/c.json", *argv],
                strict_json)
    assert code == 2 or cell in VALID


# a command run on a drawn dataset ({c} is one of its covariate names, z when it has none),
# with the model trained on data.csv for predict and evaluate
DATASET_COMMANDS = [
    ["transform", "--output", "{d}/o.csv"],
    ["transform", "--output", "{d}/o.csv", "--ipcw"],
    ["transform", "--output", "{d}/o.csv", "--ipcw", "--censor-covariates", "{c}"],
    ["train", "--model-out", "{d}/m.json", "--budget", "1", "--folds", "2", "--epochs", "1",
     "--threads", "1"],
    ["split", "--train-out", "{d}/a.csv", "--test-out", "{d}/b.csv"],
    ["predict", "--model", "{root}/model.json", "--output", "{d}/p.csv"],
    ["evaluate", "--model", "{root}/model.json", "--output", "{d}/r.csv"],
]


@st.composite
def dataset_files(draw):
    """1-30 subjects and 0-2 covariates, in either order or one name twice; times distinct,
    tied or all equal, events perhaps all censored, valid covariates, and a few cells of any
    column drawn from CELLS.  The names, and the file's text."""
    n = draw(st.integers(1, 30) | st.integers(20, 30))  # often enough for a CV fold's pairs
    names = draw(st.sampled_from([[], ["z"], ["z", "w"], ["w", "z"], ["z", "z"]]))
    times = draw(st.sampled_from([[str(t) for t in range(1, 31)], ["1", "2", "2", "3"], ["4"]]))
    censored = draw(st.integers(0, 3)) == 0
    rows = [[times[i % len(times)], "0" if censored else draw(st.sampled_from(["0", "1"])),
             *(draw(st.sampled_from(VALID)) for _ in names)] for i in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(CELLS))
    return names, "\n".join(",".join(row) for row in [["time", "event", *names], *rows]) + "\n"


@pytest.mark.parametrize("argv", DATASET_COMMANDS, ids=" ".join)
@settings(SETTINGS, max_examples=50)  # per command, to keep the file within 10 s
@given(file=dataset_files(), data=st.data())
def test_dataset_files(inputs, strict_json, argv, file, data):
    names, text = file
    column = data.draw(st.sampled_from(names or ["z"]))
    _run(inputs, {"data.csv": text},
         [arg.replace("{c}", column) for arg in argv] + ["--input", "{d}/data.csv"], strict_json)


# each option drawn from admissible values or from hostile ones: study names, censoring rates
# (the hostile cells) and seeds at and past both ends of 0..4294967295
STUDIES = st.sampled_from(["aft", "cox-dependent", "cox-independent"]) | st.sampled_from(
    ["", "nope", "AFT", "cox"])
RATES = st.sampled_from(["0.2", "0.5"]) | st.sampled_from(CELLS)
SEEDS = st.sampled_from(["0", "4294967295"]) | st.sampled_from(["-1", "4294967296"])


@settings(SETTINGS, max_examples=60)  # within 5 s: small studies and searches, two workers
@given(study=STUDIES, n=st.integers(1, 50), replicates=st.integers(1, 3), rate=RATES,
       seed=SEEDS, threads=st.sampled_from("12"))
def test_simulate_options(inputs, strict_json, study, n, replicates, rate, seed, threads):
    _run(inputs, {}, ["simulate", "--study", study, "--n", str(n), "--replicates", str(replicates),
                      "--censoring-rate", rate, "--seed", seed, "--threads", threads,
                      "--budget", "1", "--folds", "2", "--epochs", "1", "--out", "{d}/study"],
         strict_json)


# each command with its output options and its other arguments, on data.csv and model.json
OUTPUT_COMMANDS = [
    ("transform", ["--output"], ["--input", "{root}/data.csv"]),
    ("train", ["--model-out"], ["--input", "{root}/data.csv", "--grid-times", "2.5,5,7.5",
                                "--budget", "1", "--folds", "2", "--epochs", "1", "--threads", "1"]),
    ("predict", ["--output"], ["--model", "{root}/model.json", "--input", "{root}/data.csv"]),
    ("evaluate", ["--output"], ["--model", "{root}/model.json", "--input", "{root}/data.csv"]),
    ("split", ["--train-out", "--test-out"], ["--input", "{root}/data.csv"]),
    ("simulate", ["--out"], ["--n", "40", "--replicates", "1", "--threads", "1"]),
]
# an output path: new, an existing file, an existing directory, in a missing directory, under a
# file and holding a NUL character (as only a config file can give one to the program), with
# those refused for a file output and for simulate's directory
OUTPUT_PATHS = ["{d}/new.csv", "{d}/file.csv", "{d}/dir", "{d}/missing/o.csv", "{d}/file.csv/o",
                "{d}/nul\0.csv"]
REFUSED = {"file": OUTPUT_PATHS[2:],
           "directory": ["{d}/file.csv", "{d}/file.csv/o", "{d}/nul\0.csv"]}


@settings(SETTINGS, max_examples=60)
@given(case=st.sampled_from(OUTPUT_COMMANDS), data=st.data())
def test_output_paths(inputs, strict_json, case, data):
    command, flags, argv = case
    paths = [data.draw(st.sampled_from(OUTPUT_PATHS)) for _ in flags]
    refused = REFUSED["directory" if command == "simulate" else "file"]
    code = _run(inputs, {"file.csv": "old\n", "dir": None},
                [command, *argv, *(arg for pair in zip(flags, paths) for arg in pair)],
                strict_json)
    assert code == (2 if set(paths) & set(refused) else 0)
