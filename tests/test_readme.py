"""README against the program and the records it cites.

Every figure with a unit (s, ms or MB) in a README sentence that names a
``BENCH_*.json`` record is listed in ``FIGURES`` with the key that holds it
in that record, and the key's value, printed at the figure's precision, is
the figure.  A key that holds a list of runs stands for their median.  A
table ends no sentence, so a table that a citing sentence introduces is
checked with it.  Every ``pseudosurv`` command line in README's shell blocks
parses with the CLI's own parser.
"""

import json
import re
import shlex
import statistics
from pathlib import Path

import pytest

from pseudosurv.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]

# record -> figure as README prints it -> the path of keys that holds it in the record
FIGURES = {
    "BENCH_import.json": {
        "211.8 ms": ("variants", "pseudosurv.cli", "wall_median_ms"),
        "258.4 ms": ("variants", "pseudosurv.cli and every submodule", "wall_median_ms"),
        "194.2 ms": ("variants", "numpy and the stdlib modules cli imports", "wall_median_ms"),
    },
    "BENCH_threads.json": {
        "0.975 s": ("commands", "train", "--threads 2", "change", "wall_median_s"),
        "1.211 s": ("commands", "train", "--threads 1", "change", "wall_median_s"),
        "1.903 s": ("commands", "simulate", "--threads 2", "change", "wall_median_s"),
        "2.598 s": ("commands", "simulate", "--threads 1", "change", "wall_median_s"),
        "2.986 s": ("commands", "train", "--threads 2", "parent", "wall_median_s"),
        "4.355 s": ("commands", "simulate", "--threads 2", "parent", "wall_median_s"),
    },
    "BENCH_memory.json": {
        "35.8 MB": ("commands", "n=2000", "transform", "change", "peak_rss_mb"),
        "37.1 MB": ("commands", "n=2000", "transform --ipcw", "change", "peak_rss_mb"),
        "44.7 MB": ("commands", "n=2000", "train", "change", "peak_rss_mb"),
        "43.9 MB": ("commands", "n=2000", "train --ipcw", "change", "peak_rss_mb"),
        "85.4 MB": ("commands", "n=20000", "transform", "change", "peak_rss_mb"),
        "100.6 MB": ("commands", "n=20000", "transform --ipcw", "change", "peak_rss_mb"),
        "89.0 MB": ("commands", "n=20000", "train", "change", "peak_rss_mb"),
        "89.6 MB": ("commands", "n=20000", "train --ipcw", "change", "peak_rss_mb"),
        "194.8 MB": ("commands", "n=20000", "transform --ipcw", "parent", "peak_rss_mb"),
    },
    "BENCH_tests.json": {
        "65 s": ("runs", "1 (parent first)", "change", "durations_top20", 0, 0),
        "17 s": ("runs", "1 (parent first)", "change", "durations_top20", 1, 0),
        "125 s": ("runs", "1 (parent first)", "change", "pytest_total_s"),
    },
}
FIGURE = re.compile(r"(?<![\w.])\d+(?:\.\d+)? (?:s|ms|MB)\b")


def cited_figures() -> dict[str, set[str]]:
    """Each record README cites, with the figures of the sentences that cite it."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    cited = {}
    for sentence in re.split(r"(?<=[.!?])\s+(?=[A-Z`(*])", text):
        for record in set(re.findall(r"BENCH_\w+\.json", sentence)):
            cited.setdefault(record, set()).update(FIGURE.findall(sentence))
    return cited


def test_every_cited_figure_names_its_key():
    cited = cited_figures()
    assert set(cited) == set(FIGURES)
    for record, figures in cited.items():
        assert figures == set(FIGURES[record]), record


def test_every_figure_is_its_key_at_the_printed_precision():
    for record, figures in FIGURES.items():
        data = json.loads((ROOT / record).read_text())
        for figure, path in figures.items():
            value = data
            for key in path:
                value = value[key]
            if isinstance(value, list):
                value = statistics.median(value)
            number, unit = figure.split(" ")
            decimals = len(number.partition(".")[2])
            assert f"{value:.{decimals}f} {unit}" == figure, (record, path)


def command_lines(text: str) -> list[str]:
    """Each ``pseudosurv`` line of the text's ``sh`` blocks, joined with its continuations."""
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("pseudosurv ")]


def test_readme_command_lines_parse():
    lines = command_lines((ROOT / "README.md").read_text())
    assert len(lines) >= 6
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
