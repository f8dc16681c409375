"""README against the program and the records it cites.

Every figure with a unit (s, ms or MB) in a README sentence that names a
``BENCH_*.json`` record is listed in ``FIGURES`` with the key that holds it
in that record, and the key's value, printed at the figure's precision, is
the figure.  A key that holds a list of runs stands for their median.  A
table ends no sentence, so a table that a citing sentence introduces is
checked with it.  A run count ("medians of N alternating runs") in a citing
sentence is the length of every list of runs in that record, found under the
key ``RUN_LISTS`` names.  Every ``pseudosurv`` command line in README's shell
blocks parses with the CLI's own parser.
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
        "68 s": ("totals", "change", "friedman_study_setup_s"),
        "16 s": ("totals", "change", "dependent_censoring_study_setup_s"),
        "140 s": ("totals", "change", "pytest_total_s"),
        "80 s": ("totals", "parent", "friedman_study_setup_s"),
        "20 s": ("totals", "parent", "dependent_censoring_study_setup_s"),
        "152 s": ("totals", "parent", "pytest_total_s"),
        "43 s": ("fast_subset", "change", "pytest_s"),
    },
}
FIGURE = re.compile(r"(?<![\w.])\d+(?:\.\d+)? (?:s|ms|MB)\b")
# record whose citing sentences give a run count -> the key of each cell's list of runs
RUN_LISTS = {"BENCH_import.json": "wall_ms", "BENCH_threads.json": "wall_s",
             "BENCH_tests.json": "pytest_total_s"}
RUN_COUNT = re.compile(r"medians of (\d+) alternating\s+runs")


def cited_matches(pattern: re.Pattern, text: str) -> dict[str, set[str]]:
    """Each record the text cites, with the matches of ``pattern`` in the sentences citing it."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    found = {}
    for sentence in re.split(r"(?<=[.!?])\s+(?=[A-Z`(*])", text):
        for record in set(re.findall(r"BENCH_\w+\.json", sentence)):
            found.setdefault(record, set()).update(pattern.findall(sentence))
    return found


def cited_figures() -> dict[str, set[str]]:
    """Each record README cites, with the figures of the sentences that cite it."""
    return cited_matches(FIGURE, (ROOT / "README.md").read_text())


def run_lists(node, key: str):
    """Every list held under ``key`` anywhere in a record."""
    if isinstance(node, dict):
        for name, value in node.items():
            if name == key and isinstance(value, list):
                yield value
            else:
                yield from run_lists(value, key)
    elif isinstance(node, list):
        for value in node:
            yield from run_lists(value, key)


def check_run_counts(text: str) -> None:
    counts = {record: found for record, found in cited_matches(RUN_COUNT, text).items() if found}
    assert set(counts) == set(RUN_LISTS)
    for record, found in counts.items():
        data = json.loads((ROOT / record).read_text())
        sizes = {str(len(runs)) for runs in run_lists(data, RUN_LISTS[record])}
        assert found == sizes, (record, found, sizes)


def test_every_cited_run_count_is_the_runs_per_cell():
    check_run_counts((ROOT / "README.md").read_text())


def test_a_wrong_run_count_fails():
    text = (ROOT / "README.md").read_text()
    wrong = text.replace("medians of 10 alternating", "medians of 6 alternating")
    assert wrong != text
    with pytest.raises(AssertionError):
        check_run_counts(wrong)


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
