"""Source layout checks; no linter is among the test dependencies."""

from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pseudosurv").glob("*.py"))
MAX_LINE = 100


def test_source_lines_fit_in_100_characters():
    assert SOURCES, "no package sources found"
    long = [f"{path.name}:{number}: {len(line)} characters"
            for path in SOURCES
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
