"""``tools/bytecheck.py``: its array digest sees the last bits that a CSV cell hides."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pseudosurv as ps
from pseudosurv.data import write_csv

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import bytecheck  # noqa: E402


def test_digest_sees_a_last_bit_the_csv_hides(tmp_path):
    ids, values = np.arange(5), np.linspace(0.1, 0.9, 5)
    nudged = values.copy()
    nudged[2] = np.nextafter(nudged[2], 1.0)
    write_csv(tmp_path / "a.csv", ["id", "pseudo"], [ids, values])
    write_csv(tmp_path / "b.csv", ["id", "pseudo"], [ids, nudged])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert bytecheck.array_digest([ids, values]) != bytecheck.array_digest([ids, nudged])
    # only the float arrays count, in order
    assert bytecheck.array_digest([ids, values]) == bytecheck.array_digest([["x"] * 5, values.copy()])
    assert bytecheck.array_digest([values, nudged]) != bytecheck.array_digest([nudged, values])


def test_a_command_records_the_arrays_of_its_csv(tmp_path):
    data = ps.gen_cox(ps.CoxSimSpec(n=200, seed=3))
    ps.save_dataset(data, tmp_path / "d.csv")
    argv = ["transform", "--input", "d.csv", "--output", "pseudo.csv"]
    code = f"import sys, bytecheck; sys.exit(bytecheck.run_command('log', {argv!r}))"
    env = {**os.environ,
           "PYTHONPATH": f"{Path(ps.__file__).parents[1]}{os.pathsep}{TOOLS}"}
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True)
    data = ps.load_dataset(tmp_path / "d.csv")
    grid = ps.make_grid(data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])  # the CLI's default
    expected = hashlib.sha256(ps.pseudo_conditional(data, grid).pseudo.tobytes()).hexdigest()
    lines = (tmp_path / "log").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [["pseudo.csv", expected]]
