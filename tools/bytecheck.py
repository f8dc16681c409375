"""Check that this tree's results are byte-identical to those of a git revision.

    python tools/bytecheck.py REV

REV is checked out with ``git worktree`` into a temporary directory (local,
no network) that is removed afterwards.  The seed-3 inputs of the three
benchmark workloads are made once with ``perfbench/make_inputs.py``, beside
a 3 000-subject cohort with integer times, in which each grid interval holds
one event time.  One fixed matrix of CLI commands then runs in both trees,
each in a directory with the same layout, on copies of those inputs.

Two things are compared per result: the sha256 of every file written and
the sha256 of the float64 arrays behind each CSV (pseudo values, predictions
and scores).  Every path in the matrix is relative to the run directory, and
a ``config.json`` stores paths as given, so it holds no tree's own path.  CSV
cells carry six significant digits, so a change in the last bits of a pseudo
value can leave its CSV unchanged; the arrays are hashed in each tree's own
process as its CLI writes them.  One line is printed per item, and the exit
status is 1 on any difference.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent
SEED = 3
WORKLOADS = ("train_aft", "ipcw_cohort", "simulate_cox")

_SEARCH = ["--budget", "4", "--folds", "3", "--epochs", "10", "--seed", "1"]
_SMALL = ["--budget", "2", "--folds", "3", "--epochs", "10", "--seed", "1"]
_COHORT_GRID = "0.1,0.2,0.3,0.4,0.5"

# the matrix: every path is relative to the tree's run directory
MATRIX = [
    # train_aft, as the benchmark runs it, plus --ipcw, a plain transform and split
    ["train", "--input", "train_aft/train.csv", "--model-out", "train_aft/model_default.json",
     *_SEARCH],
    ["train", "--input", "train_aft/train.csv", "--model-out", "train_aft/model_serial.json",
     *_SEARCH, "--threads", "1"],
    ["train", "--input", "train_aft/train.csv", "--model-out", "train_aft/model_ipcw.json",
     "--ipcw", *_SEARCH, "--threads", "1"],
    ["predict", "--model", "train_aft/model_serial.json", "--input", "train_aft/test.csv",
     "--output", "train_aft/pred.csv"],
    ["evaluate", "--model", "train_aft/model_serial.json", "--input", "train_aft/test.csv",
     "--output", "train_aft/eval.csv"],
    ["transform", "--input", "train_aft/train.csv", "--output", "train_aft/pseudo.csv"],
    ["split", "--input", "train_aft/test.csv", "--train-out", "train_aft/split_train.csv",
     "--test-out", "train_aft/split_test.csv", "--seed", "1"],
    # ipcw_cohort, as the benchmark runs it, plus explicit grid times
    ["transform", "--input", "ipcw_cohort/cohort.csv", "--output", "ipcw_cohort/pseudo.csv",
     "--ipcw", "--grid-percentiles", _COHORT_GRID],
    ["transform", "--input", "ipcw_cohort/cohort.csv", "--output", "ipcw_cohort/pseudo_times.csv",
     "--ipcw", "--grid-times", "0.5,1,2,4"],
    ["evaluate", "--predictions", "ipcw_cohort/truth.csv", "--input", "ipcw_cohort/cohort.csv",
     "--output", "ipcw_cohort/eval.csv"],
    # simulate_cox, as the benchmark runs it, and the two other study kinds
    ["simulate", "--config", "simulate_cox/simulate.json", "--out", "simulate_cox/default"],
    ["simulate", "--config", "simulate_cox/simulate.json", "--out", "simulate_cox/serial",
     "--threads", "1"],
    ["simulate", "--study", "cox-dependent", "--with-net", "--replicates", "2", "--n", "500",
     *_SMALL, "--out", "studies/cox_dependent"],
    ["simulate", "--study", "aft", "--replicates", "2", "--n", "500", *_SMALL,
     "--out", "studies/aft"],
    # one event time per interval: the IPCW at-risk sum is one column over the risk set
    ["transform", "--input", "one_event/cohort.csv", "--output", "one_event/pseudo.csv",
     "--ipcw", "--grid-times", "1,2,3"],
    ["train", "--input", "one_event/cohort.csv", "--model-out", "one_event/model_ipcw.json",
     "--ipcw", "--grid-times", "1,2,3", "--budget", "1", "--folds", "2", "--epochs", "3",
     "--seed", "1", "--threads", "1"],
]


def array_digest(columns) -> str:
    """sha256 over the float64 bytes of the float arrays among ``columns``, in order."""
    import numpy as np

    digest = hashlib.sha256()
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            digest.update(np.ascontiguousarray(col, dtype=np.float64).tobytes())
    return digest.hexdigest()


def run_command(log, argv) -> int:
    """Run one CLI command as the ``pseudosurv`` program does, appending to ``log`` one
    ``[csv path, array digest]`` line for each CSV it writes."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as the program sets it, before numpy loads
    from pseudosurv import data

    write_csv = data.write_csv

    def recording(path, header, columns):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.path.relpath(path), array_digest(columns)]) + "\n")
        write_csv(path, header, columns)

    data.write_csv = recording  # every module that imports it from here on binds this one
    from pseudosurv.cli import main

    return main(argv)


def _make_one_event(path: Path) -> None:
    """3 000 subjects with times 1 to 4 and censoring that depends on ``z_1``."""
    rng = random.Random(SEED)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", "z_1"])
        for _ in range(3000):
            z = rng.gauss(0.0, 1.0)
            writer.writerow([rng.randint(1, 4), int(rng.random() < 0.7 - 0.2 * (z > 0)), repr(z)])


def _make_inputs(root: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for workload in WORKLOADS:
        subprocess.run([sys.executable, str(REPO / "perfbench" / "make_inputs.py"), "--workload",
                        workload, "--seed", str(SEED), "--out", str(root / workload)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
    (root / "one_event").mkdir()
    _make_one_event(root / "one_event" / "cohort.csv")


def _array_log(run: Path) -> Path:
    """The array digests of ``run``, kept beside it so that they are not a result."""
    return run.with_name(f"{run.name}.arrays.jsonl")


def _run_tree(tree: Path, inputs: Path, run: Path) -> list[str]:
    """Run the matrix with ``tree``'s package in ``run``; the failures, one line each."""
    shutil.copytree(inputs, run)
    log = _array_log(run)
    env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{TOOLS}"}
    failures = []
    for argv in MATRIX:
        code = f"import sys, bytecheck; sys.exit(bytecheck.run_command({str(log)!r}, {argv!r}))"
        done = subprocess.run([sys.executable, "-c", code], cwd=run, env=env,
                              capture_output=True, text=True)
        if done.returncode:
            last = (done.stderr.strip().splitlines() or [""])[-1]
            failures.append(f"{' '.join(argv)}: exit {done.returncode}: {last}")
    return failures


def _results(run: Path, inputs: Path) -> dict[str, str]:
    """sha256 of each file in ``run`` that is not an input, by path relative to ``run``."""
    found = {}
    for path in sorted(run.rglob("*")):
        rel = path.relative_to(run).as_posix()
        if path.is_dir() or (inputs / rel).exists():
            continue
        found[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    for line in _array_log(run).read_text().splitlines():
        rel, digest = json.loads(line)
        found[f"{rel} [float64 arrays]"] = digest
    return found


def compare(base: dict[str, str], work: dict[str, str]) -> list[str]:
    """One ``identical``/``DIFFERENT``/``only in ...`` line per item of either side."""
    lines = []
    for item in sorted(set(base) | set(work)):
        if item not in work:
            lines.append(f"only in REV  {item}")
        elif item not in base:
            lines.append(f"only in tree {item}")
        else:
            lines.append(f"{'identical' if base[item] == work[item] else 'DIFFERENT'}    {item}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare this tree against")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "checkout"
        added = subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--quiet", "--detach",
                                str(checkout), rev], capture_output=True, text=True)
        if added.returncode:
            print(f"error: cannot check out {rev}: {added.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            _make_inputs(tmp / "inputs")
            with ThreadPoolExecutor(2) as pool:
                runs = {side: pool.submit(_run_tree, tree, tmp / "inputs", tmp / side)
                        for side, tree in (("REV", checkout), ("tree", REPO))}
                failures = [f"FAILED in {side}: {line}"
                            for side, run in runs.items() for line in run.result()]
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                            str(checkout)], check=True)
        lines = compare(_results(tmp / "REV", tmp / "inputs"),
                        _results(tmp / "tree", tmp / "inputs"))
    differ = sum(not line.startswith("identical") for line in lines)
    print("\n".join(lines + failures))
    print(f"{len(lines) - differ} of {len(lines)} items identical against {rev}, "
          f"{len(failures)} commands failed")
    return 1 if differ or failures else 0

if __name__ == "__main__":
    sys.exit(main())
