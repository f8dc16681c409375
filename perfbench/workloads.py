"""The three workloads: the CLI commands of one pass and the checks on their outputs.

Each workload is a closed loop with one client: ``run.py`` starts a command,
waits for it to exit, then starts the next.  A run first executes the
workload's commands that use worker pools once at the default thread count
(all cores, as a user gets it), then repeats a pass of its single-process
commands until the run's time is up.  The checks read the outputs of both.

Every command runs as ``python3 -m pseudosurv.cli <subcommand> ...``.
Nothing here sets a BLAS or OpenMP thread variable.
"""

from __future__ import annotations

import csv
import filecmp
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from make_inputs import COX_BASE_HAZARD, COX_BETA, IPCW_PERCENTILES

TRAIN_ARGS = ["--budget", "4", "--folds", "3", "--epochs", "10", "--seed", "1"]
IPCW_SE_LIMIT = 3.0
GEE_IPCW_TOLERANCE = 0.15


@dataclass
class Command:
    """One CLI invocation; ``metric`` names the timing it feeds."""

    metric: str
    args: list[str]


@dataclass
class PassResult:
    """Outputs of one pass that the end-to-end metrics read."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    c_index: float = float("nan")
    brier: float = float("nan")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _eval_means(path: Path) -> tuple[float, float]:
    with open(path) as fh:
        report = json.load(fh)
    c = [v for v in report["c_index"] if v is not None]
    return float(np.mean(c)) if c else float("nan"), float(np.mean(report["brier"]))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader if row]
    return header, np.asarray(rows, dtype=float)


# --------------------------------------------------------------------- train_aft


def train_aft_default(d: Path) -> list[Command]:
    return [
        Command("train_s", ["train", "--input", str(d / "train.csv"),
                            "--model-out", str(d / "model_default.json"), *TRAIN_ARGS]),
    ]


def train_aft_pass(d: Path) -> list[Command]:
    train, test = str(d / "train.csv"), str(d / "test.csv")
    model = str(d / "model_serial.json")
    return [
        Command("train_serial_s",
                ["train", "--input", train, "--model-out", model, *TRAIN_ARGS, "--threads", "1"]),
        Command("predict_s",
                ["predict", "--model", model, "--input", test, "--output", str(d / "pred.csv")]),
        Command("evaluate_s",
                ["evaluate", "--model", model, "--input", test, "--output", str(d / "eval.csv")]),
    ]


def train_aft_check(d: Path, facts: dict) -> PassResult:
    res = PassResult()
    res.check(
        "model byte-identical at --threads 1 and default threads",
        filecmp.cmp(d / "model_serial.json", d / "model_default.json", shallow=False),
    )
    header, pred = _read_csv(d / "pred.csv")
    J = (len(header) - 1) // 2
    marg = pred[:, 1 + J :]
    res.check("predict writes one row per test subject", pred.shape[0] == facts["n_test"],
              f"{pred.shape[0]} rows, {facts['n_test']} subjects")
    res.check(
        "predicted marginal survival lies in [0, 1] and never rises",
        bool(np.all((marg >= 0) & (marg <= 1)) and np.all(np.diff(marg, axis=1) <= 1e-6)),
    )
    res.c_index, res.brier = _eval_means(d / "eval.csv.json")
    res.check("net beats a random ranking on the test split", res.c_index > 0.5,
              f"c-index {res.c_index:.4f}")
    res.check("test Brier score is finite and positive", np.isfinite(res.brier) and res.brier > 0)
    return res


# ------------------------------------------------------------------- ipcw_cohort


def ipcw_cohort_pass(d: Path) -> list[Command]:
    cohort = str(d / "cohort.csv")
    grid = ",".join(str(q) for q in IPCW_PERCENTILES)
    return [
        Command("transform_s",
                ["transform", "--input", cohort, "--output", str(d / "pseudo.csv"),
                 "--ipcw", "--grid-percentiles", grid]),
        Command("evaluate_s",
                ["evaluate", "--predictions", str(d / "truth.csv"), "--input", cohort,
                 "--output", str(d / "eval.csv")]),
    ]


def marginal_truth(times) -> np.ndarray:
    """S(t) = E_z[exp(-h0 e^{beta z} t)], z ~ N(0, 1), by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    z = np.sqrt(2.0) * nodes
    hazard = COX_BASE_HAZARD * np.exp(COX_BETA * z)
    return np.exp(-np.outer(np.asarray(times, dtype=float), hazard)) @ weights / np.sqrt(np.pi)


def ipcw_cohort_check(d: Path, facts: dict) -> PassResult:
    res = PassResult()
    with open(d / "pseudo.csv.meta.json") as fh:
        meta = json.load(fh)
    cuts = np.asarray(meta["grid"], dtype=float)
    res.check("transform uses the grid the truth was written for",
              np.array_equal(cuts, facts["grid"]))
    header, table = _read_csv(d / "pseudo.csv")
    pseudo = table[:, -1]
    onehot = table[:, header.index("d_0") : header.index("d_0") + cuts.size]
    interval = onehot.argmax(axis=1)

    _, cohort = _read_csv(d / "cohort.csv")
    times = cohort[:, 0]
    starts = np.concatenate(([0.0], cuts[:-1]))
    risk_sets = [int((times > s).sum()) for s in starts]
    res.check("pseudo rows equal the summed risk-set sizes", table.shape[0] == sum(risk_sets),
              f"{table.shape[0]} rows, {sum(risk_sets)} at risk")

    surv = marginal_truth(np.concatenate(([0.0], cuts)))
    cond_truth = surv[1:] / surv[:-1]
    for j in range(cuts.size):
        vals = pseudo[interval == j]
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        z = (vals.mean() - cond_truth[j]) / se
        res.check(
            f"interval {j}: mean IPCW pseudo value within {IPCW_SE_LIMIT:g} SE of the truth",
            abs(z) <= IPCW_SE_LIMIT,
            f"mean {vals.mean():.5f}, truth {cond_truth[j]:.5f}, z {z:+.2f}",
        )
    res.c_index, res.brier = _eval_means(d / "eval.csv.json")
    res.check("true survival ranks better than chance", res.c_index > 0.5,
              f"c-index {res.c_index:.4f}")
    res.check("Brier score of the truth is finite and positive",
              np.isfinite(res.brier) and res.brier > 0)
    return res


# ------------------------------------------------------------------ simulate_cox


def simulate_cox_default(d: Path) -> list[Command]:
    return [
        Command("simulate_s",
                ["simulate", "--config", str(d / "simulate.json"), "--out", str(d / "sim_default")]),
    ]


def simulate_cox_pass(d: Path) -> list[Command]:
    return [
        Command("simulate_serial_s",
                ["simulate", "--config", str(d / "simulate.json"), "--out", str(d / "sim_serial"),
                 "--threads", "1"]),
    ]


def _summary(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {row["quantity"]: float(row["mean"]) for row in csv.DictReader(fh)}


def simulate_cox_check(d: Path, facts: dict) -> PassResult:
    res = PassResult()
    for name in ("replicates.csv", "summary.csv"):
        res.check(
            f"simulate {name} byte-identical at --threads 1 and default threads",
            filecmp.cmp(d / "sim_serial" / name, d / "sim_default" / name, shallow=False),
        )
    summary = _summary(d / "sim_default" / "summary.csv")
    beta_ipcw, beta_plain = summary["beta_gee_ipcw"], summary["beta_gee"]
    res.check(
        f"mean IPCW GEE slope within {GEE_IPCW_TOLERANCE:g} of the true beta = 1",
        abs(beta_ipcw - COX_BETA) <= GEE_IPCW_TOLERANCE,
        f"beta_gee_ipcw {beta_ipcw:.4f}",
    )
    res.check(
        "mean plain GEE slope falls below the true beta and the IPCW slope",
        beta_plain < COX_BETA and beta_plain < beta_ipcw,
        f"beta_gee {beta_plain:.4f}",
    )
    # c_index_net is deliberately not used: see perfbench/NOTES.md
    res.c_index, res.brier = summary["c_index_cox"], summary["brier_cox"]
    return res


@dataclass(frozen=True)
class Workload:
    """``default`` runs once per run at default threads; ``passes`` loop at one thread."""

    default: Callable[[Path], list[Command]]
    passes: Callable[[Path], list[Command]]
    check: Callable[[Path, dict], PassResult]


WORKLOADS = {
    "train_aft": Workload(train_aft_default, train_aft_pass, train_aft_check),
    "ipcw_cohort": Workload(lambda d: [], ipcw_cohort_pass, ipcw_cohort_check),
    "simulate_cox": Workload(simulate_cox_default, simulate_cox_pass, simulate_cox_check),
}
