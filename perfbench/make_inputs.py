"""Generate one workload's input files from a seed.

Run as its own process by ``run.py`` so that the measured set-up time
includes starting the interpreter and importing the package, as it does for
a user:

    python3 perfbench/make_inputs.py --workload ipcw_cohort --seed 3 --out DIR

The same seed always writes the same files.  The only thing printed is one
JSON line with the facts the checks need and where the package came from.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

import pseudosurv as ps

# train_aft draws its training and test subjects from one fixed nonlinear AFT
# population, so the seed varies the sample but not the difficulty of the
# problem; the test set is larger than a 0.75 split would leave, so the
# test-set c-index and Brier score vary little from seed to seed.
FRIEDMAN_POPULATION_SEED = 2019
FRIEDMAN_POPULATION_N = 20_000
TRAIN_AFT_TRAIN_N = 1_500
TRAIN_AFT_TEST_N = 2_000

IPCW_N = 10_000
IPCW_PERCENTILES = (0.1, 0.2, 0.3, 0.4, 0.5)
COX_BASE_HAZARD = 0.1
COX_BETA = 1.0

# simulate's seed also picks the configurations its searches sample, whose
# training cost differs several-fold, so a seed-driven study changes the
# amount of work from seed to seed; the study seed is fixed instead
SIMULATE_STUDY_SEED = 1


def true_survival(z: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Generator's survival exp(-h0 * exp(beta z) * t), shape (n, len(times))."""
    hazard = COX_BASE_HAZARD * np.exp(COX_BETA * np.asarray(z, dtype=float))
    return np.exp(-np.outer(hazard, np.asarray(times, dtype=float)))


def train_aft_data(seed: int) -> tuple[ps.Dataset, ps.Dataset]:
    population = ps.gen_friedman_aft(
        ps.FriedmanSpec(n=FRIEDMAN_POPULATION_N, censoring_rate=0.4, seed=FRIEDMAN_POPULATION_SEED)
    )
    n = TRAIN_AFT_TRAIN_N + TRAIN_AFT_TEST_N
    cohort, _ = ps.split_dataset(population, n / FRIEDMAN_POPULATION_N, seed=seed)
    return ps.split_dataset(cohort, TRAIN_AFT_TRAIN_N / n, seed=seed)


def ipcw_cohort_data(seed: int) -> ps.Dataset:
    return ps.gen_cox(
        ps.CoxSimSpec(
            n=IPCW_N,
            base_hazard=COX_BASE_HAZARD,
            beta=COX_BETA,
            dependent_censoring=True,
            seed=seed,
        )
    )


def make_train_aft(seed: int, out: Path) -> dict:
    train, test = train_aft_data(seed)
    ps.save_dataset(train, out / "train.csv")
    ps.save_dataset(test, out / "test.csv")
    return {"n_test": len(test)}


def make_ipcw_cohort(seed: int, out: Path) -> dict:
    data = ipcw_cohort_data(seed)
    ps.save_dataset(data, out / "cohort.csv")
    # the CLI sees the CSV at six significant digits, so the grid and the
    # truth are computed from what it will read
    data = ps.load_dataset(out / "cohort.csv")
    cuts = ps.make_grid(data, percentiles=list(IPCW_PERCENTILES)).cutpoints
    surv = true_survival(data.covariates[:, 0], cuts)
    with open(out / "truth.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [repr(float(t)) for t in cuts])
        for i in range(len(data)):
            writer.writerow([i] + [repr(float(v)) for v in surv[i]])
    return {"grid": cuts.tolist()}


def make_simulate_cox(seed: int, out: Path) -> dict:
    # simulate draws its own cohorts; its input is the run configuration,
    # the same for every benchmark seed (see SIMULATE_STUDY_SEED)
    config = {
        "command": "simulate",
        "study": "cox-dependent",
        "replicates": 4,
        "n": 1000,
        "with_net": True,
        "budget": 2,
        "folds": 3,
        "epochs": 10,
        "seed": SIMULATE_STUDY_SEED,
    }
    with open(out / "simulate.json", "w") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return {}


MAKERS = {
    "train_aft": make_train_aft,
    "ipcw_cohort": make_ipcw_cohort,
    "simulate_cox": make_simulate_cox,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    facts = MAKERS[args.workload](args.seed, out)
    facts["package"] = str(Path(ps.__file__).resolve().parent)
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
