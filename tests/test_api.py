import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import pseudosurv
from pseudosurv.cli import main

# the package's public names other than its submodules
PUBLIC = {
    "CoxModel", "CoxSimSpec", "DataError", "Dataset", "EvalReport", "FriedmanSpec", "GeeModel",
    "MlpConfig", "MlpModel", "NumericError", "PseudoTable", "PseudosurvError",
    "StepSurvivalCurve", "TimeGrid", "WeightFunction", "brier", "c_index",
    "calibrate_censoring", "censoring_kaplan_meier", "censoring_weights",
    "cox_predict_survival", "default_grid", "evaluate_predictions", "fit_and_evaluate",
    "fit_cox", "fit_gee", "gen_cox", "gen_friedman_aft", "grid_search", "ipcw_survival",
    "kaplan_meier", "load_dataset", "load_model", "make_grid", "nelson_aalen_weighted",
    "predict_conditional_matrix", "predict_marginal_matrix", "predict_survival",
    "pseudo_conditional", "pseudo_marginal", "save_dataset", "save_model", "split_dataset",
    "train", "write_dataset_with_metadata",
}
SUBMODULES = {"baselines", "cox", "data", "errors", "estimators", "metrics", "net", "pseudo",
              "sim", "util"}


def test_public_names_are_pinned():
    names = {name for name in dir(pseudosurv) if not name.startswith("_")
             and not isinstance(getattr(pseudosurv, name), types.ModuleType)}
    assert len(PUBLIC) == 45
    assert names == PUBLIC


def test_star_import_binds_public_names_and_submodules():
    namespace = {}
    exec("from pseudosurv import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    # a submodule imported elsewhere (cli) is bound too, as an attribute of the package
    assert PUBLIC | SUBMODULES <= bound <= PUBLIC | SUBMODULES | {"cli"}


# a process's CLI arguments ({d}: a directory with data.csv, pred.csv, sim.csv and m.json;
# None: only the package import) and the submodules it must not load; no process may load
# numpy.ma, which numpy 2.4's plain np.unique and np.quantile import (about 10 ms), or gzip
TRAIN = ["--budget", "1", "--folds", "2", "--epochs", "1", "--threads", "1"]
IMPORT_CASES = {
    "import": (None, SUBMODULES),
    "transform": (["transform", "--input", "{d}/sim.csv", "--output", "{d}/t.csv"],
                  {"net", "metrics", "cox", "baselines", "sim"}),
    "transform --ipcw": (["transform", "--input", "{d}/data.csv", "--output", "{d}/t.csv",
                          "--ipcw", "--grid-times", "2.5"], {"net", "metrics", "baselines", "sim"}),
    "train": (["train", "--input", "{d}/sim.csv", "--model-out", "{d}/m1.json", *TRAIN],
              {"cox", "baselines", "sim"}),
    "train --ipcw": (["train", "--input", "{d}/sim.csv", "--model-out", "{d}/m2.json", "--ipcw",
                      *TRAIN], {"baselines", "sim"}),
    "predict": (["predict", "--model", "{d}/m.json", "--input", "{d}/sim.csv", "--output",
                 "{d}/p.csv"], {"cox", "baselines", "sim"}),
    "evaluate --model": (["evaluate", "--model", "{d}/m.json", "--input", "{d}/sim.csv",
                          "--output", "{d}/e.csv"], {"cox", "baselines", "sim"}),
    "evaluate --predictions": (["evaluate", "--input", "{d}/data.csv", "--output", "{d}/r.csv",
                                "--predictions", "{d}/pred.csv"],
                               {"net", "cox", "baselines", "sim"}),
    "simulate": (["simulate", "--replicates", "1", "--n", "60", "--with-net", "--out",
                  "{d}/study", *TRAIN], set()),
    "split": (["split", "--input", "{d}/sim.csv", "--train-out", "{d}/a.csv", "--test-out",
               "{d}/b.csv"], {"estimators", "pseudo", "net", "metrics", "cox", "baselines", "sim"}),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "data.csv").write_text("time,event,z_1\n1,1,0.5\n2,0,-1\n3,1,0.2\n4,1,1.1\n")
    (d / "pred.csv").write_text("id,2.5\n" + "".join(f"{i},0.5\n" for i in range(4)))
    pseudosurv.save_dataset(pseudosurv.gen_cox(pseudosurv.CoxSimSpec(n=60, seed=3)), d / "sim.csv")
    assert main(["train", "--input", str(d / "sim.csv"), "--model-out", str(d / "m.json"),
                 *TRAIN]) == 0
    return d


@pytest.mark.parametrize("case", sorted(IMPORT_CASES))
def test_process_loads_only_what_it_runs(cli_inputs, case):
    argv, absent = IMPORT_CASES[case]
    code = "import json, sys, pseudosurv"
    if argv is not None:
        argv = [arg.format(d=cli_inputs) for arg in argv]
        code += f"; from pseudosurv.cli import main; assert main({argv!r}) == 0"
    code += "; print(json.dumps(list(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(pseudosurv.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    modules = json.loads(out.stdout)
    loaded = {name.removeprefix("pseudosurv.") for name in modules
              if name.startswith("pseudosurv.")}
    assert "cli" in loaded if argv else loaded == set()
    assert not loaded & absent
    assert "numpy.ma" not in modules
    assert "gzip" not in modules  # which np.loadtxt imports when given a path, not an open file


def _value_objects():
    """One instance of each public value type that holds arrays."""
    data = pseudosurv.Dataset(np.array([1.0, 2.0, 3.0]), np.array([True, False, True]),
                              np.array([[0.5], [-1.0], [0.2]]), ("z_1",))
    grid = pseudosurv.TimeGrid(np.array([1.5, 2.5]))
    return [
        data,
        pseudosurv.StepSurvivalCurve(np.array([1.0, 3.0]), np.array([0.5, 0.25])),
        pseudosurv.WeightFunction(np.array([2.0]), np.array([0.3]), np.array([1.0, 2.0, 0.5])),
        grid,
        pseudosurv.PseudoTable(data, np.array([0, 0, 1]), np.array([0, 1, 0]),
                               np.array([1.2, 0.4, 0.9]), grid),
        pseudosurv.evaluate_predictions(data, np.full((3, 2), 0.5), np.array([1.5, 2.5])),
        pseudosurv.GeeModel(np.array([-1.0, 0.0]), np.array([0.7]), np.array([1.5, 2.5])),
    ]


@pytest.mark.parametrize("obj", _value_objects(), ids=lambda obj: type(obj).__name__)
def test_value_type_arrays_are_read_only(obj):
    arrays = [value for value in vars(obj).values() if isinstance(value, np.ndarray)]
    assert arrays
    for value in arrays:
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[...] = 0


def test_report_leaves_caller_times_writable():
    data = pseudosurv.Dataset(np.array([1.0, 2.0]), np.array([True, True]), np.zeros((2, 0)), ())
    times = np.array([1.5])
    pseudosurv.evaluate_predictions(data, np.full((2, 1), 0.5), times)
    assert times.flags.writeable
