import types

import numpy as np
import pytest

import pseudosurv

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
    names = {name for name, value in vars(pseudosurv).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 45
    assert names == PUBLIC


def test_star_import_binds_public_names_and_submodules():
    namespace = {}
    exec("from pseudosurv import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    # a submodule imported elsewhere (cli) is bound too, as an attribute of the package
    assert PUBLIC | SUBMODULES <= bound <= PUBLIC | SUBMODULES | {"cli"}


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
        pseudosurv.PseudoTable(np.array([0, 0, 1]), np.array([[0.5], [0.5], [-1.0]]),
                               np.array([0, 1, 0]), np.array([1.2, 0.4, 0.9]), grid, ("z_1",)),
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
