import types

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
