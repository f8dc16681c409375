"""Pseudo-value survival prediction.

Converts right-censored survival data into jackknife pseudo conditional
survival probabilities (optionally IPCW-weighted for covariate-dependent
censoring), trains a small feed-forward regressor on them with squared-error
loss, and evaluates predictions with time-dependent concordance and Brier
scores.  Includes the synthetic designs used to validate the pipeline.

Submodules load on first use of one of their names, so a process pays only
for the parts it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule: the public names it provides
_EXPORTS = {
    "baselines": ("GeeModel", "cox_predict_survival", "fit_gee"),
    "cox": ("CoxModel", "censoring_weights", "fit_cox"),
    "data": ("Dataset", "load_dataset", "save_dataset", "split_dataset"),
    "errors": ("DataError", "NumericError", "PseudosurvError"),
    "estimators": ("StepSurvivalCurve", "WeightFunction", "censoring_kaplan_meier",
                   "ipcw_survival", "kaplan_meier", "nelson_aalen_weighted"),
    "metrics": ("EvalReport", "brier", "c_index", "evaluate_predictions"),
    "net": ("MlpConfig", "MlpModel", "default_grid", "fit_and_evaluate", "grid_search",
            "load_model", "predict_conditional_matrix", "predict_marginal_matrix",
            "predict_survival", "save_model", "train"),
    "pseudo": ("PseudoTable", "TimeGrid", "make_grid", "pseudo_conditional", "pseudo_marginal"),
    "sim": ("CoxSimSpec", "FriedmanSpec", "calibrate_censoring", "gen_cox", "gen_friedman_aft",
            "write_dataset_with_metadata"),
    "util": (),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, *_EXPORTS]


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
