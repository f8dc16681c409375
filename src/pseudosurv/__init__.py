"""Pseudo-value survival prediction.

Converts right-censored survival data into jackknife pseudo conditional
survival probabilities (optionally IPCW-weighted for covariate-dependent
censoring), trains a small feed-forward regressor on them with squared-error
loss, and evaluates predictions with time-dependent concordance and Brier
scores.  Includes the synthetic designs used to validate the pipeline.
"""

__version__ = "0.1.0"

from .baselines import GeeModel, cox_predict_survival, fit_gee, gee_predict_survival
from .cox import CoxModel, censoring_weights, fit_cox
from .data import (
    Dataset,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .errors import DataError, NumericError, PseudosurvError
from .estimators import (
    StepSurvivalCurve,
    WeightFunction,
    censoring_kaplan_meier,
    ipcw_survival,
    kaplan_meier,
    nelson_aalen,
    nelson_aalen_weighted,
)
from .metrics import EvalReport, brier, c_index, evaluate_predictions
from .net import (
    MlpConfig,
    MlpModel,
    default_grid,
    fit_and_evaluate,
    grid_search,
    load_model,
    predict_conditional_matrix,
    predict_marginal_matrix,
    predict_survival,
    predict_survival_curve,
    save_model,
    train,
)
from .pseudo import (
    PseudoTable,
    TimeGrid,
    make_grid,
    pseudo_conditional,
    pseudo_marginal,
    pseudo_marginal_naive,
)
from .sim import (
    CoxSimSpec,
    FriedmanSpec,
    calibrate_censoring,
    gen_cox,
    gen_friedman_aft,
    write_dataset_with_metadata,
)

__all__ = [
    "CoxModel",
    "CoxSimSpec",
    "DataError",
    "Dataset",
    "EvalReport",
    "FriedmanSpec",
    "GeeModel",
    "MlpConfig",
    "MlpModel",
    "NumericError",
    "PseudoTable",
    "PseudosurvError",
    "StepSurvivalCurve",
    "TimeGrid",
    "WeightFunction",
    "brier",
    "c_index",
    "calibrate_censoring",
    "censoring_kaplan_meier",
    "censoring_weights",
    "cox_predict_survival",
    "default_grid",
    "evaluate_predictions",
    "fit_and_evaluate",
    "fit_cox",
    "fit_gee",
    "gee_predict_survival",
    "gen_cox",
    "gen_friedman_aft",
    "grid_search",
    "ipcw_survival",
    "kaplan_meier",
    "load_dataset",
    "load_model",
    "make_grid",
    "nelson_aalen",
    "nelson_aalen_weighted",
    "predict_conditional_matrix",
    "predict_marginal_matrix",
    "predict_survival",
    "predict_survival_curve",
    "pseudo_conditional",
    "pseudo_marginal",
    "pseudo_marginal_naive",
    "save_dataset",
    "save_model",
    "split_dataset",
    "train",
    "write_dataset_with_metadata",
]
