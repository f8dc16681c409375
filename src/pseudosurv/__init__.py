"""Pseudo-value survival prediction.

Converts right-censored survival data into jackknife pseudo conditional
survival probabilities (optionally IPCW-weighted for covariate-dependent
censoring), trains a small feed-forward regressor on them with squared-error
loss, and evaluates predictions with time-dependent concordance and Brier
scores.  Includes the synthetic designs used to validate the pipeline.
"""

__version__ = "0.1.0"

from .baselines import GeeModel, cox_predict_survival, fit_gee
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
    save_model,
    train,
)
from .pseudo import (
    PseudoTable,
    TimeGrid,
    make_grid,
    pseudo_conditional,
    pseudo_marginal,
)
from .sim import (
    CoxSimSpec,
    FriedmanSpec,
    calibrate_censoring,
    gen_cox,
    gen_friedman_aft,
    write_dataset_with_metadata,
)
