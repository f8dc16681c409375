"""Reference predictors: linear Cox survival curves and pseudo-value GEE.

The GEE regresses marginal pseudo survival probabilities on covariates
through the complementary log-log link, log(-log S) = alpha_j + beta . Z,
solved with independence working correlation.  Under a proportional hazards
generator beta matches the Cox log hazard ratio, which makes the fit a
useful bias probe: with covariate-dependent censoring the plain pseudo
values attenuate beta, while IPCW pseudo values restore it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cox import CoxModel, censoring_weights, fit_cox
from .data import Dataset
from .errors import DataError, NumericError
from .pseudo import TimeGrid, pseudo_marginal
from .util import freeze, one_blas_thread

_MAX_ITER = 100  # Gauss-Newton steps before the relative-gradient acceptance


def cox_predict_survival(model: CoxModel, covariates, t):
    """S_0(t) ** exp(beta . (Z - means)) with S_0 = exp(-baseline cumhaz)."""
    if model.target != "event":
        raise DataError("model must be fit with target='event'")
    base = np.exp(-np.asarray(model.baseline_cumhaz.at(t), dtype=float))
    theta = model.linear_predictor(np.asarray(covariates, dtype=float))
    if np.ndim(theta) == 0:  # scalar ** can round apart from the ufunc loop at a scalar t
        return base ** np.exp(theta)
    return np.power.outer(base, np.exp(theta)).T


@dataclass(frozen=True)
class GeeModel:
    """Fitted pseudo-value regression: one intercept per grid time plus slopes."""

    time_intercepts: np.ndarray
    beta: np.ndarray
    cutpoints: np.ndarray

    def __post_init__(self):
        freeze(self, time_intercepts=np.asarray(self.time_intercepts, dtype=float),
               beta=np.asarray(self.beta, dtype=float),
               cutpoints=np.asarray(self.cutpoints, dtype=float))


def _cloglog_mean(eta):
    return np.exp(-np.exp(eta))


@one_blas_thread()
def fit_gee(data: Dataset, grid: TimeGrid, ipcw: bool = False) -> GeeModel:
    """Fit the pseudo-value regression on marginal pseudo values at the grid times.

    With ``ipcw`` a Cox censoring model on all covariates supplies the
    weights (capped at 20) used inside the pseudo-value construction.
    The estimating equations (independence working correlation, identity
    variance) are solved by Gauss-Newton with step halving on the residual
    sum of squares; pseudo responses outside (0, 1) are used as-is.
    """
    weights = None
    if ipcw:
        weights = censoring_weights(data, fit_cox(data, target="censoring"))

    n, p = len(data), data.p
    J = grid.n_intervals
    cuts = grid.cutpoints
    ys = [pseudo_marginal(data, float(t), weights) for t in cuts]
    y = np.concatenate(ys)
    X = np.hstack([np.repeat(np.eye(J), n, axis=0), np.tile(data.covariates, (J, 1))])

    theta = np.zeros(J + p)
    theta[:J] = np.log(-np.log(np.clip([v.mean() for v in ys], 0.01, 0.99)))

    def sse(t):
        r = y - _cloglog_mean(X @ t)
        return float(r @ r)

    def linearize(t):
        eta = X @ t
        dmu = -np.exp(eta - np.exp(eta))
        return dmu[:, None] * X, y - _cloglog_mean(eta)

    current = sse(theta)
    with np.errstate(over="ignore"):  # a diverging fit overflows exp; it is refused below
        for _ in range(_MAX_ITER):
            jac, resid = linearize(theta)
            delta, *_ = np.linalg.lstsq(jac, resid, rcond=None)
            scale = 1.0
            for _ in range(40):
                candidate = sse(theta + scale * delta)
                if candidate <= current + 1e-12 * max(1.0, current):
                    break
                scale *= 0.5
            else:
                raise NumericError("gee did not converge")
            theta = theta + scale * delta
            current = candidate
            if np.max(np.abs(scale * delta)) <= 1e-8:
                break
        else:
            # On a large-residual fit Gauss-Newton can creep linearly with steps far
            # above 1e-8.  Accept the last iterate where the score J'r is flat by
            # the relative-gradient test of Dennis & Schnabel (1983, sec. 7.2):
            # max |g_i| max(|theta_i|, 1) / max(f, 1) <= eps**(1/3), f = SSE / 2.
            jac, resid = linearize(theta)
            relgrad = np.abs(jac.T @ resid) * np.maximum(np.abs(theta), 1.0) / max(current / 2, 1.0)
            if relgrad.max() > np.finfo(float).eps ** (1 / 3):
                raise NumericError("gee did not converge")
    # past log(max float) the fitted survival exp(-exp(eta)) is exactly 0 or 1
    eta = float(np.max(np.abs(X @ theta)))
    if eta > np.log(np.finfo(float).max):
        raise NumericError(f"gee diverged: max |linear predictor| is {eta:.6g}")
    return GeeModel(theta[:J], theta[J:], cuts)
