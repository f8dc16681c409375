"""Cox proportional hazards fitting and IPCW weight construction.

The same fitting routine serves two purposes: modelling the event time
distribution (linear reference predictor) and modelling the censoring time
distribution, from which per-subject inverse-probability-of-censoring weight
functions are derived.  Fitting is Newton-Raphson on the partial likelihood
with Breslow tie handling and step-halving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import DataError, NumericError
from .estimators import StepSurvivalCurve, WeightFunction
from .util import _BLOCK_CELLS


@dataclass(frozen=True)
class CoxModel:
    """Fitted proportional hazards model.

    ``beta`` are log hazard ratios for the covariates named in
    ``covariate_names`` (centered at ``covariate_means`` before
    exponentiation); ``baseline_cumhaz`` is the Breslow cumulative baseline
    hazard at the centered covariates.  ``target`` records whether the model
    was fit to the event or the censoring indicator.
    """

    beta: np.ndarray
    baseline_cumhaz: StepSurvivalCurve
    covariate_means: np.ndarray
    covariate_names: tuple[str, ...]
    target: str
    loglik_path: tuple[float, ...] = ()

    def linear_predictor(self, covariates: np.ndarray) -> np.ndarray:
        """beta . (Z - means) for a (p,) vector or (n, p) matrix."""
        return (np.asarray(covariates, dtype=float) - self.covariate_means) @ self.beta


def _select_columns(data: Dataset, covariates: Sequence[str] | None):
    if covariates is None:
        return data.covariates, tuple(data.covariate_names)
    names = tuple(covariates)
    cols = []
    for name in names:
        if name not in data.covariate_names:
            raise DataError(f"unknown covariate {name!r}")
        cols.append(data.covariate_names.index(name))
    return data.covariates[:, cols], names


def _partial_loglik(ev, X, first, d, beta):
    """Breslow partial log-likelihood with gradient and Hessian.

    Inputs must be sorted by time ascending; ``first`` indexes the first row
    of each distinct event time and ``d`` counts its events.  Risk-set
    aggregates are reverse cumulative sums evaluated at those rows.  The p x p
    aggregate sums r x x' over blocks of about ``_BLOCK_CELLS`` cells taken
    from the end, each headed by the total so far, and keeps it only at
    ``first``; the Hessian sums its terms in time order, by blocks behind a
    running total.  Both sums add the rows in the order one whole-array sum
    would, so memory is O(K p^2) for K distinct event times, not O(n p^2).
    """
    n, p = X.shape
    theta = X @ beta
    theta = theta - theta.max()  # rescale for a stable exp; cancels in every ratio
    r = np.exp(theta)
    s0 = np.cumsum(r[::-1])[::-1]
    s1 = np.cumsum((r[:, None] * X)[::-1], axis=0)[::-1]
    s0u, s1u = s0[first], s1[first]
    step = max(1, _BLOCK_CELLS // max(1, p * p))
    s2u = np.empty((first.size, p, p))
    total = np.zeros((p, p))
    for hi in range(n, 0, -step):
        lo = max(hi - step, 0)
        rows = slice(hi - 1, lo - 1 if lo else None, -1)
        run = np.einsum("i,ij,ik->ijk", r[rows], X[rows], X[rows])
        run[0] += total  # einsum writes no -0.0, so a zero total changes no bits
        np.cumsum(run, axis=0, out=run)
        total = run[-1].copy()
        at = slice(*np.searchsorted(first, [lo, hi]))
        s2u[at] = run[hi - 1 - first[at]]

    ll = theta[ev].sum() - (d * np.log(s0u)).sum()
    mean = s1u / s0u[:, None]
    grad = X[ev].sum(axis=0) - (d[:, None] * mean).sum(axis=0)
    # numpy sums a (K, 1, 1) array pairwise, so with p <= 1 the terms stay one block
    K = first.size
    step = max(1, K if p <= 1 else _BLOCK_CELLS // (p * p))
    buf = np.empty((min(step, K) + 1, p, p))
    total = np.zeros((p, p))
    for lo in range(0, K, step):
        hi = min(lo + step, K)
        term = buf[1 : hi - lo + 1]
        np.divide(s2u[lo:hi], s0u[lo:hi, None, None], out=term)
        term -= mean[lo:hi, :, None] * mean[lo:hi, None, :]
        term *= d[lo:hi, None, None]
        buf[0] = total
        total = buf[int(lo == 0) : hi - lo + 1].sum(axis=0)  # the first block has no head
    return ll, grad, -total


def fit_cox(
    data: Dataset,
    target: str = "event",
    covariates: Sequence[str] | None = None,
    max_iter: int = 50,
) -> CoxModel:
    """Fit a Cox model to the event or censoring indicator.

    ``target='censoring'`` flips the indicator before fitting, so the model
    describes the censoring time distribution.  Convergence requires the
    gradient sup-norm to fall below 1e-8; each Newton step is halved until
    the partial log-likelihood does not decrease.
    """
    if target not in ("event", "censoring"):
        raise DataError("target must be 'event' or 'censoring'")
    X_raw, names = _select_columns(data, covariates)
    ev = data.event if target == "event" else ~data.event
    if not ev.any():
        raise DataError("no target events")

    order = np.argsort(data.time, kind="stable")
    ts = data.time[order]
    evs = ev[order]
    u, d = np.unique(ts[evs], return_counts=True)
    first = np.searchsorted(ts, u, side="left")
    # overflow on extreme covariates gives a non-finite likelihood or gradient, which the
    # step and gradient tests refuse; numpy's warnings would only repeat that
    with np.errstate(all="ignore"):
        means = X_raw.mean(axis=0)
        X = X_raw[order] - means
        p = X.shape[1]
        beta = np.zeros(p)
        ll, grad, hess = _partial_loglik(evs, X, first, d, beta)
        path = [ll]
        for _ in range(max_iter):
            if np.max(np.abs(grad), initial=0.0) <= 1e-8:
                break
            try:
                step = np.linalg.solve(-hess, grad)
            except np.linalg.LinAlgError:
                raise NumericError("cox did not converge") from None
            scale = 1.0
            for _ in range(30):
                ll_new, grad_new, hess_new = _partial_loglik(evs, X, first, d, beta + scale * step)
                if ll_new >= ll - 1e-12 * max(1.0, abs(ll)):
                    break
                scale *= 0.5
            else:
                raise NumericError("cox did not converge")
            beta = beta + scale * step
            ll, grad, hess = ll_new, grad_new, hess_new
            path.append(ll)
        if not np.max(np.abs(grad), initial=0.0) <= 1e-8:
            raise NumericError("cox did not converge")

    # Breslow baseline at the converged (centered) coefficients.
    theta = X @ beta
    r = np.exp(theta)
    s0 = np.cumsum(r[::-1])[::-1]
    baseline = StepSurvivalCurve(u, np.cumsum(d / s0[first]), 0.0)
    return CoxModel(beta, baseline, means, names, target, tuple(path))


def censoring_weights(data: Dataset, model: CoxModel, cap: float = 20.0) -> WeightFunction:
    """Per-subject IPCW weight functions from the fitted censoring model.

    G(t | Z_i) = exp(-Lambda_0(t) * exp(beta . (Z_i - means))); the weight at
    u is min(1 / G(u-), cap).  The result keeps the Breslow baseline and the
    n relative risks, O(n + K) memory for K censoring times; weights are
    computed only at the times and for the subjects a caller asks for.  The
    same weight function is meant to be built once on the training split and
    reused everywhere weights are needed.
    """
    if not cap > 1.0:
        raise DataError("weight cap must exceed 1")
    if model.target != "censoring":
        raise DataError("model must be fit with target='censoring'")
    Z, _ = _select_columns(data, model.covariate_names)
    risk = np.exp(model.linear_predictor(Z))
    # exp overflows above a linear predictor of 709.78; the largest float stands in for inf
    risk = np.minimum(risk, np.finfo(float).max)
    base = model.baseline_cumhaz
    return WeightFunction(base.times, base.values, risk, cap)
