"""Synthetic survival data generators with censoring-rate calibration.

Two designs: a nonlinear accelerated failure time model whose mean function
is a random sum of Gaussian bumps over covariate subsets (a flexible random
function generator), and a single-covariate proportional hazards model whose
censoring can be made to follow the same law as the event times, giving
covariate-dependent censoring at roughly fifty percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, save_dataset, write_json
from .errors import DataError, NumericError
from .util import _BLOCK_CELLS, derived_rng

_CALIBRATION_DRAWS = 200_000
# the nonlinear AFT design: covariates, Gaussian bumps, and Var(mu) / Var(eps)
_AFT_P, _AFT_TERMS, _AFT_SNR = 20, 10, 3.0
# calibration covariate rows drawn at once: about one block of float64 draws
_CALIBRATION_BLOCK = _BLOCK_CELLS // _AFT_P


@dataclass(frozen=True)
class FriedmanSpec:
    """Nonlinear AFT design: log X = mu(Z) + eps, eps ~ Gamma(2, 1)."""

    n: int
    censoring_rate: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise DataError("n must be at least 2: one subject has no variance to rescale by")
        if not 0.0 < self.censoring_rate < 1.0:
            raise DataError("censoring_rate must be in (0, 1)")


@dataclass(frozen=True)
class CoxSimSpec:
    """Single-covariate proportional hazards design: lambda(t|z) = h0 exp(beta z).

    With ``dependent_censoring`` the censoring time is an independent draw
    from the identical law, which censors about half the subjects and makes
    censoring depend on the covariate.  Otherwise censoring is exponential,
    calibrated to ``censoring_rate`` (0 disables censoring entirely).
    """

    n: int
    base_hazard: float = 0.1
    beta: float = 1.0
    dependent_censoring: bool = False
    censoring_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DataError("n must be positive")
        if not self.base_hazard > 0:
            raise DataError("base_hazard must be positive")
        if not 0.0 <= self.censoring_rate < 1.0:
            raise DataError("censoring_rate must be in [0, 1)")


def calibrate_censoring(survival_times, target_rate: float) -> float:
    """Exponential censoring rate whose induced censored fraction matches target.

    For C ~ Exp(rate) independent of X, the censored probability given the
    sample is mean(1 - exp(-rate * X_i)); that expectation over the supplied
    Monte Carlo sample is bisected in the rate.  Deterministic given the
    sample: no fresh censoring draws are needed.
    """
    x = np.asarray(survival_times, dtype=float)
    if x.size == 0 or not np.all(x > 0):
        raise DataError("survival times must be positive")
    if not 0.0 < target_rate < 1.0:
        raise DataError("target_rate must be in (0, 1)")

    def censored_fraction(rate):
        return float(np.mean(-np.expm1(-rate * x)))

    k = (x.size - 1) // 2, x.size // 2  # the middle values: np.median would import numpy.ma
    lo, hi = 0.0, 1.0 / float(np.mean(np.partition(x, k)[k[0] : k[1] + 1]))
    for _ in range(200):
        if censored_fraction(hi) >= target_rate:
            break
        hi *= 2.0
        if hi > 1e15:
            raise NumericError("cannot bracket the requested censoring rate")
    else:
        raise NumericError("cannot bracket the requested censoring rate")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # f(lo) < target <= f(hi), so every later step would keep both ends
            break
        if censored_fraction(mid) < target_rate:
            lo = mid
        else:
            hi = mid
    rate = 0.5 * (lo + hi)
    if abs(censored_fraction(rate) - target_rate) > 0.01:
        raise NumericError("censoring calibration did not reach the target rate")
    return rate


def _gaussian_bumps(rng, p: int, n_terms: int):
    """Random bump functions: coefficient, variable subset, center, shape matrix.

    Subset size is min(floor(1.5 + Exponential(mean 2)), p), expected around
    four variables per bump.  The quadratic form is U diag(s^2) U' with U a
    random rotation and s uniform on [0.1, 2.0].
    """
    terms = []
    coeffs = rng.uniform(-1.0, 1.0, size=n_terms)
    for l in range(n_terms):
        size = min(int(np.floor(1.5 + rng.exponential(2.0))), p)
        subset = np.sort(rng.choice(p, size=size, replace=False))
        center = rng.standard_normal(size)
        rotation, _ = np.linalg.qr(rng.standard_normal((size, size)))
        sqrt_eigs = rng.uniform(0.1, 2.0, size=size)
        shape = rotation @ np.diag(sqrt_eigs**2) @ rotation.T
        terms.append((float(coeffs[l]), subset, center, shape))
    return terms


def _bump_mean(terms, Z: np.ndarray) -> np.ndarray:
    mu = np.zeros(Z.shape[0])
    for coeff, subset, center, shape in terms:
        diff = Z[:, subset] - center
        quad = np.einsum("ij,jk,ik->i", diff, shape, diff)
        mu += coeff * np.exp(-0.5 * quad)
    return mu


def gen_friedman_aft(spec: FriedmanSpec, return_info: bool = False):
    """Generate the nonlinear AFT design.

    The mean function is rescaled on the generated sample so the empirical
    variance ratio Var(mu)/Var(eps) equals ``_AFT_SNR`` with Var(eps) = 2 taken
    analytically.  Censoring is exponential with the rate calibrated on a
    separate large Monte Carlo sample from the same random function.
    """
    rng = derived_rng(spec.seed, "friedman-aft")
    terms = _gaussian_bumps(rng, _AFT_P, _AFT_TERMS)

    Z = rng.standard_normal((spec.n, _AFT_P))
    mu_raw = _bump_mean(terms, Z)
    eps = rng.gamma(2.0, 1.0, size=spec.n)
    var_raw = float(np.var(mu_raw))
    if var_raw <= 0:
        raise NumericError("degenerate mean function: zero variance")
    scale = float(np.sqrt(_AFT_SNR * 2.0 / var_raw))
    mu = scale * mu_raw
    x = np.exp(mu + eps)

    # the covariates come a block at a time, the same stream as one draw of them all
    mu_cal = np.empty(_CALIBRATION_DRAWS)
    for lo in range(0, _CALIBRATION_DRAWS, _CALIBRATION_BLOCK):
        rows = min(_CALIBRATION_BLOCK, _CALIBRATION_DRAWS - lo)
        mu_cal[lo : lo + rows] = _bump_mean(terms, rng.standard_normal((rows, _AFT_P)))
    eps_cal = rng.gamma(2.0, 1.0, size=_CALIBRATION_DRAWS)
    x_cal = np.exp(scale * mu_cal + eps_cal)
    rate = calibrate_censoring(x_cal, spec.censoring_rate)

    c = rng.exponential(1.0 / rate, size=spec.n)
    time = np.minimum(x, c)
    event = x <= c
    names = tuple(f"z_{k + 1}" for k in range(_AFT_P))
    data = Dataset(time, event, Z, names)
    if not return_info:
        return data
    info = {
        "design": "friedman-aft",
        "seed": spec.seed,
        "n": spec.n,
        "p": _AFT_P,
        "n_terms": _AFT_TERMS,
        "snr_target": _AFT_SNR,
        "snr_achieved": float(np.var(mu) / np.var(eps)),
        "censoring_rate_target": spec.censoring_rate,
        "censoring_rate_achieved": float(1.0 - event.mean()),
        "calibrated_exponential_rate": rate,
        "mean_function": {
            "form": "sum of signed Gaussian bumps over random covariate subsets",
            "subset_size_rule": "min(floor(1.5 + Exponential(mean 2)), p)",
            "shape_rule": "rotation @ diag(sqrt_eig^2) @ rotation', sqrt_eig ~ U[0.1, 2.0]",
            "residuals": "Gamma(shape 2, rate 1) on the log-time scale",
        },
    }
    return data, info


def gen_cox(spec: CoxSimSpec, return_info: bool = False):
    """Generate the single-covariate proportional hazards design."""
    rng = derived_rng(spec.seed, "cox-sim")
    z = rng.standard_normal(spec.n)
    hazard = spec.base_hazard * np.exp(spec.beta * z)
    x = rng.standard_exponential(spec.n) / hazard

    rate = None
    if spec.dependent_censoring:
        c = rng.standard_exponential(spec.n) / hazard
    elif spec.censoring_rate == 0.0:
        c = np.full(spec.n, np.inf)
    else:
        z_cal = rng.standard_normal(_CALIBRATION_DRAWS)
        x_cal = rng.standard_exponential(_CALIBRATION_DRAWS) / (
            spec.base_hazard * np.exp(spec.beta * z_cal)
        )
        rate = calibrate_censoring(x_cal, spec.censoring_rate)
        c = rng.exponential(1.0 / rate, size=spec.n)

    time = np.minimum(x, c)
    event = x <= c
    data = Dataset(time, event, z[:, None], ("z_1",))
    if not return_info:
        return data
    info = {
        "design": "cox",
        "seed": spec.seed,
        "n": spec.n,
        "base_hazard": spec.base_hazard,
        "beta": spec.beta,
        "dependent_censoring": spec.dependent_censoring,
        "censoring_rate_target": None if spec.dependent_censoring else spec.censoring_rate,
        "censoring_rate_achieved": float(1.0 - event.mean()),
        "calibrated_exponential_rate": rate,
    }
    return data, info


def write_dataset_with_metadata(data: Dataset, info: dict, csv_path) -> None:
    """Serialize a generated dataset in the ingestion CSV schema plus a JSON sidecar."""
    csv_path = Path(csv_path)
    save_dataset(data, csv_path)
    write_json(csv_path.with_suffix(csv_path.suffix + ".meta.json"), info, indent=2)
