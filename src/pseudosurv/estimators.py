"""Nonparametric survival estimation primitives.

Everything here is expressed over one right-continuous step-function
representation: a curve is its jump locations plus the value that holds from
each jump onward, with a single initial value before the first jump.
Evaluation is a binary search, so curves stay cheap no matter how dense the
time axis is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError


@dataclass(frozen=True)
class StepSurvivalCurve:
    """Right-continuous step function used for survival and hazard estimates.

    ``values[k]`` holds on [times[k], times[k+1]); ``initial_value`` holds on
    [0, times[0]).  Survival curves start at 1 and fall; cumulative hazards
    start at 0 and rise.
    """

    times: np.ndarray
    values: np.ndarray
    initial_value: float = 1.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise DataError("curve times and values must be 1-d and equal length")
        if times.size and np.any(np.diff(times) <= 0):
            raise DataError("curve times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "initial_value", float(self.initial_value))

    def _eval(self, t, side: str):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise DataError("evaluation time must be nonnegative")
        idx = np.searchsorted(self.times, t_arr, side=side) - 1
        if self.times.size:
            out = np.where(idx < 0, self.initial_value, self.values[np.maximum(idx, 0)])
        else:
            out = np.full_like(t_arr, self.initial_value, dtype=float)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def at(self, t):
        """Right-continuous evaluation: value of the latest jump at or before t."""
        return self._eval(t, side="right")

    def at_left(self, t):
        """Left limit: value just before t (jumps at t excluded)."""
        return self._eval(t, side="left")


def _event_table(time: np.ndarray, event: np.ndarray):
    """Distinct event times with death counts and at-risk counts.

    Ties are handled with the standard convention: subjects censored at an
    event time are still in the risk set for that time.
    """
    sorted_times = np.sort(time)
    u, d = np.unique(time[event], return_counts=True)
    n_at_risk = time.size - np.searchsorted(sorted_times, u, side="left")
    return u, d, n_at_risk


def kaplan_meier(data: Dataset) -> StepSurvivalCurve:
    """Product-limit estimate of S(t) = P(T > t).

    With no events the curve is flat at 1.  The jump at a tied time counts
    deaths against a risk set that still contains same-time censorings.

    Consecutive factors telescope wherever no censoring intervenes, so the
    product is accumulated per censoring-free run: on fully uncensored data
    every value is a single division, survivors / n, hence exactly the
    empirical survival function.
    """
    if len(data) == 0:
        raise DataError("empty dataset")
    u, d, n = _event_table(data.time, data.event)
    if u.size == 0:
        return StepSurvivalCurve(u, d.astype(float), 1.0)
    survivors = n - d
    # a run breaks where censorings shrink the risk set between event times
    breaks = np.empty(u.size, dtype=bool)
    breaks[0] = True
    breaks[1:] = n[1:] != survivors[:-1]
    run_id = np.cumsum(breaks) - 1
    run_start = n[breaks]
    run_end_ratio = survivors[np.concatenate((breaks[1:], [True]))] / run_start
    base = np.concatenate(([1.0], np.cumprod(run_end_ratio)[:-1]))
    values = base[run_id] * (survivors / run_start[run_id])
    return StepSurvivalCurve(u, values, 1.0)


def censoring_kaplan_meier(data: Dataset) -> StepSurvivalCurve:
    """Kaplan-Meier estimate of the censoring distribution (flipped indicator)."""
    flipped = Dataset(data.time, ~data.event, data.covariates, data.covariate_names)
    return kaplan_meier(flipped)


# subjects per block when IPCW sums are accumulated over a sample
_CHUNK = 1024


@dataclass(frozen=True)
class WeightFunction:
    """Per-subject inverse-probability-of-censoring weights from a Cox censoring model.

    Stores the factors of the censoring survival curves, not the curves:
    G(t | Z_i) = max(exp(-risk_i * Lambda_0(t)), tiny), where the baseline
    cumulative hazard Lambda_0 jumps to ``cumhaz[k]`` at ``times[k]`` and is 0
    before the first jump, ``risk`` holds the per-subject relative risks, and
    tiny is the smallest positive float (extreme risk scores underflow exp).
    The weight of subject i at time u is min(1 / G(u- | Z_i), cap): the left
    limit of the censoring survival curve, capped to keep the variance finite
    deep in the censoring tail.

    Memory is O(n + K) for n subjects and K jumps.  A (subjects x times) block
    exists only when ``weights_at`` is asked for one; callers that need many
    times for many subjects evaluate ``subset`` blocks of subjects in turn.
    """

    times: np.ndarray
    cumhaz: np.ndarray
    risk: np.ndarray
    cap: float = 20.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        cumhaz = np.asarray(self.cumhaz, dtype=float)
        risk = np.asarray(self.risk, dtype=float)
        if times.ndim != 1 or cumhaz.shape != times.shape or risk.ndim != 1:
            raise DataError("weight times and cumhaz must be 1-d and equal length, risk 1-d")
        if times.size and np.any(np.diff(times) <= 0):
            raise DataError("weight times must be strictly increasing")
        if not (np.all(np.isfinite(cumhaz)) and np.all(cumhaz >= 0)):
            raise DataError("baseline cumulative hazard must be finite and nonnegative")
        if not (np.all(np.isfinite(risk)) and np.all(risk >= 0)):
            raise DataError("relative risks must be finite and nonnegative")
        if self.cap <= 0:
            raise DataError("weight cap must be positive")
        for arr in (times, cumhaz, risk):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "cumhaz", cumhaz)
        object.__setattr__(self, "risk", risk)
        object.__setattr__(self, "cap", float(self.cap))

    @property
    def n_subjects(self) -> int:
        return self.risk.size

    def _survival(self, lam: np.ndarray) -> np.ndarray:
        """max(exp(-risk_i * lam_k), tiny) as a fresh (n, len(lam)) array."""
        g = np.outer(self.risk, lam)
        np.negative(g, out=g)
        np.exp(g, out=g)
        return np.maximum(g, np.finfo(float).tiny, out=g)

    @property
    def surv_values(self) -> np.ndarray:
        """The dense (n_subjects, len(times)) matrix of G(times[k] | Z_i).

        Built on every access, O(n * K) memory; the library never uses it.
        """
        g = self._survival(self.cumhaz)
        g.setflags(write=False)
        return g

    def survival_at_left(self, u) -> np.ndarray:
        """G(u- | Z_i) for every subject: shape (n,) or (n, len(u))."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        idx = np.searchsorted(self.times, u_arr, side="left")
        # Lambda_0 is 0 before the first jump, so G(u-) is exactly 1 there
        g = self._survival(np.concatenate(([0.0], self.cumhaz))[idx])
        return g[:, 0] if np.isscalar(u) or np.asarray(u).ndim == 0 else g

    def weights_at(self, u) -> np.ndarray:
        """Capped IPCW weights min(1/G(u-), cap) for every subject at ``u``.

        Only the requested columns are computed: O(n * len(u)) time and memory.
        """
        g = self.survival_at_left(u)
        np.divide(1.0, g, out=g)
        return np.minimum(g, self.cap, out=g)

    def subset(self, indices) -> "WeightFunction":
        return WeightFunction(self.times, self.cumhaz, self.risk[indices], self.cap)

    @classmethod
    def constant(cls, weights, cap: float | None = None) -> "WeightFunction":
        """Weights that are constant in time, one value >= 1 per subject.

        The degenerate Cox factorisation: one jump of size 1 at time 0 and
        risk log(w), so G = exp(-log w) = 1/w after time 0.
        """
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if np.any(w < 1.0):
            raise DataError("constant weights must be >= 1 (they are 1/G with G <= 1)")
        if cap is None:
            cap = max(20.0, float(w.max()))
        return cls(np.array([0.0]), np.array([1.0]), np.log(w), cap)


def _blocks(m: int) -> list[slice]:
    """Consecutive slices of at most ``_CHUNK`` subjects covering range(m)."""
    return [slice(lo, lo + _CHUNK) for lo in range(0, m, _CHUNK)]


def _ipcw_sums(times, events, u, weights: WeightFunction, rows, offset: float = 0.0):
    """Weighted event sums A and at-risk sums B at the sorted event times ``u``.

    ``u`` must hold every distinct event time of the sample up to ``u[-1]``.
    Subject k of the sample (``times[k]``, ``events[k]``) takes weight row
    ``rows[k]`` of ``weights``, evaluated at ``u + offset``.  A[j] adds the
    weights of the events at u[j], B[j] those of the subjects with time >= u[j].
    Subjects are processed in blocks of ``_CHUNK``, so memory is
    O(_CHUNK * len(u) + n); both sums still add the subjects one by one in
    sample order, as a single block would.  Returns (A, B, w) where ``w`` is
    the sample's weight block when it fits in one block, else None.
    """
    K = u.size
    col = np.searchsorted(u, times, side="left")
    hit = events & (col < K)
    B = np.zeros(K)
    event_w = []
    blocks = _blocks(times.size)
    for sl in blocks:
        w = weights.subset(rows[sl]).weights_at(u + offset)
        ev = np.flatnonzero(hit[sl])
        event_w.append(w[ev, col[sl][ev]])
        # the running total heads the block so the column sum keeps sample order
        block = np.empty((w.shape[0] + 1, K))
        block[0] = B
        np.multiply(w, times[sl, None] >= u, out=block[1:])
        B = block.sum(axis=0)
    A = np.bincount(col[hit], weights=np.concatenate(event_w), minlength=K)
    return A, B, (w if len(blocks) == 1 else None)


def nelson_aalen_weighted(data: Dataset, weights: WeightFunction) -> StepSurvivalCurve:
    """IPCW-weighted Nelson-Aalen cumulative hazard.

    Each jump is (sum of weights of events at u) / (weighted at-risk total at
    u).  With all weights equal the weights cancel and the plain Nelson-Aalen
    estimator comes back.  The sums run over blocks of subjects, so memory is
    linear in the number of subjects.
    """
    if len(data) == 0:
        raise DataError("empty dataset")
    if weights.n_subjects != len(data):
        raise DataError("weight function does not match dataset size")
    u = np.unique(data.time[data.event])
    if u.size == 0:
        return StepSurvivalCurve(u, np.empty(0), 0.0)
    num, den, _ = _ipcw_sums(data.time, data.event, u, weights, np.arange(len(data)))
    return StepSurvivalCurve(u, np.cumsum(num / den), 0.0)


def ipcw_survival(data: Dataset, weights: WeightFunction) -> StepSurvivalCurve:
    """IPCW survival estimate exp(-weighted cumulative hazard)."""
    cumhaz = nelson_aalen_weighted(data, weights)
    return StepSurvivalCurve(cumhaz.times, np.exp(-cumhaz.values), 1.0)
