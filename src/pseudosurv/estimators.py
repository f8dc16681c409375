"""Nonparametric survival estimation primitives and their leave-one-out values.

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
from .util import _BLOCK_CELLS, distinct, freeze


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
        if not np.all(np.diff(times) > 0):
            raise DataError("curve times must be strictly increasing")
        freeze(self, times=times, values=values, initial_value=float(self.initial_value))

    def _eval(self, t, side: str):
        t_arr = np.asarray(t, dtype=float)
        if not np.all(t_arr >= 0):
            raise DataError("evaluation time must be nonnegative")
        idx = np.searchsorted(self.times, t_arr, side=side)
        out = np.concatenate(([self.initial_value], self.values))[idx]
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


def _km_loo(times: np.ndarray, events: np.ndarray, horizon: float):
    """Kaplan-Meier at ``horizon`` plus all leave-one-out values.

    Returns (s_full, s_loo, exact_binary).  When no subject is censored at or
    before the horizon the product-limit estimator telescopes to counting
    survivors, the jackknife collapses to the survival indicator exactly, and
    the flag is set so callers can emit exact 0/1 pseudo values.
    """
    m = times.size
    if not np.any(~events & (times <= horizon)):
        above = times > horizon
        c = int(above.sum())
        s_full = c / m
        s_loo = (c - above) / (m - 1)
        return s_full, s_loo, True

    u, d, nrisk = _event_table(times, events)
    mstar = int(np.searchsorted(u, horizon, side="right"))
    p = 1.0 - d / nrisk
    safe = nrisk > 1
    q = np.where(safe, 1.0 - d / np.maximum(nrisk - 1, 1), 1.0)
    e = np.where(safe, 1.0 - (d - 1) / np.maximum(nrisk - 1, 1), 1.0)

    qprod = np.concatenate(([1.0], np.cumprod(q[:mstar])))
    pprod_full = float(np.prod(p[:mstar]))
    tail = np.ones(mstar + 1)
    tail[:mstar] = np.cumprod(p[:mstar][::-1])[::-1]

    a = np.searchsorted(u, times, side="right")  # event times <= T_i
    b = np.minimum(a, mstar)
    s_loo = qprod[b] * tail[b]
    own_event = events & (a >= 1) & (a <= mstar)
    ai = a[own_event]
    s_loo[own_event] = qprod[ai - 1] * e[ai - 1] * tail[ai]
    return pprod_full, s_loo, False


def censoring_kaplan_meier(data: Dataset) -> StepSurvivalCurve:
    """Kaplan-Meier estimate of the censoring distribution (flipped indicator)."""
    flipped = Dataset(data.time, ~data.event, data.covariates, data.covariate_names)
    return kaplan_meier(flipped)


# subjects per block of a one-column sample
_SUM_GROUP = 1024
_TINY = np.finfo(float).tiny


def _survival_into(out, risk, lam):
    """max(exp(-risk_i * lam_k), tiny) into ``out``, a (len(risk), len(lam)) array.

    The exponent is one product, -lam scaled in place by each risk.  The floor
    is applied only when the largest exponent can reach it: exp(-x) is a
    normal float for x <= 700.
    """
    np.negative(lam, out=out)
    np.multiply(out, risk[:, None], out=out)
    np.exp(out, out=out)
    if risk.max(initial=0.0) * lam.max(initial=0.0) > 700.0:
        np.maximum(out, _TINY, out=out)
    return out


def _weights_into(out, risk, lam, cap):
    """min(1 / G, cap) into ``out``, with G from :func:`_survival_into`.

    The cap is applied only when the largest exponent x can reach it:
    1 / exp(-x) stays below the cap for x < log(cap) - 1e-9.
    """
    np.divide(1.0, _survival_into(out, risk, lam), out=out)
    if risk.max(initial=0.0) * lam.max(initial=0.0) >= np.log(cap) - 1e-9:
        np.minimum(out, cap, out=out)
    return out


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

    Memory is O(n + K) for n subjects and K jumps.  A (subjects x times) array
    exists only when ``weights_at`` asks for one (product, exp, reciprocal) or
    ``surv_values`` is read (product, exp), plus the floor or the cap where they
    can bind; the IPCW sums evaluate the formula a block of about 1 MiB at a time.
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
        if not np.all(np.diff(times) > 0):
            raise DataError("weight times must be strictly increasing")
        if not (np.all(np.isfinite(cumhaz)) and np.all(cumhaz >= 0)):
            raise DataError("baseline cumulative hazard must be finite and nonnegative")
        if not (np.all(np.isfinite(risk)) and np.all(risk >= 0)):
            raise DataError("relative risks must be finite and nonnegative")
        if not self.cap > 0:
            raise DataError("weight cap must be positive")
        freeze(self, times=times, cumhaz=cumhaz, risk=risk, cap=float(self.cap))

    @property
    def n_subjects(self) -> int:
        return self.risk.size

    @property
    def surv_values(self) -> np.ndarray:
        """The dense (n_subjects, len(times)) matrix of G(times[k] | Z_i).

        Built on every access, O(n * K) memory; the library never uses it.
        """
        g = _survival_into(np.empty((self.risk.size, self.times.size)), self.risk, self.cumhaz)
        g.setflags(write=False)
        return g

    def _cumhaz_left(self, u) -> np.ndarray:
        """Lambda_0(u-) at each of the flattened times ``u`` (0 before the first jump)."""
        idx = np.searchsorted(self.times, np.ravel(np.asarray(u, dtype=float)), side="left")
        return np.concatenate(([0.0], self.cumhaz))[idx]

    def weights_at(self, u) -> np.ndarray:
        """Capped IPCW weights min(1/G(u-), cap) for every subject at ``u``.

        Only the requested columns are computed: O(n * len(u)) time and memory.
        """
        lam = self._cumhaz_left(u)
        w = _weights_into(np.empty((self.risk.size, lam.size)), self.risk, lam, self.cap)
        return w[:, 0] if np.ndim(u) == 0 else w

    def subset(self, indices) -> "WeightFunction":
        return WeightFunction(self.times, self.cumhaz, self.risk[indices], self.cap)


def _at_risk_weights(times, u, weights: WeightFunction, rows, offset: float):
    """Blocks of the sample's weights at ``u + offset`` times its at-risk indicators.

    Yields (sl, buf, w): w[i, k] is the weight of subject ``sl.start + i``
    (weight row ``rows[sl.start + i]``) if its time is >= u[k], else 0.  Every block
    is written into the one buffer ``buf`` as ``buf[1:len(w) + 1]``; the
    head row ``buf[0]`` is left free for a running column total.  A block
    holds about ``_BLOCK_CELLS`` cells; one column or none comes in blocks
    of ``_SUM_GROUP`` subjects instead.  Only the rows of subjects that leave
    the risk set before ``u[-1]`` have a suffix to zero; every other row is
    all at risk.
    """
    m, K = times.size, u.size
    sample = weights.subset(rows)  # validates the sample's relative risks once
    lam = sample._cumhaz_left(u + offset)
    # numpy sums one column pairwise, so its block length sets the bits of the column sum
    step = _SUM_GROUP if K <= 1 else max(1, _BLOCK_CELLS // K)
    buf = np.empty((min(step, m) + 1, K))
    reach = np.searchsorted(u, times, side="right")  # event times at or before each time
    for lo in range(0, m, step):
        sl = slice(lo, min(lo + step, m))
        w = _weights_into(buf[1 : sl.stop - lo + 1], sample.risk[sl], lam, sample.cap)
        for i in np.flatnonzero(reach[sl] < K).tolist():
            w[i, reach[lo + i]:] = 0.0
        yield sl, buf, w


def _ipcw_sums(times, events, u, weights: WeightFunction, rows, offset: float = 0.0):
    """Weighted event sums A and at-risk sums B at the sorted event times ``u``.

    ``u`` must hold every distinct event time of the sample up to ``u[-1]``.
    Subject k of the sample (``times[k]``, ``events[k]``) takes weight row
    ``rows[k]`` of ``weights``, evaluated at ``u + offset``.  A[j] adds the
    weights of the events at u[j], B[j] those of the subjects with time >= u[j].
    The weights come in blocks of about ``_BLOCK_CELLS`` cells (1 MiB, inside
    a per-core L2 cache), so memory is O(n + len(u)) beyond one block, and
    each weight costs about four passes: product, exp, reciprocal and the
    column sum.  B adds the subjects one by one in sample order whatever the
    block size; one column (K == 1) numpy sums pairwise, over each block of
    ``_SUM_GROUP`` subjects behind the running total.
    """
    K = u.size
    col = np.searchsorted(u, times, side="left")
    hit = events & (col < K)
    B = np.zeros(K)
    event_w = []
    for sl, buf, w in _at_risk_weights(times, u, weights, rows, offset):
        ev = np.flatnonzero(hit[sl])
        event_w.append(w[ev, col[sl][ev]])
        # the running total heads the block so the column sum keeps sample order
        buf[0] = B
        B = buf[: len(w) + 1].sum(axis=0)
    A = np.bincount(col[hit], weights=np.concatenate(event_w), minlength=K)
    return A, B


def _ipcw_loo(times, events, u, weights, rows, time_offset):
    """IPCW survival exp(-weighted hazard) at the horizon plus leave-one-out values.

    ``u`` are the distinct event times at or before the horizon; subject k
    takes weight row ``rows[k]``, evaluated at ``u + time_offset``.  Removing
    a subject drops its weight from both the event sum and the at-risk sum of
    every term; a term whose risk set empties contributes nothing.  A first
    pass accumulates the sums, a second computes the weights again and each
    subject's leave-one-out terms, both over the same blocks of about 1 MiB
    of weights: memory O(n + len(u)) beyond one block.  Per weight the second
    pass adds a subtraction, a division and the row sum.
    """
    A, B = _ipcw_sums(times, events, u, weights, rows, time_offset)
    s_full = float(np.exp(-(A / B).sum()))
    m, K = times.size, u.size
    col = np.searchsorted(u, times, side="left")
    own = events & (col < K)
    # B[k] minus one at-risk weight can be 0 only at the event times after the
    # second-largest time, where the risk set holds one subject: every weight is
    # in [min(1, cap), cap], and with cap <= 2**50 no weight absorbs another in a
    # sum.  Only the columns from ``safe`` on take the guarded divide.
    safe = 0 if weights.cap > 2.0**50 else int(
        np.searchsorted(u, np.partition(times, m - 2)[m - 2], side="right"))
    s_loo = np.empty(m)
    for sl, _, wb in _at_risk_weights(times, u, weights, rows, time_offset):
        ev = np.flatnonzero(own[sl])
        ev_col = col[sl][ev]
        ev_w = wb[ev, ev_col]
        # in place: the at-risk weights become the leave-one-out at-risk sums, then the terms
        np.subtract(B, wb, out=wb)
        ev_den = wb[ev, ev_col]
        np.divide(A[:safe], wb[:, :safe], out=wb[:, :safe])
        tail = wb[:, safe:]
        pos = tail > 0
        np.divide(A[safe:], tail, out=tail, where=pos)
        np.copyto(tail, 0.0, where=~pos)
        ok = ev_den > 0
        wb[ev[ok], ev_col[ok]] = (A[ev_col[ok]] - ev_w[ok]) / ev_den[ok]
        s_loo[sl] = np.exp(-wb.sum(axis=1))
    return s_full, s_loo


def nelson_aalen_weighted(data: Dataset, weights: WeightFunction) -> StepSurvivalCurve:
    """IPCW-weighted Nelson-Aalen cumulative hazard.

    Each jump is (sum of weights of events at u) / (weighted at-risk total at
    u).  With all weights equal the weights cancel and the plain Nelson-Aalen
    estimator comes back.  The sums run over blocks of subjects, so memory is
    linear in the number of subjects.
    """
    if weights.n_subjects != len(data):
        raise DataError("weight function does not match dataset size")
    u = distinct(data.time[data.event])
    num, den = _ipcw_sums(data.time, data.event, u, weights, np.arange(len(data)))
    return StepSurvivalCurve(u, np.cumsum(num / den), 0.0)


def ipcw_survival(data: Dataset, weights: WeightFunction) -> StepSurvivalCurve:
    """IPCW survival estimate exp(-weighted cumulative hazard)."""
    cumhaz = nelson_aalen_weighted(data, weights)
    return StepSurvivalCurve(cumhaz.times, np.exp(-cumhaz.values), 1.0)
