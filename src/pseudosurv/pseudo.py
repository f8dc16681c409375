"""Jackknife pseudo survival probabilities and the discrete-time training table.

A pseudo value replaces an incompletely observed survival indicator with
n * S_hat - (n-1) * S_hat_without_i, turning censored data into a plain
regression response.  This module computes them marginally (from time zero)
and conditionally (per interval, on the interval's risk set), with an
IPCW-weighted variant for covariate-dependent censoring.

The leave-one-out survival estimates are computed by incremental risk-set
adjustment (prefix/suffix products over the event times), not by n separate
refits; the test suite checks them against a naive refit oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, write_csv
from .errors import DataError
from .estimators import WeightFunction, _at_risk_weights, _event_table, _ipcw_sums
from .util import distinct, freeze, quantile


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing interval cutpoints t_1 < ... < t_J.

    Interval j (0-based) is (t_j, t_{j+1}] with t_0 = 0, so a grid with J
    cutpoints defines J intervals whose starts are 0, t_1, ..., t_{J-1}.
    """

    cutpoints: np.ndarray

    def __post_init__(self):
        cuts = np.asarray(self.cutpoints, dtype=float)
        if cuts.ndim != 1 or cuts.size == 0:
            raise DataError("grid needs at least one cutpoint")
        if not np.all(cuts > 0):
            raise DataError("grid cutpoints must be positive")
        if not np.all(np.diff(cuts) > 0):
            raise DataError("grid cutpoints must be strictly increasing")
        freeze(self, cutpoints=cuts)

    @property
    def n_intervals(self) -> int:
        return self.cutpoints.size

    def interval_start(self, j: int) -> float:
        return 0.0 if j == 0 else float(self.cutpoints[j - 1])

    def interval_end(self, j: int) -> float:
        return float(self.cutpoints[j])


@dataclass(frozen=True)
class PseudoTable:
    """All pseudo conditional probabilities for a dataset on a grid.

    Rows are sorted by (subject, interval).  A subject has a row at interval
    j exactly when its observed time exceeds the interval start, so the
    per-subject intervals always form a prefix 0..k.
    """

    subject_ids: np.ndarray
    covariates: np.ndarray
    time_index: np.ndarray
    pseudo: np.ndarray
    grid: TimeGrid
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        ids = np.asarray(self.subject_ids, dtype=int)
        cov = np.asarray(self.covariates, dtype=float)
        tidx = np.asarray(self.time_index, dtype=int)
        ps = np.asarray(self.pseudo, dtype=float)
        if not (ids.size == cov.shape[0] == tidx.size == ps.size):
            raise DataError("pseudo table columns must have equal length")
        if ids.size and (tidx.min() < 0 or tidx.max() >= self.grid.n_intervals):
            raise DataError("time_index out of range for grid")
        if not np.all(np.isfinite(ps)):
            raise DataError("pseudo values must be finite")
        freeze(self, subject_ids=ids, covariates=cov, time_index=tidx, pseudo=ps,
               covariate_names=tuple(self.covariate_names))

    def __len__(self) -> int:
        return self.pseudo.size

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_intervals(self) -> int:
        return self.grid.n_intervals

    @property
    def time_indicators(self) -> np.ndarray:
        """One-hot (n_rows, J) matrix marking each row's interval start."""
        return np.eye(self.n_intervals)[self.time_index]

    def subjects(self) -> np.ndarray:
        return distinct(self.subject_ids)

    def subset_subjects(self, keep) -> "PseudoTable":
        mask = np.isin(self.subject_ids, np.asarray(keep))
        return PseudoTable(
            self.subject_ids[mask],
            self.covariates[mask],
            self.time_index[mask],
            self.pseudo[mask],
            self.grid,
            self.covariate_names,
        )

    def to_csv(self, path) -> None:
        """Write rows as ``id, z_1..z_p, d_0..d_{J-1}, pseudo`` (see :func:`write_csv`).

        A subject's rows repeat its covariates, so each run of rows with the
        same covariate bits is formatted once and its text gathered by row.
        """
        J = self.n_intervals
        covariates = [f"z_{k + 1}" for k in range(self.p)]
        header = ["id", *covariates, *(f"d_{j}" for j in range(J)), "pseudo"]
        onehot = [",".join("1" if k == j else "0" for k in range(J)) for j in range(J)]
        cells = [self.subject_ids]
        if self.p:
            bits = np.ascontiguousarray(self.covariates).view(np.uint64)
            new_run = np.ones(len(self), dtype=bool)
            new_run[1:] = (bits[1:] != bits[:-1]).any(axis=1)
            text = [",".join(row) for row in zip(*(
                [format(v, ".6g") for v in col.tolist()] for col in self.covariates[new_run].T
            ))]
            cells.append([text[i] for i in (np.cumsum(new_run) - 1).tolist()])
        onehot_cells = [onehot[j] for j in self.time_index.tolist()]
        write_csv(path, header, [*cells, onehot_cells, self.pseudo])


def make_grid(
    data: Dataset,
    percentiles: Sequence[float] | None = None,
    times: Sequence[float] | None = None,
) -> TimeGrid:
    """Build a grid from empirical quantiles of the observed times, or explicitly.

    Quantiles are taken over all observed times, censored and uncensored
    pooled.  Duplicate quantile values are collapsed.  The last cutpoint must
    stay strictly below the maximum follow-up time so the final interval
    retains a usable risk set.
    """
    if (percentiles is None) == (times is None):
        raise DataError("specify exactly one of percentiles or times")
    if percentiles is not None:
        q = np.asarray(percentiles, dtype=float)
        if q.size == 0 or not (np.all((q > 0) & (q < 1)) and np.all(np.diff(q) > 0)):
            raise DataError("quantile levels must be strictly increasing in (0, 1)")
        cuts = distinct(quantile(np.sort(data.time), q))
    else:
        cuts = np.asarray(times, dtype=float)
    if cuts.size and cuts[-1] >= data.time.max():
        raise DataError("last cutpoint must be strictly below the maximum follow-up time")
    return TimeGrid(cuts)


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


def _loo_pseudo(times, events, horizon, weights=None, rows=None, time_offset=0.0):
    """Pseudo values for one sample at one horizon; shared by all entry points.

    ``times`` may be residual times; ``time_offset`` is then the interval
    start, so the weight function is always evaluated at absolute time.
    ``rows`` are the weight rows of this sample's subjects (default: all).
    """
    m = times.size
    if weights is None:
        s_full, s_loo, exact = _km_loo(times, events, horizon)
        if exact:
            return (times > horizon).astype(float), s_full, s_loo
        return m * s_full - (m - 1) * s_loo, s_full, s_loo
    u = distinct(times[events])
    u = u[u <= horizon]
    if rows is None:
        rows = np.arange(m)
    s_full, s_loo = _ipcw_loo(times, events, u, weights, rows, time_offset)
    return m * s_full - (m - 1) * s_loo, s_full, s_loo


def pseudo_marginal(data: Dataset, t: float, weights: WeightFunction | None = None) -> np.ndarray:
    """Jackknife pseudo survival probabilities at time ``t``, one per subject.

    With ``weights`` the Kaplan-Meier estimate is replaced by the IPCW
    survival estimate (and its leave-one-out versions), correcting for
    covariate-dependent censoring.
    """
    if len(data) < 2:
        raise DataError("pseudo values need at least two subjects")
    if not t > 0:
        raise DataError("time point must be positive")
    if weights is not None and weights.n_subjects != len(data):
        raise DataError("weight function does not match dataset size")
    values, _, _ = _loo_pseudo(data.time, data.event, t, weights)
    return values


def pseudo_conditional(
    data: Dataset, grid: TimeGrid, weights: WeightFunction | None = None
) -> PseudoTable:
    """Pseudo conditional survival probabilities for every interval of ``grid``.

    For interval (t_j, t_{j+1}] the risk set is every subject with observed
    time strictly greater than t_j; each contributes its remaining time
    T_i - t_j with its original indicator, and the leave-one-out estimator is
    evaluated at the residual horizon t_{j+1} - t_j.  With ``weights`` the
    IPCW survival estimator replaces Kaplan-Meier; the single weight function
    is reused at every interval, evaluated at absolute time.
    """
    if grid.cutpoints[-1] >= data.time.max():
        raise DataError("last cutpoint must be strictly below the maximum follow-up time")
    if weights is not None and weights.n_subjects != len(data):
        raise DataError("weight function does not match dataset size")

    ids_parts, tidx_parts, pseudo_parts = [], [], []
    for j in range(grid.n_intervals):
        start = grid.interval_start(j)
        horizon = grid.interval_end(j) - start
        at_risk = data.time > start
        r_j = int(at_risk.sum())
        if r_j < 2:
            raise DataError("interval too late: risk set < 2")
        res_t = data.time[at_risk] - start
        res_e = data.event[at_risk]
        if not np.any(res_e & (res_t <= horizon)):
            warnings.warn(
                f"interval {j} ({start:g}, {start + horizon:g}] contains no events; "
                "its pseudo values are all 1",
                stacklevel=2,
            )
        ids = np.flatnonzero(at_risk)
        values, _, _ = _loo_pseudo(res_t, res_e, horizon, weights, rows=ids, time_offset=start)
        ids_parts.append(ids)
        tidx_parts.append(np.full(r_j, j))
        pseudo_parts.append(values)

    ids = np.concatenate(ids_parts)
    tidx = np.concatenate(tidx_parts)
    pseudo = np.concatenate(pseudo_parts)
    order = np.lexsort((tidx, ids))
    return PseudoTable(
        ids[order],
        data.covariates[ids[order]],
        tidx[order],
        pseudo[order],
        grid,
        data.covariate_names,
    )
