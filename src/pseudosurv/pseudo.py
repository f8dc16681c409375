"""Jackknife pseudo survival probabilities and the discrete-time training table.

A pseudo value replaces an incompletely observed survival indicator with
n * S_hat - (n-1) * S_hat_without_i, turning censored data into a plain
regression response.  This module computes them marginally (from time zero)
and conditionally (per interval, on the interval's risk set), with an
IPCW-weighted variant for covariate-dependent censoring.

The leave-one-out survival estimates come from ``estimators`` (``_km_loo``
and ``_ipcw_loo``), by incremental risk-set adjustment, not by n separate
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
from .estimators import WeightFunction, _ipcw_loo, _km_loo
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
        if not np.all((cuts > 0) & (cuts < np.inf)):
            raise DataError("grid cutpoints must be positive and finite")
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

    Row k is subject ``subject_ids[k]`` of ``data`` in interval
    ``time_index[k]``; the covariates stay in ``data``, one row per subject.
    :func:`pseudo_conditional` sorts the rows by (subject, interval), and a
    subject has a row at interval j exactly when its observed time exceeds
    the interval start, so the per-subject intervals form a prefix 0..k.
    """

    data: Dataset
    subject_ids: np.ndarray
    time_index: np.ndarray
    pseudo: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        ids = np.asarray(self.subject_ids, dtype=int)
        tidx = np.asarray(self.time_index, dtype=int)
        ps = np.asarray(self.pseudo, dtype=float)
        if not (ids.size == tidx.size == ps.size):
            raise DataError("pseudo table columns must have equal length")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.data)):
            raise DataError(f"subject_ids out of range for a dataset of {len(self.data)}")
        if ids.size and (tidx.min() < 0 or tidx.max() >= self.grid.n_intervals):
            raise DataError("time_index out of range for grid")
        if not np.all(np.isfinite(ps)):
            raise DataError("pseudo values must be finite")
        freeze(self, subject_ids=ids, time_index=tidx, pseudo=ps)

    def __len__(self) -> int:
        return self.pseudo.size

    @property
    def p(self) -> int:
        return self.data.p

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
        return PseudoTable(self.data, self.subject_ids[mask], self.time_index[mask],
                           self.pseudo[mask], self.grid)

    def to_csv(self, path) -> None:
        """Write rows as ``id, z_1..z_p, d_0..d_{J-1}, pseudo`` (see :func:`write_csv`).

        Each subject's covariates are formatted once and their text gathered by row.
        """
        J = self.n_intervals
        covariates = [f"z_{k + 1}" for k in range(self.p)]
        header = ["id", *covariates, *(f"d_{j}" for j in range(J)), "pseudo"]
        onehot = [",".join("1" if k == j else "0" for k in range(J)) for j in range(J)]
        cells = [self.subject_ids]
        if self.p:
            ids = self.subjects()
            text = [",".join(row) for row in zip(*(
                [format(v, ".6g") for v in col.tolist()] for col in self.data.covariates[ids].T
            ))]
            cells.append([text[k] for k in np.searchsorted(ids, self.subject_ids).tolist()])
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


def _loo_pseudo(times, events, horizon, weights=None, rows=None, time_offset=0.0):
    """Pseudo values for one sample at one horizon; shared by all entry points.

    ``times`` may be residual times; ``time_offset`` is then the interval
    start, so the weight function is always evaluated at absolute time.
    ``rows`` are the weight rows of this sample's subjects (default: all).
    """
    m = times.size
    if weights is None:
        s_full, s_loo, exact = _km_loo(times, events, horizon)
    else:
        u = distinct(times[events])
        rows = np.arange(m) if rows is None else rows
        s_full, s_loo = _ipcw_loo(times, events, u[u <= horizon], weights, rows, time_offset)
        exact = False
    if exact:
        return (times > horizon).astype(float)
    return m * s_full - (m - 1) * s_loo


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
    return _loo_pseudo(data.time, data.event, t, weights)


def pseudo_conditional(
    data: Dataset, grid: TimeGrid, weights: WeightFunction | None = None
) -> PseudoTable:
    """Pseudo conditional survival probabilities for every interval of ``grid``.

    For interval (t_j, t_{j+1}] the risk set is every subject with observed
    time strictly greater than t_j; each contributes its remaining time
    T_i - t_j with its original indicator, and the leave-one-out estimator is
    evaluated at the residual horizon t_{j+1} - t_j.  With ``weights`` the
    IPCW survival estimator replaces Kaplan-Meier; the single weight function
    is reused at every interval, evaluated at absolute time.  The table's
    rows run by subject, then interval: subject i has one row for each
    interval start below T_i, and each interval's values go straight to
    their rows.
    """
    if grid.cutpoints[-1] >= data.time.max():
        raise DataError("last cutpoint must be strictly below the maximum follow-up time")
    if weights is not None and weights.n_subjects != len(data):
        raise DataError("weight function does not match dataset size")

    starts = np.concatenate(([0.0], grid.cutpoints[:-1]))
    counts = np.searchsorted(starts, data.time, side="left")  # intervals that start before T_i
    first = np.cumsum(counts) - counts  # each subject's first row
    ids = np.repeat(np.arange(len(data)), counts)
    pseudo = np.empty(ids.size)
    for j, start in enumerate(starts.tolist()):
        horizon = grid.interval_end(j) - start
        at_risk = data.time > start
        if np.count_nonzero(at_risk) < 2:
            raise DataError("interval too late: risk set < 2")
        res_t = data.time[at_risk] - start
        res_e = data.event[at_risk]
        if not np.any(res_e & (res_t <= horizon)):
            warnings.warn(
                f"interval {j} ({start:g}, {start + horizon:g}] contains no events; "
                "its pseudo values are all 1",
                stacklevel=2,
            )
        pseudo[first[at_risk] + j] = _loo_pseudo(res_t, res_e, horizon, weights,
                                                 rows=np.flatnonzero(at_risk), time_offset=start)
    return PseudoTable(data, ids, np.arange(ids.size) - np.repeat(first, counts), pseudo, grid)
