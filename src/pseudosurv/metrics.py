"""Time-dependent evaluation of predicted survival probabilities.

Two metrics: a truncated concordance index per horizon (rank agreement
between predicted survival and observed ordering, ties scored half) and the
IPCW Brier score (squared error between survival status and prediction,
reweighted by the censoring distribution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, write_csv, write_json
from .errors import DataError, NumericError
from .estimators import StepSurvivalCurve, censoring_kaplan_meier
from .util import freeze


@dataclass(frozen=True)
class EvalReport:
    """Per-horizon concordance and Brier score with pair counts."""

    eval_times: np.ndarray
    c_index: np.ndarray
    brier: np.ndarray
    n_pairs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.eval_times, dtype=float)
        c = np.asarray(self.c_index, dtype=float)
        b = np.asarray(self.brier, dtype=float)
        k = np.asarray(self.n_pairs, dtype=int)
        if not (t.size == c.size == b.size == k.size):
            raise DataError("report columns must have equal length")
        freeze(self, eval_times=t, c_index=c, brier=b, n_pairs=k)

    def to_csv(self, path) -> None:
        columns = [self.eval_times, self.c_index, self.brier, self.n_pairs]
        write_csv(path, ["time", "c_index", "brier", "n_pairs"], columns)

    def to_json(self, path) -> None:
        payload = {
            "time": self.eval_times.tolist(),
            "c_index": [None if np.isnan(v) else v for v in self.c_index.tolist()],
            "brier": self.brier.tolist(),
            "n_pairs": self.n_pairs.tolist(),
        }
        write_json(path, payload, indent=2)


def _check_matrix(data: Dataset, predicted_survival, eval_times):
    pred = np.asarray(predicted_survival, dtype=float)
    times = np.atleast_1d(np.asarray(eval_times, dtype=float))
    if pred.ndim == 1:
        pred = pred[:, None]
    if pred.shape != (len(data), times.size):
        raise DataError(
            f"prediction matrix shape {pred.shape} does not match "
            f"(n={len(data)}, horizons={times.size})"
        )
    return pred, times


def _later_counts(later: np.ndarray, s: np.ndarray, q: np.ndarray):
    """Per query k: how many entries of ``s[:later[q[k]]]`` exceed / equal ``s[q[k]]``.

    ``later[i]`` is where the run of equal keys holding entry i starts, so the
    entries before it are those strictly ahead of i.  Inside each run the
    entries are put in increasing order of value, so an entry's predecessors
    from its own run are never greater than it; "greater" then counts, for
    every entry, the earlier entries with a greater value, by a bottom-up
    merge sort on value ranks: merging two sorted neighbouring runs moves an
    entry of the right run left by the number of greater entries of the left
    run.  The stable sort of two sorted runs is a merge, so each level is
    linear and the whole count O(n log n).  The ranks come from one sort by
    value, "equal" from one sort by (rank, position).  O(n) memory; NaN never
    compares greater or equal, as with ``>`` and ``==``.
    """
    n = s.size
    nan = np.isnan(s)
    by_value = np.argsort(s)  # NaN last
    ordered = s[by_value]
    rank = np.empty(n, dtype=np.intp)
    rank[by_value] = np.cumsum(np.concatenate(([1], ordered[1:] != ordered[:-1])))
    rank[nan] = 0  # below every value, and never equal to a query's rank
    R = int(rank.max()) + 1
    slot = np.arange(n)
    ids = np.argsort(later * R + rank, kind="stable")
    key = rank[ids]
    moved = np.zeros(n, dtype=np.intp)
    for level in range(max(n - 1, 0).bit_length()):
        merged = np.argsort((slot >> (level + 1)) * R + key, kind="stable")
        moved = moved[merged] + np.maximum(merged - slot, 0)
        key, ids = key[merged], ids[merged]
    greater = np.empty(n, dtype=np.intp)
    greater[ids] = moved
    value_then_slot = np.sort(rank * n + slot)
    first = rank[q] * n
    equal = (np.searchsorted(value_then_slot, first + later[q])
             - np.searchsorted(value_then_slot, first))
    gt = np.where(nan[q], 0, greater[q])
    eq = np.where(nan[q], 0, equal)
    return gt, eq


def c_index(data: Dataset, predicted_survival, eval_times):
    """Truncated concordance per horizon.

    At horizon t a pair (i, j) is comparable when T_i < T_j, subject i had
    the event, and T_i <= t.  The pair is concordant when i's predicted
    survival at t is lower; prediction ties earn half credit.  Returns the
    concordant fraction and the comparable-pair count per horizon; horizons
    with no comparable pairs get NaN and a zero count.

    Counting is sort-based, not a scan per event: subjects are ordered by
    decreasing time, so the subjects strictly later than an event form a
    prefix, and the concordant and tied counts in that prefix come from a
    merge count over value ranks and one sort by value.  O(n log n) time and
    O(n) memory per horizon; the counts are exact integers.
    """
    pred, times = _check_matrix(data, predicted_survival, eval_times)
    H = times.size
    values = np.full(H, np.nan)
    counts = np.zeros(H, dtype=int)
    order = np.argsort(-data.time, kind="stable")
    desc = data.time[order]
    # number of subjects with a strictly later time, per position in ``order``
    later = np.searchsorted(-desc, -desc, side="left")
    ev = data.event[order]
    for h in range(H):
        q = np.flatnonzero(ev & (desc <= times[h]) & (later > 0))
        pairs = int(later[q].sum())
        counts[h] = pairs
        if pairs:
            gt, eq = _later_counts(later, pred[order, h], q)
            values[h] = (float(gt.sum()) + 0.5 * float(eq.sum())) / pairs
    return values, counts


def brier(data: Dataset, predicted_survival, eval_times, censor_curve: StepSurvivalCurve):
    """IPCW Brier score per horizon.

    ``censor_curve`` must be the Kaplan-Meier of the censoring distribution
    fit on the evaluation data.  Subjects observed to fail by t contribute
    S_hat(t)^2 / G(T_i-); subjects still at risk contribute
    (1 - S_hat(t))^2 / G(t); subjects censored by t contribute nothing.
    """
    pred, times = _check_matrix(data, predicted_survival, eval_times)
    g_before = censor_curve.at_left(data.time)
    out = np.empty(times.size)
    for h, t in enumerate(times):
        failed = data.event & (data.time <= t)
        scored = failed | (data.time > t)
        g = np.where(failed, g_before, censor_curve.at(t))
        if np.any(g[scored] <= 0):
            raise NumericError("censoring support exhausted")
        sq_err = np.where(failed, pred[:, h], 1.0 - pred[:, h]) ** 2
        out[h] = np.divide(sq_err, g, out=np.zeros(len(data)), where=scored).mean()
    return out


def evaluate_predictions(data: Dataset, predicted_survival, eval_times) -> EvalReport:
    """Bundle both metrics into a report, with the censoring Kaplan-Meier curve of ``data``."""
    c_vals, n_pairs = c_index(data, predicted_survival, eval_times)
    b_vals = brier(data, predicted_survival, eval_times, censoring_kaplan_meier(data))
    return EvalReport(np.array(eval_times, dtype=float, ndmin=1), c_vals, b_vals, n_pairs)
