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
        object.__setattr__(self, "eval_times", t)
        object.__setattr__(self, "c_index", c)
        object.__setattr__(self, "brier", b)
        object.__setattr__(self, "n_pairs", k)

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


_BLOCK = 128


def _later_counts(later: np.ndarray, s: np.ndarray, q: np.ndarray):
    """Per query k: how many of the first ``later[k]`` entries of ``s`` exceed / equal ``s[q[k]]``.

    Offline prefix counting in blocks of ``_BLOCK``: the queries whose prefix
    ends in block b are answered by binary search in the sorted values of
    blocks 0..b-1 plus a direct comparison inside block b.  O(n log n + n^2 /
    _BLOCK) time, the quadratic term a memory move per block; O(n) memory.
    NaN never compares greater or equal, as with ``>`` and ``==``.
    """
    x = s[q]
    gt = np.zeros(q.size, dtype=np.int64)
    eq = np.zeros(q.size, dtype=np.int64)
    block = later // _BLOCK
    order = np.argsort(block, kind="stable")
    bounds = np.searchsorted(block[order], np.arange(block.max() + 2))
    prefix = np.empty(0)  # sorted non-NaN values of the blocks before b
    for b in range(bounds.size - 1):
        sel = order[bounds[b]:bounds[b + 1]]
        vals = s[b * _BLOCK:(b + 1) * _BLOCK]
        if sel.size:
            xs = x[sel]
            right = np.searchsorted(prefix, xs, side="right")
            inside = np.arange(vals.size) < (later[sel] - b * _BLOCK)[:, None]
            gt[sel] = prefix.size - right + ((vals > xs[:, None]) & inside).sum(axis=1)
            eq[sel] = (right - np.searchsorted(prefix, xs, side="left")
                       + ((vals == xs[:, None]) & inside).sum(axis=1))
        vals = np.sort(vals[~np.isnan(vals)])
        prefix = np.insert(prefix, np.searchsorted(prefix, vals), vals)
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
    prefix, and the concordant and tied counts in that prefix come from
    blocked binary searches.  O(n log n + n^2 / 128) time and O(n) memory per
    horizon; the counts are exact integers.
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
            gt, eq = _later_counts(later[q], pred[order, h], q)
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
    out = np.empty(times.size)
    for h in range(times.size):
        t = times[h]
        s = pred[:, h]
        failed = data.event & (data.time <= t)
        alive = data.time > t
        contrib = np.zeros(len(data))
        if failed.any():
            g_before = np.atleast_1d(censor_curve.at_left(data.time[failed]))
            if np.any(g_before <= 0):
                raise NumericError("censoring support exhausted")
            contrib[failed] = s[failed] ** 2 / g_before
        if alive.any():
            g_t = censor_curve.at(t)
            if g_t <= 0:
                raise NumericError("censoring support exhausted")
            contrib[alive] = (1.0 - s[alive]) ** 2 / g_t
        out[h] = contrib.mean()
    return out


def evaluate_predictions(
    data: Dataset,
    predicted_survival,
    eval_times,
    censor_curve: StepSurvivalCurve | None = None,
) -> EvalReport:
    """Bundle both metrics into a report; fits the censoring curve if absent."""
    if censor_curve is None:
        censor_curve = censoring_kaplan_meier(data)
    c_vals, n_pairs = c_index(data, predicted_survival, eval_times)
    b_vals = brier(data, predicted_survival, eval_times, censor_curve)
    return EvalReport(np.atleast_1d(np.asarray(eval_times, dtype=float)), c_vals, b_vals, n_pairs)
