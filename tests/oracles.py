"""Reference implementations that the fast library paths are tested against.

``train`` and ``_loss_and_grads`` are the training step as it was before it
ran on preallocated buffers, and ``train`` builds its design matrix with one
``np.hstack`` as before the matrix was written in place: the straightforward
allocating form, kept as a byte oracle, since the buffered step must produce
the same floats in the same order.  ``buffered_loss_and_grads`` runs the buffered step's kernel on a fresh
workspace and returns copies, so finite-difference checks can call the
library's own gradient on plain arrays.  ``inference_forward`` is the
inference pass as it was before it activated each hidden layer in place: a
fresh array for ``h @ W`` and another for ``+ b``, kept as a byte oracle for
predictions.  ``pseudo_marginal_naive`` refits the
estimator once per subject and ``nelson_aalen`` is the unweighted cumulative
hazard.  ``constant_weights`` builds a ``WeightFunction`` whose weights are
constant in time, one value per subject.

``load_dataset``, ``save_dataset``, ``load_predictions``, ``write_predictions``
and ``calibrate_censoring`` are the CSV reader and writers and the censoring
calibration as they were before they worked on whole columns and stopped the
bisection early: the row-by-row form, kept as a byte oracle for files,
arrays, error messages and rates.

``weights_at``, ``_ipcw_sums`` and ``_ipcw_loo`` are the IPCW kernel as it
was before it ran in cell-sized blocks: 1 024-subject blocks, the indicator
multiplied into every row and a guarded divide on every entry, kept as a
byte oracle for weights, sums and pseudo values.  ``pseudo_table_to_csv`` is
the pseudo-value table writer that formatted every row's covariates.

``pseudo_conditional`` is the pseudo-value table as it was built before its
rows were written in place: one part per interval, concatenated, sorted by
``np.lexsort`` and its covariates gathered row by row, kept as a byte oracle
for the table's columns.

``gen_friedman_aft`` is the nonlinear AFT generator as it was before it drew
its calibration covariates a block at a time: the whole calibration matrix in
one draw, kept as a byte oracle for datasets and their metadata.

``brier`` is the IPCW Brier score as it was before it looked up G(T_i-) once
per subject: a lookup per horizon for the failed subjects only, each group
filled in behind its own support check, kept as a byte oracle for scores and
``NumericError``.

``partial_loglik`` is the Cox partial likelihood as it was before it summed
the p x p risk-set aggregate and the Hessian by blocks of rows: the whole
n x p x p array of r x x' and its reverse running sum, kept as a byte
oracle for (log-likelihood, gradient, Hessian).
"""

from __future__ import annotations

import csv

import numpy as np

from pseudosurv import (
    DataError,
    Dataset,
    MlpConfig,
    MlpModel,
    NumericError,
    PseudoTable,
    StepSurvivalCurve,
    WeightFunction,
    ipcw_survival,
    kaplan_meier,
)
from pseudosurv import net, sim
from pseudosurv.data import _MISSING_TOKENS, write_csv
from pseudosurv.estimators import _event_table
from pseudosurv.metrics import _check_matrix
from pseudosurv.net import _batch_loss_and_grads, _Workspace
from pseudosurv.pseudo import _loo_pseudo
from pseudosurv.util import derived_rng


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) if name == "relu" else np.tanh(z)


def _activate_grad(name: str, z: np.ndarray) -> np.ndarray:
    return (z > 0).astype(float) if name == "relu" else 1.0 - np.tanh(z) ** 2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(weights, biases, activation, X, dropout_rate=None, rng=None):
    """Forward pass; returns output, per-layer pre-activations and activations.

    With a dropout rate and generator, inverted dropout is applied to every
    hidden activation so the expected forward pass matches inference.
    """
    acts = [X]
    zs = []
    masks = []
    h = X
    n_hidden = len(weights) - 1
    for l in range(n_hidden):
        z = h @ weights[l] + biases[l]
        h = _activate(activation, z)
        if dropout_rate:
            mask = (rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
            h = h * mask
            masks.append(mask)
        else:
            masks.append(None)
        zs.append(z)
        acts.append(h)
    z_out = h @ weights[-1] + biases[-1]
    out = _sigmoid(z_out[:, 0])
    return out, zs, acts, masks


def inference_forward(weights, biases, activation, X):
    """Inference pass: the sigmoid output for every row of ``X``."""
    h = X
    for W, b in zip(weights[:-1], biases):
        h = _activate(activation, h @ W + b)
    z_out = (h @ weights[-1] + biases[-1])[:, 0]
    return net._sigmoid(z_out, np.empty_like(z_out), np.empty(z_out.shape, dtype=bool))


def _loss_and_grads(weights, biases, config, X, y, dropout_rng=None):
    """Objective (MSE + ridge) and its gradients for one batch."""
    rate = config.dropout_rate
    out, zs, acts, masks = _forward(
        weights, biases, config.activation, X, dropout_rate=rate, rng=dropout_rng
    )
    m = X.shape[0]
    err = out - y
    lam = config.ridge_penalty
    loss = float(err @ err) / m + lam * sum(float((W**2).sum()) for W in weights)

    g_w = [np.empty_like(W) for W in weights]
    g_b = [np.empty_like(b) for b in biases]
    delta = (2.0 / m) * err * out * (1.0 - out)
    delta = delta[:, None]
    g_w[-1] = acts[-1].T @ delta + 2.0 * lam * weights[-1]
    g_b[-1] = delta.sum(axis=0)
    upstream = delta @ weights[-1].T
    for l in range(len(weights) - 2, -1, -1):
        if masks[l] is not None:
            upstream = upstream * masks[l]
        upstream = upstream * _activate_grad(config.activation, zs[l])
        g_w[l] = acts[l].T @ upstream + 2.0 * lam * weights[l]
        g_b[l] = upstream.sum(axis=0)
        if l:
            upstream = upstream @ weights[l].T
    return loss, g_w, g_b


def buffered_loss_and_grads(weights, biases, config, X, y, dropout_rng=None):
    """Objective (MSE + ridge) and its gradients for one batch.

    Runs the training step's kernel on a fresh workspace; the gradients are copies.
    """
    sizes = [weights[0].shape[0], *(W.shape[1] for W in weights)]
    ws = _Workspace(sizes, len(X), bool(config.dropout_rate))
    for dst, src in zip([*ws.weights, *ws.biases, ws.acts[0], ws.y], [*weights, *biases, X, y]):
        dst[...] = src
    loss = _batch_loss_and_grads(ws, config, len(X), dropout_rng)
    return loss, [g.copy() for g in ws.grad_w], [g.copy() for g in ws.grad_b]


def train(table: PseudoTable, config: MlpConfig) -> MlpModel:
    """Train the regressor on a pseudo-value table by mini-batch gradient descent.

    Covariates are z-scored with the table's mean and standard deviation
    (stored on the model and re-applied at prediction); the one-hot interval
    indicators pass through untouched.  The output bias starts at the logit
    of the clipped mean pseudo value so early epochs are not spent drifting
    toward the response level.
    """
    if len(table) == 0:
        raise DataError("empty pseudo table")
    covariates = table.data.covariates[table.subject_ids]
    mean = covariates.mean(axis=0)
    std = covariates.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    X = np.hstack([(covariates - mean) / std, table.time_indicators])
    y = table.pseudo
    n_in = X.shape[1]

    rng = derived_rng(config.seed, "mlp-train")
    sizes = [n_in, *config.hidden_layers, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    mean_target = float(np.clip(y.mean(), 0.01, 0.99))
    biases[-1][0] = np.log(mean_target / (1.0 - mean_target))

    params = weights + biases
    if config.optimizer == "adam":
        m1 = [np.zeros_like(p) for p in params]
        m2 = [np.zeros_like(p) for p in params]
        step_count = 0
    else:
        velocity = [np.zeros_like(p) for p in params]

    n_rows = X.shape[0]
    loss_log: list[float] = []
    norm_log: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n_rows)
        epoch_loss = 0.0
        for lo in range(0, n_rows, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            loss, g_w, g_b = _loss_and_grads(
                weights, biases, config, X[idx], y[idx], dropout_rng=rng
            )
            epoch_loss += loss * idx.size
            grads = g_w + g_b
            if config.optimizer == "adam":
                step_count += 1
                lr_t = config.learning_rate * (
                    np.sqrt(1.0 - 0.999**step_count) / (1.0 - 0.9**step_count)
                )
                for k, g in enumerate(grads):
                    m1[k] = 0.9 * m1[k] + 0.1 * g
                    m2[k] = 0.999 * m2[k] + 0.001 * g * g
                    params[k] -= lr_t * m1[k] / (np.sqrt(m2[k]) + 1e-8)
            else:
                for k, g in enumerate(grads):
                    velocity[k] = 0.9 * velocity[k] - config.learning_rate * g
                    params[k] += velocity[k]
        epoch_loss /= n_rows
        if not np.isfinite(epoch_loss):
            raise NumericError(f"diverged at epoch {epoch}")
        loss_log.append(epoch_loss)
        norm_log.append(float(np.sqrt(sum((W**2).sum() for W in weights))))

    return MlpModel(
        config=config,
        cutpoints=np.asarray(table.grid.cutpoints, dtype=float),
        covariate_mean=mean,
        covariate_std=std,
        weights=weights,
        biases=biases,
        training_log=loss_log,
        weight_norm_log=norm_log,
    )


def pseudo_marginal_naive(
    data: Dataset, t: float, weights: WeightFunction | None = None
) -> np.ndarray:
    """Reference implementation that refits the estimator n times (O(n^2)).

    Kept as the verification oracle for the incremental leave-one-out path.
    """
    if len(data) < 2:
        raise DataError("pseudo values need at least two subjects")
    n = len(data)
    if weights is None:
        s_full = kaplan_meier(data).at(t)
    else:
        s_full = ipcw_survival(data, weights).at(t)
    out = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        rest = data.subset(keep)
        if weights is None:
            s_loo = kaplan_meier(rest).at(t)
        else:
            s_loo = ipcw_survival(rest, weights.subset(keep)).at(t)
        out[i] = n * s_full - (n - 1) * s_loo
    return out


def nelson_aalen(data: Dataset) -> StepSurvivalCurve:
    """Unweighted Nelson-Aalen cumulative hazard."""
    if len(data) == 0:
        raise DataError("empty dataset")
    u, d, n = _event_table(data.time, data.event)
    return StepSurvivalCurve(u, np.cumsum(d / n), 0.0)


def fmt6(x) -> str:
    """Format one number at 6 significant digits for CSV output."""
    if isinstance(x, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return "nan"
    return format(x, ".6g")


def _parse_cell(text: str, row: int, column: str, finite: bool = False) -> float:
    stripped = text.strip()
    if stripped.lower() in _MISSING_TOKENS:
        raise DataError(f"missing value at row {row}, column '{column}'")
    try:
        value = float(stripped)
    except ValueError:
        raise DataError(f"invalid number {text!r} at row {row}, column '{column}'") from None
    if finite and not np.isfinite(value):
        raise DataError(f"non-finite number {text!r} at row {row}, column '{column}'")
    return value


def load_dataset(path, drop_incomplete: bool = False) -> Dataset:
    """Read a dataset from CSV with header ``time,event,<covariates...>``.

    ``event`` must be 0 or 1.  Rows containing missing cells raise unless
    ``drop_incomplete`` is set, in which case they are silently dropped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty dataset") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "time" or header[1] != "event":
            raise DataError("header must start with 'time,event'")
        names = header[2:]
        times, events, rows = [], [], []
        for lineno, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(f"row {lineno} has {len(raw)} cells, expected {len(header)}")
            if drop_incomplete and any(c.strip().lower() in _MISSING_TOKENS for c in raw):
                continue
            t = _parse_cell(raw[0], lineno, "time")
            e = _parse_cell(raw[1], lineno, "event")
            if e not in (0.0, 1.0):
                raise DataError(f"event must be 0 or 1 at row {lineno}, column 'event'")
            if t < 0:
                raise DataError(f"negative time at row {lineno}, column 'time'")
            times.append(t)
            events.append(bool(e))
            rows.append([_parse_cell(c, lineno, name) for c, name in zip(raw[2:], names)])
    if not times:
        raise DataError("empty dataset")
    cov = np.array(rows, dtype=float) if names else np.empty((len(times), 0))
    return Dataset(np.array(times), np.array(events), cov, tuple(names))


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset back out in the ingestion schema (6 significant digits)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", *data.covariate_names])
        for i in range(len(data)):
            writer.writerow(
                [fmt6(data.time[i]), int(data.event[i])]
                + [fmt6(v) for v in data.covariates[i]]
            )


def write_predictions(path, cond: np.ndarray, marg: np.ndarray) -> None:
    """The ``predict`` output file: ids, conditional then marginal survival."""
    J = cond.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id"] + [f"cond_{j}" for j in range(J)] + [f"marg_{j}" for j in range(J)]
        )
        for i in range(cond.shape[0]):
            writer.writerow([i] + [fmt6(v) for v in cond[i]] + [fmt6(v) for v in marg[i]])


def load_predictions(path, n_expected: int):
    """Prediction matrix in subject order plus its times.

    Rows may come in any order: the ``id`` column, a permutation of
    0..n-1, places each row on its subject.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise DataError("predictions header must start with 'id'")
        try:
            times = [float(name) for name in header[1:]]
            if not np.all(np.isfinite(times)):
                raise ValueError
        except ValueError:
            raise DataError("prediction columns after 'id' must be named by their times") from None
        rows, row_of = [], np.full(n_expected, -1)
        for lineno, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(
                    f"predictions row {lineno} has {len(raw)} cells, expected {len(header)}"
                )
            try:
                sid = int(raw[0])
            except ValueError:
                raise DataError(
                    f"predictions row {lineno}: id {raw[0]!r} is not an integer"
                ) from None
            if not 0 <= sid < n_expected:
                raise DataError(f"predictions row {lineno}: id {sid} is not in 0..{n_expected - 1}")
            if row_of[sid] >= 0:
                raise DataError(f"predictions row {lineno}: duplicate id {sid}")
            row_of[sid] = len(rows)
            rows.append([_parse_cell(c, lineno, name, finite=True)
                         for c, name in zip(raw[1:], header[1:])])
    if len(rows) != n_expected:
        raise DataError(f"predictions have {len(rows)} rows, data has {n_expected}")
    return np.asarray(rows, dtype=float)[row_of], np.asarray(times, dtype=float)


def calibrate_censoring(survival_times, target_rate: float) -> float:
    """Exponential censoring rate whose induced censored fraction matches target.

    For C ~ Exp(rate) independent of X, the censored probability given the
    sample is mean(1 - exp(-rate * X_i)); that expectation over the supplied
    Monte Carlo sample is bisected in the rate.  Deterministic given the
    sample: no fresh censoring draws are needed.
    """
    x = np.asarray(survival_times, dtype=float)
    if x.size == 0 or np.any(x <= 0):
        raise DataError("survival times must be positive")
    if not 0.0 < target_rate < 1.0:
        raise DataError("target_rate must be in (0, 1)")

    def censored_fraction(rate):
        return float(np.mean(-np.expm1(-rate * x)))

    lo, hi = 0.0, 1.0 / float(np.median(x))
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
        if censored_fraction(mid) < target_rate:
            lo = mid
        else:
            hi = mid
    rate = 0.5 * (lo + hi)
    if abs(censored_fraction(rate) - target_rate) > 0.01:
        raise NumericError("censoring calibration did not reach the target rate")
    return rate


# subjects per block when IPCW sums are accumulated over a sample
_CHUNK = 1024


def constant_weights(weights, cap: float | None = None) -> WeightFunction:
    """Weights that are constant in time, one value >= 1 per subject.

    The degenerate Cox factorisation: one jump of size 1 at time 0 and
    risk log(w), so G = exp(-log w) = 1/w after time 0.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(w < 1.0):
        raise DataError("constant weights must be >= 1 (they are 1/G with G <= 1)")
    if cap is None:
        cap = max(20.0, float(w.max()))
    return WeightFunction(np.array([0.0]), np.array([1.0]), np.log(w), cap)


def _survival(weights: WeightFunction, lam: np.ndarray) -> np.ndarray:
    """max(exp(-risk_i * lam_k), tiny) as a fresh (n, len(lam)) array."""
    g = np.outer(weights.risk, lam)
    np.negative(g, out=g)
    np.exp(g, out=g)
    return np.maximum(g, np.finfo(float).tiny, out=g)


def survival_at_left(weights: WeightFunction, u) -> np.ndarray:
    """G(u- | Z_i) for every subject: shape (n,) or (n, len(u))."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    idx = np.searchsorted(weights.times, u_arr, side="left")
    # Lambda_0 is 0 before the first jump, so G(u-) is exactly 1 there
    g = _survival(weights, np.concatenate(([0.0], weights.cumhaz))[idx])
    return g[:, 0] if np.isscalar(u) or np.asarray(u).ndim == 0 else g


def weights_at(weights: WeightFunction, u) -> np.ndarray:
    """Capped IPCW weights min(1/G(u-), cap) for every subject at ``u``.

    Only the requested columns are computed: O(n * len(u)) time and memory.
    """
    g = survival_at_left(weights, u)
    np.divide(1.0, g, out=g)
    return np.minimum(g, weights.cap, out=g)


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
        w = weights_at(weights.subset(rows[sl]), u + offset)
        ev = np.flatnonzero(hit[sl])
        event_w.append(w[ev, col[sl][ev]])
        # the running total heads the block so the column sum keeps sample order
        block = np.empty((w.shape[0] + 1, K))
        block[0] = B
        np.multiply(w, times[sl, None] >= u, out=block[1:])
        B = block.sum(axis=0)
    A = np.bincount(col[hit], weights=np.concatenate(event_w), minlength=K)
    return A, B, (w if len(blocks) == 1 else None)


def _ipcw_loo(times, events, u, weights, rows, time_offset):
    """IPCW survival exp(-weighted hazard) at the horizon plus leave-one-out values.

    ``u`` are the distinct event times at or before the horizon; subject k
    takes weight row ``rows[k]``, evaluated at ``u + time_offset``.  Removing
    a subject drops its weight from both the event sum and the at-risk sum of
    every term; a term whose risk set empties contributes nothing.  A first
    pass accumulates the sums, a second computes each subject's leave-one-out
    terms, both over the same blocks of subjects: memory O(block * len(u) + n).
    """
    A, B, w = _ipcw_sums(times, events, u, weights, rows, time_offset)
    s_full = float(np.exp(-(A / B).sum()))
    col = np.searchsorted(u, times, side="left")
    own = events & (col < u.size)
    s_loo = np.empty(times.size)
    for sl in _blocks(times.size):
        # a single block reuses the first pass's weights; several compute them again
        wb = w if w is not None else weights_at(weights.subset(rows[sl]), u + time_offset)
        ev = np.flatnonzero(own[sl])
        ev_col = col[sl][ev]
        ev_w = wb[ev, ev_col]
        # in place: the weights become the leave-one-out at-risk sums, then the terms
        np.multiply(wb, times[sl, None] >= u, out=wb)
        np.subtract(B, wb, out=wb)
        ev_den = wb[ev, ev_col]
        pos = wb > 0
        np.divide(A, wb, out=wb, where=pos)
        np.copyto(wb, 0.0, where=~pos)
        ok = ev_den > 0
        wb[ev[ok], ev_col[ok]] = (A[ev_col[ok]] - ev_w[ok]) / ev_den[ok]
        s_loo[sl] = np.exp(-wb.sum(axis=1))
    return s_full, s_loo


def pseudo_table_to_csv(table: PseudoTable, path) -> None:
    """Write rows as ``id, z_1..z_p, d_0..d_{J-1}, pseudo`` (see :func:`write_csv`)."""
    J = table.n_intervals
    covariates = [f"z_{k + 1}" for k in range(table.p)]
    header = ["id", *covariates, *(f"d_{j}" for j in range(J)), "pseudo"]
    onehot = [",".join("1" if k == j else "0" for k in range(J)) for j in range(J)]
    onehot_cells = [onehot[j] for j in table.time_index.tolist()]
    covariates = table.data.covariates[table.subject_ids]
    write_csv(path, header, [table.subject_ids, *covariates.T, onehot_cells, table.pseudo])


def pseudo_conditional(data: Dataset, grid, weights: WeightFunction | None = None):
    """The table's columns ``(subject_ids, covariates, time_index, pseudo)``, built one
    interval at a time and sorted by (subject, interval); it neither warns nor refuses."""
    ids_parts, tidx_parts, pseudo_parts = [], [], []
    for j in range(grid.n_intervals):
        start = grid.interval_start(j)
        horizon = grid.interval_end(j) - start
        at_risk = data.time > start
        ids = np.flatnonzero(at_risk)
        values = _loo_pseudo(data.time[at_risk] - start, data.event[at_risk], horizon, weights,
                             rows=ids, time_offset=start)
        ids_parts.append(ids)
        tidx_parts.append(np.full(ids.size, j))
        pseudo_parts.append(values)
    ids = np.concatenate(ids_parts)
    tidx = np.concatenate(tidx_parts)
    pseudo = np.concatenate(pseudo_parts)
    order = np.lexsort((tidx, ids))
    return ids[order], data.covariates[ids[order]], tidx[order], pseudo[order]


def gen_friedman_aft(spec, return_info: bool = False):
    """The nonlinear AFT design with one (draws, p) calibration matrix; the
    module's ``_CALIBRATION_DRAWS`` is read at call time so tests may patch it."""
    draws, p = sim._CALIBRATION_DRAWS, sim._AFT_P
    rng = derived_rng(spec.seed, "friedman-aft")
    terms = sim._gaussian_bumps(rng, p, sim._AFT_TERMS)

    Z = rng.standard_normal((spec.n, p))
    mu_raw = sim._bump_mean(terms, Z)
    eps = rng.gamma(2.0, 1.0, size=spec.n)
    var_raw = float(np.var(mu_raw))
    if var_raw <= 0:
        raise NumericError("degenerate mean function: zero variance")
    scale = float(np.sqrt(sim._AFT_SNR * 2.0 / var_raw))
    mu = scale * mu_raw
    x = np.exp(mu + eps)

    z_cal = rng.standard_normal((draws, p))
    eps_cal = rng.gamma(2.0, 1.0, size=draws)
    x_cal = np.exp(scale * sim._bump_mean(terms, z_cal) + eps_cal)
    rate = sim.calibrate_censoring(x_cal, spec.censoring_rate)

    c = rng.exponential(1.0 / rate, size=spec.n)
    time = np.minimum(x, c)
    event = x <= c
    data = Dataset(time, event, Z, tuple(f"z_{k + 1}" for k in range(p)))
    if not return_info:
        return data
    info = {
        "design": "friedman-aft",
        "seed": spec.seed,
        "n": spec.n,
        "p": p,
        "n_terms": sim._AFT_TERMS,
        "snr_target": sim._AFT_SNR,
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


def partial_loglik(ev, X, first, d, beta):
    """Breslow partial log-likelihood with gradient and Hessian.

    Inputs must be sorted by time ascending; ``first`` indexes the first row
    of each distinct event time and ``d`` counts its events.  Risk-set
    aggregates are reverse cumulative sums evaluated at those rows.
    """
    theta = X @ beta
    theta = theta - theta.max()  # rescale for a stable exp; cancels in every ratio
    r = np.exp(theta)
    s0 = np.cumsum(r[::-1])[::-1]
    s1 = np.cumsum((r[:, None] * X)[::-1], axis=0)[::-1]
    s2 = np.cumsum(np.einsum("i,ij,ik->ijk", r, X, X)[::-1], axis=0)[::-1]
    s0u, s1u, s2u = s0[first], s1[first], s2[first]

    ll = theta[ev].sum() - (d * np.log(s0u)).sum()
    mean = s1u / s0u[:, None]
    grad = X[ev].sum(axis=0) - (d[:, None] * mean).sum(axis=0)
    hess = -(
        d[:, None, None] * (s2u / s0u[:, None, None] - mean[:, :, None] * mean[:, None, :])
    ).sum(axis=0)
    return ll, grad, hess
