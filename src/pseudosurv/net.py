"""Feed-forward regressor trained on pseudo conditional survival probabilities.

The network maps standardized covariates plus a one-hot interval indicator to
a single sigmoid output, trained with plain mean squared error against the
pseudo values (which may legitimately fall outside [0, 1]).  Marginal
survival at grid time t_{j+1} is the running product of the predicted
conditional probabilities for intervals 0..j.

Everything is deterministic given the config seed: initialization, batch
shuffling, and dropout masks all come from one generator, so identical seeds
reproduce identical weights bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .data import Dataset, read_json, write_json
from .errors import DataError, NumericError
from .estimators import WeightFunction
from .metrics import EvalReport, c_index, evaluate_predictions
from .pseudo import PseudoTable, TimeGrid, pseudo_conditional
from .util import derived_rng, derived_seed, freeze, one_blas_thread, parallel_map

HIDDEN_WIDTHS = (4, 8, 16, 32, 64, 128)
# the admissible values of the other grid fields, in search-grid and MlpConfig field order
GRID_VALUES = {
    "activation": ("relu", "tanh"),
    "regularization": (("dropout", 0.2), ("dropout", 0.4),
                       ("ridge", 1e-4), ("ridge", 1e-3), ("ridge", 1e-2)),
    "learning_rate": (0.001, 0.005, 0.01),
    "optimizer": ("adam", "sgd_momentum"),
}


@dataclass(frozen=True)
class MlpConfig:
    """One point of the hyperparameter grid.

    ``regularization`` is ('dropout', rate) or ('ridge', penalty); the
    admissible values mirror the search grid used throughout the package.
    """

    hidden_layers: tuple[int, ...]
    activation: str = "relu"
    regularization: tuple[str, float] = ("ridge", 1e-3)
    learning_rate: float = 0.001
    optimizer: str = "adam"
    epochs: int = 100
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        layers = tuple(map(int, self.hidden_layers))
        if len(layers) not in (1, 2):
            raise DataError("hidden_layers must have one or two layers")
        if any(w not in HIDDEN_WIDTHS for w in layers):
            raise DataError(f"hidden widths must be among {HIDDEN_WIDTHS}")
        kind, value = self.regularization  # a model file gives a list
        for name, allowed in GRID_VALUES.items():
            if ((kind, value) if name == "regularization" else getattr(self, name)) not in allowed:
                raise DataError(f"{name} must be one of {allowed}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise DataError("epochs and batch_size must be positive")
        freeze(self, hidden_layers=layers, regularization=(kind, float(value)))

    def content_key(self) -> str:
        """Stable identity of the hyperparameters, ignoring the seed.

        Duplicate grid entries share this key, so they draw identical
        training randomness and earn identical scores.
        """
        return (
            f"h={','.join(map(str, self.hidden_layers))};a={self.activation};"
            f"r={self.regularization[0]}:{self.regularization[1]!r};"
            f"lr={self.learning_rate!r};opt={self.optimizer};"
            f"e={self.epochs};b={self.batch_size}"
        )

    @property
    def dropout_rate(self) -> float | None:
        return self.regularization[1] if self.regularization[0] == "dropout" else None

    @property
    def ridge_penalty(self) -> float:
        return self.regularization[1] if self.regularization[0] == "ridge" else 0.0


def default_grid(epochs: int = 100, batch_size: int = 256) -> list[MlpConfig]:
    """The full Cartesian search grid (2520 configurations), cached per (epochs, batch_size)."""
    return list(_default_grid(epochs, batch_size))


@functools.lru_cache(maxsize=4, typed=True)
def _default_grid(epochs, batch_size) -> tuple[MlpConfig, ...]:
    layouts = [(w,) for w in HIDDEN_WIDTHS]
    layouts += [(w1, w2) for w1 in HIDDEN_WIDTHS for w2 in HIDDEN_WIDTHS]
    return tuple(MlpConfig(*values, epochs=epochs, batch_size=batch_size)
                 for values in itertools.product(layouts, *GRID_VALUES.values()))


@dataclass
class MlpModel:
    """Trained network: weights plus the preprocessing stored with them."""

    config: MlpConfig
    cutpoints: np.ndarray
    covariate_mean: np.ndarray
    covariate_std: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    training_log: list[float] = field(default_factory=list)
    weight_norm_log: list[float] = field(default_factory=list)
    covariate_names: tuple[str, ...] | None = None

    @property
    def n_intervals(self) -> int:
        return self.cutpoints.size

    @property
    def p(self) -> int:
        return self.covariate_mean.size


def _activate(name: str, a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0, out=a) if name == "relu" else np.tanh(a, out=a)


def _sigmoid(z: np.ndarray, out: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function into ``out``; ``z`` is overwritten."""
    np.greater_equal(z, 0.0, out=positive)
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)  # e = exp(-|z|)
    np.add(z, 1.0, out=out)
    np.copyto(z, 1.0, where=positive)  # 1 / (1 + e) where z >= 0, e / (1 + e) elsewhere
    return np.divide(z, out, out=out)


def _forward(weights, biases, activation, X):
    """Inference pass: the sigmoid output for every row of ``X``."""
    h = X
    for W, b in zip(weights[:-1], biases):
        h = h @ W
        h += b
        _activate(activation, h)
    z_out = (h @ weights[-1] + biases[-1])[:, 0]
    return _sigmoid(z_out, np.empty_like(z_out), np.empty(z_out.shape, dtype=bool))


class _Workspace:
    """Preallocated buffers for training one network shape at one batch size.

    ``theta`` holds every weight matrix, then every bias vector, flat; the
    weights and biases are reshaped views into it, and the gradients the same
    views into ``grad``.  ``acts[l]`` is the input of layer l (the batch rows,
    then each hidden activation after dropout), and each hidden layer has a
    (batch x width) buffer ``a`` (pre-activation, activation, then derivative),
    dropout mask and upstream gradient.  A batch of m rows uses leading rows.
    """

    def __init__(self, sizes: Sequence[int], batch: int, dropout: bool):
        L = len(sizes) - 1
        shapes = [*zip(sizes[:-1], sizes[1:]), *((b,) for b in sizes[1:])]
        ends = np.cumsum([int(np.prod(s)) for s in shapes])
        self.n_weights = int(ends[L - 1])
        self.theta, self.grad, self.scratch = (np.zeros(ends[-1]) for _ in range(3))

        def views(flat):
            return [v.reshape(s) for v, s in zip(np.split(flat, ends[:-1]), shapes)]

        self.weights, self.biases = views(self.theta)[:L], views(self.theta)[L:]
        self.grad_w, self.grad_b = views(self.grad)[:L], views(self.grad)[L:]
        self.squares = views(self.scratch)[:L]

        def per_layer():
            return [np.empty((batch, w)) for w in sizes[1:-1]]

        self.a, self.upstream = per_layer(), per_layer()
        self.mask = per_layer() if dropout else []
        self.acts = [np.empty((batch, sizes[0])), *(per_layer() if dropout else self.a)]
        self.y, self.out, self.err = np.empty(batch), np.empty(batch), np.empty(batch)
        self.z_out, self.positive = np.empty((batch, 1)), np.empty(batch, dtype=bool)

    def weight_sum_squares(self) -> float:
        """Sum over weight matrices of their sums of squares (biases excluded)."""
        np.square(self.theta[: self.n_weights], out=self.scratch[: self.n_weights])
        return sum(float(sq.sum()) for sq in self.squares)


def _batch_loss_and_grads(ws: _Workspace, config: MlpConfig, m: int, rng) -> float:
    """Objective (MSE + ridge) of the rows ``ws.acts[0][:m]``, ``ws.y[:m]``.

    The gradients go to ``ws.grad``; dropout masks are drawn from ``rng``.
    """
    rate = config.dropout_rate
    for l in range(len(ws.a)):
        a = ws.a[l][:m]
        np.matmul(ws.acts[l][:m], ws.weights[l], out=a)
        a += ws.biases[l]
        _activate(config.activation, a)
        if rate:  # inverted dropout; the uniform draws become the mask in place
            mask = ws.mask[l][:m]
            rng.random(out=mask)
            np.greater_equal(mask, rate, out=mask)
            mask /= 1.0 - rate
            np.multiply(a, mask, out=ws.acts[l + 1][:m])
    h, z_out, out, err = ws.acts[-1][:m], ws.z_out[:m], ws.out[:m], ws.err[:m]
    np.matmul(h, ws.weights[-1], out=z_out)
    z_out += ws.biases[-1]
    _sigmoid(z_out[:, 0], out, ws.positive[:m])
    np.subtract(out, ws.y[:m], out=err)
    lam = config.ridge_penalty
    loss = float(err @ err) / m + lam * ws.weight_sum_squares()

    # delta = (2 / m) * err * out * (1 - out), written over err
    err *= 2.0 / m
    err *= out
    err *= np.subtract(1.0, out, out=z_out[:, 0])
    delta = err[:, None]
    np.matmul(h.T, delta, out=ws.grad_w[-1])
    np.sum(delta, axis=0, out=ws.grad_b[-1])
    np.multiply(delta, ws.weights[-1].T, out=ws.upstream[-1][:m])  # one term per cell
    for l in range(len(ws.a) - 1, -1, -1):
        upstream, a = ws.upstream[l][:m], ws.a[l][:m]
        if rate:
            upstream *= ws.mask[l][:m]
        # the activation's derivative, written over a after its last reader, grad_w[l + 1]
        if config.activation == "relu":
            np.greater(a, 0.0, out=a)
        else:
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
        upstream *= a
        np.matmul(ws.acts[l][:m].T, upstream, out=ws.grad_w[l])
        np.sum(upstream, axis=0, out=ws.grad_b[l])
        if l:
            np.matmul(upstream, ws.weights[l].T, out=ws.upstream[l - 1][:m])
    ridge = np.multiply(ws.theta[: ws.n_weights], 2.0 * lam, out=ws.scratch[: ws.n_weights])
    ws.grad[: ws.n_weights] += ridge
    return loss


@one_blas_thread()
def train(table: PseudoTable, config: MlpConfig) -> MlpModel:
    """Train the regressor on a pseudo-value table by mini-batch gradient descent.

    Covariates are z-scored with the table's mean and standard deviation
    (stored on the model and re-applied at prediction); the one-hot interval
    indicators pass through untouched.  The output bias starts at the logit
    of the clipped mean pseudo value so early epochs are not spent drifting
    toward the response level.  A covariate whose mean or standard deviation
    overflows, or a non-finite batch loss, raises :class:`NumericError`,
    naming the covariates or the epoch and the batch.  Training runs on one
    BLAS thread, so the weights do not depend on the machine's core count.
    """
    if len(table) == 0:
        raise DataError("empty pseudo table")
    # the design matrix [(covariates - mean) / std, one-hot interval], written in place
    n_rows, p = table.covariates.shape
    n_in = p + table.n_intervals
    X = np.zeros((n_rows, n_in))
    with np.errstate(all="ignore"):  # an overflow is refused below
        mean = table.covariates.mean(axis=0)
        std = table.covariates.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(std)).tolist()  # a non-finite mean makes std one too
    if bad:
        names = ", ".join(table.covariate_names[k] for k in bad)
        raise NumericError(f"covariates {names} overflow their mean or standard deviation")
    std = np.where(std > 0, std, 1.0)
    Z = np.subtract(table.covariates, mean, out=X[:, :p])
    Z /= std
    X[np.arange(n_rows), p + table.time_index] = 1.0
    y = table.pseudo

    rng = derived_rng(config.seed, "mlp-train")
    sizes = [n_in, *config.hidden_layers, 1]
    ws = _Workspace(sizes, min(config.batch_size, n_rows), bool(config.dropout_rate))
    for W in ws.weights:
        limit = np.sqrt(6.0 / sum(W.shape))  # fan in + fan out
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    mean_target = float(np.clip(y.mean(), 0.01, 0.99))
    ws.biases[-1][0] = np.log(mean_target / (1.0 - mean_target))

    theta, grad, step = ws.theta, ws.grad, ws.scratch
    if config.optimizer == "adam":
        m1, m2, update = np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)
        step_count = 0
    else:
        velocity = np.zeros_like(theta)

    loss_log: list[float] = []
    norm_log: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n_rows)
        epoch_loss = 0.0
        for batch, lo in enumerate(range(0, n_rows, config.batch_size)):
            idx = perm[lo : lo + config.batch_size]
            m = idx.size
            # the indices are valid, and mode "clip" writes to out unbuffered
            np.take(X, idx, axis=0, out=ws.acts[0][:m], mode="clip")
            np.take(y, idx, out=ws.y[:m], mode="clip")
            loss = _batch_loss_and_grads(ws, config, m, rng)
            if not math.isfinite(loss):
                raise NumericError(f"diverged at epoch {epoch}, batch {batch}")
            epoch_loss += loss * m
            if config.optimizer == "adam":
                step_count += 1
                lr_t = config.learning_rate * (
                    np.sqrt(1.0 - 0.999**step_count) / (1.0 - 0.9**step_count)
                )
                # m1 = 0.9 m1 + 0.1 g;  m2 = 0.999 m2 + 0.001 g g
                # theta -= lr_t m1 / (sqrt(m2) + 1e-8)
                m1 *= 0.9
                m1 += np.multiply(grad, 0.1, out=step)
                m2 *= 0.999
                np.multiply(grad, 0.001, out=step)
                step *= grad
                m2 += step
                np.sqrt(m2, out=step)
                step += 1e-8
                np.multiply(m1, lr_t, out=update)
                update /= step
                theta -= update
            else:
                # velocity = 0.9 velocity - lr g;  theta += velocity
                velocity *= 0.9
                velocity -= np.multiply(grad, config.learning_rate, out=step)
                theta += velocity
        epoch_loss /= n_rows
        if not math.isfinite(epoch_loss):
            raise NumericError(f"diverged at epoch {epoch}")
        loss_log.append(epoch_loss)
        norm_log.append(math.sqrt(ws.weight_sum_squares()))

    return MlpModel(
        config=config,
        cutpoints=np.asarray(table.grid.cutpoints, dtype=float),
        covariate_mean=mean,
        covariate_std=std,
        weights=[W.copy() for W in ws.weights],
        biases=[b.copy() for b in ws.biases],
        training_log=loss_log,
        weight_norm_log=norm_log,
        covariate_names=table.covariate_names,
    )


def predict_conditional_matrix(model: MlpModel, covariates) -> np.ndarray:
    """Conditional survival for every interval: shape (n, J)."""
    z = np.atleast_2d(np.asarray(covariates, dtype=float))
    if z.shape[1] != model.p:
        raise DataError(f"expected {model.p} covariates, got {z.shape[1]}")
    n, p, J = z.shape[0], model.p, model.n_intervals
    # standardized covariates, then the one-hot of the interval being predicted
    X = np.hstack([(z - model.covariate_mean) / model.covariate_std, np.zeros((n, J))])
    out = np.empty((n, J))
    for j in range(J):
        X[:, p:] = 0.0
        X[:, p + j] = 1.0
        out[:, j] = _forward(model.weights, model.biases, model.config.activation, X)
    return out


def predict_marginal_matrix(model: MlpModel, covariates) -> np.ndarray:
    """Marginal survival at every cutpoint: cumulative product over intervals."""
    return np.cumprod(predict_conditional_matrix(model, covariates), axis=1)


def predict_survival(model: MlpModel, covariates, eval_times) -> np.ndarray:
    """Predicted marginal survival at arbitrary times: shape (n, len(eval_times)).

    The step curve through the cutpoints: 1 before the first cutpoint, then
    the marginal survival at the latest cutpoint at or before each time.
    """
    marg = predict_marginal_matrix(model, covariates)
    t = np.atleast_1d(np.asarray(eval_times, dtype=float))
    idx = np.searchsorted(model.cutpoints, t, side="right")
    return np.concatenate((np.ones((len(marg), 1)), marg), axis=1)[:, idx]


def make_cv_folds(subjects: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Partition subject ids into k folds (each subject in exactly one)."""
    subjects = np.asarray(subjects)
    if k < 2:
        raise DataError("k must be at least 2")
    if k > subjects.size:
        raise DataError("k exceeds the number of subjects")
    fold_rng = derived_rng(seed, "folds")
    perm = fold_rng.permutation(subjects.size)
    return [subjects[np.sort(part)] for part in np.array_split(perm, k)]


def _score_unit(ctx: dict, unit: tuple[int, int]) -> float:
    """The held-out c-index of config ``unit[0]`` trained without fold ``unit[1]``."""
    config_idx, fold = unit
    config: MlpConfig = ctx["grid"][config_idx]
    train_subjects, held_data = ctx["folds"][fold]
    unit_seed = derived_seed(ctx["seed"], config.content_key(), fold)
    train_table = ctx["table"].subset_subjects(train_subjects)
    try:
        model = train(train_table, replace(config, seed=unit_seed))
    except NumericError as exc:
        raise NumericError(f"config {config.content_key()}, fold {fold}: {exc}") from exc
    pred = predict_survival(model, held_data.covariates, ctx["times"])
    values, _ = c_index(held_data, pred, ctx["times"])
    return float(np.nanmean(values))


def grid_search(
    table: PseudoTable,
    data: Dataset,
    grid: Sequence[MlpConfig],
    k: int,
    eval_times: TimeGrid,
    budget: int = 20,
    seed: int = 0,
    n_jobs: int = 1,
):
    """Random Cartesian search: sample configs, score by subject-level k-fold CV.

    Folds partition subjects (never rows).  A config's score is the mean over
    folds of the average time-dependent concordance of its predicted marginal
    survival on the held-out subjects, evaluated at ``eval_times`` against
    ``data``.  The best config (ties break toward the lower grid index) is
    retrained on the full table.  Each training unit derives its seed from
    the config's hyperparameter content and the fold, so scores do not depend
    on grid order or on ``n_jobs`` (the (config, fold) units run in worker
    processes when ``n_jobs`` exceeds one).  A fold whose subjects hold no
    comparable pair at ``eval_times`` raises DataError.
    """
    grid = list(grid)
    if budget > len(grid) or budget < 1:
        raise DataError("budget must be in 1..len(grid)")
    subjects = table.subjects()
    times = np.asarray(eval_times.cutpoints, dtype=float)
    folds = []  # per fold: the training subjects and the held-out data, built once
    for fold, held in enumerate(make_cv_folds(subjects, k, seed)):
        held_data = data.subset(held)
        # pairs depend on the data only: a fold without one scores no config
        _, pairs = c_index(held_data, np.zeros((held.size, times.size)), times)
        if not pairs.any():
            raise DataError(f"CV fold {fold} has no comparable pair at the grid times; "
                            "use fewer folds")
        folds.append((subjects[~np.isin(subjects, held)], held_data))

    sample_rng = derived_rng(seed, "config-sample")
    chosen = np.sort(sample_rng.choice(len(grid), size=budget, replace=False)).tolist()

    ctx = {
        "grid": grid,
        "table": table,
        "folds": folds,
        "times": times,
        "seed": seed,
    }
    units = [(config_idx, fold) for config_idx in chosen for fold in range(len(folds))]
    fold_scores = np.reshape(parallel_map(_score_unit, ctx, units, n_jobs), (budget, len(folds)))
    scores = {config_idx: float(np.mean(row)) for config_idx, row in zip(chosen, fold_scores)}

    # max keeps the first of equal scores, and chosen is in grid order
    best = grid[max(chosen, key=scores.__getitem__)]
    refit_seed = derived_seed(seed, best.content_key(), "refit")
    final_config = replace(best, seed=refit_seed)
    model = train(table, final_config)
    return final_config, model


def fit_and_evaluate(
    train_data: Dataset,
    test_data: Dataset,
    grid: TimeGrid,
    configs: Sequence[MlpConfig],
    *,
    weights: WeightFunction | None = None,
    k: int,
    budget: int,
    seed: int,
    n_jobs: int = 1,
) -> tuple[MlpModel, EvalReport]:
    """The whole pipeline: pseudo values, search and refit, then test scores.

    Builds the pseudo-value table of ``train_data`` on ``grid`` (IPCW when
    ``weights`` is given), selects and retrains a network with
    :func:`grid_search`, and scores its predicted survival on ``test_data``
    at the grid cutpoints.
    """
    table = pseudo_conditional(train_data, grid, weights)
    _, model = grid_search(
        table, train_data, configs, k=k, eval_times=grid, budget=budget, seed=seed, n_jobs=n_jobs
    )
    pred = predict_survival(model, test_data.covariates, grid.cutpoints)
    return model, evaluate_predictions(test_data, pred, grid.cutpoints)


def save_model(model: MlpModel, path) -> None:
    """Persist a model as versioned JSON (full float precision; v2 adds covariate names)."""
    payload = {
        "format_version": 2,
        "config": asdict(model.config),
        "cutpoints": model.cutpoints.tolist(),
        "covariate_mean": model.covariate_mean.tolist(),
        "covariate_std": model.covariate_std.tolist(),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "training_log": model.training_log,
        "weight_norm_log": model.weight_norm_log,
        "covariate_names": None if model.covariate_names is None else list(model.covariate_names),
    }
    write_json(path, payload)


def load_model(path) -> MlpModel:
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a model file must be a JSON object")
    version = payload.get("format_version")
    if version not in (1, 2):
        raise DataError(f"unsupported model format version: {version!r}")
    names = payload.get("covariate_names")
    try:
        model = MlpModel(
            config=MlpConfig(**{f.name: payload["config"][f.name] for f in fields(MlpConfig)}),
            cutpoints=TimeGrid(payload["cutpoints"]).cutpoints,
            covariate_mean=np.asarray(payload["covariate_mean"], dtype=float),
            covariate_std=np.asarray(payload["covariate_std"], dtype=float),
            weights=[np.asarray(w, dtype=float) for w in payload["weights"]],
            biases=[np.asarray(b, dtype=float) for b in payload["biases"]],
            training_log=list(payload.get("training_log", [])),
            weight_norm_log=list(payload.get("weight_norm_log", [])),
            covariate_names=None if names is None else tuple(names),
        )
    except KeyError as exc:
        raise DataError(f"{path}: model file has no {exc.args[0]!r}") from None
    except (DataError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from None
    # the input layer takes the covariates and the one-hot of the interval
    p, hidden = model.p, list(model.config.hidden_layers)
    sizes = [p + model.n_intervals, *hidden, 1]
    if ([w.shape for w in model.weights] != list(zip(sizes, sizes[1:]))
            or [b.shape for b in model.biases] != [(size,) for size in sizes[1:]]
            or model.covariate_std.shape != (p,)
            or model.covariate_names is not None and len(model.covariate_names) != p):
        raise DataError(f"{path}: model arrays do not fit {p} covariates, "
                        f"{model.n_intervals} intervals and hidden layers {hidden}")
    return model
