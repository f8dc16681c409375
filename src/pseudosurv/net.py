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

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import DataError, NumericError
from .estimators import StepSurvivalCurve, WeightFunction
from .metrics import EvalReport, c_index, evaluate_predictions
from .pseudo import PseudoTable, TimeGrid, pseudo_conditional
from .util import derived_rng, derived_seed

HIDDEN_WIDTHS = (4, 8, 16, 32, 64, 128)
ACTIVATIONS = ("relu", "tanh")
DROPOUT_RATES = (0.2, 0.4)
RIDGE_PENALTIES = (1e-4, 1e-3, 1e-2)
LEARNING_RATES = (0.001, 0.005, 0.01)
OPTIMIZERS = ("adam", "sgd_momentum")


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
        layers = tuple(int(w) for w in self.hidden_layers)
        if len(layers) not in (1, 2):
            raise DataError("hidden_layers must have one or two layers")
        if any(w not in HIDDEN_WIDTHS for w in layers):
            raise DataError(f"hidden widths must be among {HIDDEN_WIDTHS}")
        if self.activation not in ACTIVATIONS:
            raise DataError(f"activation must be one of {ACTIVATIONS}")
        kind, value = self.regularization
        if kind == "dropout":
            if value not in DROPOUT_RATES:
                raise DataError(f"dropout rate must be one of {DROPOUT_RATES}")
        elif kind == "ridge":
            if value not in RIDGE_PENALTIES:
                raise DataError(f"ridge penalty must be one of {RIDGE_PENALTIES}")
        else:
            raise DataError("regularization must be ('dropout', rate) or ('ridge', penalty)")
        if self.learning_rate not in LEARNING_RATES:
            raise DataError(f"learning_rate must be one of {LEARNING_RATES}")
        if self.optimizer not in OPTIMIZERS:
            raise DataError(f"optimizer must be one of {OPTIMIZERS}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise DataError("epochs and batch_size must be positive")
        object.__setattr__(self, "hidden_layers", layers)
        object.__setattr__(self, "regularization", (kind, float(value)))

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
    """The full Cartesian search grid (2520 configurations)."""
    layouts = [(w,) for w in HIDDEN_WIDTHS]
    layouts += [(w1, w2) for w1 in HIDDEN_WIDTHS for w2 in HIDDEN_WIDTHS]
    regs = [("dropout", r) for r in DROPOUT_RATES] + [("ridge", r) for r in RIDGE_PENALTIES]
    grid = []
    for layers, act, reg, lr, opt in itertools.product(
        layouts, ACTIVATIONS, regs, LEARNING_RATES, OPTIMIZERS
    ):
        grid.append(
            MlpConfig(
                hidden_layers=layers,
                activation=act,
                regularization=reg,
                learning_rate=lr,
                optimizer=opt,
                epochs=epochs,
                batch_size=batch_size,
            )
        )
    return grid


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

    @property
    def n_intervals(self) -> int:
        return self.cutpoints.size

    @property
    def p(self) -> int:
        return self.covariate_mean.size


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
    mean = table.covariates.mean(axis=0)
    std = table.covariates.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    X = np.hstack([(table.covariates - mean) / std, table.time_indicators])
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
        out[:, j] = _forward(model.weights, model.biases, model.config.activation, X)[0]
    return out


def predict_marginal_matrix(model: MlpModel, covariates) -> np.ndarray:
    """Marginal survival at every cutpoint: cumulative product over intervals."""
    return np.cumprod(predict_conditional_matrix(model, covariates), axis=1)


def predict_survival_curve(model: MlpModel, covariates) -> StepSurvivalCurve:
    """One subject's predicted marginal survival as a step curve."""
    marg = predict_marginal_matrix(model, np.atleast_2d(covariates))[0]
    return StepSurvivalCurve(model.cutpoints, marg, 1.0)


def predict_survival(model: MlpModel, covariates, eval_times) -> np.ndarray:
    """Predicted marginal survival at arbitrary times: shape (n, len(eval_times)).

    The step curve through the cutpoints: 1 before the first cutpoint, then
    the marginal survival at the latest cutpoint at or before each time.
    """
    marg = predict_marginal_matrix(model, covariates)
    t = np.atleast_1d(np.asarray(eval_times, dtype=float))
    idx = np.searchsorted(model.cutpoints, t, side="right") - 1
    return np.where(idx >= 0, marg[:, np.maximum(idx, 0)], 1.0)


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


# Worker-side state for process-parallel search; set once per worker process.
_SEARCH_CTX: dict | None = None


def _set_search_context(ctx: dict) -> None:
    global _SEARCH_CTX
    _SEARCH_CTX = ctx


def _score_config(config_idx: int) -> tuple[int, float]:
    """Cross-validate one config; used inline or inside a worker process."""
    ctx = _SEARCH_CTX
    config: MlpConfig = ctx["grid"][config_idx]
    fold_scores = []
    for fold, held in enumerate(ctx["folds"]):
        unit_seed = derived_seed(ctx["seed"], config.content_key(), fold)
        train_table = ctx["table"].subset_subjects(np.setdiff1d(ctx["subjects"], held))
        model = train(train_table, replace(config, seed=unit_seed))
        held_data = ctx["data"].subset(held)
        pred = predict_survival(model, held_data.covariates, ctx["times"])
        values, _ = c_index(held_data, pred, ctx["times"])
        score = float(np.nanmean(values)) if not np.all(np.isnan(values)) else -np.inf
        fold_scores.append(score)
    return config_idx, float(np.mean(fold_scores))


def grid_search(
    table: PseudoTable,
    data: Dataset,
    grid: Sequence[MlpConfig],
    k: int,
    eval_times: TimeGrid,
    budget: int = 20,
    seed: int = 0,
    n_jobs: int = 1,
    return_scores: bool = False,
):
    """Random Cartesian search: sample configs, score by subject-level k-fold CV.

    Folds partition subjects (never rows).  A config's score is the mean over
    folds of the average time-dependent concordance of its predicted marginal
    survival on the held-out subjects, evaluated at ``eval_times`` against
    ``data``.  The best config (ties break toward the lower grid index) is
    retrained on the full table.  Each training unit derives its seed from
    the config's hyperparameter content and the fold, so scores do not depend
    on grid order or on ``n_jobs`` (configs are scored in worker processes
    when ``n_jobs`` exceeds one).  With ``return_scores`` the per-config CV
    scores come back as a third value, keyed by grid index.
    """
    grid = list(grid)
    if budget > len(grid) or budget < 1:
        raise DataError("budget must be in 1..len(grid)")
    subjects = table.subjects()
    folds = make_cv_folds(subjects, k, seed)

    sample_rng = derived_rng(seed, "config-sample")
    chosen = np.sort(sample_rng.choice(len(grid), size=budget, replace=False))

    ctx = {
        "grid": grid,
        "table": table,
        "data": data,
        "folds": folds,
        "subjects": subjects,
        "times": np.asarray(eval_times.cutpoints, dtype=float),
        "seed": seed,
    }
    scores: dict[int, float] = {}
    if n_jobs > 1 and chosen.size > 1:
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, chosen.size),
            initializer=_set_search_context,
            initargs=(ctx,),
        ) as pool:
            for ci, score in pool.map(_score_config, [int(c) for c in chosen]):
                scores[ci] = score
    else:
        _set_search_context(ctx)
        try:
            for ci in chosen:
                idx, score = _score_config(int(ci))
                scores[idx] = score
        finally:
            _set_search_context(None)

    best_idx, best_score = None, -np.inf
    for ci in chosen:
        if scores[int(ci)] > best_score:
            best_idx, best_score = int(ci), scores[int(ci)]

    best = grid[best_idx]
    refit_seed = derived_seed(seed, best.content_key(), "refit")
    final_config = replace(best, seed=refit_seed)
    model = train(table, final_config)
    if return_scores:
        return final_config, model, scores
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
    """Persist a model as versioned JSON (full float precision)."""
    payload = {
        "format_version": 1,
        "config": {
            "hidden_layers": list(model.config.hidden_layers),
            "activation": model.config.activation,
            "regularization": [model.config.regularization[0], model.config.regularization[1]],
            "learning_rate": model.config.learning_rate,
            "optimizer": model.config.optimizer,
            "epochs": model.config.epochs,
            "batch_size": model.config.batch_size,
            "seed": model.config.seed,
        },
        "cutpoints": model.cutpoints.tolist(),
        "covariate_mean": model.covariate_mean.tolist(),
        "covariate_std": model.covariate_std.tolist(),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "training_log": model.training_log,
        "weight_norm_log": model.weight_norm_log,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> MlpModel:
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != 1:
        raise DataError(f"unsupported model format version: {version!r}")
    cfg = payload["config"]
    config = MlpConfig(
        hidden_layers=tuple(cfg["hidden_layers"]),
        activation=cfg["activation"],
        regularization=(cfg["regularization"][0], cfg["regularization"][1]),
        learning_rate=cfg["learning_rate"],
        optimizer=cfg["optimizer"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        seed=cfg["seed"],
    )
    return MlpModel(
        config=config,
        cutpoints=np.asarray(payload["cutpoints"], dtype=float),
        covariate_mean=np.asarray(payload["covariate_mean"], dtype=float),
        covariate_std=np.asarray(payload["covariate_std"], dtype=float),
        weights=[np.asarray(w, dtype=float) for w in payload["weights"]],
        biases=[np.asarray(b, dtype=float) for b in payload["biases"]],
        training_log=list(payload.get("training_log", [])),
        weight_norm_log=list(payload.get("weight_norm_log", [])),
    )
