"""Command-line entry point.

Subcommands: transform, train, predict, evaluate, simulate, split.  Every run
resolves its parameters (flags override an optional --config JSON, which
overrides built-in defaults) and writes the resolved configuration next to
its outputs so any run can be replayed bit-identically from that file alone.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    load_dataset,
    load_predictions,
    read_json,
    save_dataset,
    split_dataset,
    write_csv,
    write_json,
)
from .errors import DataError, NumericError
from .util import derived_seed, one_blas_thread, parallel_map, usable_cpus

_PSEUDO = {
    "grid_percentiles": "0.1,0.2,0.3,0.4,0.5,0.6",
    "grid_times": None,
    "ipcw": False,
    "censor_covariates": None,
    "weight_cap": 20.0,
    "drop_incomplete": False,
}
_SEARCH = {"budget": 20, "folds": 5, "epochs": 100, "batch_size": 256, "seed": 0, "threads": 0}
# text options that a config file may also give as a JSON list, with the item type
_LISTS = {"grid_percentiles": (int, float), "grid_times": (int, float), "times": (int, float),
          "censor_covariates": str}


def _parse_floats(value) -> np.ndarray:
    """A finite number list: comma-separated text from a flag, or a list from a config file."""
    parts = [part for part in value.split(",") if part.strip()] if isinstance(value, str) else value
    try:
        numbers = np.array([float(part) for part in parts])
        if np.all(np.isfinite(numbers)):
            return numbers
    except ValueError:
        pass
    raise DataError(f"cannot parse number list {value!r} as finite numbers")


def _accepts(key: str, default, value) -> bool:
    """Whether a config file may set option ``key``, whose default is ``default``, to ``value``."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(value, list) and key in _LISTS:
        return all(isinstance(v, _LISTS[key]) and not isinstance(v, bool) for v in value)
    return isinstance(value, str) or value is None and default is None


def _read_config(path, command: str, defaults: dict) -> dict:
    """The options a config file sets, each checked against its default and of its type."""
    stored = read_json(path)
    if not isinstance(stored, dict):
        raise DataError(f"{path}: a config file must be a JSON object")
    if stored.get("command") not in (None, command):
        raise DataError(
            f"{path}: config file is for command {stored['command']!r}, not {command!r}"
        )
    # configs written before each command stored only its own options also hold the other
    # commands' paths as null, and a seed that the commands without one never read
    paths = {key for _, _, required, _ in _COMMANDS.values() for key in required}
    options = {}
    for key, value in stored.items():
        if key not in defaults:
            if key in ("command", "version", "seed") or key in paths and value is None:
                continue
            raise DataError(f"{path}: unknown key {key!r}")
        if not _accepts(key, defaults[key], value):
            raise DataError(f"{path}: {key} cannot be {json.dumps(value)} "
                            f"(default {json.dumps(defaults[key])})")
        options[key] = float(value) if isinstance(defaults[key], float) else value
    return options


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    *_, required, options = _COMMANDS[command]
    resolved = {**dict.fromkeys(required), **options}
    if args.config == "":
        raise DataError("--config is empty")
    if args.config:
        resolved.update(_read_config(args.config, command, resolved))
    for key, value in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if value is not None:
            resolved[key] = value
    for key in ("model", "predictions"):
        if resolved.get(key) == "":
            raise DataError(f"--{key} is empty")
    if resolved.get("threads", 0) < 0:
        raise DataError("threads must be 0 (all cores) or more")
    if resolved.get("threads") == 0:
        resolved["threads"] = usable_cpus()
    for key in required:
        if not resolved[key]:
            raise DataError(f"missing required option --{key.replace('_', '-')}")
    return resolved


def _write_config(resolved: dict, command: str, anchor: Path) -> None:
    payload = {"command": command, "version": __version__}
    # threads is an execution detail: results are independent of it by design
    payload.update({k: v for k, v in resolved.items() if k != "threads"})
    path = anchor / "config.json" if anchor.is_dir() else Path(str(anchor) + ".config.json")
    write_json(path, payload, indent=2, sort_keys=True)


def _censor_names(resolved: dict):
    raw = resolved.get("censor_covariates")
    if raw in (None, "", []):
        return None
    return [s.strip() for s in raw.split(",")] if isinstance(raw, str) else list(raw)


def _pseudo_table(resolved: dict):
    """The input, its grid, its pseudo-value table (IPCW with --ipcw) and the censoring summary."""
    from .pseudo import make_grid, pseudo_conditional
    data = load_dataset(resolved["input"], drop_incomplete=resolved["drop_incomplete"])
    if resolved.get("grid_times"):
        grid = make_grid(data, times=_parse_floats(resolved["grid_times"]))
    else:
        grid = make_grid(data, percentiles=_parse_floats(resolved["grid_percentiles"]))
    weights = summary = None
    if resolved["ipcw"]:
        from .cox import censoring_weights, fit_cox
        model = fit_cox(data, target="censoring", covariates=_censor_names(resolved))
        weights = censoring_weights(data, model, cap=resolved["weight_cap"])
        summary = {
            "covariates": list(model.covariate_names),
            "beta": model.beta.tolist(),
            "cap": weights.cap,
        }
    return data, grid, pseudo_conditional(data, grid, weights), summary


def cmd_transform(resolved: dict) -> None:
    data, grid, table, weight_summary = _pseudo_table(resolved)
    out = Path(resolved["output"])
    table.to_csv(out)
    meta = {
        "n": len(data),
        "n_rows": len(table),
        "grid": grid.cutpoints.tolist(),
        "grid_quantile_basis": "all observed times",
        "censoring_rate": float(1.0 - data.event.mean()),
        "ipcw": resolved["ipcw"],
        "censoring_model": weight_summary,
    }
    write_json(out.with_suffix(out.suffix + ".meta.json"), meta, indent=2)
    _write_config(resolved, "transform", out)


def cmd_train(resolved: dict) -> None:
    from .net import default_grid, grid_search, save_model
    data, grid, table, _ = _pseudo_table(resolved)
    configs = default_grid(epochs=resolved["epochs"], batch_size=resolved["batch_size"])
    _, model = grid_search(table, data, configs, k=resolved["folds"], eval_times=grid,
                           budget=resolved["budget"], seed=resolved["seed"],
                           n_jobs=resolved["threads"])
    out = Path(resolved["model_out"])
    save_model(model, out)
    _write_config(resolved, "train", out)


def _model_covariates(model, data: Dataset) -> np.ndarray:
    """The covariates in the model's column order, matched by name (v1 models: as given)."""
    names, given = model.covariate_names, list(data.covariate_names)
    if names is None:
        return data.covariates
    missing = [name for name in names if name not in given]
    extra = [name for name in given if name not in names or given.count(name) > 1]
    if missing or extra:
        raise DataError(f"covariates do not match the model: missing {missing}, extra {extra}")
    return data.covariates[:, [given.index(name) for name in names]]


def cmd_predict(resolved: dict) -> None:
    from .net import load_model, predict_conditional_matrix
    model = load_model(resolved["model"])
    data = load_dataset(resolved["input"], drop_incomplete=resolved["drop_incomplete"])
    cond = predict_conditional_matrix(model, _model_covariates(model, data))
    marg = np.cumprod(cond, axis=1)
    out = Path(resolved["output"])
    J = model.n_intervals
    header = ["id"] + [f"cond_{j}" for j in range(J)] + [f"marg_{j}" for j in range(J)]
    write_csv(out, header, [np.arange(len(data)), *cond.T, *marg.T])
    _write_config(resolved, "predict", out)


def cmd_evaluate(resolved: dict) -> None:
    from .metrics import evaluate_predictions
    data = load_dataset(resolved["input"], drop_incomplete=resolved["drop_incomplete"])
    if (resolved.get("model") is None) == (resolved.get("predictions") is None):
        raise DataError("provide exactly one of --model or --predictions")
    if resolved.get("model") is not None:
        from .net import load_model, predict_survival
        model = load_model(resolved["model"])
        times = _parse_floats(resolved["times"]) if resolved.get("times") else model.cutpoints
        pred = predict_survival(model, _model_covariates(model, data), times)
    elif resolved.get("times") is not None:
        raise DataError("--times applies only with --model")
    else:
        pred, times = load_predictions(resolved["predictions"], len(data))
    report = evaluate_predictions(data, pred, times)
    out = Path(resolved["output"])
    report.to_csv(out)
    report.to_json(out.with_suffix(out.suffix + ".json"))
    _write_config(resolved, "evaluate", out)


def cmd_split(resolved: dict) -> None:
    data = load_dataset(resolved["input"], drop_incomplete=False)
    train_part, test_part = split_dataset(data, resolved["fraction"], seed=resolved["seed"])
    save_dataset(train_part, resolved["train_out"])
    save_dataset(test_part, resolved["test_out"])
    _write_config(resolved, "split", Path(resolved["train_out"]))


def _scores(label: str, report) -> dict:
    return {
        f"c_index_{label}": float(np.nanmean(report.c_index)),
        f"brier_{label}": float(np.mean(report.brier)),
    }


def _replicate(resolved: dict, rep: int) -> dict:
    """One row of a study: its data, the GEE coefficients (cox studies) and the test scores.

    Every draw derives from the study seed, a fixed label and ``rep``, so rows
    do not depend on the order or the process they are computed in.
    """
    from .baselines import cox_predict_survival, fit_gee
    from .cox import censoring_weights, fit_cox
    from .metrics import evaluate_predictions
    from .net import default_grid, fit_and_evaluate
    from .pseudo import make_grid
    from .sim import (CoxSimSpec, FriedmanSpec, gen_cox, gen_friedman_aft,
                      write_dataset_with_metadata)
    seed, study, n, rate = (resolved[key] for key in ("seed", "study", "n", "censoring_rate"))
    if study == "aft":
        spec = FriedmanSpec(n=n, censoring_rate=rate, seed=derived_seed(seed, "aft", rep))
        data, info = gen_friedman_aft(spec, return_info=True)
    else:
        spec = CoxSimSpec(n=n, dependent_censoring=study == "cox-dependent", censoring_rate=rate,
                          seed=derived_seed(seed, "cox-train", rep))
        data, info = gen_cox(spec, return_info=True)
    if resolved["emit_data"]:
        write_dataset_with_metadata(data, info, Path(resolved["out"]) / f"replicate_{rep}_data.csv")
    row = {"replicate": rep, "censoring_rate": float(1.0 - data.event.mean())}
    if study == "aft":
        train_data, test_data = split_dataset(data, 0.75, seed=derived_seed(seed, "aft-split", rep))
        grid = make_grid(train_data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        runs = [("net", None, "aft-net")]
    else:
        train_data = data
        grid = make_grid(train_data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
        row["beta_gee"] = float(fit_gee(train_data, grid, ipcw=False).beta[0])
        row["beta_gee_ipcw"] = float(fit_gee(train_data, grid, ipcw=True).beta[0])
        if not resolved["with_net"]:
            return row
        test_data = gen_cox(replace(spec, seed=derived_seed(seed, "cox-test", rep)))
        ipcw = censoring_weights(train_data, fit_cox(train_data, target="censoring"))
        runs = [("net", None, "net"), ("net_ipcw", ipcw, "net_ipcw")]
    configs = default_grid(epochs=resolved["epochs"], batch_size=resolved["batch_size"])
    for label, weights, seed_label in runs:
        _, report = fit_and_evaluate(
            train_data, test_data, grid, configs, weights=weights, k=resolved["folds"],
            budget=resolved["budget"], seed=derived_seed(seed, seed_label, rep),
            n_jobs=resolved["threads"],
        )
        row.update(_scores(label, report))
    cox_pred = cox_predict_survival(fit_cox(train_data), test_data.covariates, grid.cutpoints)
    row.update(_scores("cox", evaluate_predictions(test_data, cox_pred, grid.cutpoints)))
    return row


def cmd_simulate(resolved: dict) -> None:
    study = resolved["study"]
    if study not in ("aft", "cox-dependent", "cox-independent"):
        raise DataError("study must be aft, cox-dependent, or cox-independent")
    if resolved["replicates"] < 1:
        raise DataError("replicates must be at least 1")
    if study == "cox-independent" and resolved["censoring_rate"] == 0:
        raise DataError("--censoring-rate must be above 0: "
                        "the cox-independent study models censoring")
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    reps = range(resolved["replicates"])
    # what a replicate runs, loaded before a pool forks so that its workers inherit it
    from . import baselines, net, sim  # noqa: F401
    # several replicates take the workers and search serially, a lone one's search takes
    # them; rows derive their own randomness, so they match at any thread count
    shared = dict(resolved, threads=1) if len(reps) > 1 else resolved
    rows = parallel_map(_replicate, shared, reps, resolved["threads"])

    columns = list(rows[0].keys())
    values = {c: np.array([row[c] for row in rows]) for c in columns}
    write_csv(out_dir / "replicates.csv", columns, list(values.values()))

    stats, mse = columns[1:], [] if study == "aft" else ["beta_gee", "beta_gee_ipcw"]
    names = stats + [f"{col}_mse_vs_1" for col in mse]
    means = [np.mean(values[c]) for c in stats] + [np.mean((values[c] - 1.0) ** 2) for c in mse]
    sds = [format(np.std(values[c]), ".6g") for c in stats] + [""] * len(mse)
    write_csv(out_dir / "summary.csv", ["quantity", "mean", "sd"], [names, np.array(means), sds])
    _write_config(resolved, "simulate", out_dir)


# command: (help, handler, required path options, options with their defaults);
# every command also takes --config.  This table is each command's whole interface: its
# flags, the keys of its config.json (all but threads) and, by each default, their types.
_COMMANDS = {
    "transform": ("build the pseudo-value table CSV", cmd_transform, ("input", "output"), _PSEUDO),
    "train": ("hyperparameter search, fit, and persist the model", cmd_train,
              ("input", "model_out"), {**_PSEUDO, **_SEARCH}),
    "predict": ("per-subject conditional and marginal survival", cmd_predict,
                ("model", "input", "output"), {"drop_incomplete": False}),
    "evaluate": ("c-index and Brier score report", cmd_evaluate, ("input", "output"),
                 {"predictions": None, "model": None, "times": None, "drop_incomplete": False}),
    "simulate": ("run a synthetic study end to end", cmd_simulate, ("out",),
                 {"study": "cox-dependent", "replicates": 10, "n": 2000, "censoring_rate": 0.4,
                  "with_net": False, "emit_data": False, **_SEARCH}),
    "split": ("seeded train/test split of a dataset CSV", cmd_split,
              ("input", "train_out", "test_out"), {"fraction": 0.75, "seed": 0}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosurv",
        description="Pseudo-value survival prediction: "
                    "transform, train, predict, evaluate, simulate, split.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, required, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="resolved-config JSON to replay")
        for name, default in {**dict.fromkeys(required), **options}.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, dest=name, action="store_const", const=True)
            else:
                kind = type(default) if isinstance(default, (int, float)) else None
                p.add_argument(flag, dest=name, type=kind)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a library warning prints as one line, without its source location
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        resolved = _resolve(args.command, args)
        with one_blas_thread():  # the workers, not BLAS, take the cores
            args.func(resolved)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
