"""Command-line entry point.

Subcommands: transform, train, predict, evaluate, simulate, split.  Every run
resolves its parameters (flags override an optional --config JSON, which
overrides built-in defaults) and writes the resolved configuration next to
its outputs so any run can be replayed bit-identically from that file alone.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import cox_predict_survival, fit_gee
from .cox import censoring_weights, fit_cox
from .data import Dataset, _parse_cell, load_dataset, save_dataset, split_dataset
from .errors import DataError, NumericError
from .estimators import censoring_kaplan_meier
from .metrics import evaluate_predictions
from .net import (
    default_grid,
    fit_and_evaluate,
    grid_search,
    load_model,
    predict_conditional_matrix,
    predict_survival,
    save_model,
)
from .pseudo import make_grid, pseudo_conditional
from .sim import (
    CoxSimSpec,
    FriedmanSpec,
    gen_cox,
    gen_friedman_aft,
    write_dataset_with_metadata,
)
from .util import derived_seed, fmt6

_COMMON = {"seed": 0, "threads": 0}
_PSEUDO = {
    "grid_percentiles": "0.1,0.2,0.3,0.4,0.5,0.6",
    "grid_times": None,
    "ipcw": False,
    "censor_covariates": None,
    "weight_cap": 20.0,
    "drop_incomplete": False,
}
_SEARCH = {"budget": 20, "folds": 5, "epochs": 100, "batch_size": 256}
_DEFAULTS = {
    "transform": {**_PSEUDO, **_COMMON},
    "train": {**_PSEUDO, **_SEARCH, **_COMMON},
    "predict": {"drop_incomplete": False, **_COMMON},
    "evaluate": {
        "predictions": None,
        "model": None,
        "times": None,
        "drop_incomplete": False,
        **_COMMON,
    },
    "simulate": {
        "study": "cox-dependent",
        "replicates": 10,
        "n": 2000,
        "censoring_rate": 0.4,
        "with_net": False,
        "emit_data": False,
        **_SEARCH,
        **_COMMON,
    },
    "split": {"fraction": 0.75, **_COMMON},
}


def _parse_floats(value) -> np.ndarray:
    """A number list: comma-separated text from a flag, or a list from a config file."""
    if not isinstance(value, str):
        return np.asarray(value, dtype=float)
    try:
        return np.array([float(part) for part in value.split(",") if part.strip() != ""])
    except ValueError:
        raise DataError(f"cannot parse number list {value!r}") from None


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    resolved = dict(_DEFAULTS[command])
    resolved.update({k: None for k in ("input", "output", "model", "model_out",
                                       "out", "train_out", "test_out") if k not in resolved})
    if getattr(args, "config", None):
        with open(args.config) as fh:
            stored = json.load(fh)
        if stored.get("command") not in (None, command):
            raise DataError(
                f"config file is for command {stored.get('command')!r}, not {command!r}"
            )
        for key, value in stored.items():
            if key not in ("command", "version"):
                resolved[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if value is not None:
            resolved[key] = value
    if not resolved.get("threads"):
        resolved["threads"] = os.cpu_count() or 1
    return resolved


def _write_config(resolved: dict, command: str, anchor: Path) -> None:
    payload = {"command": command, "version": __version__}
    # threads is an execution detail: results are independent of it by design
    payload.update({k: v for k, v in resolved.items() if k != "threads"})
    path = anchor / "config.json" if anchor.is_dir() else Path(str(anchor) + ".config.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grid_from(resolved: dict, data: Dataset):
    if resolved.get("grid_times"):
        return make_grid(data, times=_parse_floats(resolved["grid_times"]))
    return make_grid(data, percentiles=_parse_floats(resolved["grid_percentiles"]))


def _censor_names(resolved: dict):
    raw = resolved.get("censor_covariates")
    if raw in (None, "", []):
        return None
    return [s.strip() for s in raw.split(",")] if isinstance(raw, str) else list(raw)


def _maybe_weights(resolved: dict, data: Dataset):
    if not resolved["ipcw"]:
        return None, None
    names = _censor_names(resolved)
    model = fit_cox(data, target="censoring", covariates=names)
    weights = censoring_weights(data, model, cap=float(resolved["weight_cap"]))
    summary = {
        "covariates": list(model.covariate_names),
        "beta": model.beta.tolist(),
        "cap": weights.cap,
    }
    return weights, summary


def cmd_transform(resolved: dict) -> None:
    data = load_dataset(resolved["input"], drop_incomplete=resolved["drop_incomplete"])
    grid = _grid_from(resolved, data)
    weights, weight_summary = _maybe_weights(resolved, data)
    table = pseudo_conditional(data, grid, weights)
    out = Path(resolved["output"])
    table.to_csv(out)
    meta = {
        "n": len(data),
        "n_rows": len(table),
        "grid": grid.cutpoints.tolist(),
        "grid_quantile_basis": "all observed times",
        "censoring_rate": float(1.0 - data.event.mean()),
        "ipcw": bool(resolved["ipcw"]),
        "censoring_model": weight_summary,
    }
    with open(out.with_suffix(out.suffix + ".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    _write_config(resolved, "transform", out)


def cmd_train(resolved: dict) -> None:
    data = load_dataset(resolved["input"], drop_incomplete=resolved["drop_incomplete"])
    grid = _grid_from(resolved, data)
    weights, _ = _maybe_weights(resolved, data)
    table = pseudo_conditional(data, grid, weights)
    configs = default_grid(epochs=int(resolved["epochs"]), batch_size=int(resolved["batch_size"]))
    _, model = grid_search(
        table,
        data,
        configs,
        k=int(resolved["folds"]),
        eval_times=grid,
        budget=int(resolved["budget"]),
        seed=int(resolved["seed"]),
        n_jobs=int(resolved["threads"]),
    )
    out = Path(resolved["model_out"])
    save_model(model, out)
    _write_config(resolved, "train", out)


def cmd_predict(resolved: dict) -> None:
    model = load_model(resolved["model"])
    data = load_dataset(resolved["input"], drop_incomplete=resolved["drop_incomplete"])
    cond = predict_conditional_matrix(model, data.covariates)
    marg = np.cumprod(cond, axis=1)
    out = Path(resolved["output"])
    J = model.n_intervals
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id"] + [f"cond_{j}" for j in range(J)] + [f"marg_{j}" for j in range(J)]
        )
        for i in range(len(data)):
            writer.writerow([i] + [fmt6(v) for v in cond[i]] + [fmt6(v) for v in marg[i]])
    _write_config(resolved, "predict", out)


def _load_predictions(path, n_expected: int):
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
            rows.append([_parse_cell(c, lineno, name) for c, name in zip(raw[1:], header[1:])])
    if len(rows) != n_expected:
        raise DataError(f"predictions have {len(rows)} rows, data has {n_expected}")
    return np.asarray(rows, dtype=float)[row_of], np.asarray(times, dtype=float)


def cmd_evaluate(resolved: dict) -> None:
    data = load_dataset(resolved["input"], drop_incomplete=resolved["drop_incomplete"])
    if (resolved.get("model") is None) == (resolved.get("predictions") is None):
        raise DataError("provide exactly one of --model or --predictions")
    if resolved.get("model"):
        model = load_model(resolved["model"])
        times = _parse_floats(resolved["times"]) if resolved.get("times") else model.cutpoints
        pred = predict_survival(model, data.covariates, times)
    else:
        pred, times = _load_predictions(resolved["predictions"], len(data))
    report = evaluate_predictions(data, pred, times, censoring_kaplan_meier(data))
    out = Path(resolved["output"])
    report.to_csv(out)
    report.to_json(out.with_suffix(out.suffix + ".json"))
    _write_config(resolved, "evaluate", out)


def cmd_split(resolved: dict) -> None:
    data = load_dataset(resolved["input"], drop_incomplete=False)
    train_part, test_part = split_dataset(
        data, fraction=float(resolved["fraction"]), seed=int(resolved["seed"])
    )
    save_dataset(train_part, resolved["train_out"])
    save_dataset(test_part, resolved["test_out"])
    _write_config(resolved, "split", Path(resolved["train_out"]))


def _scores(label: str, report) -> dict:
    return {
        f"c_index_{label}": float(np.nanmean(report.c_index)),
        f"brier_{label}": float(np.mean(report.brier)),
    }


def _cox_scores(train_data: Dataset, test_data: Dataset, grid) -> dict:
    """The linear Cox baseline scored on the test data at the grid cutpoints."""
    cox_model = fit_cox(train_data, target="event")
    pred = cox_predict_survival(cox_model, test_data.covariates, grid.cutpoints)
    return _scores("cox", evaluate_predictions(test_data, pred, grid.cutpoints))


def _search_args(resolved: dict) -> dict:
    return {
        "configs": default_grid(
            epochs=int(resolved["epochs"]), batch_size=int(resolved["batch_size"])
        ),
        "k": int(resolved["folds"]),
        "budget": int(resolved["budget"]),
        "n_jobs": int(resolved["threads"]),
    }


def _simulate_cox_replicate(resolved: dict, rep: int) -> dict:
    seed = int(resolved["seed"])
    dependent = resolved["study"] == "cox-dependent"
    spec_kwargs = dict(n=int(resolved["n"]), dependent_censoring=dependent)
    if not dependent:
        spec_kwargs["censoring_rate"] = float(resolved["censoring_rate"])
    spec = CoxSimSpec(seed=derived_seed(seed, "cox-train", rep), **spec_kwargs)
    train_data, info = gen_cox(spec, return_info=True)
    if resolved["emit_data"]:
        write_dataset_with_metadata(
            train_data, info, Path(resolved["out"]) / f"replicate_{rep}_data.csv"
        )
    grid = make_grid(train_data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
    gee = fit_gee(train_data, grid, ipcw=False)
    gee_ipcw = fit_gee(train_data, grid, ipcw=True)
    row = {
        "replicate": rep,
        "censoring_rate": float(1.0 - train_data.event.mean()),
        "beta_gee": float(gee.beta[0]),
        "beta_gee_ipcw": float(gee_ipcw.beta[0]),
    }
    if resolved["with_net"]:
        row.update(_net_comparison_cox(resolved, rep, train_data, grid))
    return row


def _net_comparison_cox(resolved: dict, rep: int, train_data: Dataset, grid) -> dict:
    seed = int(resolved["seed"])
    test_data = gen_cox(
        CoxSimSpec(
            n=int(resolved["n"]),
            dependent_censoring=resolved["study"] == "cox-dependent",
            censoring_rate=float(resolved["censoring_rate"]),
            seed=derived_seed(seed, "cox-test", rep),
        )
    )
    ipcw_weights = censoring_weights(train_data, fit_cox(train_data, target="censoring"))
    search = _search_args(resolved)
    out: dict = {}
    for label, weights in (("net", None), ("net_ipcw", ipcw_weights)):
        _, report = fit_and_evaluate(
            train_data, test_data, grid, weights=weights, seed=derived_seed(seed, label, rep),
            **search,
        )
        out.update(_scores(label, report))
    out.update(_cox_scores(train_data, test_data, grid))
    return out


def _simulate_aft_replicate(resolved: dict, rep: int) -> dict:
    seed = int(resolved["seed"])
    data, info = gen_friedman_aft(
        FriedmanSpec(
            n=int(resolved["n"]),
            censoring_rate=float(resolved["censoring_rate"]),
            seed=derived_seed(seed, "aft", rep),
        ),
        return_info=True,
    )
    if resolved["emit_data"]:
        write_dataset_with_metadata(
            data, info, Path(resolved["out"]) / f"replicate_{rep}_data.csv"
        )
    train_data, test_data = split_dataset(data, 0.75, seed=derived_seed(seed, "aft-split", rep))
    grid = make_grid(train_data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    _, report_net = fit_and_evaluate(
        train_data, test_data, grid, seed=derived_seed(seed, "aft-net", rep),
        **_search_args(resolved),
    )
    return {
        "replicate": rep,
        "censoring_rate": float(1.0 - data.event.mean()),
        **_scores("net", report_net),
        **_cox_scores(train_data, test_data, grid),
    }


def cmd_simulate(resolved: dict) -> None:
    study = resolved["study"]
    if study not in ("aft", "cox-dependent", "cox-independent"):
        raise DataError("study must be aft, cox-dependent, or cox-independent")
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    reps = list(range(int(resolved["replicates"])))
    worker = _simulate_aft_replicate if study == "aft" else _simulate_cox_replicate
    threads = int(resolved["threads"])
    if threads > 1 and len(reps) > 1:
        # replicates take the worker processes; searches inside each run serial.
        # Each replicate derives its own randomness, so rows match at any count.
        inner = functools.partial(worker, dict(resolved, threads=1))
        with ProcessPoolExecutor(max_workers=min(threads, len(reps))) as pool:
            rows = list(pool.map(inner, reps))
    else:
        rows = [worker(resolved, rep) for rep in reps]

    columns = list(rows[0].keys())
    with open(out_dir / "replicates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt6(row[c]) if c != "replicate" else row[c] for c in columns])

    summary_cols = [c for c in columns if c != "replicate"]
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "mean", "sd"])
        for col in summary_cols:
            vals = np.array([row[col] for row in rows], dtype=float)
            writer.writerow([col, fmt6(np.mean(vals)), fmt6(np.std(vals))])
        if study != "aft":
            for col in ("beta_gee", "beta_gee_ipcw"):
                vals = np.array([row[col] for row in rows], dtype=float)
                writer.writerow([f"{col}_mse_vs_1", fmt6(np.mean((vals - 1.0) ** 2)), ""])
    _write_config(resolved, "simulate", out_dir)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosurv",
        description="Pseudo-value survival prediction: transform, train, predict, evaluate, simulate, split.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="resolved-config JSON to replay")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int, help="0 = all available cores")

    def pseudo_flags(p):
        p.add_argument("--grid-percentiles", dest="grid_percentiles")
        p.add_argument("--grid-times", dest="grid_times")
        p.add_argument("--ipcw", action="store_const", const=True)
        p.add_argument("--censor-covariates", dest="censor_covariates")
        p.add_argument("--weight-cap", dest="weight_cap", type=float)
        p.add_argument(
            "--drop-incomplete", dest="drop_incomplete", action="store_const", const=True
        )

    def search_flags(p):
        p.add_argument("--budget", type=int)
        p.add_argument("--folds", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)

    p = sub.add_parser("transform", help="build the pseudo-value table CSV")
    common(p)
    p.add_argument("--input")
    p.add_argument("--output")
    pseudo_flags(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="hyperparameter search, fit, and persist the model")
    common(p)
    p.add_argument("--input")
    p.add_argument("--model-out", dest="model_out")
    pseudo_flags(p)
    search_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="per-subject conditional and marginal survival")
    common(p)
    p.add_argument("--model")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--drop-incomplete", dest="drop_incomplete", action="store_const", const=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="c-index and Brier score report")
    common(p)
    p.add_argument("--input")
    p.add_argument("--model")
    p.add_argument("--predictions")
    p.add_argument("--times")
    p.add_argument("--output")
    p.add_argument("--drop-incomplete", dest="drop_incomplete", action="store_const", const=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="run a synthetic study end to end")
    common(p)
    p.add_argument("--study", choices=["aft", "cox-dependent", "cox-independent"])
    p.add_argument("--replicates", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--censoring-rate", dest="censoring_rate", type=float)
    p.add_argument("--with-net", dest="with_net", action="store_const", const=True)
    p.add_argument("--emit-data", dest="emit_data", action="store_const", const=True)
    search_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("split", help="seeded train/test split of a dataset CSV")
    common(p)
    p.add_argument("--input")
    p.add_argument("--train-out", dest="train_out")
    p.add_argument("--test-out", dest="test_out")
    p.add_argument("--fraction", type=float)
    p.set_defaults(func=cmd_split)
    return parser


_REQUIRED = {
    "transform": ("input", "output"),
    "train": ("input", "model_out"),
    "predict": ("model", "input", "output"),
    "evaluate": ("input", "output"),
    "simulate": ("out",),
    "split": ("input", "train_out", "test_out"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _resolve(args.command, args)
        for key in _REQUIRED[args.command]:
            if not resolved.get(key):
                raise DataError(f"missing required option --{key.replace('_', '-')}")
        args.func(resolved)
    except (DataError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
