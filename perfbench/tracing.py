"""The traced run: each module's public functions, called in pipeline order, in this process.

A span is recorded around every call into a layer (a module of
``src/pseudosurv``): its name ``<layer>.<what>``, start, end, parent span,
the counts measured at that boundary and, for the spans that ask for it,
the tracemalloc peak of the allocations made inside it.  Spans stay in
memory and are written to ``spans.json`` in the run's work directory at the
end.  Nothing under ``src/`` is changed or patched: the spans sit in the
benchmark's own code, around the calls.

The pipeline runs twice: once with tracing off, timed as a whole, and once
traced.  The difference between the two totals is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import pseudosurv as ps
from make_inputs import (
    COX_BASE_HAZARD,
    COX_BETA,
    IPCW_PERCENTILES,
    ipcw_cohort_data,
    train_aft_data,
    true_survival,
)

LAYERS = ("sim", "data", "cli", "cox", "estimators", "pseudo", "net", "metrics", "baselines")
CLI_IMPORT_REPEATS = 3


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    peak_mb: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``enabled=False`` records nothing and costs almost nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, memory: bool = False):
        """Record one span; yields the dict its counts go into.

        With ``memory`` tracemalloc runs only for the span's duration, so its
        cost stays out of the other spans and out of forked worker processes.
        """
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter() - self._origin)
        self.spans.append(s)
        self._stack.append(s)
        if memory:
            tracemalloc.start()
        try:
            yield s.counts
        finally:
            if memory:
                s.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            s.end = time.perf_counter() - self._origin
            self._stack.pop()

    def self_time(self) -> dict[int, float]:
        """Per span id: its duration minus the part its child spans cover."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def layer_self_times(self) -> dict[str, float]:
        own = self.self_time()
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            if layer in out:
                out[layer] += own[s.id]
        return out

    def first(self, name: str) -> Span:
        return next(s for s in self.spans if s.name == name)


@dataclass(frozen=True)
class Plan:
    """Sizes of the traced pipeline for one workload."""

    percentiles: tuple[float, ...]
    net_table: str  # "km" or "ipcw": the table the search trains on
    net_subjects: int | None  # search on the first k subjects only (None: all)
    gee_subjects: int | None
    budget: int
    folds: int
    epochs: int
    score_truth: bool  # metrics score the generator's truth instead of the net


PLANS = {
    "train_aft": Plan((0.1, 0.2, 0.3, 0.4, 0.5, 0.6), "km", None, None, 4, 3, 10, False),
    "ipcw_cohort": Plan(IPCW_PERCENTILES, "ipcw", 1000, 2000, 2, 3, 10, True),
    "simulate_cox": Plan(IPCW_PERCENTILES, "ipcw", None, None, 2, 3, 10, False),
}
NET_SEED = 1


def generate(workload: str, seed: int) -> tuple[ps.Dataset, ps.Dataset]:
    """The workload's inputs in memory: (train, test)."""
    if workload == "train_aft":
        return train_aft_data(seed)
    if workload == "ipcw_cohort":
        cohort = ipcw_cohort_data(seed)
        return cohort, cohort
    spec = dict(n=1000, base_hazard=COX_BASE_HAZARD, beta=COX_BETA, dependent_censoring=True)
    return ps.gen_cox(ps.CoxSimSpec(seed=seed, **spec)), ps.gen_cox(ps.CoxSimSpec(seed=seed + 1, **spec))


def computed_gflop(config: ps.MlpConfig, n_in: int, rows: int) -> float:
    """Forward (2) plus backward (4) flops per weight per row, times rows and epochs."""
    sizes = [n_in, *config.hidden_layers, 1]
    weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    return 6.0 * weights * rows * config.epochs / 1e9


def pipeline(workload: str, seed: int, workdir: Path, env: dict, tr: Tracer) -> dict:
    """Every layer's public functions in pipeline order; returns the counts and checks."""
    plan = PLANS[workload]
    nproc = os.cpu_count() or 1
    out: dict = {"checks": []}

    with tr.span("sim.gen"):
        train, test = generate(workload, seed)
    with tr.span("data.save"):
        ps.save_dataset(train, workdir / "train.csv")
        ps.save_dataset(test, workdir / "test.csv")
    with tr.span("data.load"):
        train = ps.load_dataset(workdir / "train.csv")
        test = ps.load_dataset(workdir / "test.csv")
    for _ in range(CLI_IMPORT_REPEATS):
        with tr.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import pseudosurv.cli"], env=env, check=True)

    with tr.span("pseudo.grid"):
        grid = ps.make_grid(train, percentiles=list(plan.percentiles))
    with tr.span("cox.fit") as c:
        censor_model = ps.fit_cox(train, target="censoring")
        c["iterations"] = len(censor_model.loglik_path) - 1
    with tr.span("cox.weights", memory=True) as c:
        weights = ps.censoring_weights(train, censor_model)
        c["weights_mb"] = weights.surv_values.nbytes / 2**20
    with tr.span("estimators.weights_at") as c:
        # the same evaluations pseudo_conditional makes: each interval's
        # residual event times, shifted back to absolute time
        at_cap = total = 0
        for j in range(grid.n_intervals):
            start = grid.interval_start(j)
            risk = train.time > start
            res_t, res_e = train.time[risk] - start, train.event[risk]
            u = np.unique(res_t[res_e])
            u = u[u <= grid.interval_end(j) - start]
            w = weights.weights_at(u + start)[risk]
            at_cap += int((w >= weights.cap).sum())
            total += w.size
        c["cap_share"] = at_cap / total
    with tr.span("pseudo.km"):
        table_km = ps.pseudo_conditional(train, grid)
    with tr.span("pseudo.ipcw", memory=True) as c:
        table_ipcw = ps.pseudo_conditional(train, grid, weights)
        c["rows"] = len(table_ipcw)
        c["outside_unit_share"] = float(np.mean((table_ipcw.pseudo < 0) | (table_ipcw.pseudo > 1)))
    starts = [grid.interval_start(j) for j in range(grid.n_intervals)]
    at_risk = sum(int((train.time > s).sum()) for s in starts)
    out["checks"].append(("pseudo rows equal the summed risk-set sizes",
                          len(table_ipcw) == at_risk == len(table_km), f"{len(table_ipcw)} rows"))
    table = table_km if plan.net_table == "km" else table_ipcw
    with tr.span("pseudo.to_csv"):
        table.to_csv(workdir / "pseudo.csv")

    if plan.net_subjects:
        table = table.subset_subjects(np.arange(plan.net_subjects))
    configs = ps.default_grid(epochs=plan.epochs)
    search = dict(k=plan.folds, eval_times=grid, budget=plan.budget, seed=NET_SEED)
    with tr.span("net.search") as c:
        best, model = ps.grid_search(table, train, configs, n_jobs=1, **search)
        c["units"] = plan.budget * plan.folds + 1
    with tr.span("net.search_parallel"):
        best_par, model_par = ps.grid_search(table, train, configs, n_jobs=nproc, **search)
    def same_model(a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases))

    out["checks"].append(("search picks the same config and weights at 1 and nproc workers",
                          best == best_par and same_model(model, model_par), ""))
    out["workers"] = min(nproc, plan.budget)
    with tr.span("net.train") as c:
        refit = ps.train(table, best)
        c["epochs"] = best.epochs
        c["gflop"] = computed_gflop(best, table.p + table.n_intervals, len(table))
    out["checks"].append(("refit reproduces the searched model", same_model(refit, model), ""))
    with tr.span("net.predict"):
        pred = ps.predict_marginal_matrix(model, test.covariates)
    if plan.score_truth:
        pred = true_survival(test.covariates[:, 0], grid.cutpoints)

    with tr.span("estimators.censoring_km"):
        censor_curve = ps.censoring_kaplan_meier(test)
    with tr.span("metrics.c_index") as c:
        c_vals, pairs = ps.c_index(test, pred, grid.cutpoints)
        c["pairs"] = int(pairs.sum())
    with tr.span("metrics.brier"):
        b_vals = ps.brier(test, pred, grid.cutpoints, censor_curve)
    out["checks"].append(("c-index and Brier are finite",
                          bool(np.isfinite(np.nanmean(c_vals)) and np.all(np.isfinite(b_vals))), ""))

    gee_data = train.subset(np.arange(plan.gee_subjects)) if plan.gee_subjects else train
    gee_grid = ps.make_grid(gee_data, percentiles=list(IPCW_PERCENTILES))
    with tr.span("baselines.gee"):
        ps.fit_gee(gee_data, gee_grid, ipcw=False)
    with tr.span("baselines.gee_ipcw", memory=True):
        ps.fit_gee(gee_data, gee_grid, ipcw=True)
    return out


UNITS = {
    "sim.gen_s": "s",
    "data.save_s": "s",
    "data.load_s": "s",
    "cli.import_s": "s",
    "cox.fit_s": "s",
    "cox.iterations": "count",
    "cox.weights_s": "s",
    "cox.weights_mb": "MB",
    "cox.weights_peak_mb": "MB",
    "estimators.weights_at_s": "s",
    "estimators.weights_at_cap_share": "1",
    "pseudo.km_s": "s",
    "pseudo.ipcw_s": "s",
    "pseudo.ipcw_peak_mb": "MB",
    "pseudo.rows": "count",
    "pseudo.outside_unit_share": "1",
    "pseudo.to_csv_s": "s",
    "net.search_s": "s",
    "net.search_parallel_s": "s",
    "net.search_parallel_efficiency": "1",
    "net.units": "count",
    "net.train_s": "s",
    "net.epoch_s": "s",
    "net.train_gflop": "GFLOP",
    "net.train_gflop_per_s": "GFLOP/s",
    "net.predict_s": "s",
    "metrics.c_index_s": "s",
    "metrics.brier_s": "s",
    "metrics.pairs": "count",
    "metrics.pairs_per_s": "1/s",
    "baselines.gee_s": "s",
    "baselines.gee_ipcw_s": "s",
    "baselines.gee_ipcw_peak_mb": "MB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def layer_metrics(tr: Tracer, out: dict, untraced_s: float) -> dict[str, float]:
    dur = {s.name: s.duration for s in reversed(tr.spans)}  # first span of each name wins
    first = tr.first
    search_s, parallel_s = dur["net.search"], dur["net.search_parallel"]
    train_span = first("net.train")
    m = {
        "sim.gen_s": dur["sim.gen"],
        "data.save_s": dur["data.save"],
        "data.load_s": dur["data.load"],
        "cli.import_s": statistics.median(s.duration for s in tr.spans if s.name == "cli.import"),
        "cox.fit_s": dur["cox.fit"],
        "cox.iterations": first("cox.fit").counts["iterations"],
        "cox.weights_s": dur["cox.weights"],
        "cox.weights_mb": first("cox.weights").counts["weights_mb"],
        "cox.weights_peak_mb": first("cox.weights").peak_mb,
        "estimators.weights_at_s": dur["estimators.weights_at"],
        "estimators.weights_at_cap_share": first("estimators.weights_at").counts["cap_share"],
        "pseudo.km_s": dur["pseudo.km"],
        "pseudo.ipcw_s": dur["pseudo.ipcw"],
        "pseudo.ipcw_peak_mb": first("pseudo.ipcw").peak_mb,
        "pseudo.rows": first("pseudo.ipcw").counts["rows"],
        "pseudo.outside_unit_share": first("pseudo.ipcw").counts["outside_unit_share"],
        "pseudo.to_csv_s": dur["pseudo.to_csv"],
        "net.search_s": search_s,
        "net.search_parallel_s": parallel_s,
        "net.search_parallel_efficiency": search_s / (out["workers"] * parallel_s),
        "net.units": first("net.search").counts["units"],
        "net.train_s": train_span.duration,
        "net.epoch_s": train_span.duration / train_span.counts["epochs"],
        "net.train_gflop": train_span.counts["gflop"],
        "net.train_gflop_per_s": train_span.counts["gflop"] / train_span.duration,
        "net.predict_s": dur["net.predict"],
        "metrics.c_index_s": dur["metrics.c_index"],
        "metrics.brier_s": dur["metrics.brier"],
        "metrics.pairs": first("metrics.c_index").counts["pairs"],
        "metrics.pairs_per_s": first("metrics.c_index").counts["pairs"] / dur["metrics.c_index"],
        "baselines.gee_s": dur["baselines.gee"],
        "baselines.gee_ipcw_s": dur["baselines.gee_ipcw"],
        "baselines.gee_ipcw_peak_mb": first("baselines.gee_ipcw").peak_mb,
    }
    for layer, value in tr.layer_self_times().items():
        m[f"{layer}.self_s"] = value
    m["trace.overhead_s"] = dur["workload"] - untraced_s
    return m


def traced_run(workload: str, seed: int, workdir: Path, env: dict) -> dict:
    untraced = Tracer(enabled=False)
    t0 = time.perf_counter()
    pipeline(workload, seed, workdir, env, untraced)
    untraced_s = time.perf_counter() - t0

    tr = Tracer()
    with tr.span("workload"):
        out = pipeline(workload, seed, workdir, env, tr)
    metrics = layer_metrics(tr, out, untraced_s)

    with open(workdir / "spans.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "untraced_total_s": untraced_s,
                   "spans": [asdict(s) for s in tr.spans]}, fh, indent=1)
        fh.write("\n")
    for name, ok, detail in out["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" [{detail}]" if detail else ""))
    print(f"{'span':28s} {'start':>9s} {'dur_s':>9s} {'self_s':>9s} {'peak_mb':>8s} counts")
    own = tr.self_time()
    for s in tr.spans:
        peak = f"{s.peak_mb:8.1f}" if s.peak_mb is not None else " " * 8
        print(f"{s.name:28s} {s.start:9.4f} {s.duration:9.4f} {own[s.id]:9.4f} {peak} "
              f"{s.counts or ''}")
    for name, value in metrics.items():
        print(f"{name:36s} {UNITS[name]:8s} {value:.6g}")
    print(f"untraced total {untraced_s:.4f} s, traced total {tr.first('workload').duration:.4f} s")
    failed = sum(not ok for _, ok, _ in out["checks"])
    return {
        "metrics": metrics,
        "units": UNITS,
        "attempted": len(tr.spans) + len(out["checks"]),
        "failed": failed,
    }
