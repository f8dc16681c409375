"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single ``criterion N: PASS/FAIL`` line so the suite doubles
as a checklist.  The heavier studies share session-scoped fixtures.
"""

import csv
import warnings

import numpy as np
import pytest

import pseudosurv as ps
from pseudosurv.cli import main as cli_main
from pseudosurv.net import _loss_and_grads
from pseudosurv.util import derived_seed

from oracles import pseudo_marginal_naive


def _criterion(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _search_grid(epochs=100):
    """Curated configuration list used by the simulation-study criteria."""
    configs = []
    for hidden in ((32,), (64,), (64, 32)):
        for activation in ("relu", "tanh"):
            configs.append(
                ps.MlpConfig(
                    hidden_layers=hidden,
                    activation=activation,
                    regularization=("ridge", 1e-3),
                    learning_rate=0.01,
                    optimizer="adam",
                    epochs=epochs,
                    batch_size=256,
                )
            )
    return configs


def _fit_and_score(train_data, test_data, levels, seed, budget_grid, k=5):
    """Grid-search the regressor on one replicate and score it beside Cox."""
    grid = ps.make_grid(train_data, percentiles=levels)
    _, report_net = ps.fit_and_evaluate(
        train_data, test_data, grid, budget_grid, k=k, budget=len(budget_grid), seed=seed
    )
    return report_net, _cox_report(train_data, test_data, grid)


def _cox_report(train_data, test_data, grid):
    """The linear Cox baseline scored at the grid cutpoints."""
    cox = ps.fit_cox(train_data, target="event")
    pred = ps.cox_predict_survival(cox, test_data.covariates, grid.cutpoints)
    return ps.evaluate_predictions(test_data, pred, grid.cutpoints)


@pytest.fixture(scope="session")
def friedman_study():
    """Five replicates of the nonlinear AFT comparison, 6 and 2 intervals."""
    six_levels = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    two_levels = [0.2, 0.4]
    rows = []
    grid_cfgs = _search_grid()
    for rep in range(5):
        data = ps.gen_friedman_aft(
            ps.FriedmanSpec(n=2000, censoring_rate=0.4, seed=derived_seed(1000, "aft", rep))
        )
        train_data, test_data = ps.split_dataset(data, 0.75, seed=rep)
        net6, cox6 = _fit_and_score(train_data, test_data, six_levels, 100 + rep, grid_cfgs)
        net2, _ = _fit_and_score(train_data, test_data, two_levels, 200 + rep, grid_cfgs)
        rows.append({"net6": net6, "cox6": cox6, "net2": net2})
    return rows


@pytest.fixture(scope="session")
def dependent_censoring_study():
    """Three replicates of the covariate-dependent censoring comparison."""
    grid_cfgs = _search_grid()[:4]
    out = []
    for rep in range(3):
        train_data = ps.gen_cox(
            ps.CoxSimSpec(n=2000, dependent_censoring=True, seed=derived_seed(2000, "tr", rep))
        )
        test_data = ps.gen_cox(
            ps.CoxSimSpec(n=2000, dependent_censoring=True, seed=derived_seed(2000, "te", rep))
        )
        grid = ps.make_grid(train_data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
        censor_model = ps.fit_cox(train_data, target="censoring")
        ipcw = ps.censoring_weights(train_data, censor_model, cap=20.0)
        reports = {"cox": _cox_report(train_data, test_data, grid)}
        for label, weights in (("plain", None), ("ipcw", ipcw)):
            _, reports[label] = ps.fit_and_evaluate(
                train_data, test_data, grid, grid_cfgs, weights=weights,
                k=3, budget=len(grid_cfgs), seed=300 + rep,
            )
        out.append(reports)
    return out


class TestCriterion1GeeBias:
    def test_gee_bias_reproduction(self):
        betas, betas_ipcw = [], []
        for rep in range(20):
            data = ps.gen_cox(
                ps.CoxSimSpec(n=2000, dependent_censoring=True, seed=derived_seed(42, "gee", rep))
            )
            grid = ps.make_grid(data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
            betas.append(ps.fit_gee(data, grid, ipcw=False).beta[0])
            betas_ipcw.append(ps.fit_gee(data, grid, ipcw=True).beta[0])
        mean_plain = float(np.mean(betas))
        mean_ipcw = float(np.mean(betas_ipcw))
        ok = 0.70 <= mean_plain <= 0.87 and 0.93 <= mean_ipcw <= 1.07
        _criterion(
            1, ok,
            f"20-replicate mean beta: GEE {mean_plain:.3f} in [0.70, 0.87], "
            f"GEE_ipcw {mean_ipcw:.3f} in [0.93, 1.07]",
        )


class TestCriterion2OracleEquivalence:
    def test_fast_leave_one_out_matches_naive_refit(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        sizes = [10, 50, 200]
        for case in range(50):
            n = sizes[case % 3]
            times = rng.exponential(5.0, n) + 0.05
            if case % 4 == 0:
                times = np.round(times, 1) + 0.05  # provoke ties
            events = rng.random(n) < rng.uniform(0.4, 0.9)
            if not events.any():
                events[0] = True
            data = ps.Dataset(times, events, np.empty((n, 0)), ())
            for q in (0.3, 0.7):
                t = float(np.quantile(times, q))
                fast = ps.pseudo_marginal(data, t)
                naive = pseudo_marginal_naive(data, t)
                worst = max(worst, float(np.max(np.abs(fast - naive))))
        ok = worst <= 1e-10
        _criterion(2, ok, f"max |fast - naive| = {worst:.2e} over 50 censored datasets")


class TestCriterion3UncensoredExactness:
    def test_pseudo_values_binary_on_uncensored_data(self):
        rng = np.random.default_rng(31)
        checked = 0
        ok = True
        for _ in range(100):
            n = int(rng.integers(5, 80))
            times = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0], n) + rng.integers(0, 3)
            data = ps.Dataset(times, np.ones(n, dtype=bool), np.empty((n, 0)), ())
            levels = np.sort(rng.uniform(0.05, 0.7, size=int(rng.integers(1, 5))))
            cuts = np.unique(np.quantile(times, levels))
            cuts = cuts[(cuts > 0) & (cuts < times.max())]
            if cuts.size == 0:
                continue
            grid = ps.TimeGrid(cuts)
            for t in cuts:
                vals = ps.pseudo_marginal(data, float(t))
                ok &= np.array_equal(vals, (times > t).astype(float))
            if min(int((times > grid.interval_start(j)).sum()) for j in range(cuts.size)) >= 2:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    table = ps.pseudo_conditional(data, grid)
                expected = (times[table.subject_ids] > cuts[table.time_index]).astype(float)
                ok &= np.array_equal(table.pseudo, expected)
            checked += 1
        ok = ok and checked >= 90
        _criterion(3, ok, f"exact 0/1 pseudo values on {checked} random uncensored instances")


class TestCriterion4GradientCorrectness:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        config = ps.MlpConfig(
            hidden_layers=(16, 8),
            activation="tanh",
            regularization=("ridge", 1e-3),
            learning_rate=0.001,
            optimizer="adam",
            epochs=1,
            batch_size=32,
            seed=0,
        )
        sizes = [7, 16, 8, 1]
        weights = [rng.standard_normal((a, b)) * 0.4 for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
        X = rng.standard_normal((20, 7))
        y = rng.random(20) * 1.4 - 0.2  # targets partly outside [0, 1], as pseudo values are

        _, g_w, g_b = _loss_and_grads(weights, biases, config, X, y)
        h = 1e-6
        rel_errors = []
        for _ in range(24):
            layer = int(rng.integers(len(weights)))
            if rng.random() < 0.8:
                flat = weights[layer].ravel()
                grad_flat = g_w[layer].ravel()
            else:
                flat = biases[layer]
                grad_flat = g_b[layer]
            pos = int(rng.integers(flat.size))
            orig = flat[pos]
            flat[pos] = orig + h
            up = _loss_and_grads(weights, biases, config, X, y)[0]
            flat[pos] = orig - h
            down = _loss_and_grads(weights, biases, config, X, y)[0]
            flat[pos] = orig
            fd = (up - down) / (2 * h)
            rel_errors.append(abs(grad_flat[pos] - fd) / max(abs(fd), 1e-10))
        worst = max(rel_errors)
        ok = worst <= 1e-5 and len(rel_errors) >= 20
        _criterion(4, ok, f"max relative gradient error {worst:.2e} over {len(rel_errors)} parameters")


class TestCriterion5FriedmanComparison:
    def test_net_noninferior_to_cox(self, friedman_study):
        c_net = float(np.mean([np.nanmean(r["net6"].c_index) for r in friedman_study]))
        c_cox = float(np.mean([np.nanmean(r["cox6"].c_index) for r in friedman_study]))
        brier_net = np.mean([r["net6"].brier for r in friedman_study], axis=0)
        brier_cox = np.mean([r["cox6"].brier for r in friedman_study], axis=0)
        margin = brier_net - brier_cox
        ok = (c_net >= c_cox) and (c_net > 0.55) and np.all(margin <= 0.005)
        _criterion(
            5, ok,
            f"c-index net {c_net:.3f} vs cox {c_cox:.3f}; "
            f"max per-horizon brier excess {float(margin.max()):+.4f} <= 0.005",
        )


class TestCriterion6IntervalRobustness:
    def test_two_vs_six_intervals(self, friedman_study):
        c_six = float(np.mean([np.nanmean(r["net6"].c_index) for r in friedman_study]))
        c_two = float(np.mean([np.nanmean(r["net2"].c_index) for r in friedman_study]))
        diff = abs(c_six - c_two)
        ok = diff <= 0.03
        _criterion(6, ok, f"mean c-index 6 intervals {c_six:.3f} vs 2 intervals {c_two:.3f}, |diff| {diff:.3f}")


class TestCriterion7DependentCensoringEquivalence:
    def test_c_index_equivalence_and_ipcw_brier(self, dependent_censoring_study):
        means = {
            label: float(np.mean([np.nanmean(rep[label].c_index) for rep in dependent_censoring_study]))
            for label in ("plain", "ipcw", "cox")
        }
        pair_gaps = [
            abs(means["plain"] - means["ipcw"]),
            abs(means["plain"] - means["cox"]),
            abs(means["ipcw"] - means["cox"]),
        ]
        brier_plain = float(np.mean([np.mean(rep["plain"].brier) for rep in dependent_censoring_study]))
        brier_ipcw = float(np.mean([np.mean(rep["ipcw"].brier) for rep in dependent_censoring_study]))
        ok = max(pair_gaps) <= 0.02 and brier_ipcw <= brier_plain + 0.002
        _criterion(
            7, ok,
            f"c-index plain {means['plain']:.3f} ipcw {means['ipcw']:.3f} cox {means['cox']:.3f} "
            f"(max gap {max(pair_gaps):.3f}); brier ipcw {brier_ipcw:.4f} vs plain {brier_plain:.4f}",
        )


class TestCriterion8SimulationCalibration:
    def test_censoring_rates_hit_targets(self):
        details = []
        ok = True
        for target in (0.2, 0.4, 0.6):
            data = ps.gen_friedman_aft(
                ps.FriedmanSpec(n=5000, censoring_rate=target, seed=derived_seed(8, "cal", int(target * 10)))
            )
            achieved = float(1.0 - data.event.mean())
            ok &= abs(achieved - target) <= 0.03
            details.append(f"{target:.1f}->{achieved:.3f}")
        dep = ps.gen_cox(ps.CoxSimSpec(n=5000, dependent_censoring=True, seed=88))
        dep_rate = float(1.0 - dep.event.mean())
        ok &= 0.47 <= dep_rate <= 0.53
        details.append(f"dependent->{dep_rate:.3f}")
        _criterion(8, ok, "censoring rates " + ", ".join(details))


class TestCriterion9CliDeterminism:
    def test_outputs_identical_across_thread_counts(self, tmp_path):
        data = ps.gen_cox(ps.CoxSimSpec(n=200, dependent_censoring=True, seed=55))
        src = tmp_path / "data.csv"
        ps.save_dataset(data, src)

        model_files = []
        model_out = tmp_path / "model.json"
        for threads in ("1", "4"):
            code = cli_main([
                "train", "--input", str(src), "--model-out", str(model_out),
                "--grid-percentiles", "0.2,0.4", "--budget", "2", "--folds", "2",
                "--epochs", "5", "--seed", "7", "--threads", threads,
            ])
            assert code == 0
            model_files.append(
                model_out.read_bytes() + (tmp_path / "model.json.config.json").read_bytes()
            )
        models_match = model_files[0] == model_files[1]

        sim_outputs = []
        out_dir = tmp_path / "study"
        for threads in ("1", "4"):
            code = cli_main([
                "simulate", "--study", "cox-dependent", "--replicates", "3",
                "--n", "300", "--seed", "5", "--out", str(out_dir),
                "--threads", threads,
            ])
            assert code == 0
            sim_outputs.append(
                (out_dir / "replicates.csv").read_bytes()
                + (out_dir / "summary.csv").read_bytes()
                + (out_dir / "config.json").read_bytes()
            )
        sims_match = sim_outputs[0] == sim_outputs[1]
        ok = models_match and sims_match
        _criterion(9, ok, f"train identical: {models_match}, simulate identical: {sims_match}")
