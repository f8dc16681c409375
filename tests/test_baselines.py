import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from pseudosurv import (
    CoxSimSpec,
    DataError,
    GeeModel,
    cox_predict_survival,
    fit_cox,
    fit_gee,
    gen_cox,
    make_grid,
)
from pseudosurv import baselines


class TestCoxPredictSurvival:
    def test_zero_linear_predictor_gives_baseline(self):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=4))
        model = fit_cox(data)
        t = float(np.median(data.time))
        z = model.covariate_means.copy()
        s0 = np.exp(-model.baseline_cumhaz.at(t))
        assert cox_predict_survival(model, z, t) == pytest.approx(s0, abs=1e-12)

    def test_survival_decreases_with_risk(self):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=4))
        model = fit_cox(data)
        t = float(np.median(data.time))
        zs = np.linspace(-2, 4, 13)[:, None]
        preds = cox_predict_survival(model, zs, t)
        assert np.all(np.diff(preds) < 0)
        assert preds[-1] < 0.05 or preds[-1] < preds[0]

    def test_matches_generator_truth_at_z_zero(self):
        data = gen_cox(CoxSimSpec(n=2000, beta=1.0, censoring_rate=0.0, seed=21))
        model = fit_cox(data)
        t = float(np.median(data.time))
        pred = cox_predict_survival(model, np.array([0.0]), t)
        assert abs(pred - np.exp(-0.1 * t)) <= 0.05

    def test_nonincreasing_in_time(self):
        data = gen_cox(CoxSimSpec(n=300, beta=1.0, censoring_rate=0.3, seed=4))
        model = fit_cox(data)
        ts = np.quantile(data.time, [0.1, 0.3, 0.5, 0.7, 0.9])
        preds = [cox_predict_survival(model, np.array([0.5]), t) for t in ts]
        assert np.all(np.diff(preds) <= 1e-15)

    def test_relative_risk_beyond_float_range_gives_its_limit(self):
        # exp(1000) overflows: S_0(t) ** inf is 0 where S_0(t) < 1 and 1 before the first event
        data = gen_cox(CoxSimSpec(n=300, beta=1.0, censoring_rate=0.3, seed=4))
        model = fit_cox(data)
        t = float(np.median(data.time))
        huge = model.covariate_means + 1000.0 / model.beta
        assert cox_predict_survival(model, huge, t) == 0.0
        assert cox_predict_survival(model, huge, data.time.min() / 2) == 1.0
        preds = cox_predict_survival(model, np.stack([huge, model.covariate_means]), t)
        assert preds[0] == 0.0 and 0.0 < preds[1] < 1.0

    def test_requires_event_target(self):
        data = gen_cox(CoxSimSpec(n=200, dependent_censoring=True, seed=4))
        model = fit_cox(data, target="censoring")
        with pytest.raises(DataError):
            cox_predict_survival(model, np.array([0.0]), 1.0)


class TestGee:
    def test_matches_independent_least_squares_on_binary_indicators(self):
        # uncensored data: pseudo values ARE the indicators, so the fit must
        # agree with an independent solver of the same estimating equations
        data = gen_cox(CoxSimSpec(n=300, beta=1.0, censoring_rate=0.0, seed=8))
        grid = make_grid(data, percentiles=[0.2, 0.4, 0.6])
        model = fit_gee(data, grid)

        J = grid.n_intervals
        y = np.concatenate([(data.time > t).astype(float) for t in grid.cutpoints])
        X = np.zeros((len(data) * J, J + 1))
        for j in range(J):
            X[j * len(data) : (j + 1) * len(data), j] = 1.0
            X[j * len(data) : (j + 1) * len(data), J:] = data.covariates

        def residuals(theta):
            return y - np.exp(-np.exp(X @ theta))

        theta0 = np.zeros(J + 1)
        theta0[:J] = np.log(-np.log(np.clip(
            [y[j * len(data):(j + 1) * len(data)].mean() for j in range(J)], 0.01, 0.99)))
        oracle = least_squares(residuals, theta0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        fitted = np.concatenate([model.time_intercepts, model.beta])
        assert np.max(np.abs(fitted - oracle.x)) <= 1e-6

    def test_null_effect_recovered(self):
        data = gen_cox(CoxSimSpec(n=2000, beta=0.0, censoring_rate=0.4, seed=31))
        grid = make_grid(data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
        plain = fit_gee(data, grid, ipcw=False)
        weighted = fit_gee(data, grid, ipcw=True)
        assert abs(plain.beta[0]) <= 0.1
        assert abs(weighted.beta[0]) <= 0.1

    def test_slope_positive_on_ph_design(self):
        data = gen_cox(CoxSimSpec(n=1000, beta=1.0, dependent_censoring=True, seed=13))
        grid = make_grid(data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
        model = fit_gee(data, grid)
        assert model.beta[0] > 0.4

    def test_bytes_independent_of_blas_threads(self):
        """``fit_gee`` runs on one BLAS thread, so OpenBLAS's thread count moves no bit of a
        p = 20 fit, whose least-squares steps a second BLAS thread would sum in another order."""
        code = ("import pseudosurv as ps\n"
                "data = ps.gen_friedman_aft(ps.FriedmanSpec(n=5000, seed=3))\n"
                "grid = ps.make_grid(data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])\n"
                "m = ps.fit_gee(data, grid)\n"
                "print((m.time_intercepts.tobytes() + m.beta.tobytes()).hex())")
        env = {k: v for k, v in os.environ.items()
               if k not in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(baselines.__file__).parents[1])
        fits = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True).stdout
                for threads in ("1", "2")}
        assert len(fits) == 1

    def test_non_convergence_error(self, monkeypatch):
        from pseudosurv import NumericError, baselines

        data = gen_cox(CoxSimSpec(n=400, beta=1.0, dependent_censoring=True, seed=13))
        grid = make_grid(data, percentiles=[0.2, 0.4])
        monkeypatch.setattr(baselines, "_MAX_ITER", 1)
        with pytest.raises(NumericError, match="gee did not converge"):
            fit_gee(data, grid)


    def test_no_acceptable_step_after_40_halvings(self, monkeypatch):
        # no input found here reaches this refusal, so the fitted mean is patched: away
        # from the starting coefficients every mean is 1 000 off, so no step, however
        # often halved, lowers the residual sum of squares
        from pseudosurv import NumericError, baselines

        real, start = baselines._cloglog_mean, []

        def worse_off_start(eta):
            start.append(start[0] if start else eta.copy())
            return real(eta) + (0.0 if np.array_equal(eta, start[0]) else 1e3)

        monkeypatch.setattr(baselines, "_cloglog_mean", worse_off_start)
        data = gen_cox(CoxSimSpec(n=200, beta=1.0, censoring_rate=0.3, seed=13))
        with pytest.raises(NumericError, match="^gee did not converge$"):
            fit_gee(data, make_grid(data, percentiles=[0.2, 0.4]))
        assert len(start) == 2 + 40  # the start, one linearisation, 40 rejected steps


def gee_survival(model, z, j):
    """The fitted link inverted at grid time j: exp(-exp(alpha_j + beta . z))."""
    eta = model.time_intercepts[j] + np.asarray(z, dtype=float) @ model.beta
    return float(np.exp(-np.exp(eta)))


class TestGeePredict:
    def test_link_arithmetic(self):
        model = GeeModel(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert gee_survival(model, [3.0], 0) == pytest.approx(np.exp(-1.0))

    def test_extreme_intercept_limit(self):
        model = GeeModel(np.array([-40.0]), np.array([0.0]), np.array([1.0]))
        assert gee_survival(model, [0.0], 0) == pytest.approx(1.0, abs=1e-12)

    def test_survival_decreasing_in_z_when_beta_positive(self):
        data = gen_cox(CoxSimSpec(n=1000, beta=1.0, dependent_censoring=True, seed=13))
        grid = make_grid(data, percentiles=[0.1, 0.2, 0.3])
        model = fit_gee(data, grid)
        preds = [gee_survival(model, [z], 1) for z in (-1.0, 0.0, 1.0, 2.0)]
        assert np.all(np.diff(preds) < 0)
