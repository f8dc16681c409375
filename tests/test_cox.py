import numpy as np
import pytest

from pseudosurv import (
    CoxSimSpec,
    DataError,
    Dataset,
    NumericError,
    censoring_weights,
    fit_cox,
    gen_cox,
)
from pseudosurv.cox import _partial_loglik

from conftest import random_censored_dataset
from oracles import nelson_aalen


def _sorted_inputs(data, target="event"):
    ev = data.event if target == "event" else ~data.event
    order = np.argsort(data.time, kind="stable")
    X = data.covariates - data.covariates.mean(axis=0)
    return data.time[order], ev[order], X[order]


class TestFitCox:
    def test_recovers_beta_against_grid_oracle(self):
        data = gen_cox(CoxSimSpec(n=2000, beta=1.0, censoring_rate=0.0, seed=11))
        model = fit_cox(data, target="event")
        assert abs(model.beta[0] - 1.0) < 0.1

        # brute-force 1-d partial-likelihood grid search as the oracle
        ts, ev, X = _sorted_inputs(data)
        betas = np.arange(0.5, 1.5, 0.001)
        lls = [_partial_loglik(ts, ev, X, np.array([b]))[0] for b in betas]
        oracle = betas[int(np.argmax(lls))]
        assert abs(model.beta[0] - oracle) <= 0.001 + 1e-9

    def test_zero_design_gives_zero_beta_and_na_baseline(self, rng):
        d = random_censored_dataset(rng, 80)
        dz = Dataset(d.time, d.event, np.zeros((len(d), 1)), ("z_1",))
        model = fit_cox(dz)
        assert model.beta[0] == 0.0
        na = nelson_aalen(dz)
        assert np.allclose(model.baseline_cumhaz.values, na.values, atol=1e-12)
        assert np.array_equal(model.baseline_cumhaz.times, na.times)

    def test_replication_invariance(self):
        data = gen_cox(CoxSimSpec(n=300, beta=1.0, censoring_rate=0.3, seed=5))
        doubled = Dataset(
            np.concatenate([data.time, data.time]),
            np.concatenate([data.event, data.event]),
            np.vstack([data.covariates, data.covariates]),
            data.covariate_names,
        )
        m1 = fit_cox(data)
        m2 = fit_cox(doubled)
        assert abs(m1.beta[0] - m2.beta[0]) <= 1e-6

    def test_gradient_matches_finite_differences(self, rng):
        data = random_censored_dataset(rng, 120, p=3)
        ts, ev, X = _sorted_inputs(data)
        h = 1e-5
        for _ in range(10):
            beta = rng.uniform(-1.0, 1.0, size=3)
            _, grad, _ = _partial_loglik(ts, ev, X, beta)
            for j in range(3):
                step = np.zeros(3)
                step[j] = h
                lp = _partial_loglik(ts, ev, X, beta + step)[0]
                lm = _partial_loglik(ts, ev, X, beta - step)[0]
                fd = (lp - lm) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-8) <= 1e-6

    def test_loglik_increases_monotonically(self):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=9))
        model = fit_cox(data)
        path = np.asarray(model.loglik_path)
        assert path.size >= 2
        assert np.all(np.diff(path) >= -1e-9)

    def test_no_target_events(self):
        d = Dataset(np.array([1.0, 2.0]), np.array([True, True]), np.zeros((2, 1)), ("z_1",))
        with pytest.raises(DataError, match="no target events"):
            fit_cox(d, target="censoring")

    def test_non_convergence_error(self):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=9))
        with pytest.raises(NumericError, match="cox did not converge"):
            fit_cox(data, max_iter=1)

    def test_max_iter_is_the_number_of_newton_steps(self):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=9))
        full = fit_cox(data)
        steps = len(full.loglik_path) - 1
        exact = fit_cox(data, max_iter=steps)
        assert exact.beta.tobytes() == full.beta.tobytes()
        assert exact.loglik_path == full.loglik_path
        with pytest.raises(NumericError, match="cox did not converge"):
            fit_cox(data, max_iter=steps - 1)

    def test_covariate_subset(self):
        data = gen_cox(CoxSimSpec(n=400, beta=1.0, censoring_rate=0.3, seed=2))
        extended = Dataset(
            data.time,
            data.event,
            np.hstack([data.covariates, np.ones((len(data), 1))]),
            ("z_1", "junk"),
        )
        model = fit_cox(extended, covariates=["z_1"])
        assert model.covariate_names == ("z_1",)
        assert model.beta.shape == (1,)


class TestCensoringWeights:
    def test_zero_beta_weights_identical_across_subjects(self, rng):
        data = random_censored_dataset(rng, 60, p=1)
        flat = Dataset(data.time, data.event, np.zeros((len(data), 1)), ("z_1",))
        model = fit_cox(flat, target="censoring")
        w = censoring_weights(flat, model, cap=20.0)
        mat = w.weights_at(np.array([1.0, 3.0, 6.0]))
        assert np.allclose(mat, mat[0][None, :], atol=1e-12)

    def test_cap_arithmetic(self):
        from pseudosurv import WeightFunction

        w = WeightFunction(np.array([1.0]), np.array([np.log(25.0)]), np.ones(1), cap=20.0)
        assert w.weights_at(5.0)[0] == 20.0

    def test_weights_nondecreasing_in_time(self):
        data = gen_cox(CoxSimSpec(n=300, dependent_censoring=True, seed=3))
        model = fit_cox(data, target="censoring")
        w = censoring_weights(data, model, cap=20.0)
        grid = np.linspace(0.0, data.time.max(), 50)
        mat = w.weights_at(grid)
        assert np.all(np.diff(mat, axis=1) >= -1e-12)

    def test_cap_must_exceed_one(self):
        data = gen_cox(CoxSimSpec(n=100, dependent_censoring=True, seed=3))
        model = fit_cox(data, target="censoring")
        with pytest.raises(DataError):
            censoring_weights(data, model, cap=1.0)

    def test_requires_censoring_target(self):
        data = gen_cox(CoxSimSpec(n=100, dependent_censoring=True, seed=3))
        model = fit_cox(data, target="event")
        with pytest.raises(DataError):
            censoring_weights(data, model, cap=20.0)
