from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosurv import (
    CoxSimSpec,
    DataError,
    Dataset,
    NumericError,
    censoring_weights,
    fit_cox,
    gen_cox,
)
from pseudosurv import cox
from pseudosurv.cox import _partial_loglik

from conftest import random_censored_dataset
from oracles import nelson_aalen, partial_loglik


def _sorted_inputs(data, target="event"):
    """``_partial_loglik``'s arguments before ``beta``, built as ``fit_cox`` builds them."""
    ev = data.event if target == "event" else ~data.event
    order = np.argsort(data.time, kind="stable")
    X = data.covariates - data.covariates.mean(axis=0)
    ts, evs = data.time[order], ev[order]
    u, d = np.unique(ts[evs], return_counts=True)
    return evs, X[order], np.searchsorted(ts, u, side="left"), d


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def cox_samples(draw):
    """A censored sample of up to 40 subjects with p in {0, 1, 2, 20} covariates and a beta."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0, 1, 2, 20]))
    if draw(st.booleans()):  # tied times; with small blocks every tie group crosses an edge
        times = np.asarray(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), float)
    else:
        times = np.asarray(draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
    events = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["plain", "single event", "censored tail"]))
    if shape == "single event":
        events[:] = False
    elif shape == "censored tail":  # every subject after the median time is censored
        events[times > np.median(times)] = False
    events[draw(st.integers(0, n - 1))] = True
    cells = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * p, max_size=n * p))
    X = np.asarray(cells, dtype=float).reshape(n, p)
    beta = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)), float)
    return Dataset(times, events, X, tuple(f"z_{k + 1}" for k in range(p))), beta


class TestAgainstOracle:
    """The blocked partial likelihood against the whole-array form kept in ``oracles``."""

    @settings(max_examples=200, deadline=None)
    @given(cox_samples(), st.sampled_from([1, 3, 7, None]))
    def test_byte_identical(self, sample, cells):
        data, beta = sample
        args = _sorted_inputs(data)
        want = partial_loglik(*args, beta)
        with mock.patch.object(cox, "_BLOCK_CELLS", cells or cox._BLOCK_CELLS):
            got = _partial_loglik(*args, beta)
        assert all(same_bytes(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("p", [1, 2, 20])
    @pytest.mark.parametrize("cells", [7, None])
    def test_byte_identical_at_300_subjects(self, rng, p, cells):
        # p = 1 has 100+ event times here, where a Hessian sum split into blocks or headed
        # by a zero would change bits: numpy sums a (K, 1, 1) array pairwise
        data = random_censored_dataset(rng, 300, p=p, tie_prob=0.5)
        args = _sorted_inputs(data, target="censoring")
        for beta in rng.normal(0.0, 0.5, size=(5, p)):
            want = partial_loglik(*args, beta)
            with mock.patch.object(cox, "_BLOCK_CELLS", cells or cox._BLOCK_CELLS):
                got = _partial_loglik(*args, beta)
            assert all(same_bytes(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("p", [1, 20])
    def test_fitted_censoring_model_byte_identical(self, p):
        rng = np.random.default_rng(p)
        data = random_censored_dataset(rng, 600, p=p)
        got = fit_cox(data, target="censoring")
        with mock.patch.object(cox, "_partial_loglik", partial_loglik):
            want = fit_cox(data, target="censoring")
        assert same_bytes(got.beta, want.beta)
        assert same_bytes(got.baseline_cumhaz.values, want.baseline_cumhaz.values)
        assert got.loglik_path == want.loglik_path


class TestFitCox:
    def test_recovers_beta_against_grid_oracle(self):
        data = gen_cox(CoxSimSpec(n=2000, beta=1.0, censoring_rate=0.0, seed=11))
        model = fit_cox(data, target="event")
        assert abs(model.beta[0] - 1.0) < 0.1

        # brute-force 1-d partial-likelihood grid search as the oracle
        args = _sorted_inputs(data)
        betas = np.arange(0.5, 1.5, 0.001)
        lls = [_partial_loglik(*args, np.array([b]))[0] for b in betas]
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
        args = _sorted_inputs(data)
        h = 1e-5
        for _ in range(10):
            beta = rng.uniform(-1.0, 1.0, size=3)
            _, grad, _ = _partial_loglik(*args, beta)
            for j in range(3):
                step = np.zeros(3)
                step[j] = h
                lp = _partial_loglik(*args, beta + step)[0]
                lm = _partial_loglik(*args, beta - step)[0]
                fd = (lp - lm) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-8) <= 1e-6

    def test_loglik_increases_monotonically(self):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=9))
        model = fit_cox(data)
        path = np.asarray(model.loglik_path)
        assert path.size >= 2
        assert np.all(np.diff(path) >= -1e-9)

    def test_rejected_newton_step_is_halved(self, monkeypatch):
        # two subjects far out on z make a full Newton step overshoot
        rng = np.random.default_rng(4)
        n = rng.integers(6, 30)
        z = np.zeros((n, 1))
        k = rng.integers(1, 3)
        z[rng.choice(n, k, replace=False), 0] = rng.normal(0, 6, k)
        z[:, 0] += rng.normal(0, 0.3, n)
        t = rng.exponential(1.0, n) * np.exp(-0.7 * z[:, 0])
        e = rng.random(n) < 0.7
        calls = []

        def counting(*args):
            calls.append(1)
            return _partial_loglik(*args)

        monkeypatch.setattr(cox, "_partial_loglik", counting)
        model = fit_cox(Dataset(t, e, z, ("z_1",)))
        # one call per accepted step plus the start: any extra call is a rejected step
        assert len(calls) > len(model.loglik_path)
        assert np.all(np.diff(model.loglik_path) >= 0.0)
        assert np.isfinite(model.beta).all()

    def test_no_target_events(self):
        d = Dataset(np.array([1.0, 2.0]), np.array([True, True]), np.zeros((2, 1)), ("z_1",))
        with pytest.raises(DataError, match="no target events"):
            fit_cox(d, target="censoring")

    def test_non_convergence_error(self, monkeypatch):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=9))
        monkeypatch.setattr(cox, "_MAX_ITER", 1)
        with pytest.raises(NumericError, match="cox did not converge"):
            fit_cox(data)

    def test_max_iter_is_the_number_of_newton_steps(self, monkeypatch):
        data = gen_cox(CoxSimSpec(n=500, beta=1.0, censoring_rate=0.3, seed=9))
        full = fit_cox(data)
        steps = len(full.loglik_path) - 1
        monkeypatch.setattr(cox, "_MAX_ITER", steps)
        exact = fit_cox(data)
        assert exact.beta.tobytes() == full.beta.tobytes()
        assert exact.loglik_path == full.loglik_path
        monkeypatch.setattr(cox, "_MAX_ITER", steps - 1)
        with pytest.raises(NumericError, match="cox did not converge"):
            fit_cox(data)

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
