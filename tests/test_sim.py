import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from pseudosurv import (
    CoxSimSpec,
    DataError,
    FriedmanSpec,
    NumericError,
    calibrate_censoring,
    gen_cox,
    gen_friedman_aft,
    sim,
)


class TestCalibrateCensoring:
    def test_symmetric_race(self, rng):
        x = rng.exponential(10.0, 200_000)  # Exp(0.1)
        rate = calibrate_censoring(x, 0.5)
        assert rate == pytest.approx(0.1, rel=0.05)

    def test_analytic_ratio(self, rng):
        x = rng.exponential(10.0, 200_000)
        rate = calibrate_censoring(x, 0.2)
        # rate / (rate + 0.1) = 0.2  =>  rate = 0.025
        assert rate == pytest.approx(0.025, rel=0.05)

    def test_degenerate_target_on_bounded_sample(self, rng):
        x = rng.uniform(1.0, 2.0, 10_000)
        try:
            rate = calibrate_censoring(x, 0.99)
        except Exception:
            return  # an error is acceptable for a degenerate request
        frac = float(np.mean(-np.expm1(-rate * x)))
        assert abs(frac - 0.99) <= 0.01

    def test_bad_target(self, rng):
        with pytest.raises(DataError):
            calibrate_censoring(rng.exponential(1.0, 100), 1.2)


    def test_bracket_passes_its_ceiling(self):
        # a rate of 1e30 censors 63 % of times of 1e-30; the next doubling passes 1e15
        with pytest.raises(NumericError, match="^cannot bracket the requested censoring rate$"):
            calibrate_censoring(np.full(5, 1e-30), 0.9)

    def test_bracket_runs_out_of_doublings(self):
        # from 1 / median = 1e-50, 200 doublings stay under 1e15 while the 49 % of tiny
        # times keep the censored fraction near 0.51
        x = np.concatenate((np.full(49, 1e-300), np.full(51, 1e50)))
        with pytest.raises(NumericError, match="^cannot bracket the requested censoring rate$"):
            calibrate_censoring(x, 0.9)

    def test_rate_that_misses_the_target_refused(self, monkeypatch):
        # the censored fraction is continuous in the rate, so no sample found here misses
        # the target; patched to a step, it jumps from 0 to 1 at rate 1 on times of 1
        monkeypatch.setattr(sim.np, "expm1", lambda v: np.where(v < -1.0, -1.0, 0.0))
        with pytest.raises(NumericError, match="^censoring calibration did not reach"):
            calibrate_censoring(np.ones(4), 0.5)


class TestGenCox:
    def test_dependent_censoring_near_half(self):
        data = gen_cox(CoxSimSpec(n=4000, dependent_censoring=True, seed=17))
        rate = 1.0 - data.event.mean()
        assert 0.47 <= rate <= 0.53

    def test_null_beta_is_marginally_exponential(self):
        data = gen_cox(CoxSimSpec(n=10_000, beta=0.0, censoring_rate=0.0, seed=23))
        x = np.sort(data.time)
        # KS-type check against the Exp(0.1) CDF
        cdf = 1.0 - np.exp(-0.1 * x)
        empirical = np.arange(1, x.size + 1) / x.size
        assert np.max(np.abs(empirical - cdf)) <= 0.02
        assert abs(np.median(x) - np.log(2) / 0.1) / (np.log(2) / 0.1) <= 0.05

    def test_independent_censoring_calibrated(self):
        data = gen_cox(CoxSimSpec(n=5000, censoring_rate=0.3, seed=29))
        rate = 1.0 - data.event.mean()
        assert abs(rate - 0.3) <= 0.03

    def test_deterministic(self):
        a = gen_cox(CoxSimSpec(n=200, dependent_censoring=True, seed=5))
        b = gen_cox(CoxSimSpec(n=200, dependent_censoring=True, seed=5))
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.event, b.event)
        assert np.array_equal(a.covariates, b.covariates)


def _assert_same_generation(spec):
    data, info = gen_friedman_aft(spec, return_info=True)
    want, want_info = oracles.gen_friedman_aft(spec, return_info=True)
    for name in ("time", "event", "covariates", "covariate_names"):
        assert np.array_equal(getattr(data, name), getattr(want, name)), name
    assert info == want_info


# blocks of one row, a few rows, exactly the draws and more than the draws
@pytest.mark.parametrize("block", [1, 7, 1000, 1013])
def test_streamed_calibration_equals_one_draw(monkeypatch, block):
    monkeypatch.setattr(sim, "_CALIBRATION_DRAWS", 1000)
    monkeypatch.setattr(sim, "_CALIBRATION_BLOCK", block)
    for seed in (0, 7, 2019):
        for n in (2, 3, 40):
            _assert_same_generation(FriedmanSpec(n=n, censoring_rate=0.4, seed=seed))


def test_streamed_calibration_equals_one_draw_at_full_size():
    assert sim._CALIBRATION_DRAWS > sim._CALIBRATION_BLOCK
    _assert_same_generation(FriedmanSpec(n=500, censoring_rate=0.3, seed=1))


def test_generation_leaves_out_numpy_ma():
    # the calibration bracket takes its median from np.partition: np.median's first call
    # imports numpy.ma, a cost every generating process would pay
    code = ("import sys; from pseudosurv.sim import FriedmanSpec, gen_friedman_aft; "
            "gen_friedman_aft(FriedmanSpec(n=50)); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


class TestGenFriedmanAft:
    def test_censoring_calibration(self):
        for target in (0.2, 0.4, 0.6):
            data = gen_friedman_aft(FriedmanSpec(n=5000, censoring_rate=target, seed=41))
            achieved = 1.0 - data.event.mean()
            assert abs(achieved - target) <= 0.03, (target, achieved)

    def test_signal_to_noise(self):
        _, info = gen_friedman_aft(
            FriedmanSpec(n=5000, censoring_rate=0.4, seed=43), return_info=True
        )
        assert abs(info["snr_achieved"] - 3.0) <= 0.3

    def test_deterministic_and_seeds_differ(self):
        a = gen_friedman_aft(FriedmanSpec(n=300, censoring_rate=0.4, seed=7))
        b = gen_friedman_aft(FriedmanSpec(n=300, censoring_rate=0.4, seed=7))
        c = gen_friedman_aft(FriedmanSpec(n=300, censoring_rate=0.4, seed=8))
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.covariates, b.covariates)
        assert not np.array_equal(a.time, c.time)

    def test_times_strictly_positive(self):
        data = gen_friedman_aft(FriedmanSpec(n=500, censoring_rate=0.2, seed=3))
        assert np.all(data.time > 0)

    def test_flat_mean_function_refused(self, monkeypatch):
        # Gaussian bumps of normal draws never all agree, so the mean is patched flat
        monkeypatch.setattr(sim, "_bump_mean", lambda terms, Z: np.zeros(Z.shape[0]))
        with pytest.raises(NumericError, match="^degenerate mean function: zero variance$"):
            gen_friedman_aft(FriedmanSpec(n=50, seed=1))

    def test_spec_validation(self):
        with pytest.raises(DataError):
            FriedmanSpec(n=100, censoring_rate=1.2)
        with pytest.raises(DataError):
            FriedmanSpec(n=0)
        with pytest.raises(DataError, match="n must be at least 2"):
            FriedmanSpec(n=1)
        with pytest.raises(DataError):
            CoxSimSpec(n=10, base_hazard=-1.0)
