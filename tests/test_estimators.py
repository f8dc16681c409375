import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosurv import (
    DataError,
    Dataset,
    StepSurvivalCurve,
    WeightFunction,
    censoring_kaplan_meier,
    ipcw_survival,
    kaplan_meier,
    nelson_aalen_weighted,
)

from conftest import random_censored_dataset
from oracles import nelson_aalen


def simple(times, events):
    return Dataset(np.asarray(times, dtype=float), np.asarray(events, dtype=bool),
                   np.empty((len(times), 0)), ())


class TestKaplanMeier:
    def test_uncensored_is_empirical(self):
        d = simple([1, 2, 3, 4], [1, 1, 1, 1])
        km = kaplan_meier(d)
        assert km.at(2.0) == 0.5
        assert km.at(4.0) == 0.0

    def test_all_censored_is_flat_one(self):
        d = simple([1, 2, 3, 4], [0, 0, 0, 0])
        km = kaplan_meier(d)
        for t in (0.5, 1.0, 2.0, 10.0):
            assert km.at(t) == 1.0

    def test_hand_product_with_censoring(self):
        # risk sets 4 at t=1 and 2 at t=3: (3/4) * (1/2)
        d = simple([1, 2, 3, 4], [1, 0, 1, 1])
        assert kaplan_meier(d).at(3.0) == pytest.approx(0.375, abs=1e-15)

    def test_empty_dataset_message(self):
        with pytest.raises(DataError, match="empty dataset"):
            Dataset(np.array([]), np.array([], dtype=bool), np.empty((0, 0)), ())

    def test_uncensored_equals_empirical_everywhere(self, rng):
        times = rng.exponential(3.0, 150) + 0.01
        d = Dataset(times, np.ones(150, dtype=bool), np.empty((150, 0)), ())
        km = kaplan_meier(d)
        for t in np.quantile(times, [0.1, 0.35, 0.5, 0.82]):
            assert km.at(t) == np.mean(times > t)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 40), st.booleans()), min_size=2, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, rows, pyrng):
        times = [float(t) for t, _ in rows]
        events = [e for _, e in rows]
        d = simple(times, events)
        order = list(range(len(rows)))
        pyrng.shuffle(order)
        d_perm = simple([times[i] for i in order], [events[i] for i in order])
        a, b = kaplan_meier(d), kaplan_meier(d_perm)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_monotone_and_in_range(self, rng):
        for _ in range(10):
            d = random_censored_dataset(rng, 60)
            km = kaplan_meier(d)
            assert km.initial_value == 1.0
            assert np.all(np.diff(km.values) <= 1e-15)
            assert np.all((km.values >= 0) & (km.values <= 1))


class TestCurveEval:
    def test_before_first_jump(self):
        c = StepSurvivalCurve(np.array([2.0]), np.array([0.5]), 1.0)
        assert c.at(1.9) == 1.0

    def test_right_continuity_at_jump(self):
        c = StepSurvivalCurve(np.array([2.0]), np.array([0.5]), 1.0)
        assert c.at(2.0) == 0.5

    def test_past_last_jump(self):
        c = StepSurvivalCurve(np.array([2.0, 3.0]), np.array([0.5, 0.25]), 1.0)
        assert c.at(10.0) == 0.25

    def test_negative_time_rejected(self):
        c = StepSurvivalCurve(np.array([2.0]), np.array([0.5]), 1.0)
        with pytest.raises(DataError):
            c.at(-0.1)

    def test_nan_time_rejected(self):
        c = StepSurvivalCurve(np.array([2.0]), np.array([0.5]), 1.0)
        for t in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(DataError, match="nonnegative"):
                c.at(t)

    def test_left_limit(self):
        c = StepSurvivalCurve(np.array([2.0]), np.array([0.5]), 1.0)
        assert c.at_left(2.0) == 1.0
        assert c.at_left(2.5) == 0.5

    def test_vector_evaluation(self):
        c = StepSurvivalCurve(np.array([1.0, 2.0]), np.array([0.8, 0.6]), 1.0)
        out = c.at(np.array([0.5, 1.0, 5.0]))
        assert np.array_equal(out, [1.0, 0.8, 0.6])

    def test_unsorted_times_rejected(self):
        with pytest.raises(DataError):
            StepSurvivalCurve(np.array([2.0, 1.0]), np.array([0.5, 0.2]), 1.0)

    def test_empty_curve_holds_its_initial_value(self):
        c = StepSurvivalCurve(np.empty(0), np.empty(0), 0.25)
        for evaluate in (c.at, c.at_left):
            assert evaluate(0.0) == 0.25 and type(evaluate(3.0)) is float
            out = evaluate(np.array([0.0, 1.5, 7.0]))
            assert out.dtype == float and np.array_equal(out, [0.25, 0.25, 0.25])
            assert evaluate(np.zeros((2, 3))).shape == (2, 3)


class TestWeightedNelsonAalen:
    def test_unit_weights_match_unweighted(self):
        d = simple([1, 2, 3], [1, 1, 1])
        curve = nelson_aalen_weighted(d, WeightFunction.constant(np.ones(3)))
        assert curve.at(3.0) == pytest.approx(1 / 3 + 1 / 2 + 1, abs=1e-15)
        plain = nelson_aalen(d)
        assert np.allclose(curve.values, plain.values)

    def test_constant_weights_cancel(self, rng):
        d = random_censored_dataset(rng, 40)
        ones = nelson_aalen_weighted(d, WeightFunction.constant(np.ones(len(d))))
        scaled = nelson_aalen_weighted(d, WeightFunction.constant(np.full(len(d), 7.5)))
        assert np.allclose(ones.values, scaled.values, atol=1e-12)

    def test_two_subject_hand_example(self):
        d = simple([1, 2], [1, 1])
        w = WeightFunction.constant(np.array([2.0, 1.0]))
        curve = nelson_aalen_weighted(d, w)
        assert curve.at(1.0) == pytest.approx(2 / 3, abs=1e-15)
        assert curve.at(2.0) == pytest.approx(2 / 3 + 1.0, abs=1e-15)

    def test_invalid_weight_rejected(self):
        d = simple([1, 2], [1, 1])
        bad = WeightFunction.constant(np.array([2.0, 1.0]), cap=np.inf)
        object.__setattr__(bad, "risk", np.array([np.nan, 0.0]))  # bypasses validation
        # the sample's weights pass through the validating constructor
        with pytest.raises(DataError, match="relative risks"):
            nelson_aalen_weighted(d, bad)

    def test_all_censored_is_the_empty_curve(self):
        d = simple([1, 2, 3], [0, 0, 0])
        w = WeightFunction.constant(np.array([1.0, 2.0, 4.0]))
        for curve, flat in ((nelson_aalen_weighted(d, w), 0.0), (ipcw_survival(d, w), 1.0)):
            assert curve.times.size == curve.values.size == 0
            assert curve.initial_value == flat
            assert np.array_equal(curve.at(np.array([0.5, 3.0, 9.0])), [flat] * 3)


class TestIpcwSurvival:
    def test_single_event(self):
        d = simple([1.0], [1])
        w = WeightFunction.constant(np.ones(1))
        assert ipcw_survival(d, w).at(1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_no_events_flat_one(self):
        d = simple([1, 2, 3], [0, 0, 0])
        w = WeightFunction.constant(np.ones(3))
        curve = ipcw_survival(d, w)
        assert curve.at(2.5) == 1.0

    def test_hand_nelson_aalen(self):
        d = simple([1, 2, 3, 4], [1, 0, 1, 1])
        w = WeightFunction.constant(np.ones(4))
        assert ipcw_survival(d, w).at(3.0) == pytest.approx(np.exp(-(1 / 4 + 1 / 2)), abs=1e-15)

    def test_constant_weights_equal_exp_neg_na(self, rng):
        for _ in range(5):
            d = random_censored_dataset(rng, 50)
            w = WeightFunction.constant(np.full(len(d), 3.0))
            curve = ipcw_survival(d, w)
            plain = nelson_aalen(d)
            assert np.allclose(curve.values, np.exp(-plain.values), atol=1e-12)

    def test_close_to_km_on_uncensored(self, rng):
        times = rng.exponential(5.0, 400) + 0.01
        d = Dataset(times, np.ones(400, dtype=bool), np.empty((400, 0)), ())
        km = kaplan_meier(d)
        ipcw = ipcw_survival(d, WeightFunction.constant(np.ones(400)))
        for q in (0.25, 0.5, 0.75):
            t = float(np.quantile(times, q))
            assert abs(km.at(t) - ipcw.at(t)) <= 0.05


class TestWeightFunction:
    def test_survival_values_validated(self):
        one = np.array([1.0])
        with pytest.raises(DataError):
            WeightFunction(one, np.array([-0.5]), one, 20.0)  # G above 1
        with pytest.raises(DataError):
            WeightFunction(one, np.array([np.inf]), one, 20.0)  # G of 0
        with pytest.raises(DataError):
            WeightFunction(one, one, np.array([-1.0]), 20.0)
        with pytest.raises(DataError):
            WeightFunction(one, one, np.array([np.nan]), 20.0)
        with pytest.raises(DataError):
            WeightFunction(np.array([2.0, 1.0]), np.array([0.1, 0.2]), one, 20.0)

    def test_cap_applies(self):
        # G(2-) = exp(-log 25) = 0.04, weight 25 before the cap
        w = WeightFunction(np.array([1.0]), np.array([np.log(25.0)]), np.ones(1), 20.0)
        assert w.weights_at(2.0)[0] == 20.0

    def test_left_limit_convention(self):
        w = WeightFunction(np.array([1.0]), np.array([np.log(2.0)]), np.ones(1), 20.0)
        assert w.weights_at(1.0)[0] == 1.0  # G(1-) is still 1
        assert w.weights_at(1.5)[0] == pytest.approx(2.0, abs=1e-15)

    def test_per_subject_curves(self):
        # every subject's curve is the baseline raised to its own relative risk
        w = WeightFunction(np.array([1.0, 2.0]), np.array([0.1, 0.7]), np.array([1.0, 2.0]), 20.0)
        weights = w.weights_at(np.array([1.5, 2.5]))
        assert weights[1, 0] == 1 / np.exp(-0.2) and weights[1, 1] == 1 / np.exp(-1.4)
        assert weights[0, 1] == 1 / np.exp(-0.7)

    def test_weights_equal_dense_construction(self, rng):
        times = np.cumsum(rng.uniform(0.1, 1.0, 40))
        cumhaz = np.cumsum(rng.exponential(0.05, 40))
        risk = np.exp(rng.normal(0.0, 3.0, 25))
        risk[0] = 1e300  # G underflows to the floor
        w = WeightFunction(times, cumhaz, risk, 20.0)
        dense = np.maximum(np.exp(-np.outer(risk, cumhaz)), np.finfo(float).tiny)
        assert np.array_equal(w.surv_values, dense)
        u = np.concatenate(([0.0, times[0]], rng.uniform(0.0, times[-1] + 1.0, 30)))
        idx = np.searchsorted(times, u, side="left") - 1
        expected = np.minimum(1.0 / np.where(idx < 0, 1.0, dense[:, np.maximum(idx, 0)]), 20.0)
        assert np.array_equal(w.weights_at(u), expected)
        assert np.array_equal(w.subset([3, 1]).weights_at(u), expected[[3, 1]])

    def test_constant_is_one_jump_at_zero(self):
        w = WeightFunction.constant(np.array([1.0, 4.0]))
        assert np.array_equal(w.weights_at(0.0), [1.0, 1.0])
        assert w.weights_at(3.0) == pytest.approx([1.0, 4.0], abs=1e-14)
        with pytest.raises(DataError):
            WeightFunction.constant(np.array([0.5]))


def test_censoring_km_flips_indicator():
    d = simple([1, 2, 3, 4], [1, 0, 1, 1])
    g = censoring_kaplan_meier(d)
    # only censoring "event" is at t=2 with 3 at risk
    assert g.at(1.5) == 1.0
    assert g.at(2.0) == pytest.approx(2 / 3, abs=1e-15)
