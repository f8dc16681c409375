import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosurv import (
    DataError,
    Dataset,
    EvalReport,
    NumericError,
    StepSurvivalCurve,
    brier,
    c_index,
    censoring_kaplan_meier,
    evaluate_predictions,
)

from conftest import random_censored_dataset


def simple(times, events):
    return Dataset(np.asarray(times, dtype=float), np.asarray(events, dtype=bool),
                   np.empty((len(times), 0)), ())


def c_index_loop(data, pred, times):
    """The original O(n) scan per event, kept as the oracle for ``c_index``."""
    values = np.full(times.size, np.nan)
    counts = np.zeros(times.size, dtype=int)
    for h in range(times.size):
        s = pred[:, h]
        credit = 0.0
        pairs = 0
        for i in np.flatnonzero(data.event & (data.time <= times[h])):
            later = data.time > data.time[i]
            m = int(later.sum())
            if m == 0:
                continue
            pairs += m
            credit += float((s[later] > s[i]).sum()) + 0.5 * float((s[later] == s[i]).sum())
        counts[h] = pairs
        if pairs:
            values[h] = credit / pairs
    return values, counts


class TestCIndex:
    def test_perfectly_anti_ranked(self):
        d = simple([1, 2, 3, 4], [1, 1, 1, 1])
        pred = np.array([0.1, 0.2, 0.3, 0.4])[:, None]
        values, pairs = c_index(d, pred, [4.0])
        assert values[0] == 1.0
        assert pairs[0] == 6

    def test_all_ties_give_half(self):
        d = simple([1, 2, 3], [1, 1, 1])
        values, _ = c_index(d, np.full((3, 1), 0.7), [3.0])
        assert values[0] == 0.5

    def test_hand_enumeration(self):
        d = simple([1, 2, 3], [1, 1, 1])
        pred = np.array([0.2, 0.9, 0.5])[:, None]
        values, pairs = c_index(d, pred, [3.0])
        assert values[0] == pytest.approx(2 / 3)
        assert pairs[0] == 3

    def test_no_comparable_pairs_nan(self):
        d = simple([1, 2, 3], [1, 1, 1])
        values, pairs = c_index(d, np.full((3, 1), 0.5), [0.5])
        assert np.isnan(values[0])
        assert pairs[0] == 0

    def test_monotone_transform_invariance(self, rng):
        d = random_censored_dataset(rng, 60)
        s = rng.random(len(d))[:, None]
        t = [float(np.quantile(d.time, 0.5))]
        base, _ = c_index(d, s, t)
        squashed, _ = c_index(d, 1 / (1 + np.exp(-3 * s)), t)
        assert base[0] == pytest.approx(squashed[0], abs=1e-12)

    def test_reordering_invariance(self, rng):
        d = random_censored_dataset(rng, 50)
        s = rng.random(len(d))[:, None]
        t = [float(np.quantile(d.time, 0.6))]
        perm = rng.permutation(len(d))
        d2 = d.subset(perm)
        base, _ = c_index(d, s, t)
        shuffled, _ = c_index(d2, s[perm], t)
        assert base[0] == pytest.approx(shuffled[0], abs=1e-12)

    def test_dimension_mismatch(self):
        d = simple([1, 2, 3], [1, 1, 1])
        with pytest.raises(DataError):
            c_index(d, np.zeros((2, 1)), [1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_loop_oracle(self, data):
        n = data.draw(st.integers(1, 400))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        # few distinct times and prediction levels make ties common
        times = rng.integers(1, data.draw(st.integers(2, 60)), n).astype(float)
        events = rng.random(n) < data.draw(st.floats(0.0, 1.0))
        levels = data.draw(st.integers(1, 30))
        pred = rng.integers(0, levels, (n, 3)) / levels
        if data.draw(st.booleans()):
            pred[rng.random((n, 3)) < 0.1] = np.nan
        horizons = np.array([0.5, float(np.median(times)), float(times.max())])
        d = simple(times, events)
        values, pairs = c_index(d, pred, horizons)
        expected_values, expected_pairs = c_index_loop(d, pred, horizons)
        assert np.array_equal(pairs, expected_pairs)
        assert np.array_equal(values, expected_values, equal_nan=True)
        assert np.isnan(values[0]) and pairs[0] == 0  # nothing fails by 0.5

    def test_equals_loop_oracle_across_blocks(self, rng):
        d = random_censored_dataset(rng, 1500)
        pred = np.round(rng.random((len(d), 2)), 2)
        horizons = np.quantile(d.time, [0.3, 0.9])
        values, pairs = c_index(d, pred, horizons)
        expected_values, expected_pairs = c_index_loop(d, pred, horizons)
        assert np.array_equal(pairs, expected_pairs)
        assert np.array_equal(values, expected_values)


class TestBrier:
    def test_perfect_predictions_on_uncensored(self):
        d = simple([1, 2, 3, 4], [1, 1, 1, 1])
        g = censoring_kaplan_meier(d)
        for t in (1.5, 2.5, 3.5):
            pred = (d.time > t).astype(float)[:, None]
            assert brier(d, pred, [t], g)[0] == 0.0

    def test_half_predictions_score_quarter(self):
        d = simple([1, 2, 3, 4], [1, 1, 1, 1])
        g = censoring_kaplan_meier(d)
        out = brier(d, np.full((4, 1), 0.5), [2.5], g)
        assert out[0] == pytest.approx(0.25, abs=1e-15)

    def test_uncensored_equals_plain_mse(self, rng):
        times = rng.exponential(4.0, 80) + 0.1
        d = Dataset(times, np.ones(80, dtype=bool), np.empty((80, 0)), ())
        g = censoring_kaplan_meier(d)
        s = rng.random(80)[:, None]
        t = float(np.quantile(times, 0.5))
        expected = np.mean((s[:, 0] - (times > t)) ** 2)
        assert brier(d, s, [t], g)[0] == pytest.approx(expected, abs=1e-12)

    def test_hand_computed_censored_case(self):
        # subjects: event at 1, censored at 2, event at 3, censored at 4
        d = simple([1, 2, 3, 4], [1, 0, 1, 0])
        g = censoring_kaplan_meier(d)
        s = np.array([0.1, 0.6, 0.7, 0.8])[:, None]
        t = 2.5
        # G(1-) = 1; G(2.5) = 2/3; the subject censored at 2 contributes 0
        expected = (0.1**2 / 1.0 + 0.0 + (1 - 0.7) ** 2 / (2 / 3) + (1 - 0.8) ** 2 / (2 / 3)) / 4
        assert brier(d, s, [t], g)[0] == pytest.approx(expected, abs=1e-12)

    def test_exhausted_support_raises(self):
        d = simple([1, 2, 3], [1, 0, 0])
        dead_curve = StepSurvivalCurve(np.array([0.5]), np.array([0.0]), 1.0)
        with pytest.raises(NumericError, match="censoring support exhausted"):
            brier(d, np.full((3, 1), 0.5), [2.0], dead_curve)

    def test_reordering_invariance(self, rng):
        d = random_censored_dataset(rng, 50)
        g = censoring_kaplan_meier(d)
        s = rng.random(len(d))[:, None]
        t = [float(np.quantile(d.time, 0.5))]
        perm = rng.permutation(len(d))
        shuffled = brier(d.subset(perm), s[perm], t, g)
        assert brier(d, s, t, g)[0] == pytest.approx(shuffled[0], abs=1e-12)


class TestEvalReport:
    def test_round_trip_csv_json(self, tmp_path, rng):
        d = random_censored_dataset(rng, 60)
        s = np.column_stack([rng.random(60), rng.random(60)])
        times = np.quantile(d.time, [0.3, 0.6])
        report = evaluate_predictions(d, s, times)
        csv_path = tmp_path / "report.csv"
        report.to_csv(csv_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "c_index", "brier", "n_pairs"]
        assert len(rows) == 3
        json_path = tmp_path / "report.json"
        report.to_json(json_path)
        payload = json.loads(json_path.read_text())
        assert payload["n_pairs"] == report.n_pairs.tolist()

    def test_ranges(self, rng):
        d = random_censored_dataset(rng, 80)
        s = np.clip(rng.random((80, 3)), 0, 1)
        times = np.quantile(d.time, [0.25, 0.5, 0.75])
        report = evaluate_predictions(d, s, times)
        ok = ~np.isnan(report.c_index)
        assert np.all((report.c_index[ok] >= 0) & (report.c_index[ok] <= 1))
        assert np.all(report.brier >= 0)

    def test_bundles_c_index_and_km_censored_brier_bit_for_bit(self, rng):
        d = random_censored_dataset(rng, 90)
        s = rng.random((90, 3))
        times = np.quantile(d.time, [0.2, 0.5, 0.8])
        report = evaluate_predictions(d, s, times)
        c_vals, n_pairs = c_index(d, s, times)
        b_vals = brier(d, s, times, censoring_kaplan_meier(d))
        assert report.c_index.tobytes() == c_vals.tobytes()
        assert report.n_pairs.tobytes() == n_pairs.tobytes()
        assert report.brier.tobytes() == b_vals.tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            EvalReport(np.array([1.0]), np.array([0.5, 0.6]), np.array([0.1]), np.array([3]))
