import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosurv import (
    CoxSimSpec,
    DataError,
    Dataset,
    PseudoTable,
    TimeGrid,
    WeightFunction,
    censoring_weights,
    fit_cox,
    gen_cox,
    make_grid,
    pseudo_conditional,
    pseudo_marginal,
)
from pseudosurv import estimators
from pseudosurv.pseudo import _loo_pseudo
from pseudosurv.util import distinct, quantile

from conftest import random_censored_dataset, uncensored_dataset
import oracles
from oracles import constant_weights, pseudo_marginal_naive, pseudo_table_to_csv


def simple(times, events, p=0):
    times = np.asarray(times, dtype=float)
    covs = np.arange(len(times) * p, dtype=float).reshape(len(times), p) if p else np.empty((len(times), 0))
    return Dataset(times, np.asarray(events, dtype=bool), covs,
                   tuple(f"z_{k+1}" for k in range(p)))


class TestMakeGrid:
    def test_percentiles_of_uniform(self):
        d = simple(np.arange(1.0, 101.0), [1] * 100)
        grid = make_grid(d, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert np.allclose(grid.cutpoints, [10, 20, 30, 40, 50, 60], atol=1.0)

    def test_explicit_passthrough(self):
        d = simple([1, 5, 30], [1, 1, 1])
        grid = make_grid(d, times=[6.0, 12.0, 18.0])
        assert np.array_equal(grid.cutpoints, [6.0, 12.0, 18.0])

    def test_not_increasing_rejected(self):
        d = simple([1, 5, 30], [1, 1, 1])
        with pytest.raises(DataError):
            make_grid(d, times=[12.0, 6.0])

    def test_last_cutpoint_must_precede_max_time(self):
        d = simple([1, 5, 10], [1, 1, 1])
        with pytest.raises(DataError):
            make_grid(d, times=[5.0, 10.0])

    def test_exactly_one_mode(self):
        d = simple([1, 5, 30], [1, 1, 1])
        with pytest.raises(DataError):
            make_grid(d)
        with pytest.raises(DataError):
            make_grid(d, percentiles=[0.5], times=[2.0])

    def test_quantile_levels_validated(self):
        d = simple([1, 5, 30], [1, 1, 1])
        with pytest.raises(DataError):
            make_grid(d, percentiles=[0.5, 0.2])
        with pytest.raises(DataError):
            make_grid(d, percentiles=[0.0, 0.5])
        with pytest.raises(DataError, match="quantile levels"):
            make_grid(d, percentiles=[np.nan])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6) | st.sampled_from([0.0, 1.0, 2.5, 1e-300]), min_size=1,
                    max_size=60),
           st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.just(0.5),
                    min_size=1, max_size=8, unique=True))
    def test_quantile_and_distinct_match_numpy(self, values, levels):
        x, q = np.asarray(values), np.sort(levels)
        got, want = quantile(np.sort(x), q), np.quantile(x, q)
        assert got.tobytes() == want.tobytes()
        assert distinct(got).tobytes() == np.unique(want).tobytes()
        assert distinct(x).tobytes() == np.unique(x).tobytes()
        ids = np.asarray(values, dtype=int) % 7
        assert distinct(ids).tobytes() == np.unique(ids).tobytes()

    @pytest.mark.parametrize("cuts", [[np.nan], [1.0, np.nan], [np.nan, 1.0]])
    def test_nan_cutpoint_rejected(self, cuts):
        with pytest.raises(DataError, match="grid cutpoints"):
            TimeGrid(np.array(cuts))


class TestPseudoMarginal:
    def test_uncensored_is_indicator_exactly(self, rng):
        d = uncensored_dataset(rng, 37)
        t = float(np.quantile(d.time, 0.4))
        values = pseudo_marginal(d, t)
        assert np.array_equal(values, (d.time > t).astype(float))

    def test_fast_equals_naive_on_censored_data(self, rng):
        for n in (10, 50, 200):
            d = random_censored_dataset(rng, n)
            for q in (0.2, 0.5, 0.8):
                t = float(np.quantile(d.time, q))
                fast = pseudo_marginal(d, t)
                naive = pseudo_marginal_naive(d, t)
                assert np.max(np.abs(fast - naive)) <= 1e-10

    def test_fast_equals_naive_weighted(self, rng):
        for n in (10, 50):
            d = random_censored_dataset(rng, n)
            w = constant_weights(rng.uniform(1.0, 3.0, n))
            t = float(np.quantile(d.time, 0.5))
            fast = pseudo_marginal(d, t, w)
            naive = pseudo_marginal_naive(d, t, w)
            assert np.max(np.abs(fast - naive)) <= 1e-10

    def test_small_sample_rejected(self):
        d = simple([1.0], [1])
        with pytest.raises(DataError):
            pseudo_marginal(d, 0.5)

    def test_three_subject_hand_case(self):
        # cross-checked against the n-refit oracle
        d = simple([1.0, 2.0, 3.0], [1, 0, 1])
        values = pseudo_marginal(d, 2.5)
        assert np.allclose(values, pseudo_marginal_naive(d, 2.5), atol=1e-12)
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_horizon_before_the_first_event(self):
        # a censoring at 1 comes before the horizon and no event does: KM is 1 there
        d = simple([1.0, 3.0, 4.0, 5.0], [0, 1, 1, 0])
        values = pseudo_marginal(d, 2.0)
        assert np.array_equal(values, np.ones(4))
        assert np.array_equal(values, pseudo_marginal_naive(d, 2.0))


class TestPseudoConditional:
    def test_row_structure_matches_follow_up(self):
        # subject 0 leaves the risk set before the interval starting at 18
        d = simple([14.0, 30.0, 27.0], [1, 1, 0], p=1)
        grid = make_grid(d, times=[6.0, 12.0, 18.0, 24.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = pseudo_conditional(d, grid)
        rows0 = table.time_index[table.subject_ids == 0]
        assert np.array_equal(rows0, [0, 1, 2])  # at risk at 0, 6, 12 but not 18
        for sid in (1, 2):
            assert np.array_equal(table.time_index[table.subject_ids == sid], [0, 1, 2, 3])

    def test_uncensored_values_are_indicators(self, rng):
        d = uncensored_dataset(rng, 40, p=2)
        grid = make_grid(d, percentiles=[0.2, 0.4, 0.6])
        table = pseudo_conditional(d, grid)
        cuts = grid.cutpoints
        for k in range(len(table)):
            i = table.subject_ids[k]
            j = table.time_index[k]
            expected = 1.0 if d.time[i] > cuts[j] else 0.0
            assert table.pseudo[k] == expected

    def test_unit_weights_close_to_unweighted(self):
        rng = np.random.default_rng(99)
        d = random_censored_dataset(rng, 500, censor_frac=0.4)
        grid = make_grid(d, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        plain = pseudo_conditional(d, grid)
        weighted = pseudo_conditional(d, grid, constant_weights(np.ones(len(d))))
        assert np.array_equal(plain.subject_ids, weighted.subject_ids)
        assert np.max(np.abs(plain.pseudo - weighted.pseudo)) <= 0.05

    def test_prefix_property(self, rng):
        for _ in range(5):
            d = random_censored_dataset(rng, 80, p=1)
            grid = make_grid(d, percentiles=[0.2, 0.4, 0.6])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = pseudo_conditional(d, grid)
            for sid in table.subjects():
                idx = np.sort(table.time_index[table.subject_ids == sid])
                assert np.array_equal(idx, np.arange(idx.size))

    def test_mean_identity(self, rng):
        for _ in range(5):
            d = random_censored_dataset(rng, 100)
            grid = make_grid(d, percentiles=[0.25, 0.5])
            # a censoring hazard rising at each censoring time, one relative risk per subject
            cens = distinct(d.time[~d.event])
            ipcw = WeightFunction(cens, np.arange(1, cens.size + 1) / len(d),
                                  np.linspace(0.5, 2.0, len(d)))
            for j in range(grid.n_intervals):
                start = grid.interval_start(j)
                horizon = grid.interval_end(j) - start
                at = d.time > start
                res_t, res_e = d.time[at] - start, d.event[at]
                rows = np.flatnonzero(at)
                u = distinct(res_t[res_e])
                for kw in ({}, dict(weights=ipcw, rows=rows, time_offset=start)):
                    values = _loo_pseudo(res_t, res_e, horizon, **kw)
                    if kw:
                        s_full, s_loo = estimators._ipcw_loo(res_t, res_e, u[u <= horizon], ipcw,
                                                             rows, start)
                    else:
                        s_full, s_loo, _ = estimators._km_loo(res_t, res_e, horizon)
                    r = res_t.size
                    lhs = values.mean()
                    rhs = r * s_full - (r - 1) * np.mean(s_loo)
                    assert abs(lhs - rhs) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_interval_by_interval_construction(self, data):
        """Bit for bit the table sorted from one part per interval, KM and IPCW, on half-unit
        times: ties, times of 0 (no row) and times on a cutpoint (no row in the next interval)."""
        n = data.draw(st.integers(3, 40))
        times = np.array(data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))) / 2.0
        events = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        p = data.draw(st.integers(0, 2))
        covs = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n * p,
                                           max_size=n * p))).reshape(n, p)
        d = Dataset(times, events, covs, tuple(f"z_{k + 1}" for k in range(p)))
        cuts = sorted(data.draw(st.sets(st.integers(1, 11), min_size=1, max_size=4)))
        grid = TimeGrid(np.array(cuts) / 2.0)
        if grid.cutpoints[-1] >= times.max():
            return
        ipcw = WeightFunction(np.array([0.5, 2.0, 4.0]), np.array([0.1, 0.3, 0.6]),
                              np.linspace(0.5, 2.0, n))
        too_late = min(int((times > grid.interval_start(j)).sum())
                       for j in range(grid.n_intervals)) < 2
        for weights in (None, ipcw):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # intervals without events
                if too_late:
                    with pytest.raises(DataError, match="interval too late"):
                        pseudo_conditional(d, grid, weights)
                    continue
                table = pseudo_conditional(d, grid, weights)
                want = oracles.pseudo_conditional(d, grid, weights)
            got = (table.subject_ids, table.data.covariates[table.subject_ids], table.time_index,
                   table.pseudo)
            assert table.data is d
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_subject_outside_data_refused(self):
        d = simple([1.0, 2.0, 3.0], [1, 1, 1])
        for ids in ([0, 3], [-1, 0]):
            with pytest.raises(DataError, match="subject_ids out of range for a dataset of 3"):
                PseudoTable(d, np.array(ids), np.array([0, 0]), np.array([0.5, 0.5]),
                            TimeGrid(np.array([1.5])))

    def test_small_risk_set_rejected(self):
        # only one subject survives past 3, so the interval (3, 9] cannot be jackknifed
        d = simple([1.0, 2.0, 3.0, 10.0], [1, 1, 1, 1])
        with pytest.raises(DataError, match="interval too late"):
            pseudo_conditional(d, TimeGrid(np.array([3.0, 9.0])))

    def test_zero_event_interval_warns(self):
        d = simple([1.0, 5.0, 6.0, 7.0], [1, 1, 1, 1])
        with pytest.warns(UserWarning, match="no events"):
            pseudo_conditional(d, TimeGrid(np.array([2.0, 3.0, 6.5])))

    def test_grid_beyond_follow_up_rejected(self):
        d = simple([1.0, 2.0, 3.0], [1, 1, 1])
        with pytest.raises(DataError):
            pseudo_conditional(d, TimeGrid(np.array([3.0])))


def ipcw_pseudo_dense(data, grid, weights):
    """Conditional IPCW pseudo values from one dense (risk set x event times) block each.

    The unchunked formula: the reference for the blocked leave-one-out.
    """
    out = []
    for j in range(grid.n_intervals):
        start = grid.interval_start(j)
        horizon = grid.interval_end(j) - start
        at_risk = data.time > start
        t, e = data.time[at_risk] - start, data.event[at_risk]
        u = np.unique(t[e])
        u = u[u <= horizon]
        w = weights.weights_at(u + start)[at_risk]
        aw = w * (e[:, None] & (t[:, None] == u[None, :]))
        bw = w * (t[:, None] >= u[None, :])
        A, B = aw.sum(axis=0), bw.sum(axis=0)
        b_loo = B[None, :] - bw
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(b_loo > 0, (A[None, :] - aw) / np.where(b_loo > 0, b_loo, 1.0), 0.0)
        m = t.size
        pseudo = m * np.exp(-(A / B).sum()) - (m - 1) * np.exp(-terms.sum(axis=1))
        out.append((np.flatnonzero(at_risk), np.full(m, j), pseudo))
    ids, tidx, pseudo = (np.concatenate(parts) for parts in zip(*out))
    return pseudo[np.lexsort((tidx, ids))]


class TestIpcwBlocks:
    @pytest.mark.parametrize("n", [7, 8, 9, 30])
    def test_blocked_matches_dense_formula(self, n, monkeypatch):
        monkeypatch.setattr(estimators, "_BLOCK_CELLS", 8)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            d = random_censored_dataset(rng, n, p=1, tie_prob=0.5)
            events = d.event.copy()
            events[:2] = (False, True)  # both the censoring and the event model have data
            d = Dataset(d.time, events, d.covariates, d.covariate_names)
            model = fit_cox(d, target="censoring")
            weights = censoring_weights(d, model, cap=5.0)
            grid = make_grid(d, percentiles=[0.1, 0.3, 0.5])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = pseudo_conditional(d, grid, weights)
            expected = ipcw_pseudo_dense(d, grid, weights)
            assert np.max(np.abs(table.pseudo - expected)) <= 1e-12

    def test_memory_linear_at_ten_thousand(self):
        d = gen_cox(CoxSimSpec(n=10_000, dependent_censoring=True, seed=3))
        grid = make_grid(d, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
        model = fit_cox(d, target="censoring")
        tracemalloc.start()
        try:
            table = pseudo_conditional(d, grid, censoring_weights(d, model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) > 30_000
        # the dense censoring survival matrix alone was 382 MB here
        assert peak < 100 * 2**20


class TestUncensoredExactness:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pipeline_binary_on_uncensored_data(self, data):
        n = data.draw(st.integers(5, 60))
        raw = data.draw(
            st.lists(st.integers(1, 50), min_size=n, max_size=n)
        )
        times = np.asarray(raw, dtype=float) / 2.0
        d = Dataset(times, np.ones(n, dtype=bool), np.empty((n, 0)), ())
        tmax = times.max()
        levels = sorted(set(data.draw(
            st.lists(st.floats(0.05, 0.7, allow_nan=False), min_size=1, max_size=4)
        )))
        cuts = np.unique(np.quantile(times, levels))
        cuts = cuts[(cuts > 0) & (cuts < tmax)]
        if cuts.size == 0:
            return
        grid = TimeGrid(cuts)
        # marginal: indicator at every cutpoint
        for t in cuts:
            vals = pseudo_marginal(d, float(t))
            assert np.array_equal(vals, (times > t).astype(float))
        # conditional: indicator of surviving each interval
        at_risk_counts = [int((times > grid.interval_start(j)).sum()) for j in range(cuts.size)]
        if min(at_risk_counts) < 2:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-event intervals are fine here
            table = pseudo_conditional(d, grid)
        expected = (times[table.subject_ids] > cuts[table.time_index]).astype(float)
        assert np.array_equal(table.pseudo, expected)


class TestPseudoTableSerialization:
    def test_csv_layout(self, tmp_path, rng):
        d = random_censored_dataset(rng, 30, p=2)
        grid = make_grid(d, percentiles=[0.3, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = pseudo_conditional(d, grid)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["id", "z_1", "z_2", "d_0", "d_1", "pseudo"]
        assert len(rows) == len(table)
        first = rows[0]
        assert first[0] == str(table.subject_ids[0])
        onehot = [int(first[3]), int(first[4])]
        assert sum(onehot) == 1
        assert onehot[table.time_index[0]] == 1

    def test_time_indicators_one_hot(self, rng):
        d = random_censored_dataset(rng, 20, p=1)
        grid = make_grid(d, percentiles=[0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = pseudo_conditional(d, grid)
        for indicator, j in zip(table.time_indicators, table.time_index):
            assert indicator.sum() == 1.0
            assert indicator[j] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_csv_bytes_match_row_by_row_writer(self, tmp_path_factory, data):
        special = [0.0, -0.0, 5e-324, -5e-324, 1e300, 123456.5, 1e-5, 0.1]
        cell = st.one_of(st.sampled_from(special), st.floats(allow_nan=False, allow_infinity=False,
                                                             width=64))
        p = data.draw(st.integers(0, 3))
        J = data.draw(st.integers(1, 4))
        # one covariate row per subject, at times a copy of its neighbour's
        n = data.draw(st.integers(1, 6))
        cov = []
        for _ in range(n):
            same = cov and data.draw(st.booleans())
            cov.append(cov[-1] if same else data.draw(st.lists(cell, min_size=p, max_size=p)))
        d = Dataset(np.ones(n), np.ones(n, dtype=bool), np.array(cov, dtype=float).reshape(n, p),
                    tuple(f"z_{k + 1}" for k in range(p)))
        # the rows of a subset of the subjects, gaps included
        ids, tidx = [], []
        for sid in range(n):
            for j in range(data.draw(st.integers(0, J))):
                ids.append(sid)
                tidx.append(j)
        table = PseudoTable(d, np.array(ids, dtype=int), np.array(tidx, dtype=int),
                            np.linspace(-0.5, 1.5, len(ids)), TimeGrid(np.arange(1.0, J + 1)))
        out = tmp_path_factory.mktemp("csv")
        table.to_csv(out / "fast.csv")
        pseudo_table_to_csv(table, out / "oracle.csv")
        assert (out / "fast.csv").read_bytes() == (out / "oracle.csv").read_bytes()


@pytest.mark.parametrize("call", [
    lambda d, w: pseudo_marginal(d, 1.0, w),
    lambda d, w: pseudo_conditional(d, make_grid(d, percentiles=[0.5]), w),
    lambda d, w: estimators.nelson_aalen_weighted(d, w),
], ids=["pseudo_marginal", "pseudo_conditional", "nelson_aalen_weighted"])
def test_weights_for_another_dataset_size_raise(call):
    d = random_censored_dataset(np.random.default_rng(3), 20)
    with pytest.raises(DataError, match="weight function does not match dataset size"):
        call(d, constant_weights(np.ones(30)))
