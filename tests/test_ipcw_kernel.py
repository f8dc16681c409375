"""The blocked IPCW kernel against the 1 024-subject kernel kept in ``oracles``.

Weights, weighted Nelson-Aalen sums and marginal and conditional IPCW pseudo
values must be byte-identical, whatever the block size.  The oracle results
come from the same public functions with the kernel swapped for the oracle's.
"""

import tracemalloc
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudosurv import (
    DataError,
    Dataset,
    TimeGrid,
    WeightFunction,
    nelson_aalen_weighted,
    pseudo_conditional,
    pseudo_marginal,
)
from pseudosurv import estimators, pseudo

import oracles


def oracle_sums(*args):
    """The oracle's (A, B), without the one-block weights that only its own ``_ipcw_loo`` reads."""
    return oracles._ipcw_sums(*args)[:2]


def with_oracle_kernel(fn, *args):
    with mock.patch.object(pseudo, "_ipcw_loo", oracles._ipcw_loo), \
            mock.patch.object(estimators, "_ipcw_sums", oracle_sums):
        return fn(*args)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def samples(draw, max_n=40):
    """A censored sample with a Cox-shaped weight function over it."""
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):  # tied times
        times = np.asarray(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)), float)
    else:
        times = np.asarray(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n,
                                         unique=True)), float) / 1e5
    events = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["plain", "single event", "censored start", "last alone"]))
    if shape == "single event":
        events[:] = False
        events[draw(st.integers(0, n - 1))] = True
    elif shape == "censored start":  # every subject of the early intervals is censored
        events[times <= np.median(times)] = False
    elif shape == "last alone":  # the latest time is an event with a risk set of one
        last = int(np.argmax(times))
        times[last] = times.max() + 1.0
        events[last] = True
    k = draw(st.integers(1, 12))
    jumps = np.cumsum(np.asarray(draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))))
    cumhaz = np.cumsum(np.asarray(draw(st.lists(st.floats(0.0, 1.5), min_size=k, max_size=k))))
    risk = np.exp(np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))))
    if draw(st.booleans()):  # the tiny floor binds
        risk[draw(st.integers(0, n - 1))] = 1e300
    cap = draw(st.sampled_from([1.5, 20.0, 1e3, 0.5, 2.0**60]))
    weights = WeightFunction(jumps, cumhaz, risk, cap)
    data = Dataset(times, events, np.empty((n, 0)), ())
    return data, weights


class TestAgainstOracleKernel:
    @settings(max_examples=150, deadline=None)
    @given(samples(), st.sampled_from([None, 1, 3, 8, 40]), st.data())
    def test_byte_identical(self, sample, cells, data):
        d, weights = sample
        blocks = mock.patch.object(estimators, "_BLOCK_CELLS", cells) if cells else nullcontext()
        with blocks:
            u = np.concatenate(([0.0], weights.times, weights.times + 1e-3, [d.time.max()]))
            assert same_bytes(weights.weights_at(u), oracles.weights_at(weights, u))
            assert same_bytes(weights.weights_at(1.0), oracles.weights_at(weights, 1.0))

            fast = nelson_aalen_weighted(d, weights)
            slow = with_oracle_kernel(nelson_aalen_weighted, d, weights)
            assert same_bytes(fast.times, slow.times) and same_bytes(fast.values, slow.values)

            for t in (float(np.min(d.time)), float(np.median(d.time)), float(np.max(d.time))):
                assert same_bytes(pseudo_marginal(d, t, weights),
                                  with_oracle_kernel(pseudo_marginal, d, t, weights))

            levels = sorted(set(data.draw(st.lists(st.floats(0.1, 0.8), min_size=1, max_size=3))))
            cuts = np.unique(np.quantile(d.time, levels))
            try:
                grid = TimeGrid(cuts[(cuts > 0) & (cuts < d.time.max())])
            except DataError:
                return
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    table = pseudo_conditional(d, grid, weights)
                except DataError:
                    return
                expected = with_oracle_kernel(pseudo_conditional, d, grid, weights)
            assert same_bytes(table.pseudo, expected.pseudo)
            assert same_bytes(table.subject_ids, expected.subject_ids)

    def test_one_column_blocks_are_the_oracle_chunks(self):
        # numpy sums one column pairwise, so the block length sets the at-risk sum's bits
        assert estimators._SUM_GROUP == oracles._CHUNK

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 3000])
    def test_one_event_time_over_many_subjects(self, n):
        # a one-column at-risk sum is pairwise along the subjects, in 1 024-subject groups
        rng = np.random.default_rng(n)
        times = rng.integers(1, 5, n).astype(float)
        events = rng.random(n) < 0.5
        weights = WeightFunction(np.array([0.5, 1.5, 2.5]), np.array([0.2, 0.5, 0.9]),
                                 np.exp(rng.normal(0.0, 1.0, n)), 20.0)
        d = Dataset(times, events, np.empty((n, 0)), ())
        assert same_bytes(pseudo_marginal(d, 1.0, weights),
                          with_oracle_kernel(pseudo_marginal, d, 1.0, weights))
        one = Dataset(times, events & (times == 1.0), np.empty((n, 0)), ())
        assert same_bytes(nelson_aalen_weighted(one, weights).values,
                          with_oracle_kernel(nelson_aalen_weighted, one, weights).values)

    def test_straddles_default_blocks(self):
        # 3 000 subjects with a few hundred event times span several 1 MiB blocks
        rng = np.random.default_rng(5)
        n = 3000
        times = rng.exponential(1.0, n)
        events = rng.random(n) < 0.6
        weights = WeightFunction(np.sort(rng.uniform(0, 3, 50)), np.linspace(0.01, 2.0, 50),
                                 np.exp(rng.normal(0.0, 1.0, n)), 20.0)
        d = Dataset(times, events, np.empty((n, 0)), ())
        t = float(np.quantile(times, 0.5))
        assert n * np.unique(times[events & (times <= t)]).size > 8 * estimators._BLOCK_CELLS
        assert same_bytes(pseudo_marginal(d, t, weights),
                          with_oracle_kernel(pseudo_marginal, d, t, weights))


def test_working_set_is_one_weight_block():
    """A 1 000-subject sample with a few hundred event times is worked on one block of about
    1 MiB of weights at a time, plus arrays of O(n + K) floats: never its whole (n x K)
    at-risk weight matrix, 2.7 MB here."""
    rng = np.random.default_rng(7)
    n = 1000
    times = rng.exponential(1.0, n)
    events = rng.random(n) < 0.7
    weights = WeightFunction(np.sort(rng.uniform(0, 3, 40)), np.linspace(0.01, 1.5, 40),
                             np.exp(rng.normal(0.0, 0.5, n)), 20.0)
    d = Dataset(times, events, np.empty((n, 0)), ())
    t = float(np.quantile(times, 0.5))
    K = np.unique(times[events & (times <= t)]).size
    assert K >= 300
    pseudo_marginal(d, t, weights)  # first-call set-up stays out of the count
    tracemalloc.start()
    try:
        pseudo_marginal(d, t, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (estimators._BLOCK_CELLS // K + 1) * K * 8  # with its head row
    assert peak <= block + 32 * (n + K) * 8


class TestAgainstNaiveRefit:
    @settings(max_examples=60, deadline=None)
    @given(samples(max_n=25), st.booleans())
    def test_marginal_matches_refit(self, sample, weighted):
        d, weights = sample
        assume(weights.cap < 2.0**50)
        if weighted:  # moderate weights keep the jackknife's n-fold amplification small
            weights = WeightFunction(weights.times, weights.cumhaz,
                                     np.minimum(weights.risk, 5.0), min(weights.cap, 20.0))
        w = weights if weighted else None
        for t in (float(np.min(d.time)), float(np.median(d.time)), float(np.max(d.time))):
            fast = pseudo_marginal(d, t, w)
            naive = oracles.pseudo_marginal_naive(d, t, w)
            assert np.max(np.abs(fast - naive)) <= 1e-10
