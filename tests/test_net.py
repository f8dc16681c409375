import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from pseudosurv import (
    CoxSimSpec,
    DataError,
    Dataset,
    MlpConfig,
    NumericError,
    PseudoTable,
    TimeGrid,
    gen_cox,
    grid_search,
    load_model,
    make_grid,
    predict_conditional_matrix,
    predict_marginal_matrix,
    predict_survival,
    pseudo_conditional,
    save_model,
    train,
)
from pseudosurv import net, util
from pseudosurv.net import MlpModel, default_grid, make_cv_folds
from pseudosurv.util import derived_seed

import oracles
from oracles import buffered_loss_and_grads


def toy_table(rng, n=80, J=3, p=2, pseudo=None):
    ids = np.repeat(np.arange(n), J)
    covs = np.repeat(rng.standard_normal((n, p)), J, axis=0)
    tidx = np.tile(np.arange(J), n)
    ps = rng.random(n * J) if pseudo is None else np.full(n * J, pseudo, dtype=float)
    grid = TimeGrid(np.arange(1.0, J + 1.0))
    return PseudoTable(ids, covs, tidx, ps, grid, tuple(f"z_{k+1}" for k in range(p)))


def small_config(**kw):
    base = dict(
        hidden_layers=(8,),
        activation="relu",
        regularization=("ridge", 1e-3),
        learning_rate=0.01,
        optimizer="adam",
        epochs=50,
        batch_size=64,
        seed=0,
    )
    base.update(kw)
    return MlpConfig(**base)


class TestMlpConfig:
    def test_grid_values_enforced(self):
        with pytest.raises(DataError):
            MlpConfig(hidden_layers=(5,))
        with pytest.raises(DataError):
            MlpConfig(hidden_layers=(8, 8, 8))
        with pytest.raises(DataError):
            small_config(epochs=0)
        outside = [("activation", "selu"), ("regularization", ("dropout", 0.5)),
                   ("regularization", ("ridge", 0.2)), ("regularization", ("lasso", 1e-3)),
                   ("learning_rate", 0.1), ("optimizer", "rmsprop")]
        assert {name for name, _ in outside} == set(net.GRID_VALUES)
        for name, value in outside:
            with pytest.raises(DataError, match=f"^{name} must be one of"):
                small_config(**{name: value})

    def test_default_grid_size(self):
        grid = default_grid()
        # 42 layouts x 2 activations x 5 regularizations x 3 rates x 2 optimizers
        assert len(grid) == 42 * 2 * 5 * 3 * 2
        assert len({c.content_key() for c in grid}) == len(grid)

    def test_default_grid_order(self):
        # a search samples grid indices, so the order of the grid is part of its results
        keys = "|".join(c.content_key() for c in default_grid()).encode()
        assert hashlib.sha256(keys).hexdigest().startswith("d76a1204e3fac155")


class TestTraining:
    def test_constant_target_reaches_level(self, rng):
        table = toy_table(rng, n=60, pseudo=1.0)
        model = train(table, small_config(epochs=200))
        preds = predict_conditional_matrix(model, rng.standard_normal((30, 2)))
        assert np.all(preds >= 0.95)

    def test_bitwise_determinism(self, rng):
        table = toy_table(rng)
        a = train(table, small_config(seed=123))
        b = train(table, small_config(seed=123))
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(wa, wb)
        assert a.training_log == b.training_log

    def test_gradient_check_two_hidden_layers(self):
        rng = np.random.default_rng(3)
        config = MlpConfig(
            hidden_layers=(8, 4),
            activation="tanh",
            regularization=("ridge", 1e-3),
            learning_rate=0.001,
            optimizer="adam",
            epochs=1,
            batch_size=16,
            seed=0,
        )
        sizes = [5, 8, 4, 1]
        weights = [rng.standard_normal((a, b)) * 0.4 for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
        X = rng.standard_normal((12, 5))
        y = rng.random(12)

        _, g_w, g_b = buffered_loss_and_grads(weights, biases, config, X, y)

        def objective():
            return buffered_loss_and_grads(weights, biases, config, X, y)[0]

        checked = 0
        h = 1e-6
        for li in range(len(weights)):
            flat = weights[li].ravel()
            for pos in range(0, flat.size, max(1, flat.size // 6)):
                orig = flat[pos]
                flat[pos] = orig + h
                up = objective()
                flat[pos] = orig - h
                down = objective()
                flat[pos] = orig
                fd = (up - down) / (2 * h)
                an = g_w[li].ravel()[pos]
                assert abs(an - fd) / max(abs(fd), 1e-10) <= 1e-5
                checked += 1
            bias_flat = biases[li]
            orig = bias_flat[0]
            bias_flat[0] = orig + h
            up = objective()
            bias_flat[0] = orig - h
            down = objective()
            bias_flat[0] = orig
            fd = (up - down) / (2 * h)
            assert abs(g_b[li][0] - fd) / max(abs(fd), 1e-10) <= 1e-5
            checked += 1
        assert checked >= 20

    def test_gradient_check_with_dropout(self):
        # a fresh generator per call draws the same masks, so the objective is
        # a fixed smooth function of the weights
        rng = np.random.default_rng(5)
        config = small_config(hidden_layers=(16, 8), activation="tanh",
                              regularization=("dropout", 0.4))
        sizes = [6, 16, 8, 1]
        weights = [rng.standard_normal((a, b)) * 0.4 for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
        X = rng.standard_normal((20, 6))
        y = rng.random(20) * 1.4 - 0.2

        def objective():
            return buffered_loss_and_grads(weights, biases, config, X, y, np.random.default_rng(9))

        _, g_w, g_b = objective()
        h = 1e-6
        for params, grads in ((weights, g_w), (biases, g_b)):
            for flat, grad in zip(params, grads):
                flat, grad = flat.reshape(-1), grad.reshape(-1)
                for pos in range(0, flat.size, max(1, flat.size // 5)):
                    orig = flat[pos]
                    flat[pos] = orig + h
                    up = objective()[0]
                    flat[pos] = orig - h
                    down = objective()[0]
                    flat[pos] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(grad[pos] - fd) / max(abs(fd), 1e-10) <= 1e-5

    @settings(max_examples=25, deadline=None)
    @given(
        activation=st.sampled_from(["relu", "tanh"]),
        regularization=st.sampled_from([("dropout", 0.2), ("dropout", 0.4), ("ridge", 1e-4),
                                        ("ridge", 1e-2)]),
        optimizer=st.sampled_from(["adam", "sgd_momentum"]),
        hidden_layers=st.lists(st.sampled_from([4, 16, 64]), min_size=1, max_size=2),
        batch_size=st.integers(2, 239).filter(lambda b: 240 % b),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_train_equals_allocating_oracle_bytes(
        self, activation, regularization, optimizer, hidden_layers, batch_size, seed
    ):
        table = toy_table(np.random.default_rng(1), n=80, J=3)  # 240 rows
        config = MlpConfig(tuple(hidden_layers), activation, regularization, 0.01, optimizer,
                           epochs=3, batch_size=batch_size, seed=seed)
        got, want = train(table, config), oracles.train(table, config)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.base is None  # the model owns its arrays
        assert got.training_log == want.training_log
        assert got.weight_norm_log == want.weight_norm_log

    def test_ridge_shrinks_weights_on_zero_targets(self, rng):
        table = toy_table(rng, n=60, pseudo=0.0)
        config = small_config(
            regularization=("ridge", 1e-2), optimizer="sgd_momentum", epochs=40
        )
        model = train(table, config)
        norms = np.asarray(model.weight_norm_log)
        assert np.all(np.diff(norms[5:]) <= 1e-12)

    def test_divergence_reported_with_epoch(self, rng):
        table = toy_table(rng, n=20)
        huge = PseudoTable(
            table.subject_ids,
            table.covariates,
            table.time_index,
            np.full(len(table), 1e200),
            table.grid,
            table.covariate_names,
        )
        with pytest.raises(NumericError, match="diverged at epoch"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow is the point
            train(huge, small_config())

    def test_overflowing_epoch_loss_reported_without_batch(self, rng):
        # each batch loss (about 3.6e305) is finite, their row-weighted sum over two
        # batches of 300 rows is not; adam keeps the steps, and so the outputs, finite
        table = toy_table(rng, n=200, pseudo=6e152)
        with pytest.raises(NumericError, match=r"^diverged at epoch 0$"):
            train(table, small_config(batch_size=300, epochs=1))

    def test_divergence_in_search_names_config_and_fold(self, rng):
        table = toy_table(rng, n=20)
        huge = PseudoTable(table.subject_ids, table.covariates, table.time_index,
                           np.full(len(table), 1e200), table.grid, table.covariate_names)
        data = Dataset(np.arange(1.0, 21.0), np.ones(20, dtype=bool),
                       rng.standard_normal((20, 2)), ("z_1", "z_2"))
        cfg = small_config()
        message = f"config {cfg.content_key()}, fold 0: diverged at epoch 0, batch 0"
        with pytest.raises(NumericError) as info, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid_search(huge, data, [cfg], k=2, eval_times=table.grid, budget=1, seed=0)
        assert str(info.value) == message

    def test_empty_table_rejected(self, rng):
        table = toy_table(rng, n=4)
        empty = table.subset_subjects(np.array([], dtype=int))
        with pytest.raises(DataError):
            train(empty, small_config())

    def test_dropout_variant_trains(self, rng):
        table = toy_table(rng, n=60)
        model = train(table, small_config(regularization=("dropout", 0.2), epochs=20))
        preds = predict_conditional_matrix(model, rng.standard_normal((5, 2)))
        assert np.all((preds > 0) & (preds < 1))


class TestPrediction:
    def _handmade_model(self, conditionals):
        """Hidden layer passes the one-hot through; output encodes given values."""
        J = len(conditionals)
        weights1 = np.zeros((J, 4))
        for j in range(J):
            weights1[j, j] = 1.0
        weights2 = np.zeros((4, 1))
        for j, c in enumerate(conditionals):
            weights2[j, 0] = np.log(c / (1 - c))
        return MlpModel(
            config=small_config(hidden_layers=(4,)),
            cutpoints=np.arange(1.0, J + 1.0),
            covariate_mean=np.empty(0),
            covariate_std=np.empty(0),
            weights=[weights1, weights2],
            biases=[np.zeros(4), np.zeros(1)],
        )

    def test_zero_weights_give_half(self, rng):
        model = self._handmade_model([0.5, 0.5, 0.5])
        for w in model.weights:
            w[:] = 0.0
        assert predict_conditional_matrix(model, np.empty(0))[0, 1] == 0.5

    def test_output_bias_ten(self):
        model = self._handmade_model([0.5, 0.5, 0.5])
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][0] = 10.0
        assert predict_conditional_matrix(model, np.empty(0))[0, 0] == pytest.approx(
            1 / (1 + np.exp(-10.0)), abs=1e-12
        )

    def test_marginal_is_product(self):
        model = self._handmade_model([0.9, 0.8, 0.7])
        cond = predict_conditional_matrix(model, np.empty(0))[0]
        marg = predict_marginal_matrix(model, np.empty(0))[0]
        assert marg[0] == pytest.approx(cond[0], abs=1e-12)
        assert marg[2] == pytest.approx(0.504, abs=1e-9)

    def test_marginal_nonincreasing(self, rng):
        table = toy_table(rng)
        model = train(table, small_config(epochs=20))
        marg = predict_marginal_matrix(model, rng.standard_normal((10, 2)))
        assert np.all(np.diff(marg, axis=1) <= 1e-15)

    def test_survival_at_times_is_step_curve(self):
        model = self._handmade_model([0.9, 0.8, 0.7])  # cutpoints 1, 2, 3
        out = predict_survival(model, np.empty(0), [0.5, 1.0, 1.5, 2.0, 10.0])
        assert out.shape == (1, 5)
        assert out[0] == pytest.approx([1.0, 0.9, 0.9, 0.72, 0.504], abs=1e-9)

    def test_survival_at_times_matches_per_horizon_columns(self, rng):
        model = train(toy_table(rng), small_config(epochs=5))
        z = rng.standard_normal((30, 2))
        times = np.array([0.0, 0.5, 1.0, 2.5, 3.0, 7.0])
        marg = predict_marginal_matrix(model, z)
        expected = np.ones((30, times.size))
        for h, t in enumerate(times):
            idx = np.searchsorted(model.cutpoints, t, side="right") - 1
            if idx >= 0:
                expected[:, h] = marg[:, idx]
        assert np.array_equal(predict_survival(model, z, times), expected)

    def test_covariate_count_validated(self):
        model = self._handmade_model([0.9, 0.8, 0.7])
        with pytest.raises(DataError, match="expected 0 covariates"):
            predict_conditional_matrix(model, np.ones((2, 1)))

    def test_monotone_in_covariate_on_ph_design(self):
        data = gen_cox(CoxSimSpec(n=800, dependent_censoring=True, seed=42))
        grid = make_grid(data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
        table = pseudo_conditional(data, grid)
        model = train(table, small_config(hidden_layers=(32,), epochs=100, batch_size=256))
        zs = np.linspace(-2, 2, 25)[:, None]
        for j in range(grid.n_intervals):
            cond = predict_conditional_matrix(model, zs)[:, j]
            rho = spearmanr(zs[:, 0], cond).statistic
            assert rho <= -0.9


class TestGridSearch:
    def test_budget_one_returns_that_config(self, rng):
        data = gen_cox(CoxSimSpec(n=120, censoring_rate=0.3, seed=6))
        grid_times = make_grid(data, percentiles=[0.3, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = pseudo_conditional(data, grid_times)
        cfg = small_config(epochs=10)
        best, model = grid_search(table, data, [cfg], k=3, eval_times=grid_times, budget=1, seed=0)
        assert best.content_key() == cfg.content_key()
        assert model.config.content_key() == cfg.content_key()

    def test_duplicate_configs_share_scores(self, rng, monkeypatch):
        data = gen_cox(CoxSimSpec(n=120, censoring_rate=0.3, seed=6))
        grid_times = make_grid(data, percentiles=[0.3, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = pseudo_conditional(data, grid_times)
        cfg = small_config(epochs=10)
        other = small_config(epochs=10, activation="tanh")
        unit_scores = {}
        score_unit = net._score_unit

        def recording(ctx, unit):  # at n_jobs=1 the (config, fold) units run in this process
            unit_scores[unit] = score_unit(ctx, unit)
            return unit_scores[unit]

        monkeypatch.setattr(net, "_score_unit", recording)
        grid_search(table, data, [cfg, other, cfg], k=3, eval_times=grid_times, budget=3, seed=0)
        assert list(unit_scores) == [(config, fold) for config in range(3) for fold in range(3)]
        assert [unit_scores[0, fold] for fold in range(3)] == [unit_scores[2, fold]
                                                                for fold in range(3)]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_numeric_error_names_the_first_failing_unit(self, monkeypatch, n_jobs):
        data = gen_cox(CoxSimSpec(n=120, censoring_rate=0.3, seed=6))
        grid_times = make_grid(data, percentiles=[0.3, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = pseudo_conditional(data, grid_times)
        configs = [small_config(epochs=2, activation=act, optimizer=opt)
                   for act, opt in (("relu", "adam"), ("tanh", "adam"), ("relu", "sgd_momentum"))]
        # units (1, 1) and (2, 0) fail; (1, 1) comes first in config-major order
        failing = {derived_seed(0, configs[1].content_key(), 1),
                   derived_seed(0, configs[2].content_key(), 0)}
        real_train = net.train

        def train_or_fail(table, config):  # forked pool workers inherit this patch
            if config.seed in failing:
                raise NumericError("diverged at epoch 0, batch 0")
            return real_train(table, config)

        monkeypatch.setattr(net, "train", train_or_fail)
        with pytest.raises(NumericError) as caught:
            grid_search(table, data, configs, k=3, eval_times=grid_times, budget=3, seed=0,
                        n_jobs=n_jobs)
        assert str(caught.value) == (f"config {configs[1].content_key()}, fold 1: "
                                     "diverged at epoch 0, batch 0")

    def test_fold_partition(self):
        subjects = np.arange(103)
        folds = make_cv_folds(subjects, 5, seed=9)
        stacked = np.concatenate(folds)
        assert np.array_equal(np.sort(stacked), subjects)
        assert len(folds) == 5

    def test_k_validation(self, rng):
        table = toy_table(rng, n=4)
        data = Dataset(np.arange(1.0, 5.0), np.ones(4, dtype=bool),
                       rng.standard_normal((4, 2)), ("z_1", "z_2"))
        cfg = small_config(epochs=5)
        with pytest.raises(DataError):
            grid_search(table, data, [cfg], k=9, eval_times=table.grid, budget=1, seed=0)
        with pytest.raises(DataError):
            grid_search(table, data, [cfg], k=1, eval_times=table.grid, budget=1, seed=0)

    def test_fold_without_comparable_pair_named(self):
        # the two events come first, so a fold of censored subjects has no pair
        data = Dataset(np.arange(1.0, 13.0), np.arange(12) < 2, np.zeros((12, 1)), ("z_1",))
        grid_times = TimeGrid(np.array([2.5, 6.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = pseudo_conditional(data, grid_times)
        with pytest.raises(DataError, match="CV fold 2 has no comparable pair.*fewer folds"):
            grid_search(table, data, [small_config(epochs=2)], k=3, eval_times=grid_times,
                        budget=1, seed=0)

    def test_budget_validation(self, rng):
        table = toy_table(rng, n=10)
        data = Dataset(np.arange(1.0, 11.0), np.ones(10, dtype=bool),
                       rng.standard_normal((10, 2)), ("z_1", "z_2"))
        with pytest.raises(DataError):
            grid_search(table, data, [small_config()], k=2, eval_times=table.grid,
                        budget=2, seed=0)


class TestPersistence:
    def test_round_trip_identical_predictions(self, tmp_path, rng):
        table = toy_table(rng)
        model = train(table, small_config(epochs=15))
        z = rng.standard_normal((20, 2))
        before = predict_marginal_matrix(model, z)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        after = predict_marginal_matrix(loaded, z)
        assert np.array_equal(before, after)
        assert loaded.config == model.config

    def test_version_checked(self, tmp_path, rng):
        table = toy_table(rng)
        model = train(table, small_config(epochs=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = path.read_text().replace('"format_version": 2', '"format_version": 99')
        path.write_text(payload)
        with pytest.raises(DataError, match="format version"):
            load_model(path)


class TestBlasPin:
    @pytest.fixture
    def blas_threads(self):
        """numpy's OpenBLAS (get, set), at two threads for the test and restored after it."""
        calls = util._openblas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        get, set_ = calls
        old = get()
        set_(2)
        yield get
        set_(old)

    def test_pins_one_thread_and_restores(self, blas_threads):
        with util.one_blas_thread():
            assert blas_threads() == 1
            with util.one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2
        with pytest.raises(RuntimeError), util.one_blas_thread():
            raise RuntimeError
        assert blas_threads() == 2

    def test_train_runs_pinned(self, blas_threads, rng, monkeypatch):
        seen = set()
        step = net._batch_loss_and_grads

        def recording(*args):
            seen.add(blas_threads())
            return step(*args)

        monkeypatch.setattr(net, "_batch_loss_and_grads", recording)
        train(toy_table(rng), small_config(epochs=2))
        assert seen == {1}
        assert blas_threads() == 2

    def test_no_op_without_openblas(self, monkeypatch):
        import ctypes

        def missing(name, *args, **kwargs):
            raise OSError(f"{name}: cannot open shared object file")

        util._openblas_threads.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", missing)
        monkeypatch.setattr(util, "_WORKER", None)
        try:
            assert util._openblas_threads() is None
            with util.one_blas_thread():
                pass
            util._init_worker(len, None)
        finally:
            util._openblas_threads.cache_clear()
