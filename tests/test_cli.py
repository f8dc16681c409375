import concurrent.futures
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from pseudosurv import gen_cox, CoxSimSpec, Dataset, save_dataset, load_dataset, DataError
from pseudosurv import FriedmanSpec, gen_friedman_aft
import pseudosurv as ps
from pseudosurv.cli import main
from pseudosurv.util import derived_seed


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)

@pytest.fixture
def toy_csv(tmp_path):
    # three subjects shaped like the worked example table: subject 0 leaves
    # the risk set before the interval starting at 18
    path = tmp_path / "toy.csv"
    write_csv(path, [
        ["time", "event", "z_1"],
        ["14", "1", "3.2"],
        ["30", "1", "5.8"],
        ["27", "0", "1.5"],
    ])
    return path


@pytest.fixture
def sim_csv(tmp_path):
    data = gen_cox(CoxSimSpec(n=250, dependent_censoring=True, seed=77))
    path = tmp_path / "sim.csv"
    save_dataset(data, path)
    return path


class TestTransform:
    def test_row_structure(self, tmp_path, toy_csv):
        out = tmp_path / "pseudo.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([
                "transform", "--input", str(toy_csv), "--output", str(out),
                "--grid-times", "6,12,18,24",
            ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "z_1", "d_0", "d_1", "d_2", "d_3", "pseudo"]
        by_id = {}
        for row in rows[1:]:
            by_id.setdefault(row[0], []).append(row)
        assert len(by_id["0"]) == 3  # no row at the interval starting at 18
        assert len(by_id["1"]) == 4
        assert len(by_id["2"]) == 4
        meta = json.loads((tmp_path / "pseudo.csv.meta.json").read_text())
        assert meta["grid"] == [6.0, 12.0, 18.0, 24.0]
        assert meta["ipcw"] is False

    def test_uncensored_pseudo_binary(self, tmp_path):
        src = tmp_path / "u.csv"
        rows = [["time", "event", "z_1"]]
        rng = np.random.default_rng(1)
        for t in rng.exponential(10, 40):
            rows.append([f"{t:.6g}", "1", f"{rng.normal():.6g}"])
        write_csv(src, rows)
        out = tmp_path / "pseudo.csv"
        code = main([
            "transform", "--input", str(src), "--output", str(out),
            "--grid-percentiles", "0.25,0.5",
        ])
        assert code == 0
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            values = {row[-1] for row in reader}
        assert values <= {"0", "1"}

    def test_ipcw_defaults_to_all_covariates(self, tmp_path, sim_csv):
        out = tmp_path / "pseudo.csv"
        code = main([
            "transform", "--input", str(sim_csv), "--output", str(out),
            "--grid-percentiles", "0.2,0.4", "--ipcw",
        ])
        assert code == 0
        meta = json.loads((tmp_path / "pseudo.csv.meta.json").read_text())
        assert meta["ipcw"] is True
        assert meta["censoring_model"]["covariates"] == ["z_1"]
        assert meta["censoring_model"]["cap"] == 20.0

    @pytest.mark.parametrize("command", ["transform", "train"])
    def test_ipcw_without_covariates(self, tmp_path, command):
        # with p = 0 the censoring model is its Breslow baseline: every subject has risk 1
        cohort = gen_cox(CoxSimSpec(n=60, dependent_censoring=True, seed=3))
        data = Dataset(cohort.time, cohort.event, np.empty((len(cohort), 0)), ())
        src, out = tmp_path / "p0.csv", tmp_path / "out"
        save_dataset(data, src)
        argv = [command, "--input", str(src), "--ipcw", "--weight-cap", "15",
                "--grid-percentiles", "0.2,0.5"]
        if command == "train":
            argv += ["--model-out", str(out), "--budget", "1", "--folds", "2", "--epochs", "2"]
        else:
            argv += ["--output", str(out)]
        assert main(argv) == 0
        if command == "train":
            return
        data = load_dataset(src)
        grid = ps.make_grid(data, percentiles=[0.2, 0.5])
        model = ps.fit_cox(data, target="censoring")
        base = model.baseline_cumhaz
        constant = ps.WeightFunction(base.times, base.values, np.ones(len(data)), 15.0)
        expected = ps.pseudo_conditional(data, grid, constant)
        table = ps.pseudo_conditional(data, grid, ps.censoring_weights(data, model, cap=15.0))
        assert table.pseudo.tobytes() == expected.pseudo.tobytes()
        expected.to_csv(tmp_path / "expected.csv")
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("via", ["flag", "config list"])
    def test_censor_covariates_choose_the_censoring_model(self, tmp_path, via):
        src, out, config = tmp_path / "p20.csv", tmp_path / "pseudo.csv", tmp_path / "c.json"
        save_dataset(gen_friedman_aft(FriedmanSpec(n=120, seed=5)), src)
        argv = ["transform", "--input", str(src), "--output", str(out), "--ipcw"]
        if via == "flag":
            argv += ["--censor-covariates", "z_3, z_1", "--grid-percentiles", "0.3"]
        else:
            config.write_text(json.dumps({"censor_covariates": ["z_3", "z_1"],
                                          "grid_percentiles": [0.3]}))
            argv += ["--config", str(config)]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "pseudo.csv.meta.json").read_text())
        assert meta["censoring_model"]["covariates"] == ["z_3", "z_1"]
        assert len(meta["censoring_model"]["beta"]) == 2

    def test_schema_error_names_row_and_column(self, tmp_path):
        src = tmp_path / "bad.csv"
        write_csv(src, [["time", "event", "z_1"], ["1", "1", "0.5"], ["2", "1", ""]])
        out = tmp_path / "out.csv"
        code = main(["transform", "--input", str(src), "--output", str(out),
                     "--grid-times", "1.5"])
        assert code == 2

    def test_drop_incomplete(self, tmp_path):
        src = tmp_path / "gappy.csv"
        rows = [["time", "event", "z_1"]]
        rng = np.random.default_rng(2)
        for t in rng.exponential(10, 30):
            rows.append([f"{t:.6g}", "1", f"{rng.normal():.6g}"])
        rows[5][2] = ""
        write_csv(src, rows)
        data = load_dataset(src, drop_incomplete=True)
        assert len(data) == 29
        with pytest.raises(DataError, match="row 5"):
            load_dataset(src)


class TestTrainPredictEvaluate:
    def test_round_trip(self, tmp_path, sim_csv):
        model_path = tmp_path / "model.json"
        code = main([
            "train", "--input", str(sim_csv), "--model-out", str(model_path),
            "--grid-percentiles", "0.2,0.4", "--budget", "1", "--folds", "2",
            "--epochs", "8", "--seed", "3", "--threads", "1",
        ])
        assert code == 0
        assert model_path.exists()

        pred_path = tmp_path / "pred.csv"
        code = main([
            "predict", "--model", str(model_path), "--input", str(sim_csv),
            "--output", str(pred_path),
        ])
        assert code == 0
        with open(pred_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "cond_0", "cond_1", "marg_0", "marg_1"]
        cond = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        marg = np.array([[float(r[3]), float(r[4])] for r in rows[1:]])
        assert np.all(marg[:, 1] <= marg[:, 0])
        assert np.allclose(marg[:, 0], cond[:, 0], atol=1e-6)

        eval_path = tmp_path / "report.csv"
        code = main([
            "evaluate", "--input", str(sim_csv), "--model", str(model_path),
            "--output", str(eval_path),
        ])
        assert code == 0
        with open(eval_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "c_index", "brier", "n_pairs"]
        assert len(rows) == 3

    def test_evaluate_oracle_predictions_score_zero(self, tmp_path):
        src = tmp_path / "u.csv"
        rows = [["time", "event"]]
        rng = np.random.default_rng(4)
        times = rng.exponential(10, 30)
        for t in times:
            rows.append([f"{t:.6g}", "1"])
        write_csv(src, rows)
        # perfect survival indicators at one horizon
        t0 = float(np.quantile([float(r[0]) for r in rows[1:]], 0.5))
        pred_path = tmp_path / "oracle.csv"
        pred_rows = [["id", f"{t0:.12g}"]]
        for i, r in enumerate(rows[1:]):
            pred_rows.append([str(i), "1" if float(r[0]) > t0 else "0"])
        write_csv(pred_path, pred_rows)
        out = tmp_path / "report.csv"
        code = main([
            "evaluate", "--input", str(src), "--predictions", str(pred_path),
            "--output", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows_out = list(csv.reader(fh))
        assert float(rows_out[1][2]) == 0.0  # brier
        assert float(rows_out[1][1]) >= 0.5  # indicator ties cap the c-index

    @pytest.mark.parametrize(
        "bad_row, message",
        [(["1", "0.4", "abc"], "invalid number 'abc' at row 2"),
         (["1", "0.4"], "predictions row 2 has 2 cells, expected 3")],
    )
    def test_evaluate_malformed_predictions_exit_2(self, tmp_path, capsys, bad_row, message):
        src = tmp_path / "d.csv"
        write_csv(src, [["time", "event"], ["1", "1"], ["2", "0"], ["3", "1"]])
        pred_path = tmp_path / "pred.csv"
        write_csv(pred_path, [["id", "1.5", "2.5"], ["0", "0.2", "0.1"], bad_row,
                              ["2", "0.9", "0.8"]])
        code = main(["evaluate", "--input", str(src), "--predictions", str(pred_path),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_evaluate_predictions_matched_by_id(self, tmp_path, sim_csv):
        data = load_dataset(sim_csv)
        times = np.quantile(data.time, [0.3, 0.6])
        risk = np.exp(-data.covariates[:, 0])
        header = ["id"] + [f"{t:.12g}" for t in times]
        rows = [[str(i)] + [f"{np.exp(-risk[i] * t / 5):.6g}" for t in times]
                for i in range(len(data))]
        reports = []
        for name, order in (("in_order", rows), ("reversed", rows[::-1])):
            pred_path = tmp_path / f"{name}.csv"
            write_csv(pred_path, [header] + order)
            out = tmp_path / f"{name}_eval.csv"
            code = main(["evaluate", "--input", str(sim_csv), "--predictions", str(pred_path),
                         "--output", str(out)])
            assert code == 0
            reports.append(out.read_bytes() + (tmp_path / f"{name}_eval.csv.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "ids, message",
        [(["0", "1", "1"], "predictions row 3: duplicate id 1"),
         (["0", "2", "3"], "predictions row 3: id 3 is not in 0..2"),
         (["0", "1.0", "2"], "predictions row 2: id '1.0' is not an integer")],
    )
    def test_evaluate_bad_prediction_ids_exit_2(self, tmp_path, capsys, ids, message):
        src = tmp_path / "d.csv"
        write_csv(src, [["time", "event"], ["1", "1"], ["2", "0"], ["3", "1"]])
        pred_path = tmp_path / "pred.csv"
        write_csv(pred_path, [["id", "1.5"]] + [[i, "0.5"] for i in ids])
        code = main(["evaluate", "--input", str(src), "--predictions", str(pred_path),
                     "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_evaluate_needs_exactly_one_source(self, tmp_path, sim_csv):
        out = tmp_path / "r.csv"
        assert main(["evaluate", "--input", str(sim_csv), "--output", str(out)]) == 2


class TestCovariateOrder:
    """predict and evaluate --model match input columns to the model by name."""

    @pytest.fixture
    def trained(self, tmp_path):
        rng = np.random.default_rng(8)
        cov = rng.standard_normal((120, 3))
        time = rng.exponential(np.exp(-cov[:, 0] + 0.5 * cov[:, 2]))
        data = Dataset(time, rng.random(120) < 0.7, cov, ("age", "dose", "score"))
        src = tmp_path / "data.csv"
        save_dataset(data, src)
        model = tmp_path / "model.json"
        assert main([
            "train", "--input", str(src), "--model-out", str(model), "--budget", "1",
            "--folds", "2", "--epochs", "3", "--seed", "2", "--threads", "1",
        ]) == 0
        return data, src, model

    def _run(self, tmp_path, model, data, tag):
        src = tmp_path / f"{tag}.csv"
        save_dataset(data, src)
        outs = [tmp_path / f"{tag}_pred.csv", tmp_path / f"{tag}_eval.csv"]
        codes = (
            main(["predict", "--model", str(model), "--input", str(src), "--output", str(outs[0])]),
            main(["evaluate", "--model", str(model), "--input", str(src), "--output", str(outs[1])]),
        )
        return codes, outs + [tmp_path / f"{tag}_eval.csv.json"]

    def _permuted(self, data, order):
        names = tuple(data.covariate_names[k] for k in order)
        return Dataset(data.time, data.event, data.covariates[:, order], names)

    def test_model_stores_names(self, trained):
        payload = json.loads(trained[2].read_text())
        assert payload["format_version"] == 2
        assert payload["covariate_names"] == ["age", "dose", "score"]

    def test_permuted_columns_give_identical_files(self, tmp_path, trained):
        data, _, model = trained
        codes, base = self._run(tmp_path, model, data, "base")
        assert codes == (0, 0)
        codes, perm = self._run(tmp_path, model, self._permuted(data, [2, 0, 1]), "perm")
        assert codes == (0, 0)
        for a, b in zip(base, perm):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "names, named",
        [
            (("age", "dosage", "score"), ["'dose'", "'dosage'"]),
            (("age", "score", "score"), ["'score'"]),
        ],
    )
    def test_mismatched_columns_exit_2(self, tmp_path, trained, capsys, names, named):
        data, _, model = trained
        # written by hand, since a Dataset refuses a repeated name
        src = tmp_path / "renamed.csv"
        write_csv(src, [["time", "event", *names],
                        *np.c_[data.time, data.event, data.covariates].tolist()])
        codes = tuple(main([command, "--model", str(model), "--input", str(src),
                            "--output", str(tmp_path / f"{command}.csv")])
                      for command in ("predict", "evaluate"))
        assert codes == (2, 2)
        err = capsys.readouterr().err
        assert all(name in err for name in named)

    def test_extra_column_exits_2(self, tmp_path, trained, capsys):
        data, _, model = trained
        wider = Dataset(data.time, data.event, np.c_[data.covariates, data.time],
                        data.covariate_names + ("height",))
        codes, _ = self._run(tmp_path, model, wider, "wider")
        assert codes == (2, 2)
        assert "extra ['height']" in capsys.readouterr().err

    def test_version_1_model_takes_columns_in_order(self, tmp_path, trained):
        data, _, model = trained
        payload = json.loads(model.read_text())
        del payload["covariate_names"]
        payload["format_version"] = 1
        old = tmp_path / "model_v1.json"
        old.write_text(json.dumps(payload))
        codes, base = self._run(tmp_path, model, data, "base")
        codes_v1, v1 = self._run(tmp_path, old, data, "v1")
        assert codes == codes_v1 == (0, 0)
        for a, b in zip(base, v1):
            assert a.read_bytes() == b.read_bytes()
        swapped = self._permuted(data, [1, 0, 2])
        codes, perm = self._run(tmp_path, old, swapped, "v1perm")
        assert codes == (0, 0)
        assert perm[0].read_bytes() != base[0].read_bytes()


class TestSplit:
    def test_split_fractions_and_determinism(self, tmp_path, sim_csv):
        tr1, te1 = tmp_path / "tr1.csv", tmp_path / "te1.csv"
        tr2, te2 = tmp_path / "tr2.csv", tmp_path / "te2.csv"
        for tr, te in ((tr1, te1), (tr2, te2)):
            code = main([
                "split", "--input", str(sim_csv), "--train-out", str(tr),
                "--test-out", str(te), "--seed", "11",
            ])
            assert code == 0
        assert tr1.read_bytes() == tr2.read_bytes()
        assert te1.read_bytes() == te2.read_bytes()
        n_train = len(tr1.read_text().splitlines()) - 1
        n_test = len(te1.read_text().splitlines()) - 1
        assert n_train + n_test == 250
        assert n_train == round(0.75 * 250)


class TestSimulate:
    def test_cox_dependent_summary(self, tmp_path):
        out_dir = tmp_path / "study"
        code = main([
            "simulate", "--study", "cox-dependent", "--replicates", "2",
            "--n", "400", "--seed", "5", "--out", str(out_dir), "--threads", "1",
        ])
        assert code == 0
        with open(out_dir / "replicates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["replicate", "censoring_rate", "beta_gee", "beta_gee_ipcw"]
        assert len(rows) == 3
        summary = (out_dir / "summary.csv").read_text()
        assert "beta_gee" in summary and "beta_gee_ipcw" in summary

    def test_slowly_converging_gee_is_accepted(self, tmp_path):
        # replicate 0's IPCW fit creeps with Gauss-Newton steps near 1e-5 for
        # all 100 iterations; its relative gradient is below eps ** (1/3)
        out_dir = tmp_path / "study"
        code = main([
            "simulate", "--study", "cox-dependent", "--replicates", "2",
            "--n", "300", "--seed", "10", "--out", str(out_dir), "--threads", "1",
        ])
        assert code == 0
        with open(out_dir / "replicates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(np.isfinite(float(row["beta_gee_ipcw"])) for row in rows)

    def test_missing_required_flag(self, tmp_path):
        assert main(["simulate", "--study", "aft"]) == 2

    def test_aft_study_end_to_end(self, tmp_path):
        out_dir = tmp_path / "aft"
        code = main([
            "simulate", "--study", "aft", "--replicates", "1", "--n", "300",
            "--censoring-rate", "0.4", "--budget", "1", "--folds", "2",
            "--epochs", "5", "--seed", "6", "--out", str(out_dir), "--threads", "1",
        ])
        assert code == 0
        with open(out_dir / "replicates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replicate", "censoring_rate", "c_index_net", "brier_net",
                           "c_index_cox", "brier_cox"]
        values = dict(zip(rows[0], rows[1]))
        assert 0.0 <= float(values["c_index_net"]) <= 1.0
        assert float(values["brier_cox"]) >= 0.0

    def test_cox_with_net_identical_across_thread_counts(self, tmp_path):
        self._identical_across_thread_counts(tmp_path, "cox-independent",
                                             ("net", "net_ipcw", "cox"))

    @pytest.mark.parametrize("study, labels", [("aft", ("net", "cox")),
                                               ("cox-dependent", ("net", "net_ipcw", "cox"))])
    def test_identical_across_thread_counts(self, tmp_path, study, labels):
        self._identical_across_thread_counts(tmp_path, study, labels)

    def _identical_across_thread_counts(self, tmp_path, study, labels):
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"study_{threads}"
            code = main([
                "simulate", "--study", study, "--with-net", "--replicates", "2",
                "--n", "300", "--budget", "1", "--folds", "2", "--epochs", "2", "--seed", "1",
                "--out", str(out_dir), "--threads", threads,
            ])
            assert code == 0
            outputs.append(
                (out_dir / "replicates.csv").read_bytes() + (out_dir / "summary.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]
        with open(tmp_path / "study_1" / "replicates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            for label in labels:
                assert 0.0 <= float(row[f"c_index_{label}"]) <= 1.0

    def test_lone_replicate_search_takes_the_workers(self, tmp_path, monkeypatch):
        pools = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        # two usable CPUs on any machine, since --threads is cut to them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"study_{threads}"
            assert main([
                "simulate", "--study", "aft", "--replicates", "1", "--n", "300", "--budget", "2",
                "--folds", "2", "--epochs", "2", "--seed", "4", "--out", str(out_dir),
                "--threads", threads,
            ]) == 0
            outputs.append(
                (out_dir / "replicates.csv").read_bytes() + (out_dir / "summary.csv").read_bytes()
            )
        # only the --threads 2 run's search opened a pool, of min(threads, units) workers
        assert pools == [2]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("study", ["aft", "cox-dependent", "cox-independent"])
    def test_row_rebuilt_from_library_calls(self, tmp_path, study):
        # the documented seed labels: a swapped label changes the row
        seed, rep, n, rate = 7, 0, 200, 0.4
        out_dir = tmp_path / "study"
        assert main([
            "simulate", "--study", study, "--with-net", "--replicates", "1", "--n", str(n),
            "--censoring-rate", str(rate), "--budget", "1", "--folds", "2", "--epochs", "2",
            "--seed", str(seed), "--out", str(out_dir), "--threads", "1",
        ]) == 0
        with open(out_dir / "replicates.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)

        if study == "aft":
            data = ps.gen_friedman_aft(ps.FriedmanSpec(n=n, censoring_rate=rate,
                                                       seed=derived_seed(seed, "aft", rep)))
            train, test = ps.split_dataset(data, 0.75, seed=derived_seed(seed, "aft-split", rep))
            grid = ps.make_grid(train, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
            expected = {"replicate": rep, "censoring_rate": 1.0 - data.event.mean()}
            runs = [("net", None, "aft-net")]
        else:
            spec = dict(n=n, dependent_censoring=study == "cox-dependent", censoring_rate=rate)
            train = ps.gen_cox(ps.CoxSimSpec(seed=derived_seed(seed, "cox-train", rep), **spec))
            test = ps.gen_cox(ps.CoxSimSpec(seed=derived_seed(seed, "cox-test", rep), **spec))
            grid = ps.make_grid(train, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5])
            expected = {
                "replicate": rep,
                "censoring_rate": 1.0 - train.event.mean(),
                "beta_gee": ps.fit_gee(train, grid, ipcw=False).beta[0],
                "beta_gee_ipcw": ps.fit_gee(train, grid, ipcw=True).beta[0],
            }
            weights = ps.censoring_weights(train, ps.fit_cox(train, target="censoring"))
            runs = [("net", None, "net"), ("net_ipcw", weights, "net_ipcw")]
        for label, weights, seed_label in runs:
            _, report = ps.fit_and_evaluate(
                train, test, grid, ps.default_grid(epochs=2), weights=weights, k=2, budget=1,
                seed=derived_seed(seed, seed_label, rep),
            )
            expected[f"c_index_{label}"] = np.nanmean(report.c_index)
            expected[f"brier_{label}"] = np.mean(report.brier)
        cox_pred = ps.cox_predict_survival(ps.fit_cox(train), test.covariates, grid.cutpoints)
        report = ps.evaluate_predictions(test, cox_pred, grid.cutpoints)
        expected["c_index_cox"] = np.nanmean(report.c_index)
        expected["brier_cox"] = np.mean(report.brier)
        assert row == {key: format(value, ".6g") for key, value in expected.items()}

    def test_emit_data_writes_sidecar(self, tmp_path):
        out_dir = tmp_path / "study"
        code = main([
            "simulate", "--study", "cox-independent", "--replicates", "1",
            "--n", "300", "--censoring-rate", "0.3", "--seed", "2",
            "--out", str(out_dir), "--threads", "1", "--emit-data",
        ])
        assert code == 0
        emitted = out_dir / "replicate_0_data.csv"
        assert emitted.exists()
        meta = json.loads((out_dir / "replicate_0_data.csv.meta.json").read_text())
        assert meta["design"] == "cox"
        assert meta["calibrated_exponential_rate"] is not None
        reread = load_dataset(emitted)
        assert len(reread) == 300


class TestReplay:
    def test_config_replay_reproduces_outputs(self, tmp_path, sim_csv):
        out_dir = tmp_path / "study"
        code = main([
            "simulate", "--study", "cox-dependent", "--replicates", "2",
            "--n", "300", "--seed", "9", "--out", str(out_dir), "--threads", "1",
        ])
        assert code == 0
        first = (out_dir / "replicates.csv").read_bytes()
        config = out_dir / "config.json"
        assert config.exists()
        code = main(["simulate", "--config", str(config), "--threads", "1"])
        assert code == 0
        assert (out_dir / "replicates.csv").read_bytes() == first


# kernels of OpenBLAS's DYNAMIC_ARCH build to try beside the default one; OPENBLAS_CORETYPE
# forces one for a single process
OTHER_KERNELS = ["Haswell", "Sandybridge", "Nehalem", "Prescott"]
# a weight may move this many ulps of the largest magnitude in its matrix or bias vector
KERNEL_ULPS = 16


def _run_under_kernel(code: str, kernel: str | None):
    """``python -c code`` with OpenBLAS reporting its core (forced to ``kernel`` if given)."""
    env = {**os.environ, "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": str(Path(ps.__file__).parents[1])}
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def _core(kernel: str | None):
    """The core OpenBLAS runs under ``kernel``, or None where numpy's BLAS names none."""
    out = _run_under_kernel("import numpy as np; assert (np.ones((8, 8)) @ np.ones(8) == 8).all()",
                            kernel)
    found = re.search(r"^Core: (\S+)", out.stdout + out.stderr, re.M)
    return found.group(1) if out.returncode == 0 and found else None


def test_replays_across_blas_kernels(tmp_path):
    """Byte-identical replays hold on one BLAS kernel.  Under another, the model's weights
    and logs may differ in their last bits, and every CSV must still match."""
    default = _core(None)
    if default is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that names its core")
    other = next((k for k in OTHER_KERNELS if _core(k) not in (None, default)), None)
    if other is None:
        pytest.skip(f"no OpenBLAS kernel other than {default} runs here")
    save_dataset(gen_friedman_aft(FriedmanSpec(n=300, censoring_rate=0.4, seed=5)),
                 tmp_path / "d.csv")
    for kernel in (None, other):
        d = tmp_path / (kernel or "default")
        d.mkdir()
        runs = [["train", "--input", f"{tmp_path}/d.csv", "--model-out", f"{d}/m.json",
                 "--budget", "2", "--folds", "2", "--epochs", "3", "--seed", "5", "--threads", "1"],
                ["predict", "--model", f"{d}/m.json", "--input", f"{tmp_path}/d.csv",
                 "--output", f"{d}/p.csv"],
                ["evaluate", "--model", f"{d}/m.json", "--input", f"{tmp_path}/d.csv",
                 "--output", f"{d}/e.csv"]]
        code = "from pseudosurv.cli import main\n" + "".join(
            f"assert main({argv!r}) == 0\n" for argv in runs)
        out = _run_under_kernel(code, kernel)
        assert out.returncode == 0, out.stderr
    a, b = tmp_path / "default", tmp_path / other
    for name in ("p.csv", "e.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    models = [json.loads((d / "m.json").read_text()) for d in (a, b)]
    for key in ("weights", "biases"):
        for x, y in zip(models[0][key], models[1][key]):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            assert np.all(np.abs(x - y) <= KERNEL_ULPS * np.spacing(np.abs(x).max()))
    for key in ("training_log", "weight_norm_log"):
        assert np.allclose(models[0][key], models[1][key], rtol=1e-12, atol=0.0)
    for key in set(models[0]) - {"weights", "biases", "training_log", "weight_norm_log"}:
        assert models[0][key] == models[1][key]


# --seed 40 --budget 1 samples one (128, 128) network: at batch 1024 its gradient matmuls have
# an inner dimension that a multi-threaded OpenBLAS splits across its threads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _package_env(**extra):
    """This environment with the package on the path, no BLAS thread variable and ``extra``."""
    env = {**os.environ, "PYTHONPATH": str(Path(ps.__file__).parents[1])}
    for name in BLAS_THREAD_VARIABLES:
        env.pop(name, None)
    return {**env, **extra}


@pytest.mark.parametrize("batch", ["256", "1024"])
def test_model_bytes_independent_of_thread_counts(tmp_path, batch):
    """``train`` writes the same model at --threads 1 and 2: run as a program, with no BLAS
    thread variable and with OPENBLAS_NUM_THREADS=1, and through the library entry, where numpy
    keeps its default BLAS thread count and the runtime pin holds."""
    save_dataset(gen_friedman_aft(FriedmanSpec(n=1000, censoring_rate=0.4, seed=5)),
                 tmp_path / "d.csv")
    models = set()
    for threads in ("1", "2"):
        for k, (entry, blas) in enumerate([("program", {}),
                                            ("program", {"OPENBLAS_NUM_THREADS": "1"}),
                                            ("library", {})]):
            out = tmp_path / f"m_{threads}_{k}.json"
            argv = ["train", "--input", str(tmp_path / "d.csv"), "--model-out", str(out),
                    "--budget", "1", "--folds", "2", "--epochs", "3", "--batch-size", batch,
                    "--seed", "40", "--threads", threads]
            if entry == "library":
                cmd = ["-c", f"from pseudosurv.cli import main; assert main({argv!r}) == 0"]
            else:
                cmd = ["-m", "pseudosurv.cli", *argv]
            subprocess.run([sys.executable, *cmd], env=_package_env(**blas), check=True)
            models.add(out.read_bytes())
    assert len(models) == 1


THREADS_AT_EXIT = "print(open('/proc/self/status').read().split('Threads:')[1].split()[0])"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's /proc")
@pytest.mark.parametrize("entry", ["console script", "python -m"])
def test_program_runs_on_one_thread(tmp_path, entry):
    """A serial command run as a program starts numpy's OpenBLAS on one thread, so its process
    ends with no thread but its own."""
    save_dataset(gen_cox(CoxSimSpec(n=60, seed=3)), tmp_path / "d.csv")
    argv = ["pseudosurv", "train", "--input", str(tmp_path / "d.csv"), "--model-out",
            str(tmp_path / "m.json"), "--budget", "1", "--folds", "2", "--epochs", "1",
            "--threads", "1"]
    run = ("from pseudosurv._entry import main\ncode = main()" if entry == "console script"
           else "import runpy\ntry:\n    runpy.run_module('pseudosurv.cli', run_name='__main__',"
                " alter_sys=True)\nexcept SystemExit as exc:\n    code = exc.code")
    code = f"import sys\nsys.argv = {argv!r}\n{run}\nassert code == 0\n{THREADS_AT_EXIT}\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_package_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1"]


def test_library_import_leaves_the_environment_alone():
    """Only the program sets OpenBLAS's thread variable; importing the package sets nothing."""
    code = ("import os\nbefore = dict(os.environ)\nimport pseudosurv, pseudosurv.cli\n"
            "from pseudosurv import *\nassert dict(os.environ) == before")
    subprocess.run([sys.executable, "-c", code], env=_package_env(), check=True)


def test_pool_results_do_not_depend_on_the_start_method(tmp_path):
    """``train --ipcw`` and a two-replicate ``simulate --with-net`` at --threads 2 write the
    same model and replicates.csv bytes under every start method the platform offers."""
    import multiprocessing

    save_dataset(gen_cox(CoxSimSpec(n=150, dependent_censoring=True, seed=9)), tmp_path / "d.csv")
    env = {**os.environ, "PYTHONPATH": str(Path(ps.__file__).parents[1])}
    procs = {}
    for method in multiprocessing.get_all_start_methods():
        d = tmp_path / method
        d.mkdir()
        runs = [["train", "--input", f"{tmp_path}/d.csv", "--model-out", f"{d}/m.json", "--ipcw",
                 "--budget", "2", "--folds", "2", "--epochs", "2", "--seed", "3",
                 "--threads", "2"],
                ["simulate", "--study", "cox-dependent", "--replicates", "2", "--n", "150",
                 "--with-net", "--budget", "1", "--folds", "2", "--epochs", "2", "--seed", "3",
                 "--out", f"{d}/study", "--threads", "2"]]
        code = (f"import multiprocessing\nmultiprocessing.set_start_method({method!r}, force=True)\n"
                "from pseudosurv.cli import main\n"
                + "".join(f"assert main({argv!r}) == 0\n" for argv in runs))
        procs[method] = subprocess.Popen([sys.executable, "-c", code], stderr=subprocess.PIPE,
                                         text=True, env=env)
    results = {}
    for method, proc in procs.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, f"{method}: {err}"
        d = tmp_path / method
        results[method] = ((d / "m.json").read_bytes(), (d / "study/replicates.csv").read_bytes())
    assert len(set(results.values())) == 1, sorted(results)


def test_threads_0_counts_the_cpus_this_process_may_use(monkeypatch):
    from pseudosurv import cli
    args = cli._build_parser().parse_args(["train", "--input", "d.csv", "--model-out", "m.json"])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert cli._resolve("train", args)["threads"] == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._resolve("train", args)["threads"] == 64


@pytest.mark.parametrize("argv", [
    ["train", "--input", "{d}/data.csv", "--model-out", "{d}/m.json", "--budget", "3",
     "--folds", "2", "--epochs", "1"],
    ["simulate", "--study", "cox-independent", "--replicates", "3", "--n", "40",
     "--out", "{d}/study"]], ids=lambda argv: argv[0])
def test_threads_are_capped_at_the_usable_cpus(tmp_path, monkeypatch, argv):
    """``--threads 100`` opens a pool of no more workers than the CPUs this process may use.
    A stand-in executor records the pool's size and maps in this process, so no process
    starts."""
    from pseudosurv import util
    pools = []

    class InProcess:
        def __init__(self, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    monkeypatch.setattr(util, "_WORKER", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    save_dataset(gen_cox(CoxSimSpec(n=60, seed=1)), tmp_path / "data.csv")
    assert main([arg.format(d=tmp_path) for arg in argv] + ["--threads", "100"]) == 0
    assert pools == [util.usable_cpus()] == [2]


class TestErrors:
    def test_missing_file_exit_code(self, tmp_path):
        assert main(["transform", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "o.csv")]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        from pseudosurv import NumericError, baselines

        def explode(*args, **kwargs):
            raise NumericError("gee did not converge")

        monkeypatch.setattr(baselines, "fit_gee", explode)
        code = main([
            "simulate", "--study", "cox-dependent", "--replicates", "1",
            "--n", "200", "--seed", "1", "--out", str(tmp_path / "s"),
            "--threads", "1",
        ])
        assert code == 3

    def test_header_violation(self, tmp_path):
        src = tmp_path / "bad.csv"
        write_csv(src, [["t", "e"], ["1", "1"]])
        assert main(["transform", "--input", str(src),
                     "--output", str(tmp_path / "o.csv")]) == 2


UNREADABLE = {
    "directory": (lambda path: path.mkdir(), "Is a directory"),
    "not utf-8": (lambda path: path.write_bytes(b"\xff\xfe1,1\n"), "can't decode byte 0xff"),
    "huge field": (lambda path: path.write_text('"' + "9" * 200_000 + '",1\n'),
                   "field larger than field limit"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("option", ["--input", "--predictions", "--config", "--model"])
def test_unreadable_file_exits_2_naming_it(tmp_path, capsys, kind, option):
    make, reason = UNREADABLE[kind]
    if option in ("--config", "--model") and kind == "huge field":
        reason = "Extra data"  # JSON files have no field limit; the text after the string is bad
    bad = tmp_path / "bad.csv"
    make(bad)
    good = tmp_path / "d.csv"
    write_csv(good, [["time", "event"], ["1", "1"], ["2", "0"], ["3", "1"]])
    argv = {
        "--input": ["transform", "--input", str(bad), "--output", str(tmp_path / "o.csv")],
        "--predictions": ["evaluate", "--input", str(good), "--predictions", str(bad),
                          "--output", str(tmp_path / "r.csv")],
        "--config": ["transform", "--config", str(bad)],
        "--model": ["predict", "--model", str(bad), "--input", str(good),
                    "--output", str(tmp_path / "p.csv")],
    }[option]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and reason in err
    assert "Traceback" not in err


# Every flag each subcommand takes and every key its config.json holds: each command takes,
# writes and reads only its own options (threads is never written).  Older configs hold all
# seven PATH_KEYS (null where the command takes no such path) and a seed, and still replay.
PATH_KEYS = ["input", "model", "model_out", "out", "output", "test_out", "train_out"]
PSEUDO_FLAGS = ["--censor-covariates", "--drop-incomplete", "--grid-percentiles",
                "--grid-times", "--ipcw", "--weight-cap"]
PSEUDO_KEYS = ["censor_covariates", "drop_incomplete", "grid_percentiles", "grid_times", "ipcw",
               "weight_cap"]
SEARCH_FLAGS = ["--batch-size", "--budget", "--epochs", "--folds", "--seed", "--threads"]
SEARCH_KEYS = ["batch_size", "budget", "epochs", "folds", "seed"]
COMMON_FLAGS = ["--config", "--help"]
COMMON_KEYS = ["command", "version"]
CONTRACT = {
    "transform": (["--input", "--output", *PSEUDO_FLAGS], ["input", "output", *PSEUDO_KEYS]),
    "train": (["--input", "--model-out", *PSEUDO_FLAGS, *SEARCH_FLAGS],
              ["input", "model_out", *PSEUDO_KEYS, *SEARCH_KEYS]),
    "predict": (["--drop-incomplete", "--input", "--model", "--output"],
                ["drop_incomplete", "input", "model", "output"]),
    "evaluate": (["--drop-incomplete", "--input", "--model", "--output", "--predictions",
                  "--times"], ["drop_incomplete", "input", "model", "output", "predictions",
                               "times"]),
    "simulate": (["--censoring-rate", "--emit-data", "--n", "--out", "--replicates", "--study",
                  "--with-net", *SEARCH_FLAGS],
                 ["censoring_rate", "emit_data", "n", "out", "replicates", "study", "with_net",
                  *SEARCH_KEYS]),
    "split": (["--fraction", "--input", "--seed", "--test-out", "--train-out"],
              ["fraction", "input", "seed", "test_out", "train_out"]),
}


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_flag_set_is_pinned(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == set(CONTRACT[command][0] + COMMON_FLAGS)


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay_inputs")
    save_dataset(gen_cox(CoxSimSpec(n=200, dependent_censoring=True, seed=31)), root / "data.csv")
    assert main(["train", "--input", str(root / "data.csv"),
                 "--model-out", str(root / "model.json"), "--budget", "1", "--folds", "2",
                 "--epochs", "3", "--seed", "2", "--threads", "1"]) == 0
    return root


# command: arguments, with {in} for the inputs and {out} for the output directory
REPLAYS = {
    "transform": ["--input", "{in}/data.csv", "--output", "{out}/pseudo.csv", "--ipcw",
                  "--grid-percentiles", "0.2,0.5"],
    "train": ["--input", "{in}/data.csv", "--model-out", "{out}/model.json", "--budget", "1",
              "--folds", "2", "--epochs", "3", "--seed", "5"],
    "predict": ["--model", "{in}/model.json", "--input", "{in}/data.csv",
                "--output", "{out}/pred.csv"],
    "evaluate": ["--model", "{in}/model.json", "--input", "{in}/data.csv",
                 "--output", "{out}/report.csv", "--times", "0.5,1"],
    "simulate": ["--study", "aft", "--replicates", "1", "--n", "200", "--budget", "1",
                 "--folds", "2", "--epochs", "2", "--seed", "4", "--out", "{out}/study"],
    "split": ["--input", "{in}/data.csv", "--train-out", "{out}/train.csv",
              "--test-out", "{out}/test.csv", "--seed", "8"],
}


def _tree(root):
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("command", sorted(REPLAYS))
def test_config_replay_is_byte_identical(tmp_path, replay_inputs, command):
    # threads is not stored in config.json: results do not depend on it
    threads = ["--threads", "1"] if "--threads" in CONTRACT[command][0] else []
    out = tmp_path / "out"
    out.mkdir()
    argv = [arg.format(**{"in": replay_inputs, "out": out}) for arg in REPLAYS[command]]
    assert main([command, *argv, *threads]) == 0
    first = _tree(out)
    (config,) = out.rglob("*config.json")
    stored = json.loads(config.read_text())
    assert sorted(stored) == sorted(COMMON_KEYS + CONTRACT[command][1])
    assert not [key for key in PATH_KEYS if key in stored and stored[key] is None]
    # the layout written before each command stored only its own options replays too
    layouts = {"own": stored, "all paths and seed": {**dict.fromkeys(PATH_KEYS), "seed": 0,
                                                     **stored}}
    for name, layout in layouts.items():
        replay = tmp_path / f"{name}.json"
        replay.write_text(json.dumps(layout))
        for path in out.rglob("*"):
            if path.is_file():
                path.unlink()
        assert main([command, "--config", str(replay), *threads]) == 0
        assert _tree(out) == first, name


def test_every_json_file_written_is_strict(tmp_path, replay_inputs, strict_json):
    """Reports, metadata, models and configs parse as RFC 8259 JSON: no NaN or Infinity."""
    write_csv(tmp_path / "pred.csv", [["id", "0.5", "1"]]
              + [[str(i), "0.5", f"{i / 200:.6g}"] for i in range(200)])
    data, out = str(replay_inputs / "data.csv"), str(tmp_path / "out")
    runs = [
        ["transform", "--input", data, "--output", f"{out}/pseudo.csv"],
        ["transform", "--input", data, "--output", f"{out}/pseudo_ipcw.csv", "--ipcw"],
        ["train", "--input", data, "--model-out", f"{out}/model.json", "--budget", "1",
         "--folds", "2", "--epochs", "3", "--threads", "1"],
        ["predict", "--model", f"{out}/model.json", "--input", data, "--output", f"{out}/p.csv"],
        ["evaluate", "--model", f"{out}/model.json", "--input", data,
         "--output", f"{out}/by_model.csv"],
        ["evaluate", "--predictions", str(tmp_path / "pred.csv"), "--input", data,
         "--output", f"{out}/by_predictions.csv"],
        ["simulate", *REPLAYS["simulate"][:-2], "--out", f"{out}/study", "--threads", "1"],
        ["split", "--input", data, "--train-out", f"{out}/train.csv",
         "--test-out", f"{out}/test.csv"],
    ]
    (tmp_path / "out").mkdir()
    for argv in runs:
        assert main(argv) == 0, argv
    written = sorted((tmp_path / "out").rglob("*.json"))
    # a config.json per run, a .meta.json per transform, the model and a report per evaluate
    assert len(written) == len(runs) + 2 + 1 + 2
    for path in written:
        strict_json(path)


# config file contents that exit 2 naming the file: (command, contents, message)
BAD_CONFIGS = {
    "not an object": ("train", [1], "a config file must be a JSON object"),
    "unknown key": ("train", {"epoch": 1}, "unknown key 'epoch'"),
    "null integer": ("train", {"budget": None}, "budget cannot be null"),
    "text integer": ("train", {"budget": "abc"}, 'budget cannot be "abc"'),
    "bool integer": ("train", {"budget": True}, "budget cannot be true"),
    "bool number": ("transform", {"weight_cap": False}, "weight_cap cannot be false"),
    "null text": ("transform", {"grid_percentiles": None}, "grid_percentiles cannot be null"),
    "text in number list": ("transform", {"grid_percentiles": ["a"]},
                            'grid_percentiles cannot be ["a"]'),
    "list for a path": ("transform", {"input": ["x"], "output": "o.csv"}, 'input cannot be ["x"]'),
    "path of another command": ("transform", {"model": "m.json"}, "unknown key 'model'"),
    "threads where none run": ("transform", {"threads": 2}, "unknown key 'threads'"),
    "number seed": ("split", {"seed": 1.5}, "seed cannot be 1.5"),
    "integer beyond float range": ("transform", {"weight_cap": 10**400},
                                   "weight_cap cannot be 1000"),
    "another command": ("transform", {"command": "train"},
                        "config file is for command 'train', not 'transform'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_naming_file_and_key(tmp_path, capsys, case):
    command, contents, message = BAD_CONFIGS[case]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(contents))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: {message}")


def _model(**fields):
    """A valid format-2 model for data.csv (one covariate, three intervals), fields replaced."""
    config = asdict(ps.default_grid(epochs=1)[0])
    sizes = [4, *config["hidden_layers"], 1]
    payload = {"format_version": 2, "config": config, "cutpoints": [1.5, 2.5, 3.5],
               "covariate_mean": [0.0], "covariate_std": [1.0], "covariate_names": ["z_1"],
               "weights": [np.full((a, b), 0.1).tolist() for a, b in zip(sizes, sizes[1:])],
               "biases": [[0.0] * b for b in sizes[1:]]}
    return {**payload, **fields}


# model files with one malformed field: (fields, the text the error must hold)
BAD_MODELS = {
    "weights not numbers": ({"weights": "abc"}, "malformed model file"),
    "config a list": ({"config": []}, "malformed model file"),
    "names a number": ({"covariate_names": 5}, "malformed model file"),
    "negative cutpoint": ({"cutpoints": [-1, 2]}, "malformed model file: grid cutpoints"),
    "too few cutpoints": ({"cutpoints": [1, 2]},
                          "model arrays do not fit 1 covariates, 2 intervals"),
    "layers do not chain": ({"weights": _model()["weights"][1:]}, "model arrays do not fit"),
    "too many names": ({"covariate_names": ["z_1", "z_2"]}, "model arrays do not fit"),
    "infinite weight": ({"weights": [[[float("inf")] + row[1:] for row in _model()["weights"][0]],
                                     *_model()["weights"][1:]]},
                        "malformed model file: weights must be finite"),
    "nan covariate mean": ({"covariate_mean": [float("nan")]},
                           "malformed model file: covariate_mean must be finite"),
    "zero covariate std": ({"covariate_std": [0.0]},
                           "malformed model file: covariate_std must be positive"),
    "infinite cutpoint": ({"cutpoints": [1.5, 2.5, float("inf")]},
                          "malformed model file: grid cutpoints must be positive and finite"),
    "covariate mean nested": ({"covariate_mean": [[0.0]]}, "model arrays do not fit"),
    "infinite hidden width": ({"config": {**_model()["config"], "hidden_layers": [float("inf")]}},
                              "malformed model file"),
    "format version true": ({"format_version": True}, "unsupported model format version: True"),
    "format version 1.0": ({"format_version": 1.0}, "unsupported model format version: 1.0"),
}


def test_hand_written_model_predicts(tmp_path):
    write_csv(tmp_path / "data.csv",
              [["time", "event", "z_1"], ["1", "1", "0.5"], ["2", "0", "-1"]])
    (tmp_path / "model.json").write_text(json.dumps(_model()))
    assert main(["predict", "--model", str(tmp_path / "model.json"), "--input",
                 str(tmp_path / "data.csv"), "--output", str(tmp_path / "p.csv")]) == 0


# arguments, with {d} for a directory holding data.csv (5 subjects), early.csv (12 subjects,
# the two events first), header.csv (no rows), an empty directory dir, model.json (a valid
# model for data.csv), malformed models,
# prediction files pred.csv, noid.csv (no id column), abc.csv (a column not named by a time),
# short.csv (4 rows), inf.csv (first cell inf) and infcol.csv (a column named inf), twice.csv
# (5 subjects, z_1 twice in the header), twice.json (a model naming z_1 twice), and config
# files threads.json (a negative thread count), infcap.json (an infinite weight cap),
# inflist.json (an infinite grid percentile beside grid times), hugelist.json (a grid time
# beyond float range), bigint.json (replicates beyond a C ssize_t) and digits.json (a budget
# of 5 000 digits), and the text the error must hold
HOSTILE = {
    "transform output directory": (["transform", "--input", "{d}/data.csv", "--output", "{d}/dir",
                                    "--grid-times", "2.5"], "Is a directory: '{d}/dir'"),
    "split train-out directory": (["split", "--input", "{d}/data.csv", "--train-out", "{d}/dir",
                                   "--test-out", "{d}/te.csv"], "Is a directory: '{d}/dir'"),
    "model not an object": (["predict", "--model", "{d}/list.json", "--input", "{d}/data.csv",
                             "--output", "{d}/p.csv"],
                            "{d}/list.json: a model file must be a JSON object"),
    "model without config": (["predict", "--model", "{d}/v2.json", "--input", "{d}/data.csv",
                              "--output", "{d}/p.csv"], "{d}/v2.json: model file has no 'config'"),
    "header-only input": (["transform", "--input", "{d}/header.csv", "--output", "{d}/o.csv"],
                          "empty dataset"),
    "unknown censoring covariate": (["transform", "--input", "{d}/data.csv", "--output",
                                     "{d}/o.csv", "--ipcw", "--censor-covariates", "nope"],
                                    "unknown covariate 'nope'"),
    "censoring covariate named twice": (["transform", "--input", "{d}/data.csv", "--output",
                                         "{d}/o.csv", "--ipcw", "--censor-covariates", "z_1,z_1"],
                                        "covariate 'z_1' is named twice"),
    **{f"{argv[0]} on a header naming a covariate twice": (
        [*argv, "--input", "{d}/twice.csv"], "covariate 'z_1' is named twice")
       for argv in (["transform", "--output", "{d}/o.csv"],
                    ["train", "--model-out", "{d}/m.json"],
                    ["split", "--train-out", "{d}/tr.csv", "--test-out", "{d}/te.csv"])},
    "model naming a covariate twice": (["predict", "--model", "{d}/twice.json", "--input",
                                        "{d}/data.csv", "--output", "{d}/p.csv"],
                                       "covariate 'z_1' is named twice"),
    "zero replicates": (["simulate", "--replicates", "0", "--out", "{d}/study"],
                        "replicates must be in 1..1152921504606846975, not 0"),
    "replicates beyond ssize_t": (["simulate", "--replicates", "100000000000000000000", "--n",
                                   "40", "--out", "{d}/study"],
                                  "replicates must be in 1..1152921504606846975, "
                                  "not 100000000000000000000"),
    "replicates beyond ssize_t in config": (["simulate", "--config", "{d}/bigint.json", "--n",
                                             "40", "--out", "{d}/study"],
                                            "replicates must be in 1..1152921504606846975, "
                                            "not 100000000000000000000"),
    "config integer of 5 000 digits": (["train", "--config", "{d}/digits.json", "--input",
                                        "{d}/data.csv", "--model-out", "{d}/m.json"],
                                       "{d}/digits.json: Exceeds the limit (4300 digits)"),
    "unknown study": (["simulate", "--study", "nope", "--out", "{d}/study"],
                      "study must be one of aft, cox-dependent, cox-independent, not 'nope'"),
    "split fraction above 1": (["split", "--input", "{d}/data.csv", "--train-out", "{d}/tr.csv",
                                "--test-out", "{d}/te.csv", "--fraction", "1.5"],
                               "fraction must be in (0, 1), not 1.5"),
    **{f"predictions {case}": (["evaluate", "--input", "{d}/data.csv", "--output", "{d}/r.csv",
                                "--predictions", f"{{d}}/{name}.csv"], message)
       for case, name, message in [
           ("without id", "noid", "predictions header must start with 'id'"),
           ("column not a time", "abc",
            "prediction columns after 'id' must be named by their times"),
           ("short a row", "short", "predictions have 4 rows, data has 5"),
           ("with an infinite cell", "inf", "non-finite number 'inf' at row 1, column '2.5'"),
           ("column at time inf", "infcol",
            "prediction columns after 'id' must be named by their times")]},
    "nan grid time": (["transform", "--input", "{d}/data.csv", "--output", "{d}/o.csv",
                       "--grid-times", "nan"], "cannot parse number list 'nan'"),
    "nan grid percentile": (["transform", "--input", "{d}/data.csv", "--output", "{d}/o.csv",
                             "--grid-percentiles", "0.2,nan"],
                            "cannot parse number list '0.2,nan'"),
    "nan weight cap": (["transform", "--input", "{d}/data.csv", "--output", "{d}/o.csv", "--ipcw",
                        "--weight-cap", "nan"], "weight_cap must be in (1, inf), not nan"),
    "infinite weight cap": (["transform", "--input", "{d}/data.csv", "--output", "{d}/o.csv",
                             "--ipcw", "--weight-cap", "1e400"],
                            "weight_cap must be in (1, inf), not inf"),
    "infinite weight cap without ipcw": (["transform", "--input", "{d}/data.csv", "--output",
                                          "{d}/o.csv", "--weight-cap", "inf"],
                                         "weight_cap must be in (1, inf), not inf"),
    "infinite weight cap in config": (["train", "--config", "{d}/infcap.json", "--input",
                                       "{d}/data.csv", "--model-out", "{d}/m.json"],
                                      "weight_cap must be in (1, inf), not inf"),
    "infinite fraction": (["split", "--input", "{d}/data.csv", "--train-out", "{d}/tr.csv",
                           "--test-out", "{d}/te.csv", "--fraction=-inf"],
                          "fraction must be in (0, 1), not -inf"),
    "infinite unused grid percentile": (["transform", "--config", "{d}/inflist.json", "--input",
                                         "{d}/data.csv", "--output", "{d}/o.csv"],
                                        "cannot parse number list [inf] as finite numbers"),
    "grid time beyond float range": (["transform", "--config", "{d}/hugelist.json", "--input",
                                      "{d}/data.csv", "--output", "{d}/o.csv"],
                                     "cannot parse number list [1000"),
    "fold without comparable pair": (["train", "--input", "{d}/early.csv", "--model-out",
                                      "{d}/m.json", "--grid-times", "1.5,2.5", "--folds", "3"],
                                     "CV fold 2 has no comparable pair"),
    "cox-independent without censoring": (["simulate", "--study", "cox-independent",
                                           "--censoring-rate", "0", "--out", "{d}/study"],
                                          "--censoring-rate must be above 0"),
    "cox-dependent rate out of range": (["simulate", "--study", "cox-dependent", "--n", "50",
                                         "--censoring-rate", "1.5", "--out", "{d}/study"],
                                        "censoring_rate must be in [0, 1)"),
    "aft study of one subject": (["simulate", "--study", "aft", "--n", "1", "--out",
                                  "{d}/study"], "n must be at least 2"),
    "empty model path": (["evaluate", "--input", "{d}/data.csv", "--output", "{d}/r.csv",
                          "--model", ""], "--model is empty"),
    "empty predictions path": (["evaluate", "--input", "{d}/data.csv", "--output", "{d}/r.csv",
                                "--predictions", ""], "--predictions is empty"),
    "empty config path": (["predict", "--config", "", "--model", "{d}/m.json", "--input",
                           "{d}/data.csv", "--output", "{d}/p.csv"], "--config is empty"),
    "times with predictions": (["evaluate", "--input", "{d}/data.csv", "--output", "{d}/r.csv",
                                "--predictions", "{d}/pred.csv", "--times", "0.1,0.2"],
                               "--times applies only with --model"),
    "negative threads": (["train", "--input", "{d}/data.csv", "--model-out", "{d}/m.json",
                          "--threads", "-3"], "threads must be in 0..9223372036854775807, not -3"),
    "negative threads in config": (["train", "--config", "{d}/threads.json", "--input",
                                    "{d}/data.csv", "--model-out", "{d}/m.json"],
                                   "threads must be in 0..9223372036854775807, not -1"),
    **{f"model {case}": (["predict", "--model", f"{{d}}/{case}.json", "--input", "{d}/data.csv",
                          "--output", "{d}/p.csv"], f"{{d}}/{case}.json: {message}")
       for case, (_, message) in BAD_MODELS.items()},
    # argparse's own refusals, and seeds that 32 bits cannot hold
    **{case: (["split", "--input", "{d}/data.csv", "--train-out", "{d}/tr.csv", "--test-out",
               "{d}/te.csv", *flags], message)
       for case, flags, message in [
           ("seed not an integer", ["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
           ("unknown flag", ["--shuffle"], "unrecognized arguments: --shuffle"),
           ("flag without a value", ["--seed"], "argument --seed: expected one argument"),
           ("negative seed", ["--seed", "-1"], "seed must be in 0..4294967295, not -1"),
           ("seed of 2**32", ["--seed", "4294967296"],
            "seed must be in 0..4294967295, not 4294967296")]},
    "no command": ([], "the following arguments are required: command"),
    "train seed of 2**32": (["train", "--input", "{d}/data.csv", "--model-out", "{d}/m.json",
                             "--grid-times", "2.5", "--folds", "2", "--seed", "4294967296"],
                            "seed must be in 0..4294967295, not 4294967296"),
    # an option is checked before the input is read: the seed, not the missing file, is named
    "train seed of 2**32 on a missing input": (["train", "--input", "{d}/missing.csv",
                                                "--model-out", "{d}/m.json",
                                                "--seed", "4294967296"],
                                               "seed must be in 0..4294967295, not 4294967296"),
    "nan grid time on a missing input": (["transform", "--input", "{d}/missing.csv", "--output",
                                          "{d}/o.csv", "--grid-times", "nan"],
                                         "cannot parse number list 'nan'"),
    "simulate seed of -1": (["simulate", "--seed", "-1", "--n", "100", "--replicates", "1",
                             "--out", "{d}/s1"], "seed must be in 0..4294967295, not -1"),
    "simulate epochs 0 with net": (["simulate", "--epochs", "0", "--with-net", "--n", "100",
                                    "--replicates", "1", "--out", "{d}/s2"],
                                   "epochs must be in 1..9223372036854775807, not 0"),
    **{f"train {flag} {value}": (["train", "--input", "{d}/data.csv", "--model-out", "{d}/m.json",
                                  f"--{flag}", value], message)
       for flag, value, message in [
           ("folds", "1", "folds must be in 2..9223372036854775807, not 1"),
           ("budget", "0", "budget must be in 1..2520, not 0"),
           ("budget", "2521", "budget must be in 1..2520, not 2521"),
           ("batch-size", "0", "batch_size must be in 1..9223372036854775807, not 0")]},
    # a study lists its replicate numbers, and a list holds at most sys.maxsize // 8 items
    "replicates beyond a list's length": (["simulate", "--replicates", "1152921504606846976",
                                           "--n", "40", "--out", "{d}/study"],
                                          "replicates must be in 1..1152921504606846975, "
                                          "not 1152921504606846976"),
    # a study writes --out when its last replicate ends, so an --out it cannot make is refused
    # before the first one starts
    "simulate out names a file": (["simulate", "--n", "40", "--replicates", "1", "--out",
                                   "{d}/data.csv"],
                                  "--out {d}/data.csv: {d}/data.csv is not a directory"),
    "simulate out inside a file": (["simulate", "--n", "40", "--replicates", "1", "--out",
                                    "{d}/data.csv/study"],
                                   "--out {d}/data.csv/study: {d}/data.csv is not a directory"),
    "transform weight cap 1": (["transform", "--input", "{d}/data.csv", "--output", "{d}/o.csv",
                                "--ipcw", "--weight-cap", "1"],
                               "weight_cap must be in (1, inf), not 1.0"),
    # every output is checked before any input is read: its directory must exist, and a file
    # output must not be a directory
    "train model-out in a missing directory": (["train", "--input", "{d}/data.csv", "--model-out",
                                                "{d}/missing/m.json"],
                                               "--model-out {d}/missing/m.json: {d}/missing is "
                                               "not a directory"),
    "transform output in a missing directory": (["transform", "--input", "{d}/data.csv",
                                                 "--output", "{d}/missing/p.csv"],
                                                "--output {d}/missing/p.csv: {d}/missing is "
                                                "not a directory"),
    "predict output directory": (["predict", "--model", "{d}/model.json", "--input",
                                  "{d}/data.csv", "--output", "{d}/dir"],
                                 "Is a directory: '{d}/dir'"),
    "evaluate output in a missing directory": (["evaluate", "--input", "{d}/data.csv",
                                                "--predictions", "{d}/pred.csv", "--output",
                                                "{d}/missing/e.csv"],
                                               "--output {d}/missing/e.csv: {d}/missing is "
                                               "not a directory"),
    # split writes no train file when its test path is refused
    "split test-out directory": (["split", "--input", "{d}/data.csv", "--train-out", "{d}/tr.csv",
                                  "--test-out", "{d}/dir"], "Is a directory: '{d}/dir'"),
    # a file written beside the output is checked with it: transform's metadata, evaluate's JSON
    # report and a config.json
    "transform meta file a directory": (["transform", "--input", "{d}/data.csv", "--output",
                                         "{d}/side.csv", "--grid-times", "2.5"],
                                        "Is a directory: '{d}/side.csv.meta.json'"),
    "evaluate report file a directory": (["evaluate", "--input", "{d}/data.csv", "--predictions",
                                          "{d}/pred.csv", "--output", "{d}/side.csv"],
                                         "Is a directory: '{d}/side.csv.json'"),
    "train config file a directory": (["train", "--input", "{d}/data.csv", "--model-out",
                                       "{d}/side.json", "--grid-times", "2.5", "--folds", "2"],
                                      "Is a directory: '{d}/side.json.config.json'"),
    # only a config file can give a path that holds a NUL character
    "NUL in an output path": (["transform", "--config", "{d}/nulout.json", "--input",
                               "{d}/data.csv"], "--output 'o\\x00.csv' holds a NUL character"),
    "NUL in an input path": (["transform", "--config", "{d}/nulin.json", "--output", "{d}/o.csv"],
                             "--input 'd\\x00.csv' holds a NUL character"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_invocation_exits_2(tmp_path, capsys, case):
    args, message = HOSTILE[case]
    for name in ("dir", "side.csv.meta.json", "side.csv.json", "side.json.config.json"):
        (tmp_path / name).mkdir()
    (tmp_path / "nulout.json").write_text('{"output": "o\\u0000.csv"}')
    (tmp_path / "nulin.json").write_text('{"input": "d\\u0000.csv"}')
    write_csv(tmp_path / "data.csv", [["time", "event", "z_1"], ["1", "1", "0.5"], ["2", "0", "-1"],
                                      ["3", "1", "0.2"], ["4", "1", "1.1"], ["5", "0", "0.3"]])
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "model.json").write_text(json.dumps(_model()))
    (tmp_path / "v2.json").write_text('{"format_version": 2}')
    (tmp_path / "threads.json").write_text('{"threads": -1}')
    write_csv(tmp_path / "pred.csv", [["id", "2.5"]] + [[str(i), "0.5"] for i in range(5)])
    write_csv(tmp_path / "noid.csv", [["subject", "2.5"]] + [[str(i), "0.5"] for i in range(5)])
    write_csv(tmp_path / "abc.csv", [["id", "abc"]] + [[str(i), "0.5"] for i in range(5)])
    write_csv(tmp_path / "short.csv", [["id", "2.5"]] + [[str(i), "0.5"] for i in range(4)])
    write_csv(tmp_path / "inf.csv", [["id", "2.5"], ["0", "inf"]]
              + [[str(i), "0.5"] for i in range(1, 5)])
    write_csv(tmp_path / "infcol.csv", [["id", "inf"]] + [[str(i), "0.5"] for i in range(5)])
    (tmp_path / "infcap.json").write_text('{"weight_cap": Infinity}')
    (tmp_path / "inflist.json").write_text('{"grid_percentiles": [1e400], "grid_times": "2.5"}')
    (tmp_path / "hugelist.json").write_text('{"grid_times": [1%s]}' % ("0" * 400))
    (tmp_path / "bigint.json").write_text('{"replicates": 100000000000000000000}')
    (tmp_path / "digits.json").write_text('{"budget": 1%s}' % ("0" * 5000))
    write_csv(tmp_path / "twice.csv", [["time", "event", "z_1", "z_1"]]
              + [[str(t), str(t % 2), "0.5", "1"] for t in range(1, 6)])
    first, *rest = _model()["weights"]
    (tmp_path / "twice.json").write_text(json.dumps(_model(
        covariate_names=["z_1", "z_1"], covariate_mean=[0.0, 0.0], covariate_std=[1.0, 1.0],
        weights=[first + first[:1], *rest])))
    for case, (fields, _) in BAD_MODELS.items():
        (tmp_path / f"{case}.json").write_text(json.dumps(_model(**fields)))
    write_csv(tmp_path / "header.csv", [["time", "event", "z_1"]])
    write_csv(tmp_path / "early.csv", [["time", "event", "z_1"]]
              + [[str(t), str(int(t <= 2)), f"{t % 3}"] for t in range(1, 13)])
    inputs = set(tmp_path.rglob("*"))
    assert main([arg.format(d=tmp_path) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(d=tmp_path) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert set(tmp_path.rglob("*")) == inputs  # a refused run leaves no output behind


@pytest.mark.parametrize("argv", [["train", "--model-out", "{d}/missing/m.json"],
                                  ["transform", "--output", "{d}/missing/p.csv"]], ids=" ".join)
def test_refused_output_does_no_work(tmp_path, capsys, monkeypatch, argv):
    """An output that cannot be written is refused before the pseudo values or the search."""
    def work(*args, **kwargs):
        pytest.fail("the run began its work before refusing its output")
    monkeypatch.setattr("pseudosurv.pseudo.pseudo_conditional", work)
    monkeypatch.setattr("pseudosurv.net.grid_search", work)
    save_dataset(gen_cox(CoxSimSpec(n=50, seed=1)), tmp_path / "d.csv")
    assert main([arg.format(d=tmp_path) for arg in argv]
                + ["--input", str(tmp_path / "d.csv")]) == 2
    assert f"{tmp_path}/missing is not a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "not enough memory"),
    (MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and "
                 "data type float64"), "Unable to allocate 8.00 TiB for an array with shape"),
])
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, exc, message):
    """A run that asks for more memory than the machine holds prints one ``error:`` line; the
    replicates' map raises as ``--replicates 2**40`` did, without allocating anything."""
    def map_replicates(*args):
        raise exc
    monkeypatch.setattr("pseudosurv.cli.parallel_map", map_replicates)
    assert main(["simulate", "--n", "40", "--replicates", "2", "--out",
                 str(tmp_path / "study")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "study").exists()


# arguments, with {d} for a directory that holds huge.csv and huge10.csv (6 and 10 subjects,
# covariates of +-1e308), data.csv (5 subjects), its predictions big.csv (one of 1e308) and
# overflow.json (a model whose first layer overflows to inf, its second to inf - inf), whose
# run fails numerically, and the text the error must hold
NUMERIC_HOSTILE = {
    "gee diverges on 3 subjects": (["simulate", "--study", "cox-dependent", "--replicates", "1",
                                    "--n", "3", "--seed", "0", "--threads", "1",
                                    "--out", "{d}/study"], "gee diverged"),
    "gee diverges in a replicate of 6": (["simulate", "--study", "cox-dependent", "--replicates",
                                          "3", "--n", "6", "--seed", "0", "--threads", "1",
                                          "--out", "{d}/study"], "gee diverged"),
    "cox overflows on covariates of 1e308": (["transform", "--input", "{d}/huge.csv", "--output",
                                              "{d}/o.csv", "--ipcw"], "cox did not converge"),
    "covariate scaling overflows on 1e308": (["train", "--input", "{d}/huge10.csv", "--model-out",
                                              "{d}/m.json", "--budget", "1", "--folds", "2",
                                              "--epochs", "1", "--threads", "1"],
                                             "covariates z overflow their mean or standard"),
    "brier overflows on a prediction of 1e308": (["evaluate", "--input", "{d}/data.csv",
                                                  "--predictions", "{d}/big.csv",
                                                  "--output", "{d}/r.csv"],
                                                 "a Brier score overflows: predictions lie far"),
    **{f"{command} on a model whose layers overflow": (
        [command, "--model", "{d}/overflow.json", "--input", "{d}/data.csv",
         "--output", "{d}/out.csv"], "the network's output is not finite: a layer overflows")
       for command in ("predict", "evaluate")},
}


@pytest.mark.parametrize("case", sorted(NUMERIC_HOSTILE))
def test_hostile_invocation_exits_3(tmp_path, capsys, case):
    args, message = NUMERIC_HOSTILE[case]
    write_csv(tmp_path / "huge.csv", [["time", "event", "z"]]
              + [[str(t), str(t % 2), f"{(-1) ** t}e308"] for t in range(1, 7)])
    write_csv(tmp_path / "huge10.csv", [["time", "event", "z"]]
              + [[str(t), e, f"{(-1) ** (t + 1)}e308"] for t, e in enumerate("1011011011", 1)])
    write_csv(tmp_path / "data.csv", [["time", "event", "z"]]
              + [[str(t), e, "1"] for t, e in enumerate("10110", 1)])
    write_csv(tmp_path / "big.csv", [["id", "2.5"], ["0", "1e308"]]
              + [[str(i), "0.5"] for i in range(1, 5)])
    first, second = _model()["weights"]
    overflow = _model(weights=[np.full_like(first, 1e308).tolist(),
                               [[(-1.0) ** k] for k in range(len(second))]],
                      covariate_names=["z"])
    (tmp_path / "overflow.json").write_text(json.dumps(overflow))
    inputs = set(tmp_path.rglob("*"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([arg.format(d=tmp_path) for arg in args]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert set(tmp_path.rglob("*")) == inputs


def test_library_warning_prints_one_line(tmp_path):
    """A warning from the library reaches stderr as one ``warning: ...`` line, without its
    source location; run in a child process, since pytest records warnings instead."""
    write_csv(tmp_path / "d.csv", [["time", "event", "z_1"]]
              + [[str(t), e, f"{t % 3}"] for t, e in enumerate("00110110", 1)])
    env = {**os.environ, "PYTHONPATH": str(Path(ps.__file__).parents[1])}
    env.pop("PYTHONWARNINGS", None)
    out = subprocess.run([sys.executable, "-m", "pseudosurv.cli", "transform", "--input",
                          str(tmp_path / "d.csv"), "--output", str(tmp_path / "o.csv"),
                          "--grid-times", "2.5,5"], capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stderr == ("warning: interval 0 (0, 2.5] contains no events; "
                          "its pseudo values are all 1\n")
