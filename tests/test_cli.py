import csv
import json
import warnings

import numpy as np
import pytest

from pseudosurv import gen_cox, CoxSimSpec, save_dataset, load_dataset, DataError
from pseudosurv.cli import main


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
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"study_{threads}"
            code = main([
                "simulate", "--study", "cox-independent", "--with-net", "--replicates", "2",
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
            for label in ("net", "net_ipcw", "cox"):
                assert 0.0 <= float(row[f"c_index_{label}"]) <= 1.0

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


class TestErrors:
    def test_missing_file_exit_code(self, tmp_path):
        assert main(["transform", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "o.csv")]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        from pseudosurv import NumericError
        from pseudosurv import cli as cli_mod

        def explode(*args, **kwargs):
            raise NumericError("gee did not converge")

        monkeypatch.setattr(cli_mod, "fit_gee", explode)
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
