"""The column writer, the bulk reader and the early-stopping calibration
against their row-by-row oracles: equal bytes, arrays, error messages and
rates."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import pseudosurv.data
from pseudosurv import DataError, Dataset, NumericError, load_dataset, save_dataset
from pseudosurv.data import load_predictions, write_csv
from pseudosurv.net import default_grid
from pseudosurv.sim import calibrate_censoring

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1.7976931348623157e308, 123456.5]),
)
nonnegative = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([0.0, -0.0]))
any_float = st.one_of(finite, st.sampled_from([np.inf, -np.inf, np.nan]))
# what a hand-made file may hold in one cell: numbers spelt and padded in
# various ways, missing-value tokens, text no number parser accepts and cells that
# numpy's C reader refuses but csv and float read (a quoted number) or refuse by name
cell_text = st.one_of(
    finite.map(repr),
    finite.map(lambda v: format(v, ".6g")),
    finite.map(lambda v: f"  {v!r}\t"),
    st.sampled_from(
        ["", " ", "NA", "n/a", "nan", " NaN ", "null", "None", "-nan", "inf", "-Infinity",
         "1e999", "1_000", "+3", "1.2.3", "abc", "0x10", "--1", "1e", "٣", '"2.5"', "#1"]
    ),
)
event_text = st.sampled_from(["0", "1", " 1 ", "1.0", "-0", "0e5", "2", "0.5", "", "NA", "true"])


def _outcome(load, *args, **kwargs):
    try:
        return load(*args, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    if isinstance(want, Dataset):
        assert got.covariate_names == want.covariate_names
        pairs = [(got.time, want.time), (got.event, want.event), (got.covariates, want.covariates)]
    else:
        pairs = list(zip(got, want))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(0, 3))
    time = draw(st.lists(nonnegative, min_size=n, max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cov = draw(st.lists(finite, min_size=n * p, max_size=n * p))
    return Dataset(np.array(time), np.array(event), np.array(cov).reshape(n, p),
                   tuple(f"x{k}" for k in range(p)))


@st.composite
def dataset_files(draw):
    """CSV text of a dataset whose cells may be padded, missing or invalid."""
    p = draw(st.integers(0, 3))
    n = draw(st.integers(0, 25))
    kinds = ["clean"] * 6 + ["missing"] * 2 + ["blank", "spaces"]
    kinds += draw(st.sampled_from([[], ["messy"], ["messy", "ragged"]]))
    missing = st.sampled_from(["", " ", "NA", "n/a", "nan", " NaN ", "null", "None"])
    lines = [",".join(["time", " event "] + [f"z{k}" for k in range(p)])]
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "spaces"):
            lines.append("" if kind == "blank" else "   ")
            continue
        width = p + 2 + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
        cells = [repr(draw(nonnegative)), draw(st.sampled_from(["0", "1"]))]
        cells += [format(draw(finite), ".6g") for _ in range(p)]
        if kind == "missing":
            cells[draw(st.integers(0, p + 1))] = draw(missing)
        elif kind != "clean":
            cells = [draw(cell_text), draw(event_text)] + [draw(cell_text) for _ in range(p)]
        lines.append(",".join(cells[:width] + ["1"] * (width - len(cells))))
    return "\r\n".join(lines) + "\r\n"


class TestWriter:
    @SETTINGS
    @given(data=datasets())
    def test_save_dataset_bytes_match_oracle(self, tmp_path, data):
        save_dataset(data, tmp_path / "new.csv")
        oracles.save_dataset(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @SETTINGS
    @given(n=st.integers(1, 20), J=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           values=st.lists(any_float, min_size=1, max_size=160))
    def test_prediction_rows_match_oracle(self, tmp_path, n, J, seed, values):
        rng = np.random.default_rng(seed)
        cond = rng.choice(np.array(values), size=(n, J))
        marg = rng.choice(np.array(values), size=(n, J))
        header = ["id"] + [f"cond_{j}" for j in range(J)] + [f"marg_{j}" for j in range(J)]
        write_csv(tmp_path / "new.csv", header, [np.arange(n), *cond.T, *marg.T])
        oracles.write_predictions(tmp_path / "old.csv", cond, marg)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_header_is_quoted_as_csv_writer_does(self, tmp_path):
        data = Dataset([1.0], [True], [[2.0, 3.0]], ("a,b", 'say "x"'))
        save_dataset(data, tmp_path / "new.csv")
        oracles.save_dataset(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert load_dataset(tmp_path / "new.csv").covariate_names == ("a,b", 'say "x"')


class TestReader:
    @SETTINGS
    @given(text=dataset_files(), drop=st.booleans())
    def test_load_dataset_matches_oracle(self, tmp_path, text, drop):
        path = tmp_path / "data.csv"
        path.write_text(text, newline="")
        want = _outcome(oracles.load_dataset, path, drop_incomplete=drop)
        got = _outcome(load_dataset, path, drop_incomplete=drop)
        _assert_same(got, want)

    @SETTINGS
    @given(data=datasets())
    def test_round_trip_matches_oracle(self, tmp_path, data):
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        _assert_same(_outcome(load_dataset, path), _outcome(oracles.load_dataset, path))

    @SETTINGS
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           cells=st.lists(st.one_of(finite.map(repr), cell_text), min_size=1, max_size=40),
           ids=st.lists(st.sampled_from(["0", "1", "2", " 3", "+4", "5.0", "-1", "99", "x"]),
                        max_size=4))
    def test_load_predictions_matches_oracle(self, tmp_path, n, seed, cells, ids):
        rng = np.random.default_rng(seed)
        lines = ["id,0.5,1.5"]
        for sid in rng.permutation(n):
            lines.append(f"{sid},{rng.choice(cells)},{rng.choice(cells)}")
        for text in ids:  # a few hand-made rows anywhere: duplicates, bad ids
            lines.insert(int(rng.integers(1, len(lines) + 1)), f"{text},0.5,0.25")
        path = tmp_path / "pred.csv"
        path.write_text("\n".join(lines) + "\n")
        want = _outcome(oracles.load_predictions, path, n)
        got = _outcome(load_predictions, path, n)
        _assert_same(got, want)


def _clean_rows(n=40):
    return [f"{1.0 + i:.6g},{i % 2},{0.25 * i - 3:.6g}" for i in range(n)]


# after counts the clean rows behind the bad one, up to far past the first text buffer: the C
# reader stops at the bad row, and the row path reads the file again from its header
@pytest.mark.parametrize("after", [1, 9, 8192])
@pytest.mark.parametrize(
    "bad_row",
    [
        "2.5,1,abc",  # bad token
        "2.5,1, NA ",  # missing token
        "2.5,1",  # ragged row
        "2.5,1,0.5,7",  # ragged row, too long
        "2.5,2,0.5",  # event 2
        "-2.5,0,0.5",  # negative time
        "nan,1,0.5",  # missing time
    ],
)
def test_dataset_errors_match_oracle(tmp_path, bad_row, after):
    rows = _clean_rows(24 + after)
    rows[23] = bad_row
    path = tmp_path / "data.csv"
    path.write_text("time,event,z\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError) as want:
        oracles.load_dataset(path)
    with pytest.raises(DataError) as got:
        load_dataset(path)
    assert str(got.value) == str(want.value)
    assert "row 24" in str(got.value)


@pytest.mark.parametrize("after", [1, 8, 8192])
@pytest.mark.parametrize(
    "bad_row", ["3.0,0.5,0.5", "7,0.5,0.5", "40,0.5,0.5", "-1,0.5,0.5", "7,null,0.5", "7,0.5"]
)
def test_prediction_errors_match_oracle(tmp_path, bad_row, after):
    n = 24 + after
    rows = [f"{i},0.5,0.25" for i in range(n)]
    rows[23] = bad_row
    path = tmp_path / "pred.csv"
    path.write_text("id,1,2\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError) as want:
        oracles.load_predictions(path, n)
    with pytest.raises(DataError) as got:
        load_predictions(path, n)
    assert str(got.value) == str(want.value)


def test_drop_incomplete_rows(tmp_path):
    rows = _clean_rows()
    for i in (0, 17, 23, 39):
        rows[i] = rows[i].rsplit(",", 1)[0] + ",NA"
    path = tmp_path / "data.csv"
    path.write_text("time,event,z\n" + "\n".join(rows) + "\n")
    got = load_dataset(path, drop_incomplete=True)
    _assert_same(got, oracles.load_dataset(path, drop_incomplete=True))
    assert len(got) == 36


def test_long_number_is_read_by_the_c_reader(tmp_path):
    """A number longer than csv's 131 072-character field limit is read; the limit holds for the
    header and for a file that the row path reads."""
    long = "0" * 200_000 + "1"
    path = tmp_path / "data.csv"
    path.write_text(f"time,event,z\n1,1,{long}\n2,0,3\n")
    assert load_dataset(path).covariates.tolist() == [[1.0], [3.0]]
    for text in (f"time,event,z\n1,1,{long}\n2,0,NA\n", f"time,event,{long}\n1,1,2\n"):
        path.write_text(text)
        with pytest.raises(DataError, match=r"field larger than field limit \(131072\)"):
            load_dataset(path, drop_incomplete=True)


def test_c_reader_strips_information_separators(tmp_path):
    """numpy's C reader strips the ASCII information separators U+001C to U+001F around a
    number, as str.strip() does; float() and int() refuse them, and so does the row path."""
    path = tmp_path / "data.csv"
    path.write_text("time,event,z\n1,1,\x1c2\n3,0,4\x1f\n")
    assert load_dataset(path).covariates.tolist() == [[2.0], [4.0]]
    path.write_text("time,event,z\n1,1,\x1c2\n3,0,NA\n")
    with pytest.raises(DataError) as refused:
        load_dataset(path)
    assert str(refused.value) == "invalid number '\\x1c2' at row 1, column 'z'"


def _peak_bytes(load, *args):
    load(*args)  # first calls allocate one-time caches
    tracemalloc.start()
    try:
        load(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_holds_less_than_row_lists(tmp_path):
    """The C reader keeps its temporaries below the per-row lists it replaced."""
    rng = np.random.default_rng(5)
    data = Dataset(rng.exponential(size=5000), rng.random(5000) < 0.5,
                   rng.standard_normal((5000, 6)), tuple(f"x{k}" for k in range(6)))
    save_dataset(data, tmp_path / "data.csv")
    assert _peak_bytes(load_dataset, tmp_path / "data.csv") < _peak_bytes(
        oracles.load_dataset, tmp_path / "data.csv")
    pred = rng.random((5000, 4))
    write_csv(tmp_path / "pred.csv", ["id", "1", "2", "3", "4"], [np.arange(5000), *pred.T])
    assert _peak_bytes(load_predictions, tmp_path / "pred.csv", 5000) < _peak_bytes(
        oracles.load_predictions, tmp_path / "pred.csv", 5000)


class TestCalibration:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
           sigma=st.floats(0.01, 4.0), target=st.floats(0.01, 0.99))
    def test_rate_bit_identical_to_full_bisection(self, seed, n, sigma, target):
        x = np.random.default_rng(seed).lognormal(0.0, sigma, size=n)
        outcomes = []
        for calibrate in (calibrate_censoring, oracles.calibrate_censoring):
            try:
                outcomes.append(repr(calibrate(x, target)))
            except NumericError as exc:
                outcomes.append(f"NumericError: {exc}")
        assert outcomes[0] == outcomes[1]


def test_default_grid_is_a_fresh_list_each_call():
    first = default_grid(epochs=7, batch_size=64)
    first.clear()
    second = default_grid(epochs=7, batch_size=64)
    assert len(second) == 2520 and second is not default_grid(epochs=7, batch_size=64)
    assert {c.epochs for c in second} == {7} and {c.batch_size for c in second} == {64}
    assert default_grid() == default_grid(100, 256)


def test_cli_import_leaves_out_process_pools():
    code = ("import sys, pseudosurv.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
            "'concurrent.futures.process'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(pseudosurv.data.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
