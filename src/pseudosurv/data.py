"""Right-censored survival datasets, their CSV schema and the package's file I/O.

A dataset is a fixed-order collection of subjects; the row index doubles
as the subject id everywhere else in the package, so subsetting or permuting
yields a new dataset with fresh ids.
"""

from __future__ import annotations

import csv
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .util import derived_rng, distinct, freeze

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}
_CHUNK_CELLS = 2048  # cells per float pass: bounds the row text held at once


@dataclass(frozen=True)
class Dataset:
    """A cohort of right-censored observations.

    ``time`` is min(event time, censoring time); ``event`` is True when the
    event was observed.  Covariates form an (n, p) matrix with one named
    column per entry of ``covariate_names``.  No missing values are allowed;
    ingestion refuses them up front.
    """

    time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        event = np.asarray(self.event, dtype=bool)
        cov = np.asarray(self.covariates, dtype=float)
        if time.ndim != 1 or time.size == 0:
            raise DataError("empty dataset")
        if event.shape != time.shape:
            raise DataError("time and event lengths differ")
        if cov.ndim != 2 or cov.shape[0] != time.size:
            raise DataError("covariate rows do not match number of subjects")
        if len(self.covariate_names) != cov.shape[1]:
            raise DataError("covariate_names length does not match covariate columns")
        if not np.all(np.isfinite(time)) or np.any(time < 0):
            raise DataError("times must be finite and nonnegative")
        if not np.all(np.isfinite(cov)):
            raise DataError("covariates must be finite")
        freeze(self, time=time, event=event, covariates=cov,
               covariate_names=tuple(self.covariate_names))

    def __len__(self) -> int:
        return self.time.size

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def subset(self, indices) -> "Dataset":
        """New dataset from a boolean mask or index array (re-indexed ids)."""
        idx = np.asarray(indices)
        return Dataset(self.time[idx], self.event[idx], self.covariates[idx], self.covariate_names)


@contextmanager
def _csv_reader(path):
    """A ``csv.reader`` over ``path``.  A directory, an unreadable file, bytes that
    do not decode or a field over the ``csv`` size limit raise a DataError naming the path."""
    try:
        with open(path, newline="") as fh:
            yield csv.reader(fh)
    except (IsADirectoryError, PermissionError, UnicodeDecodeError, csv.Error) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise DataError(f"{path}: {reason}") from None


def _parse_cells(raw, row: int, names) -> list[float]:
    """One row's cells as floats; the first missing or invalid cell raises."""
    values = []
    for text, column in zip(raw, names):
        if text.strip().lower() in _MISSING_TOKENS:
            raise DataError(f"missing value at row {row}, column '{column}'")
        try:
            values.append(float(text))
        except ValueError:
            raise DataError(f"invalid number {text!r} at row {row}, column '{column}'") from None
    return values


def _read_rows(reader, width: int, parse_row, block_ok) -> np.ndarray:
    """The remaining rows of a ``csv.reader`` as one float matrix, a chunk per ``float`` pass.

    A chunk with an empty or ragged row, a cell ``float`` rejects, a NaN (a missing token) or
    a block failing ``block_ok(block, chunk)`` goes row by row through ``parse_row(raw, lineno)``,
    which raises the row's error or returns its values (None drops the row).
    """
    size = max(1, _CHUNK_CELLS // width)
    blocks, lineno = [], 1
    while chunk := list(itertools.islice(reader, size)):
        try:
            cells = map(float, itertools.chain.from_iterable(chunk))
            block = np.fromiter(cells, float, len(chunk) * width).reshape(len(chunk), width)
            ok = set(map(len, chunk)) == {width} and not np.isnan(block).any()
        except ValueError:
            ok = False
        if not (ok and block_ok(block, chunk)):
            rows = [parse_row(raw, lineno + i) for i, raw in enumerate(chunk) if raw]
            block = np.array([r for r in rows if r is not None], dtype=float).reshape(-1, width)
        blocks.append(block)
        lineno += len(chunk)
    return np.concatenate(blocks) if blocks else np.empty((0, width))


def write_csv(path, header, columns) -> None:
    """Write whole columns as ``csv.writer`` would: float arrays at 6 significant
    digits, integer and boolean arrays as integers, lists of strings as given."""
    kinds = [col.dtype.kind if isinstance(col, np.ndarray) else "s" for col in columns]
    template = ",".join({"f": "%.6g", "s": "%s"}.get(kind, "%d") for kind in kinds) + "\r\n"
    cells = [col if kind == "s" else col.tolist() if kind == "f" else col.astype(int).tolist()
             for col, kind in zip(columns, kinds)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(template % row for row in zip(*cells))


def read_json(path):
    """The JSON document in ``path``.  A file that cannot be opened, decoded or
    parsed raises a DataError naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}") from None


def write_json(path, payload, **options) -> None:
    """Write one JSON document plus a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, **options)
        fh.write("\n")


def load_dataset(path, drop_incomplete: bool = False) -> Dataset:
    """Read a dataset from CSV with header ``time,event,<covariates...>``.

    ``event`` must be 0 or 1.  Rows containing missing cells raise unless
    ``drop_incomplete`` is set, in which case they are silently dropped.
    """
    with _csv_reader(path) as reader:
        if (header := next(reader, None)) is None:
            raise DataError("empty dataset")
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "time" or header[1] != "event":
            raise DataError("header must start with 'time,event'")

        def parse_row(raw, lineno):
            if len(raw) != len(header):
                raise DataError(f"row {lineno} has {len(raw)} cells, expected {len(header)}")
            if drop_incomplete and any(c.strip().lower() in _MISSING_TOKENS for c in raw):
                return None
            t, e = _parse_cells(raw[:2], lineno, header)
            if e not in (0.0, 1.0):
                raise DataError(f"event must be 0 or 1 at row {lineno}, column 'event'")
            if t < 0:
                raise DataError(f"negative time at row {lineno}, column 'time'")
            return [t, e] + _parse_cells(raw[2:], lineno, header[2:])

        def block_ok(block, _):
            return np.isin(block[:, 1], (0.0, 1.0)).all() and (block[:, 0] >= 0).all()

        values = _read_rows(reader, len(header), parse_row, block_ok)
    time, cov = values[:, 0].copy(), values[:, 2:].copy()
    return Dataset(time, values[:, 1] == 1.0, cov, tuple(header[2:]))


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset back out in the ingestion schema (6 significant digits)."""
    header = ["time", "event", *data.covariate_names]
    write_csv(path, header, [data.time, data.event, *data.covariates.T])


def load_predictions(path, n_expected: int):
    """Prediction matrix in subject order plus its times.

    Rows may come in any order: the ``id`` column, a permutation of
    0..n-1, places each row on its subject.
    """
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if not header or header[0] != "id":
            raise DataError("predictions header must start with 'id'")
        try:
            times = [float(name) for name in header[1:]]
        except ValueError:
            raise DataError("prediction columns after 'id' must be named by their times") from None
        seen = np.zeros(n_expected, dtype=bool)

        def parse_row(raw, lineno):
            if len(raw) != len(header):
                raise DataError(
                    f"predictions row {lineno} has {len(raw)} cells, expected {len(header)}"
                )
            try:
                sid = int(raw[0])
            except ValueError:
                raise DataError(
                    f"predictions row {lineno}: id {raw[0]!r} is not an integer"
                ) from None
            if not 0 <= sid < n_expected:
                raise DataError(f"predictions row {lineno}: id {sid} is not in 0..{n_expected - 1}")
            if seen[sid]:
                raise DataError(f"predictions row {lineno}: duplicate id {sid}")
            seen[sid] = True
            return [sid] + _parse_cells(raw[1:], lineno, header[1:])

        def block_ok(block, chunk):
            try:
                ids = np.array([int(raw[0]) for raw in chunk])
            except ValueError:
                return False
            if (ids.min() < 0 or ids.max() >= n_expected or seen[ids].any()
                    or distinct(ids).size < ids.size):
                return False
            seen[ids] = True
            return True

        values = _read_rows(reader, len(header), parse_row, block_ok)
    if len(values) != n_expected:
        raise DataError(f"predictions have {len(values)} rows, data has {n_expected}")
    return values[np.argsort(values[:, 0]), 1:], np.asarray(times, dtype=float)


def split_dataset(data: Dataset, fraction: float = 0.75, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Random train/test split by subject; both halves are re-indexed."""
    if not 0.0 < fraction < 1.0:
        raise DataError("split fraction must be in (0, 1)")
    rng = derived_rng(seed, "split")
    perm = rng.permutation(len(data))
    n_train = int(round(fraction * len(data)))
    n_train = min(max(n_train, 1), len(data) - 1)
    return data.subset(np.sort(perm[:n_train])), data.subset(np.sort(perm[n_train:]))
