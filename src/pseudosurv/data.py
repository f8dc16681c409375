"""Right-censored survival datasets and their CSV schema.

A dataset is a fixed-order collection of subjects; the row index doubles
as the subject id everywhere else in the package, so subsetting or permuting
yields a new dataset with fresh ids.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .util import derived_rng, fmt6

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


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
        if cov.ndim == 1:
            cov = cov.reshape(time.size, -1) if cov.size else cov.reshape(time.size, 0)
        if event.shape != time.shape:
            raise DataError("time and event lengths differ")
        if cov.shape[0] != time.size:
            raise DataError("covariate rows do not match number of subjects")
        if len(self.covariate_names) != cov.shape[1]:
            raise DataError("covariate_names length does not match covariate columns")
        if not np.all(np.isfinite(time)) or np.any(time < 0):
            raise DataError("times must be finite and nonnegative")
        if not np.all(np.isfinite(cov)):
            raise DataError("covariates must be finite")
        time.setflags(write=False)
        event.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    def __len__(self) -> int:
        return self.time.size

    @property
    def n(self) -> int:
        return self.time.size

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def subset(self, indices) -> "Dataset":
        """New dataset from a boolean mask or index array (re-indexed ids)."""
        idx = np.asarray(indices)
        return Dataset(self.time[idx], self.event[idx], self.covariates[idx], self.covariate_names)


def _parse_cell(text: str, row: int, column: str) -> float:
    stripped = text.strip()
    if stripped.lower() in _MISSING_TOKENS:
        raise DataError(f"missing value at row {row}, column '{column}'")
    try:
        return float(stripped)
    except ValueError:
        raise DataError(f"invalid number {text!r} at row {row}, column '{column}'") from None


def load_dataset(path, drop_incomplete: bool = False) -> Dataset:
    """Read a dataset from CSV with header ``time,event,<covariates...>``.

    ``event`` must be 0 or 1.  Rows containing missing cells raise unless
    ``drop_incomplete`` is set, in which case they are silently dropped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty dataset") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "time" or header[1] != "event":
            raise DataError("header must start with 'time,event'")
        names = header[2:]
        times, events, rows = [], [], []
        for lineno, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(f"row {lineno} has {len(raw)} cells, expected {len(header)}")
            if drop_incomplete and any(c.strip().lower() in _MISSING_TOKENS for c in raw):
                continue
            t = _parse_cell(raw[0], lineno, "time")
            e = _parse_cell(raw[1], lineno, "event")
            if e not in (0.0, 1.0):
                raise DataError(f"event must be 0 or 1 at row {lineno}, column 'event'")
            if t < 0:
                raise DataError(f"negative time at row {lineno}, column 'time'")
            times.append(t)
            events.append(bool(e))
            rows.append([_parse_cell(c, lineno, name) for c, name in zip(raw[2:], names)])
    if not times:
        raise DataError("empty dataset")
    cov = np.array(rows, dtype=float) if names else np.empty((len(times), 0))
    return Dataset(np.array(times), np.array(events), cov, tuple(names))


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset back out in the ingestion schema (6 significant digits)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", *data.covariate_names])
        for i in range(data.n):
            writer.writerow(
                [fmt6(data.time[i]), int(data.event[i])]
                + [fmt6(v) for v in data.covariates[i]]
            )


def split_dataset(data: Dataset, fraction: float = 0.75, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Random train/test split by subject; both halves are re-indexed."""
    if not 0.0 < fraction < 1.0:
        raise DataError("split fraction must be in (0, 1)")
    rng = derived_rng(seed, "split")
    perm = rng.permutation(data.n)
    n_train = int(round(fraction * data.n))
    n_train = min(max(n_train, 1), data.n - 1)
    return data.subset(np.sort(perm[:n_train])), data.subset(np.sort(perm[n_train:]))
