import json
from pathlib import Path

import numpy as np
import pytest

from pseudosurv import Dataset


def random_censored_dataset(rng, n, censor_frac=0.4, p=0, tie_prob=0.3):
    """Random right-censored data, occasionally with tied times."""
    times = rng.exponential(5.0, n) + 0.05
    if rng.random() < tie_prob:
        times = np.round(times, 1) + 0.05
    events = rng.random(n) >= censor_frac
    if not events.any():
        events[rng.integers(n)] = True
    covs = rng.standard_normal((n, p)) if p else np.empty((n, 0))
    names = tuple(f"z_{k + 1}" for k in range(p))
    return Dataset(times, events, covs, names)


def uncensored_dataset(rng, n, p=0):
    times = rng.exponential(5.0, n) + 0.05
    covs = rng.standard_normal((n, p)) if p else np.empty((n, 0))
    names = tuple(f"z_{k + 1}" for k in range(p))
    return Dataset(times, np.ones(n, dtype=bool), covs, names)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def strict_json():
    """A parser of one JSON file as RFC 8259 reads it: NaN, Infinity and -Infinity raise."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON (RFC 8259)")

    return lambda path: json.loads(Path(path).read_text(), parse_constant=refuse)
