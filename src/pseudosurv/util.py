"""Small shared helpers: frozen value types, reproducible RNG derivation and the worker pool."""

from __future__ import annotations

import zlib

import numpy as np


def freeze(obj, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``obj``, making each ndarray among them read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _seed_keys(seed: int, tags) -> list[int]:
    """The base seed plus one 32-bit key per tag; strings go through crc32."""
    keys = [int(seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            keys.append(zlib.crc32(tag.encode("utf-8")))
        else:
            keys.append(int(tag) & 0xFFFFFFFF)
    return keys


def derived_rng(seed: int, *tags) -> np.random.Generator:
    """Build a Generator from a base seed plus a tag path.

    Tags may be ints or strings; strings are folded through crc32 so the
    derivation never depends on Python's randomized ``hash``.  Units of work
    that derive their RNG this way give identical results regardless of
    execution order or parallelism.
    """
    return np.random.default_rng(np.random.SeedSequence(_seed_keys(seed, tags)))


def derived_seed(seed: int, *tags) -> int:
    """A plain integer seed derived like :func:`derived_rng`."""
    return int(np.random.SeedSequence(_seed_keys(seed, tags)).generate_state(1)[0])


# (fn, shared) of a pool worker process, set once by its initializer
_WORKER: tuple | None = None


def _init_worker(fn, shared) -> None:
    global _WORKER
    _WORKER = (fn, shared)


def _call_worker(item):
    fn, shared = _WORKER
    return fn(shared, item)


def parallel_map(fn, shared, items, n_jobs: int) -> list:
    """``[fn(shared, item) for item in items]``, serial unless ``n_jobs`` and the items exceed one.

    Otherwise ``min(n_jobs, len(items))`` worker processes each receive ``fn``
    and ``shared`` once, so only the items travel per call.
    """
    items = list(items)
    if n_jobs <= 1 or len(items) <= 1:
        return [fn(shared, item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_jobs, len(items)), initializer=_init_worker,
                             initargs=(fn, shared)) as pool:
        return list(pool.map(_call_worker, items))
