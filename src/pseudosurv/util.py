"""Small shared helpers: frozen value types, reproducible RNG derivation, the worker pool and
its BLAS thread pin."""

from __future__ import annotations

import contextlib
import functools
import os
import zlib

import numpy as np

# cells per block of a blocked pass: 2**17 float64 cells is 1 MiB, inside a per-core L2 cache
_BLOCK_CELLS = 2**17


def freeze(obj, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``obj``, making each ndarray among them read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-d array without NaN, by the same sort.

    numpy 2.4's plain ``np.unique`` and ``np.quantile`` import ``numpy.ma``
    (about 10 ms and 1.3 MB on their first call in a process); the commands
    use these helpers instead.
    """
    ordered = np.sort(values)
    new = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return ordered[new]


def quantile(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile``'s default (linear) quantiles ``q`` of the sorted 1-d array ``ordered``.

    Between the neighbours a <= b at virtual index (n - 1) q with fraction g,
    the value is a + (b - a) g, or b - (b - a)(1 - g) where g >= 0.5.
    """
    virtual = (ordered.size - 1) * q
    lo = np.floor(virtual).astype(np.intp)
    g = virtual - lo
    a, b = ordered[lo], ordered[np.minimum(lo + 1, ordered.size - 1)]
    diff = b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)


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


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None where it has none."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                                  "libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its thread count.

    A process that trains networks beside other such processes keeps one core
    busy, not all of them, and a matmul whose inner dimension OpenBLAS would
    split across threads sums in one order whatever the machine's core count.
    Where numpy's BLAS is not its bundled OpenBLAS, this does nothing.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (fn, shared) of a pool worker process, set once by its initializer
_WORKER: tuple | None = None


def _init_worker(fn, shared) -> None:
    global _WORKER
    _WORKER = (fn, shared)
    calls = _openblas_threads()
    if calls is not None:  # one BLAS thread for the worker's whole life
        calls[1](1)


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
