"""Small shared helpers: reproducible RNG derivation."""

from __future__ import annotations

import zlib

import numpy as np


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

