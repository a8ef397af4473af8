"""Deterministic keyed random streams.

Every stochastic routine in this package takes an integer seed and derives
independent SFC64 substreams seeded by a ``SeedSequence`` of (seed, path).
Results therefore do not depend on evaluation order, chunking, or worker
count: a work unit's stream is a pure function of its identity.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["substream"]

_MASK64 = (1 << 64) - 1


def _splitmix(h: int) -> int:
    h = (h + 0x9E3779B97F4A7C15) & _MASK64
    z = h
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(part: int | str) -> int:
    if isinstance(part, str):
        # FNV-1a over the utf-8 bytes; independent of PYTHONHASHSEED.
        h = 0xCBF29CE484222325
        for b in part.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK64
        return h
    if not 0 <= operator.index(part) <= _MASK64:
        raise ValueError(f"integer path parts must lie in [0, 2^64), got {part}")
    return part


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent generator identified by (seed, *path).

    The same (seed, path) always yields the same stream; distinct paths give
    statistically independent streams.  The seed and each integer path part
    must lie in [0, 2^64), the key's range, so no two keys share a stream.
    The generator is SFC64 seeded by ``SeedSequence((seed, h))``, ``h`` a
    hash of the path: it fills doubles over twice as fast as Philox, and
    numpy guarantees that distinct seeds do not overlap within 2^64 draws.
    """
    if not 0 <= operator.index(seed) <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    h = 0
    for part in path:
        h = _splitmix(h ^ _fold(part))
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, h))))
