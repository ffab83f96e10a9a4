"""Seed derivation: every random stream and every per-run seed comes from a
root seed, taken modulo 2^64, and a spawn key whose first entry names the
use, so distinct uses never share a stream."""

from __future__ import annotations

import numpy as np

__all__ = ["STREAM_BENCH", "STREAM_INIT", "STREAM_LOCAL", "STREAM_TUNING",
           "STREAM_VARIATION", "child_seed", "stream"]

# First spawn-key entry of each use: the initial population, one
# generation's variation and descent, one tuning design row and one
# benchmark repeat.
STREAM_INIT, STREAM_VARIATION, STREAM_LOCAL, STREAM_TUNING, STREAM_BENCH = range(5)


def _sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=key)


def stream(seed: int, *key: int) -> np.random.Generator:
    """The generator for `key` under `seed`; an empty key gives the root
    seed's own stream."""
    return np.random.default_rng(_sequence(seed, key))


def child_seed(seed: int, *key: int) -> int:
    """A 32-bit root seed for the independent run that `key` names."""
    return int(_sequence(seed, key).generate_state(1)[0])
