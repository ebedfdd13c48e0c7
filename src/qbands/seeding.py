"""Deterministic random-stream fan-out.

Every stochastic component draws from a counter-based generator (Philox)
keyed by a master seed plus a path of non-negative integers, so any part of
a run can be reproduced bit-exactly in isolation.  Two rules address a
stream:

- `spawn_rng` hashes the whole path: ``SeedSequence([master, *path])``
  seeds its own Philox.  One hash per stream; used where streams are few
  (restart starting points, rate estimates).
- `counter_rng` hashes ``(master, *path)`` once into a Philox key and
  addresses stream t of that family by the counter alone: its 256-bit
  counter starts at (0, 0, 0, t), t in the highest word, so streams of one
  family never overlap (Salmon et al. 2011, "Parallel random numbers: as
  easy as 1, 2, 3").  Used for the one stream per energy evaluation of the
  shots backend, which would otherwise pay a hash per evaluation.

The path components used by the CLI are documented in the README.
"""
from __future__ import annotations

import functools

import numpy as np


def spawn_rng(master: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``(master, *path)``."""
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=128)
def _family_key(*family: int) -> np.ndarray:
    key = np.random.SeedSequence(list(family)).generate_state(2, dtype=np.uint64)
    key.flags.writeable = False
    return key


def counter_rng(master: int, *path: int, counter: int) -> np.random.Generator:
    """Stream ``counter`` of the family ``(master, *path)``: the generator
    ``Generator(Philox(key=K, counter=(0, 0, 0, counter)))`` with
    K = ``SeedSequence([master, *path]).generate_state(2, uint64)``,
    computed once per family.  Depends only on the family and ``counter``."""
    key = _family_key(int(master), *[int(p) for p in path])
    return np.random.Generator(np.random.Philox(key=key, counter=(0, 0, 0, int(counter))))


def spawn_seed(master: int, *path: int) -> int:
    """Stable integer sub-seed, usable as the master of a nested fan-out."""
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
