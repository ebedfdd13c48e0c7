"""Deterministic random-stream fan-out.

Every stochastic component draws from a counter-based generator (Philox)
keyed by a master seed plus a path of non-negative integers, so any part of
a run can be reproduced bit-exactly in isolation.  Two rules address a
stream:

- `spawn_rng` hashes the whole path: ``SeedSequence([master, *path])``
  seeds its own Philox.  One hash per stream; used where streams are few
  (restart starting points, rate estimates).
- `StreamFamily` hashes ``(master, *path)`` once into a Philox key and
  addresses stream t of that family by the counter alone: its 256-bit
  counter starts at (0, 0, 0, t), t in the highest word, so streams of one
  family never overlap (Salmon et al. 2011, "Parallel random numbers: as
  easy as 1, 2, 3").  The family holds one Philox and re-keys it per
  stream by setting its state, so a stream costs neither a hash nor a new
  generator.  Used for the one stream per energy evaluation of the shots
  backend.

The path components used by the CLI are documented in the README.
"""
from __future__ import annotations

import numpy as np


def spawn_rng(master: int, *path: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``(master, *path)``."""
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return np.random.Generator(np.random.Philox(ss))


class StreamFamily:
    """The counter-addressed streams of the family ``(master, *path)``.

    Stream t is ``Generator(Philox(key=K, counter=(0, 0, 0, t)))`` with
    K = ``SeedSequence([master, *path]).generate_state(2, uint64)``; it
    depends only on the family and t.  `stream` re-keys the family's one
    Philox to that state, an empty output buffer included, and returns the
    one generator that wraps it: a stream is valid until the next `stream`
    call on the same family.
    """

    def __init__(self, master: int, *path: int):
        self.path = (int(master), *[int(p) for p in path])
        key = np.random.SeedSequence(list(self.path)).generate_state(2, dtype=np.uint64)
        self._key = tuple(int(k) for k in key)
        self._philox = np.random.Philox(key=key)
        self._generator = np.random.Generator(self._philox)

    def stream(self, t: int) -> np.random.Generator:
        """The family's generator, positioned at the start of stream ``t``."""
        self._philox.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, int(t)), "key": self._key},
            # The buffer of a fresh Philox: empty, no spare 32-bit half.
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self._generator


def spawn_seed(master: int, *path: int) -> int:
    """Stable integer sub-seed, usable as the master of a nested fan-out."""
    ss = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
