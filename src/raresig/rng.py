"""Deterministic random-stream derivation.

Every randomized routine in the package draws from a counter-based
Philox generator keyed by ``SeedSequence(master, spawn_key=key)``.
Substreams derived from the same master seed but different key tuples
are independent, reproducible across platforms, and independent of
worker scheduling: replication ``r`` always sees the stream
``(master, r, domain, ...)`` no matter which worker runs it.

Domain indices (second key element) used by convention:

* 0: data generation for a replication
* 1: subsampling plans
* 2: permutations (third element = permutation index): permutation b
  draws the rare rows' positions,
  ``spawn_rng(seed, 2, b).choice(n, n_rare, replace=False)``, O(n_rare)
  per draw (see :func:`raresig.inference._permutation_stats`)
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng", "spawn_seed"]


def spawn_rng(master: int, *key: int) -> np.random.Generator:
    """Return a Philox generator for substream ``key`` of ``master``."""
    seq = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def spawn_seed(master: int, *key: int) -> int:
    """Collapse a substream key to a single integer seed (for metadata)."""
    seq = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])
