"""Deterministic RNG derivation.

Every stochastic entry point takes a single integer seed.  Independent
streams for sub-tasks (trials, attempts, scan points) are derived with
:func:`derive_rng` so that results are bit-for-bit reproducible and
insensitive to the order in which sub-tasks run.  Each outcome takes one
draw by the rule of :func:`adqcsim.qmath.sample_outcome`; a weak chain of
n rounds takes all n draws at once (:func:`adqcsim.measure.run_measurement`).
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for sub-stream ``index`` of the experiment seeded by ``seed``.

    Streams with different indices are statistically independent; the same
    (seed, index) pair always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
