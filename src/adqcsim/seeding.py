"""Deterministic RNG derivation.

Every ensemble takes a single integer seed after its config, as
``(..., seed, trials)``, and trial t draws from ``derive_rng(seed, t)``, so
results are bit-for-bit reproducible and insensitive to the order in which
trials run.  Each outcome takes one draw by the rule of
:func:`adqcsim.qmath.sample_outcome`, in blocks of up to 4096 in a weak chain
(:func:`~adqcsim.measure.run_measurement`) and 2 x 32 in a repeat-until-success
run (:func:`~adqcsim.egg.run_rus`); draws past the halt or success go unused.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for sub-stream ``index`` of the experiment seeded by ``seed``.

    Streams with different indices are statistically independent; the same
    (seed, index) pair always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
