"""Deterministic RNG derivation.

Every ensemble takes a single integer seed after its config, as
``(..., seed, trials)``, and trial t draws from ``derive_rng(seed, t)``, so
results are bit-for-bit reproducible and insensitive to the order in which
trials run.  Each outcome takes one draw by the rule of
:func:`adqcsim.qmath.sample_outcome`, in blocks of up to 4096 in a weak chain
(:func:`~adqcsim.measure.run_measurement`) and 2 x 32 in a repeat-until-success
run (:func:`~adqcsim.egg.run_rus`); draws past the halt or success go unused.

Stream (seed, t) is numpy's ``PCG64`` seeded by ``SeedSequence(entropy=seed,
spawn_key=(t,))``, bit for bit.  :func:`derive_rng` does not build that
``SeedSequence``: a numpy port of its pool mixing derives the four
``generate_state(4, uint64)`` words of 1024 consecutive streams at once (a
block costs mostly per call, so 1024 cost a third of 256 per stream), the
32 KiB block is cached, and numpy's own PCG64 seeds itself from the row.
The tests hold every stream to ``SeedSequence`` on random seeds and indices.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

# SeedSequence: a pool of 4 32-bit words, mixed by multiply-xorshift hashes
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_M32 = 0xFFFFFFFF
# streams per derived block: an aligned block of 1024 never straddles 2^32 or 2^64
_SPAN_BITS = 10


def derive_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for sub-stream ``index`` of the experiment seeded by ``seed``.

    Streams with different indices are statistically independent; the same
    (seed, index) pair always yields the same stream, a new object each call.
    """
    seed, index = operator.index(seed), operator.index(index)
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be >= 0")
    return _seeded()(_block(seed, index >> _SPAN_BITS)[index & ((1 << _SPAN_BITS) - 1)])


@lru_cache(maxsize=None)
def _seeded():
    """Maker of a Generator whose PCG64 seeds from four given uint64 words.

    Built on first use, so importing the package does not load numpy.random.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence whose only state is one stream's derived words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("only generate_state(4, uint64) is derived")
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0``; 0 is one word."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(value, hc: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of ``value`` (int or array) with the constant ``hc``."""
    value = ((value ^ hc) * ((hc * mult) & _M32)) & _M32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ (value >> _XSHIFT)


@lru_cache(maxsize=4)
def _block(seed: int, block: int) -> np.ndarray:
    """Read-only generate_state(4, uint64) words of 1024 streams, one row each.

    Row i mirrors ``SeedSequence(entropy=seed, spawn_key=(t,))`` for stream
    t = 1024 block + i.
    """
    run = _words(seed)
    run += [0] * (_POOL - len(run))  # padded to the pool size: there is a spawn key
    # the pool mixes the run entropy alone, so it is the same for every t
    hc = _INIT_A
    pool = []
    for word in run[:_POOL]:
        pool.append(_hashmix(word, hc))
        hc = (hc * _MULT_A) & _M32
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hc))
                hc = (hc * _MULT_A) & _M32
    for word in run[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, hc))
            hc = (hc * _MULT_A) & _M32
    # then the spawn key t: in an aligned block only its lowest word varies
    key = _words(block << _SPAN_BITS)
    low = np.arange(key[0], key[0] + (1 << _SPAN_BITS), dtype=np.uint64)
    pool = [np.full(low.shape, p, dtype=np.uint64) for p in pool]
    for word in [low, *key[1:]]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, hc))
            hc = (hc * _MULT_A) & _M32
    # generate_state: 8 words cycled from the pool, read as 4 little-endian uint64
    out, hc = [], _INIT_B
    for i in range(2 * _POOL):
        out.append(_hashmix(pool[i % _POOL], hc, _MULT_B))
        hc = (hc * _MULT_B) & _M32
    words = np.stack([out[2 * k] | out[2 * k + 1] << 32 for k in range(_POOL)], axis=1)
    words.flags.writeable = False
    return words
