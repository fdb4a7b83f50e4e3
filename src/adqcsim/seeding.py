"""Deterministic RNG derivation.

Every ensemble takes a single integer seed after its config, as
``(..., seed, trials)``, and trial t draws from ``derive_rng(seed, t)``, so
results are bit-for-bit reproducible and insensitive to the order in which
trials run.  Each outcome takes one draw by the rule of
:func:`adqcsim.qmath.sample_outcome`, in blocks of up to 4096 in a weak chain
(:func:`~adqcsim.measure.run_measurement`) and 2 x 32 in a repeat-until-success
run (:func:`~adqcsim.egg.run_rus`); draws past the halt or success go unused.

:func:`derive_rng` defines every stream.  :func:`stream_block` is its block
form for the ensembles: the first draws of many consecutive streams at once,
bit for bit what ``derive_rng(seed, t).random(m)`` returns.  It is a numpy
port of ``SeedSequence(entropy=seed, spawn_key=(t,))`` -> ``PCG64`` ->
``Generator.random``, vectorised over t, and the tests hold it to
:func:`derive_rng` on random seeds and indices.
"""

from __future__ import annotations

import operator

import numpy as np

# SeedSequence: a pool of 4 32-bit words, mixed by multiply-xorshift hashes
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_M32 = 0xFFFFFFFF
# PCG64: 128-bit LCG with XSL-RR output
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def derive_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for sub-stream ``index`` of the experiment seeded by ``seed``.

    Streams with different indices are statistically independent; the same
    (seed, index) pair always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


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


def _ints(limbs: list) -> np.ndarray:
    """128-bit values of 4-limb arrays, as an object array of Python ints."""
    hi = (limbs[3] << 32) | limbs[2]
    lo = (limbs[1] << 32) | limbs[0]
    return hi.astype(object) << 64 | lo.astype(object)


def _pcg_seeds(seed: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 (state, inc) of each stream once seeded, as object arrays of ints.

    Mirrors SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(4,
    uint64) for each t in ``index`` (uint64), then PCG64's seeding.
    """
    seed = operator.index(seed)  # a Python int: numpy integer scalars warn on overflow
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
    # then the spawn key t, one word below 2^32 and two from there on
    pool = [np.full(index.shape, p, dtype=np.uint64) for p in pool]
    for w, word in enumerate((index & _M32, index >> 32)):
        has = index > _M32 if w else None
        for dst in range(_POOL):
            mixed = _mix(pool[dst], _hashmix(word, hc))
            pool[dst] = mixed if has is None else np.where(has, mixed, pool[dst])
            hc = (hc * _MULT_A) & _M32
    # generate_state: 8 words cycled from the pool, read as 4 little-endian uint64
    out, hc = [], _INIT_B
    for i in range(2 * _POOL):
        out.append(_hashmix(pool[i % _POOL], hc, _MULT_B))
        hc = (hc * _MULT_B) & _M32
    # PCG64 takes (w0, w1) as the (high, low) seed and (w2, w3) as the sequence
    init = _ints([out[2], out[3], out[0], out[1]])
    inc = (_ints([out[6], out[7], out[4], out[5]]) << 1 | 1) & _M128
    # pcg's srandom: state 0, step, add init, step
    return (init * _PCG_MULT + inc * (_PCG_MULT + 1)) & _M128, inc


def stream_block(seed: int, first: int, count: int, m: int) -> np.ndarray:
    """Rows i < count are ``derive_rng(seed, first + i).random(m)``, bit for bit.

    The seeded states are derived for the whole block at once; each row is
    then drawn by numpy's own PCG64 set to its stream's state.  Needs
    ``seed >= 0`` and ``first + count <= 2^64``.
    """
    if count < 0 or m < 0 or first < 0 or first + count > 1 << 64:
        raise ValueError("streams must satisfy 0 <= first, 0 <= count, first + count <= 2^64")
    state, inc = _pcg_seeds(seed, np.arange(count, dtype=np.uint64) + np.uint64(first))
    out = np.empty((count, m))
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).random
    for row, s, c in zip(out, state.tolist(), inc.tolist()):
        bits.state = {"bit_generator": "PCG64", "state": {"state": s, "inc": c},
                      "has_uint32": 0, "uinteger": 0}
        draw(out=row)
    return out
