"""derive_rng against numpy's own SeedSequence streams.

derive_rng reads each stream's seed words from a cached block of
``1 << seeding._SPAN_BITS`` consecutive streams; the ``test_stream_block_*``
properties hold the streams read that way to :func:`oracle.seed_sequence_rng`,
bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adqcsim
from adqcsim import seeding
from adqcsim.seeding import derive_rng

from oracle import seed_sequence_rng

# indices where a block of 256 or of 1 << _SPAN_BITS streams starts, or where
# the spawn key gains a 32-bit word
_EDGES = (0, 256, 1 << seeding._SPAN_BITS, 2**32, 2**64)


def _same_stream(seed: int, index: int, m: int) -> bool:
    return np.array_equal(derive_rng(seed, index).random(m), seed_sequence_rng(seed, index).random(m))


@settings(max_examples=200)
@given(
    seeds=st.lists(st.integers(0, 2**130 - 1), min_size=1, max_size=3),
    index=st.one_of(
        st.sampled_from(_EDGES).flatmap(lambda e: st.integers(max(0, e - 2), e + 2)),
        st.integers(0, 2**64 + 2**20),
        st.integers(2**64, 2**100),
    ),
    m=st.integers(1, 80),
)
def test_stream_block_is_derive_rng(seeds, index, m):
    # seeds past 2^128 have five entropy words, one more than the pool holds;
    # indices from 2^64 have three spawn-key words
    for t in (index, index + 1):
        for seed in seeds:  # seeds interleaved stream by stream
            assert _same_stream(seed, t, m)


@pytest.mark.parametrize("m", [300, 4096])
@pytest.mark.parametrize("seed", [0, 2**31 - 2, 2**40, 2**64 + 1])
def test_stream_block_long_rows(seed, m):
    # rows as long as a weak chain's draw block, on streams either side of each edge
    for edge in _EDGES:
        for t in range(max(0, edge - 2), edge + 3):
            assert _same_stream(seed, t, m)


def test_stream_block_many_streams():
    # three blocks in a row, every stream of them
    for t in range(3 << seeding._SPAN_BITS):
        assert _same_stream(4242, t, 38)


def test_stream_block_edges():
    assert _same_stream(7, 2**64 - 1, 3)
    assert _same_stream(7, 2**200 + 5, 3)
    # numpy integers are read as the Python ints they hold
    assert np.array_equal(derive_rng(np.int64(2**62), np.uint64(9)).random(3),
                          seed_sequence_rng(2**62, 9).random(3))
    for seed, index in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            derive_rng(seed, index)
    for seed, index in ((1.5, 0), (None, 0), (0, 1.5)):
        with pytest.raises(TypeError):
            derive_rng(seed, index)


def test_interleaved_seeds_rederive_evicted_blocks():
    seeding._block.cache_clear()
    seeds = range(40)  # more seeds than the cache holds blocks
    for _ in range(2):
        for seed in seeds:
            assert _same_stream(seed, 300, 5)
    info = seeding._block.cache_info()
    assert (info.misses, info.hits) == (2 * len(seeds), 0)


def test_generators_are_independent_objects():
    a, b = derive_rng(3, 17), derive_rng(3, 17)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(10)
    assert np.array_equal(b.random(10), first)  # drawing from a left b where it was
    assert not np.array_equal(a.random(10), first)


def test_cached_blocks_are_read_only():
    derive_rng(5, 1000)
    words = seeding._block(5, 1000 >> seeding._SPAN_BITS)
    assert words.shape == (1 << seeding._SPAN_BITS, 4) and words.dtype == np.uint64
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0, 0] = 0


def test_seed_words_serve_only_pcg64():
    seed_seq = derive_rng(5, 2).bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64) is seed_seq.words
    for args in ((4,), (8, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError):
            seed_seq.generate_state(*args)


def test_import_leaves_numpy_random_unloaded():
    # numpy 1.x loads numpy.random itself; the package must add nothing to that
    code = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import adqcsim.cli\n"
        "assert ('numpy.random' in sys.modules) == before, 'numpy.random loaded'\n"
    )
    src = str(Path(adqcsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
