from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adqcsim.seeding import derive_rng, stream_block


def _stacked(seed: int, first: int, count: int, m: int) -> np.ndarray:
    return np.array([derive_rng(seed, first + i).random(m) for i in range(count)]).reshape(count, m)


# stream indices with one 32-bit word, with two, and blocks that cross 2^32
_FIRSTS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32 - 4, 2**32 + 4),
    st.integers(2**32, 2**64 - 8),
)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**130 - 1),
    first=_FIRSTS,
    count=st.integers(1, 6),
    m=st.integers(1, 80),
)
def test_stream_block_is_derive_rng(seed, first, count, m):
    # seeds past 2^128 have five entropy words, one more than the pool holds
    assert np.array_equal(stream_block(seed, first, count, m), _stacked(seed, first, count, m))


@pytest.mark.parametrize("m", [300, 4096])
@pytest.mark.parametrize("seed", [0, 2**31 - 2, 2**40, 2**64 + 1])
def test_stream_block_long_rows(seed, m):
    # rows as long as a weak chain's draw block, on streams either side of 2^32
    first = 2**32 - 2
    assert np.array_equal(stream_block(seed, first, 4, m), _stacked(seed, first, 4, m))


def test_stream_block_many_streams():
    got = stream_block(4242, 0, 200, 38)
    assert got.shape == (200, 38)
    for i in range(0, 200, 13):
        assert np.array_equal(got[i], derive_rng(4242, i).random(38))


def test_stream_block_edges():
    assert stream_block(7, 0, 0, 5).shape == (0, 5)
    assert stream_block(7, 3, 2, 0).shape == (2, 0)
    assert np.array_equal(stream_block(7, 2**64 - 1, 1, 3), _stacked(7, 2**64 - 1, 1, 3))
    # a numpy integer seed is read as the Python int it holds
    assert np.array_equal(stream_block(np.int64(2**62), 0, 2, 3), _stacked(2**62, 0, 2, 3))
    for args in ((-1, 0, 1, 1), (0, -1, 1, 1), (0, 0, -1, 1), (0, 0, 1, -1), (0, 2**64, 1, 1)):
        with pytest.raises(ValueError):
            stream_block(*args)
    with pytest.raises(TypeError):
        stream_block(1.5, 0, 1, 1)
