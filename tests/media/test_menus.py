"""Differential tests: the block menu generator against the per-chunk encoder.

``MenuBlockSource`` is the menu source of every fleet executor, so it must
reproduce ``VideoSource`` + ``VbrEncoder.encode_chunk`` on one shared
generator bit for bit, at any block sizing.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.media.chunk import ChunkMenu
from repro.media.encoder import VbrEncoder
from repro.media.ladder import PUFFER_LADDER, EncodingLadder
from repro.media.menus import MAX_BLOCK_CHUNKS, MenuBlockSource
from repro.media.source import DEFAULT_CHANNELS, Channel, VideoSource

channels = st.builds(
    Channel,
    name=st.just("hyp"),
    complexity_sigma=st.floats(0.0, 1.5),
    scene_cut_rate=st.floats(0.0, 1.0),
    mean_reversion=st.floats(0.01, 1.0),
)

encoder_params = st.fixed_dictionaries(
    {
        "size_noise_sigma": st.floats(0.0, 0.6),
        "quality_complexity_slope": st.floats(0.0, 3.0),
        "quality_noise_sigma": st.floats(0.0, 1.5),
        "chunk_duration": st.sampled_from([2.002, 1.0, 4.004]),
        "ladder": st.sampled_from(
            [PUFFER_LADDER, EncodingLadder(list(PUFFER_LADDER)[2:5])]
        ),
    }
)


def reference_menus(channel, seed, n_chunks, **params):
    rng = np.random.default_rng(seed)
    source = VideoSource(channel, rng=rng)
    encoder = VbrEncoder(rng=rng, **params)
    # One scene step, then one encode, per chunk: the session's draw order
    # (``encode_source`` takes all complexities first, a different order).
    return [encoder.encode_chunk(i, c) for i, c in zip(range(n_chunks), source)]


def block_menus(channel, seed, n_chunks, **kwargs):
    source = MenuBlockSource(channel, np.random.default_rng(seed), **kwargs)
    return list(itertools.islice(source, n_chunks))


def assert_menus_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, ChunkMenu)
        assert g.chunk_index == w.chunk_index
        assert g.sizes == w.sizes
        assert g.ssims_db == w.ssims_db
        assert g.duration == w.duration
        assert [v.profile for v in g] == [v.profile for v in w]


@given(
    channel=channels,
    seed=st.integers(0, 2**32 - 1),
    n_chunks=st.integers(1, 90),
    block_chunks=st.sampled_from([1, 2, 32]),
    first_block_chunks=st.integers(0, 100),
    params=encoder_params,
)
def test_block_menus_match_per_chunk_encoder(
    channel, seed, n_chunks, block_chunks, first_block_chunks, params
):
    want = reference_menus(channel, seed, n_chunks, **params)
    got = block_menus(
        channel,
        seed,
        n_chunks,
        block_chunks=block_chunks,
        first_block_chunks=first_block_chunks,
        **params,
    )
    assert_menus_identical(got, want)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_chunks=st.integers(1, 70),
    block_chunks=st.sampled_from([1, 2, 32]),
)
def test_batch_rows_match_menu_bitrates(seed, n_chunks, block_chunks):
    """The row lists the batch kernel reads equal the menus' own floats."""
    channel = DEFAULT_CHANNELS[seed % len(DEFAULT_CHANNELS)]
    want = reference_menus(channel, seed, n_chunks)
    source = MenuBlockSource(
        channel, np.random.default_rng(seed), block_chunks=block_chunks
    )
    for menu in want:
        index, row = source.next_row()
        rates = [v.bitrate for v in menu]
        assert index == menu.chunk_index
        assert source.sizes_lists[row] == list(menu.sizes)
        assert source.ssims_lists[row] == list(menu.ssims_db)
        assert source.rates_lists[row] == rates
        assert source.rates_min[row] == min(rates)
        assert source.rates_max[row] == max(rates)
        sizes, ssims = source.row_arrays(row)
        assert sizes.tolist() == list(menu.sizes)
        assert ssims.tolist() == list(menu.ssims_db)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"size_noise_sigma": -0.1},
        {"quality_noise_sigma": -0.1},
        {"chunk_duration": 0.0},
        {"chunk_duration": -2.002},
        {"block_chunks": 0},
        {"block_chunks": MAX_BLOCK_CHUNKS + 1},
        {"block_chunks": 200_000},
    ],
)
def test_rejects_invalid_arguments(kwargs):
    encoder_kwargs = {k: v for k, v in kwargs.items() if k != "block_chunks"}
    if encoder_kwargs:
        with pytest.raises(ValueError):
            VbrEncoder(**encoder_kwargs)
    with pytest.raises(ValueError):
        MenuBlockSource(DEFAULT_CHANNELS[0], np.random.default_rng(0), **kwargs)


def test_first_block_hint_is_capped():
    source = MenuBlockSource(
        DEFAULT_CHANNELS[0], np.random.default_rng(0), first_block_chunks=200_000
    )
    source.next_row()
    assert len(source.sizes_lists) == MAX_BLOCK_CHUNKS


def test_non_positive_complexity_is_rejected_like_the_encoder():
    # exp() of a log-complexity below about -745 underflows to 0.
    channel = Channel("extreme", complexity_sigma=1e4, scene_cut_rate=1.0)
    with pytest.raises(ValueError, match="complexity must be positive"):
        reference_menus(channel, 3, 64)
    with pytest.raises(ValueError, match="complexity must be positive"):
        block_menus(channel, 3, 64)
