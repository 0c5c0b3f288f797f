"""The blocked Monte Carlo engine: validation, block policy, stream keying."""

from __future__ import annotations

import numpy as np
import pytest

from clusterchain.errors import InvalidConfigurationError
from clusterchain.montecarlo import mc_fractions


def recording_draw(calls: list[int]):
    """A draw that records its block sizes and counts one event per trial."""

    def draw(size: int, rng: np.random.Generator) -> tuple[int, int]:
        calls.append(size)
        coin = rng.random(size) < 0.5
        return int(coin.sum()), size

    return draw


@pytest.mark.parametrize(
    "samples,width",
    [(1, 1), (16384, 1), (100_000, 29), (50_000, 128), (50_000, 512),
     (7_000, 2**20), (5, 2**22)],
)
def test_blocks_cover_samples_within_cell_budget(samples, width):
    calls: list[int] = []
    (_, always), _ = mc_fractions(samples, 3, width, recording_draw(calls))
    assert sum(calls) == samples
    assert always == 1.0
    assert max(calls) <= 16384
    # a trial wider than the cell budget still runs, one per block
    assert all(size * width <= max(2**21, width) for size in calls)


def test_fractions_and_standard_errors():
    (heads, always), (heads_err, always_err) = mc_fractions(
        40_000, 1, 1, recording_draw([])
    )
    assert abs(heads - 0.5) < 4 * heads_err
    assert heads_err == pytest.approx((heads * (1 - heads) / 40_000) ** 0.5)
    assert (always, always_err) == (1.0, 0.0)


def test_block_i_is_keyed_on_seed_and_index():
    seen = []

    def draw(size, rng):
        seen.append(rng.bit_generator.state["state"]["key"].tolist())
        return (0,)

    mc_fractions(3 * 16384, 2**64 - 1, 1, draw)
    expected = [
        np.random.Philox(key=((2**64 - 1) << 64) + i).state["state"]["key"].tolist()
        for i in range(3)
    ]
    assert seen == expected


def test_numpy_integer_seed_matches_python_int():
    draw = recording_draw([])
    assert mc_fractions(20_000, np.int64(9), 1, draw) == mc_fractions(20_000, 9, 1, draw)
    assert mc_fractions(20_000, 9, 1, draw) != mc_fractions(20_000, 10, 1, draw)


@pytest.mark.parametrize(
    "samples,seed", [(0, 0), (-5, 0), (10, -1), (10, 2**64)],
    ids=["zero_samples", "negative_samples", "negative_seed", "seed_2_64"],
)
def test_invalid_run_raises_before_any_draw(samples, seed):
    calls: list[int] = []
    with pytest.raises(InvalidConfigurationError):
        mc_fractions(samples, seed, 1, recording_draw(calls))
    assert calls == []


def test_raw_words_are_the_uniforms_stream():
    # both samplers read rng.bit_generator.random_raw where they once called
    # rng.random(); that keeps every result only while a word w is the uniform
    # (w >> 11) * 2**-53 and both consume one word per draw of the shared
    # stream, with rng.binomial draws interleaved as the banked slices make them
    floats = np.random.Generator(np.random.Philox(key=(5 << 64) + 3))
    words = np.random.Generator(np.random.Philox(key=(5 << 64) + 3))
    for size in (1, 7, 4096, 3):
        u = floats.random(size)
        w = words.bit_generator.random_raw(size)
        assert w.dtype == np.uint64
        np.testing.assert_array_equal((w >> np.uint64(11)) * 2.0**-53, u)
        n = np.arange(size) * 40
        np.testing.assert_array_equal(floats.binomial(n, 0.69), words.binomial(n, 0.69))
    np.testing.assert_equal(floats.bit_generator.state, words.bit_generator.state)
