"""The package's one Monte Carlo engine: blocked, counter-keyed sampling.

Each sampler (the tree-code loss oracle, the banked factory) hands
:func:`mc_fractions` a ``draw(size, rng)`` callable that simulates ``size``
independent trials and returns the integer hit count of each event it
tracks.  The engine validates the run, splits the trials into blocks of at
most 16384 trials and at most ``2**21`` trial-cells (``width`` is the cells
one trial touches: tree photons, leaf banks), so memory stays bounded for
any sample count, and drives block ``i`` from
``Generator(Philox(key=(seed << 64) + i))``.  A result depends only on
``(samples, seed, width)`` and the draw, never on how blocks are scheduled.

Both samplers read a block's raw 64-bit words, ``rng.bit_generator.random_raw``,
the stream ``Generator.random()`` turns into the uniform ``(w >> 11) * 2**-53``,
and compare ``w >> 11`` with integer keys from :func:`_uniform_keys`.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidConfigurationError

__all__ = ["mc_fractions"]

_MAX_BLOCK = 16384
_MAX_BLOCK_CELLS = 2**21


def _checked_seed(samples: int, seed: int) -> int:
    """``seed`` as a Python int, once ``samples >= 1`` and the seed lies in ``[0, 2**64)``.

    Raises
    ------
    InvalidConfigurationError
        For ``samples < 1`` or a seed outside ``[0, 2**64)``.
    """
    if samples < 1:
        raise InvalidConfigurationError(f"sample count must be >= 1, got {samples!r}")
    seed = operator.index(seed)  # numpy integers would wrap in the key's shift
    if not 0 <= seed < 2**64:
        raise InvalidConfigurationError(f"seed must lie in [0, 2**64), got {seed!r}")
    return seed


def _uniform_keys(x: np.ndarray | float) -> np.ndarray:
    """The int64 key ``min(ceil(x * 2**53), 2**53)`` of each ``x >= 0``.

    ``x`` is at or below the uniform ``(w >> 11) * 2**-53`` of a raw word
    ``w`` exactly when its key is at or below ``w >> 11``: the product is
    exact, and ``w >> 11`` stays below ``2**53``, so no word passes an ``x``
    above ``1 - 2**-53``, whose key is ``2**53``.
    """
    keys = np.array(x, dtype=float)
    keys *= 2.0**53
    np.ceil(keys, out=keys)
    np.minimum(keys, 2.0**53, out=keys)
    return keys.astype(np.int64)


def mc_fractions(
    samples: int,
    seed: int,
    width: int,
    draw: Callable[[int, np.random.Generator], Sequence[int]],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-event hit fractions over ``samples`` trials, with standard errors.

    Returns ``(fractions, standard_errors)``, one entry per event counted by
    ``draw``; each error is ``sqrt(f (1 - f) / samples)``.

    Raises
    ------
    InvalidConfigurationError
        For ``samples < 1`` or a seed outside ``[0, 2**64)``, before any draw.
    """
    seed = _checked_seed(samples, seed)
    block = min(_MAX_BLOCK, max(1, _MAX_BLOCK_CELLS // width))
    totals = None
    for index, start in enumerate(range(0, samples, block)):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + index))
        counts = draw(min(block, samples - start), rng)
        totals = counts if totals is None else [a + b for a, b in zip(totals, counts)]
    fractions = tuple(int(hits) / samples for hits in totals)
    return fractions, tuple(math.sqrt(f * (1.0 - f) / samples) for f in fractions)
