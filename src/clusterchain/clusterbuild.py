"""Per-clock cluster-factory success probabilities and source-count search.

A repeater node must assemble its photonic cluster from 3-photon GHZ states
through ``k`` rounds of probabilistic fusion.  Two multiplexing strategies
are modelled:

* **Naive**: every fusion stage is multiplexed independently (``n_b``
  parallel attempts per fusion, ``n_ghz`` per GHZ state, ``n_meas`` final
  copies), with no photon reuse across attempts, giving the closed
  recursion of :func:`naive_pc1` and a source count
  ``N_s = 6 n_ghz n_meas (2 n_b)**k``.

* **Banked**: all heralded GHZ states produced in a clock cycle are pooled
  into ``2**k`` banks at the leaves of a balanced binary fusion tree; each
  fusion level pairs sibling banks and succeeds per attempt with the
  level's fusion probability, so the bank counts evolve as a binomial
  cascade ``y -> Binomial(min(y1, y2), p_l)``.  Leaf banks that host a
  photon destined for early measurement receive proportionally more GHZ
  states (weight ``1 / (p_chip * eta_ghz)``) and are thinned by that same
  survival after allocation.

The banked scheme is evaluated both by seeded Monte Carlo
(:func:`improved_pc1_mc`, on the engine of :mod:`clusterchain.montecarlo`)
and by exact propagation of per-bank count survivals
(:func:`improved_pc1_exact`); the two serve as mutual cross-checks.
:func:`min_sources` searches for the smallest source count
meeting a target probability that all ``n`` nodes fire in one clock cycle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CapTooSmallError,
    DesignInfeasibleError,
    InvalidConfigurationError,
    TargetUnreachableError,
)
from .montecarlo import _MAX_BLOCK_CELLS, _checked_seed, _uniform_keys, mc_fractions
from .params import DerivedConstants

__all__ = [
    "NaiveMultiplex",
    "FusionSchedule",
    "naive_pc1",
    "optimize_naive_multiplex",
    "build_schedule",
    "allocate_ghz_counts",
    "fusion_probabilities",
    "improved_pc1_mc",
    "improved_pc1_exact",
    "pcn",
    "min_sources",
    "pcn_curve",
]

_TAIL_MASS = 1e-12  # GHZ-success mass outside the exact window
_EARLY_STOP = 1e-16  # largest change the exact sweep's early stop may skip
_LEVEL_CUT = 1e-20  # largest survival a fusion level's cut drops from any row
_EXACT_COUNT_LIMIT = 2**12  # largest per-bank GHZ count the exact factory holds
_MAX_LEVELS = _MAX_BLOCK_CELLS.bit_length() - 1  # largest k whose 2**k leaf banks fit one MC block
_SLICE_CELLS = 2**18  # leaf-bank cells per banked MC slice, and cells per inversion table
_SLICE_TOP = math.isqrt(_SLICE_CELLS) - 1  # largest count an inversion table holds
# Raw words per inversion pass.  One pass holds about 0.6 MB with its indices;
# a k = 7 first level inverted in one 131072-word pass faulted its 2.6 MB in
# afresh on every slice, as glibc returned the heap top between slices.
_DRAW_WORDS = 2**15
_NAIVE_GRID = 200  # n_ghz and n_meas scanned on [1, _NAIVE_GRID] by the naive optimiser
_SOURCE_CEILING = 10**15  # largest source count min_sources tries


@dataclass(frozen=True)
class NaiveMultiplex:
    """Multiplexing depths of the naive scheme (all >= 1)."""

    n_b: int
    n_ghz: int
    n_meas: int

    def __post_init__(self) -> None:
        for name in ("n_b", "n_ghz", "n_meas"):
            if getattr(self, name) < 1:
                raise InvalidConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )

    def sources(self, k: int) -> int:
        """Single-photon sources implied: ``6 n_ghz n_meas (2 n_b)**k``."""
        return 6 * self.n_ghz * self.n_meas * (2 * self.n_b) ** k


@dataclass(frozen=True)
class FusionSchedule:
    """Balanced binary fusion tree over ``2**k`` leaf GHZ banks.

    Attributes
    ----------
    k : int
        Fusion levels, in ``[1, 21]``: the ``2**k`` leaf banks fit one Monte Carlo block.
    measured : tuple of int
        Strictly increasing positions, in ``[0, 2**k)``, of the leaf banks
        that host a photon measured right after assembly.
    heavy : float
        GHZ allocation weight of a measured bank, ``1 / (p_chip * eta_ghz)``
        as built; every other bank weighs 1, and the ``2**k`` weights must
        sum to a finite float.
    """

    k: int
    measured: tuple[int, ...]
    heavy: float

    def __post_init__(self) -> None:
        if not 1 <= self.k <= _MAX_LEVELS:  # before 2**k is formed
            raise InvalidConfigurationError(
                f"k must lie in [1, {_MAX_LEVELS}] (2**k leaf banks per trial), got {self.k!r}"
            )
        edges = (-1, *self.measured, 2**self.k)
        if not all(isinstance(b, int) and a < b for a, b in zip(edges, edges[1:])):
            raise InvalidConfigurationError(
                f"measured must be increasing integers in [0, {2**self.k}), got {self.measured!r}"
            )
        if not (self.heavy > 0.0 and math.isfinite(self.weight_sum)):
            raise InvalidConfigurationError(
                f"heavy must be > 0 and the 2**{self.k} bank weights must sum finitely, "
                f"got heavy = {self.heavy!r}"
            )

    @property
    def leaf_banks(self) -> int:
        return 2**self.k

    @property
    def weight_sum(self) -> float:
        """``S``, the ``2**k`` bank weights' sum in closed form: ``len(measured) heavy``
        plus one per light bank."""
        return len(self.measured) * self.heavy + (2**self.k - len(self.measured))


def build_schedule(k: int, m: int, consts: DerivedConstants) -> FusionSchedule:
    """Schedule with ``4m + 1`` measured leaves spread evenly over the banks.

    One pre-measured photon per leaf bank; the measured positions are
    ``floor(i * 2**k / (4m + 1))``, which spaces them as uniformly as the
    binary tree allows (and puts at most one in any sibling pair whenever
    the leaves outnumber the measured photons two to one).

    Raises
    ------
    InvalidConfigurationError
        For ``m < 1``, ``k > 21`` (``2**k`` leaf banks overflow one Monte Carlo
        block) or an overflowing ``1 / (p_chip * eta_ghz)``, before any allocation.
    DesignInfeasibleError
        When ``4m + 1 > 2**k`` so the leaves cannot host the measured
        photons one each.
    """
    if k > _MAX_LEVELS:
        raise InvalidConfigurationError(
            f"k must be <= {_MAX_LEVELS} (2**k leaf banks per trial), got {k}"
        )
    if m < 1:
        raise InvalidConfigurationError(f"channel count m must be >= 1, got {m}")
    leaves = 2**k
    need = 4 * m + 1
    if need > leaves:
        raise DesignInfeasibleError(
            f"design needs {need} measured leaves but a k={k} fusion tree has "
            f"only {leaves}"
        )
    thin_p = consts.p_chip * consts.eta_ghz
    if not thin_p > need / np.finfo(float).max:  # the measured banks' weights sum finitely
        raise InvalidConfigurationError(f"p_chip * eta_ghz = {thin_p:.3g} is too small to invert")
    return FusionSchedule(k, tuple(i * leaves // need for i in range(need)), 1.0 / thin_p)


def fusion_probabilities(k: int, consts: DerivedConstants) -> list[float]:
    """Per-level boosted fusion success probabilities ``p_l``, ``l = 1..k``.

    A level-``l`` fusion consumes one photon from each input fragment; both
    photons have survived ``l + 1`` on-chip feed-forward steps since their
    GHZ heralding, so
    ``p_l = (eta_ghz * p_chip**(l+1))**2 * boosted_pair_factor``.
    """
    return [
        (consts.eta_ghz * consts.p_chip ** (level + 1)) ** 2 * consts.boosted_pair_factor
        for level in range(1, k + 1)
    ]


def naive_pc1(mux: NaiveMultiplex, k: int, m: int, consts: DerivedConstants) -> float:
    """Per-node, per-clock success probability of the naive scheme.

    The multiplexed recursion is::

        P_0 = 1 - (1 - p_ghz)**n_ghz
        Q_l = (eta_ghz * p_chip**l)**2 / 2
        P_l = 1 - (1 - P_{l-1}**2 * Q_l)**n_b
        P'  = (eta_ghz * p_chip**(k+1))**(4m+1)

    and the level-``k`` bank feeds ``n_meas`` conversion attempts,
    ``P_c1 = 1 - (1 - P_k * P')**n_meas``.  This reading of the final stage
    is the one consistent with the ``(2 n_b)**k`` source accounting, and its
    optimised source counts land near the published scale.
    """
    _check_naive_design(k, m)
    p_k = _naive_levels(np.asarray(mux.n_b), np.asarray(mux.n_ghz), k, consts)
    return float(_naive_converted(p_k, np.asarray(mux.n_meas), k, m, consts))


def _check_naive_design(k: int, m: int) -> None:
    """Refuse a naive design with ``k < 1`` or ``m < 1``."""
    if k < 1:
        raise InvalidConfigurationError(f"k must be >= 1, got {k}")
    if m < 1:
        raise InvalidConfigurationError(f"channel count m must be >= 1, got {m}")


def _naive_levels(
    n_b: np.ndarray, n_ghz: np.ndarray, k: int, consts: DerivedConstants
) -> np.ndarray:
    """``P_k`` of :func:`naive_pc1` over aligned multiplex-depth arrays."""
    p_level = -np.expm1(n_ghz * math.log1p(-consts.p_ghz))
    for level in range(1, k + 1):
        q_l = (consts.eta_ghz * consts.p_chip**level) ** 2 / 2.0
        p_level = -np.expm1(n_b * np.log1p(-(p_level**2 * q_l)))
    return p_level


def _naive_converted(
    p_k: np.ndarray, n_meas: np.ndarray, k: int, m: int, consts: DerivedConstants
) -> np.ndarray:
    """``P_c1`` of :func:`naive_pc1` from ``P_k``, over aligned arrays."""
    p_convert = (consts.eta_ghz * consts.p_chip ** (k + 1)) ** (4 * m + 1)
    return -np.expm1(n_meas * np.log1p(-(p_k * p_convert)))


def _check_sources(n_s: int) -> None:
    """Refuse a source count outside ``[0, 2**63)``, the range int64 budgets hold,
    or one that is not an integral number (``600.0`` is one; 599.99 and NaN are not)."""
    if n_s < 0:
        raise InvalidConfigurationError(f"source count must be >= 0, got {n_s}")
    if n_s >= 2**63:
        raise InvalidConfigurationError(f"source count must be below 2**63, got {n_s}")
    if not float(n_s).is_integer():
        raise InvalidConfigurationError(f"source count must be an integer, got {n_s}")


def optimize_naive_multiplex(
    n_s: int,
    k: int,
    m: int,
    consts: DerivedConstants,
) -> tuple[NaiveMultiplex | None, float]:
    """Best ``(n_b, n_ghz, n_meas)`` within a source budget ``n_s``.

    Scans ``n_ghz, n_meas`` exhaustively on ``[1, 200]**2``; the budget
    identity then fixes the largest admissible ``n_b`` for each pair.  Ties
    in the success probability are broken toward larger ``n_b``.  Returns
    ``(None, 0.0)`` when even ``(1, 1, 1)`` exceeds the budget, which is
    decided without forming ``2**k``.  The budget is divided on int64
    arrays, so it must lie in ``[0, 2**63)``.
    """
    _check_naive_design(k, m)
    _check_sources(n_s)
    if (n_s // 6).bit_length() <= k:  # n_s < 6 * 2**k
        return None, 0.0
    grid = np.arange(1, _NAIVE_GRID + 1)
    n_ghz, n_meas = np.meshgrid(grid, grid, indexing="ij")
    n_b = _largest_depth(n_s, 6 * n_ghz * n_meas, k)
    feasible = n_b >= 1
    n_b = np.maximum(n_b, 1)
    # P_k depends on (n_ghz, n_b) alone, and n_b falls in runs along n_meas,
    # so the level recursion runs once per run
    starts = np.ones(n_b.shape, dtype=bool)
    starts[:, 1:] = n_b[:, 1:] != n_b[:, :-1]
    p_k = _naive_levels(n_b[starts], n_ghz[starts], k, consts)
    p_k = p_k[np.cumsum(starts) - 1].reshape(n_b.shape)
    pc1 = _naive_converted(p_k, n_meas, k, m, consts)
    pc1 = np.where(feasible, pc1, -1.0)
    best_flat = np.argmax(pc1)
    best_val = pc1.flat[best_flat]
    ties = np.nonzero(pc1 == best_val)
    tie_order = np.argmax(n_b[ties])
    i, j = ties[0][tie_order], ties[1][tie_order]
    mux = NaiveMultiplex(n_b=int(n_b[i, j]), n_ghz=int(n_ghz[i, j]), n_meas=int(n_meas[i, j]))
    return mux, float(best_val)


def _largest_depth(n_s: int, cost: np.ndarray, k: int) -> np.ndarray:
    """Largest ``n_b`` with ``cost * (2 n_b)**k <= n_s`` per cell, 0 where none.

    ``cost`` holds each cell's ``6 n_ghz n_meas`` and ``n_s`` is below
    2**63, so every budget ``n_s // cost`` is below 2**61.  Exact: from
    k = 2 the half root, below 2**30, shrunk by 2e-14 relative (several
    times its rounding error) lands on the answer or one below it, and one
    int64 power decides which; it cannot wrap, as a base above ``top``
    already passes 2**62.  Forms no ``2**k``: from k = 62 no budget admits
    ``n_b = 1``.
    """
    budget = n_s // cost
    if k >= 62:
        return np.zeros_like(budget)
    if k == 1:
        return budget // 2
    top = int(2 ** (62 / k))  # the largest base whose k-th power is at most 2**62
    top -= top**k > 2**62
    top += (top + 1) ** k <= 2**62
    # in place where it can be: at most four grid-sized arrays live at once
    root = np.power(budget, 1.0 / k)
    root *= 0.5 - 1e-14
    n_b = root.astype(np.int64)
    del root
    base = 2 * n_b + 2
    fits = base <= top
    np.minimum(base, top, out=base)
    np.power(base, k, out=base)
    fits &= base <= budget
    n_b += fits
    return n_b


def _naive_threshold(k: int, m: int, consts: DerivedConstants, target: float) -> int | None:
    """Smallest source count at which :func:`optimize_naive_multiplex` reaches
    ``target``, or ``None`` where no count up to ``_SOURCE_CEILING`` does.

    P_c1 does not fall as ``n_b`` or ``n_meas`` grows, so the optimiser
    reaches the target at ``n_s`` exactly when some ``(n_ghz, n_meas)`` cell
    has ``6 n_ghz n_meas (2 b*)**k <= n_s``, ``b*`` being the cell's
    smallest ``n_b`` that reaches it; the threshold is the least such count.
    Each cell's ``b*`` is bisected on the optimiser's own element-wise
    expressions, so the threshold agrees with its answer at every count.
    The ``n_meas = 200`` column is searched first.  Its best count bounds
    every cell's bracket from above (``_SOURCE_CEILING`` where the column
    cannot reach the target), and the ``n_b`` it found short of the target
    is short for every smaller ``n_meas`` too, so a cell is searched only
    where its count one past that ``n_b`` is within the bound, and stops
    as soon as its next count cannot beat the best so far.
    """
    _check_naive_design(k, m)
    if (_SOURCE_CEILING // 6).bit_length() <= k:  # even (1, 1, 1) needs more sources
        return None

    def reaches(n_b: np.ndarray, n_ghz: np.ndarray, n_meas: np.ndarray) -> np.ndarray:
        p_k = _naive_levels(n_b, n_ghz, k, consts)
        return _naive_converted(p_k, n_meas, k, m, consts) >= target

    def search(n_ghz: np.ndarray, n_meas: np.ndarray, lo: np.ndarray, bound: int) -> int:
        """Raise each cell's ``lo``, an ``n_b`` known short of the target, as
        far as the search gets; return the least count found to reach the
        target, ``bound + 1`` if none."""
        cost = 6 * n_ghz * n_meas
        hi = _largest_depth(bound, cost, k)
        live = np.flatnonzero(hi > lo)
        short = ~reaches(hi[live], n_ghz[live], n_meas[live])
        lo[live[short]] = hi[live[short]]
        live = live[~short]
        best = bound + 1
        while live.size:
            best = min(best, int((cost[live] * (2 * hi[live]) ** k).min()))
            next_cost = cost[live] * (2 * lo[live] + 2) ** k
            live = live[(hi[live] - lo[live] > 1) & (next_cost < best)]
            mid = (lo[live] + hi[live]) // 2
            ok = reaches(mid, n_ghz[live], n_meas[live])
            hi[live[ok]] = mid[ok]
            lo[live[~ok]] = mid[~ok]
        return best

    grid = np.arange(1, _NAIVE_GRID + 1)
    short = np.zeros(_NAIVE_GRID, dtype=np.int64)  # per n_ghz, at n_meas = 200
    best = search(grid, np.full(_NAIVE_GRID, _NAIVE_GRID), short, _SOURCE_CEILING)
    bound = min(best, _SOURCE_CEILING)
    # per n_ghz, the n_meas whose count one past `short` stays within the bound
    width = np.array([min(_NAIVE_GRID, bound // (6 * g * (2 * b + 2) ** k))
                      for g, b in zip(grid.tolist(), short.tolist())])
    first = np.repeat(np.cumsum(width) - width, width)
    n_meas = np.arange(first.size) - first + 1
    best = min(best, search(np.repeat(grid, width), n_meas, np.repeat(short, width), bound))
    return best if best <= _SOURCE_CEILING else None


def allocate_ghz_counts(x: np.ndarray, sched: FusionSchedule) -> np.ndarray:
    """Deterministically apportion GHZ successes to a schedule's banks, largest remainder.

    Returns one int64 row of ``2**k`` counts per entry of ``x`` (GHZ
    successes, one per trial), summing to it.  A bank weighs ``sched.heavy``
    if measured and 1 otherwise, its share is its weight over the sum ``S``
    of all ``2**k`` weights, and fractional remainders are resolved
    largest-first (ties by bank index).

    Every bank of a weight class, light or measured, has the same floor
    ``floor(x * share)`` and remainder, so the rule is worked out per row on
    the two classes (:class:`_Plan`): the cut is the remainder of the bank
    that takes the last of the ``x - sum(floors)`` leftover states; a class
    above it takes one more state in every bank, and the banks at it (of
    both classes when the remainders are equal) take one more in index
    order up to ``stop``.  The counts are one ``np.take`` of the classes'
    counts per bank, ``O(t 2**k)`` time and memory with no sort; the exact
    factory and the Monte Carlo read the plan itself and never form them.
    """
    return _plan(x, sched).dense(_bank_class(sched))


def _bank_class(sched: FusionSchedule) -> np.ndarray:
    """Each bank's class: 1 if measured, else 0."""
    bank_class = np.zeros(sched.leaf_banks, dtype=np.intp)
    bank_class[np.array(sched.measured, dtype=np.intp)] = 1
    return bank_class


class _Plan(NamedTuple):
    """Largest remainder per ``x`` on the light (column 0) and measured class:
    every bank takes its class's floor, and one more state if its class is
    above the cut (level 2), or at it (level 1) with an index below ``stop``."""

    floors: np.ndarray  # (t, 2) int64
    level: np.ndarray  # (t, 2) int8: 2 above the cut, 1 at it, 0 below it
    stop: np.ndarray  # (t,) one past the last bank at the cut that takes a state
    sizes: np.ndarray  # (2,) banks per class
    first: np.ndarray  # (2,) each class's first bank

    def counts(self, banks: np.ndarray, kind: np.ndarray, dtype: type = np.int64) -> np.ndarray:
        """The counts of the banks ``banks`` (``(n,)``, or ``(t, n)`` for banks
        that differ per row) of classes ``kind``, in ``dtype``, which must hold
        every one: the class's floor, one more state if the class is above the
        cut, and one more if it is at the cut and the bank lies below ``stop``."""
        counts = np.take((self.floors + (self.level == 2)).astype(dtype), kind, axis=1)
        below = banks < self.stop.astype(banks.dtype)[:, None]  # stop <= 2**k
        counts += np.take(self.level == 1, kind, axis=1) & below
        return counts

    def dense(self, bank_class: np.ndarray, dtype: type = np.int64) -> np.ndarray:
        """The ``(t, 2**k)`` counts in ``dtype``, taken from the two classes bank by bank."""
        return self.counts(np.arange(len(bank_class), dtype=np.int32), bank_class, dtype)

    def largest(self) -> np.ndarray:
        """Each row's largest count, without the dense form: a class's first
        bank holds its largest count, and an empty class adds nothing."""
        return np.where(self.sizes > 0, self.counts(self.first, np.arange(2)), 0).max(axis=1)


def _plan(x: np.ndarray, sched: FusionSchedule) -> _Plan:
    """The :class:`_Plan` of :func:`allocate_ghz_counts` for ``x``."""
    x = np.asarray(x, dtype=np.int64)
    measured = np.array(sched.measured, dtype=np.int64)
    sizes = np.array([sched.leaf_banks - len(measured), len(measured)])
    # a light and a measured bank's shares, 1 / S and heavy / S
    remainder = x[:, None] * (np.array([1.0, sched.heavy]) / sched.weight_sum)[None, :]
    floors = np.floor(remainder).astype(np.int64)
    remainder -= floors
    deficit = x - floors @ sizes
    # the cut: the remainder of the bank that takes the last leftover state,
    # the lower one once the leftovers outnumber the banks of the higher
    light, heavy = remainder.T
    passed = (remainder > remainder[:, ::-1]) & (deficit[:, None] > sizes)
    cut = np.where(passed[:, 0] | passed[:, 1], np.minimum(light, heavy), np.maximum(light, heavy))
    above, tied = remainder > cut[:, None], remainder == cut[:, None]
    take = np.clip(deficit - above @ sizes, 0, tied @ sizes)  # grants for the banks at the cut
    # one past the take-th bank at the cut: of all banks when both classes
    # are at it, else of the light or of the measured ones
    offsets = measured - np.arange(len(measured))  # light banks before each measured one
    light_stop = take + np.searchsorted(offsets, take - 1, side="right")
    heavy_stop = np.concatenate(([0], measured + 1))[np.minimum(take, len(measured))]
    stop = np.where(tied[:, 1], np.where(tied[:, 0], take, heavy_stop), light_stop)
    light_first = np.searchsorted(offsets, 0, side="right")
    first = np.array([light_first, measured[0] if len(measured) else 0])
    return _Plan(floors, 2 * above.astype(np.int8) + tied, stop, sizes, first)


def _ghz_attempts(n_s: int, ghz_source: bool) -> int:
    """GHZ attempts ``n_s`` sources make: ``n_s // 6``, or ``n_s`` GHZ sources.
    Both factories count GHZ states in int64 (see :func:`_check_sources`)."""
    _check_sources(n_s)
    return n_s if ghz_source else n_s // 6


def _binomial_cdf_rows(values: np.ndarray, p: float) -> np.ndarray:
    """``P[Bin(n, p) <= c]`` for ``c = 0..max(values)``, one row per ``n`` in
    ``values``, with 2.0 at every ``c >= n`` so no uniform in ``[0, 1)`` passes it.

    Each pmf is built outward from its mode ``floor((n + 1) p)`` as running
    products of the ratios ``pmf(c + 1) / pmf(c) = (n - c) p / ((c + 1) (1 - p))``
    above it and their inverses below it, every factor at most 1 so nothing
    overflows, then summed left to right and divided by its total.  A row
    depends on ``n`` and ``p`` alone, not on the other rows.  It reads no
    factorial and no survival matrix, so the Monte Carlo stays independent
    of the exact propagation.
    """
    n = values[:, None]
    c = np.arange(int(values.max()) + 1)[None, :]
    mode = np.minimum(np.floor((n + 1) * p), n)
    below = c < mode
    # besides ``ratio``, one table-sized array at a time, worked in place
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (n - c) / (c + 1)
        ratio *= np.divide(p, 1.0 - p)
        ratio[c >= n] = 0.0
        pmf = np.divide(1.0, ratio, out=np.ones_like(ratio), where=below)
    ratio[below] = 1.0
    # pmf(c) / pmf(mode): the product of the factors between c and the mode
    np.cumprod(pmf[:, ::-1], axis=1, out=pmf[:, ::-1])
    np.cumprod(ratio, axis=1, out=ratio)
    pmf[:, 1:] *= ratio[:, :-1]
    del ratio
    cdf = np.cumsum(pmf, axis=1, out=pmf)
    cdf /= cdf[:, -1:].copy()
    cdf[c >= n] = 2.0
    return cdf


def _guide_codes(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Per CDF row and each of ``buckets`` equal ``u``-buckets, flat: the
    count of the row's entries at or below the bucket's lower edge if its
    upper edge passes no more, else -1, in int16."""
    width = len(cdf)
    # an entry is at or below the bucket edge b / buckets for every b >= its
    # edge ceil(entry * buckets), so a row's counts start at 0 and step up by
    # one at each of its entries' edges: ``steps`` holds where each count
    # starts, row by row at its flat offset, and ``counts`` the count; a
    # row's last count is the one at the upper edge of its last bucket
    stride = buckets + 1
    steps = np.empty((width, width + 1), dtype=np.intp)
    steps[:, 0] = 0
    np.ceil(cdf * buckets, out=steps[:, 1:], casting="unsafe")
    steps += np.arange(width)[:, None] * stride
    kept = np.ones(steps.shape, dtype=bool)
    np.less_equal(cdf, 1.0, out=kept[:, 1:])
    steps = steps[kept]
    counts = np.broadcast_to(np.arange(width + 1, dtype=np.int16), kept.shape)[kept]
    edges = np.repeat(counts, np.diff(steps, append=width * stride)).reshape(width, stride)
    # a bucket whose upper edge passes more entries than its lower one is unsettled
    return np.where(edges[:, :-1] < edges[:, 1:], np.int16(-1), edges[:, :-1]).ravel()


class _InverseBinomial:
    """``Binomial(n, p)`` draws for one ``p`` by inversion of a cached CDF table.

    The table holds the CDF row of every ``n = 0..top``, indexed by ``n``, and
    is rebuilt when a draw brings a larger ``n``.  A draw reads one raw 64-bit
    word ``w`` of the generator, whose uniform is ``u = (w >> 11) * 2**-53``
    (as ``Generator.random()`` makes it), and its answer is the number of
    entries at or below ``u`` in the row of its ``n``.  An entry is at or
    below ``u`` exactly when ``w >> 11`` reaches its key
    (:func:`~clusterchain.montecarlo._uniform_keys`, at most ``2**53``, which
    no word reaches), so the table holds each entry as its key plus
    ``r << 54`` in row ``r``: the keys then rise row after row, and one
    ``np.searchsorted`` of ``(r << 54) + (w >> 11)`` over all of them counts
    the row's entries passed plus ``r`` full rows.  No uniform is formed.  A
    guide table holds, per row and for each of ``G`` equal ``u``-buckets
    (``G`` the power of two at or above four times the row width, so the
    bucket of ``u`` is the word's top ``log2 G`` bits,
    ``w >> (64 - log2 G)``), one int16 code: the count of entries at or
    below the bucket's lower edge if its upper edge passes no more (the bucket
    is settled and the count is the answer), else -1.  A draw gathers its code
    once, and only a draw in an unsettled bucket (1% to 7% of draws at k = 7)
    searches the keys, so the guide changes the time, never the answer.  A
    draw whose largest ``n`` would need a table over ``_SLICE_CELLS`` cells
    (``n`` of 512 and up) goes to ``rng.binomial``; whether it does depends on
    the draw's own ``n`` alone, never on what is cached.  The guide holds
    under eight codes, 16 bytes, per table cell, and its flat index, under
    ``2**20``, is worked out in int32.  A draw reads its words in runs of
    ``_DRAW_WORDS``, one inversion pass each; the runs follow one another in
    the stream, so the answers are those of one pass.
    """

    def __init__(self, p: float) -> None:
        self.p = p
        self._build(0)

    def _build(self, top: int) -> None:
        cdf = _binomial_cdf_rows(np.arange(top + 1), self.p)
        self.width = top + 1
        self.shift = 64 - (4 * self.width - 1).bit_length()
        self.buckets = 1 << (64 - self.shift)
        self.guide = _guide_codes(cdf, self.buckets)
        self.keys = _uniform_keys(cdf)  # the entries of 2.0 past each row's n pass no word
        self.keys += np.arange(self.width, dtype=np.int64)[:, None] << 54
        self.keys = self.keys.ravel()

    def invert(self, n: np.ndarray, words: np.ndarray) -> np.ndarray:
        """The count of entries at or below the uniform of each raw word in
        ``words`` in the row of each ``n``, flat; the table must reach ``n.max()``."""
        rows, words = n.ravel(), words.ravel()
        # the bucket, the word's top bits, cast to int32 as it is shifted; the
        # row offset in int32 too, as an int16 row times buckets would wrap
        at = np.right_shift(words, np.uint64(self.shift), out=np.empty(words.size, np.int32),
                            casting="unsafe")
        at += rows.astype(np.int32, copy=False) * np.int32(self.buckets)
        drawn = self.guide.take(at)
        todo = np.flatnonzero(drawn < 0)
        if todo.size:
            row = rows[todo].astype(np.int64)
            key = (words[todo] >> np.uint64(11)).astype(np.int64) + (row << 54)
            drawn[todo] = np.searchsorted(self.keys, key, side="right") - row * self.width
        return drawn

    def draw(self, n: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One ``Binomial(n, p)`` per element of ``n``, in its shape."""
        top = int(n.max(initial=0))
        if top > _SLICE_TOP:
            return rng.binomial(n, self.p)
        if top >= self.width:
            self._build(top)
        rows = n.ravel()
        drawn = np.empty(rows.size, dtype=np.int16)
        for start in range(0, rows.size, _DRAW_WORDS):
            part = rows[start : start + _DRAW_WORDS]
            words = rng.bit_generator.random_raw(part.size)
            drawn[start : start + part.size] = self.invert(part, words)
        return drawn.reshape(n.shape)


def improved_pc1_mc(
    n_s: int,
    sched: FusionSchedule,
    consts: DerivedConstants,
    trials: int = 10**5,
    seed: int = 0,
    ghz_source: bool = False,
) -> tuple[float, float]:
    """Monte Carlo estimate of the banked scheme's ``P_c1``.

    Per trial: draw the GHZ-factory successes ``x ~ Binomial(n_s // 6,
    p_ghz)`` (or take ``x = n_s`` deterministic GHZ states when
    ``ghz_source``), apportion them to the leaf banks by largest remainder
    on the schedule's two weight classes (:func:`allocate_ghz_counts`, no
    sort), thin the measured banks by
    ``Binomial(., p_chip * eta_ghz)``, then combine sibling banks level by
    level as ``Binomial(min(y1, y2), p_l)``.  The estimate is the fraction
    of trials whose root bank is non-empty.

    Trials run through the package's Monte Carlo engine
    (:func:`clusterchain.montecarlo.mc_fractions`), one leaf bank per cell,
    so the result is bit-identical for a given ``(seed, trials)``.  Each
    engine block runs in slices of ``max(1, 2**18 // 2**k)`` trials, so no
    slice holds more than ``2**18`` leaf-bank cells (one trial past k = 18).
    The thinning and every fusion level draw by inversion: one raw 64-bit
    word of the block's generator per bank, whose uniform
    ``(w >> 11) * 2**-53`` (the one ``Generator.random()`` would make of it)
    is read off the level's CDF row for the bank's count, the word's top
    bits picking the row's guide bucket (:class:`_InverseBinomial`).  The
    error budget is the CDF rounding: each entry of every row the table
    builds (``n <= 511``) lies within ``2e-15`` of its exact value (the
    tests hold rows up to ``n = 511`` to that against exact rationals), and
    the uniforms step by ``2**-53``, so each draw's law is off by about
    ``1e-15``, far below the estimate's ``1 / sqrt(trials)``.  A level
    whose largest count in a slice is 512 or more would need a table over
    ``2**18`` cells, and draws that slice with ``rng.binomial``.  A slice
    never forms its ``(t, 2**k)`` leaf counts.  Inside a weight class the
    counts never rise with bank index, so a pair of light banks enters
    level 1 as its odd bank's count, read off the allocation plan; only the
    pairs that hold a measured bank are formed from both of their banks,
    the measured ones thinned in their own order.  A slice holds these
    counts in int32 when its largest leaf count is below ``2**31`` and in
    int64 otherwise, so no count wraps, and ``rng.binomial`` sees each
    exactly.

    Returns
    -------
    (estimate, standard_error)
    """
    n_attempts = _ghz_attempts(n_s, ghz_source)
    bank_class = _bank_class(sched)
    thin = _InverseBinomial(consts.p_chip * consts.eta_ghz)
    first, *levels = [_InverseBinomial(p) for p in fusion_probabilities(sched.k, consts)]
    slice_trials = max(1, _SLICE_CELLS // sched.leaf_banks)
    # The pairs that hold a measured bank: ``held`` lists their even banks,
    # then their odd ones, and ``thinned`` where in that list the measured
    # banks sit, in their own order.
    odd = np.arange(1, sched.leaf_banks, 2)
    measured = np.array(sched.measured, dtype=np.intp)
    pairs = np.unique(measured // 2)
    held = np.concatenate((2 * pairs, 2 * pairs + 1))
    thinned = np.searchsorted(pairs, measured // 2) + len(pairs) * (measured % 2)

    def draw(size: int, rng: np.random.Generator) -> tuple[int]:
        hits = 0
        for start in range(0, size, slice_trials):
            t = min(slice_trials, size - start)
            if ghz_source:
                x = np.full(t, n_attempts, dtype=np.int64)
            else:
                x = rng.binomial(n_attempts, consts.p_ghz, size=t)
            plan = _plan(x, sched)
            dtype = np.int32 if plan.largest().max() < 2**31 else np.int64
            banks = plan.counts(held, bank_class[held], dtype)
            banks[:, thinned] = thin.draw(banks[:, thinned], rng)
            # a light pair's minimum is its odd bank's count; the pairs that
            # hold a measured bank take the minimum of both, thinned
            y = plan.counts(odd, bank_class[odd], dtype)
            y[:, pairs] = np.minimum(banks[:, :len(pairs)], banks[:, len(pairs):])
            y = first.draw(y, rng)
            for level in levels:
                y = level.draw(np.minimum(y[:, 0::2], y[:, 1::2]), rng)
            hits += int(np.count_nonzero(y))
        return (hits,)

    (estimate,), (error,) = mc_fractions(trials, seed, sched.leaf_banks, draw)
    return estimate, error


def _survival_matrix(size: int, p: float, held: np.ndarray | None = None) -> np.ndarray:
    """Non-negative ``M`` with ``(S @ M)[c] = P[Bin(Y, p) >= c]`` for ``S[y] = P[Y >= y]``.

    ``M[y, c] = p Binom(c-1; y-1, p)``, the step ``P[Bin(y, p) >= c] -
    P[Bin(y-1, p) >= c]`` summed by parts, and ``M[0, 0] = 1``.  Rows are
    built by Pascal's rule, ``M[y, c] = (1-p) M[y-1, c] + p M[y-1, c-1]``,
    which only adds non-negative terms and reads no column right of ``c``,
    so a smaller matrix is the top-left corner of a larger one.  Given
    ``held``, a smaller matrix of the same ``p``, only the rows past it are
    built: a row is exactly zero right of its diagonal, so the result equals
    a fresh build bit for bit.
    """
    matrix = np.zeros((size + 1, size + 1))
    if held is None:
        matrix[0, 0] = 1.0
        start = 1  # row 1 is p at c = 1, from M[0, 0]
    else:
        start = len(held)
        matrix[:start, :start] = held
    for y in range(start, size + 1):  # columns past y stay exactly zero
        matrix[y, 1 : y + 1] = (1.0 - p) * matrix[y - 1, 1 : y + 1] + p * matrix[y - 1, :y]
    return matrix


def _upper_tail(n: int, p: float, c: int) -> float:
    """Chernoff bound on ``P[Bin(n, p) >= c]``: ``exp(-n KL(c/n || p))`` above the mean."""
    if c <= n * p:
        return 1.0
    if c > n or p <= 0.0:
        return 0.0
    a = c / n
    kl = a * math.log(a / p) + ((1.0 - a) * math.log((1.0 - a) / (1.0 - p)) if a < 1.0 else 0.0)
    return math.exp(-n * kl)


_X_BLOCK = 256  # GHZ-success counts x per memo block of the exact factory


def _distinct(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for integer keys in ``[0, space)``,
    by counting: the inverse has ``keys``' shape.  Needs ``space`` bytes for a
    presence mask and ``space`` index entries, of which only those of the keys
    present are written."""
    present = np.zeros(space, dtype=bool)
    present[keys] = True
    distinct = np.flatnonzero(present)
    index = np.empty(space, dtype=np.intp)
    index[distinct] = np.arange(len(distinct))
    return distinct, index[keys]


class _Subtrees:
    """Numbers the bank subtrees of a block's allocation plan, level by level.

    Each row marks the bank ``min(stop, 2**k - 1)``: light banks before it
    are below ``stop`` and those after it are not, so light subtrees on one
    side of the marked subtree hold the same counts.  Each level thus has
    one column per measured subtree, ``measured >> l`` without repeats,
    and, up to the first level whose every subtree holds a measured bank,
    three light columns: the marked subtree, a light one before it and one
    after it, at most ``4m + 4`` whatever ``k`` is.  A light column the row
    lacks (a marked subtree that holds a measured bank, or a side with no
    light subtree) repeats the key of the row's column 0, which every row
    holds, so each level's distinct keys are those of the row's subtrees.
    """

    def __init__(self, sched: FusionSchedule) -> None:
        k = sched.k
        self.measured = np.array(sched.measured, dtype=np.int64)
        self.last_bank = sched.leaf_banks - 1
        held = [np.array(sorted({bank >> level for bank in sched.measured}), dtype=np.int64)
                for level in range(k + 1)]
        # the lit levels, those with a light subtree, come first, as a light
        # subtree's children are light
        self.lit = sum(len(h) < 2 ** (k - level) for level, h in enumerate(held))
        widths = np.array([len(h) + 3 * (level < self.lit) for level, h in enumerate(held)])
        # the leaf columns' banks and classes: the measured banks, then the
        # marked, before and after columns' banks as offsets from the mark
        around = [0, -1, 1] if self.lit else []
        self.leaves = np.array([*sched.measured, *around], dtype=np.int64)
        self.kinds = np.array([1] * len(sched.measured) + [0] * len(around), dtype=np.intp)
        # each lit level's first and last light subtree: the increasing h
        # equals arange(len(h)) up to the first and arange(n - len(h), n)
        # past the last
        self.shifts = np.arange(self.lit)
        self.first = np.array([np.count_nonzero(h == np.arange(len(h))) for h in held[: self.lit]])
        self.last = np.array([n - 1 - np.count_nonzero(h == np.arange(n - len(h), n))
                              for h, n in zip(held, 2 ** (k - self.shifts))])
        # the measured banks around any mark, with ends that share no subtree with it
        self.near = np.concatenate(([2 << k], self.measured, [2 << k]))

        # Each level's children, pairwise, as columns of the level below: a
        # measured child's own column, a light one the before column, which
        # number() moves by where the child's banks [lo, hi) lie against the
        # mark; the light columns' children are (marked, after), which
        # number() moves by the mark's parity, (before, before) and (after,
        # after).  Above the lit levels every subtree holds a measured bank,
        # so a level's columns are its subtrees in order, and their children
        # the columns below, pairwise.
        base, light_kids, edges, marked = [], [], [], []
        self.children = [None] * k
        offset = 0
        top = min(self.lit, k)  # the last level whose level below is lit
        for level in range(1, top + 1):
            below, here = held[level - 1], held[level]
            kids = (2 * here[:, None] + np.arange(2)).ravel()
            own = np.isin(kids, below)
            light = len(below)
            base.append(np.where(own, np.searchsorted(below, kids), light + 1))
            light_kids.append(offset + np.flatnonzero(~own))
            edges.append((np.arange(2)[:, None] + kids[~own]) << (level - 1))
            width = len(kids)
            if level < self.lit:
                base.append([light, light + 2, light + 1, light + 1, light + 2, light + 2])
                marked.append(offset + width)
                width += 6
            self.children[level - 1] = slice(offset, offset + width)
            offset += width
        self.base = np.concatenate([[], *base]).astype(np.intp)
        # the level below's width, per child of a lit level or the one above them
        self.below = np.repeat(widths[:top], 2 * widths[1 : top + 1])
        self.lo, self.hi = np.concatenate([np.empty((2, 0)), *edges], axis=1).astype(np.int64)
        self.moved = np.concatenate([marked, np.add(marked, 1), *light_kids]).astype(np.intp)

    def number(self, plan: _Plan, cap: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Each level's distinct keys, leaves first, and each row's root id.

        A leaf key is ``2 min(count, cap) + measured``; a level's key is the
        left child's id times the level below's distinct keys plus the right
        child's id; ids are positions among a level's distinct keys.
        """
        mark = np.minimum(plan.stop, self.last_bank)[:, None]
        marks = mark >> self.shifts  # the marked subtree, per lit level
        banks = self.leaves + np.where(self.kinds, 0, mark)
        keys = 2 * np.minimum(plan.counts(banks, self.kinds), cap) + self.kinds

        # Which light columns each row holds, per lit level: the marked
        # subtree is light when neither measured bank next to the mark shares it.
        i = np.searchsorted(self.measured, mark)
        near = np.minimum(self.near[i] ^ mark, self.near[i + 1] ^ mark)
        present = np.stack([near >> self.shifts != 0, marks > self.first, marks < self.last],
                           axis=2)

        # The marked subtree's children are (marked, after), or (before,
        # marked) where the mark's bit at the level below is 1.  A measured
        # subtree's light child stays at the before column if it ends before
        # the mark, moves back to the marked column if it holds the mark, and
        # on to the after column if it starts past the mark.
        bits = marks[:, :-1] & 1
        kids = np.arange(len(mark))[:, None] * self.below  # flat, into the level below
        kids += self.base
        kids[:, self.moved] += np.concatenate(
            [bits, -2 * bits, (self.lo > mark) * np.int8(2) - (self.hi > mark)], axis=1)

        levels, size, space = [], 0, 2 * cap + 2
        for level in range(len(self.children) + 1):
            if level:
                children = self.children[level - 1]
                pairs = ids if children is None else np.take(ids, kids[:, children])
                keys, space = pairs[:, 0::2] * size + pairs[:, 1::2], size * size
            if level < self.lit:
                keys[:, -3:] = np.where(present[:, level], keys[:, -3:], keys[:, :1])
            distinct, ids = _distinct(keys, space)
            levels.append(distinct)
            size = len(distinct)
        return levels, ids[:, 0]


class _ExactFactory:
    """``f(x) = P[root bank non-empty | x heralded GHZ states]`` for one schedule.

    Holds ``f`` per aligned block of ``x`` and the level matrices for as long
    as the object lives; see :func:`improved_pc1_exact` for the method.
    Where a window's top grants one bank more than ``_EXACT_COUNT_LIMIT``
    states (the level matrices grow as its square), ``P_c1`` is
    ``fallback(n_s)``, or, without one, the count is refused.
    """

    def __init__(
        self,
        sched: FusionSchedule,
        consts: DerivedConstants,
        ghz_source: bool,
        fusion_probs: Sequence[float] | None,
        cap: int | None,
        fallback: Callable[[int], float] | None = None,
    ) -> None:
        self.sched = sched
        self.probs = list(fusion_probabilities(sched.k, consts) if fusion_probs is None
                          else fusion_probs)
        if len(self.probs) != sched.k:
            raise InvalidConfigurationError(
                f"need {sched.k} fusion probabilities, got {len(self.probs)}"
            )
        if not all(0.0 <= p <= 1.0 for p in self.probs):  # NaN fails too
            raise InvalidConfigurationError(
                f"fusion probabilities must lie in [0, 1], got {self.probs!r}"
            )
        self.thin_p = consts.p_chip * consts.eta_ghz
        self.subtrees = _Subtrees(sched)
        self.p_ghz = consts.p_ghz
        self.ghz_source = ghz_source
        self.cap = cap
        self.fallback = fallback
        self.banks_per_level = 2.0 ** np.arange(sched.k - 1, -1, -1)
        self.blocks: dict[int, tuple[np.ndarray, float, float]] = {}  # j -> block(j)
        self.matrices: dict[float, np.ndarray] = {}  # p -> largest _survival_matrix so far

    def _matrix(self, p: float, n: int) -> np.ndarray:
        """Thinning by ``p`` as a survival matrix over ``0..n``, a corner of the
        largest so far, which grows by its new rows only."""
        held = self.matrices.get(p)
        if held is None or len(held) <= n:
            # a quarter headroom: an upward sweep's supports grow block by block
            size = (n * 5) // 4
            held = self.matrices[p] = _survival_matrix(size, p, held)
        return held[: n + 1, : n + 1]

    def block(self, j: int) -> tuple[np.ndarray, float, float]:
        """``f`` over ``x`` in ``[j B, (j + 1) B)``, a lower bound on ``f`` beyond
        the block, and the mass the block's level cuts may move."""
        if j in self.blocks:
            return self.blocks[j]
        x_next = (j + 1) * _X_BLOCK
        # the last row keeps only its floors, which every count reaches from
        # x_next on, as the allocation grants each bank floor(x * share)
        plan = _plan(np.arange(j * _X_BLOCK, x_next + 1), self.sched)
        plan.level[-1] = 0
        f, cut = self._propagate(plan)
        self.blocks[j] = f[:-1], float(f[-1]), cut
        return self.blocks[j]

    def _propagate(self, plan: _Plan) -> tuple[np.ndarray, float]:
        """``f`` of each row of ``plan``, and the mass its level cuts may move."""
        largest = int(plan.largest().max())
        cap = largest if self.cap is None else min(self.cap, largest)
        cap = max(cap, 1)  # the root's column 1, P[Y >= 1], must exist

        # Identical subtrees share one survival row: leaves are numbered by
        # their (count, measured) key, each level by its pair of child ids.
        (keys, *levels), root = self.subtrees.number(plan, cap)
        counts, thinned = keys // 2, keys % 2 == 1
        survival = (np.arange(cap + 1) <= counts[:, None]).astype(float)  # exactly y states
        survival[thinned] = survival[thinned] @ self._matrix(self.thin_p, cap)
        cut = 0.0
        for p_level, banks, pairs in zip(self.probs, self.banks_per_level, levels):
            rows = len(survival)
            product = survival[pairs // rows]
            product *= survival[pairs % rows]  # in place: two arrays this size, not three
            # keep the support some row still reaches and lump larger counts at
            # its top; a bank is lumped with probability product[:, keep + 1]
            keep = max(int(np.flatnonzero((product > _LEVEL_CUT).any(axis=0))[-1]), 1)
            cut += banks * float(product[:, keep + 1 :].max(initial=0.0))
            survival = product[:, : keep + 1] @ self._matrix(p_level, keep)
        return survival[root, 1], cut

    def _window(self, n_attempts: int) -> tuple[int, int]:
        """GHZ-success counts ``[lo, hi]`` whose two tails hold at most ``_TAIL_MASS``."""
        if self.ghz_source:
            return n_attempts, n_attempts  # GHZ sources make n_attempts states for certain
        if self.p_ghz == 0.0:
            return 0, 0  # an underflowed p_ghz heralds no GHZ state
        p, q = self.p_ghz, 1.0 - self.p_ghz
        mean = n_attempts * p
        sd = math.sqrt(max(mean * q, 1.0))
        half_width = 8.5 * sd
        lo = max(0, math.floor(mean - half_width))
        hi = min(n_attempts, math.ceil(mean + half_width))
        while (_upper_tail(n_attempts, p, hi + 1)
               + _upper_tail(n_attempts, q, n_attempts - lo + 1)) > _TAIL_MASS:
            lo = max(0, lo - math.ceil(4 * sd))
            hi = min(n_attempts, hi + math.ceil(4 * sd))
        return lo, hi

    def pc1(self, n_s: int) -> float:
        """``P_c1(n_s)``: the GHZ-success pmf over its window dotted with ``f``."""
        return self._sweep(n_s, None)

    def feasible(self, n_s: int, target: float) -> bool:
        """``pc1(n_s) >= target``, decided as soon as the bracket on ``P_c1``
        settles it, always as the full sweep would (see :func:`improved_pc1_exact`)."""
        return self._sweep(n_s, target) >= target

    def _end_rows(self, ends: _Plan) -> tuple[float, float, float]:
        """L, ``f`` of the floors in the first row of ``ends``, U, ``f`` with one
        more state than the floors in its second row in every bank, and the
        rows' level cut; every bank is clipped to ``_EXACT_COUNT_LIMIT`` (the
        plan is changed in place), which binds only at a count the factory
        refuses, as an admitted window's floors stay within the limit."""
        ends.level[:] = [[0], [2]]
        np.minimum(ends.floors, _EXACT_COUNT_LIMIT, out=ends.floors)
        (low, high), cut = self._propagate(ends)
        return float(low), float(high), cut

    def _sweep(self, n_s: int, target: float | None) -> float:
        """``P_c1(n_s)``, or, given a ``target``, the first end of its bracket
        that lies on the same side of the target as it."""
        n_attempts = _ghz_attempts(n_s, self.ghz_source)
        lo, hi = self._window(n_attempts)
        ends = _plan(np.array([lo, hi]), self.sched)
        refused = ends.largest()[1] > _EXACT_COUNT_LIMIT
        if refused and self.fallback is None:
            raise InvalidConfigurationError(
                f"exact factory holds at most {_EXACT_COUNT_LIMIT} GHZ states in one bank, "
                f"exceeded at k = {self.sched.k} with {n_s} sources; use --method mc"
            )
        if n_attempts < 1:
            return 0.0
        margin, blocks = _TAIL_MASS + _EARLY_STOP, []
        if not refused:
            p, q = self.p_ghz, 1.0 - self.p_ghz
            # ln pmf(c+1) - ln pmf(c) = ln((n-c) p / ((c+1) q)), summed up from lo
            c = np.arange(lo, hi)
            log_px = np.concatenate(([0.0], np.cumsum(np.log((n_attempts - c) * p / ((c + 1) * q)))))
            px = np.exp(log_px - log_px.max())
            px = px / px.sum()
            if self.cap is not None:
                largest = _plan(np.arange(lo, hi + 1), self.sched).largest()
                overflow = px[largest > self.cap].sum()
                if overflow > 1e-9:
                    raise CapTooSmallError(
                        f"cap {self.cap} truncates {overflow:.3g} probability mass "
                        f"(largest allocated count is {int(largest.max())})"
                    )
                margin += overflow
            blocks = range(lo // _X_BLOCK, hi // _X_BLOCK + 1)
        # every x not yet swept has bound <= f(x) <= upper, up to the budget
        bound, upper, remaining = 0.0, 1.0, 1.0
        if target is not None:
            bound, upper, end_cut = self._end_rows(ends)
            margin += end_cut
            _check_budget(bound, margin)
            _check_budget(upper, margin)
            if refused:
                upper = 1.0  # a clipped U bounds nothing

        success = weight_done = cut = 0.0
        for j in [*blocks, None]:  # the bracket is checked before each block and after the last
            if target is not None:
                low = success + remaining * bound - (margin + cut)
                high = success + remaining * upper + (margin + cut)
                if low >= target or high < target:
                    _check_budget(success, margin + cut)
                    return low if low >= target else high
            if j is None:
                break
            f, bound, block_cut = self.block(j)
            start, stop = max(lo, j * _X_BLOCK), min(hi, (j + 1) * _X_BLOCK - 1)
            conditional = f[start - j * _X_BLOCK : stop - j * _X_BLOCK + 1]
            block_px = px[start - lo : stop - lo + 1]
            success += float(block_px @ conditional)
            weight_done += float(block_px.sum())
            cut = max(cut, block_cut)
            # every remaining x succeeds at least as often as the block's bound
            remaining = 1.0 - weight_done
            if remaining * (1.0 - bound) < _EARLY_STOP:
                success += remaining * bound
                break
        _check_budget(success, margin + cut)
        if refused:
            return self.fallback(n_s)
        return min(max(success, 0.0), 1.0)


def _check_budget(value: float, budget: float) -> None:
    """Refuse a ``P_c1`` or a bound on it outside ``[-budget, 1 + budget]`` (a defect)."""
    if not -budget <= value <= 1.0 + budget:
        raise ArithmeticError(f"P_c1 = {value!r} lies outside its error budget {budget:.3g}")


def improved_pc1_exact(
    n_s: int,
    sched: FusionSchedule,
    consts: DerivedConstants,
    cap: int | None = None,
    ghz_source: bool = False,
    fusion_probs: Sequence[float] | None = None,
) -> float:
    """Exact ``P_c1`` of the banked scheme by count-survival propagation.

    Conditions on the number ``x`` of heralded GHZ states: given ``x`` the
    largest-remainder allocation is deterministic and every subsequent
    thinning and fusion draw is independent across banks, so each bank's
    survival ``S[c] = P[Y >= c]`` propagates exactly: a binomial thinning,
    of a measured leaf by ``p_chip eta_ghz`` or of a fusion level by
    ``p_l``, is one non-negative matrix (:func:`_survival_matrix`) and
    ``min(Y1, Y2)`` has survival ``S1 * S2``, so no step subtracts.  The
    root's ``S[1]`` is the conditional success ``f(x)``; averaging it over
    the GHZ-success distribution gives ``P_c1``.  That pmf is built from the
    ratios of neighbouring terms over a window whose two tails hold at most
    ``1e-12`` by a Chernoff bound, then renormalised.

    ``f`` is computed for aligned blocks of 256 consecutive ``x``.  Within a
    block most banks hold the same count, so the leaves are numbered by
    their ``(count, measured)`` key and each fusion level by its pair of
    child ids; only the distinct survival rows are propagated.  Subtrees
    are read off each row's allocation plan, never off its ``2**k``
    counts: a subtree with no measured bank holds the marked bank
    ``min(stop, 2**k - 1)`` or lies wholly before or after it, and those on
    one side hold the same counts, so a level has at most ``4m + 4`` that
    can differ whatever ``k`` is.  The numbering counts instead of sorting:
    keys are small non-negative integers, so a presence mask over their
    range lists them in order and an index array over it numbers them.  A leaf
    key is below ``2 cap + 2``.  A pair key is the left child's id times
    the level below's distinct rows plus the right child's id, so it is
    below the square of those rows (the searches at k = 7, 9 and 10 reach
    at most 319 rows, which bounds the pair keys below 319**2, about
    102k).  Each block keeps its ``f``, so the windows of a source
    search share work when one evaluator (:func:`min_sources`,
    :func:`pcn_curve`) holds the blocks; a single call keeps them only for
    itself.  A block's cap is the largest count its own allocation grants
    (or a smaller user ``cap``), which is lossless because counts never grow
    along the cascade.  Each fusion level keeps the counts some input row
    still reaches with survival above ``1e-20`` and lumps larger ones at the
    top kept count, which only understates success; its cut, the chance that
    one of its banks is lumped, is bounded by the bank count times the
    largest survival just above the kept support.  Supports and cuts come
    from the block alone, so ``f(x)`` has the same bits whichever window
    first reached its block.

    ``f`` is not monotone in ``x``: largest remainder can take a state from
    a bank when ``x`` grows.  Every bank does keep the floor of its share,
    and success is non-decreasing in every bank's count, so each block also
    computes ``f`` of the floors at the next block's first ``x``, a lower
    bound on ``f`` for all larger ``x``.  The sweep over the window runs
    upward and stops once the remaining weight times the gap between that
    bound and 1 falls below ``1e-16``.  The error budget is the window tail,
    the user-``cap`` overflow, the largest level-cut mass over the blocks
    used, and the early stop; the result is checked against it before it is
    clamped to ``[0, 1]``.

    This function sweeps to the full value; a source search asks only
    whether it meets a target, and :meth:`_ExactFactory.feasible` answers
    that from one bracket on it.  Before any block it computes two rows of
    one plan: L, ``f`` of the floors at the window's low end ``lo``, and U,
    ``f`` with one more state than the floors at its high end ``hi`` in
    every bank.  At every ``x`` below ``2**63``, a bank's float floor
    ``floor(x * share)`` does not fall as ``x`` grows (a rounded product
    with a positive constant is monotone), and the plan grants the bank its
    floor or one more (none more where the floors overshoot ``x``).
    Success does not fall as one bank's count grows: coupled, the larger
    bank's thinning keeps at least as many states, and so does every
    minimum and fusion above it.  So ``L <= f(x) <= U`` over the window,
    and past a block ``f`` is at least the block's floor bound too.  The
    full value thus lies between the sum so far plus the remaining mass
    times the lower bound, less the budget, and the sum plus the remaining
    mass times U, plus the budget; the budget is the sweep's plus the end
    rows' own level cut (a block not yet seen can put its ``f`` below the
    bound by at most its cut, ``2**k * 1e-20 <= 2e-14``, far inside the
    ``1e-12`` of tail mass).  The bracket is checked before the first
    block and after each one, the only early decision: a lower end at or
    above the target answers yes, an upper end below it no, either as the
    full sweep would, and L, U and the partial sum are range-checked as the
    full sum is.  Where the factory refuses a count (``method="exact"``
    raises there), both rows clip every bank to ``2**12``, which only takes
    states away: L still bounds ``f`` from below, the upper end takes 1
    for U, and where the bracket settles nothing Monte Carlo answers.  The
    clipped row needs no bound on ``x``: the plan's two facts hold at every
    ``x``, and the Monte Carlo draws from the same float plan.

    Raises
    ------
    InvalidConfigurationError
        Before any block is built, when the window's top grants one bank
        more than ``2**12`` states, whose square the matrices would need;
        :func:`improved_pc1_mc` has no such limit.
    CapTooSmallError
        When a user-supplied ``cap`` would truncate more than ``1e-9``
        probability mass at the allocation stage.
    ArithmeticError
        When the result lies outside ``[-budget, 1 + budget]`` (a defect).
    """
    return _ExactFactory(sched, consts, ghz_source, fusion_probs, cap).pc1(n_s)


def pcn(p_c1: float, n: int) -> float:
    """Probability that all ``n`` nodes build their clusters: ``p_c1**n``."""
    if not 0.0 <= p_c1 <= 1.0:
        raise InvalidConfigurationError(f"p_c1 must lie in [0, 1], got {p_c1!r}")
    if n < 1:
        raise InvalidConfigurationError(f"n must be >= 1, got {n}")
    return p_c1**n


def _pc1_evaluator(
    scheme: str,
    k: int,
    m: int,
    consts: DerivedConstants,
    method: str,
    trials: int,
    seed: int,
) -> tuple[Callable[[int], float], Callable[[int, float], bool]]:
    """One scheme's ``pc1(n_s)`` and ``feasible(n_s, target)``, which answers
    ``pc1(n_s) >= target``: early where the exact factory's bracket settles it,
    and for the naive scheme from one source threshold per target, for counts
    up to ``_SOURCE_CEILING``; see :func:`min_sources`."""
    if method not in ("auto", "exact", "mc"):
        raise InvalidConfigurationError(
            f"unknown method {method!r}; expected 'auto', 'exact' or 'mc'"
        )
    _checked_seed(trials, seed)  # once, though only a Monte Carlo evaluation reads them
    if scheme == "naive":
        threshold = functools.cache(lambda target: _naive_threshold(k, m, consts, target))

        def naive_feasible(n_s: int, target: float) -> bool:
            n_star = threshold(target)
            return n_star is not None and n_s >= n_star

        return lambda n_s: optimize_naive_multiplex(n_s, k, m, consts)[1], naive_feasible
    if scheme not in ("improved", "ghz_primitive"):
        raise InvalidConfigurationError(
            f"unknown scheme {scheme!r}; expected 'naive', 'improved' or 'ghz_primitive'"
        )
    sched = build_schedule(k, m, consts)
    ghz_source = scheme == "ghz_primitive"

    def monte_carlo(n_s: int) -> float:
        return improved_pc1_mc(
            n_s, sched, consts, trials=trials, seed=seed, ghz_source=ghz_source
        )[0]

    if method == "mc":
        return monte_carlo, lambda n_s, target: monte_carlo(n_s) >= target
    # "exact" raises where the factory refuses a count
    exact = _ExactFactory(sched, consts, ghz_source, None, None,
                          monte_carlo if method == "auto" else None)
    return exact.pc1, exact.feasible


def min_sources(
    scheme: str,
    k: int,
    m: int,
    n: int,
    target_pcn: float,
    consts: DerivedConstants,
    method: str = "auto",
    trials: int = 10**5,
    seed: int = 0,
) -> int:
    """Smallest source count whose per-cycle ``P_cn`` meets ``target_pcn``.

    Brackets the threshold by doubling, then bisects to 1% relative
    resolution, returning the feasible upper end.  ``scheme`` selects what a
    source is: single photons feeding GHZ factories (``"naive"`` and
    ``"improved"``) or deterministic 3-photon GHZ sources
    (``"ghz_primitive"``).  Under ``method="auto"`` the banked
    schemes use the exact factory wherever it admits the count (no bank
    granted over ``2**12`` GHZ states in the count's window), and Monte
    Carlo where it refuses, unless the window's floors clipped to ``2**12``
    already meet the target.

    Each candidate asks only whether ``P_c1 >= target_pcn ** (1/n)``, which
    the exact factory answers as soon as its bracket on ``P_c1`` settles
    it, always as the full value would (see :func:`improved_pc1_exact`):
    the count is the full sweeps' count, from fewer blocks (10 instead of
    67 for the k = 7 reference search, whose bracket decides 22 of its 28
    evaluations before any block).  The
    naive scheme compares each count with the least count at which
    :func:`optimize_naive_multiplex` reaches the target, found once per
    search, so its answers are the optimiser's at every count without
    running its grid.  Monte Carlo answers compare the estimate with the
    target.

    Raises
    ------
    InvalidConfigurationError
        For a ``target_pcn`` outside ``(0, 1)``, or one whose per-node target
        ``target_pcn ** (1/n)`` rounds to 1.0, before any evaluation: such a
        search would stop at the first count whose estimate rounds to 1.
        For ``trials < 1`` or a ``seed`` outside ``[0, 2**64)``, whatever
        the method.  Under ``method="exact"``, also at the first count the
        factory refuses.
    TargetUnreachableError
        When the target is not met even at ``10**15`` sources.
    """
    if not 0.0 < target_pcn < 1.0:
        raise InvalidConfigurationError(
            f"target_pcn must lie in (0, 1), got {target_pcn!r}"
        )
    if n < 1:
        raise InvalidConfigurationError(f"n must be >= 1, got {n}")
    p_c1_target = target_pcn ** (1.0 / n)
    if p_c1_target == 1.0:
        raise InvalidConfigurationError(
            f"target_pcn {target_pcn!r} over {n} nodes asks each node for "
            f"P_c1 = target_pcn ** (1/n), which rounds to 1.0"
        )
    _, feasible = _pc1_evaluator(scheme, k, m, consts, method, trials, seed)
    lo, hi = 0, 6
    while not feasible(hi, p_c1_target):
        lo = hi
        hi *= 2
        if hi > _SOURCE_CEILING:
            raise TargetUnreachableError(
                f"P_cn target {target_pcn} not reachable below {_SOURCE_CEILING:.3g} sources "
                f"for scheme '{scheme}' (k={k}, m={m}, n={n})"
            )
    while hi > lo + 1 and (hi - lo) > 0.01 * lo:
        mid = (lo + hi) // 2
        if feasible(mid, p_c1_target):
            hi = mid
        else:
            lo = mid
    return hi


def pcn_curve(
    scheme: str,
    k: int,
    m: int,
    n: int,
    consts: DerivedConstants,
    source_counts: Sequence[int],
    method: str = "auto",
    trials: int = 10**5,
    seed: int = 0,
) -> np.ndarray:
    """``P_cn`` as a function of source count, for resource-curve emission.

    Raises :class:`InvalidConfigurationError` for ``n < 1`` or a source
    count that is not an integer in ``[0, 2**63)``, before any evaluation.
    """
    if n < 1:
        raise InvalidConfigurationError(f"n must be >= 1, got {n}")
    for n_s in source_counts:
        _check_sources(n_s)
    counts = [int(n_s) for n_s in source_counts]
    evaluate, _ = _pc1_evaluator(scheme, k, m, consts, method, trials, seed)
    return np.array([pcn(evaluate(n_s), n) for n_s in counts])
