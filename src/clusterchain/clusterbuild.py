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

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CapTooSmallError,
    DesignInfeasibleError,
    InvalidConfigurationError,
    TargetUnreachableError,
)
from .montecarlo import _MAX_BLOCK_CELLS, _checked_seed, mc_fractions
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
        Fusion levels.
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
        if self.k < 1:
            raise InvalidConfigurationError(f"k must be >= 1, got {self.k!r}")
        edges = (-1, *self.measured, 2**self.k)
        if not all(isinstance(b, int) and a < b for a, b in zip(edges, edges[1:])):
            raise InvalidConfigurationError(
                f"measured must be increasing integers in [0, {2**self.k}), got {self.measured!r}"
            )
        light = 2**self.k - len(self.measured)  # past the float range the sum would raise
        if not (self.heavy > 0.0 and light <= sys.float_info.max
                and math.isfinite(self.weight_sum)):
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
    result = _naive_pc1_core(
        np.asarray(mux.n_b), np.asarray(mux.n_ghz), np.asarray(mux.n_meas), k, m, consts
    )
    return float(result)


def _naive_pc1_core(
    n_b: np.ndarray,
    n_ghz: np.ndarray,
    n_meas: np.ndarray,
    k: int,
    m: int,
    consts: DerivedConstants,
) -> np.ndarray:
    """Array core of :func:`naive_pc1` over aligned multiplex-depth arrays."""
    if k < 1:
        raise InvalidConfigurationError(f"k must be >= 1, got {k}")
    p_level = -np.expm1(n_ghz * math.log1p(-consts.p_ghz))
    for level in range(1, k + 1):
        q_l = (consts.eta_ghz * consts.p_chip**level) ** 2 / 2.0
        p_level = -np.expm1(n_b * np.log1p(-(p_level**2 * q_l)))
    p_convert = (consts.eta_ghz * consts.p_chip ** (k + 1)) ** (4 * m + 1)
    return -np.expm1(n_meas * np.log1p(-(p_level * p_convert)))


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
    ``(None, 0.0)`` when even ``(1, 1, 1)`` exceeds the budget.
    """
    if k < 1:
        raise InvalidConfigurationError(f"k must be >= 1, got {k}")
    if n_s < 0:
        raise InvalidConfigurationError(f"source count must be >= 0, got {n_s}")
    if n_s < 6 * 2**k:
        return None, 0.0
    grid = np.arange(1, _NAIVE_GRID + 1)
    n_ghz, n_meas = np.meshgrid(grid, grid, indexing="ij")
    budget = n_s // (6 * n_ghz * n_meas)
    feasible = budget >= 2**k
    with np.errstate(divide="ignore", invalid="ignore"):
        n_b = np.floor(np.power(budget, 1.0 / k) / 2.0).astype(np.int64)
    n_b[~feasible] = 0
    # float root-taking can land one low; push up while the budget allows
    for _ in range(2):
        grows = feasible & ((2 * (n_b + 1)) ** k <= budget)
        n_b[grows] += 1
    n_b = np.maximum(n_b, 1)
    pc1 = _naive_pc1_core(n_b, n_ghz, n_meas, k, m, consts)
    pc1 = np.where(feasible, pc1, -1.0)
    best_flat = np.argmax(pc1)
    best_val = pc1.flat[best_flat]
    ties = np.nonzero(pc1 == best_val)
    tie_order = np.argmax(n_b[ties])
    i, j = ties[0][tie_order], ties[1][tie_order]
    mux = NaiveMultiplex(n_b=int(n_b[i, j]), n_ghz=int(n_ghz[i, j]), n_meas=int(n_meas[i, j]))
    return mux, float(best_val)


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
    factory reads the plan itself and never forms them.
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

    def counts(self, banks: np.ndarray, kind: np.ndarray) -> np.ndarray:
        """The int64 counts of the banks ``banks`` (``(n,)``, or ``(t, n)`` for
        banks that differ per row) of classes ``kind``: the class's floor, and
        one more state where its level, plus 1 for a bank below ``stop``, is 2."""
        grant = np.take(self.level, kind, axis=1)
        grant += banks < self.stop[:, None]
        counts = np.take(self.floors, kind, axis=1)
        counts += grant >= 2
        return counts

    def dense(self, bank_class: np.ndarray) -> np.ndarray:
        """The ``(t, 2**k)`` int64 counts, taken from the two classes bank by bank."""
        return self.counts(np.arange(len(bank_class)), bank_class)

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
    """GHZ attempts ``n_s`` sources make: ``n_s // 6``, or ``n_s`` GHZ sources."""
    if n_s < 0:
        raise InvalidConfigurationError(f"source count must be >= 0, got {n_s}")
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
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(c < n, (n - c) / (c + 1) * np.divide(p, 1.0 - p), 0.0)
        down = np.where(c < mode, 1.0 / ratio, 1.0)
    up = np.where(c < mode, 1.0, ratio)
    # pmf(c) / pmf(mode): the product of the factors between c and the mode
    pmf = np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    pmf[:, 1:] *= np.cumprod(up, axis=1)[:, :-1]
    cdf = np.cumsum(pmf, axis=1)
    return np.where(c < n, cdf / cdf[:, -1:], 2.0)


class _InverseBinomial:
    """``Binomial(n, p)`` draws for one ``p`` by inversion of a cached CDF table.

    The table holds the CDF row of every ``n = 0..top``, indexed by ``n``, and
    is rebuilt when a draw brings a larger ``n``.  The answer for a uniform
    ``u`` is the number of entries at or below ``u`` in the row of its ``n``.
    A guide table holds, per row and for each of ``G`` equal ``u``-buckets
    (``G`` the power of two at or above four times the row width, so
    ``u * G`` is exact), the count of entries at or below the bucket's lower
    and upper edge; a vectorised binary search between the two finishes the
    count, so the guide changes the time, never the answer.  A draw whose
    largest ``n`` would need a table over ``_SLICE_CELLS`` cells (``n`` of
    512 and up) goes to ``rng.binomial``; whether it does depends on the
    draw's own ``n`` alone, never on what is cached.  The guide holds under
    eight entries per table cell.
    """

    def __init__(self, p: float) -> None:
        self.p = p
        self._build(0)

    def _build(self, top: int) -> None:
        self.cdf = _binomial_cdf_rows(np.arange(top + 1), self.p)
        width = top + 1
        self.buckets = 1 << (4 * width - 1).bit_length()
        # an entry is at or below the bucket edge b / buckets for every b >= its edge
        edge = np.ceil(self.cdf * self.buckets).astype(np.intp)
        edge += np.arange(width)[:, None] * (self.buckets + 1)
        tally = np.bincount(edge[self.cdf <= 1.0], minlength=width * (self.buckets + 1))
        self.guide = np.cumsum(tally.reshape(width, -1), axis=1)

    def invert(self, n: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The count of entries at or below ``u`` in the row of each ``n``, flat;
        the table must reach ``n.max()``."""
        rows, u = n.ravel(), u.ravel()
        at = rows * (self.buckets + 1) + (u * self.buckets).astype(np.intp)
        guide = self.guide.ravel()
        lo = guide[at]
        hi = guide[at + 1]
        todo = np.flatnonzero(lo < hi)
        if todo.size:
            # a converged element reads the entry at lo, which exceeds u
            cdf = self.cdf.ravel()
            base = rows[todo] * self.cdf.shape[1]
            u_todo, lo_todo, hi_todo = u[todo], lo[todo], hi[todo]
            for _ in range(int((hi_todo - lo_todo).max()).bit_length()):
                mid = (lo_todo + hi_todo) >> 1
                passed = cdf[base + mid] <= u_todo
                lo_todo = np.where(passed, mid + 1, lo_todo)
                hi_todo = np.where(passed, hi_todo, mid)
            lo[todo] = lo_todo
        return lo

    def draw(self, n: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One ``Binomial(n, p)`` per element of ``n``, in its shape."""
        top = int(n.max(initial=0))
        if (top + 1) ** 2 > _SLICE_CELLS:
            return rng.binomial(n, self.p)
        if top >= len(self.cdf):
            self._build(top)
        return self.invert(n, rng.random(n.shape)).reshape(n.shape)


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
    The thinning and every fusion level draw by inversion: one uniform per
    bank, read off the level's CDF row for the bank's count.  The error
    budget is the CDF rounding: each entry of every row the table builds
    (``n <= 511``) lies within ``2e-15`` of its exact value (the tests hold
    rows up to ``n = 511`` to that against exact rationals), and the
    uniforms step by ``2**-53``, so each draw's law is off by about
    ``1e-15``, far below the estimate's ``1 / sqrt(trials)``.  A level
    whose largest count in a slice is 512 or more would need a table over
    ``2**18`` cells, and draws that slice with ``rng.binomial``.

    Returns
    -------
    (estimate, standard_error)
    """
    n_attempts = _ghz_attempts(n_s, ghz_source)
    bank_class = _bank_class(sched)
    thin = _InverseBinomial(consts.p_chip * consts.eta_ghz)
    levels = [_InverseBinomial(p) for p in fusion_probabilities(sched.k, consts)]
    slice_trials = max(1, _SLICE_CELLS // sched.leaf_banks)

    def draw(size: int, rng: np.random.Generator) -> tuple[int]:
        hits = 0
        for start in range(0, size, slice_trials):
            t = min(slice_trials, size - start)
            if ghz_source:
                x = np.full(t, n_attempts, dtype=np.int64)
            else:
                x = rng.binomial(n_attempts, consts.p_ghz, size=t)
            y = _plan(x, sched).dense(bank_class)
            y[:, sched.measured] = thin.draw(y[:, sched.measured], rng)
            for level in levels:
                y = level.draw(np.minimum(y[:, 0::2], y[:, 1::2]), rng)
            hits += int(np.count_nonzero(y))
        return (hits,)

    (estimate,), (error,) = mc_fractions(trials, seed, sched.leaf_banks, draw)
    return estimate, error


def _survival_matrix(size: int, p: float) -> np.ndarray:
    """Non-negative ``M`` with ``(S @ M)[c] = P[Bin(Y, p) >= c]`` for ``S[y] = P[Y >= y]``.

    ``M[y, c] = p Binom(c-1; y-1, p)``, the step ``P[Bin(y, p) >= c] -
    P[Bin(y-1, p) >= c]`` summed by parts, and ``M[0, 0] = 1``.  Rows are
    built by Pascal's rule, ``M[y, c] = (1-p) M[y-1, c] + p M[y-1, c-1]``,
    which only adds non-negative terms and reads no column right of ``c``,
    so a smaller matrix is the top-left corner of a larger one.
    """
    matrix = np.zeros((size + 1, size + 1))
    matrix[0, 0] = 1.0
    for y in range(1, size + 1):  # row 1 is p at c = 1, from M[0, 0]
        matrix[y, 1:] = (1.0 - p) * matrix[y - 1, 1:] + p * matrix[y - 1, :-1]
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


def _distinct(
    keys: np.ndarray, space: int, valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys[valid], return_inverse=True)`` for integer keys in
    ``[0, space)`` (all keys when ``valid`` is ``None``), by counting: the
    inverse has ``keys``' shape, and a key outside ``valid`` reads id 0.  Needs ``space`` bytes for a presence mask
    and ``space`` index entries, of which only those of the keys present
    are written."""
    present = np.zeros(space, dtype=bool)
    present[keys if valid is None else keys[valid]] = True
    distinct = np.flatnonzero(present)
    index = np.empty(space, dtype=np.intp)
    index[distinct] = np.arange(len(distinct))
    return distinct, index[keys] if valid is None else np.where(valid, index[keys], 0)


class _Subtrees:
    """Numbers the bank subtrees of a block's allocation plan, level by level.

    In one row a level-``l`` subtree either holds a measured bank, or is
    light and lies wholly before ``stop``, straddles it (holds both
    ``stop - 1`` and ``stop``), or lies wholly after it; light subtrees on
    one side of ``stop`` hold the same counts.  So each level has one column
    per measured subtree, ``measured >> l`` without repeats, and, up to the
    first level whose every subtree holds a measured bank, three light
    columns, before, across and after ``stop``: at most ``4m + 4`` whatever
    ``k`` is.  The measured columns' children come from a table built once
    per schedule; which light column a light child is, and whether a row
    has each light column at all, is arithmetic on ``stop``.  A column the
    row does not have is masked out of the numbering, so each level's
    distinct keys are those of the subtrees the rows hold.
    """

    def __init__(self, sched: FusionSchedule) -> None:
        k = sched.k
        self.measured = np.array(sched.measured, dtype=np.int64)
        held = [np.array(sorted({bank >> level for bank in sched.measured}), dtype=np.int64)
                for level in range(k + 1)]
        # the lit levels, those with a light subtree, come first, as a light
        # subtree's children are light
        self.lit = sum(len(h) < 2 ** (k - level) for level, h in enumerate(held))
        widths = np.array([len(h) + 3 * (level < self.lit) for level, h in enumerate(held)])
        ends = np.cumsum(widths)
        self.columns = [slice(end - width, end) for end, width in zip(ends, widths)]
        self.light = ends[: self.lit] - 3  # each lit level's before column
        self.lit_columns = int(ends[self.lit - 1]) if self.lit else 0
        # the leaf columns' banks and classes: the measured banks, then the
        # light columns before, across (no leaf is) and after stop, read at
        # the banks stop - 1, stop - 1 and stop, held as offsets from stop
        around = [-1, -1, 0] if self.lit else []
        self.leaves = np.array([*sched.measured, *around], dtype=np.int64)
        self.kinds = np.array([1] * len(sched.measured) + [0] * len(around), dtype=np.intp)
        shifts = np.arange(self.lit)
        self.masks = (1 << shifts) - 1  # stop's offset within its subtree, per lit level
        self.halves = self.masks[:-1] + 1  # half a subtree, per lit level from level 1
        # a row has a light column before stop once stop passes the level's
        # first light subtree, and one after stop while stop is at or below
        # its last
        first, last = [], []
        for h, n in zip(held, 2 ** (k - shifts)):
            i = np.arange(len(h))
            first.append(np.append(np.flatnonzero(h != i), len(h))[0])
            last.append(n - 1 - np.append(np.flatnonzero(h[::-1] != n - 1 - i), len(h))[0])
        self.before = (np.array(first, dtype=np.int64) + 1) << shifts
        self.after = np.array(last, dtype=np.int64) << shifts
        # the measured banks around any stop, with ends that share no subtree with it
        self.near = np.concatenate(([2 << k], self.measured, [2 << k]))

        # Each level's children, pairwise, as columns of the level below: a
        # measured child's own column, a light one the before column, which
        # number() moves by where the child's banks [lo, hi) lie against
        # stop; the light columns' children start at (before, before),
        # (before, across) and (after, after).  Above the lit levels every
        # subtree holds a measured bank, so a level's columns are its
        # subtrees in order, and their children the columns below, pairwise.
        base, lo, hi, straddle, light_kids = [], [], [], [], []
        self.children = [None] * k
        offset = 0
        top = min(self.lit, k)  # the last level whose level below is lit
        for level in range(1, top + 1):
            below, here = held[level - 1], held[level]
            kids = (2 * here[:, None] + np.arange(2)).ravel()
            own = np.isin(kids, below)
            light = len(below)
            base.append(np.where(own, np.searchsorted(below, kids), light))
            light_kids.append(offset + np.flatnonzero(~own))
            lo.append(kids[~own] << (level - 1))
            hi.append((kids[~own] + 1) << (level - 1))
            width = len(kids)
            if level < self.lit:
                base.append([light, light, light, light + 1, light + 2, light + 2])
                straddle.append(offset + width + 2)
                width += 6
            self.children[level - 1] = slice(offset, offset + width)
            offset += width
        self.base = np.concatenate([[], *base]).astype(np.intp)
        # the level below's width, per child of a lit level or the one above them
        self.below = np.repeat(widths[:top], 2 * widths[1 : top + 1])
        self.lo = np.concatenate([[], *lo]).astype(np.int64)
        self.hi = np.concatenate([[], *hi]).astype(np.int64)
        straddle = np.array(straddle, dtype=np.intp)
        self.moved = np.concatenate([straddle, straddle + 1, *light_kids]).astype(np.intp)

    def number(self, plan: _Plan, cap: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Each level's distinct keys, leaves first, and each row's root id.

        A leaf key is ``2 min(count, cap) + measured``; a level's key is the
        left child's id times the level below's distinct keys plus the right
        child's id; ids are positions among a level's distinct keys.
        """
        stop = plan.stop[:, None]
        rows = len(stop)
        banks = self.leaves + np.where(self.kinds, 0, stop)
        keys = 2 * np.minimum(plan.counts(banks, self.kinds), cap) + self.kinds

        # which light columns each row has; measured columns it always has.
        # A subtree straddles stop when stop is off its edge, and is light
        # when neither measured bank next to stop shares it with stop.
        i = np.searchsorted(self.measured, plan.stop)
        near = np.minimum(self.near[i] ^ plan.stop, self.near[i + 1] ^ plan.stop)
        offset = stop & self.masks
        valid = np.ones((rows, self.lit_columns), dtype=bool)
        valid[:, self.light] = stop >= self.before
        valid[:, self.light + 1] = (offset != 0) & (near[:, None] > self.masks)
        valid[:, self.light + 2] = stop <= self.after

        # The straddling subtree's left child straddles stop too, if stop
        # lies below the middle, and is before it otherwise; its right child
        # straddles stop if stop lies above the middle, and is after it
        # otherwise.  A measured subtree's light child is before, across or
        # after stop.
        kids = np.arange(rows)[:, None] * self.below  # flat, into the level below
        kids += self.base
        kids[:, self.moved] += np.concatenate(
            [offset[:, 1:] < self.halves, offset[:, 1:] <= self.halves,
             np.add(self.lo >= stop, self.hi > stop, dtype=np.intp)], axis=1)

        has = [valid[:, columns] for columns in self.columns[: self.lit]]
        has += [None] * (len(self.columns) - self.lit)  # above the lit levels, every column
        distinct, ids = _distinct(keys, 2 * cap + 2, has[0])
        levels = [distinct]
        for children, level_has in zip(self.children, has[1:]):
            pairs = ids if children is None else np.take(ids, kids[:, children])
            size = len(distinct)
            distinct, ids = _distinct(pairs[:, 0::2] * size + pairs[:, 1::2], size * size,
                                      level_has)
            levels.append(distinct)
        # the root is light, and masked, only in a schedule without measured banks
        root = 0 if has[-1] is None else has[-1].argmax(axis=1)
        return levels, ids[np.arange(rows), root]


class _ExactFactory:
    """``f(x) = P[root bank non-empty | x heralded GHZ states]`` for one schedule.

    Holds ``f`` per aligned block of ``x`` and the level matrices for as long
    as the object lives; see :func:`improved_pc1_exact` for the method.
    """

    def __init__(
        self,
        sched: FusionSchedule,
        consts: DerivedConstants,
        ghz_source: bool,
        fusion_probs: Sequence[float] | None,
        cap: int | None,
    ) -> None:
        self.sched = sched
        self.probs = list(fusion_probabilities(sched.k, consts) if fusion_probs is None
                          else fusion_probs)
        if len(self.probs) != sched.k:
            raise InvalidConfigurationError(
                f"need {sched.k} fusion probabilities, got {len(self.probs)}"
            )
        self.thin_p = consts.p_chip * consts.eta_ghz
        self.subtrees = _Subtrees(sched)
        self.p_ghz = consts.p_ghz
        self.ghz_source = ghz_source
        self.cap = cap
        self.banks_per_level = 2.0 ** np.arange(sched.k - 1, -1, -1)
        self.blocks: dict[int, tuple[np.ndarray, float, float]] = {}  # j -> block(j)
        self.matrices: dict[float, np.ndarray] = {}  # p -> largest _survival_matrix so far

    def _matrix(self, p: float, n: int) -> np.ndarray:
        """Thinning by ``p`` as a survival matrix over ``0..n``, a corner of the largest so far."""
        held = self.matrices.get(p)
        if held is None or len(held) <= n:
            # a quarter headroom: an upward sweep's supports grow block by block
            size = (n * 5) // 4
            held = self.matrices[p] = _survival_matrix(size, p)
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
            product = survival[pairs // rows] * survival[pairs % rows]
            # keep the support some row still reaches and lump larger counts at
            # its top; a bank is lumped with probability product[:, keep + 1]
            keep = max(int(np.flatnonzero((product > _LEVEL_CUT).any(axis=0))[-1]), 1)
            cut += banks * float(product[:, keep + 1 :].max(initial=0.0))
            survival = product[:, : keep + 1] @ self._matrix(p_level, keep)
        f = survival[root, 1]
        self.blocks[j] = f[:-1], float(f[-1]), cut
        return self.blocks[j]

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

    def pc1(self, n_s: int, beyond_limit: Callable[[int], float] | None = None) -> float:
        """``P_c1(n_s)``: the GHZ-success pmf over its window dotted with ``f``.

        Where the window's top grants one bank more than ``_EXACT_COUNT_LIMIT``
        states (the level matrices grow as its square), returns
        ``beyond_limit(n_s)`` instead, or raises without one.
        """
        n_attempts = _ghz_attempts(n_s, self.ghz_source)
        lo, hi = self._window(n_attempts)
        if _plan(np.array([hi]), self.sched).largest()[0] > _EXACT_COUNT_LIMIT:
            if beyond_limit is not None:
                return beyond_limit(n_s)
            raise InvalidConfigurationError(
                f"exact factory holds at most {_EXACT_COUNT_LIMIT} GHZ states in one bank, "
                f"exceeded at k = {self.sched.k} with {n_s} sources; use --method mc"
            )
        if n_attempts < 1:
            return 0.0
        p, q = self.p_ghz, 1.0 - self.p_ghz
        # ln pmf(c+1) - ln pmf(c) = ln((n-c) p / ((c+1) q)), summed up from lo
        c = np.arange(lo, hi)
        log_px = np.concatenate(([0.0], np.cumsum(np.log((n_attempts - c) * p / ((c + 1) * q)))))
        px = np.exp(log_px - log_px.max())
        px = px / px.sum()

        overflow = 0.0
        if self.cap is not None:
            largest = _plan(np.arange(lo, hi + 1), self.sched).largest()
            overflow = px[largest > self.cap].sum()
            if overflow > 1e-9:
                raise CapTooSmallError(
                    f"cap {self.cap} truncates {overflow:.3g} probability mass "
                    f"(largest allocated count is {int(largest.max())})"
                )

        success = weight_done = cut = 0.0
        for j in range(lo // _X_BLOCK, hi // _X_BLOCK + 1):
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
        budget = _TAIL_MASS + overflow + cut + _EARLY_STOP
        if not -budget <= success <= 1.0 + budget:
            raise ArithmeticError(f"P_c1 = {success!r} lies outside its error budget {budget:.3g}")
        return min(max(success, 0.0), 1.0)


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
    child ids; only the distinct survival rows are propagated.  The
    subtrees are read off each row's allocation plan, never off its
    ``2**k`` counts: a subtree that holds no measured bank lies before,
    across or after the plan's ``stop``, and all such subtrees on one side
    hold the same counts, so a level has at most ``4m + 4`` that can differ
    whatever ``k`` is.  The numbering counts instead of sorting: keys are small non-negative
    integers, so a presence mask over their range lists the distinct keys
    in order and an index array over the same range numbers them.  A leaf
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
):
    """Build a ``p_c1(n_s)`` callable for one scheme; see :func:`min_sources`."""
    if method not in ("auto", "exact", "mc"):
        raise InvalidConfigurationError(
            f"unknown method {method!r}; expected 'auto', 'exact' or 'mc'"
        )
    _checked_seed(trials, seed)  # once, though only a Monte Carlo evaluation reads them
    if scheme == "naive":
        def evaluate(n_s: int) -> float:
            return optimize_naive_multiplex(n_s, k, m, consts)[1]

        return evaluate
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
        return monte_carlo
    exact = _ExactFactory(sched, consts, ghz_source, None, None)
    fallback = monte_carlo if method == "auto" else None  # "exact" raises where the factory refuses
    return lambda n_s: exact.pc1(n_s, beyond_limit=fallback)


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
    (``"ghz_primitive"``).  The naive scheme re-optimises its multiplexing
    depths at every candidate budget.  Under ``method="auto"`` the banked
    schemes use the exact factory wherever it admits the count (no bank
    granted over ``2**12`` GHZ states in the count's window), and Monte
    Carlo where it refuses.

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
    evaluate = _pc1_evaluator(scheme, k, m, consts, method, trials, seed)

    def feasible(n_s: int) -> bool:
        return evaluate(n_s) >= p_c1_target

    lo, hi = 0, 6
    while not feasible(hi):
        lo = hi
        hi *= 2
        if hi > _SOURCE_CEILING:
            raise TargetUnreachableError(
                f"P_cn target {target_pcn} not reachable below {_SOURCE_CEILING:.3g} sources "
                f"for scheme '{scheme}' (k={k}, m={m}, n={n})"
            )
    while hi > lo + 1 and (hi - lo) > 0.01 * lo:
        mid = (lo + hi) // 2
        if feasible(mid):
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
    """``P_cn`` as a function of source count, for resource-curve emission."""
    evaluate = _pc1_evaluator(scheme, k, m, consts, method, trials, seed)
    return np.array([pcn(evaluate(int(n_s)), n) for n_s in source_counts])
