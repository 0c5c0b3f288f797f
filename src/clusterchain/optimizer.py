"""Exhaustive design search for the best repeater configuration at a range.

For a fixed cluster-size class ``k`` the free design choices are the channel
count ``m`` and the branching vector of the protecting tree.  Every
candidate's analytic envelope ``R(L) = D * exp(-s * alpha * L)`` is
characterised once — the locus optimisation of ``s`` does not depend on the
range — after which the best design at any range, the family curve
``R_k(L)``, and the crossover structure between classes all follow from
cheap exponential comparisons.  Both :func:`optimize_design` and
:func:`rate_family` compare one ``(designs, ranges)`` array of envelope
rates, from the helper behind :meth:`EnvelopeParams.rate_at`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .clusterbuild import min_sources
from .envelope import EnvelopeParams, _power_law, analytic_lb, optimize_z
from .errors import EmptyFeasibleSetError, InvalidConfigurationError
from .params import ChainCoefficients, DeviceParams, derive_constants
from .ratemodel import cluster_photons, coefficients_for, k_of_design
from .treecode import BranchingVector

__all__ = [
    "SearchBounds",
    "DesignPoint",
    "OperatingPoint",
    "FamilyCurve",
    "iter_designs",
    "design_envelopes",
    "optimize_design",
    "operating_point",
    "rate_family",
]

# Designs design_envelopes scores per kernel call: 50 designs x 161 z grid
# points keeps each call near 2**13 cells, so the scan's temporaries stay
# small whatever the class size.
_BLOCK_DESIGNS = 50


@dataclass(frozen=True)
class SearchBounds:
    """Limits of the exhaustive design scan."""

    m_max: int = 16
    branch_max: int = 16
    depths: tuple[int, ...] = (2,)

    def __post_init__(self) -> None:
        if self.m_max < 1 or self.branch_max < 1:
            raise InvalidConfigurationError("search bounds must be >= 1")
        if not self.depths or any(d < 1 for d in self.depths):
            raise InvalidConfigurationError("tree depths must be a non-empty tuple of >= 1")
        if len(set(self.depths)) != len(self.depths):
            raise InvalidConfigurationError(f"tree depths must not repeat, got {self.depths}")


@dataclass(frozen=True)
class DesignPoint:
    """One design with its optimised envelope, evaluated at a range."""

    m: int
    tree: BranchingVector
    k: int
    envelope: EnvelopeParams
    range_km: float
    rate_bits_per_mode: float
    n_opt: int

    @property
    def n_cluster(self) -> int:
        return cluster_photons(self.m, self.tree)

    @property
    def parallel_channels(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class OperatingPoint:
    """Design point plus its per-node resource requirement."""

    design: DesignPoint
    n_sources: int | None


@dataclass(frozen=True)
class FamilyCurve:
    """Best-design envelope rate of one cluster class over a range grid."""

    k: int
    l_km: np.ndarray
    rate_bits_per_mode: np.ndarray


def iter_designs(k: int, bounds: SearchBounds = SearchBounds()) -> Iterator[tuple[int, BranchingVector]]:
    """All ``(m, tree)`` pairs within ``bounds`` whose photon count needs ``k`` fusion levels.

    Ordered by depth as listed in ``bounds``, then by ``m``, then by the
    branches in lexicographic order.  The photon count grows with ``m`` and
    with every branch entry, so only trees that can still land in class
    ``k`` are visited.
    """
    for depth in bounds.depths:
        if not _holds_depth(k, depth):
            continue
        for m in range(1, bounds.m_max + 1):
            if k_of_design(m, BranchingVector((1,) * depth)) > k:
                break
            yield from _class_trees(k, m, depth, bounds.branch_max)


def _holds_depth(k: int, depth: int) -> bool:
    """Whether class ``k`` holds any tree of ``depth``, decided without building one.

    The smallest such design, ``m = 1`` with every branch 1, has ``2 depth + 7``
    photons, and :func:`k_of_design` puts it in class ``k`` or below exactly
    when ``2 depth + 5 <= 2**k``.
    """
    return (2 * depth + 4).bit_length() <= k


def _class_trees(
    k: int, m: int, depth: int, branch_max: int
) -> Iterator[tuple[int, BranchingVector]]:
    """Class-``k`` designs with ``m`` channels and ``depth`` branches, in
    lexicographic order: a depth-first walk that holds its path in a list,
    so no depth meets the recursion limit."""
    path = [1]  # the branches fixed so far; the last is the one being tried
    while path:
        rest = depth - len(path)
        smallest = BranchingVector(tuple(path) + (1,) * rest)
        k_smallest = k_of_design(m, smallest) if path[-1] <= branch_max else k + 1
        if k_smallest > k:
            path.pop()  # past branch_max, or so are all later siblings
        elif rest == 0:
            if k_smallest == k:
                yield m, smallest
        elif k_of_design(m, BranchingVector(tuple(path) + (branch_max,) * rest)) >= k:
            path.append(1)
            continue
        if path:
            path[-1] += 1


def design_envelopes(
    k: int,
    device: DeviceParams,
    p_cn: float = 0.9,
    scheme: str = "new",
    bounds: SearchBounds = SearchBounds(),
) -> list[tuple[int, BranchingVector, EnvelopeParams]]:
    """Optimised envelope parameters for every feasible design in the class.

    Designs whose locus is invalid everywhere or whose exponent has no
    interior minimum are dropped; the rest come in :func:`iter_designs`
    order.  Designs of one tree depth are optimised in blocks of
    ``_BLOCK_DESIGNS``, one kernel call per grid scan and narrowing step.

    Raises
    ------
    InvalidConfigurationError
        For ``k < 1``, before any design is scanned.
    EmptyFeasibleSetError
        When no design in the class admits a valid envelope.
    """
    if k < 1:
        raise InvalidConfigurationError(f"k must be >= 1, got {k}")
    # built on first use: the scan stops at the first m that leaves the class
    coeffs = functools.cache(lambda m: coefficients_for(m, k, device, scheme))
    out: list[tuple[int, BranchingVector, EnvelopeParams]] = []
    for _, group in itertools.groupby(iter_designs(k, bounds), key=lambda d: d[1].depth):
        while block := list(itertools.islice(group, _BLOCK_DESIGNS)):
            out += _block_envelopes(block, coeffs, device, p_cn, scheme)
    if not out:
        raise EmptyFeasibleSetError(
            f"no feasible design with k={k} within m <= {bounds.m_max}, "
            f"branches <= {bounds.branch_max}, depths {bounds.depths}"
        )
    return out


def _block_envelopes(
    block: list[tuple[int, BranchingVector]],
    coeffs: Callable[[int], ChainCoefficients],
    device: DeviceParams,
    p_cn: float,
    scheme: str,
) -> list[tuple[int, BranchingVector, EnvelopeParams]]:
    """Envelopes of the feasible designs in a block of one tree depth."""
    m = np.array([mi for mi, _ in block])
    tree = np.array([ti.branches for _, ti in block]).T  # one column per level
    # B and C depend on the class only; A carries the factor m
    a_coeff = np.array([coeffs(mi).a_coeff for mi, _ in block])
    block_coeffs = replace(coeffs(block[0][0]), a_coeff=a_coeff)
    z = optimize_z(m, tree, device, block_coeffs, scheme=scheme)
    ok = ~np.isnan(z)
    env = analytic_lb(z[ok], m[ok], tree[:, ok], device, replace(block_coeffs, a_coeff=a_coeff[ok]),
                      p_cn=p_cn, scheme=scheme)
    rows = np.column_stack(astuple(env)).tolist()
    return [(mi, ti, EnvelopeParams(*row))
            for (mi, ti), row in zip(itertools.compress(block, ok), rows)]


def optimize_design(
    l_km: float,
    k: int,
    device: DeviceParams,
    p_cn: float = 0.9,
    scheme: str = "new",
    bounds: SearchBounds = SearchBounds(),
    candidates: Sequence[tuple[int, BranchingVector, EnvelopeParams]] | None = None,
) -> DesignPoint:
    """Best design of class ``k`` at range ``l_km`` by envelope rate.

    Rate ties are broken toward the smaller cluster, then the smaller
    channel count, then the lexicographically smaller branches: the
    candidates are sorted once by ``(n_cluster, m, branches)``, and the first
    of the highest rates wins.  Pass ``candidates`` (from
    :func:`design_envelopes`) to amortise the scan across ranges; an empty
    list raises :class:`EmptyFeasibleSetError`.
    """
    if not (math.isfinite(l_km) and l_km > 0):
        raise InvalidConfigurationError(f"range must be positive and finite, got {l_km!r}")
    if candidates is None:
        candidates = design_envelopes(k, device, p_cn, scheme, bounds)
    ordered = sorted(candidates, key=lambda c: (cluster_photons(c[0], c[1]), c[0], c[1].branches))
    if not ordered:
        raise EmptyFeasibleSetError(f"no candidate design for k={k} at {l_km:g} km")
    rates = _envelope_rates(ordered, device.alpha, l_km)[:, 0]
    best = int(np.argmax(rates))
    m, tree, env = ordered[best]
    return DesignPoint(m=m, tree=tree, k=k, envelope=env, range_km=l_km,
                       rate_bits_per_mode=rates[best], n_opt=env.n_opt_at(l_km))


def _envelope_rates(
    candidates: Sequence[tuple[int, BranchingVector, EnvelopeParams]], alpha: float, l_km
) -> np.ndarray:
    """``(designs, ranges)`` envelope rates of ``candidates`` at the ranges ``l_km``."""
    d_coeffs = np.array([env.d_coeff for _, _, env in candidates])
    s_exps = np.array([env.s_exp for _, _, env in candidates])
    return _power_law(d_coeffs[:, None], s_exps[:, None], alpha, l_km)


def operating_point(
    l_km: float,
    k: int,
    device: DeviceParams,
    p_cn: float = 0.9,
    scheme: str = "new",
    bounds: SearchBounds = SearchBounds(),
    with_sources: bool = True,
    method: str = "auto",
    trials: int = 10**5,
    seed: int = 0,
) -> OperatingPoint:
    """Best design at a range plus, optionally, its minimum source count.

    The source search targets the chain-wide build probability ``p_cn`` at
    the design's optimal node count and is by far the expensive part; pass
    ``with_sources=False`` when only the rate is needed.
    """
    design = optimize_design(l_km, k, device, p_cn, scheme, bounds)
    n_sources: int | None = None
    if with_sources:
        consts = derive_constants(device)
        source_scheme = "improved" if scheme == "new" else "naive"
        n_sources = min_sources(
            source_scheme, k, design.m, design.n_opt, p_cn, consts,
            method=method, trials=trials, seed=seed,
        )
    return OperatingPoint(design=design, n_sources=n_sources)


def rate_family(
    l_km: Sequence[float] | np.ndarray,
    ks: Sequence[int],
    device: DeviceParams,
) -> list[FamilyCurve]:
    """Per-class best-design envelope rates over a shared range grid, for the
    ``"new"`` scheme at ``P_cn = 0.9``."""
    grid = np.asarray(l_km, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise InvalidConfigurationError(
            "range grid must be a non-empty 1-D array of positive, finite km"
        )
    curves = []
    for k in ks:
        with np.errstate(over="ignore"):
            rates = _envelope_rates(design_envelopes(k, device), device.alpha, grid)
        curves.append(FamilyCurve(k=k, l_km=grid, rate_bits_per_mode=rates.max(axis=0)))
    return curves
