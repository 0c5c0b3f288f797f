"""Exhaustive design search for the best repeater configuration at a range.

For a fixed cluster-size class ``k`` the free design choices are the channel
count ``m`` and the branching vector of the protecting tree.  Every
candidate's analytic envelope ``R(L) = D * exp(-s * alpha * L)`` is
characterised once — the locus optimisation of ``s`` does not depend on the
range — after which the best design at any range, the family curve
``R_k(L)``, and the crossover structure between classes all follow from
cheap exponential comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .clusterbuild import min_sources
from .envelope import EnvelopeParams, analytic_lb, optimize_z
from .errors import EmptyFeasibleSetError, InvalidConfigurationError, LocusInvalidError, NoInteriorMinimumError
from .params import DeviceParams, chain_coefficients, derive_constants
from .ratemodel import cluster_photons, k_of_design
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
    "fitted_exponent",
]


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

    @property
    def spacing_km(self) -> float:
        return self.envelope.l0_km


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
    """All ``(m, tree)`` pairs within ``bounds`` whose photon count needs ``k`` fusion levels."""
    for depth in bounds.depths:
        for m in range(1, bounds.m_max + 1):
            for branches in itertools.product(range(1, bounds.branch_max + 1), repeat=depth):
                tree = BranchingVector(branches)
                if k_of_design(m, tree) == k:
                    yield m, tree


def design_envelopes(
    k: int,
    device: DeviceParams,
    p_cn: float = 0.9,
    scheme: str = "new",
    bounds: SearchBounds = SearchBounds(),
) -> list[tuple[int, BranchingVector, EnvelopeParams]]:
    """Optimised envelope parameters for every feasible design in the class.

    Designs whose locus is invalid everywhere or whose exponent has no
    interior minimum are dropped.

    Raises
    ------
    EmptyFeasibleSetError
        When no design in the class admits a valid envelope.
    """
    consts = derive_constants(device)
    out: list[tuple[int, BranchingVector, EnvelopeParams]] = []
    for m, tree in iter_designs(k, bounds):
        coeffs = chain_coefficients(consts, device, m, k, boosted=(scheme == "new"))
        try:
            z_star = optimize_z(m, tree, device, coeffs, scheme=scheme)
            env = analytic_lb(z_star, m, tree, device, coeffs, p_cn=p_cn, scheme=scheme)
        except (LocusInvalidError, NoInteriorMinimumError):
            continue
        out.append((m, tree, env))
    if not out:
        raise EmptyFeasibleSetError(
            f"no feasible design with k={k} within m <= {bounds.m_max}, "
            f"branches <= {bounds.branch_max}, depths {bounds.depths}"
        )
    return out


def _design_point(
    m: int,
    tree: BranchingVector,
    k: int,
    env: EnvelopeParams,
    l_km: float,
    alpha: float,
) -> DesignPoint:
    rate = env.rate_at(l_km, alpha)
    spacing = env.l0_km
    n_opt = max(1, round(l_km / spacing)) if spacing > 0 else 1
    return DesignPoint(
        m=m, tree=tree, k=k, envelope=env, range_km=l_km,
        rate_bits_per_mode=rate, n_opt=n_opt,
    )


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
    channel count.  Pass ``candidates`` (from :func:`design_envelopes`) to
    amortise the scan across ranges.
    """
    if l_km <= 0:
        raise InvalidConfigurationError(f"range must be positive, got {l_km!r}")
    if candidates is None:
        candidates = design_envelopes(k, device, p_cn, scheme, bounds)
    best: DesignPoint | None = None
    for m, tree, env in candidates:
        point = _design_point(m, tree, k, env, l_km, device.alpha)
        if best is None:
            best = point
            continue
        key = (-point.rate_bits_per_mode, point.n_cluster, point.m, point.tree.branches)
        best_key = (-best.rate_bits_per_mode, best.n_cluster, best.m, best.tree.branches)
        if key < best_key:
            best = point
    assert best is not None  # candidates is non-empty by construction
    return best


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
    p_cn: float = 0.9,
    scheme: str = "new",
    bounds: SearchBounds = SearchBounds(),
) -> list[FamilyCurve]:
    """Per-class best-design envelope rates over a shared range grid."""
    grid = np.asarray(l_km, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0):
        raise InvalidConfigurationError("range grid must be a non-empty 1-D array of positive km")
    curves = []
    for k in ks:
        candidates = design_envelopes(k, device, p_cn, scheme, bounds)
        d_coeffs = np.array([env.d_coeff for _, _, env in candidates])
        s_exps = np.array([env.s_exp for _, _, env in candidates])
        with np.errstate(over="ignore"):
            rates = d_coeffs[:, None] * np.exp(
                -s_exps[:, None] * device.alpha * grid[None, :]
            )
        curves.append(FamilyCurve(k=k, l_km=grid, rate_bits_per_mode=rates.max(axis=0)))
    return curves


def fitted_exponent(l_km: np.ndarray, rates: np.ndarray, alpha: float) -> float:
    """Effective loss exponent ``s`` from a log-linear fit of a rate curve.

    Fits ``ln R = ln D - s * alpha * L`` by least squares and returns ``s``;
    non-positive rates are excluded.
    """
    l_km = np.asarray(l_km, dtype=float)
    rates = np.asarray(rates, dtype=float)
    keep = rates > 0
    if keep.sum() < 2:
        raise InvalidConfigurationError("need at least two positive rates to fit an exponent")
    slope, _ = np.polyfit(l_km[keep], np.log(rates[keep]), 1)
    return -slope / alpha
