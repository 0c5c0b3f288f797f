"""Analytic rate-distance envelope ``R_LB = D * eta**s`` and its optimisation.

The per-``n`` rate curves of :mod:`clusterchain.ratemodel` form an envelope
when maximised over the node count.  Parameterising the locus of optimal
designs by ``eta**(1/n) = (A B**2)**(-z)`` with a range-independent constant
``z`` turns the envelope into a pure power law in the end-to-end
transmissivity ``eta = exp(-alpha L)``::

    R_LB(eta) = D * eta**s,
    s = -ln(q1 q2) / (z ln(A B**2)),   D = q3 * P_cn / (divisor * q2)

where ``q1 = p_z**(2(m-1)) * p_x**2``, ``q2 = 1 - (1 - p_b)**m`` and
``q3 = p_end**2`` are the chain factors evaluated on the locus.  They are
not re-derived here: the locus is the chain-factor kernel of
:mod:`clusterchain.ratemodel` called at ``eta_link = (A B**2)**(-z)``, on
one ``z`` or on a whole grid at once.  Minimising
``s`` over ``z`` gives the flattest attainable power law; the corresponding
repeater spacing ``L/n = z* ln(A B**2) / alpha`` is a constant independent
of the total range.

The module also computes the numeric envelope (explicit maximisation over
integer ``n``) and crossover points against the repeaterless bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize as sp_optimize

from .errors import LocusInvalidError, NoCrossoverError, NoInteriorMinimumError
from .params import ChainCoefficients, DeviceParams
from .ratemodel import (ChainConfig, chain_probs, coefficients_for, log_chain_factors,
                        mode_divisor, r_direct, rates_over_n)
from .treecode import BranchingVector

__all__ = [
    "EnvelopeParams",
    "EnvelopePoint",
    "locus_probs",
    "analytic_lb",
    "optimize_z",
    "spacing_unit",
    "repeater_spacing",
    "numeric_envelope",
    "crossover_distance",
    "crossover_analytic",
]

_Z_GRID_POINTS = 161


@dataclass(frozen=True)
class EnvelopeParams:
    """Parameters of one analytic envelope ``R_LB(eta) = D * eta**s``.

    ``q1``, ``q2``, ``q3`` are the locus-evaluated chain factors;
    ``l0_km`` is the repeater spacing ``z * ln(A B**2) / alpha`` implied by
    the locus.
    """

    z: float
    q1: float
    q2: float
    q3: float
    d_coeff: float
    s_exp: float
    l0_km: float

    def rate_at(self, l_km: float | np.ndarray, alpha: float) -> float | np.ndarray:
        """Evaluate ``D * exp(-s * alpha * L)`` at range ``l_km``."""
        return self.d_coeff * np.exp(-self.s_exp * alpha * np.asarray(l_km, dtype=float))


@dataclass(frozen=True)
class EnvelopePoint:
    """One point of the numeric envelope, with the maximising node count."""

    l_km: float
    rate_bits_per_mode: float
    n_opt: int


def _require_locus(coeffs: ChainCoefficients) -> None:
    if coeffs.ab_squared <= 1.0:
        raise LocusInvalidError(
            f"A*B^2 = {coeffs.ab_squared:.6g} <= 1: the optimal-design locus is undefined"
        )


def _locus(z, m: int, tree: BranchingVector, coeffs: ChainCoefficients, scheme: str) -> tuple:
    """``(kernel outputs, log factors, s)`` on the locus, array-native in ``z > 0``.

    ``s = inf`` wherever ``p_b > 1`` or a factor vanishes.
    """
    log_ab2 = math.log(coeffs.ab_squared)
    probs = chain_probs(coeffs.ab_squared ** -np.asarray(z), m, tree, coeffs, scheme)
    with np.errstate(invalid="ignore"):  # ln q2 is undefined where p_b > 1
        logs = log_chain_factors(*probs, m)
        s = np.where(probs[2] > 1.0, np.inf, -(logs[0] + logs[1]) / (z * log_ab2))
    return probs, logs, s


def _exponent(z, *locus_args) -> np.ndarray:
    """Envelope exponent ``s(z)``; ``inf`` where the locus is invalid."""
    return _locus(z, *locus_args)[2]


def _locus_factors(
    z: float, m: int, tree: BranchingVector, coeffs: ChainCoefficients, scheme: str
) -> tuple:
    """:func:`_locus` at one ``z``, raising :class:`LocusInvalidError` off the locus."""
    _require_locus(coeffs)
    if z <= 0.0:
        raise LocusInvalidError(f"locus parameter z must be > 0, got {z!r}")
    probs, logs, s = _locus(z, m, tree, coeffs, scheme)
    if probs[2] > 1.0:
        raise LocusInvalidError(
            f"locus Bell probability {float(probs[2]):.6g} exceeds 1 at z={z:.6g}, m={m}"
        )
    return probs, logs, s


def locus_probs(
    z: float,
    m: int,
    b0: int,
    b1: int,
    a_coeff: float,
    b_coeff: float,
    c_coeff: float,
    scheme: str = "new",
) -> tuple[float, float, float, float]:
    """``(p_x, p_z, p_b, p_end)`` on the locus for a depth-2 tree.

    Substitutes ``eta**(1/n) = (A B**2)**(-z)`` into the chain success
    probabilities.  Raises :class:`LocusInvalidError` when ``A B**2 <= 1``
    (the locus would move inward with range) or when the Bell probability
    leaves [0, 1].
    """
    coeffs = ChainCoefficients(a_coeff=a_coeff, b_coeff=b_coeff, c_coeff=c_coeff)
    probs, _, _ = _locus_factors(z, m, BranchingVector((b0, b1)), coeffs, scheme)
    return tuple(float(p) for p in probs)


def analytic_lb(
    z: float,
    m: int,
    tree: BranchingVector,
    device: DeviceParams,
    coeffs: ChainCoefficients,
    p_cn: float = 0.9,
    scheme: str = "new",
) -> EnvelopeParams:
    """Envelope parameters at locus position ``z``.

    Returns
    -------
    EnvelopeParams
        With ``D = q3 * p_cn / (divisor * q2)`` and
        ``s = -ln(q1 q2) / (z ln(A B**2))``; ``s`` is ``inf`` when the locus
        factors vanish.
    """
    _, logs, s = _locus_factors(z, m, tree, coeffs, scheme)
    q1, q2, q3 = (math.exp(float(v)) for v in logs)
    d_coeff = q3 * p_cn / (mode_divisor(m, tree, scheme) * q2) if q2 > 0.0 else 0.0
    return EnvelopeParams(
        z=z,
        q1=q1,
        q2=q2,
        q3=q3,
        d_coeff=d_coeff,
        s_exp=float(s),
        l0_km=repeater_spacing(z, coeffs, device.alpha),
    )


def optimize_z(
    m: int,
    tree: BranchingVector,
    device: DeviceParams,
    coeffs: ChainCoefficients,
    scheme: str = "new",
    z_lo: float = 1e-3,
    z_hi: float = 3.0,
    rel_tol: float = 1e-6,
) -> float:
    """Locus parameter minimising the envelope exponent ``s``.

    A coarse logarithmic grid scan locates the bracket (guarding against
    multimodality), then golden-section search refines it to ``rel_tol``.

    Raises
    ------
    LocusInvalidError
        If ``A B**2 <= 1`` so no locus exists at all.
    NoInteriorMinimumError
        If ``s(z)`` is monotone on ``[z_lo, z_hi]`` (minimum at a boundary)
        or finite nowhere on the grid.
    """
    _require_locus(coeffs)
    args = (m, tree, coeffs, scheme)
    grid = np.geomspace(z_lo, z_hi, _Z_GRID_POINTS)
    values = _exponent(grid, *args)
    if not np.isfinite(values).any():
        raise NoInteriorMinimumError(
            "exponent s(z) is nowhere finite on the search bracket"
        )
    best = int(np.argmin(values))
    if best in (0, len(grid) - 1):
        raise NoInteriorMinimumError(
            f"s(z) is minimised at the bracket edge z={grid[best]:.6g}; "
            "no interior minimum"
        )
    result = sp_optimize.minimize_scalar(
        _exponent,
        args=args,
        bracket=(grid[best - 1], grid[best], grid[best + 1]),
        method="golden",
        options={"xtol": rel_tol},
    )
    z_star = float(result.x)
    if not (z_lo <= z_star <= z_hi) or not np.isfinite(_exponent(z_star, *args)):
        raise NoInteriorMinimumError(
            f"golden-section search left the bracket (z={z_star:.6g})"
        )
    return z_star


def spacing_unit(coeffs: ChainCoefficients, alpha: float) -> float:
    """The length scale ``ln(A B**2) / alpha`` of the locus, in km."""
    _require_locus(coeffs)
    return math.log(coeffs.ab_squared) / alpha


def repeater_spacing(z_star: float, coeffs: ChainCoefficients, alpha: float) -> float:
    """Optimal node spacing ``L/n = z* ln(A B**2) / alpha``, in km.

    Constant in the total range: on the locus, ``n`` scales linearly
    with ``L``.
    """
    return z_star * spacing_unit(coeffs, alpha)


def numeric_envelope(
    m: int,
    tree: BranchingVector,
    device: DeviceParams,
    l_grid: Sequence[float],
    p_cn: float = 0.9,
    scheme: str = "new",
    n_max: int = 10**6,
    coeffs: ChainCoefficients | None = None,
) -> list[EnvelopePoint]:
    """Envelope ``max_n R_n(L)`` over node counts ``n in [1, n_max]``.

    Scans integer ``n`` upward in vectorised chunks, stopping once the rate
    has decreased for 50 consecutive node counts past the incumbent maximum
    (the curves are empirically unimodal in ``n``), then polishes the
    maximum over real-valued ``n`` around the best integer.  The continuous
    maximum is what the analytic construction bounds from below — the
    integer-restricted maximum can dip beneath the locus value by the
    rounding loss — and the integer maximizer is still reported as
    ``n_opt``.  Warns when the maximum sits at ``n_max``, which means the
    range was too small.
    """
    l_values = np.asarray(list(l_grid), dtype=float)
    if l_values.size == 0:
        raise ValueError("range grid must be non-empty")
    if np.any(np.diff(l_values) <= 0):
        raise ValueError("range grid must be strictly increasing")
    points: list[EnvelopePoint] = []
    chunk = 512
    tail_needed = 50
    for l_km in l_values:
        cfg = ChainConfig(
            total_range_km=float(l_km),
            node_count=1,
            channels=m,
            tree=tree,
            p_cn=p_cn,
            scheme=scheme,
        )
        local_coeffs = coeffs if coeffs is not None else coefficients_for(cfg, device)
        best_rate = -math.inf
        best_n = 1
        start = 1
        scanned_past_best = 0
        while start <= n_max:
            stop = min(start + chunk - 1, n_max)
            ns = np.arange(start, stop + 1)
            rates = rates_over_n(cfg, device, ns, local_coeffs)
            idx = int(np.argmax(rates))
            if rates[idx] > best_rate:
                best_rate = float(rates[idx])
                best_n = int(ns[idx])
                scanned_past_best = len(ns) - idx - 1
            else:
                scanned_past_best += len(ns)
            if scanned_past_best >= tail_needed:
                break
            start = stop + 1
        if best_n == n_max:
            warnings.warn(
                f"envelope maximum at the n_max={n_max} boundary for L={l_km:g} km; "
                "increase the node-count range",
                stacklevel=2,
            )
        elif best_n > 1:
            refined = sp_optimize.minimize_scalar(
                lambda nr: -float(
                    rates_over_n(cfg, device, np.array([nr]), local_coeffs)[0]
                ),
                bounds=(best_n - 1.0, best_n + 1.0),
                method="bounded",
                options={"xatol": 1e-9},
            )
            best_rate = max(best_rate, -float(refined.fun))
        points.append(
            EnvelopePoint(l_km=float(l_km), rate_bits_per_mode=best_rate, n_opt=best_n)
        )
    return points


def crossover_distance(points: Sequence[EnvelopePoint], alpha: float) -> float:
    """First range where the envelope meets the repeaterless bound.

    Linearly interpolates between the bracketing grid points of the sign
    change of ``envelope - r_direct``.  Raises :class:`NoCrossoverError`
    when the envelope stays below the bound on the whole grid.
    """
    if not points:
        raise ValueError("need at least one envelope point")
    diffs = [p.rate_bits_per_mode - r_direct(p.l_km, alpha) for p in points]
    for i, diff in enumerate(diffs):
        if diff >= 0.0:
            if i == 0:
                return points[0].l_km
            lo, hi = points[i - 1], points[i]
            d_lo, d_hi = diffs[i - 1], diffs[i]
            frac = -d_lo / (d_hi - d_lo)
            return lo.l_km + frac * (hi.l_km - lo.l_km)
    raise NoCrossoverError(
        f"envelope never reaches the direct bound on [{points[0].l_km:g}, "
        f"{points[-1].l_km:g}] km"
    )


def crossover_analytic(
    env: EnvelopeParams,
    alpha: float,
    l_lo: float = 1e-2,
    l_hi: float = 5e4,
) -> float:
    """Range where ``D * eta**s`` first exceeds ``r_direct``, by root finding.

    Scans a logarithmic grid for the first sign change of the log-ratio and
    polishes it with Brent's method.  Raises :class:`NoCrossoverError` when
    the envelope never wins on ``[l_lo, l_hi]`` (e.g. when ``s >= 1``).
    """

    if env.d_coeff <= 0.0 or not math.isfinite(env.s_exp):
        raise NoCrossoverError(
            f"degenerate envelope (D={env.d_coeff:.4g}, s={env.s_exp:.4g}) "
            "never reaches the direct bound"
        )

    def log_r_direct(l_km: float) -> float:
        # -log2(1 - eta) ~ eta / ln 2 once eta is tiny; the exact expression
        # underflows to 0 around alpha * L ~ 700
        if alpha * l_km > 27.0:
            return -alpha * l_km - math.log(math.log(2.0))
        return math.log(r_direct(l_km, alpha))

    def log_ratio(l_km: float) -> float:
        return (
            math.log(env.d_coeff)
            - env.s_exp * alpha * l_km
            - log_r_direct(l_km)
        )

    grid = np.geomspace(l_lo, l_hi, 4096)
    values = np.array([log_ratio(l) for l in grid])
    above = np.nonzero(values >= 0.0)[0]
    if above.size == 0:
        raise NoCrossoverError(
            f"envelope (D={env.d_coeff:.4g}, s={env.s_exp:.4g}) never reaches the "
            f"direct bound on [{l_lo:g}, {l_hi:g}] km"
        )
    first = int(above[0])
    if first == 0:
        return float(grid[0])
    return float(sp_optimize.brentq(log_ratio, grid[first - 1], grid[first], xtol=1e-6))
