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
one ``z`` or on a whole grid at once, for one design or for a block of
designs of one tree depth.  Minimising
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

from .errors import (InvalidConfigurationError, LocusInvalidError, NoCrossoverError,
                     NoInteriorMinimumError)
from .params import ChainCoefficients, DeviceParams
from .ratemodel import (ChainConfig, _link_probs, _log_link_factors, _rates_over_n, chain_probs,
                        log_chain_factors, mode_divisor, r_direct)
from .treecode import BranchingVector

__all__ = [
    "EnvelopeParams",
    "EnvelopePoint",
    "locus_probs",
    "analytic_lb",
    "optimize_z",
    "repeater_spacing",
    "numeric_envelope",
    "crossover_distance",
    "crossover_analytic",
]

_Z_GRID_POINTS = 161
_Z_LO, _Z_HI = 1e-3, 3.0  # bracket of the locus parameter z scanned by optimize_z
_Z_XTOL = 1e-6  # width of the final z bracket, relative to z
_N_MAX = 10**6  # largest node count numeric_envelope scans
_L_LO, _L_HI = 1e-2, 5e4  # range bracket in km scanned by crossover_analytic
_BRACKET_POINTS = 129  # grid points per _narrow step, ends included; odd keeps the centre
# Ranges numeric_envelope narrows per _narrow call: its temporaries take about
# 14 kB per range, so a block of 256 holds them near 3.5 MB whatever the grid.
_ENVELOPE_ROWS = 256


def _power_law(d_coeff, s_exp, alpha: float, l_km) -> np.ndarray:
    """``D * exp(-s * alpha * L)``, broadcast over ``D``, ``s`` and ``L``.

    The exponent array is exponentiated and scaled in place, so a
    ``(designs, ranges)`` family holds one array of that shape, not three.
    A scalar result comes back as a numpy scalar.
    """
    rates = np.asarray(-s_exp * alpha * np.asarray(l_km, dtype=float))
    np.exp(rates, out=rates)
    rates *= d_coeff
    return rates[()]


@dataclass(frozen=True)
class EnvelopeParams:
    """Parameters of one analytic envelope ``R_LB(eta) = D * eta**s``.

    ``q1``, ``q2``, ``q3`` are the locus-evaluated chain factors;
    ``l0_km`` is the repeater spacing ``z * ln(A B**2) / alpha`` implied by
    the locus.  For a block of designs (see :func:`optimize_z`) every field
    is an array over the block.
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
        return _power_law(self.d_coeff, self.s_exp, alpha, l_km)

    def n_opt_at(self, l_km: float) -> int:
        """Envelope node count at range ``l_km``: ``max(1, round(L / l0))``."""
        return max(1, round(l_km / self.l0_km)) if self.l0_km > 0 else 1


@dataclass(frozen=True)
class EnvelopePoint:
    """One point of the numeric envelope, with the maximising node count."""

    l_km: float
    rate_bits_per_mode: float
    n_opt: int


def _require_locus(coeffs: ChainCoefficients) -> None:
    if np.any(coeffs.ab_squared <= 1.0):
        raise LocusInvalidError(
            f"A*B^2 = {np.min(coeffs.ab_squared):.6g} <= 1: the optimal-design locus is undefined"
        )


def _columns(m, tree, coeffs: ChainCoefficients, keep=slice(None)) -> tuple:
    """``(m, tree, coeffs)`` as per-design columns of shape ``(designs, 1)``, rows ``keep``.

    ``tree`` is a :class:`BranchingVector` or one column of child counts per
    level; a scalar is shared by every design.  A count of ``2**64`` or more,
    which numpy holds only as objects, raises :class:`InvalidConfigurationError`.
    """
    levels = tree.branches if isinstance(tree, BranchingVector) else tuple(tree)
    values = (m, *levels, coeffs.a_coeff, coeffs.b_coeff, coeffs.c_coeff)
    columns = np.broadcast_arrays(*(np.reshape(v, (-1, 1)) for v in values))
    if any(column.dtype == object for column in columns[:-3]):
        raise InvalidConfigurationError(
            f"m and the branch counts must lie below 2**64, got m = {m!r}, tree = {levels!r}"
        )
    m, *levels, a, b, c = (column[keep] for column in columns)
    return m, tuple(levels), ChainCoefficients(a_coeff=a, b_coeff=b, c_coeff=c)


def _locus(z, m, tree, coeffs: ChainCoefficients, scheme: str, end: bool = False) -> tuple:
    """``(kernel outputs, log factors, s)`` on the locus, array-native in ``z > 0``.

    ``s = inf`` wherever ``p_b > 1`` or a factor vanishes.  ``s`` reads only
    ``(P_X, P_Z, P_B)`` and ``(ln q1, ln q2)``, so only with ``end`` are
    ``P_end`` and ``ln q3`` computed and returned too.  The design may be
    per-design columns (see :func:`_columns`) that broadcast against ``z``.
    """
    eta_link = coeffs.ab_squared ** -np.asarray(z)
    probs = (chain_probs if end else _link_probs)(eta_link, m, tree, coeffs, scheme)
    with np.errstate(invalid="ignore"):  # ln q2 is undefined where p_b > 1
        logs = (log_chain_factors if end else _log_link_factors)(*probs, m)
        s = np.where(probs[2] > 1.0, np.inf,
                     -(logs[0] + logs[1]) / (z * np.log(coeffs.ab_squared)))
    return probs, logs, s


def _narrow(f, lo, hi, tol, root: bool = False) -> np.ndarray:
    """Centres of brackets ``[lo, hi]``, each narrowed to width ``<= tol`` around a minimum or a root.

    ``lo`` and ``hi`` are 1-D arrays with a bracket per row, ``tol`` broadcasts
    against them, and ``f`` maps a ``(rows, points)`` array to scores of that
    shape.  Each step scores every bracket on the interior of
    ``np.linspace(lo, hi, _BRACKET_POINTS)`` and keeps the two cells around the
    lowest score (``f`` unimodal), or with ``root`` the cell where ``f`` first
    reaches ``>= 0`` (``f(lo) < 0 <= f(hi)``).  A bracket stops at its own
    tolerance or where floating point cannot narrow it further; the others go
    on in lockstep.
    """
    rows = np.arange(lo.size)
    active = hi - lo > tol
    steps = np.arange(float(_BRACKET_POINTS))
    while active.any():
        # np.linspace(lo, hi, _BRACKET_POINTS) per row, without its axis handling
        x = steps * ((hi - lo) / (_BRACKET_POINTS - 1))[:, None] + lo[:, None]
        x[:, -1] = hi
        y = f(x[:, 1:-1])
        if root:
            i, cells = np.argmax(np.append(y >= 0.0, np.ones((lo.size, 1), bool), axis=1), axis=1), 1
        else:
            i, cells = np.argmin(y, axis=1), 2
        new_lo, new_hi = x[rows, i], x[rows, i + cells]
        active &= new_hi - new_lo < hi - lo
        lo, hi = np.where(active, new_lo, lo), np.where(active, new_hi, hi)
        active &= hi - lo > tol
    return 0.5 * (lo + hi)


def _locus_factors(z, m, tree, coeffs: ChainCoefficients, scheme: str) -> tuple:
    """:func:`_locus` at one ``z`` per design, raising :class:`LocusInvalidError` off the locus."""
    _require_locus(coeffs)
    if np.any(z <= 0.0):
        raise LocusInvalidError(f"locus parameter z must be > 0, got {np.min(z)!r}")
    probs, logs, s = _locus(z, m, tree, coeffs, scheme, end=True)
    if np.any(probs[2] > 1.0):
        i = np.argmax(np.ravel(probs[2]))
        raise LocusInvalidError(
            f"locus Bell probability {np.ravel(probs[2])[i]:.6g} exceeds 1 at "
            f"z={np.ravel(z)[i]:.6g}, m={np.ravel(m)[i]}"
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
    design = _columns(m, BranchingVector((b0, b1)), coeffs)
    probs, _, _ = _locus_factors(np.reshape(z, (-1, 1)), *design, scheme)
    return tuple(p.item() for p in probs)


def analytic_lb(
    z: float | np.ndarray,
    m: int | np.ndarray,
    tree,
    device: DeviceParams,
    coeffs: ChainCoefficients,
    p_cn: float = 0.9,
    scheme: str = "new",
) -> EnvelopeParams:
    """Envelope parameters at locus position ``z``.

    For a block of designs (see :func:`optimize_z`) ``z`` holds one position
    per design and the fields of the result are arrays over the block; one
    design is scored as a block of one and gives floats.

    Returns
    -------
    EnvelopeParams
        With ``D = q3 * p_cn / (divisor * q2)`` and
        ``s = -ln(q1 q2) / (z ln(A B**2))``; ``s`` is ``inf`` when the locus
        factors vanish.

    Raises
    ------
    InvalidConfigurationError
        If ``p_cn`` lies outside ``(0, 1]``.
    LocusInvalidError
        If some design has no locus at ``z``.
    """
    if not 0.0 < p_cn <= 1.0:
        raise InvalidConfigurationError(f"p_cn must lie in (0, 1], got {p_cn!r}")
    one = isinstance(tree, BranchingVector)
    m, tree, coeffs = _columns(m, tree, coeffs)
    z = np.reshape(z, (-1, 1))
    _, logs, s = _locus_factors(z, m, tree, coeffs, scheme)
    q1, q2, q3 = (np.exp(v) for v in logs)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_coeff = np.where(q2 > 0.0, q3 * p_cn / (mode_divisor(m, tree, scheme) * q2), 0.0)
    fields = (z, q1, q2, q3, d_coeff, s, repeater_spacing(z, coeffs, device.alpha))
    return EnvelopeParams(*(v.item() if one else np.ravel(v) for v in fields))


def optimize_z(
    m: int | np.ndarray,
    tree,
    device: DeviceParams,
    coeffs: ChainCoefficients,
    scheme: str = "new",
) -> float | np.ndarray:
    """Locus parameter minimising the envelope exponent ``s``.

    A coarse logarithmic grid scan of ``z`` in ``[1e-3, 3]`` locates the
    bracket (guarding against multimodality), then :func:`_narrow` shrinks
    it around the minimum to a width of ``1e-6`` relative to ``z``.

    ``m``, ``tree`` and ``coeffs`` are one design, or a block of designs of
    one tree depth: ``m`` and the fields of ``coeffs`` are then 1-D arrays
    over the block (or scalars it shares) and ``tree`` holds one such array
    of child counts per level.  A block is scored in one grid call and
    narrowed in lockstep; it gives an array of ``z`` that is NaN for each
    design on which a one-design call would raise.  One design is scored as
    a block of one, so its ``z`` has the same bits as inside any block.

    Raises
    ------
    LocusInvalidError
        If ``A B**2 <= 1`` so no locus exists at all (one design).
    NoInteriorMinimumError
        If ``s(z)`` is monotone on the scanned range (minimum at a boundary),
        finite nowhere on the grid, or not finite at the refined minimum
        (one design).
    """
    one = isinstance(tree, BranchingVector)
    if one:
        _require_locus(coeffs)
    design = _columns(m, tree, coeffs)
    z = np.full(len(design[0]), np.nan)
    rows = np.flatnonzero(design[2].ab_squared[:, 0] > 1.0)
    design = _columns(*design, keep=rows)
    grid = np.geomspace(_Z_LO, _Z_HI, _Z_GRID_POINTS)
    values = _locus(grid, *design, scheme)[2]
    best = np.argmin(values, axis=1)
    interior = np.isfinite(values).any(axis=1) & (best > 0) & (best < len(grid) - 1)
    rows, best = rows[interior], best[interior]
    design = _columns(*design, keep=interior)
    z_star = _narrow(lambda x: _locus(x, *design, scheme)[2],
                     grid[best - 1], grid[best + 1], _Z_XTOL * grid[best])
    finite = np.isfinite(_locus(z_star[:, None], *design, scheme)[2][:, 0])
    z[rows] = np.where(finite, z_star, np.nan)
    if not one:
        return z
    if np.isnan(z[0]):
        raise NoInteriorMinimumError(
            f"s(z) has no finite interior minimum on the bracket z in [{_Z_LO:g}, {_Z_HI:g}]"
        )
    return float(z[0])


def repeater_spacing(z_star: float, coeffs: ChainCoefficients, alpha: float) -> float:
    """Optimal node spacing ``L/n = z* ln(A B**2) / alpha``, in km.

    Constant in the total range: on the locus, ``n`` scales linearly
    with ``L``.
    """
    _require_locus(coeffs)
    return z_star * (np.log(coeffs.ab_squared) / alpha)


def numeric_envelope(
    m: int,
    tree: BranchingVector,
    device: DeviceParams,
    l_grid: Sequence[float],
) -> list[EnvelopePoint]:
    """Envelope ``max_n R_n(L)`` over node counts ``n in [1, 10**6]``, for the
    ``"new"`` scheme at ``P_cn = 0.9``.

    One :func:`_narrow` call, with a row per range (per block of 256 ranges on
    a longer grid), maximises the rate over real-valued ``n`` on
    ``u = ln n in [0, ln 10**6]`` to a bracket width of ``2e-8`` (the curves
    are empirically unimodal in ``n``, and a run of zero rates at small ``n``
    does not stop it); the rows narrow in lockstep, and each gives the bits of
    a one-range call.  One read of the rate at each maximiser ``n*`` and at
    the four integers ``floor(n*) - 1 .. floor(n*) + 2`` (clipped to the
    scanned range) then gives both results: the best of those integers is
    reported as ``n_opt``, and the largest of the five rates as the
    envelope.  The continuous maximum is what the analytic construction
    bounds from below — the integer-restricted maximum can dip beneath the
    locus value by the rounding loss.  Warns when ``n_opt`` is the largest
    node count scanned, where the true maximum may lie further out.

    Raises :class:`InvalidConfigurationError`, before any search, for an
    empty grid, a range that is not finite and ``>= 0``, or a grid that is not
    strictly increasing.
    """
    l_values = np.asarray(list(l_grid), dtype=float)
    if l_values.size == 0:
        raise InvalidConfigurationError("range grid must be non-empty")
    bad = l_values[~(np.isfinite(l_values) & (l_values >= 0.0))]
    if bad.size:
        raise InvalidConfigurationError(f"ranges must be finite and >= 0, got {float(bad[0])!r}")
    if np.any(np.diff(l_values) <= 0):
        raise InvalidConfigurationError("range grid must be strictly increasing")
    cfg = ChainConfig(total_range_km=0.0, node_count=1, channels=m, tree=tree)
    n_opts: list[float] = []
    maxima: list[float] = []
    for block in np.split(l_values, range(_ENVELOPE_ROWS, l_values.size, _ENVELOPE_ROWS)):
        l_rows = block[:, None]
        u_star = _narrow(lambda u: -_rates_over_n(cfg, device, np.exp(u), l_rows),
                         np.zeros(block.size), np.full(block.size, math.log(_N_MAX)), 2e-8)
        # math.exp, as a one-range search reads n*: np.exp may differ in the last bit
        n_star = np.array([[math.exp(u)] for u in u_star])
        ns = np.clip(np.floor(n_star) + np.arange(-1.0, 3.0), 1.0, _N_MAX)
        rates = _rates_over_n(cfg, device, np.append(ns, n_star, axis=1), l_rows)
        n_opts += ns[np.arange(block.size), np.argmax(rates[:, :-1], axis=1)].tolist()
        maxima += np.max(rates, axis=1).tolist()
    points: list[EnvelopePoint] = []
    for l_km, n_opt, rate in zip(l_values.tolist(), n_opts, maxima):
        if n_opt == _N_MAX:
            warnings.warn(
                f"envelope maximum at the largest node count scanned, n={_N_MAX}, "
                f"for L={l_km:g} km; the true maximum may lie at a larger n",
                stacklevel=2,
            )
        points.append(EnvelopePoint(l_km=l_km, rate_bits_per_mode=rate, n_opt=int(n_opt)))
    return points


def crossover_distance(points: Sequence[EnvelopePoint], alpha: float) -> float:
    """First range where the envelope meets the repeaterless bound.

    Linearly interpolates between the bracketing grid points of the sign
    change of ``envelope - r_direct``.  Raises :class:`NoCrossoverError`
    when the envelope stays below the bound on the whole grid.
    """
    if not points:
        raise InvalidConfigurationError("need at least one envelope point")
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


def crossover_analytic(env: EnvelopeParams, alpha: float) -> float:
    """Range where ``D * eta**s`` first exceeds ``r_direct``, by root finding.

    Scores the log-ratio on a logarithmic grid for its first sign change and
    narrows that grid cell with :func:`_narrow` to a width of ``1e-6`` km.
    Raises :class:`NoCrossoverError` when the envelope never wins on
    ``[1e-2, 5e4]`` km (e.g. when ``s >= 1``).
    """
    if env.d_coeff <= 0.0 or not math.isfinite(env.s_exp):
        raise NoCrossoverError(
            f"degenerate envelope (D={env.d_coeff:.4g}, s={env.s_exp:.4g}) "
            "never reaches the direct bound"
        )

    def log_ratio(l_km: np.ndarray) -> np.ndarray:
        # ln r_direct tends to -alpha L - ln ln 2 as eta -> 0; the exact form
        # underflows to ln 0 near alpha L ~ 37, so it is only evaluated up to 27
        a_l = alpha * l_km
        exact = np.log(-np.log(-np.expm1(-np.minimum(a_l, 27.0))))
        log_direct = np.where(a_l > 27.0, -a_l, exact) - math.log(math.log(2.0))
        return math.log(env.d_coeff) - env.s_exp * a_l - log_direct

    grid = np.geomspace(_L_LO, _L_HI, 4096)
    above = np.nonzero(log_ratio(grid) >= 0.0)[0]
    if above.size == 0:
        raise NoCrossoverError(
            f"envelope (D={env.d_coeff:.4g}, s={env.s_exp:.4g}) never reaches the "
            f"direct bound on [{_L_LO:g}, {_L_HI:g}] km"
        )
    first = int(above[0])
    if first == 0:
        return float(grid[0])
    root = _narrow(log_ratio, grid[first - 1:first], grid[first:first + 1], 1e-6, root=True)
    return float(root[0])
