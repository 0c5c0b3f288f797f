"""Per-clock success probabilities and the key rate of an n-node chain.

A chain of range ``L`` km has ``n`` major nodes spaced ``L/n`` apart, each
emitting ``2m`` tree-encoded qubits (``m`` per side) whose outer photons
meet at midpoint stations for boosted Bell measurements.  The probability
that one clock cycle yields an end-to-end entangled pair factorises as::

    P_meas = P_Z**(2*(m-1)*n) * P_X**(2*n)
             * (1 - (1 - P_B)**m)**(n-1) * P_end**2

and the secret-key rate in bits per mode is ``R = P_cn * P_meas / (2m)``,
with ``P_cn`` the probability that every node's cluster factory fires.

The factors are defined once, in the kernel :func:`chain_probs` (per-link
transmissivity to ``(P_X, P_Z, P_B, P_end)``) and :func:`log_chain_factors`
(``ln P_meas = n ln q1 + (n-1) ln q2 + ln q3``); the scalar functions, the
node-count sweep and the envelope locus are views of it.  Each is the link
half (``P_X, P_Z, P_B`` and ``ln q1, ln q2``, all that the envelope exponent
reads) plus the end half (``P_end`` and ``ln q3``), so the envelope's ``z``
search computes the link half alone.  The scalar views and the sweep take
``(cfg, device)`` and derive the design's coefficients with
:func:`coefficients_for`; an explicit coefficient set enters only through the
kernel :func:`chain_probs`.  The rate is written once, as
``P_cn * exp(ln P_meas) / (2m)`` (or the ``"naive"`` divisor), which
:func:`rate_n`, :func:`rates_over_n` and the CLI's ``rate`` sweep all read.
The scalar views evaluate a one-count sweep, so each has a sweep's bits.

Two measurement conventions are supported via ``ChainConfig.scheme``:

* ``"new"`` -- core photons wait in fiber spools for the midpoint heralds
  before the logical basis choice, so stationary qubits see one extra
  in-fiber feed-forward loss; only the ``2m`` logical qubits count as modes.
* ``"naive"`` -- every photon of the trees travels to the midpoints and is
  measured immediately (no heralded basis choice, no fiber-spool wait, bare
  rather than boosted fusions), so all ``2m * tree_size`` transmitted
  photons count as modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .params import (
    SCHEMES,
    ChainCoefficients,
    DeviceParams,
    cluster_photons,
    coefficients_for,
    k_of_design,
)
from .treecode import BranchingVector, LossRates, p_x_general, p_z_general, tree_size

__all__ = [
    "ChainConfig",
    "RatePoint",
    "SCHEMES",
    "k_of_design",
    "cluster_photons",
    "mode_divisor",
    "coefficients_for",
    "chain_probs",
    "log_chain_factors",
    "loss_rates",
    "measurement_probs",
    "p_bell",
    "p_end",
    "p_meas",
    "log_p_meas",
    "rate_n",
    "rates_over_n",
    "r_direct",
]

_LN2 = math.log(2.0)


def mode_divisor(m: int, tree: BranchingVector, scheme: str = "new") -> int:
    """Optical modes the rate is normalised by: ``2m``, or the ``2m * tree_size`` in fiber."""
    if scheme == "new":
        return 2 * m
    if scheme == "naive":
        return 2 * m * tree_size(tree)
    raise InvalidConfigurationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


@dataclass(frozen=True)
class ChainConfig:
    """One repeater-chain design point.

    Attributes
    ----------
    total_range_km : float
        End-to-end range ``L``.
    node_count : int
        Number of major nodes ``n``.
    channels : int
        Qubit channels per side, ``m``.
    tree : BranchingVector
        Loss-protection tree shape.
    p_cn : float
        Probability that all ``n`` nodes build their clusters in a clock
        cycle; supplied by the factory model or fixed (default 0.9).
    scheme : str
        Measurement convention, ``"new"`` or ``"naive"`` (see module notes).
    """

    total_range_km: float
    node_count: int
    channels: int
    tree: BranchingVector
    p_cn: float = 0.9
    scheme: str = "new"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_range_km) and self.total_range_km >= 0):
            raise InvalidConfigurationError(
                f"total_range_km must be finite and >= 0, got {self.total_range_km!r}"
            )
        if self.node_count < 1:
            raise InvalidConfigurationError(
                f"node_count must be >= 1, got {self.node_count!r}"
            )
        if self.channels < 1:
            raise InvalidConfigurationError(
                f"channels must be >= 1, got {self.channels!r}"
            )
        if not 0 < self.p_cn <= 1:
            raise InvalidConfigurationError(f"p_cn must lie in (0, 1], got {self.p_cn!r}")
        if self.scheme not in SCHEMES:
            raise InvalidConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )

    @property
    def k(self) -> int:
        """Fusion-step count implied by ``(m, tree)``."""
        return k_of_design(self.channels, self.tree)

    @property
    def divisor(self) -> int:
        """Modes the rate is normalised by under this scheme."""
        return mode_divisor(self.channels, self.tree, self.scheme)


@dataclass(frozen=True)
class RatePoint:
    """A (range, rate) sample of a rate-distance curve."""

    range_km: float
    rate_bits_per_mode: float


def chain_probs(
    eta_link: float | np.ndarray,
    m: int | np.ndarray,
    tree,
    coeffs: ChainCoefficients,
    scheme: str = "new",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chain-factor kernel: ``(P_X, P_Z, P_B, P_end)`` at per-link transmissivity.

    ``eta_link`` (scalar or array) is ``exp(-alpha L / n)`` for a chain and
    ``(A B**2)**(-z)`` on the envelope locus.  ``P_B`` is returned unchecked.
    For a block of designs of one tree depth, ``m``, the branch columns of
    ``tree`` (see :func:`clusterchain.treecode.xi`) and the fields of
    ``coeffs`` are per-design columns that broadcast against ``eta_link``.
    """
    traveling = _traveling(eta_link, coeffs)
    return (*_link_probs(eta_link, m, tree, coeffs, scheme, traveling), _any_of(traveling, m))


def _link_probs(eta_link, m, tree, coeffs: ChainCoefficients, scheme: str, traveling=None) -> tuple:
    """``(P_X, P_Z, P_B)``: the kernel outputs that ``q1`` and ``q2`` read.

    The envelope exponent ``s`` reads nothing else, so its search skips
    ``P_end``.  ``traveling`` is the traveling-photon survival, where the
    caller has it.
    """
    if scheme not in SCHEMES:
        raise InvalidConfigurationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    eps_stat = np.clip(1.0 - _stationary(eta_link, coeffs, scheme, traveling), 0.0, 1.0)
    p_b = coeffs.ab_squared / m * eta_link
    return p_x_general(tree, eps_stat), p_z_general(tree, eps_stat), p_b


def log_chain_factors(
    p_x: np.ndarray, p_z: np.ndarray, p_b: np.ndarray, p_end: np.ndarray, m: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ln q1, ln q2, ln q3)`` from the kernel outputs, for ``P_B <= 1``.

    ``q1 = P_Z**(2(m-1)) * P_X**2``, ``q2 = 1 - (1 - P_B)**m`` and
    ``q3 = P_end**2``.  A vanishing factor gives ``-inf``, never NaN; ``P_Z``
    does not enter ``q1`` at ``m = 1``.  ``m`` may be a per-design column.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return (*_log_link_factors(p_x, p_z, p_b, m), 2.0 * np.log(p_end))


def _log_link_factors(p_x, p_z, p_b, m) -> tuple:
    """``(ln q1, ln q2)`` of :func:`log_chain_factors`, from :func:`_link_probs`'s outputs."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * ln 0 at m = 1 is not taken
        ln_q1 = 2.0 * np.log(p_x) + np.where(m > 1, 2.0 * (m - 1) * np.log(p_z), 0.0)
        return ln_q1, np.log(_any_of(p_b, m))


def _traveling(eta_link, coeffs: ChainCoefficients):
    """Survival of a traveling tree photon (see :func:`loss_rates`)."""
    return np.sqrt(eta_link) * coeffs.c_coeff


def _stationary(eta_link, coeffs: ChainCoefficients, scheme: str, traveling=None):
    """Survival of a stationary tree photon, a traveling one under ``"naive"``."""
    if scheme == "new":
        return eta_link * coeffs.b_coeff
    return _traveling(eta_link, coeffs) if traveling is None else traveling


def _any_of(p, m: int):
    """``1 - (1 - p)**m`` without cancellation: one of ``m`` tries succeeds."""
    with np.errstate(divide="ignore"):
        return -np.expm1(m * np.log1p(-p))


def _eta_link(l_km, device: DeviceParams, n) -> np.ndarray:
    return np.exp(-device.alpha * l_km / np.asarray(n, dtype=float))


def _chain_probs(cfg: ChainConfig, device: DeviceParams, n, l_km=None) -> tuple:
    """Kernel outputs for ``cfg``'s chain, with the design's coefficients, at
    node count(s) ``n`` and range(s) ``l_km`` in place of its own where given."""
    coeffs = coefficients_for(cfg.channels, cfg.k, device, cfg.scheme)
    l_km = cfg.total_range_km if l_km is None else l_km
    return chain_probs(_eta_link(l_km, device, n), cfg.channels, cfg.tree, coeffs, cfg.scheme)


def _log_p_meas(cfg: ChainConfig, device: DeviceParams, n, l_km=None) -> np.ndarray:
    """``ln P_meas = n ln q1 + (n-1) ln q2 + ln q3`` at node count(s) ``n``, range(s) ``l_km``."""
    ln_q1, ln_q2, ln_q3 = log_chain_factors(*_chain_probs(cfg, device, n, l_km), cfg.channels)
    with np.errstate(invalid="ignore"):  # one node has no link: no 0 * -inf from q2
        return n * ln_q1 + np.where(n > 1.0, (n - 1.0) * ln_q2, 0.0) + ln_q3


def _own_count(cfg: ChainConfig) -> np.ndarray:
    """``cfg``'s node count as a one-count sweep: a numpy scalar's ``**`` and ``math.exp``
    (libm) may differ from numpy's vector loops in the last bit, which the tree
    recursion amplifies where ``P_X`` or ``P_Z`` is small."""
    return np.array([float(cfg.node_count)])


def loss_rates(cfg: ChainConfig, device: DeviceParams) -> LossRates:
    """Loss probabilities of traveling and stationary qubits.

    ``eps_trav = 1 - eta**(1/2n) * C`` (half a link of fiber plus on-chip
    steps); ``eps_stat = 1 - eta**(1/n) * B`` for the ``"new"`` scheme (a
    full link's worth of spool time plus an in-fiber feed-forward), while the
    ``"naive"`` scheme measures everything at the midpoints, so both
    populations see ``eps_trav``.
    """
    coeffs = coefficients_for(cfg.channels, cfg.k, device, cfg.scheme)
    eta_link = _eta_link(cfg.total_range_km, device, _own_count(cfg))
    traveling = _traveling(eta_link, coeffs)
    survivals = (traveling, _stationary(eta_link, coeffs, cfg.scheme, traveling))
    eps_trav, eps_stat = (float(np.clip(1.0 - v[0], 0.0, 1.0)) for v in survivals)
    return LossRates(eps_trav=eps_trav, eps_stat=eps_stat)


def measurement_probs(cfg: ChainConfig, device: DeviceParams) -> tuple[float, float]:
    """``(P_X, P_Z)`` of the tree code at this config's stationary loss rate."""
    p_x, p_z, _, _ = _chain_probs(cfg, device, _own_count(cfg))
    return float(p_x[0]), float(p_z[0])


def p_bell(cfg: ChainConfig, device: DeviceParams) -> float:
    """Midpoint Bell-measurement success probability ``(A B**2 / m) * eta**(1/n)``.

    Derived coefficients give ``A B**2 / m = pair_factor * C**2 <= 3/4``; nothing raises.
    """
    return float(_chain_probs(cfg, device, _own_count(cfg))[2][0])


def p_end(cfg: ChainConfig, device: DeviceParams) -> float:
    """Probability at least one end-station photon is detected.

    ``P_end = 1 - (1 - eta**(1/2n) * C)**m``; increasing in ``m``.
    """
    return float(_chain_probs(cfg, device, _own_count(cfg))[3][0])


def log_p_meas(cfg: ChainConfig, device: DeviceParams) -> float:
    """Natural log of ``P_meas``; ``-inf`` when any factor vanishes.

    All products are assembled in log space so chains with thousands of
    nodes (where ``P_Z**(2(m-1)n)`` underflows linear arithmetic) evaluate
    exactly as written.
    """
    return float(_log_p_meas(cfg, device, _own_count(cfg))[0])


def p_meas(cfg: ChainConfig, device: DeviceParams) -> float:
    """Probability one clock cycle yields an end-to-end entangled pair."""
    return float(np.exp(log_p_meas(cfg, device)))  # numpy's exp, as the sweeps


def rate_n(cfg: ChainConfig, device: DeviceParams) -> RatePoint:
    """Secret-key rate of the configured chain, in bits per mode: ``P_cn * p_meas / divisor``."""
    rate = float(_rates_over_n(cfg, device, _own_count(cfg))[0])
    return RatePoint(range_km=cfg.total_range_km, rate_bits_per_mode=rate)


def rates_over_n(cfg: ChainConfig, device: DeviceParams, n_values: np.ndarray) -> np.ndarray:
    """Vectorised ``rate_n`` over an array of node counts.

    The config's own ``node_count`` is ignored; everything else (range,
    channels, tree, scheme, ``p_cn``) is taken from ``cfg``.  A chain whose
    success probability vanishes has rate 0, never NaN.
    """
    return _rates_over_n(cfg, device, n_values)


def _rates_over_n(cfg: ChainConfig, device: DeviceParams, n_values, l_km=None) -> np.ndarray:
    """:func:`rates_over_n`, at range(s) ``l_km`` in place of ``cfg``'s where given.

    The one rate formula, ``R = P_cn * exp(ln P_meas) / divisor``.  Node
    counts and ranges broadcast, and each rate has the bits of a one-point
    sweep at its count and range.
    """
    n = np.asarray(n_values, dtype=float)
    if np.any(n < 1):
        raise InvalidConfigurationError("node counts must be >= 1")
    return cfg.p_cn * np.exp(_log_p_meas(cfg, device, n, l_km)) / cfg.divisor


def r_direct(l_km: float, alpha: float) -> float:
    """Repeaterless ceiling ``-log2(1 - eta)`` with ``eta = exp(-alpha * L)``.

    Strictly decreasing in ``L``; diverges (returns ``inf``) at ``L == 0``.
    For small ``eta`` this approaches ``eta / ln 2 ~= 1.44 eta``.
    """
    if l_km < 0:
        raise InvalidConfigurationError(f"range must be >= 0, got {l_km!r}")
    eta = math.exp(-alpha * l_km)
    if eta >= 1.0:
        return math.inf
    return -math.log1p(-eta) / _LN2
