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
node-count sweep and the envelope locus are views of it.

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
    ChainCoefficients,
    DeviceParams,
    chain_coefficients,
    derive_constants,
)
from .treecode import BranchingVector, LossRates, p_x_general, p_z_general, tree_size

__all__ = [
    "ChainConfig",
    "RatePoint",
    "SCHEMES",
    "k_of_design",
    "cluster_photons",
    "transmitted_photons",
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

SCHEMES = ("new", "naive")

_LN2 = math.log(2.0)


def cluster_photons(m: int, tree: BranchingVector) -> int:
    """Photon count of one node's cluster: a ``4m+1`` star plus ``2m`` trees."""
    return (4 * m + 1) + 2 * m * tree_size(tree)


def transmitted_photons(m: int, tree: BranchingVector) -> int:
    """Photons a node sends into fiber per clock cycle: ``2m * tree_size``."""
    return 2 * m * tree_size(tree)


def k_of_design(m: int, tree: BranchingVector) -> int:
    """Fusion steps needed to assemble the node cluster.

    Each fusion roughly doubles the cluster, and a ``k``-step product holds
    ``2**k + 2`` photons, so ``k = ceil(log2(N_cluster - 2))``.
    """
    if m < 1:
        raise InvalidConfigurationError(f"channel count m must be >= 1, got {m}")
    return max(1, math.ceil(math.log2(cluster_photons(m, tree) - 2)))


def mode_divisor(m: int, tree: BranchingVector, scheme: str = "new") -> int:
    """Optical modes the rate is normalised by: ``2m`` or all transmitted photons."""
    if scheme == "new":
        return 2 * m
    if scheme == "naive":
        return transmitted_photons(m, tree)
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
    def n_cluster(self) -> int:
        """Photon count of one node's cluster."""
        return cluster_photons(self.channels, self.tree)

    @property
    def divisor(self) -> int:
        """Modes the rate is normalised by under this scheme."""
        return mode_divisor(self.channels, self.tree, self.scheme)


@dataclass(frozen=True)
class RatePoint:
    """A (range, rate) sample of a rate-distance curve."""

    range_km: float
    rate_bits_per_mode: float


def coefficients_for(cfg: ChainConfig, device: DeviceParams) -> ChainCoefficients:
    """Chain coefficients matching a config (boosted fusion iff scheme 'new')."""
    consts = derive_constants(device)
    return chain_coefficients(
        consts, device, cfg.channels, cfg.k, boosted=(cfg.scheme == "new")
    )


def chain_probs(
    eta_link: float | np.ndarray,
    m: int,
    tree: BranchingVector,
    coeffs: ChainCoefficients,
    scheme: str = "new",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chain-factor kernel: ``(P_X, P_Z, P_B, P_end)`` at per-link transmissivity.

    ``eta_link`` (scalar or array) is ``exp(-alpha L / n)`` for a chain and
    ``(A B**2)**(-z)`` on the envelope locus.  ``P_B`` is returned unchecked.
    """
    traveling, stationary = _survivals(eta_link, coeffs, scheme)
    eps_stat = np.clip(1.0 - stationary, 0.0, 1.0)
    p_b = coeffs.ab_squared / m * eta_link
    return p_x_general(tree, eps_stat), p_z_general(tree, eps_stat), p_b, _any_of(traveling, m)


def log_chain_factors(
    p_x: np.ndarray, p_z: np.ndarray, p_b: np.ndarray, p_end: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ln q1, ln q2, ln q3)`` from the kernel outputs, for ``P_B <= 1``.

    ``q1 = P_Z**(2(m-1)) * P_X**2``, ``q2 = 1 - (1 - P_B)**m`` and
    ``q3 = P_end**2``.  A vanishing factor gives ``-inf``, never NaN; ``P_Z``
    does not enter ``q1`` at ``m = 1``.
    """
    with np.errstate(divide="ignore"):
        ln_q1 = 2.0 * np.log(p_x) + (2.0 * (m - 1) * np.log(p_z) if m > 1 else 0.0)
        return ln_q1, np.log(_any_of(p_b, m)), 2.0 * np.log(p_end)


def _survivals(eta_link, coeffs: ChainCoefficients, scheme: str) -> tuple:
    """Survival ``(traveling, stationary)`` of a tree photon (see :func:`loss_rates`)."""
    traveling = np.sqrt(eta_link) * coeffs.c_coeff
    return traveling, (eta_link * coeffs.b_coeff if scheme == "new" else traveling)


def _any_of(p, m: int):
    """``1 - (1 - p)**m`` without cancellation: one of ``m`` tries succeeds."""
    with np.errstate(divide="ignore"):
        return -np.expm1(m * np.log1p(-p))


def _eta_link(cfg: ChainConfig, device: DeviceParams, n) -> np.ndarray:
    return np.exp(-device.alpha * cfg.total_range_km / np.asarray(n, dtype=float))


def _chain_probs(cfg: ChainConfig, device: DeviceParams, coeffs, n) -> tuple:
    """Kernel outputs for ``cfg``'s chain at node count(s) ``n``."""
    coeffs = coeffs if coeffs is not None else coefficients_for(cfg, device)
    return chain_probs(_eta_link(cfg, device, n), cfg.channels, cfg.tree, coeffs, cfg.scheme)


def _checked_bell(p_b):
    if np.any(p_b > 1.0):
        raise InvalidConfigurationError(f"Bell success probability {np.max(p_b):.6g} exceeds 1")
    return p_b


def _log_p_meas(cfg: ChainConfig, device: DeviceParams, coeffs, n) -> np.ndarray:
    """``ln P_meas = n ln q1 + (n-1) ln q2 + ln q3`` at node count(s) ``n``."""
    probs = _chain_probs(cfg, device, coeffs, n)
    _checked_bell(probs[2])
    ln_q1, ln_q2, ln_q3 = log_chain_factors(*probs, cfg.channels)
    with np.errstate(invalid="ignore"):  # one node has no link: no 0 * -inf from q2
        return n * ln_q1 + np.where(n > 1.0, (n - 1.0) * ln_q2, 0.0) + ln_q3


def loss_rates(
    cfg: ChainConfig,
    device: DeviceParams,
    coeffs: ChainCoefficients | None = None,
) -> LossRates:
    """Loss probabilities of traveling and stationary qubits.

    ``eps_trav = 1 - eta**(1/2n) * C`` (half a link of fiber plus on-chip
    steps); ``eps_stat = 1 - eta**(1/n) * B`` for the ``"new"`` scheme (a
    full link's worth of spool time plus an in-fiber feed-forward), while the
    ``"naive"`` scheme measures everything at the midpoints, so both
    populations see ``eps_trav``.
    """
    coeffs = coeffs if coeffs is not None else coefficients_for(cfg, device)
    survivals = _survivals(_eta_link(cfg, device, cfg.node_count), coeffs, cfg.scheme)
    eps_trav, eps_stat = (float(np.clip(1.0 - v, 0.0, 1.0)) for v in survivals)
    return LossRates(eps_trav=eps_trav, eps_stat=eps_stat)


def measurement_probs(
    cfg: ChainConfig,
    device: DeviceParams,
    coeffs: ChainCoefficients | None = None,
) -> tuple[float, float]:
    """``(P_X, P_Z)`` of the tree code at this config's stationary loss rate."""
    p_x, p_z, _, _ = _chain_probs(cfg, device, coeffs, cfg.node_count)
    return float(p_x), float(p_z)


def p_bell(
    cfg: ChainConfig,
    device: DeviceParams,
    coeffs: ChainCoefficients | None = None,
) -> float:
    """Midpoint Bell-measurement success probability ``(A B**2 / m) * eta**(1/n)``."""
    return float(_checked_bell(_chain_probs(cfg, device, coeffs, cfg.node_count)[2]))


def p_end(
    cfg: ChainConfig,
    device: DeviceParams,
    coeffs: ChainCoefficients | None = None,
) -> float:
    """Probability at least one end-station photon is detected.

    ``P_end = 1 - (1 - eta**(1/2n) * C)**m``; increasing in ``m``.
    """
    return float(_chain_probs(cfg, device, coeffs, cfg.node_count)[3])


def log_p_meas(
    cfg: ChainConfig,
    device: DeviceParams,
    coeffs: ChainCoefficients | None = None,
) -> float:
    """Natural log of ``P_meas``; ``-inf`` when any factor vanishes.

    All products are assembled in log space so chains with thousands of
    nodes (where ``P_Z**(2(m-1)n)`` underflows linear arithmetic) evaluate
    exactly as written.
    """
    return float(_log_p_meas(cfg, device, coeffs, cfg.node_count))


def p_meas(
    cfg: ChainConfig,
    device: DeviceParams,
    coeffs: ChainCoefficients | None = None,
) -> float:
    """Probability one clock cycle yields an end-to-end entangled pair."""
    return math.exp(log_p_meas(cfg, device, coeffs))


def rate_n(
    cfg: ChainConfig,
    device: DeviceParams,
    coeffs: ChainCoefficients | None = None,
) -> RatePoint:
    """Secret-key rate of the configured chain, in bits per mode."""
    rate = cfg.p_cn * p_meas(cfg, device, coeffs) / cfg.divisor
    return RatePoint(range_km=cfg.total_range_km, rate_bits_per_mode=rate)


def rates_over_n(
    cfg: ChainConfig,
    device: DeviceParams,
    n_values: np.ndarray,
    coeffs: ChainCoefficients | None = None,
) -> np.ndarray:
    """Vectorised ``rate_n`` over an array of node counts.

    The config's own ``node_count`` is ignored; everything else (range,
    channels, tree, scheme, ``p_cn``) is taken from ``cfg``.  A chain whose
    success probability vanishes has rate 0, never NaN.
    """
    n = np.asarray(n_values, dtype=float)
    if np.any(n < 1):
        raise InvalidConfigurationError("node counts must be >= 1")
    return np.exp(_log_p_meas(cfg, device, coeffs, n) + math.log(cfg.p_cn / cfg.divisor))


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
