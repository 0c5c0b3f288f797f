"""Device parameters and the survival/efficiency constants derived from them.

The loss model tracks photons through three channels: propagation in fiber
(coefficient ``alpha``, per km), propagation on chip (coefficient ``beta``,
per m), and imperfect components (coupling and source-detector efficiency
products).  Feed-forward -- holding a photon in a delay line while a heralded
measurement outcome is processed -- costs ``tau_s`` on chip and ``tau_f`` in
fiber; the derived constants convert those dwell times into survival
probabilities.

Two levels of derived quantity live here:

* :class:`DerivedConstants` -- per-step survival probabilities and the GHZ
  factory's heralding efficiency/probability, functions of the device alone.
* :class:`ChainCoefficients` -- the composite coefficients ``A``, ``B``, ``C``
  that the rate model uses; these additionally depend on the channel count
  ``m`` and the number of fusion steps ``k`` of a concrete design.

The design's own shape lives here too: the tree's :class:`BranchingVector`,
the node cluster's photon count and its fusion class ``k``.  Like the rest of
this module they need no numpy, so ``constants`` with a design loads none;
:mod:`clusterchain.treecode` and :mod:`clusterchain.ratemodel` re-export them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import ConfigError, InvalidConfigurationError

__all__ = [
    "DeviceParams",
    "DerivedConstants",
    "ChainCoefficients",
    "derive_constants",
    "chain_coefficients",
    "coefficients_for",
    "BranchingVector",
    "cluster_photons",
    "k_of_design",
    "load_device_params",
]

_UNIT_INTERVAL_FIELDS = ("eta_c", "eta_sd")
_POSITIVE_FIELDS = ("alpha", "beta", "tau_f", "tau_s", "c_f", "c_ch")

SCHEMES = ("new", "naive")  # the repeater schemes; ``ratemodel`` re-exports it


@dataclass(frozen=True)
class DeviceParams:
    """Raw hardware parameters.

    Defaults are the reference device profile used throughout: a loss budget
    chosen so that the on-chip and in-fiber feed-forward survival
    probabilities come out (nearly) equal.

    Attributes
    ----------
    alpha : float
        Fiber loss coefficient (1/km).
    beta : float
        On-chip loss coefficient (1/m).
    tau_f : float
        Feed-forward time spent in fiber (s).
    tau_s : float
        Feed-forward time spent on chip (s).
    eta_c : float
        Chip-to-fiber coupling efficiency, in (0, 1].
    eta_sd : float
        Product of source and detector efficiencies, in (0, 1].  The two
        never enter separately, so only the product is stored.
    c_f : float
        Speed of light in fiber (m/s).
    c_ch : float
        Speed of light on chip (m/s).
    """

    alpha: float = 0.046
    beta: float = 0.62
    tau_f: float = 102.85e-9
    tau_s: float = 20e-12
    eta_c: float = 0.99
    eta_sd: float = 0.99
    c_f: float = 2.0e8
    c_ch: float = 7.6e7

    def __post_init__(self) -> None:
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise InvalidConfigurationError(
                    f"device parameter '{name}' must be finite and > 0, got {value!r}"
                )
        for name in _UNIT_INTERVAL_FIELDS:
            value = getattr(self, name)
            if not (0 < value <= 1):
                raise InvalidConfigurationError(
                    f"device parameter '{name}' must lie in (0, 1], got {value!r}"
                )


@dataclass(frozen=True)
class DerivedConstants:
    """Survival and heralding constants implied by a :class:`DeviceParams`.

    Attributes
    ----------
    p_chip : float
        Survival probability of a photon held on chip for one feed-forward
        step: ``exp(-beta * tau_s * c_ch)``.
    p_fib : float
        Survival probability of a photon held in fiber for one feed-forward
        step: ``exp(-alpha * tau_f * c_f)`` with the dwell distance converted
        from meters to kilometers to match ``alpha``'s units.
    eta_ghz : float
        Survival rate of the photons of a heralded 3-photon GHZ state,
        ``eta_sd / (2 - eta_sd)``.
    p_ghz : float
        Heralding probability of the GHZ factory,
        ``[eta_sd * (2 - eta_sd)]**3 / 32``; at most 1/32 even for ideal
        devices.
    boosted_pair_factor : float
        Success factor of a boosted fusion on a surviving photon pair,
        ``eta_sd**2 / 2 + eta_sd**4 / 4``; reaches the ideal 3/4 only at
        ``eta_sd == 1``.
    """

    p_chip: float
    p_fib: float
    eta_ghz: float
    p_ghz: float
    boosted_pair_factor: float


@dataclass(frozen=True)
class ChainCoefficients:
    """Composite coefficients of the chain success probabilities.

    ``a_coeff`` carries an explicit factor of the channel count ``m`` (so
    ``a_coeff / m`` is design-independent); ``b_coeff`` and ``c_coeff``
    aggregate the per-photon survival through ``k + 2`` on-chip feed-forward
    steps, the GHZ heralding survival, and coupling, with ``b_coeff``
    additionally paying one in-fiber feed-forward step:
    ``b_coeff == c_coeff * p_fib`` exactly.
    """

    a_coeff: float
    b_coeff: float
    c_coeff: float

    @property
    def ab_squared(self) -> float:
        """The product ``A * B**2`` that controls the envelope locus."""
        return self.a_coeff * self.b_coeff**2


def derive_constants(p: DeviceParams) -> DerivedConstants:
    """Compute all device-level derived constants.

    Parameters
    ----------
    p : DeviceParams
        Validated device parameters.

    Returns
    -------
    DerivedConstants

    Notes
    -----
    ``alpha`` is per kilometer while the feed-forward dwell distance
    ``tau_f * c_f`` is in meters; the conversion happens here and nowhere
    else.
    """
    fiber_dwell_km = p.tau_f * p.c_f / 1000.0
    return DerivedConstants(
        p_chip=math.exp(-p.beta * p.tau_s * p.c_ch),
        p_fib=math.exp(-p.alpha * fiber_dwell_km),
        eta_ghz=p.eta_sd / (2.0 - p.eta_sd),
        p_ghz=(p.eta_sd * (2.0 - p.eta_sd)) ** 3 / 32.0,
        boosted_pair_factor=0.5 * p.eta_sd**2 + 0.25 * p.eta_sd**4,
    )


def chain_coefficients(
    d: DerivedConstants,
    p: DeviceParams,
    m: int,
    k: int,
    boosted: bool = True,
) -> ChainCoefficients:
    """Build the ``A``, ``B``, ``C`` coefficients for a design.

    Parameters
    ----------
    d, p
        Derived constants and the device they came from.
    m : int
        Qubit channels per side of a node (``m >= 1``).
    k : int
        Number of fusion steps used to assemble the node cluster
        (``k >= 1``); each step adds one on-chip feed-forward survival
        factor to every photon.
    boosted : bool
        Whether the mid-link Bell measurements use ancilla-boosted fusion
        (success factor ``eta_sd**2/2 + eta_sd**4/4``) or bare fusion
        (``eta_sd**2/2``).  The banked scheme boosts; the naive scheme does
        not spare the ancilla photons.

    Returns
    -------
    ChainCoefficients

    Raises
    ------
    InvalidConfigurationError
        For ``m < 1``, ``k < 1``, or an ``A`` that is not finite because the
        fiber survival ``p_fib**2`` underflows (``alpha * tau_f * c_f / 1000``
        past about 355).
    """
    if m < 1:
        raise InvalidConfigurationError(f"channel count m must be >= 1, got {m}")
    if k < 1:
        raise InvalidConfigurationError(f"fusion step count k must be >= 1, got {k}")
    pair_factor = d.boosted_pair_factor if boosted else 0.5 * p.eta_sd**2
    survival = d.p_chip ** (k + 2) * d.eta_ghz * p.eta_c
    fiber_pair = d.p_fib**2
    a_coeff = m * pair_factor / fiber_pair if fiber_pair > 0.0 else math.inf
    if not math.isfinite(a_coeff):
        raise InvalidConfigurationError(
            f"A = m * pair_factor / p_fib**2 is not finite: p_fib = exp(-alpha * tau_f * c_f / 1000) "
            f"= {d.p_fib:.3g} at alpha = {p.alpha!r}, tau_f = {p.tau_f!r}, c_f = {p.c_f!r}"
        )
    return ChainCoefficients(
        a_coeff=a_coeff,
        b_coeff=survival * d.p_fib,
        c_coeff=survival,
    )


@dataclass(frozen=True)
class BranchingVector:
    """Shape of a loss-protection tree.

    Attributes
    ----------
    branches : tuple of int
        Child counts per depth, ``(b_0, ..., b_d)``; every entry >= 1.
    """

    branches: tuple[int, ...]

    def __init__(self, branches: Iterable[int]) -> None:
        entries = tuple(int(b) for b in branches)
        if not entries:
            raise InvalidConfigurationError("branching vector must have at least one level")
        if any(b < 1 for b in entries):
            raise InvalidConfigurationError(
                f"branching vector entries must be >= 1, got {entries}"
            )
        object.__setattr__(self, "branches", entries)

    @classmethod
    def parse(cls, text: str) -> BranchingVector:
        """Parse a comma-separated list such as ``"7,3"``.

        Raises :class:`ConfigError` for a part that is not an integer and
        :class:`InvalidConfigurationError` for an entry below 1.
        """
        try:
            entries = [int(part) for part in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse branching vector from {text!r}") from exc
        return cls(entries)

    @property
    def depth(self) -> int:
        """Largest depth index ``d`` (one less than the number of levels)."""
        return len(self.branches) - 1

    def __str__(self) -> str:
        return "{" + ",".join(str(b) for b in self.branches) + "}"


def _tree_size(levels):
    """Photon count ``1 + b0 + b0*b1 + ... + b0*...*bd`` of a tree with child
    counts ``levels`` per depth, numbers or per-design columns alike."""
    total, level = 1, 1
    for count in levels:
        level *= count
        total += level
    return total


def cluster_photons(m: int, tree: BranchingVector) -> int:
    """Photon count of one node's cluster: a ``4m+1`` star plus ``2m`` trees."""
    return (4 * m + 1) + 2 * m * _tree_size(tree.branches)


def k_of_design(m: int, tree: BranchingVector) -> int:
    """Fusion steps needed to assemble the node cluster.

    Each fusion roughly doubles the cluster, and a ``k``-step product holds
    ``2**k + 2`` photons, so ``k = ceil(log2(N_cluster - 2))``.
    """
    if m < 1:
        raise InvalidConfigurationError(f"channel count m must be >= 1, got {m}")
    return max(1, math.ceil(math.log2(cluster_photons(m, tree) - 2)))


def coefficients_for(m: int, k: int, device: DeviceParams, scheme: str) -> ChainCoefficients:
    """Chain coefficients of ``m`` channels of class ``k`` under ``scheme``: the
    ``"new"`` scheme's mid-link Bell measurements use boosted fusion."""
    return chain_coefficients(derive_constants(device), device, m, k, boosted=(scheme == "new"))


def load_device_params(source: str | Path | Mapping[str, Any]) -> DeviceParams:
    """Read device parameters from a JSON document.

    The document must be a JSON object whose keys are a subset of the eight
    :class:`DeviceParams` field names.  Missing fields take the reference
    defaults, and every default applied is echoed to stderr so a partial
    configuration is never silently completed.

    Parameters
    ----------
    source
        Path to a JSON file, or an already-parsed mapping.

    Returns
    -------
    DeviceParams

    Raises
    ------
    ConfigError
        If the document is not an object, contains an unknown key, or holds
        a non-numeric value or a number too large for a float.
    InvalidConfigurationError
        If a value is outside its physical domain.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read device file {source!s}: {exc}") from exc
        except ValueError as exc:  # also not UTF-8, or an integer past the digit limit
            raise ConfigError(f"device file {source!s} is not valid JSON: {exc}") from exc
    else:
        doc = dict(source)
    if not isinstance(doc, dict):
        raise ConfigError("device configuration must be a JSON object")

    known = {f.name for f in fields(DeviceParams)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown device parameter '{unknown[0]}'")
    values: dict[str, float] = {}
    for key, raw in doc.items():
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"device parameter '{key}' must be a number, got {raw!r}")
        try:
            values[key] = float(raw)
        except OverflowError as exc:
            raise ConfigError(f"device parameter '{key}' is too large for a float") from exc

    params = replace(DeviceParams(), **values)
    defaults = DeviceParams()
    for f in fields(DeviceParams):
        if f.name not in values:
            print(
                f"device parameter '{f.name}' not given; using default "
                f"{getattr(defaults, f.name):g}",
                file=sys.stderr,
            )
    return params
