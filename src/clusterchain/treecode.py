"""Tree-cluster geometry and counterfactual loss-correction probabilities.

A logical qubit is protected by attaching a tree cluster described by a
branching vector ``{b_0, ..., b_d}``: the root has ``b_0`` children, every
depth-1 vertex has ``b_1`` children, and so on, ending with leaves at depth
``d + 1``.  When each photon of the tree is lost independently with
probability ``eps``, a lost qubit's measurement outcome can still be
recovered *counterfactually* from measurements on the surviving tree
photons.  The success probabilities obey a two-level recursion::

    xi_i = 1 - [1 - (1 - eps) * (1 - eps + eps * xi_{i+2}) ** b_{i+1}] ** b_i

with ``xi`` at depth ``d`` closing the recursion through ``b_{d+1} = 0``
(an empty product counts as 1, so ``xi_d = 1 - eps ** b_d``).  The logical
measurement probabilities are ``P_X = xi_0`` and
``P_Z = (1 - eps + eps * xi_1) ** b_0``.

Besides the recursion this module carries a Monte Carlo oracle that samples
explicit loss configurations and applies the *combinatorial* success rule
(at least one subtree whose root survived and whose children are all
measurable), giving an independent check of the algebra rather than of the
formula's transcription.  It samples through the package's Monte Carlo
engine (:mod:`clusterchain.montecarlo`), one tree photon per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError
from .montecarlo import _uniform_keys, mc_fractions
from .params import BranchingVector, _tree_size

__all__ = [
    "BranchingVector",
    "LossRates",
    "MCMeasurementEstimate",
    "tree_size",
    "xi",
    "p_x_general",
    "p_z_general",
    "p_x_depth2",
    "p_z_depth2",
    "mc_xi",
    "mc_measurement_probs",
]


@dataclass(frozen=True)
class LossRates:
    """Loss probabilities seen by the two photon populations of a chain node.

    Attributes
    ----------
    eps_trav : float
        Loss rate of the traveling (outer) qubits, which cross half an
        elementary link and are detected at the midpoint station.
    eps_stat : float
        Loss rate of the stationary (core) qubits, which additionally wait
        in fiber for the midpoint heralds; always >= ``eps_trav``.
    """

    eps_trav: float
    eps_stat: float

    def __post_init__(self) -> None:
        for name in ("eps_trav", "eps_stat"):
            _check_rate(name, getattr(self, name))


def _check_rate(name: str, value: float) -> None:
    """Refuse a loss rate outside ``[0, 1]``, NaN included."""
    if not 0.0 <= value <= 1.0:
        raise InvalidConfigurationError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class MCMeasurementEstimate:
    """Monte Carlo estimates of the logical measurement probabilities."""

    p_x: float
    p_x_err: float
    p_z: float
    p_z_err: float


def tree_size(b) -> int | np.ndarray:
    """Photon count of the tree: ``1 + b0 + b0*b1 + ... + b0*...*bd``.

    ``b`` may also be per-design branch columns (see :func:`xi`).
    """
    return _tree_size(_levels(b))


def _levels(b) -> tuple:
    """Per-level child counts of ``b``: a vector's entries, or per-design columns."""
    if isinstance(b, BranchingVector):
        return b.branches
    levels = tuple(np.asarray(column) for column in b)
    if not levels or any(np.any(column < 1) for column in levels):
        raise InvalidConfigurationError("branch columns must be non-empty with entries >= 1")
    return levels


def _power(base: np.ndarray, count):
    """``base ** count`` for a branch count or column, the same for every block shape.

    numpy squares exactly where the exponent 2 is one number but calls
    ``pow`` for an exponent array, so rows with ``count == 2`` are squared
    here: a design's value then does not depend on the block it is in.
    """
    if np.ndim(count) == 0:
        return base**count
    return np.where(count == 2, base * base, base**count)


def xi(i: int, b, eps: float | np.ndarray) -> float | np.ndarray:
    """Success probability of an indirect Z measurement at depth ``i``.

    Evaluates the recursion iteratively upward over the levels of ``i``'s
    parity (``xi_j`` reads only ``xi_{j+2}``), so the call depth is constant.
    ``eps`` may be a scalar or an array (elementwise in the loss rate).

    Parameters
    ----------
    i : int
        Depth index, from 0 to the depth of ``b``.
    b : BranchingVector or sequence of arrays
        One tree, or a block of trees of one depth given as one column of
        child counts per level, each broadcasting against ``eps`` (shape
        ``(designs, 1)`` against ``eps`` of shape ``(designs, points)``).
    eps : float or ndarray
        Photon loss probability in [0, 1].

    Returns
    -------
    float or ndarray
        A float when ``eps`` and the branch counts are scalars.
    """
    br = _levels(b)
    depth = len(br) - 1
    if not 0 <= i <= depth:
        raise InvalidConfigurationError(f"depth index {i} out of range for {b}")
    eps_arr = np.asarray(eps, dtype=float)
    value = np.zeros_like(eps_arr)  # xi_{j+2}, zero past the leaves
    for j in range(depth - (depth - i) % 2, i - 1, -2):
        inner = _power(1.0 - eps_arr + eps_arr * value, br[j + 1]) if j < depth else 1.0
        value = 1.0 - _power(1.0 - (1.0 - eps_arr) * inner, br[j])
    return float(value) if np.ndim(value) == 0 else value


def p_x_general(b, eps: float | np.ndarray) -> float | np.ndarray:
    """Logical X success probability ``P_X = xi_0`` for any tree depth (see :func:`xi`)."""
    return xi(0, b, eps)


def p_z_general(b, eps: float | np.ndarray) -> float | np.ndarray:
    """Logical Z success probability ``P_Z = (1 - eps + eps*xi_1) ** b_0`` (see :func:`xi`)."""
    br = _levels(b)
    eps_arr = np.asarray(eps, dtype=float)
    xi_1 = xi(1, b, eps_arr) if len(br) > 1 else np.zeros_like(eps_arr)
    value = _power(1.0 - eps_arr + eps_arr * xi_1, br[0])
    return float(value) if np.ndim(value) == 0 else value


def p_x_depth2(
    b0: int, b1: int, eta_link: float | np.ndarray, b_coeff: float
) -> float | np.ndarray:
    """Depth-2 closed form of ``P_X`` at survival ``eta_link * b_coeff``.

    Equals :func:`p_x_general` on ``{b0, b1}`` with
    ``eps = 1 - eta_link * b_coeff``.
    """
    survival = np.asarray(eta_link, dtype=float) * b_coeff
    value = 1.0 - (1.0 - survival ** (b1 + 1)) ** b0
    return float(value) if np.ndim(eta_link) == 0 else value


def p_z_depth2(
    b0: int, b1: int, eta_link: float | np.ndarray, b_coeff: float
) -> float | np.ndarray:
    """Depth-2 closed form of ``P_Z`` at survival ``eta_link * b_coeff``."""
    survival = np.asarray(eta_link, dtype=float) * b_coeff
    value = (1.0 - (1.0 - survival) ** (b1 + 1)) ** b0
    return float(value) if np.ndim(eta_link) == 0 else value


def _level_widths(b: BranchingVector) -> list[int]:
    """Vertex counts per level, root (width 1) through leaves."""
    widths = [1]
    for count in b.branches:
        widths.append(widths[-1] * count)
    return widths


def _survivals(rng: np.random.Generator, samples: int, width: int, eps: float) -> np.ndarray:
    """One level's survivals, vertex-major ``(width, samples)``, from ``samples * width``
    raw words of ``rng`` drawn sample-major.

    A photon survives when its uniform ``u = (w >> 11) * 2**-53`` is at least
    ``eps``, that is when ``w >> 11`` reaches the key of ``eps``
    (:func:`~clusterchain.montecarlo._uniform_keys`): one shift and one integer
    compare per photon, and no float.  At ``eps = 1`` the key is ``2**53``,
    which no word reaches, so nothing survives.
    """
    words = rng.bit_generator.random_raw(samples * width)
    words >>= np.uint64(11)
    survive = words >= np.uint64(_uniform_keys(eps))
    del words  # before the vertex-major copy
    return np.ascontiguousarray(survive.reshape(samples, width).T)


def _simulate_tree(
    b: BranchingVector, eps: float, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample loss configurations and apply the combinatorial success rule.

    Returns per-sample booleans ``(x_success, z_success)``: whether an
    indirect Z on the root succeeds, and whether every child of the root is
    measurable (survived, or indirectly recoverable).

    The rule evaluated bottom-up: an indirect Z at vertex ``v`` succeeds if
    at least one child ``c`` of ``v`` survived while every child of ``c`` is
    itself measurable.  Each level is drawn sample-major, ``(samples,
    width)``, as raw 64-bit words, each compared with one integer threshold
    that answers as ``u >= eps`` on the word's uniform (:func:`_survivals`),
    and held vertex-major, ``(width, samples)``: row ``v`` is
    vertex ``v`` in every sample, and a parent's children are consecutive
    rows, so each step reduces a ``(parent, child, samples)`` view over
    whole contiguous rows.
    """
    widths = _level_widths(b)
    survive = [_survivals(rng, samples, w, eps) for w in widths]
    measurable = list(survive)  # leaves have no children, so their M = S
    for j in range(b.depth, -1, -1):
        child_ok = survive[j + 1]
        if j < b.depth:
            grand = measurable[j + 2].reshape(widths[j + 1], b.branches[j + 1], samples)
            child_ok = child_ok & np.logical_and.reduce(grand, axis=1)
        indirect = np.logical_or.reduce(child_ok.reshape(widths[j], b.branches[j], samples), axis=1)
        measurable[j] = survive[j] | indirect
    return indirect[0], np.logical_and.reduce(measurable[1], axis=0)


def mc_xi(
    i: int,
    b: BranchingVector,
    eps: float,
    samples: int = 10**6,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``xi_i`` with its standard error.

    This is ``P_X`` of the subtree rooted at a depth-``i`` vertex, i.e. of
    the branching vector ``b[i:]``; deterministic for a given
    ``(seed, samples)``.
    """
    if not 0 <= i <= b.depth:
        raise InvalidConfigurationError(f"depth index {i} out of range for {b}")
    est = mc_measurement_probs(BranchingVector(b.branches[i:]), eps, samples, seed)
    return est.p_x, est.p_x_err


def mc_measurement_probs(
    b: BranchingVector,
    eps: float,
    samples: int = 10**6,
    seed: int = 0,
) -> MCMeasurementEstimate:
    """Monte Carlo estimates of ``P_X`` and ``P_Z`` with standard errors.

    Raises
    ------
    InvalidConfigurationError
        For ``eps`` outside ``[0, 1]`` (NaN included), a sample count below 1
        or a seed outside ``[0, 2**64)``, before any draw.
    """
    _check_rate("eps", eps)

    def draw(size: int, rng: np.random.Generator) -> tuple[int, int]:
        x_hits, z_hits = _simulate_tree(b, eps, size, rng)
        return int(x_hits.sum()), int(z_hits.sum())

    (p_x, p_z), (p_x_err, p_z_err) = mc_fractions(samples, seed, tree_size(b), draw)
    return MCMeasurementEstimate(p_x=p_x, p_x_err=p_x_err, p_z=p_z, p_z_err=p_z_err)
