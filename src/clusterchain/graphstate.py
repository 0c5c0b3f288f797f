"""Graph-state measurement calculus and small statevector identity checks.

The repeater's structural claims — measuring the star root in Y welds the
logical qubits into a clique, X measurements splice a protection tree onto
a cluster node, Z measurements prune spent qubits — are all instances of
the standard graph-state measurement rules built on local complementation.
This module implements those rules on plain ``networkx`` graphs (local
Clifford byproducts are deliberately not tracked; the claims verified here
are about edge structure) and backs the outcome-sign bookkeeping the graph
layer drops with a dense-statevector checker, :class:`SmallState`, capped
at 12 qubits.

The ``check_*`` functions and :func:`verify_reordering_identities` return
:class:`CheckResult` rows; the CLI ``verify`` subcommand prints them as a
pass/fail table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from .errors import InvalidConfigurationError

__all__ = [
    "CheckResult",
    "local_complement",
    "measure_graph",
    "tree_graph",
    "check_star_clique",
    "check_tree_attachment",
    "SmallState",
    "verify_reordering_identities",
    "run_structure_checks",
]

_MAX_QUBITS = 12
_PHASE_TOL = 1e-12

# single-qubit measurement bases: rows are the outcome-0 / outcome-1 eigenkets
_BASIS_KETS = {
    "Z": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "Y": np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / math.sqrt(2.0),
}


@dataclass(frozen=True)
class CheckResult:
    """One row of a verification report."""

    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# graph layer
# ---------------------------------------------------------------------------


def local_complement(g: nx.Graph, v: Hashable) -> nx.Graph:
    """Toggle all edges among the neighbors of ``v``; everything else unchanged.

    Returns a new graph; ``g`` is not modified.
    """
    if v not in g:
        raise InvalidConfigurationError(f"vertex {v!r} not in graph")
    out = g.copy()
    neighbors = list(g.neighbors(v))
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1 :]:
            if out.has_edge(a, b):
                out.remove_edge(a, b)
            else:
                out.add_edge(a, b)
    return out


def measure_graph(
    g: nx.Graph,
    v: Hashable,
    basis: str,
    special_neighbor: Hashable | None = None,
) -> nx.Graph:
    """Graph left after a Pauli measurement of vertex ``v``.

    * ``Z``: delete ``v``.
    * ``Y``: local complement at ``v``, then delete ``v``.
    * ``X``: local complement at a designated neighbor ``w``, then the
      ``Y`` rule at ``v``, then local complement at ``w`` again.  The
      default ``w`` is the lowest-labelled neighbor; pass
      ``special_neighbor`` to override.  An isolated vertex degenerates to
      the ``Z`` rule.

    The result is the post-measurement graph up to local Clifford
    corrections, which are not tracked.
    """
    if v not in g:
        raise InvalidConfigurationError(f"vertex {v!r} not in graph")
    basis = basis.upper()
    if basis == "Z":
        out = g.copy()
        out.remove_node(v)
        return out
    if basis == "Y":
        out = local_complement(g, v)
        out.remove_node(v)
        return out
    if basis != "X":
        raise InvalidConfigurationError(f"basis must be one of 'X', 'Y', 'Z', got {basis!r}")
    neighbors = list(g.neighbors(v))
    if not neighbors:
        out = g.copy()
        out.remove_node(v)
        return out
    if special_neighbor is None:
        special_neighbor = min(neighbors)
    elif special_neighbor not in neighbors:
        raise InvalidConfigurationError(
            f"special neighbor {special_neighbor!r} is not adjacent to {v!r}"
        )
    out = local_complement(g, special_neighbor)
    out = local_complement(out, v)
    out.remove_node(v)
    return local_complement(out, special_neighbor)


def tree_graph(branches: Sequence[int], root: Hashable = 0) -> nx.Graph:
    """Balanced tree with ``branches[d]`` children per depth-``d`` vertex.

    Vertices are labelled ``root`` (must be an int) upward in breadth-first
    order.
    """
    if any(b < 1 for b in branches):
        raise InvalidConfigurationError("branch counts must be >= 1")
    g = nx.Graph()
    g.add_node(root)
    frontier = [root]
    next_label = root + 1
    for b in branches:
        new_frontier = []
        for parent in frontier:
            for _ in range(b):
                g.add_edge(parent, next_label)
                new_frontier.append(next_label)
                next_label += 1
        frontier = new_frontier
    return g


def check_star_clique(max_leaves: int = 10) -> CheckResult:
    """Y measurement of a star's center must leave a clique on the leaves."""
    for leaves in range(2, max_leaves + 1):
        star = nx.star_graph(leaves)  # center 0, leaves 1..leaves
        after = measure_graph(star, 0, "Y")
        want = leaves * (leaves - 1) // 2
        if after.number_of_edges() != want or not all(
            after.has_edge(a, b)
            for a in range(1, leaves + 1)
            for b in range(a + 1, leaves + 1)
        ):
            return CheckResult(
                "star -> clique under Y",
                False,
                f"star with {leaves} leaves did not close into K_{leaves}",
            )
    return CheckResult(
        "star -> clique under Y", True, f"star sizes 3..{max_leaves + 1} vertices"
    )


def check_tree_attachment(
    branches: Sequence[int] = (3, 2, 2), cluster_neighbors: int = 2
) -> CheckResult:
    """X-splice of a protection tree onto a cluster vertex.

    Builds a tree with the given branching vector, joins its root ``r`` by
    an edge to a cluster vertex ``p`` that has ``cluster_neighbors`` other
    neighbors, measures X at ``p`` and then X at ``r``, and asserts the
    spliced pattern: every former neighbor of ``r`` ends up adjacent to
    every former neighbor of ``p``.

    The pattern is a statement up to local Cliffords, so it is only literal
    in the right correction frame: both X measurements use the same
    retained cluster vertex as the special neighbor, pushing all byproducts
    onto the cluster side.
    """
    if cluster_neighbors < 1:
        raise InvalidConfigurationError("the cluster vertex needs at least one other neighbor")
    g = tree_graph(branches, root=0)
    tree_children = list(g.neighbors(0))
    p = max(g.nodes) + 1
    g.add_edge(p, 0)
    cluster = [p + 1 + i for i in range(cluster_neighbors)]
    for c in cluster:
        g.add_edge(p, c)
    after = measure_graph(g, p, "X", special_neighbor=cluster[0])
    after = measure_graph(after, 0, "X", special_neighbor=cluster[0])
    missing = [
        (c, t)
        for c in cluster
        for t in tree_children
        if not after.has_edge(c, t)
    ]
    if missing:
        return CheckResult(
            "tree attachment via X,X",
            False,
            f"missing spliced edges {missing[:4]}{'...' if len(missing) > 4 else ''}",
        )
    return CheckResult(
        "tree attachment via X,X",
        True,
        f"{{{','.join(str(b) for b in branches)}}} tree onto a degree-"
        f"{cluster_neighbors + 1} vertex",
    )


# ---------------------------------------------------------------------------
# statevector layer
# ---------------------------------------------------------------------------


class SmallState:
    """Dense statevector on at most 12 qubits, stored with shape ``(2,)*q``.

    Supports just enough — single-qubit H and Z, and projective X/Y/Z
    measurement returning both outcome branches — to verify measurement
    reordering identities exactly.
    """

    def __init__(self, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        q = amplitudes.ndim
        if q < 1 or q > _MAX_QUBITS or amplitudes.shape != (2,) * q:
            raise InvalidConfigurationError(
                f"amplitudes must have shape (2,)*q with 1 <= q <= {_MAX_QUBITS}, "
                f"got {amplitudes.shape}"
            )
        norm = np.linalg.norm(amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise InvalidConfigurationError(f"state norm {norm!r} differs from 1 beyond 1e-10")
        self._amps = amplitudes

    @property
    def qubits(self) -> int:
        return self._amps.ndim

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @classmethod
    def computational(cls, bits: Iterable[int]) -> "SmallState":
        """Basis state ``|b_0 b_1 ...>``."""
        bits = tuple(bits)
        amps = np.zeros((2,) * len(bits), dtype=complex)
        amps[bits] = 1.0
        return cls(amps)

    @classmethod
    def random(cls, qubits: int, rng: np.random.Generator) -> "SmallState":
        """Haar-ish random state: complex normal amplitudes, normalised."""
        amps = rng.normal(size=(2,) * qubits) + 1j * rng.normal(size=(2,) * qubits)
        return cls(amps / np.linalg.norm(amps))

    def _apply_single(self, gate: np.ndarray, q: int) -> "SmallState":
        moved = np.moveaxis(self._amps, q, 0)
        moved = np.tensordot(gate, moved, axes=([1], [0]))
        return SmallState(np.moveaxis(moved, 0, q))

    def apply_z(self, q: int) -> "SmallState":
        return self._apply_single(np.diag([1.0, -1.0]).astype(complex), q)

    def apply_h(self, q: int) -> "SmallState":
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
        return self._apply_single(h, q)

    def measure(self, q: int, basis: str) -> list[tuple[int, float, np.ndarray | None]]:
        """Both branches of a projective measurement of qubit ``q``.

        Returns ``[(outcome, probability, post_amplitudes), ...]`` for
        outcomes 0 and 1 (the +1/-1 eigenstates of the basis operator).
        ``post_amplitudes`` has the measured axis removed — for a one-qubit
        state it is a length-1 array holding the branch phase — and is
        ``None`` on (numerically) zero-probability branches.
        """
        basis = basis.upper()
        if basis not in _BASIS_KETS:
            raise InvalidConfigurationError(f"basis must be one of 'X', 'Y', 'Z', got {basis!r}")
        if not 0 <= q < self.qubits:
            raise InvalidConfigurationError(f"qubit {q} out of range for {self.qubits} qubits")
        branches: list[tuple[int, float, np.ndarray | None]] = []
        for outcome, ket in enumerate(_BASIS_KETS[basis]):
            post = np.tensordot(ket.conj(), self._amps, axes=([0], [q]))
            if post.ndim == 0:
                post = post[None]
            prob = float(np.vdot(post, post).real)
            if prob < 1e-28:
                branches.append((outcome, 0.0, None))
            else:
                branches.append((outcome, prob, post / math.sqrt(prob)))
        return branches


def _same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = _PHASE_TOL) -> bool:
    """Whether two normalised amplitude arrays agree up to a global phase."""
    overlap = abs(np.vdot(a, b))
    return abs(overlap - 1.0) <= tol


def _branches_match(
    got: list[tuple[int, float, np.ndarray | None]],
    want: list[tuple[int, float, np.ndarray | None]],
    flip: bool,
    tol: float = _PHASE_TOL,
) -> bool:
    """Compare branch lists, matching outcome ``o`` of ``got`` to ``o XOR flip``."""
    for outcome, prob, post in got:
        ref_outcome = outcome ^ 1 if flip else outcome
        _, ref_prob, ref_post = want[ref_outcome]
        if abs(prob - ref_prob) > tol:
            return False
        if post is None or ref_post is None:
            if (post is None) != (ref_post is None):
                return False
            continue
        if not _same_up_to_phase(post, ref_post, tol):
            return False
    return True


def _identity_inputs(seed: int = 7, samples: int = 100) -> list[SmallState]:
    """Computational basis states on 1-3 qubits plus seeded random 2-qubit states."""
    if seed < 0 or samples < 0:
        raise InvalidConfigurationError(
            f"seed and samples must be >= 0, got seed={seed}, samples={samples}"
        )
    states = []
    for qubits in (1, 2, 3):
        for index in range(2**qubits):
            bits = [(index >> (qubits - 1 - j)) & 1 for j in range(qubits)]
            states.append(SmallState.computational(bits))
    rng = np.random.default_rng(seed)
    states.extend(SmallState.random(2, rng) for _ in range(samples))
    return states


def verify_reordering_identities(seed: int = 7, samples: int = 100) -> list[CheckResult]:
    """Check the measurement reordering identities on a battery of states.

    * conditional Z commuted past an X or Y measurement flips the outcome;
    * Z before a Z measurement changes nothing observable;
    * H exchanges the X and Z measurement bases and flips a Y measurement.

    Each identity is checked on every input state and qubit, comparing
    outcome probabilities and post-measurement states (up to global phase)
    at ``1e-12``.  Returns one pass/fail row per identity; never raises on
    a failed identity.
    """
    inputs = _identity_inputs(seed=seed, samples=samples)
    z_flip_ok = True
    z_absorb_ok = True
    h_exchange_ok = True
    for state in inputs:
        for q in range(state.qubits):
            flipped = state.apply_z(q)
            for basis in ("X", "Y"):
                if not _branches_match(
                    flipped.measure(q, basis), state.measure(q, basis), flip=True
                ):
                    z_flip_ok = False
            if not _branches_match(
                flipped.measure(q, "Z"), state.measure(q, "Z"), flip=False
            ):
                z_absorb_ok = False
            rotated = state.apply_h(q)
            if not _branches_match(
                rotated.measure(q, "X"), state.measure(q, "Z"), flip=False
            ):
                h_exchange_ok = False
            if not _branches_match(
                rotated.measure(q, "Z"), state.measure(q, "X"), flip=False
            ):
                h_exchange_ok = False
            if not _branches_match(
                rotated.measure(q, "Y"), state.measure(q, "Y"), flip=True
            ):
                h_exchange_ok = False
    detail = f"{len(inputs)} states, every qubit, tolerance {_PHASE_TOL:g}"
    return [
        CheckResult("conditional Z past M_X/M_Y flips outcome", z_flip_ok, detail),
        CheckResult("Z before M_Z is absorbed", z_absorb_ok, detail),
        CheckResult("H exchanges M_X/M_Z and flips M_Y", h_exchange_ok, detail),
    ]


def run_structure_checks(seed: int = 7, samples: int = 100) -> list[CheckResult]:
    """All graph-rule and statevector checks, as printable report rows."""
    results = [check_star_clique(), check_tree_attachment()]
    results.extend(verify_reordering_identities(seed=seed, samples=samples))
    return results
