"""Graph-state measurement calculus and small statevector identity checks.

The repeater's structural claims — measuring the star root in Y welds the
logical qubits into a clique, X measurements splice a protection tree onto
a cluster node, Z measurements prune spent qubits — are all instances of
the standard graph-state measurement rules built on local complementation.
This module implements those rules on graphs held as plain mappings
``vertex -> frozenset(neighbours)``, each edge stored at both ends (local
Clifford byproducts are deliberately not tracked; the claims verified here
are about edge structure) and backs the outcome-sign bookkeeping the graph
layer drops with dense-statevector checks on plain ``(2,)*q`` complex
arrays of one to three qubits.

The ``check_*`` functions and :func:`verify_reordering_identities` return
:class:`CheckResult` rows; the CLI ``verify`` subcommand prints them as a
pass/fail table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidConfigurationError

__all__ = [
    "CheckResult",
    "local_complement",
    "measure_graph",
    "tree_graph",
    "check_star_clique",
    "check_tree_attachment",
    "verify_reordering_identities",
    "run_structure_checks",
]

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

_Graph = dict[Hashable, frozenset]


def _graph(edges: Iterable[tuple[Hashable, Hashable]], vertices: Iterable = ()) -> _Graph:
    """Graph on ``vertices`` and the endpoints of ``edges``, each edge stored both ways."""
    g: dict[Hashable, set] = {v: set() for v in vertices}
    for a, b in edges:
        g.setdefault(a, set()).add(b)
        g.setdefault(b, set()).add(a)
    return {v: frozenset(n) for v, n in g.items()}


def _delete(g: _Graph, v: Hashable) -> _Graph:
    """``g`` without vertex ``v`` and its edges."""
    return {u: n - {v} for u, n in g.items() if u != v}


def local_complement(g: _Graph, v: Hashable) -> _Graph:
    """Toggle all edges among the neighbors of ``v``; everything else unchanged.

    Returns a new graph; ``g`` is not modified.
    """
    if v not in g:
        raise InvalidConfigurationError(f"vertex {v!r} not in graph")
    return {u: n ^ (g[v] - {u}) if u in g[v] else n for u, n in g.items()}


def measure_graph(
    g: _Graph,
    v: Hashable,
    basis: str,
    special_neighbor: Hashable | None = None,
) -> _Graph:
    """Graph left after a Pauli measurement of vertex ``v``.

    * ``Z``: delete ``v``.
    * ``Y``: local complement at ``v``, then delete ``v``.
    * ``X``: local complement at a designated neighbor ``w``, then the
      ``Y`` rule at ``v``, then local complement at ``w`` again.  The
      default ``w`` is the lowest-labelled neighbor; pass
      ``special_neighbor`` to override.  An isolated vertex degenerates to
      the ``Z`` rule.

    The result is the post-measurement graph up to local Clifford
    corrections, which are not tracked; ``g`` is not modified.
    """
    if v not in g:
        raise InvalidConfigurationError(f"vertex {v!r} not in graph")
    basis = basis.upper()
    if basis not in ("X", "Y", "Z"):
        raise InvalidConfigurationError(f"basis must be one of 'X', 'Y', 'Z', got {basis!r}")
    if basis == "Z" or not g[v]:
        return _delete(g, v)
    if basis == "Y":
        return _delete(local_complement(g, v), v)
    if special_neighbor is None:
        special_neighbor = min(g[v])
    elif special_neighbor not in g[v]:
        raise InvalidConfigurationError(
            f"special neighbor {special_neighbor!r} is not adjacent to {v!r}"
        )
    out = local_complement(local_complement(g, special_neighbor), v)
    return local_complement(_delete(out, v), special_neighbor)


def tree_graph(branches: Sequence[int]) -> _Graph:
    """Balanced tree with ``branches[d]`` children per depth-``d`` vertex.

    Vertices are labelled ``0`` (the root) upward in breadth-first order.
    """
    if any(b < 1 for b in branches):
        raise InvalidConfigurationError("branch counts must be >= 1")
    edges: list[tuple[int, int]] = []
    frontier = range(1)  # the root
    for b in branches:
        children = range(frontier.stop, frontier.stop + b * len(frontier))
        edges.extend((frontier[i // b], c) for i, c in enumerate(children))
        frontier = children
    return _graph(edges, vertices=(0,))


def check_star_clique(max_leaves: int = 10) -> CheckResult:
    """Y measurement of a star's center must leave a clique on the leaves."""
    for leaves in range(2, max_leaves + 1):
        star = _graph((0, leaf) for leaf in range(1, leaves + 1))
        clique = _graph(itertools.combinations(range(1, leaves + 1), 2))
        if measure_graph(star, 0, "Y") != clique:
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
    tree = tree_graph(branches)
    p = len(tree)
    cluster = range(p + 1, p + 1 + cluster_neighbors)
    tree_edges = [(u, w) for u, n in tree.items() for w in n]
    g = _graph([*tree_edges, (p, 0), *((p, c) for c in cluster)])
    after = measure_graph(g, p, "X", special_neighbor=cluster[0])
    after = measure_graph(after, 0, "X", special_neighbor=cluster[0])
    missing = [
        (c, t)
        for c in cluster
        for t in sorted(tree[0])
        if t not in after[c]
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


def _apply(gate: np.ndarray, amps: np.ndarray, q: int) -> np.ndarray:
    """``gate`` applied to qubit ``q`` of amplitudes shaped ``(2,)*n``."""
    moved = np.tensordot(gate, np.moveaxis(amps, q, 0), axes=([1], [0]))
    return np.moveaxis(moved, 0, q)


def _measure(amps: np.ndarray, q: int, basis: str) -> list[tuple[int, float, np.ndarray | None]]:
    """Both branches of a projective ``basis`` measurement of qubit ``q``.

    Returns ``[(outcome, probability, post_amplitudes), ...]`` for outcomes
    0 and 1 (the +1/-1 eigenstates of the basis operator).
    ``post_amplitudes`` has the measured axis removed — for a one-qubit
    state it is a length-1 array holding the branch phase — and is ``None``
    on (numerically) zero-probability branches.
    """
    branches: list[tuple[int, float, np.ndarray | None]] = []
    for outcome, ket in enumerate(_BASIS_KETS[basis]):
        post = np.tensordot(ket.conj(), amps, axes=([0], [q]))
        if post.ndim == 0:
            post = post[None]
        prob = float(np.vdot(post, post).real)
        if prob < 1e-28:
            branches.append((outcome, 0.0, None))
        else:
            branches.append((outcome, prob, post / math.sqrt(prob)))
    return branches


def _same_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two normalised amplitude arrays agree up to a global phase."""
    overlap = abs(np.vdot(a, b))
    return abs(overlap - 1.0) <= _PHASE_TOL


def _branches_match(
    got: list[tuple[int, float, np.ndarray | None]],
    want: list[tuple[int, float, np.ndarray | None]],
    flip: bool,
) -> bool:
    """Compare branch lists, matching outcome ``o`` of ``got`` to ``o XOR flip``."""
    for outcome, prob, post in got:
        ref_outcome = outcome ^ 1 if flip else outcome
        _, ref_prob, ref_post = want[ref_outcome]
        if abs(prob - ref_prob) > _PHASE_TOL:
            return False
        if post is None or ref_post is None:
            if (post is None) != (ref_post is None):
                return False
            continue
        if not _same_up_to_phase(post, ref_post):
            return False
    return True


_Z = np.diag([1.0, -1.0]).astype(complex)
_H = _BASIS_KETS["X"]  # the Hadamard's rows are the X eigenkets

# (name, gate on the measured qubit, ((basis after the gate, basis without it,
# outcome flipped), ...)): an identity holds when each pair gives the same branches
_IDENTITIES = (
    ("conditional Z past M_X/M_Y flips outcome", _Z, (("X", "X", True), ("Y", "Y", True))),
    ("Z before M_Z is absorbed", _Z, (("Z", "Z", False),)),
    ("H exchanges M_X/M_Z and flips M_Y", _H,
     (("X", "Z", False), ("Z", "X", False), ("Y", "Y", True))),
)


def _identity_inputs(seed: int = 7, samples: int = 100) -> Iterator[np.ndarray]:
    """Computational basis states on 1-3 qubits, then seeded random 2-qubit
    states (complex normal amplitudes, normalised), made lazily."""
    if seed < 0 or samples < 0:
        raise InvalidConfigurationError(
            f"seed and samples must be >= 0, got seed={seed}, samples={samples}"
        )
    basis = (
        np.eye(2**qubits, dtype=complex)[index].reshape((2,) * qubits)
        for qubits in (1, 2, 3)
        for index in range(2**qubits)
    )
    rng = np.random.default_rng(seed)

    def random_state() -> np.ndarray:
        amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return amps / np.linalg.norm(amps)

    return itertools.chain(basis, (random_state() for _ in range(samples)))


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
    passed = [True] * len(_IDENTITIES)
    for count, amps in enumerate(_identity_inputs(seed=seed, samples=samples), 1):
        for q in range(amps.ndim):
            plain = {basis: _measure(amps, q, basis) for basis in "XYZ"}
            for row, (_, gate, pairs) in enumerate(_IDENTITIES):
                gated = _apply(gate, amps, q)
                passed[row] &= all(_branches_match(_measure(gated, q, after), plain[before], flip)
                                   for after, before, flip in pairs)
    detail = f"{count} states, every qubit, tolerance {_PHASE_TOL:g}"
    return [CheckResult(name, ok, detail) for (name, _, _), ok in zip(_IDENTITIES, passed)]


def run_structure_checks(seed: int = 7, samples: int = 100) -> list[CheckResult]:
    """All graph-rule and statevector checks, as printable report rows."""
    results = [check_star_clique(), check_tree_attachment()]
    results.extend(verify_reordering_identities(seed=seed, samples=samples))
    return results
