"""Graph measurement rules and statevector reordering identities."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchain.errors import InvalidConfigurationError
from clusterchain.graphstate import (
    _BASIS_KETS,
    _H,
    _Z,
    _apply,
    _identity_inputs,
    _measure,
    check_star_clique,
    check_tree_attachment,
    local_complement,
    measure_graph,
    run_structure_checks,
    tree_graph,
    verify_reordering_identities,
)


def graph(edge_list, vertices=()) -> dict:
    """Neighbour-set mapping on ``vertices`` and the endpoints of ``edge_list``."""
    g = {v: set() for v in vertices}
    for a, b in edge_list:
        g.setdefault(a, set()).add(b)
        g.setdefault(b, set()).add(a)
    return {v: frozenset(n) for v, n in g.items()}


def star(leaves: int) -> dict:
    return graph((0, leaf) for leaf in range(1, leaves + 1))  # center 0


def path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> list[tuple[int, int]]:
    return path(n) + [(n - 1, 0)]


def edges(g: dict) -> set[tuple[int, int]]:
    return {tuple(sorted((u, w))) for u, n in g.items() for w in n}


@st.composite
def graph_and_vertex(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = graph([e for e, k in zip(pairs, keep) if k], vertices=range(n))
    return g, draw(st.integers(0, n - 1))


def adjacency(g: dict) -> np.ndarray:
    a = np.zeros((len(g), len(g)), dtype=np.uint8)
    for u, n in g.items():
        a[u, list(n)] = 1
    return a


class TestLocalComplement:
    def test_star_closes_into_clique(self):
        out = local_complement(star(3), 0)
        assert edges(out) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_involution(self):
        g = graph(cycle(5) + [(0, 2)])
        twice = local_complement(local_complement(g, 0), 0)
        assert edges(twice) == edges(g)

    def test_triangle_opens_to_path(self):
        g = graph(itertools.combinations(range(3), 2))
        out = local_complement(g, 0)
        assert edges(out) == {(0, 1), (0, 2)}

    def test_original_untouched(self):
        g = star(2)
        before = edges(g)
        local_complement(g, 0)
        assert edges(g) == before

    def test_unknown_vertex(self):
        with pytest.raises(InvalidConfigurationError):
            local_complement(graph(path(3)), 99)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(case=graph_and_vertex())
    def test_matches_gf2_rule(self, case):
        # A' = A + a_v a_v^T over GF(2) with the diagonal cleared, where a_v
        # is column v of the adjacency matrix; a second application undoes it
        g, v = case
        a = adjacency(g)
        want = (a + np.outer(a[:, v], a[:, v])) % 2
        np.fill_diagonal(want, 0)
        out = local_complement(g, v)
        np.testing.assert_array_equal(adjacency(out), want)
        assert local_complement(out, v) == g


class TestMeasureGraph:
    def test_z_deletes(self):
        g = graph(path(4))  # 0-1-2-3
        out = measure_graph(g, 1, "Z")
        assert set(out) == {0, 2, 3}
        assert edges(out) == {(2, 3)}

    def test_y_on_star_center(self):
        out = measure_graph(star(3), 0, "Y")
        assert edges(out) == {(1, 2), (1, 3), (2, 3)}

    def test_x_on_path_middle(self):
        # X on the middle of a 3-chain fuses the ends into a Bell pair
        out = measure_graph(graph(path(3)), 1, "X")
        assert edges(out) == {(0, 2)}

    def test_x_on_path_end(self):
        # X on an end of a 3-chain leaves a product state: projecting the
        # end onto |+> forces its neighbor into a Z eigenstate
        out = measure_graph(graph(path(3)), 0, "X")
        assert set(out) == {1, 2}
        assert edges(out) == set()

    def test_x_isolated_degenerates_to_z(self):
        g = graph(path(2), vertices=[9])
        out = measure_graph(g, 9, "X")
        assert set(out) == {0, 1}
        assert edges(out) == {(0, 1)}

    def test_invalid_inputs(self):
        g = graph(path(3))
        with pytest.raises(InvalidConfigurationError):
            measure_graph(g, 0, "W")
        with pytest.raises(InvalidConfigurationError):
            measure_graph(g, 42, "Z")
        with pytest.raises(InvalidConfigurationError):
            measure_graph(g, 0, "X", special_neighbor=2)  # not adjacent to 0

    def test_z_measurements_commute(self):
        g = graph(cycle(6) + [(0, 3)])
        ab = measure_graph(measure_graph(g, 0, "Z"), 3, "Z")
        ba = measure_graph(measure_graph(g, 3, "Z"), 0, "Z")
        assert edges(ab) == edges(ba)

    def test_distant_edges_ignore_special_choice(self):
        # the X rule's freedom in the special neighbor only moves edges
        # within the measured vertex's neighborhood
        g = graph(cycle(7) + [(1, 6), (2, 5)])
        v = 0
        neighbors = set(g[v])
        far = set(g) - neighbors - {v}
        choices = [
            measure_graph(g, v, "X", special_neighbor=w) for w in sorted(neighbors)
        ]
        reference = {
            (a, b) for a, b in edges(choices[0]) if a in far and b in far
        }
        for out in choices[1:]:
            got = {(a, b) for a, b in edges(out) if a in far and b in far}
            assert got == reference


class TestTreeGraph:
    def test_bfs_layout(self):
        g = tree_graph((3, 2, 2))
        assert len(g) == 1 + 3 + 6 + 12 == 22
        assert sorted(g[0]) == [1, 2, 3]
        assert sorted(g[1]) == [0, 4, 5]
        leaves = [v for v in g if len(g[v]) == 1]
        assert len(leaves) == 12

    def test_rejects_empty_branches(self):
        with pytest.raises(InvalidConfigurationError):
            tree_graph((2, 0))


class TestStructureChecks:
    def test_star_clique_passes(self):
        result = check_star_clique()
        assert result.passed, result.detail

    def test_tree_attachment_passes(self):
        result = check_tree_attachment()
        assert result.passed, result.detail

    def test_tree_attachment_small_case(self):
        result = check_tree_attachment(branches=(2, 2), cluster_neighbors=1)
        assert result.passed, result.detail

    def test_tree_attachment_needs_a_cluster(self):
        with pytest.raises(InvalidConfigurationError):
            check_tree_attachment(cluster_neighbors=0)

    @pytest.mark.parametrize("max_leaves", [1, 0, -5])
    def test_star_clique_without_a_star_is_refused(self, max_leaves):
        # 1 used to pass over "star sizes 3..2 vertices", checking nothing
        with pytest.raises(InvalidConfigurationError, match="max_leaves must be >= 2"):
            check_star_clique(max_leaves)

    def test_star_clique_smallest_star(self):
        result = check_star_clique(2)
        assert result.passed
        assert result.detail == "star sizes 3..3 vertices"

    def test_tree_attachment_needs_a_tree(self):
        # an empty branching vector splices a lone root and checks no edge
        with pytest.raises(InvalidConfigurationError, match="at least one level"):
            check_tree_attachment(branches=())

    def test_full_battery(self):
        results = run_structure_checks(samples=20)
        assert len(results) == 5
        assert len({r.name for r in results}) == 5
        for result in results:
            assert result.passed, f"{result.name}: {result.detail}"


def basis_state(*bits: int) -> list[complex]:
    """Flat amplitudes of ``|bits>``, qubit 0 the index's most significant bit."""
    index = int("".join(map(str, bits)), 2)
    return [1 + 0j if i == index else 0j for i in range(2 ** len(bits))]


def norm(amps) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in amps))


class TestSmallState:
    """The statevector helpers on flat lists of Python complex amplitudes."""

    def test_computational_measurement(self):
        branches = _measure(basis_state(1, 0), 0, "Z")
        assert branches[0][1] == pytest.approx(0.0)
        assert branches[0][2] is None
        assert branches[1][1] == pytest.approx(1.0)
        assert branches[1][2] == pytest.approx([1.0, 0.0])

    def test_plus_state_branches(self):
        plus = _apply(_H, basis_state(0), 0)
        x_branches = _measure(plus, 0, "X")
        assert x_branches[0][1] == pytest.approx(1.0)
        assert x_branches[1][2] is None
        z_branches = _measure(plus, 0, "Z")
        assert z_branches[0][1] == pytest.approx(0.5)
        assert z_branches[1][1] == pytest.approx(0.5)

    def test_z_flips_x_outcome_exactly(self):
        minus = _apply(_Z, _apply(_H, basis_state(0), 0), 0)
        branches = _measure(minus, 0, "X")
        assert branches[0][2] is None
        assert branches[1][1] == pytest.approx(1.0)

    def test_y_eigenstate(self):
        plus_i = [1 / math.sqrt(2.0), 1j / math.sqrt(2.0)]
        branches = _measure(plus_i, 0, "Y")
        assert branches[0][1] == pytest.approx(1.0)
        assert branches[1][1] == pytest.approx(0.0)

    def test_bell_state_collapse(self):
        bell = [(a + b) / math.sqrt(2.0) for a, b in zip(basis_state(0, 0), basis_state(1, 1))]
        for outcome, prob, post in _measure(bell, 0, "Z"):
            assert prob == pytest.approx(0.5)
            want = [0.0, 0.0]
            want[outcome] = 1.0
            assert post == pytest.approx(want, abs=1e-12)

    def test_twelve_qubits_supported(self):
        assert _measure(basis_state(*[0] * 12), 11, "Z")[0][1] == pytest.approx(1.0)

    def test_qubit_order_is_c_order(self):
        # qubit 0 is the most significant bit: X on qubit 0 of |01> gives |11>
        flip = ((0j, 1 + 0j), (1 + 0j, 0j))
        assert _apply(flip, basis_state(0, 1), 0) == basis_state(1, 1)
        assert _apply(flip, basis_state(0, 1), 1) == basis_state(0, 0)

    def test_random_reproducible(self):
        # the inputs end with the seeded random 2-qubit states
        *_, a = _identity_inputs(seed=5, samples=1)
        *_, b = _identity_inputs(seed=5, samples=1)
        assert len(a) == 4
        assert all(type(x) is complex for x in a)
        assert a == b
        assert norm(a) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(InvalidConfigurationError, match=r"seed must lie in \[0, 2\*\*64\)"):
            _identity_inputs(seed=seed)
        assert len(list(_identity_inputs(seed=2**64 - 1, samples=1))) == 15


# The numpy statevector layer that the flat-list one replaced, kept as an
# oracle: amplitudes shaped (2,)*n, contracted with tensordot.
ORACLE_KETS = {
    "Z": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "Y": np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / math.sqrt(2.0),
}


def oracle_apply(gate: np.ndarray, amps: np.ndarray, q: int) -> np.ndarray:
    moved = np.tensordot(gate, np.moveaxis(amps, q, 0), axes=([1], [0]))
    return np.moveaxis(moved, 0, q)


def oracle_measure(amps: np.ndarray, q: int, basis: str) -> list:
    branches = []
    for outcome, ket in enumerate(ORACLE_KETS[basis]):
        post = np.tensordot(ket.conj(), amps, axes=([0], [q]))
        if post.ndim == 0:
            post = post[None]
        prob = float(np.vdot(post, post).real)
        if prob < 1e-28:
            branches.append((outcome, 0.0, None))
        else:
            branches.append((outcome, prob, post / math.sqrt(prob)))
    return branches


def random_amps(rng: np.random.Generator, qubits: int) -> np.ndarray:
    amps = rng.normal(size=(2,) * qubits) + 1j * rng.normal(size=(2,) * qubits)
    return amps / np.linalg.norm(amps)


class TestAgainstNumpyOracle:
    """The flat-list statevector layer agrees with the numpy one it replaced."""

    def test_basis_kets(self):
        for basis, kets in ORACLE_KETS.items():
            np.testing.assert_allclose(np.array(_BASIS_KETS[basis]), kets, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_apply(self, qubits):
        rng = np.random.default_rng(100 + qubits)
        for _ in range(20):
            amps = random_amps(rng, qubits)
            gates = [np.array(_Z), np.array(_H), random_amps(rng, 2)]
            for gate, q in itertools.product(gates, range(qubits)):
                got = _apply(tuple(map(tuple, gate.tolist())), amps.ravel().tolist(), q)
                want = oracle_apply(gate, amps, q).ravel()
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_measure(self, qubits):
        rng = np.random.default_rng(200 + qubits)
        states = [random_amps(rng, qubits) for _ in range(20)]
        states += [np.eye(2**qubits, dtype=complex)[i].reshape((2,) * qubits)
                   for i in range(2**qubits)]
        for amps, q, basis in itertools.product(states, range(qubits), "XYZ"):
            got = _measure(amps.ravel().tolist(), q, basis)
            for (outcome, prob, post), (want_outcome, want_prob, want_post) in zip(
                    got, oracle_measure(amps, q, basis)):
                assert outcome == want_outcome
                assert prob == pytest.approx(want_prob, rel=0, abs=1e-12)
                assert (post is None) == (want_post is None)
                if post is not None:
                    np.testing.assert_allclose(post, want_post.ravel(), rtol=0, atol=1e-12)


class TestReorderingIdentities:
    def test_all_pass(self):
        results = verify_reordering_identities(samples=30)
        assert [r.passed for r in results] == [True, True, True]

    @pytest.mark.parametrize("samples", [0, 5])
    def test_detail_counts_basis_and_random_states(self, samples):
        # 2 + 4 + 8 computational basis states, then the random ones
        for result in verify_reordering_identities(samples=samples):
            assert result.detail.startswith(f"{14 + samples} states,")

    def test_names_are_stable(self):
        names = [r.name for r in verify_reordering_identities(samples=1)]
        assert names == [
            "conditional Z past M_X/M_Y flips outcome",
            "Z before M_Z is absorbed",
            "H exchanges M_X/M_Z and flips M_Y",
        ]
