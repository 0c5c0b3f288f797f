"""Graph measurement rules and statevector reordering identities."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from clusterchain.errors import InvalidConfigurationError
from clusterchain.graphstate import (
    SmallState,
    check_star_clique,
    check_tree_attachment,
    local_complement,
    measure_graph,
    run_structure_checks,
    tree_graph,
    verify_reordering_identities,
)


def edges(g: nx.Graph) -> set[tuple[int, int]]:
    return {tuple(sorted(e)) for e in g.edges}


class TestLocalComplement:
    def test_star_closes_into_clique(self):
        star = nx.star_graph(3)  # center 0
        out = local_complement(star, 0)
        assert edges(out) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_involution(self):
        g = nx.cycle_graph(5)
        g.add_edge(0, 2)
        twice = local_complement(local_complement(g, 0), 0)
        assert edges(twice) == edges(g)

    def test_triangle_opens_to_path(self):
        g = nx.complete_graph(3)
        out = local_complement(g, 0)
        assert edges(out) == {(0, 1), (0, 2)}

    def test_original_untouched(self):
        g = nx.star_graph(2)
        before = edges(g)
        local_complement(g, 0)
        assert edges(g) == before

    def test_unknown_vertex(self):
        with pytest.raises(InvalidConfigurationError):
            local_complement(nx.path_graph(3), 99)


class TestMeasureGraph:
    def test_z_deletes(self):
        g = nx.path_graph(4)  # 0-1-2-3
        out = measure_graph(g, 1, "Z")
        assert set(out.nodes) == {0, 2, 3}
        assert edges(out) == {(2, 3)}

    def test_y_on_star_center(self):
        out = measure_graph(nx.star_graph(3), 0, "Y")
        assert edges(out) == {(1, 2), (1, 3), (2, 3)}

    def test_x_on_path_middle(self):
        # X on the middle of a 3-chain fuses the ends into a Bell pair
        out = measure_graph(nx.path_graph(3), 1, "X")
        assert edges(out) == {(0, 2)}

    def test_x_on_path_end(self):
        # X on an end of a 3-chain leaves a product state: projecting the
        # end onto |+> forces its neighbor into a Z eigenstate
        out = measure_graph(nx.path_graph(3), 0, "X")
        assert set(out.nodes) == {1, 2}
        assert edges(out) == set()

    def test_x_isolated_degenerates_to_z(self):
        g = nx.path_graph(2)
        g.add_node(9)
        out = measure_graph(g, 9, "X")
        assert set(out.nodes) == {0, 1}
        assert edges(out) == {(0, 1)}

    def test_invalid_inputs(self):
        g = nx.path_graph(3)
        with pytest.raises(InvalidConfigurationError):
            measure_graph(g, 0, "W")
        with pytest.raises(InvalidConfigurationError):
            measure_graph(g, 42, "Z")
        with pytest.raises(InvalidConfigurationError):
            measure_graph(g, 0, "X", special_neighbor=2)  # not adjacent to 0

    def test_z_measurements_commute(self):
        g = nx.cycle_graph(6)
        g.add_edge(0, 3)
        ab = measure_graph(measure_graph(g, 0, "Z"), 3, "Z")
        ba = measure_graph(measure_graph(g, 3, "Z"), 0, "Z")
        assert edges(ab) == edges(ba)

    def test_distant_edges_ignore_special_choice(self):
        # the X rule's freedom in the special neighbor only moves edges
        # within the measured vertex's neighborhood
        g = nx.cycle_graph(7)
        g.add_edge(1, 6)
        g.add_edge(2, 5)
        v = 0
        neighbors = set(g.neighbors(v))
        far = set(g.nodes) - neighbors - {v}
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
        assert g.number_of_nodes() == 1 + 3 + 6 + 12 == 22
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert sorted(g.neighbors(1)) == [0, 4, 5]
        leaves = [v for v in g.nodes if g.degree(v) == 1]
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

    def test_full_battery(self):
        results = run_structure_checks(samples=20)
        assert len(results) == 5
        assert len({r.name for r in results}) == 5
        for result in results:
            assert result.passed, f"{result.name}: {result.detail}"


class TestSmallState:
    def test_computational_measurement(self):
        state = SmallState.computational([1, 0])
        branches = state.measure(0, "Z")
        assert branches[0][1] == pytest.approx(0.0)
        assert branches[0][2] is None
        assert branches[1][1] == pytest.approx(1.0)
        np.testing.assert_allclose(branches[1][2], [1.0, 0.0])

    def test_plus_state_branches(self):
        plus = SmallState.computational([0]).apply_h(0)
        x_branches = plus.measure(0, "X")
        assert x_branches[0][1] == pytest.approx(1.0)
        assert x_branches[1][2] is None
        z_branches = plus.measure(0, "Z")
        assert z_branches[0][1] == pytest.approx(0.5)
        assert z_branches[1][1] == pytest.approx(0.5)

    def test_z_flips_x_outcome_exactly(self):
        minus = SmallState.computational([0]).apply_h(0).apply_z(0)
        branches = minus.measure(0, "X")
        assert branches[0][2] is None
        assert branches[1][1] == pytest.approx(1.0)

    def test_y_eigenstate(self):
        plus_i = SmallState(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        branches = plus_i.measure(0, "Y")
        assert branches[0][1] == pytest.approx(1.0)
        assert branches[1][1] == pytest.approx(0.0)

    def test_bell_state_collapse(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = 1.0 / np.sqrt(2.0)
        bell = SmallState(amps)
        branches = bell.measure(0, "Z")
        for outcome, prob, post in branches:
            assert prob == pytest.approx(0.5)
            want = np.zeros(2)
            want[outcome] = 1.0
            np.testing.assert_allclose(post, want, atol=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            SmallState(np.ones((2, 3)) / np.sqrt(6.0))
        with pytest.raises(InvalidConfigurationError):
            SmallState(np.ones((2,) * 13) / 2.0**6.5)
        with pytest.raises(InvalidConfigurationError):
            SmallState(np.array([1.0, 1.0]))  # not normalised
        state = SmallState.computational([0, 1, 1])
        with pytest.raises(InvalidConfigurationError):
            state.measure(3, "Z")
        with pytest.raises(InvalidConfigurationError):
            state.measure(0, "Q")

    def test_twelve_qubits_supported(self):
        state = SmallState.computational([0] * 12)
        assert state.qubits == 12
        assert state.measure(11, "Z")[0][1] == pytest.approx(1.0)

    def test_random_reproducible(self):
        a = SmallState.random(2, np.random.default_rng(5))
        b = SmallState.random(2, np.random.default_rng(5))
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0)


class TestReorderingIdentities:
    def test_all_pass(self):
        results = verify_reordering_identities(samples=30)
        assert [r.passed for r in results] == [True, True, True]

    def test_names_are_stable(self):
        names = [r.name for r in verify_reordering_identities(samples=1)]
        assert names == [
            "conditional Z past M_X/M_Y flips outcome",
            "Z before M_Z is absorbed",
            "H exchanges M_X/M_Z and flips M_Y",
        ]
