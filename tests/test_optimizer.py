"""Design-space search: class enumeration, per-range optima, rate families."""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from clusterchain import optimizer
from clusterchain.clusterbuild import build_schedule, improved_pc1_exact, pcn
from clusterchain.envelope import EnvelopeParams, analytic_lb, optimize_z
from clusterchain.errors import (EmptyFeasibleSetError, InvalidConfigurationError,
                                 LocusInvalidError, NoInteriorMinimumError)
from clusterchain.optimizer import (
    SearchBounds,
    design_envelopes,
    iter_designs,
    operating_point,
    optimize_design,
    rate_family,
)
from clusterchain.params import ChainCoefficients, chain_coefficients, derive_constants
from clusterchain.ratemodel import k_of_design
from clusterchain.treecode import BranchingVector

# frozen 300 km optima of the four smallest useful cluster classes
REFERENCE_OPTIMA = {
    7: (4, (4, 2), 3.873e-6),
    8: (5, (5, 3), 2.977e-3),
    9: (7, (6, 4), 2.707e-2),
    10: (8, (10, 5), 4.932e-2),
}


@pytest.fixture(scope="module")
def candidates_by_k(device):
    return {k: design_envelopes(k, device) for k in REFERENCE_OPTIMA}


class TestSearchBounds:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m_max": 0},
            {"branch_max": 0},
            {"depths": ()},
            {"depths": (0,)},
            {"depths": (2, 2)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidConfigurationError):
            SearchBounds(**kwargs)


class TestIterDesigns:
    def test_yields_only_the_requested_class(self):
        seen = list(iter_designs(7, SearchBounds(m_max=8, branch_max=8)))
        assert seen
        for m, tree in seen:
            assert k_of_design(m, tree) == 7

    def test_contains_reference_design(self):
        assert (4, BranchingVector((4, 2))) in iter_designs(7)

    @pytest.mark.parametrize("depths", [(1,), (2,), (3,), (3, 1, 2)])
    def test_pruned_enumeration_matches_filtering_every_tuple(self, depths):
        bounds = SearchBounds(m_max=5, branch_max=5, depths=depths)
        for k in range(3, 11):
            every = [
                (m, BranchingVector(branches))
                for depth in depths
                for m in range(1, 6)
                for branches in itertools.product(range(1, 6), repeat=depth)
                if k_of_design(m, BranchingVector(branches)) == k
            ]
            assert list(iter_designs(k, bounds)) == every

    def test_depth_check_matches_the_smallest_tree(self):
        # the all-ones tree at m = 1 is the smallest of its depth
        for k in range(1, 11):
            for depth in range(1, 600):
                smallest = k_of_design(1, BranchingVector((1,) * depth))
                assert optimizer._holds_depth(k, depth) == (smallest <= k)

    def test_depth_past_the_recursion_limit(self):
        # the walk holds its path in a list, so a depth over Python's default
        # recursion limit of 1000 is enumerated: class 11 holds two such trees
        designs = list(iter_designs(11, SearchBounds(depths=(1020,))))
        assert [m for m, _ in designs] == [1, 1]
        assert all(len(tree.branches) == 1020 for _, tree in designs)

    def test_depth_no_class_holds_builds_no_tree(self):
        # a tree of 10**20 branches would not fit in memory
        bounds = SearchBounds(depths=(10**20, 2))
        assert list(iter_designs(7, bounds)) == list(iter_designs(7, SearchBounds()))

    def test_classes_partition_the_grid(self):
        bounds = SearchBounds(m_max=4, branch_max=4)
        total = sum(len(list(iter_designs(k, bounds))) for k in range(1, 12))
        assert total == 4 * 4 * 4  # every (m, b0, b1) lands in exactly one class


def _one_design_at_a_time(k, device, scheme, bounds):
    """The class scanned design by design through ``optimize_z`` and ``analytic_lb``."""
    consts = derive_constants(device)
    out = []
    for m, tree in iter_designs(k, bounds):
        coeffs = chain_coefficients(consts, device, m, k, boosted=(scheme == "new"))
        try:
            z_star = optimize_z(m, tree, device, coeffs, scheme=scheme)
            out.append((m, tree, analytic_lb(z_star, m, tree, device, coeffs, scheme=scheme)))
        except (LocusInvalidError, NoInteriorMinimumError):
            continue
    return out


class TestDesignEnvelopes:
    @pytest.mark.parametrize(
        "scheme,k,depths",
        [(scheme, k, (2,)) for scheme in ("new", "naive") for k in (7, 8, 9, 10)]
        + [("new", 9, (3,))],
    )
    def test_blocks_match_the_one_design_path(self, device, scheme, k, depths):
        bounds = SearchBounds(depths=depths)
        blocked = design_envelopes(k, device, scheme=scheme, bounds=bounds)
        single = _one_design_at_a_time(k, device, scheme, bounds)
        assert [(m, tree) for m, tree, _ in blocked] == [(m, tree) for m, tree, _ in single]
        for (m, tree, got), (_, _, want) in zip(blocked, single):
            # one design is a block of one: every field has the same bits
            assert astuple(got) == astuple(want), (m, tree)

    def test_one_design_block_matches_optimize_z(self, device, consts):
        coeffs = chain_coefficients(consts, device, 4, 7)
        z_one = optimize_z(4, BranchingVector((4, 2)), device, coeffs)
        z_block = optimize_z(np.array([4]), np.array([[4], [2]]), device, coeffs)
        assert z_block.tolist() == [z_one]

    def test_block_marks_a_design_without_a_locus(self, device, consts):
        # m=1 has A B^2 <= 1: alone it raises, in a block it reads NaN
        one, four = (chain_coefficients(consts, device, m, 7) for m in (1, 4))
        tree = BranchingVector((4, 2))
        with pytest.raises(LocusInvalidError):
            optimize_z(1, tree, device, one)
        block = ChainCoefficients(np.array([one.a_coeff, four.a_coeff]), four.b_coeff, four.c_coeff)
        z = optimize_z(np.array([1, 4]), np.array([[4, 4], [2, 2]]), device, block)
        assert np.isnan(z[0])
        assert z[1] == optimize_z(4, tree, device, four)

    def test_coefficients_built_only_for_channel_counts_in_use(self, device, monkeypatch):
        calls = []
        original = optimizer.coefficients_for
        monkeypatch.setattr(optimizer, "coefficients_for",
                            lambda *args, **kw: calls.append(args) or original(*args, **kw))
        wide = design_envelopes(7, device, bounds=SearchBounds(m_max=10**6))
        assert len(calls) == len({m for m, _ in iter_designs(7, SearchBounds(m_max=10**6))})
        assert wide == design_envelopes(7, device)

    def test_deeper_trees_never_lose_to_depth_two(self, device):
        shallow = optimize_design(5000.0, 10, device)
        mixed = optimize_design(5000.0, 10, device, bounds=SearchBounds(depths=(2, 3)))
        assert mixed.rate_bits_per_mode >= shallow.rate_bits_per_mode
        assert (mixed.m, mixed.tree.branches) == (9, (4, 6, 1))


class TestOptimizeDesign:
    @pytest.mark.parametrize("k", sorted(REFERENCE_OPTIMA))
    def test_reference_optima_at_300km(self, k, device, candidates_by_k):
        m, branches, rate = REFERENCE_OPTIMA[k]
        best = optimize_design(300.0, k, device, candidates=candidates_by_k[k])
        assert (best.m, best.tree.branches) == (m, branches)
        assert best.rate_bits_per_mode == pytest.approx(rate, rel=1e-3)
        assert best.k == k
        assert best.range_km == 300.0

    def test_candidate_list_matches_fresh_scan(self, device, candidates_by_k):
        fresh = optimize_design(300.0, 7, device)
        cached = optimize_design(300.0, 7, device, candidates=candidates_by_k[7])
        assert (fresh.m, fresh.tree, fresh.rate_bits_per_mode) == (
            cached.m,
            cached.tree,
            cached.rate_bits_per_mode,
        )

    # one envelope shared by hand-built candidates, so every rate ties; each
    # winner below comes after a loser and loses on every later key, so the
    # tests fail if the sort drops (n_cluster, m, branches) or reorders it
    TIED = EnvelopeParams(z=0.1, q1=0.5, q2=0.5, q3=0.5, d_coeff=0.1, s_exp=0.4, l0_km=1.5)

    def test_rate_ties_prefer_smaller_cluster(self, device):
        big = (1, BranchingVector((1, 9)), self.TIED)  # 5 + 2*11 = 27 photons
        small = (2, BranchingVector((2,)), self.TIED)  # 9 + 4*3 = 21 photons
        best = optimize_design(100.0, 7, device, candidates=[big, small])
        assert (best.m, best.tree.branches) == (2, (2,))

    def test_cluster_ties_prefer_fewer_channels(self, device):
        wide = (2, BranchingVector((1,)), self.TIED)  # 9 + 4*2 = 17 photons
        narrow = (1, BranchingVector((5,)), self.TIED)  # 5 + 2*6 = 17 photons
        best = optimize_design(100.0, 7, device, candidates=[wide, narrow])
        assert (best.m, best.tree.branches) == (1, (5,))

    def test_cluster_and_channel_ties_prefer_smaller_branches(self, device):
        # trees of 9 photons each, so 13 + 6*9 = 67 photons at m = 3
        trees = [(2, 3), (1, 1, 6), (1, 7)]
        candidates = [(3, BranchingVector(b), self.TIED) for b in trees]
        best = optimize_design(100.0, 7, device, candidates=candidates)
        assert (best.m, best.tree.branches) == (3, (1, 1, 6))

    def test_no_candidates_is_empty_feasible_set(self, device):
        with pytest.raises(EmptyFeasibleSetError):
            optimize_design(300.0, 7, device, candidates=[])

    def test_properties(self, device, candidates_by_k):
        best = optimize_design(300.0, 7, device, candidates=candidates_by_k[7])
        assert best.n_cluster == 17 + 8 * 13 == 121
        assert best.parallel_channels == 8
        assert best.n_opt == max(1, round(300.0 / best.envelope.l0_km))

    def test_rejects_nonpositive_range(self, device, candidates_by_k):
        with pytest.raises(InvalidConfigurationError):
            optimize_design(0.0, 7, device, candidates=candidates_by_k[7])

    def test_small_classes_are_empty(self, device):
        # the smallest cluster (m=1, single-branch tree) already needs
        # 9 photons, i.e. 3 fusion levels
        with pytest.raises(EmptyFeasibleSetError):
            design_envelopes(2, device)


class TestOperatingPoint:
    def test_without_sources(self, device, candidates_by_k):
        point = operating_point(300.0, 7, device, with_sources=False)
        assert point.n_sources is None
        ref = optimize_design(300.0, 7, device, candidates=candidates_by_k[7])
        assert point.design == ref

    def test_with_sources_meets_target(self, device, consts):
        point = operating_point(15.0, 7, device, method="exact")
        assert point.n_sources is not None and point.n_sources > 0
        sched = build_schedule(7, point.design.m, consts)
        achieved = pcn(
            improved_pc1_exact(point.n_sources, sched, consts),
            point.design.n_opt,
        )
        assert achieved >= 0.9

    def test_naive_scheme_uses_naive_factory(self, device):
        point = operating_point(15.0, 7, device, scheme="naive")
        assert point.n_sources is not None
        # the naive factory multiplexes every fusion independently and
        # needs orders of magnitude more photons than the banked one
        banked = operating_point(15.0, 7, device, method="exact")
        assert point.n_sources > 10 * banked.n_sources


class TestRateFamily:
    def test_curves_match_pointwise_optima(self, device, candidates_by_k):
        grid = np.array([200.0, 300.0, 450.0])
        curves = rate_family(grid, [7, 8], device)
        assert [c.k for c in curves] == [7, 8]
        for curve in curves:
            np.testing.assert_array_equal(curve.l_km, grid)
            for l_km, rate in zip(grid, curve.rate_bits_per_mode):
                best = optimize_design(
                    float(l_km), curve.k, device, candidates=candidates_by_k[curve.k]
                )
                assert rate == pytest.approx(best.rate_bits_per_mode, rel=1e-12)

    def test_larger_class_wins_at_long_range(self, device):
        curves = rate_family(np.array([300.0]), [7, 10], device)
        assert curves[1].rate_bits_per_mode[0] > curves[0].rate_bits_per_mode[0]

    def test_grid_validation(self, device):
        with pytest.raises(InvalidConfigurationError):
            rate_family(np.array([]), [7], device)
        with pytest.raises(InvalidConfigurationError):
            rate_family(np.array([-5.0, 10.0]), [7], device)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_range_is_refused(self, device, bad):
        with pytest.raises(InvalidConfigurationError):
            rate_family(np.array([100.0, bad]), [7], device)
