"""Tree-code recovery probabilities: recursion, closed forms, Monte Carlo."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchain.errors import ConfigError, InvalidConfigurationError
from clusterchain.treecode import (
    BranchingVector,
    LossRates,
    mc_measurement_probs,
    mc_xi,
    p_x_depth2,
    p_x_general,
    p_z_depth2,
    p_z_general,
    tree_size,
    xi,
)


class TestBranchingVector:
    def test_parse_and_str(self):
        b = BranchingVector.parse("7,3")
        assert b.branches == (7, 3)
        assert str(b) == "{7,3}"
        assert b.depth == 1

    def test_sizes(self):
        assert tree_size(BranchingVector((7, 3))) == 1 + 7 + 21
        assert tree_size(BranchingVector((3, 2, 2))) == 1 + 3 + 6 + 12
        assert BranchingVector((4,)).size == 5

    @pytest.mark.parametrize(
        "bad,error",
        [("", ConfigError), ("0,2", InvalidConfigurationError),
         ("3,-1", InvalidConfigurationError), ("a,b", ConfigError)],
        ids=["", "0,2", "3,-1", "a,b"],
    )
    def test_rejects(self, bad, error):
        with pytest.raises(error):
            BranchingVector.parse(bad)

    def test_equality_is_structural(self):
        assert BranchingVector((2, 2)) == BranchingVector([2, 2])


class TestRecursion:
    def test_hand_computed_2_2(self):
        # {2,2} at eps = 1/2: leaves survive with prob 1/2, a root child is
        # usable iff it and both its leaves survive (1/8), so
        # P_X = 1 - (7/8)^2 = 15/64 and P_Z = (1 - (1/2)^3)^2 = 49/64.
        b = BranchingVector((2, 2))
        assert p_x_general(b, 0.5) == pytest.approx(15 / 64, rel=1e-15)
        assert p_z_general(b, 0.5) == pytest.approx(49 / 64, rel=1e-15)

    def test_hand_computed_depth0(self):
        # single level {3}: X recovery needs any of 3 children (1 - eps^3),
        # Z needs all of them ((1-eps)^3)
        b = BranchingVector((3,))
        assert p_x_general(b, 0.4) == pytest.approx(1 - 0.4**3, rel=1e-15)
        assert p_z_general(b, 0.4) == pytest.approx(0.6**3, rel=1e-15)

    @pytest.mark.parametrize("branches", [(2,), (2, 2), (7, 3), (3, 2, 2)])
    def test_lossless_and_total_loss(self, branches):
        b = BranchingVector(branches)
        assert p_x_general(b, 0.0) == pytest.approx(1.0)
        assert p_z_general(b, 0.0) == pytest.approx(1.0)
        assert p_x_general(b, 1.0) == pytest.approx(0.0)
        assert p_z_general(b, 1.0) == pytest.approx(0.0)

    def test_xi_accepts_arrays(self):
        b = BranchingVector((4, 2))
        eps = np.linspace(0.0, 0.9, 7)
        vec = xi(0, b, eps)
        scalar = np.array([xi(0, b, e) for e in eps])
        np.testing.assert_allclose(vec, scalar, rtol=1e-15)

    def test_xi_index_out_of_range(self):
        with pytest.raises(InvalidConfigurationError):
            xi(2, BranchingVector((4, 2)), 0.1)

    def test_monotone_in_eps(self):
        b = BranchingVector((7, 3))
        eps = np.linspace(0.0, 1.0, 50)
        px = np.asarray(p_x_general(b, eps))
        pz = np.asarray(p_z_general(b, eps))
        assert np.all(np.diff(px) <= 1e-15)
        assert np.all(np.diff(pz) <= 1e-15)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(branches=st.lists(st.integers(1, 8), min_size=1, max_size=4))
    def test_xi_non_increasing_in_eps(self, branches):
        # every depth index of trees with one to four levels, and P_Z; the
        # 1e-15 allows for roundoff, as in test_monotone_in_eps
        b = BranchingVector(branches)
        eps = np.linspace(0.0, 1.0, 2001)
        curves = [xi(i, b, eps) for i in range(b.depth + 1)] + [p_z_general(b, eps)]
        for curve in curves:
            assert np.all(np.diff(curve) <= 1e-15)


class TestClosedForms:
    @pytest.mark.parametrize("b0,b1", [(1, 1), (2, 3), (7, 3), (12, 12)])
    @pytest.mark.parametrize("eps", [0.0, 0.07, 0.31, 0.5])
    def test_match_recursion(self, b0, b1, eps):
        b = BranchingVector((b0, b1))
        eta = 1.0 - eps
        assert p_x_depth2(b0, b1, eta, 1.0) == pytest.approx(
            p_x_general(b, eps), rel=1e-12, abs=1e-15
        )
        assert p_z_depth2(b0, b1, eta, 1.0) == pytest.approx(
            p_z_general(b, eps), rel=1e-12, abs=1e-15
        )

    def test_survival_split_between_factors(self):
        # the closed forms take the per-photon survival as eta_link * B
        assert p_x_depth2(7, 3, 0.9, 0.95) == pytest.approx(
            p_x_depth2(7, 3, 0.9 * 0.95, 1.0), rel=1e-14
        )


class TestMonteCarlo:
    def test_matches_recursion_3sigma(self):
        b = BranchingVector((4, 2))
        for eps in (0.1, 0.3):
            est = mc_measurement_probs(b, eps, samples=100_000, seed=11)
            assert abs(est.p_x - p_x_general(b, eps)) < 3 * est.p_x_err
            assert abs(est.p_z - p_z_general(b, eps)) < 3 * est.p_z_err

    def test_depth3_xi(self):
        b = BranchingVector((3, 2, 2))
        val, err = mc_xi(0, b, 0.2, samples=100_000, seed=4)
        assert abs(val - xi(0, b, 0.2)) < 3 * err

    def test_subtree_xi(self):
        # xi at level 1 of {7,3} is xi at level 0 of the sub-vector {3}
        b = BranchingVector((7, 3))
        val, err = mc_xi(1, b, 0.25, samples=50_000, seed=9)
        assert abs(val - xi(1, b, 0.25)) < 3 * err
        assert xi(1, b, 0.25) == pytest.approx(xi(0, BranchingVector((3,)), 0.25))

    def test_deterministic(self):
        b = BranchingVector((2, 2))
        first = mc_measurement_probs(b, 0.3, samples=20_000, seed=5)
        second = mc_measurement_probs(b, 0.3, samples=20_000, seed=5)
        assert first == second

    def test_xi_is_subtree_p_x(self):
        b = BranchingVector((3, 2, 2))
        sub = mc_measurement_probs(BranchingVector((2, 2)), 0.2, samples=20_000, seed=6)
        assert mc_xi(1, b, 0.2, samples=20_000, seed=6) == (sub.p_x, sub.p_x_err)

    @pytest.mark.parametrize(
        "samples,seed", [(10, -1), (10, 2**64), (0, 0)],
        ids=["negative_seed", "seed_2_64", "zero_samples"],
    )
    def test_invalid_run_is_config_error(self, samples, seed):
        b = BranchingVector((2, 2))
        with pytest.raises(InvalidConfigurationError):
            mc_xi(0, b, 0.3, samples=samples, seed=seed)
        with pytest.raises(InvalidConfigurationError):
            mc_measurement_probs(b, 0.3, samples=samples, seed=seed)


class TestLossRates:
    def test_fields(self):
        rates = LossRates(eps_trav=0.1, eps_stat=0.2)
        assert rates.eps_trav == 0.1
        assert rates.eps_stat == 0.2

    def test_validated(self):
        with pytest.raises(InvalidConfigurationError):
            LossRates(eps_trav=-0.01, eps_stat=0.5)
        with pytest.raises(InvalidConfigurationError):
            LossRates(eps_trav=0.1, eps_stat=1.5)
