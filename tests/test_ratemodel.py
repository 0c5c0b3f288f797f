"""Chain success probabilities, key rate, and the repeaterless ceiling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from clusterchain.errors import InvalidConfigurationError
from clusterchain.params import ChainCoefficients
from clusterchain.ratemodel import (
    ChainConfig,
    cluster_photons,
    coefficients_for,
    k_of_design,
    log_p_meas,
    loss_rates,
    measurement_probs,
    mode_divisor,
    p_bell,
    p_end,
    p_meas,
    r_direct,
    rate_n,
    rates_over_n,
    transmitted_photons,
)
from clusterchain.treecode import BranchingVector, p_x_general, p_z_general


def cfg_73(l_km=300.0, n=100, scheme="new"):
    return ChainConfig(
        total_range_km=l_km,
        node_count=n,
        channels=4,
        tree=BranchingVector((7, 3)),
        p_cn=0.9,
        scheme=scheme,
    )


class TestPhotonCounts:
    def test_cluster_photons(self):
        # 4m+1 = 17 core photons plus 2m = 8 trees of 29 photons each
        assert cluster_photons(4, BranchingVector((7, 3))) == 17 + 8 * 29 == 249
        assert transmitted_photons(4, BranchingVector((7, 3))) == 232

    @pytest.mark.parametrize(
        "m,branches,k",
        [
            (4, (4, 2), 7),  # N = 121, ceil(log2(119)) = 7
            (4, (7, 3), 8),  # N = 249
            (5, (5, 3), 8),  # N = 231
            (7, (6, 4), 9),  # N = 463
            (8, (10, 5), 10),  # N = 1009
        ],
    )
    def test_fusion_steps(self, m, branches, k):
        assert k_of_design(m, BranchingVector(branches)) == k

    def test_fusion_steps_rejects_bad_m(self):
        with pytest.raises(InvalidConfigurationError):
            k_of_design(0, BranchingVector((2,)))

    def test_mode_divisor(self):
        tree = BranchingVector((7, 3))
        assert mode_divisor(4, tree, "new") == 8
        assert mode_divisor(4, tree, "naive") == 232
        assert mode_divisor(8, BranchingVector((4, 2)), "naive") == 16 * 13 == 208
        with pytest.raises(InvalidConfigurationError):
            mode_divisor(4, tree, "old")


class TestChainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_range_km": -1.0},
            {"node_count": 0},
            {"channels": 0},
            {"p_cn": 0.0},
            {"p_cn": 1.2},
            {"scheme": "old"},
            {"total_range_km": math.nan},
            {"total_range_km": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            total_range_km=100.0,
            node_count=10,
            channels=4,
            tree=BranchingVector((7, 3)),
        )
        base.update(kwargs)
        with pytest.raises(InvalidConfigurationError):
            ChainConfig(**base)

    def test_properties(self):
        cfg = cfg_73()
        assert cfg.k == 8
        assert cfg.n_cluster == 249
        assert cfg.divisor == 8
        assert cfg_73(scheme="naive").divisor == 232


class TestLossRates:
    def test_stationary_exceeds_traveling(self, device):
        rates = loss_rates(cfg_73(), device)
        assert 0.0 < rates.eps_trav < rates.eps_stat < 1.0

    def test_naive_scheme_has_one_population(self, device):
        rates = loss_rates(cfg_73(scheme="naive"), device)
        assert rates.eps_stat == rates.eps_trav

    def test_zero_range_leaves_chip_losses(self, device):
        cfg = cfg_73(l_km=0.0)
        coeffs = coefficients_for(cfg, device)
        rates = loss_rates(cfg, device, coeffs)
        assert rates.eps_trav == pytest.approx(1.0 - coeffs.c_coeff, rel=1e-12)
        assert rates.eps_stat == pytest.approx(1.0 - coeffs.b_coeff, rel=1e-12)

    def test_explicit_coefficients_match_default(self, device):
        cfg = cfg_73()
        assert loss_rates(cfg, device) == loss_rates(
            cfg, device, coefficients_for(cfg, device)
        )


class TestProbabilities:
    def test_measurement_probs_consistent_with_tree(self, device):
        cfg = cfg_73()
        eps = loss_rates(cfg, device).eps_stat
        px, pz = measurement_probs(cfg, device)
        assert px == pytest.approx(float(p_x_general(cfg.tree, eps)), rel=1e-14)
        assert pz == pytest.approx(float(p_z_general(cfg.tree, eps)), rel=1e-14)

    def test_p_bell_formula(self, device):
        cfg = cfg_73()
        coeffs = coefficients_for(cfg, device)
        eta_link = math.exp(-device.alpha * cfg.total_range_km / cfg.node_count)
        expected = coeffs.ab_squared / cfg.channels * eta_link
        assert p_bell(cfg, device) == pytest.approx(expected, rel=1e-14)

    def test_p_bell_rejects_unphysical_coefficients(self, device):
        cfg = cfg_73(l_km=0.1, n=1)
        bad = ChainCoefficients(a_coeff=50.0, b_coeff=1.0, c_coeff=1.0)
        with pytest.raises(InvalidConfigurationError):
            p_bell(cfg, device, bad)

    def test_p_end_formula_and_monotone_in_m(self, device):
        cfg = cfg_73()
        coeffs = coefficients_for(cfg, device)
        per_half = math.exp(
            -device.alpha * cfg.total_range_km / (2 * cfg.node_count)
        )
        expected = 1.0 - (1.0 - per_half * coeffs.c_coeff) ** cfg.channels
        assert p_end(cfg, device) == pytest.approx(expected, rel=1e-12)

        wider = ChainConfig(
            total_range_km=cfg.total_range_km,
            node_count=cfg.node_count,
            channels=8,
            tree=cfg.tree,
        )
        assert p_end(wider, device) > p_end(cfg, device)

    def test_p_meas_assembles_the_factors(self, device):
        cfg = cfg_73()
        n, m = cfg.node_count, cfg.channels
        px, pz = measurement_probs(cfg, device)
        pb = p_bell(cfg, device)
        pend = p_end(cfg, device)
        expected = (
            pz ** (2 * (m - 1) * n)
            * px ** (2 * n)
            * (1.0 - (1.0 - pb) ** m) ** (n - 1)
            * pend**2
        )
        assert p_meas(cfg, device) == pytest.approx(expected, rel=1e-9)

    def test_p_meas_is_exp_of_log(self, device):
        cfg = cfg_73()
        assert p_meas(cfg, device) == pytest.approx(
            math.exp(log_p_meas(cfg, device)), rel=1e-14
        )

    def test_total_loss_gives_log_neg_inf(self, device):
        cfg = cfg_73(l_km=5000.0, n=1)
        assert log_p_meas(cfg, device) == -math.inf
        assert p_meas(cfg, device) == 0.0


class TestRates:
    def test_rate_is_pcn_pmeas_over_modes(self, device):
        cfg = cfg_73()
        point = rate_n(cfg, device)
        assert point.range_km == cfg.total_range_km
        assert point.rate_bits_per_mode == pytest.approx(
            cfg.p_cn * p_meas(cfg, device) / cfg.divisor, rel=1e-14
        )

    def test_vectorised_matches_scalar(self, device):
        # the single-channel chain at 5000 km loses everything at small n,
        # where P_Z = 0 must not enter q1 as 0 * log(0)
        single_far = ChainConfig(
            total_range_km=5000.0, node_count=1, channels=1, tree=BranchingVector((7, 3))
        )
        for cfg, n_values in (
            (cfg_73(), np.array([50, 100, 173, 400])),
            (single_far, np.array([1, 2, 3, 500, 3000])),
        ):
            rates = rates_over_n(cfg, device, n_values)
            for n_val, rate in zip(n_values, rates):
                cfg_n = ChainConfig(
                    total_range_km=cfg.total_range_km,
                    node_count=int(n_val),
                    channels=cfg.channels,
                    tree=cfg.tree,
                    p_cn=cfg.p_cn,
                    scheme=cfg.scheme,
                )
                assert rate == pytest.approx(
                    rate_n(cfg_n, device).rate_bits_per_mode, rel=1e-10
                )

    def test_vectorised_accepts_real_node_counts(self, device):
        # the model is smooth in n, so fractional node counts interpolate
        cfg = cfg_73()
        lo, mid, hi = rates_over_n(cfg, device, np.array([100.0, 100.5, 101.0]))
        assert min(lo, hi) <= mid <= max(lo, hi) or mid > 0

    def test_vectorised_rejects_subunit_n(self, device):
        with pytest.raises(InvalidConfigurationError):
            rates_over_n(cfg_73(), device, np.array([0.5, 2.0]))

    def test_rate_decreases_with_range(self, device):
        near = rate_n(cfg_73(l_km=200.0), device).rate_bits_per_mode
        far = rate_n(cfg_73(l_km=300.0), device).rate_bits_per_mode
        assert near > far > 0.0

    def test_naive_scheme_pays_more_modes(self, device):
        # same physical layout, but normalising by every transmitted photon
        new = rate_n(cfg_73(), device).rate_bits_per_mode
        naive = rate_n(cfg_73(scheme="naive"), device).rate_bits_per_mode
        assert naive < new


class TestDirectTransmission:
    def test_reference_value(self, device):
        # -log2(1 - exp(-0.046 * 50)) with the default fiber attenuation
        assert r_direct(50.0, device.alpha) == pytest.approx(
            0.152418078185, rel=1e-9
        )

    def test_limits(self, device):
        assert r_direct(0.0, device.alpha) == math.inf
        assert r_direct(1e4, device.alpha) > 0.0
        with pytest.raises(InvalidConfigurationError):
            r_direct(-1.0, device.alpha)

    def test_strictly_decreasing(self, device):
        grid = np.linspace(1.0, 500.0, 40)
        vals = [r_direct(l, device.alpha) for l in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
