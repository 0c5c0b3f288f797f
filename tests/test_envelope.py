"""Analytic envelope: locus algebra, exponent optimisation, crossovers."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterchain import envelope
from clusterchain.envelope import (
    EnvelopeParams,
    EnvelopePoint,
    analytic_lb,
    crossover_analytic,
    crossover_distance,
    locus_probs,
    numeric_envelope,
    optimize_z,
    repeater_spacing,
)
from clusterchain.errors import (
    InvalidConfigurationError,
    LocusInvalidError,
    NoCrossoverError,
    NoInteriorMinimumError,
)
from clusterchain.optimizer import _BLOCK_DESIGNS, SearchBounds, iter_designs
from clusterchain.params import ChainCoefficients, chain_coefficients, coefficients_for
from clusterchain.ratemodel import ChainConfig, _rates_over_n, r_direct, rate_n, rates_over_n
from clusterchain.treecode import BranchingVector

TREE = BranchingVector((7, 3))
M = 4

# frozen outputs for the reference device at (m=4, {7,3}, P_cn=0.9)
Z_STAR = 0.06892616498057483
S_STAR = 0.3654838715183896
D_STAR = 0.11463972884959224
L0_KM = 1.4877655474978313
CROSSOVER_KM = 87.0793593918796


@pytest.fixture(scope="module")
def coeffs(device, consts):
    return chain_coefficients(consts, device, M, 8, boosted=True)


@pytest.fixture(scope="module")
def env_star(device, coeffs):
    return analytic_lb(Z_STAR, M, TREE, device, coeffs, p_cn=0.9)


class TestLocusProbs:
    def test_bell_probability_at_unit_z(self, coeffs):
        # eta_link = (A B^2)^-1 exactly cancels the A B^2 / m prefactor
        _, _, pb, _ = locus_probs(
            1.0, M, 7, 3, coeffs.a_coeff, coeffs.b_coeff, coeffs.c_coeff
        )
        assert pb == pytest.approx(1.0 / M, rel=1e-14)

    def test_all_factors_are_probabilities(self, coeffs):
        for z in (0.05, 0.5, 1.5):
            factors = locus_probs(
                z, M, 7, 3, coeffs.a_coeff, coeffs.b_coeff, coeffs.c_coeff
            )
            for value in factors:
                assert 0.0 <= value <= 1.0

    def test_rejects_sub_unit_gain(self):
        with pytest.raises(LocusInvalidError):
            locus_probs(0.5, 2, 3, 2, a_coeff=0.9, b_coeff=1.0, c_coeff=1.0)

    def test_rejects_nonpositive_z(self, coeffs):
        with pytest.raises(LocusInvalidError):
            locus_probs(
                0.0, M, 7, 3, coeffs.a_coeff, coeffs.b_coeff, coeffs.c_coeff
            )

    def test_rejects_super_unit_bell(self):
        # A B^2 = 4 with m = 1 at small z puts p_b = 4^0.9 > 1
        with pytest.raises(LocusInvalidError):
            locus_probs(0.1, 1, 3, 2, a_coeff=4.0, b_coeff=1.0, c_coeff=1.0)


class TestAnalyticLB:
    def test_internal_identities(self, env_star, coeffs, device):
        env = env_star
        log_ab2 = math.log(coeffs.ab_squared)
        assert env.s_exp == pytest.approx(
            -(math.log(env.q1) + math.log(env.q2)) / (env.z * log_ab2), rel=1e-12
        )
        assert env.d_coeff == pytest.approx(
            env.q3 * 0.9 / (2 * M * env.q2), rel=1e-12
        )
        assert env.l0_km == pytest.approx(env.z * log_ab2 / device.alpha, rel=1e-12)

    def test_locus_elimination_is_exact(self, env_star, device):
        """On the locus, the power law reproduces the chain rate identically.

        With L(n) = n * z * ln(A B^2) / alpha the chain at n nodes satisfies
        R_n(L(n)) = D * eta(L(n))**s with no approximation, for every n.
        """
        env = env_star
        for n in (1, 2, 5, 17, 50):
            l_km = n * env.l0_km
            cfg = ChainConfig(
                total_range_km=l_km,
                node_count=n,
                channels=M,
                tree=TREE,
                p_cn=0.9,
            )
            chain_rate = rate_n(cfg, device).rate_bits_per_mode
            assert float(env.rate_at(l_km, device.alpha)) == pytest.approx(
                chain_rate, rel=1e-9
            )

    def test_rate_at_is_vectorised(self, env_star, device):
        grid = np.array([50.0, 100.0, 200.0])
        vals = env_star.rate_at(grid, device.alpha)
        assert vals.shape == (3,)
        assert np.all(np.diff(vals) < 0)

    def test_scheme_changes_divisor_and_exponent(self, device, coeffs, consts):
        naive_coeffs = chain_coefficients(consts, device, M, 8, boosted=False)
        naive = analytic_lb(Z_STAR, M, TREE, device, naive_coeffs, scheme="naive")
        assert naive.d_coeff != pytest.approx(D_STAR, rel=1e-3)
        assert naive.s_exp > S_STAR  # bare fusions decay faster with range


class TestOptimizeZ:
    def test_reference_design(self, device, coeffs):
        z_star = optimize_z(M, TREE, device, coeffs)
        assert z_star == pytest.approx(Z_STAR, rel=1e-5)

    def test_frozen_envelope_parameters(self, env_star):
        assert env_star.s_exp == pytest.approx(S_STAR, rel=1e-9)
        assert env_star.d_coeff == pytest.approx(D_STAR, rel=1e-9)
        assert env_star.l0_km == pytest.approx(L0_KM, rel=1e-9)

    def test_local_optimality(self, device, coeffs):
        s_at = lambda z: analytic_lb(z, M, TREE, device, coeffs).s_exp
        assert s_at(Z_STAR) <= s_at(Z_STAR * 1.001)
        assert s_at(Z_STAR) <= s_at(Z_STAR * 0.999)

    def test_bracket_insensitive(self, device, coeffs, monkeypatch):
        monkeypatch.setattr(envelope, "_Z_LO", 5e-4)
        monkeypatch.setattr(envelope, "_Z_HI", 5.0)
        wide = optimize_z(M, TREE, device, coeffs)
        assert wide == pytest.approx(Z_STAR, rel=1e-4)

    def test_boundary_minimum_raises(self, device, coeffs, monkeypatch):
        # z* ~ 0.069 lies right of this bracket, so s is decreasing on it
        monkeypatch.setattr(envelope, "_Z_LO", 1e-3)
        monkeypatch.setattr(envelope, "_Z_HI", 0.01)
        with pytest.raises(NoInteriorMinimumError):
            optimize_z(M, TREE, device, coeffs)

    def test_unknown_scheme_raises(self, device, coeffs):
        # a misspelt scheme must not silently score the naive locus
        with pytest.raises(InvalidConfigurationError):
            optimize_z(M, TREE, device, coeffs, scheme="nwe")

    def test_undefined_locus_raises(self, device):
        weak = ChainCoefficients(a_coeff=0.5, b_coeff=1.0, c_coeff=1.0)
        with pytest.raises(LocusInvalidError):
            optimize_z(M, TREE, device, weak)

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("scheme", ["new", "naive"])
    def test_search_s_is_analytic_lb_s(self, device, scheme, depth):
        # the search scores s without P_end or ln q3; at the same z its s has
        # the bits of analytic_lb's, on a scan block of class-7 designs.  A*B^2
        # is below 1 at m = 1, so a fourfold A gives those rows a locus too.
        block = list(iter_designs(7, SearchBounds(depths=(depth,))))[:_BLOCK_DESIGNS]
        m = np.array([mi for mi, _ in block])
        tree = np.array([ti.branches for _, ti in block]).T
        a_coeff = np.array([coefficients_for(mi, 7, device, scheme).a_coeff for mi in m])
        checked_m, over_one = set(), 0
        for gain in (1.0, 4.0):
            coeffs = replace(coefficients_for(1, 7, device, scheme), a_coeff=gain * a_coeff)
            rows = coeffs.ab_squared > 1.0  # optimize_z drops the rest before its scan
            coeffs = replace(coeffs, a_coeff=coeffs.a_coeff[rows])
            design = envelope._columns(m[rows], tree[:, rows], coeffs)
            for z in np.geomspace(1e-3, 3.0, 9):
                z_rows = np.full((rows.sum(), 1), z)
                s = envelope._locus(z_rows, *design, scheme)[2][:, 0]
                probs, _, s_full = envelope._locus(z_rows, *design, scheme, end=True)
                assert s.tobytes() == s_full[:, 0].tobytes()
                ok = probs[2][:, 0] <= 1.0
                assert np.all(s[~ok] == np.inf)
                env = analytic_lb(z_rows[ok, 0], m[rows][ok], tree[:, rows][:, ok], device,
                                  replace(coeffs, a_coeff=coeffs.a_coeff[ok]), scheme=scheme)
                assert s[ok].tobytes() == env.s_exp.tobytes()
                checked_m.update(m[rows][ok].tolist())
                over_one += (~ok).sum()
        assert 1 in checked_m and over_one > 0


class TestSpacing:
    def test_spacing_matches_envelope(self, device, coeffs, env_star):
        assert repeater_spacing(Z_STAR, coeffs, device.alpha) == pytest.approx(
            env_star.l0_km, rel=1e-12
        )
        assert repeater_spacing(1.0, coeffs, device.alpha) == pytest.approx(
            env_star.l0_km / Z_STAR, rel=1e-12
        )

    def test_spacing_unit_needs_gain(self, device):
        weak = ChainCoefficients(a_coeff=0.5, b_coeff=1.0, c_coeff=1.0)
        with pytest.raises(LocusInvalidError):
            repeater_spacing(1.0, weak, device.alpha)


@pytest.fixture(scope="module")
def points(device):
    return numeric_envelope(M, TREE, device, np.linspace(50.0, 600.0, 12))


class TestNumericEnvelope:
    def test_analytic_is_lower_bound(self, points, env_star, device):
        for p in points:
            assert env_star.rate_at(p.l_km, device.alpha) <= p.rate_bits_per_mode

    def test_lower_bound_is_tight_at_z_star(self, points, env_star, device):
        gaps = [
            1.0 - env_star.rate_at(p.l_km, device.alpha) / p.rate_bits_per_mode
            for p in points
        ]
        assert max(gaps) < 0.01

    def test_off_locus_z_is_strictly_worse(self, points, device, coeffs):
        for z in (0.5 * Z_STAR, 2.0 * Z_STAR):
            env = analytic_lb(z, M, TREE, device, coeffs)
            for p in points[2:]:
                assert env.rate_at(p.l_km, device.alpha) < 0.95 * p.rate_bits_per_mode

    def test_integer_maximiser_reported(self, points, device):
        p = points[5]
        cfg = ChainConfig(
            total_range_km=p.l_km, node_count=1, channels=M, tree=TREE, p_cn=0.9
        )
        neighbours = rates_over_n(
            cfg, device, np.array([p.n_opt - 1, p.n_opt, p.n_opt + 1])
        )
        assert neighbours[1] >= neighbours[0]
        assert neighbours[1] >= neighbours[2]

    def test_single_channel_long_range_is_positive(self, device):
        # every chain with few nodes loses everything at this range; those
        # rates are 0, and the scan must still find the maximum further out
        point, _ = numeric_envelope(1, TREE, device, [900.0, 1000.0])
        assert math.isfinite(point.rate_bits_per_mode)
        assert point.rate_bits_per_mode > 0.0
        assert point.n_opt > 1

    def test_spacing_tracks_l0(self, points):
        for p in points[3:]:
            assert p.l_km / p.n_opt == pytest.approx(L0_KM, rel=0.1)

    def test_zero_run_before_the_maximum(self, device):
        # every chain with n <= 520 has rate exactly 0 at 1600 km, yet the
        # maximum lies past n = 14000: no run of zeros may end the search
        tree = BranchingVector((16, 16))
        points = numeric_envelope(16, tree, device, [1600.0, 2000.0])
        assert [p.n_opt for p in points] == [14436, 18045]
        for p in points:
            cfg = ChainConfig(total_range_km=p.l_km, node_count=1, channels=16, tree=tree)
            brute = rates_over_n(cfg, device, np.arange(1.0, 20001.0))
            assert brute[:520].max() == 0.0
            # the continuous maximum sits at or above the integer one
            assert brute.max() <= p.rate_bits_per_mode == pytest.approx(brute.max(), rel=1e-8)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(m=st.integers(1, 8), b0=st.integers(1, 16), b1=st.integers(1, 16),
           l_km=st.floats(1.0, 1500.0))
    def test_n_opt_is_the_integer_argmax(self, device, m, b0, b1, l_km):
        tree = BranchingVector((b0, b1))
        (point,) = numeric_envelope(m, tree, device, [l_km])
        assume(point.rate_bits_per_mode > 0.0)
        cfg = ChainConfig(total_range_km=l_km, node_count=1, channels=m, tree=tree)
        brute = rates_over_n(cfg, device, np.arange(1.0, 20001.0))
        assert point.n_opt == int(np.argmax(brute)) + 1

    def test_one_search_per_range(self, device, monkeypatch):
        # one lockstep search over every range: five _narrow steps over ln n
        # and one read of the five final points, however many ranges there are
        counts = []
        for grid in ([100.0, 300.0, 1000.0], np.arange(50.0, 451.0, 10.0)):
            calls = []
            monkeypatch.setattr(envelope, "_rates_over_n",
                                lambda *args: calls.append(args) or _rates_over_n(*args))
            numeric_envelope(M, TREE, device, grid)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 7

    @pytest.mark.parametrize("m, branches, grid", [
        (M, (7, 3), np.arange(50.0, 451.0, 10.0)),  # the benchmark's 41-range grid
        (16, (16, 16), [1600.0, 2000.0]),
    ], ids=["design_scan", "zero_run"])
    def test_rows_are_independent(self, device, m, branches, grid):
        # the lockstep rows give the bits of one-range calls
        tree = BranchingVector(branches)
        together = numeric_envelope(m, tree, device, grid)
        alone = [numeric_envelope(m, tree, device, [l_km])[0] for l_km in grid]
        bits = [[(p.l_km.hex(), p.rate_bits_per_mode.hex(), p.n_opt) for p in points]
                for points in (together, alone)]
        assert bits[0] == bits[1]

    def test_long_grid_is_searched_in_blocks(self, device, monkeypatch):
        # the lockstep temporaries grow with the rows; a block bounds them
        grid = np.arange(50.0, 451.0, 10.0)
        whole = numeric_envelope(M, TREE, device, grid)
        rows = []
        monkeypatch.setattr(envelope, "_ENVELOPE_ROWS", 4)
        monkeypatch.setattr(envelope, "_rates_over_n",
                            lambda *args: rows.append(len(args[-1])) or _rates_over_n(*args))
        assert numeric_envelope(M, TREE, device, grid) == whole
        assert max(rows) == 4 and sum(rows) <= 7 * len(grid)

    def test_boundary_warns(self, device, monkeypatch):
        monkeypatch.setattr(envelope, "_N_MAX", 2)
        with pytest.warns(UserWarning, match="largest node count scanned, n=2"):
            numeric_envelope(M, TREE, device, [300.0])

    def test_grid_validation(self, device):
        with pytest.raises(InvalidConfigurationError):
            numeric_envelope(M, TREE, device, [])
        with pytest.raises(InvalidConfigurationError):
            numeric_envelope(M, TREE, device, [100.0, 100.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_range_refused_before_any_search(self, device, monkeypatch, bad):
        def no_search(*args, **kw):
            raise AssertionError("searched a grid holding a bad range")

        monkeypatch.setattr(envelope, "_narrow", no_search)
        grid = [100.0, bad]  # the old loop searched 100 km before it met the bad range
        with pytest.raises(InvalidConfigurationError, match="finite and >= 0"):
            numeric_envelope(M, TREE, device, grid)


class TestCrossover:
    def test_analytic_reference(self, env_star, device):
        assert crossover_analytic(env_star, device.alpha) == pytest.approx(
            CROSSOVER_KM, rel=1e-6
        )

    @pytest.mark.filterwarnings("error")
    def test_analytic_asymptotic_branch(self, device):
        # past alpha L > 27 the direct bound is eta / ln 2, so the crossover
        # solves D eta**s = eta / ln 2 exactly
        far = EnvelopeParams(
            z=0.1, q1=0.5, q2=0.5, q3=0.5, d_coeff=1e-3, s_exp=0.8, l0_km=1.0
        )
        want = -math.log(far.d_coeff * math.log(2.0)) / ((1.0 - far.s_exp) * device.alpha)
        assert device.alpha * want > 27.0
        assert crossover_analytic(far, device.alpha) == pytest.approx(want, rel=1e-6)

    def test_numeric_agrees_with_analytic(self, device):
        grid = np.linspace(60.0, 120.0, 25)
        points = numeric_envelope(M, TREE, device, grid)
        l_cross = crossover_distance(points, device.alpha)
        # the numeric envelope sits slightly above the bound, so its
        # crossover lands at or slightly before the analytic one
        assert l_cross == pytest.approx(CROSSOVER_KM, abs=3.0)

    def test_crossover_never_wins(self, device):
        # s >= 1 decays at least as fast as direct transmission
        flat = EnvelopeParams(
            z=0.1, q1=0.5, q2=0.5, q3=0.5, d_coeff=0.5, s_exp=1.2, l0_km=1.0
        )
        with pytest.raises(NoCrossoverError):
            crossover_analytic(flat, device.alpha)

    def test_degenerate_envelope_raises(self, device):
        dead = EnvelopeParams(
            z=0.1, q1=0.0, q2=0.5, q3=0.5, d_coeff=0.0, s_exp=math.inf, l0_km=1.0
        )
        with pytest.raises(NoCrossoverError):
            crossover_analytic(dead, device.alpha)

    def test_no_points_is_config_error(self, device):
        with pytest.raises(InvalidConfigurationError):
            crossover_distance([], device.alpha)

    def test_envelope_above_the_bound_at_the_first_point(self, device):
        # the bound is about 1.44 at 10 km and 0.73 at 20 km: both points win,
        # so the crossover is the grid's first point, with no interpolation
        points = [EnvelopePoint(l_km=10.0, rate_bits_per_mode=5.0, n_opt=3),
                  EnvelopePoint(l_km=20.0, rate_bits_per_mode=4.0, n_opt=6)]
        assert r_direct(10.0, device.alpha) < 5.0
        assert crossover_distance(points, device.alpha) == 10.0
        # D = 100 lies above the bound, about 11 bits, at the scan's first 1e-2 km
        high = EnvelopeParams(z=0.1, q1=0.5, q2=0.5, q3=0.5, d_coeff=100.0, s_exp=0.5, l0_km=1.0)
        assert crossover_analytic(high, device.alpha) == envelope._L_LO

    def test_numeric_no_crossover(self, device):
        points = numeric_envelope(M, TREE, device, [20.0, 30.0])
        with pytest.raises(NoCrossoverError):
            crossover_distance(points, device.alpha)

    def test_direct_bound_beats_envelope_below_crossover(self, env_star, device):
        assert r_direct(50.0, device.alpha) > float(
            env_star.rate_at(50.0, device.alpha)
        )
        assert r_direct(150.0, device.alpha) < float(
            env_star.rate_at(150.0, device.alpha)
        )
