"""Tree-code recovery probabilities: recursion, closed forms, Monte Carlo."""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchain import montecarlo, treecode
from clusterchain.errors import ConfigError, InvalidConfigurationError
from clusterchain.params import DeviceParams, chain_coefficients, derive_constants
from clusterchain.ratemodel import chain_probs
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
        assert tree_size(BranchingVector((4,))) == 5

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

    def test_empty_vector_is_refused(self):
        with pytest.raises(InvalidConfigurationError, match="at least one level"):
            BranchingVector([])


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

    def test_branch_columns_match_one_tree_per_row(self):
        trees = [(4, 2), (7, 3), (2, 16), (1, 1)]
        columns = np.array(trees).T[:, :, None]  # one (designs, 1) column per level
        eps = np.linspace(0.01, 0.6, 9)
        for fn in (p_x_general, p_z_general):
            block = fn(columns, eps)
            for row, tree in zip(block, trees):
                np.testing.assert_array_equal(row, fn(BranchingVector(tree), eps))
        np.testing.assert_array_equal(
            tree_size(np.array(trees).T), [tree_size(BranchingVector(t)) for t in trees]
        )

    def test_branch_columns_reject_counts_below_one(self):
        with pytest.raises(InvalidConfigurationError):
            xi(0, [np.array([3, 0])], 0.1)

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

    @pytest.mark.parametrize("branches,expected", [
        ((1,), ["0.863"]),
        ((7, 3), ["0.9965270421787901", "0.997428647"]),
        ((5, 3, 2), ["0.9999388524670302", "0.9543995575608686", "0.981231"]),
        ((6, 2, 1, 3, 2), ["0.9999753196565996", "0.9797246932186234", "0.8563598705066104",
                           "0.9543995575608686", "0.981231"]),
    ], ids=["1", "7_3", "5_3_2", "6_2_1_3_2"])
    def test_recorded_values(self, branches, expected):
        # recorded when every level of the recursion was still visited
        b = BranchingVector(branches)
        assert [repr(xi(i, b, 0.137)) for i in range(b.depth + 1)] == expected

    def test_recorded_block_values(self):
        columns = (np.array([[3], [7]]), np.array([[2], [3]]), np.array([[2], [1]]))
        eps = np.array([[0.05, 0.3]])
        assert xi(0, columns, eps).tolist() == [[0.9998732103880542, 0.9616284593085095],
                                                [0.9999999980192202, 0.9947420721772321]]
        assert xi(1, columns, eps).tolist() == [[0.979658109375, 0.5683509999999999],
                                                [0.999073140625, 0.8673489999999999]]

    @pytest.mark.parametrize("branches,powers", [((7, 3), 4), ((5, 3, 2), 6)],
                             ids=["depth2", "depth3"])
    def test_chain_probs_visits_each_level_once_per_factor(self, monkeypatch, branches, powers):
        # P_X reads xi_0 and P_Z xi_1, so each level's xi is computed once and
        # raised once more in the level above (in P_Z for the root): 2 per level
        calls = []
        original = treecode._power
        monkeypatch.setattr(treecode, "_power", lambda *args: calls.append(1) or original(*args))
        device = DeviceParams()
        coeffs = chain_coefficients(derive_constants(device), device, 4, 8)
        chain_probs(np.linspace(0.1, 0.9, 5), 4, BranchingVector(branches), coeffs)
        assert len(calls) == powers

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

    def test_stream_is_pinned(self):
        # hit counts recorded from the sampler's random stream; a sampler that
        # draws a different stream would move the statistical checks as well
        b = BranchingVector((7, 3))
        est = mc_measurement_probs(b, 0.1, samples=20_000, seed=5)
        assert (est.p_x, est.p_z) == (19_989 / 20_000, 19_989 / 20_000)
        assert est.p_x_err == est.p_z_err == 0.00016578562965469148
        assert mc_xi(1, b, 0.1, samples=20_000, seed=5) == (19_977 / 20_000, 0.00023965365634598447)

    # (tree, eps, x hits, z hits, p_x_err, p_z_err) at 40000 samples and seed 3,
    # recorded before the kernel held its levels vertex-major, and the (7, 3)
    # rows before it compared raw words; every tree's engine block is 16384
    # trials, so each run spans three blocks
    PINNED = [
        ((7, 3), 0.0, 40_000, 40_000, 0.0, 0.0),
        ((7, 3), 0.1, 39_981, 39_967, 0.0001089465895519455, 0.00014355481313769704),
        ((7, 3), 0.2, 39_018, 39_516, 0.0007737457188896098, 0.0005466623729506175),
        ((7, 3), 1.0, 0, 0, 0.0, 0.0),
        ((5,), 0.0, 40_000, 40_000, 0.0, 0.0),
        ((5,), 0.1, 39_999, 23_569, 2.4999687498073227e-05, 0.0024598724528672213),
        ((5,), 0.5, 38_720, 1_224, 0.0008800000000000004, 0.0008611567801509781),
        ((5,), 1.0, 0, 0, 0.0, 0.0),
        ((1, 15), 0.0, 40_000, 40_000, 0.0, 0.0),
        ((1, 15), 0.1, 7_463, 40_000, 0.0019478499003709193, 0.0),
        ((1, 15), 0.5, 0, 40_000, 0.0, 0.0),
        ((1, 15), 1.0, 0, 0, 0.0, 0.0),
        ((4, 2, 2), 0.0, 40_000, 40_000, 0.0, 0.0),
        ((4, 2, 2), 0.1, 39_994, 38_868, 6.12326506040657e-05, 0.0008291427802254566),
        ((4, 2, 2), 0.5, 34_092, 5_867, 0.0017740117671537585, 0.001768908168723012),
        ((4, 2, 2), 1.0, 0, 0, 0.0, 0.0),
        ((3, 2, 2, 2), 0.0, 40_000, 40_000, 0.0, 0.0),
        ((3, 2, 2, 2), 0.1, 39_952, 39_875, 0.00017310112651279736, 0.0002790714234295606),
        ((3, 2, 2, 2), 0.5, 18_632, 21_270, 0.002494144943663058, 0.002494954596280261),
        ((3, 2, 2, 2), 1.0, 0, 0, 0.0, 0.0),
        ((16, 5), 0.0, 40_000, 40_000, 0.0, 0.0),
        ((16, 5), 0.1, 40_000, 40_000, 0.0, 0.0),
        ((16, 5), 0.5, 8_904, 31_201, 0.002079959374603264, 0.002071147021429189),
        ((16, 5), 1.0, 0, 0, 0.0, 0.0),
    ]

    @pytest.mark.parametrize(
        "branches,eps,x_hits,z_hits,p_x_err,p_z_err", PINNED,
        ids=[f"{','.join(map(str, row[0]))}-eps{row[1]}" for row in PINNED],
    )
    def test_stream_is_pinned_per_tree(self, branches, eps, x_hits, z_hits, p_x_err, p_z_err):
        est = mc_measurement_probs(BranchingVector(branches), eps, samples=40_000, seed=3)
        assert est == treecode.MCMeasurementEstimate(
            p_x=x_hits / 40_000, p_x_err=p_x_err, p_z=z_hits / 40_000, p_z_err=p_z_err
        )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        branches=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        eps=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        samples=st.integers(1, 12),
        key=st.integers(0, 2**64 - 1),
    )
    def test_kernel_matches_per_sample_rule(self, branches, eps, samples, key):
        # the rule written out one sample at a time: a vertex is measurable
        # if it survived or an indirect Z on it succeeds, and an indirect Z
        # succeeds if some child survived with all of its children measurable
        def children(level, v):
            count = branches[level] if level < len(branches) else 0
            return [(level + 1, v * count + c) for c in range(count)]

        def measurable(node):
            return alive[node] or indirect(node)

        def indirect(node):
            return any(alive[c] and all(measurable(g) for g in children(*c)) for c in children(*node))

        b = BranchingVector(branches)
        rng = np.random.Generator(np.random.Philox(key=key))
        levels = [rng.random((samples, w)) >= eps for w in treecode._level_widths(b)]
        x_success, z_success = treecode._simulate_tree(
            b, eps, samples, np.random.Generator(np.random.Philox(key=key))
        )
        for s in range(samples):
            alive = {
                (j, v): bool(level[s, v]) for j, level in enumerate(levels) for v in range(level.shape[1])
            }
            assert x_success[s] == indirect((0, 0))
            assert z_success[s] == all(measurable(c) for c in children(0, 0))

    @pytest.mark.parametrize("eps", [
        0.0, 2.0**-53, 0.1, 0.5, 1.0 - 2.0**-53, 1.0, 3 * 2.0**-55, 0.75 + 2.0**-54,
    ], ids=["0", "2**-53", "0.1", "0.5", "1-2**-53", "1", "3*2**-55", "0.75+2**-54"])
    def test_word_threshold_is_the_uniform_rule(self, eps):
        # a photon survives when w >> 11 reaches the key ceil(eps * 2**53),
        # exactly when its uniform (w >> 11) * 2**-53 is at least eps; the
        # words hold both ends of the range and the two words on either side
        # of the threshold (the last two eps lie between multiples of 2**-53)
        class Words:
            def __init__(self, words):
                self.words = words

            def random_raw(self, size):
                assert size == self.words.size
                return self.words.copy()

        key = math.ceil(eps * 2**53)
        assert int(montecarlo._uniform_keys(eps)) == key
        first = key << 11  # the first surviving word; none at 2**64
        near = [min(max(first + step, 0), 2**64 - 1) for step in (-2, -1, 0, 1)]
        words = np.concatenate([
            np.array([0, 1, 2**11 - 1, 2**11, 2**64 - 2**11, 2**64 - 1, *near], dtype=np.uint64),
            np.random.Generator(np.random.Philox(key=9)).bit_generator.random_raw(14),
        ])
        rng = SimpleNamespace(bit_generator=Words(words.reshape(4, 6)))
        alive = treecode._survivals(rng, 4, 6, eps)
        uniform = (words >> np.uint64(11)) * 2.0**-53
        np.testing.assert_array_equal(alive, (uniform >= eps).reshape(4, 6).T)
        # drawn from a generator, the survivals are those of rng.random()
        got = treecode._survivals(np.random.Generator(np.random.Philox(key=17)), 300, 7, eps)
        want = np.random.Generator(np.random.Philox(key=17)).random((300, 7)) >= eps
        np.testing.assert_array_equal(got, want.T)

    def test_block_memory_is_bounded(self):
        # one full engine block of (16, 5): 16384 trials of 97 photons.  The
        # float64 uniforms of the whole block take 12,713,984 bytes; the
        # sample-major kernel this layout replaced peaked at 12,075,912 bytes
        # (tracemalloc, numpy 2.4), set by the leaf level's uniforms, so the
        # vertex-major bool copies must fit under the float64 footprint
        b = BranchingVector((16, 5))
        samples = 16384
        rng = np.random.Generator(np.random.Philox(key=7))
        tracemalloc.start()
        try:
            treecode._simulate_tree(b, 0.1, samples, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples * tree_size(b) * 8

    def test_xi_is_subtree_p_x(self):
        b = BranchingVector((3, 2, 2))
        sub = mc_measurement_probs(BranchingVector((2, 2)), 0.2, samples=20_000, seed=6)
        assert mc_xi(1, b, 0.2, samples=20_000, seed=6) == (sub.p_x, sub.p_x_err)

    @pytest.mark.parametrize(
        "samples,seed,eps",
        [(10, -1, 0.3), (10, 2**64, 0.3), (0, 0, 0.3), (10, 0, 1.5), (10, 0, -0.1), (10, 0, np.nan)],
        ids=["negative_seed", "seed_2_64", "zero_samples", "eps_above_1", "eps_negative", "eps_nan"],
    )
    def test_invalid_run_is_config_error(self, samples, seed, eps, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before refusing the run")

        monkeypatch.setattr(treecode, "_simulate_tree", no_draw)
        b = BranchingVector((2, 2))
        with pytest.raises(InvalidConfigurationError):
            mc_xi(0, b, eps, samples=samples, seed=seed)
        with pytest.raises(InvalidConfigurationError):
            mc_measurement_probs(b, eps, samples=samples, seed=seed)

    @pytest.mark.parametrize("i", [2, -1])
    def test_mc_xi_index_out_of_range(self, i, monkeypatch):
        # (4, 2) has depths 0 and 1; the index is refused before any draw
        def no_draw(*args):
            raise AssertionError("drew before refusing the index")

        monkeypatch.setattr(treecode, "_simulate_tree", no_draw)
        with pytest.raises(InvalidConfigurationError, match="depth index"):
            mc_xi(i, BranchingVector((4, 2)), 0.1, samples=100)


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
