"""Cluster-factory success models: naive recursion, banked cascade, search."""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterchain import clusterbuild
from clusterchain.clusterbuild import (
    FusionSchedule,
    NaiveMultiplex,
    allocate_ghz_counts,
    build_schedule,
    fusion_probabilities,
    improved_pc1_exact,
    improved_pc1_mc,
    min_sources,
    naive_pc1,
    optimize_naive_multiplex,
    pcn,
    pcn_curve,
)
from clusterchain.errors import (
    CapTooSmallError,
    DesignInfeasibleError,
    InvalidConfigurationError,
    TargetUnreachableError,
)
from clusterchain.params import DeviceParams, derive_constants


PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)
# leaf masks of schedules with 2, 4, 8 or 16 banks
MASKS = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.booleans(), min_size=2**k, max_size=2**k)
)
# schedules over those masks; heavy 1.0 makes one class, values below 1 put
# the measured class first, and dyadic values tie remainders across classes
SCHEDULES = st.builds(
    lambda mask, heavy: FusionSchedule(
        len(mask).bit_length() - 1, tuple(i for i, flagged in enumerate(mask) if flagged), heavy
    ),
    MASKS,
    st.sampled_from([1.0, 0.25, 0.5, 0.7, 1.5, 2.0, 3.0, 1 / 0.7, 7.0]),
)
# (scheme, k, m) of buildable small designs
SMALL_DESIGNS = st.tuples(
    st.sampled_from(["improved", "ghz_primitive"]),
    st.sampled_from([(3, 1), (4, 1), (4, 3), (5, 2)]),
)


def masked_schedule(mask: list[bool], consts) -> FusionSchedule:
    """A schedule with measured leaves where ``mask`` says, weighted as built."""
    return FusionSchedule(
        k=len(mask).bit_length() - 1,
        measured=tuple(i for i, flagged in enumerate(mask) if flagged),
        heavy=1.0 / (consts.p_chip * consts.eta_ghz),
    )


def plain_schedule(k: int) -> FusionSchedule:
    """A schedule with no early-measured photons (hand-oracle scaffolding)."""
    return FusionSchedule(k=k, measured=(), heavy=1.0)


def schedule_weights(sched: FusionSchedule) -> np.ndarray:
    """The per-bank allocation weights a schedule stands for: 1, or ``heavy`` if measured."""
    weights = np.ones(sched.leaf_banks)
    weights[list(sched.measured)] = sched.heavy
    return weights


def largest_remainder_oracle(x, weights) -> np.ndarray:
    """Largest remainder bank by bank: each row sorts its banks' remainders
    and grants one state to each of the first ``x - sum(floors)`` of them."""
    x = np.asarray(x, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    exact = x[:, None] * (weights / weights.sum())[None, :]
    base = np.floor(exact).astype(np.int64)
    deficit = x - base.sum(axis=1)
    order = np.argsort(-(exact - base), axis=1, kind="stable")
    grant = np.arange(weights.size)[None, :] < deficit[:, None]
    increment = np.zeros_like(base)
    np.put_along_axis(increment, order, grant.astype(np.int64), axis=1)
    return base + increment


class TestNaiveMultiplex:
    def test_source_accounting(self):
        # 6 photons per GHZ attempt, doubling per fusion level
        assert NaiveMultiplex(n_b=2, n_ghz=3, n_meas=5).sources(2) == 6 * 15 * 16

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            NaiveMultiplex(n_b=0, n_ghz=1, n_meas=1)


class TestNaivePc1:
    def test_unmultiplexed_hand_formula(self, consts):
        # n_b = n_ghz = n_meas = 1, k = 1: the recursion collapses to the
        # plain product of one GHZ heralding, one fusion, and the survival
        # of the 4m+1 early-measured photons.
        m = 1
        p0 = consts.p_ghz
        q1 = (consts.eta_ghz * consts.p_chip) ** 2 / 2.0
        convert = (consts.eta_ghz * consts.p_chip**2) ** (4 * m + 1)
        expected = p0**2 * q1 * convert
        mux = NaiveMultiplex(n_b=1, n_ghz=1, n_meas=1)
        assert naive_pc1(mux, 1, m, consts) == pytest.approx(expected, rel=1e-12)

    def test_banked_equals_flattened_without_fanout(self, consts):
        # with a single attempt at the last fusion, banking the level-k
        # fragment equals merging that fusion into the conversion stage:
        # P_c1 = 1 - (1 - P_{k-1}**2 * Q_k * P')**n_meas
        mux = NaiveMultiplex(n_b=1, n_ghz=7, n_meas=4)
        p_0 = 1.0 - (1.0 - consts.p_ghz) ** mux.n_ghz
        q_1 = (consts.eta_ghz * consts.p_chip) ** 2 / 2.0
        convert = (consts.eta_ghz * consts.p_chip**2) ** (4 * 2 + 1)
        flattened = 1.0 - (1.0 - p_0**2 * q_1 * convert) ** mux.n_meas
        assert naive_pc1(mux, 1, 2, consts) == pytest.approx(flattened, rel=1e-14)

    def test_monotone_in_each_depth(self, consts):
        base = NaiveMultiplex(n_b=3, n_ghz=10, n_meas=5)
        val = naive_pc1(base, 3, 2, consts)
        for bump in (
            NaiveMultiplex(4, 10, 5),
            NaiveMultiplex(3, 11, 5),
            NaiveMultiplex(3, 10, 6),
        ):
            assert naive_pc1(bump, 3, 2, consts) > val

    def test_bad_k(self, consts):
        with pytest.raises(InvalidConfigurationError):
            naive_pc1(NaiveMultiplex(1, 1, 1), 0, 1, consts)

    @pytest.mark.parametrize("m", [0, -1])
    def test_bad_m(self, consts, m):
        with pytest.raises(InvalidConfigurationError):
            naive_pc1(NaiveMultiplex(1, 1, 1), 3, m, consts)


class TestOptimizeNaive:
    def test_budget_too_small(self, consts):
        assert optimize_naive_multiplex(6 * 2**3 - 1, 3, 1, consts) == (None, 0.0)

    def test_negative_budget(self, consts):
        with pytest.raises(InvalidConfigurationError):
            optimize_naive_multiplex(-6, 3, 1, consts)

    def test_budget_past_int64_is_refused(self, consts):
        # the budget is divided on int64 arrays; 2**63 ended in a raw OverflowError
        assert optimize_naive_multiplex(2**63 - 1, 8, 8, consts)[0] is not None
        for n_s in (2**63, 10**20):
            with pytest.raises(InvalidConfigurationError, match=r"2\*\*63"):
                optimize_naive_multiplex(n_s, 8, 8, consts)
        with pytest.raises(InvalidConfigurationError, match=r"2\*\*63"):
            pcn_curve("naive", 8, 8, 1, consts, [2**63])
        assert pcn_curve("naive", 8, 8, 1, consts, [2**63 - 1]).tolist() == [1.0]

    @pytest.mark.parametrize("m", [0, -1])
    def test_design_without_channels_is_refused(self, consts, m):
        with pytest.raises(InvalidConfigurationError, match="channel count m"):
            optimize_naive_multiplex(10**7, 3, m, consts)
        with pytest.raises(InvalidConfigurationError, match="channel count m"):
            min_sources("naive", 3, m, 10, 0.9, consts)

    def test_budget_check_forms_no_power_of_k(self, consts):
        # 2**(10**20) would not fit in memory; the budget is compared by bit length
        start = time.perf_counter()
        assert optimize_naive_multiplex(600, 10**20, 1, consts) == (None, 0.0)
        assert optimize_naive_multiplex(6 * 2**3, 3, 1, consts)[0] is not None
        assert time.perf_counter() - start < 1.0

    def test_stays_within_budget(self, consts):
        n_s = 10**6
        mux, best = optimize_naive_multiplex(n_s, 3, 2, consts)
        assert mux is not None
        assert mux.sources(3) <= n_s
        assert 0.0 < best <= 1.0
        assert best == pytest.approx(naive_pc1(mux, 3, 2, consts), rel=1e-12)

    def test_beats_sampled_alternatives(self, consts):
        n_s, k, m = 10**6, 3, 2
        _, best = optimize_naive_multiplex(n_s, k, m, consts)
        for g in range(1, 9):
            for meas in range(1, 9):
                budget = n_s // (6 * g * meas)
                if budget < 2**k:
                    continue
                n_b = 1
                while (2 * (n_b + 1)) ** k <= budget:
                    n_b += 1
                rival = naive_pc1(NaiveMultiplex(n_b, g, meas), k, m, consts)
                assert rival <= best + 1e-12

    @PROPERTY
    @given(k=st.integers(1, 12), m=st.sampled_from([1, 2, 4, 8, 16]), scale=st.floats(0.0, 1.0))
    def test_matches_full_grid_oracle(self, consts, k, m, scale):
        # the optimiser runs the level recursion once per run of equal n_b;
        # the oracle runs it on every cell of the [1, 200]**2 grid
        n_s = int(6 * 2**k * (10**15 / (6 * 2**k)) ** scale)
        grid = np.arange(1, 201)
        n_ghz, n_meas = np.meshgrid(grid, grid, indexing="ij")
        n_b = np.zeros(n_ghz.shape, dtype=np.int64)  # the largest with 6 g meas (2 n_b)**k <= n_s
        for g, meas in np.ndindex(n_b.shape):
            budget = n_s // (6 * (g + 1) * (meas + 1))
            root = int(budget ** (1 / k) / 2)
            while (2 * root) ** k > budget:
                root -= 1
            while (2 * (root + 1)) ** k <= budget:
                root += 1
            n_b[g, meas] = root
        p_level = -np.expm1(n_ghz * math.log1p(-consts.p_ghz))
        for level in range(1, k + 1):
            q_l = (consts.eta_ghz * consts.p_chip**level) ** 2 / 2.0
            p_level = -np.expm1(np.maximum(n_b, 1) * np.log1p(-(p_level**2 * q_l)))
        p_convert = (consts.eta_ghz * consts.p_chip ** (k + 1)) ** (4 * m + 1)
        value = -np.expm1(n_meas * np.log1p(-(p_level * p_convert)))
        # the best value, then the largest n_b, then the first cell
        cells = zip(value.ravel().tolist(), n_b.ravel().tolist(), range(0, -n_b.size, -1))
        best, most, first = max(cell for cell in cells if cell[1])
        g, meas = np.unravel_index(-first, n_b.shape)
        want = NaiveMultiplex(int(most), int(n_ghz[g, meas]), int(n_meas[g, meas]))
        assert optimize_naive_multiplex(n_s, k, m, consts) == (want, float(best))

    @pytest.mark.parametrize("k", range(30, 46))
    def test_deep_classes_stay_within_budget(self, consts, k):
        # (2 (n_b + 1))**k passes int64 from k = 32; computed there it would
        # wrap and let n_b = 3 through at k = 32 and n_b = 2 at k = 40
        n_s = 10**15
        mux, _ = optimize_naive_multiplex(n_s, k, 1, consts)
        assert mux.sources(k) <= n_s
        assert NaiveMultiplex(mux.n_b + 1, mux.n_ghz, mux.n_meas).sources(k) > n_s


class TestLargestDepth:
    @PROPERTY
    @given(
        k=st.integers(1, 70),
        n_s=st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 10**6)),
        nudge=st.sampled_from([None, -1, 0, 1]),
        g=st.integers(1, 200),
        meas=st.integers(1, 200),
    )
    # 10**18 - 1 rounds up to the float 10**18, whose root is 2 * 5e8 exactly
    @example(k=2, n_s=6 * 10**18 - 6, nudge=None, g=1, meas=1)
    def test_matches_integer_search(self, k, n_s, nudge, g, meas):
        cost = np.array([6, 6 * g * meas, 6 * 200 * 200])
        if nudge is not None:  # land next to an exact power
            n_b = max(1, round((n_s / (6 * g * meas)) ** (1 / k) / 2))
            n_s = min(2**63 - 1, max(0, 6 * g * meas * (2 * n_b) ** k + nudge))
        want = []
        for c in cost.tolist():
            lo, hi = 0, 1  # c (2 lo)**k fits the budget, c (2 hi)**k does not
            while c * (2 * hi) ** k <= n_s:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if c * (2 * mid) ** k <= n_s else (lo, mid)
            want.append(lo)
        assert clusterbuild._largest_depth(n_s, cost, k).tolist() == want

    def test_huge_class_forms_no_power(self):
        # 2**(10**20) would not fit in memory; from k = 62 no budget admits n_b = 1
        cost = np.array([6, 6 * 200 * 200])
        assert clusterbuild._largest_depth(10**15, cost, 10**20).tolist() == [0, 0]


def grid_search(k, m, n, target_pcn, consts):
    """``min_sources("naive", ...)`` asking the grid optimiser at every count,
    or ``None`` where the target is unreachable."""
    def evaluator(*_):
        def pc1(n_s):
            return optimize_naive_multiplex(n_s, k, m, consts)[1]

        return pc1, lambda n_s, target: pc1(n_s) >= target

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clusterbuild, "_pc1_evaluator", evaluator)
        try:
            return min_sources("naive", k, m, n, target_pcn, consts)
        except TargetUnreachableError:
            return None


class TestNaiveThreshold:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_first_count_the_grid_reaches(self, consts, k):
        for m, target in itertools.product((1, 4, 8), (0.3, 0.9, 0.9995)):
            n_star = clusterbuild._naive_threshold(k, m, consts, target)
            if n_star is None:
                ceiling = clusterbuild._SOURCE_CEILING
                assert optimize_naive_multiplex(ceiling, k, m, consts)[1] < target
                continue
            assert optimize_naive_multiplex(n_star, k, m, consts)[1] >= target
            assert optimize_naive_multiplex(n_star - 1, k, m, consts)[1] < target

    @pytest.mark.parametrize("k,m,n,target_pcn", [
        (1, 1, 1, 0.9), (2, 8, 300, 0.5), (3, 4, 50, 0.9), (5, 1, 250, 0.9),
        (8, 8, 250, 0.9), (10, 2, 10, 0.5), (12, 1, 1, 0.5),
        (12, 8, 300, 0.9), (16, 1, 1, 0.5), (21, 8, 1, 0.5), (10**20, 1, 1, 0.5),
    ])
    def test_search_matches_the_grid_at_every_count(self, consts, k, m, n, target_pcn):
        want = grid_search(k, m, n, target_pcn, consts)
        if want is None:
            with pytest.raises(TargetUnreachableError):
                min_sources("naive", k, m, n, target_pcn, consts)
        else:
            assert min_sources("naive", k, m, n, target_pcn, consts) == want

    def test_search_runs_no_grid(self, consts, monkeypatch):
        def refuse(*_):
            raise AssertionError("the naive search ran the grid optimiser")

        monkeypatch.setattr(clusterbuild, "optimize_naive_multiplex", refuse)
        assert min_sources("naive", 8, 8, 200, 0.9, consts) == 219043332096


class TestAllocation:
    def test_largest_remainder_hand_case(self):
        # shares (1/3, 1/6, 1/3, 1/6) of 19: floors (6,3,6,3) leave one
        # unit, granted to the first of the two largest remainders
        out = allocate_ghz_counts(np.array([19]), FusionSchedule(2, (0, 2), 2.0))
        assert out.tolist() == [[7, 3, 6, 3]]
        # shares (1/8, 3/8, 1/8, 3/8) of 4: every remainder is 0.5, so the
        # two leftover units go to banks 0 and 1, across the two classes
        out = allocate_ghz_counts(np.array([4]), FusionSchedule(2, (1, 3), 3.0))
        assert out.tolist() == [[1, 2, 0, 1]]

    def test_exact_division(self):
        out = allocate_ghz_counts(np.array([8]), plain_schedule(2))
        assert out.tolist() == [[2, 2, 2, 2]]

    def test_rows_sum_to_input(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 500, size=64)
        sched = FusionSchedule(4, tuple(int(i) for i in np.flatnonzero(rng.random(16) < 0.4)), 2.7)
        out = allocate_ghz_counts(x, sched)
        np.testing.assert_array_equal(out.sum(axis=1), x)
        assert (out >= 0).all()

    def test_proportional_within_one_unit(self):
        sched = FusionSchedule(2, (2,), 2.0)
        out = allocate_ghz_counts(np.array([1001]), sched)[0]
        weights = schedule_weights(sched)
        exact = 1001 * weights / weights.sum()
        assert np.max(np.abs(out - exact)) < 1.0

    @PROPERTY
    @given(x=st.lists(st.integers(0, 10**6), min_size=1, max_size=8), sched=SCHEDULES)
    def test_rows_sum_to_x_and_counts_round_their_shares(self, x, sched):
        x, weights = np.array(x), schedule_weights(sched)
        out = allocate_ghz_counts(x, sched)
        np.testing.assert_array_equal(out.sum(axis=1), x)
        floor = np.floor(x[:, None] * (weights / weights.sum())[None, :])
        assert np.isin(out - floor, (0, 1)).all()

    @pytest.mark.parametrize("k, measured, heavy", [(0, (), 1.0), (1, (1,), 0.0), (1, (1,), -2.0),
                                                    (1, (1,), math.nan), (1, (1,), math.inf)],
                             ids=["empty", "zero", "negative", "nan", "inf"])
    def test_bad_weights_are_refused(self, k, measured, heavy):
        # a schedule whose banks cannot be weighed is refused before any
        # allocation: no fusion level (so no bank pair), or a measured-bank
        # weight that is not positive and finite
        with pytest.raises(InvalidConfigurationError):
            allocate_ghz_counts(np.array([5]), FusionSchedule(k, measured, heavy))

    @PROPERTY
    @given(
        x=st.lists(st.one_of(st.integers(0, 12), st.integers(0, 10**7)), min_size=1, max_size=24),
        sched=SCHEDULES,
    )
    def test_matches_bank_by_bank_oracle(self, x, sched):
        x = np.array(x)
        out = allocate_ghz_counts(x, sched)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, largest_remainder_oracle(x, schedule_weights(sched)))

    @pytest.mark.parametrize("sched", [FusionSchedule(2, (1, 3), 3.0)], ids=["two_classes"])
    def test_remainders_tied_across_classes_match_oracle(self, sched):
        # shares are multiples of 1/8, so remainders tie exactly across
        # classes and the leftover states go to the tied banks in index
        # order whatever their class
        x = np.arange(200)
        out = allocate_ghz_counts(x, sched)
        np.testing.assert_array_equal(out, largest_remainder_oracle(x, schedule_weights(sched)))

    @pytest.mark.parametrize("k", range(3, 11))
    def test_matches_oracle_on_built_schedules(self, consts, k):
        # m = k - 2 covers the k = 9, m = 7 and k = 10, m = 8 searches
        sched = build_schedule(k, min(k - 2, (2**k - 1) // 4), consts)
        weights = schedule_weights(sched)
        x = np.arange(0, 300_000, 7)
        for rows in np.array_split(x, max(1, x.size * 2**k // 2**21)):
            np.testing.assert_array_equal(
                allocate_ghz_counts(rows, sched), largest_remainder_oracle(rows, weights)
            )

    @pytest.mark.parametrize("k", range(3, 9))
    def test_float_plan_bounds_every_bank_by_its_floors(self, consts, k):
        # the exact search's bracket rests on two facts about the float plan,
        # which the exact factory and the Monte Carlo share, at any x below
        # 2**63: no floor falls as x grows, and every bank holds its floor or
        # one more.  x is drawn log-uniformly up to 2**62 and uniformly over
        # [1.39e10, 2e12], where the float floors part from exact-rational
        # ones, with a run of 64 consecutive x at every 20th draw.
        rng = np.random.default_rng(k)
        draws = np.concatenate([2.0 ** rng.uniform(0, 62, 400), rng.uniform(1.39e10, 2e12, 400)])
        starts = np.unique(draws.astype(np.int64))
        runs = starts[::20, None] + np.arange(64)
        x = np.unique(np.concatenate([[0, 2**62], starts, runs.ravel()]))
        for m in (1, (2**k - 1) // 4):
            sched = build_schedule(k, m, consts)
            floors = clusterbuild._plan(x, sched).floors
            assert (np.diff(floors, axis=0) >= 0).all()
            floors = floors[:, clusterbuild._bank_class(sched)]
            counts = allocate_ghz_counts(x, sched)
            assert ((floors <= counts) & (counts <= floors + 1)).all()

    @PROPERTY
    @given(
        km=st.sampled_from([(k, m) for k in range(3, 13)
                            for m in (1, min(k - 2, (2**k - 1) // 4))]),
        hand=SCHEDULES,  # some with an empty class
        x=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 10**7)), min_size=1, max_size=16),
    )
    # no measured bank: the empty class's floor, 1024, is no bank's count
    @example(km=(3, 1), hand=FusionSchedule(1, (), 2.0), x=[1024])
    def test_plan_largest_equals_dense_row_max(self, consts, km, hand, x):
        for sched in (build_schedule(*km, consts), hand):
            plan = clusterbuild._plan(np.array(x), sched)
            dense = plan.dense(clusterbuild._bank_class(sched))
            np.testing.assert_array_equal(plan.largest(), dense.max(axis=1))


class TestSchedule:
    def test_measured_leaves_spread(self, consts):
        sched = build_schedule(3, 1, consts)
        assert sched.leaf_banks == 8
        # floor(i * 8 / 5) for i = 0..4
        assert sched.measured == (0, 1, 3, 4, 6)
        assert sched.heavy == 1.0 / (consts.p_chip * consts.eta_ghz)
        # k and at most 4m + 1 positions: the schedule does not grow with 2**k
        assert build_schedule(21, 8, consts).measured == tuple(i * 2**21 // 33 for i in range(33))
        assert hash(sched) == hash(build_schedule(3, 1, consts))

    def test_infeasible_design(self, consts):
        with pytest.raises(DesignInfeasibleError):
            build_schedule(2, 1, consts)  # 5 measured photons, 4 leaves

    def test_bad_m(self, consts):
        with pytest.raises(InvalidConfigurationError):
            build_schedule(3, 0, consts)

    def test_schedule_validation(self):
        for k, measured, heavy in [
            # positions that are not a flat tuple of integers
            (2, ((0, 1),), 2.0), (2, (0.5,), 2.0),
            # out of range, unsorted, duplicated
            (2, (4,), 2.0), (2, (-1, 2), 2.0), (2, (3, 1), 2.0), (2, (1, 1), 2.0),
            # a measured-bank weight that is not positive and finite
            (1, (0,), 0.0), (1, (0,), -1.0), (1, (0,), math.nan), (1, (0,), math.inf),
            # finite weights whose sum overflows
            (1, (0, 1), 1e308), (2, (0, 1, 3), 1e308),
            # fewer than one or more than 21 fusion levels, refused before 2**k is formed
            (0, (), 1.0), (22, (0,), 2.0), (64, (0, 5), 1.02), (1024, (), 1.0),
        ]:
            with pytest.raises(InvalidConfigurationError):
                FusionSchedule(k=k, measured=measured, heavy=heavy)

    @pytest.mark.parametrize("beta", [4.7e5, 5e5], ids=["weight_overflows", "product_underflows"])
    def test_vanishing_thinning_survival_is_refused(self, beta):
        # p_chip = exp(-beta tau_s c_ch) is subnormal at 4.7e5 and 0 at 5e5
        consts = derive_constants(DeviceParams(beta=beta))
        with pytest.raises(InvalidConfigurationError, match=r"p_chip \* eta_ghz"):
            build_schedule(5, 1, consts)

    def test_fusion_probabilities(self, consts):
        probs = fusion_probabilities(2, consts)
        assert probs[0] == pytest.approx(
            (consts.eta_ghz * consts.p_chip**2) ** 2 * consts.boosted_pair_factor,
            rel=1e-14,
        )
        assert probs[1] == pytest.approx(
            (consts.eta_ghz * consts.p_chip**3) ** 2 * consts.boosted_pair_factor,
            rel=1e-14,
        )
        assert probs[0] > probs[1]  # deeper levels pay more feed-forward


class TestExactPropagation:
    def test_two_bank_hand_oracle(self, consts):
        # deterministic 5 GHZ states split (3, 2); the single fusion sees
        # min(3, 2) = 2 attempts, so P = 1 - (1 - p_1)^2
        p1 = fusion_probabilities(1, consts)[0]
        got = improved_pc1_exact(5, plain_schedule(1), consts, ghz_source=True)
        assert got == pytest.approx(1.0 - (1.0 - p1) ** 2, rel=1e-12)

    @pytest.mark.parametrize("fusion_probs", [None, (0.6, 0.45)],
                             ids=["model", "custom"])
    def test_two_level_enumeration_oracle(self, consts, fusion_probs):
        # 11 deterministic GHZ states on weights (2, 1, 1, 2) with the outer
        # banks measured: shares (11/3, 11/6, 11/6, 11/3) floor to (3, 1, 1, 3)
        # and the three leftover states go to the largest remainders.
        sched = FusionSchedule(k=2, measured=(0, 3), heavy=2.0)
        counts = (4, 2, 2, 3)
        alloc = allocate_ghz_counts(np.array([11]), sched)
        assert alloc.tolist() == [list(counts)]
        thin = consts.p_chip * consts.eta_ghz
        p1, p2 = fusion_probs or fusion_probabilities(2, consts)

        def pmf(j, n, p):
            return math.comb(n, j) * p**j * (1.0 - p) ** (n - j)

        expected = 0.0
        for t0, t3 in itertools.product(range(counts[0] + 1), range(counts[3] + 1)):
            left, right = min(t0, counts[1]), min(counts[2], t3)
            for a, b in itertools.product(range(left + 1), range(right + 1)):
                weight = (
                    pmf(t0, counts[0], thin) * pmf(t3, counts[3], thin)
                    * pmf(a, left, p1) * pmf(b, right, p1)
                )
                top = min(a, b)
                expected += weight * sum(pmf(r, top, p2) for r in range(1, top + 1))
        got = improved_pc1_exact(
            11, sched, consts, ghz_source=True, fusion_probs=fusion_probs
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_result_outside_error_budget_raises(self, consts, monkeypatch):
        # doubling every level matrix pushes P_c1 well above 1; the result
        # must be refused, not clamped
        original = clusterbuild._survival_matrix
        monkeypatch.setattr(
            clusterbuild, "_survival_matrix", lambda *args: 2.0 * original(*args)
        )
        with pytest.raises(ArithmeticError):
            improved_pc1_exact(5, plain_schedule(1), consts, ghz_source=True)
        # an early decision checks its bounds too: the window's end rows,
        # before any block, and where they settle nothing, the partial sum:
        # 6e5 sources span five blocks, and the first one settles a target of 0.5
        factory = clusterbuild._ExactFactory(plain_schedule(3), consts, False, None, None)
        with pytest.raises(ArithmeticError):
            factory.feasible(600_000, 0.5)
        assert len(factory.blocks) == 0
        monkeypatch.setattr(clusterbuild._ExactFactory, "_end_rows",
                            lambda self, ends: (0.0, 1.0, 0.0))
        with pytest.raises(ArithmeticError):
            factory.feasible(600_000, 0.5)
        assert len(factory.blocks) == 1

    def test_perfect_fusions_reduce_to_allocation(self, consts):
        got = improved_pc1_exact(
            5, plain_schedule(1), consts, ghz_source=True, fusion_probs=[1.0]
        )
        assert got == pytest.approx(1.0)

    def test_monotone_in_sources(self, consts):
        sched = build_schedule(3, 1, consts)
        values = [improved_pc1_exact(n_s, sched, consts) for n_s in (600, 1200, 2400)]
        assert values[0] < values[1] < values[2]

    def test_zero_below_one_attempt(self, consts):
        assert improved_pc1_exact(5, build_schedule(3, 1, consts), consts) == 0.0

    def test_cap_too_small(self, consts):
        with pytest.raises(CapTooSmallError):
            improved_pc1_exact(10, plain_schedule(1), consts, cap=3, ghz_source=True)

    def test_generous_cap_matches_default(self, consts):
        sched = build_schedule(3, 1, consts)
        assert improved_pc1_exact(2000, sched, consts, cap=400) == improved_pc1_exact(
            2000, sched, consts
        )

    @pytest.mark.parametrize("mask", [[True, False], [True, False, False, True]],
                             ids=["k1", "k2"])
    def test_attempts_average_ghz_source_results(self, consts, mask):
        # 360 sources make 60 GHZ attempts; given x heralded states the
        # factory is the GHZ-source factory at x, weighted by Bin(60, p_ghz)
        sched = masked_schedule(mask, consts)
        p = consts.p_ghz
        expected = sum(
            math.comb(60, x) * p**x * (1.0 - p) ** (60 - x)
            * improved_pc1_exact(x, sched, consts, ghz_source=True)
            for x in range(61)
        )
        assert abs(improved_pc1_exact(360, sched, consts) - expected) <= 1e-12

    def test_wrong_probability_count(self, consts):
        with pytest.raises(InvalidConfigurationError):
            improved_pc1_exact(
                100, plain_schedule(2), consts, fusion_probs=[0.5], ghz_source=True
            )

    @pytest.mark.parametrize("bad", [-0.2, math.nan, 1.5])
    def test_probability_outside_unit_interval(self, consts, bad):
        with pytest.raises(InvalidConfigurationError, match=r"\[0, 1\]"):
            improved_pc1_exact(6000, build_schedule(3, 1, consts), consts,
                               fusion_probs=[bad, 0.5, 0.5])

    def test_bank_count_beyond_limit_is_refused(self, consts, monkeypatch):
        # 1e13 sources grant one k=5 bank about 1.7e9 states; the refusal
        # must come before any matrix of that size is asked for
        built = []
        original = clusterbuild._survival_matrix
        monkeypatch.setattr(
            clusterbuild, "_survival_matrix", lambda *args: built.append(args) or original(*args)
        )
        with pytest.raises(InvalidConfigurationError, match="--method mc"):
            improved_pc1_exact(10**13, build_schedule(5, 1, consts), consts)
        assert built == []

    def test_k21_call_holds_no_block_wide_array(self, consts):
        # 2**21 leaf banks: one block's dense (257, 2**21) int64 counts alone
        # would take 4 GiB, and the bank weights 16 MiB; numbered from the
        # allocation plan, with the shares' sum in closed form, the call
        # holds no array as wide as the banks
        tracemalloc.start()
        try:
            assert improved_pc1_exact(600, build_schedule(21, 1, consts), consts) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("k, n_s, expected", [
        (12, 450_000_000, 0.9658702434852504), (13, 10**9, 0.8675254920981923),
    ], ids=["k12", "k13"])
    def test_exact_path_never_forms_dense_counts(self, consts, monkeypatch, k, n_s, expected):
        # the subtrees are numbered from the plan; the (257, 2**k) counts
        # are allocate_ghz_counts' alone.  The values were recorded on one BLAS
        # thread; from k = 12 the level matmuls are large enough to be split
        # over threads, which moves the last bits (0.9658702434852512 and
        # 0.8675254920982012 on two)
        def refuse(self, bank_class):
            raise AssertionError("the exact factory formed the dense counts")

        monkeypatch.setattr(clusterbuild._Plan, "dense", refuse)
        got = improved_pc1_exact(n_s, build_schedule(k, 8, consts), consts)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("sched, n_s, ghz_source, expected", [
        (FusionSchedule(1, (0, 1), 2.0), 10, True, "0.9962729423337437"),
        (FusionSchedule(2, (), 2.0), 600, False, "0.14197151289817364"),
    ], ids=["no_light_bank", "no_measured_bank"])
    def test_schedule_with_an_empty_class(self, consts, sched, n_s, ghz_source, expected):
        # recorded while every subtree was numbered from the dense counts
        got = improved_pc1_exact(n_s, sched, consts, ghz_source=ghz_source)
        assert repr(got) == expected

    def test_cap_check_stays_within_row_memory(self, consts):
        # the cap check reads each row's largest count from the allocation
        # plan; a dense (window x 2**k) allocation peaked at 7.5 times the
        # same call without a cap
        sched = build_schedule(10, 8, consts)

        def peak(**kwargs) -> tuple[float, int]:
            tracemalloc.start()
            try:
                value = improved_pc1_exact(90_000_000, sched, consts, **kwargs)
                return value, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain, plain_peak = peak()
        capped, capped_peak = peak(cap=4096)
        assert capped == plain
        assert capped_peak < 2 * plain_peak

    def test_largest_count_in_use_is_admitted(self, consts):
        # 20000 GHZ sources grant the k=3, m=1 heavy banks 2520 states each
        sched = build_schedule(3, 1, consts)
        assert allocate_ghz_counts(np.array([20000]), sched).max() == 2520
        assert improved_pc1_exact(20000, sched, consts, ghz_source=True) == pytest.approx(1.0)


class TestRecordedOutputs:
    """Outputs recorded before the allocation and the subtree numbering
    stopped sorting; both must keep every bit."""

    @pytest.mark.parametrize("k,n_s,expected", [
        (7, 2_700_000, "0.9976651563569179"),
        (7, 3_300_000, "0.9996223877990926"),
        (9, 21_000_000, "0.9918700042037257"),
        (9, 26_000_000, "0.9985048972923102"),
    ], ids=["k7_low", "k7_high", "k9_low", "k9_high"])
    def test_exact_pc1(self, consts, k, n_s, expected):
        assert repr(improved_pc1_exact(n_s, build_schedule(k, 4, consts), consts)) == expected

    def test_monte_carlo_stream(self, consts):
        # recorded when the thinning and the cascade began drawing by inversion
        got = improved_pc1_mc(3_600_000, build_schedule(7, 4, consts), consts, trials=20000, seed=5)
        assert got == (0.9999, 7.070714249635216e-05)

    def test_one_trial_slice_stream(self, consts):
        # recorded before the weight classes were found once per call; from
        # k = 18 up every slice is one trial
        got = improved_pc1_mc(10**11, build_schedule(18, 1, consts), consts, trials=20, seed=1)
        assert got == (0.25, 0.09682458365518543)

    @pytest.mark.parametrize("n_s,k,m,trials,seed,expected", [
        (2 * 10**8, 11, 8, 300, 3, (0.9833333333333333, 0.007391185942027828)),
        (2_700_000, 7, 4, 20000, 4, (0.9975, 0.0003531111722956346)),
        (22_000_000, 9, 4, 5000, 6, (0.9954, 0.000956957679315031)),
        (4_200_000, 7, 4, 50_000, 13, (0.99998, 1.9999799999009992e-05)),
        (2**35, 3, 1, 50, 2, (1.0, 0.0)),
    ], ids=["k11_thinning_on_numpy", "k7", "k9", "k7_high", "int64_counts"])
    def test_monte_carlo_streams(self, consts, n_s, k, m, trials, seed, expected):
        # recorded before the inversion guide took one int32 gather per draw
        # and the slice counts went int32, and the last two before the
        # samplers read raw words; at k = 11 the thinning draws with
        # rng.binomial and the levels by inversion.  With the k = 7 row here
        # and in test_monte_carlo_stream, each of the benchmark's three k = 7
        # strata has a row; 2**35 sources hold the leaf counts in int64
        assert improved_pc1_mc(n_s, build_schedule(k, m, consts), consts, trials=trials,
                               seed=seed) == expected

    @pytest.mark.parametrize("sched,n_s,trials,seed,expected", [
        ((5, 3), 288, 3000, 5, (0.357, 0.00874739961359946)),
        (FusionSchedule(2, (0,), 1000.0), 2400, 4000, 7, (0.6895, 0.0073159030543057365)),
    ], ids=["k5", "thinning_on_numpy"])
    def test_ghz_source_streams(self, consts, sched, n_s, trials, seed, expected):
        # recorded before the samplers read raw words and the slice stopped
        # forming the dense bank counts; the heavy bank of the hand schedule
        # holds about 2400 states, so its thinning draws with rng.binomial
        # and its levels by inversion
        if isinstance(sched, tuple):
            sched = build_schedule(*sched, consts)
        assert improved_pc1_mc(n_s, sched, consts, trials=trials, seed=seed,
                               ghz_source=True) == expected

    @pytest.mark.parametrize("k,m,expected", [(7, 4, 3268608), (8, 5, 9928704)], ids=["k7", "k8"])
    def test_min_sources(self, consts, k, m, expected):
        assert min_sources("improved", k, m, 250, 0.9, consts, method="exact") == expected


    @pytest.mark.parametrize("scheme,k,m,n,expected", [
        ("improved", 7, 4, 313, 3342336), ("improved", 10, 8, 300, 90439680),
        ("ghz_primitive", 7, 4, 300, 17376), ("naive", 8, 8, 200, 219043332096),
    ], ids=["improved_k7", "improved_k10", "ghz_primitive_k7", "naive_k8"])
    def test_search_counts(self, consts, scheme, k, m, n, expected):
        # the benchmark's source searches, recorded before the exact
        # evaluations were decided early and before the naive search was
        # answered from one source threshold
        assert min_sources(scheme, k, m, n, 0.9, consts, method="exact") == expected

class TestLevelCut:
    @pytest.mark.parametrize("k,m,n_s", [(7, 4, 3_300_000), (5, 1, 60_000), (9, 4, 22_000_000)],
                             ids=["k7", "k5", "k9"])
    def test_looser_cut_stays_within_its_budget(self, consts, monkeypatch, k, m, n_s):
        sched = build_schedule(k, m, consts)
        factory = clusterbuild._ExactFactory(sched, consts, False, None, None)
        default = factory.pc1(n_s)
        # each of the 2**k - 1 fusions drops at most _LEVEL_CUT of survival
        assert all(cut <= 2**k * clusterbuild._LEVEL_CUT for _, _, cut in factory.blocks.values())
        for level_cut in (1e-6, 1e-3):
            monkeypatch.setattr(clusterbuild, "_LEVEL_CUT", level_cut)
            loose = clusterbuild._ExactFactory(sched, consts, False, None, None)
            value = loose.pc1(n_s)
            # lumping only understates success, by no more than the cut charged
            assert value <= default
            assert default - value <= max(cut for _, _, cut in loose.blocks.values())


class TestBinomialKernels:
    def test_survival_matrix_matches_comb_oracle(self, consts):
        for p in [consts.p_chip * consts.eta_ghz, *fusion_probabilities(3, consts)]:
            matrix = clusterbuild._survival_matrix(60, p)
            assert matrix[0, 0] == 1.0 and not matrix[0, 1:].any() and not matrix[1:, 0].any()
            for y, c in itertools.product(range(1, 61), repeat=2):
                oracle = p * math.comb(y - 1, c - 1) * p ** (c - 1) * (1.0 - p) ** (y - c)
                assert matrix[y, c] == pytest.approx(oracle, rel=1e-13, abs=0.0)
            # a smaller matrix is the top-left corner of a larger one
            assert np.array_equal(clusterbuild._survival_matrix(40, p), matrix[:41, :41])

    def test_grown_matrix_equals_fresh_build(self, consts):
        for p in [consts.p_chip * consts.eta_ghz, *fusion_probabilities(3, consts), 0.0, 0.5, 1.0]:
            grown = None
            for size in (0, 1, 7, 8, 40, 130):
                grown = clusterbuild._survival_matrix(size, p, grown)
                assert np.array_equal(grown, clusterbuild._survival_matrix(size, p))
        # the factory grows its held matrix in steps with a quarter headroom
        factory = clusterbuild._ExactFactory(plain_schedule(2), consts, True, None, None)
        for n in (3, 10, 11, 90):
            assert np.array_equal(factory._matrix(0.7, n), clusterbuild._survival_matrix(n, 0.7))
        held = factory.matrices[0.7]
        assert len(held) == 90 * 5 // 4 + 1
        assert np.array_equal(held, clusterbuild._survival_matrix(len(held) - 1, 0.7))

    @PROPERTY
    @given(n=st.integers(1, 200), p=st.floats(0.0, 1.0), c=st.integers(0, 201))
    def test_tail_bound_is_an_upper_bound(self, n, p, c):
        tail = sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(c, n + 1))
        # the bound is attained at c = n (it is p**n there), so allow roundoff
        assert clusterbuild._upper_tail(n, p, c) >= tail * (1.0 - 1e-12)


def comb_pmf(n: int, p: float) -> list[float]:
    return [math.comb(n, c) * p**c * (1.0 - p) ** (n - c) for c in range(n + 1)]


def comb_cdf_exact(n: int, p: float) -> list[float]:
    """``P[Bin(n, p) <= c]`` for ``c < n`` in exact rationals, rounded once.

    ``p = a / d`` exactly as a float, so each partial sum is an integer over
    ``d**n`` and one correctly rounded integer division gives the float.
    """
    a, d = Fraction(p).as_integer_ratio()
    return [total / d**n for total in itertools.accumulate(
        math.comb(n, c) * a**c * (d - a) ** (n - c) for c in range(n)
    )]


def chi_square_limit(dof: int) -> float:
    """Wilson-Hilferty upper quantile of chi-square with ``dof`` degrees, z = 4."""
    return dof * (1.0 - 2.0 / (9 * dof) + 4.0 * math.sqrt(2.0 / (9 * dof))) ** 3


def uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform ``Generator.random()`` makes of each raw 64-bit word."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


def words_around(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each ``x`` in ``[0, 1)``, the last word whose uniform is at or below
    it (every low bit set) and the first whose uniform is at or above it;
    both are ``x``'s own uniform when ``x`` is a multiple of ``2**-53``."""
    scaled = np.asarray(x) * 2.0**53  # exact
    low = np.uint64(2**11 - 1)
    return ((np.floor(scaled).astype(np.uint64) << np.uint64(11)) | low,
            np.ceil(scaled).astype(np.uint64) << np.uint64(11))


class TestInverseBinomial:
    """The banked Monte Carlo's binomial sampler: CDF rows, guide, fallback."""

    @pytest.mark.parametrize("p", [0.031, 0.3, 0.69, 0.9792747163170544])
    def test_cdf_rows_within_stated_rounding(self, p):
        # up to 511, the widest row the table builds
        values = np.array([0, 1, 2, 17, 150, 333, 475, 511])
        rows = clusterbuild._binomial_cdf_rows(values, p)
        assert rows.shape == (values.size, values.max() + 1)
        for n, row in zip(values, rows):
            np.testing.assert_allclose(row[:n], comb_cdf_exact(int(n), p), rtol=0.0, atol=2e-15)
            assert np.all(row[n:] == 2.0)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.69, 0.9792747163170544, 1.0])
    def test_draws_follow_comb_pmf(self, p):
        sizes = [0, 1, 2, 7, 40, 150]
        n = np.repeat(sizes, 20_000)
        np.random.default_rng(11).shuffle(n)  # mixed counts in one array
        draws = clusterbuild._InverseBinomial(p).draw(n.reshape(400, -1), np.random.default_rng(5))
        draws = draws.ravel()
        for size in sizes:
            observed = np.bincount(draws[n == size], minlength=size + 1)
            assert observed.size == size + 1  # no draw above n
            expected = 20_000 * np.array(comb_pmf(size, p))
            big = expected >= 5.0
            if big.sum() < 2:  # a point mass, or nearly one
                assert observed[expected.argmax()] >= 20_000 - 5
                continue
            obs = np.append(observed[big], observed[~big].sum())
            exp = np.append(expected[big], expected[~big].sum())
            keep = exp > 0
            chi2 = float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum())
            assert chi2 < chi_square_limit(int(keep.sum()) - 1), (size, chi2)

    @PROPERTY
    @given(
        batches=st.lists(st.lists(st.integers(0, 511), min_size=1, max_size=40),
                         min_size=1, max_size=3),
        p=st.sampled_from([0.0, 0.031, 0.5, 0.69, 0.9792747163170544, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batches=[[0, 1, 150], [511, 2, 0]], p=0.69, seed=0)
    def test_guide_matches_per_row_searchsorted(self, batches, p, seed):
        # several batches grow the cached table, up to 511, the widest it
        # builds; the words include both ends of the word range, the first
        # and last word of a bucket, and the two words whose uniforms bracket
        # a CDF entry, where ties count as passed
        inverse = clusterbuild._InverseBinomial(p)
        rng = np.random.default_rng(seed)
        for batch in batches:
            n = np.array(batch)
            inverse.draw(n, rng)  # grows the table to max(batch)
            alone = [clusterbuild._binomial_cdf_rows(np.array([v]), p)[0] for v in batch]
            words = rng.bit_generator.random_raw(n.size)
            firsts = rng.integers(0, inverse.buckets, n.size, dtype=np.uint64) << np.uint64(
                inverse.shift)
            ties = np.array([row[rng.integers(0, row.size)] for row in alone])
            at_or_below, at_or_above = (np.where(ties < 1.0, around, words)
                                        for around in words_around(np.where(ties < 1.0, ties, 0.0)))
            ends = (np.zeros(n.size, dtype=np.uint64), np.full(n.size, 2**64 - 1, dtype=np.uint64))
            for trial in (words, firsts, firsts - np.uint64(1), at_or_below, at_or_above, *ends):
                got = inverse.invert(n, trial)
                want = [np.searchsorted(row, x, side="right")
                        for row, x in zip(alone, uniforms(trial))]
                assert got.tolist() == want

    @pytest.mark.parametrize("p", [0.0, 0.031, 0.69, 0.9792747163170544, 1.0])
    @pytest.mark.parametrize("top", [0, 1, 150, 511])
    def test_encoded_guide_answers_as_the_two_column_guide(self, p, top):
        # the two-column guide holds, per row and bucket, the count of
        # entries at or below the bucket's lower and upper edge; the encoded
        # one keeps the lower count where the two agree and -1 elsewhere, and
        # row r's keys are its entries' ceil(entry * 2**53), at most 2**53,
        # plus r << 54
        inverse = clusterbuild._InverseBinomial(p)
        inverse._build(top)
        cdf = clusterbuild._binomial_cdf_rows(np.arange(top + 1), p)
        edges = np.arange(inverse.buckets + 1) / inverse.buckets
        two = np.array([np.searchsorted(row, edges, side="right") for row in cdf])
        lower, upper = two[:, :-1], two[:, 1:]
        code = inverse.guide.reshape(top + 1, inverse.buckets)
        assert code.dtype == np.int16
        np.testing.assert_array_equal(code, np.where(lower == upper, lower, -1))
        assert inverse.keys.tolist() == [(r << 54) + min(math.ceil(entry * 2**53), 2**53)
                                         for r, row in enumerate(cdf) for entry in row]
        # its answer is the count of the row's entries at or below the word's
        # uniform; the words hold each bucket's first and last word
        rng = np.random.default_rng(top)
        firsts = np.arange(inverse.buckets, dtype=np.uint64) << np.uint64(inverse.shift)
        lasts = firsts + (firsts[1] - np.uint64(1))
        words = np.concatenate([rng.bit_generator.random_raw(3000), firsts, lasts,
                                np.array([0, 2**64 - 1], dtype=np.uint64)])
        u = uniforms(words)
        n = rng.integers(0, top + 1, u.size)
        bucket = (words >> np.uint64(inverse.shift)).astype(int)
        assert np.array_equal(bucket, (u * inverse.buckets).astype(int))  # the word's top bits
        got = inverse.invert(n, words)
        assert got.tolist() == [np.searchsorted(cdf[row], x, side="right") for row, x in zip(n, u)]
        settled = lower[n, bucket] == upper[n, bucket]
        np.testing.assert_array_equal(got[settled], lower[n, bucket][settled])

    def test_table_past_the_cell_budget_falls_back_to_numpy(self, consts, monkeypatch):
        # 511 is the last count whose 0..n table fits the cell budget, 512 the
        # first that does not; at 1e12 no count-sized array is allocated either
        inverse = clusterbuild._InverseBinomial(0.69)
        n = np.array([[511, 3], [0, 7]])
        got = inverse.draw(n, np.random.default_rng(8))
        words = np.random.default_rng(8).bit_generator.random_raw(n.size)
        assert np.array_equal(got.ravel(), inverse.invert(n, words))
        for n in ([[512, 3], [0, 7]], [[10**6, 10**6 + 3], [10**6 + 1, 0]], [[10**12, 10**12 - 1]]):
            n = np.array(n)
            got = clusterbuild._InverseBinomial(0.69).draw(n, np.random.default_rng(8))
            assert np.array_equal(got, np.random.default_rng(8).binomial(n, 0.69))
        # deterministic GHZ states of about 3e5 per bank take the fallback at
        # every level of a whole Monte Carlo run
        def refuse(self, n, words):
            raise AssertionError("no table fits the cell budget")

        monkeypatch.setattr(clusterbuild._InverseBinomial, "invert", refuse)
        sched = build_schedule(3, 1, consts)
        assert improved_pc1_mc(3_000_000, sched, consts, trials=64, ghz_source=True) == (1.0, 0.0)


def dense_subtrees(plan, sched: FusionSchedule, cap: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Each level's distinct subtree keys and each row's root id, numbered by
    ``np.unique`` over the dense ``(rows, 2**k)`` counts, bank by bank."""
    bank_class = clusterbuild._bank_class(sched)
    keys = 2 * np.minimum(plan.dense(bank_class), cap) + bank_class
    levels = []
    while True:
        distinct, ids = np.unique(keys, return_inverse=True)
        levels.append(distinct)
        ids = ids.reshape(keys.shape)
        if ids.shape[1] == 1:
            return levels, ids[:, 0]
        keys = ids[:, 0::2] * len(distinct) + ids[:, 1::2]


# schedules of up to 64 banks, any measured positions (none, or all, among them)
WIDE_SCHEDULES = st.builds(
    lambda mask, heavy: FusionSchedule(
        len(mask).bit_length() - 1, tuple(i for i, flagged in enumerate(mask) if flagged), heavy
    ),
    st.integers(1, 6).flatmap(lambda k: st.lists(st.booleans(), min_size=2**k, max_size=2**k)),
    st.sampled_from([1.0, 0.5, 0.7, 2.0, 3.0, 1 / 0.7, 1 / 0.9704]),
)


def assert_numbering_is_dense(sched: FusionSchedule, start: int, rows: int,
                              floors_only: bool, cap_cut: int) -> None:
    """The plan-built subtrees of every level are the distinct subtrees of
    the dense counts, in the same order, and every row's root is."""
    plan = clusterbuild._plan(np.arange(start, start + rows), sched)
    if floors_only:  # as in the last row of a block
        plan.level[-1] = 0
    cap = max(int(plan.largest().max()) - cap_cut, 1)
    levels, root = clusterbuild._Subtrees(sched).number(plan, cap)
    want, want_root = dense_subtrees(plan, sched, cap)
    assert len(levels) == len(want) == sched.k + 1
    for got, expected in zip(levels, want):
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(root, want_root)


class TestSubtreeNumbering:
    @PROPERTY
    @given(
        km=st.sampled_from([(k, m) for k in range(3, 7) for m in range(1, (2**k - 1) // 4 + 1)]),
        hand=WIDE_SCHEDULES,
        start=st.one_of(st.integers(0, 300), st.integers(0, 10**6)),
        rows=st.integers(1, 40),
        floors_only=st.booleans(),
        cap_cut=st.integers(0, 2),
    )
    @example(km=(3, 1), hand=FusionSchedule(1, (0, 1), 2.0), start=0, rows=12,
             floors_only=True, cap_cut=0)
    @example(km=(3, 1), hand=FusionSchedule(6, (), 2.0), start=250, rows=40,
             floors_only=True, cap_cut=1)
    def test_plan_numbering_equals_dense_numbering(self, consts, km, hand, start, rows,
                                                    floors_only, cap_cut):
        for sched in (build_schedule(*km, consts), hand):
            assert_numbering_is_dense(sched, start, rows, floors_only, cap_cut)

    # the classes the benchmark's searches and curves build
    @PROPERTY
    @given(
        k=st.integers(7, 10),
        m=st.sampled_from([1, 2, 4, 8, 16]),
        start=st.one_of(st.integers(0, 300), st.integers(0, 10**7)),
        rows=st.integers(1, 40),
        floors_only=st.booleans(),
        cap_cut=st.integers(0, 2),
    )
    def test_built_classes_number_as_dense(self, consts, k, m, start, rows, floors_only,
                                           cap_cut):
        assert_numbering_is_dense(build_schedule(k, m, consts), start, rows, floors_only,
                                  cap_cut)


class TestExactMemo:
    def test_conditional_success_dips_where_allocation_does(self, consts):
        # Largest remainder is not house-monotone: from x = 1517 to 1518 the
        # k=5, m=1 schedule moves states from four light banks to five
        # measured ones, and f(x) drops, so the early stop cannot take
        # f(x) as non-decreasing.  It takes the block's floor bound instead.
        sched = build_schedule(5, 1, consts)
        alloc = allocate_ghz_counts(np.array([1517, 1518]), sched)
        assert (alloc[1] < alloc[0]).sum() == 4
        factory = clusterbuild._ExactFactory(sched, consts, False, None, None)
        f, _, _ = factory.block(1517 // clusterbuild._X_BLOCK)
        i = 1517 % clusterbuild._X_BLOCK
        assert f[i + 1] < f[i]

    @PROPERTY
    @given(mask=MASKS, block=st.integers(0, 6))
    def test_block_bound_holds_beyond_the_block(self, consts, mask, block):
        # the early stop credits every x past a block with the block's bound
        sched = masked_schedule(mask, consts)
        factory = clusterbuild._ExactFactory(sched, consts, False, None, None)
        _, bound, _ = factory.block(block)
        beyond = np.concatenate([factory.block(block + step)[0] for step in (1, 2)])
        assert bound <= beyond.min()

    @PROPERTY
    @given(mask=MASKS, counts=st.lists(st.integers(0, 60_000), min_size=2, max_size=2))
    def test_pc1_non_decreasing_in_sources(self, consts, mask, counts):
        sched = masked_schedule(mask, consts)
        low, high = sorted(counts)
        # each value carries up to 1e-16 of early stop plus summation roundoff
        assert improved_pc1_exact(low, sched, consts) <= improved_pc1_exact(
            high, sched, consts
        ) + 1e-15

    @PROPERTY
    @given(
        design=SMALL_DESIGNS,
        warm=st.lists(st.integers(0, 4000), max_size=6),
        target=st.integers(0, 4000),
    )
    def test_warm_evaluator_matches_cold_call(self, consts, design, warm, target):
        scheme, (k, m) = design
        # x is n_s GHZ sources, or about n_s p_ghz / 6 from single photons
        per_unit = 1 if scheme == "ghz_primitive" else 50
        evaluate, _ = clusterbuild._pc1_evaluator(scheme, k, m, consts, "exact", 1, 0)
        for units in warm:
            evaluate(units * per_unit)
        cold = improved_pc1_exact(
            target * per_unit, build_schedule(k, m, consts), consts,
            ghz_source=scheme == "ghz_primitive",
        )
        assert evaluate(target * per_unit) == cold


# (scheme, k, m) and its 250-node, P_cn = 0.9 source threshold
THRESHOLDS = {
    ("improved", 5, 1): 347136, ("improved", 6, 2): 1069056,
    ("improved", 7, 4): 3268608, ("improved", 8, 4): 9928704,
    ("ghz_primitive", 5, 1): 1800, ("ghz_primitive", 6, 2): 5568,
    ("ghz_primitive", 7, 4): 16992, ("ghz_primitive", 8, 4): 51456,
}


class TestEarlyDecision:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        design=st.sampled_from(sorted(THRESHOLDS)),
        scale=st.floats(0.8, 1.25),
        offset=st.sampled_from([None, 0.0, -1.0, 1.0, -1e-9, 1e-9, -1e-6, 1e-6, -1e-4, 1e-4]),
        drawn=st.floats(0.0, 1.0),
    )
    def test_decision_matches_full_sweep(self, consts, design, scale, offset, drawn):
        # the target is P_c1 plus the offset, where 0.0 is P_c1 itself and
        # +-1.0 stand for one ulp either side, or the drawn number without one
        scheme, k, m = design
        n_s = int(THRESHOLDS[design] * scale)
        sched, ghz_source = build_schedule(k, m, consts), scheme == "ghz_primitive"
        value = improved_pc1_exact(n_s, sched, consts, ghz_source=ghz_source)
        if offset is None:
            target = drawn
        elif abs(offset) == 1.0:
            target = math.nextafter(value, offset * math.inf)
        else:
            target = value + offset
        factory = clusterbuild._ExactFactory(sched, consts, ghz_source, None, None)
        assert factory.feasible(n_s, target) == (value >= target)

    @staticmethod
    def search_blocks(monkeypatch, consts, full_sweep: bool,
                      k=7, m=4, n=313) -> tuple[int, int]:
        """An exact search's count and the blocks its factory computed, by
        default the k = 7 reference search's."""
        made = []

        class Recorded(clusterbuild._ExactFactory):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            if full_sweep:
                def feasible(self, n_s, target):
                    return self.pc1(n_s) >= target

        monkeypatch.setattr(clusterbuild, "_ExactFactory", Recorded)
        count = min_sources("improved", k, m, n, 0.9, consts, method="exact")
        (factory,) = made
        return count, len(factory.blocks)

    def test_search_computes_fewer_blocks(self, consts, monkeypatch):
        # the end rows decide most evaluations before any block: 10 blocks,
        # against 25 with the running bounds alone and 67 for full sweeps
        early = self.search_blocks(monkeypatch, consts, full_sweep=False)
        full = self.search_blocks(monkeypatch, consts, full_sweep=True)
        assert early[0] == full[0] == 3342336
        assert (early[1], full[1]) == (10, 67)

    @staticmethod
    def recorded_monte_carlo(monkeypatch) -> list[int]:
        """The source counts of every Monte Carlo call from here on, each of
        which returns 0.75."""
        calls = []
        monkeypatch.setattr(clusterbuild, "improved_pc1_mc",
                            lambda *args, **kwargs: calls.append(args[0]) or (0.75, 0.0))
        return calls

    def test_beyond_the_count_limit(self, consts, monkeypatch):
        # under a limit of 2**5 states, 3e7 sources grant one k = 7 bank more;
        # the window's floors at its low end, clipped to the limit, read 0.56,
        # which settles neither target, so both go to Monte Carlo
        monkeypatch.setattr(clusterbuild, "_EXACT_COUNT_LIMIT", 2**5)
        n_s = 30_000_000
        _, exact = clusterbuild._pc1_evaluator("improved", 7, 4, consts, "exact", 32, 3)
        with pytest.raises(InvalidConfigurationError, match="--method mc"):
            exact(n_s, 0.5)
        calls = self.recorded_monte_carlo(monkeypatch)
        _, auto = clusterbuild._pc1_evaluator("improved", 7, 4, consts, "auto", 32, 3)
        assert (auto(n_s, 0.75), auto(n_s, 0.8)) == (True, False)
        assert calls == [n_s, n_s]
        # the clipped row is tried at every count: at 2e11 sources, a window
        # top past 1e9 GHZ states, it settles a target of 0.5 alone
        assert auto(2 * 10**11, 0.5)
        assert calls == [n_s, n_s]

    def test_clipped_row_answers_without_monte_carlo(self, consts, monkeypatch):
        # under a limit of 2**6 states the clipped floors of the same window
        # read 0.939, a lower bound on P_c1 that settles a target of 0.9
        monkeypatch.setattr(clusterbuild, "_EXACT_COUNT_LIMIT", 2**6)
        calls = self.recorded_monte_carlo(monkeypatch)
        _, auto = clusterbuild._pc1_evaluator("improved", 7, 4, consts, "auto", 32, 3)
        assert auto(30_000_000, 0.9)
        assert calls == []
        assert not auto(30_000_000, 0.95)  # Monte Carlo's 0.75 answers
        assert calls == [30_000_000]


def enumerated_success(counts, measured, thin, probs) -> Fraction:
    """P[root bank non-empty] from leaf counts, in rationals: every bank's
    pmf is carried exactly, the measured ones thinned by ``thin`` and each
    sibling pair's minimum by its level's probability."""
    def binomial(pmf, p):
        out = [Fraction(0)] * len(pmf)
        for y, weight in enumerate(pmf):
            for c in range(y + 1):
                out[c] += weight * math.comb(y, c) * p**c * (1 - p) ** (y - c)
        return out

    pmfs = [[Fraction(0)] * c + [Fraction(1)] for c in counts]
    pmfs = [binomial(pmf, thin) if i in measured else pmf for i, pmf in enumerate(pmfs)]
    for p in probs:
        merged = []
        for a, b in zip(pmfs[0::2], pmfs[1::2]):
            width = min(len(a), len(b))
            both = [sum(a[c:]) * sum(b[c:]) for c in range(width)] + [0]  # P[min >= c]
            merged.append(binomial([both[c] - both[c + 1] for c in range(width)], p))
        pmfs = merged
    return 1 - pmfs[0][0]


class TestEndRows:
    @pytest.mark.parametrize("mask", [[True, False], [True, False, False, True],
                                      [True, True, False, True, True, False, True, False]],
                             ids=["k1", "k2", "k3"])
    def test_success_never_falls_as_one_bank_grows(self, consts, mask):
        sched = masked_schedule(mask, consts)  # at k = 3, the k = 3, m = 1 design
        thin = Fraction(consts.p_chip * consts.eta_ghz)
        probs = [Fraction(p) for p in fusion_probabilities(sched.k, consts)]
        banks = sched.leaf_banks

        def success(counts):
            return enumerated_success(counts, sched.measured, thin, probs)

        # the oracle is the factory's model: it agrees on allocated counts
        for x in (3, 10, 17, 24):
            counts = allocate_ghz_counts(np.array([x]), sched)[0].tolist()
            got = improved_pc1_exact(x, sched, consts, ghz_source=True)
            assert got == pytest.approx(float(success(counts)), rel=1e-12, abs=1e-15)
        if banks <= 4:
            grid = itertools.product(range(4 if banks == 2 else 3), repeat=banks)
        else:
            rng = np.random.default_rng(7)
            grid = rng.integers(0, 4, size=(25, banks)).tolist()
        for counts in grid:
            base = success(list(counts))
            for bank in range(banks):
                raised = list(counts)
                raised[bank] += 1
                assert success(raised) >= base

    @pytest.mark.parametrize("k, m, n_s", [
        (7, 4, 3_300_000), (8, 5, 9_900_000), (9, 7, 30_000_000), (10, 8, 90_000_000),
    ], ids=["k7", "k8", "k9", "k10"])
    def test_end_rows_bound_every_x_of_the_window(self, consts, k, m, n_s):
        sched = build_schedule(k, m, consts)
        factory = clusterbuild._ExactFactory(sched, consts, False, None, None)
        lo, hi = factory._window(n_s // 6)
        low, high, end_cut = factory._end_rows(clusterbuild._plan(np.array([lo, hi]), sched))
        first = lo // clusterbuild._X_BLOCK
        f = np.concatenate([factory.block(j)[0] for j in range(first, hi // clusterbuild._X_BLOCK + 1)])
        f = f[lo - first * clusterbuild._X_BLOCK : hi - first * clusterbuild._X_BLOCK + 1]
        assert len(f) == hi - lo + 1
        # each computed f sits at most its own level cut below the exact one
        cut = max(block_cut for _, _, block_cut in factory.blocks.values())
        assert low - cut <= f.min() and f.max() <= high + end_cut
        assert high - low < 0.5  # and the rows are not vacuous

    SEARCHES = [("improved", 7, 4, 313), ("improved", 10, 8, 300),
                ("ghz_primitive", 7, 4, 300), ("naive", 8, 8, 200)]

    @pytest.mark.parametrize("scheme, k, m, n", SEARCHES,
                             ids=["improved_k7", "improved_k10", "ghz_primitive_k7", "naive_k8"])
    def test_every_search_answer_is_the_full_values(self, consts, monkeypatch, scheme, k, m, n):
        asked = []
        original = clusterbuild._pc1_evaluator

        def recording(*args):
            pc1, feasible = original(*args)

            def recorded(n_s, target):
                asked.append((n_s, target, feasible(n_s, target)))
                return asked[-1][2]

            return pc1, recorded

        monkeypatch.setattr(clusterbuild, "_pc1_evaluator", recording)
        min_sources(scheme, k, m, n, 0.9, consts, method="exact")
        pc1, _ = original(scheme, k, m, consts, "exact", 1, 0)
        assert asked
        for n_s, target, answer in asked:
            assert answer == (pc1(n_s) >= target), n_s

    @pytest.mark.parametrize("k, m, expected, blocks", [
        (9, 7, 30277632, 21), (10, 8, 90439680, 37), (12, 8, 805306368, 69),
    ], ids=["k9", "k10", "k12"])
    def test_search_counts(self, consts, monkeypatch, k, m, expected, blocks):
        # counts recorded while every evaluation swept blocks; k = 12 took
        # 4.2 s pinned to one CPU then.  Its end rows and running bounds,
        # checked apart, built 84 blocks; U bounding the unseen mass in the
        # bracket's upper end after every block too brings that to 69
        got = TestEarlyDecision.search_blocks(monkeypatch, consts, False, k, m, 300)
        assert got == (expected, blocks)

class TestMonteCarlo:
    def test_matches_exact_within_3_sigma(self, consts):
        trials = 40_000
        sched = build_schedule(3, 1, consts)
        exact = improved_pc1_exact(2000, sched, consts)
        est, _ = improved_pc1_mc(2000, sched, consts, trials=trials, seed=3)
        # z-score under the exact success probability (the MC's own standard
        # error degenerates to zero when every trial succeeds)
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(est - exact) < 3 * se

    def test_k9_matches_exact_within_3_sigma(self, consts):
        trials = 20_000
        sched = build_schedule(9, 4, consts)
        exact = improved_pc1_exact(22_000_000, sched, consts)
        est, _ = improved_pc1_mc(22_000_000, sched, consts, trials=trials, seed=9)
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(est - exact) < 3 * se

    @pytest.mark.parametrize("sched,counts", [
        ((7, 4), range(2000, 2400, 3)),
        (FusionSchedule(3, (0, 1, 5), 1.5), range(0, 120)),
        (FusionSchedule(2, (), 2.0), range(0, 40)),
        (FusionSchedule(1, (0, 1), 0.5), range(0, 40)),
    ], ids=["k7", "adjacent_measured", "no_measured_bank", "all_measured"])
    def test_first_level_takes_the_dense_pairwise_minimum(self, consts, monkeypatch, sched,
                                                           counts):
        # the slice reads a light pair off the plan as its odd bank; the first
        # fusion level must still see what the dense counts would give: each
        # sibling pair's minimum, with the measured banks thinned
        if isinstance(sched, tuple):
            sched = build_schedule(*sched, consts)
        measured = list(sched.measured)
        seen = []
        original = clusterbuild._InverseBinomial.draw

        def spy(self, n, rng):
            drawn = original(self, n, rng)
            seen.append((n.copy(), np.array(drawn)))
            return drawn

        monkeypatch.setattr(clusterbuild._InverseBinomial, "draw", spy)
        for n_s in counts:
            seen.clear()
            improved_pc1_mc(n_s, sched, consts, trials=3, ghz_source=True)
            (thin_in, thin_out), (first_in, _) = seen[:2]
            leaves = allocate_ghz_counts(np.full(3, n_s), sched)
            np.testing.assert_array_equal(thin_in, leaves[:, measured])
            leaves[:, measured] = thin_out
            np.testing.assert_array_equal(first_in, np.minimum(leaves[:, 0::2], leaves[:, 1::2]))

    def test_plain_schedule_has_nothing_to_thin(self, consts):
        sched = plain_schedule(3)
        assert improved_pc1_mc(5, sched, consts, trials=1000) == (0.0, 0.0)
        assert improved_pc1_mc(0, sched, consts, trials=1000, ghz_source=True) == (0.0, 0.0)
        trials = 20_000
        exact = improved_pc1_exact(60, sched, consts, ghz_source=True)
        est, _ = improved_pc1_mc(60, sched, consts, trials=trials, seed=0, ghz_source=True)
        assert abs(est - exact) < 3 * math.sqrt(exact * (1.0 - exact) / trials)

    def test_one_block_stays_within_its_slices(self, consts, monkeypatch):
        # 16384 trials at k = 7 are one engine block, drawn in eight slices
        # of 2**18 leaf-bank cells; drawn whole, the block peaked at 33 MiB.
        # Once a first call has made numpy's one-time allocations, the block
        # peaks at 3.4 MB (tracemalloc, numpy 2.4): the eight inversion
        # tables, about 2 MB, a slice's counts and one inversion pass of
        # 2**15 words with their guide indices.  Drawn from float uniforms,
        # with the dense (2048, 128) bank counts, an int32 guide and the
        # first level's 131072 words in one pass, it peaked at 7.2 MB.  The
        # bound leaves a 0.8 MB margin, and no slice forms dense counts.
        def refuse(self, bank_class, dtype=np.int64):
            raise AssertionError("the slice formed the dense bank counts")

        monkeypatch.setattr(clusterbuild._Plan, "dense", refuse)
        sched = build_schedule(7, 4, consts)
        improved_pc1_mc(3_600_000, sched, consts, trials=1)
        tracemalloc.start()
        try:
            improved_pc1_mc(3_600_000, sched, consts, trials=16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n_s", [17_046_347_555, 17_046_347_556, 2**35],
                             ids=["largest_below_2**31", "largest_at_2**31", "2**35"])
    def test_slice_counts_past_int32_are_exact(self, consts, monkeypatch, n_s):
        # deterministic GHZ states: the slice's leaf counts are those of
        # allocate_ghz_counts, whose largest is 2**31 - 1, 2**31 and about
        # 2**32 here, and far past every table the thinning hands the
        # measured banks' counts to rng.binomial as they are
        sched = build_schedule(3, 1, consts)
        seen = []

        class Spy:
            def __init__(self, rng):
                self.rng = rng
                self.bit_generator = rng.bit_generator  # the raw words the tables invert

            def binomial(self, n, p, size=None):
                seen.append(np.array(n))
                return self.rng.binomial(n, p, size)

        engine = clusterbuild.mc_fractions
        monkeypatch.setattr(clusterbuild, "mc_fractions", lambda trials, seed, width, draw:
                            engine(trials, seed, width, lambda size, rng: draw(size, Spy(rng))))
        assert improved_pc1_mc(n_s, sched, consts, trials=3, ghz_source=True) == (1.0, 0.0)
        leaves = allocate_ghz_counts(np.full(3, n_s), sched)
        np.testing.assert_array_equal(seen[0], leaves[:, list(sched.measured)])
        assert len(seen) == 1 + sched.k and all(n.min() >= 0 for n in seen)

    def test_deterministic_across_calls(self, consts):
        sched = build_schedule(3, 1, consts)
        a = improved_pc1_mc(1500, sched, consts, trials=30_000, seed=12)
        b = improved_pc1_mc(1500, sched, consts, trials=30_000, seed=12)
        assert a == b

    def test_seed_matters(self, consts):
        sched = build_schedule(3, 1, consts)
        a, _ = improved_pc1_mc(1500, sched, consts, trials=30_000, seed=12)
        b, _ = improved_pc1_mc(1500, sched, consts, trials=30_000, seed=13)
        assert a != b

    def test_validation(self, consts):
        sched = plain_schedule(1)
        with pytest.raises(InvalidConfigurationError):
            improved_pc1_mc(100, sched, consts, trials=0)
        with pytest.raises(InvalidConfigurationError):
            improved_pc1_mc(100, sched, consts, seed=-1)
        assert improved_pc1_mc(5, sched, consts) == (0.0, 0.0)
        assert improved_pc1_mc(0, sched, consts, ghz_source=True) == (0.0, 0.0)
        with pytest.raises(InvalidConfigurationError):
            improved_pc1_mc(5, sched, consts, seed=-1)
        with pytest.raises(InvalidConfigurationError):
            improved_pc1_mc(-6, sched, consts)
        with pytest.raises(InvalidConfigurationError):
            improved_pc1_exact(-6, sched, consts)

    def test_source_count_past_int64_is_refused(self, consts):
        # both factories count GHZ states in int64; these ended in a raw
        # OverflowError, and pcn_curve read 1.0 at 2**64
        sched = build_schedule(3, 1, consts)
        assert improved_pc1_mc(2**63 - 1, sched, consts, trials=10, ghz_source=True) == (1.0, 0.0)
        for n_s in (2**63, 10**20, 2**64):
            for ghz_source in (False, True):
                with pytest.raises(InvalidConfigurationError, match=r"2\*\*63"):
                    improved_pc1_mc(n_s, sched, consts, trials=10, ghz_source=ghz_source)
            with pytest.raises(InvalidConfigurationError, match=r"2\*\*63"):
                improved_pc1_exact(n_s, sched, consts)
            with pytest.raises(InvalidConfigurationError, match=r"2\*\*63"):
                pcn_curve("improved", 3, 1, 5, consts, [n_s], method="mc", trials=10)


class TestPcn:
    def test_power(self):
        assert pcn(0.9, 2) == pytest.approx(0.81)
        assert pcn(1.0, 1000) == 1.0

    def test_validation(self):
        with pytest.raises(InvalidConfigurationError):
            pcn(1.5, 2)
        with pytest.raises(InvalidConfigurationError):
            pcn(0.5, 0)


@pytest.fixture(scope="module")
def improved_count(consts):
    """Threshold source count for the banked (m=4, {4,2}) node, 250 nodes."""
    return min_sources("improved", 7, 4, 250, 0.9, consts, method="exact")


class TestMinSources:
    def test_improved_reference_count(self, improved_count):
        assert improved_count == pytest.approx(3.2686e6, rel=0.02)

    def test_ghz_primitive_reference_count(self, consts):
        count = min_sources("ghz_primitive", 7, 4, 250, 0.9, consts, method="exact")
        assert count == pytest.approx(1.699e4, rel=0.02)

    def test_result_is_feasible_and_nearly_minimal(self, consts, improved_count):
        sched = build_schedule(7, 4, consts)
        assert pcn(improved_pc1_exact(improved_count, sched, consts), 250) >= 0.9
        assert (
            pcn(improved_pc1_exact(int(improved_count * 0.97), sched, consts), 250)
            < 0.9
        )

    def test_naive_reference_count(self, consts):
        count = min_sources("naive", 8, 8, 250, 0.9, consts)
        assert count == pytest.approx(2.255e11, rel=0.02)

    def test_ceiling_raises(self, consts, monkeypatch):
        monkeypatch.setattr(clusterbuild, "_SOURCE_CEILING", 100)
        with pytest.raises(TargetUnreachableError):
            min_sources("improved", 7, 4, 250, 0.9, consts)

    def test_validation(self, consts):
        with pytest.raises(InvalidConfigurationError):
            min_sources("improved", 7, 4, 250, 1.0, consts)
        with pytest.raises(InvalidConfigurationError):
            min_sources("improved", 7, 4, 0, 0.9, consts)
        with pytest.raises(InvalidConfigurationError):
            min_sources("unknown", 7, 4, 250, 0.9, consts)
        with pytest.raises(InvalidConfigurationError):
            min_sources("improved", 7, 4, 250, 0.9, consts, method="guess")

    def test_naive_scheme_checks_method(self, consts):
        with pytest.raises(InvalidConfigurationError, match="unknown method"):
            min_sources("naive", 8, 8, 300, 0.9, consts, method="bogus")
        with pytest.raises(InvalidConfigurationError, match="unknown method"):
            pcn_curve("naive", 8, 8, 300, consts, [6000], method="bogus")

    def test_per_node_target_rounding_to_one_is_refused(self, consts):
        # 0.9999999999 ** (1 / 10**7) is 1.0 in floating point: a search
        # would stop where a Monte Carlo estimate first reads 1, not at the
        # target, so it must be refused before any evaluation
        start = time.perf_counter()
        with pytest.raises(InvalidConfigurationError, match="rounds to 1.0"):
            min_sources("ghz_primitive", 3, 1, 10**7, 0.9999999999, consts)
        assert time.perf_counter() - start < 0.1


class TestPcnCurve:
    @pytest.mark.parametrize("n, counts, match", [
        (0, [200_000_000], "n must be >= 1"), (0, [], "n must be >= 1"),
        (1, [600, -6], "source count must be >= 0"),
        (1, [600, 2**63], r"source count must be below 2\*\*63"),
        (1, [600, -0.5], "source count must be >= 0"),
        (1, [600, 599.99], "source count must be an integer"),
        (1, [600, math.nan], "source count must be an integer"),
    ], ids=["no_nodes", "no_nodes_no_counts", "negative_count", "count_past_int64",
            "negative_fraction", "fraction", "nan"])
    def test_bad_input_is_refused_before_any_evaluation(self, consts, monkeypatch, n, counts,
                                                        match):
        # each k = 11 Monte Carlo count is slow, so bad input must be refused before the first
        evaluated = []
        original = clusterbuild._pc1_evaluator

        def spied(*args):
            evaluate, feasible = original(*args)
            return lambda n_s: evaluated.append(n_s) or evaluate(n_s), feasible

        monkeypatch.setattr(clusterbuild, "_pc1_evaluator", spied)
        with pytest.raises(InvalidConfigurationError, match=match):
            pcn_curve("improved", 11, 8, n, consts, counts, method="mc", trials=4000)
        assert evaluated == []

    def test_integral_counts_of_any_numeric_type_are_accepted(self, consts):
        counts = [600.0, np.int64(1200), np.float64(2400.0)]
        curve = pcn_curve("improved", 3, 1, 5, consts, counts, method="exact")
        assert curve.tolist() == pcn_curve("improved", 3, 1, 5, consts, [600, 1200, 2400],
                                           method="exact").tolist()

    def test_monotone_and_consistent(self, consts):
        sched = build_schedule(3, 1, consts)
        counts = [600, 1200, 2400, 4800]
        curve = pcn_curve("improved", 3, 1, 5, consts, counts, method="exact")
        assert curve.shape == (4,)
        assert np.all(np.diff(curve) > 0)
        direct = pcn(improved_pc1_exact(1200, sched, consts), 5)
        assert curve[1] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "scheme, k, m, n, n_s, same_as",
        [("improved", 9, 4, 300, 22_000_000, "exact"), ("improved", 10, 8, 1, 8_000_000, "exact"),
         ("ghz_primitive", 11, 8, 1, 2**19, "exact"), ("ghz_primitive", 15, 8, 1, 2**25, "exact"),
         ("ghz_primitive", 16, 8, 1, 2**26, "exact"), ("ghz_primitive", 21, 8, 1, 2**26, "exact"),
         ("improved", 7, 4, 250, 30_000_000_000, "mc")],
        ids=["k9", "k10", "k11", "k15", "k16", "k21", "k7_past_count_limit"],
    )
    def test_auto_is_exact_where_the_factory_admits(self, consts, scheme, k, m, n, n_s, same_as):
        # the factory admits every k that build_schedule admits, and only
        # source counts whose window grants no bank over 2**12 states; a
        # GHZ-source count's window is one x, so its one block keeps k = 11..21 fast
        def curve(method):
            return pcn_curve(scheme, k, m, n, consts, [n_s], method=method, trials=32, seed=3)

        assert curve("auto").tolist() == curve(same_as).tolist()
