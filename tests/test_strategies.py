"""Tests for the betting-fraction schedules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hedgetest.rng import stream
from hedgetest.strategies import (StrategyKind, StrategySpec, build_strategy,
                                  dynamic_lambda, kelly_lambda)
from hedgetest.wealth import HypothesisSpec, evolve

from oracles import conservative_lambda, wealth_by_hand

BERNOULLI = HypothesisSpec.bernoulli(0.5, 0.75)
DYNAMIC = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25)


class TestKellyLambda:
    def test_canonical_design_point_is_one(self):
        assert kelly_lambda(0.5, 0.75) == 1.0

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_no_edge_means_no_bet(self, p):
        assert kelly_lambda(p, p) == 0.0

    def test_small_edge_value(self):
        lam = kelly_lambda(0.5, 0.6)
        assert lam == pytest.approx(0.4, abs=1e-12)
        # likelihood-ratio identity on both outcomes
        assert 1 + lam * (1 - 0.5) == pytest.approx(0.6 / 0.5, abs=1e-12)
        assert 1 + lam * (0 - 0.5) == pytest.approx(0.4 / 0.5, abs=1e-12)

    @pytest.mark.parametrize("p0,p1", [(0.3, 0.5), (0.5, 0.25), (0.8, 0.9)])
    def test_likelihood_ratio_identity(self, p0, p1):
        lam = kelly_lambda(p0, p1)
        assert 1 + lam * (1 - p0) == pytest.approx(p1 / p0, rel=1e-12)
        assert 1 + lam * (0 - p0) == pytest.approx((1 - p1) / (1 - p0), rel=1e-12)

    def test_degenerate_null_rejected(self):
        for p0 in (0.0, 1.0):
            with pytest.raises(ValueError):
                kelly_lambda(p0, 0.5)


class TestConservativeLambda:
    def test_twenty_step_quarter_floor(self):
        lam = conservative_lambda(0.25, 20, -0.5)
        assert lam == pytest.approx(0.133934, abs=1e-6)

    def test_plug_back(self):
        lam = conservative_lambda(0.25, 20, -0.5)
        assert (1 - lam / 2) ** 20 == pytest.approx(0.25, abs=1e-5)

    def test_single_step_linearization(self):
        # floor 1 - eps over one step solves to 2*eps for the Bernoulli worst step
        for eps in (1e-3, 1e-6):
            lam = conservative_lambda(1 - eps, 1, -0.5)
            assert lam == pytest.approx(2 * eps, rel=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            conservative_lambda(1.0, 20, -0.5)
        with pytest.raises(ValueError):
            conservative_lambda(0.25, 0, -0.5)
        with pytest.raises(ValueError):
            conservative_lambda(0.25, 20, 0.5)


class TestDynamicLambda:
    def test_start_matches_conservative(self):
        assert dynamic_lambda(1.0, 0, 20, 0.25, 0.5) == pytest.approx(
            conservative_lambda(0.25, 20, -0.5), abs=1e-6)

    @pytest.mark.parametrize("t", [0, 5, 19])
    def test_at_the_floor_only_zero_bet(self, t):
        assert dynamic_lambda(0.25, t, 20, 0.25, 0.5) == 0.0

    def test_below_floor_clamps_to_zero(self):
        assert dynamic_lambda(0.1, 3, 20, 0.25, 0.5) == 0.0

    def test_clamped_to_admissible_range(self):
        assert dynamic_lambda(1e9, 0, 20, 0.25, 0.5) <= 2.0

    def test_worst_case_rollout_lands_on_floor(self):
        # all-losses continuation from K_5 = 2 ends at the floor
        k = 2.0
        for t in range(5, 20):
            lam = dynamic_lambda(k, t, 20, 0.25, 0.5)
            k *= 1 + lam * (0 - 0.5)
        assert k == pytest.approx(0.25, abs=1e-6)

    def test_preconditions(self):
        for wealth in (-1e-300, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                dynamic_lambda(wealth, 0, 20, 0.25, 0.5)
        with pytest.raises(ValueError):
            dynamic_lambda(1.0, 20, 20, 0.25, 0.5)

    def test_array_of_wealths_is_elementwise(self):
        wealths = np.array([1.0, 0.25, 0.1, 2.0, 1e9])
        lams = dynamic_lambda(wealths, 5, 20, 0.25, 0.5)
        assert lams.shape == (5,)
        for k, lam in zip(wealths, lams):
            assert lam == pytest.approx(dynamic_lambda(float(k), 5, 20, 0.25, 0.5),
                                        rel=1e-15)

    def test_ruined_wealth_bets_zero(self):
        # no divide-by-zero warning, and a negative or NaN wealth beside it
        # is still an error
        assert dynamic_lambda(0.0, 0, 20, 0.25, 0.5) == 0.0
        lams = dynamic_lambda(np.array([1.0, 0.0]), 0, 20, 0.25, 0.5)
        assert lams.tolist() == [dynamic_lambda(1.0, 0, 20, 0.25, 0.5), 0.0]
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                dynamic_lambda(np.array([1.0, 0.0, bad]), 0, 20, 0.25, 0.5)

    def test_a_ruined_row_stays_at_zero_beside_a_live_one(self):
        strategy = build_strategy(DYNAMIC, BERNOULLI, 3)
        ys = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        both = list(evolve(strategy, ys, BERNOULLI, start=[0.0, 1.0]))
        alone = list(evolve(strategy, ys[1:], BERNOULLI))
        assert len(both) == len(alone) == 3
        for (k, lam), (k_alone, lam_alone) in zip(both, alone):
            assert (k[0], lam[0]) == (0.0, 0.0)
            assert k[1].hex() == k_alone[0].hex() and lam[1].hex() == lam_alone[0].hex()


class TestFloorGuarantee:
    def test_all_losses_path_respects_floor(self):
        losses = [0.0] * 20
        lam = conservative_lambda(0.25, 20, -0.5)
        for strategy in (lambda k, t: lam, build_strategy(DYNAMIC, BERNOULLI, 20)):
            final = wealth_by_hand(strategy, losses, BERNOULLI.null_mean)[-1]
            assert final >= 0.25 - 1e-6

    @pytest.mark.parametrize("null_p", [0.3, 0.7])
    def test_dynamic_all_losses_path_ends_on_the_floor_for_any_null(self, null_p):
        # the worst step is -null_p, so the schedule spends exactly the room
        # above the floor: neither loose (0.3) nor inadmissible (0.7)
        hyp = HypothesisSpec.bernoulli(null_p, 0.9)
        (final, _), = list(evolve(build_strategy(DYNAMIC, hyp, 20),
                                  np.zeros((1, 20)), hyp))[-1:]
        assert 0.25 <= final[0] <= 0.25 + 1e-12

    def test_dynamic_floor_holds_on_random_paths(self):
        strategy = build_strategy(DYNAMIC, BERNOULLI, 20)
        for i in range(500):
            ys = (stream(71, i).random(20) < 0.5).astype(float)
            final = wealth_by_hand(strategy, ys, BERNOULLI.null_mean)[-1]
            assert final >= 0.25

    @given(floor=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           horizon=st.integers(1, 12),
           null_p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # a one-ulp step on the fraction moves the worst factor by a fraction
    # of its ulp here, so a single ulp is too small a step
    @example(floor=0.953125, horizon=11, null_p=0.28125)
    # before the last step the wealth is so far above the floor that the
    # fraction rounds to the whole stake, its worst factor 0 ...
    @example(floor=1e-6, horizon=7, null_p=1e-6)
    # ... or it has overflowed to inf, and inf times that 0 is NaN
    @example(floor=0.5, horizon=3, null_p=1.690162913619919e-247)
    def test_every_row_of_a_dynamic_episode_ends_on_or_above_the_floor(
            self, floor, horizon, null_p):
        hyp = HypothesisSpec.bernoulli(null_p)
        rows = ((np.arange(2 ** horizon)[:, None] >> np.arange(horizon)) & 1).astype(float)
        strategy = build_strategy(StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=floor),
                                  hyp, horizon)
        with np.errstate(over="ignore"):
            *_, (final, _) = evolve(strategy, rows, hyp)
        assert final.min() >= floor


class TestKellyDominance:
    def test_mean_log_wealth_maximal_at_design_alternative(self):
        n, horizon = 10_000, 20
        rivals = (0.25, 0.5, 0.75, 1.25)
        outcomes = np.empty((n, horizon))
        for i in range(n):
            outcomes[i] = (stream(81, i).random(horizon) < 0.75).astype(float)

        def mean_log_final(lam):
            finals = np.prod(1.0 + lam * (outcomes - 0.5), axis=1)
            return np.log(finals).mean(), np.log(finals).std(ddof=1) / math.sqrt(n)

        kelly_mean, _ = mean_log_final(1.0)
        for lam in rivals:
            rival_mean, rival_se = mean_log_final(lam)
            assert kelly_mean >= rival_mean - 3 * rival_se


class TestStrategySpec:
    def test_constant_lambda_per_kind(self):
        kelly = StrategySpec(StrategyKind.KELLY)
        assert kelly.constant_lambda(BERNOULLI) == 1.0
        # Kelly bets toward the hypothesis it is given, never a stored copy
        small_edge = HypothesisSpec.bernoulli(0.5, 0.6)
        assert kelly.constant_lambda(small_edge) == pytest.approx(0.4, abs=1e-12)
        fixed = StrategySpec(StrategyKind.FIXED_LAMBDA, lam=0.3)
        assert fixed.constant_lambda(BERNOULLI) == 0.3
        assert DYNAMIC.constant_lambda(BERNOULLI) is None

    def test_build_strategy_round_trip(self):
        strategy = build_strategy(DYNAMIC, BERNOULLI, 20)
        for k, t in ((1.0, 0), (2.0, 5)):
            assert strategy(np.array([k]), t) == pytest.approx(
                dynamic_lambda(k, t, 20, 0.25, 0.5))
        kelly = build_strategy(StrategySpec(StrategyKind.KELLY), BERNOULLI, 20)
        assert kelly(np.array([3.0, 0.5]), 7) == 1.0

    def test_hedged_cs_has_no_per_step_schedule(self):
        with pytest.raises(ValueError):
            build_strategy(StrategySpec(StrategyKind.HEDGED_CS, lam=0.5), BERNOULLI, 20)
