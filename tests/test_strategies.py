"""Tests for the betting-fraction schedules."""

import math

import numpy as np
import pytest

from hedgetest.rng import stream
from hedgetest.strategies import (StrategyKind, StrategySpec, build_strategy,
                                  conservative_lambda, dynamic_lambda, kelly_lambda)
from hedgetest.wealth import HypothesisSpec, run_process

BERNOULLI = HypothesisSpec.bernoulli(0.5, 0.75)
DYNAMIC = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25, horizon=20)


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
        assert dynamic_lambda(1.0, 0, 20, 0.25) == pytest.approx(
            conservative_lambda(0.25, 20, -0.5), abs=1e-6)

    @pytest.mark.parametrize("t", [0, 5, 19])
    def test_at_the_floor_only_zero_bet(self, t):
        assert dynamic_lambda(0.25, t, 20, 0.25) == 0.0

    def test_below_floor_clamps_to_zero(self):
        assert dynamic_lambda(0.1, 3, 20, 0.25) == 0.0

    def test_clamped_to_admissible_range(self):
        assert dynamic_lambda(1e9, 0, 20, 0.25) <= 2.0

    def test_worst_case_rollout_lands_on_floor(self):
        # all-losses continuation from K_5 = 2 ends at the floor
        k = 2.0
        for t in range(5, 20):
            lam = dynamic_lambda(k, t, 20, 0.25)
            k *= 1 + lam * (0 - 0.5)
        assert k == pytest.approx(0.25, abs=1e-6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dynamic_lambda(0.0, 0, 20, 0.25)
        with pytest.raises(ValueError):
            dynamic_lambda(1.0, 20, 20, 0.25)

    def test_array_of_wealths_is_elementwise(self):
        wealths = np.array([1.0, 0.25, 0.1, 2.0, 1e9])
        lams = dynamic_lambda(wealths, 5, 20, 0.25)
        assert lams.shape == (5,)
        for k, lam in zip(wealths, lams):
            assert lam == pytest.approx(dynamic_lambda(float(k), 5, 20, 0.25), rel=1e-15)

    def test_ruined_wealth_in_an_array_is_an_error(self):
        # an explicit guard instead of a divide-by-zero warning
        with pytest.raises(ValueError, match="positive"):
            dynamic_lambda(np.array([1.0, 0.0]), 0, 20, 0.25)


class TestFloorGuarantee:
    def test_all_losses_path_respects_floor(self):
        losses = [0.0] * 20
        lam = conservative_lambda(0.25, 20, -0.5)
        for strategy in (lambda k, t: lam, build_strategy(DYNAMIC)):
            path = run_process(strategy, losses, BERNOULLI)
            assert path.final >= 0.25 - 1e-6

    def test_dynamic_floor_holds_on_random_paths(self):
        strategy = build_strategy(DYNAMIC)
        for i in range(500):
            ys = (stream(71, i).random(20) < 0.5).astype(float)
            path = run_process(strategy, ys, BERNOULLI)
            assert path.final >= 0.25 - 1e-9


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
        assert StrategySpec(StrategyKind.KELLY, p0=0.5, p1=0.75).constant_lambda() == 1.0
        assert StrategySpec(StrategyKind.FIXED_LAMBDA, lam=0.3).constant_lambda() == 0.3
        aon = StrategySpec(StrategyKind.ALL_OR_NOTHING_LOG_NORMAL)
        assert aon.constant_lambda() == pytest.approx(math.exp(-0.5))
        dyn = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25, horizon=20)
        assert dyn.constant_lambda() is None

    def test_build_strategy_round_trip(self):
        strategy = build_strategy(DYNAMIC)
        assert strategy(np.array([1.0]), 0) == pytest.approx(dynamic_lambda(1.0, 0, 20, 0.25))
        assert strategy(np.array([2.0]), 5) == pytest.approx(dynamic_lambda(2.0, 5, 20, 0.25))
        kelly = build_strategy(StrategySpec(StrategyKind.KELLY, p0=0.5, p1=0.75))
        assert kelly(np.array([3.0, 0.5]), 7) == 1.0

    def test_hedged_cs_has_no_per_step_schedule(self):
        with pytest.raises(ValueError):
            build_strategy(StrategySpec(StrategyKind.HEDGED_CS, lam=0.5))
