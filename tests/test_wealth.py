"""Tests for the wealth-process core: updates, decision rule, invariants."""

import math

import numpy as np
import pytest

from hedgetest.rng import stream
from hedgetest.strategies import dynamic_floor, fixed, kelly
from hedgetest.wealth import (CashFlow, Family, HypothesisSpec,
                              InadmissibleBetError, OutcomeError, WealthPath,
                              cash_flow, run_hedged_cs, run_process,
                              terminal_wealth, update_wealth, ville_decide)

from oracles import wealth_by_hand

BERNOULLI = HypothesisSpec.bernoulli(0.5, 0.75)


class TestUpdateWealth:
    def test_kelly_win_multiplies_by_three_halves(self):
        assert update_wealth(1.0, 1.0, 1.0, 0.5) == 1.5

    def test_kelly_loss_multiplies_by_one_half(self):
        assert update_wealth(1.0, 1.0, 0.0, 0.5) == 0.5

    @pytest.mark.parametrize("k", [1.0, 0.25, 7.5])
    @pytest.mark.parametrize("y,m", [(0.0, 0.5), (1.0, 0.5), (0.3, 0.7)])
    def test_zero_bet_leaves_wealth_unchanged(self, k, y, m):
        assert update_wealth(k, 0.0, y, m) == k

    def test_rejects_inadmissible_fraction(self):
        with pytest.raises(InadmissibleBetError):
            update_wealth(1.0, 2.5, 1.0, 0.5)
        with pytest.raises(InadmissibleBetError):
            update_wealth(1.0, -2.5, 1.0, 0.5)
        lo, hi = HypothesisSpec.log_normal().lambda_bounds()
        with pytest.raises(InadmissibleBetError):
            update_wealth(1.0, hi * 1.01, 1.0, math.exp(0.5), (lo, hi))

    def test_rejects_negative_wealth(self):
        with pytest.raises(ValueError):
            update_wealth(-0.1, 0.0, 1.0, 0.5)

    def test_boundary_bet_hits_exact_zero(self):
        assert update_wealth(1.0, 2.0, 0.0, 0.5) == 0.0

    def test_out_of_support_outcome_detected(self):
        with pytest.raises(OutcomeError):
            update_wealth(1.0, 2.0, -0.5, 0.5)


class TestHypothesisSpec:
    def test_bernoulli_outcomes_must_be_binary(self):
        with pytest.raises(OutcomeError):
            BERNOULLI.validate_outcomes([0.0, 0.5, 1.0])

    def test_bounded_outcomes_must_be_in_unit_interval(self):
        hyp = HypothesisSpec.bounded()
        with pytest.raises(OutcomeError):
            hyp.validate_outcomes([0.2, 1.2])

    def test_log_normal_outcomes_must_be_positive(self):
        hyp = HypothesisSpec.log_normal()
        with pytest.raises(OutcomeError):
            hyp.validate_outcomes([1.0, 0.0])

    def test_log_normal_null_mean_is_exp_half(self):
        assert HypothesisSpec.log_normal().null_mean == math.exp(0.5)
        with pytest.raises(ValueError):
            HypothesisSpec(Family.LOG_NORMAL_UNIT_VARIANCE, 0.0, None, null_mean=0.5)

    def test_bernoulli_params_validated(self):
        with pytest.raises(ValueError):
            HypothesisSpec.bernoulli(1.5)

    def test_lambda_bounds_by_family(self):
        assert BERNOULLI.lambda_bounds() == (-2.0, 2.0)
        lo, hi = HypothesisSpec.log_normal().lambda_bounds()
        assert lo == 0.0
        assert hi == pytest.approx(math.exp(-0.5))


class TestRunProcess:
    def test_three_losses_leave_one_eighth(self):
        path = run_process(kelly(0.5, 0.75), [0, 0, 0], BERNOULLI)
        assert path.final == 0.125
        assert path.values == (1.0, 0.5, 0.25, 0.125)

    def test_three_wins_reach_twenty_seven_eighths(self):
        path = run_process(kelly(0.5, 0.75), [1, 1, 1], BERNOULLI)
        assert path.final == 27 / 8

    def test_zero_fraction_gives_constant_path(self):
        path = run_process(fixed(0.0), [1, 0, 1, 1, 0], BERNOULLI)
        assert path.values == (1.0,) * 6

    def test_path_satisfies_recurrence(self):
        rng = stream(11, 0)
        outcomes = (rng.random(25) < 0.6).astype(float)
        path = run_process(dynamic_floor(0.25, 25), outcomes, BERNOULLI)
        expected = wealth_by_hand(path.lambdas, outcomes, 0.5)
        assert np.allclose(path.values, expected, rtol=0, atol=1e-15)

    def test_strategy_sees_only_the_past(self):
        seen = []

        def spy(history):
            seen.append(tuple(history))
            return 1.0

        path = run_process(spy, [1, 0, 1], BERNOULLI)
        for t, history in enumerate(seen):
            assert history == path.values[:t + 1]

    def test_ruined_path_stays_at_zero(self):
        calls = []

        def greedy(history):
            calls.append(len(history))
            return 2.0

        path = run_process(greedy, [0, 1, 1], BERNOULLI)
        assert path.values == (1.0, 0.0, 0.0, 0.0)
        assert path.ruined
        assert calls == [1]   # no bets are solicited after ruin

    def test_inadmissible_strategy_propagates(self):
        with pytest.raises(InadmissibleBetError):
            run_process(fixed(3.0), [1, 1], BERNOULLI)

    def test_log_normal_family_runs(self):
        hyp = HypothesisSpec.log_normal()
        lam = math.exp(-0.5)
        ys = [math.exp(z) for z in (0.3, -1.2, 0.8)]
        path = run_process(fixed(lam), ys, hyp)
        # all-or-nothing updates reduce to exp(z - 1/2) per step
        expected = math.exp(sum((0.3, -1.2, 0.8)) - 1.5)
        assert path.final == pytest.approx(expected, rel=1e-12)


class TestTerminalWealth:
    @pytest.mark.parametrize("hyp,draw,lams", [
        (BERNOULLI, lambda rng, shape: (rng.random(shape) < 0.5).astype(float),
         (-2.0, -0.7, 0.0, 1.0, 2.0)),
        (HypothesisSpec.bounded(), lambda rng, shape: rng.random(shape),
         (-2.0, 0.3, 1.9, 2.0)),
        (HypothesisSpec.log_normal(), lambda rng, shape: np.exp(rng.standard_normal(shape)),
         (0.0, 0.2, math.exp(-0.5))),
    ])
    def test_matches_run_process_row_by_row(self, hyp, draw, lams):
        ys = draw(stream(61), (200, 15))
        for lam in lams:
            finals = terminal_wealth(lam, ys, hyp)
            assert finals.shape == (200,)
            for row, final in zip(ys, finals):
                expected = run_process(fixed(lam), row, hyp).final
                assert final == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_ruined_row_stays_at_zero(self):
        finals = terminal_wealth(2.0, np.array([[0, 1, 1], [1, 1, 1]]), BERNOULLI)
        assert finals.tolist() == [0.0, 8.0]
        assert run_process(fixed(2.0), [0, 1, 1], BERNOULLI).final == 0.0

    def test_same_errors_as_run_process(self):
        outside = np.exp(stream(62).standard_normal((3, 4)))
        with pytest.raises(OutcomeError):
            run_process(fixed(1.0), outside[0], BERNOULLI)
        with pytest.raises(OutcomeError):
            terminal_wealth(1.0, outside, BERNOULLI)
        with pytest.raises(InadmissibleBetError):
            run_process(fixed(3.0), [1, 1], BERNOULLI)
        with pytest.raises(InadmissibleBetError):
            terminal_wealth(3.0, np.array([[1.0, 1.0]]), BERNOULLI)


class TestWealthPath:
    def test_must_start_at_one(self):
        with pytest.raises(ValueError):
            WealthPath((0.5, 1.0), None, 0.5)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            WealthPath((1.0, -0.1), None, 0.5)

    def test_lambda_length_checked(self):
        with pytest.raises(ValueError):
            WealthPath((1.0, 1.5), (1.0, 1.0), 0.5)


class TestHedgedCS:
    def test_zero_fraction_is_constant_one(self):
        path = run_hedged_cs([0.1, 0.9, 0.5], 0.0)
        assert path.values == (1.0, 1.0, 1.0, 1.0)

    def test_two_wins_hand_value(self):
        # legs 1.5^2 and 0.5^2: 0.5*2.25 + 0.5*0.25 = 1.25
        path = run_hedged_cs([1.0, 1.0], 1.0)
        assert path.values[-1] == pytest.approx(1.25, abs=1e-15)

    def test_fraction_range_enforced(self):
        with pytest.raises(InadmissibleBetError):
            run_hedged_cs([0.5], 2.1)
        with pytest.raises(InadmissibleBetError):
            run_hedged_cs([0.5], -0.1)

    def test_null_mean_one_within_three_ses(self):
        # Monte Carlo martingale check: uniform nulls, lam=1, T=20
        n, horizon = 10_000, 20
        finals = np.empty(n)
        for i in range(n):
            ys = stream(21, i).random(horizon)
            finals[i] = run_hedged_cs(ys, 1.0).final
        se = finals.std(ddof=1) / np.sqrt(n)
        assert abs(finals.mean() - 1.0) <= 3 * se


class TestCashFlow:
    def test_direct_differencing(self):
        cf = cash_flow(WealthPath((1.0, 1.5, 0.75), None, 0.5))
        assert cf.increments == (0.5, -0.75)
        assert cf.terminal_value == 0.75

    def test_constant_path_has_zero_increments(self):
        cf = cash_flow(WealthPath((1.0, 1.0, 1.0), None, 0.5))
        assert cf.increments == (0.0, 0.0)

    def test_ruin_path_differences(self):
        cf = cash_flow(WealthPath((1.0, 0.5, 0.25, 0.125), None, 0.5))
        assert cf.increments == (-0.5, -0.25, -0.125)

    def test_increments_telescope(self):
        path = run_process(kelly(0.5, 0.75), [1, 0, 1, 1, 0, 0], BERNOULLI)
        cf = cash_flow(path)
        assert 1.0 + cf.total == pytest.approx(cf.terminal_value, abs=1e-12)


class TestVilleDecide:
    def test_crossing_at_threshold_rejects(self):
        path = WealthPath((1.0, 5.0, 25.0, 10.0), None, 0.5)
        decision = ville_decide(path, 0.05)
        assert decision.rejected
        assert decision.crossing_time == 2
        assert decision.threshold == 20.0

    def test_boundary_value_counts(self):
        path = WealthPath((1.0, 20.0), None, 0.5)
        assert ville_decide(path, 0.05).rejected

    def test_constant_path_never_rejects(self):
        path = WealthPath((1.0,) * 10, None, 0.5)
        for alpha in (0.01, 0.05, 0.5, 0.99):
            assert not ville_decide(path, alpha).rejected

    def test_alpha_validated(self):
        path = WealthPath((1.0,), None, 0.5)
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                ville_decide(path, alpha)

    def test_null_false_rejection_bounded(self):
        # Kelly under the true null: rejection frequency <= alpha + 3 SEs
        n, horizon = 10_000, 20
        strategy = kelly(0.5, 0.75)
        for alpha in (0.05, 0.01):
            rejections = 0
            for i in range(n):
                ys = (stream(31, i).random(horizon) < 0.5).astype(float)
                path = run_process(strategy, ys, BERNOULLI)
                rejections += ville_decide(path, alpha).rejected
            se = math.sqrt(alpha * (1 - alpha) / n)
            assert rejections / n <= alpha + 3 * se


class TestMartingaleConservation:
    """Empirical mean of K_T stays at 1 under each family's null."""

    def _finals(self, hyp, lam, n, horizon, seed):
        sampler = hyp.null_sampler()
        strategy = fixed(lam)
        finals = np.empty(n)
        for i in range(n):
            ys = sampler(stream(seed, i), horizon)
            finals[i] = run_process(strategy, ys, hyp).final
        return finals

    @pytest.mark.parametrize("hyp,lam,seed", [
        (HypothesisSpec.bernoulli(0.5, 0.75), 1.0, 41),
        (HypothesisSpec.bounded(), 1.0, 42),
        (HypothesisSpec.log_normal(), 0.2, 43),
    ])
    def test_mean_final_wealth_is_one(self, hyp, lam, seed):
        finals = self._finals(hyp, lam, 10_000, 20, seed)
        se = finals.std(ddof=1) / np.sqrt(finals.size)
        assert abs(finals.mean() - 1.0) <= 3 * se

    def test_no_negative_wealth_across_families(self):
        for hyp, lam, seed in [(BERNOULLI, 2.0, 44),
                               (HypothesisSpec.bounded(), 2.0, 45),
                               (HypothesisSpec.log_normal(), math.exp(-0.5), 46)]:
            sampler = hyp.null_sampler()
            for i in range(200):
                ys = sampler(stream(seed, i), 30)
                path = run_process(fixed(lam), ys, hyp)
                assert min(path.values) >= 0.0


class TestNullCashFlowDecay:
    def test_average_increment_shrinks_with_horizon(self):
        # |mean increment| decreases through T in {50, 200, 800} under the null
        lam, n = 0.5, 2000
        averages = []
        for tag, horizon in enumerate((50, 200, 800)):
            acc = 0.0
            for i in range(n):
                ys = (stream(51 + tag, i).random(horizon) < 0.5).astype(float)
                path = run_process(fixed(lam), ys, BERNOULLI)
                acc += abs(cash_flow(path).total) / horizon
            averages.append(acc / n)
        assert averages[0] > averages[1] > averages[2]


class TestCashFlowCLT:
    def test_normalized_sums_pass_ks(self):
        """Self-normalized cash-flow sums against N(0,1), T=500, 1e4 reps.

        Constant-stake bets on uniform outcomes keep the per-step conditional
        variance flat, which is the regime where the increment CLT applies;
        the statistic divides the cumulative increments by sqrt(T) times the
        empirical conditional-variance estimate.
        """
        from scipy import stats

        stake, horizon, n = 0.05, 500, 10_000
        hyp = HypothesisSpec.bounded()
        zs = np.empty(n)
        for i in range(n):
            us = stream(61, i).random(horizon)
            k = 1.0
            total = 0.0
            variance = 0.0
            for u in us:
                lam = min(stake / k, 2.0)
                inc = k * lam * (u - 0.5)
                variance += (lam * k) ** 2 / 12.0
                k += inc
                total += inc
            zs[i] = total / math.sqrt(variance)
        assert stats.kstest(zs, "norm").pvalue >= 0.01
