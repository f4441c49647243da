"""Tests for trade limits, value neutrality, marking and portfolio decisions."""

import math

import numpy as np
import pytest

from hedgetest import portfolio, pricing
from hedgetest.portfolio import (BankruptcyRiskError, MispricedTradeError,
                                 Portfolio, TradeLimitError, buy_contract,
                                 issue_contract, move_to_risky, step,
                                 trade_limits)
from hedgetest.pricing import Contract, ContractKind, LatticeModel, lattice_price
from hedgetest.rng import stream
from hedgetest.strategies import StrategyKind, StrategySpec, build_strategy
from hedgetest.wealth import (HypothesisSpec, decide_from_values, run_process,
                              ville_decide)

U, D = 1.5, 0.5


def all_cash():
    return Portfolio.initial(U, D)


def all_risky():
    return move_to_risky(all_cash(), 1.0)


class TestTradeLimits:
    def test_all_cash_bounds(self):
        limits = trade_limits(all_cash())
        assert limits.max_loan == pytest.approx(2.0)
        assert limits.max_short == pytest.approx(2.0)

    def test_all_risky_bounds(self):
        limits = trade_limits(all_risky())
        assert limits.max_loan == pytest.approx(1.0)
        assert limits.max_short == pytest.approx(3.0)

    def test_max_loan_then_worst_move_hits_zero(self):
        p = move_to_risky(all_cash(), trade_limits(all_cash()).max_loan)
        worst = step(p, 0.0)
        assert abs(worst.total_value) <= 1e-12

    def test_max_short_then_worst_move_hits_zero(self):
        p = move_to_risky(all_risky(), -trade_limits(all_risky()).max_short)
        worst = step(p, 1.0)
        assert abs(worst.total_value) <= 1e-12

    def test_loan_beyond_limit_rejected(self):
        with pytest.raises(TradeLimitError):
            move_to_risky(all_cash(), 2.0 + 1e-6)

    def test_short_beyond_limit_rejected(self):
        with pytest.raises(TradeLimitError):
            move_to_risky(all_cash(), -(2.0 + 1e-6))

    @pytest.mark.parametrize("u, d", [(1.0, 0.5), (1.5, -0.2), (0.8, 0.5)])
    def test_lattice_factors_need_down_below_one_below_up(self, u, d):
        with pytest.raises(ValueError):
            Portfolio.initial(u, d)
        with pytest.raises(ValueError):
            trade_limits(Portfolio(1.0, 0.0, (), u, d))
        with pytest.raises(ValueError):
            move_to_risky(Portfolio(1.0, 0.0, (), u, d), 0.1)

    @pytest.mark.parametrize("written, amount", [
        (Contract.call(1.0, 1), -2.5),     # short into an issued call's up-move
        (Contract.put(1.0, 1), 2.5),       # loan into an issued put's down-move
    ])
    def test_move_within_limits_that_contracts_could_bankrupt_rejected(
            self, written, amount):
        p = issue_contract(all_cash(), written, quantity=1.0)
        limits = trade_limits(p)
        assert -limits.max_short <= amount <= limits.max_loan
        with pytest.raises(BankruptcyRiskError):
            move_to_risky(p, amount)
        assert move_to_risky(p, amount / 2).total_value == pytest.approx(1.0)


class TestRebalance:
    def test_moves_are_value_neutral(self):
        p = all_cash()
        for amount in (0.3, 1.2, -0.4):
            p = move_to_risky(p, amount)
            assert p.total_value == pytest.approx(1.0, abs=1e-12)

    def test_put_purchase_is_value_neutral(self):
        model = LatticeModel(U, D, 20)
        contract = Contract.put(0.30866, 20)
        premium = lattice_price(model, contract).value
        p = buy_contract(all_risky(), contract, quantity=1.0, price=premium)
        assert p.total_value == pytest.approx(1.0, abs=1e-12)
        assert p.risk_free == pytest.approx(-premium)

    def test_mispriced_trade_rejected(self):
        contract = Contract.put(0.25, 3)
        fair = lattice_price(LatticeModel(U, D, 3), contract).value
        with pytest.raises(MispricedTradeError):
            buy_contract(all_risky(), contract, quantity=1.0, price=fair + 1e-3)

    def test_issue_that_could_bankrupt_rejected(self):
        # a 0.1 portfolio writing a tau=3 call at S=10/8: worst payoff 17/8
        small = Portfolio(0.1, 0.0, (), U, D)
        contract = Contract.call(10 / 8, 3)
        with pytest.raises(BankruptcyRiskError):
            issue_contract(small, contract, quantity=1.0)

    def test_covered_issue_allowed(self):
        p = issue_contract(all_risky(), Contract.call(10 / 8, 3), quantity=1.0)
        assert p.total_value == pytest.approx(1.0, abs=1e-12)
        assert p.positions[0].quantity == -1.0


class TestStep:
    def test_up_move_scales_risky_leg(self):
        p = step(all_risky(), 1.0)
        assert p.risky_value == pytest.approx(1.5)
        assert p.risk_free == 0.0
        assert p.underlying == pytest.approx(1.5)

    def test_put_marks_payoff_at_expiry(self):
        # ride three losses with a protective put at S = 1/4
        contract = Contract.put(0.25, 3)
        p = buy_contract(all_risky(), contract, quantity=1.0)
        for _ in range(3):
            p = step(p, 0.0)
        assert p.underlying == pytest.approx(0.125)
        assert p.marks[0] == pytest.approx(0.125)
        # risky 1/8 plus put payoff 1/8: wealth 1/4 instead of 1/8
        assert p.risky_value + p.positions[0].quantity * p.marks[0] == pytest.approx(0.25)

    def test_expired_mark_stays_frozen(self):
        contract = Contract.put(0.25, 2)
        p = buy_contract(all_risky(), contract, quantity=1.0)
        p = step(step(p, 0.0), 0.0)
        frozen = p.marks[0]
        p = step(p, 1.0)
        assert p.marks[0] == frozen

    def test_invalid_outcome_rejected(self):
        with pytest.raises(ValueError):
            step(all_risky(), 0.5)

    def test_portfolio_fields_cannot_be_assigned(self):
        p = buy_contract(all_risky(), Contract.put(0.25, 3), quantity=1.0)
        with pytest.raises(AttributeError):
            p.risk_free = 2.0
        with pytest.raises(AttributeError):
            step(p, 1.0).positions = ()

    def test_position_without_a_mark_rejected(self):
        held = buy_contract(all_risky(), Contract.put(0.25, 3), quantity=1.0)
        unmarked = Portfolio(held.risk_free, held.risky_value, held.positions, U, D)
        with pytest.raises(ValueError):
            unmarked.total_value
        with pytest.raises(ValueError):
            step(unmarked, 1.0)

    def test_clock_stays_python_int_on_numpy_outcomes(self):
        p = step(step(all_risky(), np.float64(1.0)), np.float64(0.0))
        assert (p.time, p.ups) == (2, 1)
        assert type(p.time) is int and type(p.ups) is int

    def test_one_backward_induction_per_trade_none_per_step(self, monkeypatch):
        # counted under both names, so a lattice_price call would count too
        calls = []
        induce = pricing.lattice_node_values

        def counted(*args, **kwargs):
            calls.append(args)
            return induce(*args, **kwargs)

        monkeypatch.setattr(portfolio, "lattice_node_values", counted)
        monkeypatch.setattr(pricing, "lattice_node_values", counted)
        p = buy_contract(move_to_risky(all_cash(), 0.5), Contract.put(0.3, 500),
                         quantity=0.5)
        ys = (stream(251, 0).random(500) < 0.5).astype(float)
        for t, y in enumerate(ys):
            if t == 100:
                p = buy_contract(p, Contract.call(2.0, 300), quantity=0.1)
            p = step(p, y)
        assert p.time == 500 and len(p.positions) == 2
        assert len(calls) == 2

    def test_rounding_below_zero_marks_zero(self):
        dust = Contract(ContractKind.CUSTOM_EUROPEAN, 0.0, 3,
                        payoff_fn=lambda k: np.full_like(k, -1e-16))
        p = buy_contract(all_risky(), dust, quantity=1.0)
        assert p.marks[0] == 0.0
        assert step(p, 0.0).marks[0] == 0.0

    def test_negative_node_value_rejected_at_trade(self):
        # a forward at strike 1 is worth 0 at the root but -1/2 after a loss
        forward = Contract(ContractKind.CUSTOM_EUROPEAN, 0.0, 3,
                           payoff_fn=lambda k: k - 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            buy_contract(all_risky(), forward, quantity=1.0)

    def test_marked_total_value_is_martingale_by_node(self):
        contract = Contract.put(0.3, 4)
        start = buy_contract(all_risky(), contract, quantity=1.0)

        def totals(p):
            return step(p, 1.0), step(p, 0.0)

        frontier = [start]
        for _ in range(4):
            nxt = []
            for p in frontier:
                up, down = totals(p)
                assert 0.5 * (up.total_value + down.total_value) == pytest.approx(
                    p.total_value, abs=1e-12)
                nxt.extend([up, down])
            frontier = nxt

    def test_empirical_martingale_with_put_held(self):
        # Monte Carlo under the null: mean total after 20 steps is 1 within 3 SEs
        contract = Contract.put(0.30866, 20)
        start = buy_contract(move_to_risky(all_cash(), 0.5), contract, quantity=0.5)
        n = 4000
        finals = np.empty(n)
        for i in range(n):
            ys = (stream(201, i).random(20) < 0.5).astype(float)
            p = start
            for y in ys:
                p = step(p, y)
            finals[i] = p.total_value
        se = finals.std(ddof=1) / math.sqrt(n)
        assert abs(finals.mean() - 1.0) <= 3 * se


class TestLemmaOneFuzz:
    def test_random_admissible_trades_never_go_negative(self):
        episodes, horizon = 10_000, 10
        for i in range(episodes):
            rng = stream(211, i)
            p = all_cash()
            low = 0.0
            for _ in range(horizon):
                limits = trade_limits(p)
                amount = rng.uniform(-limits.max_short, limits.max_loan)
                p = move_to_risky(p, amount)
                p = step(p, float(rng.random() < 0.5))
                low = min(low, p.total_value)
            assert low >= -1e-12


class TestReplication:
    def test_two_leg_replication_matches_put_payoff(self):
        """Delta-hedged cash + shares reproduce the put value at every node.

        At each node hold shares = (V_up - V_down) / (K*(u - d)) plus the
        cash completing the node value; the mix must land exactly on both
        successor values, and the induced expiry values must be the payoff.
        """
        from oracles import replicating_portfolio_terminal

        tau, strike = 6, 0.6
        contract = Contract.put(strike, tau)
        values = replicating_portfolio_terminal(U, D, tau, contract.payoff)
        for t in range(tau):
            for j in range(t + 1):
                underlying = U**j * D ** (t - j)
                v = values[t][j]
                v_up, v_down = values[t + 1][j + 1], values[t + 1][j]
                shares = (v_up - v_down) / (underlying * (U - D))
                cash = v - shares * underlying
                assert abs(cash + shares * underlying * U - v_up) <= 1e-10
                assert abs(cash + shares * underlying * D - v_down) <= 1e-10
        for j in range(tau + 1):
            k = U**j * D ** (tau - j)
            assert abs(values[tau][j] - contract.payoff(k)) <= 1e-10
        # the library's own marks agree with the independent induction
        from hedgetest.pricing import lattice_node_values
        marks = lattice_node_values(LatticeModel(U, D, tau), contract)
        for t in range(tau + 1):
            assert np.allclose(marks[t], values[t], rtol=0, atol=1e-12)


class TestPortfolioDecision:
    def test_all_cash_never_rejects(self):
        history = [1.0] * 50
        for alpha in (0.01, 0.05, 0.5):
            assert not decide_from_values(history, alpha).rejected

    def test_pure_risky_matches_process_decision(self):
        hyp = HypothesisSpec.bernoulli(0.5, 0.75)
        kelly = build_strategy(StrategySpec(StrategyKind.KELLY), hyp, 15)
        for i in range(50):
            ys = (stream(221, i).random(15) < 0.75).astype(float)
            path = run_process(kelly, ys, hyp)
            p = all_risky()
            totals = [p.total_value]
            for y in ys:
                p = step(p, y)
                totals.append(p.total_value)
            ours = decide_from_values(totals, 0.05)
            reference = ville_decide(path, 0.05)
            assert ours.rejected == reference.rejected
            assert ours.crossing_time == reference.crossing_time

    def test_mixed_portfolio_validity_under_null(self):
        # 50/50 with a put: rejection frequency <= alpha + 3 SEs
        contract = Contract.put(0.30866, 20)
        start = buy_contract(move_to_risky(all_cash(), 0.5), contract, quantity=0.5)
        n, alpha = 10_000, 0.05
        rejections = 0
        for i in range(n):
            ys = (stream(231, i).random(20) < 0.5).astype(float)
            p = start
            totals = [p.total_value]
            for y in ys:
                p = step(p, y)
                totals.append(p.total_value)
            rejections += decide_from_values(totals, alpha).rejected
        se = math.sqrt(alpha * (1 - alpha) / n)
        assert rejections / n <= alpha + 3 * se


class TestLeverageQualitative:
    def test_leverage_raises_mean_and_spread_under_alternative(self):
        """Loan-funded exposure beats the unlevered book on both moments."""
        n, horizon = 3000, 10

        def run(leverage):
            finals = np.empty(n)
            for i in range(n):
                ys = (stream(241, i).random(horizon) < 0.75).astype(float)
                p = all_cash()
                for y in ys:
                    limits = trade_limits(p)
                    target = min(leverage * p.total_value - p.risky_value,
                                 limits.max_loan)
                    p = move_to_risky(p, target)
                    p = step(p, y)
                finals[i] = p.total_value
            return finals.mean(), finals.std(ddof=1)

        base_mean, base_sd = run(1.0)
        lev_mean, lev_sd = run(1.5)
        assert lev_mean > base_mean
        assert lev_sd > base_sd

