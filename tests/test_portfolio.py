"""Tests for trade limits, value neutrality, marking and portfolio decisions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

from hedgetest import portfolio, pricing
from hedgetest.portfolio import (BankruptcyRiskError, MispricedTradeError,
                                 Portfolio, TradeLimits, buy_contract,
                                 issue_contract, move_to_risky, step,
                                 trade_limits)
from hedgetest.pricing import Contract, ContractKind, LatticeModel, lattice_price
from hedgetest.rng import stream
from hedgetest.strategies import StrategyKind, StrategySpec, build_strategy
from hedgetest.wealth import HypothesisSpec

from oracles import crossing_times, path_values, step_by_comprehensions, step_by_remark

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
        with pytest.raises(BankruptcyRiskError):
            move_to_risky(all_cash(), 2.0 + 1e-6)

    def test_short_beyond_limit_rejected(self):
        with pytest.raises(BankruptcyRiskError):
            move_to_risky(all_cash(), -(2.0 + 1e-6))

    @pytest.mark.parametrize("u, d", [(1.0, 0.5), (1.5, -0.2), (0.8, 0.5)])
    def test_lattice_factors_need_down_below_one_below_up(self, u, d):
        # the portfolio carries a LatticeModel, which checks them once
        with pytest.raises(ValueError):
            Portfolio.initial(u, d)
        with pytest.raises(ValueError):
            LatticeModel(u, d)

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


def settled_covered_call():
    """0.5 calls (S = 1, tau = 1) written against 0.5 shares, expired in the
    money and stepped once more: the written calls' payoff of -0.25 paid
    out of the cash of 0.625, and shares worth 1.125."""
    p = issue_contract(move_to_risky(all_cash(), 0.5), Contract.call(1.0, 1), quantity=0.5)
    return step(step(p, 1.0), 1.0)


class TestOneSolvencyRule:
    def test_settled_payoffs_count_as_cash(self):
        p = settled_covered_call()
        assert (p.risk_free, p.risky_value, p.positions, p.due) == (0.375, 1.125, (), None)
        assert trade_limits(p) == TradeLimits(max_loan=1.875, max_short=4.125)
        # the loan bound of the cash and shares alone: a down-move ends at -0.25
        with pytest.raises(BankruptcyRiskError):
            move_to_risky(p, 2.375)

    @pytest.mark.parametrize("bound, worst", [(1.875, 0.0), (-4.125, 1.0)])
    def test_a_move_at_either_bound_ends_at_zero_on_its_worst_step(self, bound, worst):
        p = settled_covered_call()
        assert abs(step(move_to_risky(p, bound), worst).total_value) <= 1e-12
        with pytest.raises(BankruptcyRiskError):
            move_to_risky(p, bound * (1.0 + 1e-6))

    def test_a_move_at_either_bound_is_allowed_on_a_book_of_any_size(self):
        # shorts at the bound, each followed by a move 0.22 of the way up and
        # a down-step, grow the legs past 1e29; a tolerance of 1e-9 in
        # absolute terms refused the eighth short (-4.9e27), whose worst
        # case of -1.1e12 is a few ulps of its legs
        p = Portfolio.initial(1.01171875, 0.09375)
        for _ in range(8):
            for share in (0.0, 0.22):
                limits = trade_limits(p)
                span = limits.max_loan + limits.max_short
                p = step(move_to_risky(p, -limits.max_short + share * span), 0.0)
        assert p.risk_free > 1e29
        limits = trade_limits(p)
        for bound in (limits.max_loan, -limits.max_short):
            move_to_risky(p, bound)
            with pytest.raises(BankruptcyRiskError):
                move_to_risky(p, bound * (1.0 + 1e-6))

    @pytest.mark.parametrize("amount, worst", [(-2.0, 1.0), (2.0, 0.0)])
    def test_a_levered_book_rebalances_before_its_next_step(self, amount, worst):
        # a short (a loan) at the bound ends its worst step at 0; a second
        # such step, untraded, would end at -1.5 (-0.5)
        p = step(move_to_risky(all_cash(), amount), worst)
        assert p.total_value == 0.0
        for y in (0.0, 1.0):
            with pytest.raises(BankruptcyRiskError):
                step(p, y)
        flat = move_to_risky(p, -p.risky_value)
        assert step(step(flat, worst), worst).total_value == 0.0

    def test_a_held_put_secures_a_loan_beyond_the_cash_bound(self):
        # a put (S = 1, tau = 1) bought for 0.25 pays 0.5 on the down-move
        p = buy_contract(all_cash(), Contract.put(1.0, 1), quantity=1.0)
        assert p.risk_free == 0.75 and trade_limits(p).max_loan == 1.5
        levered = move_to_risky(p, 2.5)
        assert abs(step(levered, 0.0).total_value) <= 1e-12
        assert step(levered, 1.0).total_value == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(BankruptcyRiskError):
            move_to_risky(p, 2.5 + 1e-6)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("trade", [buy_contract, issue_contract])
    @pytest.mark.parametrize("quantity", [math.nan, math.inf])
    def test_non_finite_quantity_rejected(self, trade, quantity):
        with pytest.raises(ValueError, match="quantity must be positive and finite"):
            trade(all_risky(), Contract.put(0.25, 3), quantity)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
    def test_non_finite_transfer_rejected(self, amount):
        with pytest.raises(ValueError, match="finite"):
            move_to_risky(all_cash(), amount)

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(MispricedTradeError):
            buy_contract(all_risky(), Contract.put(0.25, 3), 1.0, price=price)

    @pytest.mark.parametrize("make", [Contract.put, Contract.call])
    @pytest.mark.parametrize("strike", [math.nan, math.inf])
    def test_non_finite_strike_rejected(self, make, strike):
        with pytest.raises(ValueError, match="strike must be nonnegative and finite"):
            make(strike, 3)


class TestRebalance:
    def test_moves_are_value_neutral(self):
        p = all_cash()
        for amount in (0.3, 1.2, -0.4):
            p = move_to_risky(p, amount)
            assert p.total_value == pytest.approx(1.0, abs=1e-12)

    def test_put_purchase_is_value_neutral(self):
        model = LatticeModel(U, D)
        contract = Contract.put(0.30866, 20)
        premium = lattice_price(model, contract).value
        p = buy_contract(all_risky(), contract, quantity=1.0, price=premium)
        assert p.total_value == pytest.approx(1.0, abs=1e-12)
        assert p.risk_free == pytest.approx(-premium)

    def test_mispriced_trade_rejected(self):
        contract = Contract.put(0.25, 3)
        fair = lattice_price(LatticeModel(U, D), contract).value
        with pytest.raises(MispricedTradeError):
            buy_contract(all_risky(), contract, quantity=1.0, price=fair + 1e-3)

    def test_issue_that_could_bankrupt_rejected(self):
        # a 0.1 portfolio writing a tau=3 call at S=10/8: worst payoff 17/8
        small = Portfolio(0.1, 0.0, (), LatticeModel(U, D))
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

    def test_put_pays_its_payoff_into_cash_at_expiry(self):
        # ride three losses with a protective put at S = 1/4
        contract = Contract.put(0.25, 3)
        p = buy_contract(all_risky(), contract, quantity=1.0)
        premium = -p.risk_free
        for _ in range(3):
            p = step(p, 0.0)
        assert p.underlying == pytest.approx(0.125)
        assert (p.positions, p.due) == ((), None)
        assert p.risk_free + premium == pytest.approx(0.125)
        # risky 1/8 plus put payoff 1/8: wealth 1/4 instead of 1/8
        assert p.risky_value + p.risk_free + premium == pytest.approx(0.25)

    def test_invalid_outcome_rejected(self):
        with pytest.raises(ValueError):
            step(all_risky(), 0.5)

    def test_portfolio_fields_cannot_be_assigned(self):
        p = buy_contract(all_risky(), Contract.put(0.25, 3), quantity=1.0)
        with pytest.raises(AttributeError):
            p.risk_free = 2.0
        with pytest.raises(AttributeError):
            step(p, 1.0).positions = ()

    def test_the_portfolio_carries_its_lattice_and_no_loose_factors(self):
        assert [f.name for f in dataclasses.fields(LatticeModel)] == ["up_factor",
                                                                      "down_factor"]
        assert "lattice" in Portfolio._fields
        assert not {"up_factor", "down_factor"} & set(Portfolio._fields)
        assert step(all_risky(), 1.0).lattice == LatticeModel(U, D)

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
        assert p.time == 500 and p.positions == ()
        assert len(calls) == 2

    def test_one_node_table_per_trade(self, monkeypatch):
        # the trade's backward induction builds one, and the vet's sweep one
        # for the risky leg: it reads the put's payoffs from the trade's table
        built = []
        nodes = pricing.up_count_nodes

        def counted(up, down, n):
            built.append(n)
            return nodes(up, down, n)

        monkeypatch.setattr(pricing, "up_count_nodes", counted)
        buy_contract(all_cash(), Contract.put(0.3, 20), quantity=1.0)
        assert built == [20, 20]

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


class CountedNodes(tuple):
    """A node table that counts the levels read from it."""

    reads = 0

    def __getitem__(self, level):
        self.reads += 1
        return super().__getitem__(level)


def walked(p, path):
    """The portfolios p, then p stepped along each outcome of path, each step
    checked bit for bit against the oracle that re-marks every position."""
    states = [p]
    for y in path:
        expected, marks, total = step_by_remark(states[-1], y)
        states.append(step(states[-1], y))
        assert states[-1].total_value.hex() == total.hex()
        assert states[-1].risk_free.hex() == expected.risk_free.hex()
        assert [m.hex() for m in states[-1].marks] == [m.hex() for m in marks]
        assert list(map(id, states[-1].positions)) == list(map(id, expected.positions))
        assert states[-1].due == expected.due
    return states


class TestSettlement:
    def test_only_a_settling_step_reads_a_node_table_once_per_position(self):
        p = buy_contract(all_risky(), Contract.put(0.25, 3), quantity=1.0)
        p = buy_contract(p, Contract.call(1.5, 5), quantity=0.1)
        p = step(p, 1.0)
        p = buy_contract(p, Contract.put(0.5, 3), quantity=0.2)
        tables = [CountedNodes(pos.nodes) for pos in p.positions]
        p = p._replace(positions=tuple(dataclasses.replace(pos, nodes=nodes)
                                       for pos, nodes in zip(p.positions, tables)))
        reads = []
        for y in (0.0, 1.0, 0.0, 1.0, 0.0, 1.0):     # time 1 to 7
            p = step(p, y)
            reads.append([nodes.reads for nodes in tables])
        # the step reaching time 3 settles both expiries 3, the one reaching 5 the call
        assert reads == [[0, 0, 0], [1, 0, 1], [1, 0, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]]
        assert (p.positions, p.due) == ((), None)

    def test_positions_with_different_expiries_settle_in_turn(self):
        p = buy_contract(all_risky(), Contract.put(1.0, 2), quantity=1.0)
        p = buy_contract(p, Contract.call(1.0, 4), quantity=0.2)
        put, call = p.positions
        states = walked(p, [0.0, 1.0, 1.0, 1.0, 0.0])
        assert [s.due for s in states] == [2, 2, 4, 4, None, None]
        assert [s.positions for s in states] == [(put, call)] * 2 + [(call,)] * 2 + [()] * 2
        put_payoff, call_payoff = put.value_at(2, states[2].ups), call.value_at(4, states[4].ups)
        assert put_payoff == 0.25 and call_payoff == pytest.approx(0.6875)
        assert states[2].risk_free == states[1].risk_free + put_payoff
        assert states[4].risk_free == states[3].risk_free + 0.2 * call_payoff
        cash = [s.risk_free for s in states]
        assert cash[:2] == [p.risk_free] * 2 and cash[2:4] == [cash[2]] * 2 and cash[5] == cash[4]

    def test_trade_at_an_expiry_time_before_stepping(self):
        p = buy_contract(all_risky(), Contract.put(0.5, 2), quantity=1.0)
        before = step(p, 0.0)
        p = step(before, 0.0)
        assert (p.time, p.due, p.positions) == (2, None, ())
        assert p.risk_free == before.risk_free + 0.25
        p = buy_contract(p, Contract.put(0.25, 4), quantity=0.5)
        assert p.due == 4 and len(p.positions) == 1
        states = walked(p, [1.0, 0.0, 0.0])
        assert [s.due for s in states] == [4, 4, None, None]
        assert [len(s.positions) for s in states] == [1, 1, 0, 0]
        assert states[2].risk_free == states[1].risk_free + 0.5 * 0.0625

    def test_trade_after_a_settlement(self):
        p = buy_contract(all_risky(), Contract.put(0.75, 1), quantity=1.0)
        premium = -p.risk_free
        p = step(step(p, 0.0), 1.0)
        assert (p.risk_free, p.positions, p.due) == (0.25 - premium, (), None)
        p = buy_contract(p, Contract.call(0.5, 4), quantity=0.25)
        assert (len(p.positions), p.due) == (1, 4)
        states = walked(p, [1.0, 1.0, 0.0])
        assert [s.due for s in states] == [4, 4, None, None]
        assert [len(s.positions) for s in states] == [1, 1, 0, 0]
        call = p.positions[0]
        assert states[2].risk_free == states[1].risk_free + 0.25 * call.value_at(4, states[2].ups)

    def test_a_book_built_without_its_due_expiry_is_refused_on_its_first_step(self):
        # with due None the put would never settle, and marking it past its
        # expiry would read outside its node table
        p = buy_contract(all_risky(), Contract.put(0.8, 2), quantity=1.0)
        hand_built = Portfolio(p.risk_free, p.risky_value, p.positions, p.lattice)
        assert hand_built.due is None
        with pytest.raises(ValueError, match="earliest expiry in due"):
            step(hand_built, 0.0)

    def test_a_book_whose_due_is_past_a_held_expiry_is_refused_when_it_reaches_due(self):
        # due 4 skips the put's expiry 2, so the step reaching 2 settles
        # nothing; marking the put at 3 would read outside its node table
        p = buy_contract(all_risky(), Contract.put(0.8, 2), quantity=1.0)
        late = step(step(step(p._replace(due=4), 0.0), 1.0), 0.0)
        assert (late.time, late.positions, late.risk_free) == (3, p.positions, p.risk_free)
        with pytest.raises(ValueError, match="due 4 is past the expiry 2 of a held contract"):
            step(late, 1.0)

    @given(share=st.floats(0.0, 1.0),
           trades=st.lists(st.tuples(st.sampled_from([Contract.put, Contract.call]),
                                     st.floats(0.1, 2.0), st.integers(1, 4),
                                     st.sampled_from([buy_contract, issue_contract]),
                                     st.floats(0.01, 1.0), st.booleans()),
                           min_size=1, max_size=4),
           path=st.lists(st.sampled_from([0.0, 1.0]), min_size=7, max_size=7))
    def test_every_step_settles_as_the_comprehensions_did(self, share, trades, path):
        # contracts bought and written, at time 0 or after the first step,
        # with shared and distinct expiries; every step until the book is
        # empty and one past it, compared bit for bit with the oracle
        p = move_to_risky(all_cash(), share)
        for late in (False, True):
            if late:
                p = self._checked_step(p, path[0])
            for kind, strike, expiry, trade, quantity, at_one in trades:
                if at_one == late:
                    try:
                        p = trade(p, kind(strike, expiry + late), quantity)
                    except BankruptcyRiskError:
                        pass
        if not p.positions:
            reject()
        for y in path[1:]:
            try:
                p = self._checked_step(p, y)
            except BankruptcyRiskError:     # an empty book that must rebalance
                assert not p.positions
                break

    @staticmethod
    def _checked_step(p, y):
        expected, total = step_by_comprehensions(p, y)
        moved = step(p, y)
        assert moved.risk_free.hex() == expected.risk_free.hex()
        assert moved.due == expected.due
        assert list(map(id, moved.positions)) == list(map(id, expected.positions))
        assert moved.total_value.hex() == total.hex()
        return moved


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
        marks = lattice_node_values(LatticeModel(U, D), contract)
        for t in range(tau + 1):
            assert np.allclose(marks[t], values[t], rtol=0, atol=1e-12)


class TestPortfolioDecision:
    def test_all_cash_never_rejects(self):
        history = np.ones((1, 50))
        for alpha in (0.01, 0.05, 0.5):
            assert crossing_times(history, alpha)[0] < 0

    def test_pure_risky_matches_process_decision(self):
        hyp = HypothesisSpec.bernoulli(0.5, 0.75)
        kelly = build_strategy(StrategySpec(StrategyKind.KELLY), hyp, 15)
        ys = np.array([stream(221, i).random(15) < 0.75 for i in range(50)], dtype=float)
        totals = np.empty((50, 16))
        for i in range(50):
            p = all_risky()
            totals[i, 0] = p.total_value
            for t, y in enumerate(ys[i], 1):
                p = step(p, y)
                totals[i, t] = p.total_value
        ours = crossing_times(totals, 0.05)
        reference = crossing_times(path_values(kelly, ys, hyp), 0.05)
        assert np.array_equal(ours >= 0, reference >= 0)
        assert np.array_equal(ours, reference)

    def test_mixed_portfolio_validity_under_null(self):
        # 50/50 with a put: rejection frequency <= alpha + 3 SEs
        contract = Contract.put(0.30866, 20)
        start = buy_contract(move_to_risky(all_cash(), 0.5), contract, quantity=0.5)
        n, alpha = 10_000, 0.05
        totals = np.empty((n, 21))
        for i in range(n):
            ys = (stream(231, i).random(20) < 0.5).astype(float)
            p = start
            totals[i, 0] = p.total_value
            for t, y in enumerate(ys, 1):
                p = step(p, y)
                totals[i, t] = p.total_value
        rejections = np.count_nonzero(crossing_times(totals, alpha) >= 0)
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

