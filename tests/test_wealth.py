"""Tests for the wealth-process core: updates, decision rule, invariants."""

import math
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import hedgetest
from hedgetest import wealth
from hedgetest.pricing import Contract, LatticeModel, mc_price
from hedgetest.rng import bernoulli, bernoulli_words, stream
from hedgetest.strategies import StrategyKind, StrategySpec, build_strategy
from hedgetest.wealth import (Family, HypothesisSpec, InadmissibleBetError,
                              OutcomeError, evolve, hedged_cs)

from oracles import (constant_bet_finals, crossing_times, nodes_by_fractions, path_values,
                     wealth_by_hand)

BERNOULLI = HypothesisSpec.bernoulli(0.5, 0.75)
KELLY = build_strategy(StrategySpec(StrategyKind.KELLY), BERNOULLI, 20)


def one_step(lam, y, start=1.0, hyp=BERNOULLI):
    """The wealths after one evolve step betting lam on the outcomes y, one per row."""
    (k, _), = evolve(lambda k, t: lam, np.reshape(y, (-1, 1)), hyp, start=start)
    return k.tolist()


class TestStepRule:
    """The step K_t = K_{t-1} * (1 + lam*(y_t - null_mean)) of evolve."""

    def test_kelly_win_multiplies_by_three_halves(self):
        assert one_step(1.0, [1.0]) == [1.5]

    def test_kelly_loss_multiplies_by_one_half(self):
        assert one_step(1.0, [0.0]) == [0.5]

    @pytest.mark.parametrize("k", [1.0, 0.25, 7.5])
    @pytest.mark.parametrize("y,m", [(0.0, 0.5), (1.0, 0.5), (0.3, 0.7)])
    def test_zero_bet_leaves_wealth_unchanged(self, k, y, m):
        assert one_step(0.0, [y], k, HypothesisSpec.bounded(m)) == [k]

    def test_rejects_inadmissible_fraction(self):
        for lam in (2.5, -2.5, np.array([1.0, 2.5, 0.0])):
            with pytest.raises(InadmissibleBetError):
                one_step(lam, [1.0, 1.0, 1.0])
        hyp = HypothesisSpec.log_normal()
        with pytest.raises(InadmissibleBetError):
            one_step(hyp.lambda_bounds()[1] * 1.01, [1.0], hyp=hyp)

    def test_boundary_bet_hits_exact_zero(self):
        steps = list(evolve(lambda k, t: 2.0, [[0.0, 1.0, 1.0]], BERNOULLI))
        assert [k.tolist() for k, _ in steps] == [[0.0], [0.0], [0.0]]
        assert [lam for _, lam in steps] == [2.0, 0.0, 0.0]
        assert one_step(-2.0, [1.0], hyp=HypothesisSpec.bounded()) == [0.0]

    @pytest.mark.parametrize("y", [[-0.5], [math.nan], [0.5, -0.5, 0.5]])
    def test_out_of_support_outcome_detected(self, y):
        with pytest.raises(OutcomeError):
            one_step(2.0, y, hyp=HypothesisSpec.bounded())
        with pytest.raises(OutcomeError):
            one_step(1.0, y, start=0.0)


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
        with pytest.raises(OutcomeError):
            hyp.validate_outcomes([math.inf, 1.0])
        with pytest.raises(OutcomeError):
            wealth.null_paths(0.0, hyp, 2)[1]([[math.inf, 1.0]])

    def test_log_normal_null_mean_is_exp_half(self):
        assert HypothesisSpec.log_normal().null_mean == math.exp(0.5)

    @pytest.mark.parametrize("mu", [0.3, -1.0, math.nan])
    def test_log_normal_null_mu_must_be_zero(self, mu):
        with pytest.raises(ValueError):
            HypothesisSpec(Family.LOG_NORMAL_UNIT_VARIANCE, mu)
        assert HypothesisSpec.log_normal().null_param == 0.0

    def test_bernoulli_params_validated(self):
        with pytest.raises(ValueError):
            HypothesisSpec.bernoulli(1.5)

    def test_lambda_bounds_by_family(self):
        assert BERNOULLI.lambda_bounds() == (-2.0, 2.0)
        lo, hi = HypothesisSpec.log_normal().lambda_bounds()
        assert lo == 0.0
        assert hi == pytest.approx(math.exp(-0.5))


class TestOnePath:
    """One path is a batch of one."""

    def test_three_losses_leave_one_eighth(self):
        values = path_values(KELLY, [[0, 0, 0]], BERNOULLI)[0]
        assert values[-1] == 0.125
        assert values.tolist() == [1.0, 0.5, 0.25, 0.125]

    def test_three_wins_reach_twenty_seven_eighths(self):
        assert path_values(KELLY, [[1, 1, 1]], BERNOULLI)[0, -1] == 27 / 8

    def test_zero_fraction_gives_constant_path(self):
        values = path_values(lambda k, t: 0.0, [[1, 0, 1, 1, 0]], BERNOULLI)[0]
        assert values.tolist() == [1.0] * 6

    def test_path_satisfies_recurrence(self):
        rng = stream(11, 0)
        outcomes = (rng.random(25) < 0.6).astype(float)
        dynamic = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25)
        steps = list(evolve(build_strategy(dynamic, BERNOULLI, 25), [outcomes], BERNOULLI))
        values = [1.0] + [k[0] for k, _ in steps]
        expected = wealth_by_hand([lam[0] for _, lam in steps], outcomes, 0.5)
        assert np.allclose(values, expected, rtol=0, atol=1e-15)

    def test_strategy_sees_only_the_past(self):
        seen = []

        def spy(wealth, t):
            seen.append((t, wealth.tolist()))
            return 1.0

        values = path_values(spy, [[1, 0, 1]], BERNOULLI)[0]
        assert len(seen) == 3
        for t, (step, wealth) in enumerate(seen):
            assert (step, wealth) == (t, [values[t]])   # exactly K_t

    def test_ruined_path_stays_at_zero(self):
        calls = []

        def greedy(wealth, t):
            calls.append(t)
            return 2.0

        values = path_values(greedy, [[0, 1, 1]], BERNOULLI)[0]
        assert values.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.any(values == 0.0)
        assert calls == [0]   # no bets are solicited after ruin

    def test_inadmissible_strategy_propagates(self):
        with pytest.raises(InadmissibleBetError):
            path_values(lambda k, t: 3.0, [[1, 1]], BERNOULLI)

    def test_log_normal_family_runs(self):
        hyp = HypothesisSpec.log_normal()
        lam = math.exp(-0.5)
        ys = [math.exp(z) for z in (0.3, -1.2, 0.8)]
        final = path_values(lambda k, t: lam, [ys], hyp)[0, -1]
        # all-or-nothing updates reduce to exp(z - 1/2) per step
        expected = math.exp(sum((0.3, -1.2, 0.8)) - 1.5)
        assert final == pytest.approx(expected, rel=1e-12)


class TestConstantBet:
    """Final wealth under a constant fraction: evolve's last step, and
    null_paths' process off the fair coin."""

    @pytest.mark.parametrize("hyp,draw,lams", [
        (BERNOULLI, lambda rng, shape: (rng.random(shape) < 0.5).astype(float),
         (-2.0, -0.7, 0.0, 1.0, 2.0)),
        (HypothesisSpec.bounded(), lambda rng, shape: rng.random(shape),
         (-2.0, 0.3, 1.9, 2.0)),
        (HypothesisSpec.log_normal(), lambda rng, shape: np.exp(rng.standard_normal(shape)),
         (0.0, 0.2, math.exp(-0.5))),
    ])
    def test_matches_the_oracle_row_by_row(self, hyp, draw, lams):
        ys = draw(stream(61), (200, 15))
        for lam in lams:
            finals = constant_bet_finals(lam, ys, hyp)
            assert finals.shape == (200,)
            for row, final in zip(ys, finals):
                expected = wealth_by_hand([lam] * 15, row, hyp.null_mean)[-1]
                assert final == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_ruined_row_stays_at_zero(self):
        ys = np.array([[0, 1, 1], [1, 1, 1]])
        assert constant_bet_finals(2.0, ys, BERNOULLI).tolist() == [0.0, 8.0]
        # the bounded null of mean 1/2 has the fair coin's factors
        assert wealth.null_paths(2.0, HypothesisSpec.bounded(), 3)[1](ys).tolist() == [0.0, 8.0]

    def test_overflowed_row_meeting_a_zero_factor_is_ruined(self):
        # the product overflows to inf, then the factor 1 - e^{-1/2} e^{1/2}
        # is 0: inf * 0 is NaN in floating point, a ruined row, with no warning
        hyp, ys, lam = HypothesisSpec.log_normal(), np.array([[1e300, 1e300, 1e-300]]), \
            math.exp(-0.5)
        assert wealth.null_paths(lam, hyp, 3)[1](ys).tolist() == [0.0]
        assert path_values(lambda k, t: lam, ys, hyp)[0, 2:].tolist() == [math.inf, 0.0]

    def test_evolve_reaches_inf_then_ruin_without_a_warning(self):
        # 1e308 doubles past the float range, then a factor 0 ruins it; the
        # suite turns a numpy RuntimeWarning into an error
        steps = evolve(lambda k, t: 2.0, [[1.0, 0.0, 1.0]], BERNOULLI, start=1e308)
        assert [k.tolist() for k, _ in steps] == [[math.inf], [0.0], [0.0]]

    def test_same_errors_as_a_batch_of_one(self):
        outside = np.exp(stream(62).standard_normal((3, 4)))
        with pytest.raises(OutcomeError):
            path_values(lambda k, t: 1.0, outside[:1], BERNOULLI)
        with pytest.raises(OutcomeError):
            wealth.null_paths(1.0, HypothesisSpec.bernoulli(0.25), 4)[1](outside)
        with pytest.raises(InadmissibleBetError):
            path_values(lambda k, t: 3.0, [[1, 1]], BERNOULLI)

    @pytest.mark.parametrize("hyp", [BERNOULLI, HypothesisSpec.bernoulli(0.25),
                                     HypothesisSpec.bounded(), HypothesisSpec.log_normal()])
    def test_inadmissible_bet_with_no_steps_is_refused(self, hyp):
        with pytest.raises(InadmissibleBetError):
            wealth.null_paths(hyp.lambda_bounds()[1] * 1.01, hyp, 0)


FAIR = HypothesisSpec.bernoulli(0.5)


@st.composite
def word_cases(draw):
    """1-140 fair-coin steps, 0-40 rows, a seed and a fraction anywhere in
    the fair coin's bounds, endpoints (a factor of 0) included."""
    lo, hi = FAIR.lambda_bounds()
    lam = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
    return (draw(st.integers(1, 140)), draw(st.integers(0, 40)),
            draw(st.integers(0, 2**32 - 1)), lam)


class TestFairCoinNodes:
    # at the fair-coin null, null_paths' process maps each path's packed
    # outcome words to the lattice node of its number of ups
    @given(word_cases())
    @example((16, 7, 6, -2.0))
    @example((66, 9, 7, 2.0))
    @example((50, 40, 8, 1.3))
    @example((64, 9, 9, 2.0))       # one full word
    @example((65, 9, 10, -2.0))     # one bit into the second word
    @example((128, 9, 11, 1.0))     # two full words
    @example((129, 9, 12, 0.7))     # one bit into the third word
    def test_each_path_is_the_node_of_its_up_count(self, case):
        steps, rows, seed, lam = case
        packed_rng, table_rng = stream(seed, 3), stream(seed, 3)
        words = bernoulli_words(packed_rng, steps, rows)
        table = bernoulli(table_rng, np.full(steps, 0.5), rows)
        assert words.dtype == np.uint64 and words.shape == (rows, -(-steps // 64))
        unpacked = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1,
                                 count=steps, bitorder="little")
        assert table.tobytes() == unpacked.astype(float).tobytes()
        assert packed_rng.bit_generator.state == table_rng.bit_generator.state
        with np.errstate(over="ignore", invalid="ignore"):
            got = wealth.null_paths(lam, FAIR, steps)[1](words)
            product = constant_bet_finals(lam, table, FAIR)
        # each path is the correctly rounded node of its number of ups
        ups = table.sum(axis=1).astype(np.intp)
        down, up = 1.0 - lam / 2, 1.0 + lam / 2
        assert got.tobytes() == np.array(nodes_by_fractions(up, down, steps))[ups].tobytes()
        if 0.0 < down < 1.0 < up:           # where the lattice exists
            lattice = LatticeModel.for_bernoulli_bet(lam, 0.5).terminal_values(steps)
            assert got.tobytes() == lattice[ups].tobytes()
        # where no power leaves the normal range, neither does any partial
        # product, and both roundings stay within a few ulps
        tiny = np.finfo(float).tiny
        up_power = np.array(nodes_by_fractions(up, 1.0, steps))[ups]
        down_power = np.array(nodes_by_fractions(1.0, down, steps))[ups]
        normal = ((up_power >= tiny) & (up_power < math.inf)
                  & (down_power >= tiny) & (down_power < math.inf))
        gap = np.abs(got - product)[normal]
        assert np.all(gap <= (steps + 2) * 2.0 ** -52 * product[normal])

    def test_the_overflow_example_reaches_inf_and_zero(self):
        # 2**1032 is past the double range, and inf times a factor 0**1 is 0:
        # paths of 1030 ups, then 2 fair steps
        _, final = wealth.null_paths(2.0, FAIR, 1032)
        words = bernoulli_words(stream(5, 3), 1032, 40)
        words[:, :16] = ~np.uint64(0)
        words[:, 16] |= np.uint64(2**6 - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            finals = final(words)
        assert math.inf in finals and 0.0 in finals

    def test_no_steps_is_wealth_one(self):
        sample, final = wealth.null_paths(2.0, FAIR, 0)
        words = sample(stream(1), (3, 0))
        assert words.shape == (3, 0)
        assert final(words).tolist() == [1.0] * 3

    def test_inadmissible_bet_is_refused(self):
        with pytest.raises(InadmissibleBetError):
            wealth.null_paths(2.5, FAIR, 3)


class TestNullPaths:
    @pytest.mark.parametrize("hyp,lam,tau", [
        (HypothesisSpec.bernoulli(0.5), 1.0, 20),
        (HypothesisSpec.bernoulli(0.5), -2.0, 3),
        (HypothesisSpec.bernoulli(0.5), 2.0, 70),
        (HypothesisSpec.bernoulli(0.25), 1.0, 20),
        (HypothesisSpec.bounded(), 1.5, 20),
        (HypothesisSpec.log_normal(), 0.5, 20),
    ])
    def test_prices_as_the_reference_path(self, hyp, lam, tau):
        contract = Contract.put(0.3, tau)
        got = mc_price(*wealth.null_paths(lam, hyp, tau), contract, 5000, seed=31)
        expected = mc_price(hyp.null_sampler(), lambda ys: constant_bet_finals(lam, ys, hyp),
                            contract, 5000, seed=31)
        assert (got.value, got.std_error) == (expected.value, expected.std_error)

    def test_only_the_fair_coin_takes_packed_words(self):
        for null_p, dtype in ((0.5, np.uint64), (0.25, np.float64)):
            sample, _ = wealth.null_paths(1.0, HypothesisSpec.bernoulli(null_p), 70)
            assert sample(stream(1), (4, 70)).dtype == dtype

    def test_word_sampler_refuses_another_horizon(self):
        sample, _ = wealth.null_paths(1.0, BERNOULLI, 20)
        with pytest.raises(ValueError, match="20 steps"):
            sample(stream(1), (4, 21))


class TestEvolve:
    def test_ruined_rows_bet_zero_while_others_bet(self):
        seen = []

        def strategy(wealth, t):
            seen.append(wealth.tolist())
            return np.where(wealth > 0.0, 2.0, 5.0)   # 5 is inadmissible

        ys = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        steps = list(evolve(strategy, ys, BERNOULLI))
        assert [k.tolist() for k, _ in steps] == [[0.0, 2.0], [0.0, 4.0], [0.0, 8.0]]
        assert [np.broadcast_to(lam, 2).tolist() for _, lam in steps] == \
            [[2.0, 2.0], [0.0, 2.0], [0.0, 2.0]]
        assert seen == [[1.0, 1.0], [0.0, 2.0], [0.0, 4.0]]

    def test_start_and_clock_offset(self):
        seen = []

        def strategy(wealth, t):
            seen.append(t)
            return 1.0

        steps = evolve(strategy, np.array([[1.0, 0.0]] * 2), BERNOULLI,
                       start=np.array([2.0, 0.5]), t0=7)
        assert [k.tolist() for k, _ in steps] == [[3.0, 0.75], [1.5, 0.375]]
        assert seen == [7, 8]

    def test_outcomes_must_be_a_matrix(self):
        with pytest.raises(ValueError):
            list(evolve(KELLY, np.array([1.0, 0.0]), BERNOULLI))
        with pytest.raises(OutcomeError):
            list(evolve(KELLY, np.array([[1.0, 0.5]]), BERNOULLI))

    def test_rejects_negative_start(self):
        # only inf * 0 may turn into a ruined 0, never a NaN that came in
        for start in (-0.1, math.nan, np.array([1.0, -0.1, 1.0]),
                      np.array([1.0, math.nan, 1.0])):
            with pytest.raises(ValueError, match="nonnegative"):
                list(evolve(lambda k, t: 1.0, np.ones((3, 2)), BERNOULLI, start=start))

    def test_one_fraction_per_path_checked(self):
        ys = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            list(evolve(lambda k, t: np.array([1.0, 1.0, 1.0]), ys, BERNOULLI))


class TestHedgedCS:
    def test_zero_fraction_is_constant_one(self):
        values = [1.0] + [k[0] for k in hedged_cs([[0.1, 0.9, 0.5]], 0.0)]
        assert values == [1.0, 1.0, 1.0, 1.0]

    def test_two_wins_hand_value(self):
        # legs 1.5^2 and 0.5^2: 0.5*2.25 + 0.5*0.25 = 1.25
        *_, final = hedged_cs([[1.0, 1.0]], 1.0)
        assert final[0] == pytest.approx(1.25, abs=1e-15)

    def test_fraction_range_enforced(self):
        with pytest.raises(InadmissibleBetError):
            list(hedged_cs([[0.5]], 2.1))

    def test_symmetric_in_the_sign_of_the_fraction(self):
        ys = stream(22).random((50, 12))
        for lam in (0.3, 1.0, 2.0):
            for plus, minus in zip(hedged_cs(ys, lam), hedged_cs(ys, -lam)):
                assert plus.tolist() == minus.tolist()

    def test_null_mean_one_within_three_ses(self):
        # Monte Carlo martingale check: uniform nulls, lam=1, T=20
        n, horizon = 10_000, 20
        ys = np.array([stream(21, i).random(horizon) for i in range(n)])
        for finals in hedged_cs(ys, 1.0):
            pass
        se = finals.std(ddof=1) / np.sqrt(n)
        assert abs(finals.mean() - 1.0) <= 3 * se


    @pytest.mark.parametrize("lam", [0.7, 2.0, "per row"])
    def test_one_batch_is_the_sum_of_two_single_leg_evolves(self, lam):
        # bit for bit, with the -lam leg of lam = 2 ruined at the first step of
        # row 1, and the +lam leg of row 2 doubling past the float range to inf
        # before a 0 ruins it (inf * 0 is 0)
        ys = stream(23).random((6, 1100))
        ys[1, 0] = 1.0
        ys[2] = 1.0
        ys[2, -1] = 0.0
        if lam == "per row":
            lam = np.array([0.3, 2.0, 2.0, 1.0, 0.1, 2.0])
        hyp = HypothesisSpec.bounded()
        up = evolve(lambda k, t: lam, ys, hyp, start=0.5)
        down = evolve(lambda k, t: -lam, ys, hyp, start=0.5)
        overflowed = False
        with np.errstate(over="ignore", invalid="ignore"):     # inf, then inf * 0
            for k, (k_up, _), (k_down, _) in zip_longest(hedged_cs(ys, lam), up, down):
                assert k.tobytes() == (k_up + k_down).tobytes()
                overflowed |= bool(np.isinf(k_up[2]))
        assert overflowed == (np.broadcast_to(lam, 6)[2] == 2.0)
        if overflowed:
            assert k[2] == k_down[1] == 0.0

    def test_a_batch_start_runs_every_batch_on_the_same_outcomes(self):
        ys = stream(24).random((4, 30))
        starts, fractions = np.array([[1.0], [0.25], [3.0]]), np.array([[0.5], [-1.0], [2.0]])
        batch = [k for k, _ in evolve(lambda k, t: fractions, ys, HypothesisSpec.bounded(),
                                      start=starts)]
        for b in range(3):
            one = [k for k, _ in evolve(lambda k, t: fractions[b, 0], ys,
                                        HypothesisSpec.bounded(), start=starts[b, 0])]
            assert np.array([k[b] for k in batch]).tobytes() == np.array(one).tobytes()


class TestIncrements:
    def test_direct_differencing(self):
        steps = list(evolve(lambda k, t: 1.0, [[1.0, 0.0]], BERNOULLI))
        values = np.array([1.0] + [k[0] for k, _ in steps])
        assert np.diff(values).tolist() == [0.5, -0.75]
        assert values[-1] == 0.75
        # each increment is the stake K_{t-1} * lam_t times y_t - null mean
        stakes = values[:-1] * [lam for _, lam in steps]
        assert (stakes * (np.array([1.0, 0.0]) - 0.5)).tolist() == [0.5, -0.75]

    def test_constant_path_has_zero_increments(self):
        values = path_values(lambda k, t: 0.0, [[1, 0]], BERNOULLI)[0]
        assert np.diff(values).tolist() == [0.0, 0.0]

    def test_ruin_path_differences(self):
        values = path_values(KELLY, [[0, 0, 0]], BERNOULLI)[0]
        assert np.diff(values).tolist() == [-0.5, -0.25, -0.125]

    def test_increments_telescope(self):
        values = path_values(KELLY, [[1, 0, 1, 1, 0, 0]], BERNOULLI)[0]
        assert 1.0 + np.diff(values).sum() == pytest.approx(values[-1], abs=1e-12)


class TestVilleCrossing:
    def test_crossing_at_threshold_rejects(self):
        t = crossing_times([[1.0, 5.0, 25.0, 10.0]], 0.05)[0]
        assert t >= 0
        assert t == 2

    def test_boundary_value_counts(self):
        assert crossing_times([[1.0, 20.0]], 0.05)[0] >= 0

    def test_constant_path_never_rejects(self):
        for alpha in (0.01, 0.05, 0.5, 0.99):
            assert crossing_times(np.ones((1, 10)), alpha)[0] < 0

    def test_alpha_validated(self):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                crossing_times([[1.0]], alpha)

    def test_no_steps_leaves_the_start(self):
        w0 = np.array([1.0, 25.0])
        final, running_max, crossing = wealth.ville_crossing(w0, [], 0.05)
        assert final.tolist() == running_max.tolist() == [1.0, 25.0]
        assert crossing.tolist() == [-1, -1]   # W_0 alone never rejects

    def test_a_scalar_start_is_one_start_per_path(self):
        steps = [np.array([1.0, 30.0, 0.2]), np.array([25.0, 0.5, 20.0])]
        got = wealth.ville_crossing(1.0, iter(steps), 0.05)
        want = wealth.ville_crossing(np.full(3, 1.0), iter(steps), 0.05)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got[2].tolist() == [2, 1, 2]
        final, running_max, crossing = wealth.ville_crossing(1.0, iter([]), 0.05)
        assert final == running_max == 1.0 and crossing.tolist() == -1

    def test_null_false_rejection_bounded(self):
        # Kelly under the true null: rejection frequency <= alpha + 3 SEs
        n, horizon = 10_000, 20
        ys = np.array([stream(31, i).random(horizon) < 0.5 for i in range(n)], dtype=float)
        values = path_values(KELLY, ys, BERNOULLI)
        for alpha in (0.05, 0.01):
            rejections = np.count_nonzero(crossing_times(values, alpha) >= 0)
            se = math.sqrt(alpha * (1 - alpha) / n)
            assert rejections / n <= alpha + 3 * se


class TestMartingaleConservation:
    """Empirical mean of K_T stays at 1 under each family's null."""

    def _finals(self, hyp, lam, n, horizon, seed):
        sampler = hyp.null_sampler()
        ys = np.array([sampler(stream(seed, i), horizon) for i in range(n)])
        return constant_bet_finals(lam, ys, hyp)

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
                values = path_values(lambda k, t: lam, [ys], hyp)
                assert values.min() >= 0.0


class TestNullIncrementDecay:
    def test_average_increment_shrinks_with_horizon(self):
        # |mean increment| decreases through T in {50, 200, 800} under the null
        lam, n = 0.5, 2000
        averages = []
        for tag, horizon in enumerate((50, 200, 800)):
            ys = np.array([stream(51 + tag, i).random(horizon) < 0.5 for i in range(n)],
                          dtype=float)
            increments = np.diff(path_values(lambda k, t: lam, ys, BERNOULLI), axis=1)
            averages.append(np.sum(np.abs(increments.sum(axis=1)) / horizon) / n)
        assert averages[0] > averages[1] > averages[2]


class TestIncrementCLT:
    def test_normalized_sums_pass_ks(self):
        """Self-normalized cash-flow sums against N(0,1), T=500, 1e4 reps.

        Constant-stake bets on uniform outcomes keep the per-step conditional
        variance flat, which is the regime where the increment CLT applies;
        the statistic divides the cumulative increments by sqrt(T) times the
        empirical conditional-variance estimate.
        """
        from scipy import stats

        stake, horizon, n = 0.05, 500, 10_000
        ys = np.stack([stream(61, i).random(horizon) for i in range(n)])
        k_prev, variance = np.ones(n), np.zeros(n)
        for k, lam in evolve(lambda k, t: np.minimum(stake / k, 2.0), ys,
                             HypothesisSpec.bounded()):
            variance += (lam * k_prev) ** 2 / 12.0
            k_prev = k
        zs = (k_prev - 1.0) / np.sqrt(variance)     # increments telescope to K_T - 1
        assert stats.kstest(zs, "norm").pvalue >= 0.01


def test_per_path_api_stays_deleted():
    # one decision rule (ville_crossing) and one path representation (a batch)
    # and one wealth step, evolve's
    deleted = ("WealthPath", "CashFlow", "TestDecision", "run_process", "run_hedged_cs",
               "cash_flow", "ville_decide", "decide_from_values", "update_wealth",
               "terminal_wealth_of_words", "PREFIX_STEPS", "terminal_wealth")
    for module in (hedgetest, wealth):
        assert [name for name in deleted if hasattr(module, name)] == []
