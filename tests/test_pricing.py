"""Tests for lattice, Monte Carlo and closed-form pricing."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hedgetest import cli, pricing
from hedgetest.pricing import (Contract, ContractKind, LatticeModel,
                               PriceEstimate, PricingMethod, StrikeSolveError,
                               binomial_weights, black_scholes_call,
                               black_scholes_put, full_budget_strike,
                               lattice_node_values, lattice_price, mc_price,
                               floor_put, normal_cdf, put_floor_strikes,
                               risk_neutral_up_prob)
from hedgetest.rng import stream
from hedgetest.wealth import HypothesisSpec, null_paths

from oracles import binomial_weight_price, constant_bet_finals, enumerate_paths_price

KELLY_LATTICE = LatticeModel(1.5, 0.5)


def float_table(lam, hyp, tau):
    """null_paths' (sampler, process) pair for a null it packs no bits of:
    the family's table of float outcomes and evolve's last step."""
    return hyp.null_sampler(), lambda ys: constant_bet_finals(lam, ys, hyp)


def recorded(sample):
    """sample, and the list it appends the rows of each block it draws to."""
    blocks = []

    def counted(rng, shape):
        blocks.append(shape[0])
        return sample(rng, shape)
    return counted, blocks


class TestRiskNeutralUpProb:
    def test_symmetric_kelly_lattice(self):
        assert risk_neutral_up_prob(1.5, 0.5) == 0.5

    def test_asymmetric_factors(self):
        q = risk_neutral_up_prob(2.0, 0.5)
        assert q == pytest.approx(1 / 3, rel=1e-12)
        assert q * 2.0 + (1 - q) * 0.5 == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.01, 1e-6])
    def test_symmetric_moves_give_one_half(self, eps):
        assert risk_neutral_up_prob(1 + 2 * eps, 1 - 2 * eps) == pytest.approx(0.5)

    def test_arbitrage_violations_rejected(self):
        with pytest.raises(ValueError):
            risk_neutral_up_prob(0.9, 0.5)
        with pytest.raises(ValueError):
            risk_neutral_up_prob(1.5, 1.1)
        with pytest.raises(ValueError):
            risk_neutral_up_prob(1.5, -0.5)

    def test_null_probability_recovered_for_any_fraction(self):
        # a constant-fraction bet on Bernoulli(p) has risk-neutral up prob p
        for p in (0.3, 0.5, 0.75):
            for lam in (0.25, 0.5, 1.0):
                model = LatticeModel.for_bernoulli_bet(lam, p)
                assert model.risk_neutral_prob == pytest.approx(p, abs=1e-12)


class TestLatticePrice:
    def test_three_step_call_golden(self):
        price = lattice_price(KELLY_LATTICE, Contract.call(10 / 8, 3))
        assert price.method is PricingMethod.LATTICE
        assert price.std_error == 0.0
        assert abs(price.value - 17 / 64) <= 1e-12

    def test_three_step_put_golden(self):
        price = lattice_price(KELLY_LATTICE, Contract.put(1 / 4, 3))
        assert abs(price.value - 1 / 64) <= 1e-12

    def test_degenerate_strikes(self):
        model = LatticeModel(1.5, 0.5)
        call = Contract(ContractKind.EUROPEAN_CALL, 0.0, 6)
        put = Contract(ContractKind.EUROPEAN_PUT, 0.0, 6)
        assert lattice_price(model, call, spot=2.0).value == pytest.approx(2.0, abs=1e-12)
        assert lattice_price(model, put).value == 0.0

    def test_identity_payoff_prices_at_spot(self):
        identity = Contract(ContractKind.CUSTOM_EUROPEAN, 0.0, 8, payoff_fn=lambda k: k)
        model = LatticeModel(1.5, 0.5)
        assert lattice_price(model, identity).value == 1.0
        assert lattice_price(model, identity, spot=0.7).value == pytest.approx(0.7, abs=1e-12)

    def test_matches_path_enumeration(self):
        payoffs = [Contract.call(1.1, 8), Contract.put(0.8, 8)]
        model = LatticeModel(1.5, 0.5)
        for contract in payoffs:
            oracle = enumerate_paths_price(1.5, 0.5, 0.5, 8, contract.payoff)
            assert lattice_price(model, contract).value == pytest.approx(oracle, abs=1e-12)

    def test_matches_binomial_weights_deep_lattice(self):
        model = LatticeModel(1.5, 0.5)
        for strike in (0.25, 0.30866, 1.0, 2.5):
            contract = Contract.put(strike, 20)
            oracle = binomial_weight_price(1.5, 0.5, 0.5, 20, contract.payoff)
            assert lattice_price(model, contract).value == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("spot", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_spot_rejected(self, spot):
        with pytest.raises(ValueError, match="spot"):
            lattice_price(KELLY_LATTICE, Contract.put(2.0, 3), spot=spot)
        assert lattice_price(KELLY_LATTICE, Contract.put(2.0, 3), spot=0.0).value == 2.0

    def test_overflowing_lattice_is_one_error(self):
        # u**40 leaves the double range: a ValueError, not an inf or NaN price
        with pytest.raises(ValueError, match="overflow"):
            lattice_price(LatticeModel(1e10, 0.5), Contract.call(1.0, 40))

    def test_put_call_parity(self):
        model = LatticeModel(1.5, 0.5)
        for strike in np.linspace(0.05, 3.0, 40):
            call = lattice_price(model, Contract.call(strike, 12)).value
            put = lattice_price(model, Contract.put(strike, 12)).value
            assert abs((call - put) - (1.0 - strike)) <= 1e-10

    def test_monotonicity_in_strike(self):
        model = LatticeModel(1.5, 0.5)
        strikes = np.linspace(0.05, 3.0, 30)
        calls = [lattice_price(model, Contract.call(s, 10)).value for s in strikes]
        puts = [lattice_price(model, Contract.put(s, 10)).value for s in strikes]
        assert all(a >= b - 1e-12 for a, b in zip(calls, calls[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(puts, puts[1:]))

    def test_node_values_expose_expiry_payoffs(self):
        marks = lattice_node_values(KELLY_LATTICE, Contract.put(0.25, 3))
        assert len(marks) == 4
        terminal = KELLY_LATTICE.terminal_values(3)
        assert np.allclose(marks[3], np.maximum(0.25 - terminal, 0.0))
        assert marks[0][0] == pytest.approx(1 / 64, abs=1e-15)


class TestCapitalization:
    def test_alternative_expectation_of_kelly_wealth(self):
        # exhaustive 8-path expectation of M_3 under q = 0.75
        identity = lambda k: k
        value = enumerate_paths_price(1.5, 0.5, 0.75, 3, identity)
        assert value == 1.953125


class TestMcPrice:
    def _kelly_process(self):
        return lambda ys: np.prod(1.0 + (ys - 0.5), axis=1)

    def test_recovers_lattice_price(self):
        contract = Contract.call(10 / 8, 3)
        sampler = HypothesisSpec.bernoulli(0.5).null_sampler()
        est = mc_price(sampler, self._kelly_process(), contract, 100_000, seed=101)
        assert est.method is PricingMethod.MONTE_CARLO
        assert abs(est.value - 17 / 64) <= 3 * est.std_error
        assert est.std_error > 0

    def test_constant_zero_payoff(self):
        contract = Contract(ContractKind.CUSTOM_EUROPEAN, 0.0, 3,
                            payoff_fn=lambda k: np.zeros_like(k))
        sampler = HypothesisSpec.bernoulli(0.5).null_sampler()
        est = mc_price(sampler, self._kelly_process(), contract, 1000, seed=102)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_reproducible_for_fixed_seed(self):
        contract = Contract.put(0.25, 3)
        sampler = HypothesisSpec.bernoulli(0.5).null_sampler()
        a = mc_price(sampler, self._kelly_process(), contract, 2000, seed=103)
        b = mc_price(sampler, self._kelly_process(), contract, 2000, seed=103)
        assert a.value == b.value and a.std_error == b.std_error

    def test_family_mismatch_detected(self):
        from hedgetest.wealth import OutcomeError
        hyp = HypothesisSpec.bernoulli(0.5)
        process = lambda ys: constant_bet_finals(1.0, ys, hyp)
        lognormal_sampler = HypothesisSpec.log_normal().null_sampler()
        with pytest.raises(OutcomeError):
            mc_price(lognormal_sampler, process, Contract.put(0.25, 3), 10, seed=104)

    @pytest.mark.parametrize("paths,hyp,lam,tau", [
        (float_table, HypothesisSpec.bernoulli(0.5), 2.0, 6),
        (float_table, HypothesisSpec.bounded(), -1.7, 6),
        (float_table, HypothesisSpec.log_normal(), math.exp(-0.5), 6),
        (null_paths, HypothesisSpec.bernoulli(0.5), 0.3, 20),     # one word a path
        (null_paths, HypothesisSpec.bernoulli(0.5), 0.3, 70),     # two words a path
        (null_paths, HypothesisSpec.bernoulli(0.25), 1.0, 20)])   # 2 bits an outcome
    def test_same_bits_for_any_block_size(self, monkeypatch, paths, hyp, lam, tau):
        # the blocks only split the one stream: each row keeps its draws
        sample, process = paths(lam, hyp, tau)
        prices, splits = set(), []
        # fixed blocks of 1 and 7 rows, blocks growing from 1 row to 1000
        # bytes of outcomes, and the shipped sizes
        for rows, budget in ((1, 0), (7, 0), (1, 1000), (2048, 128 * 1024)):
            monkeypatch.setattr(pricing, "MC_BLOCK", rows)
            monkeypatch.setattr(pricing, "MC_BLOCK_BYTES", budget)
            counted, blocks = recorded(sample)
            est = mc_price(counted, process, Contract.put(0.5, tau), 300, seed=110)
            prices.add((est.value.hex(), est.std_error.hex()))
            splits.append(blocks)
        assert len(prices) == 1
        fixed_one, fixed_seven, grown, shipped = splits
        assert fixed_one == [1] * 300 and fixed_seven == [7] * 42 + [6]
        assert grown[0] == 1 and grown[1] > 1 and len(grown) > 2 and sum(grown) == 300
        assert shipped == [300]

    @pytest.mark.parametrize("paths,hyp,tau,rows", [
        # a packed fair-coin path is one word up to 64 steps, two past it
        (null_paths, HypothesisSpec.bernoulli(0.5), 20, [2048] + [16384] * 5 + [16035]),
        (null_paths, HypothesisSpec.bernoulli(0.5), 70, [2048] + [8192] * 11 + [7843]),
        # a float table of 8 steps or more fills the budget at 2048 rows
        (float_table, HypothesisSpec.bernoulli(0.25), 8, [2048] * 48 + [1699]),
        (float_table, HypothesisSpec.bounded(), 3, [2048] + [5461] * 17 + [5118])])
    def test_blocks_grow_to_the_outcome_byte_budget(self, paths, hyp, tau, rows):
        sample, process = paths(1.0, hyp, tau)
        counted, blocks = recorded(sample)
        mc_price(counted, process, Contract.put(0.5, tau), 100_003, seed=111)
        assert blocks == rows

    @pytest.mark.parametrize("wealth", [1e308, math.inf])
    def test_overflowing_mean_payoff_is_one_error_without_warnings(self, wealth):
        # 100 call payoffs near the float maximum sum past it; the suite
        # turns a numpy RuntimeWarning into an error
        sampler = HypothesisSpec.bernoulli(0.5).null_sampler()
        process = lambda ys: np.full(len(ys), wealth)
        with pytest.raises(ValueError, match="must be finite"):
            mc_price(sampler, process, Contract.call(1.0, 3), 100, seed=108)

    def test_needs_two_replications(self):
        sampler = HypothesisSpec.bernoulli(0.5).null_sampler()
        with pytest.raises(ValueError):
            mc_price(sampler, self._kelly_process(), Contract.put(0.25, 3), 1, seed=105)

    def test_grand_mean_unbiased(self):
        # 200 independent estimates at n = 1000: grand mean within 3 SEs
        contract = Contract.call(10 / 8, 3)
        target = lattice_price(LatticeModel(1.5, 0.5), contract).value
        sampler = HypothesisSpec.bernoulli(0.5).null_sampler()
        process = self._kelly_process()
        estimates = np.array([
            mc_price(sampler, process, contract, 1000, seed=1_000_000 + r).value
            for r in range(200)])
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - target) <= 3 * se

    def test_null_expectation_equals_price(self):
        # conservativeness: E_null[payoff] is the price itself, several contracts
        sampler = HypothesisSpec.bernoulli(0.5).null_sampler()
        process = self._kelly_process()
        model = LatticeModel(1.5, 0.5)
        for contract in (Contract.call(1.5, 5), Contract.put(0.5, 5)):
            target = lattice_price(model, contract).value
            est = mc_price(sampler, process, contract, 50_000, seed=106)
            assert abs(est.value - target) <= 3 * est.std_error

    def test_log_normal_two_sample_sizes_agree(self):
        """Self-consistency at n = 1e5 vs an independent large-sample oracle.

        The all-or-nothing log-normal bet compounds to exp(sum(Z) - T/2), so
        the oracle can draw terminal wealth directly from one normal draw per
        path instead of simulating step by step.
        """
        hyp = HypothesisSpec.log_normal()
        lam = math.exp(-0.5)
        contract = Contract.put(0.25, 20)
        process = lambda ys: np.prod(1.0 + lam * (ys - math.exp(0.5)), axis=1)
        est = mc_price(hyp.null_sampler(), process, contract, 100_000, seed=107)

        oracle_n = 10_000_000
        z = stream(108).standard_normal(oracle_n)
        terminal = np.exp(math.sqrt(20.0) * z - 10.0)
        payoff = np.maximum(0.25 - terminal, 0.0)
        oracle = payoff.mean()
        oracle_se = payoff.std(ddof=1) / math.sqrt(oracle_n)
        combined = math.hypot(est.std_error, oracle_se)
        assert abs(est.value - oracle) <= 3 * combined


def ulp_sweep(a, ulps):
    """Every double within `ulps` steps of a != 0, with its sign."""
    steps = np.abs(np.float64(a)).view(np.int64) + np.arange(-ulps, ulps + 1)
    return math.copysign(1.0, a) * steps.view(np.float64)


class TestNormalCdf:
    """normal_cdf is Cephes ndtr, so scipy.special.ndtr's doubles bit for bit."""

    @staticmethod
    def assert_ndtr_bits(a):
        from scipy.special import ndtr
        # an overflow, 0/0 or inf/inf on the way raises; underflow is ndtr's own
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = normal_cdf(a)
        expected = np.asarray(ndtr(a))
        assert got.shape == expected.shape and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_the_loader_sized_normals(self):
        self.assert_ndtr_bits(stream(307).standard_normal((6033, 102)))

    @pytest.mark.parametrize("edge", [
        pytest.param(1.0, id="|x|=sqrt(1/2)"),
        pytest.param(math.sqrt(2.0), id="|x|=1"),
        pytest.param(8.0 * math.sqrt(2.0), id="|x|=8"),
        pytest.param(math.sqrt(2.0 * pricing._MAXLOG), id="-x*x=-MAXLOG")])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_dense_sweeps_across_each_branch_edge(self, edge, sign):
        # x = a / sqrt(2): the 4001 doubles nearest the edge, then 1e-6 either side
        a = sign * edge
        self.assert_ndtr_bits(np.concatenate(
            [ulp_sweep(a, 2000), np.linspace(a * (1 - 1e-6), a * (1 + 1e-6), 40001)]))

    def test_a_dense_sweep_of_every_branch(self):
        self.assert_ndtr_bits(np.linspace(-40.0, 40.0, 800_001))

    def test_signed_zeros_subnormals_huge_and_non_finite_values(self):
        self.assert_ndtr_bits(np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                                        np.inf, -np.inf, np.nan]))

    @pytest.mark.parametrize("a", [np.float64(-1.7), 2.5, np.empty(0), np.empty((0, 3)),
                                   [[-3.0, 0.2], [0.9, 40.0]]])
    def test_keeps_the_shape_of_0d_empty_and_2d_input(self, a):
        self.assert_ndtr_bits(a)

    def test_writes_into_out_which_may_be_the_input(self):
        a = stream(309).standard_normal((300, 250)) * 4.0
        expected = normal_cdf(a)
        assert normal_cdf(a, out=a) is a
        assert a.tobytes() == expected.tobytes()
        for bad in (np.empty((250, 300)), np.empty((300, 500))[:, ::2],
                    np.empty((300, 250), np.float32)):
            with pytest.raises(ValueError, match="C-contiguous float array"):
                normal_cdf(expected, out=bad)

    def test_complex_exp_of_a_real_argument_is_the_libm_exp(self):
        # the tail's exp(-x*x) is read off numpy's complex exp, whose real
        # part at (t, 0) is libm's exp(t) times cos 0 = 1: math.exp's double
        t = -np.linspace(1.0, 745.0, 200_001)
        libm = np.array([math.exp(v) for v in t.tolist()])
        assert np.exp(t.astype(complex)).real.tobytes() == libm.tobytes()


class TestBlackScholes:
    def test_vanishing_volatility_limit(self):
        # in-the-money call tends to spot - strike as vol goes to zero
        value = black_scholes_call(1.2, 1.0, 1e-8, 1.0)
        assert value == pytest.approx(0.2, abs=1e-9)

    def test_at_the_money_closed_form(self):
        # 2*Phi(1/2) - 1 from a 30-digit normal-CDF evaluation
        value = black_scholes_call(1.0, 1.0, 1.0, 1.0)
        assert value == pytest.approx(0.382924922548026207, abs=1e-12)

    def test_put_parity(self):
        for strike in (0.5, 1.0, 2.0):
            call = black_scholes_call(1.0, strike, 0.8, 2.0)
            put = black_scholes_put(1.0, strike, 0.8, 2.0)
            assert call - put == pytest.approx(1.0 - strike, abs=1e-12)

    @pytest.mark.parametrize("spot,strike,sigma,dt", [
        (1.0, 1.0, 1.0, 1.0), (1.0, 0.5, 1.0, 50.0), (1.2, 1.0, 1e-8, 1.0),
        (1.0, 2.0, 0.8, 2.0), (0.3, 0.25, 0.4, 3.0)])
    def test_matches_the_stats_normal_cdf_formula(self, spot, strike, sigma, dt):
        # ndtr, loaded on first use, is bit for bit the norm.cdf it replaced
        from scipy.stats import norm
        vol = sigma * math.sqrt(dt)
        d1 = (math.log(spot / strike) + 0.5 * sigma * sigma * dt) / vol
        expected = spot * norm.cdf(d1) - strike * norm.cdf(d1 - vol)
        assert black_scholes_call(spot, strike, sigma, dt) == expected

    def test_preconditions(self):
        with pytest.raises(ValueError):
            black_scholes_call(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            black_scholes_call(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            black_scholes_call(-1.0, 1.0, 1.0, 1.0)

    def test_approximates_log_normal_wealth_price(self):
        """Black-Scholes vs Monte Carlo for the T = 50 log-normal process.

        Priced as a put: its payoff is bounded by the strike, so the Monte
        Carlo side converges (the call payoff variance is astronomical at
        this horizon).
        """
        horizon, lam = 50, math.exp(-0.5)
        strike = 0.5
        bs = black_scholes_put(1.0, strike, 1.0, horizon)
        process = lambda ys: np.prod(1.0 + lam * (ys - math.exp(0.5)), axis=1)
        est = mc_price(HypothesisSpec.log_normal().null_sampler(), process,
                       Contract.put(strike, horizon), 1_000_000, seed=109)
        assert abs(bs - est.value) / est.value <= 0.05


def lattice_floor_roots(model, floor, horizon):
    """put_floor_strikes over the lattice's risk-neutral measure `horizon` steps out."""
    return put_floor_strikes(model.terminal_values(horizon),
                             binomial_weights(horizon, model.risk_neutral_prob), floor)


class TestSolveHedgeStrike:
    def test_known_roots(self):
        model = LatticeModel(1.5, 0.5)
        roots = lattice_floor_roots(model, 0.25, 20)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.30866, abs=1e-4)
        assert roots[1] == pytest.approx(0.97285, abs=1e-4)

    def test_plug_back_residual(self):
        model = LatticeModel(1.5, 0.5)
        for root in lattice_floor_roots(model, 0.25, 20):
            premium = lattice_price(model, Contract.put(root, 20)).value
            assert abs(0.25 - (1 - premium) * root) <= 1e-12

    def test_close_pair_inside_one_grid_cell(self):
        # both roots fall within 7e-5 of each other; a grid scan misses them
        model = LatticeModel.for_bernoulli_bet(1.0, 0.5)
        roots = lattice_floor_roots(model, 0.3494854227, 20)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.634349, abs=1e-6)
        assert roots[1] == pytest.approx(0.634417, abs=1e-6)

    def test_small_floor_gives_small_root(self):
        model = LatticeModel(1.5, 0.5)
        smallest = {floor: lattice_floor_roots(model, floor, 20)[0]
                    for floor in (0.1, 0.01, 0.001)}
        assert smallest[0.01] < smallest[0.1]
        assert smallest[0.001] < smallest[0.01]
        assert smallest[0.001] < 0.002

    def test_unattainable_floor_raises(self):
        model = LatticeModel(1.5, 0.5)
        assert lattice_floor_roots(model, 0.9999, 20) == []
        with pytest.raises(StrikeSolveError):
            floor_put(model.terminal_values(20), binomial_weights(20, 0.5), 0.9999, "paper")

    def test_runtime_under_budget(self):
        model = LatticeModel(1.5, 0.5)
        start = time.perf_counter()
        lattice_floor_roots(model, 0.25, 20)
        assert time.perf_counter() - start < 5.0

    def test_deep_lattice_roots_without_a_warning(self):
        # the first atoms weigh ~1e-300, so q / (2 * mass) overflows to inf there
        model = LatticeModel.for_bernoulli_bet(0.1, 0.5)
        roots = lattice_floor_roots(model, 0.25, 10_000)
        assert roots and all(0.0 < root < math.inf for root in roots)

    def test_overflowing_lattice_fails_before_the_weights(self, monkeypatch, capsys):
        # hedge-solve reads the terminal values before the 10,000-step measure
        def weights(n, q):
            raise AssertionError("weights computed for a lattice that overflows")
        monkeypatch.setattr(cli, "binomial_weights", weights)
        assert cli.main(["hedge-solve", "--u", "1e10", "--d", "0.5",
                         "--horizon", "10000", "--floor", "0.25"]) == 3
        assert "overflow" in capsys.readouterr().err


def exact_weights(n, q):
    """The binomial pmf at the exact rational q, each weight rounded once."""
    q = Fraction(q)
    return [float(math.comb(n, k) * q ** k * (1 - q) ** (n - k)) for k in range(n + 1)]


class TestBinomialWeights:
    @pytest.mark.parametrize("q", [0.5, 0.5000000000000002, 0.3, 0.7] + [
        LatticeModel.for_bernoulli_bet(lam, p).risk_neutral_prob
        for lam, p in [(0.4, 0.3), (1.2, 0.7), (0.25, 0.55)]])
    def test_equal_the_exact_rational_weights_rounded_once(self, q):
        for n in range(1, 61):
            assert binomial_weights(n, q).tolist() == exact_weights(n, q)

    @pytest.mark.parametrize("n", [*range(1, 61), 200, 1000])
    def test_half_gives_binomial_coefficients_over_a_power_of_two(self, n):
        # a double C(n, k), scaled by 2**-n exactly: no weight here is subnormal
        want = [math.ldexp(float(math.comb(n, k)), -n) for k in range(n + 1)]
        assert binomial_weights(n, 0.5).tolist() == want

    def test_runtime_under_budget(self):
        # the exact-integer recurrence alone takes seconds at this depth
        start = time.perf_counter()
        weights = binomial_weights(10_000, 0.3)
        assert time.perf_counter() - start < 1.0
        assert weights.shape == (10_001,) and abs(weights.sum() - 1.0) < 1e-12


class TestPutFloorStrikes:
    def test_single_atom_closed_form(self):
        # C(S) = max(S - 1, 0): roots floor and 1 + sqrt(1 - floor)
        roots = put_floor_strikes([1.0], [1.0], 0.19)
        assert roots == pytest.approx([0.19, 1.9], abs=1e-15)

    def test_roots_above_any_fixed_search_domain(self):
        roots = put_floor_strikes([5.0], [1.0], 0.25)
        assert roots == pytest.approx([0.25, 3.0 + math.sqrt(8.75)], abs=1e-14)

    def test_sample_measure_matches_sample_mean_put(self):
        samples = stream(110).random(5000) * 2.0
        weights = np.full(samples.size, 1.0 / samples.size)
        roots = put_floor_strikes(samples, weights, 0.5)
        assert roots
        for root in roots:
            premium = np.maximum(root - samples, 0.0).mean()
            assert abs((1.0 - premium) * root - 0.5) <= 1e-12

    def test_unattainable_floor_gives_no_roots(self):
        assert put_floor_strikes([0.5, 1.5], [0.5, 0.5], 0.999) == []

    @pytest.mark.parametrize("floor", [-0.2, 0.0, 1.0, 1.5])
    def test_floor_outside_unit_interval_rejected(self, floor):
        with pytest.raises(ValueError):
            put_floor_strikes([0.5, 1.5], [0.5, 0.5], floor)

    def test_mismatched_or_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            put_floor_strikes([0.5, 1.5], [1.0], 0.25)
        with pytest.raises(ValueError):
            put_floor_strikes([-0.5, 1.5], [0.5, 0.5], 0.25)
        for atoms, weights in [([math.nan, 1.0], [0.5, 0.5]), ([math.inf, 1.0], [0.5, 0.5]),
                               ([1.0, 2.0], [math.nan, 0.5]), ([1.0, 2.0], [math.inf, 0.5])]:
            with pytest.raises(ValueError):
                put_floor_strikes(atoms, weights, 0.25)


class TestFullBudgetStrike:
    def test_closed_form_between_atoms(self):
        # one atom 0.25 below the root: S - 0.5*(1 + S - 0.25) = 0 at S = 0.75
        assert full_budget_strike([0.25], [1.0], 0.5) == 0.75
        assert full_budget_strike([3.0], [1.0], 0.5) == 0.5      # C = 0 below the atom
        assert full_budget_strike([0.0, 1.0], [0.5, 0.5], 0.25) == 0.25 / 0.875

    def test_a_root_on_an_atom_is_kept(self):
        # the residual is 0 at the atom itself; the interval is chosen by its sign
        assert full_budget_strike([0.5, 2.0], [0.5, 0.5], 0.5) == 0.5

    def test_every_floor_is_solvable_where_the_paper_budget_has_no_root(self):
        assert put_floor_strikes([0.5, 1.5], [0.5, 0.5], 0.999) == []
        strike = full_budget_strike([0.5, 1.5], [0.5, 0.5], 0.999)
        premium = 0.5 * max(strike - 0.5, 0.0) + 0.5 * max(strike - 1.5, 0.0)
        assert abs(strike / (1.0 + premium) - 0.999) <= 1e-12

    def test_the_order_of_the_pairs_does_not_matter(self):
        atoms, weights = stream(111).random(50) * 2.0, np.full(50, 0.02)
        order = stream(112).permutation(50)
        assert full_budget_strike(atoms[order], weights[order], 0.5) \
            == full_budget_strike(atoms, weights, 0.5)

    @pytest.mark.parametrize("floor", [0.01, 0.2, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 500, 2_000])
    def test_the_one_root_is_where_the_residual_turns_positive(self, floor, n):
        rng = stream(113, n)
        atoms = rng.random(n) * 3.0
        weights = rng.random(n)
        weights /= weights.sum()

        def residual(s):
            return s - floor * (1.0 + weights @ np.maximum(s - atoms, 0.0))

        strike = full_budget_strike(atoms, weights, floor)
        assert 0.0 < strike <= floor / (1.0 - floor)
        assert residual(strike * (1.0 - 1e-9)) < 0.0 < residual(strike * (1.0 + 1e-9))
        premium = weights @ np.maximum(strike - atoms, 0.0)
        assert abs(strike / (1.0 + premium) - floor) <= 1e-12
        # the residual rises strictly, so it crosses 0 once
        grid = np.linspace(0.0, 2.0 * floor / (1.0 - floor), 201)
        assert np.all(np.diff([residual(s) for s in grid]) > 0.0)

    @pytest.mark.parametrize("floor", [-0.2, 0.0, 1.0, 1.5])
    def test_floor_outside_unit_interval_rejected(self, floor):
        with pytest.raises(ValueError):
            full_budget_strike([0.5, 1.5], [0.5, 0.5], floor)

    @pytest.mark.parametrize("atoms,weights", [([0.5, 1.5], [1.0]), ([-0.5, 1.5], [0.5, 0.5]),
                                               ([0.5, 1.5], [0.75, 0.75])])
    def test_bad_measures_rejected(self, atoms, weights):
        with pytest.raises(ValueError):
            full_budget_strike(atoms, weights, 0.25)


class TestPriceEstimate:
    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            PriceEstimate(-0.5, 0.0, PricingMethod.LATTICE)

    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError):
            PriceEstimate(0.5, -0.1, PricingMethod.MONTE_CARLO)

    @pytest.mark.parametrize("value,std_error", [(math.nan, 0.0), (math.inf, 0.0),
                                                 (0.5, math.nan), (0.5, math.inf)])
    def test_non_finite_estimate_rejected(self, value, std_error):
        with pytest.raises(ValueError, match="finite"):
            PriceEstimate(value, std_error, PricingMethod.MONTE_CARLO)
