"""Tests for the experiment runner, screening engine, config files and
machine-readable output."""

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

from hedgetest import harness, pricing
from hedgetest.harness import (ConfigError, ExperimentConfig, HedgeSpec,
                               TruthSpec, _episode_wealth, _hedge_plan,
                               _screening_hedges, config_dict, config_from_dict, load_config,
                               parse_config_text, result_csv, result_json,
                               run_experiment, run_screening,
                               synthetic_screening_input, synthetic_uniform_matrix,
                               tail_metrics, to_json, two_point_terminals)
from hedgetest.ingest import LAMBDA_GRID
from hedgetest.portfolio import Portfolio, buy_contract, move_to_risky, step
from hedgetest.pricing import Contract, LatticeModel, StrikeSolveError, mc_price
from hedgetest.rng import bernoulli, row_words, stream
from hedgetest.strategies import StrategyKind, StrategySpec, build_strategy
from hedgetest.wealth import HypothesisSpec, OutcomeError, hedged_cs, ville_crossing

from oracles import (conservative_lambda, exact_rejection, first_crossing_by_hand,
                     hedged_cs_by_hand, wealth_by_hand)

HYP = HypothesisSpec.bernoulli(0.5, 0.75)
KELLY = StrategySpec(StrategyKind.KELLY)
CONFIGS = Path(__file__).parent.parent / "configs"


def config(**overrides):
    base = dict(hypothesis=HYP, truth=TruthSpec(0.75), strategy=KELLY,
                horizon=20, replications=400, alpha=0.05, ruin_level=0.25,
                seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTailMetrics:
    def test_constant_set(self):
        k_q, tail = tail_metrics([0.25] * 50, 0.01)
        assert (k_q, tail) == (0.25, 0.25)

    def test_small_set_interpolation(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        k_q, tail = tail_metrics(values, 0.1)
        assert 0.1 < k_q < 0.2
        assert tail == pytest.approx(0.1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tail_metrics([], 0.1)
        with pytest.raises(ValueError):
            tail_metrics([1.0], 0.0)


class TestTruthSpec:
    def test_step_probabilities_with_shift(self):
        truth = TruthSpec(0.5, 0.75, 10)
        ps = truth.step_probabilities(20)
        assert list(ps[:10]) == [0.5] * 10
        assert list(ps[10:]) == [0.75] * 10

    def test_shift_needs_both_fields(self):
        with pytest.raises(ConfigError):
            TruthSpec(0.5, p_post=0.75)
        with pytest.raises(ConfigError):
            TruthSpec(0.5, change_at=10)

    def test_change_point_within_horizon(self):
        with pytest.raises(ConfigError):
            TruthSpec(0.5, 0.75, 30).step_probabilities(20)


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            config(alpha=1.5)

    def test_hedge_expiry_within_horizon(self):
        with pytest.raises(ConfigError):
            config(hedge=HedgeSpec(expiry=25))

    def test_change_point_beyond_the_horizon_is_refused_when_built(self):
        raw = dict(truth_p=0.5, truth_p_post=0.75, horizon=20, replications=10)
        with pytest.raises(ConfigError, match="change point 25 beyond horizon 20"):
            config_from_dict(dict(raw, change_at=25))
        with pytest.raises(ConfigError, match="change point 21 beyond horizon 20"):
            config(truth=TruthSpec(0.5, 0.75, 21))
        assert config_from_dict(dict(raw, change_at=20)).truth.change_at == 20

    def test_hedge_needs_constant_fraction(self):
        dyn = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25)
        with pytest.raises(ConfigError):
            config(strategy=dyn, hedge=HedgeSpec(expiry=20))

    def test_only_put_hedges(self):
        raw = dict(truth_p=0.5, horizon=20, replications=10, strategy="fixed",
                   **{"lambda": 0.5})
        for hedge in ("none", "put"):
            config_from_dict(dict(raw, hedge=hedge))
        with pytest.raises(ConfigError, match="only put hedges"):
            config_from_dict(dict(raw, hedge="call"))

    @pytest.mark.parametrize("floor", [-0.2, 0.0, 1.0, 1.5])
    def test_hedge_floor_in_unit_interval(self, floor):
        with pytest.raises(ConfigError):
            config(hedge=HedgeSpec(expiry=20, floor=floor))

    @pytest.mark.parametrize("kind,lam", [(StrategyKind.FIXED_LAMBDA, 2.5),
                                          (StrategyKind.FIXED_LAMBDA, -2.1),
                                          (StrategyKind.HEDGED_CS, 2.5),
                                          (StrategyKind.HEDGED_CS, -2.5)])
    def test_fraction_outside_the_family_range(self, kind, lam):
        # before the engine checked fractions, these ran to negative wealth
        with pytest.raises(ConfigError, match="admissible"):
            config(strategy=StrategySpec(kind, lam=lam))
        config(strategy=StrategySpec(kind, lam=lam / abs(lam) * 2.0))

    def test_hedge_expiry_nonnegative(self):
        with pytest.raises(ConfigError):
            HedgeSpec(expiry=-3)

    def test_hedge_strike_needs_explicit_mode(self):
        raw = dict(truth_p=0.5, horizon=20, replications=10, hedge="put",
                   hedge_strike=0.30866)
        with pytest.raises(ConfigError, match="strike mode explicit"):
            config_from_dict(raw)
        config_from_dict(dict(raw, hedge_strike_mode="explicit"))

    @pytest.mark.parametrize("strike", [0.0, -0.5])
    def test_explicit_strike_must_be_positive(self, strike):
        with pytest.raises(ConfigError, match="strike must be positive"):
            HedgeSpec(strike=strike)

    def test_screening_and_experiments_share_the_hedge_rules(self):
        sequences = stream(410).random((3, 20))
        for hedge, ruin, match in [(HedgeSpec(expiry=25), 0.25, "beyond horizon 20"),
                                   (HedgeSpec(floor=1.0), 0.25, "hedge floor 1.0"),
                                   (HedgeSpec(), -0.5, "hedge floor -0.5")]:
            with pytest.raises(ConfigError, match=match):
                config(hedge=hedge, ruin_level=ruin)
            with pytest.raises(ConfigError, match=match):
                run_screening(sequences, np.full(3, 0.5), ruin_level=ruin, hedge=hedge)
        resolved = HedgeSpec().resolve(20, 0.25)
        assert (resolved.expiry, resolved.floor) == (20, 0.25)
        resolved = HedgeSpec(expiry=5, floor=0.4).resolve(20, 0.25)
        assert (resolved.expiry, resolved.floor) == (5, 0.4)

    def test_resolve_returns_the_resolved_spec(self):
        resolved = HedgeSpec().resolve(20, 0.25)
        assert resolved == HedgeSpec(20, None, 0.25)
        assert resolved.resolve(20, 0.5) == resolved      # a resolved spec keeps its own
        assert config(hedge=HedgeSpec()).hedge == resolved

    def test_replace_keeps_the_stored_expiry_and_floor(self):
        # the defaults were resolved when the config was built, not on replace
        cfg = config(hedge=HedgeSpec())
        stored = HedgeSpec(20, None, 0.25)
        assert replace(cfg, horizon=30).hedge == stored
        assert replace(cfg, ruin_level=0.1).hedge == stored
        with pytest.raises(ConfigError, match="expiry 20 beyond horizon 10"):
            replace(cfg, horizon=10)

    def test_hedge_floor_defaults_to_a_valid_ruin_level(self):
        with pytest.raises(ConfigError):
            config(ruin_level=-0.5, hedge=HedgeSpec(expiry=20))
        config(ruin_level=-0.5)      # unhedged runs take any ruin level below 1


class TestRunExperiment:
    def test_matches_process_level_episodes(self):
        # the vectorized engine agrees with the plain recurrence episode by episode
        cfg = config(replications=50)
        result = run_experiment(cfg)
        strategy = build_strategy(KELLY, HYP, 20)
        ps = cfg.truth.step_probabilities(cfg.horizon)
        for i in range(50):
            ys = bernoulli(stream(cfg.seed, 3, skip=i * row_words(ps)), ps, 1)[0]
            values = wealth_by_hand(strategy, ys, HYP.null_mean)
            crossing = first_crossing_by_hand(values, cfg.alpha)
            assert result.final_wealth[i] == pytest.approx(values[-1], rel=1e-12)
            assert result.max_wealth[i] == pytest.approx(max(values), rel=1e-12)
            assert bool(result.rejected[i]) == (crossing >= 0)
            assert result.crossing_time[i] == crossing

    def test_power_plus_no_reject_fraction_is_one(self):
        result = run_experiment(config(replications=2000))
        n_reject = result.rejected.sum()
        assert result.report.power + (result.final_wealth.size - n_reject) / 2000 == 1.0

    def test_null_truth_respects_alpha(self):
        result = run_experiment(config(truth=TruthSpec(0.5), replications=10_000))
        se = math.sqrt(0.05 * 0.95 / 10_000)
        assert result.report.power <= 0.05 + 3 * se

    def test_deterministic_across_worker_counts(self):
        cfg = config(replications=500)
        one = run_experiment(cfg, chunks=1)
        four = run_experiment(cfg, chunks=4)
        assert np.array_equal(one.final_wealth, four.final_wealth)
        assert np.array_equal(one.max_wealth, four.max_wealth)
        assert np.array_equal(one.crossing_time, four.crossing_time)
        assert result_csv(one) == result_csv(four)
        assert result_json(one) == result_json(four)

    @pytest.mark.parametrize("name", ["table2_option10.cfg", "table1_dynamic.cfg"])
    def test_byte_identical_across_worker_counts_beyond_kelly(self, name):
        cfg = load_config(CONFIGS / name)
        outputs = [run_experiment(cfg, chunks=c) for c in (1, 2, 3)]
        assert len({result_csv(r) for r in outputs}) == 1
        assert len({result_json(r) for r in outputs}) == 1

    def test_hedged_worst_case_is_the_floor(self):
        # the strike solve is exact, so the landing is exact up to rounding,
        # and never below the floor
        cfg = config(truth=TruthSpec(0.0),   # every outcome a loss
                     replications=5, hedge=HedgeSpec(expiry=20))
        result = run_experiment(cfg)
        assert np.all(np.abs(result.final_wealth - 0.25) <= 1e-12)
        assert result.final_wealth.min() >= 0.25

    @given(null_p=st.floats(0.05, 0.95), share=st.floats(0.01, 0.99),
           horizon=st.integers(2, 14), floor=st.floats(0.01, 0.6))
    def test_every_path_of_a_put_hedge_to_the_horizon_ends_on_or_above_the_floor(
            self, null_p, share, horizon, floor):
        # every one of the 2**horizon outcome rows, compared with no tolerance;
        # lam = share / null_p gives 0 < d < 1 < u, and a floor with no
        # strike is rejected
        cfg = config(hypothesis=HypothesisSpec.bernoulli(null_p),
                     strategy=StrategySpec(StrategyKind.FIXED_LAMBDA, share / null_p),
                     horizon=horizon, ruin_level=floor, hedge=HedgeSpec())
        try:
            plan = _hedge_plan(cfg)
        except StrikeSolveError:
            reject()
        rows = ((np.arange(2 ** horizon)[:, None] >> np.arange(horizon)) & 1).astype(float)
        *_, final = _episode_wealth(cfg, rows, plan)
        assert final.min() >= floor

    def test_hedged_start_wealth_is_one_minus_premium_squared(self):
        # all 2^10 paths of a hedged lambda = 0.5 bet under the null: holding
        # 1 - C units and 1 - C puts starts at W_0 = (1 - C)(1 + C) = 1 - C^2,
        # and the martingale W keeps that mean to the horizon
        cfg = config(strategy=StrategySpec(StrategyKind.FIXED_LAMBDA, lam=0.5),
                     truth=TruthSpec(0.5), horizon=10, hedge=HedgeSpec())
        plan = _hedge_plan(cfg)
        paths = ((np.arange(2 ** 10)[:, None] >> np.arange(10)) & 1).astype(float)
        *_, final = _episode_wealth(cfg, paths, plan)
        assert abs(final.mean() - (1.0 - plan.premium ** 2)) <= 1e-12
        assert abs(final.min() - 0.25) <= 1e-12

    def test_chunk_count_must_be_positive(self):
        for chunks in (0, -3):
            with pytest.raises(ConfigError, match="chunk count"):
                run_experiment(config(replications=10), chunks=chunks)

    def test_hedged_final_reproduces_stake_times_max(self):
        cfg = config(replications=200, hedge=HedgeSpec(expiry=20))
        plan = _hedge_plan(cfg)
        stake = 1.0 - plan.premium
        ps = cfg.truth.step_probabilities(20)
        for i in range(0, 200, 17):
            ys = bernoulli(stream(cfg.seed, 3, skip=i * row_words(ps)), ps, 1)[0]
            k_hat = np.prod(1.0 + (ys - 0.5))
            expected = stake * max(k_hat, plan.strike)
            assert result_final(cfg, i) == pytest.approx(expected, rel=1e-12)

    def test_explicit_strike_accepted(self):
        cfg = config(replications=50,
                     hedge=HedgeSpec(expiry=20, strike=0.30866))
        result = run_experiment(cfg)
        assert result.final_wealth.min() >= 0.25 - 1e-3

    def test_a_solved_plan_backward_induces_its_marks_once(self, monkeypatch):
        # table1_option's root misses the floor by an ulp, so its strike steps up
        built = []

        def counted(model, contract, spot=1.0):
            built.append(contract.strike)
            return pricing.lattice_node_values(model, contract, spot)

        monkeypatch.setattr(harness, "lattice_node_values", counted)
        plan = _hedge_plan(load_config(CONFIGS / "table1_option.cfg"))
        assert built == [plan.strike]
        assert plan.stake == 1.0 - plan.premium

    def test_conservative_floor_never_violated(self):
        lam = conservative_lambda(0.25, 20, -0.5)
        cfg = config(strategy=StrategySpec(StrategyKind.FIXED_LAMBDA, lam=lam),
                     truth=TruthSpec(0.5), replications=4000)
        result = run_experiment(cfg)
        assert result.final_wealth.min() >= 0.25 - 1e-6

    @pytest.mark.parametrize("name", ["table1_conservative", "table2_conservative"])
    def test_conservative_config_fraction_is_the_closed_form(self, name):
        # the configs carry the fraction as a literal: it must be the one
        # whose all-losses path ends exactly at the ruin level
        raw = parse_config_text((CONFIGS / f"{name}.cfg").read_text())
        assert raw["lambda"] == conservative_lambda(raw["ruin_level"], raw["horizon"],
                                                    -raw["null_p"])

    def test_conservative_tail_matches_table(self):
        from pathlib import Path
        cfg = load_config(Path(__file__).parent.parent / "configs"
                          / "table1_conservative.cfg")
        result = run_experiment(cfg)
        assert result.report.expected_tail_wealth == pytest.approx(0.904, abs=0.02)

    def test_dynamic_floor_engine_matches_library(self):
        spec = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25)
        cfg = config(strategy=spec, replications=25)
        result = run_experiment(cfg)
        strategy = build_strategy(spec, HYP, 20)
        ps = cfg.truth.step_probabilities(20)
        for i in range(25):
            ys = bernoulli(stream(cfg.seed, 3, skip=i * row_words(ps)), ps, 1)[0]
            final = wealth_by_hand(strategy, ys, HYP.null_mean)[-1]
            assert result.final_wealth[i] == pytest.approx(final, rel=1e-10)

    def test_hedged_cs_matches_the_oracle(self):
        spec = StrategySpec(StrategyKind.HEDGED_CS, lam=1.0)
        cfg = config(strategy=spec, truth=TruthSpec(0.85), replications=300)
        result = run_experiment(cfg, chunks=2)
        draws = stream(cfg.seed, 3).random((300, cfg.horizon))
        for i in range(300):
            values = hedged_cs_by_hand((draws[i] < 0.85).astype(float), 1.0)
            final, maxw = values[-1], max(values)
            assert result.final_wealth[i] == pytest.approx(final, rel=1e-12, abs=0.0)
            assert result.max_wealth[i] == pytest.approx(maxw, rel=1e-12, abs=0.0)
            assert result.crossing_time[i] == first_crossing_by_hand(values, cfg.alpha)
        assert 0 < result.rejected.sum() < 300


def result_final(cfg, i):
    # helper: single-episode final wealth via a tiny run
    single = ExperimentConfig(
        hypothesis=cfg.hypothesis, truth=cfg.truth, strategy=cfg.strategy,
        horizon=cfg.horizon, replications=i + 1, alpha=cfg.alpha,
        ruin_level=cfg.ruin_level, seed=cfg.seed, hedge=cfg.hedge)
    return run_experiment(single).final_wealth[i]


class TestRunShift:
    def test_runs_with_change_point(self):
        cfg = config(truth=TruthSpec(0.5, 0.75, 10), replications=500)
        result = run_experiment(cfg)
        assert result.report.n == 500


class TestScreening:
    def test_unhedged_matches_the_oracle(self):
        sequences = stream(401).random((20, 30))
        lambdas = np.full(20, 0.6)
        result = run_screening(sequences, lambdas, alpha=0.05)
        for g in (0, 7, 19):
            values = hedged_cs_by_hand(sequences[g], 0.6)
            assert result.final_wealth[g] == pytest.approx(values[-1], rel=1e-12)
            crossing = first_crossing_by_hand(values, 0.05)
            assert bool(result.rejected[g]) == (crossing >= 0)

    def test_validity_on_null_matrix(self):
        sequences, lambdas, _ = synthetic_screening_input(6033, 102, seed=402)
        result = run_screening(sequences, lambdas, alpha=0.05)
        se = math.sqrt(0.05 * 0.95 / 6033)
        assert result.proportion_rejected <= 0.05 + 3 * se

    def test_shifted_genes_reject_more(self):
        sequences, lambdas, mask = synthetic_screening_input(
            3000, 102, seed=403, shifted_fraction=0.3, shifted_mean=0.65)
        result = run_screening(sequences, lambdas, alpha=0.05)
        assert result.rejected[mask].mean() > result.rejected[~mask].mean()

    def test_hedged_full_horizon_floors_at_ruin_level(self):
        sequences, lambdas, _ = synthetic_screening_input(
            800, 102, seed=404, shifted_fraction=0.3, shifted_mean=0.65)
        result = run_screening(sequences, lambdas, alpha=0.05, ruin_level=0.5,
                               hedge=HedgeSpec(expiry=0))
        assert result.final_wealth.min() >= 0.5 - 1e-12

    def test_hedged_floor_is_exact(self):
        sequences, lambdas, _ = synthetic_screening_input(
            800, 102, seed=404, shifted_fraction=0.3, shifted_mean=0.65)
        result = run_screening(sequences, lambdas, alpha=0.05, ruin_level=0.5,
                               hedge=HedgeSpec(expiry=0))
        assert 0.5 - result.final_wealth.min() <= 1e-12
        assert np.isclose(result.final_wealth, 0.5, rtol=0.0, atol=1e-12).any()
        for strike, premium, stake in result.strike_table.values():
            assert abs(strike / (1.0 + premium) - 0.5) <= 1e-12
            assert stake == 1.0 / (1.0 + premium)
            assert abs(stake * strike - 0.5) <= 1e-12

    @pytest.mark.parametrize("ruin_level", [-0.5, 0.0, 1.0])
    def test_hedged_floor_in_unit_interval(self, ruin_level):
        sequences = stream(408).random((5, 20))
        with pytest.raises(ConfigError):
            run_screening(sequences, np.full(5, 0.5), ruin_level=ruin_level,
                          hedge=HedgeSpec(expiry=0))

    def test_explicit_hedge_strike_is_config_error(self):
        # each gene's strike is solved at its own fraction; one strike cannot serve all
        with pytest.raises(ConfigError, match="explicit hedge strike"):
            run_screening(stream(411).random((5, 20)), np.full(5, 0.5), ruin_level=0.5,
                          hedge=HedgeSpec(strike=0.9))

    def test_hedged_early_expiry_floors_at_expiry_only(self):
        sequences, lambdas, _ = synthetic_screening_input(400, 102, seed=405)
        tau = 50
        result = run_screening(sequences, lambdas, alpha=0.05, ruin_level=0.5,
                               hedge=HedgeSpec(expiry=tau))
        # exercised genes sit frozen at the floor; others can drift below it
        frozen = np.isclose(result.final_wealth, 0.5, rtol=0.0, atol=1e-12)
        assert frozen.any() or result.final_wealth.min() >= 0.5 - 1e-12

    def test_every_fraction_gets_its_own_strike(self):
        # the paper budget has no root here (tau 100, floor 0.5, lambda 1); the
        # full budget solves every floor in (0, 1), so no gene changes fraction
        sequences = stream(406).random((10, 100))
        lambdas = np.linspace(0.0, 2.0, 10)
        result = run_screening(sequences, lambdas, ruin_level=0.5,
                               hedge=HedgeSpec(expiry=0))
        assert result.lambdas.tolist() == lambdas.tolist()
        assert list(result.strike_table) == lambdas.tolist()

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_screening(np.full((3, 10), 1.5), np.full(3, 0.5))
        with pytest.raises(ValueError):
            run_screening(stream(407).random((3, 10)), np.full(4, 0.5))

    @pytest.mark.parametrize("bad", [2.5, -0.1, math.nan])
    @pytest.mark.parametrize("hedge", [None, HedgeSpec()])
    def test_fractions_off_0_2_rejected(self, bad, hedge):
        # NaN too: it used to reach the strike solve ("cannot convert NaN
        # to integer ratio") or, unhedged, the engine's admissibility check
        lambdas = np.array([0.5, bad, 0.5])
        with pytest.raises(ValueError, match=r"screening fractions must lie in \[0, 2\]"):
            run_screening(stream(407).random((3, 10)), lambdas, hedge=hedge)

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("hedge", [None, HedgeSpec()])
    def test_outcomes_off_the_unit_interval_rejected(self, bad, hedge):
        # the wealth engine's bounded-family check, NaN included
        sequences = stream(407).random((3, 10))
        sequences[1, 4] = bad
        with pytest.raises(OutcomeError, match=r"lie in \[0, 1\]"):
            run_screening(sequences, np.full(3, 0.5), hedge=hedge)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=1.5), dict(alpha=0.0), dict(alpha=-0.1),
        dict(ruin_level=1.2), dict(ruin_level=1.0),
    ])
    def test_alpha_and_ruin_level_checked_unhedged(self, kwargs):
        with pytest.raises(ConfigError):
            run_screening(stream(409).random((3, 10)), np.full(3, 0.5), **kwargs)

    @pytest.mark.parametrize("shape", [(0, 10), (3, 0)])
    def test_empty_screen_is_config_error(self, shape):
        with pytest.raises(ConfigError):
            run_screening(np.zeros(shape), np.full(shape[0], 0.5))


def vertex_paths(tau):
    """All 2**tau outcome rows of 0s and 1s: the two-point null, each row of
    probability 2**-tau."""
    return ((np.arange(2 ** tau)[:, None] >> np.arange(tau)) & 1).astype(float)


def terminal_by_evolution(paths, lam):
    """K_tau of each row, stepped through the program's hedged_cs."""
    for k in hedged_cs(paths, lam):
        pass
    return k


class TestTwoPointPrice:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 1.7, 2.0])
    @pytest.mark.parametrize("tau", range(1, 17))
    def test_screen_premium_is_the_mean_put_over_every_path(self, lam, tau):
        paths = vertex_paths(tau)
        terminal = terminal_by_evolution(paths, lam)
        assert two_point_terminals(lam, tau, math.inf)[paths.sum(axis=1).astype(int)] \
            == pytest.approx(terminal, rel=1e-13, abs=1e-300)
        for floor in (0.1, 0.5, 0.9):
            (strike, premium, stake), = _screening_hedges(np.array([lam]), floor,
                                                          tau).values()
            assert premium == pytest.approx(np.maximum(strike - terminal, 0.0).mean(),
                                            rel=1e-12, abs=1e-15)
            assert abs(strike / (1.0 + premium) - floor) <= 1e-12

    @pytest.mark.parametrize("expiry", [0, 5])
    def test_null_mean_final_wealth_is_one_under_the_two_point_null(self, expiry):
        # every path once per fraction: the exact null law, so the mean of W_T
        # is stake * (1 + C) = 1, and Ville's rule rejects at most alpha of it
        tau, lams = 14, [0.2, 0.5, 1.0, 2.0]
        paths = vertex_paths(tau)
        result = run_screening(np.tile(paths, (len(lams), 1)),
                               np.repeat(lams, len(paths)), alpha=0.05,
                               ruin_level=0.5, hedge=HedgeSpec(expiry=expiry))
        for i in range(len(lams)):
            rows = slice(i * len(paths), (i + 1) * len(paths))
            assert abs(result.final_wealth[rows].mean() - 1.0) <= 1e-12
            assert result.rejected[rows].mean() <= 0.05
        if expiry == 0:
            assert result.final_wealth.min() >= 0.5 - 1e-12

    def test_null_mean_final_wealth_is_at_most_one_under_uniform(self):
        sequences = stream(414).random((20_000, 40))
        lambdas = np.array(LAMBDA_GRID)[np.arange(20_000) % len(LAMBDA_GRID)]
        result = run_screening(sequences, lambdas, alpha=0.05, ruin_level=0.5,
                               hedge=HedgeSpec())
        final = result.final_wealth
        assert final.mean() <= 1.0 + 4.0 * final.std(ddof=1) / math.sqrt(final.size)
        assert result.proportion_rejected <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 20_000)

    @pytest.mark.parametrize("tau", [3, 10])
    @pytest.mark.parametrize("floor", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("lam", [0.1, 0.4, 0.7, 1.0, 1.5, 2.0])
    def test_every_vertex_path_ends_at_or_above_the_floor(self, lam, floor, tau):
        # the two-point null path by path: no path ends below the floor, the
        # mean of W_T is stake * (1 + C) = 1 at every floor, low floors
        # included, where most atoms sit above the cap floor/(1 - floor)
        paths = vertex_paths(tau)
        result = run_screening(paths, np.full(len(paths), lam), alpha=0.05,
                               ruin_level=floor, hedge=HedgeSpec(expiry=0))
        (strike, premium, stake), = result.strike_table.values()
        assert strike <= floor / (1.0 - floor)
        assert abs(stake * strike - floor) <= 1e-12
        assert stake * strike >= floor
        assert result.final_wealth.min() >= floor
        assert abs(result.final_wealth.mean() - 1.0) <= 1e-12
        assert result.rejected.mean() <= 0.05

    @pytest.mark.parametrize("tau", [1, 40, 400])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_the_strike_rises_and_the_stake_falls_with_the_floor(self, lam, tau):
        floors = np.linspace(0.05, 0.95, 19).tolist()
        rows = [_screening_hedges(np.array([lam]), floor, tau)[lam] for floor in floors]
        strikes, premiums, stakes = (np.array(col) for col in zip(*rows))
        assert np.all(np.diff(strikes) > 0.0)
        assert np.all(np.diff(premiums) >= 0.0)
        assert np.all(np.diff(stakes) <= 0.0)
        # the root is at most floor/(1 - floor); the steps that hold the
        # rounded cash at the floor may pass that bound by a few ulps
        assert np.all(strikes <= np.array(floors) / (1.0 - np.array(floors)) * (1.0 + 1e-14))
        assert np.all(np.abs(stakes * strikes - floors) <= 1e-12)
        assert np.all(stakes * strikes >= floors)

    @pytest.mark.parametrize("lam,tau", [(1.0, 2000), (2.0, 1100), (0.5, 5000),
                                         (1.5, 3000), (2.0, 4000), (1.0, 10_000)])
    def test_long_screens_at_extreme_fractions_solve_without_overflow(self, lam, tau):
        sequences = stream(415).random((40, tau))
        sequences[:20] = np.round(sequences[:20])     # vertex paths reach the floor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_screening(sequences, np.full(40, lam), ruin_level=0.5,
                                   hedge=HedgeSpec())
        (strike, premium, stake), = result.strike_table.values()
        assert abs(strike / (1.0 + premium) - 0.5) <= 1e-12
        assert result.final_wealth.min() >= 0.5


class TestSyntheticMatrix:
    def test_shifted_mean_is_calibrated(self):
        x, mask = synthetic_uniform_matrix(2000, 102, seed=408,
                                           shifted_fraction=0.3, shifted_mean=0.65)
        assert mask.sum() == 600
        assert x[mask].mean() == pytest.approx(0.65, abs=0.005)
        assert x[~mask].mean() == pytest.approx(0.5, abs=0.005)

    def test_values_in_unit_interval(self):
        x, _ = synthetic_uniform_matrix(100, 50, seed=409, shifted_fraction=0.5,
                                        shifted_mean=0.8)
        assert np.all((x >= 0.0) & (x <= 1.0))

    @pytest.mark.parametrize("kwargs", [
        dict(shifted_fraction=-0.1), dict(shifted_fraction=1.5),
        dict(shifted_mean=0.0), dict(shifted_mean=1.0), dict(shifted_mean=1.5),
    ])
    def test_shift_parameters_checked(self, kwargs):
        with pytest.raises(ConfigError):
            synthetic_uniform_matrix(10, 20, seed=410, **kwargs)

    @pytest.mark.parametrize("n_samples", [1, 2])
    def test_screening_input_needs_a_test_sample(self, n_samples):
        with pytest.raises(ConfigError):
            synthetic_screening_input(10, n_samples, seed=411)


def exact_config_rejection(cfg, truth):
    return exact_rejection(cfg.strategy.constant_lambda(cfg.hypothesis),
                           cfg.hypothesis.null_param, cfg.alpha, cfg.horizon,
                           truth.p, truth.p_post, truth.change_at)


class TestExactPower:
    # exact power of the shipped unhedged constant-fraction configs; the
    # conservative fraction's best path, (1 + 0.1339/2)**20 = 3.66, never
    # reaches 1/alpha = 20
    EXACT = {"table1_kelly": 0.52852002, "table2_kelly": 0.09525507,
             "table1_conservative": 0.0, "table2_conservative": 0.0}

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_simulated_power_is_within_four_se_of_exact(self, name):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        exact = exact_config_rejection(cfg, cfg.truth)
        assert exact == pytest.approx(self.EXACT[name], abs=5e-9)
        se = math.sqrt(exact * (1.0 - exact) / cfg.replications)
        assert abs(run_experiment(cfg).report.power - exact) <= 4.0 * se

    def test_exact_null_crossing_of_kelly_is_at_most_alpha(self):
        cfg = load_config(CONFIGS / "table1_kelly.cfg")
        crossing = exact_config_rejection(cfg, TruthSpec(cfg.hypothesis.null_param))
        assert crossing == pytest.approx(0.02113724, abs=5e-9)
        assert crossing <= cfg.alpha

    # the hedged and dynamic configs, exactly: every one of the 2**20 outcome
    # rows through the harness's own episode, weighted by each truth and by
    # the null.  Configs that differ only in their truth share one
    # enumeration: (exact truth power of each, W_0, null crossings out of
    # 2**20, and whether the final wealth is floored at the ruin level
    # exactly: the put expires at the horizon, or the dynamic fraction
    # lands the worst path on the floor, never under it)
    ENUMERATED = [
        ({"table1_option": 0.5059434, "table2_option20": 0.090465449},
         0.9638868538145963, 17_956, "exactly"),
        ({"table2_option10": 0.093912624}, 0.9912113788221997, 19_876, None),
        ({"table1_dynamic": 0.21531616, "table2_dynamic": 0.068324539},
         1.0, 2_717, "exactly"),
    ]

    @staticmethod
    def all_outcome_rows(horizon, block=1 << 16):
        for first in range(0, 2 ** horizon, block):
            codes = np.arange(first, min(first + block, 2 ** horizon))
            yield ((codes[:, None] >> np.arange(horizon)) & 1).astype(float)

    @pytest.mark.parametrize("exact,w0,null_crossings,floored", ENUMERATED)
    def test_every_outcome_row_of_the_hedged_and_dynamic_configs(
            self, exact, w0, null_crossings, floored):
        cfgs = [load_config(CONFIGS / f"{name}.cfg") for name in exact]
        cfg = cfgs[0]
        assert all(replace(other, truth=cfg.truth) == cfg for other in cfgs)
        assert cfg.hypothesis.null_param == 0.5      # every row has null mass 2**-20
        plan = _hedge_plan(cfg) if cfg.hedge is not None else None
        start = 1.0 if plan is None else (1.0 - plan.premium) * (1.0 + plan.marks[0][0])
        assert start == w0
        crossings, null_sum, lowest = 0, 0.0, math.inf
        power = np.zeros(len(cfgs))
        for y in self.all_outcome_rows(cfg.horizon):
            final, _, crossing = ville_crossing(np.full(len(y), start),
                                                _episode_wealth(cfg, y, plan), cfg.alpha)
            rejected = crossing >= 0
            crossings += int(rejected.sum())
            null_sum += final.sum()
            lowest = min(lowest, final.min())
            for i, other in enumerate(cfgs):
                ps = other.truth.step_probabilities(cfg.horizon)
                power[i] += np.prod(np.where(y == 1.0, ps, 1.0 - ps), axis=1)[rejected].sum()
        rows = 2 ** cfg.horizon
        assert crossings == null_crossings
        assert crossings / rows <= cfg.alpha * start            # Ville's bound
        assert null_sum / rows == pytest.approx(start, rel=0.0, abs=1e-12)
        if floored == "exactly":
            assert lowest == pytest.approx(cfg.ruin_level, rel=0.0, abs=1e-12)
            assert lowest >= cfg.ruin_level
        for other, p, pinned in zip(cfgs, power, exact.values()):
            assert p == pytest.approx(pinned, rel=0.0, abs=1e-8)
            se = math.sqrt(p * (1.0 - p) / other.replications)
            assert abs(run_experiment(other).report.power - p) <= 4.0 * se


class TestHedgeIsAPortfolio:
    # the put hedge is a portfolio: the stake 1 - C moved into the risky
    # wealth process and spent on as many puts, the cash C**2 left idle.
    # table2_option10 is left out: its put expires before the horizon, and
    # then the harness reinvests the payoff while the portfolio holds it
    @staticmethod
    def check(cfg, plan, replications):
        """Each step's harness wealth plus C**2 is the portfolio walk's total
        on the same outcome rows, to 1e-12 relative."""
        stake = 1.0 - plan.premium
        model = LatticeModel.for_bernoulli_bet(cfg.strategy.constant_lambda(cfg.hypothesis),
                                               cfg.hypothesis.null_param)
        held = move_to_risky(Portfolio.initial(model.up_factor, model.down_factor), stake)
        held = buy_contract(held, Contract.put(plan.strike, plan.expiry), stake)
        assert held.risk_free == pytest.approx(plan.premium ** 2, rel=1e-12)
        y = harness._chunk_outcomes(cfg, 0, replications)
        walks = [held] * len(y)
        for t, w in enumerate(_episode_wealth(cfg, y, plan)):
            walks = [step(walk, outcome) for walk, outcome in zip(walks, y[:, t])]
            totals = np.array([walk.total_value for walk in walks])
            assert totals == pytest.approx(w + held.risk_free, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["table1_option", "table2_option20"])
    def test_harness_wealth_is_the_portfolio_less_its_idle_cash(self, name):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        self.check(cfg, _hedge_plan(cfg), 200)

    @given(null_p=st.floats(0.05, 0.95), share=st.floats(0.01, 0.99),
           truth=st.floats(0.0, 1.0), horizon=st.integers(2, 30),
           floor=st.floats(0.01, 0.6), seed=st.integers(0, 2**32 - 1))
    def test_any_put_hedge_to_the_horizon_is_the_portfolio_less_its_idle_cash(
            self, null_p, share, truth, horizon, floor, seed):
        # lam = share / null_p gives d = 1 - share in (0, 1) and u above 1.
        # A floor up to 1/4 always has a strike: C(S) <= S, so the worst
        # case (1 - C(S))*S is at least 1/4 at S = 1/2.  A higher floor may
        # have none, and that draw is rejected
        cfg = config(hypothesis=HypothesisSpec.bernoulli(null_p), truth=TruthSpec(truth),
                     strategy=StrategySpec(StrategyKind.FIXED_LAMBDA, share / null_p),
                     horizon=horizon, replications=20, ruin_level=floor, seed=seed,
                     hedge=HedgeSpec())
        try:
            plan = _hedge_plan(cfg)
        except StrikeSolveError:
            reject()
        self.check(cfg, plan, 20)


class TestStreamKeys:
    @staticmethod
    def key(tags):
        # SeedSequence pads its entropy with zero words, so a key names the
        # same stream with or without trailing zeros
        tags = list(tags)
        while tags and tags[-1] == 0:
            tags.pop()
        return tuple(tags)

    @pytest.mark.parametrize("seed", [0, 1, 99, 271828, 2**32 - 1])
    def test_each_random_purpose_draws_its_own_stream(self, monkeypatch, seed):
        opened = []

        def recorded(seed, *tags, skip=0):
            opened.append((seed, *tags))
            return stream(seed, *tags, skip=skip)

        monkeypatch.setattr(harness, "stream", recorded)
        monkeypatch.setattr(pricing, "stream", recorded)
        mc_price(lambda rng, shape: rng.random(shape), lambda y: y[:, -1],
                 Contract.put(0.5, 3), 2, seed)
        synthetic_uniform_matrix(2, 3, seed)
        harness._chunk_outcomes(config(seed=seed, replications=2), 0, 2)
        keys = list(dict.fromkeys(opened))
        assert len(keys) == 3    # mc_price, matrix, outcome rows
        assert len({self.key(k) for k in keys}) == 3
        assert len({stream(*k).random() for k in keys}) == 3

    def test_a_seed_of_2_to_the_32_is_refused_for_it_aliases_a_tagged_stream(self):
        # a key is read as 32-bit words, so the seed 2**32 is the key (0, 1):
        # the mc_price stream of that seed would be seed 0's synthetic matrix
        assert stream(2**32).random(3).tobytes() == stream(0, 1).random(3).tobytes()
        for seed in (2**32, 2**64 + 5):
            for build in (lambda: config(seed=seed),
                          lambda: synthetic_uniform_matrix(2, 3, seed)):
                with pytest.raises(ConfigError, match="at most 2\\*\\*32 - 1"):
                    build()
        harness.check_seed(2**32 - 1)


class TestConfigFiles:
    def test_parse_round_trip(self):
        # dumping the resolved view and re-parsing it is a fixed point
        cfg = config(truth=TruthSpec(0.5, 0.75, 10),
                     hedge=HedgeSpec(expiry=10))
        text = "\n".join(f"{k} = {v}" for k, v in config_dict(cfg).items()
                         if v is not None)
        again = config_from_dict(parse_config_text(text))
        assert config_dict(again) == config_dict(cfg)

    @pytest.mark.parametrize("hedge", [HedgeSpec(expiry=10), HedgeSpec()])
    def test_a_config_equals_the_one_parsed_from_its_dump(self, hedge):
        # the config keeps its hedge resolved, as the dump writes it
        cfg = config(hedge=hedge)
        text = "".join(f"{k} = {v}\n" for k, v in config_dict(cfg).items())
        assert config_from_dict(parse_config_text(text)) == cfg

    def test_comments_and_blanks_ignored(self):
        raw = parse_config_text("# comment\n\nhorizon = 20  # trailing\n")
        assert raw == {"horizon": 20}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("volatility = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("horizon = 20\nhorizon = 10\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError):
            config_from_dict({"horizon": 20})

    def test_shipped_configs_load(self):
        from pathlib import Path
        configs = Path(__file__).parent.parent / "configs"
        names = sorted(p.name for p in configs.glob("*.cfg"))
        assert len(names) == 9
        for name in names:
            cfg = load_config(configs / name)
            assert cfg.replications == 10_000


class TestSerialization:
    def test_json_floats_have_17_significant_digits(self):
        text = to_json({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_nan_serializes_as_null(self):
        assert to_json({"x": float("nan")}) == '{"x": null}'

    def test_csv_header_records_config(self):
        result = run_experiment(config(replications=5))
        text = result_csv(result)
        assert "# seed = 99" in text
        assert "replication,final_wealth,max_wealth,rejected,crossing_time" in text
        assert text.count("\n") == 5 + 1 + len(config_dict(result.config))

    def test_json_report_includes_config_and_metrics(self):
        import json
        result = run_experiment(config(replications=5))
        parsed = json.loads(result_json(result))
        assert parsed["config"]["seed"] == 99
        assert set(parsed["report"]) >= {"power", "k_q", "expected_tail_wealth"}
