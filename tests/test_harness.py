"""Tests for the experiment runner, screening engine, config files and
machine-readable output."""

import math
from pathlib import Path

import numpy as np
import pytest

from hedgetest.harness import (_PRICE_TAG, ConfigError, ExperimentConfig,
                               HedgeSpec, TruthSpec, _episode_wealth,
                               _hedge_plan, _null_terminal_sample,
                               config_dict, config_from_dict, load_config,
                               parse_config_text, result_csv, result_json,
                               run_experiment, run_screening,
                               synthetic_screening_input, synthetic_uniform_matrix,
                               tail_metrics, to_json)
from hedgetest.pricing import MC_BLOCK
from hedgetest.rng import rows, stream
from hedgetest.strategies import StrategyKind, StrategySpec, build_strategy
from hedgetest.wealth import (HypothesisSpec, run_hedged_cs, run_process,
                              ville_decide)

from oracles import two_sided_terminal_one_shot

HYP = HypothesisSpec.bernoulli(0.5, 0.75)
KELLY = StrategySpec(StrategyKind.KELLY, p0=0.5, p1=0.75)
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

    def test_hedge_needs_constant_fraction(self):
        dyn = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25, horizon=20)
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

    def test_dynamic_horizon_must_match_the_experiment(self):
        dyn = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25, horizon=10)
        with pytest.raises(ConfigError, match="horizon"):
            config(strategy=dyn, horizon=20)
        config(strategy=dyn, horizon=10)

    def test_hedge_expiry_nonnegative(self):
        with pytest.raises(ConfigError):
            HedgeSpec(expiry=-3)

    def test_hedge_strike_needs_explicit_mode(self):
        with pytest.raises(ConfigError, match="strike mode explicit"):
            HedgeSpec(strike=0.30866)
        raw = dict(truth_p=0.5, horizon=20, replications=10, hedge="put",
                   hedge_strike=0.30866)
        with pytest.raises(ConfigError, match="strike mode explicit"):
            config_from_dict(raw)
        config_from_dict(dict(raw, hedge_strike_mode="explicit"))

    @pytest.mark.parametrize("strike", [0.0, -0.5])
    def test_explicit_strike_must_be_positive(self, strike):
        with pytest.raises(ConfigError, match="strike must be positive"):
            HedgeSpec(strike_mode="explicit", strike=strike)

    def test_screening_and_experiments_share_the_hedge_rules(self):
        sequences = stream(410).random((3, 20))
        for hedge, ruin, match in [(HedgeSpec(expiry=25), 0.25, "beyond horizon 20"),
                                   (HedgeSpec(floor=1.0), 0.25, "hedge floor 1.0"),
                                   (HedgeSpec(), -0.5, "hedge floor -0.5")]:
            with pytest.raises(ConfigError, match=match):
                config(hedge=hedge, ruin_level=ruin)
            with pytest.raises(ConfigError, match=match):
                run_screening(sequences, np.full(3, 0.5), ruin_level=ruin, hedge=hedge)
        assert HedgeSpec().resolve(20, 0.25) == (20, 0.25)
        assert HedgeSpec(expiry=5, floor=0.4).resolve(20, 0.25) == (5, 0.4)

    def test_hedge_floor_defaults_to_a_valid_ruin_level(self):
        with pytest.raises(ConfigError):
            config(ruin_level=-0.5, hedge=HedgeSpec(expiry=20))
        config(ruin_level=-0.5)      # unhedged runs take any ruin level below 1


class TestRunExperiment:
    def test_matches_process_level_episodes(self):
        # the vectorized engine agrees with run_process episode by episode
        cfg = config(replications=50)
        result = run_experiment(cfg)
        strategy = build_strategy(KELLY)
        for i in range(50):
            draws = rows(cfg.seed, 0, i, i + 1, cfg.horizon)[0]
            ys = (draws < 0.75).astype(float)
            path = run_process(strategy, ys, HYP)
            decision = ville_decide(path, cfg.alpha)
            assert result.final_wealth[i] == pytest.approx(path.final, rel=1e-12)
            assert result.max_wealth[i] == pytest.approx(path.max_value, rel=1e-12)
            assert bool(result.rejected[i]) == decision.rejected
            expected_cross = decision.crossing_time if decision.rejected else -1
            assert result.crossing_time[i] == expected_cross

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
        # the strike solve is exact, so the landing is exact up to rounding
        cfg = config(truth=TruthSpec(0.0),   # every outcome a loss
                     replications=5, hedge=HedgeSpec(expiry=20))
        result = run_experiment(cfg)
        assert np.all(np.abs(result.final_wealth - 0.25) <= 1e-12)
        assert result.final_wealth.min() >= 0.25 - 1e-12

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
        for i in range(0, 200, 17):
            draws = rows(cfg.seed, 0, i, i + 1, 20)[0]
            k_hat = np.prod(1.0 + ((draws < 0.75).astype(float) - 0.5))
            expected = stake * max(k_hat, plan.strike)
            assert result_final(cfg, i) == pytest.approx(expected, rel=1e-12)

    def test_explicit_strike_accepted(self):
        cfg = config(replications=50,
                     hedge=HedgeSpec(expiry=20, strike_mode="explicit", strike=0.30866))
        result = run_experiment(cfg)
        assert result.final_wealth.min() >= 0.25 - 1e-3

    def test_conservative_floor_never_violated(self):
        from hedgetest.strategies import conservative_lambda
        lam = conservative_lambda(0.25, 20, -0.5)
        cfg = config(strategy=StrategySpec(StrategyKind.FIXED_LAMBDA, lam=lam),
                     truth=TruthSpec(0.5), replications=4000)
        result = run_experiment(cfg)
        assert result.final_wealth.min() >= 0.25 - 1e-6

    def test_conservative_tail_matches_table(self):
        from pathlib import Path
        cfg = load_config(Path(__file__).parent.parent / "configs"
                          / "table1_conservative.cfg")
        result = run_experiment(cfg)
        assert result.report.expected_tail_wealth == pytest.approx(0.904, abs=0.02)

    def test_dynamic_floor_engine_matches_library(self):
        spec = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=0.25, horizon=20)
        cfg = config(strategy=spec, replications=25)
        result = run_experiment(cfg)
        strategy = build_strategy(spec)
        for i in range(25):
            draws = rows(cfg.seed, 0, i, i + 1, 20)[0]
            ys = (draws < 0.75).astype(float)
            path = run_process(strategy, ys, HYP)
            assert result.final_wealth[i] == pytest.approx(path.final, rel=1e-10)

    def test_hedged_cs_matches_run_hedged_cs(self):
        spec = StrategySpec(StrategyKind.HEDGED_CS, lam=1.0)
        cfg = config(strategy=spec, truth=TruthSpec(0.85), replications=300)
        result = run_experiment(cfg, chunks=2)
        draws = rows(cfg.seed, 0, 0, 300, cfg.horizon)
        for i in range(300):
            path = run_hedged_cs((draws[i] < 0.85).astype(float), 1.0)
            decision = ville_decide(path, cfg.alpha)
            assert result.final_wealth[i] == pytest.approx(path.final, rel=1e-12, abs=0.0)
            assert result.max_wealth[i] == pytest.approx(path.max_value, rel=1e-12, abs=0.0)
            assert result.crossing_time[i] == (decision.crossing_time
                                               if decision.rejected else -1)
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
    def test_unhedged_matches_run_hedged_cs(self):
        from hedgetest.wealth import run_hedged_cs
        sequences = stream(401).random((20, 30))
        lambdas = np.full(20, 0.6)
        result = run_screening(sequences, lambdas, alpha=0.05)
        for g in (0, 7, 19):
            path = run_hedged_cs(sequences[g], 0.6)
            assert result.final_wealth[g] == pytest.approx(path.final, rel=1e-12)
            decision = ville_decide(path, 0.05)
            assert bool(result.rejected[g]) == decision.rejected

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
                               hedge=HedgeSpec(expiry=0), price_samples=20_000)
        assert result.final_wealth.min() >= 0.5 - 1e-4

    def test_hedged_floor_is_exact(self):
        sequences, lambdas, _ = synthetic_screening_input(
            800, 102, seed=404, shifted_fraction=0.3, shifted_mean=0.65)
        result = run_screening(sequences, lambdas, alpha=0.05, ruin_level=0.5,
                               hedge=HedgeSpec(expiry=0), price_samples=20_000)
        assert 0.5 - result.final_wealth.min() <= 1e-9
        assert np.isclose(result.final_wealth, 0.5, rtol=0.0, atol=1e-9).any()
        for strike, premium in result.strike_table.values():
            assert abs((1.0 - premium) * strike - 0.5) <= 1e-9

    @pytest.mark.parametrize("ruin_level", [-0.5, 0.0, 1.0])
    def test_hedged_floor_in_unit_interval(self, ruin_level):
        sequences = stream(408).random((5, 20))
        with pytest.raises(ConfigError):
            run_screening(sequences, np.full(5, 0.5), ruin_level=ruin_level,
                          hedge=HedgeSpec(expiry=0), price_samples=1_000)

    def test_explicit_hedge_strike_is_config_error(self):
        # each gene's strike is solved at its own fraction; one strike cannot serve all
        with pytest.raises(ConfigError, match="explicit hedge strike"):
            run_screening(stream(411).random((5, 20)), np.full(5, 0.5), ruin_level=0.5,
                          hedge=HedgeSpec(strike_mode="explicit", strike=0.9),
                          price_samples=1_000)

    def test_hedged_early_expiry_floors_at_expiry_only(self):
        sequences, lambdas, _ = synthetic_screening_input(400, 102, seed=405)
        tau = 50
        result = run_screening(sequences, lambdas, alpha=0.05, ruin_level=0.5,
                               hedge=HedgeSpec(expiry=tau), price_samples=20_000)
        # exercised genes sit frozen at the floor; others can drift below it
        frozen = np.isclose(result.final_wealth, 0.5, atol=1e-4)
        assert frozen.any() or result.final_wealth.min() >= 0.5 - 1e-4

    def test_aggressive_fraction_falls_back(self):
        sequences = stream(406).random((10, 100))
        lambdas = np.full(10, 1.0)   # floor 0.5 is unattainable at this fraction
        result = run_screening(sequences, lambdas, ruin_level=0.5,
                               hedge=HedgeSpec(expiry=0), price_samples=20_000)
        assert np.all(result.effective_lambdas < 1.0)
        assert result.fallback_genes == 10
        assert set(result.strike_table) == set(result.effective_lambdas.tolist())

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_screening(np.full((3, 10), 1.5), np.full(3, 0.5))
        with pytest.raises(ValueError):
            run_screening(stream(407).random((3, 10)), np.full(4, 0.5))

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


class TestNullTerminalSample:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("tau", [1, 100])
    @pytest.mark.parametrize("n", [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 100_000])
    def test_blocks_are_the_one_shot_table_bit_for_bit(self, lam, tau, n):
        seed = 271828
        rng = stream(seed, _PRICE_TAG, int(round(lam * 1_000_000)), tau)
        expected = two_sided_terminal_one_shot(rng, lam, tau, n)
        assert _null_terminal_sample(lam, tau, n, seed).tobytes() == expected.tobytes()


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


class TestConfigFiles:
    def test_parse_round_trip(self):
        # dumping the resolved view and re-parsing it is a fixed point
        cfg = config(truth=TruthSpec(0.5, 0.75, 10),
                     hedge=HedgeSpec(expiry=10))
        text = "\n".join(f"{k} = {v}" for k, v in config_dict(cfg).items()
                         if v is not None)
        again = config_from_dict(parse_config_text(text))
        assert config_dict(again) == config_dict(cfg)

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
