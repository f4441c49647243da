"""CLI tests: the executable is a thin adapter over the library."""

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hedgetest import cli
from hedgetest.cli import build_parser, main
from hedgetest.harness import load_config, result_csv, result_json, run_experiment
from hedgetest.pricing import (Contract, LatticeModel, binomial_weights, floor_put,
                               lattice_price, put_floor_strikes)
from hedgetest.rng import stream

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"


# a valid call of each `price --method`, and the options only one route reads
ROUTE_ARGS = {"lattice": ("--model", "u=1.5,d=0.5"), "mc": ("--n", "100"),
              "black-scholes": ("--sigma", "1", "--time", "3")}
MC_ONLY = ("--family=bounded", "--bet=0.3", "--null-p=0.4", "--n=50", "--seed=3")
BLACK_SCHOLES_ONLY = ("--sigma=5", "--time=2")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrice:
    def test_lattice_call_golden(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--model", "u=1.5,d=0.5",
                               "--contract", "call,S=1.25,tau=3",
                               "--method", "lattice")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 17 / 64
        assert payload["std_error"] == 0.0
        assert payload["method"] == "lattice"

    def test_output_matches_library_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--model", "u=1.5,d=0.5",
                               "--contract", "put,S=0.25,tau=3")
        library = lattice_price(LatticeModel(1.5, 0.5), Contract.put(0.25, 3))
        assert json.loads(out)["value"] == library.value

    def test_mc_method_runs(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--model", "u=1.5,d=0.5",
                               "--contract", "call,S=1.25,tau=3",
                               "--method", "mc", "--n", "2000", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "monte_carlo"
        assert abs(payload["value"] - 17 / 64) <= 4 * payload["std_error"]

    def test_black_scholes_method(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--contract", "call,S=1.0,tau=1",
                               "--method", "black-scholes",
                               "--sigma", "1.0", "--time", "1.0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.3829249225480262)

    def test_black_scholes_price_is_never_negative(self, capsys):
        # parity leaves -1.1e-16 of rounding dust on this deep out-of-the-money put
        code, out, _ = run_cli(capsys, "price", "--contract", "put,S=0.2,tau=1",
                               "--method", "black-scholes", "--sigma", "0.2",
                               "--time", "1")
        assert code == 0
        assert out == '{"value": 0, "std_error": 0, "method": "black_scholes"}\n'

    def test_malformed_model_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "price", "--model", "u=1.5",
                               "--contract", "call,S=1.25,tau=3")
        assert code == 2
        assert "error" in err

    def test_arbitrage_model_is_solver_error(self, capsys):
        code, _, _ = run_cli(capsys, "price", "--model", "u=0.9,d=0.5",
                             "--contract", "call,S=1.25,tau=3")
        assert code == 3

    @pytest.mark.parametrize("model,contract,extra", [
        ("u=1.5,d=0.5,r=0.1", "call,S=1.25,tau=3", ()),
        ("u=1.5,d=0.5,x=7", "call,S=1.25,tau=3", ()),
        ("u=1.5,d=0.5,u=2", "call,S=1.25,tau=3", ()),
        ("u=1.5,d=0.5", "call,S=1.25,tau=3,K=9", ()),
        ("u=abc,d=0.5", "call,S=1.25,tau=3", ()),
        ("u=1.5,d=0.5", "call,S=abc,tau=3", ()),
        ("u=1.5,d=0.5", "call,S=nan,tau=3", ()),
        ("u=1.5,d=0.5", "call,S=1.25,tau=3.5", ()),
        ("u=1.5,d=0.5", "call,S=-1,tau=3", ()),
        ("u=1.5,d=0.5", "call,S=1.25,tau=0", ()),
        ("u=1.5,d=0.5", "put,S=1.25,tau=3", ("--spot", "-1")),
        ("u=1.5,d=0.5", "put,S=1.25,tau=3", ("--spot", "-1", "--method", "mc")),
    ])
    def test_bad_price_input_is_config_error(self, capsys, model, contract, extra):
        code, out, err = run_cli(capsys, "price", "--model", model,
                                 "--contract", contract, *extra)
        assert code == 2
        assert out == "" and "error" in err

    @pytest.mark.parametrize("route,value,message", [
        (("--method", "lattice", "--model", "u=1.5,d=0.5"), ("--spot", "nan"), "spot"),
        (("--method", "mc", "--n", "100"), ("--spot", "nan"), "spot"),
        (("--method", "black-scholes", "--sigma", "1", "--time", "3"), ("--spot", "nan"),
         "spot"),
        (("--method", "lattice", "--model", "u=1.5,d=0.5"), ("--spot", "inf"), "spot"),
        (("--method", "mc", "--n", "100"), ("--spot", "inf"), "spot"),
        (("--method", "black-scholes", "--sigma", "1", "--time", "3"), ("--spot", "inf"),
         "spot"),
        (("--method", "black-scholes", "--sigma", "1", "--time", "3"), ("--spot", "0"),
         "--spot"),
        (("--method", "black-scholes", "--time", "3"), ("--sigma", "nan"), "--sigma"),
        (("--method", "black-scholes", "--time", "3"), ("--sigma", "-1"), "--sigma"),
        (("--method", "black-scholes", "--time", "3"), ("--sigma", "0"), "--sigma"),
        (("--method", "black-scholes", "--sigma", "1"), ("--time", "inf"), "--time"),
        (("--method", "black-scholes", "--sigma", "1"), ("--time", "0"), "--time"),
    ])
    def test_non_finite_or_non_positive_input_is_config_error(self, capsys, route,
                                                              value, message):
        code, out, err = run_cli(capsys, "price", "--contract", "put,S=0.5,tau=3",
                                 *route, *value)
        assert (code, out) == (2, "")
        assert message in err and value[1] in err

    def test_black_scholes_needs_a_positive_strike(self, capsys):
        code, out, err = run_cli(capsys, "price", "--contract", "put,S=0,tau=3",
                                 "--method", "black-scholes", "--sigma", "1", "--time", "3")
        assert (code, out) == (2, "")
        assert "strike" in err

    @pytest.mark.parametrize("family,bet", [
        ((), "2.5"), ((), "-2.5"), ((), "nan"), ((), "inf"),
        (("--null-p", "0.3"), "-1.5"), (("--null-p", "0.3"), "3.4"),
        (("--family", "bounded"), "2.5"),
        (("--family", "log_normal"), "0.7"), (("--family", "log_normal"), "-0.1")])
    def test_inadmissible_mc_bet_is_config_error(self, capsys, family, bet):
        code, out, err = run_cli(capsys, "price", "--contract", "put,S=0.5,tau=3",
                                 "--method", "mc", "--n", "100", *family, "--bet", bet)
        assert (code, out) == (2, "")
        assert f"--bet {float(bet)!r} outside the admissible range" in err

    @pytest.mark.parametrize("family,bet", [
        ((), "2"), ((), "-2"), (("--null-p", "0.3"), "3.3333333333333335"),
        (("--null-p", "0.3"), "-1.4285714285714286"),
        (("--family", "log_normal"), "0.6065306597126334"),
        (("--family", "log_normal"), "0")])
    def test_mc_bet_at_the_admissible_bounds_prices(self, capsys, family, bet):
        code, out, _ = run_cli(capsys, "price", "--contract", "put,S=0.5,tau=3",
                               "--method", "mc", "--n", "100", *family, "--bet", bet)
        assert code == 0
        assert json.loads(out)["std_error"] >= 0.0

    def test_mc_model_must_match_the_bet_lattice(self, capsys):
        code, out, err = run_cli(capsys, "price", "--model", "u=3,d=0.2",
                                 "--contract", "call,S=1.25,tau=3", "--method", "mc")
        assert code == 2
        assert out == "" and "u=1.5,d=0.5" in err

    @pytest.mark.parametrize("route", [
        ("--method", "black-scholes", "--sigma", "1", "--time", "3"),
        ("--method", "mc", "--family", "bounded", "--n", "100"),
        ("--method", "mc", "--family", "log_normal", "--bet", "0.5", "--n", "100")])
    def test_model_the_route_ignores_is_config_error(self, capsys, route):
        argv = ("price", "--contract", "call,S=1.25,tau=3", *route)
        code, out, err = run_cli(capsys, *argv, "--model", "u=3,d=0.2")
        assert code == 2
        assert out == "" and "--model" in err and "does not use" in err
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0

    @pytest.mark.parametrize("method,option", [
        *[("lattice", o) for o in MC_ONLY + BLACK_SCHOLES_ONLY],
        *[("mc", o) for o in BLACK_SCHOLES_ONLY],
        *[("black-scholes", o) for o in MC_ONLY]])
    def test_an_option_the_route_does_not_read_is_config_error(self, capsys, method,
                                                               option):
        argv = ("price", "--contract", "call,S=1.25,tau=3", "--method", method,
                *ROUTE_ARGS[method])
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(capsys, *argv, option)
        assert code == 2
        assert out == "" and option.split("=")[0] in err and "does not use" in err

    def test_lattice_needs_a_model(self, capsys):
        code, out, err = run_cli(capsys, "price", "--contract", "call,S=1.25,tau=3")
        assert code == 2
        assert out == "" and "--model" in err

    def test_mc_bernoulli_model_is_optional(self, capsys):
        argv = ("price", "--contract", "call,S=1.25,tau=3", "--method", "mc",
                "--n", "2000")
        _, without, _ = run_cli(capsys, *argv)
        _, with_model, _ = run_cli(capsys, *argv, "--model", "u=1.5,d=0.5")
        assert json.loads(without) == json.loads(with_model)

    def test_mc_prices_a_matching_non_default_model(self, capsys):
        argv = ("price", "--model", "u=1.3,d=0.7", "--contract", "call,S=1.1,tau=4")
        code, out, _ = run_cli(capsys, *argv, "--method", "mc", "--bet", "0.6")
        assert code == 0
        mc = json.loads(out)
        _, out, _ = run_cli(capsys, *argv)
        assert abs(mc["value"] - json.loads(out)["value"]) <= 4 * mc["std_error"]

    @pytest.mark.parametrize("null_p,model", [("0.5", "u=1.5,d=0.5"),
                                              ("0.25", "u=1.75,d=0.75")])
    def test_mc_put_past_one_word_matches_the_lattice(self, capsys, null_p, model):
        # p = 1/2 prices each path's packed outcome words as the lattice
        # node of its up count, p = 1/4 from the float outcome table: 70
        # steps cross a 64-bit word
        argv = ("price", "--model", model, "--contract", "put,S=0.3,tau=70")
        code, out, _ = run_cli(capsys, *argv, "--method", "mc", "--null-p", null_p)
        assert code == 0
        mc = json.loads(out)
        _, out, _ = run_cli(capsys, *argv)
        assert mc["std_error"] > 0
        assert abs(mc["value"] - json.loads(out)["value"]) <= 4 * mc["std_error"]

    def test_mc_price_honours_spot(self, capsys):
        prices = {}
        for spot in ("1", "2"):
            for method in ("mc", "lattice"):
                code, out, _ = run_cli(capsys, "price", "--model", "u=1.5,d=0.5",
                                       "--contract", "call,S=1.25,tau=3",
                                       "--method", method, "--spot", spot)
                assert code == 0
                prices[spot, method] = json.loads(out)
        mc, exact = prices["2", "mc"], prices["2", "lattice"]["value"]
        assert abs(mc["value"] - exact) <= 4 * mc["std_error"]
        assert prices["1", "mc"]["value"] < prices["2", "mc"]["value"]

    def test_lattice_overflow_is_one_solver_error(self, capsys):
        # u**40 is beyond the double range: no inf or NaN value is printed
        code, out, err = run_cli(capsys, "price", "--model", "u=1e10,d=0.5",
                                 "--contract", "call,S=1,tau=40", "--method", "lattice")
        assert (code, out) == (3, "")
        assert "overflow" in err

    def test_mc_overflow_is_one_solver_error(self, capsys):
        # spot * K_5 is past the float range on the up paths; the suite turns
        # a numpy RuntimeWarning into an error
        code, out, err = run_cli(capsys, "price", "--method", "mc", "--spot", "1e308",
                                 "--contract", "call,S=1,tau=5", "--n", "100")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_mc_put_on_an_overflowed_wealth_is_worth_nothing(self, capsys):
        code, out, err = run_cli(capsys, "price", "--method", "mc", "--spot", "1e308",
                                 "--contract", "put,S=1,tau=5", "--n", "100")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"value": 0, "std_error": 0, "method": "monte_carlo"}


class TestHedgeSolve:
    def test_lattice_overflow_is_one_solver_error(self, capsys):
        code, out, err = run_cli(capsys, "hedge-solve", "--u", "1e10", "--d", "0.5",
                                 "--horizon", "40", "--floor", "0.25")
        assert (code, out) == (3, "")
        assert "overflow" in err and "weight" not in err

    def test_known_roots(self, capsys):
        code, out, _ = run_cli(capsys, "hedge-solve", "--floor", "0.25",
                               "--horizon", "20")
        assert code == 0
        solved = json.loads(out)
        roots = solved["roots"]
        assert roots[0] == pytest.approx(0.30866, abs=1e-4)
        assert roots[1] == pytest.approx(0.97285, abs=1e-4)
        # the lower root misses the floor by an ulp; the strike bought is one ulp up
        assert solved["strike"] == 0.3086551568179889 == math.nextafter(roots[0], 1.0)

    def test_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, "hedge-solve", "--floor", "0.25",
                            "--horizon", "20")
        model = LatticeModel(1.5, 0.5)
        strike, premium, stake = floor_put(model.terminal_values(20),
                                           binomial_weights(20, 0.5), 0.25, "paper")
        solved = json.loads(out)
        assert solved["roots"] == put_floor_strikes(model.terminal_values(20),
                                                    binomial_weights(20, 0.5), 0.25)
        assert (solved["strike"], solved["premium"], solved["stake"]) == (strike, premium,
                                                                          stake)

    @pytest.mark.parametrize("name", ["table1_option", "table2_option10",
                                      "table2_option20"])
    def test_strike_is_the_one_a_hedged_run_buys(self, tmp_path, capsys, name):
        config = load_config(CONFIGS / f"{name}.cfg")
        text = (CONFIGS / f"{name}.cfg").read_text()
        path = tmp_path / "small.cfg"
        path.write_text(text.replace("replications = 10000", "replications = 20"))
        command = "shift" if config.truth.change_at is not None else "simulate"
        _, out, _ = run_cli(capsys, command, "--config", str(path), "--workers", "1")
        plan = json.loads(out)["hedge_plan"]
        expiry, floor = config.hedge.expiry, config.hedge.floor
        lam = config.strategy.constant_lambda(config.hypothesis)
        model = LatticeModel.for_bernoulli_bet(lam, config.hypothesis.null_param)
        code, out, _ = run_cli(capsys, "hedge-solve", "--floor", repr(floor),
                               "--horizon", str(expiry), "--u", repr(model.up_factor),
                               "--d", repr(model.down_factor))
        solved = json.loads(out)
        assert code == 0 and plan["expiry"] == expiry
        assert (solved["strike"], solved["premium"]) == (plan["strike"], plan["premium"])

    def test_unattainable_floor_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "hedge-solve", "--floor", "0.999",
                               "--horizon", "1")
        assert code == 3
        assert "error" in err

    def test_close_pair_roots(self, capsys):
        code, out, _ = run_cli(capsys, "hedge-solve", "--floor", "0.3494854227",
                               "--horizon", "20")
        assert code == 0
        roots = json.loads(out)["roots"]
        assert roots == pytest.approx([0.634349, 0.634417], abs=1e-6)

    @pytest.mark.parametrize("flag,value", [("--u", "inf"), ("--u", "nan"),
                                            ("--d", "nan"), ("--d", "-inf")])
    def test_non_finite_factor_is_config_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "hedge-solve", "--floor", "0.25",
                                 "--horizon", "20", f"{flag}={value}")
        assert (code, out) == (2, "")
        assert f"{flag} value" in err and "not finite" in err

    def test_finite_arbitrage_factors_are_solver_error(self, capsys):
        code, _, err = run_cli(capsys, "hedge-solve", "--floor", "0.25",
                               "--horizon", "20", "--u", "0.9")
        assert code == 3
        assert "arbitrage" in err

    @pytest.mark.parametrize("floor", ["-1", "0", "1", "1.5"])
    def test_floor_outside_unit_interval_is_config_error(self, capsys, floor):
        code, _, err = run_cli(capsys, "hedge-solve", "--floor", floor,
                               "--horizon", "20")
        assert code == 2
        assert "error" in err


class TestSimulate:
    def _config(self, tmp_path, reps=200, seed=17):
        text = (CONFIGS / "table1_kelly.cfg").read_text()
        text = text.replace("replications = 10000", f"replications = {reps}")
        text = text.replace("seed = 271828", f"seed = {seed}")
        path = tmp_path / "small.cfg"
        path.write_text(text)
        return path

    def test_writes_csv_and_json(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                             "--out", str(out), "--workers", "1")
        assert code == 0
        csv_text = (tmp_path / "run.csv").read_text()
        json_text = (tmp_path / "run.json").read_text()
        assert "# seed = 17" in csv_text
        assert json.loads(json_text)["report"]["n"] == 200

    def test_byte_identical_across_runs_and_workers(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        outputs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--out", str(tmp_path / name), "--workers", workers)
            assert code == 0
            outputs.append(((tmp_path / f"{name}.csv").read_bytes(),
                            (tmp_path / f"{name}.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_no_numeric_logic_in_adapter(self, tmp_path, capsys):
        # the CLI artifact equals the library's own serialization byte for byte
        cfg_path = self._config(tmp_path)
        out = tmp_path / "run"
        run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(out),
                "--workers", "1")
        result = run_experiment(load_config(cfg_path), chunks=1)
        assert (tmp_path / "run.csv").read_text() == result_csv(result)
        assert (tmp_path / "run.json").read_text() == result_json(result)

    def test_seed_override(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        _, out_a, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                              "--workers", "1")
        _, out_b, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                              "--seed", "18", "--workers", "1")
        assert json.loads(out_a)["config"]["seed"] == 17
        assert json.loads(out_b)["config"]["seed"] == 18
        assert out_a != out_b

    def _hedged_config(self, tmp_path, extra=""):
        text = (CONFIGS / "table1_option.cfg").read_text()
        text = text.replace("replications = 10000", "replications = 50") + extra
        path = tmp_path / "hedged.cfg"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("floor", ["-0.2", "0", "1", "1.5"])
    def test_hedge_floor_outside_unit_interval_is_config_error(self, tmp_path,
                                                               capsys, floor):
        cfg = self._hedged_config(tmp_path, f"hedge_floor = {floor}\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--workers", "1")
        assert code == 2
        assert "hedge floor" in err

    @pytest.mark.parametrize("mode,strike,message", [
        ("solve", "0.3", "needs strike mode explicit"),
        ("explicit", "0", "strike must be positive"),
        ("explicit", "-0.3", "strike must be positive"),
        ("explicit", "inf", "strike must be positive and finite"),
        ("explicit", "5.0", "must cost less than 1"),    # put premium 4.51
    ])
    def test_hedge_strike_misuse_is_config_error(self, tmp_path, capsys, mode,
                                                 strike, message):
        cfg = self._hedged_config(tmp_path, f"hedge_strike = {strike}\n")
        text = cfg.read_text()
        assert "hedge_strike_mode = solve\n" in text
        cfg.write_text(text.replace("hedge_strike_mode = solve",
                                    f"hedge_strike_mode = {mode}"))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("old,new,fraction", [
        ("strategy = kelly", "strategy = fixed\nlambda = 0", "0.0"),
        ("alt_p = 0.75", "alt_p = 0.25", "-1.0"),          # a negative Kelly bet
        ("strategy = kelly", "strategy = fixed\nlambda = 2", "2.0"),   # 1/null_p
    ])
    def test_put_hedge_needs_a_fraction_with_an_arbitrage_free_lattice(
            self, tmp_path, capsys, old, new, fraction):
        cfg = self._hedged_config(tmp_path)
        text = cfg.read_text()
        assert f"{old}\n" in text
        cfg.write_text(text.replace(f"{old}\n", f"{new}\n"))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "a put hedge needs a fraction whose lattice has 0 < d < 1 < u" in err
        assert f"fraction {fraction} gives" in err

    def test_dynamic_floor_on_a_non_half_null_holds_the_floor(self, tmp_path, capsys):
        text = (CONFIGS / "table1_dynamic.cfg").read_text()
        assert "null_p = 0.5\nalt_p = 0.75\n" in text
        path = tmp_path / "dynamic.cfg"
        path.write_text(text.replace("null_p = 0.5\nalt_p = 0.75\n",
                                     "null_p = 0.7\nalt_p = 0.9\n"))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out", str(tmp_path / "run"))
        assert (code, err) == (0, "")
        rows = (tmp_path / "run.csv").read_text().splitlines()
        finals = [float(r.split(",")[1]) for r in rows if r[0].isdigit()]
        assert len(finals) == 10000
        assert min(finals) >= 0.25 - 1e-12

    def test_a_dynamic_wealth_past_the_float_range_is_no_warning(self, tmp_path, capsys):
        # at null_p = 1e-20 an up-move multiplies the wealth by up to ~1e20,
        # so some finals overflow to inf: a valid wealth, not a RuntimeWarning
        text = (CONFIGS / "table1_dynamic.cfg").read_text()
        assert "null_p = 0.5\n" in text
        path = tmp_path / "dynamic.cfg"
        path.write_text(text.replace("null_p = 0.5\n", "null_p = 1e-20\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()
        assert "inf" in [r.split(",")[1] for r in rows if r[0].isdigit()]

    def test_json_records_solved_hedge_plan(self, tmp_path, capsys):
        cfg = self._hedged_config(tmp_path)
        outputs = []
        for name, workers in (("a", "1"), ("b", "3")):
            code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                                 "--out", str(tmp_path / name), "--workers", workers)
            assert code == 0
            outputs.append((tmp_path / f"{name}.json").read_bytes())
        assert outputs[0] == outputs[1]
        plan = json.loads(outputs[0])["hedge_plan"]
        model = LatticeModel(1.5, 0.5)
        values, weights = model.terminal_values(20), binomial_weights(20, 0.5)
        strike, premium, stake = floor_put(values, weights, 0.25, "paper")
        assert plan == {"strike": strike, "premium": premium, "expiry": 20}
        # the raw root holds the floor only to an ulp; the strike bought holds it
        root = put_floor_strikes(values, weights, 0.25)[0]
        missed = float(weights @ np.maximum(root - values, 0.0))
        assert (1.0 - missed) * root < 0.25 <= stake * strike
        assert "hedge_plan" not in json.loads(outputs[0])["config"]

    def test_unhedged_json_has_null_hedge_plan(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--config",
                            str(self._config(tmp_path)), "--workers", "1")
        assert json.loads(out)["hedge_plan"] is None

    def test_missing_config_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_shift_requires_change_point(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        code, _, err = run_cli(capsys, "shift", "--config", str(cfg))
        assert code == 2
        assert "change_at" in err

    def test_shift_runs_shift_config(self, tmp_path, capsys):
        text = (CONFIGS / "table2_kelly.cfg").read_text()
        text = text.replace("replications = 10000", "replications = 100")
        path = tmp_path / "shift.cfg"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "shift", "--config", str(path),
                               "--workers", "1")
        assert code == 0
        assert json.loads(out)["config"]["change_at"] == 10


# Gene ids that a CSV field must quote (a comma, a quote), next to plain ones.
ODD_IDS = ["g0", "ab,c", 'q"x', "plain", 'é,"z"', "#g1"]


def write_odd_id_matrix(path, delimiter):
    """Six genes named ODD_IDS, 6 normal then 6 tumor columns, written by
    csv.writer: the comma-delimited file quotes the ids with a comma or a
    quote, the tab-delimited one holds "ab,c" bare, and both hold "#g1"
    bare, a gene and no comment line of the input."""
    rng = np.random.default_rng(5)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["gene"] + ["normal"] * 6 + ["tumor"] * 6)
        for gid in ODD_IDS:
            writer.writerow([gid] + [f"{v:.6f}" for v in np.exp(rng.standard_normal(12))])


def write_one_normal_matrix(path):
    """Three genes, one normal and four tumor columns: no normal variance."""
    path.write_text("gene,normal,tumor,tumor,tumor,tumor\n"
                    "g0,1.5,2.0,2.5,3.0,3.5\ng1,2.5,1.0,1.5,2.0,0.5\n"
                    "g2,3.0,1.2,2.2,3.2,4.2\n")


def write_one_tumor_matrix(path):
    """Three genes, two normal columns and one tumor column: nothing to hold out."""
    path.write_text("gene,normal,normal,tumor\n"
                    "g0,1.5,2.0,2.5\ng1,2.5,1.0,1.5\ng2,3.0,1.2,2.2\n")


@pytest.fixture(scope="module")
def constant_normal_matrix(tmp_path_factory):
    """6033 x 102 raw matrix, 50 normal then 52 tumor columns, whose genes
    g00003 and g00007 hold 5 and 9 in every normal column.  At this width the
    row mean of 50 copies of log 5 rounds off log 5, and the sd reads 1.6e-15."""
    path = tmp_path_factory.mktemp("constant_normal") / "matrix.csv"
    values = np.exp(6.0 + 0.5 * stream(310).standard_normal((6033, 102)))
    values[3, :50], values[7, :50] = 5.0, 9.0
    path.write_text(",".join(["gene"] + ["normal"] * 50 + ["tumor"] * 52) + "\n" + "".join(
        f"g{g:05d}," + ",".join(f"{v:.6g}" for v in row) + "\n"
        for g, row in enumerate(values)))
    return path


def read_csv_rows(path):
    """Header and data rows of an output CSV, read by csv.reader past its
    `#` comment lines."""
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


class TestScreen:
    def test_synthetic_null_run(self, tmp_path, capsys):
        out = tmp_path / "screen"
        code, _, _ = run_cli(capsys, "screen", "--synthetic", "null",
                             "--genes", "300", "--samples", "30",
                             "--seed", "23", "--out", str(out))
        assert code == 0
        payload = json.loads((tmp_path / "screen.json").read_text())
        assert payload["report"]["n"] == 300
        lines = (tmp_path / "screen.csv").read_text().strip().split("\n")
        header = [l for l in lines if l.startswith("gene,")]
        assert header == ["gene,lambda,final_wealth,max_wealth,rejected,crossing_time"]
        assert sum(1 for l in lines if l.startswith("g") and "," in l
                   and not l.startswith("gene,")) == 300

    def test_hedged_json_records_strike_table(self, capsys):
        code, out, _ = run_cli(capsys, "screen", "--synthetic", "shifted",
                               "--genes", "200", "--samples", "40", "--hedge",
                               "--seed", "31")
        assert code == 0
        payload = json.loads(out)
        assert payload["strike_table"]
        for row in payload["strike_table"]:
            assert set(row) == {"lambda", "strike", "premium", "stake"}
            assert abs(row["strike"] / (1.0 + row["premium"]) - 0.5) <= 1e-12
            assert abs(row["stake"] * row["strike"] - 0.5) <= 1e-12
        assert "fallback_genes" not in payload

    def test_unhedged_json_has_empty_strike_table(self, capsys):
        _, out, _ = run_cli(capsys, "screen", "--synthetic", "null",
                            "--genes", "50", "--samples", "30")
        payload = json.loads(out)
        assert payload["strike_table"] == [] and "fallback_genes" not in payload

    def test_hedged_matrix_screen_does_not_depend_on_the_seed(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        write_seeded_matrix(path)
        written = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            code, _, _ = run_cli(capsys, "screen", "--matrix", str(path), "--hedge",
                                 "--seed", seed, "--out", str(out))
            assert code == 0
            payload = json.loads((tmp_path / f"seed{seed}.json").read_text())
            assert payload["config"]["seed"] == int(seed)
            written.append((payload["strike_table"], payload["report"],
                            read_csv_rows(tmp_path / f"seed{seed}.csv")))
        assert written[0] == written[1]

    @pytest.mark.parametrize("ruin", ["-0.5", "0", "1"])
    def test_hedge_floor_outside_unit_interval_is_config_error(self, capsys, ruin):
        code, _, err = run_cli(capsys, "screen", "--synthetic", "null",
                               "--genes", "50", "--hedge", "--ruin", ruin)
        assert code == 2
        assert "hedge floor" in err

    @pytest.mark.parametrize("extra", [
        ("--alpha", "1.5"), ("--alpha", "0"), ("--ruin", "1.2"),
        ("--samples", "2", "--hedge"), ("--samples", "1"), ("--genes", "0"),
        ("--genes", "-5"),
        ("--shift-mean", "0"), ("--shift-mean", "1.5"), ("--shift-fraction", "1.5"),
    ])
    def test_out_of_range_arguments_are_config_errors(self, capsys, extra):
        code, _, err = run_cli(capsys, "screen", "--synthetic", "shifted",
                               "--genes", "50", *extra)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("extra,expiry", [((), None), (("--hedge",), 30),
                                              (("--hedge", "--expiry", "5"), 5)])
    def test_both_files_carry_the_same_settings(self, tmp_path, capsys, extra, expiry):
        out = tmp_path / "screen"
        code, _, _ = run_cli(capsys, "screen", "--synthetic", "null", "--genes", "50",
                             "--samples", "32", *extra, "--out", str(out))
        assert code == 0
        settings = json.loads((tmp_path / "screen.json").read_text())["config"]
        assert settings.get("hedge_expiry") == expiry
        comments = [l[2:].split(" = ") for l in
                    (tmp_path / "screen.csv").read_text().splitlines()
                    if l.startswith("# ")]
        assert comments == [[k, str(v)] for k, v in settings.items()]

    def test_matrix_and_synthetic_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "screen", "--synthetic", "null",
                             "--matrix", "x.csv")
        assert code == 2

    def test_matrix_file_run(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        lines = ["gene," + ",".join(["normal"] * 10 + ["tumor"] * 10)]
        for g in range(5):
            vals = rng.standard_normal(20)
            lines.append(f"g{g}," + ",".join(f"{v:.6f}" for v in vals))
        path = tmp_path / "matrix.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "screen", "--matrix", str(path),
                               "--no-log", "--seed", "29")
        assert code == 0
        assert json.loads(out)["report"]["n"] == 5

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_ids_with_separators_or_quotes_read_back(self, tmp_path, capsys, delimiter):
        write_odd_id_matrix(tmp_path / "matrix.txt", delimiter)
        code, _, _ = run_cli(capsys, "screen", "--matrix", str(tmp_path / "matrix.txt"),
                             "--out", str(tmp_path / "x"))
        assert code == 0
        header, *rows = read_csv_rows(tmp_path / "x.csv")
        assert len(header) == 6 and all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows] == ODD_IDS

    def test_one_normal_column_is_config_error(self, tmp_path, capsys):
        write_one_normal_matrix(tmp_path / "matrix.csv")
        code, out, err = run_cli(capsys, "screen", "--matrix", str(tmp_path / "matrix.csv"))
        assert (code, out) == (2, "")
        assert "at least 2 columns labeled 'normal'" in err and "got 1" in err
        assert "Warning" not in err and "zero variance" not in err

    def test_one_tumor_column_is_config_error(self, tmp_path, capsys):
        write_one_tumor_matrix(tmp_path / "matrix.csv")
        code, out, err = run_cli(capsys, "screen", "--matrix", str(tmp_path / "matrix.csv"))
        assert (code, out) == (2, "")
        assert err == "error: need at least 2 tumor samples, found 1\n"

    def test_a_constant_normal_group_has_no_rows(self, tmp_path, capsys,
                                                 constant_normal_matrix):
        code, _, _ = run_cli(capsys, "screen", "--matrix", str(constant_normal_matrix),
                             "--out", str(tmp_path / "screen"))
        assert code == 0
        _, *rows = read_csv_rows(tmp_path / "screen.csv")
        ids = [row[0] for row in rows]
        assert len(ids) == 6031 and "g00003" not in ids and "g00007" not in ids


    def test_a_matrix_screen_holds_its_sequences_and_one_block(self, tmp_path,
                                                               constant_normal_matrix):
        # the file is read a block of rows at a time into the test sequences
        # (6031 x 100 doubles): a whole raw, log or uniform matrix beside them
        # would take the traced peak past twice their size
        argv = ["screen", "--matrix", str(constant_normal_matrix), "--hedge",
                "--out", str(tmp_path / "screen")]
        assert main(argv) == 0          # imports and caches before tracing
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 6031 * 100 * 8


class TestIngest:
    def test_transforms_matrix_to_sequences(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        lines = ["gene," + ",".join(["normal"] * 6 + ["tumor"] * 6)]
        for g in range(4):
            vals = np.exp(rng.standard_normal(12))
            lines.append(f"g{g}," + ",".join(f"{v:.6f}" for v in vals))
        src = tmp_path / "matrix.csv"
        src.write_text("\n".join(lines) + "\n")
        dst = tmp_path / "sequences.csv"
        code, _, _ = run_cli(capsys, "ingest", "--input", str(src),
                             "--output", str(dst))
        assert code == 0
        out_lines = dst.read_text().strip().split("\n")
        assert out_lines[1].startswith("# held_out_columns = 6 7")
        data = [l for l in out_lines if l.startswith("g") and not l.startswith("gene,")]
        assert len(data) == 4
        fields = data[0].split(",")
        assert len(fields) == 2 + 10   # gene, lambda, ten test samples

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_ids_with_separators_or_quotes_read_back(self, tmp_path, capsys, delimiter):
        write_odd_id_matrix(tmp_path / "matrix.txt", delimiter)
        code, _, _ = run_cli(capsys, "ingest", "--input", str(tmp_path / "matrix.txt"),
                             "--output", str(tmp_path / "out.csv"))
        assert code == 0
        header, *rows = read_csv_rows(tmp_path / "out.csv")
        assert len(header) == 2 + 10 and all(len(row) == 2 + 10 for row in rows)
        assert [row[0] for row in rows] == ODD_IDS

    def test_one_normal_column_is_config_error(self, tmp_path, capsys):
        write_one_normal_matrix(tmp_path / "matrix.csv")
        code, _, err = run_cli(capsys, "ingest", "--input", str(tmp_path / "matrix.csv"),
                               "--output", str(tmp_path / "out.csv"))
        assert code == 2
        assert "at least 2 columns labeled 'normal'" in err and "got 1" in err
        assert "Warning" not in err and "zero variance" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_one_tumor_column_is_config_error(self, tmp_path, capsys):
        write_one_tumor_matrix(tmp_path / "matrix.csv")
        code, _, err = run_cli(capsys, "ingest", "--input", str(tmp_path / "matrix.csv"),
                               "--output", str(tmp_path / "out.csv"))
        assert code == 2
        assert err == "error: need at least 2 tumor samples, found 1\n"
        assert not (tmp_path / "out.csv").exists()

    def test_skipped_genes_read_back_as_csv_fields(self, tmp_path, capsys):
        # "a b" and "c" have no variance in the normal group; joined by
        # spaces they would read back as three ids
        src = tmp_path / "matrix.csv"
        src.write_text("gene,normal,normal,normal,tumor,tumor,tumor\n"
                       "a b,2,2,2,1,3,5\ng1,1,2,4,3,5,1\nc,7,7,7,2,4,8\n"
                       "g2,3,1,2,6,2,4\n")
        code, _, _ = run_cli(capsys, "ingest", "--input", str(src),
                             "--output", str(tmp_path / "out.csv"))
        assert code == 0
        comment, = [line for line in (tmp_path / "out.csv").read_text().splitlines()
                    if line.startswith("# skipped_genes = ")]
        assert comment == "# skipped_genes = a b,c"
        assert next(csv.reader([comment.removeprefix("# skipped_genes = ")])) == ["a b", "c"]
        _, *rows = read_csv_rows(tmp_path / "out.csv")
        assert [row[0] for row in rows] == ["g1", "g2"]

    def test_a_constant_normal_group_is_skipped_though_its_sd_is_not_0(
            self, tmp_path, capsys, constant_normal_matrix):
        code, _, _ = run_cli(capsys, "ingest", "--input", str(constant_normal_matrix),
                             "--output", str(tmp_path / "out.csv"))
        assert code == 0
        assert "# skipped_genes = g00003,g00007" in (tmp_path / "out.csv").read_text()
        _, *rows = read_csv_rows(tmp_path / "out.csv")
        ids = [row[0] for row in rows]
        assert len(ids) == 6031 and "g00003" not in ids and "g00007" not in ids

    def test_bad_input_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "ingest", "--input", "/nope.csv",
                             "--output", "/tmp/out.csv")
        assert code == 2

    @pytest.mark.parametrize("row", ["g1,1,2,3,4,5", "g1,1,2", "g1,1,2,abc,4", "g1,1,2,3,",
                                     "g1", "g1,", "   "])
    def test_ragged_or_non_numeric_row_is_solver_error(self, tmp_path, capsys, row):
        # the bad row is file line 4: the header and the blank line count.
        # A row with no values at all must not shift g2's values onto g1
        src = tmp_path / "matrix.csv"
        src.write_text(f"gene,normal,normal,tumor,tumor\ng0,1,2,3,4\n\n{row}\ng2,1,2,3,4\n")
        code, _, err = run_cli(capsys, "ingest", "--input", str(src),
                               "--output", str(tmp_path / "out.csv"))
        assert code == 3
        assert "error" in err
        assert "line 4: expected 5 fields" in err and "usecols" not in err

    @pytest.mark.parametrize("row", ["g2", "g2,", "   "])
    def test_a_block_of_only_empty_rows_is_refused_without_a_warning(self, tmp_path,
                                                                     capsys, row):
        # numpy warns of text with no data: the reader must not hand it any
        src = tmp_path / "matrix.csv"
        src.write_text(f"gene,normal,normal,tumor,tumor\n{row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "ingest", "--input", str(src),
                                   "--output", str(tmp_path / "out.csv"))
        assert code == 3
        assert "line 2: expected 5 fields" in err


@pytest.mark.parametrize("argv", [
    ("screen", "--matrix", "m.csv", "--out", "m"),
    ("screen", "--matrix", "m.csv", "--hedge", "--out", "sub/../m"),
    ("ingest", "--input", "m.csv", "--output", "m.csv"),
    ("ingest", "--input", "m.csv", "--output", "link.csv"),
])
def test_an_output_that_is_the_input_is_refused_before_the_read(tmp_path, monkeypatch,
                                                                 capsys, argv):
    # the same file by name, through a dotted path and through a symlink
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    write_odd_id_matrix(tmp_path / "m.csv", ",")
    (tmp_path / "link.csv").symlink_to(tmp_path / "m.csv")
    before = (tmp_path / "m.csv").read_bytes()
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "is the input file m.csv" in err
    assert (tmp_path / "m.csv").read_bytes() == before
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv", [
    ("hedge-solve", "--floor", "0.25", "--horizon", "0"),
    ("price", "--model", "u=1.5,d=0.5", "--contract", "put,S=0.25,tau=3",
     "--method", "mc", "--n", "1"),
    ("screen", "--synthetic", "null", "--genes", "50", "--hedge", "--expiry", "-3"),
    ("simulate", "--config", str(CONFIGS / "table1_kelly.cfg"), "--workers", "0"),
    ("simulate", "--config", str(CONFIGS / "table1_kelly.cfg"), "--workers", "-3"),
    ("shift", "--config", str(CONFIGS / "table2_kelly.cfg"), "--workers", "0"),
    ("shift", "--config", str(CONFIGS / "table2_kelly.cfg"), "--workers", "-3"),
])
def test_malformed_numeric_arguments_are_config_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err


def test_import_loads_neither_scipy_stats_nor_scipy_special():
    # numpy is the one runtime dependency: no subcommand imports scipy (below)
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, hedgetest, hedgetest.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.stats', 'scipy.special'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def write_seeded_matrix(path):
    """40 genes, 20 normal then 20 tumor raw columns; about a fifth of the
    genes have their tumor mean shifted up, built as the CI workflow builds its
    seeded matrix."""
    rng = np.random.default_rng(7)
    shifted = 0.8 * (rng.random((40, 1)) < 0.2) * (np.arange(40) >= 20)
    values = np.exp(rng.normal(6.0, 0.5, (40, 40)) + shifted)
    path.write_text(",".join(["gene"] + ["normal"] * 20 + ["tumor"] * 20) + "\n" + "".join(
        f"g{g}," + ",".join(f"{v:.6g}" for v in row) + "\n" for g, row in enumerate(values)))


# `{matrix}` is a seeded raw matrix, `{out}` a path prefix of the run
INGEST = ("ingest", "--input", "{matrix}", "--output", "{out}.csv")
MATRIX_SCREEN = ("screen", "--matrix", "{matrix}", "--hedge", "--out", "{out}")
BLACK_SCHOLES = ("price", "--contract", "put,S=0.5,tau=50", "--method", "black-scholes",
                 "--sigma", "1", "--time", "50")


def run_fresh(tmp_path, argv, name, block_scipy=False):
    """Run `hedgetest argv` in a new interpreter, which prints the
    scipy.special modules it loaded as its last stdout line; with
    block_scipy, `import scipy` fails there.  Returns the process."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    matrix = tmp_path / "matrix.csv"
    if not matrix.exists():
        write_seeded_matrix(matrix)
    argv = [a.format(matrix=matrix, out=tmp_path / name) for a in argv]
    code = ("import sys\n"
            "if sys.argv[1] == 'block': sys.modules['scipy'] = None\n"
            "from hedgetest.cli import main\n"
            "code = main(sys.argv[2:])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
            "sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "block" if block_scipy else "load", *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("argv", [
    ("simulate", "--config", str(CONFIGS / "table1_option.cfg"), "--out", "{out}"),
    ("shift", "--config", str(CONFIGS / "table2_option10.cfg"), "--out", "{out}"),
    ("hedge-solve", "--floor", "0.25", "--horizon", "20"),
    INGEST,
    MATRIX_SCREEN,
    ("screen", "--synthetic", "shifted", "--genes", "200", "--hedge", "--out", "{out}"),
    ("price", "--model", "u=1.5,d=0.5", "--contract", "call,S=1.25,tau=3",
     "--method", "lattice"),
    ("price", "--model", "u=1.5,d=0.5", "--contract", "put,S=0.25,tau=3",
     "--method", "mc", "--n", "1000"),
    BLACK_SCHOLES,
])
def test_lattice_hedges_never_load_scipy_special(tmp_path, argv):
    # every subcommand: the lattice strike solve weighs its measure with the
    # standard library, and normal_cdf is numpy
    proc = run_fresh(tmp_path, argv, "run")
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [INGEST, MATRIX_SCREEN, BLACK_SCHOLES],
                         ids=["ingest", "screen --matrix --hedge", "price black-scholes"])
def test_runs_without_scipy_write_the_same_bytes(tmp_path, argv):
    loaded = run_fresh(tmp_path, argv, "loaded")
    blocked = run_fresh(tmp_path, argv, "blocked", block_scipy=True)
    assert blocked.stdout == loaded.stdout
    files = sorted(p.name for p in tmp_path.glob("loaded*"))
    assert files == sorted(p.name.replace("blocked", "loaded")
                           for p in tmp_path.glob("blocked*"))
    for name in files:
        assert ((tmp_path / name.replace("loaded", "blocked")).read_bytes()
                == (tmp_path / name).read_bytes()), name


def test_python_m_runs_the_cli():
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "hedgetest", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: hedgetest" in proc.stdout


def readme_cli_commands():
    """(argv, documented output or None) for each hedgetest line of the
    README's CLI block; the output is the text of a following `# -> ` line."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("hedgetest "):
            commands.append([shlex.split(line)[1:], None])
        elif line.startswith("# -> ") and commands:
            commands[-1][1] = line[len("# -> "):]
    return commands


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # every documented command whose input files exist runs from the repo
    # root and exits 0; documented outputs match (a `...` value by prefix)
    monkeypatch.chdir(ROOT)
    ran, checked = set(), 0
    for argv, documented in readme_cli_commands():
        inputs = [v for flag, v in zip(argv, argv[1:])
                  if flag in ("--config", "--input", "--matrix")]
        if not all(Path(v).exists() for v in inputs):
            continue
        argv = [str(tmp_path / Path(v).name) if v.startswith("/tmp/") else v
                for v in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        ran.add(argv[0])
        if documented is None:
            continue
        if documented.startswith("{"):
            assert json.loads(out) == json.loads(documented)
        else:
            key, values = documented.split(" ", 1)
            prefixes = re.findall(r"([0-9.]+?)\.\.\.", values)
            actual = [format(v, ".17g") for v in json.loads(out)[key]]
            assert len(actual) == len(prefixes)
            assert all(a.startswith(p) for a, p in zip(actual, prefixes)), actual
        checked += 1
    assert ran == {"price", "hedge-solve", "simulate", "shift", "screen"}
    assert checked == 2


@pytest.mark.parametrize("argv,config_edit", [
    (("price", "--method", "mc", "--null-p", "0"), None),
    (("price", "--method", "mc", "--null-p", "1"), None),
    (("price", "--method", "mc", "--null-p", "1.5"), None),
    (("simulate", "--config"), ("table1_conservative", "null_p = 0.5", "null_p = 0")),
    (("simulate", "--config"), ("table1_kelly", "null_p = 0.5", "null_p = 0")),
    (("simulate", "--config"), ("table1_dynamic", "floor = 0.25", "floor = 1.5")),
    (("simulate", "--config"), ("table1_dynamic", "floor = 0.25", "floor = -0.2")),
    (("screen", "--synthetic", "null", "--genes", "50", "--expiry", "5"), None),
], ids=["null-p-0", "null-p-1", "null-p-1.5", "fixed-null-p-0", "kelly-null-p-0",
        "dynamic-floor-1.5", "dynamic-floor-neg", "expiry-without-hedge"])
def test_bad_value_is_one_config_error_line(tmp_path, capsys, argv, config_edit):
    if argv[0] == "price":
        argv += ("--contract", "put,S=0.5,tau=3", "--n", "100")
    if config_edit is not None:
        stem, old, new = config_edit
        text = (CONFIGS / f"{stem}.cfg").read_text()
        assert f"{old}\n" in text
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(f"{old}\n", f"{new}\n"))
        argv += (str(path),)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("price", "--model", "u=1.5,d=0.5", "--contract", "put,S=0.25,tau=20", "--method",
     "mc", "--n", str(10 ** 18)),
    ("screen", "--synthetic", "null", "--genes", str(10 ** 12)),
], ids=["price-mc", "screen"])
def test_a_failed_allocation_is_one_solver_error_line(capsys, argv):
    # numpy refuses the table before touching any memory
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,config_seed", [
    (("price", "--method", "mc", "--contract", "put,S=0.3,tau=5", "--n", "10",
      "--seed", "-1"), None),
    (("simulate", "--config", str(CONFIGS / "table1_kelly.cfg"), "--seed", "-1"), None),
    (("simulate", "--config"), "-3"),
    (("screen", "--synthetic", "null", "--genes", "10", "--samples", "5",
      "--seed", "-1"), None),
    (("screen", "--synthetic", "null", "--genes", "10", "--samples", "5",
      "--seed", "-1", "--hedge"), None),
    (("screen", "--matrix", "absent.csv", "--seed", "-1", "--hedge"), None),
], ids=["price-mc", "simulate-option", "simulate-config", "screen", "screen-hedge",
        "screen-matrix"])
def test_negative_seed_is_one_config_error_line(tmp_path, capsys, argv, config_seed):
    if config_seed is not None:
        text = (CONFIGS / "table1_kelly.cfg").read_text()
        assert "seed = 271828\n" in text
        path = tmp_path / "negative_seed.cfg"
        path.write_text(text.replace("seed = 271828\n", f"seed = {config_seed}\n"))
        argv += (str(path),)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be nonnegative") and err.count("\n") == 1


# per subcommand: a valid argv after the command, an option that takes a
# value, and an option with a value of the wrong type
PARSER_CASES = {
    "price": (["--contract", "call,S=1,tau=3"], "--contract", ["--spot", "x"]),
    "hedge-solve": (["--floor", "0.25", "--horizon", "20"], "--floor",
                    ["--horizon", "x"]),
    "simulate": (["--config", "a.cfg", "--seed", "3"], "--config", ["--workers", "x"]),
    "shift": (["--config", "a.cfg", "--workers", "2"], "--config", ["--seed", "x"]),
    "screen": (["--synthetic", "null", "--hedge"], "--genes", ["--alpha", "x"]),
    "ingest": (["--input", "a", "--output", "b"], "--input", ["--no-log=x"]),
}


def parse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr, namespace) of parsing argv; the code is
    None and the namespace a dict when parsing succeeds."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err, None
    captured = capsys.readouterr()
    return None, captured.out, captured.err, vars(args)


def parser_argvs():
    for command, (valid, takes_value, bad_type) in PARSER_CASES.items():
        for rest in (["-h"], [], ["--bogus"], [takes_value], bad_type, valid,
                     valid + ["extra"], valid + ["-h"]):
            yield [command, *rest]


@pytest.mark.parametrize("argv", list(parser_argvs()), ids=" ".join)
def test_one_command_parser_parses_as_the_full_parser(capsys, argv):
    one = parse_outcome(build_parser(argv[0]), argv, capsys)
    full = parse_outcome(build_parser(), argv, capsys)
    assert one == full
    assert one[0] in (None, 0, 2)


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--bogus"], ["-h", "price"],
                                  ["--bogus", "price"]], ids=repr)
def test_main_without_a_command_uses_the_full_parser(capsys, argv):
    full = parse_outcome(build_parser(), argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == full[:3]


def test_main_builds_only_the_subcommand_it_runs(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build_parser(command))
    code, out, _ = run_cli(capsys, "hedge-solve", "--floor", "0.25", "--horizon", "20")
    assert code == 0 and json.loads(out)["roots"]
    assert built == ["hedge-solve"]


@pytest.mark.parametrize("argv,config_seed", [
    (("price", "--method", "mc", "--contract", "put,S=0.3,tau=5", "--n", "10",
      "--seed", str(2**32)), None),
    (("simulate", "--config", str(CONFIGS / "table1_kelly.cfg"), "--seed", str(2**32)),
     None),
    (("shift", "--config", str(CONFIGS / "table2_kelly.cfg"), "--seed", str(2**32)), None),
    (("simulate", "--config"), str(2**32)),
    (("screen", "--synthetic", "null", "--genes", "10", "--samples", "5",
      "--seed", str(2**32)), None),
    (("screen", "--synthetic", "null", "--genes", "10", "--samples", "5",
      "--seed", str(2**40), "--hedge"), None),
], ids=["price-mc", "simulate-option", "shift-option", "simulate-config", "screen",
        "screen-hedge"])
def test_a_seed_past_32_bits_is_one_config_error_line(tmp_path, capsys, argv,
                                                       config_seed):
    # such a seed would draw the stream of a smaller seed's other purpose
    if config_seed is not None:
        text = (CONFIGS / "table1_kelly.cfg").read_text()
        path = tmp_path / "large_seed.cfg"
        path.write_text(text.replace("seed = 271828\n", f"seed = {config_seed}\n"))
        argv += (str(path),)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be at most 2**32 - 1 = 4294967295, got ")
    assert err.count("\n") == 1


def test_the_largest_seed_runs(capsys):
    code, out, _ = run_cli(capsys, "price", "--method", "mc", "--contract",
                           "put,S=0.3,tau=5", "--n", "10", "--seed", str(2**32 - 1))
    assert code == 0 and json.loads(out)["method"] == "monte_carlo"
