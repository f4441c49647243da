"""Command-line entry point.

Thin adapter over the library: every subcommand parses arguments, calls the
corresponding library function and serializes the result.  Exit codes:
0 success, 2 configuration error, 3 solver or precondition failure (a
table too large to allocate among them).

Each call builds one parser, and only for the subcommand it runs: the full
tree of every subcommand is built only for -h, a missing or an unknown
command, and both print the same usage, help and errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import ingest
from .harness import (ConfigError, HedgeSpec, check_seed, csv_field, csv_rows,
                      load_config, result_csv, result_json, run_experiment,
                      run_screening, screening_csv, synthetic_screening_input,
                      text_cells, to_json)
from .pricing import (Contract, ContractKind, LatticeModel, PriceEstimate,
                      PricingMethod, StrikeSolveError, binomial_weights,
                      black_scholes_call, black_scholes_put, floor_put, lattice_price,
                      mc_price, put_floor_strikes)
from .rng import DEFAULT_SEED
from .wealth import HypothesisSpec, InadmissibleBetError, OutcomeError, null_paths

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _parse_fields(text: str, what: str, types: dict) -> list:
    """Values of comma-separated key=value fields, exactly one for each key
    of `types` and converted by it."""
    expected = f"expected {','.join(f'{k}=...' for k in types)}, each once"
    values = {}
    for part in text.split(","):
        key, sep, value = (s.strip() for s in part.partition("="))
        if not sep or key not in types or key in values:
            raise ConfigError(f"bad {what} field {part!r}; {expected}")
        try:
            values[key] = types[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad {what} value {part!r}") from exc
        if not math.isfinite(values[key]):
            raise ConfigError(f"{what} value {part!r} is not finite")
    if len(values) < len(types):
        raise ConfigError(f"incomplete {what} {text!r}; {expected}")
    return [values[k] for k in types]


def _parse_model(text: str) -> tuple[float, float]:
    return tuple(_parse_fields(text, "model", {"u": float, "d": float}))


def _parse_contract(text: str) -> Contract:
    kind, _, fields = (s.strip() for s in text.partition(","))
    if kind not in ("call", "put"):
        raise ConfigError(f"contract kind must be call or put, got {kind!r}")
    strike, tau = _parse_fields(fields, "contract", {"S": float, "tau": int})
    try:
        return Contract(ContractKind(kind), strike, tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _refuse_overwrite(source: str, *outputs: str) -> None:
    """Refuse an output that is the input file (by any path), before the
    input is read: writing it would destroy the matrix it came from."""
    for out in outputs:
        if Path(out).exists() and Path(out).samefile(source):
            raise ConfigError(f"output {out} is the input file {source}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


class _Typed(argparse.Action):
    """Store the value and record the option as typed, so a value someone
    passed can be told apart from the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.typed = namespace.typed | {self.option_strings[0]}


# options read by one `price --method` only
_ROUTE_OPTIONS = {"mc": ("--family", "--null-p", "--bet", "--n", "--seed"),
                  "black-scholes": ("--sigma", "--time")}


def _cmd_price(args) -> int:
    stray = [o for method, options in _ROUTE_OPTIONS.items() if method != args.method
             for o in options if o in args.typed]
    if stray:
        raise ConfigError(f"--method {args.method} does not use {', '.join(stray)}; "
                          f"leave {'it' if len(stray) == 1 else 'them'} out")
    # only `lattice` and the bernoulli bet of `mc` read the --model lattice
    if args.model is None and args.method == "lattice":
        raise ConfigError("lattice pricing needs --model")
    if args.model is not None and args.method == "black-scholes":
        raise ConfigError("--model is a binomial lattice, which black-scholes "
                          "pricing does not use; leave it out")
    if args.model is not None and args.method == "mc" and args.family != "bernoulli":
        raise ConfigError(f"--model is a binomial lattice, which mc pricing of "
                          f"--family {args.family} does not use; leave it out")
    model = None if args.model is None else _parse_model(args.model)
    contract = _parse_contract(args.contract)
    if not 0.0 <= args.spot < math.inf:
        raise ConfigError(f"spot must be nonnegative and finite, got {args.spot}")
    if args.method == "lattice":
        est = lattice_price(LatticeModel(*model), contract, spot=args.spot)
    elif args.method == "mc":
        try:
            hyp = (HypothesisSpec.bernoulli(args.null_p) if args.family == "bernoulli"
                   else HypothesisSpec.log_normal() if args.family == "log_normal"
                   else HypothesisSpec.bounded())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        lo, hi = hyp.lambda_bounds()
        if not lo <= args.bet <= hi:
            raise ConfigError(f"--bet {args.bet!r} outside the admissible range "
                              f"[{lo!r}, {hi!r}] of --family {args.family}")
        if model is not None:
            u, d = model
            bet_u = 1.0 + args.bet * (1.0 - args.null_p)
            bet_d = 1.0 - args.bet * args.null_p
            if not (math.isclose(u, bet_u, rel_tol=1e-12)
                    and math.isclose(d, bet_d, rel_tol=1e-12)):
                raise ConfigError(
                    f"--model u={u!r},d={d!r} disagrees with the lattice of --bet "
                    f"{args.bet!r} on --null-p {args.null_p!r}: "
                    f"u={bet_u!r},d={bet_d!r}")
        if args.n < 2:
            raise ConfigError(f"mc pricing needs --n of at least 2, got {args.n}")
        check_seed(args.seed)

        sample, final_wealth = null_paths(args.bet, hyp, contract.expiry)

        def process(paths):
            # a wealth past the float range is inf: a put's payoff on it is 0,
            # and mc_price rejects the infinite price of a call
            with np.errstate(over="ignore"):
                return args.spot * final_wealth(paths)

        est = mc_price(sample, process, contract, args.n, args.seed)
    else:
        if args.sigma is None or args.time is None:
            raise ConfigError("black-scholes pricing needs --sigma and --time")
        for option, value in (("--sigma", args.sigma), ("--time", args.time),
                              ("--spot", args.spot), ("strike", contract.strike)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"black-scholes pricing needs a positive, finite "
                                  f"{option}, got {value}")
        fn = (black_scholes_call if contract.kind is ContractKind.EUROPEAN_CALL
              else black_scholes_put)
        est = PriceEstimate(fn(args.spot, contract.strike, args.sigma, args.time), 0.0,
                            PricingMethod.BLACK_SCHOLES)
    _write(args.out, to_json({"value": est.value, "std_error": est.std_error,
                              "method": est.method.value}) + "\n")
    return EXIT_OK


def _cmd_hedge_solve(args) -> int:
    if not 0.0 < args.floor < 1.0:
        raise ConfigError(f"floor {args.floor} must lie in (0, 1)")
    if args.horizon < 1:
        raise ConfigError(f"horizon must be positive, got {args.horizon}")
    for name, factor in (("u", args.u), ("d", args.d)):
        if not math.isfinite(factor):
            raise ConfigError(f"--{name} value {factor!r} is not finite")
    model = LatticeModel(args.u, args.d)
    values = model.terminal_values(args.horizon)    # an overflow fails before the weights
    weights = binomial_weights(args.horizon, model.risk_neutral_prob)
    # the strike a hedged run buys, stepped up from the lower root to hold the floor
    strike, premium, stake = floor_put(values, weights, args.floor, "paper")
    _write(args.out, to_json({"floor": args.floor, "horizon": args.horizon,
                              "roots": put_floor_strikes(values, weights, args.floor),
                              "strike": strike, "premium": premium,
                              "stake": stake}) + "\n")
    return EXIT_OK


def _run_simulation(args, want_shift: bool) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if want_shift and config.truth.change_at is None:
        raise ConfigError("shift runs need truth_p_post and change_at in the config")
    result = run_experiment(config, chunks=args.workers)
    if args.out is None:
        sys.stdout.write(result_json(result))
    else:
        _write(args.out + ".csv", result_csv(result))
        _write(args.out + ".json", result_json(result))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    return _run_simulation(args, want_shift=False)


def _cmd_shift(args) -> int:
    return _run_simulation(args, want_shift=True)


def _screen_settings(args, hedge: HedgeSpec | None, n_genes, horizon) -> dict:
    """The resolved settings of a screen, written to both of its files."""
    out = {"mode": "synthetic" if args.matrix is None else "matrix",
           "genes": n_genes, "horizon": horizon, "alpha": args.alpha,
           "ruin_level": args.ruin, "hedge": "put" if hedge else "none"}
    if hedge is not None:
        out["hedge_expiry"] = hedge.resolve(horizon, args.ruin).expiry
    out["seed"] = args.seed
    return out


def _screen_input(args) -> tuple:
    """(gene_ids, sequences, lambdas) of a screen.  A --matrix file is read
    by ingest.read_screening a block of gene rows at a time, so the call
    holds the test sequences and one block, never the whole raw or
    transformed matrix."""
    if args.matrix is None:
        shifted = args.synthetic == "shifted"
        sequences, lambdas, _ = synthetic_screening_input(
            args.genes, args.samples, args.seed,
            shifted_fraction=args.shift_fraction if shifted else 0.0,
            shifted_mean=args.shift_mean)
        return tuple(f"g{i}" for i in range(args.genes)), sequences, lambdas
    prepared = ingest.read_screening(args.matrix, normal_label=args.normal_label,
                                     tumor_label=args.tumor_label,
                                     log_transform=not args.no_log)
    return prepared.gene_ids, prepared.sequences, prepared.lambdas


def _cmd_screen(args) -> int:
    if (args.matrix is None) == (args.synthetic is None):
        raise ConfigError("pass exactly one of --matrix or --synthetic")
    if args.expiry is not None and not args.hedge:
        raise ConfigError("--expiry is the hedge's expiry; it needs --hedge")
    check_seed(args.seed)
    if args.matrix is not None and args.out is not None:
        _refuse_overwrite(args.matrix, args.out + ".csv", args.out + ".json")
    gene_ids, sequences, lambdas = _screen_input(args)
    hedge = HedgeSpec(expiry=args.expiry or 0) if args.hedge else None
    result = run_screening(sequences, lambdas, alpha=args.alpha,
                           ruin_level=args.ruin, hedge=hedge)
    settings = _screen_settings(args, hedge, len(gene_ids), sequences.shape[1])
    report = {"config": settings,
              "strike_table": [{"lambda": lam, "strike": strike, "premium": premium,
                                "stake": stake}
                               for lam, (strike, premium, stake)
                               in result.strike_table.items()],
              "report": dataclasses.asdict(result.report)}
    if args.out is None:
        sys.stdout.write(to_json(report) + "\n")
        return EXIT_OK
    _write(args.out + ".csv", screening_csv(result, gene_ids, settings))
    _write(args.out + ".json", to_json(report) + "\n")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    _refuse_overwrite(args.input, args.output)
    prepared = ingest.read_screening(args.input, normal_label=args.normal_label,
                                     tumor_label=args.tumor_label,
                                     log_transform=not args.no_log)
    lines = [f"# source = {args.input}",
             f"# held_out_columns = {' '.join(str(c) for c in prepared.held_out_columns)}",
             f"# skipped_genes = {','.join(map(csv_field, prepared.skipped_gene_ids))}"]
    width = prepared.sequences.shape[1]
    lines.append("gene,lambda," + ",".join(f"y{t}" for t in range(1, width + 1)))
    _write(args.output, "\n".join(lines) + "\n" + csv_rows(
        [text_cells(prepared.gene_ids), prepared.lambdas[:, None], prepared.sequences]))
    return EXIT_OK


def _add_price(sub) -> None:
    p = sub.add_parser("price", help="price a European contract on a wealth process")
    p.add_argument("--model", help="lattice factors, e.g. u=1.5,d=0.5: required by "
                   "lattice, checked against --bet by mc on bernoulli, "
                   "rejected otherwise")
    p.add_argument("--contract", required=True, help="e.g. call,S=1.25,tau=3")
    p.add_argument("--method", choices=["lattice", "mc", "black-scholes"],
                   default="lattice")
    p.add_argument("--spot", type=float, default=1.0)
    p.add_argument("--family", choices=["bernoulli", "bounded", "log_normal"],
                   default="bernoulli", action=_Typed,
                   help="outcome family (mc only)")
    p.add_argument("--null-p", type=float, default=0.5, dest="null_p", action=_Typed,
                   help="null parameter of the bernoulli family (mc only)")
    p.add_argument("--bet", type=float, default=1.0, action=_Typed,
                   help="constant betting fraction (mc only)")
    p.add_argument("--n", type=int, default=100_000, action=_Typed,
                   help="replications (mc only)")
    p.add_argument("--sigma", type=float, action=_Typed,
                   help="volatility (black-scholes only)")
    p.add_argument("--time", type=float, action=_Typed,
                   help="time to expiry (black-scholes only)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, action=_Typed,
                   help="random seed (mc only)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_price, typed=frozenset())


def _add_hedge_solve(sub) -> None:
    p = sub.add_parser("hedge-solve", help="solve (1 - C(S))*S = floor for strikes")
    p.add_argument("--floor", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--u", type=float, default=1.5)
    p.add_argument("--d", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_hedge_solve)


def _add_simulation(sub, name: str, helptext: str, fn) -> None:
    p = sub.add_parser(name, help=helptext)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, default=1,
                   help="run the replications in this many consecutive chunks "
                        "(output is byte-identical for any count)")
    p.add_argument("--out", help="prefix for .csv and .json artifacts")
    p.set_defaults(fn=fn)


def _add_screen(sub) -> None:
    p = sub.add_parser("screen", help="sequential screening of gene sequences")
    p.add_argument("--matrix", help="raw expression matrix file")
    p.add_argument("--synthetic", choices=["null", "shifted"])
    p.add_argument("--genes", type=int, default=6033)
    p.add_argument("--samples", type=int, default=102)
    p.add_argument("--shift-fraction", type=float, default=0.3, dest="shift_fraction")
    p.add_argument("--shift-mean", type=float, default=0.65, dest="shift_mean")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--ruin", type=float, default=0.5)
    p.add_argument("--hedge", action="store_true")
    p.add_argument("--expiry", type=int, help="hedge expiry (default: all samples)")
    p.add_argument("--normal-label", default="normal", dest="normal_label")
    p.add_argument("--tumor-label", default="tumor", dest="tumor_label")
    p.add_argument("--no-log", action="store_true", dest="no_log",
                   help="matrix is already on a log scale")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the --synthetic matrix; a --matrix screen, hedged "
                        "or not, draws nothing and does not depend on it")
    p.add_argument("--out", help="prefix for .csv and .json artifacts")
    p.set_defaults(fn=_cmd_screen)


def _add_ingest(sub) -> None:
    p = sub.add_parser("ingest", help="transform an expression matrix for screening")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--normal-label", default="normal", dest="normal_label")
    p.add_argument("--tumor-label", default="tumor", dest="tumor_label")
    p.add_argument("--no-log", action="store_true", dest="no_log")
    p.set_defaults(fn=_cmd_ingest)


# each subcommand's adder, in the order the full parser lists them
_COMMANDS = {
    "price": _add_price,
    "hedge-solve": _add_hedge_solve,
    "simulate": lambda sub: _add_simulation(sub, "simulate", "run a configured experiment",
                                            _cmd_simulate),
    "shift": lambda sub: _add_simulation(sub, "shift", "run a distribution-shift experiment",
                                         _cmd_shift),
    "screen": _add_screen,
    "ingest": _add_ingest,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The hedgetest parser: every subcommand, or only `command`.

    A one-command parser names all the subcommands in its metavar, so its
    usage lines, help and errors are those of the full parser.  The full
    parser keeps argparse's default, so its own errors still name `command`."""
    parser = argparse.ArgumentParser(
        prog="hedgetest",
        description="Sequential testing by betting with risk-neutral hedging")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else [command]:
        _COMMANDS[name](sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the subcommand being run; -h, no command or an unknown one
    # needs the full tree
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, ingest.GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StrikeSolveError, InadmissibleBetError, OutcomeError, ValueError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
