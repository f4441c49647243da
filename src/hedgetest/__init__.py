"""Sequential testing by betting, with risk-neutral pricing and hedging.

The test statistic is a nonnegative wealth process that a bettor grows by
wagering against the null; crossing 1/alpha rejects with anytime-valid
error control.  Treating that process as a tradable asset lets the
investigator price European contracts on it under the null (risk-neutral)
measure and buy puts that eliminate the risk of statistical ruin.
"""

from .harness import (ExperimentConfig, HedgeSpec, RiskReport, TruthSpec,
                      load_config, run_experiment, run_screening, tail_metrics)
from .ingest import (ExpressionMatrix, estimate_lambda, load_expression_matrix,
                     prepare_screening, transform_to_uniform)
from .portfolio import (Portfolio, TradeLimits, buy_contract, issue_contract,
                        move_to_risky, short_risky, step, trade_limits)
from .pricing import (Contract, LatticeModel, PriceEstimate, black_scholes_call,
                      black_scholes_put, lattice_price, mc_price,
                      put_floor_strikes, risk_neutral_up_prob,
                      solve_hedge_strike)
from .strategies import (StrategyKind, StrategySpec, build_strategy,
                         conservative_lambda, dynamic_lambda, kelly_lambda)
from .wealth import (CashFlow, Family, HypothesisSpec, TestDecision, WealthPath,
                     cash_flow, decide_from_values, evolve, hedged_cs,
                     run_hedged_cs, run_process, terminal_wealth, update_wealth,
                     ville_decide)

__version__ = "0.1.0"
