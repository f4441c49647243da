"""Sequential testing by betting, with risk-neutral pricing and hedging.

The test statistic is a nonnegative wealth process that a bettor grows by
wagering against the null; crossing 1/alpha rejects with anytime-valid
error control.  Treating that process as a tradable asset lets the
investigator price European contracts on it under the null (risk-neutral)
measure and buy puts that eliminate the risk of statistical ruin.
"""

from .harness import (ExperimentConfig, HedgeSpec, RiskReport, TruthSpec,
                      load_config, run_experiment, run_screening, tail_metrics)
from .ingest import ScreeningInput, estimate_lambdas, read_screening
from .portfolio import (Portfolio, TradeLimits, buy_contract, issue_contract,
                        move_to_risky, step, trade_limits)
from .pricing import (Contract, LatticeModel, PriceEstimate, black_scholes_call,
                      black_scholes_put, lattice_price, mc_price,
                      put_floor_strikes, risk_neutral_up_prob)
from .strategies import (StrategyKind, StrategySpec, build_strategy, dynamic_lambda,
                         kelly_lambda)
from .wealth import (Family, HypothesisSpec, evolve, hedged_cs, terminal_wealth,
                     ville_crossing)

__version__ = "0.1.0"
