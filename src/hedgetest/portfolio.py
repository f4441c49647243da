"""Multi-leg investigator portfolios on a lattice-driven risky wealth process.

A portfolio holds cash, shares of the underlying test wealth process, and
European contracts marked at their risk-neutral lattice value.  Each held
contract is a trade record, built once when it is traded and shared by every
later portfolio: the contract, the quantity and the node table
backward-induced at the trade.  The portfolio, an immutable named tuple,
carries one mark per record, and each step looks the new marks up by elapsed
time and up-moves since the trade.  Trades are value-neutral exchanges
constrained so that total value can never go negative: loans and shorts
respect the one-period bounds, and derivative trades, and any cash-and-shares
move while contracts are live, are vetted by an exact worst-case sweep over
lattice paths to expiry.  The total value is itself a test wealth process,
so the usual anytime-valid decision rule applies to it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .pricing import (Contract, LatticeModel, lattice_node_values,
                      risk_neutral_up_prob)

# Tolerance for enforcing risk-neutral trade prices and value neutrality.
_PRICE_TOL = 1e-9


class TradeLimitError(ValueError):
    """A loan or short request beyond the one-period nonnegativity bound."""


class BankruptcyRiskError(ValueError):
    """A derivative trade with a strictly negative worst-case outcome."""


class MispricedTradeError(ValueError):
    """A derivative trade away from the risk-neutral price."""


@dataclass(frozen=True)
class DerivativePosition:
    """The record of one trade: what was traded, and the node table to mark it.

    nodes[s][j] is the per-contract value s steps after the trade and j
    up-moves since it; the last level is the payoff.  The record never
    changes; the current mark lives in the portfolio's `marks`.
    """

    contract: Contract     # expiry is absolute time on the experiment clock
    quantity: float        # negative when issued
    nodes: tuple = field(compare=False, repr=False)
    opened: int = field(compare=False, repr=False)       # trade time
    opened_ups: int = field(compare=False, repr=False)   # portfolio.ups at the trade


@dataclass(frozen=True)
class TradeLimits:
    max_loan: float
    max_short: float


class Portfolio(NamedTuple):
    """Holdings (cash, risky shares, contracts) at one node of the lattice.

    marks[i] is the per-contract risk-neutral value of positions[i] at this
    node: its node-table entry while live, its payoff once expired.  A
    position without a mark is an error, never a value of 0.
    """

    risk_free: float
    risky_value: float
    positions: tuple[DerivativePosition, ...]
    up_factor: float
    down_factor: float
    underlying: float = 1.0    # unit wealth-process level, used for marking
    time: int = 0
    ups: int = 0               # up-moves stepped through so far
    marks: tuple[float, ...] = ()

    @classmethod
    def initial(cls, up_factor: float, down_factor: float) -> "Portfolio":
        """All-cash unit portfolio at time 0; needs 0 < down < 1 < up."""
        risk_neutral_up_prob(up_factor, down_factor)
        return cls(1.0, 0.0, (), up_factor, down_factor)

    @property
    def derivative_value(self) -> float:
        return sum(pos.quantity * mark
                   for pos, mark in zip(self.positions, self.marks, strict=True))

    @property
    def total_value(self) -> float:
        return self.risk_free + self.risky_value + self.derivative_value


def trade_limits(portfolio: Portfolio) -> TradeLimits:
    """One-period loan and short bounds keeping the cash and shares nonnegative.

    A transfer of a into the risky leg survives a down-move iff
    a <= (K_free + d*K_risky) / (1 - d); a short of b survives an up-move iff
    b <= (K_free + u*K_risky) / (u - 1).  The bounds cover cash and shares
    only: move_to_risky vets a portfolio holding live contracts with the
    exact worst-case sweep as well.
    """
    u, d = portfolio.up_factor, portfolio.down_factor
    risk_neutral_up_prob(u, d)
    free, risky = portfolio.risk_free, portfolio.risky_value
    return TradeLimits(max_loan=(free + d * risky) / (1.0 - d),
                       max_short=(free + u * risky) / (u - 1.0))


def move_to_risky(portfolio: Portfolio, amount: float) -> Portfolio:
    """Exchange `amount` of cash for risky shares (negative sells / shorts).

    Bounded above by the loan limit and below by the negated short limit;
    with live contracts held, also rejected if a lattice path to the last
    expiry could bankrupt the portfolio.
    """
    limits = trade_limits(portfolio)
    if amount > limits.max_loan + _PRICE_TOL:
        raise TradeLimitError(
            f"transfer {amount} exceeds the loan limit {limits.max_loan}")
    if -amount > limits.max_short + _PRICE_TOL:
        raise TradeLimitError(
            f"short {-amount} exceeds the short limit {limits.max_short}")
    moved = portfolio._replace(risk_free=portfolio.risk_free - amount,
                               risky_value=portfolio.risky_value + amount)
    if any(pos.contract.expiry > portfolio.time for pos in portfolio.positions):
        _vet(moved)
    return moved


def _vet(portfolio: Portfolio) -> None:
    worst = _worst_case_terminal(portfolio)
    if worst < -_PRICE_TOL:
        raise BankruptcyRiskError(
            f"trade admits a negative worst-case value {worst}")


def _worst_case_terminal(portfolio: Portfolio) -> float:
    """Exact minimum total value over all lattice paths to the last expiry.

    Payoffs realize at each contract's expiry node and accumulate along the
    path; the recursion min over children makes the sweep exact in O(h^2)
    even though it covers all 2^h paths.
    """
    live = [p for p in portfolio.positions if p.contract.expiry > portfolio.time]
    frozen = sum(p.quantity * mark
                 for p, mark in zip(portfolio.positions, portfolio.marks, strict=True)
                 if p.contract.expiry <= portfolio.time)
    u, d = portfolio.up_factor, portfolio.down_factor
    if not live:
        one_step = portfolio.risky_value * (d if portfolio.risky_value >= 0.0 else u)
        return portfolio.risk_free + frozen + one_step
    h = max(p.contract.expiry - portfolio.time for p in live)
    by_level: dict[int, list[DerivativePosition]] = {}
    for p in live:
        by_level.setdefault(p.contract.expiry - portfolio.time, []).append(p)

    def level_payoff(s: int, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for p in by_level.get(s, ()):
            out += p.quantity * p.contract.payoff(x)
        return out

    j = np.arange(h + 1)
    x = portfolio.underlying * u ** j * d ** (h - j)
    g = portfolio.risky_value * u ** j * d ** (h - j) + level_payoff(h, x)
    for s in range(h - 1, -1, -1):
        j = np.arange(s + 1)
        x = portfolio.underlying * u ** j * d ** (s - j)
        g = np.minimum(g[:-1], g[1:]) + level_payoff(s, x)
    return portfolio.risk_free + frozen + float(g[0])


def _node_table(portfolio: Portfolio, contract: Contract) -> tuple:
    """Contract values on the lattice rooted at the portfolio's current node.

    Every level before the payoff is a price, so it gets PriceEstimate's
    sign rule: a value in (-1e-15, 0) is 0 and anything lower is an error.
    """
    remaining = contract.expiry - portfolio.time
    model = LatticeModel(portfolio.up_factor, portfolio.down_factor, remaining)
    levels = lattice_node_values(model, replace(contract, expiry=remaining),
                                 spot=portfolio.underlying)
    for level in levels[:-1]:
        if np.any(level <= -1e-15):
            raise ValueError(f"price must be nonnegative, got {level.min()}")
    prices = [np.where(level < 0.0, 0.0, level).tolist() for level in levels[:-1]]
    return tuple(prices) + (levels[-1].tolist(),)


def _traded(portfolio: Portfolio, contract: Contract, quantity: float,
            price: float | None) -> Portfolio:
    if contract.expiry <= portfolio.time:
        raise ValueError("cannot trade a contract at or after its expiry")
    nodes = _node_table(portfolio, contract)
    mark = nodes[0][0]
    if price is None:
        price = mark
    elif abs(price - mark) > _PRICE_TOL:
        raise MispricedTradeError(
            f"trade price {price} differs from the risk-neutral value {mark}")
    position = DerivativePosition(contract, quantity, nodes,
                                  portfolio.time, portfolio.ups)
    candidate = portfolio._replace(risk_free=portfolio.risk_free - quantity * price,
                                   positions=portfolio.positions + (position,),
                                   marks=portfolio.marks + (mark,))
    _vet(candidate)
    return candidate


def buy_contract(portfolio: Portfolio, contract: Contract, quantity: float,
                 price: float | None = None) -> Portfolio:
    """Buy `quantity` contracts at the risk-neutral price (the default)."""
    if quantity <= 0.0:
        raise ValueError(f"buy quantity must be positive, got {quantity}")
    return _traded(portfolio, contract, quantity, price)


def issue_contract(portfolio: Portfolio, contract: Contract, quantity: float,
                   price: float | None = None) -> Portfolio:
    """Write `quantity` contracts; rejected if a lattice path could bankrupt."""
    if quantity <= 0.0:
        raise ValueError(f"issue quantity must be positive, got {quantity}")
    return _traded(portfolio, contract, -quantity, price)


def step(portfolio: Portfolio, outcome: float) -> Portfolio:
    """Advance one period on outcome 1 (up) or 0 (down).

    The risky leg and the underlying move by the same factor; every live
    contract is re-marked by lookup in its node table at the new node
    (payoff once it expires, frozen thereafter), with no pricing call; cash
    is unchanged (r = 0).  The position records are shared, not copied.
    """
    free, risky, positions, u, d, underlying, t, ups, marks = portfolio
    if outcome == 1.0:
        factor, ups = u, ups + 1
    elif outcome == 0.0:
        factor = d
    else:
        raise ValueError(f"lattice outcome must be 0 or 1, got {outcome}")
    t += 1
    marks = tuple([pos.nodes[t - pos.opened][ups - pos.opened_ups]
                   if pos.contract.expiry >= t else mark   # expired: payoff is frozen
                   for pos, mark in zip(positions, marks, strict=True)])
    return Portfolio(free, risky * factor, positions, u, d, underlying * factor,
                     t, ups, marks)
