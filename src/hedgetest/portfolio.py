"""Multi-leg investigator portfolios on a lattice-driven risky wealth process.

A portfolio holds cash, shares of the underlying test wealth process, and
European contracts marked at their risk-neutral lattice value.  Each held
contract is a trade record, built once when it is traded and shared by every
later portfolio: the contract, the quantity and the node table
backward-induced at the trade.  The portfolio, an immutable named tuple,
marks its records on read, looking each mark up in its table by elapsed
time and up-moves since the trade.  So a step costs the same however many
contracts are held: it moves the risky leg and the underlying, and touches
the records only when it reaches an expiry, where it pays each contract due
then into cash at its payoff node and drops it, so a book holds only live
contracts.  Trades are value-neutral exchanges under one rule: no trade, a
cash-and-shares move or a contract bought or written, may leave a lattice
path to the last expiry (the next step when no contract is held) on which
the total value goes negative, as an exact worst-case sweep finds, to within
1e-12 of the cash and share legs, so the rounding of a move at the bound
passes at any size.  trade_limits is the rule in closed form while no
contract is held, Lemma 1's bounds.  Lemma 1 rebalances every period, so a
step from a book holding no contract is refused by the same rule when the
step could take the total value below 0: a levered or short book cannot
ride two steps untraded.  The total value is itself a test wealth process,
so the usual anytime-valid decision rule applies to it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .pricing import Contract, LatticeModel, lattice_node_values

# Tolerance for enforcing risk-neutral trade prices.
_PRICE_TOL = 1e-9
# Worst-case shortfall forgiven per unit of the cash and share legs (rounding).
_SOLVENCY_TOL = 1e-12


class BankruptcyRiskError(ValueError):
    """A trade, or a step of a book holding no contract, with a strictly
    negative worst-case outcome."""


class MispricedTradeError(ValueError):
    """A derivative trade away from the risk-neutral price."""


@dataclass(frozen=True)
class DerivativePosition:
    """The record of one trade: what was traded, and the node table to mark it.

    nodes[s][j] is the per-contract value s steps after the trade and j
    up-moves since it; the last level is the payoff.  The record never
    changes: the portfolio reads its mark from `nodes` while it holds it,
    and the payoff once, on the step that reaches the expiry; the solvency
    sweep reads its payoffs from the same last level.
    """

    contract: Contract     # expiry is absolute time on the experiment clock
    quantity: float        # negative when issued
    nodes: tuple = field(compare=False, repr=False)
    opened: int = field(compare=False, repr=False)       # trade time
    opened_ups: int = field(compare=False, repr=False)   # portfolio.ups at the trade

    def value_at(self, time: int, ups: int) -> float:
        """Per-contract value at `time` and `ups` up-moves, both counted on the
        portfolio's clock, from the trade up to the expiry."""
        return self.nodes[time - self.opened][ups - self.opened_ups]


@dataclass(frozen=True)
class TradeLimits:
    max_loan: float
    max_short: float


class Portfolio(NamedTuple):
    """Holdings (cash, risky shares, contracts) at one node of their lattice.

    The portfolio carries the lattice it lives on, so its factors were
    checked once, when that LatticeModel was built.  Every position is
    live: due is the earliest expiry among them, None when none is held,
    and the step that reaches it pays each contract due then into cash.
    """

    risk_free: float
    risky_value: float
    positions: tuple[DerivativePosition, ...]
    lattice: LatticeModel
    underlying: float = 1.0    # unit wealth-process level, used for marking
    time: int = 0
    ups: int = 0               # up-moves stepped through so far
    due: int | None = None

    @classmethod
    def initial(cls, up_factor: float, down_factor: float) -> "Portfolio":
        """All-cash unit portfolio at time 0 on the lattice of the two factors."""
        return cls(1.0, 0.0, (), LatticeModel(up_factor, down_factor))

    @property
    def marks(self) -> tuple[float, ...]:
        """Per-contract risk-neutral value of each position at this node."""
        t, ups = self.time, self.ups
        return tuple([pos.value_at(t, ups) for pos in self.positions])

    @property
    def derivative_value(self) -> float:
        """Sum of quantity * mark over the positions in order, from int 0 as
        sum() starts, so an empty book's value is 0."""
        t, ups = self.time, self.ups
        value = 0
        for pos in self.positions:
            value += pos.quantity * pos.value_at(t, ups)
        return value

    @property
    def total_value(self) -> float:
        return self.risk_free + self.risky_value + self.derivative_value


def trade_limits(portfolio: Portfolio) -> TradeLimits:
    """Lemma 1's loan and short bounds, move_to_risky's rule in closed form
    while no contract is held.

    With cash c, a transfer of a into the risky leg survives a down-move iff
    a <= (c + d*K_risky) / (1 - d); a short of b survives an up-move iff
    b <= (c + u*K_risky) / (u - 1); 0 < d < 1 < u holds on the portfolio's
    lattice.  Held contracts are left out (a held put allows more, a written
    call less): the sweep decides.
    """
    u, d = portfolio.lattice.up_factor, portfolio.lattice.down_factor
    cash, risky = portfolio.risk_free, portfolio.risky_value
    return TradeLimits(max_loan=(cash + d * risky) / (1.0 - d),
                       max_short=(cash + u * risky) / (u - 1.0))


def move_to_risky(portfolio: Portfolio, amount: float) -> Portfolio:
    """Exchange `amount` of cash for risky shares (negative sells / shorts).

    Rejected if a lattice path to the last expiry, or the next step when
    no contract is held, could take the total value below 0.
    """
    if not math.isfinite(amount):
        raise ValueError(f"transfer amount must be finite, got {amount}")
    moved = portfolio._replace(risk_free=portfolio.risk_free - amount,
                               risky_value=portfolio.risky_value + amount)
    _vet(moved)
    return moved


def _vet(portfolio: Portfolio) -> None:
    worst = _worst_case_terminal(portfolio)
    legs = abs(portfolio.risk_free) + abs(portfolio.risky_value)
    if worst < -_SOLVENCY_TOL * max(1.0, legs):
        raise BankruptcyRiskError(
            f"a lattice path ends at a negative worst-case value {worst}")


def _worst_case_terminal(portfolio: Portfolio) -> float:
    """Exact minimum total value over all lattice paths to the last expiry,
    or over the next step when no contract is held.

    Payoffs realize at each contract's expiry node and accumulate along the
    path; the recursion min over children makes the sweep exact in O(h^2)
    even though it covers all 2^h paths.  A contract's payoffs are the
    payoff row of its own node table, the nodes step pays it at.
    """
    positions, cash, lattice = portfolio.positions, portfolio.risk_free, portfolio.lattice
    if not positions:
        factor = lattice.down_factor if portfolio.risky_value >= 0.0 else lattice.up_factor
        return cash + portfolio.risky_value * factor
    t, ups = portfolio.time, portfolio.ups
    h = max(p.contract.expiry for p in positions) - t

    def level_payoff(s: int):
        """Quantity times payoff of the contracts expiring s steps on, at the
        s + 1 nodes reachable by then; 0 when none expires."""
        return sum(p.quantity * np.array(p.nodes[-1][ups - p.opened_ups:][:s + 1])
                   for p in positions if p.contract.expiry - t == s)

    g = lattice.terminal_values(h, portfolio.risky_value) + level_payoff(h)
    for s in range(h - 1, -1, -1):
        g = np.minimum(g[:-1], g[1:])
        g += level_payoff(s)
    return cash + float(g[0])


def _node_table(portfolio: Portfolio, contract: Contract) -> tuple:
    """Contract values on the lattice rooted at the portfolio's current node.

    Every level before the payoff is a price, so it gets PriceEstimate's
    sign rule: a value in (-1e-15, 0) is 0 and anything lower is an error.
    """
    remaining = contract.expiry - portfolio.time
    levels = lattice_node_values(portfolio.lattice, replace(contract, expiry=remaining),
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
    elif not abs(price - mark) <= _PRICE_TOL:     # also rejects a NaN price
        raise MispricedTradeError(
            f"trade price {price} differs from the risk-neutral value {mark}")
    position = DerivativePosition(contract, quantity, nodes,
                                  portfolio.time, portfolio.ups)
    due = portfolio.due
    candidate = portfolio._replace(
        risk_free=portfolio.risk_free - quantity * price,
        positions=portfolio.positions + (position,),
        due=contract.expiry if due is None else min(due, contract.expiry))
    _vet(candidate)
    return candidate


def buy_contract(portfolio: Portfolio, contract: Contract, quantity: float,
                 price: float | None = None) -> Portfolio:
    """Buy `quantity` contracts at the risk-neutral price (the default)."""
    if not 0.0 < quantity < math.inf:
        raise ValueError(f"buy quantity must be positive and finite, got {quantity}")
    return _traded(portfolio, contract, quantity, price)


def issue_contract(portfolio: Portfolio, contract: Contract, quantity: float,
                   price: float | None = None) -> Portfolio:
    """Write `quantity` contracts; rejected if a lattice path could bankrupt."""
    if not 0.0 < quantity < math.inf:
        raise ValueError(f"issue quantity must be positive and finite, got {quantity}")
    return _traded(portfolio, contract, -quantity, price)


# Builds a Portfolio from its fields in order, without the keyword-parsing
# constructor: a step's fields are always complete.
_new = tuple.__new__


def step(portfolio: Portfolio, outcome: float) -> Portfolio:
    """Advance one period on outcome 1 (up) or 0 (down).

    The risky leg and the underlying move by the same factor; cash is
    unchanged (r = 0) but for settlement.  No contract is re-marked, since
    marks are read from the node tables on demand, so a step costs the same
    however many positions are held.  Only the step that reaches an expiry
    reads the payoff node of each contract expiring then, once, adds
    quantity times it to the cash, after the cash, in position order, and
    drops the contract; no step prices anything.  The position records are
    shared, not copied.  A step from a book holding no contract raises
    BankruptcyRiskError when the step could take the total value below 0,
    by the rule every trade is vetted by: such a book must rebalance first.
    A book holding contracts with due None (built by hand, not by a trade)
    would never settle them, so its step is a ValueError; so is the step
    reaching a due that a held contract's expiry already passed.
    """
    free, risky, positions, lattice, underlying, t, ups, due = portfolio
    if outcome == 1.0:
        factor, ups = lattice.up_factor, ups + 1
    elif outcome == 0.0:
        factor = lattice.down_factor
    else:
        raise ValueError(f"lattice outcome must be 0 or 1, got {outcome}")
    if not positions:
        _vet(portfolio)
    elif due is None:
        raise ValueError("a book holding contracts needs its earliest expiry in due")
    t += 1
    if t == due:
        kept, due = [], None
        for pos in positions:
            expiry = pos.contract.expiry
            if expiry == t:
                free += pos.quantity * pos.value_at(t, ups)
            elif expiry < t:
                raise ValueError(f"due {t} is past the expiry {expiry} of a held contract")
            else:
                kept.append(pos)
                if due is None or expiry < due:
                    due = expiry
        positions = tuple(kept)
    return _new(Portfolio, (free, risky * factor, positions, lattice, underlying * factor,
                            t, ups, due))
