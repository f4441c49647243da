"""Independent reference computations used to cross-check the library.

These deliberately avoid the code paths they validate: prices come from
exhaustive path enumeration or direct binomial expectations instead of
backward induction, portfolio marks from a fresh lattice at each node
instead of the node table kept since the trade, wealth recurrences are
evaluated step by step in plain Python, and the per-episode CSVs are
written with one f-string per row instead of one format per distinct value.
"""

import itertools
from dataclasses import replace
from math import comb

import numpy as np

from hedgetest.harness import config_dict
from hedgetest.pricing import LatticeModel, lattice_price


def enumerate_paths_price(u, d, q, tau, payoff, spot=1.0):
    """Brute-force 2**tau path enumeration of E[payoff(K_tau)]."""
    total = 0.0
    for path in itertools.product((0, 1), repeat=tau):
        k = spot
        prob = 1.0
        for y in path:
            k *= u if y else d
            prob *= q if y else (1.0 - q)
        total += prob * payoff(k)
    return total


def binomial_weight_price(u, d, q, tau, payoff, spot=1.0):
    """Forward binomial expectation: sum over up-move counts."""
    total = 0.0
    for j in range(tau + 1):
        k = spot * u**j * d ** (tau - j)
        total += comb(tau, j) * q**j * (1.0 - q) ** (tau - j) * payoff(k)
    return total


def wealth_by_hand(lambdas, outcomes, null_mean):
    """Step-by-step wealth recurrence."""
    values = [1.0]
    for lam, y in zip(lambdas, outcomes):
        values.append(values[-1] * (1.0 + lam * (y - null_mean)))
    return values


def replicating_portfolio_terminal(u, d, tau, payoff, spot=1.0):
    """Two-leg replication of a European payoff by backward induction.

    At each node hold shares = (V_up - V_down) / (K*(u - d)) and the cash
    completing the node value; returns the contract values on every level so
    tests can compare the synthesized terminal values with the payoff.
    """
    q = (1.0 - d) / (u - d)
    levels = []
    values = [payoff(spot * u**j * d ** (tau - j)) for j in range(tau + 1)]
    levels.append(list(values))
    for step in range(tau - 1, -1, -1):
        values = [q * values[j + 1] + (1 - q) * values[j] for j in range(step + 1)]
        levels.append(list(values))
    levels.reverse()
    return levels


def fresh_mark(u, d, contract, underlying, t):
    """Value at time t of `contract` (absolute expiry) priced on a fresh
    lattice rooted at the current `underlying`; the payoff itself at expiry.

    This is how portfolios were marked before they kept a node table per
    trade: one full backward induction per mark.
    """
    remaining = contract.expiry - t
    if remaining < 0:
        raise ValueError("cannot mark a contract after expiry")
    if remaining == 0:
        return float(contract.payoff(underlying))
    model = LatticeModel(u, d, remaining)
    rebased = replace(contract, expiry=remaining)
    return lattice_price(model, rebased, spot=underlying).value


def enumerate_paths_min(u, d, tau, payoff, spot=1.0):
    """Brute-force 2**tau path enumeration of min payoff(K_tau)."""
    worst = float("inf")
    for path in itertools.product((u, d), repeat=tau):
        k = spot
        for factor in path:
            k *= factor
        worst = min(worst, payoff(k))
    return worst


def two_sided_terminal_one_shot(rng, lam, tau, n):
    """n draws of 0.5*prod(1 + lam*dev) + 0.5*prod(1 - lam*dev) from one
    (n, tau) table of rng's uniforms, dev = u - 1/2, in a single expression."""
    dev = rng.random((n, tau)) - 0.5
    return 0.5 * np.prod(1.0 + lam * dev, axis=1) \
        + 0.5 * np.prod(1.0 - lam * dev, axis=1)


def plug_in_lambda(pair, grid):
    """Grid point nearest 4 * |mean(pair) - 1/2|, the first one on a tie."""
    a, b = pair
    raw = 2.0 * abs((a + b) / 2 - 0.5) * 2.0
    return min(grid, key=lambda g: abs(g - raw))


def result_csv_by_row(result):
    """Per-replication CSV of an ExperimentResult, one f-string per row."""
    lines = [f"# {k} = {v}" for k, v in config_dict(result.config).items()]
    lines.append("replication,final_wealth,max_wealth,rejected,crossing_time")
    columns = zip(result.final_wealth.tolist(), result.max_wealth.tolist(),
                  result.rejected.tolist(), result.crossing_time.tolist())
    lines.extend(f"{i},{final:.17g},{maxw:.17g},{int(rejected)},"
                 f"{cross if cross >= 0 else ''}"
                 for i, (final, maxw, rejected, cross) in enumerate(columns))
    return "\n".join(lines) + "\n"


def screening_csv_by_row(result, gene_ids, comments):
    """Per-gene CSV of a ScreeningResult, one f-string per row."""
    lines = [f"# {k} = {v}" for k, v in comments.items()]
    lines.append("gene,lambda,final_wealth,max_wealth,rejected,crossing_time")
    columns = zip(gene_ids, result.effective_lambdas.tolist(),
                  result.final_wealth.tolist(), result.max_wealth.tolist(),
                  result.rejected.tolist(), result.crossing_time.tolist())
    lines.extend(f"{gid},{lam:.17g},{final:.17g},{maxw:.17g},{int(rejected)},"
                 f"{cross if cross >= 0 else ''}"
                 for gid, lam, final, maxw, rejected, cross in columns)
    return "\n".join(lines) + "\n"
