"""Independent reference computations used to cross-check the library.

These deliberately avoid the code paths they validate: prices come from
exhaustive path enumeration or direct binomial expectations instead of
backward induction, portfolio marks from a fresh lattice at each node
instead of the node table kept since the trade, or rebuilt one position at
a time in a loop at every step instead of read on demand, wealth
recurrences (one-sided and the two-sided hedged process) are evaluated
step by step in plain Python, the first crossing of
1/alpha is found by a plain loop over one path instead of the batch rule,
put-floor strikes interval by interval in plain Python after a stable
sort, binomial weights in exact integers instead of decimal bounds, a portfolio's worst case by walking every path instead of the
backward min-sweep, and the CSVs are written with one f-string per row,
gene ids quoted by the csv module, instead of as one byte table with one
format per distinct value.  path_values
and crossing_times are no oracles: they are the batch engine's wealth rows
and the batch rule's crossing times, shared by the test files.
"""

import csv
import io
import itertools
import math
from dataclasses import replace
from math import comb

import numpy as np

from hedgetest.harness import config_dict
from hedgetest.pricing import LatticeModel, lattice_price
from hedgetest.wealth import evolve, ville_crossing


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


def binomial_weights_by_integers(n, q):
    """C(n, k) * q**k * (1 - q)**(n - k) for k = 0..n at the exact rational
    q = a/den: numerators stepped in exact integers, each weight one
    correctly rounded int / int division."""
    a, den = q.as_integer_ratio()
    b, scale = den - a, den ** n
    numerator, weights = b ** n, []
    for k in range(n + 1):
        weights.append(numerator / scale)
        numerator = numerator * ((n - k) * a) // ((k + 1) * b)
    return weights


def wealth_by_hand(lambdas, outcomes, null_mean):
    """Step-by-step wealth recurrence K_0 = 1, K_1, ..., K_T of one path.

    lambdas holds the fraction bet on each outcome, or is a strategy
    lam(wealth, t) asked before each outcome with this path's (K_t,).
    """
    values = [1.0]
    for t, y in enumerate(outcomes):
        lam = lambdas(np.array(values[-1:]), t) if callable(lambdas) else lambdas[t]
        values.append(values[-1] * (1.0 + float(np.ravel(lam)[0]) * (y - null_mean)))
    return values


def hedged_cs_by_hand(ys, lam):
    """K_0..K_T of the two-sided hedged process of one bounded sequence:
    0.5 * prod(1 + lam*(y - 1/2)) + 0.5 * prod(1 - lam*(y - 1/2)) over each
    prefix, the products kept as running products."""
    up = down = 1.0
    values = [1.0]
    for y in ys:
        up *= 1.0 + lam * (y - 0.5)
        down *= 1.0 - lam * (y - 0.5)
        values.append(0.5 * up + 0.5 * down)
    return values


def first_crossing_by_hand(values, alpha):
    """Index t of the first K_t >= 1/alpha in one path's K_0..K_T, -1 if none.

    A plain loop over the path; reaching 1/alpha exactly counts.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    threshold = 1.0 / alpha
    return next((t for t, v in enumerate(values) if v >= threshold), -1)


def path_values(strategy, outcomes, hyp):
    """Rows of K_0..K_T for a batch, stepped through evolve."""
    steps = [k for k, _ in evolve(strategy, outcomes, hyp)]
    return np.column_stack([np.ones(len(outcomes))] + steps)


def crossing_times(values, alpha):
    """ville_crossing's first crossing times of the rows K_0..K_T of values."""
    values = np.asarray(values, dtype=float)
    return ville_crossing(values[:, 0], values[:, 1:].T, alpha)[2]


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
    model = LatticeModel(u, d)
    rebased = replace(contract, expiry=remaining)
    return lattice_price(model, rebased, spot=underlying).value


def step_by_remark(portfolio, outcome):
    """One lattice step that rebuilds the marks one position at a time.

    Each live position's mark is looked up afresh in its node table and an
    expired one keeps its previous mark, in a plain loop; a position the
    step leaves expired is settled at that mark.  The new portfolio is
    built by keyword, with the earliest unsettled expiry as its due.
    Returns the new portfolio, its marks and its total value, summed as
    cash + shares + each quantity * mark in position order.
    """
    if outcome not in (0.0, 1.0):
        raise ValueError(f"lattice outcome must be 0 or 1, got {outcome}")
    up = int(outcome == 1.0)
    factor = portfolio.lattice.up_factor if up else portfolio.lattice.down_factor
    t, ups = portfolio.time + 1, portfolio.ups + up
    marks, settled = [], []
    for pos, mark in zip(portfolio.positions, portfolio.marks):
        if pos.contract.expiry >= t:
            mark = pos.nodes[t - pos.opened][ups - pos.opened_ups]
        marks.append(mark)
        settled.append(mark if pos.contract.expiry < t else None)
    due = min([pos.contract.expiry for pos, payoff in zip(portfolio.positions, settled)
               if payoff is None], default=None)
    moved = portfolio._replace(risky_value=portfolio.risky_value * factor,
                               underlying=portfolio.underlying * factor,
                               time=t, ups=ups, settled=tuple(settled), due=due)
    total = moved.risk_free + moved.risky_value + sum(
        pos.quantity * mark for pos, mark in zip(moved.positions, marks))
    return moved, marks, total


def floor_strikes_by_interval(atoms, weights, floor):
    """put_floor_strikes after a stable sort, one interval at a time.

    Walks the atoms in ascending order (equal atoms in input order) with
    running sums W of the weights and M of weights*atoms below each
    interval, and keeps the roots of -W*S**2 + (1 + M)*S - floor inside it.
    The arithmetic is the library's, term for term, so tie-free inputs
    must give the same bits.
    """
    pairs = sorted(zip(map(float, atoms), map(float, weights)), key=lambda p: p[0])
    bounds = [0.0] + [x for x, _ in pairs] + [math.inf]
    mass, moment, roots = 0.0, 0.0, []
    for k in range(len(pairs) + 1):
        if k:
            x, w = pairs[k - 1]
            mass, moment = mass + w, moment + w * x
        lo, hi = bounds[k], bounds[k + 1]
        b = 1.0 + moment
        disc = b * b - 4.0 * mass * floor
        if disc < 0.0:
            continue
        q = b + math.sqrt(disc)
        small = 2.0 * floor / q
        if lo < small <= hi:
            roots.append(small)
        if disc > 0.0 and mass > 0.0:
            large = q / (2.0 * mass)
            if lo < large <= hi:
                roots.append(large)
    return sorted(roots)


def enumerate_paths_min(u, d, tau, payoff, spot=1.0):
    """Brute-force 2**tau path enumeration of min payoff(K_tau)."""
    worst = float("inf")
    for path in itertools.product((u, d), repeat=tau):
        k = spot
        for factor in path:
            k *= factor
        worst = min(worst, payoff(k))
    return worst


def worst_case_by_paths(portfolio):
    """Minimum total value over all 2**h up/down paths to the last live expiry.

    Each path is walked in plain Python: cash, plus the frozen marks of the
    expired positions, plus the risky leg at the path's end, plus each live
    contract's payoff at the underlying on its own expiry.  With no live
    contract h is one step.
    """
    u, d = portfolio.lattice.up_factor, portfolio.lattice.down_factor
    t = portfolio.time
    live = [(pos.contract, pos.quantity) for pos in portfolio.positions
            if pos.contract.expiry > t]
    frozen = sum(pos.quantity * mark
                 for pos, mark in zip(portfolio.positions, portfolio.marks)
                 if pos.contract.expiry <= t)
    h = max([contract.expiry - t for contract, _ in live], default=1)
    worst = math.inf
    for path in itertools.product((u, d), repeat=h):
        total, k = portfolio.risk_free + frozen, 1.0
        for s, factor in enumerate(path, 1):
            k *= factor
            total += sum(quantity * contract.payoff(portfolio.underlying * k)
                         for contract, quantity in live if contract.expiry - t == s)
        worst = min(worst, total + portfolio.risky_value * k)
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


def csv_field(text):
    """`text` as csv.writer writes a field of a row (QUOTE_MINIMAL)."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue().removesuffix(",\r\n")


def screening_csv_by_row(result, gene_ids, comments):
    """Per-gene CSV of a ScreeningResult, one f-string per row."""
    lines = [f"# {k} = {v}" for k, v in comments.items()]
    lines.append("gene,lambda,final_wealth,max_wealth,rejected,crossing_time")
    columns = zip(gene_ids, result.effective_lambdas.tolist(),
                  result.final_wealth.tolist(), result.max_wealth.tolist(),
                  result.rejected.tolist(), result.crossing_time.tolist())
    lines.extend(f"{csv_field(gid)},{lam:.17g},{final:.17g},{maxw:.17g},{int(rejected)},"
                 f"{cross if cross >= 0 else ''}"
                 for gid, lam, final, maxw, rejected, cross in columns)
    return "\n".join(lines) + "\n"


def sequences_csv_rows_by_row(gene_ids, lambdas, sequences):
    """The data rows that `hedgetest ingest` writes, one f-string per row."""
    return "".join(f"{csv_field(gid)},{lam:.17g},"
                   + ",".join(f"{y:.17g}" for y in row) + "\n"
                   for gid, lam, row in zip(gene_ids, lambdas.tolist(),
                                            sequences.tolist()))
