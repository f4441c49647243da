"""Independent reference computations used to cross-check the library.

These deliberately avoid the code paths they validate: prices come from
exhaustive path enumeration or direct binomial expectations instead of
backward induction, portfolio marks from a fresh lattice at each node
instead of the node table kept since the trade, or rebuilt one position at
a time in a loop at every step instead of read on demand, a step settled by
the comprehensions step used before its one loop, wealth
recurrences (one-sided and the two-sided hedged process) are evaluated
step by step in plain Python, the first crossing of
1/alpha is found by a plain loop over one path instead of the batch rule,
put-floor strikes interval by interval in plain Python after a stable
sort, binomial weights in exact integers and lattice nodes as products of
Fractions instead of decimal bounds, a portfolio's worst case by walking
every path instead of the
backward min-sweep, the chance that a constant-fraction bet ever rejects
by an exact recursion over (t, up-count) instead of simulated episodes,
a Bernoulli outcome table by reading each row's raw 64-bit outputs as one
Python integer instead of unpacking bits in numpy,
the CSVs are written with one f-string per row,
gene ids quoted by the csv module, instead of as one byte table with one
format per distinct value, and a raw matrix is read by csv with one float()
per value and transformed in one whole-matrix pass instead of block by
block.  path_values
and crossing_times are no oracles: they are the batch engine's wealth rows
and the batch rule's crossing times, shared by the test files, and
conservative_lambda is the closed form the conservative configs' fixed
fraction 0.13393401692638518 was solved from.
"""

import csv
import io
import itertools
import math
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np

from hedgetest.harness import config_dict
from hedgetest.ingest import estimate_lambdas
from hedgetest.pricing import LatticeModel, lattice_price, normal_cdf
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


def nodes_by_fractions(up, down, n):
    """up**j * down**(n - j) for j = 0..n: each node the exact product of
    Fractions, rounded once by float(), and inf where that overflows."""
    nodes = []
    for j in range(n + 1):
        try:
            nodes.append(float(Fraction(up) ** j * Fraction(down) ** (n - j)))
        except OverflowError:
            nodes.append(math.inf)
    return nodes


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


def conservative_lambda(floor: float, horizon: int, worst_step: float) -> float:
    """Fixed fraction whose all-losses path ends exactly at the floor.

    Solves (1 + lam*worst_step)**horizon = floor, where worst_step is the
    most adverse centered outcome (-0.5 for Bernoulli and bounded families).
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor {floor} must be in (0, 1)")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if worst_step >= 0.0:
        raise ValueError(f"worst step must be negative, got {worst_step}")
    return (floor ** (1.0 / horizon) - 1.0) / worst_step


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


def exact_rejection(lam, null_p, alpha, horizon, p, p_post=None, change_at=None):
    """P(W_t >= 1/alpha for some t <= horizon) of an unhedged Bernoulli bet
    of constant fraction lam, with no Monte Carlo error.

    An absorbing recursion over (t, up-count j): after t outcomes with j
    ones the wealth is u**j * d**(t - j) in exact rationals, so alive[j],
    the chance of j ones with no crossing yet, steps forward one outcome at
    a time and gives up the mass of each node at or above 1/alpha (the
    float threshold of the decision rule).  Outcomes 1..change_at are
    Bernoulli(p), later ones Bernoulli(p_post).
    """
    lam, null_p = Fraction(lam), Fraction(null_p)
    u, d = 1 + lam * (1 - null_p), 1 - lam * null_p
    threshold = Fraction(1.0 / alpha)
    alive, crossed = [Fraction(1)], Fraction(0)
    for t in range(1, horizon + 1):
        q = Fraction(p if change_at is None or t <= change_at else p_post)
        alive = [(alive[j] * (1 - q) if j < t else 0) + (alive[j - 1] * q if j else 0)
                 for j in range(t + 1)]
        for j in range(t + 1):
            if u ** j * d ** (t - j) >= threshold:
                crossed += alive[j]
                alive[j] = Fraction(0)
    return float(crossed)


def bernoulli_by_words(rng, ps, rows):
    """rng.bernoulli's (rows, T) outcome table, one row and one step at a time.

    k is the largest base-2 exponent among the denominators of the exact
    fractions of the ps.  Up to 8, a row's ceil(k*T/64) raw outputs are one
    integer, output w at bit 64*w, and step t is 1 when bits k*t..k*t + k - 1
    of it, as an integer, fall below p_t * 2**k; above 8, step t is 1 when
    one random() falls below p_t.
    """
    fractions = [Fraction(p) for p in ps]
    k = max((f.denominator.bit_length() - 1 for f in fractions), default=0)
    table = []
    for _ in range(rows):
        if k > 8:
            table.append([1.0 if rng.random() < p else 0.0 for p in ps])
            continue
        bits = 0
        for w, word in enumerate(rng.bit_generator.random_raw(-(-k * len(ps) // 64))):
            bits |= int(word) << (64 * w)
        table.append([1.0 if (bits >> (k * t)) % 2**k < f * 2**k else 0.0
                      for t, f in enumerate(fractions)])
    return np.array(table, dtype=float).reshape(rows, len(ps))


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

    Each position's mark is looked up afresh in its node table, in a plain
    loop; a position whose expiry the step reaches is paid into the cash at
    that mark and dropped, the payments summed after the cash in position
    order.  The new portfolio is built by keyword, with the earliest expiry
    left as its due.  Returns the new portfolio, the marks of the positions
    it keeps and its total value, summed as cash + shares + each quantity *
    mark in position order.
    """
    if outcome not in (0.0, 1.0):
        raise ValueError(f"lattice outcome must be 0 or 1, got {outcome}")
    up = int(outcome == 1.0)
    factor = portfolio.lattice.up_factor if up else portfolio.lattice.down_factor
    t, ups = portfolio.time + 1, portfolio.ups + up
    free, kept, marks = portfolio.risk_free, [], []
    for pos in portfolio.positions:
        mark = pos.nodes[t - pos.opened][ups - pos.opened_ups]
        if pos.contract.expiry == t:
            free += pos.quantity * mark
        else:
            kept.append(pos)
            marks.append(mark)
    moved = portfolio._replace(risk_free=free,
                               risky_value=portfolio.risky_value * factor,
                               positions=tuple(kept),
                               underlying=portfolio.underlying * factor, time=t, ups=ups,
                               due=min([pos.contract.expiry for pos in kept], default=None))
    return moved, marks, total_by_loop(moved, marks)


def step_by_comprehensions(portfolio, outcome):
    """One lattice step by the expressions step and total_value were, before
    settlement became one loop over the positions.

    The payments of the contracts the step reaches the expiry of are added
    onto the cash left to right, the positions kept by tuple([...]), the
    next due by min(..., default=None), and the total value is
    total_by_loop over a tuple of the marks.  Returns the new portfolio and
    its total value.
    """
    up = outcome == 1.0
    factor = portfolio.lattice.up_factor if up else portfolio.lattice.down_factor
    t, ups = portfolio.time + 1, portfolio.ups + int(up)
    free, positions, due = portfolio.risk_free, portfolio.positions, portfolio.due
    if t == due:
        for pos in positions:
            if pos.contract.expiry == t:
                free += pos.quantity * pos.value_at(t, ups)
        positions = tuple([pos for pos in positions if pos.contract.expiry != t])
        due = min((pos.contract.expiry for pos in positions), default=None)
    moved = portfolio._replace(risk_free=free, risky_value=portfolio.risky_value * factor,
                               positions=positions, underlying=portfolio.underlying * factor,
                               time=t, ups=ups, due=due)
    marks = tuple([pos.value_at(t, ups) for pos in positions])
    return moved, total_by_loop(moved, marks)


def total_by_loop(portfolio, marks):
    """cash + shares + the sum of each quantity * mark, that sum added left
    to right from 0.0 in a plain loop: what the builtin sum did up to Python
    3.11 (from 3.12 it compensates float sums, and portfolio.step does not)."""
    held = 0.0
    for pos, mark in zip(portfolio.positions, marks):
        held += pos.quantity * mark
    return portfolio.risk_free + portfolio.risky_value + held


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
    """Minimum total value over all 2**h up/down paths to the last expiry.

    Each path is walked in plain Python: cash, plus each contract's payoff
    at the underlying on its own expiry, paid into the cash as the path
    reaches it, plus the risky leg at the path's end.  With no contract h
    is one step.
    """
    u, d = portfolio.lattice.up_factor, portfolio.lattice.down_factor
    t = portfolio.time
    held = [(pos.contract, pos.quantity) for pos in portfolio.positions]
    h = max([contract.expiry - t for contract, _ in held], default=1)
    worst = math.inf
    for path in itertools.product((u, d), repeat=h):
        total, k = portfolio.risk_free, 1.0
        for s, factor in enumerate(path, 1):
            k *= factor
            paid = 0.0
            for contract, quantity in held:
                if contract.expiry - t == s:
                    paid += quantity * contract.payoff(portfolio.underlying * k)
            total += paid
        worst = min(worst, total + portfolio.risky_value * k)
    return worst


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
    columns = zip(gene_ids, result.lambdas.tolist(),
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


def csv_float_reference(path):
    """The loader as a csv.reader loop with one float() per value: the
    (ids, values, groups) the numpy parse must reproduce bit for bit."""
    with open(path, newline="") as fh:
        first = fh.readline()
        delimiter = "\t" if first.count("\t") >= first.count(",") else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        groups = tuple(h.strip() for h in next(reader)[1:])
        ids, rows = [], []
        for row in reader:
            if row:
                ids.append(row[0].strip())
                rows.append([float(v) for v in row[1:]])
    return tuple(ids), np.asarray(rows, dtype=float), groups


def screening_input_by_whole_matrix(path, log_transform=True):
    """(gene ids, fractions, test sequences, skipped ids) of a raw matrix
    file as one whole-matrix pass: every value read by csv_float_reference,
    then the log, the normal-group mean and sd, the skip, the
    standardization and the normal CDF each over the full matrix at once.
    The first two tumor columns are held out."""
    ids, values, groups = csv_float_reference(path)
    groups = np.array(groups)
    v = np.log(values) if log_transform else values
    normal_values = v[:, groups == "normal"]
    mu, sd = normal_values.mean(axis=1), normal_values.std(axis=1, ddof=1)
    keep = (normal_values.max(axis=1) > normal_values.min(axis=1)) & (sd > 0.0)
    uniform = normal_cdf((v[keep] - mu[keep, None]) / sd[keep, None])
    held = np.flatnonzero(groups == "tumor")[:2]
    test = [c for c in range(len(groups)) if c not in held]
    return (tuple(itertools.compress(ids, keep)), estimate_lambdas(uniform[:, held]),
            uniform[:, test], tuple(itertools.compress(ids, ~keep)))
