"""Property tests of the exact put-floor strike solve and the row streams.

Random lattices (betting fraction, null parameter, floor, horizon) and
random discrete measures are checked against the oracles: every returned
root zeroes the floor residual, no sign change of the residual on a dense
grid goes without a root, and with expiry at the horizon the worst hedged
final wealth over all enumerated paths is the floor itself.  The roots do
not depend on the order of the (atom, weight) pairs, ties included, and
without ties, or with every weight equal, they are the bits of the
stable-sort oracle, and the lattice's binomial weights are its exact
weights, each rounded once.  Any chunk of
the simulated outcome table is the same bits as the slice of the whole, and
as the oracle's reading of the stream jumped ahead by the rows before it,
and a stream jumped ahead by k draws is the slice of the whole stream.  The
full-budget strike, S/(1 + C(S)) = floor, is the one root a bisection
finds, and the residual has no other sign change; floor_put's strike, under either
budget on random binomial measures, holds the floor in floating point and
is the least that does to within rounding of stake*S, with the premium and
stake of its rule; no law of mean 1/2 on a few points of [0, 1] prices the
screen's put above the two-point law.  The wealth engine run on a batch is,
row for row, the same bits as each row run alone and the step-by-step
recurrence of the oracle; off the fair coin, null_paths' process under a
constant fraction is the bits of evolve's last step and the recurrence of
the oracle; and the batch Ville rule finds each row's first
crossing of 1/alpha where a plain loop over the row does.  Lattice marks are
null martingales, and each node is the price of a fresh lattice started
there; a portfolio's lookup marks along a random path agree with a fresh
lattice priced at every step, each contract is paid into cash at its
payoff node on the step that reaches its expiry, and a step's marks, cash
and total are the bits of the oracle that re-marks every position in a
loop.  The worst-case sweep that vets trades is the minimum over every
enumerated path of a stepped portfolio, some of its contracts paid, and no
walk of the trades it admits (moves within trade_limits, calls and puts
bought or written at their lattice value) takes the total value below 0,
before or after an expiry.  A config
written out from its resolved view and read back resolves to the same view.
"""

import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st

from hedgetest.harness import (ExperimentConfig, TruthSpec, _chunk_outcomes,
                               config_dict, config_from_dict, load_config,
                               parse_config_text, two_point_terminals)
from hedgetest.portfolio import (BankruptcyRiskError, DerivativePosition,
                                 Portfolio, _node_table, _worst_case_terminal,
                                 buy_contract, issue_contract, move_to_risky, step,
                                 trade_limits)
from hedgetest.pricing import (Contract, LatticeModel, StrikeSolveError,
                               binomial_weights, floor_put, full_budget_strike,
                               lattice_node_values, lattice_price,
                               put_floor_strikes, up_count_nodes)
from hedgetest.rng import row_words, stream
from hedgetest.strategies import StrategyKind, StrategySpec, build_strategy
from hedgetest.wealth import (Family, HypothesisSpec, evolve, hedged_cs, null_paths,
                              ville_crossing)

from oracles import (bernoulli_by_words, binomial_weight_price,
                     binomial_weights_by_integers, constant_bet_finals, enumerate_paths_min,
                     first_crossing_by_hand, floor_strikes_by_interval, fresh_mark,
                     nodes_by_fractions, step_by_remark, wealth_by_hand, worst_case_by_paths)

CONFIGS = Path(__file__).parent.parent / "configs"


@st.composite
def lattices(draw):
    null_p = draw(st.floats(0.1, 0.9))
    lam = draw(st.floats(0.05, min(2.0, 0.95 / null_p)))
    floor = draw(st.floats(0.01, 0.99))
    horizon = draw(st.integers(1, 12))
    return LatticeModel.for_bernoulli_bet(lam, null_p), floor, horizon


@st.composite
def measures(draw):
    n = draw(st.integers(1, 30))
    atoms = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    mass = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    floor = draw(st.floats(0.01, 0.99))
    return atoms, mass / mass.sum(), floor


def lattice_roots(model, floor, horizon):
    return put_floor_strikes(model.terminal_values(horizon),
                             binomial_weights(horizon, model.risk_neutral_prob), floor)


def lattice_put(model, horizon, strike):
    return binomial_weight_price(model.up_factor, model.down_factor,
                                 model.risk_neutral_prob, horizon,
                                 lambda k: max(strike - k, 0.0))


def lattice_residual(model, floor, horizon, strike):
    return (1.0 - lattice_put(model, horizon, strike)) * strike - floor


def assert_sign_changes_bracketed(grid, values, roots):
    for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) <= 0):
        assert any(grid[i] <= r <= grid[i + 1] for r in roots), \
            f"residual changes sign in [{grid[i]}, {grid[i + 1]}] without a root"


@given(lattices())
def test_lattice_roots_zero_the_residual(case):
    model, floor, horizon = case
    for root in lattice_roots(model, floor, horizon):
        assert abs(lattice_residual(model, floor, horizon, root)) <= 1e-12


@given(lattices())
def test_lattice_roots_ascend_and_none_is_missed(case):
    model, floor, horizon = case
    roots = lattice_roots(model, floor, horizon)
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert all(0.0 < r <= 2.0 for r in roots)     # (1 - C(S)) S < floor past 1 + spot
    grid = np.linspace(0.0, 2.0, 2001)
    values = np.array([lattice_residual(model, floor, horizon, s) for s in grid])
    assert_sign_changes_bracketed(grid, values, roots)


@given(lattices())
def test_hedged_worst_case_is_the_floor(case):
    model, floor, horizon = case
    u, d = model.up_factor, model.down_factor
    for strike in lattice_roots(model, floor, horizon):
        stake = 1.0 - lattice_put(model, horizon, strike)
        worst = enumerate_paths_min(u, d, horizon, lambda k: stake * max(k, strike))
        if strike >= d ** horizon:
            assert abs(worst - floor) <= 1e-12
        else:                       # strike below every terminal value: C = 0
            assert worst >= floor


@given(measures())
def test_discrete_measure_roots(case):
    atoms, weights, floor = case

    def residual(s):
        return (1.0 - float(weights @ np.maximum(s - atoms, 0.0))) * s - floor

    roots = put_floor_strikes(atoms, weights, floor)
    assert all(a < b for a, b in zip(roots, roots[1:]))
    for root in roots:
        assert abs(residual(root)) <= 1e-12
    grid = np.linspace(0.0, 1.0 + atoms.max(), 2001)
    assert_sign_changes_bracketed(grid, np.array([residual(s) for s in grid]), roots)


@st.composite
def tied_measures(draw):
    n = draw(st.integers(1, 30))
    atom = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(0.0, 3.0)
    atoms = draw(st.lists(atom, min_size=n, max_size=n))
    mass = draw(st.lists(st.sampled_from([0.1, 0.5]) | st.floats(0.01, 1.0),
                         min_size=n, max_size=n))
    atoms.append(atoms[0])          # at least one tie
    mass.append(draw(st.sampled_from([mass[0], 0.3])))
    weights = np.array(mass) / sum(mass)
    order = np.array(draw(st.permutations(range(n + 1))))
    return np.array(atoms), weights, order, draw(st.floats(0.01, 0.99))


@given(tied_measures())
def test_floor_strikes_do_not_depend_on_the_order_of_the_pairs(case):
    atoms, weights, order, floor = case
    assert put_floor_strikes(atoms[order], weights[order], floor) \
        == put_floor_strikes(atoms, weights, floor)


@st.composite
def equal_weight_samples(draw):
    """The atoms of an empirical measure, each of weight 1/n, some tied."""
    n = draw(st.integers(1, 30))
    atom = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(0.0, 3.0)
    atoms = draw(st.lists(atom, min_size=n, max_size=n))
    atoms += atoms[:draw(st.integers(1, n))]        # at least one tie
    order = draw(st.permutations(range(len(atoms))))
    return np.array(atoms)[order], draw(st.floats(0.01, 0.99))


@given(equal_weight_samples())
def test_equal_weight_floor_strikes_are_the_stable_sort_reference(case):
    atoms, floor = case
    weights = np.full(atoms.size, 1.0 / atoms.size)
    assert put_floor_strikes(atoms, weights, floor) \
        == floor_strikes_by_interval(atoms, weights, floor)


@given(measures())
def test_tie_free_floor_strikes_are_the_stable_sort_reference(case):
    atoms, weights, floor = case
    atoms = np.unique(atoms)
    weights = weights[:atoms.size]
    assert put_floor_strikes(atoms[::-1], weights[::-1], floor) \
        == floor_strikes_by_interval(atoms[::-1], weights[::-1], floor)


@given(st.integers(1, 300), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(300, 5e-324)
@example(300, 1.0 - 2.0 ** -53)
@example(60, 0.5)
def test_binomial_weights_are_the_exact_weights_rounded_once(n, q):
    assert binomial_weights(n, q).tolist() == binomial_weights_by_integers(n, q)


@given(st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e10), st.sampled_from([0.0, 1.0])),
       st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e-10), st.sampled_from([0.0, 1.0])),
       st.integers(0, 200))
@example(1e10, 1.0, 40)             # 1e400: past the double range, inf
@example(1e-10, 1.0, 40)            # 1e-400: under the least subnormal, 0
@example(1e-5, 1e-5, 62)            # 1e-310: a subnormal
@example(2.0, 0.0, 70)              # a bet of 2 at p = 1/2: every node but all-ups is 0
@example(0.0, 2.0, 70)              # a bet of -2: every node but all-downs is 0
@example(2.0, 0.0, 1032)            # the all-up node overflows, its neighbour is 0
@example(1.5, 0.5, 100)             # 3**34/2**100 is a midpoint: the bounds round apart
# (2**54 - 1)*2**970, the midpoint of the largest double and 2**1024: the bounds
# round apart, and the exact node is inf
@example(134217727 * 2.0 ** 485, 134217729 * 2.0 ** 485, 2)
@example(1.0, 1.0, 50)
@example(1.7, 0.3, 0)
def test_up_count_nodes_are_the_exact_nodes_rounded_once(up, down, n):
    assert [x.hex() for x in up_count_nodes(up, down, n).tolist()] \
        == [x.hex() for x in nodes_by_fractions(up, down, n)]


def full_budget_residual(atoms, weights, floor, s):
    return s - floor * (1.0 + float(weights @ np.maximum(s - atoms, 0.0)))


def bisect_full_budget(atoms, weights, floor):
    """The least double at or above the root of S - floor*(1 + C(S)), by
    bisection on [0, floor/(1 - floor)] with the residual's sign taken in
    exact rationals of the inputs."""
    pairs = [(Fraction(x), Fraction(w)) for x, w in zip(atoms.tolist(), weights.tolist())]
    f = Fraction(floor)

    def negative(s):
        s = Fraction(s)
        return s - f * (1 + sum(w * (s - x) for x, w in pairs if x < s)) < 0

    lo, hi = 0.0, floor / (1.0 - floor) * 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if negative(mid) else (lo, mid)
    return hi


@st.composite
def full_budget_measures(draw):
    """A lattice's binomial measure, or a random discrete one, and a floor."""
    floor = draw(st.floats(0.01, 0.99))
    if draw(st.booleans()):
        model, _, horizon = draw(lattices())
        return (model.terminal_values(horizon),
                binomial_weights(horizon, model.risk_neutral_prob), floor)
    atoms, weights, _ = draw(measures())
    return atoms, weights, floor


@given(full_budget_measures())
@example((np.array([0.5]), np.array([1.0]), 0.5))
@example((np.array([0.0, 1.0, 1.0]), np.array([0.5, 0.25, 0.25]), 0.99))
def test_full_budget_root_is_the_bisection_and_the_only_root(case):
    atoms, weights, floor = case
    root = full_budget_strike(atoms, weights, floor)
    assert 0.0 < root <= floor / (1.0 - floor) * (1.0 + 1e-12)
    assert root == pytest.approx(bisect_full_budget(atoms, weights, floor),
                                 rel=1e-12, abs=1e-15)
    premium = float(weights @ np.maximum(root - atoms, 0.0))
    assert abs(root / (1.0 + premium) - floor) <= 1e-12
    # the residual has slope >= 1 - floor: negative below the root, positive above
    grid = np.linspace(0.0, 2.0 * floor / (1.0 - floor), 401)
    values = np.array([full_budget_residual(atoms, weights, floor, s) for s in grid])
    gap = 1e-9 * (1.0 + root)
    assert np.all(values[grid < root - gap] < 0.0)
    assert np.all(values[grid > root + gap] > 0.0)


@st.composite
def binomial_measures(draw):
    """A lattice's binomial measure 1 to 40 steps out, from its null q and
    either its down factor or a betting fraction, and a floor."""
    q = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        d = draw(st.floats(0.05, 0.95))
        model = LatticeModel(d + (1.0 - d) / q, d)
    else:
        model = LatticeModel.for_bernoulli_bet(draw(st.floats(0.05, min(2.0, 0.95 / q))), q)
    horizon = draw(st.integers(1, 40))
    return (model.terminal_values(horizon),
            binomial_weights(horizon, model.risk_neutral_prob), draw(st.floats(0.01, 0.99)))


KELLY_20 = (LatticeModel(1.5, 0.5).terminal_values(20), binomial_weights(20, 0.5))


@given(binomial_measures(), st.sampled_from(["paper", "full"]))
@example((*KELLY_20, 0.25), "paper")
@example((*KELLY_20, 0.3494854227), "paper")           # the close pair of roots
@example((*KELLY_20, 0.3494854227), "full")
def test_floor_put_is_the_least_strike_holding_the_floor(case, budget):
    atoms, weights, floor = case

    def rule(strike):
        premium = float(weights @ np.maximum(strike - atoms, 0.0))
        return premium, (1.0 - premium if budget == "paper" else 1.0 / (1.0 + premium))

    if budget == "paper":
        roots = put_floor_strikes(atoms, weights, floor)
        if not roots:
            with pytest.raises(StrikeSolveError):
                floor_put(atoms, weights, floor, budget)
            return
        root = roots[0]
    else:
        root = full_budget_strike(atoms, weights, floor)
    strike, premium, stake = floor_put(atoms, weights, floor, budget)
    assert (premium, stake) == rule(strike)
    assert stake * strike >= floor
    assert root <= strike
    if budget == "paper":
        assert strike <= roots[-1]
    # a Newton step lands within rounding of the least strike holding the floor:
    # one ulp lower, stake*S is under the floor or above it by rounding alone.
    # Where d(stake*S)/dS is small the closed-form root is itself many ulps
    # off, so the bound is on stake*S, not on the ulps above the root.
    if strike > root:
        lower = math.nextafter(strike, 0.0)
        assert rule(lower)[1] * lower < floor + 4.0 * math.ulp(floor)


@st.composite
def mean_half_laws(draw):
    """A law of mean 1/2 on at most 4 points of [0, 1]: a mix of one or two
    two-point laws, each on a <= 1/2 <= b with mass (1/2 - a)/(b - a) on b."""
    points, probs = [], []
    pairs = draw(st.integers(1, 2))
    mix = draw(st.floats(0.05, 0.95)) if pairs == 2 else 1.0
    for share in (mix, 1.0 - mix)[:pairs]:
        a, b = draw(st.floats(0.0, 0.5)), draw(st.floats(0.5, 1.0))
        up = 0.5 if a == b else (0.5 - a) / (b - a)
        points += [a, b]
        probs += [share * (1.0 - up), share * up]
    return np.array(points), np.array(probs)


@given(mean_half_laws(), st.floats(0.0, 2.0), st.integers(1, 5), st.floats(0.0, 3.0))
@example((np.array([0.5, 0.5]), np.array([0.5, 0.5])), 1.0, 4, 1.0)
@example((np.array([0.0, 1.0]), np.array([0.5, 0.5])), 2.0, 5, 0.5)
def test_no_mean_half_law_prices_the_put_above_the_two_point_law(law, lam, tau, strike):
    # every path of the law, exactly: its k**tau rows and their probabilities
    points, probs = law
    index = np.indices((points.size,) * tau).reshape(tau, -1).T
    weight = np.prod(probs[index], axis=1)
    for k in hedged_cs(points[index], lam):
        pass
    price = float(weight @ np.maximum(strike - k, 0.0))
    atoms = two_point_terminals(lam, tau, math.inf)
    dearest = float(binomial_weights(tau, 0.5) @ np.maximum(strike - atoms, 0.0))
    assert price <= dearest + 1e-12


@st.composite
def row_chunks(draw):
    n = draw(st.integers(1, 60))
    a = draw(st.integers(0, n - 1))
    b = draw(st.integers(a + 1, n))
    cfg = ExperimentConfig(HypothesisSpec.bernoulli(0.5, 0.75),
                           TruthSpec(draw(st.floats(0.0, 1.0))),
                           StrategySpec(StrategyKind.KELLY),
                           horizon=draw(st.integers(1, 40)), replications=n,
                           seed=draw(st.integers(0, 2**32 - 1)))
    return cfg, a, b


@given(row_chunks())
def test_row_chunk_equals_slice_of_the_table(case):
    cfg, a, b = case
    table = _chunk_outcomes(cfg, 0, cfg.replications)
    chunk = _chunk_outcomes(cfg, a, b)
    assert table.shape == (cfg.replications, cfg.horizon)
    assert np.array_equal(chunk, table[a:b])


@st.composite
def outcome_chunks(draw):
    n = draw(st.integers(1, 60))
    a = draw(st.integers(0, n - 1))
    b = draw(st.integers(a + 1, n))
    horizon = draw(st.integers(1, 40))
    change_at = draw(st.none() | st.integers(0, horizon))
    truth = TruthSpec(draw(st.floats(0.0, 1.0)),
                      None if change_at is None else draw(st.floats(0.0, 1.0)), change_at)
    cfg = ExperimentConfig(HypothesisSpec.bernoulli(0.5, 0.75), truth,
                           StrategySpec(StrategyKind.KELLY), horizon=horizon,
                           replications=n, seed=draw(st.integers(0, 2**32 - 1)))
    return cfg, a, b


@given(outcome_chunks())
def test_outcomes_are_the_oracle_reading_of_the_stream(case):
    # rows a..b - 1 of the (seed, 3) table, read from the stream jumped
    # ahead by a rows of row_words outputs each
    cfg, a, b = case
    ps = cfg.truth.step_probabilities(cfg.horizon)
    expected = bernoulli_by_words(stream(cfg.seed, 3, skip=a * row_words(ps)), ps, b - a)
    outcomes = _chunk_outcomes(cfg, a, b)
    assert outcomes.dtype == np.float64 and outcomes.shape == expected.shape
    assert outcomes.tobytes() == expected.tobytes()


@st.composite
def stream_skips(draw):
    return (draw(st.integers(0, 2**32 - 1)),
            tuple(draw(st.lists(st.integers(0, 2**32 - 1), max_size=4))),
            draw(st.integers(0, 5000)), draw(st.integers(0, 300)))


@given(stream_skips())
def test_skipped_stream_is_the_slice_of_the_stream(case):
    seed, tags, k, m = case
    whole = np.random.default_rng([seed, *tags]).random(k + m)
    assert stream(seed, *tags).random(k + m).tobytes() == whole.tobytes()
    assert stream(seed, *tags, skip=0).random(k + m).tobytes() == whole.tobytes()
    assert stream(seed, *tags, skip=k).random(m).tobytes() == whole[k:].tobytes()


@st.composite
def wealth_batches(draw):
    family = draw(st.sampled_from(["bernoulli", "bounded", "log_normal"]))
    m, horizon = draw(st.integers(1, 8)), draw(st.integers(1, 30))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    if family == "bernoulli":
        hyp = HypothesisSpec.bernoulli(draw(st.sampled_from([0.5, 0.2, 0.7])))
        ys = (rng.random((m, horizon)) < draw(st.floats(0.0, 1.0))).astype(float)
    elif family == "bounded":
        hyp = HypothesisSpec.bounded(draw(st.sampled_from([0.5, 0.3])))
        ys = rng.random((m, horizon))
        ys[rng.random((m, horizon)) < 0.2] = draw(st.sampled_from([0.0, 1.0]))
    else:
        hyp = HypothesisSpec.log_normal()
        ys = np.exp(rng.standard_normal((m, horizon)))
    lo, hi = hyp.lambda_bounds()
    fraction = st.one_of(st.sampled_from([lo, hi, 0.0]), st.floats(lo, hi))
    kind = draw(st.sampled_from(["constant", "per_row", "dynamic"]
                                if hyp.null_mean == 0.5 and family != "log_normal"
                                else ["constant", "per_row"]))
    if kind == "constant":
        lam = draw(fraction)
        return hyp, ys, lambda k, t: lam, [lambda k, t: lam] * m
    if kind == "per_row":
        lams = np.array([draw(fraction) for _ in range(m)])
        return hyp, ys, lambda k, t: lams, [lambda k, t, i=i: lams[i:i + 1]
                                            for i in range(m)]
    spec = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=draw(st.floats(0.01, 0.99)))
    strategy = build_strategy(spec, hyp, horizon)
    return hyp, ys, strategy, [strategy] * m


@given(wealth_batches())
def test_batch_equals_each_row_alone_and_the_oracle(case):
    hyp, ys, strategy, alone = case
    batch = np.array([k for k, _ in evolve(strategy, ys, hyp)])
    for i, row_strategy in enumerate(alone):
        steps = list(evolve(row_strategy, ys[i:i + 1], hyp))     # a batch of one
        values = [1.0] + [float(k[0]) for k, _ in steps]
        assert values[1:] == batch[:, i].tolist()     # bit for bit
        by_hand = wealth_by_hand([lam for _, lam in steps], ys[i], hyp.null_mean)
        for value, expected in zip(values, by_hand):
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


@st.composite
def constant_bets(draw):
    family = draw(st.sampled_from(["bernoulli", "bounded", "log_normal"]))
    m, horizon = draw(st.integers(1, 8)), draw(st.integers(0, 40))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    if family == "bernoulli":
        hyp = HypothesisSpec.bernoulli(draw(st.floats(0.01, 0.99)))
        ys = (rng.random((m, horizon)) < draw(st.floats(0.0, 1.0))).astype(float)
    elif family == "bounded":
        hyp = HypothesisSpec.bounded(draw(st.floats(0.01, 0.99)))
        ys = rng.random((m, horizon))
        ys[rng.random((m, horizon)) < 0.2] = draw(st.sampled_from([0.0, 1.0]))
    else:
        hyp = HypothesisSpec.log_normal()
        ys = np.exp(draw(st.floats(0.5, 40.0)) * rng.standard_normal((m, horizon)))
    lo, hi = hyp.lambda_bounds()
    return hyp, ys, draw(st.one_of(st.sampled_from([lo, hi, 0.0]), st.floats(lo, hi)))


@given(constant_bets())
@example((HypothesisSpec.bounded(), np.empty((3, 0)), 2.0))
@example((HypothesisSpec.bernoulli(0.3), np.array([[0.0, 1.0], [1.0, 1.0]]), 1 / 0.3))
@example((HypothesisSpec.log_normal(),
          np.array([[1e300, 1e300, 1e-300], [1e300, 1e300, 1.0]]), np.exp(-0.5)))
def test_null_paths_process_is_the_clamped_recurrence(case):
    # evolve's last step under a constant fraction is the recurrence of the
    # oracle, each factor clamped at 0: ruined rows, T = 0 (every row 1) and
    # wide log-normal draws that overflow (inf * 0 is 0, not NaN) included.
    # null_paths' process is those bits wherever the null has a sampler and
    # packs no words (every null but the fair coin and bounded means off 1/2)
    hyp, ys, lam = case
    finals = constant_bet_finals(lam, ys, hyp)
    fair = hyp.family is Family.BERNOULLI and hyp.null_param == 0.5
    unsampled = hyp.family is Family.BOUNDED_MEAN and hyp.null_param != 0.5
    if not (fair or unsampled):
        assert null_paths(lam, hyp, ys.shape[1])[1](ys).tobytes() == finals.tobytes()
    for row, final in zip(ys, finals):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = wealth_by_hand([lam] * len(row), row, hyp.null_mean)[-1]
        expected = 0.0 if math.isnan(expected) else max(expected, 0.0)
        assert final == expected or abs(final - expected) <= 1e-12 * max(1.0, expected)


@st.composite
def ville_rows(draw):
    """alpha in (0, 1) and rows W_0..W_T, T in 1..30, W_0 below 1/alpha.
    Some rows never reach 1/alpha (some only fall from W_0), the others
    may land on it exactly."""
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    threshold = 1.0 / alpha
    top = float(np.nextafter(threshold, 0.0))
    below = st.one_of(st.just(top), st.floats(0.0, top))
    kinds = {"falls": (st.just(top), st.floats(0.0, float(np.nextafter(top, 0.0)))),
             "never": (below, below),
             "any": (below, st.one_of(below, st.just(threshold),
                                      st.floats(min_value=threshold, allow_nan=False)))}
    horizon, m = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    values = []
    for _ in range(m):
        start, later = kinds[draw(st.sampled_from(sorted(kinds)))]
        values.append([draw(start)] + draw(st.lists(later, min_size=horizon,
                                                    max_size=horizon)))
    return alpha, np.array(values)


@given(ville_rows())
def test_batch_ville_rule_is_the_plain_loop_row_by_row(case):
    alpha, values = case
    final, maxw, crossing = ville_crossing(values[:, 0], values[:, 1:].T, alpha)
    for i, row in enumerate(values.tolist()):
        assert crossing[i] == first_crossing_by_hand(row, alpha)
        assert (final[i], maxw[i]) == (row[-1], max(row))


@st.composite
def marked_contracts(draw):
    u, d = draw(st.floats(1.01, 3.0)), draw(st.floats(0.05, 0.99))
    expiry = draw(st.integers(1, 12))
    make = draw(st.sampled_from([Contract.put, Contract.call]))
    return (LatticeModel(u, d), make(draw(st.floats(0.0, 3.0)), expiry),
            draw(st.floats(0.25, 4.0)))


@given(marked_contracts())
def test_lattice_marks_are_null_martingales(case):
    model, contract, spot = case
    q = model.risk_neutral_prob
    levels = lattice_node_values(model, contract, spot)
    assert [len(level) for level in levels] == list(range(1, contract.expiry + 2))
    assert np.array_equal(levels[-1],
                          contract.payoff(model.terminal_values(contract.expiry, spot)))
    for t in range(contract.expiry):
        for j, mark in enumerate(levels[t].tolist()):
            up, down = levels[t + 1][j + 1], levels[t + 1][j]
            assert mark == q * up + (1.0 - q) * down


@given(marked_contracts())
def test_each_node_is_a_fresh_lattice_price(case):
    model, contract, spot = case
    levels = lattice_node_values(model, contract, spot)
    u, d = model.up_factor, model.down_factor
    for t in range(contract.expiry):
        remaining = contract.expiry - t
        rebased = replace(contract, expiry=remaining)
        for j, mark in enumerate(levels[t].tolist()):
            node_spot = spot * u ** j * d ** (t - j)
            fresh = lattice_price(LatticeModel(u, d), rebased,
                                  spot=node_spot).value
            assert abs(fresh - mark) <= 1e-12 * max(1.0, abs(mark))


@st.composite
def portfolio_walks(draw):
    u, d = draw(st.floats(1.01, 3.0)), draw(st.floats(0.05, 0.99))
    expiries = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True))
    trades = {}
    for expiry in expiries:
        make = draw(st.sampled_from([Contract.put, Contract.call]))
        trades.setdefault(draw(st.integers(0, expiry - 1)), []).append(
            make(draw(st.floats(0.0, 3.0)), expiry))
    path = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=max(expiries),
                         max_size=max(expiries) + 2))
    return u, d, trades, path


@given(portfolio_walks())
def test_lookup_marks_equal_a_fresh_lattice_at_every_step(case):
    u, d, trades, path = case
    p, opened = Portfolio.initial(u, d), {}
    for t, y in enumerate([None] + path):
        if y is not None:
            before, p = p, step(p, y)
            kept = set(map(id, p.positions))
            payments = []
            for pos in before.positions:
                if id(pos) in kept:
                    continue
                # paid at its expiry, at the node as the lattice computes it:
                # numpy's vectorized power may differ from Python's u ** j in
                # the last bit
                spot, time, ups = opened[id(pos)][1:]
                assert p.time == pos.contract.expiry
                node = LatticeModel(u, d).terminal_values(p.time - time, spot)[p.ups - ups]
                payments.append(pos.quantity * pos.contract.payoff(float(node)))
            assert p.risk_free == sum(payments, before.risk_free)
        for contract in trades.get(t, []):
            # at most 1/3 of the unit cash per contract, so no trade is vetoed
            quantity = 1.0 / (3.0 * max(1.0, p.underlying, contract.strike))
            p = buy_contract(p, contract, quantity)
            opened[id(p.positions[-1])] = (p.positions[-1], p.underlying, p.time, p.ups)
        for pos, mark in zip(p.positions, p.marks):
            assert p.time < pos.contract.expiry
            fresh = fresh_mark(u, d, pos.contract, p.underlying, p.time)
            assert abs(mark - fresh) <= max(1e-12 * abs(fresh), 1e-15)


@st.composite
def trade_walks(draw):
    u, d = draw(st.floats(1.01, 3.0)), draw(st.floats(0.05, 0.99))
    outcome = st.sampled_from([0.0, 1.0, np.float64(0.0), np.float64(1.0)])
    path = draw(st.lists(outcome, min_size=1, max_size=12))
    trades = {}
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.integers(0, len(path) - 1))
        make = draw(st.sampled_from([Contract.put, Contract.call]))
        contract = make(draw(st.floats(0.0, 3.0)), draw(st.integers(t + 1, len(path))))
        trades.setdefault(t, []).append((contract, draw(st.booleans())))
    return u, d, draw(st.floats(0.0, 1.0)), trades, path


@given(trade_walks())
def test_step_equals_remarking_every_position_bit_for_bit(case):
    u, d, risky, trades, path = case
    p = move_to_risky(Portfolio.initial(u, d), risky)
    for t, y in enumerate(path):
        for contract, issued in trades.get(t, []):
            quantity = 1.0 / (4.0 * max(1.0, p.underlying, contract.strike))
            try:
                p = (issue_contract if issued else buy_contract)(p, contract, quantity)
            except BankruptcyRiskError:
                pass
        expected, marks, total = step_by_remark(p, y)
        try:
            p = step(p, y)
        except BankruptcyRiskError:     # a book holding no contract must rebalance
            assert not p.positions and worst_case_by_paths(p) < 0.0
            return
        assert p.total_value.hex() == total.hex()
        assert p.risk_free.hex() == expected.risk_free.hex()
        assert [m.hex() for m in p.marks] == [m.hex() for m in marks]
        assert list(map(id, p.positions)) == list(map(id, expected.positions))
        assert (p.time, p.ups, p.due) == (expected.time, expected.ups, expected.due)


def held(p, contract, quantity):
    """p holding `quantity` more of `contract` at its lattice value, unvetted."""
    nodes = _node_table(p, contract)
    position = DerivativePosition(contract, quantity, nodes, p.time, p.ups)
    due = contract.expiry if p.due is None else min(p.due, contract.expiry)
    return p._replace(risk_free=p.risk_free - quantity * nodes[0][0],
                      positions=p.positions + (position,), due=due)


@st.composite
def swept_portfolios(draw):
    """A portfolio stepped a few times, some of its contracts paid into cash
    at their expiry, then traded again: bought and issued calls and puts
    due at most 8 steps out, and a risky leg of either sign.  No trade is
    vetted, so the worst case may be negative; a draw whose step is refused,
    an emptied book in debt, is rejected."""
    p = Portfolio.initial(draw(st.floats(1.01, 3.0)), draw(st.floats(0.05, 0.99)))
    path = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=3))
    for wave in (path, []):
        for _ in range(draw(st.integers(0, 3))):
            make = draw(st.sampled_from([Contract.put, Contract.call]))
            if p.time < len(path) and draw(st.booleans()):     # expired by the sweep
                expiry = draw(st.integers(1, len(path)))
            else:                                              # due within 8 steps of it
                expiry = len(path) + draw(st.integers(1, 8))
            quantity = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
            p = held(p, make(draw(st.floats(0.0, 3.0)), expiry), quantity)
        for y in wave:
            try:
                p = step(p, y)
            except BankruptcyRiskError:
                reject()
    risky = draw(st.floats(0.0, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    return p._replace(risk_free=p.risk_free - risky, risky_value=p.risky_value + risky)


@given(swept_portfolios())
@example(Portfolio.initial(1.5, 0.5)._replace(risk_free=2.0, risky_value=-1.0))
def test_worst_case_sweep_is_the_minimum_over_every_path(p):
    u = p.lattice.up_factor
    h = max([1] + [pos.contract.expiry - p.time for pos in p.positions])
    scale = 1.0 + abs(p.risk_free) + abs(p.risky_value) * u ** h + sum(
        abs(pos.quantity) * (pos.contract.strike + p.underlying * u ** h)
        for pos in p.positions)
    assert abs(_worst_case_terminal(p) - worst_case_by_paths(p)) <= 1e-12 * scale


@st.composite
def solvency_walks(draw):
    """A lattice, then at each node of a 0/1 path: maybe a call or put
    bought or written, and a cash-and-shares move drawn within trade_limits
    as a fraction of the way from the short bound to the loan bound.  Every
    contract expires at least one step before the path ends."""
    u, d = draw(st.floats(1.01, 3.0)), draw(st.floats(0.05, 0.99))
    path = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=12))
    nodes = []
    for t in range(len(path)):
        trade = None
        if t < len(path) - 1 and draw(st.booleans()):
            make = draw(st.sampled_from([Contract.put, Contract.call]))
            trade = (make(draw(st.floats(0.0, 3.0)), draw(st.integers(t + 1, len(path) - 1))),
                     draw(st.sampled_from([buy_contract, issue_contract])),
                     draw(st.floats(0.05, 2.0)))
        nodes.append((trade, draw(st.floats(0.0, 1.0))))
    return u, d, nodes, path


@given(solvency_walks())
def test_no_admitted_trade_takes_the_total_value_below_zero(case):
    # an at-bound move's worst step lands on 0 only to within a few ulps of
    # its legs, so values are checked to 1e-12 of the largest legs held yet
    u, d, nodes, path = case
    p = Portfolio.initial(u, d)
    gross = 1.0
    for (trade, share), y in zip(nodes, path):
        if trade is not None:
            contract, side, quantity = trade
            try:
                p = side(p, contract, quantity)
            except BankruptcyRiskError:
                pass
        limits = trade_limits(p)
        try:
            p = move_to_risky(p, -limits.max_short + share * (limits.max_loan + limits.max_short))
        except BankruptcyRiskError:     # a contract held
            pass
        gross = max(gross, abs(p.risk_free) + abs(p.risky_value))
        assert p.total_value >= -1e-12 * gross
        try:
            p = step(p, y)
        except BankruptcyRiskError:     # no contract held, and no move admitted
            break
        assert p.total_value >= -1e-12 * gross
    assert p.due is None


def render_config(resolved: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in resolved.items())


def assert_round_trips(config):
    resolved = config_dict(config)
    assert config_from_dict(resolved) == config
    assert config_dict(config_from_dict(parse_config_text(render_config(resolved)))) \
        == resolved


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_round_trip(path):
    assert_round_trips(load_config(path))


@st.composite
def raw_configs(draw):
    horizon = draw(st.integers(1, 60))
    raw = {"null_p": draw(st.floats(0.05, 0.95)), "alt_p": draw(st.floats(0.0, 1.0)),
           "truth_p": draw(st.floats(0.0, 1.0)), "horizon": horizon,
           "replications": draw(st.integers(1, 100_000)),
           "alpha": draw(st.floats(0.001, 0.999)),
           "ruin_level": draw(st.floats(0.01, 0.99)),
           "seed": draw(st.integers(0, 2**32 - 1))}
    if draw(st.booleans()):
        raw.update(truth_p_post=draw(st.floats(0.0, 1.0)),
                   change_at=draw(st.integers(0, horizon)))
    raw["strategy"] = draw(st.sampled_from(["kelly", "fixed", "dynamic", "hedged_cs"]))
    if raw["strategy"] in ("fixed", "hedged_cs"):
        raw["lambda"] = draw(st.floats(0.0, 1.0))
    if raw["strategy"] == "dynamic" and draw(st.booleans()):
        raw["floor"] = draw(st.floats(0.01, 0.99))
    if raw["strategy"] in ("kelly", "fixed") and draw(st.booleans()):
        # a put hedge needs a fraction in (0, 1/null_p): 0 < d < 1 < u
        if raw["strategy"] == "kelly":
            raw["alt_p"] = draw(st.floats(raw["null_p"] + 0.01, 0.99))
        else:
            raw["lambda"] = draw(st.floats(0.01, 1.0))
        raw.update(hedge="put", hedge_expiry=draw(st.integers(0, horizon)))
        if draw(st.booleans()):
            raw.update(hedge_strike_mode="explicit",
                       hedge_strike=draw(st.floats(0.0, 2.0, exclude_min=True)))
        if draw(st.booleans()):
            raw["hedge_floor"] = draw(st.floats(0.01, 0.99))
    return raw


@given(raw_configs())
def test_config_round_trips_through_its_resolved_view(raw):
    assert_round_trips(config_from_dict(raw))
