"""Property tests of the exact put-floor strike solve and the row streams.

Random lattices (betting fraction, null parameter, floor, horizon) and
random discrete measures are checked against the oracles: every returned
root zeroes the floor residual, no sign change of the residual on a dense
grid goes without a root, and with expiry at the horizon the worst hedged
final wealth over all enumerated paths is the floor itself.  Any chunk of
the counter-based row table is the same bits as the slice of the whole, and
the wealth engine run on a batch is, row for row, the same bits as each row
run alone and the step-by-step recurrence of the oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from hedgetest.pricing import (LatticeModel, StrikeSolveError, put_floor_strikes,
                               solve_hedge_strike)
from hedgetest.rng import rows, stream
from hedgetest.strategies import StrategyKind, StrategySpec, build_strategy
from hedgetest.wealth import HypothesisSpec, evolve, run_process

from oracles import binomial_weight_price, enumerate_paths_min, wealth_by_hand

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None,
                         max_examples=100)


@st.composite
def lattices(draw):
    null_p = draw(st.floats(0.1, 0.9))
    lam = draw(st.floats(0.05, min(2.0, 0.95 / null_p)))
    floor = draw(st.floats(0.01, 0.99))
    horizon = draw(st.integers(1, 12))
    return LatticeModel.for_bernoulli_bet(lam, null_p, horizon), floor, horizon


@st.composite
def measures(draw):
    n = draw(st.integers(1, 30))
    atoms = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    mass = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    floor = draw(st.floats(0.01, 0.99))
    return atoms, mass / mass.sum(), floor


def lattice_roots(model, floor, horizon):
    try:
        return solve_hedge_strike(model, floor, horizon)
    except StrikeSolveError:
        return []


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


@DETERMINISTIC
@given(lattices())
def test_lattice_roots_zero_the_residual(case):
    model, floor, horizon = case
    for root in lattice_roots(model, floor, horizon):
        assert abs(lattice_residual(model, floor, horizon, root)) <= 1e-12


@DETERMINISTIC
@given(lattices())
def test_lattice_roots_ascend_and_none_is_missed(case):
    model, floor, horizon = case
    roots = lattice_roots(model, floor, horizon)
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert all(0.0 < r <= 2.0 for r in roots)     # (1 - C(S)) S < floor past 1 + spot
    grid = np.linspace(0.0, 2.0, 2001)
    values = np.array([lattice_residual(model, floor, horizon, s) for s in grid])
    assert_sign_changes_bracketed(grid, values, roots)


@DETERMINISTIC
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


@DETERMINISTIC
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
def row_chunks(draw):
    n = draw(st.integers(1, 60))
    a = draw(st.integers(0, n - 1))
    b = draw(st.integers(a + 1, n))
    return (draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 7)),
            draw(st.integers(1, 40)), n, a, b)


@DETERMINISTIC
@given(row_chunks())
def test_row_chunk_equals_slice_of_the_table(case):
    seed, tag, width, n, a, b = case
    table = rows(seed, tag, 0, n, width)
    chunk = rows(seed, tag, a, b, width)
    assert table.shape == (n, width)
    assert np.array_equal(chunk, table[a:b])


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
    spec = StrategySpec(StrategyKind.DYNAMIC_FLOOR, floor=draw(st.floats(0.01, 0.99)),
                        horizon=horizon)
    return hyp, ys, build_strategy(spec), [build_strategy(spec)] * m


@DETERMINISTIC
@given(wealth_batches())
def test_batch_equals_each_row_alone_and_the_oracle(case):
    hyp, ys, strategy, alone = case
    batch = np.array([k for k, _ in evolve(strategy, ys, hyp)])
    for i, row_strategy in enumerate(alone):
        path = run_process(row_strategy, ys[i], hyp)
        assert path.values[1:] == tuple(batch[:, i].tolist())     # bit for bit
        by_hand = wealth_by_hand(path.lambdas, ys[i], hyp.null_mean)
        for value, expected in zip(path.values, by_hand):
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
