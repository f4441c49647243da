"""Property tests of the exact put-floor strike solve and the row streams.

Random lattices (betting fraction, null parameter, floor, horizon) and
random discrete measures are checked against the oracles: every returned
root zeroes the floor residual, no sign change of the residual on a dense
grid goes without a root, and with expiry at the horizon the worst hedged
final wealth over all enumerated paths is the floor itself.  Any chunk of
the counter-based row table is the same bits as the slice of the whole.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from hedgetest.pricing import (LatticeModel, StrikeSolveError, put_floor_strikes,
                               solve_hedge_strike)
from hedgetest.rng import rows

from oracles import binomial_weight_price, enumerate_paths_min

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
