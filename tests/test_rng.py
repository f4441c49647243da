"""Tests for the one Bernoulli sampler, rng.bernoulli.

A table is the plain-Python oracle's reading of the same raw outputs, any
range of its rows drawn alone from a stream jumped ahead by
row_words(ps) per row is that slice of the whole, a row consumes exactly
row_words(ps) outputs, a table whose p needs more than 8 binary digits is
the float comparison of random() outputs bit for bit, and p in {0, 1}
draws nothing.  Outcome frequencies match p within 4 standard errors.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hedgetest.rng import bernoulli, row_words, stream

from oracles import bernoulli_by_words

dyadic = st.integers(0, 8).flatmap(
    lambda k: st.integers(0, 2**k).map(lambda a: a / 2**k))


@st.composite
def tables(draw):
    step = st.one_of(dyadic, st.floats(0.0, 1.0)) if draw(st.booleans()) else dyadic
    ps = draw(st.lists(step, max_size=70))
    rows = draw(st.integers(0, 12))
    start = draw(st.integers(0, rows))
    stop = draw(st.integers(start, rows))
    return ps, rows, start, stop, draw(st.integers(0, 2**32 - 1))


@given(tables())
@example(([0.5] * 10 + [0.75] * 10, 5, 1, 4, 7))        # a shifted shipped truth
@example(([3 / 8] * 70, 4, 2, 4, 8))                     # 3-bit steps straddle words
@example(([1 / 256, 0.5, 1.0], 3, 0, 3, 9))
@example(([0.6] * 20, 5, 2, 5, 10))                      # more than 8 binary digits
@example(([0.0, 1.0, 1.0, 0.0], 6, 2, 6, 11))
@example(([0.5] * 64, 5, 1, 3, 12))                      # 1-bit steps fill one word
@example(([0.5] * 65, 5, 2, 5, 13))                      # and spill into a second
@example(([0.5] * 63 + [1.0, 0.0, 0.5], 4, 1, 4, 14))    # certain steps across words
def test_table_is_the_oracle_and_any_row_range_its_slice(case):
    ps, rows, start, stop, seed = case
    whole = bernoulli(stream(seed, 3), ps, rows)
    expected = bernoulli_by_words(stream(seed, 3), ps, rows)
    assert whole.dtype == np.float64 and whole.shape == (rows, len(ps))
    assert whole.tobytes() == expected.tobytes()

    skip = start * row_words(ps)
    rng = stream(seed, 3, skip=skip)
    part = bernoulli(rng, ps, stop - start)
    assert part.tobytes() == whole[start:stop].tobytes()
    # the part left its stream where the whole table's row `stop` begins
    assert rng.bit_generator.state == stream(seed, 3, skip=stop * row_words(ps)).bit_generator.state

    bits = max((Fraction(p).denominator.bit_length() - 1 for p in ps), default=0)
    if bits > 8:
        uniforms = stream(seed, 3).random((rows, len(ps)))
        assert whole.tobytes() == (uniforms < np.array(ps)).astype(float).tobytes()
        assert row_words(ps) == len(ps)
    else:
        assert row_words(ps) == -(-bits * len(ps) // 64)
    if bits == 0:           # every p is 0 or 1
        assert row_words(ps) == 0
        assert whole.tobytes() == np.broadcast_to(np.array(ps, dtype=float),
                                                  (rows, len(ps))).tobytes()


def test_a_table_of_certain_steps_calls_no_draw():
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew {name}")

    assert bernoulli(NoDraws(), [1.0, 0.0, 1.0], 4).tolist() == [[1.0, 0.0, 1.0]] * 4


@pytest.mark.parametrize("p,seed", [(0.5, 21), (0.75, 22), (1 / 256, 23)])
def test_outcome_frequency_is_p(p, seed):
    ps = np.full(50, p)
    table = bernoulli(stream(seed), ps, 20_000)
    n = table.size
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(table.mean() - p) <= 4 * se
    # each step is Bernoulli(p) on its own, whatever bits of an output it reads
    column_se = math.sqrt(p * (1.0 - p) / table.shape[0])
    assert np.all(np.abs(table.mean(axis=0) - p) <= 4 * column_se)
