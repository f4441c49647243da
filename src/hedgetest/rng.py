"""Deterministic random-stream derivation and the one Bernoulli sampler.

One primitive, ``stream(seed, *tags, skip=0)``: a sequential PCG64
generator keyed by a seed and small nonnegative integer tags naming one
purpose (a synthetic matrix, a Monte Carlo run, the table of simulated
outcomes).  ``skip=k`` jumps it ahead by k 64-bit
outputs in O(log k) steps (O'Neill, "PCG", 2014), one per float64 of
``Generator.random``, so ``stream(..., skip=k).random(m)`` equals
``stream(...).random(k + m)[k:]``.

``bernoulli(rng, ps, rows)`` draws a (rows, T) table of 0/1 outcomes, step
t Bernoulli(ps[t]).  Where every p is a/2**k with k <= MAX_BITS, an outcome
is read from k fair bits (Knuth & Yao, 1976): a row takes
ceil(k*T / 64) whole outputs and step t is 1 exactly when bits
[k*t, k*t + k) of the row, least significant first, read as an integer
below p*2**k; at k = 0, every p 0 or 1, nothing is drawn.  Any other
table keeps one ``Generator.random`` output a step.  Either way every row
consumes ``row_words(ps)`` outputs, so row i of a table is
``bernoulli(stream(..., skip=i * row_words(ps)), ps, 1)``: any range of
rows can be drawn alone and is the same bits as that slice of the whole
table.

``bernoulli_words(rng, steps, rows)`` is the fair coin's table, every p
1/2, packed: a (rows, ceil(steps/64)) uint64 array with outcome t at bit
t % 64 of word t // 64.  It reads the same outputs as ``bernoulli`` and
its ``np.unpackbits`` is ``bernoulli``'s table of ``steps`` halves.
"""

from __future__ import annotations

import numpy as np

# Default seed used by the CLI when none is given, so that table
# reproduction is a single command.
DEFAULT_SEED = 271828
# Largest seed that keys a stream of its own: one 32-bit word (see stream).
MAX_SEED = 2**32 - 1
#: Most fair bits one Bernoulli outcome is read from (see bernoulli).
MAX_BITS = 8


def stream(seed: int, *tags: int, skip: int = 0) -> np.random.Generator:
    """Return the generator for a (seed, *tags) stream, advanced by skip.

    Tags are small nonnegative integers naming the purpose of the stream
    (experiment, pricing, replication index, ...).  The key (seed, *tags)
    is read as 32-bit words, one per integer below 2**32, and
    ``SeedSequence`` pads it with zero words, so a trailing zero names no
    new stream: ``stream(s, 0)`` is ``stream(s)``.  Keys that still differ
    once their trailing zeros are dropped give statistically independent
    streams.  A seed must fit one word, seed <= MAX_SEED: a seed of 2**32
    or more is read as two words and aliases a tagged key, so
    ``stream(2**32)`` is ``stream(0, 1)``.
    ``skip`` advances the PCG64 state by that many 64-bit outputs, so
    ``stream(seed, *tags, skip=k).random(m)`` is
    ``stream(seed, *tags).random(k + m)[k:]``, bit for bit.
    """
    rng = np.random.default_rng([int(seed), *[int(t) for t in tags]])
    if skip:
        rng.bit_generator.advance(skip)
    return rng


def _dyadic_bits(ps: np.ndarray) -> int | None:
    """Least k <= MAX_BITS with every p * 2**k an integer, or None."""
    for k in range(MAX_BITS + 1):
        scaled = ps * (1 << k)      # exact: a power-of-two scale of a double
        if np.array_equal(scaled, np.trunc(scaled)):
            return k
    return None


def row_words(ps) -> int:
    """64-bit outputs bernoulli consumes for one row of step probabilities ps."""
    ps = np.asarray(ps, dtype=float)
    k = _dyadic_bits(ps)
    return ps.size if k is None else -(-k * ps.size // 64)


def bernoulli_words(rng: np.random.Generator, steps: int, rows: int) -> np.ndarray:
    """bernoulli's table of `steps` fair coins, packed: a (rows,
    ceil(steps/64)) uint64 array, outcome t at bit t % 64 of word t // 64.

    A row takes the ``row_words`` outputs bernoulli reads at p = 1/2, one
    bit a step, and a step is 1 exactly when its fair bit is 0 (its 1-bit
    integer is below 1): the words are the raw outputs inverted, the bits
    past the last step cleared.
    """
    # integers over the full 64-bit range returns the raw outputs, as
    # bit_generator.random_raw does, and leaves the same state
    raw = rng.integers(0, 2**64, (rows, -(-steps // 64)), dtype=np.uint64)
    np.invert(raw, out=raw)
    if steps % 64:
        raw[:, -1] &= np.uint64((1 << steps % 64) - 1)
    return raw


def bernoulli(rng: np.random.Generator, ps, rows: int) -> np.ndarray:
    """A (rows, T) float64 table of 0.0/1.0 outcomes, step t Bernoulli(ps[t]),
    each p in [0, 1].

    Each row takes ``row_words(ps)`` consecutive outputs of rng.  With k the
    least integer for which every p * 2**k is an integer, k <= MAX_BITS, a
    row's outputs are read as one little-endian string of bits and step t
    is 1 exactly when its k bits [k*t, k*t + k), least significant first,
    form an integer below p * 2**k; at k = 0 every p is 0 or 1 and nothing
    is drawn.  Otherwise step t is 1 exactly when a ``random`` output is
    below p, as a table of ``rng.random((rows, T))``.
    """
    ps = np.asarray(ps, dtype=float)
    steps = ps.size
    k = _dyadic_bits(ps)
    if k is None:
        draws = rng.random((rows, steps))
        return np.less(draws, ps, out=draws)
    if k == 0:
        return np.tile(ps > 0.0, (rows, 1)).astype(float)
    words = rng.integers(0, 2**64, (rows, -(-k * steps // 64)), dtype=np.uint64)
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=k * steps, bitorder="little")
    fields = bits.reshape(rows, steps, k)
    bits = fields[..., 0].copy()
    for i in range(1, k):
        bits |= fields[..., i] << i
    # integer thresholds, at most 2**MAX_BITS: a float one costs twice the compare
    return np.less(bits, (ps * (1 << k)).astype(np.uint16), out=np.empty((rows, steps)))
