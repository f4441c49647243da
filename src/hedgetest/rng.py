"""Deterministic random-stream derivation.

One primitive, ``stream(seed, *tags, skip=0)``: a sequential PCG64
generator keyed by a seed and small nonnegative integer tags naming one
purpose (a synthetic matrix, a screening price sample, a Monte Carlo run,
the table of simulated outcomes).  ``skip=k`` jumps it ahead by k 64-bit
outputs in O(log k) steps (O'Neill, "PCG", 2014), one per float64 of
``Generator.random``, so ``stream(..., skip=k).random(m)`` equals
``stream(...).random(k + m)[k:]``.  Row i of a (n, w) table drawn from one
stream is therefore ``stream(..., skip=i * w).random(w)``: any range of rows
can be drawn alone and is the same bits as that slice of the whole table.
"""

from __future__ import annotations

import numpy as np

# Default seed used by the CLI when none is given, so that table
# reproduction is a single command.
DEFAULT_SEED = 271828
# Largest seed that keys a stream of its own: one 32-bit word (see stream).
MAX_SEED = 2**32 - 1


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
