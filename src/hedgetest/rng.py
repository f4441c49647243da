"""Deterministic random-stream derivation.

Two primitives, both keyed by a seed and small nonnegative integer tags:

* ``stream(seed, *tags, skip=0)`` is a sequential PCG64 generator for one
  purpose (a synthetic matrix, a screening price sample, a Monte Carlo run
  drawn in fixed-size blocks).  ``skip=k`` jumps it ahead by k 64-bit
  outputs in O(log k) steps (O'Neill, "PCG", 2014), one per float64 of
  ``Generator.random``, so ``stream(..., skip=k).random(m)`` equals
  ``stream(...).random(k + m)[k:]`` and disjoint row ranges of one stream
  can be drawn independently.
* ``rows(seed, tag, start, stop, width)`` is a row-addressable table of
  uniforms: a counter-based Philox generator keyed by (seed, tag), where row
  i starts at counter i * ceil(width / 4) (Salmon et al., "Parallel Random
  Numbers: As Easy as 1, 2, 3", SC'11).  Any chunk [a, b) of rows is the
  same bits as the slice [a:b] of the whole table, so replication i sees the
  same outcomes however replications are split into chunks.
"""

from __future__ import annotations

import numpy as np

# Default seed used by the CLI when none is given, so that table
# reproduction is a single command.
DEFAULT_SEED = 271828

# Philox4x64 yields four 64-bit words, hence four doubles, per counter step.
_WORDS_PER_COUNTER = 4


def stream(seed: int, *tags: int, skip: int = 0) -> np.random.Generator:
    """Return the generator for a (seed, *tags) stream, advanced by skip.

    Tags are small nonnegative integers naming the purpose of the stream
    (experiment, pricing, replication index, ...).  Distinct tag tuples give
    statistically independent streams.  ``skip`` advances the PCG64 state by
    that many 64-bit outputs, so ``stream(seed, *tags, skip=k).random(m)``
    is ``stream(seed, *tags).random(k + m)[k:]``, bit for bit.
    """
    rng = np.random.default_rng([int(seed), *[int(t) for t in tags]])
    if skip:
        rng.bit_generator.advance(skip)
    return rng


def rows(seed: int, tag: int, start: int, stop: int, width: int) -> np.ndarray:
    """Rows start..stop-1 of the (seed, tag) table of Uniform[0, 1) draws.

    Returns a (stop - start, width) array.  Each row owns ceil(width / 4)
    Philox counter steps, so row i is reached by advancing the counter and
    never depends on which other rows are drawn in the same call.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
    if width < 1:
        raise ValueError(f"row width must be positive, got {width}")
    steps = -(-width // _WORDS_PER_COUNTER)
    bits = np.random.Philox(np.random.SeedSequence([int(seed), int(tag)]))
    bits.advance(start * steps)
    draws = np.random.Generator(bits).random((stop - start, steps * _WORDS_PER_COUNTER))
    return draws[:, :width]
