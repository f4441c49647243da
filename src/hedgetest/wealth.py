"""Test wealth processes for sequential testing by betting.

A test wealth process starts at 1 and evolves multiplicatively,

    K_t = K_{t-1} * (1 + lambda_t * (y_t - null_mean)),

where lambda_t is the betting fraction chosen before outcome y_t is seen.
Under the null the process is a nonnegative martingale, so observing
K_t >= 1/alpha at any time is a level-alpha rejection (Ville's inequality).

evolve is the one engine: it steps m such processes side by side under a
vectorized strategy lam(wealth, t), and the two-sided hedged_cs is one
evolve over the (2, m) batch of its two legs.  A single path is a batch of
one.  Under a constant fraction the final wealth needs no steps:
terminal_wealth is the product over time of the same bet factors evolve
multiplies by, with the same bits as its last step.  On coin flips that
wealth depends only on a path's number of ups j: it is the binomial
lattice's terminal node up**j * down**(T - j) (Cox, Ross & Rubinstein,
1979).  null_paths hands mc_price the (sampler, process) pair of a
constant bet; at the fair-coin null a path is its packed fair-coin bits
(rng.bernoulli_words) and its wealth the correctly rounded node
(up_count_nodes) of its bit count.
ville_crossing is the one decision rule: it follows a batch of wealth
paths step by step and records where each first reaches 1/alpha.

Three outcome families are supported: Bernoulli coin flips in {0, 1},
bounded outcomes in [0, 1] with null mean 1/2, and positive outcomes
exp(Z) with Z standard normal under the null (null mean exp(1/2)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .pricing import up_count_nodes
from .rng import bernoulli, bernoulli_words

#: Null mean of exp(Z) for Z ~ N(0, 1).
LOG_NORMAL_NULL_MEAN = math.exp(0.5)

#: A betting strategy: lam(wealth, t) maps the wealths K_t of m paths after
#: t outcomes to the fraction bet on outcome t + 1 (one, or one per path).
Strategy = Callable[[np.ndarray, int], "float | np.ndarray"]


class InadmissibleBetError(ValueError):
    """A betting fraction that could drive wealth negative for its family."""


class OutcomeError(ValueError):
    """An observed outcome outside the declared family's support."""


class Family(enum.Enum):
    BERNOULLI = "bernoulli"
    LOG_NORMAL_UNIT_VARIANCE = "log_normal_unit_variance"
    BOUNDED_MEAN = "bounded_mean"


@dataclass(frozen=True)
class HypothesisSpec:
    """Null/alternative pair parameterizing outcomes and the null mean.

    null_param is p for Bernoulli, mu = 0 for the log-normal transform and
    the mean for bounded outcomes.  alt_param (q, or mu_1) is optional and
    only used by strategies that bet toward a design alternative.
    """

    family: Family
    null_param: float
    alt_param: float | None = None

    def __post_init__(self):
        if self.family is Family.BERNOULLI:
            if not 0.0 < self.null_param < 1.0:
                raise ValueError(f"Bernoulli null parameter {self.null_param} not in (0, 1)")
            if self.alt_param is not None and not 0.0 <= self.alt_param <= 1.0:
                raise ValueError(f"Bernoulli alternative {self.alt_param} not in [0, 1]")
        elif self.family is Family.BOUNDED_MEAN:
            if not 0.0 < self.null_param < 1.0:
                raise ValueError(f"bounded null mean {self.null_param} not in (0, 1)")
        elif self.null_param != 0.0:
            raise ValueError(f"log-normal null mu must be 0, got {self.null_param}")

    @property
    def null_mean(self) -> float:
        """Mean of one outcome under the null: the parameter itself, except
        exp(1/2) for the log-normal family."""
        if self.family is Family.LOG_NORMAL_UNIT_VARIANCE:
            return LOG_NORMAL_NULL_MEAN
        return self.null_param

    @classmethod
    def bernoulli(cls, null_p: float = 0.5, alt_p: float | None = None) -> "HypothesisSpec":
        return cls(Family.BERNOULLI, null_p, alt_p)

    @classmethod
    def log_normal(cls, alt_mu: float | None = None) -> "HypothesisSpec":
        return cls(Family.LOG_NORMAL_UNIT_VARIANCE, 0.0, alt_mu)

    @classmethod
    def bounded(cls, mean: float = 0.5, alt_mean: float | None = None) -> "HypothesisSpec":
        return cls(Family.BOUNDED_MEAN, mean, alt_mean)

    def support(self) -> tuple[float, float]:
        """Closed support bounds of a single outcome (inf may be math.inf)."""
        if self.family is Family.LOG_NORMAL_UNIT_VARIANCE:
            return 0.0, math.inf
        return 0.0, 1.0

    def lambda_bounds(self) -> tuple[float, float]:
        """Betting fractions that keep 1 + lambda*(y - null_mean) >= 0 on the support."""
        lo, hi = self.support()
        upper = 1.0 / (self.null_mean - lo)
        lower = 0.0 if math.isinf(hi) else -1.0 / (hi - self.null_mean)
        return lower, upper

    def validate_outcomes(self, outcomes: Iterable[float]) -> np.ndarray:
        """Check outcomes against the family support; returns them as an array."""
        ys = np.asarray(list(outcomes) if not isinstance(outcomes, np.ndarray) else outcomes,
                        dtype=float)
        if self.family is Family.BERNOULLI:
            if not np.all((ys == 0.0) | (ys == 1.0)):
                raise OutcomeError("Bernoulli outcomes must be exactly 0 or 1")
        elif self.family is Family.BOUNDED_MEAN:
            if not np.all((ys >= 0.0) & (ys <= 1.0)):
                raise OutcomeError("bounded outcomes must lie in [0, 1]")
        else:
            if not np.all((ys > 0.0) & (ys < math.inf)):
                raise OutcomeError("log-normal outcomes must be finite and strictly positive")
        return ys

    def null_sampler(self) -> Callable[[np.random.Generator, int | tuple[int, ...]],
                                       np.ndarray]:
        """Sampler drawing outcomes from the null measure; size may be a shape.

        A Bernoulli array of shape (..., T) is rng.bernoulli's table of its
        rows over T steps at the null p, an int size n one row of n steps.
        """
        if self.family is Family.BERNOULLI:
            p = self.null_param

            def sample(rng, size):
                shape = (size,) if np.ndim(size) == 0 else tuple(size)
                rows = math.prod(shape[:-1])
                return bernoulli(rng, np.full(shape[-1], p), rows).reshape(shape)
            return sample
        if self.family is Family.BOUNDED_MEAN:
            # Uniform(0,1) is the canonical mean-1/2 bounded null.
            if self.null_mean != 0.5:
                raise ValueError("null sampler only defined for bounded mean 1/2")
            return lambda rng, size: rng.random(size)
        return lambda rng, size: np.exp(rng.standard_normal(size))


def _bet_factor(lam, y, null_mean: float):
    """max(1 + lam*(y - null_mean), 0), what a bet of lam on outcome y
    multiplies wealth by, in one new C-contiguous buffer (y is left as it
    is).  An admissible bet on a supported outcome falls below 0 only by
    rounding, and then it ruins the path at exactly 0."""
    factor = np.subtract(y, null_mean, order="C")
    factor *= lam
    factor += 1.0
    np.maximum(factor, 0.0, out=factor)
    return factor


def _check_bet(lam, lambda_bounds: tuple[float, float]) -> None:
    """Raise InadmissibleBetError unless every fraction in lam (one, or an
    array) lies in lambda_bounds; NaN never does."""
    lo, hi = lambda_bounds
    lam_lo, lam_hi = (lam.min(), lam.max()) if isinstance(lam, np.ndarray) else (lam, lam)
    if not (lo <= lam_lo and lam_hi <= hi):
        raise InadmissibleBetError(
            f"betting fraction {lam_lo if lam_lo < lo else lam_hi} "
            f"outside admissible range [{lo}, {hi}]")


def _paths(outcomes, hyp: HypothesisSpec) -> np.ndarray:
    """outcomes checked against hyp's support and the shape (paths, steps)."""
    ys = hyp.validate_outcomes(outcomes)
    if ys.ndim != 2:
        raise ValueError(f"outcomes must have shape (paths, steps), got {ys.shape}")
    return ys


def evolve(strategy: Strategy, outcomes, hyp: HypothesisSpec,
           start=1.0, t0: int = 0) -> Iterator[tuple[np.ndarray, object]]:
    """Run m wealth processes side by side; yields (K_t, lam_t) for each step.

    outcomes has shape (m, T): row i is path i.  start is one wealth, one
    per path, or an array with leading batch axes, shape (..., m) or
    (..., 1): every batch runs the m paths on the same outcomes.  The
    strategy is called as strategy(K, t) with the wealths K (shape (m,), or
    the batch's shape) after t outcomes, t counted from t0, and returns the
    fraction bet on the next outcome, one for all rows or one per row, so
    it can never peek ahead.  Every step checks the fractions against
    hyp.lambda_bounds() and multiplies the batch by its bet factors; a
    wealth that overflowed to inf and meets a factor of 0 is ruined (inf *
    0 = NaN is 0).  A ruined row (wealth exactly 0) bets 0 and stays at 0;
    once every row is ruined the strategy is no longer consulted.  Only the
    current wealths are kept.
    """
    ys = _paths(outcomes, hyp)
    bounds = hyp.lambda_bounds()
    k = np.full(np.broadcast_shapes(np.shape(start), ys.shape[:1]), start, dtype=float)
    if not np.all(k >= 0.0):                 # below 0, or NaN
        raise ValueError(f"wealth must be nonnegative, got {k.min()}")
    for t, y in enumerate(ys.T):
        if k.all():
            lam = strategy(k, t0 + t)
        elif k.any():
            lam = np.where(k > 0.0, strategy(k, t0 + t), 0.0)
        else:
            lam = 0.0
        _check_bet(lam, bounds)
        # the outcomes broadcast to the batch, so the factors fill one buffer;
        # a wealth past the float range is inf and inf * 0 is mapped below,
        # so numpy need not warn of either
        with np.errstate(over="ignore", invalid="ignore"):
            k = k * _bet_factor(lam, np.broadcast_to(y, k.shape), hyp.null_mean)
        if np.isnan(k.min(initial=0.0)):     # 0 unless inf met a factor of 0
            k[np.isnan(k)] = 0.0
        yield k, lam


def terminal_wealth(lam: float, outcomes, hyp: HypothesisSpec) -> np.ndarray:
    """Final wealth K_T of each row of outcomes[m, T] under the constant fraction lam.

    The product over time of the bet factors evolve multiplies by.  They
    are built time-major, one contiguous (T, m) table, and reduced over
    axis 0: numpy multiplies the rows of the table into K one step at a
    time, each path left to right, so K_T has the same bits as the last
    step of evolve(lambda k, t: lam, ...), a path that overflowed to inf
    and meets a factor of 0 included (inf * 0 = NaN is 0).  lam is checked
    against hyp.lambda_bounds() even when T = 0, where every K_T is 1.
    """
    ys = _paths(outcomes, hyp)
    _check_bet(lam, hyp.lambda_bounds())
    factors = _bet_factor(lam, ys.T, hyp.null_mean)
    final = np.prod(factors, axis=0)
    final[np.isnan(final)] = 0.0
    return final


def null_paths(lam: float, hyp: HypothesisSpec, steps: int):
    """mc_price's (sampler, process) pair for the constant fraction lam.

    The sampler draws blocks of null paths of `steps` outcomes and the
    process maps a block to each path's K_T.  At the fair-coin null, p =
    1/2, a path is its row of rng.bernoulli_words(rng, steps, rows), the
    fair coin packed 64 steps a word, and K_T the terminal node
    up**j * down**(steps - j) of its j ups, one up_count_nodes table of the
    bet factors built for all blocks (a node with a factor of 0 is 0); every
    other null draws hyp.null_sampler() outcomes for terminal_wealth.  At
    spot 1 the nodes are LatticeModel.for_bernoulli_bet(lam, 0.5).terminal_values
    wherever that lattice exists; a node and terminal_wealth's left-to-right
    product of the same path are a few ulps apart at most.
    """
    if hyp.family is Family.BERNOULLI and hyp.null_param == 0.5:
        _check_bet(lam, hyp.lambda_bounds())
        down, up = _bet_factor(lam, [0.0, 1.0], hyp.null_mean).tolist()
        nodes = up_count_nodes(up, down, steps)

        def sample(rng, shape):
            if tuple(shape[1:]) != (steps,):
                raise ValueError(f"paths of {steps} steps, asked for shape {shape}")
            return bernoulli_words(rng, steps, shape[0])

        def final(words):
            return nodes.take(np.bitwise_count(words).sum(axis=1, dtype=np.intp))
        return sample, final
    return hyp.null_sampler(), lambda ys: terminal_wealth(lam, ys, hyp)


def hedged_cs(outcomes, lam,
              hyp: HypothesisSpec = HypothesisSpec.bounded()) -> Iterator[np.ndarray]:
    """Two-sided hedged capital process of each row of outcomes[m, T].

    Half of the unit wealth bets +lam on y - null_mean and half bets -lam
    (Waudby-Smith & Ramdas, JRSS-B 2024); yields K_t = K+_t + K-_t for
    t = 1..T.  The two legs are one evolve over a (2, m) batch started at
    1/2, so each step reads the outcomes and checks the fractions once.
    lam is one fraction for all rows or one per row; hyp defaults to
    bounded outcomes with mean 1/2.
    """
    lam = np.asarray(lam, dtype=float)
    fractions = np.stack([lam, -lam]).reshape(2, -1)      # (2, 1) or (2, m)
    for k, _ in evolve(lambda k, t: fractions, outcomes, hyp, start=np.full((2, 1), 0.5)):
        yield k[0] + k[1]


def ville_crossing(w0, steps: Iterable[np.ndarray], alpha: float):
    """Ville's rule over a batch of wealth paths that start at w0.

    steps yields the wealths W_1..W_T, one array per step.  Returns the
    final W_T, the running max from W_0 and the first t >= 1 with
    W_t >= 1/alpha, -1 where the path never gets there: reaching 1/alpha
    exactly rejects.  w0 is one start per path or one for all, a scalar
    broadcast against the steps; with no steps the start is returned
    unchanged.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    threshold = 1.0 / alpha
    w = maxw = w0
    crossing = np.full(np.shape(w0), -1, dtype=np.int64)
    for t, w in enumerate(steps, 1):
        maxw = np.maximum(maxw, w)
        if crossing.shape != maxw.shape:     # a scalar start, broadcast to the steps
            crossing = np.broadcast_to(crossing, maxw.shape).copy()
        crossing[(w >= threshold) & (crossing < 0)] = t
    return w, maxw, crossing
