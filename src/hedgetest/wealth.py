"""Test wealth processes for sequential testing by betting.

A test wealth process starts at 1 and evolves multiplicatively,

    K_t = K_{t-1} * (1 + lambda_t * (y_t - null_mean)),

where lambda_t is the betting fraction chosen before outcome y_t is seen.
Under the null the process is a nonnegative martingale, so observing
K_t >= 1/alpha at any time is a level-alpha rejection (Ville's inequality).

evolve is the one engine: it steps m such processes side by side under a
vectorized strategy lam(wealth, t), and run_process, terminal_wealth and
the two-sided hedged_cs are built on it.

Three outcome families are supported: Bernoulli coin flips in {0, 1},
bounded outcomes in [0, 1] with null mean 1/2, and positive outcomes
exp(Z) with Z standard normal under the null (null mean exp(1/2)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: Null mean of exp(Z) for Z ~ N(0, 1).
LOG_NORMAL_NULL_MEAN = math.exp(0.5)

#: Largest betting fraction that keeps exp(Z) outcomes from bankrupting the
#: bettor (the worst outcome is arbitrarily close to 0).
LOG_NORMAL_MAX_LAMBDA = math.exp(-0.5)

#: A betting strategy: lam(wealth, t) maps the wealths K_t of m paths after
#: t outcomes to the fraction bet on outcome t + 1 (one, or one per path).
Strategy = Callable[[np.ndarray, int], "float | np.ndarray"]

# Relative slack for clamping tiny negative wealth caused by rounding at an
# admissibility boundary (e.g. lambda = 2 and y = 0).
_NEG_TOL = 1e-12


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
    null_mean: float = 0.5

    def __post_init__(self):
        if self.family is Family.BERNOULLI:
            if not 0.0 <= self.null_param <= 1.0:
                raise ValueError(f"Bernoulli null parameter {self.null_param} not in [0, 1]")
            if self.alt_param is not None and not 0.0 <= self.alt_param <= 1.0:
                raise ValueError(f"Bernoulli alternative {self.alt_param} not in [0, 1]")
            if self.null_mean != self.null_param:
                raise ValueError("Bernoulli null mean must equal the null parameter")
        elif self.family is Family.LOG_NORMAL_UNIT_VARIANCE:
            if self.null_mean != LOG_NORMAL_NULL_MEAN:
                raise ValueError("log-normal null mean must be exp(1/2)")
        elif self.family is Family.BOUNDED_MEAN:
            if not 0.0 < self.null_mean < 1.0:
                raise ValueError(f"bounded null mean {self.null_mean} not in (0, 1)")

    @classmethod
    def bernoulli(cls, null_p: float = 0.5, alt_p: float | None = None) -> "HypothesisSpec":
        return cls(Family.BERNOULLI, null_p, alt_p, null_mean=null_p)

    @classmethod
    def log_normal(cls, alt_mu: float | None = None) -> "HypothesisSpec":
        return cls(Family.LOG_NORMAL_UNIT_VARIANCE, 0.0, alt_mu,
                   null_mean=LOG_NORMAL_NULL_MEAN)

    @classmethod
    def bounded(cls, mean: float = 0.5, alt_mean: float | None = None) -> "HypothesisSpec":
        return cls(Family.BOUNDED_MEAN, mean, alt_mean, null_mean=mean)

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
            if not np.all(ys > 0.0):
                raise OutcomeError("log-normal outcomes must be strictly positive")
        return ys

    def null_sampler(self) -> Callable[[np.random.Generator, int | tuple[int, ...]],
                                       np.ndarray]:
        """Sampler drawing outcomes from the null measure; size may be a shape."""
        if self.family is Family.BERNOULLI:
            p = self.null_param
            return lambda rng, size: (rng.random(size) < p).astype(float)
        if self.family is Family.BOUNDED_MEAN:
            # Uniform(0,1) is the canonical mean-1/2 bounded null.
            if self.null_mean != 0.5:
                raise ValueError("null sampler only defined for bounded mean 1/2")
            return lambda rng, size: rng.random(size)
        return lambda rng, size: np.exp(rng.standard_normal(size))


@dataclass(frozen=True)
class WealthPath:
    """A realized wealth process K_0..K_T with the betting fractions used.

    lambdas is None for processes that are not of the single-fraction
    multiplicative form (e.g. the two-sided hedged process).
    """

    values: tuple[float, ...]
    lambdas: tuple[float, ...] | None
    null_mean: float

    def __post_init__(self):
        if not self.values:
            raise ValueError("wealth path must contain at least K_0")
        if self.values[0] != 1.0:
            raise ValueError(f"wealth path must start at 1, got {self.values[0]}")
        if any(v < 0.0 for v in self.values):
            raise ValueError("wealth path contains a negative value")
        if self.lambdas is not None and len(self.lambdas) != len(self.values) - 1:
            raise ValueError("need one betting fraction per step")

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    @property
    def final(self) -> float:
        return self.values[-1]

    @property
    def max_value(self) -> float:
        return max(self.values)

    @property
    def ruined(self) -> bool:
        """True once wealth has hit exactly 0 (it then stays there)."""
        return any(v == 0.0 for v in self.values)


@dataclass(frozen=True)
class CashFlow:
    """Increments c_t = K_t - K_{t-1} plus the terminal sale value K_T."""

    increments: tuple[float, ...]
    terminal_value: float

    @property
    def total(self) -> float:
        return sum(self.increments)


@dataclass(frozen=True)
class TestDecision:
    rejected: bool
    crossing_time: int | None
    threshold: float


def update_wealth(k_prev, lam, y, null_mean: float,
                  lambda_bounds: tuple[float, float] = (-2.0, 2.0)):
    """One multiplicative wealth update k_prev * (1 + lam*(y - null_mean)).

    Array-aware: wealths, fractions and outcomes broadcast elementwise, and
    an all-scalar update returns a float.  lambda_bounds is the admissible
    betting range for the outcome family (defaults to the Bernoulli/bounded
    range [-2, 2]); a fraction outside it could produce negative wealth and
    is rejected up front.  A result below 0 by rounding clamps to 0.
    """
    if _lowest(k_prev) < 0.0:
        raise ValueError(f"wealth must be nonnegative, got {_lowest(k_prev)}")
    lo, hi = lambda_bounds
    lam_lo, lam_hi = (lam.min(), lam.max()) if isinstance(lam, np.ndarray) else (lam, lam)
    if not (lo <= lam_lo and lam_hi <= hi):
        raise InadmissibleBetError(
            f"betting fraction {lam_lo if lam_lo < lo else lam_hi} "
            f"outside admissible range [{lo}, {hi}]")
    result = k_prev * (1.0 + lam * (y - null_mean))
    if _lowest(result) < 0.0:
        if np.any(result < -_NEG_TOL * np.maximum(k_prev, 1.0)):
            raise OutcomeError(
                f"a bet drove wealth to {_lowest(result)}; "
                "an outcome lies outside the declared family support")
        result = np.maximum(result, 0.0)
    return result if isinstance(result, np.ndarray) else float(result)


def _lowest(x):
    return x.min() if isinstance(x, np.ndarray) else x


def evolve(strategy: Strategy, outcomes, hyp: HypothesisSpec,
           start=1.0, t0: int = 0) -> Iterator[tuple[np.ndarray, object]]:
    """Run m wealth processes side by side; yields (K_t, lam_t) for each step.

    outcomes has shape (m, T): row i is path i.  The strategy is called as
    strategy(K, t) with the wealths K (shape (m,)) after t outcomes, t
    counted from t0, and returns the fraction bet on the next outcome, one
    for all rows or one per row, so it can never peek ahead.  Every step is
    one update_wealth over the batch.  A ruined row (wealth exactly 0) bets
    0 and stays at 0; once every row is ruined the strategy is no longer
    consulted.  Only the current wealths are kept.
    """
    ys = hyp.validate_outcomes(outcomes)
    if ys.ndim != 2:
        raise ValueError(f"outcomes must have shape (paths, steps), got {ys.shape}")
    bounds = hyp.lambda_bounds()
    k = np.full(ys.shape[0], start, dtype=float)
    for t, y in enumerate(ys.T):
        if k.all():
            lam = strategy(k, t0 + t)
        elif k.any():
            lam = np.where(k > 0.0, strategy(k, t0 + t), 0.0)
        else:
            lam = 0.0
        k = update_wealth(k, lam, y, hyp.null_mean, bounds)
        yield k, lam


def run_process(strategy: Strategy, outcomes: Iterable[float],
                hyp: HypothesisSpec) -> WealthPath:
    """Evolve one wealth process from K_0 = 1: evolve on a batch of one.

    The strategy sees the wealth array (K_t,) and the step t.
    """
    values, lambdas = [1.0], []
    for k, lam in evolve(strategy, [list(outcomes)], hyp):
        values.append(float(k[0]))
        lambdas.append(float(lam[0] if isinstance(lam, np.ndarray) else lam))
    return WealthPath(tuple(values), tuple(lambdas), hyp.null_mean)


def terminal_wealth(strategy: Strategy, outcomes, hyp: HypothesisSpec) -> np.ndarray:
    """Final wealth K_T of each row of outcomes[m, T]: the last value of evolve."""
    k = np.ones(np.shape(outcomes)[0])
    for k, _ in evolve(strategy, outcomes, hyp):
        pass
    return k


def hedged_cs(outcomes, lam,
              hyp: HypothesisSpec = HypothesisSpec.bounded()) -> Iterator[np.ndarray]:
    """Two-sided hedged capital process of each row of outcomes[m, T].

    Half of the unit wealth bets +lam on y - null_mean and half bets -lam
    (Waudby-Smith & Ramdas, JRSS-B 2024); yields K_t = K+_t + K-_t for
    t = 1..T, each leg an evolve started at 1/2.  lam is one fraction for
    all rows or one per row; hyp defaults to bounded outcomes with mean 1/2.
    """
    against = -lam
    up = evolve(lambda k, t: lam, outcomes, hyp, start=0.5)
    down = evolve(lambda k, t: against, outcomes, hyp, start=0.5)
    for (k_up, _), (k_down, _) in zip(up, down):
        yield k_up + k_down


def run_hedged_cs(outcomes: Iterable[float], lam: float) -> WealthPath:
    """Two-sided hedged capital process of one bounded sequence.

        K_t = 0.5 * prod(1 + lam*(y - 0.5)) + 0.5 * prod(1 - lam*(y - 0.5))

    Requires lam in [0, 2] so both legs stay nonnegative.
    """
    if not 0.0 <= lam <= 2.0:
        raise InadmissibleBetError(f"hedged fraction {lam} outside [0, 2]")
    values = [1.0] + [float(k[0]) for k in hedged_cs([list(outcomes)], lam)]
    return WealthPath(tuple(values), None, 0.5)


def cash_flow(path: WealthPath) -> CashFlow:
    """Difference the path into its cash flow; increments telescope to K_T - K_0."""
    vals = path.values
    increments = tuple(vals[t] - vals[t - 1] for t in range(1, len(vals)))
    return CashFlow(increments, vals[-1])


def first_crossing(values: Sequence[float], threshold: float) -> int | None:
    """Index of the first value >= threshold, or None."""
    for t, v in enumerate(values):
        if v >= threshold:
            return t
    return None


def ville_decide(path: WealthPath, alpha: float) -> TestDecision:
    """Anytime-valid decision: reject iff the path ever reaches 1/alpha.

    The boundary counts: K_t exactly equal to 1/alpha rejects.
    """
    return decide_from_values(path.values, alpha)


def decide_from_values(values: Sequence[float], alpha: float) -> TestDecision:
    """ville_decide on a raw value sequence (shared with portfolio totals)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    threshold = 1.0 / alpha
    t = first_crossing(values, threshold)
    return TestDecision(rejected=t is not None, crossing_time=t, threshold=threshold)
