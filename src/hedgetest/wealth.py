"""Test wealth processes for sequential testing by betting.

A test wealth process starts at 1 and evolves multiplicatively,

    K_t = K_{t-1} * (1 + lambda_t * (y_t - null_mean)),

where lambda_t is the betting fraction chosen before outcome y_t is seen.
Under the null the process is a nonnegative martingale, so observing
K_t >= 1/alpha at any time is a level-alpha rejection (Ville's inequality).

Three outcome families are supported: Bernoulli coin flips in {0, 1},
bounded outcomes in [0, 1] with null mean 1/2, and positive outcomes
exp(Z) with Z standard normal under the null (null mean exp(1/2)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: Null mean of exp(Z) for Z ~ N(0, 1).
LOG_NORMAL_NULL_MEAN = math.exp(0.5)

#: Largest betting fraction that keeps exp(Z) outcomes from bankrupting the
#: bettor (the worst outcome is arbitrarily close to 0).
LOG_NORMAL_MAX_LAMBDA = math.exp(-0.5)

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


def update_wealth(k_prev: float, lam: float, y: float, null_mean: float,
                  lambda_bounds: tuple[float, float] = (-2.0, 2.0)) -> float:
    """One multiplicative wealth update k_prev * (1 + lam*(y - null_mean)).

    lambda_bounds is the admissible betting range for the outcome family
    (defaults to the Bernoulli/bounded range [-2, 2]); a fraction outside it
    could produce negative wealth and is rejected up front.
    """
    if k_prev < 0.0:
        raise ValueError(f"wealth must be nonnegative, got {k_prev}")
    lo, hi = lambda_bounds
    if not lo <= lam <= hi:
        raise InadmissibleBetError(
            f"betting fraction {lam} outside admissible range [{lo}, {hi}]")
    result = k_prev * (1.0 + lam * (y - null_mean))
    if result < 0.0:
        if result >= -_NEG_TOL * max(k_prev, 1.0):
            return 0.0
        raise OutcomeError(
            f"outcome {y} with fraction {lam} drove wealth negative; "
            "outcome lies outside the declared family support")
    return result


def run_process(strategy: Callable[[tuple[float, ...]], float],
                outcomes: Iterable[float],
                hyp: HypothesisSpec) -> WealthPath:
    """Evolve a wealth process under a predictable betting strategy.

    The strategy is called with the history (K_0, ..., K_t) and returns the
    fraction bet on the next outcome, so it can never peek ahead.  A ruined
    path (wealth exactly 0) stops betting and stays at 0.
    """
    ys = hyp.validate_outcomes(outcomes)
    bounds = hyp.lambda_bounds()
    values = [1.0]
    lambdas = []
    k = 1.0
    for y in ys:
        lam = 0.0 if k == 0.0 else float(strategy(tuple(values)))
        k = update_wealth(k, lam, float(y), hyp.null_mean, bounds)
        values.append(k)
        lambdas.append(lam)
    return WealthPath(tuple(values), tuple(lambdas), hyp.null_mean)


def terminal_wealth(lam: float, outcomes, hyp: HypothesisSpec) -> np.ndarray:
    """Final wealth of a constant-fraction bet along each row of outcomes.

    The batched run_process(fixed(lam), row, hyp).final: the same update in
    the same order, and the same errors (OutcomeError for an outcome outside
    the support, InadmissibleBetError for a fraction outside the family's
    range).  Outcomes of shape (..., T) give wealths of shape (...).
    """
    ys = hyp.validate_outcomes(outcomes)
    lo, hi = hyp.lambda_bounds()
    if not lo <= lam <= hi:
        raise InadmissibleBetError(
            f"betting fraction {lam} outside admissible range [{lo}, {hi}]")
    # With checked outcomes and fraction a step can dip below 0 only by
    # rounding; it clamps to 0, and a ruined row then stays at 0.
    steps = np.maximum(1.0 + lam * (ys - hyp.null_mean), 0.0)
    k = np.ones(ys.shape[:-1])
    for t in range(ys.shape[-1]):
        k *= steps[..., t]
    return k


def run_hedged_cs(outcomes: Iterable[float], lam: float) -> WealthPath:
    """Two-sided hedged capital process on bounded outcomes.

    Averages equal stakes bet for and against deviations above the null
    mean 1/2:

        K_t = 0.5 * prod(1 + lam*(y - 0.5)) + 0.5 * prod(1 - lam*(y - 0.5))

    Requires lam in [0, 2] so both legs stay nonnegative.
    """
    if not 0.0 <= lam <= 2.0:
        raise InadmissibleBetError(f"hedged fraction {lam} outside [0, 2]")
    ys = HypothesisSpec.bounded().validate_outcomes(outcomes)
    dev = ys - 0.5
    up = np.cumprod(1.0 + lam * dev)
    down = np.cumprod(1.0 - lam * dev)
    values = (1.0,) + tuple(float(v) for v in 0.5 * up + 0.5 * down)
    return WealthPath(values, None, 0.5)


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
