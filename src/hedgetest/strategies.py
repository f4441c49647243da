"""Predictable betting-fraction schedules.

A strategy is a vectorized callable lam(wealth, t): given the wealths K_t
of m paths (an array of shape (m,)) after t outcomes, it returns the
fraction bet on outcome t+1, one for all paths or one per path, so it
depends on the past only.  build_strategy turns a StrategySpec into one for
an experiment's hypothesis and horizon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .wealth import HypothesisSpec, Strategy, _bet_factor


class StrategyKind(enum.Enum):
    KELLY = "kelly"
    FIXED_LAMBDA = "fixed"
    DYNAMIC_FLOOR = "dynamic"
    HEDGED_CS = "hedged_cs"


def kelly_lambda(p0: float, p1: float) -> float:
    """Fraction whose update 1 + lam*(y - p0) is the likelihood ratio q(y)/p(y).

    For the canonical 0.5-vs-0.75 coin test this is 1.  Closed form
    (p1 - p0) / (p0 * (1 - p0)); degenerate nulls have no defined ratio.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"null probability {p0} must be inside (0, 1)")
    if p1 is None or not 0.0 <= p1 <= 1.0:
        raise ValueError(f"alternative probability {p1} must be in [0, 1]")
    return (p1 - p0) / (p0 * (1.0 - p0))


def dynamic_lambda(current_wealth, t: int, horizon: int, floor: float,
                   null_mean: float):
    """Fraction that would land the worst-case continuation exactly on the floor.

    Solves floor = K_t * (1 + lam*(-null_mean))**(horizon - t) for the worst
    step, outcome 0 against the null mean (null_p for Bernoulli outcomes),
    clamped to the admissible range [0, 1/null_mean].  At the floor itself
    only the zero bet preserves the guarantee, and a ruined wealth of 0
    bets 0 (floor/0 is inf, clamped to 0).  Rounding can leave the worst
    step K_t * (1 - lam*null_mean) a few ulps under the floor, and a wealth
    under the floor bets 0 from then on.  So while that product, wealth's
    bet factor rounded as evolve rounds it, is below the floor (or NaN, an
    inf wealth times a factor of 0), a positive fraction takes a Newton
    step toward 0 on it, at least one ulp and at most to 0, up to 8 times.
    Array-aware: an array of wealths gives an array of fractions, a scalar
    a float.
    """
    k = np.asarray(current_wealth, dtype=float)
    if not np.all(k >= 0.0):                 # below 0, or NaN
        raise ValueError(f"wealth must be nonnegative, got {np.min(k)}")
    if t >= horizon:
        raise ValueError(f"step {t} must precede the horizon {horizon}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = np.clip((1.0 - (floor / k) ** (1.0 / (horizon - t))) / null_mean,
                      0.0, 1.0 / null_mean)
        # Before the last step the worst step can round under the floor
        # only from a wealth within rounding of the floor, from one so far
        # above it that f = (floor/K)**(1/(horizon - t)) is lost against 1,
        # or under a null mean so small that the fraction overflows.
        # Between them f >= sqrt(floor/K) beats floor/K by more than both
        # 2**-49 and 2**-33 * f, while the rounded factor is off by under
        # 2**-48 * f + 2**-50, so the check is left out there.
        if (t == horizon - 1 or null_mean < 2.0**-1020
                or k.min(initial=np.inf) < floor * (1.0 + 2.0**-30)
                or k.max(initial=0.0) > floor * 2.0**96):
            lam, wealth = lam.reshape(-1), k.reshape(-1)
            worst = wealth * _bet_factor(lam, np.zeros(lam.size), null_mean)
            short = np.flatnonzero(~(worst >= floor) & (lam > 0.0))
            for _ in range(8):
                if not short.size:
                    break
                ks, ls = wealth[short], lam[short]
                newton = ls - (floor - worst[short]) / (ks * null_mean)
                lam[short] = ls = np.fmax(np.fmin(np.nextafter(ls, 0.0), newton), 0.0)
                worst[short] = ks * _bet_factor(ls, np.zeros(ls.size), null_mean)
                short = short[~(worst[short] >= floor) & (ls > 0.0)]
            lam = lam.reshape(k.shape)
    return lam if k.ndim else float(lam)


@dataclass(frozen=True)
class StrategySpec:
    """Named strategy with its kind-specific parameter.

    Fixed and hedged_cs use lam; the dynamic floor uses floor.  Kelly takes
    its fraction from the experiment's hypothesis and the dynamic floor its
    horizon from the experiment, so neither is stored here.
    """

    kind: StrategyKind
    lam: float | None = None
    floor: float | None = None

    def constant_lambda(self, hyp: HypothesisSpec) -> float | None:
        """The fixed fraction bet under `hyp`, when the schedule is constant."""
        if self.kind is StrategyKind.KELLY:
            return kelly_lambda(hyp.null_param, hyp.alt_param)
        if self.kind in (StrategyKind.FIXED_LAMBDA, StrategyKind.HEDGED_CS):
            return self.lam
        return None


def build_strategy(spec: StrategySpec, hyp: HypothesisSpec, horizon: int) -> Strategy:
    """Turn a StrategySpec into a vectorized schedule lam(wealth, t) for an
    experiment testing `hyp` over `horizon` steps."""
    if spec.kind is StrategyKind.HEDGED_CS:
        raise ValueError("the two-sided hedged process is run with hedged_cs, "
                         "not a per-step fraction schedule")
    if spec.kind is StrategyKind.DYNAMIC_FLOOR:
        return lambda wealth, t: dynamic_lambda(wealth, t, horizon, spec.floor,
                                                hyp.null_mean)
    lam = spec.constant_lambda(hyp)
    if lam is None:
        raise ValueError(f"cannot build strategy for {spec.kind}")
    return lambda wealth, t: lam
