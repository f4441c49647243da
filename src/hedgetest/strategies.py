"""Predictable betting-fraction schedules.

A strategy is a vectorized callable lam(wealth, t): given the wealths K_t
of m paths (an array of shape (m,)) after t outcomes, it returns the
fraction bet on outcome t+1, one for all paths or one per path, so it
depends on the past only.  build_strategy turns a StrategySpec into one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .wealth import LOG_NORMAL_MAX_LAMBDA, Strategy


class StrategyKind(enum.Enum):
    KELLY = "kelly"
    FIXED_LAMBDA = "fixed"
    DYNAMIC_FLOOR = "dynamic"
    HEDGED_CS = "hedged_cs"
    ALL_OR_NOTHING_LOG_NORMAL = "all_or_nothing_log_normal"


def kelly_lambda(p0: float, p1: float) -> float:
    """Fraction whose update 1 + lam*(y - p0) is the likelihood ratio q(y)/p(y).

    For the canonical 0.5-vs-0.75 coin test this is 1.  Closed form
    (p1 - p0) / (p0 * (1 - p0)); degenerate nulls have no defined ratio.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"null probability {p0} must be inside (0, 1)")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"alternative probability {p1} must be in [0, 1]")
    return (p1 - p0) / (p0 * (1.0 - p0))


def conservative_lambda(floor: float, horizon: int, worst_step: float) -> float:
    """Fixed fraction whose all-losses path ends exactly at the floor.

    Solves (1 + lam*worst_step)**horizon = floor, where worst_step is the
    most adverse centered outcome (-0.5 for Bernoulli and bounded families).
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor {floor} must be in (0, 1)")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if worst_step >= 0.0:
        raise ValueError(f"worst step must be negative, got {worst_step}")
    return (floor ** (1.0 / horizon) - 1.0) / worst_step


def dynamic_lambda(current_wealth, t: int, horizon: int, floor: float):
    """Fraction that would land the worst-case continuation exactly on the floor.

    Solves floor = K_t * (1 + lam*(-0.5))**(horizon - t) for the Bernoulli
    worst step, clamped to the admissible range [0, 2] for bounded outcomes.
    At the floor itself only the zero bet preserves the guarantee.
    Array-aware: an array of wealths gives an array of fractions, a scalar
    a float.
    """
    k = np.asarray(current_wealth, dtype=float)
    if np.min(k) <= 0.0:
        raise ValueError(f"wealth must be positive, got {np.min(k)}")
    if t >= horizon:
        raise ValueError(f"step {t} must precede the horizon {horizon}")
    lam = np.clip(2.0 * (1.0 - (floor / k) ** (1.0 / (horizon - t))), 0.0, 2.0)
    return lam if k.ndim else float(lam)


@dataclass(frozen=True)
class StrategySpec:
    """Named strategy with its kind-specific parameters.

    Kelly uses (p0, p1); fixed and hedged_cs use lam; the dynamic floor uses
    (floor, horizon).  The all-or-nothing log-normal scheme has no free
    parameter (lam = exp(-1/2)).
    """

    kind: StrategyKind
    lam: float | None = None
    p0: float | None = None
    p1: float | None = None
    floor: float | None = None
    horizon: int | None = None

    def constant_lambda(self) -> float | None:
        """The fixed fraction used, when the schedule is constant."""
        if self.kind is StrategyKind.KELLY:
            return kelly_lambda(self.p0, self.p1)
        if self.kind in (StrategyKind.FIXED_LAMBDA, StrategyKind.HEDGED_CS):
            return self.lam
        if self.kind is StrategyKind.ALL_OR_NOTHING_LOG_NORMAL:
            return LOG_NORMAL_MAX_LAMBDA
        return None


def build_strategy(spec: StrategySpec) -> Strategy:
    """Turn a StrategySpec into a vectorized schedule lam(wealth, t)."""
    if spec.kind is StrategyKind.HEDGED_CS:
        raise ValueError("the two-sided hedged process is run with hedged_cs, "
                         "not a per-step fraction schedule")
    if spec.kind is StrategyKind.DYNAMIC_FLOOR:
        if spec.floor is None or spec.horizon is None:
            raise ValueError("dynamic floor strategy needs floor and horizon")
        floor, horizon = spec.floor, spec.horizon
        return lambda wealth, t: dynamic_lambda(wealth, t, horizon, floor)
    lam = spec.constant_lambda()
    if lam is None:
        raise ValueError(f"cannot build strategy for {spec.kind}")
    return lambda wealth, t: lam
