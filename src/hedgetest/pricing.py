"""Risk-neutral pricing of assets and European derivatives on test wealth.

Because the risk-neutral measure coincides with the null measure for these
processes (and the risk-free rate is 0 throughout), prices are plain null
expectations of payoffs.  Three routes are provided: exact backward
induction on a recombining binomial lattice, Monte Carlo over one seeded
stream drawn in fixed-size blocks, and the zero-rate Black-Scholes closed
form for log-normal wealth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import stream

#: Rows per Monte Carlo block: large enough to amortize the per-block numpy
#: calls, small enough that a block of outcomes stays a few hundred KB.
MC_BLOCK = 2048


class StrikeSolveError(RuntimeError):
    """No strike satisfies the hedge-floor equation."""


class ContractKind(enum.Enum):
    EUROPEAN_CALL = "call"
    EUROPEAN_PUT = "put"
    CUSTOM_EUROPEAN = "custom"


class PricingMethod(enum.Enum):
    LATTICE = "lattice"
    MONTE_CARLO = "monte_carlo"
    BLACK_SCHOLES = "black_scholes"


def risk_neutral_up_prob(u: float, d: float) -> float:
    """Probability q solving q*u + (1-q)*d = 1, i.e. the null measure at rate 0.

    u and d are the multiplicative up and down factors of the underlying;
    no arbitrage needs 0 < d < 1 < u.
    """
    if d <= 0.0:
        raise ValueError(f"down factor must be positive, got {d}")
    if not d < 1.0 < u:
        raise ValueError(f"arbitrage-violating factors: need d < 1 < u, got d={d}, u={u}")
    return (1.0 - d) / (u - d)


@dataclass(frozen=True)
class LatticeModel:
    """Recombining binomial lattice of a wealth process: its two factors.

    It has no depth: each contract or strike solve reads it to its own
    expiry.  Building one is the only check of 0 < d < 1 < u.
    """

    up_factor: float
    down_factor: float

    def __post_init__(self):
        risk_neutral_up_prob(self.up_factor, self.down_factor)

    @property
    def risk_neutral_prob(self) -> float:
        return risk_neutral_up_prob(self.up_factor, self.down_factor)

    def terminal_values(self, expiry: int, spot: float = 1.0) -> np.ndarray:
        """Underlying values at the expiry level, indexed by up-move count.

        A value beyond the double range is a ValueError, not inf.
        """
        j = np.arange(expiry + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            values = spot * self.up_factor ** j * self.down_factor ** (expiry - j)
        if not np.isfinite(values).all():
            raise ValueError(
                f"lattice values overflow: u={self.up_factor!r}, d={self.down_factor!r} "
                f"over {expiry} steps from spot {spot!r} leave the double range")
        return values

    @classmethod
    def for_bernoulli_bet(cls, lam: float, null_p: float) -> "LatticeModel":
        """Lattice of a constant-fraction bet on Bernoulli(null_p) outcomes.

        One step multiplies wealth by 1 + lam*(1 - p) or 1 - lam*p; the
        risk-neutral up probability then equals the null p itself.
        """
        return cls(1.0 + lam * (1.0 - null_p), 1.0 - lam * null_p)


@dataclass(frozen=True)
class Contract:
    """European contract on terminal wealth: payoff depends on K_tau only."""

    kind: ContractKind
    strike: float
    expiry: int
    payoff_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 <= self.strike < math.inf:
            raise ValueError(f"strike must be nonnegative and finite, got {self.strike}")
        if self.expiry < 1:
            raise ValueError(f"expiry must be positive, got {self.expiry}")
        if self.kind is ContractKind.CUSTOM_EUROPEAN and self.payoff_fn is None:
            raise ValueError("custom contract needs a payoff function")

    def payoff(self, terminal):
        """Payoff at expiry; accepts a scalar or an array of terminal values."""
        k = np.asarray(terminal, dtype=float)
        if self.kind is ContractKind.EUROPEAN_CALL:
            out = np.maximum(k - self.strike, 0.0)
        elif self.kind is ContractKind.EUROPEAN_PUT:
            out = np.maximum(self.strike - k, 0.0)
        else:
            out = np.asarray(self.payoff_fn(k), dtype=float)
        return float(out) if np.isscalar(terminal) else out

    @classmethod
    def call(cls, strike: float, expiry: int) -> "Contract":
        return cls(ContractKind.EUROPEAN_CALL, strike, expiry)

    @classmethod
    def put(cls, strike: float, expiry: int) -> "Contract":
        return cls(ContractKind.EUROPEAN_PUT, strike, expiry)


@dataclass(frozen=True)
class PriceEstimate:
    value: float
    std_error: float
    method: PricingMethod

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise ValueError(f"price and standard error must be finite, "
                             f"got {self.value} and {self.std_error}")
        if self.value < 0.0 and self.value > -1e-15:
            object.__setattr__(self, "value", 0.0)
        if self.value < 0.0:
            raise ValueError(f"price must be nonnegative, got {self.value}")
        if self.std_error < 0.0:
            raise ValueError(f"standard error must be nonnegative, got {self.std_error}")


def lattice_node_values(model: LatticeModel, contract: Contract,
                        spot: float = 1.0) -> list[np.ndarray]:
    """Backward-induced contract values on every lattice node.

    Returns one array per time level t = 0..expiry; entry j of level t is
    the value at the node reached by j up-moves.  Level expiry holds the
    payoff itself.  At rate 0 there is no discounting: each parent value is
    q*up_child + (1-q)*down_child.
    """
    if not 0.0 <= spot < math.inf:
        raise ValueError(f"spot must be nonnegative and finite, got {spot}")
    q = model.risk_neutral_prob
    values = contract.payoff(model.terminal_values(contract.expiry, spot))
    levels = [np.asarray(values, dtype=float)]
    for _ in range(contract.expiry):
        values = q * values[1:] + (1.0 - q) * values[:-1]
        levels.append(values)
    levels.reverse()
    return levels


def lattice_price(model: LatticeModel, contract: Contract,
                  spot: float = 1.0) -> PriceEstimate:
    """Exact lattice price of a European contract (std_error 0)."""
    root = lattice_node_values(model, contract, spot)[0][0]
    return PriceEstimate(float(root), 0.0, PricingMethod.LATTICE)


def mc_price(null_sampler: Callable[[np.random.Generator, tuple[int, int]], np.ndarray],
             process: Callable[[np.ndarray], np.ndarray],
             contract: Contract,
             n: int,
             seed: int) -> PriceEstimate:
    """Monte Carlo price: sample mean of the payoff over simulated wealths.

    Parameters
    ----------
    null_sampler : callable(rng, shape) -> outcomes
        Draws an array of outcomes from the null (risk-neutral) measure.
    process : callable(outcomes[m, tau]) -> terminal[m]
        Evolves each row of outcomes to its wealth at the contract expiry.
    n : int
        Number of replications, at least 2.
    seed : int
        Stream seed.  The replications are drawn from the one stream
        (seed) in consecutive blocks of MC_BLOCK rows, so the estimate
        depends on the seed alone.
    """
    if n < 2:
        raise ValueError(f"need at least 2 replications, got {n}")
    rng = stream(seed)
    payoffs = np.empty(n)
    for start in range(0, n, MC_BLOCK):
        stop = min(start + MC_BLOCK, n)
        outcomes = null_sampler(rng, (stop - start, contract.expiry))
        payoffs[start:stop] = contract.payoff(process(outcomes))
    # payoffs past the float range average to inf or NaN, which
    # PriceEstimate rejects with one error; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(payoffs.mean())
        se = float(payoffs.std(ddof=1) / math.sqrt(n))
    return PriceEstimate(value, se, PricingMethod.MONTE_CARLO)


def black_scholes_call(spot: float, strike: float, sigma: float,
                       time_to_expiry: float) -> float:
    """Zero-rate Black-Scholes call value.

    spot*Phi(d1) - strike*Phi(d2) with
    d1 = (ln(spot/strike) + sigma**2 * dt / 2) / (sigma*sqrt(dt)),
    d2 = d1 - sigma*sqrt(dt), floored at 0 so rounding dust never makes a
    price negative.
    """
    if spot <= 0.0 or strike <= 0.0:
        raise ValueError("spot and strike must be positive")
    if sigma <= 0.0 or time_to_expiry <= 0.0:
        raise ValueError("volatility and time to expiry must be positive")
    vol = sigma * math.sqrt(time_to_expiry)
    d1 = (math.log(spot / strike) + 0.5 * sigma * sigma * time_to_expiry) / vol
    d2 = d1 - vol
    from scipy.special import ndtr    # loaded on first use: import stays numpy-only
    return max(spot * ndtr(d1) - strike * ndtr(d2), 0.0)


def black_scholes_put(spot: float, strike: float, sigma: float,
                      time_to_expiry: float) -> float:
    """Zero-rate put via parity: strike - spot + call, floored at 0."""
    return max(strike - spot + black_scholes_call(spot, strike, sigma, time_to_expiry), 0.0)


def put_floor_strikes(atoms, weights, floor: float) -> list[float]:
    """All strikes S > 0 with (1 - C(S)) * S = floor, in increasing order.

    C(S) = sum_j weights[j] * max(S - atoms[j], 0) is the put price under
    the discrete measure with mass weights[j] on terminal value atoms[j].
    Between consecutive sorted atoms the residual is the quadratic
    -W*S**2 + (1 + M)*S - floor, W and M the sums of the weights and of
    weights*atoms below S, so every root has a closed form.  Empty when the
    floor is unattainable at any strike.

    Tie rule: equal atoms are summed in increasing order of weight, so the
    roots depend on the measure alone and not on the order of the pairs.
    When every weight is equal, as for the n samples of a Monte Carlo
    measure, the atoms are sorted alone: no order of the pairs can differ,
    so the rule is unchanged and the argsort and its gathers are skipped.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor {floor} must lie in (0, 1)")
    x, w = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    if x.shape != w.shape or not np.all((x >= 0.0) & (x < np.inf)
                                        & (w >= 0.0) & (w < np.inf)):
        raise ValueError("need one finite nonnegative weight per finite nonnegative atom")
    if w.size and (w == w[0]).all():
        x = np.sort(x)
    else:
        order = np.argsort(x)
        ascending = x[order]
        if np.any(ascending[1:] == ascending[:-1]):
            order = np.lexsort((w, x))
            ascending = x[order]
        x, w = ascending, w[order]
    # interval k is (lo[k], hi[k]] with the k smallest atoms below it
    lo = np.concatenate(([0.0], x))
    hi = np.concatenate((x, [np.inf]))
    mass = np.concatenate(([0.0], np.cumsum(w)))
    b = 1.0 + np.concatenate(([0.0], np.cumsum(w * x)))
    disc = b * b - 4.0 * mass * floor
    real = disc >= 0.0
    q = b + np.sqrt(np.where(real, disc, 0.0))
    small = 2.0 * floor / q          # also the root of the linear case mass = 0
    with np.errstate(divide="ignore"):
        large = q / (2.0 * mass)
    keep_small = real & (lo < small) & (small <= hi)
    keep_large = (disc > 0.0) & (mass > 0.0) & (lo < large) & (large <= hi)
    return sorted(small[keep_small].tolist() + large[keep_large].tolist())


def solve_hedge_strike(model: LatticeModel, floor: float, horizon: int,
                       spot: float = 1.0) -> list[float]:
    """put_floor_strikes over the lattice's binomial measure `horizon` steps out.

    C(S) is the price of the horizon-expiry put at strike S: buying the put
    for C and keeping the rest invested leaves exactly (1 - C(S))*S in the
    worst case, so a root makes that worst case equal the desired floor.
    """
    # the ufunc behind the stats package's binom.pmf, so the weights match it
    # bit for bit without that slow import; a math.comb product would not
    from scipy.special._ufuncs import _binom_pmf
    pmf = _binom_pmf(np.arange(horizon + 1), horizon, model.risk_neutral_prob)
    roots = put_floor_strikes(model.terminal_values(horizon, spot), pmf, floor)
    if not roots:
        raise StrikeSolveError(
            f"no strike reaches floor {floor} at horizon {horizon}")
    return roots
