"""Risk-neutral pricing of assets and European derivatives on test wealth.

Because the risk-neutral measure coincides with the null measure for these
processes (and the risk-free rate is 0 throughout), prices are plain null
expectations of payoffs.  Three routes are provided: exact backward
induction on a recombining binomial lattice, Monte Carlo over one seeded
stream drawn in blocks, and the zero-rate Black-Scholes closed
form for log-normal wealth.

The closed form and the expression-matrix transform (ingest) share one
standard normal CDF, normal_cdf: Cephes ndtr evaluated in numpy, every
value the same double as the C routine gives.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import Callable

import numpy as np

from .rng import stream

#: Rows of the first Monte Carlo block and the fewest of any later one:
#: enough to amortize the per-block numpy calls on a table of floats.
MC_BLOCK = 2048
#: Bytes of sampled outcomes a later block grows to when a row is small (a
#: packed fair-coin path is one 8-byte word): 16,384 such rows a block.  A
#: block of outcomes and the arrays made from it stay in L2.
MC_BLOCK_BYTES = 128 * 1024
#: Values per normal_cdf block: a block's scratch arrays (under 1 MB) stay in L2.
CDF_BLOCK = 32768

# Cephes ndtr (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989): erf(x) = x T(x^2) / U(x^2) for |x| < 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8), exp(-x^2) R(x) / S(x) from 8 on.
# U, Q and S are monic; their leading 1 is left out, as Cephes does.
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2      # ln(2**1024): exp(-x*x) is taken as 0 past it


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
        """spot * up_count_nodes(u, d, expiry): the underlying's values at the
        expiry level by up-move count.  One beyond the double range is a
        ValueError, not inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = spot * up_count_nodes(self.up_factor, self.down_factor, expiry)
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
        Draws a block of shape (m, tau) paths from the null (risk-neutral)
        measure: an outcome table, or any form of it the process reads.
    process : callable(outcomes) -> terminal[m]
        Maps each path of a block to its wealth at the contract expiry.
    n : int
        Number of replications, at least 2.
    seed : int
        Stream seed.  The replications are drawn from the one stream
        (seed) in consecutive blocks: MC_BLOCK rows first, then as many as
        fit the previous block's outcome bytes per row into MC_BLOCK_BYTES,
        never fewer than MC_BLOCK.  A sampler draws its rows in stream
        order, so the estimate depends on the seed alone, not on the blocks.
    """
    if n < 2:
        raise ValueError(f"need at least 2 replications, got {n}")
    rng = stream(seed)
    payoffs = np.empty(n)
    start, rows = 0, MC_BLOCK
    while start < n:
        stop = min(start + rows, n)
        outcomes = null_sampler(rng, (stop - start, contract.expiry))
        payoffs[start:stop] = contract.payoff(process(outcomes))
        rows = max(MC_BLOCK, MC_BLOCK_BYTES * (stop - start) // outcomes.nbytes)
        start = stop
    # payoffs past the float range average to inf or NaN, which
    # PriceEstimate rejects with one error; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(payoffs.mean())
        se = float(payoffs.std(ddof=1) / math.sqrt(n))
    return PriceEstimate(value, se, PricingMethod.MONTE_CARLO)


def _polevl(x, coef, out):
    """Cephes polevl into out: ((coef[0]*x + coef[1])*x + ...)*x + coef[-1]."""
    np.multiply(x, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _p1evl(x, coef, out):
    """Cephes p1evl into out: _polevl with a leading coefficient 1 before coef."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erfc_from_one(z) -> np.ndarray:
    """Cephes erfc(z) of a 1-d array with every z >= 1, as a new array.

    (exp(-z*z) * P(z)) / Q(z), with R/S in place of P/Q from 8 on and 0
    where -z*z < -MAXLOG.  z is clipped at 27 (27**2 > MAXLOG) first, so no
    square or polynomial overflows.  exp is libm's, as in Cephes: numpy's
    float64 exp is a SIMD kernel of its own that differs in the last bit on
    a few percent of these arguments, while its complex exp of (-z*z, 0) is
    libm's exp(-z*z) times cos 0 = 1.
    """
    z = np.minimum(z, 27.0)
    power = np.zeros(z.size, complex)
    np.multiply(z, z, out=power.real)
    np.negative(power.real, out=power.real)
    under = np.flatnonzero(power.real < -_MAXLOG)
    np.exp(power, out=power)
    p = _polevl(z, _NDTR_P, np.empty_like(z))
    q = _p1evl(z, _NDTR_Q, np.empty_like(z))
    far = np.flatnonzero(z >= 8.0)
    if far.size:
        p[far] = _polevl(z[far], _NDTR_R, np.empty(far.size))
        q[far] = _p1evl(z[far], _NDTR_S, np.empty(far.size))
    np.multiply(power.real, p, out=p)
    p /= q
    p[under] = 0.0
    return p


def normal_cdf(a, out=None) -> np.ndarray:
    """Standard normal CDF of every value of a, as Cephes ndtr evaluates it.

    With x = a/sqrt(2): 0.5 + 0.5*erf(x) for |x| < sqrt(1/2), else
    y = 0.5*erfc(|x|) with erfc(z) = 1 - erf(z) below 1, and 1 - y for
    x > 0.  Same coefficients, Horner order and branches as Cephes, so every
    value is its double bit for bit; NaN stays NaN.  Returns an array of
    a's shape, written into out when given (a C-contiguous float array of
    that shape, which may be a itself).  Work runs in blocks of CDF_BLOCK
    values: erf on every value of a block (x clipped to [-1, 1]), then the
    tail |x| >= sqrt(1/2) gathered by index and written back.
    """
    a = np.asarray(a, dtype=float)
    if out is None:
        out = np.empty(a.shape)
    elif out.shape != a.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float array of a's shape")
    values, result = a.reshape(-1), out.reshape(-1)
    size = min(values.size, CDF_BLOCK)
    x, z, u, tail_mask = np.empty(size), np.empty(size), np.empty(size), np.empty(size, bool)
    for start in range(0, values.size, CDF_BLOCK):
        stop = min(start + CDF_BLOCK, values.size)
        n = stop - start
        xb, zb, ub, y = x[:n], z[:n], u[:n], result[start:stop]
        np.multiply(values[start:stop], _SQRT1_2, out=xb)
        np.clip(xb, -1.0, 1.0, out=ub)
        np.multiply(ub, ub, out=zb)
        _polevl(zb, _NDTR_T, y)
        y *= ub
        y /= _p1evl(zb, _NDTR_U, ub)                    # y = erf(x) where |x| < 1
        np.abs(xb, out=zb)
        tail = np.flatnonzero(np.greater_equal(zb, _SQRT1_2, out=tail_mask[:n]))
        erfc = y[tail]
        y *= 0.5
        y += 0.5
        x_tail, z_tail = xb[tail], zb[tail]
        np.abs(erfc, out=erfc)
        np.subtract(1.0, erfc, out=erfc)                # erfc(z) = 1 - erf(z) for z < 1
        large = np.flatnonzero(z_tail >= 1.0)
        if large.size:
            erfc[large] = _erfc_from_one(z_tail[large])
        erfc *= 0.5
        # (x > 0) - copysign(h, x) is 1 - h for x > 0 and 0 - (-h) = h for x < 0
        np.copysign(erfc, x_tail, out=erfc)
        y[tail] = np.subtract(x_tail > 0.0, erfc, out=erfc)
    return out


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
    cdf1, cdf2 = normal_cdf([d1, d1 - vol]).tolist()
    return max(spot * cdf1 - strike * cdf2, 0.0)


def black_scholes_put(spot: float, strike: float, sigma: float,
                      time_to_expiry: float) -> float:
    """Zero-rate put via parity: strike - spot + call, floored at 0."""
    return max(strike - spot + black_scholes_call(spot, strike, sigma, time_to_expiry), 0.0)


def _interval_sums(atoms, weights):
    """(x, mass, moment): the atoms in ascending order, and for each k the
    weight and the weighted atom sum of the k smallest atoms.

    Interval k is (x[k-1], x[k]], with x[-1] = 0 and x[n] = inf: exactly the
    k smallest atoms lie below it, so on it C(S) = mass[k]*S - moment[k].
    Tie rule: equal atoms are summed in increasing order of weight, so the
    sums depend on the measure alone and not on the order of the pairs.
    """
    x, w = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    if x.shape != w.shape or not np.all((x >= 0.0) & (x < np.inf)
                                        & (w >= 0.0) & (w < np.inf)):
        raise ValueError("need one finite nonnegative weight per finite nonnegative atom")
    order = np.lexsort((w, x))
    x, w = x[order], w[order]
    return (x, np.concatenate(([0.0], np.cumsum(w))),
            np.concatenate(([0.0], np.cumsum(w * x))))


def put_floor_strikes(atoms, weights, floor: float) -> list[float]:
    """All strikes S > 0 with (1 - C(S)) * S = floor, in increasing order.

    C(S) = sum_j weights[j] * max(S - atoms[j], 0) is the put price under
    the discrete measure with mass weights[j] on terminal value atoms[j].
    Between consecutive sorted atoms the residual is the quadratic
    -W*S**2 + (1 + M)*S - floor, W and M the sums of the weights and of
    weights*atoms below S, so every root has a closed form.  Empty when the
    floor is unattainable at any strike.  The roots depend on the measure
    alone (see _interval_sums).
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor {floor} must lie in (0, 1)")
    x, mass, moment = _interval_sums(atoms, weights)
    lo = np.concatenate(([0.0], x))
    hi = np.concatenate((x, [np.inf]))
    b = 1.0 + moment
    disc = b * b - 4.0 * mass * floor
    real = disc >= 0.0
    q = b + np.sqrt(np.where(real, disc, 0.0))
    small = 2.0 * floor / q          # also the root of the linear case mass = 0
    with np.errstate(divide="ignore", over="ignore"):    # inf: no root in a finite interval
        large = q / (2.0 * mass)
    keep_small = real & (lo < small) & (small <= hi)
    keep_large = (disc > 0.0) & (mass > 0.0) & (lo < large) & (large <= hi)
    return sorted(small[keep_small].tolist() + large[keep_large].tolist())


def full_budget_strike(atoms, weights, floor: float) -> float:
    """The one strike S with S / (1 + C(S)) = floor, C as in put_floor_strikes.

    The full budget buys s = 1/(1 + C) units of the process and s puts, so
    the unit wealth is spent and the worst case is s*S.  The residual
    r(S) = S - floor*(1 + C(S)) is -floor at 0 and has slope 1 - floor*W >=
    1 - floor > 0 while the weights sum to at most 1, so every floor in
    (0, 1) has exactly one root, and it is at most floor/(1 - floor).  On the
    interval below the first atom where r >= 0, r is linear with root
    S = floor*(1 - M)/(1 - floor*W).  The interval is chosen by r's sign at
    the atoms, not by where that formula lands, so rounding at an atom can
    never lose the root.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"floor {floor} must lie in (0, 1)")
    x, mass, moment = _interval_sums(atoms, weights)
    if mass[-1] > 1.0 + 1e-12:
        raise ValueError(f"weights sum to {mass[-1]!r}, more than 1")
    above = x - floor * (1.0 + mass[:-1] * x - moment[:-1]) >= 0.0     # r at each atom
    k = int(np.argmax(np.append(above, True)))
    return float(floor * (1.0 - moment[k]) / (1.0 - floor * mass[k]))


def floor_put(atoms, weights, floor: float, budget: str) -> tuple[float, float, float]:
    """(strike, premium, stake) of the put that floors wealth at `floor`.

    The premium is C = weights @ max(S - atoms, 0), and the unit buys stake
    units of the process and stake puts, so the worst case is stake*S.
    Budget "paper" has stake 1 - C and the lower root of (1 - C(S))*S =
    floor (put_floor_strikes; it engages more wealth in the bet), a
    StrikeSolveError when there is none.  Budget "full" spends the whole
    unit, stake 1/(1 + C), at the one root of S/(1 + C(S)) = floor
    (full_budget_strike).

    Rounding can leave stake*S a few ulps under the floor; the strike then
    takes Newton steps up on stake*S, each at least one ulp, until the
    rounded product holds the floor.  With W the mass below S the slope is
    stake - S*W ("paper") or stake*(1 - stake*S*W) ("full"); where it is not
    positive the step is one ulp.  A paper strike that would pass the upper
    root is a StrikeSolveError: no double between the roots holds the floor.
    """
    if budget == "paper":
        roots = put_floor_strikes(atoms, weights, floor)
        if not roots:
            raise StrikeSolveError(f"no strike reaches floor {floor}")
        strike = roots[0]
    elif budget == "full":
        strike = full_budget_strike(atoms, weights, floor)
    else:
        raise ValueError(f"budget must be 'paper' or 'full', got {budget!r}")
    atoms, weights = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    while True:
        premium = float(weights @ np.maximum(strike - atoms, 0.0))
        stake = 1.0 - premium if budget == "paper" else 1.0 / (1.0 + premium)
        short = floor - stake * strike
        if short <= 0.0:
            return strike, premium, stake
        below = strike * float(weights[atoms < strike].sum())
        slope = stake - below if budget == "paper" else stake * (1.0 - stake * below)
        step = math.nextafter(strike, math.inf)
        strike = max(step, strike + short / slope) if slope > 0.0 else step
        if budget == "paper" and strike > roots[-1]:
            raise StrikeSolveError(f"no floating-point strike up to the upper root "
                                   f"{roots[-1]!r} holds floor {floor}")


def _rounded_column(terms, exact) -> np.ndarray:
    """The doubles nearest x_0..x_n, x_0 = base**n and x_k = x_(k-1) * r_k.

    terms() gives base, n and r_1..r_n as nonnegative Decimals, once with
    every operation rounded down and once up: where the two bounds round to
    one double so does x_k, and elsewhere x_k is exact(k), in integers.
    """
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, localcontext
    bounds = []
    for rounding in (ROUND_FLOOR, ROUND_CEILING):
        with localcontext(Context(prec=40, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX)):
            base, e, ratios = terms()
            x = 1                               # x = base**n by squaring
            while e:
                if e & 1:
                    x = base * x
                base, e = base * base, e >> 1
            bounds.append(list(map(float, accumulate(ratios, mul, initial=x))))
    return np.array([lo if lo == hi else exact(k) for k, (lo, hi) in enumerate(zip(*bounds))])


def binomial_weights(n: int, q: float) -> np.ndarray:
    """C(n, k) * q**k * (1 - q)**(n - k) for k = 0..n, each correctly rounded:
    q in (0, 1) is the exact rational a/den of its double and 1 - q = b/den,
    so _rounded_column of (b/den)**n and the ratios (n - k)*a / ((k + 1)*b)."""
    from decimal import Decimal
    a, den = q.as_integer_ratio()
    b = den - a
    return _rounded_column(
        lambda: (Decimal(b) / den, n, (Decimal((n - k) * a) / ((k + 1) * b) for k in range(n))),
        lambda k: math.comb(n, k) * a ** k * b ** (n - k) / den ** n)


def up_count_nodes(up: float, down: float, n: int) -> np.ndarray:
    """up**j * down**(n - j) for j = 0..n, a lattice's terminal nodes by
    up-count (Cox, Ross & Rubinstein, 1979), each the exact product of the
    nonnegative doubles up and down correctly rounded (0**0 is 1): inf past
    the double range, 0 or a subnormal below it.  _rounded_column of down**n
    and the ratio up/down, read from the all-up end when down alone is 0."""
    from decimal import Decimal
    if down == 0.0 < up:
        return up_count_nodes(down, up, n)[::-1]
    (a, b), (c, d) = up.as_integer_ratio(), down.as_integer_ratio()

    def exact(j):
        try:
            return a ** j * c ** (n - j) / (b ** j * d ** (n - j))
        except OverflowError:                   # past the double range
            return math.inf
    return _rounded_column(
        lambda: (Decimal(down), n, repeat(Decimal(up) / Decimal(down) if up else Decimal(0), n)),
        exact)
