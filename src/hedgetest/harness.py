"""End-to-end experiment runner with deterministic seeding.

Reproduces the Bernoulli power study, its distribution-shift variant and
the gene-screening study: n independent episodes, each simulating outcomes
from the configured truth, applying the betting strategy (plus an optional
put hedge bought at its risk-neutral price at t = 0), and the anytime-valid
decision rule, wealth.ville_crossing.  Every episode steps through the one
wealth engine, wealth.evolve.  Replication i always draws row i of the
counter-based outcome table rows(seed, 0, ...), so results are
byte-identical however the replications are split into chunks.

Simulated experiments use Bernoulli outcomes (the truth may shift its
parameter at a change point); screening episodes run the two-sided hedged
process on bounded sequences supplied by the ingest pipeline.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .ingest import LAMBDA_GRID, estimate_lambdas
from .pricing import (MC_BLOCK, Contract, LatticeModel, StrikeSolveError,
                      lattice_node_values, put_floor_strikes,
                      solve_hedge_strike)
from .rng import DEFAULT_SEED, rows, stream
from .strategies import StrategyKind, StrategySpec, build_strategy
from .wealth import Family, HypothesisSpec, evolve, hedged_cs, ville_crossing

_OUTCOME_TAG = 0     # per-replication outcome rows
_MATRIX_TAG = 1      # synthetic matrix generation
_PRICE_TAG = 2       # Monte Carlo pricing draws for screening hedges
_PRICE_TABLE_ROWS = 16   # fractions priced per draw of the screening null table
_NULL_BLOCK = 1 << 16    # doubles per null-table buffer: three of them fit in L2

#: Tail quantile for the risk metrics (k_0.01 in the reports).
TAIL_Q = 0.01


class ConfigError(ValueError):
    """An experiment configuration that violates a precondition."""


@dataclass(frozen=True)
class TruthSpec:
    """Bernoulli data-generating parameter, optionally shifting mid-stream.

    Outcomes 1..change_at are Bernoulli(p); later ones Bernoulli(p_post).
    """

    p: float
    p_post: float | None = None
    change_at: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"truth parameter {self.p} not in [0, 1]")
        if (self.p_post is None) != (self.change_at is None):
            raise ConfigError("a shift needs both p_post and change_at")
        if self.p_post is not None and not 0.0 <= self.p_post <= 1.0:
            raise ConfigError(f"post-shift parameter {self.p_post} not in [0, 1]")
        if self.change_at is not None and self.change_at < 0:
            raise ConfigError(f"change point must be nonnegative, got {self.change_at}")

    def step_probabilities(self, horizon: int) -> np.ndarray:
        ps = np.full(horizon, self.p)
        if self.change_at is not None:
            if self.change_at > horizon:
                raise ConfigError(
                    f"change point {self.change_at} beyond horizon {horizon}")
            ps[self.change_at:] = self.p_post
        return ps


@dataclass(frozen=True)
class HedgeSpec:
    """Optional put bought at t = 0 on the episode's own wealth process."""

    expiry: int = 0                  # 0 means the experiment horizon
    strike: float | None = None      # None: solve for the floor
    floor: float | None = None       # defaults to the experiment ruin level

    def __post_init__(self):
        if self.strike is not None and not 0.0 < self.strike < math.inf:
            raise ConfigError(
                f"hedge strike must be positive and finite, got {self.strike}")
        if self.expiry < 0:
            raise ConfigError(f"hedge expiry must be nonnegative, got {self.expiry}")

    def resolve(self, horizon: int, ruin_level: float) -> tuple[int, float]:
        """(expiry, floor) over `horizon` steps: expiry 0 means the horizon and
        an unset floor is the ruin level."""
        expiry = self.expiry or horizon
        floor = ruin_level if self.floor is None else self.floor
        if not 0.0 < floor < 1.0:
            raise ConfigError(f"hedge floor {floor} not in (0, 1)")
        if expiry > horizon:
            raise ConfigError(f"hedge expiry {expiry} beyond horizon {horizon}")
        return expiry, floor


def check_seed(seed: int) -> None:
    """Reject a seed no random stream can take: streams need seed >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    hypothesis: HypothesisSpec
    truth: TruthSpec
    strategy: StrategySpec
    horizon: int
    replications: int
    alpha: float = 0.05
    ruin_level: float = 0.25
    seed: int = DEFAULT_SEED
    hedge: HedgeSpec | None = None

    def __post_init__(self):
        if self.hypothesis.family is not Family.BERNOULLI:
            raise ConfigError("simulated experiments use Bernoulli outcomes")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.replications < 1:
            raise ConfigError(f"need at least one replication, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.ruin_level < 1.0 < 1.0 / self.alpha:
            raise ConfigError("need ruin_level < 1 < 1/alpha")
        check_seed(self.seed)
        if self.strategy.kind is StrategyKind.DYNAMIC_FLOOR:
            floor = self.strategy.floor
            if floor is None or not 0.0 < floor < 1.0:
                raise ConfigError(f"dynamic floor {floor} not in (0, 1)")
        lam = self.strategy.constant_lambda(self.hypothesis)
        if lam is not None:
            lo, hi = self.hypothesis.lambda_bounds()
            two_sided = self.strategy.kind is StrategyKind.HEDGED_CS
            if not lo <= lam <= hi or (two_sided and not lo <= -lam <= hi):
                raise ConfigError(f"betting fraction {lam} outside the admissible "
                                  f"range [{lo}, {hi}]")
        if self.hedge is not None:
            self.hedge.resolve(self.horizon, self.ruin_level)
            if lam is None:
                raise ConfigError("hedged episodes need a constant-fraction strategy")
            if self.strategy.kind is StrategyKind.HEDGED_CS:
                raise ConfigError("the two-sided process is hedged via run_screening")
            try:
                LatticeModel.for_bernoulli_bet(lam, self.hypothesis.null_param)
            except ValueError as exc:
                raise ConfigError(f"a put hedge needs a fraction whose lattice has "
                                  f"0 < d < 1 < u; fraction {lam!r} gives: {exc}") from exc


@dataclass(frozen=True)
class RiskReport:
    n: int
    power: float
    avg_final_wealth: float
    avg_max_wealth: float
    avg_final_given_no_reject: float
    k_q: float
    expected_tail_wealth: float
    ruin_fraction: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    final_wealth: np.ndarray
    max_wealth: np.ndarray
    rejected: np.ndarray
    crossing_time: np.ndarray        # -1 where the threshold was never hit
    report: RiskReport
    hedge_plan: HedgePlan | None


def tail_metrics(final_wealths, q: float) -> tuple[float, float]:
    """Tail quantile k_q and the mean of the values at or below it.

    Uses the linear-interpolation empirical quantile; the tail mean is the
    conditional-value-at-risk analog reported in the tables.
    """
    values = np.asarray(final_wealths, dtype=float)
    if values.size == 0:
        raise ValueError("tail metrics need a nonempty set of final wealths")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    k_q = float(np.quantile(values, q))
    return k_q, float(values[values <= k_q].mean())


def _summarize(ruin_level, final, maxw, crossing) -> RiskReport:
    rejected = crossing >= 0
    non_rejecting = final[~rejected]
    if non_rejecting.size:
        k_q, tail = tail_metrics(non_rejecting, TAIL_Q)
        avg_nr = float(non_rejecting.mean())
        ruin = float((non_rejecting < ruin_level).mean())
    else:
        k_q = tail = avg_nr = ruin = math.nan
    return RiskReport(
        n=final.size,
        power=float(rejected.mean()),
        avg_final_wealth=float(final.mean()),
        avg_max_wealth=float(maxw.mean()),
        avg_final_given_no_reject=avg_nr,
        k_q=k_q,
        expected_tail_wealth=tail,
        ruin_fraction=ruin,
    )


@dataclass(frozen=True)
class HedgePlan:
    """Solved hedge for one experiment: strike, premium and node marks."""

    strike: float
    premium: float
    expiry: int
    marks: tuple          # marks[t][j]: put value after t steps and j up-moves


def _hedge_plan(config: ExperimentConfig) -> HedgePlan:
    lam = config.strategy.constant_lambda(config.hypothesis)
    expiry, floor = config.hedge.resolve(config.horizon, config.ruin_level)
    model = LatticeModel.for_bernoulli_bet(lam, config.hypothesis.null_param)
    strike = config.hedge.strike
    if strike is None:
        roots = solve_hedge_strike(model, floor, expiry)
        strike = roots[0]    # lower strike engages more wealth in the bet
    marks = lattice_node_values(model, Contract.put(strike, expiry))
    premium = float(marks[0][0])
    if premium >= 1.0:       # never for a solved strike: (1 - C)*S = floor > 0
        raise ConfigError(f"hedge strike {strike!r} costs {premium!r}; an explicit "
                          f"strike must cost less than 1, the unit wealth")
    return HedgePlan(strike, premium, expiry, tuple(marks))


def _chunk_outcomes(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    ps = config.truth.step_probabilities(config.horizon)
    draws = rows(config.seed, _OUTCOME_TAG, start, stop, config.horizon)
    return (draws < ps[None, :]).astype(float)


def _episode_wealth(config: ExperimentConfig, y: np.ndarray, plan: HedgePlan | None):
    """Yield the episodes' total wealths W_1..W_T, one array per step."""
    hyp = config.hypothesis
    if config.strategy.kind is StrategyKind.HEDGED_CS:
        yield from hedged_cs(y, config.strategy.lam, hyp)
        return
    strategy = build_strategy(config.strategy, hyp, config.horizon)
    if plan is None:
        for k, _ in evolve(strategy, y, hyp):
            yield k
        return
    # up to expiry the stake rides the unit process plus the put marked at its node
    stake = 1.0 - plan.premium
    ups = np.zeros(y.shape[0], dtype=np.int64)
    for t, (k_hat, _) in enumerate(evolve(strategy, y[:, :plan.expiry], hyp), 1):
        ups += y[:, t - 1].astype(np.int64)
        w = stake * (k_hat + plan.marks[t][ups])
        yield w
    # payoff realized at expiry; the proceeds ride the strategy afterwards
    for w, _ in evolve(strategy, y[:, plan.expiry:], hyp, start=w, t0=plan.expiry):
        yield w


def _run_chunk(config: ExperimentConfig, start: int, stop: int,
               plan: HedgePlan | None):
    """Evolve episodes [start, stop); returns (final, max, crossing) arrays."""
    y = _chunk_outcomes(config, start, stop)
    w0 = 1.0 if plan is None else (1.0 - plan.premium) * (1.0 + plan.marks[0][0])
    return ville_crossing(np.full(y.shape[0], w0), _episode_wealth(config, y, plan),
                          config.alpha)


def run_experiment(config: ExperimentConfig, chunks: int = 1) -> ExperimentResult:
    """Run all replications in `chunks` consecutive slices; the outcome is
    independent of the count."""
    if chunks < 1:
        raise ConfigError(f"chunk count must be at least 1, got {chunks}")
    plan = _hedge_plan(config) if config.hedge is not None else None
    n = config.replications
    bounds = np.linspace(0, n, min(chunks, n) + 1).astype(int)
    parts = [_run_chunk(config, int(a), int(b), plan)
             for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    final, maxw, crossing = (np.concatenate(p) for p in zip(*parts))
    report = _summarize(config.ruin_level, final, maxw, crossing)
    return ExperimentResult(config, final, maxw, crossing >= 0, crossing, report, plan)


# ---------------------------------------------------------------------------
# Gene screening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreeningResult:
    final_wealth: np.ndarray
    max_wealth: np.ndarray
    rejected: np.ndarray
    crossing_time: np.ndarray
    report: RiskReport
    effective_lambdas: np.ndarray
    strike_table: dict               # lambda -> (strike, premium); empty unhedged
    fallback_genes: int              # genes whose fraction fell back to a smaller one

    @property
    def proportion_rejected(self) -> float:
        return self.report.power


def _null_terminal_rows(rng: np.random.Generator, lams: list[float], out: np.ndarray,
                        dev_buf: np.ndarray, up_buf: np.ndarray,
                        down_buf: np.ndarray) -> None:
    """Fill out[i] with the next out.shape[1] null K_tau draws at fraction lams[i].

    The rows go in consecutive blocks of the buffers' width, and every
    fraction prices the same block of rng's uniforms.  A block is drawn
    row-major, as one (n, tau) table would be, and its dev = u - 1/2 is
    stored transposed once, so each product runs across a contiguous row
    of the buffer per step instead of along one long dependency chain per
    sample.
    """
    tau, width = dev_buf.shape
    n = out.shape[1]
    for start in range(0, n, width):
        stop = min(start + width, n)
        block = stop - start
        draws = up_buf.reshape(-1)[:block * tau].reshape(block, tau)   # row-major
        rng.random(out=draws)
        dev, up, down = dev_buf[:, :block], up_buf[:, :block], down_buf[:, :block]
        np.subtract(draws.T, 0.5, out=dev)      # the draws are spent: up_buf is free
        for lam, row in zip(lams, out):
            np.multiply(dev, lam, out=up)
            np.subtract(1.0, up, out=down)
            up += 1.0
            row[start:stop] = 0.5 * np.prod(up, axis=0) + 0.5 * np.prod(down, axis=0)


def _null_terminal_table(lams: list[float], tau: int, seed: int,
                         out: np.ndarray) -> np.ndarray:
    """Fill out, shape (len(lams), n), with n null draws of the two-sided
    terminal wealth K_tau per fraction, and return it.

    Row i is K_tau = 0.5*prod(1 + lam*dev) + 0.5*prod(1 - lam*dev) at
    lam = lams[i], dev = u - 1/2, with one (n, tau) table of uniforms from
    the stream (seed, _PRICE_TAG, tau) shared by every fraction (common
    random numbers): each row is n i.i.d. null samples, and only the
    dependence between fractions is shared.  Only K_tau is needed, so the
    legs are closed-form products rather than steps of hedged_cs.  The rows
    [0, n) are cut into one contiguous range per CPU the process may use (at
    most n; a single range runs inline), and range [a, b) is drawn on its
    own thread from the stream jumped ahead by a * tau draws, so every
    sample gets the same uniforms whatever the CPU count.  The draws, and
    the left-to-right order of every product, are those of the one-table
    formula, so the samples are the same bits.

    Memory is the caller's table plus, per range, three (tau, width)
    buffers, width = min(_NULL_BLOCK // tau, ceil(MC_BLOCK / ranges))
    samples, at least 1 and at most the range's length.  A buffer holds at
    most _NULL_BLOCK doubles, so a range's working set stays in one core's
    L2 cache, and the ranges together hold fewer than MC_BLOCK + ranges
    samples, so the buffers stay within about one (tau, MC_BLOCK) triple
    however many CPUs there are.  The block width sets only how the rows
    are cut, never a bit of a sample.  The calling thread allocates the
    buffers, and a thread allocates only its per-block (block,)
    temporaries.  Large arrays freed on worker threads would stay in glibc's
    per-thread arenas and raise the peak RSS, which is also why the strike
    solve stays on the calling thread.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    n = out.shape[1]
    ranges = max(1, min(cpus, n))
    bounds = [n * i // ranges for i in range(ranges + 1)]
    width = max(1, min(_NULL_BLOCK // tau, -(-MC_BLOCK // ranges), -(-n // ranges)))
    jobs = [(stream(seed, _PRICE_TAG, tau, skip=a * tau), lams, out[:, a:b],
             np.empty((tau, width)), np.empty((tau, width)), np.empty((tau, width)))
            for a, b in zip(bounds, bounds[1:])]
    if len(jobs) == 1:
        _null_terminal_rows(*jobs[0])
        return out
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(len(jobs)) as pool:
        for future in [pool.submit(_null_terminal_rows, *job) for job in jobs]:
            future.result()
    return out


def _screening_hedges(lambdas: np.ndarray, floor: float, tau: int, seed: int,
                      price_samples: int) -> tuple[np.ndarray, dict]:
    """Per-gene (effective lambda, strike, premium) for the floor equation.

    Premiums are Monte Carlo prices of the expiry-tau put on the gene's own
    two-sided process under the null, the candidate fractions priced in
    ascending chunks of at most _PRICE_TABLE_ROWS on one reused table of
    _null_terminal_table, so its memory is bounded however many distinct
    fractions there are.  A fraction too aggressive for the floor to be
    attainable falls back to the next smaller candidate whose equation has
    a root.
    """
    candidates = sorted(set(lambdas.tolist()) | set(LAMBDA_GRID))
    table = np.empty((min(len(candidates), _PRICE_TABLE_ROWS), price_samples))
    weights = np.full(price_samples, 1.0 / price_samples)
    solved, fallback, last = {}, {}, None
    for first in range(0, len(candidates), len(table)):
        chunk = candidates[first:first + len(table)]
        _null_terminal_table(chunk, tau, seed, table[:len(chunk)])
        for lam, samples in zip(chunk, table):
            roots = put_floor_strikes(samples, weights, floor)
            if roots:
                last = lam
                solved[lam] = (roots[0], float(np.maximum(roots[0] - samples, 0.0).mean()))
            fallback[lam] = last        # largest solvable candidate <= lam
    effective = [fallback[lam] for lam in lambdas.tolist()]
    if None in effective:
        raise StrikeSolveError(f"floor {floor} unattainable for any candidate fraction "
                               f"<= {lambdas[effective.index(None)]}")
    return np.array(effective), {lam: solved[lam] for lam in sorted(set(effective))}


def run_screening(sequences: np.ndarray, lambdas: np.ndarray, *,
                  alpha: float = 0.05, ruin_level: float = 0.5,
                  hedge: HedgeSpec | None = None, seed: int = DEFAULT_SEED,
                  price_samples: int = 100_000) -> ScreeningResult:
    """One two-sided betting episode per gene.

    Each gene's process starts with 0.5 on each side of the null mean.  With
    a hedge, a put on the gene's unit process is bought at t = 0 (premium C,
    strike solving (1-C)*S = ruin_level at the gene's fraction), the stake
    1-C rides the process, and at expiry an in-the-money put is exercised:
    the position is liquidated at the strike and held as cash, which pins
    the worst case at the floor.  Out-of-the-money genes keep betting their
    stake.  A hedge expiring before the last sample only guarantees the
    floor at its own expiry.  The strike is always solved, one per
    fraction, so an explicit hedge strike is a ConfigError.  Every
    candidate fraction is priced on the same price_samples null paths, on
    a table of min(candidate fractions, _PRICE_TABLE_ROWS) * price_samples
    doubles that lives while the strikes are solved.
    """
    sequences = np.asarray(sequences, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if sequences.ndim != 2 or sequences.shape[0] != lambdas.shape[0]:
        raise ValueError("need one fraction per gene row")
    if np.any((sequences < 0.0) | (sequences > 1.0)):
        raise ValueError("screening sequences must lie in [0, 1]")
    if np.any((lambdas < 0.0) | (lambdas > 2.0)):
        raise ValueError("screening fractions must lie in [0, 2]")
    m, horizon = sequences.shape
    if m == 0 or horizon == 0:
        raise ConfigError(f"need at least one gene and one test sample, got "
                          f"{m} genes and {horizon} samples")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    check_seed(seed)
    if hedge is not None:
        if hedge.strike is not None:
            raise ConfigError("screening solves one strike per gene; "
                              "an explicit hedge strike is not supported")
        if price_samples < 2:
            raise ConfigError(f"hedge pricing needs at least 2 price samples, "
                              f"got {price_samples}")
        tau, floor = hedge.resolve(horizon, ruin_level)
    if not ruin_level < 1.0 < 1.0 / alpha:
        raise ConfigError("need ruin_level < 1 < 1/alpha")
    if hedge is None:
        lam_eff, table, stake, tau = lambdas, {}, 1.0, horizon + 1   # never exercised
    else:
        lam_eff, table = _screening_hedges(lambdas, floor, tau, seed, price_samples)
        strike = np.array([table[l][0] for l in lam_eff])
        stake = 1.0 - np.array([table[l][1] for l in lam_eff])

    def wealth():
        for t, k_hat in enumerate(hedged_cs(sequences, lam_eff), 1):
            if t == tau:
                exercised, cash = k_hat < strike, stake * strike
            yield stake * k_hat if t < tau else np.where(exercised, cash, stake * k_hat)

    final, maxw, crossing = ville_crossing(np.full(m, stake), wealth(), alpha)
    report = _summarize(ruin_level, final, maxw, crossing)
    return ScreeningResult(final, maxw, crossing >= 0, crossing, report,
                           lam_eff, table, int(np.count_nonzero(lam_eff < lambdas)))


def synthetic_uniform_matrix(n_genes: int, n_samples: int, seed: int,
                             shifted_fraction: float = 0.0,
                             shifted_mean: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic transformed matrix: Uniform(0,1) nulls, mean-shifted head rows.

    Shifted genes draw U**theta with theta = 1/mean - 1, which keeps [0, 1]
    support while moving the mean.  Returns (matrix, shifted mask).
    """
    if n_genes < 0:
        raise ConfigError(f"gene count must be nonnegative, got {n_genes}")
    if not 0.0 <= shifted_fraction <= 1.0:
        raise ConfigError(f"shifted fraction {shifted_fraction} not in [0, 1]")
    if not 0.0 < shifted_mean < 1.0:
        raise ConfigError(f"shifted mean {shifted_mean} not in (0, 1)")
    check_seed(seed)
    rng = stream(seed, _MATRIX_TAG)
    x = rng.random((n_genes, n_samples))
    n_shift = int(round(shifted_fraction * n_genes))
    if n_shift:
        x[:n_shift] = x[:n_shift] ** (1.0 / shifted_mean - 1.0)
    mask = np.zeros(n_genes, dtype=bool)
    mask[:n_shift] = True
    return x, mask


def synthetic_screening_input(n_genes: int, n_samples: int, seed: int,
                              shifted_fraction: float = 0.0,
                              shifted_mean: float = 0.5,
                              grid=LAMBDA_GRID):
    """Matrix plus the held-out split and plug-in fractions, ready to screen.

    The first two columns stand in for the held-out tumor samples, so at
    least one test sample needs n_samples >= 3.
    """
    if n_samples < 3:
        raise ConfigError(f"need at least 3 samples (2 held out), got {n_samples}")
    x, mask = synthetic_uniform_matrix(n_genes, n_samples, seed,
                                       shifted_fraction, shifted_mean)
    lambdas = estimate_lambdas(x[:, :2], grid)
    return x[:, 2:], lambdas, mask


# ---------------------------------------------------------------------------
# Config files and machine-readable output
# ---------------------------------------------------------------------------

_INT_KEYS = {"change_at", "horizon", "replications", "seed", "hedge_expiry"}
_FLOAT_KEYS = {"null_p", "alt_p", "truth_p", "truth_p_post", "lambda", "floor",
               "alpha", "ruin_level", "hedge_strike", "hedge_floor"}
_STR_KEYS = {"family", "strategy", "hedge", "hedge_strike_mode"}


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines (# comments allowed) into a typed dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                raw[key] = int(value)
            elif key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key in _STR_KEYS:
                raw[key] = value
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed key-value pairs."""
    family = raw.get("family", "bernoulli")
    if family != "bernoulli":
        raise ConfigError(f"simulated experiments support family bernoulli, got {family!r}")
    missing = {"truth_p", "horizon", "replications"} - raw.keys()
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    try:
        hyp = HypothesisSpec.bernoulli(raw.get("null_p", 0.5), raw.get("alt_p", 0.75))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    truth = TruthSpec(raw["truth_p"], raw.get("truth_p_post"), raw.get("change_at"))
    name = raw.get("strategy", "kelly")
    try:
        kind = StrategyKind(name)
    except ValueError as exc:
        raise ConfigError(f"unknown strategy {name!r}") from exc
    ruin = raw.get("ruin_level", 0.25)
    if kind is StrategyKind.KELLY:
        strategy = StrategySpec(kind)
    elif kind is StrategyKind.DYNAMIC_FLOOR:
        strategy = StrategySpec(kind, floor=raw.get("floor", ruin))
    else:
        if "lambda" not in raw:
            raise ConfigError(f"strategy {name!r} needs a lambda")
        strategy = StrategySpec(kind, lam=raw["lambda"])
    hedge_kind = raw.get("hedge", "none")
    if hedge_kind not in ("none", "", "put"):
        raise ConfigError(f"only put hedges are supported, got {hedge_kind!r}")
    hedge = None
    if hedge_kind == "put":
        mode, strike = raw.get("hedge_strike_mode", "solve"), raw.get("hedge_strike")
        if mode not in ("solve", "explicit"):
            raise ConfigError(f"unknown strike mode {mode!r}")
        if mode == "explicit" and strike is None:
            raise ConfigError("explicit strike mode needs a strike")
        if mode == "solve" and strike is not None:
            raise ConfigError("a hedge strike needs strike mode explicit")
        hedge = HedgeSpec(raw.get("hedge_expiry", 0), strike, raw.get("hedge_floor"))
    config = ExperimentConfig(
        hypothesis=hyp, truth=truth, strategy=strategy,
        horizon=raw["horizon"], replications=raw["replications"],
        alpha=raw.get("alpha", 0.05), ruin_level=ruin,
        seed=raw.get("seed", DEFAULT_SEED), hedge=hedge)
    if hedge is None:
        return config
    # store the resolved hedge, so the config equals the one its own
    # config_dict describes
    expiry, floor = hedge.resolve(config.horizon, ruin)
    return replace(config, hedge=replace(hedge, expiry=expiry, floor=floor))


def load_config(path) -> ExperimentConfig:
    return config_from_dict(parse_config_text(Path(path).read_text()))


def config_dict(config: ExperimentConfig) -> dict:
    """Flat resolved view of a config, mirroring the file keys."""
    out = {
        "family": "bernoulli",
        "null_p": config.hypothesis.null_param,
        "alt_p": config.hypothesis.alt_param,
        "truth_p": config.truth.p,
    }
    if config.truth.change_at is not None:
        out["truth_p_post"] = config.truth.p_post
        out["change_at"] = config.truth.change_at
    kind = config.strategy.kind
    out["strategy"] = kind.value
    if kind in (StrategyKind.FIXED_LAMBDA, StrategyKind.HEDGED_CS):
        out["lambda"] = config.strategy.lam
    if kind is StrategyKind.DYNAMIC_FLOOR:
        out["floor"] = config.strategy.floor
    out["hedge"] = "put" if config.hedge else "none"
    if config.hedge is not None:
        expiry, floor = config.hedge.resolve(config.horizon, config.ruin_level)
        out["hedge_expiry"] = expiry
        out["hedge_strike_mode"] = "solve" if config.hedge.strike is None else "explicit"
        if config.hedge.strike is not None:
            out["hedge_strike"] = config.hedge.strike
        out["hedge_floor"] = floor
    out.update(horizon=config.horizon, replications=config.replications,
               alpha=config.alpha, ruin_level=config.ruin_level, seed=config.seed)
    return out


def format_float(x: float) -> str:
    """Serialize with 17 significant digits so determinism is checkable."""
    return f"{float(x):.17g}"


def to_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats (NaN -> null)."""
    if isinstance(obj, dict):
        items = ", ".join(f"{to_json(str(k))}: {to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj) if math.isfinite(obj) else "null"
    raise TypeError(f"cannot serialize {type(obj)}")


_NEEDS_QUOTES = frozenset(',"\r\n')
#: Ends each string of a byte blob and pads each cell to its column's width:
#: never a byte of UTF-8 text, so dropping it drops padding and nothing else.
_PAD = b"\xff"
_ROW_BLOCK = 1 << 16   # cells per block of CSV rows: bounds the writer's temporaries


def _cells(blob: bytes) -> np.ndarray:
    """One row per 0xFF-ended string of `blob`: its bytes, left-aligned, then padding."""
    text = np.frombuffer(blob, np.uint8)
    ends = np.flatnonzero(text == _PAD[0])
    size = np.diff(ends, prepend=-1) - 1
    mask = np.arange(size.max(initial=0)) < size[:, None]
    table = np.full(mask.shape, _PAD[0], np.uint8)
    table[mask] = np.delete(text, ends)
    return table


def text_cells(fields) -> np.ndarray:
    """Cells of strings in UTF-8, quoted as csv.writer's QUOTE_MINIMAL does: a field
    with a comma, a quote, CR or LF goes in quotes, each inner quote doubled."""
    quoted = ('"' + f.replace('"', '""') + '"' if _NEEDS_QUOTES.intersection(f) else f
              for f in fields)
    return _cells(b"".join(f.encode() + _PAD for f in quoted))


def float_cells(values) -> list[np.ndarray]:
    """Cells of each column of a 2-d array: `f"{x:.17g}"`, formatted by one `%`
    call once per distinct int64 bit view, so -0.0 and each NaN keep their text."""
    keys = np.ascontiguousarray(values, np.float64).view(np.int64)
    distinct, index = np.unique(keys, return_inverse=True)
    doubles = tuple(distinct.view(np.float64).tolist())
    table = _cells((b"%.17g" + _PAD) * len(doubles) % doubles)
    return [table.take(i, 0) for i in index.reshape(keys.shape).T]


def int_cells(values) -> np.ndarray:
    """Cells of the decimal digits of each integer; a negative one is blank."""
    values = np.asarray(values, np.int64)
    powers = [10 ** k for k in range(len(str(max(int(values.max(initial=0)), 0))))]
    digits = [np.where(values >= (p if p > 1 else 0), values // p % 10 + ord("0"), _PAD[0])
              for p in reversed(powers)]
    return np.stack(digits, axis=1).astype(np.uint8)


def csv_rows(columns) -> str:
    """CSV rows of the cell tables `columns`, side by side with a comma column
    between each two and a newline column at the end; padding dropped in one pass.

    A 2-d float64 array in `columns` stands for its own columns, cells from
    float_cells.  Rows go in blocks of about _ROW_BLOCK cells, formatted and
    joined block by block, so only the returned text grows with the input."""
    widths = [c.shape[1] if c.dtype == np.float64 else 1 for c in columns]
    rows, step = len(columns[0]), max(1, _ROW_BLOCK // sum(widths))
    pieces = []
    for start in range(0, rows, step):
        block = [cells for c in columns for cells in
                 (float_cells(c[start:start + step]) if c.dtype == np.float64
                  else [c[start:start + step]])]
        comma, end = (np.full((len(block[0]), 1), ord(c), np.uint8) for c in ",\n")
        parts = [part for column in block for part in (comma, column)][1:] + [end]
        pieces.append(np.hstack(parts).tobytes().translate(None, _PAD).decode())
    return "".join(pieces)


def _episode_csv(comments: dict, leading: str, result, first, floats=()) -> str:
    """`# key = value` lines for `comments`, the header, then one row per
    episode: the `first` cells and the `floats` columns (named `leading`),
    then final and max wealth, rejected and crossing time (blank: never)."""
    lines = [f"# {k} = {v}\n" for k, v in comments.items()]
    lines.append(f"{leading},final_wealth,max_wealth,rejected,crossing_time\n")
    doubles = np.column_stack([*floats, result.final_wealth, result.max_wealth])
    return "".join(lines) + csv_rows([first, doubles, int_cells(result.rejected),
                                      int_cells(result.crossing_time)])


def result_csv(result: ExperimentResult) -> str:
    """Per-replication CSV with the resolved config in comment lines."""
    return _episode_csv(config_dict(result.config), "replication", result,
                        int_cells(np.arange(result.final_wealth.size)))


def screening_csv(result: ScreeningResult, gene_ids, comments: dict) -> str:
    """Per-gene CSV of a screen, after `# key = value` lines for `comments`."""
    return _episode_csv(comments, "gene,lambda", result, text_cells(gene_ids),
                        [result.effective_lambdas])


def result_json(result: ExperimentResult) -> str:
    """Aggregate JSON report: resolved config and seed, solved hedge, metrics."""
    plan = result.hedge_plan
    return to_json({"config": config_dict(result.config),
                    "hedge_plan": plan and {"strike": plan.strike, "premium": plan.premium,
                                            "expiry": plan.expiry},
                    "report": asdict(result.report)}) + "\n"
