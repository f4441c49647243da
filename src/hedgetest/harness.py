"""End-to-end experiment runner with deterministic seeding.

Reproduces the Bernoulli power study, its distribution-shift variant and
the gene-screening study: n independent episodes, each simulating outcomes
from the configured truth, applying the betting strategy (plus an optional
put hedge bought at its risk-neutral price at t = 0), and the anytime-valid
decision rule.  Every episode steps through the one wealth engine,
wealth.evolve.  Replication i always draws row i of the counter-based
outcome table rows(seed, 0, ...), so results are byte-identical however
the replications are split into chunks.

Simulated experiments use Bernoulli outcomes (the truth may shift its
parameter at a change point); screening episodes run the two-sided hedged
process on bounded sequences supplied by the ingest pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import LAMBDA_GRID, estimate_lambdas
from .pricing import (MC_BLOCK, Contract, LatticeModel, StrikeSolveError,
                      lattice_node_values, put_floor_strikes,
                      solve_hedge_strike)
from .rng import DEFAULT_SEED, rows, stream
from .strategies import StrategyKind, StrategySpec, build_strategy
from .wealth import Family, HypothesisSpec, evolve, hedged_cs

_OUTCOME_TAG = 0     # per-replication outcome rows
_MATRIX_TAG = 1      # synthetic matrix generation
_PRICE_TAG = 2       # Monte Carlo pricing draws for screening hedges

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
    strike_mode: str = "solve"       # solve for the ruin floor, or explicit
    strike: float | None = None      # only with strike_mode "explicit"
    floor: float | None = None       # defaults to the experiment ruin level

    def __post_init__(self):
        if self.strike_mode not in ("solve", "explicit"):
            raise ConfigError(f"unknown strike mode {self.strike_mode!r}")
        if self.strike_mode == "explicit" and self.strike is None:
            raise ConfigError("explicit strike mode needs a strike")
        if self.strike_mode == "solve" and self.strike is not None:
            raise ConfigError("a hedge strike needs strike mode explicit")
        if self.strike is not None and not self.strike > 0.0:
            raise ConfigError(f"hedge strike must be positive, got {self.strike}")
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
        if self.strategy.kind is StrategyKind.DYNAMIC_FLOOR:
            if self.strategy.floor is None or self.strategy.horizon is None:
                raise ConfigError("dynamic strategy needs floor and horizon")
            if self.strategy.horizon != self.horizon:
                raise ConfigError(f"dynamic strategy horizon {self.strategy.horizon} "
                                  f"differs from the experiment horizon {self.horizon}")
        lam = self.strategy.constant_lambda()
        if lam is not None:
            lo, hi = self.hypothesis.lambda_bounds()
            two_sided = self.strategy.kind is StrategyKind.HEDGED_CS
            if not lo <= lam <= hi or (two_sided and not lo <= -lam <= hi):
                raise ConfigError(f"betting fraction {lam} outside the admissible "
                                  f"range [{lo}, {hi}]")
        if self.hedge is not None:
            self.hedge.resolve(self.horizon, self.ruin_level)
            if self.strategy.constant_lambda() is None:
                raise ConfigError("hedged episodes need a constant-fraction strategy")
            if self.strategy.kind is StrategyKind.HEDGED_CS:
                raise ConfigError("the two-sided process is hedged via run_screening")


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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "power": self.power,
            "avg_final_wealth": self.avg_final_wealth,
            "avg_max_wealth": self.avg_max_wealth,
            "avg_final_given_no_reject": self.avg_final_given_no_reject,
            "k_q": self.k_q,
            "expected_tail_wealth": self.expected_tail_wealth,
            "ruin_fraction": self.ruin_fraction,
        }


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
    lam = config.strategy.constant_lambda()
    expiry, floor = config.hedge.resolve(config.horizon, config.ruin_level)
    model = LatticeModel.for_bernoulli_bet(lam, config.hypothesis.null_param, expiry)
    if config.hedge.strike_mode == "solve":
        roots = solve_hedge_strike(model, floor, expiry)
        strike = roots[0]    # lower strike engages more wealth in the bet
    else:
        strike = config.hedge.strike
    marks = lattice_node_values(model, Contract.put(strike, expiry))
    return HedgePlan(strike, float(marks[0][0]), expiry, tuple(marks))


def _chunk_outcomes(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    ps = config.truth.step_probabilities(config.horizon)
    draws = rows(config.seed, _OUTCOME_TAG, start, stop, config.horizon)
    return (draws < ps[None, :]).astype(float)


def _max_and_crossing(w0, steps, threshold: float):
    """Final W_T, running max from W_0, and first t with W_t >= threshold (-1: never)."""
    w = maxw = w0
    crossing = np.full(np.shape(w0), -1, dtype=np.int64)
    for t, w in enumerate(steps, 1):
        maxw = np.maximum(maxw, w)
        crossing[(w >= threshold) & (crossing < 0)] = t
    return w, maxw, crossing


def _episode_wealth(config: ExperimentConfig, y: np.ndarray, plan: HedgePlan | None):
    """Yield the episodes' total wealths W_1..W_T, one array per step."""
    hyp = config.hypothesis
    if config.strategy.kind is StrategyKind.HEDGED_CS:
        yield from hedged_cs(y, config.strategy.lam, hyp)
        return
    strategy = build_strategy(config.strategy)
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
    return _max_and_crossing(np.full(y.shape[0], w0), _episode_wealth(config, y, plan),
                             1.0 / config.alpha)


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


def _null_terminal_sample(lam: float, tau: int, n: int, seed: int) -> np.ndarray:
    """n null draws of the two-sided terminal wealth K_tau.

    K_tau = 0.5*prod(1 + lam*dev) + 0.5*prod(1 - lam*dev) with dev = u - 1/2:
    only K_tau is needed, so the legs are closed-form products rather than
    steps of hedged_cs.  The uniforms come from the fraction's own stream in
    consecutive blocks of MC_BLOCK rows through two reused (tau, MC_BLOCK)
    buffers, so memory stays O(MC_BLOCK * tau) however many samples are
    drawn.  A block is drawn row-major, as one (n, tau) table would be, and
    stored transposed, so each product runs across a contiguous row of the
    buffer per step instead of along one long dependency chain per sample.
    The draws, and the left-to-right order of every product, are those of
    the one-table formula, so the samples are the same bits.
    """
    rng = stream(seed, _PRICE_TAG, int(round(lam * 1_000_000)), tau)
    up_buf, down_buf = np.empty((tau, MC_BLOCK)), np.empty((tau, MC_BLOCK))
    out = np.empty(n)
    for start in range(0, n, MC_BLOCK):
        stop = min(start + MC_BLOCK, n)
        block = stop - start
        draws = down_buf.reshape(-1)[:block * tau].reshape(block, tau)   # row-major
        rng.random(out=draws)
        up, down = up_buf[:, :block], down_buf[:, :block]
        np.subtract(draws.T, 0.5, out=up)       # dev, transposed; frees down_buf
        up *= lam
        np.subtract(1.0, up, out=down)
        up += 1.0
        out[start:stop] = 0.5 * np.prod(up, axis=0) + 0.5 * np.prod(down, axis=0)
    return out


def _screening_hedges(lambdas: np.ndarray, floor: float, tau: int, seed: int,
                      price_samples: int) -> tuple[np.ndarray, dict]:
    """Per-gene (effective lambda, strike, premium) for the floor equation.

    Premiums are Monte Carlo prices of the expiry-tau put on the gene's own
    two-sided process under the null.  A fraction too aggressive for the
    floor to be attainable falls back to the next smaller candidate whose
    equation has a root.
    """
    solved, fallback, last = {}, {}, None
    for lam in sorted(set(lambdas.tolist()) | set(LAMBDA_GRID)):
        samples = _null_terminal_sample(lam, tau, price_samples, seed)
        weights = np.full(price_samples, 1.0 / price_samples)
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
    fraction, so an explicit hedge strike is a ConfigError.
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
    if hedge is not None:
        if hedge.strike_mode == "explicit":
            raise ConfigError("screening solves one strike per gene; "
                              "an explicit hedge strike is not supported")
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

    final, maxw, crossing = _max_and_crossing(np.full(m, stake), wealth(), 1.0 / alpha)
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
    if not 0.0 <= shifted_fraction <= 1.0:
        raise ConfigError(f"shifted fraction {shifted_fraction} not in [0, 1]")
    if not 0.0 < shifted_mean < 1.0:
        raise ConfigError(f"shifted mean {shifted_mean} not in (0, 1)")
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

_STRATEGY_NAMES = {
    "kelly": StrategyKind.KELLY,
    "fixed": StrategyKind.FIXED_LAMBDA,
    "dynamic": StrategyKind.DYNAMIC_FLOOR,
    "hedged_cs": StrategyKind.HEDGED_CS,
}


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
    hyp = HypothesisSpec.bernoulli(raw.get("null_p", 0.5), raw.get("alt_p", 0.75))
    truth = TruthSpec(raw["truth_p"], raw.get("truth_p_post"), raw.get("change_at"))
    name = raw.get("strategy", "kelly")
    if name not in _STRATEGY_NAMES:
        raise ConfigError(f"unknown strategy {name!r}")
    kind = _STRATEGY_NAMES[name]
    ruin = raw.get("ruin_level", 0.25)
    if kind is StrategyKind.KELLY:
        strategy = StrategySpec(kind, p0=hyp.null_param, p1=hyp.alt_param)
    elif kind is StrategyKind.DYNAMIC_FLOOR:
        strategy = StrategySpec(kind, floor=raw.get("floor", ruin),
                                horizon=raw["horizon"])
    else:
        if "lambda" not in raw:
            raise ConfigError(f"strategy {name!r} needs a lambda")
        strategy = StrategySpec(kind, lam=raw["lambda"])
    hedge_kind = raw.get("hedge", "none")
    if hedge_kind not in ("none", "", "put"):
        raise ConfigError(f"only put hedges are supported, got {hedge_kind!r}")
    hedge = None
    if hedge_kind == "put":
        hedge = HedgeSpec(expiry=raw.get("hedge_expiry", 0),
                          strike_mode=raw.get("hedge_strike_mode", "solve"),
                          strike=raw.get("hedge_strike"),
                          floor=raw.get("hedge_floor"))
    return ExperimentConfig(
        hypothesis=hyp, truth=truth, strategy=strategy,
        horizon=raw["horizon"], replications=raw["replications"],
        alpha=raw.get("alpha", 0.05), ruin_level=ruin,
        seed=raw.get("seed", DEFAULT_SEED), hedge=hedge)


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
    out["strategy"] = {v: k for k, v in _STRATEGY_NAMES.items()}.get(kind, kind.value)
    if kind in (StrategyKind.FIXED_LAMBDA, StrategyKind.HEDGED_CS):
        out["lambda"] = config.strategy.lam
    if kind is StrategyKind.DYNAMIC_FLOOR:
        out["floor"] = config.strategy.floor
    out["hedge"] = "put" if config.hedge else "none"
    if config.hedge is not None:
        expiry, floor = config.hedge.resolve(config.horizon, config.ruin_level)
        out["hedge_expiry"] = expiry
        out["hedge_strike_mode"] = config.hedge.strike_mode
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


def result_csv(result: ExperimentResult) -> str:
    """Per-replication CSV with the resolved config in comment lines."""
    lines = [f"# {k} = {v}" for k, v in config_dict(result.config).items()]
    lines.append("replication,final_wealth,max_wealth,rejected,crossing_time")
    columns = zip(result.final_wealth.tolist(), result.max_wealth.tolist(),
                  result.rejected.tolist(), result.crossing_time.tolist())
    lines.extend(f"{i},{final:.17g},{maxw:.17g},{int(rejected)},"
                 f"{cross if cross >= 0 else ''}"
                 for i, (final, maxw, rejected, cross) in enumerate(columns))
    return "\n".join(lines) + "\n"


def result_json(result: ExperimentResult) -> str:
    """Aggregate JSON report: resolved config and seed, solved hedge, metrics."""
    plan = result.hedge_plan
    return to_json({"config": config_dict(result.config),
                    "hedge_plan": plan and {"strike": plan.strike, "premium": plan.premium,
                                            "expiry": plan.expiry},
                    "report": result.report.as_dict()}) + "\n"
