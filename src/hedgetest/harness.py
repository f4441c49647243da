"""End-to-end experiment runner with deterministic seeding.

Reproduces the Bernoulli power study, its distribution-shift variant and
the gene-screening study: n independent episodes, each simulating outcomes
from the configured truth, applying the betting strategy (plus an optional
put hedge bought at its risk-neutral price at t = 0), and the anytime-valid
decision rule, wealth.ville_crossing.  Every episode steps through the one
wealth engine, wealth.evolve.  Replication i always draws row i of one
outcome table, rng.bernoulli over the stream (seed, 3) jumped ahead by
i * row_words(ps) outputs, so results are byte-identical however the
replications are split into chunks.  A row whose step probabilities are
all multiples of 2**-k, k <= 8, takes ceil(k·T/64) outputs (one for the
shipped configs); any other takes T.

Simulated experiments use Bernoulli outcomes (the truth may shift its
parameter at a change point); screening episodes run the two-sided hedged
process on bounded sequences supplied by the ingest pipeline.

Every CSV is written by csv_rows from byte tables of cells, and every number
cell comes from one numpy digit routine (_digits): integers directly, and
doubles with |x| in [1e-4, 1e17) through their exact 17-digit significands
(_significands), so no Python object is made per value.  Other doubles go
through one `%` call; either way the text is `f"{x:.17g}"`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .ingest import N_HELD_OUT, estimate_lambdas
from .pricing import (Contract, LatticeModel, binomial_weights, floor_put,
                      lattice_node_values, up_count_nodes)
from .rng import DEFAULT_SEED, MAX_SEED, bernoulli, row_words, stream
from .strategies import StrategyKind, StrategySpec, build_strategy
from .wealth import Family, HypothesisSpec, evolve, hedged_cs, ville_crossing

_OUTCOME_TAG = 3     # per-replication outcome rows; 0 would be mc_price's stream
_MATRIX_TAG = 1      # synthetic matrix generation
# tag 2 is retired (the screen's former Monte Carlo null draws): no new stream reuses it

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

    def resolve(self, horizon: int, ruin_level: float) -> HedgeSpec:
        """This hedge over `horizon` steps with its expiry and floor set:
        expiry 0 means the horizon and an unset floor is the ruin level.  A
        resolved spec resolves to itself."""
        expiry = self.expiry or horizon
        floor = ruin_level if self.floor is None else self.floor
        if not 0.0 < floor < 1.0:
            raise ConfigError(f"hedge floor {floor} not in (0, 1)")
        if expiry > horizon:
            raise ConfigError(f"hedge expiry {expiry} beyond horizon {horizon}")
        return replace(self, expiry=expiry, floor=floor)


def check_seed(seed: int) -> None:
    """Reject a seed no random stream can take: streams need one 32-bit word,
    0 <= seed < 2**32 (see rng.stream)."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if seed > MAX_SEED:
        raise ConfigError(f"seed must be at most 2**32 - 1 = {MAX_SEED}, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated experiment.  Its hedge is kept resolved (HedgeSpec.resolve),
    so replace(cfg, horizon=h) or replace(cfg, ruin_level=r) keeps its expiry
    and floor, even ones left to default to the horizon and the ruin level."""

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
        self.truth.step_probabilities(self.horizon)    # change point within the horizon
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
            object.__setattr__(self, "hedge", self.hedge.resolve(self.horizon, self.ruin_level))
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
    """Solved hedge for one experiment: strike, premium, stake and node marks."""

    strike: float
    premium: float
    stake: float          # units of the process, and of puts, the unit buys
    expiry: int
    marks: tuple          # marks[t][j]: put value after t steps and j up-moves


def _hedge_plan(config: ExperimentConfig) -> HedgePlan:
    """The put hedge of a constant-fraction config, priced on its lattice.

    A solved strike is floor_put's "paper" strike on the lattice measure
    `expiry` steps out (terminal values under binomial_weights), with its
    premium C and stake 1 - C: paid as stake*max(K, S), no path ends below
    the floor.  An explicit strike is priced by the root of its marks.
    Either way the marks are backward-induced once.
    """
    lam = config.strategy.constant_lambda(config.hypothesis)
    expiry, floor = config.hedge.expiry, config.hedge.floor
    model = LatticeModel.for_bernoulli_bet(lam, config.hypothesis.null_param)
    strike = config.hedge.strike
    solved = strike is None
    if solved:
        strike, premium, stake = floor_put(
            model.terminal_values(expiry),
            binomial_weights(expiry, model.risk_neutral_prob), floor, "paper")
    marks = lattice_node_values(model, Contract.put(strike, expiry))
    if not solved:
        premium = float(marks[0][0])
        stake = 1.0 - premium
        if premium >= 1.0:   # never for a solved strike: (1 - C)*S >= floor > 0
            raise ConfigError(f"hedge strike {strike!r} costs {premium!r}; an explicit "
                              f"strike must cost less than 1, the unit wealth")
    return HedgePlan(strike, premium, stake, expiry, tuple(marks))


def _chunk_outcomes(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    """Bernoulli outcomes 0.0/1.0 of replications [start, stop), a
    (stop - start, horizon) float64 table: rows start..stop - 1 of
    rng.bernoulli over the stream (seed, 3), each step at its truth
    parameter, so row i is drawn the same in any chunk."""
    ps = config.truth.step_probabilities(config.horizon)
    rng = stream(config.seed, _OUTCOME_TAG, skip=start * row_words(ps))
    return bernoulli(rng, ps, stop - start)


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
    # before expiry the stake rides the unit process plus the put marked at its
    # node; at expiry the put pays on the path's own wealth: stake*max(K_t, S)
    stake = plan.stake
    ups = np.zeros(y.shape[0], dtype=np.int64)
    for t, (k_hat, _) in enumerate(evolve(strategy, y[:, :plan.expiry], hyp), 1):
        ups += y[:, t - 1].astype(np.int64)
        w = (stake * (k_hat + plan.marks[t][ups]) if t < plan.expiry
             else stake * np.maximum(k_hat, plan.strike))
        yield w
    # the proceeds ride the strategy afterwards
    for w, _ in evolve(strategy, y[:, plan.expiry:], hyp, start=w, t0=plan.expiry):
        yield w


def _run_chunk(config: ExperimentConfig, start: int, stop: int,
               plan: HedgePlan | None):
    """Evolve episodes [start, stop); returns (final, max, crossing) arrays."""
    y = _chunk_outcomes(config, start, stop)
    w0 = 1.0 if plan is None else plan.stake * (1.0 + plan.marks[0][0])
    return ville_crossing(w0, _episode_wealth(config, y, plan), config.alpha)


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
    lambdas: np.ndarray
    strike_table: dict               # lambda -> (strike, premium, stake); empty unhedged

    @property
    def proportion_rejected(self) -> float:
        return self.report.power


def two_point_terminals(lam: float, tau: int, cap: float) -> np.ndarray:
    """K_tau of the two-sided process at fraction lam on outcomes in {0, 1},
    by up-count j = 0..tau: 0.5*(N[j] + N[tau - j]) with N the
    up_count_nodes(u, v, tau) of the factors u = 1 + lam/2 and v = 1 - lam/2
    that hedged_cs multiplies by.  Each leg is held at 2*cap, so no atom is
    inf at any tau; a value whose leg was held is still at least cap.
    """
    legs = np.minimum(up_count_nodes(1.0 + lam / 2.0, 1.0 - lam / 2.0, tau), 2.0 * cap)
    return 0.5 * (legs + legs[::-1])


def _screening_hedges(lambdas: np.ndarray, floor: float, tau: int) -> dict:
    """(strike, premium, stake) of the full-budget put at each fraction in use.

    The screen's null is every law of mean 1/2 on [0, 1], and the premium
    is the expiry-tau put's price under the dearest of them.  K_tau is
    affine in each outcome, so (S - K_tau)^+ is convex in each, and on
    [0, 1] a convex g has g(y) <= (1 - y)*g(0) + y*g(1): an outcome of mean
    1/2 prices the put at most as Bernoulli(1/2) does.  By backward
    induction (an average of convex functions stays convex) the put is
    dearest when every outcome is Bernoulli(1/2), where K_tau depends only
    on the up-count (two_point_terminals, correctly rounded legs) under
    binomial_weights(tau, 1/2), computed once for all fractions.  Each row
    is floor_put's "full" budget on that measure: the unit buys stake =
    1/(1 + C) units of the process and stake puts.  The root is at most
    floor/(1 - floor), so the atoms are held at that bound.
    """
    weights = binomial_weights(tau, 0.5)
    cap = floor / (1.0 - floor)
    return {lam: floor_put(two_point_terminals(lam, tau, cap), weights, floor, "full")
            for lam in sorted(set(lambdas.tolist()))}


def run_screening(sequences: np.ndarray, lambdas: np.ndarray, *,
                  alpha: float = 0.05, ruin_level: float = 0.5,
                  hedge: HedgeSpec | None = None) -> ScreeningResult:
    """One two-sided betting episode per gene.

    Each gene's process starts with 0.5 on each side of the null mean.  With
    a hedge, the unit buys stake s = 1/(1 + C) units of the gene's process
    and s puts of premium C at strike S, solving S/(1 + C) = ruin_level at
    the gene's fraction (_screening_hedges).  The put is carried at 0 before
    expiry, so the episode starts at s; at expiry an in-the-money put is
    exercised: the position is liquidated at the strike and held as cash
    s*S = ruin_level, which pins the worst case at the floor.
    Out-of-the-money genes keep betting their stake.  A hedge expiring
    before the last sample only guarantees the floor at its own expiry.
    The strike is always solved, one per fraction, so an explicit hedge
    strike is a ConfigError.  Nothing is drawn at random.
    """
    sequences = np.asarray(sequences, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if sequences.ndim != 2 or sequences.shape[0] != lambdas.shape[0]:
        raise ValueError("need one fraction per gene row")
    if not np.all((lambdas >= 0.0) & (lambdas <= 2.0)):    # NaN too
        raise ValueError("screening fractions must lie in [0, 2]")
    m, horizon = sequences.shape
    if m == 0 or horizon == 0:
        raise ConfigError(f"need at least one gene and one test sample, got "
                          f"{m} genes and {horizon} samples")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if hedge is not None:
        if hedge.strike is not None:
            raise ConfigError("screening solves one strike per gene; "
                              "an explicit hedge strike is not supported")
        hedge = hedge.resolve(horizon, ruin_level)
    if not ruin_level < 1.0 < 1.0 / alpha:
        raise ConfigError("need ruin_level < 1 < 1/alpha")
    if hedge is None:
        table, stake, tau = {}, 1.0, horizon + 1   # never exercised
    else:
        tau = hedge.expiry
        table = _screening_hedges(lambdas, hedge.floor, tau)
        keys, index = np.unique(lambdas, return_inverse=True)
        rows = np.array([table[lam] for lam in keys.tolist()])[index]
        strike, stake = rows[:, 0], rows[:, 2]

    def wealth():
        for t, k_hat in enumerate(hedged_cs(sequences, lambdas), 1):
            if t == tau:
                exercised, cash = k_hat < strike, stake * strike
            yield stake * k_hat if t < tau else np.where(exercised, cash, stake * k_hat)

    final, maxw, crossing = ville_crossing(stake, wealth(), alpha)
    report = _summarize(ruin_level, final, maxw, crossing)
    return ScreeningResult(final, maxw, crossing >= 0, crossing, report, lambdas, table)


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
                              shifted_mean: float = 0.5):
    """Matrix plus the held-out split and plug-in fractions, ready to screen.

    The first N_HELD_OUT columns stand in for the held-out tumor samples,
    so at least one test sample needs n_samples > N_HELD_OUT.
    """
    if n_samples <= N_HELD_OUT:
        raise ConfigError(f"need at least {N_HELD_OUT + 1} samples ({N_HELD_OUT} held out), "
                          f"got {n_samples}")
    x, mask = synthetic_uniform_matrix(n_genes, n_samples, seed,
                                       shifted_fraction, shifted_mean)
    lambdas = estimate_lambdas(x[:, :N_HELD_OUT])
    return x[:, N_HELD_OUT:], lambdas, mask


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
    out["strategy"] = kind.value
    if kind in (StrategyKind.FIXED_LAMBDA, StrategyKind.HEDGED_CS):
        out["lambda"] = config.strategy.lam
    if kind is StrategyKind.DYNAMIC_FLOOR:
        out["floor"] = config.strategy.floor
    out["hedge"] = "put" if config.hedge else "none"
    if config.hedge is not None:
        out["hedge_expiry"] = config.hedge.expiry
        out["hedge_strike_mode"] = "solve" if config.hedge.strike is None else "explicit"
        if config.hedge.strike is not None:
            out["hedge_strike"] = config.hedge.strike
        out["hedge_floor"] = config.hedge.floor
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


def csv_field(text: str) -> str:
    """`text` as csv.writer's QUOTE_MINIMAL writes a field: in quotes, each inner
    quote doubled, if it holds a comma, a quote, CR or LF; as it is otherwise.
    A field that starts with `#` is quoted too: the row it leads would read
    as one of the file's `#` comment lines."""
    if _NEEDS_QUOTES.intersection(text) or text.startswith("#"):
        return '"' + text.replace('"', '""') + '"'
    return text


def text_cells(fields) -> np.ndarray:
    """Cells of strings in UTF-8, each quoted by csv_field.  When none needs
    quotes they are encoded at once: an LF ends each, and is then the one
    LF, comma, quote or CR of the text, and no string starts with `#`."""
    fields = list(fields)
    text = "\n".join(fields + [""])
    if (text.count("\n") == len(fields) and not any(c in text for c in ',"\r')
            and "\n#" not in "\n" + text):
        return _cells(text.encode().replace(b"\n", _PAD))
    return _cells(b"".join(csv_field(f).encode() + _PAD for f in fields))


# The digit tables are built by copies: a table of 10,000 Python strings, or
# integer ufuncs nothing else runs, would stay in the resident size of every
# process, CSV or not.
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
#: The four ASCII digits of 0000..9999, each as one 4-byte word: the digit
#: for 10**k repeats 10**k times and cycles
_QUADS = np.stack([np.tile(np.repeat(_DIGITS, 10 ** k), 10 ** (3 - k)) for k in (3, 2, 1, 0)],
                  axis=1).view(np.uint32).ravel()
#: Row s: padding in the first s of 23 columns, zero bytes in the rest
_LEADING = np.frombuffer(b"".join(_PAD * s + bytes(23 - s) for s in range(24)),
                         np.uint8).reshape(24, 23)
#: The doubles 1e-4 .. 1e16.  Those below 1 lie above their powers of ten and
#: the rest are exact, so a double a in [1e-4, 1e17) has floor(log10(a)) =
#: searchsorted(_TENS, a, "right") - 5, exactly.
_TENS = np.array([float(f"1e{k}") for k in range(-4, 17)])
#: 10**(21 - i) for that searchsorted index i, exact doubles, and Veltkamp's
#: split of each into a high half of 26 bits and the rest
_SCALE = np.array([float(10 ** (21 - i)) for i in range(22)])
_SPLIT = 2.0 ** 27 + 1
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI


def _digits(d: np.ndarray, n: int) -> np.ndarray:
    """The last n decimal digits of each nonnegative int64 of d, as ASCII
    bytes: four at a time, each group of four one word of _QUADS."""
    quads = -(-n // 4)
    words = np.empty((d.size, quads), np.uint32)
    for col in range(quads - 1, -1, -1):
        high = d // 10_000
        words[:, col] = _QUADS.take(d - high * 10_000)
        d = high
    return words.view(np.uint8)[:, 4 * quads - n:]


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) for doubles with |x| in [1e-4, 1e17): |x| rounded half to even
    to 17 significant digits is d * 10**(e - 16), with 10**16 <= d < 10**17.

    With e = floor(log10 |x|), |x|*10**(16 - e) lies in [1e16, 1e17), and
    Dekker's product gives it exactly as p + err, p its nearest double.  p is
    an even integer above 2**53, so p + rint(err) is that value rounded half
    to even, as dtoa rounds.  It never rounds up to 10**17: the double below
    each power of ten lies more than 8 units of the 17th digit below it.
    """
    a = np.abs(x)
    i = np.searchsorted(_TENS, a, "right")         # e + 5
    p = a * _SCALE[i]
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    hi, lo = _SCALE_HI[i], _SCALE_LO[i]
    err = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64), i - 5


def _fixed_cells(x: np.ndarray) -> np.ndarray:
    """Cells of `f"{x:.17g}"` for doubles with |x| in [1e-4, 1e17), in
    fixed notation, without a Python object per value: the sign, the digits
    of _significands up to the last nonzero one, a point after digit e (or
    "0." and zeros before them when e < 0), and no point after an integer.
    Runs of one exponent and sign are laid out a slice at a time: sorted
    input, as from float_cells, has at most 42 of them.
    """
    d, e = _significands(x)
    neg = np.signbit(x)
    digits = _digits(d, 21)        # four zeros, for up to "0.000", then the 17 digits
    trailing = np.argmax(digits[:, :3:-1] != ord("0"), axis=1)
    size = neg + np.where(17 - trailing <= e + 1, e + 1, 18 - trailing + np.maximum(-e, 0))
    cells = np.full((x.size, 23), _PAD[0], np.uint8)
    starts = np.flatnonzero(np.diff(2 * e + neg, prepend=-9))
    for first, stop in zip(starts.tolist(), [*starts[1:].tolist(), x.size]):
        ex, sign = int(e[first]), int(neg[first])
        point, zeros = max(ex, 0) + 1, max(-ex, 0)
        text, rows = digits[first:stop, 4 - zeros:], cells[first:stop, sign:]
        rows[:, :point] = text[:, :point]
        rows[:, point] = ord(".")
        rows[:, point + 1:zeros + 18] = text[:, point:]
        if sign:
            cells[first:stop, 0] = ord("-")
    cells |= (~_LEADING).take(size, 0)
    return cells[:, :size.max(initial=0)]


def float_cells(values) -> list[np.ndarray]:
    """Cells of each column of a 2-d array: `f"{x:.17g}"`, once per distinct
    int64 bit view, so -0.0 and each NaN keep their text.  Doubles with |x| in
    [1e-4, 1e17) come from _fixed_cells; zeros, NaNs, infinities and other
    magnitudes from one `%` call.

    The sort of np.unique with its inverse stays because every alternative
    measured slower on the nine shipped configs' (final, max) keys: 5.6 ms
    against 7.6 ms for the hash-based np.unique(sorted=False) without the
    inverse, 16.5 ms for np.unique plus searchsorted, and 26.7 ms for
    _fixed_cells on every value with no dedup (16.9 ms for this function)."""
    keys = np.ascontiguousarray(values, np.float64).view(np.int64)
    distinct, index = np.unique(keys, return_inverse=True)
    doubles = distinct.view(np.float64)
    magnitude = np.abs(doubles)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e17)
    rest = tuple(doubles[~fixed].tolist())
    parts = [(fixed, _fixed_cells(doubles[fixed])),
             (~fixed, _cells((b"%.17g" + _PAD) * len(rest) % rest))]
    table = np.full((doubles.size, max(p.shape[1] for _, p in parts)), _PAD[0], np.uint8)
    for rows, part in parts:
        table[rows, :part.shape[1]] = part
    return [table.take(i, 0) for i in index.reshape(keys.shape).T]


def int_cells(values) -> np.ndarray:
    """Cells of the decimal digits of each integer, right-aligned, from the
    digit routine of _fixed_cells; a negative one is blank."""
    values = np.asarray(values, np.int64)
    width = len(str(max(int(values.max(initial=0)), 0)))
    cells = _digits(np.maximum(values, 0), width)
    # column j is blank below 10**(width - 1 - j), and the last one below 0
    blank = sum(values < p for p in [*(10 ** k for k in range(width - 1, 0, -1)), 0])
    cells |= _LEADING[:, :width].take(blank, 0)
    return cells


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
                        [result.lambdas])


def result_json(result: ExperimentResult) -> str:
    """Aggregate JSON report: resolved config and seed, solved hedge, metrics."""
    plan = result.hedge_plan
    return to_json({"config": config_dict(result.config),
                    "hedge_plan": plan and {"strike": plan.strike, "premium": plan.premium,
                                            "expiry": plan.expiry},
                    "report": asdict(result.report)}) + "\n"
