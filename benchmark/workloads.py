"""The benchmark's workloads: inputs, operations and correctness checks.

Every workload drives hedgetest only through its public entry points,
``hedgetest.cli.main`` and the ``portfolio`` API, and looks each function up
on its module at call time so the tracer's wrappers see every call.  Inputs
come from the workload seed alone.  The checks hold for every seed: they
test the paper's guarantees and Monte Carlo agreement within 4 standard
errors, not seed-specific values.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

import hedgetest.cli as cli
from hedgetest import portfolio, pricing

# Floor tolerance for the lattice strike solve (its bisection is ~1e-6).
LATTICE_FLOOR_TOL = 1e-5
# Floor tolerance for the Monte Carlo strike solve: the solver's own tol.
MC_FLOOR_TOL = 1e-6
# Monte Carlo agreement, in standard errors.
SE_LIMIT = 4.0


def _config_keys(path: Path) -> dict:
    keys = {}
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if "=" in body:
            key, value = (part.strip() for part in body.split("=", 1))
            keys[key] = value
    return keys


def _csv_rows(text: str) -> list[list[str]]:
    """Data rows of a hedgetest CSV: comment lines and the header dropped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _run_cli(argv: list[str], prefix: Path):
    code = cli.main(argv + ["--out", str(prefix)])
    return code, {ext: Path(f"{prefix}.{ext}") for ext in ("csv", "json")}


class Tables:
    """All shipped configs through `simulate`/`shift`, one worker each.

    The paper's headline reproduction: lattice strike solving and
    per-replication stream construction dominate; ingest, the Monte Carlo
    strike solve and per-path run_process are bypassed.
    """

    name = "tables"
    calibration = "calls"           # see speedclock.py
    unit = "episodes/s"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        self.configs = sorted((root / "configs").glob("*.cfg"))
        if not self.configs:
            raise FileNotFoundError(f"no configs under {root / 'configs'}")

    def setup(self) -> None:
        for path in self.configs:
            cli.load_config(path)
        keys = {p.stem: _config_keys(p) for p in self.configs}
        self.commands = {stem: "shift" if "change_at" in k else "simulate"
                         for stem, k in keys.items()}
        self.items = sum(int(k["replications"]) for k in keys.values())
        self.inputs = {"configs": len(self.configs), "episodes": self.items}

    def prepare(self) -> None:
        pass

    def ops(self, pass_dir: Path):
        return [(path.stem, lambda path=path: _run_cli(
            [self.commands[path.stem], "--config", str(path), "--seed", str(self.seed),
             "--workers", "1"], pass_dir / path.stem)) for path in self.configs]

    def check(self, op: str, out: dict) -> tuple[list[str], float | None]:
        config = json.loads(out["json"])["config"]
        finals = np.array([float(r[1]) for r in _csv_rows(out["csv"].decode())])
        problems = []
        if finals.size != config["replications"]:
            problems.append(f"{finals.size} rows for {config['replications']} replications")
        floor = _guaranteed_floor(config)
        if floor is None or finals.size == 0:
            return problems, None
        shortfall = float(floor - finals.min())
        if shortfall > LATTICE_FLOOR_TOL:
            problems.append(f"final wealth {float(finals.min())!r} below floor {floor!r}")
        return problems, shortfall


def _guaranteed_floor(config: dict) -> float | None:
    """Worst-case final wealth the config guarantees, if it guarantees one."""
    if config["strategy"] == "dynamic":
        return config["floor"]
    if config["hedge"] == "put" and config["hedge_expiry"] == config["horizon"]:
        return config["hedge_floor"]
    if config["strategy"] == "fixed" and config["hedge"] == "none":
        # conservative fraction: the all-losses path ends on the floor
        return (1.0 - config["lambda"] * config["null_p"]) ** config["horizon"]
    return None


class Screen:
    """Hedged screening of a generated raw expression matrix.

    Shaped like the prostate data (6033 genes; 50 normal, 52 tumor
    columns).  The Monte Carlo strike solve and bulk null sampling dominate;
    ingest is exercised; lattice pricing and per-replication streams are
    bypassed.
    """

    name = "screen"
    calibration = "arrays"          # see speedclock.py
    unit = "genes/s"
    GENES, NORMAL, TUMOR = 6033, 50, 52
    SHIFTED_SHARE = 0.2

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        self.matrix = workdir / "expression.csv"

    def setup(self) -> None:
        self.argv = ["screen", "--matrix", str(self.matrix), "--hedge",
                     "--seed", str(self.seed)]
        cli.build_parser().parse_args(self.argv)
        self.items = self.GENES
        self.inputs = {"genes": self.GENES, "normal": self.NORMAL, "tumor": self.TUMOR,
                       "shifted_share": self.SHIFTED_SHARE}

    def prepare(self) -> None:
        """Write a log-normal matrix; a fixed share of genes get their tumor
        mean shifted by 0.75 to 1.5 standard deviations, up or down."""
        rng = np.random.default_rng(self.seed)
        genes, cols = self.GENES, self.NORMAL + self.TUMOR
        mu = rng.normal(6.0, 1.0, (genes, 1))
        sd = rng.uniform(0.2, 0.6, (genes, 1))
        z = rng.standard_normal((genes, cols))
        n_shift = round(self.SHIFTED_SHARE * genes)
        shifted = rng.choice(genes, n_shift, replace=False)
        shift = np.zeros((genes, 1))
        shift[shifted, 0] = rng.choice([-1.0, 1.0], n_shift) * rng.uniform(0.75, 1.5, n_shift)
        tumor = np.arange(cols) >= self.NORMAL
        values = np.exp(mu + sd * (z + shift * tumor))
        ids = [f"g{g:05d}" for g in range(genes)]
        self.shifted = {ids[g] for g in shifted}
        header = ",".join(["gene"] + ["normal"] * self.NORMAL + ["tumor"] * self.TUMOR)
        lines = [header] + [ids[g] + "," + ",".join(f"{v:.6g}" for v in values[g])
                            for g in range(genes)]
        self.matrix.write_text("\n".join(lines) + "\n")

    def ops(self, pass_dir: Path):
        return [("screen", lambda: _run_cli(list(self.argv), pass_dir / "screen"))]

    def check(self, op: str, out: dict) -> tuple[list[str], float | None]:
        config = json.loads(out["json"])["config"]
        rows = _csv_rows(out["csv"].decode())
        problems = []
        if len(rows) != self.GENES:
            problems.append(f"{len(rows)} gene rows for {self.GENES} genes")
        finals = np.array([float(r[2]) for r in rows])
        floor = config["ruin_level"]
        shortfall = float(floor - finals.min())
        if shortfall > MC_FLOOR_TOL:
            problems.append(f"final wealth {float(finals.min())!r} below floor {floor!r}")
        is_shifted = np.array([r[0] in self.shifted for r in rows])
        rejected = np.array([r[4] == "1" for r in rows])
        null_rate = rejected[~is_shifted].mean()
        alpha = config["alpha"]
        limit = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / (~is_shifted).sum())
        if null_rate > limit:
            problems.append(f"unshifted genes rejected at {null_rate:.4f} > {limit:.4f}")
        if not rejected[is_shifted].mean() > null_rate:
            problems.append("shifted genes not rejected more often than unshifted")
        return problems, shortfall


class Contracts:
    """Monte Carlo pricing of the floor put plus a hedged portfolio walk.

    The only workload for wealth.run_process, strategies and portfolio;
    harness, strike solving and ingest are bypassed.
    """

    name = "contracts"
    calibration = "calls"           # see speedclock.py
    unit = "paths/s"
    U, D, TAU, FLOOR = 1.5, 0.5, 20, 0.25
    WALKS = 500

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        self.strike = floor_strike(self.FLOOR, self.U, self.D, self.TAU)

    def setup(self) -> None:
        self.argv = ["price", "--model", f"u={self.U!r},d={self.D!r}",
                     "--contract", f"put,S={self.strike!r},tau={self.TAU}",
                     "--method", "mc", "--seed", str(self.seed)]
        mc_paths = cli.build_parser().parse_args(self.argv).n
        self.items = mc_paths + self.WALKS
        self.inputs = {"mc_paths": mc_paths, "walks": self.WALKS, "horizon": self.TAU,
                       "strike": self.strike}

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        outcomes = rng.integers(0, 2, (self.WALKS, self.TAU)).astype(float)
        self.walks = outcomes.tolist()

    def _price(self, pass_dir: Path):
        out = pass_dir / "price.json"
        return cli.main(self.argv + ["--out", str(out)]), {"json": out}

    def _walk(self):
        start = portfolio.move_to_risky(portfolio.Portfolio.initial(self.U, self.D), 0.5)
        start = portfolio.buy_contract(start, pricing.Contract.put(self.strike, self.TAU), 1.0)
        finals = []
        for outcomes in self.walks:
            state = start
            for y in outcomes:
                state = portfolio.step(state, y)
            finals.append(state.total_value)
        values = [start.total_value] + finals
        return 0, {"values": "\n".join(map(repr, values)).encode()}

    def ops(self, pass_dir: Path):
        return [("price", lambda: self._price(pass_dir)), ("portfolio", self._walk)]

    def check(self, op: str, out: dict) -> tuple[list[str], float | None]:
        if op == "price":
            est = json.loads(out["json"])
            exact = lattice_put(self.strike, self.U, self.D, self.TAU)
            problems = []
            if abs(est["value"] - exact) > SE_LIMIT * est["std_error"]:
                problems.append(f"mc price {est['value']!r} vs lattice {exact!r}, "
                                f"se {est['std_error']!r}")
            # floor left by a hedge bought at the Monte Carlo price
            return problems, self.FLOOR - (1.0 - est["value"]) * self.strike
        values = [float(v) for v in out["values"].decode().split()]
        start, finals = values[0], values[1:]
        # The walk is exact: after value-neutral trades the start value is 1,
        # and each path ends at cash + risky * K_T + put payoff.  (A sample
        # mean of 500 such heavy-tailed values is no test of the martingale.)
        cash = 0.5 - lattice_put(self.strike, self.U, self.D, self.TAU)
        problems = []
        if abs(start - 1.0) > 1e-12:
            problems.append(f"start value {start!r} is not 1")
        for path, final in zip(self.walks, finals):
            k = math.prod(self.U if y == 1.0 else self.D for y in path)
            exact = cash + 0.5 * k + max(self.strike - k, 0.0)
            if abs(final - exact) > 1e-9 * max(1.0, exact):
                problems.append(f"final value {final!r} on path {path} differs from {exact!r}")
                break
        if min(finals) < 0.0:
            problems.append(f"negative final value {min(finals)!r}")
        return problems, None


def lattice_put(strike: float, u: float, d: float, tau: int) -> float:
    """Exact null price of a put on a constant-fraction binomial wealth."""
    q = (1.0 - d) / (u - d)
    return sum(math.comb(tau, j) * q ** j * (1.0 - q) ** (tau - j)
               * max(strike - u ** j * d ** (tau - j), 0.0) for j in range(tau + 1))


def floor_strike(floor: float, u: float, d: float, tau: int) -> float:
    """Lowest strike S with (1 - C(S)) * S = floor, by scan and bisection."""
    def residual(s):
        return (1.0 - lattice_put(s, u, d, tau)) * s - floor

    lo = floor                       # residual(floor) = -C(floor) * floor < 0
    hi = lo + 1e-3
    while residual(hi) < 0.0:
        lo, hi = hi, hi + 1e-3
        if hi > 1.0:
            raise ValueError(f"floor {floor} unattainable below strike 1")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if residual(mid) < 0.0 else (lo, mid)
    return hi


def c10_problems(root: Path, workdir: Path, seed: int) -> list[str] | None:
    """Contract C10: a tables config is byte-identical for 1 and 2 workers.

    None when the machine has fewer than two processors to run it on.
    """
    if len(os.sched_getaffinity(0)) < 2:
        return None
    config = root / "configs" / "table1_kelly.cfg"
    blobs = []
    for workers in (1, 2):
        prefix = workdir / f"c10_w{workers}"
        code, paths = _run_cli(["simulate", "--config", str(config), "--seed", str(seed),
                                "--workers", str(workers)], prefix)
        if code != 0:
            return [f"simulate --workers {workers} exited {code}"]
        blobs.append([p.read_bytes() for p in paths.values()])
    return [] if blobs[0] == blobs[1] else ["output differs between 1 and 2 workers"]


WORKLOADS = {w.name: w for w in (Tables, Screen, Contracts)}
