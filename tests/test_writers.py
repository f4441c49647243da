"""Tests of the CSV writers.

Every CSV is built by the harness kernel from byte tables, one block of
rows at a time: a cell table per column (doubles formatted once per
distinct value of the block, integers digit by digit, gene ids quoted as
the csv module does), separators between them, padding dropped in one
pass.  The `simulate`/`shift` artifacts of the nine shipped
configs, the `price --method mc` JSON of the three outcome families and the
two files of a hedged `screen`, synthetic and from a raw matrix, are pinned
by their sha256 digests, so any byte drift fails here.  The episode CSVs and
the rows `ingest` writes equal the row-by-row f-string references of the
oracles, on the shipped runs and on generated columns with heavy repeats,
every kind of special double, blank crossing times, index widths across
powers of ten and ids with quotes, separators, non-ASCII text and NUL; the
kernel's doubles equal one `f"{x:.17g}"` per value; rows written in small
blocks are the same text, and the writer's memory is the text twice plus
one block; and the CSV and JSON of random experiments are identical for any
chunk count.
"""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

import hedgetest.cli as cli
from hedgetest import harness, ingest
from hedgetest.harness import (ExperimentConfig, HedgeSpec, ScreeningResult,
                               TruthSpec, csv_rows, float_cells, load_config,
                               result_csv, result_json, run_experiment,
                               screening_csv, text_cells)
from hedgetest.pricing import StrikeSolveError
from hedgetest.rng import stream
from hedgetest.strategies import StrategyKind, StrategySpec
from hedgetest.wealth import HypothesisSpec

from oracles import (result_csv_by_row, screening_csv_by_row,
                     sequences_csv_rows_by_row)

CONFIGS = Path(__file__).parent.parent / "configs"

# sha256 of `simulate`/`shift --config configs/<name>.cfg --workers 1 --out x`
# -> x.csv, at the config's own seed and replications
CSV_SHA256 = {
    "table1_conservative": "39fd33aa2b258c9dc1aed7f68fa1fe5e3ffbc167e460d1801dca561d222bf3a4",
    "table1_dynamic": "119fa8aab3fbb5b6068ed4b4e445b9989755b7d617bfb22693e3b70555d590f3",
    "table1_kelly": "9e61596100debacf2b1715fda01e43b9b14da65f846a4ee9d899f92c71a13c64",
    "table1_option": "2e5ed8a5e023c29ca0829b9787d1bd8d4af08aebb41ae2e55e4ef1f21ccd9ebd",
    "table2_conservative": "7444b2d3e31ac1a61767f0ab123a9f7ec7120d03c46d3a0925839752ef11e7f8",
    "table2_dynamic": "35a73e46729acabbfb90ed1b2c178b01b9f3218c7b8d9766d9d030ec0bf8effe",
    "table2_kelly": "b944bfad8dc104b15bd09521c964e5d59e8ab2d6cd477a3d669e5a2d0d5c74ab",
    "table2_option10": "9933adae06c256d49c0d43a3abef0e446ba35e95c7ac8576fc9ee7aa2cbb193c",
    "table2_option20": "f478067f83e12c1beb3da932535eea525177f05b718437ac8c834aa52084ac14",
}


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.cfg")) == sorted(CSV_SHA256)


@lru_cache(maxsize=None)
def shipped_result(name):
    return run_experiment(load_config(CONFIGS / f"{name}.cfg"))


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_shipped_csv_digest_is_pinned(name, tmp_path, capsys):
    command = "shift" if shipped_result(name).config.truth.change_at is not None \
        else "simulate"
    assert cli.main([command, "--config", str(CONFIGS / f"{name}.cfg"),
                     "--workers", "1", "--out", str(tmp_path / name)]) == 0
    digest = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
    assert digest == CSV_SHA256[name]


# sha256 of `price --contract put,S=0.25,tau=20 --method mc <argv> --out x` -> x
MC_PRICE_SHA256 = {
    ("--bet", "1"): "be19441cd3a556cded8be6ac79104e2568c71c91dd554dd0024553cbf135c3c4",
    ("--family", "bounded", "--bet", "1.7"):
        "05064b1778d77f4a2109cde67983d7ca973c3295ab7316dc38fdaba27d4eff9e",
    ("--family", "log_normal", "--bet", "0.6065306597126334"):
        "782a669ef55ad027dca39527459eff037447cc907ac77719395d0c9697f0a747",
}


@pytest.mark.parametrize("argv", sorted(MC_PRICE_SHA256))
def test_mc_price_digest_is_pinned(argv, tmp_path, capsys):
    out = tmp_path / "price.json"
    assert cli.main(["price", "--contract", "put,S=0.25,tau=20", "--method", "mc",
                     *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MC_PRICE_SHA256[argv]


def write_expression_matrix(path):
    """A raw 400-gene matrix, 20 normal then 20 tumor columns: a quarter of
    the genes shift their tumor mean, and g0 has no variance in the normal
    group, so the screen skips it."""
    rng = np.random.default_rng(20261018)
    tumor = np.arange(40) >= 20
    shift = np.where(rng.random((400, 1)) < 0.25, rng.choice([-0.6, 0.6], (400, 1)), 0.0)
    values = np.exp(rng.normal(6.0, 0.4, (400, 40)) + shift * tumor)
    values[0, ~tumor] = 1.0
    lines = ["gene," + ",".join(["normal"] * 20 + ["tumor"] * 20)]
    lines += [f"g{g}," + ",".join(f"{v:.6g}" for v in row) for g, row in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


# sha256 of (x.csv, x.json) from `screen <argv> --hedge --out x`
SCREEN_SHA256 = {
    ("--synthetic", "shifted", "--genes", "400", "--samples", "40"): (
        "9a8af91b73a836812fd50502a9ff3671b928f36ba2b2533bb84b3475da147a7b",
        "567205b0c71412137480ce0ebb86a43b8edb6a126c3e97dd79514106b05e1ecc"),
    ("--matrix",): (
        "0c5d336f0731c1cf8c3d41015ab99c5b6b086021f5161e45e3546b57b3e60ff0",
        "057df9e7c997a6750a8b5c741a2ca124f70e3982d32f80a371355fe92cf748dc"),
}


@pytest.mark.parametrize("argv", sorted(SCREEN_SHA256))
def test_hedged_screen_digests_are_pinned(argv, tmp_path, capsys):
    inputs = argv
    if argv == ("--matrix",):
        write_expression_matrix(tmp_path / "matrix.csv")
        inputs += (str(tmp_path / "matrix.csv"),)
    assert cli.main(["screen", *inputs, "--hedge", "--out", str(tmp_path / "x")]) == 0
    assert tuple(hashlib.sha256((tmp_path / f"x.{ext}").read_bytes()).hexdigest()
                 for ext in ("csv", "json")) == SCREEN_SHA256[argv]


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_result_csv_equals_the_row_reference(name):
    result = shipped_result(name)
    assert result_csv(result) == result_csv_by_row(result)


@pytest.mark.parametrize("argv", [("--synthetic", "shifted", "--hedge"),
                                  ("--synthetic", "null")])
def test_screen_csv_equals_the_row_reference(argv, tmp_path, capsys, monkeypatch):
    real, calls = cli.screening_csv, []
    monkeypatch.setattr(cli, "screening_csv",
                        lambda *args: calls.append(args) or real(*args))
    assert cli.main(["screen", *argv, "--out", str(tmp_path / "screen")]) == 0
    (result, gene_ids, comments), = calls
    assert result.final_wealth.size == len(gene_ids) == 6033
    assert (tmp_path / "screen.csv").read_text() == \
        screening_csv_by_row(result, gene_ids, comments)


_BITS = [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 1, 0x000FFFFFFFFFFFFF]
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-310, 1.0, 0.1, 1 / 3,
           1.7976931348623157e308, -1.7976931348623157e308,
           *np.array(_BITS, dtype=np.uint64).view(np.float64).tolist()]


@st.composite
def repeated_doubles(draw):
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                         min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    return np.array([pool[i] for i in picks], dtype=np.float64)


def first_difference(got, want):
    """The first pair of lines where two texts differ, or None.  A property
    test asserts on this: pytest would diff two long texts on each failing
    example, which makes shrinking take minutes."""
    return next(((g, w) for g, w in zip_longest(got.splitlines(True), want.splitlines(True))
                 if g != w), None)


@given(repeated_doubles(), st.integers(1, 3))
def test_float_cells_equal_one_format_per_value(values, width):
    table = values[:values.size // width * width].reshape(-1, width)
    assert first_difference(csv_rows(float_cells(table)), "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist())) is None


#: the rows where the index gains a digit, and the shipped replication count
ROW_COUNTS = [1, 9, 10, 11, 99, 100, 101, 10_001]
GENE_ID = st.text(st.one_of(st.sampled_from(',"\r\n\t\x00 é漢\U0001f600'),
                            st.characters()), max_size=6)


@st.composite
def episode_columns(draw):
    """Final and max wealth, rejected and crossing time of `rows` episodes,
    each column a few values repeated; crossing times may all be blank."""
    rows = draw(st.one_of(st.sampled_from(ROW_COUNTS), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column(pool):
        return np.array(pool, dtype=np.float64)[rng.integers(0, len(pool), rows)]

    wealth = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                      min_size=1, max_size=8)
    horizon = draw(st.sampled_from([-1, 0, 9, 10, 1000]))
    crossing = rng.integers(-1, horizon + 1, rows)
    return (column(draw(wealth)), column(draw(wealth)), rng.random(rows) < 0.5,
            crossing, rng)


@given(episode_columns())
def test_result_csv_equals_the_row_reference_on_any_columns(columns):
    final, maxw, rejected, crossing, _ = columns
    result = replace(shipped_result("table1_kelly"), final_wealth=final,
                     max_wealth=maxw, rejected=rejected, crossing_time=crossing)
    assert first_difference(result_csv(result), result_csv_by_row(result)) is None


@given(episode_columns(), st.lists(GENE_ID, min_size=1, max_size=8),
       st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1,
                max_size=4))
def test_screening_csv_equals_the_row_reference_on_any_columns(columns, ids, lams):
    final, maxw, rejected, crossing, rng = columns
    gene_ids = [ids[i] for i in rng.integers(0, len(ids), final.size)]
    lambdas = np.array(lams)[rng.integers(0, len(lams), final.size)]
    result = ScreeningResult(final, maxw, rejected, crossing, None, lambdas, {}, 0)
    comments = {"genes": final.size, "matrix": "x.csv"}
    assert first_difference(screening_csv(result, gene_ids, comments),
                            screening_csv_by_row(result, gene_ids, comments)) is None


def test_ingest_rows_equal_the_row_reference(tmp_path, capsys):
    write_expression_matrix(tmp_path / "matrix.csv")
    assert cli.main(["ingest", "--input", str(tmp_path / "matrix.csv"),
                     "--output", str(tmp_path / "out.csv")]) == 0
    uniform = ingest.transform_to_uniform(
        ingest.load_expression_matrix(tmp_path / "matrix.csv"), normal_label="normal")
    prepared = ingest.prepare_screening(uniform, tumor_label="tumor")
    text = (tmp_path / "out.csv").read_text()
    assert text.endswith("\n" + sequences_csv_rows_by_row(
        prepared.gene_ids, prepared.lambdas, prepared.sequences))
    assert text.count("\n") == 4 + len(prepared.gene_ids)


@pytest.mark.parametrize("block", [15, 4096])
def test_rows_written_in_blocks_are_the_row_reference(block, monkeypatch):
    # 3 and 819 rows of five cells a block; shipped files are one block each
    monkeypatch.setattr(harness, "_ROW_BLOCK", block)
    result = shipped_result("table1_dynamic")
    assert result_csv(result) == result_csv_by_row(result)


def test_writer_memory_is_the_text_twice_and_one_block():
    # the text's block pieces, their join and one block's temporaries (about
    # 120 bytes a cell); a cell table of the whole file would take far more
    values = stream(5).random((2000, 103))
    ids = text_cells([f"g{i:05d}" for i in range(2000)])
    tracemalloc.start()
    try:
        text = csv_rows([ids, values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text) + 200 * harness._ROW_BLOCK


@st.composite
def experiments(draw):
    horizon = draw(st.integers(1, 30))
    hyp = HypothesisSpec.bernoulli(0.5, draw(st.floats(0.55, 0.95)))
    truth = TruthSpec(draw(st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        truth = TruthSpec(truth.p, draw(st.floats(0.0, 1.0)),
                          draw(st.integers(0, horizon)))
    kind = draw(st.sampled_from(["fixed", "kelly", "dynamic", "hedged"]))
    hedge = None
    if kind == "dynamic":
        strategy = StrategySpec(StrategyKind.DYNAMIC_FLOOR,
                                floor=draw(st.floats(0.01, 0.99)))
    elif kind == "fixed" or (kind == "hedged" and draw(st.booleans())):
        strategy = StrategySpec(StrategyKind.FIXED_LAMBDA,
                                lam=draw(st.floats(0.05, 1.95)))
    else:
        strategy = StrategySpec(StrategyKind.KELLY)
    if kind == "hedged":
        hedge = HedgeSpec(expiry=draw(st.integers(0, horizon)))
    config = ExperimentConfig(
        hypothesis=hyp, truth=truth, strategy=strategy, horizon=horizon,
        replications=draw(st.integers(1, 300)),
        alpha=draw(st.sampled_from([0.05, 0.2, 0.5])),
        ruin_level=draw(st.sampled_from([0.1, 0.25, 0.5])),
        seed=draw(st.integers(0, 2**32 - 1)), hedge=hedge)
    return config, draw(st.integers(1, 7))


@given(experiments())
def test_artifacts_are_identical_for_any_chunk_count(case):
    config, chunks = case
    try:
        one = run_experiment(config, chunks=1)
    except StrikeSolveError:
        reject()
    many = run_experiment(config, chunks=chunks)
    assert result_csv(many) == result_csv(one)
    assert result_json(many) == result_json(one)
