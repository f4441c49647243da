"""Tests of the CSV writers.

Every CSV is built by the harness kernel from byte tables, one block of
rows at a time: a cell table per column, separators between them, padding
dropped in one pass.  Doubles are formatted once per distinct value of the
block: those with |x| in [1e-4, 1e17) by the numpy digit kernel (Dekker's
exact product gives their 17 digits, rounded half to even), zeros, NaNs,
infinities and other magnitudes by one `%` call.  Integers come from the
same digit routine, and gene ids are quoted as the csv module does.  Just
over 10**6 fixed doubles (random bit patterns of both signs, exact ties at
the 17th digit, each power of ten and its neighbouring ulps, the range
edges) and every kind of special double equal one `f"{x:.17g}"` each, and
the integer cells equal `str()` from 0 to 10**5 and around every power of
ten up to 2**63 - 1.  The `simulate`/`shift` artifacts of the nine shipped
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
from hedgetest import harness
from hedgetest.harness import (ExperimentConfig, HedgeSpec, ScreeningResult,
                               TruthSpec, csv_rows, float_cells, load_config,
                               result_csv, result_json, run_experiment,
                               screening_csv, text_cells)
from hedgetest.pricing import StrikeSolveError
from hedgetest.rng import stream
from hedgetest.strategies import StrategyKind, StrategySpec
from hedgetest.wealth import HypothesisSpec

from oracles import (result_csv_by_row, screening_csv_by_row,
                     screening_input_by_whole_matrix, sequences_csv_rows_by_row)

CONFIGS = Path(__file__).parent.parent / "configs"

# sha256 of `simulate`/`shift --config configs/<name>.cfg --workers 1 --out x`
# -> x.csv, at the config's own seed and replications.  The outcome rows are
# rng.bernoulli's table over the PCG64 stream (seed, 3) of rng.stream, one
# output a row at the shipped p of 1/2 and 3/4, so any change to that stream,
# its tag or the bit layout moves all nine digests.
CSV_SHA256 = {
    "table1_conservative": "e8163529ad5a48046e2e7d7c86f8ce82f83b9a153dd50430ee4cd5aeeadf0ecc",
    "table1_dynamic": "4f0bd2dc83a89f33b109bf05a549a464e225704e8bc9567adca5f3695574faaf",
    "table1_kelly": "829feb3553788a97f1b04236a4682b045d82a92778ef1ef1d1261aafbaf4777e",
    "table1_option": "f88bc0f5f6332b0210d6008a87a749ea36e202725e7ca65252d959ea888b4cf0",
    "table2_conservative": "c2e9b4c53e8c6d00b3f3927fdeed54cd7b2f0b46d603e797aa2ad6734180b4ae",
    "table2_dynamic": "c1257c77c3ffab8050346ea89b13cd87845e110aebf1fa95432d2cf9fc35a200",
    "table2_kelly": "bfb4a0796f72ccde6e7960b083092ad6d860baf119173bba86e9a5438c0032ba",
    "table2_option10": "f43e64cd8b04d0c4c2237b9388f3c8b7f25a696ced2c41defee65f0cc5494d25",
    "table2_option20": "66383824f7356e4c7ffd2b636fde04ba189978706ae7eb8b7aa86521135f7ead",
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


# sha256 of `price --contract put,S=0.25,tau=20 --method mc <argv> --out x` -> x.
# The factors of a bet of 1 multiply exactly; those of 0.3 round, so only its
# digest moves with the arithmetic of the fair coin's lattice nodes.
MC_PRICE_SHA256 = {
    ("--bet", "1"): "83adb426d33eb28e57c4a1538954c4e841761411413e10577fe0149aa4d4bb8c",
    ("--bet", "0.3"): "7bc686559c972e38e1db820cdd4c13ff888a733293ccf5a52d7f0676742ca3fe",
    # a float table of outcomes, each read from 2 fair bits
    ("--null-p", "0.25", "--bet", "1"):
        "546a794e2e717294ed233a6d1457707007c4d1c21bda018046511a43942b56f1",
    ("--family", "bounded", "--bet", "1.7"):
        "05064b1778d77f4a2109cde67983d7ca973c3295ab7316dc38fdaba27d4eff9e",
    ("--family", "log_normal", "--bet", "0.6065306597126334"):
        "782a669ef55ad027dca39527459eff037447cc907ac77719395d0c9697f0a747",
    # paths of two packed words, each up-count summed over the word columns;
    # the later --contract replaces the tau = 20 one
    ("--contract", "put,S=0.3,tau=70", "--bet", "1"):
        "ccabd9ef6cdbab116ffd4f941dd1e6ce2b67e9c7afe68c8f3ed65c6137215942",
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
        "44245c2dbb9884ea94e47d3d7cdc9a3c31229e3e71fd739ca44d1562a1b04ed7",
        "5763f34dcc1e5fe8c193d75221293445cf3e06d4404f7fec65733eb302a1e099"),
    ("--matrix",): (
        "f748499e1654f0f1fe8d75c3e69b94a02ce3a1f2346be982e67b9970dfede960",
        "93d69c761fad8c5eb97d6751c00c9990790dcd06a29ca5875458fed7e5974e43"),
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


def ulps_around(x, n):
    """x and the n doubles on either side of it, in order."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def kernel_doubles():
    """Just over 10**6 deterministic doubles, each with its negation: 400,000
    bit patterns drawn uniformly over [1e-4, 1e17); 100,000 odd multiples of
    0.25 in [1e15, 2.25e15), whose exact value ends in a 5 at the 18th digit,
    a tie at 17; 10**k for k in -6..19 and 3 ulps either side, which take in
    both range edges and the double below each power of ten, the closest any
    double comes to rounding up to the next one; and SPECIAL, every kind of
    double the kernel leaves to the `%` call."""
    rng = np.random.default_rng(20261019)
    low, high = np.array([1e-4, 1e17]).view(np.int64)
    drawn = rng.integers(low, high, 400_000).view(np.float64)
    ties = (2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, 100_000) + 1) / 4
    near = [x for k in range(-6, 20) for x in ulps_around(float(f"1e{k}"), 3)]
    values = np.concatenate([drawn, ties, near, SPECIAL])
    return np.concatenate([values, -values])


def test_the_kernel_writes_every_double_as_one_format_per_value(monkeypatch):
    values = kernel_doubles()
    assert values.size >= 10 ** 6
    kernel, formatted = harness._fixed_cells, []
    monkeypatch.setattr(harness, "_fixed_cells",
                        lambda x: formatted.append(x.size) or kernel(x))
    assert first_difference(csv_rows(float_cells(values[:, None])), "".join(
        f"{x:.17g}\n" for x in values.tolist())) is None
    # every distinct double of the range went through the digit kernel
    magnitude = np.abs(values)
    assert sum(formatted) == np.unique(values[(magnitude >= 1e-4) & (magnitude < 1e17)]).size


def test_int_cells_are_the_decimal_text_of_each_integer():
    values = np.array([*range(-3, 10 ** 5 + 1),
                       *(10 ** k + step for k in range(1, 19) for step in (-1, 0)),
                       2 ** 53 - 1, 2 ** 53, 2 ** 63 - 1, -(2 ** 63)])
    assert first_difference(csv_rows([harness.int_cells(values)]), "".join(
        ("" if v < 0 else str(v)) + "\n" for v in values.tolist())) is None


#: the rows where the index gains a digit, and the shipped replication count
ROW_COUNTS = [1, 9, 10, 11, 99, 100, 101, 10_001]
GENE_ID = st.text(st.one_of(st.sampled_from(',"#\r\n\t\x00 é漢\U0001f600'),
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
    result = ScreeningResult(final, maxw, rejected, crossing, None, lambdas, {})
    comments = {"genes": final.size, "matrix": "x.csv"}
    assert first_difference(screening_csv(result, gene_ids, comments),
                            screening_csv_by_row(result, gene_ids, comments)) is None


def test_ingest_rows_equal_the_row_reference(tmp_path, capsys):
    write_expression_matrix(tmp_path / "matrix.csv")
    assert cli.main(["ingest", "--input", str(tmp_path / "matrix.csv"),
                     "--output", str(tmp_path / "out.csv")]) == 0
    ids, lambdas, sequences, _ = screening_input_by_whole_matrix(tmp_path / "matrix.csv")
    text = (tmp_path / "out.csv").read_text()
    assert text.endswith("\n" + sequences_csv_rows_by_row(ids, lambdas, sequences))
    assert text.count("\n") == 4 + len(ids)


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


@pytest.mark.parametrize("ids", [
    [], ["g0"], [f"g{i:05d}" for i in range(3000)], ["", "a b", "é", "日本", "x\x00y"],
    ["g0", "ab,c"], ["g0", 'q"x'], ["g0", "a\rb"], ["g0", "a\nb"], ["a\r\nb"],
    ["\n"], ["", "\n", ""], ["g0", 'é,"z"', "plain"], ["#g1", "g0"], ["g0", "#"],
    ["g0", "a#b"]])
def test_text_cells_equal_the_per_field_cells(ids):
    # ids needing no quotes are encoded at once; any comma, quote, CR or LF,
    # or an id that starts with `#`, sends the list through csv_field one id
    # at a time
    per_field = harness._cells(b"".join(harness.csv_field(f).encode() + harness._PAD
                                        for f in ids))
    cells = text_cells(ids)
    assert cells.shape == per_field.shape and cells.tobytes() == per_field.tobytes()
    assert text_cells(iter(ids)).tobytes() == per_field.tobytes()


# dyadic truths take the sampler's k-bit draws, any other float one uniform a step
truth_ps = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 5 / 8, 1 / 256]),
                     st.floats(0.0, 1.0))


@st.composite
def experiments(draw):
    horizon = draw(st.integers(1, 30))
    hyp = HypothesisSpec.bernoulli(0.5, draw(st.floats(0.55, 0.95)))
    truth = TruthSpec(draw(truth_ps))
    if draw(st.booleans()):
        truth = TruthSpec(truth.p, draw(truth_ps), draw(st.integers(0, horizon)))
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
