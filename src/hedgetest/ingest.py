"""Expression-matrix ingestion for sequential gene screening.

read_screening reads a delimited text matrix (a header of group labels, one
gene per row) and maps it to per-gene test sequences.  Pipeline: natural
log (optional for data already on log scale), per-gene standardization
against the normal-group mean and standard deviation, then the standard
normal CDF (pricing.normal_cdf).  A gene that is standard normal under the
null comes out Uniform(0, 1) with mean 1/2, which is what the
bounded-outcome betting process expects.  N_HELD_OUT tumor samples per
gene pick its betting fraction and never appear in its test sequence.

The file is read one block of ROW_BLOCK gene rows at a time, and each block
is transformed on its own: every per-gene statistic is a row reduction and
every other step is elementwise, so a block's rows come out with the same
bits as in a whole-matrix pass.  Each block's test columns and fractions
are written straight into the output, so a read holds the test sequences
plus one block, never the file's text or a full raw or uniform matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import compress, islice
from typing import Sequence

import numpy as np

from .pricing import normal_cdf

#: Candidate betting fractions for the per-gene plug-in.
LAMBDA_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))

#: Samples per gene held out to pick its fraction: the first tumor columns
#: of a matrix file, the first columns of a synthetic matrix.
N_HELD_OUT = 2

#: Gene rows per block of the reader and the transform: bounds what a call
#: holds beside its output.
ROW_BLOCK = 512


class GroupError(ValueError):
    """The matrix's sample groups cannot be screened: a configuration fault
    of the header's labels or group sizes, not of the data rows."""


class ZeroVarianceError(GroupError):
    """No gene can be standardized: fewer than two normal columns, or no
    variation in the normal group."""


class HeldOutError(GroupError):
    """Fewer tumor columns than the fraction plug-in holds out."""


def _split_id(line: str, delimiter: str) -> tuple[str, str]:
    """(gene id, the value fields) of one data line; a quoted id is read as
    csv reads it, so it may hold the delimiter."""
    if line.startswith('"'):
        fields = next(csv.reader([line], delimiter=delimiter))
        return fields[0].strip(), delimiter.join(fields[1:])
    gene_id, _, values = line.partition(delimiter)
    return gene_id.strip(), values


def _parse_values(fields, delimiter: str) -> np.ndarray:
    return np.loadtxt(fields, delimiter=delimiter, quotechar='"', comments=None,
                      ndmin=2)


def _parses_to(text: str, delimiter: str, width: int) -> bool:
    """Whether one line's value fields are `width` numbers."""
    if not text.strip():        # numpy would warn of a line with no data
        return False
    try:
        return _parse_values([text], delimiter).size == width
    except ValueError:
        return False


def _read_header(fh, normal_label: str, tumor_label: str) -> tuple[str, tuple[str, ...]]:
    """(delimiter, group labels) from the first line of fh.  The delimiter is
    sniffed from it (comma or tab); the labels must be the two groups, and
    the two must differ."""
    if normal_label == tumor_label:
        raise GroupError(f"the normal and tumor labels must differ, both are {normal_label!r}")
    first = fh.readline()
    delimiter = "\t" if first.count("\t") >= first.count(",") else ","
    header = next(csv.reader([first], delimiter=delimiter))
    groups = tuple(h.strip() for h in header[1:])
    labels = set(groups)
    if labels != {normal_label, tumor_label}:
        raise GroupError(
            f"expected groups {{{normal_label!r}, {tumor_label!r}}}, found {sorted(labels)}")
    return delimiter, groups


def _row_bound(path) -> int:
    """At least the number of gene rows of path: its line breaks, a CRLF
    counted once (twice where two chunks split it)."""
    breaks = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 18), b""):
            text = np.frombuffer(chunk, np.uint8)
            lf = text == ord("\n")
            breaks += np.count_nonzero(lf)
            if b"\r" in chunk:              # a lone CR ends a line too
                cr = text == ord("\r")
                breaks += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & lf[1:])
    return breaks


def _parse_block(rows, path, delimiter: str, width: int):
    """(gene ids, values) of one block of (file line, gene id, value fields)
    rows, the values parsed by numpy in one call; None for no rows.  A
    ragged, empty or non-numeric row is a ValueError that names its file
    line, and a non-finite value is a ValueError too."""
    if not rows:
        return None
    linenos, gene_ids, fields = zip(*rows)
    try:
        # numpy skips a row with no value text, which would pair every later
        # gene id with the row after its own, and warns of a block of them
        if "" in fields or any(map(str.isspace, fields)):
            raise ValueError("a row with no values")
        values = _parse_values(fields, delimiter)
        if values.shape != (len(fields), width - 1):
            raise ValueError("ragged rows")
    except ValueError:
        bad = next((lineno for lineno, text in zip(linenos, fields)
                    if not _parses_to(text, delimiter, width - 1)), None)
        if bad is None:
            raise
        raise ValueError(f"{path} line {bad}: expected {width} fields, a gene id "
                         f"and {width - 1} numeric values") from None
    if not np.all(np.isfinite(values)):
        raise ValueError("expression matrix contains missing or non-finite values")
    return gene_ids, values


def _row_blocks(fh, path, delimiter: str, width: int):
    """Yield (gene ids, values) for each block of up to ROW_BLOCK gene rows
    of fh past its header.  Blank lines are skipped but counted in the line
    numbers; a file with no gene rows is a ValueError.  A block's text is
    dropped once it is parsed, before the block is yielded."""
    rows = ((lineno, *_split_id(line, delimiter))   # universal newlines: CRLF reads as LF
            for lineno, line in enumerate(fh, 2) if line != "\n")
    block = _parse_block(list(islice(rows, ROW_BLOCK)), path, delimiter, width)
    if block is None:
        raise ValueError(f"no gene rows in {path}")
    while block is not None:
        yield block
        block = _parse_block(list(islice(rows, ROW_BLOCK)), path, delimiter, width)


def _normal_columns(groups: Sequence[str], normal_label: str) -> np.ndarray:
    """Mask of the normal columns; fewer than two give no variance."""
    normal = np.array([g == normal_label for g in groups])
    if normal.sum() < 2:
        raise ZeroVarianceError(f"need at least 2 columns labeled {normal_label!r} "
                                f"for a normal-group variance, got {normal.sum()}")
    return normal


def _test_columns(groups: Sequence[str],
                  tumor_label: str) -> tuple[tuple[int, ...], list[int]]:
    """(held-out columns, test columns): the first N_HELD_OUT tumor columns in
    file order, and every other column in its order."""
    tumor_cols = [i for i, g in enumerate(groups) if g == tumor_label]
    if len(tumor_cols) < N_HELD_OUT:
        raise HeldOutError(
            f"need at least {N_HELD_OUT} tumor samples, found {len(tumor_cols)}")
    held = tuple(tumor_cols[:N_HELD_OUT])
    return held, [i for i in range(len(groups)) if i not in held]


def _uniform_rows(block: np.ndarray, normal: np.ndarray,
                  log_transform: bool) -> tuple[np.ndarray, np.ndarray]:
    """(the kept rows of a block mapped to [0, 1], the keep mask); block is
    left as it is.

    A gene whose normal values are all equal, or whose normal-group sd is 0,
    is not kept: a row mean can round off a constant group's value and
    leave an sd of ~1e-15 that would otherwise be kept.  The kept rows are
    standardized in the array the log (or the skip) made, or in one new
    array, and pricing.normal_cdf maps it in place.
    """
    values = block
    if log_transform:
        if np.any(values <= 0.0):
            raise ValueError("log transform requires strictly positive expression values")
        values = np.log(values)
    normal_values = values[:, normal]
    mu = normal_values.mean(axis=1)
    sd = normal_values.std(axis=1, ddof=1)
    keep = (normal_values.max(axis=1) > normal_values.min(axis=1)) & (sd > 0.0)
    del normal_values
    if not keep.all():
        values, mu, sd = values[keep], mu[keep], sd[keep]
    uniform = np.empty(values.shape) if values is block else values
    np.subtract(values, mu[:, None], out=uniform)
    uniform /= sd[:, None]
    normal_cdf(uniform, out=uniform)
    return uniform, keep


def estimate_lambdas(held_out) -> np.ndarray:
    """Betting fraction of each gene from its held-out transformed tumor samples.

    held_out has shape (m, N_HELD_OUT).  Plug-in 4 * |mean(pair) - 1/2|
    snapped to the nearest LAMBDA_GRID point (the first one on a tie):
    deterministic and monotone in the evidence of deviation from the null
    mean; a dead-center pair maps to the smallest candidate fraction.
    """
    pairs = np.asarray(held_out, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != N_HELD_OUT:
        raise ValueError(f"exactly {N_HELD_OUT} held-out values per gene required, "
                         f"got shape {pairs.shape}")
    grid_arr = np.asarray(LAMBDA_GRID, dtype=float)
    raw = 2.0 * np.abs(pairs.mean(axis=1) - 0.5) * 2.0
    return grid_arr[np.argmin(np.abs(grid_arr[None, :] - raw[:, None]), axis=1)]


@dataclass(frozen=True)
class ScreeningInput:
    """Per-gene test sequences and betting fractions ready for the harness."""

    gene_ids: tuple[str, ...]
    sequences: np.ndarray            # shape (genes, test samples)
    lambdas: np.ndarray              # shape (genes,)
    held_out_columns: tuple[int, ...]
    skipped_gene_ids: tuple[str, ...] = ()


def read_screening(path, *, normal_label: str = "normal", tumor_label: str = "tumor",
                   log_transform: bool = True) -> ScreeningInput:
    """The test sequences and fractions of the matrix file at path, in one
    pass over it, a block of ROW_BLOCK gene rows at a time.

    The first column holds gene ids; the delimiter is sniffed from the
    header (comma or tab).  Blank lines are skipped, and a ragged or
    non-numeric row is a ValueError that names its file line, counting the
    header and blank lines.  Pass log_transform=False for data already on a
    log scale.  The first N_HELD_OUT tumor columns (in file order) pick
    each gene's fraction (estimate_lambdas) and are left out of its test
    sequence; the other columns keep their order.

    The header is checked first, each fault a GroupError: the two group
    labels, which must differ, at least two normal columns
    (ZeroVarianceError) and N_HELD_OUT tumor columns (HeldOutError); then
    that the file has a gene row.  Each block is parsed, checked,
    transformed and split into the test sequences, one array allocated
    before the first block for every row the file may hold (the file is
    read once more to count its lines).  A gene skipped for no normal
    variance is listed in skipped_gene_ids, and with none left the
    ZeroVarianceError comes after the last block.
    """
    with open(path) as fh:
        delimiter, groups = _read_header(fh, normal_label, tumor_label)
        normal = _normal_columns(groups, normal_label)
        held, test_cols = _test_columns(groups, tumor_label)
        bound = _row_bound(path)
        sequences, lambdas = np.empty((bound, len(test_cols)), order="F"), np.empty(bound)
        gene_ids, skipped = [], []
        for ids, values in _row_blocks(fh, path, delimiter, len(groups) + 1):
            uniform, keep = _uniform_rows(values, normal, log_transform)
            rows = slice(len(gene_ids), len(gene_ids) + len(uniform))
            lambdas[rows] = estimate_lambdas(uniform[:, list(held)])
            sequences[rows] = uniform[:, test_cols]
            keep = keep.tolist()
            gene_ids += compress(ids, keep)
            skipped += compress(ids, [not k for k in keep])
    if not gene_ids:
        raise ZeroVarianceError("every gene has zero variance in the normal group")
    m = len(gene_ids)
    return ScreeningInput(tuple(gene_ids), sequences[:m], lambdas[:m], held,
                          tuple(skipped))
