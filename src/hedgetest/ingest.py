"""Expression-matrix ingestion for sequential gene screening.

Pipeline: natural log (optional for data already on log scale), per-gene
standardization against the normal-group mean and standard deviation, then
the standard normal CDF (pricing.normal_cdf).  A gene that is standard
normal under the null comes out Uniform(0, 1) with mean 1/2, which is what
the bounded-outcome betting process expects.  Two tumor samples per gene are held out to pick a
betting fraction and never appear in the test sequence.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .pricing import normal_cdf

#: Candidate betting fractions for the per-gene plug-in.
LAMBDA_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))


class ZeroVarianceError(ValueError):
    """No gene can be standardized: fewer than two normal columns, or no
    variation in the normal group."""


class HeldOutError(ValueError):
    """Fewer tumor columns than the fraction plug-in holds out."""


@dataclass(frozen=True)
class ExpressionMatrix:
    """Genes by samples, with each column labeled by its group.

    values is held as a C-contiguous float64 array, copied only when it is
    not one already.
    """

    gene_ids: tuple[str, ...]
    values: np.ndarray               # shape (genes, samples)
    groups: tuple[str, ...]          # per-column label

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=float))
        m, n = self.values.shape
        if len(self.gene_ids) != m:
            raise ValueError("one id per gene row required")
        if len(self.groups) != n:
            raise ValueError("one group label per sample column required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("expression matrix contains missing or non-finite values")
        if len(set(self.groups)) != 2:
            raise ValueError(
                f"sample labels must partition into two groups, got {sorted(set(self.groups))}")

    def column_mask(self, label: str) -> np.ndarray:
        return np.array([g == label for g in self.groups])


@dataclass(frozen=True)
class UniformMatrix:
    """Transformed matrix with per-gene sequences in [0, 1]."""

    gene_ids: tuple[str, ...]
    values: np.ndarray
    groups: tuple[str, ...]
    skipped_gene_ids: tuple[str, ...]


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
    try:
        return _parse_values([text], delimiter).size == width
    except ValueError:
        return False


def load_expression_matrix(path, normal_label: str = "normal",
                           tumor_label: str = "tumor") -> ExpressionMatrix:
    """Read a delimited text matrix: header of group labels, one gene per row.

    The first column holds gene ids; the delimiter is sniffed from the
    header (comma or tab).  Blank lines are skipped; the values are parsed
    by numpy in one call.  A ragged or non-numeric row is a ValueError that
    names its file line, counting the header and blank lines.
    """
    with open(path) as fh:              # universal newlines: CRLF reads as LF
        first = fh.readline()
        delimiter = "\t" if first.count("\t") >= first.count(",") else ","
        header = next(csv.reader([first], delimiter=delimiter))
        groups = tuple(h.strip() for h in header[1:])
        rows = [(lineno, *_split_id(line, delimiter))
                for lineno, line in enumerate(fh, 2) if line != "\n"]
    if not rows:
        raise ValueError(f"no gene rows in {path}")
    linenos, gene_ids, fields = zip(*rows)
    try:
        values = _parse_values(fields, delimiter)
    except ValueError:
        width = len(header)
        bad = next((lineno for lineno, text in zip(linenos, fields)
                    if not _parses_to(text, delimiter, width - 1)), None)
        if bad is None:
            raise
        raise ValueError(f"{path} line {bad}: expected {width} fields, a gene id "
                         f"and {width - 1} numeric values") from None
    labels = set(groups)
    if labels != {normal_label, tumor_label}:
        raise ValueError(
            f"expected groups {{{normal_label!r}, {tumor_label!r}}}, found {sorted(labels)}")
    return ExpressionMatrix(gene_ids, values, groups)


def transform_to_uniform(matrix: ExpressionMatrix, *, normal_label: str = "normal",
                         log_transform: bool = True) -> UniformMatrix:
    """Map each gene's samples to [0, 1] via normal-group standardization and Phi.

    Genes whose normal values are all equal, or whose normal-group sd is 0,
    are flagged and skipped: a row mean can round off a constant group's
    value and leave an sd of ~1e-15 that would otherwise be kept.  Fewer
    than two normal columns give no variance and are refused.  Pass
    log_transform=False for data already on a log scale.  The kept rows
    are standardized in the array the log (or the skip) made, or in one new
    array, and pricing.normal_cdf maps it in place, block by block.
    """
    values = matrix.values
    if log_transform:
        if np.any(values <= 0.0):
            raise ValueError("log transform requires strictly positive expression values")
        values = np.log(values)
    normal = matrix.column_mask(normal_label)
    if normal.sum() < 2:
        raise ZeroVarianceError(f"need at least 2 columns labeled {normal_label!r} "
                                f"for a normal-group variance, got {normal.sum()}")
    normal_values = values[:, normal]
    mu = normal_values.mean(axis=1)
    sd = normal_values.std(axis=1, ddof=1)
    keep = (normal_values.max(axis=1) > normal_values.min(axis=1)) & (sd > 0.0)
    del normal_values
    if not keep.any():
        raise ZeroVarianceError("every gene has zero variance in the normal group")
    skipped = tuple(compress(matrix.gene_ids, (~keep).tolist()))
    if skipped:
        values, mu, sd = values[keep], mu[keep], sd[keep]
    # standardized in place, unless values is still the caller's matrix
    uniform = np.empty(values.shape) if values is matrix.values else values
    np.subtract(values, mu[:, None], out=uniform)
    uniform /= sd[:, None]
    normal_cdf(uniform, out=uniform)
    return UniformMatrix(tuple(compress(matrix.gene_ids, keep.tolist())), uniform,
                         matrix.groups, skipped)


def estimate_lambdas(held_out, grid: Sequence[float] = LAMBDA_GRID) -> np.ndarray:
    """Betting fraction of each gene from its two held-out transformed tumor samples.

    held_out has shape (m, 2).  Plug-in 4 * |mean(pair) - 1/2| snapped to
    the nearest grid point (the first one on a tie): deterministic and
    monotone in the evidence of deviation from the null mean; a dead-center
    pair maps to the smallest candidate fraction.
    """
    pairs = np.asarray(held_out, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"exactly two held-out values per gene required, "
                         f"got shape {pairs.shape}")
    grid_arr = np.asarray(grid, dtype=float)
    raw = 2.0 * np.abs(pairs.mean(axis=1) - 0.5) * 2.0
    return grid_arr[np.argmin(np.abs(grid_arr[None, :] - raw[:, None]), axis=1)]


@dataclass(frozen=True)
class ScreeningInput:
    """Per-gene test sequences and betting fractions ready for the harness."""

    gene_ids: tuple[str, ...]
    sequences: np.ndarray            # shape (genes, test samples)
    lambdas: np.ndarray              # shape (genes,)
    held_out_columns: tuple[int, ...]


def prepare_screening(uniform: UniformMatrix, *, tumor_label: str = "tumor",
                      n_held_out: int = 2,
                      grid: Sequence[float] = LAMBDA_GRID) -> ScreeningInput:
    """Split off the held-out tumor columns and fix each gene's fraction.

    The first n_held_out tumor columns (in file order) are used for the
    fraction plug-in and discarded from the test sequences; the remaining
    columns keep their original order.
    """
    tumor_cols = [i for i, g in enumerate(uniform.groups) if g == tumor_label]
    if len(tumor_cols) < n_held_out:
        raise HeldOutError(
            f"need at least {n_held_out} tumor samples, found {len(tumor_cols)}")
    held = tuple(tumor_cols[:n_held_out])
    test_cols = [i for i in range(uniform.values.shape[1]) if i not in held]
    lambdas = estimate_lambdas(uniform.values[:, list(held)], grid)
    return ScreeningInput(uniform.gene_ids, uniform.values[:, test_cols],
                          lambdas, held)
