"""Tests for expression-matrix loading, the uniform transform and the
fraction plug-in."""

import csv

import numpy as np
import pytest
from scipy import stats

from hedgetest import cli
from hedgetest.ingest import (LAMBDA_GRID, ROW_BLOCK, ExpressionMatrix, HeldOutError,
                              UniformMatrix, ZeroVarianceError, estimate_lambdas,
                              load_expression_matrix, prepare_screening,
                              read_screening, transform_to_uniform)
from hedgetest.rng import stream

from oracles import (csv_float_reference, plug_in_lambda,
                     screening_input_by_whole_matrix, sequences_csv_rows_by_row)


def small_matrix(values, groups=("normal", "normal", "normal", "tumor", "tumor", "tumor")):
    ids = tuple(f"g{i}" for i in range(len(values)))
    return ExpressionMatrix(ids, np.asarray(values, dtype=float), tuple(groups))


class TestExpressionMatrix:
    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            small_matrix([[1.0, 2.0, np.nan, 1.0, 2.0, 3.0]])

    def test_requires_two_groups(self):
        with pytest.raises(ValueError):
            small_matrix([[1.0] * 6], groups=("normal",) * 6)

    def test_shape_consistency(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(("g0", "g1"), np.ones((1, 6)), ("normal",) * 3 + ("tumor",) * 3)


class TestLoader:
    def test_round_trip_csv(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,normal,normal,tumor,tumor\n"
                        "g0,1.0,2.0,3.0,4.0\n"
                        "g1,0.5,0.25,0.75,1.5\n")
        matrix = load_expression_matrix(path)
        assert matrix.gene_ids == ("g0", "g1")
        assert matrix.values.shape == (2, 4)
        assert matrix.groups == ("normal", "normal", "tumor", "tumor")

    def test_tab_delimited(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("gene\tnormal\ttumor\ng0\t1.0\t2.0\n")
        matrix = load_expression_matrix(path)
        assert matrix.values[0, 1] == 2.0

    @pytest.mark.parametrize("delimiter,newline,blank", [
        (",", "\n", False), ("\t", "\n", False), (",", "\n", True),
        ("\t", "\r\n", True), (",", "\r\n", False)])
    def test_numpy_parse_matches_csv_float_reference(self, tmp_path, delimiter,
                                                     newline, blank):
        rng = stream(306)
        values = np.exp(rng.normal(6.0, 2.0, (40, 12)))
        lines = [delimiter.join(["gene"] + ["normal"] * 6 + [" tumor"] * 6)]
        for g, row in enumerate(values):
            gene = f'"g,{g}"' if g % 7 == 0 and delimiter == "," else f" g{g} "
            texts = [repr(float(v)) if g % 2 else f"{v:.6g}" for v in row]
            lines.append(delimiter.join([gene] + texts))
            if blank and g % 5 == 0:
                lines.append("")
        path = tmp_path / "expr.txt"
        path.write_bytes(newline.join(lines + [""]).encode())
        ids, expected, groups = csv_float_reference(path)
        matrix = load_expression_matrix(path)
        assert matrix.gene_ids == ids and matrix.groups == groups
        assert matrix.values.shape == expected.shape == (40, 12)
        assert matrix.values.tobytes() == expected.tobytes()

    def test_unknown_labels_rejected(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,healthy,sick\ng0,1.0,2.0\n")
        with pytest.raises(ValueError):
            load_expression_matrix(path)


class TestTransform:
    def test_value_at_normal_mean_maps_to_half(self):
        # already standard-normal scale data: 0 maps to Phi(0) = 0.5
        rng = stream(301)
        ref = rng.standard_normal(5000)
        matrix = ExpressionMatrix(("g0",), np.append(ref, ref.mean())[None, :],
                                  ("normal",) * 5000 + ("tumor",))
        out = transform_to_uniform(matrix, log_transform=False).values[0]
        assert out[-1] == pytest.approx(0.5, abs=1e-12)

    def test_standard_normal_gene_is_uniform(self):
        # KS test against Uniform(0,1) at the 1% level, n = 1e4 draws
        rng = stream(302)
        n = 10_000
        values = rng.standard_normal((1, n))
        matrix = ExpressionMatrix(("g0",), values, ("normal",) * (n - 2) + ("tumor",) * 2)
        uniform = transform_to_uniform(matrix, log_transform=False)
        assert stats.kstest(uniform.values[0], "uniform").pvalue >= 0.01

    def test_constant_gene_flagged_and_skipped(self):
        matrix = small_matrix([[1.0] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        uniform = transform_to_uniform(matrix, log_transform=False)
        assert uniform.skipped_gene_ids == ("g0",)
        assert uniform.gene_ids == ("g1",)

    def test_constant_gene_alone_errors(self):
        constant_normals = ExpressionMatrix(("g0",), np.array([[3.0, 3.0, 3.0, 1.0, 2.0]]),
                                            ("normal",) * 3 + ("tumor",) * 2)
        with pytest.raises(ZeroVarianceError):
            transform_to_uniform(constant_normals, log_transform=False)
        with pytest.raises(ZeroVarianceError):
            transform_to_uniform(small_matrix([[2.0] * 6]), log_transform=False)

    def test_monotone_per_gene(self):
        rng = stream(303)
        values = rng.standard_normal((1, 50))
        matrix = ExpressionMatrix(("g0",), values, ("normal",) * 48 + ("tumor",) * 2)
        uniform = transform_to_uniform(matrix, log_transform=False)
        order_in = np.argsort(values[0])
        order_out = np.argsort(uniform.values[0])
        assert np.array_equal(order_in, order_out)

    def test_log_requires_positive_values(self):
        matrix = small_matrix([[1.0, 2.0, -3.0, 4.0, 5.0, 6.0]])
        with pytest.raises(ValueError):
            transform_to_uniform(matrix, log_transform=True)

    def test_log_then_standardize_pipeline(self):
        # log-normal raw data comes out uniform after the full pipeline
        rng = stream(304)
        n = 4000
        raw = np.exp(rng.standard_normal((1, n)))
        matrix = ExpressionMatrix(("g0",), raw, ("normal",) * (n - 2) + ("tumor",) * 2)
        uniform = transform_to_uniform(matrix, log_transform=True)
        assert stats.kstest(uniform.values[0], "uniform").pvalue >= 0.01

    def test_output_bounded(self):
        rng = stream(305)
        values = rng.standard_normal((5, 40))
        matrix = ExpressionMatrix(tuple(f"g{i}" for i in range(5)), values,
                                  ("normal",) * 30 + ("tumor",) * 10)
        uniform = transform_to_uniform(matrix, log_transform=False)
        assert np.all((uniform.values >= 0.0) & (uniform.values <= 1.0))


    def test_ndtr_matches_the_stats_normal_cdf(self):
        # the loader-sized matrix: ndtr is bit for bit the normal CDF it replaced
        from scipy.special import ndtr
        z = stream(307).standard_normal((6033, 102))
        assert ndtr(z).tobytes() == stats.norm.cdf(z).tobytes()
        matrix = ExpressionMatrix(tuple(f"g{i}" for i in range(6033)), z,
                                  ("normal",) * 50 + ("tumor",) * 52)
        normal = z[:, np.arange(102) < 50]
        standard = (z - normal.mean(axis=1)[:, None]) / normal.std(axis=1, ddof=1)[:, None]
        uniform = transform_to_uniform(matrix, log_transform=False)
        assert uniform.values.tobytes() == stats.norm.cdf(standard).tobytes()

    @pytest.mark.parametrize("log_transform", [True, False])
    @pytest.mark.parametrize("flat_gene", [None, 3])
    def test_transform_is_the_expression_bit_for_bit(self, log_transform, flat_gene):
        # ndtr((v[keep] - mu) / sd) as one expression; matrix.values untouched
        from scipy.special import ndtr
        values = np.exp(stream(308).standard_normal((8, 24)))
        groups = ("normal", "tumor") * 12
        normal = np.array(groups) == "normal"
        if flat_gene is not None:
            values[flat_gene, normal] = 1.0       # zero variance, also on log scale
        matrix = ExpressionMatrix(tuple(f"g{i}" for i in range(8)), values, groups)
        before = values.copy()
        uniform = transform_to_uniform(matrix, log_transform=log_transform)
        v = np.log(before) if log_transform else before
        mu, sd = v[:, normal].mean(axis=1), v[:, normal].std(axis=1, ddof=1)
        keep = sd > 0.0
        assert keep.sum() == 8 - (flat_gene is not None)
        expected = ndtr((v[keep] - mu[keep, None]) / sd[keep, None])
        assert uniform.values.tobytes() == expected.tobytes()
        assert matrix.values.tobytes() == before.tobytes()
        assert not np.shares_memory(uniform.values, matrix.values)


class TestEstimateLambda:
    def test_dead_center_pair_maps_to_smallest(self):
        assert estimate_lambdas([[0.5, 0.5]])[0] == LAMBDA_GRID[0]

    def test_monotone_in_deviation(self):
        strong = estimate_lambdas([[0.9, 0.95]])[0]
        weak = estimate_lambdas([[0.55, 0.5]])[0]
        assert strong > weak

    def test_output_always_on_grid(self):
        rng = stream(311)
        for _ in range(200):
            pair = rng.random(2)
            lam = estimate_lambdas([pair])[0]
            assert lam in LAMBDA_GRID
            assert 0.0 <= lam <= 2.0

    def test_large_deviations_clamp_to_top(self):
        assert estimate_lambdas([[1.0, 1.0]])[0] == LAMBDA_GRID[-1]

    def test_requires_exactly_two(self):
        with pytest.raises(ValueError):
            estimate_lambdas([[0.5]])
        with pytest.raises(ValueError):
            estimate_lambdas([[0.5, 0.5, 0.5]])

    def test_vectorized_equals_scalar_and_oracle(self):
        # values at and one ulp around the grid midpoints (some tie exactly),
        # dead center, both edges, and random pairs
        mids = np.array([0.5 + (a + b) / 8 for a, b in zip(LAMBDA_GRID, LAMBDA_GRID[1:])])
        mids = np.concatenate([mids, np.nextafter(mids, 0.0), np.nextafter(mids, 1.0)])
        pairs = np.vstack([np.column_stack([mids, mids]),
                           np.column_stack([1.0 - mids, 1.0 - mids]),
                           [[0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]],
                           stream(312).random((2000, 2))])
        lambdas = estimate_lambdas(pairs)
        assert lambdas.shape == (len(pairs),)
        for pair, lam in zip(pairs, lambdas.tolist()):
            assert lam == estimate_lambdas([pair])[0] == plug_in_lambda(pair, LAMBDA_GRID)
        assert estimate_lambdas([[0.5625, 0.5625]])[0] == 0.2     # 0.25 ties 0.2 and 0.3

    def test_vectorized_requires_pairs(self):
        with pytest.raises(ValueError):
            estimate_lambdas(np.full((4, 3), 0.5))
        with pytest.raises(ValueError):
            estimate_lambdas(np.full(4, 0.5))


class TestPrepareScreening:
    def _uniform(self, n_genes=4, n_normal=5, n_tumor=5, seed=321):
        rng = stream(seed)
        values = rng.random((n_genes, n_normal + n_tumor))
        groups = ("normal",) * n_normal + ("tumor",) * n_tumor
        ids = tuple(f"g{i}" for i in range(n_genes))
        return UniformMatrix(ids, values, groups, ())

    def test_holds_out_first_two_tumor_columns(self):
        uniform = self._uniform()
        prepared = prepare_screening(uniform)
        assert prepared.held_out_columns == (5, 6)
        assert prepared.sequences.shape == (4, 8)

    def test_held_out_never_in_test_sequence(self):
        uniform = self._uniform()
        prepared = prepare_screening(uniform)
        for g in range(4):
            held = uniform.values[g, list(prepared.held_out_columns)]
            seq = prepared.sequences[g]
            # structural check: the sequence is the matrix minus those columns
            kept = [c for c in range(uniform.values.shape[1])
                    if c not in prepared.held_out_columns]
            assert np.array_equal(seq, uniform.values[g, kept])
            for v in held:
                # and the plug-in used exactly the held-out pair
                assert prepared.lambdas[g] == estimate_lambdas([held])[0]

    def test_needs_two_tumor_samples(self):
        uniform = self._uniform(n_tumor=1)
        with pytest.raises(HeldOutError, match="need at least 2 tumor samples, found 1"):
            prepare_screening(uniform)


def write_block_matrix(path, genes, delimiter=",", newline="\n", blanks=(),
                       flat=(), quoted=(), seed=330):
    """A raw matrix of `genes` rows, 6 normal then 6 tumor columns: genes in
    `flat` have one value in every normal column, ids in `quoted` hold the
    delimiter inside quotes, and a blank line follows each gene in `blanks`."""
    values = np.exp(stream(seed).normal(5.0, 0.7, (genes, 12)))
    values[list(flat), :6] = 3.0
    lines = [delimiter.join(["gene"] + ["normal"] * 6 + ["tumor"] * 6)]
    for g, row in enumerate(values):
        gene = f'"id{delimiter}{g}"' if g in quoted else f"g{g}"
        lines.append(delimiter.join([gene] + [f"{v:.6g}" for v in row]))
        if g in blanks:
            lines.append("")
    path.write_bytes(newline.join(lines + [""]).encode())


class TestStreamedReader:
    """read_screening, and the CLI that runs it, against one whole-matrix pass."""

    @pytest.mark.parametrize("genes", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                       3 * ROW_BLOCK + 7])
    @pytest.mark.parametrize("delimiter,newline", [(",", "\n"), ("\t", "\r\n")])
    def test_blocks_are_the_whole_matrix_bit_for_bit(self, tmp_path, capsys, genes,
                                                     delimiter, newline):
        # skipped genes on both sides of each block edge, blank lines, and
        # quoted ids holding the delimiter
        edges = [e for b in range(1, 4) for e in (b * ROW_BLOCK - 1, b * ROW_BLOCK)]
        flat = [0, genes - 1] + [e for e in edges if e < genes]
        path = tmp_path / "matrix.txt"
        write_block_matrix(path, genes, delimiter, newline, blanks=range(0, genes, 97),
                           flat=flat, quoted=range(3, genes, 101))
        ids, lambdas, sequences, skipped = screening_input_by_whole_matrix(path)
        assert len(skipped) == len(set(flat))
        streamed = read_screening(path)
        assert (streamed.gene_ids, streamed.skipped_gene_ids) == (ids, skipped)
        assert streamed.held_out_columns == (6, 7)
        assert streamed.lambdas.tobytes() == lambdas.tobytes()
        assert streamed.sequences.tobytes() == sequences.tobytes()
        staged = prepare_screening(transform_to_uniform(load_expression_matrix(path)))
        assert staged.gene_ids == ids and staged.skipped_gene_ids == skipped
        assert staged.lambdas.tobytes() == lambdas.tobytes()
        assert staged.sequences.tobytes() == sequences.tobytes()
        assert cli.main(["ingest", "--input", str(path),
                         "--output", str(tmp_path / "out.csv")]) == 0
        text = (tmp_path / "out.csv").read_text()
        assert text.endswith(sequences_csv_rows_by_row(ids, lambdas, sequences))

    def test_lone_cr_breaks_and_no_final_break(self, tmp_path):
        # the rows are counted before the first block to size the output:
        # a lone CR ends a line, and the last line needs no break of its own
        path = tmp_path / "matrix.csv"
        write_block_matrix(path, 2 * ROW_BLOCK + 1, newline="\r")
        path.write_bytes(path.read_bytes().rstrip(b"\r"))
        ids, lambdas, sequences, _ = screening_input_by_whole_matrix(path)
        streamed = read_screening(path)
        assert streamed.gene_ids == ids and len(ids) == 2 * ROW_BLOCK + 1
        assert streamed.sequences.tobytes() == sequences.tobytes()
        assert streamed.lambdas.tobytes() == lambdas.tobytes()

    def test_a_bad_row_in_the_last_block_names_its_file_line(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_block_matrix(path, 2 * ROW_BLOCK + 5, blanks=(0, 700))
        lines = path.read_text().split("\n")
        lines[2 * ROW_BLOCK + 3] += ",7.5"     # file line 2B + 4: gene 2B + 1
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=rf"line {2 * ROW_BLOCK + 4}: expected 13 "):
            read_screening(path)
        with pytest.raises(ValueError, match=rf"line {2 * ROW_BLOCK + 4}: expected 13 "):
            load_expression_matrix(path)

    def test_a_block_of_one_wrong_width_names_its_first_line(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("gene,normal,normal,tumor,tumor\n\ng0,1,2,3\ng1,4,5,6\n")
        with pytest.raises(ValueError, match="line 3: expected 5 fields"):
            read_screening(path)

    def test_non_finite_and_non_positive_values_raise(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_block_matrix(path, ROW_BLOCK + 3)
        text = path.read_text().rstrip("\n").rpartition(",")[0]   # the last value cut
        path.write_text(text + ",nan\n")
        with pytest.raises(ValueError, match="missing or non-finite"):
            read_screening(path)
        path.write_text(text + ",-1.0\n")
        with pytest.raises(ValueError, match="strictly positive"):
            read_screening(path)
        assert read_screening(path, log_transform=False).sequences.shape == (ROW_BLOCK + 3, 10)

    def test_constant_genes_in_every_block_have_zero_variance(self, tmp_path):
        path = tmp_path / "matrix.csv"
        genes = 2 * ROW_BLOCK + 9
        write_block_matrix(path, genes, blanks=(ROW_BLOCK,), flat=range(genes))
        with pytest.raises(ZeroVarianceError, match="every gene has zero variance"):
            read_screening(path)
        with pytest.raises(ZeroVarianceError, match="every gene has zero variance"):
            transform_to_uniform(load_expression_matrix(path))

    @pytest.mark.parametrize("header,error,message", [
        ("gene,healthy,tumor", ValueError, "expected groups"),
        ("gene,normal,tumor,tumor,tumor", ZeroVarianceError, "got 1"),
        ("gene,normal,normal,tumor", HeldOutError, "found 1"),
    ])
    def test_the_header_is_checked_before_any_row(self, tmp_path, header, error, message):
        # the rows are ragged and non-numeric, and the header fault comes first
        path = tmp_path / "matrix.csv"
        path.write_text(f"{header}\ng0,1,x\n")
        with pytest.raises(error, match=message):
            read_screening(path)

    def test_no_gene_rows(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("gene,normal,normal,tumor,tumor\n\n\n")
        with pytest.raises(ValueError, match="no gene rows"):
            read_screening(path)
        with pytest.raises(ValueError, match="no gene rows"):
            load_expression_matrix(path)
