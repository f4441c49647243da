"""Tests for expression-matrix loading, the uniform transform and the
fraction plug-in."""

import csv

import numpy as np
import pytest
from scipy import stats

from hedgetest.ingest import (LAMBDA_GRID, ExpressionMatrix, HeldOutError,
                              UniformMatrix, ZeroVarianceError, estimate_lambdas,
                              load_expression_matrix, prepare_screening,
                              transform_to_uniform)
from hedgetest.rng import stream

from oracles import plug_in_lambda


def csv_float_reference(path):
    """The loader as a csv.reader loop with one float() per value: the
    (ids, values, groups) the numpy parse must reproduce bit for bit."""
    with open(path, newline="") as fh:
        first = fh.readline()
        delimiter = "\t" if first.count("\t") >= first.count(",") else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        groups = tuple(h.strip() for h in next(reader)[1:])
        ids, rows = [], []
        for row in reader:
            if row:
                ids.append(row[0].strip())
                rows.append([float(v) for v in row[1:]])
    return tuple(ids), np.asarray(rows, dtype=float), groups


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
