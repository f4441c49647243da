"""Tests for the expression-matrix reader: parsing, the uniform transform,
the held-out split and the fraction plug-in, each against a whole-matrix
reference."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from hedgetest import cli
from hedgetest.ingest import (LAMBDA_GRID, ROW_BLOCK, GroupError, HeldOutError,
                              ZeroVarianceError, estimate_lambdas, read_screening)
from hedgetest.rng import stream

from oracles import (plug_in_lambda, screening_input_by_whole_matrix,
                     sequences_csv_rows_by_row)


def write_matrix(path, values, groups):
    """values as a comma-separated matrix file, genes g0, g1, ... under a
    header of group labels; repr writes each double so that it reads back
    as the same double."""
    lines = [",".join(["gene", *groups])]
    lines += [",".join([f"g{i}", *map(repr, row)])
              for i, row in enumerate(np.asarray(values, dtype=float).tolist())]
    path.write_text("\n".join(lines) + "\n")
    return path


SIX = ("normal",) * 3 + ("tumor",) * 3

#: Gene ids that hold either delimiter, quotes, spaces, "#" and non-ASCII
#: text; no line break, which would split a csv.writer row across lines.
GENE_ID = st.text(st.one_of(st.sampled_from(',\t" #aé漢\U0001f600'),
                            st.characters(min_codepoint=0x80)), max_size=6)


class TestReader:
    def test_round_trip_csv(self, tmp_path):
        path = tmp_path / "expr.csv"
        path.write_text("gene,normal,normal,tumor,tumor,tumor\n"
                        "g0,1.0,2.0,3.0,4.0,5.0\n"
                        "g1,0.5,0.25,0.75,1.5,2.0\n")
        prepared = read_screening(path)
        assert prepared.gene_ids == ("g0", "g1")
        assert prepared.held_out_columns == (2, 3)
        assert prepared.sequences.shape == (2, 3)

    def test_tab_delimited(self, tmp_path):
        comma = tmp_path / "expr.csv"
        comma.write_text("gene,normal,normal,tumor,tumor,tumor\ng0,1.0,2.0,3.0,4.0,5.0\n")
        tab = tmp_path / "expr.tsv"
        tab.write_text(comma.read_text().replace(",", "\t"))
        assert read_screening(tab).sequences.tobytes() == read_screening(comma).sequences.tobytes()

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
        ids, lambdas, sequences, skipped = screening_input_by_whole_matrix(path)
        prepared = read_screening(path)
        assert prepared.gene_ids == ids and prepared.skipped_gene_ids == skipped == ()
        assert prepared.sequences.shape == sequences.shape == (40, 10)
        assert prepared.sequences.tobytes() == sequences.tobytes()
        assert prepared.lambdas.tobytes() == lambdas.tobytes()

    @given(ids=st.lists(GENE_ID, min_size=1, max_size=6), delimiter=st.sampled_from(",\t"))
    def test_ids_read_as_csv_reader_reads_them(self, tmp_path_factory, ids, delimiter):
        path = tmp_path_factory.mktemp("ids") / "matrix.txt"
        values = np.exp(stream(309).standard_normal((len(ids), 6)))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
            writer.writerow(["gene", *SIX])
            writer.writerows([gene_id, *map(repr, row)]
                             for gene_id, row in zip(ids, values.tolist()))
        with open(path, newline="") as fh:
            _, *rows = csv.reader(fh, delimiter=delimiter)
        assert read_screening(path).gene_ids == tuple(row[0].strip() for row in rows)

    @pytest.mark.parametrize("field,gene_id", [
        ('ab"c', 'ab"c'), ('"ab" x', "ab x"), (' "ab"', '"ab"'), ('"ab"x', "abx"),
        ('"a""b"', 'a"b')])
    def test_quotes_inside_ids_read_as_pinned(self, tmp_path, field, gene_id):
        # a quote opens a quoted field only as the field's first character
        path = tmp_path / "expr.csv"
        path.write_text(f"gene,{','.join(SIX)}\n{field},1,2,3,4,5,6\n")
        assert read_screening(path).gene_ids == (gene_id,)

    @pytest.mark.parametrize("header", ["", "\n", "   \n", "\t\n"])
    def test_an_empty_header_is_a_group_error_without_a_warning(self, tmp_path, header):
        path = tmp_path / "expr.csv"
        path.write_text(header + "g0,1,2,3,4,5,6\n" * bool(header))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GroupError, match="expected groups"):
                read_screening(path)


class TestTransform:
    def test_value_at_normal_mean_maps_to_half(self, tmp_path):
        # already standard-normal scale data: 0 maps to Phi(0) = 0.5; the two
        # held-out tumor columns come before the tested one
        ref = stream(301).standard_normal(5000)
        path = write_matrix(tmp_path / "m.csv", [np.append(ref, [0.0, 0.0, ref.mean()])],
                            ("normal",) * 5000 + ("tumor",) * 3)
        out = read_screening(path, log_transform=False).sequences[0]
        assert out[-1] == pytest.approx(0.5, abs=1e-12)

    def test_standard_normal_gene_is_uniform(self, tmp_path):
        # KS test against Uniform(0,1) at the 1% level, n = 1e4 draws
        n = 10_000
        path = write_matrix(tmp_path / "m.csv", stream(302).standard_normal((1, n)),
                            ("normal",) * (n - 2) + ("tumor",) * 2)
        prepared = read_screening(path, log_transform=False)
        assert stats.kstest(prepared.sequences[0], "uniform").pvalue >= 0.01

    def test_constant_gene_flagged_and_skipped(self, tmp_path):
        path = write_matrix(tmp_path / "m.csv", [[1.0] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
                            SIX)
        prepared = read_screening(path, log_transform=False)
        assert prepared.skipped_gene_ids == ("g0",)
        assert prepared.gene_ids == ("g1",)

    @pytest.mark.parametrize("values,groups", [
        ([[3.0, 3.0, 3.0, 1.0, 2.0]], ("normal",) * 3 + ("tumor",) * 2),
        ([[2.0] * 6], SIX)])
    def test_constant_gene_alone_errors(self, tmp_path, values, groups):
        path = write_matrix(tmp_path / "m.csv", values, groups)
        with pytest.raises(ZeroVarianceError):
            read_screening(path, log_transform=False)

    def test_monotone_per_gene(self, tmp_path):
        values = stream(303).standard_normal((1, 50))
        path = write_matrix(tmp_path / "m.csv", values, ("normal",) * 48 + ("tumor",) * 2)
        out = read_screening(path, log_transform=False).sequences[0]
        assert np.array_equal(np.argsort(values[0, :48]), np.argsort(out))

    def test_log_then_standardize_pipeline(self, tmp_path):
        # log-normal raw data comes out uniform after the full pipeline
        n = 4000
        raw = np.exp(stream(304).standard_normal((1, n)))
        path = write_matrix(tmp_path / "m.csv", raw, ("normal",) * (n - 2) + ("tumor",) * 2)
        prepared = read_screening(path, log_transform=True)
        assert stats.kstest(prepared.sequences[0], "uniform").pvalue >= 0.01

    def test_output_bounded(self, tmp_path):
        path = write_matrix(tmp_path / "m.csv", stream(305).standard_normal((5, 40)),
                            ("normal",) * 30 + ("tumor",) * 10)
        out = read_screening(path, log_transform=False).sequences
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_ndtr_matches_the_stats_normal_cdf(self, tmp_path):
        # the loader-sized matrix: ndtr is bit for bit the normal CDF it replaced
        from scipy.special import ndtr
        z = stream(307).standard_normal((6033, 102))
        assert ndtr(z).tobytes() == stats.norm.cdf(z).tobytes()
        path = write_matrix(tmp_path / "m.csv", z, ("normal",) * 50 + ("tumor",) * 52)
        normal = z[:, np.arange(102) < 50]
        standard = (z - normal.mean(axis=1)[:, None]) / normal.std(axis=1, ddof=1)[:, None]
        test_cols = [c for c in range(102) if c not in (50, 51)]
        prepared = read_screening(path, log_transform=False)
        assert prepared.sequences.tobytes() == stats.norm.cdf(standard)[:, test_cols].tobytes()

    @pytest.mark.parametrize("log_transform", [True, False])
    @pytest.mark.parametrize("flat_gene", [None, 3])
    def test_transform_is_the_expression_bit_for_bit(self, tmp_path, log_transform,
                                                     flat_gene):
        # ndtr((v[keep] - mu) / sd) as one expression; with the groups
        # interleaved, the first two tumor columns (1 and 3) pick the
        # fraction and every other column is tested in file order
        from scipy.special import ndtr
        values = np.exp(stream(308).standard_normal((8, 24)))
        groups = ("normal", "tumor") * 12
        normal = np.array(groups) == "normal"
        if flat_gene is not None:
            values[flat_gene, normal] = 1.0       # zero variance, also on log scale
        path = write_matrix(tmp_path / "m.csv", values, groups)
        prepared = read_screening(path, log_transform=log_transform)
        v = np.log(values) if log_transform else values
        mu, sd = v[:, normal].mean(axis=1), v[:, normal].std(axis=1, ddof=1)
        keep = sd > 0.0
        assert keep.sum() == 8 - (flat_gene is not None)
        expected = ndtr((v[keep] - mu[keep, None]) / sd[keep, None])
        assert prepared.held_out_columns == (1, 3)
        assert prepared.sequences.tobytes() == expected[:, [0, 2, *range(4, 24)]].tobytes()
        assert prepared.lambdas.tobytes() == estimate_lambdas(expected[:, [1, 3]]).tobytes()


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

    @pytest.mark.parametrize("header,labels,error,message", [
        ("gene,healthy,tumor", {}, GroupError, "expected groups"),
        ("gene,normal,normal,normal", {}, GroupError, "expected groups"),
        ("gene,normal,normal,tumor,tumor", {"normal_label": "healthy"}, GroupError,
         "expected groups"),
        ("gene,normal,normal,tumor,tumor", {"tumor_label": "cancer"}, GroupError,
         "expected groups"),
        ("gene,normal,tumor,tumor,tumor", {}, ZeroVarianceError, "got 1"),
        ("gene,normal,normal,tumor", {}, HeldOutError, "found 1"),
        ("gene" + ",x" * 8, {"normal_label": "x", "tumor_label": "x"}, GroupError,
         "labels must differ, both are 'x'"),
    ])
    def test_the_header_is_checked_before_any_row(self, tmp_path, capsys, header, labels,
                                                  error, message):
        # the rows are ragged and non-numeric, and the header fault comes first;
        # through the CLI every header fault is a configuration error, exit 2
        path = tmp_path / "matrix.csv"
        path.write_text(f"{header}\ng0,1,x\n")
        with pytest.raises(error, match=message):
            read_screening(path, **labels)
        options = [f"--{key.replace('_', '-')}={value}" for key, value in labels.items()]
        for argv in (["screen", "--matrix", str(path)],
                     ["ingest", "--input", str(path), "--output", str(tmp_path / "o.csv")]):
            assert cli.main(argv + options) == cli.EXIT_CONFIG
            assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_no_gene_rows(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("gene,normal,normal,tumor,tumor\n\n\n")
        with pytest.raises(ValueError, match="no gene rows"):
            read_screening(path)
