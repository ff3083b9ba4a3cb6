import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulafill import data_model
from copulafill.data_model import (
    CONTINUOUS,
    LOWER_TRUNCATED,
    ORDINAL,
    TWOSIDED_TRUNCATED,
    UPPER_TRUNCATED,
    DataTable,
    VariableType,
    detect_variable_types,
    parse_type_overrides,
    _parse_cell,
    format_row,
    iter_csv_rows,
    read_csv,
    write_csv,
)

import csv_oracle as oracle


def table_from_column(col):
    return DataTable(np.asarray(col, dtype=float).reshape(-1, 1), ["x"])


def detect_one(col, **kw):
    return detect_variable_types(table_from_column(col), **kw)[0]


class TestDetection:
    def test_low_mode_frequency_is_continuous(self):
        # AGE-style column: every frequency far below the threshold
        rng = np.random.default_rng(0)
        col = rng.normal(40, 12, size=1000)
        assert detect_one(col).tag == CONTINUOUS

    def test_concentrated_column_is_ordinal(self):
        # WEEKSWRK-style column: min freq 0.31, max freq 0.44, and the
        # de-extremed distribution still has mode frequency 0.13 >= 0.1
        col = np.concatenate([
            np.zeros(31),
            np.full(44, 52.0),
            np.repeat(np.arange(1, 26), 1),  # 25 middle levels
        ])
        mid = np.concatenate([col, np.full(4, 26.0)])  # mode_nominmax ~ 0.13
        got = detect_one(mid)
        assert got.tag == ORDINAL

    def test_zero_inflated_is_lower_truncated(self):
        # 300 exact zeros + 700 distinct positive reals: boundary mass 0.3,
        # remainder all-unique so its renormalized mode is 1/700 < 0.1
        rng = np.random.default_rng(1)
        col = np.concatenate([np.zeros(300), rng.uniform(0.1, 10, 700)])
        got = detect_one(col)
        assert got.tag == LOWER_TRUNCATED
        assert got.lower == 0.0

    def test_upper_and_twosided(self):
        rng = np.random.default_rng(2)
        col_up = np.concatenate([rng.uniform(0, 1, 700), np.ones(300)])
        got = detect_one(col_up)
        assert got.tag == UPPER_TRUNCATED and got.upper == 1.0
        col_two = np.concatenate(
            [np.zeros(200), rng.uniform(0.01, 0.99, 600), np.ones(200)]
        )
        got = detect_one(col_two)
        assert got.tag == TWOSIDED_TRUNCATED
        assert (got.lower, got.upper) == (0.0, 1.0)

    def test_binary_is_always_ordinal(self):
        assert detect_one([0, 1] * 50).tag == ORDINAL
        assert detect_one([0] * 90 + [1] * 10).tag == ORDINAL

    def test_single_level_is_ordinal(self):
        assert detect_one([3.0] * 20).tag == ORDINAL

    def test_tie_at_threshold_counts_as_concentrated(self):
        # mode frequency exactly 0.1 must not be continuous
        col = np.concatenate([np.zeros(10), np.arange(1, 91)])
        assert detect_one(col, min_ord_ratio=0.1).tag != CONTINUOUS

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        col = np.concatenate([np.zeros(30), rng.uniform(0, 5, 70)])
        base = detect_one(col)
        for seed in range(20):
            shuffled = np.random.default_rng(seed).permutation(col)
            assert detect_one(shuffled) == base

    def test_increasing_map_preserves_tag(self):
        rng = np.random.default_rng(4)
        cols = [
            rng.normal(size=300),
            np.concatenate([np.zeros(60), rng.uniform(0.2, 3, 240)]),
            rng.integers(0, 4, 300).astype(float),
        ]
        for col in cols:
            tag = detect_one(col).tag
            assert detect_one(np.exp(col)).tag == tag
            assert detect_one(3 * col + 1).tag == tag

    def test_empty_column_errors_with_name(self):
        tab = DataTable(np.array([[1.0, np.nan], [2.0, np.nan]]), ["a", "b"])
        with pytest.raises(ValueError, match="'b'"):
            detect_variable_types(tab)

    def test_missing_values_ignored(self):
        col = np.concatenate([np.zeros(30), np.random.default_rng(5).uniform(1, 2, 70),
                              [np.nan] * 40])
        assert detect_one(col).tag == LOWER_TRUNCATED


class TestDataTable:
    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            DataTable(np.array([[1.0, np.inf]]))

    def test_default_names(self):
        t = DataTable(np.zeros((2, 3)))
        assert t.col_names == ["col0", "col1", "col2"]

    def test_name_length_check(self):
        with pytest.raises(ValueError):
            DataTable(np.zeros((2, 3)), ["a"])


class TestVariableType:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            VariableType("categorical")

    def test_nonfinite_bound(self):
        with pytest.raises(ValueError):
            VariableType(LOWER_TRUNCATED, lower=np.inf)

    @pytest.mark.parametrize("lower, upper", [(2.0, 1.0), (1.5, 1.5)])
    def test_crossed_bounds_name_both(self, lower, upper):
        with pytest.raises(ValueError, match=rf"lower={lower} is not below upper={upper}"):
            VariableType(TWOSIDED_TRUNCATED, lower=lower, upper=upper)
        assert VariableType(TWOSIDED_TRUNCATED, lower=upper - 1.0, upper=upper).lower < upper


class TestCsv:
    def test_round_trip_missing_tokens(self):
        src = "a,b,c\n1,,3\n4,NaN,nan\n7,8,9\n"
        tab = read_csv(io.StringIO(src))
        assert tab.col_names == ["a", "b", "c"]
        assert np.isnan(tab.values[0, 1]) and np.isnan(tab.values[1, 1])
        assert np.isnan(tab.values[1, 2])
        buf = io.StringIO()
        write_csv(buf, tab.values, tab.col_names)
        again = read_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(again.values, tab.values, equal_nan=True)

    def test_six_significant_digits(self):
        buf = io.StringIO()
        write_csv(buf, np.array([[1.2345678, 1234567.8]]), ["a", "b"])
        assert buf.getvalue().splitlines()[1] == "1.23457,1.23457e+06"

    def test_parse_error_names_cell(self):
        with pytest.raises(ValueError, match="column 'b'"):
            read_csv(io.StringIO("a,b\n1,x\n"))

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO(""))

    def test_ragged_row(self):
        with pytest.raises(ValueError, match="fields"):
            read_csv(io.StringIO("a,b\n1\n"))


def written(values, names):
    buf = io.StringIO()
    write_csv(buf, values, names)
    return buf.getvalue()


class TestCsvWriterMatchesOracle:
    def test_edge_values(self):
        row = [-0.0, 1e-300, 1e300, 0.1 + 0.2, 999999.5, 1234567.8, 5e-324,
               -2.5e-5, 123456.4, 1e16 + 2]
        assert written(np.array([row]), list("abcdefghij")) == oracle.write_csv(
            np.array([row]), list("abcdefghij"))
        assert written(np.array([[-0.0, 0.1 + 0.2]]), ["a", "b"]) == "a,b\n-0,0.3\n"

    def test_integer_valued_floats(self):
        vals = np.array([[0.0, 1.0, -7.0, 100000.0, 1e6, 2.0 ** 53, 12345678.0]])
        names = [f"c{j}" for j in range(vals.shape[1])]
        assert written(vals, names) == oracle.write_csv(vals, names)
        assert written(vals, names).splitlines()[1] == (
            "0,1,-7,100000,1e+06,9.0072e+15,1.23457e+07")
        for ints in (vals.astype(np.int64), vals.astype(np.float32)):
            assert written(ints, names) == oracle.write_csv(ints, names)

    def test_nan_cells(self):
        vals = np.array([[np.nan, 1.5, np.nan], [np.nan, np.nan, np.nan],
                         [2.0, np.nan, -3.25]])
        assert written(vals, ["a", "b", "c"]) == oracle.write_csv(vals, ["a", "b", "c"])
        assert written(vals, ["a", "b", "c"]).splitlines()[2] == ",,"

    def test_one_column_nan_row_is_quoted(self):
        vals = np.array([[1.0], [np.nan], [0.5]])
        assert written(vals, ["x"]) == oracle.write_csv(vals, ["x"]) == (
            'x\n1\n""\n0.5\n')
        assert np.array_equal(read_csv(io.StringIO(written(vals, ["x"]))).values,
                              vals, equal_nan=True)

    def test_ci_shaped_tables(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-4, 7, (40, 6))
        observed = rng.random((40, 6)) < 0.7
        for bound in (vals - 1.96, vals + 1.96):
            ci = np.where(observed, np.nan, bound)
            names = [f"v{j}" for j in range(6)]
            assert written(ci, names) == oracle.write_csv(ci, names)

    def test_all_nan_rows_one_column_nan_and_negative_nan(self):
        neg_nan = np.copysign(np.nan, -1.0)
        vals = np.array([[np.nan] * 4, [1.0, neg_nan, -0.0, np.nan],
                         [neg_nan] * 4, [np.inf, -np.inf, 2.5, neg_nan]])
        names = list("abcd")
        assert written(vals, names) == oracle.write_csv(vals, names)
        assert written(vals, names).splitlines()[1:] == [
            ",,,", "1,,-0,", ",,,", "inf,-inf,2.5,"]
        col = np.array([[np.nan], [neg_nan], [3.0]])
        assert written(col, ["x"]) == oracle.write_csv(col, ["x"]) == (
            'x\n""\n""\n3\n')

    def test_format_row_is_the_line_without_its_end(self):
        assert format_row(np.array([1.2345678, np.nan, -2.0])) == "1.23457,,-2"
        assert format_row([np.nan]) == ""
        assert format_row(np.array([7, 8])) == "7,8"

    def test_header_names_with_comma_or_quote(self):
        names = ["a,b", 'say "hi"', "plain"]
        vals = np.array([[1.0, np.nan, 3.0]])
        text = written(vals, names)
        assert text == oracle.write_csv(vals, names)
        assert text.splitlines()[0] == '"a,b","say ""hi""",plain'
        assert read_csv(io.StringIO(text)).col_names == names

    def test_one_dimensional_values_are_one_row(self):
        assert written(np.array([1.0, np.nan]), ["a", "b"]) == "a,b\n1,\n"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=8))
    def test_any_float_row(self, row):
        vals = np.array([row])
        names = [f"c{j}" for j in range(len(row))]
        assert written(vals, names) == oracle.write_csv(vals, names)


def bits(x):
    return np.array([x], dtype=float).view(np.uint64)[0]


class TestCsvReaderFastPath:
    @pytest.mark.parametrize("token",
                             [" 1 ", "NaN", "nan", "-nan", "  ", "", "1_000", "2e3"])
    def test_same_bits_as_parse_cell(self, token):
        got = read_csv(io.StringIO(f"a,b\n{token},1\n")).values[0, 0]
        assert bits(got) == bits(_parse_cell(token, 0, "a"))

    def test_parse_cell_only_on_rows_the_fast_path_rejects(self, monkeypatch):
        seen = []
        real = data_model._parse_cell
        monkeypatch.setattr(data_model, "_parse_cell",
                            lambda tok, i, col: seen.append(i) or real(tok, i, col))
        tab = read_csv(io.StringIO("a,b\n1,\nNaN,2e3\n  ,3\n"))
        assert seen == [2, 2]
        assert np.array_equal(tab.values, [[1.0, np.nan], [np.nan, 2000.0],
                                           [np.nan, 3.0]], equal_nan=True)

    def test_bad_token_beside_empty_cells_names_its_cell(self):
        with pytest.raises(ValueError,
                           match="row 2, column 'b': cannot parse 'x' as a number"):
            read_csv(io.StringIO("a,b,c\n1,2,3\n,x,\n"))

    def test_a_blank_line_is_skipped_and_still_counted(self):
        tab = read_csv(io.StringIO("a,b\n1,2\n\n3,4\n"))
        assert tab.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError, match="row 3, column 'b'"):
            read_csv(io.StringIO("a,b\n1,2\n\n3,x\n"))

    def test_minus_zero_reads_as_zero_on_both_paths(self):
        # the second row holds a blank NA token, which only _parse_cell reads
        rows = list(iter_csv_rows(csv.reader(io.StringIO("-0,1\n-0, \n")), ["a", "b"]))
        assert [bits(row[0]) for row in rows] == [bits(0.0)] * 2

    def test_infinite_cell_is_rejected_by_the_table(self):
        with pytest.raises(ValueError,
                           match="row 1, column 'a': inf is infinite; cells must be "
                                 "finite"):
            read_csv(io.StringIO("a\ninf\n"))


class TestTypeOverrides:
    def test_parse(self):
        got = parse_type_overrides("continuous,,auto,ordinal", 4)
        assert got[0].tag == CONTINUOUS
        assert got[1] is None and got[2] is None
        assert got[3].tag == ORDINAL

    def test_bad_token(self):
        with pytest.raises(ValueError, match="unknown variable type"):
            parse_type_overrides("widget", 1)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="2 entries for 3 columns"):
            parse_type_overrides("auto,auto", 3)
