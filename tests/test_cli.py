import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from copulafill import cli, copula_em, imputer, latent, lrgc
from copulafill.cli import main
from copulafill.copula_em import fit_standard
from copulafill.data_model import DataTable, format_row, read_csv, write_csv
from copulafill.evaluation import mask_mcar, ordinal_spec, random_correlation, sample_gc
from copulafill.imputer import confidence_intervals, impute_multiple, impute_single
from copulafill.lrgc import fit_lrgc
from copulafill.marginals import Marginal
from copulafill.streaming import StreamConfig, init_stream, step

import csv_oracle


@pytest.fixture()
def toy_csv(tmp_path):
    corr = random_correlation(3, seed=0)
    truth = sample_gc(200, [norm.ppf, norm(loc=2).ppf, norm(scale=3).ppf],
                      corr=corr, seed=1)
    masked = mask_mcar(truth, 0.15, seed=2)
    truth_path = tmp_path / "truth.csv"
    masked_path = tmp_path / "masked.csv"
    write_csv(truth_path, truth.values, truth.col_names)
    write_csv(masked_path, masked.values, masked.col_names)
    return truth_path, masked_path


class TestImputeCommand:
    def test_fills_all_cells(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out = tmp_path / "out.csv"
        assert main(["impute", str(masked_path), "-o", str(out)]) == 0
        got = read_csv(out)
        assert not np.isnan(got.values).any()
        assert got.col_names == ["col0", "col1", "col2"]

    def test_observed_cells_preserved(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out = tmp_path / "out.csv"
        main(["impute", str(masked_path), "-o", str(out)])
        masked = read_csv(masked_path)
        got = read_csv(out)
        obs = ~np.isnan(masked.values)
        assert np.allclose(got.values[obs], masked.values[obs], rtol=1e-5)

    def test_byte_identical_reruns(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["impute", str(masked_path), "-o", str(a), "--seed", "3"])
        main(["impute", str(masked_path), "-o", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_minibatch_requires_wide_batches(self, toy_csv, tmp_path, capsys):
        _, masked_path = toy_csv
        code = main(["impute", str(masked_path), "-o", str(tmp_path / "x.csv"),
                     "--mode", "minibatch-offline", "--batch-size", "2"])
        assert code == 1
        assert "batch size" in capsys.readouterr().err

    def test_minibatch_mode_runs(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out = tmp_path / "mb.csv"
        code = main(["impute", str(masked_path), "-o", str(out),
                     "--mode", "minibatch-offline", "--batch-size", "50"])
        assert code == 0
        assert not np.isnan(read_csv(out).values).any()

    def test_rank_routes_to_lowrank(self, tmp_path):
        from copulafill.lrgc import LowRankParams

        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 2))
        w *= np.sqrt(0.85) / np.linalg.norm(w, axis=1, keepdims=True)
        tab = sample_gc(300, [norm.ppf] * 6,
                        lowrank=LowRankParams(w, 0.15), seed=5)
        masked = mask_mcar(tab, 0.2, seed=6)
        path = tmp_path / "wide.csv"
        write_csv(path, masked.values, masked.col_names)
        out = tmp_path / "wide_imp.csv"
        corr_out = tmp_path / "corr.csv"
        code = main(["impute", str(path), "-o", str(out), "--rank", "2",
                     "--corr-out", str(corr_out)])
        assert code == 0
        corr = read_csv(corr_out).values
        # rank-2 plus isotropic noise: the trailing eigenvalues are equal
        w_eig = np.sort(np.linalg.eigvalsh(corr))
        assert np.allclose(w_eig[:4], w_eig[0], atol=1e-8)

    def test_dense_corr_out_is_the_fitted_correlation(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out, corr_out = tmp_path / "out.csv", tmp_path / "corr.csv"
        assert main(["impute", str(masked_path), "-o", str(out),
                     "--corr-out", str(corr_out)]) == 0
        corr = fit_standard(read_csv(masked_path)).corr
        assert corr_out.read_text().splitlines() == [
            "col0,col1,col2", *(format_row(row) for row in corr)]

    def test_ci_files(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out = tmp_path / "out.csv"
        code = main(["impute", str(masked_path), "-o", str(out),
                     "--ci", "analytic", "--alpha", "0.05"])
        assert code == 0
        lo = read_csv(tmp_path / "out_ci_lower.csv")
        hi = read_csv(tmp_path / "out_ci_upper.csv")
        masked = read_csv(masked_path)
        cells = np.isnan(masked.values)
        assert np.all(lo.values[cells] <= hi.values[cells])
        assert np.isnan(lo.values[~cells]).all()

    def test_multiple_files(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out = tmp_path / "out.csv"
        code = main(["impute", str(masked_path), "-o", str(out),
                     "--multiple", "3"])
        assert code == 0
        for k in (1, 2, 3):
            draws = read_csv(tmp_path / f"out_imp{k}.csv")
            assert not np.isnan(draws.values).any()

    def test_types_override(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out = tmp_path / "out.csv"
        code = main(["impute", str(masked_path), "-o", str(out),
                     "--types", "continuous,continuous,continuous"])
        assert code == 0

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,zzz\n")
        code = main(["impute", str(bad), "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "parse failure" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["impute", str(tmp_path / "none.csv"),
                     "-o", str(tmp_path / "x.csv")]) == 2

    def test_flag_validation_exit_1(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        out = str(tmp_path / "x.csv")
        assert main(["impute", str(masked_path), "-o", out,
                     "--alpha", "1.5"]) == 1
        assert main(["impute", str(masked_path), "-o", out,
                     "--types", "widget,a,b"]) == 1
        assert main(["impute", str(masked_path), "-o", out,
                     "--mode", "minibatch-online"]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--stepsize-c", "-1"], "stepsize must lie in (0, 1) for every iteration"),
        (["--stepsize-c", "-3"], "stepsize must lie in (0, 1) for every iteration"),
        (["--tol", "nan"], "tol must be positive, got nan"),
    ])
    def test_bad_flag_value_exit_1_without_traceback(self, toy_csv, tmp_path, capsys,
                                                     flags, message):
        _, masked_path = toy_csv
        assert main(["impute", str(masked_path), "-o", str(tmp_path / "x.csv"),
                     *flags]) == 1
        assert capsys.readouterr().err == f"copulafill: {message}\n"

    def test_removed_workers_flag_exit_1(self, toy_csv, tmp_path):
        _, masked_path = toy_csv
        assert main(["impute", str(masked_path), "-o", str(tmp_path / "x.csv"),
                     "--workers", "2"]) == 1

    @pytest.mark.parametrize("flags", [["--multiple", "2"],
                                       ["--mode", "minibatch-offline"],
                                       ["--ci", "quantile"]])
    def test_negative_seed_exit_1_before_output(self, toy_csv, tmp_path, capsys,
                                                flags):
        _, masked_path = toy_csv
        out = tmp_path / "x.csv"
        assert main(["impute", str(masked_path), "-o", str(out),
                     "--seed", "-1", *flags]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_unwritable_output_exit_1(self, toy_csv, tmp_path, capsys):
        _, masked_path = toy_csv
        nodir = tmp_path / "nodir"
        for flags in (["-o", str(nodir / "x.csv")],
                      ["-o", str(tmp_path / "x.csv"), "--corr-out",
                       str(nodir / "c.csv")],
                      ["-o", str(tmp_path)],
                      ["-o", str(tmp_path / "o4.csv"), "--corr-out", str(tmp_path)]):
            assert main(["impute", str(masked_path), *flags]) == 1
            err = capsys.readouterr().err
            assert f"cannot write {flags[-1]}" in err
            assert "Traceback" not in err
        # a directory is refused before the fit, so no output is written
        assert f"cannot write {tmp_path}: it is a directory" in err
        assert not (tmp_path / "o4.csv").exists()

    def test_online_fit_failure_exit_3(self, tmp_path, capsys):
        path = tmp_path / "empty_col.csv"
        path.write_text("a,b\n1,\n2,\n3,\n")
        code = main(["impute", str(path), "-o", str(tmp_path / "x.csv")])
        assert code == 3
        assert "fit failed" in capsys.readouterr().err

    def test_help_lists_defaults(self, capsys):
        assert main(["impute", "--help"]) == 0
        text = capsys.readouterr().out
        assert main(["stream", "--help"]) == 0
        stream_text = capsys.readouterr().out
        for token in ("--tol", "0.01", "--batch-size", "100"):
            assert token in text
        for token in ("--decay", "--window-size", "200", "0.1"):
            assert token in stream_text


class TestStreamCommand:
    @pytest.fixture()
    def stream_files(self, tmp_path):
        # two always-hidden columns revealed one tick later, as in a daily
        # feed where some series lag behind the others
        corr = random_correlation(4, seed=30, n_factors=2, noise=0.5)
        truth = sample_gc(140, [norm.ppf] * 4, corr=corr, seed=7)
        masked = truth.values.copy()
        masked[:, 2] = np.nan
        masked[:, 3] = np.nan
        in_path = tmp_path / "stream.csv"
        truth_path = tmp_path / "stream_truth.csv"
        write_csv(in_path, masked, truth.col_names)
        write_csv(truth_path, truth.values, truth.col_names)
        return in_path, truth_path

    def test_end_to_end_with_truth(self, stream_files, tmp_path):
        in_path, truth_path = stream_files
        out = tmp_path / "streamed.csv"
        code = main(["stream", str(in_path), "-o", str(out),
                     "--truth", str(truth_path), "--n-train", "25",
                     "--window-size", "30", "--batch-size", "10",
                     "--decay", "0.01"])
        assert code == 0
        got = read_csv(out)
        assert got.col_names[-1] == "warmup"
        warm = got.values[:, -1]
        assert np.all(warm[:25] == 1) and np.all(warm[25:] == 0)
        # warmup rows are echoed, later rows are imputed
        assert np.isnan(got.values[:25, 2]).all()
        assert not np.isnan(got.values[25:, :4]).any()

    def test_small_decay_over_a_long_window(self, tmp_path):
        # 0.01**t underflows to 0 from t = 162 on, within the default
        # window of 200; every weight must stay positive
        corr = random_correlation(4, seed=31, n_factors=2, noise=0.5)
        specs = [norm.ppf, ordinal_spec([0.2, 0.3, 0.3, 0.2]), norm.ppf, norm.ppf]
        masked = mask_mcar(sample_gc(260, specs, corr=corr, seed=8), 0.3, seed=9)
        in_path, out = tmp_path / "long.csv", tmp_path / "out.csv"
        write_csv(in_path, masked.values, masked.col_names)
        assert main(["stream", str(in_path), "-o", str(out), "--decay", "0.01"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 260
        assert all("" not in row.split(",") for row in rows if row.endswith(",0"))

    def test_decay_zero_rejected(self, stream_files, tmp_path):
        in_path, truth_path = stream_files
        code = main(["stream", str(in_path), "-o", str(tmp_path / "x.csv"),
                     "--decay", "0"])
        assert code == 1
        assert main(["stream", str(in_path), "-o", str(tmp_path / "y.csv"),
                     "--truth", str(truth_path), "--decay", "0.01"]) == 0

    def test_too_few_rows_for_warmup(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        code = main(["stream", str(path), "-o", str(tmp_path / "x.csv"),
                     "--n-train", "10"])
        assert code == 2

    def test_missing_input_or_truth_exit_2(self, stream_files, tmp_path):
        in_path, _ = stream_files
        none = str(tmp_path / "none.csv")
        assert main(["stream", none, "-o", str(tmp_path / "x.csv")]) == 2
        assert main(["stream", str(in_path), "-o", str(tmp_path / "y.csv"),
                     "--truth", none]) == 2

    def test_unwritable_output_exit_1(self, stream_files, tmp_path, capsys,
                                      monkeypatch):
        in_path, _ = stream_files
        monkeypatch.setattr("sys.stdin", io.StringIO(in_path.read_text()))
        out = str(tmp_path / "nodir" / "y.csv")
        assert main(["stream", "-", "-o", out]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["input", "--truth"])
    def test_output_that_is_an_input_exit_1(self, stream_files, capsys, which):
        in_path, truth_path = stream_files
        target = in_path if which == "input" else truth_path
        before = target.read_bytes()
        # another spelling of the same path: the check compares files
        out = str(target.parent / "." / target.name)
        code = main(["stream", str(in_path), "-o", out, "--truth", str(truth_path)])
        assert code == 1
        assert target.read_bytes() == before
        assert f"cannot write {out}: it is the {which} file" in capsys.readouterr().err

    def test_unparsable_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = "".join(f"{i}.0,{i % 3}.5,0.{i}\n" for i in range(1, 9))
        path.write_text("a,b,c\n" + rows + "1.0,zzz,0.3\n")
        code = main(["stream", str(path), "-o", str(tmp_path / "x.csv"),
                     "--n-train", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse failure" in err and "row 9" in err and "'b'" in err

    def test_short_truth_file_exit_2(self, stream_files, tmp_path, capsys):
        in_path, truth_path = stream_files
        short = tmp_path / "short_truth.csv"
        short.write_text("".join(truth_path.read_text().splitlines(True)[:41]))
        code = main(["stream", str(in_path), "-o", str(tmp_path / "x.csv"),
                     "--truth", str(short), "--n-train", "25"])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse failure" in err and "row 41" in err

    def test_disagreeing_truth_names_the_header_column(self, stream_files,
                                                       tmp_path, capsys):
        in_path, truth_path = stream_files
        renamed, bad = tmp_path / "renamed.csv", tmp_path / "bad_truth.csv"
        lines = in_path.read_text().splitlines(True)
        renamed.write_text("".join(["w,x,y,z\n"] + lines[1:]))
        lines = truth_path.read_text().splitlines(True)
        lines[30] = "9," + lines[30].split(",", 1)[1]
        bad.write_text("".join(["w,x,y,z\n"] + lines[1:]))
        code = main(["stream", str(renamed), "-o", str(tmp_path / "x.csv"),
                     "--truth", str(bad), "--n-train", "25"])
        assert code == 3
        assert "observed column 'w'" in capsys.readouterr().err


class TestStreamAnswersBeforeFolding:
    """``stream`` writes each row's line before it folds the row in; the
    lines are those of a library ``step`` replay."""

    @pytest.fixture()
    def files(self, tmp_path):
        corr = random_correlation(4, seed=40, n_factors=2, noise=0.5)
        specs = [norm.ppf, ordinal_spec([0.3, 0.4, 0.3]), norm(loc=1).ppf, norm.ppf]
        truth = sample_gc(80, specs, corr=corr, seed=41)
        masked = mask_mcar(truth, 0.3, seed=42)
        in_path, truth_path = tmp_path / "in.csv", tmp_path / "truth.csv"
        write_csv(in_path, masked.values, masked.col_names)
        write_csv(truth_path, truth.values, truth.col_names)
        return in_path, truth_path

    @pytest.mark.parametrize("decay", ["1", "0.95"])
    @pytest.mark.parametrize("with_truth", [False, True])
    def test_lines_are_a_library_replay(self, files, tmp_path, decay, with_truth):
        in_path, truth_path = files
        out = tmp_path / "out.csv"
        flags = ["--truth", str(truth_path)] if with_truth else []
        assert main(["stream", str(in_path), "-o", str(out), "--decay", decay,
                     "--batch-size", "10", *flags]) == 0
        masked = read_csv(in_path)
        revealed = read_csv(truth_path).values if with_truth else [None] * masked.n_rows
        warm = read_csv(truth_path if with_truth else in_path).values[:25]
        state = init_stream(DataTable(warm, masked.col_names),
                            StreamConfig(decay=float(decay), batch_size=10))
        want = [",".join(masked.col_names + ["warmup"])]
        want += [format_row(row) + ",1" for row in masked.values[:25]]
        for row, rev in zip(masked.values[25:], revealed[25:]):
            want.append(format_row(step(state, row, rev)[0]) + ",0")
        assert out.read_text().splitlines() == want

    def test_a_disagreeing_revealed_row_ends_the_output_before_its_line(self, files,
                                                                         tmp_path, capsys):
        in_path, truth_path = files
        masked, truth = read_csv(in_path), read_csv(truth_path)
        t = 31     # the seventh row after the 25 warm-up rows
        j = int(np.flatnonzero(~np.isnan(masked.values[t]))[0])
        values = truth.values.copy()
        values[t, j] += 1.0
        bad = tmp_path / "bad_truth.csv"
        write_csv(bad, values, truth.col_names)
        out, full = tmp_path / "out.csv", tmp_path / "full.csv"
        assert main(["stream", str(in_path), "-o", str(out), "--truth", str(bad)]) == 3
        assert f"observed column {truth.col_names[j]!r}" in capsys.readouterr().err
        assert main(["stream", str(in_path), "-o", str(full), "--truth", str(truth_path)]) == 0
        # the header, the 25 warm-up lines and the lines of rows 25..t-1
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + t
        assert lines == full.read_text().splitlines()[:1 + t]


class TestDuplicateHeader:
    def test_impute_and_stream_reject_duplicate_names(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        rows = "".join(f"{i},{2 * i},{i % 4}\n" for i in range(30))
        path.write_text("a, a ,b\n" + rows)
        for cmd in (["impute", str(path), "-o", str(tmp_path / "x.csv")],
                    ["stream", str(path), "-o", str(tmp_path / "y.csv")]):
            assert main(cmd) == 2
            err = capsys.readouterr().err
            assert "parse failure" in err and "duplicate column name 'a'" in err


class TestEvaluateCommand:
    def test_perfect_and_median_scores(self, toy_csv, tmp_path, capsys):
        truth_path, masked_path = toy_csv
        truth = read_csv(truth_path)
        masked = read_csv(masked_path)
        med = np.nanmedian(masked.values, axis=0)
        median_imp = np.where(np.isnan(masked.values), med, masked.values)
        med_path = tmp_path / "median.csv"
        write_csv(med_path, median_imp, truth.col_names)
        code = main(["evaluate", "--truth", str(truth_path),
                     "--masked", str(masked_path), "--imputed", str(med_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1.000" in out and "pooled mae" in out

        code = main(["evaluate", "--truth", str(truth_path),
                     "--masked", str(masked_path), "--imputed", str(truth_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.000" in out

    def test_coverage_line_format(self, toy_csv, tmp_path, capsys):
        truth_path, masked_path = toy_csv
        out = tmp_path / "out.csv"
        main(["impute", str(masked_path), "-o", str(out), "--ci", "analytic"])
        code = main(["evaluate", "--truth", str(truth_path),
                     "--masked", str(masked_path), "--imputed", str(out),
                     "--ci-lower", str(tmp_path / "out_ci_lower.csv"),
                     "--ci-upper", str(tmp_path / "out_ci_upper.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        import re

        assert any(re.fullmatch(r"coverage: 0\.\d{3}", ln) for ln in lines)

    @pytest.mark.parametrize("given,missing", [("--ci-lower", "--ci-upper"),
                                               ("--ci-upper", "--ci-lower")])
    def test_one_ci_bound_exit_1(self, toy_csv, capsys, given, missing):
        truth_path, masked_path = toy_csv
        code = main(["evaluate", "--truth", str(truth_path),
                     "--masked", str(masked_path), "--imputed", str(truth_path),
                     given, str(truth_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{missing} is missing" in captured.err

    @pytest.mark.parametrize("which", ["--imputed", "--ci-upper"])
    def test_shape_mismatch_exit_2(self, toy_csv, tmp_path, capsys, which):
        truth_path, masked_path = toy_csv
        truth = read_csv(truth_path)
        short = tmp_path / "short.csv"
        write_csv(short, truth.values[:50], truth.col_names)
        files = {"--imputed": truth_path, "--ci-lower": truth_path,
                 "--ci-upper": truth_path, which: short}
        code = main(["evaluate", "--truth", str(truth_path),
                     "--masked", str(masked_path),
                     *[arg for kv in files.items() for arg in map(str, kv)]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse failure" in captured.err and "differ in shape" in captured.err
        assert f"{short} 50x3" in captured.err
        assert f"{truth_path} 200x3" in captured.err


@pytest.fixture()
def mixed_csv(tmp_path):
    """A 6-column table with ordinal columns and 25% MCAR cells."""
    corr = random_correlation(6, seed=40, n_factors=2, noise=0.5)
    specs = [norm.ppf, ordinal_spec([0.2, 0.3, 0.3, 0.2]), norm(scale=2).ppf,
             ordinal_spec([0.5, 0.5]), norm(loc=1).ppf, norm.ppf]
    masked = mask_mcar(sample_gc(160, specs, corr=corr, seed=41), 0.25, seed=42)
    path = tmp_path / "mixed.csv"
    write_csv(path, masked.values, masked.col_names)
    return path


class TestOneSolvePerJob:
    @pytest.mark.parametrize("rank", [0, 2])
    def test_outputs_are_the_library_results(self, mixed_csv, tmp_path, rank):
        out = tmp_path / "out.csv"
        flags = ["--rank", str(rank)] if rank else []
        assert main(["impute", str(mixed_csv), "-o", str(out), "--ci", "analytic",
                     "--multiple", "3", *flags]) == 0
        table = read_csv(mixed_csv)
        model = fit_lrgc(table, rank) if rank else fit_standard(table)
        names = table.col_names
        lower, upper = confidence_intervals(model, table)
        want = {"": impute_single(model, table).imputed,
                "_ci_lower": lower, "_ci_upper": upper}
        for k, draw in enumerate(impute_multiple(model, table, num=3), start=1):
            want[f"_imp{k}"] = draw
        for suffix, values in want.items():
            got = (tmp_path / f"out{suffix}.csv").read_text(encoding="utf-8")
            assert got == csv_oracle.write_csv(values, names), suffix

    @pytest.mark.parametrize("rank", [0, 2])
    def test_one_encode_and_one_solve_after_the_fit(self, mixed_csv, tmp_path,
                                                    monkeypatch, rank):
        events = []

        def record(owner, name, event, after=False):
            func = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if not after:
                    events.append(event)
                result = func(*args, **kwargs)
                if after:
                    events.append(event)
                return result
            monkeypatch.setattr(owner, name, wrapper)

        for fit in ("fit_standard", "fit_lrgc"):
            record(cli, fit, "fitted", after=True)
        for owner in (copula_em, imputer):
            record(owner, "encode_table", "encode")
        for owner in (latent, lrgc):
            record(owner, "_solve", "solve")
        flags = ["--rank", str(rank)] if rank else []
        assert main(["impute", str(mixed_csv), "-o", str(tmp_path / "o.csv"),
                     "--ci", "analytic", "--multiple", "3", *flags]) == 0
        assert events.count("fitted") == 1
        assert events[events.index("fitted") + 1:] == ["solve"]

    @pytest.mark.parametrize("rank", [0, 2])
    def test_one_latent_bounds_call_per_column(self, mixed_csv, tmp_path,
                                               monkeypatch, rank):
        # the fit encodes the table, and the imputation takes its encoding
        seen, real = [], Marginal.latent_bounds
        monkeypatch.setattr(Marginal, "latent_bounds",
                            lambda self, x: seen.append(self) or real(self, x))
        flags = ["--rank", str(rank)] if rank else []
        assert main(["impute", str(mixed_csv), "-o", str(tmp_path / "o.csv"),
                     "--ci", "analytic", "--multiple", "3", *flags]) == 0
        assert len(seen) == len({id(m) for m in seen}) == 6

    @pytest.mark.parametrize("rank", [0, 2])
    def test_quantile_bounds_come_from_the_one_solve(self, mixed_csv, tmp_path,
                                                     monkeypatch, rank):
        # the 200 draws behind --ci quantile are drawn in the job's solve,
        # from the fit's encoding
        events, seen, real = [], [], Marginal.latent_bounds

        def record(owner, name, event, after=False):
            func = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if not after:
                    events.append(event)
                result = func(*args, **kwargs)
                if after:
                    events.append(event)
                return result
            monkeypatch.setattr(owner, name, wrapper)

        for fit in ("fit_standard", "fit_lrgc"):
            record(cli, fit, "fitted", after=True)
        for owner in (copula_em, imputer):
            record(owner, "encode_table", "encode")
        for owner in (latent, lrgc):
            record(owner, "_solve", "solve")
        monkeypatch.setattr(Marginal, "latent_bounds",
                            lambda self, x: seen.append(self) or real(self, x))
        flags = ["--rank", str(rank)] if rank else []
        assert main(["impute", str(mixed_csv), "-o", str(tmp_path / "o.csv"),
                     "--ci", "quantile", *flags]) == 0
        assert events.count("fitted") == 1
        assert events[events.index("fitted") + 1:] == ["solve"]
        assert len(seen) == len({id(m) for m in seen}) == 6

    def test_quantile_bounds_and_draws_share_their_first_draws(self, mixed_csv,
                                                               tmp_path):
        # 300 draws: the _imp files take all of them, the bounds the first 200
        out = tmp_path / "out.csv"
        assert main(["impute", str(mixed_csv), "-o", str(out), "--ci", "quantile",
                     "--multiple", "300", "--seed", "3"]) == 0
        table = read_csv(mixed_csv)
        model = fit_standard(table)
        names = table.col_names
        lower, upper = confidence_intervals(model, table, kind="quantile", seed=3)
        want = {"_ci_lower": lower, "_ci_upper": upper}
        for k, draw in enumerate(impute_multiple(model, table, num=300, seed=3),
                                 start=1):
            want[f"_imp{k}"] = draw
        for suffix, values in want.items():
            got = (tmp_path / f"out{suffix}.csv").read_text(encoding="utf-8")
            assert got == csv_oracle.write_csv(values, names), suffix


class TestObservedMinusZeroPrintsZero:
    """An observed -0 cell is written as 0, as a decoded zero is, by both
    commands: in a warm-up row and in a streamed row alike."""

    @pytest.fixture()
    def path(self, tmp_path):
        rng = np.random.default_rng(51)
        rows = [[f"{x:.4f}" for x in r] for r in rng.normal(size=(40, 3))]
        rows[3][1] = ""
        rows[0][0] = rows[30][2] = "-0"
        path = tmp_path / "negzero.csv"
        path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in rows))
        return path

    @staticmethod
    def cells(path):
        return [line.split(",") for line in path.read_text().splitlines()[1:]]

    def test_impute(self, path, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["impute", str(path), "-o", str(out)]) == 0
        cells = self.cells(out)
        assert cells[0][0] == cells[30][2] == "0"
        assert not any(cell == "-0" for row in cells for cell in row)

    def test_stream(self, path, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["stream", str(path), "-o", str(out), "--n-train", "20"]) == 0
        cells = self.cells(out)
        assert cells[0][-1] == "1" and cells[30][-1] == "0"
        assert cells[0][0] == cells[30][2] == "0"
        assert not any(cell == "-0" for row in cells for cell in row)


class TestStreamRejectsInfiniteCells:
    @staticmethod
    def table(tmp_path, name, cell=None):
        rng = np.random.default_rng(50)
        rows = [[f"{x:.4f}" for x in r] for r in rng.normal(size=(40, 3))]
        if cell is not None:
            i, j, token = cell
            rows[i][j] = token
        path = tmp_path / name
        path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in rows))
        return path

    @pytest.mark.parametrize("i, token", [(30, "inf"), (3, "-inf"), (39, "Infinity")])
    def test_input_cell(self, tmp_path, capsys, i, token):
        path = self.table(tmp_path, "in.csv", (i, 1, token))
        out = tmp_path / "out.csv"
        assert main(["stream", str(path), "-o", str(out), "--n-train", "10"]) == 2
        err = capsys.readouterr().err
        assert f"row {i + 1}, column 'b'" in err and "is infinite" in err
        assert "inf" not in out.read_text().lower()

    def test_truth_cell(self, tmp_path, capsys):
        path = self.table(tmp_path, "in.csv")
        truth = self.table(tmp_path, "truth.csv", (33, 2, "-inf"))
        assert main(["stream", str(path), "-o", str(tmp_path / "out.csv"),
                     "--truth", str(truth), "--n-train", "10"]) == 2
        err = capsys.readouterr().err
        assert "truth.csv" in err and "row 34, column 'c'" in err


class TestImputeRejectsInfiniteCells:
    @pytest.mark.parametrize("i, token", [(30, "inf"), (3, "-inf"), (39, "Infinity")])
    def test_names_the_cell_as_stream_does(self, tmp_path, capsys, i, token):
        path = TestStreamRejectsInfiniteCells.table(tmp_path, "in.csv", (i, 1, token))
        out = tmp_path / "out.csv"
        assert main(["impute", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"in.csv: row {i + 1}, column 'b': " in err and "is infinite" in err
        assert "Traceback" not in err and not out.exists()
        assert main(["stream", str(path), "-o", str(out), "--n-train", "10"]) == 2
        assert capsys.readouterr().err == err


class TestFarApartValues:
    # at 1.7e308 the mean of b's absolute errors overflows, but not its smae
    @pytest.mark.parametrize("extreme", [1e307, 1.7e308])
    def test_impute_writes_finite_cells_that_evaluate_reads(self, tmp_path, capsys,
                                                            extreme):
        # b's extremes lie so far out that the slope of the decode's outer
        # segments overflows; its missing cells decode in those segments
        rng = np.random.default_rng(9)
        a = rng.normal(size=60)
        b = a + 0.3 * rng.normal(size=60)
        order = np.argsort(b)
        b[order[0]], b[order[-1]] = -extreme, extreme
        masked = b.copy()
        masked[order[[1, 2, 3, -2, -3, -4]]] = np.nan
        paths = {name: tmp_path / f"{name}.csv" for name in ("truth", "masked", "out")}
        for name, col in (("truth", b), ("masked", masked)):
            paths[name].write_text("a,b\n" + "".join(
                f"{x!r},{'' if y != y else repr(y)}\n" for x, y in zip(a.tolist(), col.tolist())))
        assert main(["impute", str(paths["masked"]), "-o", str(paths["out"])]) == 0
        assert "inf" not in paths["out"].read_text()
        assert main(["evaluate", *(f"--{flag}={paths[name]}" for flag, name in
                                   (("truth", "truth"), ("masked", "masked"),
                                    ("imputed", "out")))]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err and "Warning" not in err
        b_line = next(line for line in out.splitlines() if line.startswith("b "))
        assert math.isfinite(float(b_line.split()[1]))


def test_the_cli_imports_neither_scipy_sparse_nor_scipy_linalg():
    code = ("import sys, copulafill.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.sparse', 'scipy.linalg'))))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "[]"


class TestExitCodes:
    """Each exit code follows from the exception's type in ``main`` alone."""

    @pytest.mark.parametrize("cmd, flags, code, message", [
        ("impute", ["--min-ord-ratio", "1.5"], 1, "min_ord_ratio must be in (0, 1)"),
        ("stream", ["--min-ord-ratio", "0"], 1, "min_ord_ratio must be in (0, 1)"),
        ("impute", ["--rank", "3"], 1, "rank must satisfy 1 <= rank < n_cols"),
        ("impute", ["--rank", "-1"], 1, "--rank must be nonnegative"),
        ("impute", ["--mode", "minibatch-offline", "--batch-size", "2"], 1, "batch size"),
        # the low-rank fit reads no batch size
        ("impute", ["--rank", "2", "--mode", "minibatch-offline", "--batch-size", "2"],
         0, ""),
        ("impute", ["--multiple", "-1"], 1, "--multiple must be nonnegative"),
    ])
    def test_flag_values(self, toy_csv, tmp_path, capsys, cmd, flags, code, message):
        _, masked_path = toy_csv
        out = tmp_path / "out.csv"
        assert main([cmd, str(masked_path), "-o", str(out), *flags]) == code
        err = capsys.readouterr().err
        assert message in err and "failed" not in err
        if cmd == "impute":
            assert out.exists() == (code == 0)
        else:   # the warm-up rows are echoed before the model is set up
            assert len(out.read_text().splitlines()) == 1 + 25

    def test_stream_failure_exit_3(self, tmp_path, capsys):
        # a column whose warm-up block holds one observed value
        path = tmp_path / "thin.csv"
        rows = "".join(f"{i},{i if i == 0 else ''}\n" for i in range(30))
        path.write_text("a,b\n" + rows)
        assert main(["stream", str(path), "-o", str(tmp_path / "x.csv")]) == 3
        assert "stream failed: column 'b' has fewer than 2" in capsys.readouterr().err


class TestOutputPaths:
    """An output path that names an input or another output is refused
    before anything is read or written, whatever its spelling."""

    @pytest.mark.parametrize("input_name, flags, path, what", [
        ("x.csv", ["-o", "x.csv"], "x.csv", "input"),
        ("x_ci_lower.csv", ["-o", "x.csv", "--ci", "analytic"], "x_ci_lower.csv", "input"),
        ("m.csv", ["-o", "x.csv", "--corr-out", "./x.csv"], "./x.csv", "-o"),
        ("m.csv", ["-o", "x.csv", "--multiple", "2", "--corr-out", "sub/../x_imp2.csv"],
         "sub/../x_imp2.csv", "--multiple"),
        ("m.csv", ["-o", "y.csv", "--corr-out", "link.csv"], "link.csv", "-o"),
        ("m.csv", ["-o", "hard.csv"], "hard.csv", "input"),
    ])
    def test_impute_clash_exit_1(self, toy_csv, tmp_path, capsys, monkeypatch,
                                 input_name, flags, path, what):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / input_name).write_bytes(toy_csv[1].read_bytes())
        os.symlink("y.csv", "link.csv")  # to a file not made yet
        os.link(input_name, "hard.csv")
        before = sorted(os.listdir())
        assert main(["impute", input_name, *flags]) == 1
        assert f"cannot write {path}: it is the {what} file" in capsys.readouterr().err
        assert sorted(os.listdir()) == before
        assert (tmp_path / input_name).read_bytes() == toy_csv[1].read_bytes()

    def test_clash_among_many_draw_files(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        corr_out = tmp_path / "x_imp400.csv"
        assert main(["impute", str(toy_csv[1]), "-o", str(out), "--multiple", "1000",
                     "--corr-out", str(corr_out)]) == 1
        assert "it is the --multiple file" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))


class TestReadAndWriteFailures:
    """A write that fails exits 1 naming the path, a read that fails exits 2,
    and a closed pipe exits 0."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("cmd", ["impute", "stream"])
    def test_a_full_device_exits_1(self, toy_csv, capsys, cmd):
        assert main([cmd, str(toy_csv[1]), "-o", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err == "copulafill: cannot write /dev/full: No space left on device\n"

    def test_a_failed_read_is_a_parse_failure_not_a_write_failure(self, toy_csv,
                                                                  tmp_path, capsys,
                                                                  monkeypatch):
        lines = toy_csv[1].read_text().splitlines(keepends=True)

        def failing():
            yield from lines[:40]
            raise OSError(5, "Input/output error")
        monkeypatch.setattr(sys, "stdin", failing())
        assert main(["stream", "-", "-o", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "copulafill: parse failure: -: [Errno 5] " \
                                          "Input/output error\n"

    def test_a_closed_pipe_still_exits_0(self, toy_csv, tmp_path, capsys, monkeypatch):
        # capsys comes first, so that monkeypatch restores its stdout first;
        # main points the pipe's descriptor, here a file's, at os.devnull
        with open(tmp_path / "sink", "w") as sink:
            class ClosedPipe(io.StringIO):
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return sink.fileno()
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["stream", str(toy_csv[1])]) == 0
        assert capsys.readouterr().err == ""


class TestHeadersMustMatch:
    """Files read side by side carry one header, or the command exits 2
    naming the file and the first column that differs."""

    @pytest.fixture()
    def files(self, tmp_path):
        corr = random_correlation(3, seed=60)
        truth = sample_gc(60, [norm.ppf] * 3, corr=corr, seed=61)
        masked = mask_mcar(truth, 0.2, seed=62)
        paths = {name: tmp_path / f"{name}.csv" for name in
                 ("truth", "masked", "renamed", "swapped", "wider")}
        write_csv(paths["truth"], truth.values, ["a", "b", "c"])
        write_csv(paths["masked"], masked.values, ["a", "b", "c"])
        write_csv(paths["renamed"], truth.values, ["a", "b", "z"])
        write_csv(paths["swapped"], truth.values[:, [1, 0, 2]], ["b", "a", "c"])
        write_csv(paths["wider"], np.hstack([truth.values, truth.values[:, :1]]),
                  ["a", "b", "c", "d"])
        return paths

    @pytest.mark.parametrize("bad, message", [
        ("renamed", "header column 3 is 'z' where {ref} has 'c'"),
        ("swapped", "header column 1 is 'b' where {ref} has 'a'"),
        ("wider", "header column 4 is 'd' where {ref} has none"),
    ])
    def test_stream_truth(self, files, tmp_path, capsys, bad, message):
        assert main(["stream", str(files["masked"]), "-o", str(tmp_path / "x.csv"),
                     "--truth", str(files[bad])]) == 2
        err = capsys.readouterr().err
        assert f"parse failure: {files[bad]}: " + message.format(ref=files["masked"]) in err

    @pytest.mark.parametrize("flags, code", [
        (["--truth", "renamed"], 2),
        (["--types", "cont,cont"], 1),
        ([], 2),    # an empty input: no header at all
    ], ids=["truth-header", "types", "empty-input"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_stream_refused_leaves_the_output_as_it_was(self, files, tmp_path, flags,
                                                        code, existing):
        out, empty = tmp_path / "keep.csv", tmp_path / "empty.csv"
        empty.write_text("")
        if existing:
            out.write_bytes(b"kept,bytes\n1,2\n")
        source = files["masked"] if flags else empty
        flags = [str(files[f]) if f in files else f for f in flags]
        assert main(["stream", str(source), "-o", str(out), *flags]) == code
        assert out.exists() == existing
        if existing:
            assert out.read_bytes() == b"kept,bytes\n1,2\n"

    @pytest.mark.parametrize("flag", ["--masked", "--imputed", "--ci-lower", "--ci-upper"])
    @pytest.mark.parametrize("bad", ["renamed", "swapped"])
    def test_evaluate(self, files, capsys, flag, bad):
        given = {"--masked": files["masked"], "--imputed": files["truth"],
                 "--ci-lower": files["truth"], "--ci-upper": files["truth"],
                 flag: files[bad]}
        assert main(["evaluate", "--truth", str(files["truth"]),
                     *[str(arg) for item in given.items() for arg in item]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parse failure: {files[bad]}: header column" in captured.err
        assert f"where {files['truth']} has" in captured.err


# numeric flag values: the edges, then any float or integer
_FLOATS = st.sampled_from([0.0, -1.0, 0.5, 1.0, 2.0, 1e308, 5e-324, math.nan,
                           math.inf, -math.inf]) | st.floats()
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_POSITIVE = st.floats(0.0, exclude_min=True)


def _ints(high=2 ** 70):
    return st.sampled_from([0, -1, 1, 2, min(high, 3)]) | st.integers(-2 ** 70, high)


def _flags(valid: dict, wild: dict):
    """Flag values, each in range but for at most two drawn from ``wild``,
    so that the wild values meet valid ones in a real fit."""
    return st.sets(st.sampled_from(sorted(valid)), max_size=2).flatmap(
        lambda bad: st.fixed_dictionaries(
            {name: wild[name] if name in bad else valid[name] for name in valid}))


class TestFlagFuzz:
    """No value of a numeric flag makes ``main`` raise or exit 3: a flag is
    accepted (0) or refused (1), and a refused ``impute`` writes nothing.
    Count-like flags are bounded so that no case runs long."""

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        corr = random_correlation(3, seed=70)
        specs = [norm.ppf, ordinal_spec([0.2, 0.3, 0.3, 0.2]), norm(loc=2).ppf]
        truth = sample_gc(40, specs, corr=corr, seed=71)
        masked = mask_mcar(truth, 0.2, seed=72).values
        # a warm-up block of any --n-train holds two values of every
        # column; a thinner one is a data failure (exit 3), not a flag's
        masked[:2] = truth.values[:2]
        path = tmp_path_factory.mktemp("fuzz") / "table.csv"
        write_csv(path, masked, truth.col_names)
        return path

    @staticmethod
    def _run(command, path, out, mode, flags) -> int:
        # --flag=value, as argparse takes "-inf" for an option otherwise
        return main([command, str(path), "-o", str(out), *mode,
                     *[f"--{name.replace('_', '-')}={value}"
                       for name, value in flags.items()]])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mode=st.sampled_from([[], ["--mode", "minibatch-offline"], ["--ci", "analytic"],
                                 ["--ci", "quantile"]]),
           flags=_flags(
               dict(tol=_POSITIVE, max_iter=st.integers(1, 5),
                    batch_size=st.integers(3, 2 ** 70), num_pass=st.integers(1, 5),
                    stepsize_c=st.floats(0.01, 1e6), rank=st.integers(0, 2),
                    min_ord_ratio=_OPEN_UNIT, alpha=_OPEN_UNIT,
                    multiple=st.integers(0, 3), seed=st.integers(0, 2 ** 70)),
               dict(tol=_FLOATS, max_iter=_ints(5), batch_size=_ints(),
                    num_pass=_ints(5), stepsize_c=_FLOATS, rank=_ints(),
                    min_ord_ratio=_FLOATS, alpha=_FLOATS, multiple=_ints(3),
                    seed=_ints())))
    def test_impute(self, table, tmp_path_factory, mode, flags):
        out_dir = tmp_path_factory.mktemp("impute")
        code = self._run("impute", table, out_dir / "out.csv", mode, flags)
        assert code in (0, 1)
        if code == 1:
            assert not os.listdir(out_dir)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(flags=_flags(
        dict(window_size=st.integers(2, 10 ** 4), const_stepsize=_OPEN_UNIT,
             batch_size=st.integers(1, 2 ** 70),
             decay=st.floats(0.0, 1.0, exclude_min=True),
             n_train=st.integers(2, 39), min_ord_ratio=_OPEN_UNIT),
        dict(window_size=_ints(10 ** 4), const_stepsize=_FLOATS, batch_size=_ints(),
             decay=_FLOATS, n_train=_ints(39), min_ord_ratio=_FLOATS)))
    def test_stream(self, table, tmp_path_factory, flags):
        out = tmp_path_factory.mktemp("stream") / "out.csv"
        assert self._run("stream", table, out, [], flags) in (0, 1)
