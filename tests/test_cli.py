import io

import numpy as np
import pytest
from scipy.stats import norm

from copulafill import cli, copula_em, imputer, latent, lrgc
from copulafill.cli import main
from copulafill.copula_em import fit_standard
from copulafill.data_model import read_csv, write_csv
from copulafill.evaluation import mask_mcar, ordinal_spec, random_correlation, sample_gc
from copulafill.imputer import confidence_intervals, impute_multiple, impute_single
from copulafill.lrgc import fit_lrgc
from copulafill.marginals import Marginal

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
                      ["-o", str(tmp_path)]):  # a directory, found at write time
            assert main(["impute", str(masked_path), *flags]) == 1
            err = capsys.readouterr().err
            assert f"cannot write {flags[-1]}" in err
            assert "Traceback" not in err

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
