import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracmv.cli
from fracmv.cli import (DEFAULT_TOLERANCES, RunConfig, UsageError,
                        _build_config, _make_parser, main)
from fracmv.errors import TableMismatchError, ToleranceError
from fracmv.kernel import DEFAULT_GRID, read_table, write_table
from oracles import first_moment

# the bad inputs given as flags rather than as config lines
BAD_FLAGS = ["--tol mvp=nan", "--tol mvp=inf", "--tol mvp=0", "--tol mpv=1e-3",
             "--seed -1", "--fields ,", "--n two", "--seed x", "--a zero",
             "--tol mvp=small"]

COARSE = """\
# coarse build grid, keeps the table cheap for CLI tests
grid.dense_points = 33
grid.geo_points = 16
"""


def _sealed(text):
    """Table text with its digest line replaced by one that matches."""
    body = text.rpartition("sha256=")[0] if "\nsha256=" in text else text
    return body + "sha256=" + hashlib.sha256(body.encode()).hexdigest() + "\n"


def _nan_at(monkeypatch, point):
    """Make every field of a command return NaN at ``point`` alone."""
    real = fracmv.cli._make_fields

    def make(names, params, seed):
        out = []
        for name, f in real(names, params, seed):
            def evaluator(pts, f=f):
                vals = np.array(f.evaluator(pts), dtype=float)
                vals[np.all(pts == point, axis=1)] = np.nan
                return vals

            out.append((name, dataclasses.replace(f, evaluator=evaluator)))
        return out

    monkeypatch.setattr(fracmv.cli, "_make_fields", make)


@pytest.fixture(scope="session")
def table_file(tmp_path_factory, table_n1_a0):
    path = tmp_path_factory.mktemp("tables") / "kernel_n1_a0.txt"
    write_table(table_n1_a0, path)
    return str(path)


@pytest.fixture(scope="session")
def table_file_n2(tmp_path_factory, get_table):
    path = tmp_path_factory.mktemp("tables") / "kernel_n2_a0.txt"
    write_table(get_table(2, 0.0), path)
    return str(path)


@pytest.fixture()
def coarse_config(tmp_path):
    path = tmp_path / "coarse.cfg"
    path.write_text(COARSE)
    return str(path)


class TestKernelBuild:
    def test_build_writes_table(self, tmp_path, coarse_config, capsys):
        code = main(["kernel", "build", "--n", "1", "--a", "0.0",
                     "--config", coarse_config, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mass residual" in out
        table = read_table(tmp_path / "kernel_n1_a+0.000.txt")
        assert table.params.n == 1 and table.params.a == 0.0

    def test_rebuild_is_bit_identical(self, tmp_path, coarse_config):
        pa = tmp_path / "first.txt"
        pb = tmp_path / "second.txt"
        for path in (pa, pb):
            assert main(["kernel", "build", "--s", "0.5",
                         "--config", coarse_config, "--table", str(path)]) == 0
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("a", ["-0.95", "-0.9985995991983968"])
    def test_builds_at_low_a(self, tmp_path, coarse_config, a):
        # -0.95 failed the old quadrature normalization of kappa; the other a
        # failed an exact 2s + a == 1 check when Params stored s
        path = tmp_path / "low_a.txt"
        assert main(["kernel", "build", "--n", "1", "--a", a,
                     "--config", coarse_config, "--table", str(path)]) == 0
        assert read_table(path).params.a == float(a)

    def test_config_overridden_by_flag(self, tmp_path, coarse_config):
        cfg = tmp_path / "with_a.cfg"
        cfg.write_text(COARSE + "a = 0.5\n")
        code = main(["kernel", "build", "--a", "0.0", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "kernel_n1_a+0.000.txt").exists()


class TestKernelVerify:
    def test_verify_passes_on_good_table(self, table_file, tmp_path, capsys):
        code = main(["kernel", "verify", "--table", table_file,
                     "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "kernel_properties.csv").read_text().splitlines()
        assert report[0] == "property,status,measured,threshold,detail"
        assert len(report) == 7
        assert all(",fail," not in line for line in report[1:])

    def test_skips_a_field_not_integrable(self, get_table, tmp_path, capsys):
        # at s = 0.25 the affine field's tail diverges, and verify skips it
        # with mvp's line rather than exiting 1 with no report
        path = tmp_path / "kernel_n1_s0.25.txt"
        write_table(get_table(1, 0.5), path)
        code = main(["kernel", "verify", "--table", str(path), "--out",
                     str(tmp_path), "--fields", "constant,affine"])
        assert code == 0
        assert "skipping affine: degree 1 not integrable at s=0.25\n" \
            in capsys.readouterr().out
        assert (tmp_path / "kernel_properties.csv").exists()

    def test_verify_detects_parameter_mismatch(self, table_file):
        code = main(["kernel", "verify", "--table", table_file, "--a", "0.5"])
        assert code == 3


class TestMeanValueCommand:
    def test_passes_and_writes_report(self, table_file, tmp_path, capsys):
        code = main(["mvp", "--table", table_file, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "mean_value.csv").read_text().splitlines()
        assert lines[0] == "field_id,x,r,residual,allowed"
        assert len(lines) > 1

    def test_one_engine_call_per_field(self, table_file, tmp_path, engine_calls):
        assert main(["mvp", "--table", table_file, "--out", str(tmp_path)]) == 0
        # constant and ball_poisson, each at 5 points and 2 radii
        assert [len(rows) for rows in engine_calls] == [10, 10]

    def test_a_field_named_twice_is_checked_once(self, table_file, tmp_path):
        csvs = []
        for fields in ("ball_poisson", "ball_poisson,ball_poisson"):
            out = tmp_path / str(len(csvs))
            assert main(["mvp", "--table", table_file, "--out", str(out),
                         "--fields", fields]) == 0
            csvs.append((out / "mean_value.csv").read_bytes())
        assert csvs[1] == csvs[0]

    def test_fails_under_impossible_tolerance(self, table_file, tmp_path):
        code = main(["mvp", "--table", table_file, "--out", str(tmp_path),
                     "--tol", "mvp=1e-12", "--fields", "ball_poisson"])
        assert code == 1

    def test_a_nan_residual_fails(self, table_file, tmp_path, monkeypatch, capsys):
        # f(x) is NaN at the first interior point, so are its residuals
        _nan_at(monkeypatch, [-0.62])
        assert main(["mvp", "--table", table_file, "--out", str(tmp_path),
                     "--fields", "constant"]) == 1
        assert "worst nan of allowance" in capsys.readouterr().out
        assert ",nan," in (tmp_path / "mean_value.csv").read_text()

    def test_affine_skipped_when_not_integrable(self, table_file, tmp_path,
                                                capsys):
        code = main(["mvp", "--table", table_file, "--out", str(tmp_path),
                     "--fields", "constant,affine"])
        assert code == 0
        assert "skipping affine" in capsys.readouterr().out


class TestExtensionCommand:
    def test_affine_skipped_when_not_integrable(self, tmp_path, capsys):
        # the same line as mvp prints, and rows of the constant alone
        code = main(["extension", "--n", "1", "--a", "0.5", "--out",
                     str(tmp_path), "--fields", "constant,affine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "skipping affine: degree 1 not integrable at s=0.25\n" in out
        rows = (tmp_path / "extension_check.csv").read_text().splitlines()
        assert len(rows) == 13 and all(r.startswith("constant,") for r in rows[1:])

    def test_a_nan_residual_fails(self, tmp_path, monkeypatch, capsys):
        _nan_at(monkeypatch, [-0.62])
        assert main(["extension", "--n", "1", "--a", "0.5", "--out",
                     str(tmp_path), "--fields", "constant"]) == 1
        assert "extension check FAILED" in capsys.readouterr().out

    def test_one_engine_call_per_field(self, tmp_path, engine_calls):
        # constant and ball_poisson: 3 points x 3 radii x the 20 radii of the
        # shell rule where phi_r is at least 2^-53 of its largest x its 16
        # directions, all in the half y > 0
        assert main(["extension", "--n", "1", "--a", "0.5", "--out",
                     str(tmp_path)]) == 0
        assert [len(rows) for rows in engine_calls] == [2880, 2880]


@pytest.mark.parametrize("command", ["kernel verify", "mvp", "extension"])
def test_far_fields_need_no_tail_bound(command, tmp_path, get_table):
    # constant and ball_poisson declare a far field, so their rays stop where
    # it begins; at a = 0.9 the tail bound, had they taken one, would stay
    # above tol at W = 1e18 (1.3e-2 against 1e-4 on the kernel's rays, 2.9e-2
    # against 1e-8 on the extension's), and each command would exit 1
    if command == "extension":
        args = ["extension", "--n", "1", "--a", "0.9"]
    else:
        path = tmp_path / "kernel.txt"
        write_table(get_table(1, 0.9), path)
        args = [*command.split(), "--table", str(path)]
    assert main([*args, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", [
    "kernel verify --fields affine", "mvp --fields affine",
    "extension --n 1 --a 0.5 --fields affine",
    "regularity --fields constant,affine"])
def test_no_field_left_to_check_exits_2(command, tmp_path, get_table, capsys):
    # at s = 0.25 affine is skipped as not integrable, and regularity leaves
    # out constant and affine; each command exited 0 here with a row that
    # read 0, a worst of 0.000 or a report with no rows
    argv = command.split()
    if argv[0] != "extension":
        path = tmp_path / "kernel_n1_s0.25.txt"
        write_table(get_table(1, 0.5), path)
        argv += ["--table", str(path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no field of ") and err.count("\n") == 1
    assert not out.exists()  # no report was written


class TestRegularityCommand:
    def test_engine_and_sharp_maximal_calls_per_field(self, table_file, tmp_path,
                                                      engine_calls, monkeypatch):
        import fracmv.analysis

        sharp = []
        real = fracmv.analysis.sharp_maximal

        def counted(f, x, lam, family):
            sharp.append(lam)
            return real(f, x, lam, family)

        monkeypatch.setattr(fracmv.analysis, "sharp_maximal", counted)
        assert main(["regularity", "--table", table_file, "--out", str(tmp_path),
                     "--fields", "ball_poisson,gaussian"]) == 0
        # per field: the 9 (x, factor) gradient rows of both lambdas, then the
        # 9 cells of the weighted ratio; one sharp maximal scan per x
        assert [len(rows) for rows in engine_calls] == [9, 9, 9, 9]
        assert sharp == [(0.3, 0.5)] * 6

    def test_a_nan_value_at_a_grid_point_fails(self, table_file, tmp_path,
                                               monkeypatch):
        # the gradient's tail bound at that point is NaN
        _nan_at(monkeypatch, [-0.62])
        assert main(["regularity", "--table", table_file, "--out", str(tmp_path),
                     "--fields", "gaussian"]) == 1

    def test_a_nan_ratio_fails_the_band(self, table_file, tmp_path, monkeypatch):
        # a NaN gradient at the second grid point's smallest radius makes
        # that radius' largest ratio NaN, which the band check fails
        import fracmv.analysis

        real = fracmv.analysis.gradient_of_solution

        def gradient(*args):
            grads = real(*args)
            grads[5] = np.nan
            return grads

        monkeypatch.setattr(fracmv.analysis, "gradient_of_solution", gradient)
        assert main(["regularity", "--table", table_file, "--out", str(tmp_path),
                     "--fields", "gaussian"]) == 1


class TestUsageErrors:
    def test_both_a_and_s(self, table_file):
        assert main(["mvp", "--table", table_file,
                     "--a", "0.0", "--s", "0.5"]) == 2

    def test_s_out_of_range(self, tmp_path):
        assert main(["kernel", "build", "--s", "1.5",
                     "--out", str(tmp_path)]) == 2

    def test_missing_table_argument(self):
        assert main(["mvp"]) == 2

    def test_unknown_field(self, table_file):
        assert main(["mvp", "--table", table_file, "--fields", "nope"]) == 2

    def test_malformed_tol(self, table_file):
        assert main(["mvp", "--table", table_file, "--tol", "mvp"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["kernel", "build", "--s", "0.5",
                     "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", [
        "n = two",
        "seed = x",
        "a = zero",
        "tol.mvp = small",
        "grid.dense_points = 1e1",
        "grid.bogus = 3",
        "grid.dense_points = 1",
        "grid.geo_points = 0",
        # keys that DEFAULT_GRID no longer has exit 2 as unknown keys
        "grid.rmax = 2",
        "grid.y_panels = 0",
        "grid.y_nodes = 0",
        "grid.radial_nodes = -1",
        "grid.angular_nodes = 0",
        # a tolerance that is not a positive finite number, or has no check
        # of its name, would switch a check off
        "tol.mvp = nan",
        "tol.mvp = inf",
        "tol.mvp = 0",
        "tol.mpv = 1e-3",
        "seed = -1",
        "fields = ,",
        # out of range, though the --s flag replaces the file's a or s
        "a = 1.5",
        "a = nan",
        "s = 0",
        "s = 1.5",
        # written as the byte 0xff, which does not decode
        "n = 1\udcff",
        *BAD_FLAGS,
    ])
    def test_bad_config_line(self, tmp_path, line, capsys):
        # a config line, or with a leading "--" the same setting as flags;
        # the --s flag overrides a bad a in the file, which still exits 2
        argv = ["kernel", "build", "--s", "0.5", "--out", str(tmp_path)]
        if line.startswith("--"):
            argv += line.split()
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_bytes((line + "\n").encode("utf-8", "surrogateescape"))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("command", ["mvp", "regularity", "kernel verify",
                                         "extension"])
    def test_one_dimensional_field_at_n2(self, table_file_n2, tmp_path,
                                         command, capsys):
        argv = command.split() + ["--fields", "constant,xplus_s",
                                  "--out", str(tmp_path)]
        argv += (["--n", "2", "--a", "0.0"] if command == "extension"
                 else ["--table", table_file_n2])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: xplus_s is a one-dimensional field\n"
        assert list(tmp_path.iterdir()) == []  # nothing ran

    @pytest.mark.parametrize("given", ["--n 2", "--n 2 --a 0.0", "n = 2",
                                       "n = 2\ns = 0.5"],
                             ids=["flag", "flags_with_a", "config",
                                  "config_with_s"])
    def test_n_must_match_table(self, table_file, tmp_path, given, capsys):
        # an n from a flag or a config line is checked with or without a or s
        argv = ["mvp", "--table", table_file, "--out", str(tmp_path)]
        if given.startswith("--"):
            argv += given.split()
        else:
            cfg = tmp_path / "n2.cfg"
            cfg.write_text(given + "\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: table holds n=1, a=0.0; requested n=2")
        assert err.count("\n") == 1

    def test_unset_n_follows_table(self, table_file_n2, tmp_path):
        # with a given and n not, the table's n is taken, not a default of 1
        assert main(["mvp", "--table", table_file_n2, "--a", "0.0",
                     "--fields", "constant", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("error, code", [
    (UsageError("bad flag"), 2), (TableMismatchError("other table"), 3),
    (OSError("no such file"), 4), (ToleranceError("tail", 1.0, 0.5), 1)])
def test_exit_code_and_one_error_line(monkeypatch, capsys, error, code):
    def fail(cfg):
        raise error

    monkeypatch.setattr(fracmv.cli, "cmd_mvp", fail)
    assert main(["mvp"]) == code
    err = capsys.readouterr().err
    assert err == f"error: {error}\n"


class TestIOErrors:
    def test_missing_config_file(self):
        assert main(["kernel", "build", "--s", "0.5",
                     "--config", "/nonexistent/path.cfg"]) == 4

    def test_missing_table_file(self):
        assert main(["mvp", "--table", "/nonexistent/table.txt"]) == 4


class TestMalformedTable:
    def test_missing_header_key_exits_3(self, tmp_path):
        path = tmp_path / "truncated.txt"
        path.write_text(_sealed("n=1\na=0.0\n"))
        with pytest.raises(TableMismatchError):
            read_table(path)
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 3

    def test_non_numeric_row_exits_3(self, table_file, tmp_path):
        lines = open(table_file).read().splitlines()
        lines[-2] = "16.0,oops,0.0"  # the last row, above the digest line
        path = tmp_path / "edited.txt"
        path.write_text(_sealed("\n".join(lines) + "\n"))
        with pytest.raises(TableMismatchError):
            read_table(path)
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 3

    def test_s_inconsistent_with_a_exits_3(self, table_file, tmp_path):
        text = open(table_file).read().replace("\ns=0.5\n", "\ns=0.4\n", 1)
        assert "\ns=0.4\n" in text
        path = tmp_path / "edited_s.txt"
        path.write_text(_sealed(text))
        with pytest.raises(TableMismatchError):
            read_table(path)
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("kappa", ["nan", "inf", "0.0", "-1.0"])
    def test_kappa_not_finite_and_positive_exits_3(self, table_file, tmp_path,
                                                  kappa):
        text = open(table_file).read()
        start = text.index("\nkappa=") + 1
        end = text.index("\n", start)
        path = tmp_path / "kappa.txt"
        path.write_text(_sealed(text[:start] + f"kappa={kappa}" + text[end:]))
        with pytest.raises(TableMismatchError, match="kappa"):
            read_table(path)
        for cmd in (["mvp"], ["regularity"], ["kernel", "verify"]):
            assert main([*cmd, "--table", str(path), "--out", str(tmp_path)]) == 3

    def test_metadata_is_not_evaluated(self, table_file, tmp_path):
        text = open(table_file).read().replace(
            "built_with=", "built_with=probe:2**3;", 1)
        path = tmp_path / "meta.txt"
        path.write_text(_sealed(text))
        assert read_table(path).build_meta["probe"] == "2**3"

    def test_table_recording_rmax_reads(self, table_file, tmp_path):
        # tables written while grid.rmax was a key record it; they still read
        text = open(table_file).read().replace(
            "built_with=", "built_with=rmax:16.0;", 1)
        path = tmp_path / "old.txt"
        path.write_text(_sealed(text))
        table = read_table(path)
        assert table.build_meta["rmax"] == 16.0 and table.rmax == 16.0
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 0

    def test_table_with_first_moment_line_reads(self, table_file, tmp_path):
        # tables used to carry the bump's first moment A after kappa; a
        # table written now does not, and an old one reads to the same arrays
        text = open(table_file).read()
        assert "\nA=" not in text
        table = read_table(table_file)
        moment = f"A={first_moment(table.profile)!r}\n"
        text = text.replace("\ngrid=", "\n" + moment + "grid=", 1)
        assert moment in text
        path = tmp_path / "old.txt"
        path.write_text(_sealed(text))
        old = read_table(path)
        for name in ("rho_grid", "phi_values", "psi_profile"):
            assert np.array_equal(getattr(old, name), getattr(table, name))
        assert old.profile == table.profile
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 0

    def test_resealed_copy_reads_back(self, table_file, tmp_path):
        # the test helper writes the same digest line as write_table
        text = open(table_file).read()
        assert text.endswith("\n") and "\nsha256=" in text
        assert _sealed(text) == text

    @pytest.mark.parametrize("cut", [1, 2, 6, 65, 66, 67, 100, 5000])
    def test_cut_table_exits_3(self, table_file, tmp_path, cut):
        # a table cut anywhere, inside the digest line or above it, is
        # rejected rather than read
        data = open(table_file, "rb").read()
        path = tmp_path / "cut.txt"
        path.write_bytes(data[:-cut])
        with pytest.raises(TableMismatchError, match="digest"):
            read_table(path)
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 3

    def test_cut_last_row_digits_exits_3(self, table_file, tmp_path):
        # the last row loses 6 digits but still parses as three numbers
        lines = open(table_file).read().splitlines()
        lines[-2] = lines[-2][:-6]
        path = tmp_path / "cut_row.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableMismatchError, match="digest"):
            read_table(path)
        assert main(["kernel", "verify", "--table", str(path),
                     "--out", str(tmp_path)]) == 3

    def test_table_without_digest_exits_3(self, table_file, tmp_path):
        text = open(table_file).read()
        path = tmp_path / "no_digest.txt"
        path.write_text(text.rpartition("sha256=")[0])
        with pytest.raises(TableMismatchError, match="digest"):
            read_table(path)


def test_config_file_comments_and_tolerances(table_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# generous allowance, everything passes\n"
        "tol.mvp = 0.5\n"
        "fields = constant  # inline comment\n")
    code = main(["mvp", "--table", table_file, "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 0


def test_flags_and_config_file_agree(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\na = 0.25\ntable = t.txt\nout = runs\nseed = 7\n"
                   "fields = constant, affine\ntol.mvp = 1e-3\n"
                   "tol.constancy = 2e-3\n")
    parser = _make_parser()
    from_file = _build_config(parser.parse_args(["mvp", "--config", str(cfg)]))
    from_flags = _build_config(parser.parse_args([
        "mvp", "--n", "2", "--a", "0.25", "--table", "t.txt", "--out", "runs",
        "--seed", "7", "--fields", "constant,affine", "--tol", "mvp=1e-3",
        "--tol", "constancy=2e-3"]))
    assert from_file == from_flags
    assert from_file == RunConfig(n=2, a=0.25, table="t.txt", out="runs",
                                  seed=7, fields=["constant", "affine"],
                                  tolerances={"mvp": 1e-3, "constancy": 2e-3})


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
       .filter(lambda s: 1.0 - 2.0 * s < 1.0))
def test_s_and_its_a_build_equal_configs(tmp_path_factory, s):
    # the config holds the order as a alone: s = x sets a = 1 - 2x.  An s
    # below 2^-54 rounds a to 1, which Params rejects with a usage error
    built = []
    for line in (f"s = {s!r}\n", f"a = {1 - 2 * s!r}\n"):
        cfg = tmp_path_factory.mktemp("order") / "run.cfg"
        cfg.write_text(line)
        built.append(_build_config(_make_parser().parse_args(
            ["mvp", "--config", str(cfg)])))
    assert built[0] == built[1]


def test_config_fields_keep_each_name_once(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fields = affine, constant, affine\n")
    parsed = _build_config(_make_parser().parse_args(["mvp", "--config", str(cfg)]))
    assert parsed.fields == ["affine", "constant"]


CONFIG_KEYS = ["n", "a", "s", "table", "out", "seed", "fields", "tol.mpv",
               *("tol." + name for name in DEFAULT_TOLERANCES),
               *("grid." + name for name in DEFAULT_GRID)]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(key=st.one_of(st.sampled_from(CONFIG_KEYS), st.text()),
       value=st.one_of(st.text(), st.integers().map(str),
                       st.floats().map(repr)))
def test_fuzzed_config_line(tmp_path_factory, key, value):
    # any key = value line gives a RunConfig or a usage error, nothing else
    cfg = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    args = _make_parser().parse_args(["mvp", "--config", str(cfg)])
    try:
        assert isinstance(_build_config(args), RunConfig)
    except UsageError:
        pass
