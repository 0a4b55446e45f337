import numpy as np
import pytest

from fracmv.cli import main
from fracmv.errors import TableMismatchError
from fracmv.kernel import read_table, write_table

COARSE = """\
# coarse build grid, keeps the table cheap for CLI tests
grid.dense_points = 33
grid.geo_points = 16
grid.y_panels = 8
grid.y_nodes = 8
"""


@pytest.fixture(scope="session")
def table_file(tmp_path_factory, table_n1_a0):
    path = tmp_path_factory.mktemp("tables") / "kernel_n1_a0.txt"
    write_table(table_n1_a0, path)
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
        assert len(report) >= 8
        assert all(",fail," not in line for line in report[1:])

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

    def test_fails_under_impossible_tolerance(self, table_file, tmp_path):
        code = main(["mvp", "--table", table_file, "--out", str(tmp_path),
                     "--tol", "mvp=1e-12", "--fields", "ball_poisson"])
        assert code == 1

    def test_affine_skipped_when_not_integrable(self, table_file, tmp_path,
                                                capsys):
        code = main(["mvp", "--table", table_file, "--out", str(tmp_path),
                     "--fields", "constant,affine"])
        assert code == 0
        assert "skipping affine" in capsys.readouterr().out


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
        "grid.rmax = 1.5",
        "grid.rmax = 2",
        "grid.rmax = inf",
        "grid.dense_points = 1",
        "grid.geo_points = 0",
        "grid.y_panels = 0",
        "grid.y_nodes = 0",
        "grid.radial_nodes = -1",
        "grid.angular_nodes = 0",
    ])
    def test_bad_config_line(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["kernel", "build", "--s", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2


def test_grid_value_in_exponent_form(tmp_path, coarse_config):
    cfg = tmp_path / "rmax.cfg"
    cfg.write_text(COARSE + "grid.rmax = 1e1\n")
    path = tmp_path / "table.txt"
    assert main(["kernel", "build", "--s", "0.5", "--config", str(cfg),
                 "--table", str(path)]) == 0
    table = read_table(path)
    assert table.rmax == 10.0 and table.build_meta["rmax"] == 10.0


class TestIOErrors:
    def test_missing_config_file(self):
        assert main(["kernel", "build", "--s", "0.5",
                     "--config", "/nonexistent/path.cfg"]) == 4

    def test_missing_table_file(self):
        assert main(["mvp", "--table", "/nonexistent/table.txt"]) == 4


class TestMalformedTable:
    def test_missing_header_key_exits_3(self, tmp_path):
        path = tmp_path / "truncated.txt"
        path.write_text("n=1\na=0.0\n")
        with pytest.raises(TableMismatchError):
            read_table(path)
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 3

    def test_non_numeric_row_exits_3(self, table_file, tmp_path):
        lines = open(table_file).read().splitlines()
        lines[-1] = "16.0,oops,0.0"
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableMismatchError):
            read_table(path)
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 3

    def test_s_inconsistent_with_a_exits_3(self, table_file, tmp_path):
        text = open(table_file).read().replace("\ns=0.5\n", "\ns=0.4\n", 1)
        assert "\ns=0.4\n" in text
        path = tmp_path / "edited_s.txt"
        path.write_text(text)
        with pytest.raises(TableMismatchError):
            read_table(path)
        assert main(["mvp", "--table", str(path), "--out", str(tmp_path)]) == 3

    def test_metadata_is_not_evaluated(self, table_file, tmp_path):
        text = open(table_file).read().replace(
            "built_with=", "built_with=probe:2**3;", 1)
        path = tmp_path / "meta.txt"
        path.write_text(text)
        assert read_table(path).build_meta["probe"] == "2**3"


def test_config_file_comments_and_tolerances(table_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# generous allowance, everything passes\n"
        "tol.mvp = 0.5\n"
        "fields = constant  # inline comment\n")
    code = main(["mvp", "--table", table_file, "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 0
