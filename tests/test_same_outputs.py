"""The file comparison and the command list of tools/same_outputs.py."""
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import same_outputs  # noqa: E402


def _write(root: Path, files: dict):
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)


def test_identical_differing_and_missing_files(tmp_path):
    base, work = tmp_path / "base", tmp_path / "work"
    _write(base, {"mvp/mean_value.csv": b"a,b\n1,2\n", "build_n1/table.txt": b"x",
                  "r.csv": b"1.0\n", "gone.csv": b"1"})
    _write(work, {"mvp/mean_value.csv": b"a,b\n1,2\n", "build_n1/table.txt": b"y",
                  "r.csv": b"1.0\n\n", "new/extra.csv": b"1"})
    assert same_outputs.compare(base, work) == [
        ("build_n1/table.txt", "differs"),
        ("gone.csv", "missing in work tree"),
        ("mvp/mean_value.csv", "identical"),
        ("new/extra.csv", "missing in base"),
        ("r.csv", "differs"),
    ]
    assert {v for _, v in same_outputs.compare(base, base)} == {"identical"}


def test_every_command_writes_to_its_own_directory():
    for name, argv in same_outputs.COMMANDS.items():
        assert "{out}" in " ".join(argv), name
    assert set(same_outputs.COMMANDS) == {
        "build_n1", "build_n2", "kernel_verify_n1", "kernel_verify_n2",
        "mvp_n1", "mvp_n2", "regularity_n1", "regularity_n2",
        "extension_n1_a-0.5", "extension_n1_a0.5", "extension_n1_fields",
        "extension_n2", "mvp2", "regularity2"}


def test_each_file_line_gives_its_command_time_on_both_sides():
    rows = [("build_n1/table.txt", "identical"), ("mvp_n1/mean_value.csv", "differs")]
    runs = {"base": {"build_n1": (0, 0.5, 36.0, 5000), "mvp_n1": (0, 1.234, 40.0, 9)},
            "work": {"build_n1": (0, 0.25, 36.0, 5000), "mvp_n1": (3, 12.0, 40.0, 9)}}
    assert same_outputs.report(rows, runs) == [
        "           identical  build_n1/table.txt  (base 0.50 s 36.0 MB 5,000 faults, "
        "work tree 0.25 s 36.0 MB 5,000 faults)",
        "             differs  mvp_n1/mean_value.csv  (base 1.23 s 40.0 MB 9 faults, "
        "work tree 12.00 s 40.0 MB 9 faults)",
    ]


def test_each_file_line_gives_its_command_peak_rss_on_both_sides():
    rows = [("extension_n1_fields/extension_check.csv", "identical")]
    runs = {"base": {"extension_n1_fields": (0, 0.61, 69.44, 7000)},
            "work": {"extension_n1_fields": (0, 0.58, 54.04, 7000)}}
    assert same_outputs.report(rows, runs) == [
        "           identical  extension_n1_fields/extension_check.csv  "
        "(base 0.61 s 69.4 MB 7,000 faults, work tree 0.58 s 54.0 MB 7,000 faults)"]


def test_each_file_line_gives_its_command_minor_faults_on_both_sides():
    rows = [("regularity2/regularity.csv", "identical")]
    runs = {"base": {"regularity2": (0, 0.30, 38.3, 17552)},
            "work": {"regularity2": (0, 0.26, 36.4, 5271)}}
    assert same_outputs.report(rows, runs) == [
        "           identical  regularity2/regularity.csv  "
        "(base 0.30 s 38.3 MB 17,552 faults, work tree 0.26 s 36.4 MB 5,271 faults)"]


def _run_one_big_then_small(tmp_path, index):
    # run from a fresh interpreter, whose own counts are a floor for its
    # children's peak RSS: one child that fills 64 MB, then one that does
    # not, which RUSAGE_CHILDREN would give the first one's counts
    tools = str(Path(same_outputs.__file__).parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import same_outputs\n"
              "big = [sys.executable, '-c', 'b = b\"x\" * (64 << 20)']\n"
              "small = [sys.executable, '-c', 'pass']\n"
              "print(*[same_outputs.run_one(argv, '.', None)[int(sys.argv[2])] "
              "for argv in (big, small)])")
    out = subprocess.run([sys.executable, "-c", script, tools, str(index)],
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True).stdout
    return map(float, out.split())


def test_run_one_reads_each_childs_own_peak_rss(tmp_path):
    big, small = _run_one_big_then_small(tmp_path, 2)
    assert big >= 64.0 and small < big - 32.0
    code, wall, _, _ = same_outputs.run_one(
        [sys.executable, "-c", "raise SystemExit(3)"], tmp_path, None)
    assert code == 3 and wall > 0.0


def test_run_one_reads_each_childs_own_minor_faults(tmp_path):
    # 64 MB of fresh pages are at least 16,384 faults of 4 KiB
    big, small = _run_one_big_then_small(tmp_path, 3)
    assert big >= 16384 and small < big - 8192


def test_a_differing_file_gets_its_largest_numeric_changes(tmp_path):
    old = b"name,x,r,residual\nconstant,0.3,0.05,1.0e-05\nball,,nan,2.0e-07\n"
    new = b"name,x,r,residual\nconstant,0.3,0.05,7.0e-12\nball,,nan,4.0e-07\n"
    assert same_outputs.numeric_change(old, new) == (
        "max abs change 1.00e-05 (line 2: 1e-05 -> 7e-12), "
        "max rel change 1.00e+00 (line 3: 2e-07 -> 4e-07), "
        "max column change 1.00e+00 (field 4 of the 4-field lines, "
        "largest |old| 1.00e-05)")
    # the column figure divides by the column's largest |old|, so a field
    # near 0 that moves by rounding reads as rounding; line 4's empty field
    # keeps its place, so its last field stays in the third column
    old = b"n=1\n1.5,-2.0,1e-15\n2.0,0.5,4.0e-01\n3.0,,2.0e-16\n"
    new = b"n=1\n1.5,-2.0,1e-15\n2.0,0.5,4.0e-01\n3.0,,0.0\n"
    assert same_outputs.numeric_change(old, new) == (
        "max abs change 2.00e-16 (line 4: 2e-16 -> 0.0), "
        "max rel change 1.00e+00 (line 4: 2e-16 -> 0.0), "
        "max column change 5.00e-16 (field 3 of the 3-field lines, "
        "largest |old| 4.00e-01)")
    # a table's built_with line splits at ; and : too, and its mass residual,
    # alone in its column, gets no column figure
    assert same_outputs.numeric_change(
        b"built_with=dense_points:257;mass_residual:2.5e-06\n",
        b"built_with=dense_points:257;mass_residual:1e-09\n") == (
        "max abs change 2.50e-06 (line 1: 2.5e-06 -> 1e-09), "
        "max rel change 1.00e+00 (line 1: 2.5e-06 -> 1e-09)")
    assert same_outputs.numeric_change(old, old + b"x\n") == "layout differs"
    assert same_outputs.numeric_change(b"a,1\n", b"b,1\n") == \
        "no numeric field changed"
    rows = [("mvp_n1/mean_value.csv", "differs")]
    runs = {"base": {"mvp_n1": (0, 1.0, 40.0, 10)},
            "work": {"mvp_n1": (0, 2.0, 40.5, 20)}}
    assert same_outputs.report(rows, runs, {"mvp_n1/mean_value.csv": "text"}) == [
        "             differs  mvp_n1/mean_value.csv  (base 1.00 s 40.0 MB 10 faults, "
        "work tree 2.00 s 40.5 MB 20 faults)",
        "                      text"]
