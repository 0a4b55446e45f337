"""Check that the work tree writes the same output files as a base revision.

    python3 tools/same_outputs.py [BASE]        (BASE defaults to HEAD)

BASE is exported with ``bench_pairs.export`` into a temporary directory.
The commands of COMMANDS run once in that export and once in the work tree
(the checkout this script lives in), each with that tree's ``src`` on
PYTHONPATH, one BLAS thread and its own output directory, all with
``--seed 1``: ``kernel build`` at n = 1 and n = 2, a = 0; ``kernel verify``,
``mvp`` and ``regularity`` on each of those tables; ``extension --n 1`` at
a = -0.5 and 0.5, and at a = -0.5 on the constant, affine and ball_poisson
fields, whose rows with different truncation radii share one extend call;
``extension --n 2`` at a = 0, which takes about a minute; and
perfbench/steps.py's ``mvp2`` and ``regularity2`` on the n = 2 table.
Every file that either side writes is compared byte for byte, with one
line per file that also gives the wall time, the peak RSS and the minor
page faults of the command that wrote it on both sides (each child's own
``os.wait4`` rusage).  Under each file that differs a second line gives
the largest absolute and the largest relative change over its numeric
fields, each with its line and its old and new value, and the largest
change of a column against that column's largest value.  The script exits
1 if any file differs or is missing on one side, or if a command fails on
either side.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, export, git

# name -> argv after the interpreter; {out} is the command's own output
# directory and {build_n1} / {build_n2} those of the table builds
COMMANDS = {
    "build_n1": ["-m", "fracmv.cli", "kernel", "build", "--n", "1", "--a", "0.0",
                 "--table", "{out}/table.txt"],
    "build_n2": ["-m", "fracmv.cli", "kernel", "build", "--n", "2", "--a", "0.0",
                 "--table", "{out}/table.txt"],
    **{f"{cmd}_{t}": ["-m", "fracmv.cli", *cmd.split("_"),
                      "--table", f"{{build_{t}}}/table.txt", "--out", "{out}"]
       for t in ("n1", "n2") for cmd in ("kernel_verify", "mvp", "regularity")},
    **{f"extension_n1_a{a}": ["-m", "fracmv.cli", "extension", "--n", "1",
                              "--a", a, "--out", "{out}"]
       for a in ("-0.5", "0.5")},
    "extension_n1_fields": ["-m", "fracmv.cli", "extension", "--n", "1",
                            "--a", "-0.5", "--fields", "constant,affine,ball_poisson",
                            "--out", "{out}"],
    "extension_n2": ["-m", "fracmv.cli", "extension", "--n", "2", "--a", "0.0",
                     "--out", "{out}"],
    **{step: ["perfbench/steps.py", step, "--table", "{build_n2}/table.txt",
              "--out", "{out}"]
       for step in ("mvp2", "regularity2")},
}
SEED = "1"


def run_one(argv, tree: Path, env: dict) -> tuple:
    """Run one command to its end: (exit code, wall seconds, peak RSS in MB,
    minor page faults).

    exec keeps the high-water mark of the process it replaces, so a child's
    peak is never below this script's own.
    """
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        # this child's own rusage: RUSAGE_CHILDREN would take the largest of all
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            print(f"{argv[1:]} in {tree} exited {proc.returncode}:\n"
                  f"{err.read().decode(errors='replace')[-2000:]}", file=sys.stderr)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_minflt


def run_all(tree: Path, out: Path) -> dict:
    """Run every command in ``tree``, each into out/<name>.

    Returns ``run_one``'s (exit code, wall seconds, peak RSS, minor faults)
    per command.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    dirs = {name: out / name for name in COMMANDS}
    runs = {}
    for name, argv in COMMANDS.items():
        dirs[name].mkdir(parents=True)
        args = [a.format(out=dirs[name], **dirs) for a in argv]
        runs[name] = run_one([sys.executable, *args, "--seed", SEED], tree, env)
    return runs


def compare(base: Path, work: Path) -> list[tuple[str, str]]:
    """(relative path, verdict) for every file under either directory."""
    files = {p.relative_to(root).as_posix()
             for root in (base, work) for p in root.rglob("*") if p.is_file()}
    rows = []
    for rel in sorted(files):
        a, b = base / rel, work / rel
        if not a.is_file():
            verdict = "missing in base"
        elif not b.is_file():
            verdict = "missing in work tree"
        else:
            verdict = "identical" if a.read_bytes() == b.read_bytes() else "differs"
        rows.append((rel, verdict))
    return rows


def _numbers(data: bytes) -> list[list]:
    """Each line's fields, split at , ; : = and blanks, as floats where they parse.

    An empty field between two separators keeps its place, so a field's
    position is its CSV column.
    """
    out = []
    for line in data.decode(errors="replace").splitlines():
        row = []
        for field in re.split(r"\s*[,;:=]\s*|\s+", line.strip()):
            try:
                row.append(float(field))
            except ValueError:
                row.append(field)
        out.append(row)
    return out


def numeric_change(old: bytes, new: bytes) -> str:
    """The largest absolute and relative change over the numeric fields that
    two files share, field by field, each with its line and both values.

    A third figure reads a column, the numeric fields at one position of
    the lines with one field count: its largest |new - old| over its largest
    |old|, for the worst column of two or more fields.  A field near 0 that
    moves by rounding then reads as rounding, where its relative change
    reads 1; a field alone in its column, as a table's mass residual is,
    has only the first two figures.
    """
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return "layout differs"
    worst = {}  # kind -> (change, line, old, new)
    # (field count, position) -> [largest |new - old|, largest |old|, fields]
    columns = {}
    for i, (x, y) in enumerate(zip(a, b), start=1):
        for k, (u, v) in enumerate(zip(x, y), start=1):
            if not (isinstance(u, float) and isinstance(v, float)):
                continue
            column = columns.setdefault((len(x), k), [0.0, 0.0, 0])
            column[1] = max(column[1], abs(u))
            column[2] += 1
            if u == v or (math.isnan(u) and math.isnan(v)):
                continue
            diff = abs(v - u)
            rel = diff / abs(u) if u else math.inf
            for kind, change in (("abs", diff), ("rel", rel)):
                if not change <= worst.get(kind, (-1.0,))[0]:
                    worst[kind] = (change, i, u, v)
            if not diff <= column[0]:
                column[0] = diff
    if not worst:
        return "no numeric field changed"
    figures = [f"max {kind} change {c:.2e} (line {i}: {u!r} -> {v!r})"
               for kind, (c, i, u, v) in worst.items()]
    moved = [(diff / top if top else math.inf, count, k, top)
             for (count, k), (diff, top, fields) in columns.items()
             if diff != 0.0 and fields > 1]
    if moved:
        ratio, count, k, top = max(moved)
        figures.append(f"max column change {ratio:.2e} (field {k} of the "
                       f"{count}-field lines, largest |old| {top:.2e})")
    return ", ".join(figures)


def report(rows, runs, changes=None) -> list[str]:
    """One line per (file, verdict) row, with the wall time, peak RSS and
    minor page faults on both sides of the command whose directory holds the
    file, and for a file in ``changes`` (relative path -> text) that text on
    the next line."""
    lines = []
    for rel, verdict in rows:
        name = rel.split("/")[0]
        (_, bt, bm, bf), (_, wt, wm, wf) = runs["base"][name], runs["work"][name]
        lines.append(f"{verdict:>20}  {rel}  (base {bt:.2f} s {bm:.1f} MB "
                     f"{bf:,} faults, work tree {wt:.2f} s {wm:.1f} MB "
                     f"{wf:,} faults)")
        if changes and rel in changes:
            lines.append(f"{'':>20}  {changes[rel]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", default="HEAD")
    args = parser.parse_args(argv)
    commit = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        export(commit, tmp / "tree")
        runs = {"base": run_all(tmp / "tree", tmp / "base"),
                "work": run_all(ROOT, tmp / "work")}
        rows = compare(tmp / "base", tmp / "work")
        changes = {rel: numeric_change((tmp / "base" / rel).read_bytes(),
                                       (tmp / "work" / rel).read_bytes())
                   for rel, verdict in rows if verdict == "differs"}
    print("\n".join(report(rows, runs, changes)))
    bad_codes = [name for name in COMMANDS
                 if runs["base"][name][0] or runs["work"][name][0]]
    for name in bad_codes:
        print(f"{'failed':>20}  {name}: exit {runs['base'][name][0]} in base, "
              f"{runs['work'][name][0]} in the work tree")
    same = not bad_codes and all(v == "identical" for _, v in rows)
    print(f"{args.base} ({commit[:12]}) against the work tree: "
          + ("every file identical" if same else "outputs differ"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
