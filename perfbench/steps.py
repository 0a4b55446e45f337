"""Benchmark steps that call the public fracmv functions, one per interpreter.

Usage:
    python3 perfbench/steps.py probe [--tables PATH...]
    python3 perfbench/steps.py mvp2 --table PATH --seed N --out DIR
    python3 perfbench/steps.py regularity2 --table PATH --seed N --out DIR

probe        imports the CLI and reads the tables (the benchmark's set-up) and
             prints the run facts as one JSON line.
mvp2         mean value residuals of an n=2 table at the interior point
             (0.4, 0.1) and radii delta/4, delta/2, on the constant and
             ball_poisson fields; writes mean_value.csv in the CLI's format.
regularity2  n=2 gradient/sharp-maximal ratio (lambda 0.5, point (0.4, 0.1),
             factors 0.5, 0.25, 0.125) and one Besov seminorm (lambda 0.5,
             p 2, window 1, half width 2, 24x24 grid); writes regularity.csv
             in the CLI's format.

Library calls go through module attributes so that a traced run sees them.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

import fracmv
import fracmv.cli
from fracmv import analysis, fraclap, kernel

MVP_TOL = 5e-4          # the CLI's default mvp tolerance
POINT_N2 = (0.4, 0.1)   # the CLI's second n=2 interior point
FACTORS = (0.5, 0.25, 0.125)
BESOV_GRID = 24
BESOV_SHELLS = 4


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def probe(args) -> int:
    for path in args.tables:
        kernel.read_table(path)
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fracmv": fracmv.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
    }
    print(json.dumps(facts))
    return 0


def mvp2(args) -> int:
    table = kernel.read_table(args.table)
    n, s = table.params.n, table.params.s
    x = np.array(POINT_N2)
    delta = analysis.Domain.ball(np.zeros(n), 1.0).distance_to_boundary(x)
    rows = ["field_id,x,r,residual,allowed"]
    for name in ("constant", "ball_poisson"):
        f = fraclap.make_field(name, n, s, seed=args.seed)
        fx = f(x)
        for r in (delta / 4.0, delta / 2.0):
            value = kernel.phi_r_convolve(table, f, x, r, tol=MVP_TOL / 10.0)
            xs = ";".join(f"{c:.6g}" for c in x)
            rows.append(f"{name},{xs},{r:.6g},{abs(value - fx):.6e},"
                        f"{MVP_TOL * (1.0 + abs(fx)):.6e}")
    Path(args.out, "mean_value.csv").write_text("\n".join(rows) + "\n")
    return 0


def regularity2(args) -> int:
    table = kernel.read_table(args.table)
    n, s = table.params.n, table.params.s
    f = fraclap.make_field("ball_poisson", n, s, seed=args.seed)
    domain = analysis.Domain.ball(np.zeros(n), 1.0)
    rows = analysis.gradient_sharp_ratio(table, f, domain, 0.5,
                                         [np.array(POINT_N2)], FACTORS,
                                         field_id="ball_poisson")
    besov = analysis.besov_seminorm(f, 0.5, 2.0, 1.0, half_width=2.0,
                                    grid=BESOV_GRID, shells=BESOV_SHELLS)
    rows.append(analysis.ReportRow("ball_poisson", (), math.nan, 0.5, 2.0,
                                   besov.value, "besov_seminorm"))
    Path(args.out, "regularity.csv").write_text(analysis.rows_to_csv(rows))
    return 0


STEPS = {"probe": probe, "mvp2": mvp2, "regularity2": regularity2}


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="steps.py")
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--tables", nargs="*", default=[])
    parser.add_argument("--table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    return STEPS[args.step](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
