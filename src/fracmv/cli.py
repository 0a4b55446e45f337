"""Command-line interface: build/verify kernel tables and run the check suites.

Subcommands: ``kernel build``, ``kernel verify``, ``mvp``, ``extension``,
``regularity``.  Configuration comes from an optional flat key=value file
plus flags (flags win).  Exit codes: 0 pass, 1 tolerance failure,
2 invalid arguments, 3 input mismatch, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (Domain, gradient_sharp_ratio, rows_to_csv,
                       weighted_gradient_besov_ratio)
from .errors import FracmvError, TableMismatchError, ToleranceError
from .extension import ExtensionKernel, reflected_extension
from .fraclap import FIELD_NAMES, Params, make_field
from .kernel import (DEFAULT_GRID, RadialKernelTable, build_table,
                     extension_mean_value, phi_r_convolve, read_table,
                     verify_kernel_properties, write_table)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_IO = 4

DEFAULT_TOLERANCES = {
    "mvp": 5e-4,
    "extension": 5e-4,
    "constancy": 5e-4,
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    n: int = 1
    a: float | None = None
    s: float | None = None
    table: str | None = None
    out: str = "."
    seed: int = 0
    fields: list = field(default_factory=lambda: ["constant", "ball_poisson"])
    tolerances: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    @property
    def params(self) -> Params:
        if (self.a is None) == (self.s is None):
            raise UsageError("exactly one of --a and --s must be given")
        if self.s is not None and not 0.0 < self.s < 1.0:
            raise UsageError(f"s must lie in (0, 1), got {self.s}")
        if self.a is not None and not -1.0 < self.a < 1.0:
            raise UsageError(f"a must lie in (-1, 1), got {self.a}")
        try:
            if self.s is not None:
                return Params.from_s(self.n, self.s)
            return Params.from_a(self.n, self.a)
        except ValueError as exc:  # e.g. a tiny s rounds a = 1 - 2s to 1
            raise UsageError(str(exc)) from exc

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


def _parse_config_file(path: str) -> dict:
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _apply_config_key(cfg: RunConfig, key: str, val: str):
    if key == "n":
        cfg.n = int(val)
    elif key == "a":
        cfg.a = float(val)
    elif key == "s":
        cfg.s = float(val)
    elif key == "table":
        cfg.table = val
    elif key == "out":
        cfg.out = val
    elif key == "seed":
        cfg.seed = int(val)
    elif key == "fields":
        cfg.fields = [f.strip() for f in val.split(",") if f.strip()]
    elif key.startswith("tol."):
        cfg.tolerances[key[4:]] = float(val)
    elif key.startswith("grid.") and key[5:] in DEFAULT_GRID:
        name = key[5:]
        # each grid value keeps the type of its default
        value = type(DEFAULT_GRID[name])(val)
        # rmax must lie beyond the dense grid on [0, 2], which needs both of
        # its end points; every other count must be positive
        low = {"rmax": 2.0, "dense_points": 1}.get(name, 0)
        if not low < value < math.inf:
            raise UsageError(f"config key {key!r}: {value} is out of range")
        cfg.grid[name] = value
    else:
        raise UsageError(f"unknown config key {key!r}")


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_keys = _parse_config_file(args.config) if args.config else {}
    for key, val in file_keys.items():
        try:
            _apply_config_key(cfg, key, val)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    if args.n is not None:
        cfg.n = args.n
    if args.a is not None:
        cfg.a = args.a
        cfg.s = None if args.s is None else cfg.s
    if args.s is not None:
        cfg.s = args.s
        if args.a is None:
            cfg.a = None
    if args.a is not None and args.s is not None:
        raise UsageError("give either --a or --s, not both")
    if args.table is not None:
        cfg.table = args.table
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.fields is not None:
        cfg.fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    for item in args.tol or []:
        if "=" not in item:
            raise UsageError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, val = item.partition("=")
        try:
            cfg.tolerances[name] = float(val)
        except ValueError as exc:
            raise UsageError(f"--tol {item!r}: {exc}") from exc
    if any(v <= 0 for v in cfg.tolerances.values()):
        raise UsageError("tolerances must be positive")
    for name in cfg.fields:
        if name not in FIELD_NAMES:
            raise UsageError(f"unknown field {name!r}; known: "
                             + ", ".join(FIELD_NAMES))
    if cfg.n not in (1, 2):
        raise UsageError(f"n must be 1 or 2, got {cfg.n}")
    return cfg


def _load_table(cfg: RunConfig) -> RadialKernelTable:
    if cfg.table is None:
        raise UsageError("--table is required for this command")
    table = read_table(cfg.table)
    if cfg.a is not None or cfg.s is not None:
        want = cfg.params
        if (table.params.n, table.params.a) != (want.n, want.a):
            raise TableMismatchError(
                f"table holds n={table.params.n}, a={table.params.a}; "
                f"requested n={want.n}, a={want.a}")
    return table


def _default_table_path(cfg: RunConfig) -> Path:
    p = cfg.params
    return Path(cfg.out) / f"kernel_n{p.n}_a{p.a:+.3f}.txt"


def _write_report(cfg: RunConfig, name: str, text: str) -> Path:
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def cmd_kernel_build(cfg: RunConfig) -> int:
    params = cfg.params
    start = time.time()
    table = build_table(params, cfg.grid or None)
    path = Path(cfg.table) if cfg.table else _default_table_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table(table, path)
    elapsed = time.time() - start
    print(f"wrote {path}")
    print(f"mass residual {table.build_meta['mass_residual']:.3e}, "
          f"build time {elapsed:.1f}s")
    return EXIT_OK


def cmd_kernel_verify(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    fields = [make_field(name, table.params.n, table.params.s, seed=cfg.seed)
              for name in cfg.fields]
    report = verify_kernel_properties(table, fields=fields)
    lines = ["property,status,measured,threshold,detail"]
    for name, status, measured, threshold, detail in report.rows():
        lines.append(f"{name},{status},{measured},{threshold},{detail}")
        print(f"{name:32s} {status:4s} measured={measured} "
              f"threshold={threshold}")
    path = _write_report(cfg, "kernel_properties.csv", "\n".join(lines) + "\n")
    print(f"report: {path}")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _interior_points(n: int, count: int = 5) -> np.ndarray:
    # fixed interior sample of the unit ball, symmetric-ish but not special
    if n == 1:
        return np.array([[-0.62], [-0.31], [0.0], [0.27], [0.55]])[:count]
    pts = np.array([[0.0, 0.0], [0.4, 0.1], [-0.3, 0.35],
                    [0.15, -0.5], [-0.45, -0.2]])
    return pts[:count]


def cmd_mvp(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    params = table.params
    tol = cfg.tol("mvp")
    domain = (Domain.interval(-1.0, 1.0) if params.n == 1
              else Domain.ball(np.zeros(2), 1.0))
    rows = ["field_id,x,r,residual,allowed"]
    worst = 0.0
    failed = False
    for name in cfg.fields:
        if name == "affine" and params.s <= 0.5:
            print(f"skipping affine: degree 1 not integrable at s={params.s}")
            continue
        f = make_field(name, params.n, params.s, seed=cfg.seed)
        for x in _interior_points(params.n):
            delta = domain.distance_to_boundary(x)
            fx = f(x)
            for r in (delta / 4.0, delta / 2.0):
                value = phi_r_convolve(table, f, x, r, tol=tol / 10.0)
                residual = abs(value - fx)
                allowed = tol * (1.0 + abs(fx))
                worst = max(worst, residual / allowed)
                failed = failed or residual > allowed
                xs = ";".join(f"{c:.6g}" for c in np.atleast_1d(x))
                rows.append(f"{name},{xs},{r:.6g},{residual:.6e},{allowed:.6e}")
    path = _write_report(cfg, "mean_value.csv", "\n".join(rows) + "\n")
    print(f"mean value residuals: worst {worst:.3f} of allowance; "
          f"report: {path}")
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_extension(cfg: RunConfig) -> int:
    params = cfg.params
    tol = cfg.tol("extension")
    ctol = cfg.tol("constancy")
    kern = ExtensionKernel.create(params.n, params.a)
    from .bump import normalize
    profile = normalize(params.n, params.a)
    domain = (Domain.interval(-1.0, 1.0) if params.n == 1
              else Domain.ball(np.zeros(2), 1.0))
    rows = ["field_id,x,r,value,residual,kind"]
    failed = False
    for name in cfg.fields:
        if name == "affine" and params.s <= 0.5:
            continue
        f = make_field(name, params.n, params.s, seed=cfg.seed)
        v = reflected_extension(kern, f)
        for x in _interior_points(params.n, count=3):
            delta = domain.distance_to_boundary(x)
            fx = f(x)
            values = []
            for frac in (0.1, 0.2, 0.4):
                r = frac * delta
                val = extension_mean_value(profile, v, np.atleast_1d(x), r)
                values.append(val)
                xs = ";".join(f"{c:.6g}" for c in np.atleast_1d(x))
                rows.append(f"{name},{xs},{r:.6g},{val:.10g},"
                            f"{abs(val - fx):.3e},recovery")
                failed = failed or abs(val - fx) > tol * (1.0 + abs(fx))
            spread = max(values) - min(values)
            rows.append(f"{name},{xs},nan,{spread:.6e},nan,constancy_spread")
            failed = failed or spread > ctol
    path = _write_report(cfg, "extension_check.csv", "\n".join(rows) + "\n")
    print(f"extension check {'FAILED' if failed else 'passed'}; "
          f"report: {path}")
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_regularity(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    params = table.params
    domain = (Domain.interval(-1.0, 1.0) if params.n == 1
              else Domain.ball(np.zeros(2), 1.0))
    grid = _interior_points(params.n, count=3)
    rows = []
    failed = False
    for name in cfg.fields:
        if name in ("constant", "affine"):
            continue  # gradient/sharp ratios degenerate or trivial
        f = make_field(name, params.n, params.s, seed=cfg.seed)
        for lam in (0.3, 0.5):
            sub = gradient_sharp_ratio(table, f, domain, lam, grid,
                                       (0.5, 0.25, 0.125), field_id=name)
            rows.extend(sub)
            maxima = {row.r: row.value for row in sub
                      if row.kind == "ratio_max_over_grid"}
            if maxima[0.125] > 4.0 * maxima[0.5] + 1e-12:
                failed = True
        rows.append(weighted_gradient_besov_ratio(
            table, f, domain, 0.5, 2.0, field_id=name))
    path = _write_report(cfg, "regularity.csv", rows_to_csv(rows))
    print(f"regularity ratios {'FAILED' if failed else 'passed'}; "
          f"report: {path}")
    return EXIT_TOLERANCE if failed else EXIT_OK


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--n", type=int)
    parser.add_argument("--s", type=float)
    parser.add_argument("--a", type=float)
    parser.add_argument("--config")
    parser.add_argument("--table")
    parser.add_argument("--out")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE")
    parser.add_argument("--fields")
    parser.add_argument("--seed", type=int)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmv",
        description="Mean value kernels for s-harmonic functions: build, "
                    "verify, and run the desk-scale check suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="kernel table operations")
    ksub = kernel.add_subparsers(dest="kernel_command", required=True)
    for name, text in (("build", "tabulate the kernel and write it to disk"),
                       ("verify", "run the kernel property suite")):
        p = ksub.add_parser(name, help=text)
        _add_common(p)

    for name, text in (("mvp", "mean value formula residuals"),
                       ("extension", "extension average recovery/constancy"),
                       ("regularity", "gradient and smoothness ratio suite")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "kernel":
            if args.kernel_command == "build":
                return cmd_kernel_build(cfg)
            return cmd_kernel_verify(cfg)
        if args.command == "mvp":
            return cmd_mvp(cfg)
        if args.command == "extension":
            return cmd_extension(cfg)
        return cmd_regularity(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TableMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FracmvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
