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
from .bump import normalize
from .errors import FracmvError, TableMismatchError
from .extension import reflected_extension
from .fraclap import FIELD_NAMES, Params, make_field
from .kernel import (DEFAULT_GRID, RadialKernelTable, build_table,
                     extension_mean_value, phi_r_convolve, read_table,
                     verify_kernel_properties, write_table)

DEFAULT_TOLERANCES = {
    "mvp": 5e-4,
    "extension": 5e-4,
    "constancy": 5e-4,
}


class UsageError(Exception):
    pass


# each failure's exit code; the first kind that matches wins
EXIT_CODES = ((UsageError, 2), (TableMismatchError, 3), (OSError, 4),
              (FracmvError, 1))


@dataclass
class RunConfig:
    n: int | None = None  # None: the table's n, or 1 where no table is read
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
        n = 1 if self.n is None else self.n
        try:
            if self.s is not None:
                return Params.from_s(n, self.s)
            return Params(n=n, a=self.a)
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
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not text: {exc}") from exc
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
    """Parse one setting, from a config line or a flag, into ``cfg``.

    An unknown key or a value out of range raises UsageError; a value that
    does not parse raises ValueError.
    """
    if key == "n":
        cfg.n = int(val)
        if cfg.n not in (1, 2):
            raise UsageError(f"n must be 1 or 2, got {cfg.n}")
    # a = 1 - 2s, so either one replaces the other; NaN fails both ranges
    elif key == "a":
        cfg.a, cfg.s = float(val), None
        if not -1.0 < cfg.a < 1.0:
            raise UsageError(f"a must lie in (-1, 1), got {cfg.a}")
    elif key == "s":
        cfg.a, cfg.s = None, float(val)
        if not 0.0 < cfg.s < 1.0:
            raise UsageError(f"s must lie in (0, 1), got {cfg.s}")
    elif key == "table":
        cfg.table = val
    elif key == "out":
        cfg.out = val
    elif key == "seed":
        cfg.seed = int(val)
        if cfg.seed < 0:
            raise UsageError(f"seed must not be negative, got {cfg.seed}")
    elif key == "fields":
        cfg.fields = [f.strip() for f in val.split(",") if f.strip()]
        if not cfg.fields or not set(cfg.fields) <= set(FIELD_NAMES):
            raise UsageError(f"fields {val!r} must name one or more of "
                             + ", ".join(FIELD_NAMES))
    elif key.startswith(("tol.", "grid.")):
        section, _, name = key.partition(".")
        defaults = DEFAULT_TOLERANCES if section == "tol" else DEFAULT_GRID
        if name not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        # each value keeps the type of its default; the dense grid on
        # [0, 2] needs both of its end points, and every other value must
        # be positive
        value = type(defaults[name])(val)
        low = 1 if key == "grid.dense_points" else 0
        if not low < value < math.inf:
            raise UsageError(f"config key {key!r}: {value} is out of range")
        (cfg.tolerances if section == "tol" else cfg.grid)[name] = value
    else:
        raise UsageError(f"unknown config key {key!r}")


def _flag_keys(args) -> dict:
    """The flags as config keys and values, in the config file's form."""
    out = {key: getattr(args, key) for key in
           ("n", "a", "s", "table", "out", "seed", "fields")
           if getattr(args, key) is not None}
    for item in args.tol or []:
        name, eq, val = item.partition("=")
        if not eq:
            raise UsageError(f"--tol expects NAME=VALUE, got {item!r}")
        out["tol." + name] = val
    return out


def _build_config(args) -> RunConfig:
    # the file's keys go first, so a bad line exits 2 even where a flag
    # overrides it
    cfg = RunConfig()
    for keys in (_parse_config_file(args.config) if args.config else {},
                 _flag_keys(args)):
        if "a" in keys and "s" in keys:
            raise UsageError("give either a or s, not both")
        for key, val in keys.items():
            try:
                _apply_config_key(cfg, key, val)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
    return cfg


def _load_table(cfg: RunConfig) -> RadialKernelTable:
    if cfg.table is None:
        raise UsageError("--table is required for this command")
    table = read_table(cfg.table)
    # an n, a or s left unset follows the table
    held = table.params
    want = {"n": held.n if cfg.n is None else cfg.n}
    if cfg.a is not None or cfg.s is not None:
        want["a"] = cfg.params.a
    if want != {key: getattr(held, key) for key in want}:
        raise TableMismatchError(
            f"table holds n={held.n}, a={held.a}; requested "
            + ", ".join(f"{k}={v}" for k, v in want.items()))
    return table


def _make_fields(names, params: Params, seed: int) -> list:
    """(name, field) for each name, built for ``params``.

    A field that does not exist in dimension ``params.n`` is a usage error.
    """
    try:
        return [(name, make_field(name, params.n, params.s, seed=seed))
                for name in names]
    except ValueError as exc:  # e.g. xplus_s at n = 2
        raise UsageError(str(exc)) from exc


def _default_table_path(cfg: RunConfig) -> Path:
    p = cfg.params
    return Path(cfg.out) / f"kernel_n{p.n}_a{p.a:+.3f}.txt"


def _selected_fields(cfg: RunConfig, params: Params, leave_out=()) -> list:
    """(name, field) for each configured field not named in ``leave_out``
    whose degree is below 2s.

    The tails of Phi and of the extension kernel decay like |x|^-(n+2s), so
    each other field is skipped with a line that says so.  A command left
    with no field to check is a usage error.
    """
    selected = []
    for name, f in _make_fields([name for name in cfg.fields
                                 if name not in leave_out], params, cfg.seed):
        if f.degree < 2.0 * params.s:
            selected.append((name, f))
        else:
            print(f"skipping {name}: degree {f.degree} not integrable "
                  f"at s={params.s}")
    if not selected:
        raise UsageError(f"no field of {','.join(cfg.fields)} is left to check")
    return selected


def _interior_points(n: int, count: int = 5) -> np.ndarray:
    # fixed interior sample of the unit ball, symmetric-ish but not special
    if n == 1:
        return np.array([[-0.62], [-0.31], [0.0], [0.27], [0.55]])[:count]
    pts = np.array([[0.0, 0.0], [0.4, 0.1], [-0.3, 0.35],
                    [0.15, -0.5], [-0.45, -0.2]])
    return pts[:count]


def _sample(n: int, count: int, fractions=()):
    """The unit ball, ``count`` of its interior points, and one row of radii
    q·δ(x) per point x, one radius for each fraction q."""
    domain = Domain.ball(np.zeros(n), 1.0)
    pts = _interior_points(n, count)
    radii = np.array([[q * domain.distance_to_boundary(x) for q in fractions]
                      for x in pts])
    return domain, pts, radii


def _finish(cfg: RunConfig, name: str, text: str, failed: bool,
            verdict: str = "") -> int:
    """Write the report ``name``, print its path after ``verdict`` and
    return the command's exit code."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    print(f"{verdict}; report: {path}" if verdict else f"report: {path}")
    return 1 if failed else 0


def cmd_kernel_build(cfg: RunConfig) -> int:
    params = cfg.params
    start = time.perf_counter()
    table = build_table(params, cfg.grid or None)
    path = Path(cfg.table) if cfg.table else _default_table_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table(table, path)
    elapsed = time.perf_counter() - start
    print(f"wrote {path}")
    print(f"mass residual {table.build_meta['mass_residual']:.3e}, "
          f"build time {elapsed:.1f}s")
    return 0


def cmd_kernel_verify(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    fields = [f for _, f in _selected_fields(cfg, table.params)]
    report = verify_kernel_properties(table, fields=fields)
    lines = ["property,status,measured,threshold,detail"]
    for name, status, measured, threshold, detail in report.rows():
        lines.append(f"{name},{status},{measured},{threshold},{detail}")
        print(f"{name:32s} {status:4s} measured={measured} "
              f"threshold={threshold}")
    return _finish(cfg, "kernel_properties.csv", "\n".join(lines) + "\n",
                   not report.passed)


def cmd_mvp(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    params = table.params
    tol = cfg.tol("mvp")
    _, pts, radii = _sample(params.n, 5, (0.25, 0.5))
    rows = ["field_id,x,r,residual,allowed"]
    ratios = []
    failed = False
    for name, f in _selected_fields(cfg, params):
        values = phi_r_convolve(table, f, np.repeat(pts, 2, axis=0), np.ravel(radii),
                                tol=tol / 10.0).reshape(-1, 2)
        for x, rs, vals in zip(pts, radii, values):
            fx = f(x)
            for r, value in zip(rs, vals):
                residual = abs(value - fx)
                allowed = tol * (1.0 + abs(fx))
                ratios.append(residual / allowed)
                failed = failed or not residual <= allowed
                xs = ";".join(f"{c:.6g}" for c in np.atleast_1d(x))
                rows.append(f"{name},{xs},{r:.6g},{residual:.6e},{allowed:.6e}")
    # np.max shows a NaN ratio, where max(0.0, nan) would show 0.0
    return _finish(cfg, "mean_value.csv", "\n".join(rows) + "\n", failed,
                   f"mean value residuals: worst "
                   f"{np.max(ratios, initial=0.0):.3f} of allowance")


def cmd_extension(cfg: RunConfig) -> int:
    params = cfg.params
    tol = cfg.tol("extension")
    ctol = cfg.tol("constancy")
    profile = normalize(params.n, params.a)
    _, pts, radii = _sample(params.n, 3, (0.1, 0.2, 0.4))
    rows = ["field_id,x,r,value,residual,kind"]
    failed = False
    for name, f in _selected_fields(cfg, params):
        # every shell of the field in one average, so v extends once
        values = extension_mean_value(profile, reflected_extension(params, f),
                                      np.repeat(pts, 3, axis=0),
                                      np.ravel(radii)).reshape(-1, 3)
        for x, rs, vals in zip(pts, radii, values):
            fx = f(x)
            xs = ";".join(f"{c:.6g}" for c in x)
            for r, val in zip(rs, vals):
                rows.append(f"{name},{xs},{r:.6g},{val:.10g},"
                            f"{abs(val - fx):.3e},recovery")
                failed = failed or not abs(val - fx) <= tol * (1.0 + abs(fx))
            spread = vals.max() - vals.min()
            rows.append(f"{name},{xs},nan,{spread:.6e},nan,constancy_spread")
            failed = failed or not spread <= ctol
    return _finish(cfg, "extension_check.csv", "\n".join(rows) + "\n", failed,
                   f"extension check {'FAILED' if failed else 'passed'}")


def cmd_regularity(cfg: RunConfig) -> int:
    table = _load_table(cfg)
    params = table.params
    domain, grid, _ = _sample(params.n, 3)
    rows = []
    failed = False
    lams = (0.3, 0.5)
    # gradient/sharp ratios of constant and affine fields are degenerate or
    # trivial
    for name, f in _selected_fields(cfg, params, ("constant", "affine")):
        sub = gradient_sharp_ratio(table, f, domain, lams, grid,
                                   (0.5, 0.25, 0.125), field_id=name)
        rows.extend(sub)
        maxima = {(row.lam, row.r): row.value for row in sub
                  if row.kind == "ratio_max_over_grid"}
        failed = failed or any(
            not maxima[lam, 0.125] <= 4.0 * maxima[lam, 0.5] + 1e-12 for lam in lams)
        rows.append(weighted_gradient_besov_ratio(
            table, f, domain, 0.5, 2.0, field_id=name))
    return _finish(cfg, "regularity.csv", rows_to_csv(rows), failed,
                   f"regularity ratios {'FAILED' if failed else 'passed'}")


def _add_common(parser: argparse.ArgumentParser):
    # every value stays a string, parsed by _apply_config_key as in a file
    parser.add_argument("--n")
    parser.add_argument("--s")
    parser.add_argument("--a")
    parser.add_argument("--config")
    parser.add_argument("--table")
    parser.add_argument("--out")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE")
    parser.add_argument("--fields")
    parser.add_argument("--seed")


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
    args = _make_parser().parse_args(argv)
    # looked up at each call, so a command replaced on the module is the one run
    commands = {"build": cmd_kernel_build, "verify": cmd_kernel_verify,
                "mvp": cmd_mvp, "extension": cmd_extension,
                "regularity": cmd_regularity}
    try:
        return commands[getattr(args, "kernel_command", args.command)](
            _build_config(args))
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
