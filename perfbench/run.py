#!/usr/bin/env python3
"""fracmv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The workloads and the metric names, units
and bounds are listed in BENCHMARK.json; perfbench/README.md explains them.

Every step is a fresh interpreter running either the ``fracmv`` CLI
(``python3 -m fracmv.cli``) or one of perfbench/steps.py's public-API steps,
one process at a time with one BLAS thread, so each step pays the imports
and the cold ``lru_cache``s that a user's invocation pays.  A repetition is
the workload's list of steps; repetitions run until the next would pass
``--seconds`` (at least one), and the metrics are medians over them.

The kernel tables the workloads read are built once per source tree into
``.bench_build/perfbench`` by the CLI, before any timing.  The set-up that is
timed (``setup_s``, median of three) is a fresh interpreter that imports the
CLI and reads those tables.

``--trace 1`` runs one untraced repetition and two traced ones
(perfbench/trace.py) and prints the per-layer metrics instead.

Every step's output is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GRID_CFG = BENCH / "build_grid.cfg"

BLAS_THREADS = 1
SETUP_REPEATS = 3
STEP_DEADLINE_S = 150.0      # steps still running this long after set-up are killed
TOL = 5e-4                   # the CLI's default mvp/extension/constancy tolerance
BAND = 4.0                   # the CLI's band rule: max@0.125 <= 4 * max@0.5

# step kind -> the text-line metric of its wall time within a repetition
STEP_METRICS = {"kernel_build": "kernel_build_s", "kernel_verify": "kernel_verify_s",
                "mvp": "mvp_s", "extension": "extension_s",
                "regularity": "regularity_s"}

# traced functions each workload must call (layer map) or must not call
EXPECT_CALLED = {
    "build": ["kernel.build_table", "bump.eta_raw", "bump.eta_raw_prime",
              "bump.normalize", "extension.poisson_constant",
              "kernel.write_table", "cli.main"],
    "check": ["kernel.read_table", "kernel.phi_r_convolve", "kernel.phi_direct",
              "kernel.verify_kernel_properties", "analysis.hl_maximal",
              "fraclap.make_field", "fraclap.field", "cli.main"],
    "extension": ["extension.extend", "extension.reflected_extension",
                  "kernel.extension_mean_value",
                  "quadrature.integrate_ball_weighted",
                  "quadrature.gauss_legendre", "bump.normalize",
                  "extension.poisson_constant", "fraclap.make_field",
                  "fraclap.field", "cli.main"],
    "regularity": ["analysis.sharp_maximal", "analysis.gradient_of_solution",
                   "analysis.besov_seminorm", "analysis.gradient_sharp_ratio",
                   "analysis.weighted_gradient_besov_ratio",
                   "kernel.read_table", "fraclap.make_field", "fraclap.field",
                   "cli.main"],
}
EXPECT_UNCALLED = {"build": ["fraclap.field"], "check": ["extension.extend"],
                   "extension": [], "regularity": []}
COUNT_FIELDS = ("calls", "points", "integrand_calls", "rho_nodes")


# ---------------------------------------------------------------- processes

@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: Path


def run_proc(argv, log: Path, deadline: float) -> Proc:
    """Run one child to completion, with its own rusage; kill it at deadline."""
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=fh,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, log)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


CHILD_ENV = _child_env()
PY = sys.executable or "python3"


def cli_argv(args):
    return [PY, "-m", "fracmv.cli", *args]


def log_tail(path: Path, lines: int = 6) -> str:
    text = path.read_text(errors="replace").strip().splitlines()
    return "\n    ".join(text[-lines:])


# ------------------------------------------------------------------- tables

def source_key() -> str:
    """Hash of the package sources and the build grid: names the table cache."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [GRID_CFG]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


TABLE_ARGS = {
    "n1": ["--n", "1", "--a", "0.0"],
    "n2": ["--n", "2", "--a", "0.0"],
    "n1_grid": ["--n", "1", "--a", "0.0", "--config", str(GRID_CFG)],
    "n2_grid": ["--n", "2", "--a", "0.0", "--config", str(GRID_CFG)],
}


def ensure_tables(names, cache: Path, deadline: float) -> dict:
    """Build the named tables with the CLI unless this source tree has them."""
    cache.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = cache / f"{name}.txt"
        if not path.exists():
            tmp = cache / f"{name}.tmp.txt"
            t0 = time.perf_counter()
            res = run_proc(cli_argv(["kernel", "build", *TABLE_ARGS[name],
                                     "--table", str(tmp)]),
                           cache / f"{name}.log", deadline)
            if res.rc != 0:
                raise RuntimeError(f"building table {name} failed (exit {res.rc}):"
                                   f"\n    {log_tail(res.log)}")
            os.replace(tmp, path)
            print(f"built table {name} in {time.perf_counter() - t0:.1f}s",
                  file=sys.stderr)
        paths[name] = path
    return paths


# ------------------------------------------------------------------- checks
# Each returns (ok, figures); figures are the deterministic numerical results.

def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_build(out: Path, ref: Path):
    table = out / "table.txt"
    data = table.read_bytes()
    mass = math.nan
    for line in data.decode().splitlines():
        if line.startswith("built_with="):
            for item in line[len("built_with="):].split(";"):
                key, _, val = item.partition(":")
                if key == "mass_residual":
                    mass = float(val)
    same = data == ref.read_bytes()
    if not same:
        print(f"  table {table} differs from the set-up build {ref}",
              file=sys.stderr)
    return same and math.isfinite(mass), {"mass_residual": mass}


def check_verify(out: Path):
    rows = _read_csv(out / "kernel_properties.csv")
    ok = bool(rows) and all(r["status"] == "pass" for r in rows)
    return ok, {}


def check_mvp(out: Path):
    rows = _read_csv(out / "mean_value.csv")
    worst = max(float(r["residual"]) / float(r["allowed"]) for r in rows)
    return bool(rows) and math.isfinite(worst) and worst <= 1.0, \
        {"mvp_worst": worst}


def check_extension(out: Path):
    worst = 0.0
    rows = _read_csv(out / "extension_check.csv")
    for r in rows:
        value = float(r["value"])
        if r["kind"] == "recovery":
            residual = float(r["residual"])
            # |f(x)| >= |value| - residual, so this allowance is never looser
            allowed = TOL * (1.0 + max(0.0, abs(value) - residual))
            worst = max(worst, residual / allowed)
        else:
            worst = max(worst, value / TOL)
    return bool(rows) and math.isfinite(worst) and worst <= 1.0, \
        {"extension_worst": worst}


def check_regularity(out: Path):
    rows = _read_csv(out / "regularity.csv")
    ok = bool(rows) and all(math.isfinite(float(r["value"])) for r in rows)
    maxima: dict = {}
    for r in rows:
        if r["kind"] == "ratio_max_over_grid":
            maxima.setdefault((r["field_id"], r["lambda"]), {})[float(r["r"])] = \
                float(r["value"])
    for per_r in maxima.values():
        ok = ok and per_r[0.125] <= BAND * per_r[0.5] + 1e-12
    return ok and bool(maxima), {}


# ---------------------------------------------------------------- workloads

@dataclass
class Step:
    kind: str            # key of STEP_METRICS
    mode: str            # "cli" or "step" (perfbench/steps.py)
    args: list
    check: object        # callable(out_dir) -> (ok, figures)


def workload_steps(name: str, seed: int, tables: dict):
    sd = ["--seed", str(seed)]
    if name == "build":
        return [Step("kernel_build", "cli", ["kernel", "build", *TABLE_ARGS[t]],
                     lambda out, ref=tables[t]: check_build(out, ref))
                for t in ("n1_grid", "n2_grid")]
    if name == "check":
        n1, n2 = str(tables["n1"]), str(tables["n2"])
        return [Step("kernel_verify", "cli",
                     ["kernel", "verify", "--table", n1, *sd], check_verify),
                Step("mvp", "cli", ["mvp", "--table", n1, *sd], check_mvp),
                Step("mvp", "step", ["mvp2", "--table", n2, *sd], check_mvp)]
    if name == "extension":
        return [Step("extension", "cli",
                     ["extension", "--n", "1", "--a", a, *sd], check_extension)
                for a in ("-0.5", "0.5")]
    if name == "regularity":
        return [Step("regularity", "cli",
                     ["regularity", "--table", str(tables["n1"]), *sd],
                     check_regularity),
                Step("regularity", "step",
                     ["regularity2", "--table", str(tables["n2"]), *sd],
                     check_regularity)]
    raise ValueError(name)


TABLES_READ = {"build": ["n1_grid", "n2_grid"], "check": ["n1", "n2"],
               "extension": [], "regularity": ["n1", "n2"]}


# -------------------------------------------------------------- repetitions

@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    step_s: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    trace: dict | None = None


def step_argv(step: Step, out: Path, trace_file: Path | None):
    args = list(step.args)
    if step.kind == "kernel_build":
        args += ["--table", str(out / "table.txt")]
    else:
        args += ["--out", str(out)]
    if trace_file is None:
        if step.mode == "cli":
            return cli_argv(args)
        return [PY, str(BENCH / "steps.py"), *args]
    return [PY, str(BENCH / "trace.py"), str(trace_file), step.mode, *args]


def merge_trace(total: dict, part: dict):
    for fn, st in part["stats"].items():
        acc = total["stats"].setdefault(fn, {})
        for key, val in st.items():
            acc[key] = acc.get(key, 0) + val
    for key, val in part["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0) + val


def run_rep(steps, rep_dir: Path, deadline: float, traced: bool) -> Rep:
    rep = Rep(trace={"stats": {}, "counters": {}} if traced else None)
    for i, step in enumerate(steps):
        out = rep_dir / f"step{i}"
        out.mkdir(parents=True)
        trace_file = out / "trace.json" if traced else None
        rep.attempted += 1
        res = run_proc(step_argv(step, out, trace_file), out / "log.txt", deadline)
        ok = res.rc == 0
        if ok:
            try:
                ok, figs = step.check(out)
            except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
                ok, figs = False, {}
                print(f"  check of {step.kind} step {i} raised {exc!r}",
                      file=sys.stderr)
            for key, val in figs.items():
                rep.figures[key] = max(rep.figures.get(key, -math.inf), val)
        if ok and traced:
            merge_trace(rep.trace, json.loads(trace_file.read_text()))
        if not ok:
            rep.failed += 1
            print(f"  step {i} ({step.kind}) failed, exit {res.rc}:\n    "
                  f"{log_tail(res.log)}", file=sys.stderr)
        rep.cpu_s += res.cpu_s
        rep.rss_mb = max(rep.rss_mb, res.rss_mb)
        rep.step_s[step.kind] = rep.step_s.get(step.kind, 0.0) + res.wall_s
        rep.wall_s += res.wall_s
    return rep


# ------------------------------------------------------------------ metrics

def per_layer_value(name: str, traced: list, overhead: float):
    if name == "trace_overhead_frac":
        return overhead
    if name in traced[0].trace["counters"]:
        return traced[0].trace["counters"][name]
    fn, _, key = name.rpartition(".")
    vals = []
    for rep in traced:
        st = rep.trace["stats"].get(fn, {})
        if key == "points_per_call":
            vals.append(st.get("points", 0) / st["calls"] if st.get("calls") else 0.0)
        else:
            vals.append(st.get(key, 0))
    return median(vals) if key not in COUNT_FIELDS else vals[0]


def trace_problems(workload: str, traced: list) -> list:
    problems = []
    a, b = (rep.trace for rep in traced)
    for fn in sorted(set(a["stats"]) | set(b["stats"])):
        for key in COUNT_FIELDS:
            va = a["stats"].get(fn, {}).get(key, 0)
            vb = b["stats"].get(fn, {}).get(key, 0)
            if va != vb:
                problems.append(f"{fn}.{key} differs between traced runs: {va} vs {vb}")
    if a["counters"] != b["counters"]:
        problems.append(f"counters differ: {a['counters']} vs {b['counters']}")
    for fn in EXPECT_CALLED[workload]:
        if not a["stats"].get(fn, {}).get("calls"):
            problems.append(f"{fn} was not called")
    for fn in EXPECT_UNCALLED[workload]:
        if a["stats"].get(fn, {}).get("calls"):
            problems.append(f"{fn} was called {a['stats'][fn]['calls']} times")
    return problems


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fracmv" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a fracmv checkout; {SRC / 'fracmv'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    # a terminated run still kills and reaps the step it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = WORK / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return run(args, spec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, spec, run_dir: Path) -> int:
    key = source_key()
    t_begin = time.monotonic()
    tables = ensure_tables(TABLES_READ[args.workload], WORK / f"tables-{key}",
                           t_begin + 800.0)
    deadline = time.monotonic() + STEP_DEADLINE_S

    # set-up: import the CLI and read the tables, in a fresh interpreter
    probe = [PY, str(BENCH / "steps.py"), "probe", "--tables",
             *[str(tables[t]) for t in TABLES_READ[args.workload]]]
    setups = []
    for i in range(1 if args.trace else SETUP_REPEATS):
        res = run_proc(probe, run_dir / f"setup{i}.log", deadline)
        if res.rc != 0:
            print(f"set-up failed:\n    {log_tail(res.log)}", file=sys.stderr)
            return 1
        setups.append(res.wall_s)
    facts = json.loads(res.log.read_text().strip().splitlines()[-1])
    facts.update({"commit": git_commit(), "source_sha256": key,
                  "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "nproc": os.cpu_count(), "blas_threads_requested": BLAS_THREADS})
    print("facts " + json.dumps(facts, sort_keys=True))

    steps = workload_steps(args.workload, args.seed, tables)
    reps, traced = [], []
    t0 = time.monotonic()
    while True:
        rep = run_rep(steps, run_dir / f"rep{len(reps)}", deadline, False)
        reps.append(rep)
        elapsed = time.monotonic() - t0
        if args.trace or elapsed + rep.wall_s > args.seconds \
                or time.monotonic() + rep.wall_s > deadline:
            break
    if args.trace:
        for i in range(2):
            traced.append(run_rep(steps, run_dir / f"traced{i}", deadline, True))

    everything = reps + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    problems = trace_problems(args.workload, traced) \
        if traced and not any(r.failed for r in traced) else []
    for p in problems:
        print(f"trace check: {p}", file=sys.stderr)

    k = len(reps)
    lines = [("setup_s", median(setups), "s", len(setups)),
             ("run_s", median([r.wall_s for r in reps]), "s", k),
             ("cpu_s", median([r.cpu_s for r in reps]), "s", k),
             ("peak_rss_mb", median([r.rss_mb for r in reps]), "MB", k)]
    for kind, metric in STEP_METRICS.items():
        if kind in reps[0].step_s:
            lines.append((metric, median([r.step_s[kind] for r in reps]), "s", k))
    lines.append(("failed_frac", failed / attempted, "1", attempted))
    for fig in ("mass_residual", "mvp_worst", "extension_worst"):
        vals = [r.figures[fig] for r in everything if fig in r.figures]
        if vals:
            lines.append((fig, max(vals), "1", len(vals)))
    for name, value, unit, count in lines:
        print(f"{name} {value!r} {unit} (n={count})")

    if args.trace:
        untraced = median([r.wall_s for r in reps])
        overhead = median([r.wall_s for r in traced]) / untraced - 1.0
        metrics = {m["name"]: {"value": per_layer_value(m["name"], traced, overhead),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {name: value for name, value, _, _ in lines}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
