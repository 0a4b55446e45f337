"""Record alternating base/work-tree pairs of the benchmark in a BENCH file.

    python3 tools/bench_pairs.py --out BENCH_x.json --workload regularity \\
        --pairs 10 --seed 7 [--base HEAD] [--trace 0]

The base revision is exported with ``git archive`` into a temporary
directory; the work tree is the checkout this script lives in.  Pair i runs
the benchmark command of BENCHMARK.json (``perfbench/run.py --workload W
--seed S --seconds T --trace X``, with T the ``run_seconds`` of
BENCHMARK.json) once on each side with seed S = seed + i, the base first
when i is even and the work tree first when i is odd.  Each run's facts
line, its named metric lines and its final JSON line go into ``--out``; an
existing file is extended, so several workloads can share one.
The summary gives each side's median and quartiles of every end-to-end
metric, the number of pairs the work tree won, the work median minus the
base median (``median_diff``), the base's quartile distance (``base_iqr``)
and ``gain_shown``: whether the work tree won at least nine tenths of ten
or more pairs and its median is better than the base's by more than
``base_iqr``.  It uses only the runs
whose ``revision`` equals that of the newest run on the same side, and
stores the number of runs it left out as ``excluded_runs``.

Each run's ``revision`` names the code it measured: the base commit for a
base run, and HEAD, whether src/ or perfbench/ differ from it, and the
source hash for a work-tree run.  ``facts.commit`` is only what git reports
in the directory the run used, so it is "unknown" for the exported base and
HEAD for the work tree, even when the work tree has uncommitted changes.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_once(tree: Path, command, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    facts, named = {}, {}
    for line in lines[:-1]:
        if line.startswith("facts "):
            facts = json.loads(line[len("facts "):])
        else:
            name, value, unit = line.split()[:3]
            named[name] = {"value": float(value), "unit": unit}
    return {"argv": argv, "facts": facts, "lines": named,
            "result": json.loads(lines[-1]), "stderr": res.stderr.strip()}


def summarize(runs, spec) -> dict:
    summary = {}
    for wl in sorted({r["workload"] for r in runs if r["trace"] == 0}):
        wl_runs = [r for r in runs if r["workload"] == wl and r["trace"] == 0]
        # each side's newest revision only: an extended file may hold runs of
        # an older base commit or work-tree source
        newest = {r["side"]: r.get("revision") for r in wl_runs}
        kept = [r for r in wl_runs if r.get("revision") == newest[r["side"]]]
        pairs = {}
        for r in kept:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        rows = {}
        for m in spec["end_to_end"]:
            sign = 1.0 if m["better"] == "lower" else -1.0
            side = {}
            for name in ("base", "work"):
                vals = [p[name][m["name"]]["value"] for p in pairs]
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                    else (vals[0],) * 3
                side[name] = {"median": med, "q1": q1, "q3": q3, "runs": vals}
            wins = sum(sign * (p["work"][m["name"]]["value"]
                               - p["base"][m["name"]]["value"]) < 0 for p in pairs)
            diff = side["work"]["median"] - side["base"]["median"]
            iqr = side["base"]["q3"] - side["base"]["q1"]
            # a gain shows when the work tree wins nine tenths of ten or more
            # pairs and its median is better by more than the base's spread
            shown = len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) \
                and -sign * diff > iqr
            rows[m["name"]] = {**side, "work_wins": wins, "pairs": len(pairs),
                               "median_diff": diff, "base_iqr": iqr,
                               "gain_shown": shown}
        summary[wl] = {**rows, "excluded_runs": len(wl_runs) - len(kept)}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = args.out if args.out.is_absolute() else ROOT / args.out
    record = json.loads(out.read_text()) if out.exists() else {"runs": []}
    base_commit = git("rev-parse", args.base)
    work = {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}
    record.update({"base": {"rev": args.base, "commit": base_commit},
                   "work": work, "command": spec["command"]})
    identity = {"base": {"commit": base_commit}, "work": work}
    first_pair = max((r["pair"] for r in record["runs"]
                      if r["workload"] == args.workload and r["trace"] == args.trace),
                     default=-1) + 1
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        export(base_commit, Path(tmp))
        trees = {"base": Path(tmp), "work": ROOT}
        for i in range(args.pairs):
            pair = first_pair + i
            seed = args.seed + i
            order = ("base", "work") if pair % 2 == 0 else ("work", "base")
            for side in order:
                run = run_once(trees[side], spec["command"], args.workload, seed,
                               spec["run_seconds"], args.trace)
                revision = {**identity[side],
                            "source_sha256": run["facts"].get("source_sha256")}
                record["runs"].append({"workload": args.workload, "pair": pair,
                                       "side": side, "first": order[0], "seed": seed,
                                       "trace": args.trace, "revision": revision,
                                       **run})
                metrics = run["result"]["metrics"]
                print(f"{args.workload} pair {pair} seed {seed} {side}: correct="
                      f"{run['result']['correct']} " + " ".join(
                          f"{k}={v['value']:.4g}" for k, v in metrics.items()
                          if k in ("run_s", "peak_rss_mb", "setup_s")), flush=True)
                out.write_text(json.dumps(record, indent=1) + "\n")
    record["summary"] = summarize(record["runs"], spec)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
