"""The pair summary and run records of tools/bench_pairs.py, on synthetic runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                       {"name": "rate", "better": "higher", "bound": 0.25}]}


def _runs(base, work, revision="r1"):
    """One base and one work run per pair; rate is the reciprocal of run_s."""
    runs = []
    for pair, values in enumerate(zip(base, work)):
        for side, value in zip(("base", "work"), values):
            metrics = {"run_s": {"value": value}, "rate": {"value": 1.0 / value}}
            runs.append({"workload": "w", "trace": 0, "pair": pair, "side": side,
                         "revision": revision, "result": {"metrics": metrics}})
    return runs


BASE = [1.00 + 0.01 * i for i in range(10)]  # quartiles 1.0175 and 1.0725


def test_gain_shown_when_nine_of_ten_win_by_more_than_the_spread():
    work = [b - 0.2 for b in BASE[:9]] + [BASE[9] + 0.1]
    row = bench_pairs.summarize(_runs(BASE, work), SPEC)["w"]["run_s"]
    assert row["work_wins"] == 9 and row["pairs"] == 10
    assert row["base_iqr"] == pytest.approx(0.055)
    assert row["median_diff"] == pytest.approx(
        row["work"]["median"] - row["base"]["median"])
    assert row["median_diff"] < -row["base_iqr"]
    assert row["gain_shown"] is True


def test_gain_follows_the_better_direction():
    work = [b - 0.2 for b in BASE]
    rows = bench_pairs.summarize(_runs(BASE, work), SPEC)["w"]
    assert rows["rate"]["work_wins"] == 10
    assert rows["rate"]["median_diff"] > rows["rate"]["base_iqr"] > 0
    assert rows["rate"]["gain_shown"] is True
    # the same runs read the other way round are a loss on both metrics
    back = bench_pairs.summarize(_runs(work, BASE), SPEC)["w"]
    assert back["run_s"]["gain_shown"] is False
    assert back["rate"]["gain_shown"] is False


@pytest.mark.parametrize("work,pairs", [
    ([b - 0.01 for b in BASE], 10),                               # inside the spread
    ([b - 0.2 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]], 10),  # 8 of 10
    ([b - 0.2 for b in BASE[:9]], 9),                             # too few pairs
], ids=["small", "eight_wins", "nine_pairs"])
def test_no_gain_shown(work, pairs):
    row = bench_pairs.summarize(_runs(BASE[:pairs], work), SPEC)["w"]["run_s"]
    assert row["pairs"] == pairs
    assert row["gain_shown"] is False


@pytest.mark.parametrize("factor,run_s,rate", [
    (0.5, True, True),     # better on both
    (1.2, True, True),     # run_s 20 % worse, rate 17 % worse
    (1.3, False, True),    # run_s 30 % worse, rate 23 % worse
    (1.5, False, False),   # run_s 50 % worse, rate 33 % worse
])
def test_within_bound_judges_the_median_against_the_bound(factor, run_s, rate):
    # the bound, 0.25, is a fraction of the base median, in the direction
    # in which the metric gets worse
    rows = bench_pairs.summarize(_runs(BASE, [b * factor for b in BASE]), SPEC)["w"]
    assert rows["run_s"]["within_bound"] is run_s
    assert rows["rate"]["within_bound"] is rate


WIDE = [1.0] * 5 + [2.0] * 5  # quartiles 1 and 2, median 1.5


@pytest.mark.parametrize("base,work,unresolved", [
    (WIDE, WIDE, True),                      # spread 1 > 0.25 x 1.5
    (WIDE, [0.9] * 10, False),               # every work run beats every base run
    (WIDE, [0.9] * 9 + [1.0], True),         # one ties the best base run
    (BASE, [b * 1.3 for b in BASE], False),  # a regression the spread resolves
], ids=["same", "apart", "tie", "narrow"])
def test_unresolved_when_the_base_spread_is_wider_than_the_bound(base, work,
                                                                  unresolved):
    row = bench_pairs.summarize(_runs(base, work), SPEC)["w"]["run_s"]
    assert row["base_iqr"] == pytest.approx(1.0 if base is WIDE else 0.055)
    assert row["unresolved"] is unresolved


def test_runs_of_an_older_revision_are_left_out():
    stale = _runs(BASE, [b + 1.0 for b in BASE], revision="r0")
    fresh = _runs(BASE, [b - 0.2 for b in BASE])
    for run in fresh:
        run["pair"] += 10
    summary = bench_pairs.summarize(stale + fresh, SPEC)["w"]
    assert summary["excluded_runs"] == 20
    assert summary["run_s"]["work_wins"] == 10
    assert summary["run_s"]["gain_shown"] is True


@pytest.mark.parametrize("value,pyc", [("1", 0), (None, 0), ("1", 1)])
def test_each_run_records_whether_steps_compile_from_source(monkeypatch, tmp_path,
                                                            value, pyc):
    # PYTHONDONTWRITEBYTECODE, or bytecode left under src/, moves every
    # step's peak RSS by about 2 MB
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    cache = tmp_path / "src" / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    for i in range(pyc):
        (cache / f"m{i}.cpython-311.pyc").write_bytes(b"")
    result = json.dumps({"correct": True, "metrics": {}})
    done = subprocess.CompletedProcess([], 0, stdout=f"facts {{}}\n{result}\n",
                                       stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: done)
    run = json.loads(json.dumps(bench_pairs.run_once(
        tmp_path, ["python3", "run.py"], "w", 0, 1.0, 0)))
    assert run["PYTHONDONTWRITEBYTECODE"] == value
    assert run["src_pyc_files"] == pyc
