"""The pair summary of tools/bench_pairs.py on synthetic runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "run_s", "better": "lower"},
                       {"name": "rate", "better": "higher"}]}


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


def test_runs_of_an_older_revision_are_left_out():
    stale = _runs(BASE, [b + 1.0 for b in BASE], revision="r0")
    fresh = _runs(BASE, [b - 0.2 for b in BASE])
    for run in fresh:
        run["pair"] += 10
    summary = bench_pairs.summarize(stale + fresh, SPEC)["w"]
    assert summary["excluded_runs"] == 20
    assert summary["run_s"]["work_wins"] == 10
    assert summary["run_s"]["gain_shown"] is True
