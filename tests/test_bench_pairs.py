"""tools/bench_pairs.py decides what a BENCH_<n>.json records as a gain; these
tests pin its summary of synthetic pairs against BENCHMARK.json's metrics."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

PARENT = [10 + 0.1 * i for i in range(10)]  # median 10.45, IQR 0.45


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(name, parent, change, failed=(0, 0)):
    """Pair records as the tool writes them; the first pair carries all failed operations."""
    return [
        {"parent": {name: p}, "change": {name: c},
         "failed": {"parent": failed[0] if i == 0 else 0, "change": failed[1] if i == 0 else 0}}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


def summary(bench_pairs, name, parent, change, failed=(0, 0)):
    return bench_pairs.summarise(pairs(name, parent, change, failed), METRICS[name])


def lower_by(gap, losses=0):
    """The change better than the parent by `gap` in all but the last `losses` pairs."""
    return [p - gap if i < len(PARENT) - losses else p + 0.1 for i, p in enumerate(PARENT)]


def test_nine_wins_by_more_than_the_iqr_meet_the_gain_rule(bench_pairs):
    s = summary(bench_pairs, "setup_s", PARENT, lower_by(1.0, losses=1))
    assert s["change_wins"] == "9/10" and s["median_gap"] > s["parent_iqr"]
    assert s["gain_rule_met"] is True


def test_eight_wins_do_not_meet_the_gain_rule(bench_pairs):
    s = summary(bench_pairs, "setup_s", PARENT, lower_by(1.0, losses=2))
    assert s["change_wins"] == "8/10" and s["median_gap"] > s["parent_iqr"]
    assert s["gain_rule_met"] is False


def test_a_gap_inside_the_iqr_does_not_meet_the_gain_rule(bench_pairs):
    s = summary(bench_pairs, "setup_s", PARENT, lower_by(0.01))
    assert s["change_wins"] == "10/10" and s["median_gap"] < s["parent_iqr"]
    assert s["gain_rule_met"] is False


def test_more_failed_operations_do_not_meet_the_gain_rule(bench_pairs):
    s = summary(bench_pairs, "setup_s", PARENT, lower_by(1.0), failed=(2, 3))
    assert s["failed"] == {"parent": 2, "change": 3}
    assert s["change_fails_no_more"] is False and s["gain_rule_met"] is False
    s = summary(bench_pairs, "setup_s", PARENT, lower_by(1.0), failed=(3, 3))
    assert s["change_fails_no_more"] is True and s["gain_rule_met"] is True


def test_higher_is_better_counts_a_rise_as_the_gain(bench_pairs):
    rise = [2 * p - c for p, c in zip(PARENT, lower_by(1.0, losses=1))]  # mirrored
    s = summary(bench_pairs, "handshakes_per_s", PARENT, rise)
    assert s["change_wins"] == "9/10" and s["gain_rule_met"] is True
    s = summary(bench_pairs, "handshakes_per_s", PARENT, lower_by(1.0, losses=1))
    assert s["change_wins"] == "1/10" and s["gain_rule_met"] is False
    s = summary(bench_pairs, "handshakes_per_s", PARENT, [p / 2 for p in PARENT])
    assert s["verdict"] == "worse"


@pytest.mark.parametrize("parent, change, verdict", [
    (PARENT, [p - 5 for p in PARENT], "better"),  # every change run below every parent run
    (PARENT, [p * 1.5 for p in PARENT], "worse"),  # 50% slower, bound 25%
    ([1, 1, 1, 5, 5, 5, 9, 9, 9, 9], [1, 1, 1, 5, 5, 5, 9, 9, 9, 9], "unresolved"),  # IQR > bound
    (PARENT, PARENT, "within bound"),
])
def test_verdicts(bench_pairs, parent, change, verdict):
    assert summary(bench_pairs, "handshake_ms.p50", parent, change)["verdict"] == verdict


def test_a_tarfile_without_the_data_filter_is_named(bench_pairs, monkeypatch, tmp_path, capsys):
    monkeypatch.delattr(bench_pairs.tarfile, "data_filter")
    monkeypatch.setattr(bench_pairs, "extract", lambda commit: pytest.fail("extracted"))
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD", "--pairs", "tcp-4m=1", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert "needs tarfile's 'data' extraction filter" in capsys.readouterr().err
    assert not out.exists()
