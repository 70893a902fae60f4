"""The verdict of ``tools/pairs.py``: a metric gains only when the change
wins at least 9 of at least 10 pairs, the median gap exceeds the
parent's interquartile range, every run is correct and the change fails
no larger share of its operations."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [1.00, 1.08, 0.97, 1.12, 1.03, 0.95, 1.10, 1.01, 0.99, 1.05]


def runs(pairs=10, change_failed=0, change_correct=True):
    """Per pair, each side's run status; the parent fails 1 of 100."""
    return [
        {"parent": {"correct": True, "attempted": 100, "failed": 1},
         "change": {"correct": change_correct, "attempted": 100, "failed": change_failed}}
        for _ in range(pairs)
    ]


@pytest.mark.parametrize(
    "change",
    [
        PARENT[::-1],  # the same values, paired differently
        [p - 0.001 for p in PARENT],  # every pair won, by less than the spread
        [p * 0.8 if k < 8 else p * 1.01 for k, p in enumerate(PARENT)],  # 8 of 10 won
    ],
    ids=["shuffled", "inside-the-spread", "eight-of-ten"],
)
def test_verdict_rejects_a_no_gain_set(change):
    result = pairs.verdict(PARENT, change, "lower", runs())
    assert not result["gain"]
    # a lower-is-worse metric reads the same values the other way round
    assert not pairs.verdict(change, PARENT, "higher", runs())["gain"]


def test_verdict_accepts_a_clear_gain():
    change = [p * 0.85 for p in PARENT]
    result = pairs.verdict(PARENT, change, "lower", runs())
    assert result["gain"] and result["won"] == 10
    assert result["ratio"] == pytest.approx(0.85)
    assert pairs.verdict(change, PARENT, "higher", runs())["gain"]
    assert not pairs.verdict(PARENT, change, "higher", runs())["gain"]


def test_verdict_needs_ten_pairs():
    change = [p * 0.85 for p in PARENT]
    assert not pairs.verdict(PARENT[:3], change[:3], "lower", runs(3))["gain"]


@pytest.mark.parametrize(
    "status",
    [runs(change_failed=2), runs(change_correct=False)],
    ids=["more-failed", "incorrect-run"],
)
def test_verdict_refuses_a_gain_with_failing_runs(status):
    change = [p * 0.85 for p in PARENT]
    assert not pairs.verdict(PARENT, change, "lower", status)["gain"]
    assert pairs.verdict(PARENT, change, "lower", runs(change_failed=1))["gain"]
