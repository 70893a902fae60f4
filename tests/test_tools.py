"""The verdict of ``tools/pairs.py``: a metric gains only when the change
wins at least 9 of at least 10 pairs, the median gap exceeds the
parent's interquartile range, every run is correct and the change fails
no larger share of its operations. And the digest comparison and the
golden run-tree digests of ``tools/identity.py``."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, identity = _load("pairs"), _load("identity")

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
    assert result["pair_ratio"]["median"] == pytest.approx(0.85)
    assert result["pair_ratio"]["iqr"] == pytest.approx([0.85, 0.85])
    assert pairs.verdict(change, PARENT, "higher", runs())["gain"]
    assert not pairs.verdict(PARENT, change, "higher", runs())["gain"]


def test_pair_ratios_are_recorded_and_leave_the_verdict_alone():
    """Every pair won by a steady 0.1%: the per-pair ratios sit in a
    tight band below 1, and the verdict still reads the parent's spread
    across pairs, so it is no gain, as before the ratios were recorded."""
    change = [p - 0.001 for p in PARENT]
    result = pairs.verdict(PARENT, change, "lower", runs())
    q1, q3 = result["pair_ratio"]["iqr"]
    assert q1 <= result["pair_ratio"]["median"] <= q3 < 1.0 and q3 - q1 < 1e-4
    assert result["won"] == 10 and not result["gain"]
    shuffled = pairs.verdict(PARENT, PARENT[::-1], "lower", runs())["pair_ratio"]
    assert shuffled["iqr"][0] < 1.0 < shuffled["iqr"][1]
    # a parent value of 0 (an F1 that read 0) has no ratio
    assert pairs.verdict([0.0] + PARENT[1:], PARENT, "higher", runs())["pair_ratio"] is None


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


def test_identity_compare_reports_what_differs_beyond_manifest_inputs(tmp_path):
    """A file on one side only and a manifest that differs outside its
    ``inputs`` are reported; a manifest that differs only in ``inputs``
    (the output paths) counts as equal."""
    left, right = tmp_path / "left", tmp_path / "right"
    for root, seed in ((left, 1), (right, 2)):
        for name, manifest in (("run", {"seeds": [1]}), ("changed", {"seeds": [seed]})):
            (root / name).mkdir(parents=True)
            (root / name / "manifest.json").write_text(
                json.dumps({"inputs": {"benchmark": str(root)}} | manifest)
            )
        (root / "same.txt").write_text("x")
    (left / "only.txt").write_text("x")
    equal, missing, extra, differ = identity.compare_digests(
        identity.tree_digests(left), identity.tree_digests(right)
    )
    assert equal == ["run/manifest.json", "same.txt"]
    assert (missing, extra) == (["only.txt"], [])
    assert differ == ["changed/manifest.json"]


def _first(names: list[str], cap: int = 20) -> str:
    """How many ``names`` there are and at most the first ``cap``."""
    more = f", and {len(names) - cap} more" if len(names) > cap else ""
    return f"{len(names)}: {', '.join(names[:cap])}{more}"


def test_golden_run_tree_is_reproduced(caplog):
    """The recipe writes the files that ``tests/golden_run_tree.json``
    lists, with no step-plan warning (every step trains on a span of each
    of its types), and, on the numpy build that wrote it, every byte of
    each: a change to any run output (a model's arithmetic, a record's
    format) fails here unless the goldens are rewritten with
    ``tools/identity.py --write-golden``. On another numpy or BLAS build, only the file list
    is checked, and the test reports the bitwise part as skipped."""
    golden = json.loads(identity.GOLDEN.read_text(encoding="utf-8"))
    files = identity.recipe_digests()
    assert [r.getMessage() for r in caplog.records
            if r.name == "clner.clrunner" and r.levelname == "WARNING"] == []
    _, missing, extra, differ = identity.compare_digests(golden["files"], files)
    assert not missing and not extra, (
        f"missing {_first(missing)}; not in the goldens {_first(extra)}"
    )
    build = identity.numpy_build()
    if build != golden["build"]:
        pytest.skip(f"file list matches; bitwise part skipped: goldens from {golden['build']}, "
                    f"this build is {build}")
    assert not differ, f"of {len(files)} files, these differ from the goldens: {_first(differ)}"
