"""Self-test of the correctness checks: a small CL run must pass every
check, and each deliberately corrupted copy of it must be rejected by
the check that guards that output.

    python3 bench/run.py --self-test
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import checks
from clner import cldata, clrunner
from clner import numcore as nc

CONFIG = clrunner.RunConfig(
    model="spankl", epochs=20, batch_size=8, d_model=32, n_heads=2, d_span=16,
    max_len=32, seed=3,
)


def _edit_tsv(path: Path, column: str, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    cells = lines[1].split("\t")
    k = header.index(column)
    cells[k] = change(cells[k])
    lines[1] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_predictions(run: Path, step: int, change) -> None:
    path = checks.step_dir(run, step) / "predictions.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    change(records)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")


def _first_with_span(records):
    return next(r for r in records if r["spans"])


def add_overlap(records):
    rec = _first_with_span(records)
    i, j, t, s = rec["spans"][0]
    rec["spans"].append([i, j, t, s])


def lower_score(records):
    _first_with_span(records)["spans"][0][3] = 0.25


def drop_all(records):
    for rec in records:
        rec["spans"] = []


def perturb_checkpoint(run: Path, step: int) -> None:
    path = checks.step_dir(run, step) / "checkpoint.bin"
    arrays = nc.load_checkpoint(path)
    arrays["encoder.ln_gain"] = arrays["encoder.ln_gain"] + 0.5
    nc.save_checkpoint(path, arrays)


# label -> (check, text its problem must contain, corruption)
CORRUPTIONS = {
    "metrics_cl.tsv tp off by one": (
        "check_metrics", "metrics tp/fp/fn",
        lambda run: _edit_tsv(run / "metrics_cl.tsv", "tp", lambda v: str(int(v) + 1))),
    "summary_cl.tsv macro-F1 changed": (
        "check_metrics", "summary macro-F1",
        lambda run: _edit_tsv(run / "summary_cl.tsv", "macro_f1", lambda v: repr(float(v) / 2))),
    "overlapping span added to predictions": (
        "check_step", "overlaps", lambda run: _edit_predictions(run, 3, add_overlap)),
    "span score lowered below threshold": (
        "check_step", "not above", lambda run: _edit_predictions(run, 3, lower_score)),
    "span score lowered (greedy decode)": (
        "check_step", "greedy decode", lambda run: _edit_predictions(run, 3, lower_score)),
    "step-2 checkpoint perturbed (reload)": (
        "check_step", "reloaded model", lambda run: perturb_checkpoint(run, 2)),
    "step-2 checkpoint perturbed (teacher)": (
        "check_teacher", "teacher digest", lambda run: perturb_checkpoint(run, 2)),
    "teacher digest replaced": (
        "check_teacher", "teacher digest",
        lambda run: (checks.step_dir(run, 3) / "teacher_digest.txt").write_text("0" * 64 + "\n")),
    "step-1 predictions emptied": (
        "check_floor", "below the floor", lambda run: _edit_predictions(run, 1, drop_all)),
}


def run_check(name: str, bench, run: Path) -> list[str]:
    if name == "check_metrics":
        return checks.check_metrics(run, bench)
    if name == "check_floor":
        return checks.check_floor(run, bench)
    if name == "check_step":
        return [p for step in (1, 2, 3) for p in checks.check_step(CONFIG, bench, run, step)]
    return [p for step in (2, 3) for p in checks.check_teacher(CONFIG, bench, run, step)]


def main(work: Path) -> int:
    shutil.rmtree(work, ignore_errors=True)
    corpus = cldata.generate_toy_corpus(cldata.default_toy_spec(200), seed=5)
    train, dev, test = cldata.split3(corpus, seed=5)
    sequence = cldata.permutations("toy", corpus=corpus, n_tasks=3, count=1, seed=5)[0]
    bench = cldata.synthesize(train, dev, test, sequence, "split-all", seed=5)
    clean = work / "clean"
    clrunner.run_cl(CONFIG, bench, clean)
    ok = True
    problems = checks.check_run(CONFIG, bench, clean)
    print(f"{'PASS' if not problems else 'FAIL'} clean run passes every check"
          + "".join(f"\n    {p}" for p in problems))
    ok &= not problems
    # the greedy oracle itself, on a matrix whose answer is known
    probs = {"A": np.array([[0.9, 0.8], [0.0, 0.7]]), "B": np.array([[0.1, 0.95], [0.0, 0.2]])}
    oracle = checks.greedy_decode(probs, 0.5)
    good = oracle == [(1, 2, "B", 0.95)]
    print(f"{'PASS' if good else 'FAIL'} greedy oracle keeps only the best of overlapping cells")
    ok &= good
    for label, (check, expected, corrupt) in CORRUPTIONS.items():
        copy = work / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(clean, copy)
        corrupt(copy)
        found = [p for p in run_check(check, bench, copy) if expected in p]
        print(f"{'PASS' if found else 'FAIL'} {check} rejects {label}"
              + (f": {found[0][:100]}" if found else ""))
        ok &= bool(found)
    return 0 if ok else 1
