"""Correctness checks that recompute results without the program's own
scoring, decoding or digest code.

Each check returns a list of problems; an empty list is a pass. The
inputs are a CL run directory as ``clrunner.run_cl`` writes it and the
benchmark the run trained on.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from clner import clrunner
from clner.encoder import Vocab

STEP1_F1_FLOOR = 0.5
FLOAT_TOL = 1e-12


def step_dir(run_dir: Path, step: int) -> Path:
    return Path(run_dir) / "cl" / f"step_{step:02d}"


def read_predictions(run_dir: Path, step: int) -> list[list]:
    lines = (step_dir(run_dir, step) / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if line]
    return [rec["spans"] for rec in sorted(records, key=lambda r: r["index"])]


def f1_score(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def recount(bench, step: int, predictions: list[list]) -> tuple[dict, float]:
    """Per-type [tp, fp, fn] and macro-F1 by exact (start, end, type)
    matching, scoring only the types learned through ``step``."""
    learned = bench.sequence.cumulative_types(step)
    counts = {t: [0, 0, 0] for t in learned}
    for sent, spans in zip(bench.tasks[step - 1].test, predictions):
        gold = {(s.start, s.end, s.type) for s in sent.spans}
        pred = {(i, j, t) for i, j, t, _ in spans if t in counts}
        for i, j, t in pred:
            counts[t][0 if (i, j, t) in gold else 1] += 1
        for i, j, t in gold - pred:
            counts.setdefault(t, [0, 0, 0])[2] += 1
    return counts, sum(f1_score(*counts[t]) for t in learned) / len(learned)


def check_metrics(run_dir: Path, bench) -> list[str]:
    """Recounted tp/fp/fn and macro-F1 equal metrics_cl.tsv and summary_cl.tsv."""
    problems = []
    with open(Path(run_dir) / "metrics_cl.tsv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    with open(Path(run_dir) / "summary_cl.tsv", encoding="utf-8") as fh:
        summary = {int(r["step"]): float(r["macro_f1"]) for r in csv.DictReader(fh, delimiter="\t")}
    for step in range(1, len(bench.tasks) + 1):
        predictions = read_predictions(run_dir, step)
        if len(predictions) != len(bench.tasks[step - 1].test):
            problems.append(f"step {step}: {len(predictions)} prediction records for "
                            f"{len(bench.tasks[step - 1].test)} test sentences")
            continue
        counts, macro = recount(bench, step, predictions)
        written = {r["type"]: r for r in rows if int(r["step"]) == step}
        if set(written) != set(counts):
            problems.append(f"step {step}: metrics rows for {sorted(written)}, expected {sorted(counts)}")
        for t, (tp, fp, fn) in counts.items():
            row = written.get(t)
            if row is None:
                continue
            if (int(row["tp"]), int(row["fp"]), int(row["fn"])) != (tp, fp, fn):
                problems.append(f"step {step} {t}: metrics tp/fp/fn {row['tp']}/{row['fp']}/"
                                f"{row['fn']}, recount {tp}/{fp}/{fn}")
            f1 = f1_score(tp, fp, fn)
            if abs(float(row["f1"]) - f1) > FLOAT_TOL:
                problems.append(f"step {step} {t}: metrics F1 {row['f1']}, recount {f1!r}")
        if step not in summary or abs(summary[step] - macro) > FLOAT_TOL:
            problems.append(f"step {step}: summary macro-F1 {summary.get(step)}, recount {macro!r}")
    return problems


def check_floor(run_dir: Path, bench) -> list[str]:
    """Step-1 test macro-F1, recounted from the predictions, clears the floor."""
    _, macro = recount(bench, 1, read_predictions(run_dir, 1))
    if macro < STEP1_F1_FLOOR:
        return [f"step 1 macro-F1 {macro:.4f} below the floor {STEP1_F1_FLOOR}"]
    return []


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def greedy_decode(probs: dict[str, np.ndarray], threshold: float) -> list[tuple]:
    """Brute-force flat decoding: every upper-triangle cell above the
    threshold, best score first (ties by start, end, type order), kept
    unless it overlaps a span already kept."""
    cells = [
        (i + 1, j + 1, order, t, float(p[i, j]))
        for order, (t, p) in enumerate(probs.items())
        for i in range(p.shape[0])
        for j in range(i, p.shape[0])
        if p[i, j] > threshold
    ]
    cells.sort(key=lambda c: (-c[4], c[0], c[1], c[2]))
    kept: list[tuple] = []
    for i, j, _, t, score in cells:
        if all(j < a or b < i for a, b, _, _ in kept):
            kept.append((i, j, t, score))
    return kept


def span_problems(spans: list, n: int, learned, threshold: float | None) -> list[str]:
    """Range, overlap, threshold and type checks on one decoded sentence."""
    problems = []
    for k, (i, j, t, score) in enumerate(spans):
        if not 1 <= i <= j <= n:
            problems.append(f"span ({i}, {j}) outside {n} tokens")
        if t not in learned:
            problems.append(f"span ({i}, {j}) has unlearned type {t!r}")
        if threshold is not None and not score > threshold:
            problems.append(f"span ({i}, {j}, {t}) score {score} not above {threshold}")
        for a, b, _, _ in spans[:k]:
            if not (j < a or b < i):
                problems.append(f"span ({i}, {j}) overlaps ({a}, {b})")
    return problems


def check_step(config, bench, run_dir: Path, step: int) -> list[str]:
    """Reload the step's checkpoint through ``load_step_model``: it must
    reproduce the step's predictions exactly, every decoded span must be
    valid and, for SpanKL, equal a brute-force greedy decode of
    sigmoid(model.logits)."""
    model = clrunner.load_step_model(config, bench, run_dir, step)
    vocab = Vocab(bench.vocab_tokens)
    learned = set(bench.sequence.cumulative_types(step))
    spankl = config.model == "spankl"
    threshold = config.threshold if spankl else None
    problems = []
    for idx, (sent, written) in enumerate(zip(bench.tasks[step - 1].test,
                                              read_predictions(run_dir, step))):
        ids = vocab.encode(sent.tokens)
        spans = [list(s) for s in model.predict(ids)]
        where = f"step {step} sentence {idx}"
        if spans != written:
            problems.append(f"{where}: reloaded model predicts {spans}, run wrote {written}")
        problems += [f"{where}: {p}" for p in span_problems(written, len(ids), learned, threshold)]
        if spankl:
            probs = {t: _sigmoid(m.numpy()) for t, m in model.logits(ids).items()}
            oracle = greedy_decode(probs, threshold)
            if [(i, j, t) for i, j, t, _ in oracle] != [(i, j, t) for i, j, t, _ in written] or any(
                abs(a[3] - b[3]) > FLOAT_TOL for a, b in zip(oracle, written)
            ):
                problems.append(f"{where}: greedy decode gives {oracle}, run wrote {written}")
    return problems


def digest(cache) -> str:
    """SHA-256 over nested dict/list/array data: a tag byte per
    container, sorted dict keys, array shape then little-endian float64
    values. The byte layout is restated here, not imported, so that the
    check does not run the code it checks."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, dict):
            h.update(b"d")
            for key in sorted(obj):
                h.update(str(key).encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"l")
            for item in obj:
                feed(item)
        elif isinstance(obj, np.ndarray):
            h.update(b"a" + str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj, dtype="<f8").tobytes())
        elif obj is None:
            h.update(b"n")
        else:
            h.update(repr(obj).encode())

    feed(cache)
    return h.hexdigest()


def check_teacher(config, bench, run_dir: Path, step: int) -> list[str]:
    """The teacher cache recomputed from the reloaded step-(l-1) model
    hashes to the step's teacher_digest.txt."""
    path = step_dir(run_dir, step) / "teacher_digest.txt"
    if not path.exists():
        return [f"step {step}: no teacher_digest.txt"]
    model = clrunner.load_step_model(config, bench, run_dir, step - 1)
    vocab = Vocab(bench.vocab_tokens)
    cache = model.teacher_predict(
        [vocab.encode(s.tokens) for s in bench.tasks[step - 1].train],
        bench.sequence.cumulative_types(step - 1),
    )
    want = path.read_text(encoding="utf-8").strip()
    got = digest(cache)
    return [] if got == want else [f"step {step}: teacher digest {got[:12]}, file has {want[:12]}"]


def check_run(config, bench, run_dir: Path) -> list[str]:
    """Every check on one CL run directory."""
    problems = check_metrics(run_dir, bench) + check_floor(run_dir, bench)
    for step in range(1, len(bench.tasks) + 1):
        problems += check_step(config, bench, run_dir, step)
        if step > 1 and config.beta > 0:
            problems += check_teacher(config, bench, run_dir, step)
    return problems
