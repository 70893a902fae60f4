"""Span-level evaluation: exact-match P/R/F1 per type, macro averages,
micro pooling within coarse groups, and the CL-vs-non-CL gap.

Spans are (start, end, type) with 1-based inclusive token positions.
All functions are pure and stateless. Zero-denominator convention:
precision, recall, and F1 are 0 when undefined.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class Counts:
    """Exact-boundary, exact-type match counts for one entity type."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    def prf(self) -> tuple[float, float, float]:
        p = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        r = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f1


@dataclass(frozen=True)
class TypeScore:
    counts: Counts
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, counts: Counts) -> "TypeScore":
        p, r, f1 = counts.prf()
        return cls(counts, p, r, f1)


def span_counts(
    gold_by_sentence: Sequence[Iterable[tuple]],
    pred_by_sentence: Sequence[Iterable[tuple]],
) -> dict[str, Counts]:
    """Pool per-type TP/FP/FN over sentences; spans match only when start,
    end, and type are all equal."""
    if len(gold_by_sentence) != len(pred_by_sentence):
        raise ValueError(
            f"sentence count mismatch: {len(gold_by_sentence)} gold vs "
            f"{len(pred_by_sentence)} predicted"
        )
    totals: dict[str, list[int]] = {}

    def bucket(t: str) -> list[int]:
        return totals.setdefault(t, [0, 0, 0])

    for gold, pred in zip(gold_by_sentence, pred_by_sentence):
        gset = {(s[0], s[1], s[2]) for s in gold}
        pset = {(s[0], s[1], s[2]) for s in pred}
        for span in pset & gset:
            bucket(span[2])[0] += 1
        for span in pset - gset:
            bucket(span[2])[1] += 1
        for span in gset - pset:
            bucket(span[2])[2] += 1
    return {t: Counts(*v) for t, v in totals.items()}


def span_f1(
    gold_by_sentence: Sequence[Iterable[tuple]],
    pred_by_sentence: Sequence[Iterable[tuple]],
) -> dict[str, TypeScore]:
    """Per-type precision/recall/F1 over pooled counts."""
    return {
        t: TypeScore.from_counts(c)
        for t, c in span_counts(gold_by_sentence, pred_by_sentence).items()
    }


def macro_f1(per_type_f1: Mapping[str, float], learned_types: Sequence[str]) -> float:
    """Unweighted mean F1 over every type learned so far; a type with no
    score recorded contributes 0."""
    if not learned_types:
        raise ValueError("macro_f1 needs at least one learned type")
    return sum(per_type_f1.get(t, 0.0) for t in learned_types) / len(learned_types)


def coarse_micro_f1(
    fine_counts: Mapping[str, Counts], grouping: Mapping[str, str]
) -> dict[str, TypeScore]:
    """Micro-average within each coarse group: pool TP/FP/FN over the
    group's fine types, then score. ``grouping`` maps fine -> coarse and
    must cover every fine type present."""
    missing = [t for t in fine_counts if t not in grouping]
    if missing:
        raise ValueError(f"grouping does not cover fine types: {sorted(missing)}")
    pooled: dict[str, Counts] = {}
    for fine, counts in fine_counts.items():
        coarse = grouping[fine]
        pooled[coarse] = pooled.get(coarse, Counts()) + counts
    return {c: TypeScore.from_counts(k) for c, k in pooled.items()}


def gap(cl_score: float, noncl_score: float) -> float:
    """The forgetting gap: CL minus its non-CL upper bound."""
    return cl_score - noncl_score


@dataclass
class StepEval:
    """Scores for one incremental step on its test set."""

    step: int
    scores: dict[str, TypeScore]
    macro: float


def evaluate_step(
    step: int,
    gold_by_sentence: Sequence[Iterable[tuple]],
    pred_by_sentence: Sequence[Iterable[tuple]],
    learned_types: Sequence[str],
    grouping: Mapping[str, str] | None = None,
) -> StepEval:
    """Score one step: fine-type F1s, then the step macro.

    Without a grouping the macro averages over the fine types learned so
    far. With one, fine counts are micro-pooled per coarse group first and
    the macro runs over the learned coarse groups.
    """
    counts = span_counts(gold_by_sentence, pred_by_sentence)
    for t in learned_types:
        counts.setdefault(t, Counts())
    scores = {t: TypeScore.from_counts(c) for t, c in counts.items()}
    if grouping is None:
        macro = macro_f1({t: s.f1 for t, s in scores.items()}, list(learned_types))
    else:
        coarse_scores = coarse_micro_f1(counts, grouping)
        learned_coarse = sorted({grouping[t] for t in learned_types})
        macro = macro_f1({c: s.f1 for c, s in coarse_scores.items()}, learned_coarse)
        scores.update(coarse_scores)
    return StepEval(step=step, scores=scores, macro=macro)
