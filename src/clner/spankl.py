"""Span-based multi-label NER head with Bernoulli knowledge distillation.

Every entity type owns two distinct single-layer feed-forward projections
(start and end); the score of span (i, j) for a type is the scaled dot
product of the projected boundary vectors, arranged per type into an
n x n matrix whose upper triangle (i <= j, 1-based) is the meaningful
region. The projections of all types are stacked along a leading type
axis, so one tensor op scores every type of every sentence in a padded
batch as a (B, T, n, n) array. Training uses per-cell binary cross
entropy on the current types plus Bernoulli KL against cached teacher
probabilities on the old types; losses never read cells below the
diagonal or past a sentence's end.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from clner import numcore as nc
from clner.encoder import EncoderModel, TransformerEncoder, fan_in_uniform, length_mask, pad_batch

DEFAULT_SPAN_DIM = 50
DEFAULT_THRESHOLD = 0.5
TEACHER_PROB_CLAMP = 1e-7
# any probability strictly inside (0, 1) serves: masked cells carry no loss
_PAD_PROB = 0.5
_HEAD_PARTS = ("start_w", "start_b", "end_w", "end_b")

_TRIU_CACHE: dict[int, np.ndarray] = {}


def triu_mask(n: int) -> np.ndarray:
    """Upper-triangle indicator (i <= j) shared across calls."""
    if n not in _TRIU_CACHE:
        _TRIU_CACHE[n] = np.triu(np.ones((n, n)))
    return _TRIU_CACHE[n]


def span_logits(
    hidden: nc.Tensor,
    start_w: nc.Tensor,
    start_b: nc.Tensor,
    end_w: nc.Tensor,
    end_b: nc.Tensor,
) -> nc.Tensor:
    """(B, n, d) boundary vectors and T stacked heads -> (B, T, n, n)
    logits: start_t(h_i) . end_t(h_j) / sqrt(d_span). Weights are
    (T, d, d_span), biases (T, 1, d_span)."""
    batch, n, d = hidden.shape
    if d != start_w.shape[1]:
        raise nc.ShapeError(
            f"hidden width {d} does not match head projection input {start_w.shape[1]}"
        )
    rows = nc.reshape(hidden, (batch, 1, n, d))
    start = nc.matmul(rows, start_w) + start_b
    end = nc.matmul(rows, end_w) + end_b
    return nc.matmul(start, nc.permute(end, (0, 1, 3, 2))) * (start_w.shape[2] ** -0.5)


def gold_target_matrix(gold_spans: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    target = np.zeros((n, n))
    for i, j in gold_spans:
        if not (1 <= i <= j <= n):
            raise ValueError(f"gold span ({i}, {j}) outside a {n}-token sentence")
        target[i - 1, j - 1] = 1.0
    return target


def _stack(matrices: Sequence[nc.Tensor]) -> nc.Tensor:
    n = matrices[0].shape[0]
    return nc.concat([nc.reshape(m, (1, n, n)) for m in matrices], axis=0)


def bce_loss(
    matrices: Mapping[str, nc.Tensor],
    gold: Mapping[str, Iterable[tuple[int, int]]],
    current_types: Sequence[str],
) -> nc.Tensor:
    """Binary cross entropy summed over upper-triangle cells of the
    current types' matrices (gold label 1 on gold spans, else 0)."""
    extra = set(gold) - set(current_types)
    if extra:
        raise ValueError(f"gold spans for non-current types: {sorted(extra)}")
    if not current_types:
        raise ValueError("bce_loss needs at least one current type")
    scores = _stack([matrices[t] for t in current_types])
    n = scores.shape[-1]
    target = np.stack([gold_target_matrix(gold.get(t, ()), n) for t in current_types])
    return nc.bce_with_logits(scores, target, np.broadcast_to(triu_mask(n), scores.shape))


def _clamped(probs) -> np.ndarray:
    return np.clip(
        np.asarray(probs, dtype=np.float64), TEACHER_PROB_CLAMP, 1.0 - TEACHER_PROB_CLAMP
    )


def _check_distilled(distilled: Mapping[str, np.ndarray], old_types: Sequence[str]) -> None:
    missing = set(old_types) - set(distilled)
    if missing:
        raise ValueError(f"distilled labels missing for old types: {sorted(missing)}")
    extra = set(distilled) - set(old_types)
    if extra:
        raise ValueError(f"distilled labels cover unexpected types: {sorted(extra)}")


def kd_loss(
    matrices: Mapping[str, nc.Tensor],
    distilled: Mapping[str, np.ndarray],
    old_types: Sequence[str],
) -> nc.Tensor:
    """Bernoulli KL between cached teacher probabilities and the student's
    sigmoid outputs, summed over upper-triangle cells of old types.
    Teacher probabilities are clamped into [1e-7, 1 - 1e-7] first."""
    _check_distilled(distilled, old_types)
    if not old_types:
        raise ValueError("kd_loss needs at least one old type")
    scores = _stack([matrices[t] for t in old_types])
    n = scores.shape[-1]
    ref = np.stack([_clamped(distilled[t]) for t in old_types])
    if ref.shape != scores.shape:
        raise nc.ShapeError(f"distilled matrices have shape {ref.shape}, expected {scores.shape}")
    return nc.bernoulli_kl_with_logits(scores, ref, np.broadcast_to(triu_mask(n), scores.shape))


def total_loss(bce, kd, alpha: float, beta: float) -> nc.Tensor:
    """Weighted sum alpha*bce + beta*kd; works on tensors or plain floats."""
    if alpha < 0 or beta < 0:
        raise ValueError(f"loss weights must be non-negative, got {alpha}, {beta}")
    return nc.add(nc.mul(bce, alpha), nc.mul(kd, beta))


def _upper_cells(probs: np.ndarray, threshold: float):
    """(type, i, j) indices of upper-triangle cells above the threshold
    in a (T, n, n) array, in (type, i, j) order, with their scores."""
    above = (probs > threshold) & (triu_mask(probs.shape[-1]) > 0.0)
    t, i, j = np.nonzero(above)
    return t, i, j, probs[t, i, j]


def decode_flat(
    prob_matrices: Mapping[str, np.ndarray], threshold: float = DEFAULT_THRESHOLD
) -> list[tuple[int, int, str, float]]:
    """Flatten overlapping predictions: keep the highest-scoring span,
    discard anything whose token range intersects an accepted span.

    Candidates are the upper-triangle cells above the threshold; ties are
    broken by (start, end, type registration order). The map's iteration
    order defines type order.
    """
    if not prob_matrices:
        return []
    types = list(prob_matrices)
    t, i, j, score = _upper_cells(np.stack([np.asarray(p) for p in prob_matrices.values()]), threshold)
    accepted: list[tuple[int, int, str, float]] = []
    for k in np.lexsort((t, j, i, -score)):
        a, b = int(i[k]) + 1, int(j[k]) + 1
        if all(b < a_i or a_j < a for a_i, a_j, _, _ in accepted):
            accepted.append((a, b, types[t[k]], float(score[k])))
    return accepted


class SpanKLModel(EncoderModel):
    """Shared encoder plus a growable stack of per-type span heads.

    The heads live in four tensors whose leading axis is the type, in
    registration order; checkpoints still name them per type
    (``heads.{type}.start_w`` and so on)."""

    def __init__(
        self,
        encoder: TransformerEncoder,
        d_span: int = DEFAULT_SPAN_DIM,
        threshold: float = DEFAULT_THRESHOLD,
    ):
        self.encoder = encoder
        self.d_span = d_span
        self.threshold = threshold
        self.types: tuple[str, ...] = ()
        d = encoder.config.d_model
        self.start_w = nc.parameter(np.zeros((0, d, d_span)))
        self.start_b = nc.parameter(np.zeros((0, 1, d_span)))
        self.end_w = nc.parameter(np.zeros((0, d, d_span)))
        self.end_b = nc.parameter(np.zeros((0, 1, d_span)))

    # -- structure ---------------------------------------------------------
    def registered_types(self) -> tuple[str, ...]:
        return self.types

    def grow(self, new_types: Sequence[str], rng: np.random.Generator) -> None:
        """Append one fresh head per new type; existing heads untouched.
        Each type draws its start then its end projection."""
        dup = set(new_types) & set(self.types)
        if dup:
            raise ValueError(f"entity types already registered: {sorted(dup)}")
        if not new_types:
            return
        d = self.encoder.config.d_model
        fresh = [
            [fan_in_uniform(rng, (d, self.d_span)) for _ in ("start", "end")] for _ in new_types
        ]
        zeros = np.zeros((len(new_types), 1, self.d_span))
        self.start_w = nc.parameter(np.concatenate([self.start_w.data, [s for s, _ in fresh]]))
        self.start_b = nc.parameter(np.concatenate([self.start_b.data, zeros]))
        self.end_w = nc.parameter(np.concatenate([self.end_w.data, [e for _, e in fresh]]))
        self.end_b = nc.parameter(np.concatenate([self.end_b.data, zeros]))
        self.types = self.types + tuple(new_types)

    def head_named(self) -> dict[str, nc.Tensor]:
        return {f"heads.{part}": getattr(self, part) for part in _HEAD_PARTS}

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: p.data for name, p in self.encoder.named_parameters().items()}
        for part in _HEAD_PARTS:
            stacked = getattr(self, part).data
            for k, t in enumerate(self.types):
                arrays[f"heads.{t}.{part}"] = stacked[k, 0] if part.endswith("_b") else stacked[k]
        return arrays

    def load_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        stacked = dict(arrays)
        names = [f"heads.{t}.{part}" for part in _HEAD_PARTS for t in self.types]
        missing = [name for name in names if name not in arrays]
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        for part in _HEAD_PARTS:
            per_type = [np.asarray(arrays[f"heads.{t}.{part}"], dtype=np.float64) for t in self.types]
            if part.endswith("_b"):
                per_type = [b[None, :] for b in per_type]
            stacked[f"heads.{part}"] = (
                np.stack(per_type) if per_type else getattr(self, part).data
            )
        super().load_arrays(stacked)

    # -- forward paths -----------------------------------------------------
    def _heads(self, types: Iterable[str] | None) -> tuple[list[str], list[nc.Tensor]]:
        """The wanted types and their stacked head parameters."""
        params = [getattr(self, part) for part in _HEAD_PARTS]
        if types is None:
            return list(self.types), params
        wanted = list(types)
        rows = [self.types.index(t) for t in wanted]
        if rows == list(range(len(self.types))):
            return wanted, params
        return wanted, [p[np.array(rows, dtype=np.int64)] for p in params]

    def _scores(
        self,
        batch_ids: Sequence[Sequence[int]],
        types: Iterable[str] | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[list[str], nc.Tensor, np.ndarray]:
        """Score a padded batch: the wanted types, their (B, T, n, n)
        logits and the (B,) sentence lengths."""
        ids, lengths = pad_batch(batch_ids)
        wanted, heads = self._heads(types)
        hidden = self.encoder.encode(ids, train=train, rng=rng, lengths=lengths)
        return wanted, span_logits(hidden, *heads), lengths

    def logits(
        self,
        token_ids: Sequence[int],
        types: Iterable[str] | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> dict[str, nc.Tensor]:
        """Per-type (n, n) logit matrices of one sentence: views of the
        batch-of-one stacked scores."""
        wanted, logits, _ = self._scores([token_ids], types, train, rng)
        return {t: logits[0, k] for k, t in enumerate(wanted)}

    def _probs(self, token_ids: Sequence[int], types: Iterable[str] | None = None):
        """The wanted types and their (T, n, n) sigmoid probabilities for
        one sentence, detached."""
        wanted, logits, _ = self._scores([token_ids], types)
        return wanted, nc.sigmoid(logits).data[0]

    def batch_loss(
        self,
        batch_ids: Sequence[Sequence[int]],
        batch_gold: Sequence[Iterable],
        current_types: Sequence[str],
        distilled: Sequence[Mapping[str, np.ndarray]] | None,
        alpha: float,
        beta: float,
        train: bool,
        rng: np.random.Generator | None,
    ) -> nc.Tensor:
        """Mean over the batch of each sentence's alpha * BCE over current
        types + beta * KL over old types, each summed over the sentence's
        upper-triangle cells. The KD term is absent when no distilled
        labels exist (first step or disabled distillation)."""
        current = set(current_types)
        unknown = current - set(self.types)
        if unknown:
            raise ValueError(f"current types not registered: {sorted(unknown)}")
        old_types = [t for t in self.types if t not in current]
        use_kd = distilled is not None and bool(old_types)
        needed = [t for t in self.types if t in current or use_kd]
        wanted, logits, lengths = self._scores(batch_ids, needed, train, rng)
        batch, n = len(lengths), logits.shape[-1]
        column = {t: k for k, t in enumerate(wanted)}
        is_current = np.array([t in current for t in wanted], dtype=np.float64)[None, :, None, None]
        cells = (triu_mask(n) * length_mask(lengths, n)[:, None, :])[:, None]
        target = np.zeros(logits.shape)
        for b, spans in enumerate(batch_gold):
            by_type: dict[str, list[tuple[int, int]]] = {}
            for span in spans:
                by_type.setdefault(span[2], []).append((span[0], span[1]))
            extra = set(by_type) - current
            if extra:
                raise ValueError(f"gold spans for non-current types: {sorted(extra)}")
            size = lengths[b]
            for t, pairs in by_type.items():
                target[b, column[t], :size, :size] = gold_target_matrix(pairs, size)
        loss = nc.mul(nc.bce_with_logits(logits, target, cells * is_current), alpha)
        if use_kd:
            ref = np.full(logits.shape, _PAD_PROB)
            for b, labels in enumerate(distilled):
                _check_distilled(labels, old_types)
                size = lengths[b]
                for t in old_types:
                    if np.shape(labels[t]) != (size, size):
                        raise nc.ShapeError(
                            f"distilled matrix for {t!r} has shape {np.shape(labels[t])}, "
                            f"expected {(size, size)}"
                        )
                    ref[b, column[t], :size, :size] = _clamped(labels[t])
            kd = nc.bernoulli_kl_with_logits(logits, ref, cells * (1.0 - is_current))
            loss = loss + nc.mul(kd, beta)
        return nc.mul(loss, 1.0 / batch)

    def teacher_predict(
        self, sentences_ids: Sequence[Sequence[int]], old_types: Sequence[str]
    ) -> list[dict[str, np.ndarray]]:
        """One-off teacher pass: sigmoid probabilities of every old type
        for every sentence, one sentence per call. Returns detached arrays
        that stay fixed while the student trains. Empty old_types yields
        empty label sets."""
        if not old_types:
            return [{} for _ in sentences_ids]
        out = []
        for ids in sentences_ids:
            wanted, probs = self._probs(ids, old_types)
            out.append(dict(zip(wanted, probs)))
        return out

    def predict(
        self,
        token_ids: Sequence[int],
        types: Iterable[str] | None = None,
        threshold: float | None = None,
    ) -> list[tuple[int, int, str, float]]:
        """Decode mutually non-overlapping spans above the threshold."""
        wanted, probs = self._probs(token_ids, types)
        return decode_flat(dict(zip(wanted, probs)), self.threshold if threshold is None else threshold)

    def predict_nested(
        self,
        token_ids: Sequence[int],
        types: Iterable[str] | None = None,
        threshold: float | None = None,
    ) -> list[tuple[int, int, str, float]]:
        """Every upper-triangle cell above the threshold, overlap pruning
        skipped: the multi-label matrices natively express nested and
        overlapping mentions; flat aggregation is a separate post-step."""
        thr = self.threshold if threshold is None else threshold
        wanted, probs = self._probs(token_ids, types)
        t, i, j, score = _upper_cells(probs, thr)
        return [
            (int(a) + 1, int(b) + 1, wanted[c], float(s)) for c, a, b, s in zip(t, i, j, score)
        ]
