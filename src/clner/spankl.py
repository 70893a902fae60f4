"""Span-based multi-label NER head with Bernoulli knowledge distillation.

Every entity type owns two distinct single-layer feed-forward projections
(start and end); the score of span (i, j) for a type is the scaled dot
product of the projected boundary vectors, arranged per type into an
n x n matrix whose upper triangle (i <= j, 1-based) is the meaningful
region. The projections of all types are stacked along a leading type
axis, so one tensor op scores every type of every sentence in a padded
batch as a (B, T, n, n) array. Training uses per-cell binary cross
entropy on the current types plus Bernoulli KL against cached teacher
probabilities on the old types, evaluated as one weighted cross-entropy
op over soft targets; the loss never reads cells below the diagonal or
past a sentence's end.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from clner import numcore as nc
from clner.encoder import EncoderModel, TransformerEncoder, fan_in_uniform, length_mask

DEFAULT_SPAN_DIM = 50
DEFAULT_THRESHOLD = 0.5
TEACHER_PROB_CLAMP = 1e-7
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


def objective(
    logits: nc.Tensor,
    lengths: np.ndarray,
    types: Sequence[str],
    current_types: Sequence[str],
    golds: Sequence[Mapping[str, Iterable[tuple[int, int]]]],
    distilled: Sequence[Mapping[str, np.ndarray]] | None,
    alpha: float,
    beta: float,
) -> nc.Tensor:
    """alpha * BCE over the current types plus beta * Bernoulli KL over
    the other (old) types of ``types``, summed over the read cells (upper
    triangle within each sentence's length) of every sentence.

    ``logits`` is (B, T, n, n) with ``types`` along T. Each sentence's
    gold maps a current type to its (start, end) spans, which take label
    1, every other cell 0; its distilled labels map each old type to the
    teacher's (n_b, n_b) probabilities, clamped into [1e-7, 1 - 1e-7].
    Both terms are the cross entropy softplus(z) - t*z against a soft
    target t, so they are one weighted ``bce_with_logits`` call; the KL
    adds the teacher's constant negative entropy sum p log p + q log q."""
    column = {t: k for k, t in enumerate(types)}
    current = [column[t] for t in current_types]
    old_types = [t for t in types if t not in current_types]
    if old_types and distilled is None:
        raise ValueError(f"distilled labels missing for old types: {sorted(old_types)}")
    owned = triu_mask(logits.shape[-1]) * length_mask(lengths, logits.shape[-1])[:, None, :]
    target = np.zeros(logits.shape)
    weight = np.zeros(logits.shape)
    weight[:, current] = alpha * owned[:, None]
    for b, (gold, size) in enumerate(zip(golds, lengths)):
        extra = set(gold) - set(current_types)
        if extra:
            raise ValueError(f"gold spans for non-current types: {sorted(extra)}")
        for t, pairs in gold.items():
            for i, j in pairs:
                if not (1 <= i <= j <= size):
                    raise ValueError(f"gold span ({i}, {j}) outside a {size}-token sentence")
                target[b, column[t], i - 1, j - 1] = 1.0
    if not old_types:
        return nc.bce_with_logits(logits, target, weight)
    old = [column[t] for t in old_types]
    for b, (labels, size) in enumerate(zip(distilled, lengths)):
        missing, extra = set(old_types) - set(labels), set(labels) - set(old_types)
        if missing:
            raise ValueError(f"distilled labels missing for old types: {sorted(missing)}")
        if extra:
            raise ValueError(f"distilled labels cover unexpected types: {sorted(extra)}")
        for t in old_types:
            if np.shape(labels[t]) != (size, size):
                raise nc.ShapeError(
                    f"distilled matrix for {t!r} has shape {np.shape(labels[t])}, "
                    f"expected {(size, size)}"
                )
            target[b, column[t], :size, :size] = np.clip(
                labels[t], TEACHER_PROB_CLAMP, 1.0 - TEACHER_PROB_CLAMP
            )
    weight[:, old] = beta * owned[:, None]
    p = target[:, old]
    p = p[np.broadcast_to(owned[:, None] > 0.0, p.shape)]
    entropy = (p * np.log(p) + (1.0 - p) * np.log1p(-p)).sum()
    return nc.bce_with_logits(logits, target, weight) + beta * entropy


def _one_sentence(matrices: Mapping[str, nc.Tensor], types: Sequence[str]):
    """Per-type (n, n) matrices of one sentence as (1, T, n, n) logits and
    the (1,) length, for the batch-of-one adapters below."""
    n = matrices[types[0]].shape[0]
    logits = nc.concat([nc.reshape(matrices[t], (1, 1, n, n)) for t in types], axis=1)
    return logits, np.array([n])


def bce_loss(
    matrices: Mapping[str, nc.Tensor],
    gold: Mapping[str, Iterable[tuple[int, int]]],
    current_types: Sequence[str],
) -> nc.Tensor:
    """Binary cross entropy of one sentence's per-type matrices, summed
    over the upper-triangle cells of the current types: ``objective``
    with alpha 1 on a batch of one."""
    if not current_types:
        raise ValueError("bce_loss needs at least one current type")
    logits, lengths = _one_sentence(matrices, current_types)
    return objective(logits, lengths, current_types, current_types, [gold], None, 1.0, 0.0)


def kd_loss(
    matrices: Mapping[str, nc.Tensor],
    distilled: Mapping[str, np.ndarray],
    old_types: Sequence[str],
) -> nc.Tensor:
    """Bernoulli KL of one sentence's per-type matrices against its
    teacher probabilities, summed over the upper-triangle cells of the
    old types: ``objective`` with beta 1 on a batch of one."""
    if not old_types:
        raise ValueError("kd_loss needs at least one old type")
    logits, lengths = _one_sentence(matrices, old_types)
    return objective(logits, lengths, old_types, [], [{}], [distilled], 0.0, 1.0)


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
        super().__init__(encoder)
        self.d_span = d_span
        self.threshold = threshold
        d = encoder.config.d_model
        self.start_w = nc.parameter(np.zeros((0, d, d_span)))
        self.start_b = nc.parameter(np.zeros((0, 1, d_span)))
        self.end_w = nc.parameter(np.zeros((0, d, d_span)))
        self.end_b = nc.parameter(np.zeros((0, 1, d_span)))

    # -- structure ---------------------------------------------------------
    def _add_heads(self, new_types: tuple[str, ...], rng: np.random.Generator) -> None:
        """Append one fresh head per new type; each type draws its start
        then its end projection."""
        d = self.encoder.config.d_model
        fresh = [
            [fan_in_uniform(rng, (d, self.d_span)) for _ in ("start", "end")] for _ in new_types
        ]
        zeros = np.zeros((len(new_types), 1, self.d_span))
        self.start_w = nc.parameter(np.concatenate([self.start_w.data, [s for s, _ in fresh]]))
        self.start_b = nc.parameter(np.concatenate([self.start_b.data, zeros]))
        self.end_w = nc.parameter(np.concatenate([self.end_w.data, [e for _, e in fresh]]))
        self.end_b = nc.parameter(np.concatenate([self.end_b.data, zeros]))

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
    def _scores(
        self,
        batch_ids: Sequence[Sequence[int]],
        types: Iterable[str] | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[list[str], nc.Tensor, np.ndarray]:
        """Score a padded batch: the wanted types (default: all), their
        (B, T, n, n) logits and the (B,) sentence lengths."""
        wanted = list(self.types if types is None else types)
        rows = [self.types.index(t) for t in wanted]
        heads = [getattr(self, part) for part in _HEAD_PARTS]
        if rows != list(range(len(self.types))):
            heads = [p[np.array(rows, dtype=np.int64)] for p in heads]
        hidden, lengths = self._encode(batch_ids, train, rng)
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

    def _probs(
        self, batch_ids: Sequence[Sequence[int]], types: Iterable[str]
    ) -> list[dict[str, np.ndarray]]:
        """Per sentence of an equal-length batch (no padding, so no key
        mask): each wanted type's (n, n) sigmoid probabilities."""
        wanted, logits, _ = self._scores(batch_ids, types)
        return [dict(zip(wanted, p)) for p in nc.sigmoid(logits).data]

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
        golds = []
        for spans in batch_gold:
            by_type: dict[str, list[tuple[int, int]]] = {}
            for span in spans:
                by_type.setdefault(span[2], []).append((span[0], span[1]))
            golds.append(by_type)
        loss = objective(
            logits, lengths, wanted, current_types, golds, distilled if use_kd else None, alpha, beta
        )
        return nc.mul(loss, 1.0 / len(lengths))

    def _decode(self, probs: Mapping[str, np.ndarray]) -> list:
        """Mutually non-overlapping spans above the threshold."""
        return decode_flat(probs, self.threshold)

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
        with nc.no_grad():
            wanted, logits, _ = self._scores([token_ids], types)
            probs = nc.sigmoid(logits).data[0]
        t, i, j, score = _upper_cells(probs, thr)
        return [
            (int(a) + 1, int(b) + 1, wanted[c], float(s)) for c, a, b, s in zip(t, i, j, score)
        ]
