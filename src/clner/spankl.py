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


def _cells(lengths: np.ndarray, n: int, types: Sequence[str], chosen) -> np.ndarray:
    """(B, T, n, n) indicator of the cells a loss reads: upper triangle
    within each sentence's length, on the chosen types of the type axis."""
    owned = triu_mask(n) * length_mask(lengths, n)[:, None, :]
    chosen = set(chosen)
    on_type = np.array([t in chosen for t in types], dtype=np.float64)
    return owned[:, None] * on_type[None, :, None, None]


def masked_bce(
    logits: nc.Tensor,
    lengths: np.ndarray,
    golds: Sequence[Mapping[str, Iterable[tuple[int, int]]]],
    types: Sequence[str],
    current_types: Sequence[str],
) -> nc.Tensor:
    """Binary cross entropy summed over the read cells of the current
    types. ``logits`` is (B, T, n, n) with ``types`` along T; each
    sentence's gold maps a current type to its (start, end) spans, which
    take label 1, every other cell 0."""
    column = {t: k for k, t in enumerate(types)}
    target = np.zeros(logits.shape)
    for b, (gold, size) in enumerate(zip(golds, lengths)):
        extra = set(gold) - set(current_types)
        if extra:
            raise ValueError(f"gold spans for non-current types: {sorted(extra)}")
        for t, pairs in gold.items():
            for i, j in pairs:
                if not (1 <= i <= j <= size):
                    raise ValueError(f"gold span ({i}, {j}) outside a {size}-token sentence")
                target[b, column[t], i - 1, j - 1] = 1.0
    cells = _cells(lengths, logits.shape[-1], types, current_types)
    return nc.bce_with_logits(logits, target, cells)


def masked_kd(
    logits: nc.Tensor,
    lengths: np.ndarray,
    distilled: Sequence[Mapping[str, np.ndarray]],
    types: Sequence[str],
    old_types: Sequence[str],
) -> nc.Tensor:
    """Bernoulli KL between each sentence's cached teacher probabilities
    (clamped into [1e-7, 1 - 1e-7]) and the student's sigmoid outputs,
    summed over the read cells of the old types; ``logits`` as in
    ``masked_bce``."""
    column = {t: k for k, t in enumerate(types)}
    ref = np.full(logits.shape, _PAD_PROB)
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
            ref[b, column[t], :size, :size] = np.clip(
                labels[t], TEACHER_PROB_CLAMP, 1.0 - TEACHER_PROB_CLAMP
            )
    cells = _cells(lengths, logits.shape[-1], types, old_types)
    return nc.bernoulli_kl_with_logits(logits, ref, cells)


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
    """``masked_bce`` on one sentence's per-type matrices: summed over the
    upper-triangle cells of the current types."""
    if not current_types:
        raise ValueError("bce_loss needs at least one current type")
    logits, lengths = _one_sentence(matrices, current_types)
    return masked_bce(logits, lengths, [gold], current_types, current_types)


def kd_loss(
    matrices: Mapping[str, nc.Tensor],
    distilled: Mapping[str, np.ndarray],
    old_types: Sequence[str],
) -> nc.Tensor:
    """``masked_kd`` on one sentence's per-type matrices: summed over the
    upper-triangle cells of the old types."""
    if not old_types:
        raise ValueError("kd_loss needs at least one old type")
    logits, lengths = _one_sentence(matrices, old_types)
    return masked_kd(logits, lengths, [distilled], old_types, old_types)


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
        golds = []
        for spans in batch_gold:
            by_type: dict[str, list[tuple[int, int]]] = {}
            for span in spans:
                by_type.setdefault(span[2], []).append((span[0], span[1]))
            golds.append(by_type)
        loss = nc.mul(masked_bce(logits, lengths, golds, wanted, current_types), alpha)
        if use_kd:
            loss = loss + nc.mul(masked_kd(logits, lengths, distilled, wanted, old_types), beta)
        return nc.mul(loss, 1.0 / len(lengths))

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
