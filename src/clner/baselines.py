"""Sequence-labeling continual-learning baselines.

AddNER keeps one IOB tagging head per task, each with its own O tag; at
inference a heuristic merges the heads' outputs. ExtendNER keeps a single
head with one global O tag and widens it as tasks arrive; the teacher's
distributions are padded with small constants and renormalized to the
widened dimension. Neither uses a CRF. Both share the contextual encoder
with the span model and emit the same (start, end, type, score) span
records for unified evaluation.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from clner import numcore as nc
from clner.cldata import Span, decode_layer, encode_layer
from clner.encoder import EncoderModel, TransformerEncoder, fan_in_uniform, length_mask
from clner.numcore.tensor import stable_softmax

DEFAULT_PAD_CONSTANT = 1e-4


def head_tag_list(types: Sequence[str]) -> list[str]:
    """O plus B-/I- pairs in type order: 1 + 2*|types| tags."""
    tags = ["O"]
    for t in types:
        tags.extend((f"B-{t}", f"I-{t}"))
    return tags


def flatten_spans(spans: Iterable, types: Iterable[str]) -> list:
    """Reduce possibly-nested gold spans of the given types to a
    non-overlapping set: longest span wins, ties go to the earlier start."""
    wanted = set(types)
    candidates = sorted(
        (s for s in spans if s[2] in wanted),
        key=lambda s: (-(s[1] - s[0]), s[0], s[2]),
    )
    kept: list = []
    for s in candidates:
        if all(s[1] < k[0] or k[1] < s[0] for k in kept):
            kept.append(s)
    return sorted(kept)


def iob_encode(spans: Iterable, types: Sequence[str], n_tokens: int) -> list[str]:
    """Per-token IOB tags for the given types; nested golds are flattened
    first (longest-span rule)."""
    return encode_layer(flatten_spans(spans, types), n_tokens)


def tag_decode(tags: Sequence[str]) -> list[Span]:
    """Contiguous B-X (I-X)* groups as (start, end, type) spans, 1-based;
    an orphan I-X opens a group as B-X would."""
    return decode_layer(tags)[0]


def combine_heads(
    head_outputs: Sequence[tuple[Sequence[str], np.ndarray]],
) -> tuple[list[str], list[float]]:
    """Merge per-task head predictions into one flat tag sequence.

    Per token: if every head's argmax is its own O, emit O; otherwise
    adopt the highest-probability non-O argmax across heads (ties by head
    order, then tag order). Returns the merged tags, in which an orphan
    I-X may remain (``tag_decode`` opens a mention there), and the
    adopted probability per token (1.0 where O).
    """
    if not head_outputs:
        raise ValueError("combine_heads needs at least one head output")
    n = head_outputs[0][1].shape[0]
    tags, scores = [], []
    for pos in range(n):
        best: tuple[float, int, int] | None = None  # (-prob, head, tag_id)
        for head_idx, (tag_list, probs) in enumerate(head_outputs):
            tag_id = int(np.argmax(probs[pos]))
            if tag_list[tag_id] == "O":
                continue
            key = (-float(probs[pos, tag_id]), head_idx, tag_id)
            if best is None or key < best:
                best = key
        if best is None:
            tags.append("O")
            scores.append(1.0)
        else:
            neg_prob, head_idx, tag_id = best
            tags.append(head_outputs[head_idx][0][tag_id])
            scores.append(-neg_prob)
    return tags, scores


def pad_distilled_distribution(
    dist: np.ndarray, new_width: int, constant: float = DEFAULT_PAD_CONSTANT
) -> np.ndarray:
    """Align a teacher distribution (n, old_width) to the widened head:
    new tag positions get a small constant, then rows renormalize to 1."""
    dist = np.asarray(dist, dtype=np.float64)
    old_width = dist.shape[1]
    if old_width > new_width:
        raise ValueError(
            f"distilled distribution width {old_width} exceeds head width {new_width}"
        )
    out = np.full((dist.shape[0], new_width), constant)
    out[:, :old_width] = dist
    return out / out.sum(axis=1, keepdims=True)


def _spans_from_tags(tags: Sequence[str], scores: Sequence[float]):
    """Decoded spans, each scored by the mean of its tokens' scores."""
    return [(i, j, t, float(np.mean(scores[i - 1 : j]))) for i, j, t in tag_decode(tags)]


def _flat_rows(hidden: nc.Tensor, lengths: np.ndarray) -> tuple[nc.Tensor, np.ndarray, int]:
    """A padded batch's (B, n, d) vectors as (B * n, d) token rows, with
    the (B * n,) real-row indicator and n."""
    batch, n, d = hidden.shape
    return nc.reshape(hidden, (batch * n, d)), length_mask(lengths, n).reshape(-1), n


def _gold_rows(
    batch_gold, types: Sequence[str], tag_list: Sequence[str], n: int, lengths
) -> tuple[np.ndarray, np.ndarray]:
    """Per flattened row: the one-hot gold IOB tag over ``types`` in
    ``tag_list`` (O first), and whether that tag is an entity tag.
    Padding rows get O."""
    gold_ids = np.zeros(len(lengths) * n, dtype=np.int64)
    for b, (spans, size) in enumerate(zip(batch_gold, lengths)):
        tags = iob_encode(spans, types, int(size))
        gold_ids[b * n : b * n + size] = [tag_list.index(t) for t in tags]
    return np.eye(len(tag_list))[gold_ids], (gold_ids > 0).astype(np.float64)


def _reference_rows(dists, width: int, n: int, lengths) -> np.ndarray:
    """Per-sentence teacher rows placed at their flattened row offsets;
    padding rows hold a uniform distribution (masked out of the loss)."""
    ref = np.full((len(lengths) * n, width), 1.0 / width)
    for b, (dist, size) in enumerate(zip(dists, lengths)):
        ref[b * n : b * n + size] = dist
    return ref


def _neg_entropy(rows: np.ndarray) -> np.ndarray:
    """Per row, the sum of p log p (0 log 0 = 0): the constant by which
    a row's KL exceeds its cross entropy."""
    return np.where(rows > 0.0, rows * np.log(np.maximum(rows, 1e-300)), 0.0).sum(axis=-1)


class AddNerTagger(EncoderModel):
    """Multi-head IOB tagger: one (1 + 2*|E_l|)-way head per task."""

    def __init__(self, encoder: TransformerEncoder):
        super().__init__(encoder)
        self.task_types: list[tuple[str, ...]] = []
        self.weights: list[nc.Tensor] = []
        self.biases: list[nc.Tensor] = []

    def _add_heads(self, new_types: tuple[str, ...], rng: np.random.Generator) -> None:
        width = len(head_tag_list(new_types))
        d = self.encoder.config.d_model
        self.task_types.append(new_types)
        self.weights.append(nc.parameter(fan_in_uniform(rng, (d, width))))
        self.biases.append(nc.parameter(np.zeros(width)))

    def head_named(self) -> dict[str, nc.Tensor]:
        params = {}
        for idx in range(len(self.task_types)):
            params[f"heads.task{idx + 1}.w"] = self.weights[idx]
            params[f"heads.task{idx + 1}.b"] = self.biases[idx]
        return params

    def _head_logits(self, hidden: nc.Tensor, idx: int) -> nc.Tensor:
        return nc.matmul(hidden, self.weights[idx]) + self.biases[idx]

    def _loss_sum(self, hidden, lengths, batch_gold, current_types, distilled, alpha, beta):
        """Sum over the batch of each sentence's loss: alpha * cross
        entropy on heads whose types are current; beta * KL against the
        teacher's own-head softmax on the older heads (a sentence's
        distilled labels: one (n, width) array per taught head), as a
        cross entropy against the teacher rows plus their constant
        negative entropy."""
        rows, real, n = _flat_rows(hidden, lengths)
        current = set(current_types)
        taught = min(len(d) for d in distilled) if distilled is not None else 0
        loss: nc.Tensor | None = None
        for idx, types in enumerate(self.task_types):
            if set(types) <= current:
                gold, _ = _gold_rows(batch_gold, types, head_tag_list(types), n, lengths)
                term = nc.softmax_cross_entropy(self._head_logits(rows, idx), gold, alpha * real)
            elif idx < taught:
                width = self.weights[idx].shape[1]
                ref = _reference_rows([d[idx] for d in distilled], width, n, lengths)
                term = nc.softmax_cross_entropy(
                    self._head_logits(rows, idx), ref, beta * real
                ) + beta * (real * _neg_entropy(ref)).sum()
            else:
                continue
            loss = term if loss is None else loss + term
        if loss is None:
            raise ValueError("no head received a training signal for this batch")
        return loss

    def _probs(self, batch_ids: Sequence[Sequence[int]], types: Sequence[str]) -> list:
        """Per sentence of an equal-length batch, each head's (n, width)
        softmax rows; every head covers registered types only, so all
        heads answer for ``types``."""
        hidden, _ = self._encode(batch_ids)
        heads = [
            stable_softmax(self._head_logits(hidden, idx).data)
            for idx in range(len(self.task_types))
        ]
        return [list(rows) for rows in zip(*heads)]

    def _decode(self, head_rows: Sequence[np.ndarray]) -> list:
        tag_lists = [head_tag_list(types) for types in self.task_types]
        return _spans_from_tags(*combine_heads(list(zip(tag_lists, head_rows))))


class ExtendNerTagger(EncoderModel):
    """Single-head IOB tagger with a global O tag; the head widens by
    2*|new types| outputs per task, keeping old tag indices as a prefix."""

    def __init__(self, encoder: TransformerEncoder, pad_constant: float = DEFAULT_PAD_CONSTANT):
        super().__init__(encoder)
        self.pad_constant = pad_constant
        d = encoder.config.d_model
        self.weight = nc.parameter(np.zeros((d, 1)))
        self.bias = nc.parameter(np.zeros(1))

    @property
    def tag_list(self) -> list[str]:
        return head_tag_list(self.types)

    def _add_heads(self, new_types: tuple[str, ...], rng: np.random.Generator) -> None:
        """Widen the head; existing output columns stay bit-identical.
        The first growth also initializes the O column."""
        d = self.encoder.config.d_model
        added = 2 * len(new_types)
        if not self.types:
            new_w, new_b = fan_in_uniform(rng, (d, 1 + added)), np.zeros(1 + added)
        else:
            new_w = np.concatenate([self.weight.data, fan_in_uniform(rng, (d, added))], axis=1)
            new_b = np.concatenate([self.bias.data, np.zeros(added)])
        self.weight = nc.parameter(new_w)
        self.bias = nc.parameter(new_b)

    def head_named(self) -> dict[str, nc.Tensor]:
        return {"head.w": self.weight, "head.b": self.bias}

    def _logits(self, hidden: nc.Tensor) -> nc.Tensor:
        return nc.matmul(hidden, self.weight) + self.bias

    def _loss_sum(self, hidden, lengths, batch_gold, current_types, distilled, alpha, beta):
        """Sum over the batch of each sentence's loss, as one weighted
        cross entropy over per-token targets: alpha * CE with the gold on
        tokens whose gold is a current entity tag (on every token when no
        teacher exists), beta * KL against the teacher's (n, old width)
        rows, padded to the head's width, on the others (CE plus the row's
        constant negative entropy)."""
        rows, real, n = _flat_rows(hidden, lengths)
        width = len(self.tag_list)
        targets, entity = _gold_rows(batch_gold, current_types, self.tag_list, n, lengths)
        kd = np.zeros_like(real)
        if distilled is not None:
            kd = real * (1.0 - entity)
            padded = [pad_distilled_distribution(d, width, self.pad_constant) for d in distilled]
            taught = kd > 0.0
            targets[taught] = _reference_rows(padded, width, n, lengths)[taught]
        return nc.softmax_cross_entropy(
            self._logits(rows), targets, alpha * (real - kd) + beta * kd
        ) + beta * (kd * _neg_entropy(targets)).sum()

    def _probs(self, batch_ids: Sequence[Sequence[int]], types: Sequence[str]) -> np.ndarray:
        """(B, n, width) softmax rows of an equal-length batch over the
        whole tag set, which covers ``types``."""
        hidden, _ = self._encode(batch_ids)
        return stable_softmax(self._logits(hidden).data)

    def _decode(self, probs: np.ndarray) -> list:
        tag_list = self.tag_list
        ids = probs.argmax(axis=1)
        tags = [tag_list[i] for i in ids]
        scores = [float(probs[pos, i]) for pos, i in enumerate(ids)]
        return _spans_from_tags(tags, scores)
