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
from clner.encoder import (
    EncoderModel,
    TransformerEncoder,
    fan_in_uniform,
    length_mask,
    pad_batch,
)

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


def repair_tags(tags: Sequence[str]) -> list[str]:
    """Turn I- tags that do not continue a same-type B-/I- run into B-."""
    out = list(tags)
    for pos, tag in enumerate(out):
        if tag.startswith("I-"):
            prev = out[pos - 1] if pos else "O"
            if prev not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
                out[pos] = f"B-{tag[2:]}"
    return out


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
    order, then tag order). Returns the repaired tags and the adopted
    probability per token (1.0 where O).
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
    return repair_tags(tags), scores


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
    spans = []
    for i, j, t in tag_decode(tags):
        spans.append((i, j, t, float(np.mean([scores[p] for p in range(i - 1, j)]))))
    return spans


def _flat_rows(encoder: TransformerEncoder, batch_ids, train, rng):
    """Encode a padded batch and flatten it to (B * n, d) token rows.
    Returns the rows, the (B * n,) real-row indicator, n and the lengths."""
    ids, lengths = pad_batch(batch_ids)
    hidden = encoder.encode(ids, train=train, rng=rng, lengths=lengths)
    batch, n, d = hidden.shape
    return nc.reshape(hidden, (batch * n, d)), length_mask(lengths, n).reshape(-1), n, lengths


def _gold_rows(
    batch_gold, types: Sequence[str], tag_list: Sequence[str], n: int, lengths
) -> tuple[np.ndarray, np.ndarray]:
    """Per flattened row: the id in ``tag_list`` (O first) of the gold IOB
    tag over ``types``, and whether that tag is an entity tag. Padding
    rows get O."""
    gold_ids = np.zeros(len(lengths) * n, dtype=np.int64)
    for b, (spans, size) in enumerate(zip(batch_gold, lengths)):
        tags = iob_encode(spans, types, int(size))
        gold_ids[b * n : b * n + size] = [tag_list.index(t) for t in tags]
    return gold_ids, (gold_ids > 0).astype(np.float64)


def _reference_rows(dists, width: int, n: int, lengths) -> np.ndarray:
    """Per-sentence teacher rows placed at their flattened row offsets;
    padding rows hold a uniform distribution (masked out of the loss)."""
    ref = np.full((len(lengths) * n, width), 1.0 / width)
    for b, (dist, size) in enumerate(zip(dists, lengths)):
        ref[b * n : b * n + size] = dist
    return ref


class AddNerTagger(EncoderModel):
    """Multi-head IOB tagger: one (1 + 2*|E_l|)-way head per task."""

    def __init__(self, encoder: TransformerEncoder):
        self.encoder = encoder
        self.task_types: list[tuple[str, ...]] = []
        self.weights: list[nc.Tensor] = []
        self.biases: list[nc.Tensor] = []

    def registered_types(self) -> tuple[str, ...]:
        return tuple(t for types in self.task_types for t in types)

    def grow(self, new_types: Sequence[str], rng: np.random.Generator) -> None:
        dup = set(new_types) & set(self.registered_types())
        if dup:
            raise ValueError(f"entity types already registered: {sorted(dup)}")
        width = len(head_tag_list(new_types))
        d = self.encoder.config.d_model
        self.task_types.append(tuple(new_types))
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

    def batch_loss(
        self,
        batch_ids: Sequence[Sequence[int]],
        batch_gold: Sequence[Iterable],
        current_types: Sequence[str],
        distilled: Sequence[Sequence[np.ndarray]] | None,
        alpha: float,
        beta: float,
        train: bool,
        rng: np.random.Generator | None,
    ) -> nc.Tensor:
        """Mean over the batch of each sentence's loss: cross entropy on
        heads whose types are current; Bernoulli-free KL against the
        teacher's own-head softmax on the older heads."""
        rows, real, n, lengths = _flat_rows(self.encoder, batch_ids, train, rng)
        current = set(current_types)
        taught = min(len(d) for d in distilled) if distilled is not None else 0
        loss: nc.Tensor | None = None
        for idx, types in enumerate(self.task_types):
            if set(types) <= current:
                gold_ids, _ = _gold_rows(batch_gold, types, head_tag_list(types), n, lengths)
                term = nc.mul(
                    nc.cross_entropy_rows(self._head_logits(rows, idx), gold_ids, real), alpha
                )
            elif idx < taught:
                width = self.weights[idx].shape[1]
                ref = _reference_rows([d[idx] for d in distilled], width, n, lengths)
                term = nc.mul(nc.kl_div_rows(self._head_logits(rows, idx), ref, real), beta)
            else:
                continue
            loss = term if loss is None else loss + term
        if loss is None:
            raise ValueError("no head received a training signal for this batch")
        return nc.mul(loss, 1.0 / len(lengths))

    def teacher_predict(
        self, sentences_ids: Sequence[Sequence[int]], old_types: Sequence[str]
    ) -> list[list[np.ndarray]]:
        """Per sentence, each existing head's softmax rows (detached)."""
        if not old_types:
            return [[] for _ in sentences_ids]
        out = []
        for ids in sentences_ids:
            hidden = self.encoder.encode(ids, train=False)
            out.append(
                [
                    nc.softmax(self._head_logits(hidden, idx), axis=1).numpy()
                    for idx in range(len(self.task_types))
                ]
            )
        return out

    def predict(self, token_ids: Sequence[int]):
        hidden = self.encoder.encode(token_ids, train=False)
        head_outputs = []
        for idx, types in enumerate(self.task_types):
            probs = nc.softmax(self._head_logits(hidden, idx), axis=1).numpy()
            head_outputs.append((head_tag_list(types), probs))
        tags, scores = combine_heads(head_outputs)
        return _spans_from_tags(tags, scores)


class ExtendNerTagger(EncoderModel):
    """Single-head IOB tagger with a global O tag; the head widens by
    2*|new types| outputs per task, keeping old tag indices as a prefix."""

    def __init__(self, encoder: TransformerEncoder, pad_constant: float = DEFAULT_PAD_CONSTANT):
        self.encoder = encoder
        self.pad_constant = pad_constant
        self.types: tuple[str, ...] = ()
        d = encoder.config.d_model
        self.weight = nc.parameter(np.zeros((d, 1)))
        self.bias = nc.parameter(np.zeros(1))
        self._initialized = False

    @property
    def tag_list(self) -> list[str]:
        return head_tag_list(self.types)

    def grow(self, new_types: Sequence[str], rng: np.random.Generator) -> None:
        """Widen the head; existing output columns stay bit-identical."""
        dup = set(new_types) & set(self.types)
        if dup:
            raise ValueError(f"entity types already registered: {sorted(dup)}")
        d = self.encoder.config.d_model
        added = 2 * len(new_types)
        if not self._initialized:
            # first growth also initializes the O column
            fresh_w = fan_in_uniform(rng, (d, 1 + added))
            new_w, new_b = fresh_w, np.zeros(1 + added)
            self._initialized = True
        else:
            fresh_w = fan_in_uniform(rng, (d, added))
            new_w = np.concatenate([self.weight.data, fresh_w], axis=1)
            new_b = np.concatenate([self.bias.data, np.zeros(added)])
        self.types = self.types + tuple(new_types)
        self.weight = nc.parameter(new_w)
        self.bias = nc.parameter(new_b)

    def head_named(self) -> dict[str, nc.Tensor]:
        return {"head.w": self.weight, "head.b": self.bias}

    def _logits(self, hidden: nc.Tensor) -> nc.Tensor:
        return nc.matmul(hidden, self.weight) + self.bias

    def batch_loss(
        self,
        batch_ids: Sequence[Sequence[int]],
        batch_gold: Sequence[Iterable],
        current_types: Sequence[str],
        distilled: Sequence[np.ndarray] | None,
        alpha: float,
        beta: float,
        train: bool,
        rng: np.random.Generator | None,
    ) -> nc.Tensor:
        """Mean over the batch of each sentence's loss: tokens whose gold
        is a current-task entity tag take cross entropy with the gold;
        every other token takes KL against the teacher's padded
        distribution when a teacher exists, else cross entropy with its O
        gold."""
        rows, real, n, lengths = _flat_rows(self.encoder, batch_ids, train, rng)
        logits = self._logits(rows)
        width = len(self.tag_list)
        gold_ids, entity = _gold_rows(batch_gold, current_types, self.tag_list, n, lengths)
        if distilled is None:
            loss = nc.mul(nc.cross_entropy_rows(logits, gold_ids, real), alpha)
        else:
            padded = [pad_distilled_distribution(d, width, self.pad_constant) for d in distilled]
            ref = _reference_rows(padded, width, n, lengths)
            ce = nc.cross_entropy_rows(logits, gold_ids, real * entity)
            kl = nc.kl_div_rows(logits, ref, real * (1.0 - entity))
            loss = nc.mul(ce, alpha) + nc.mul(kl, beta)
        return nc.mul(loss, 1.0 / len(lengths))

    def teacher_predict(
        self, sentences_ids: Sequence[Sequence[int]], old_types: Sequence[str]
    ) -> list[np.ndarray]:
        """Softmax rows over the current (pre-extension) tag set."""
        if not old_types:
            return [np.zeros((len(ids), 0)) for ids in sentences_ids]
        out = []
        for ids in sentences_ids:
            hidden = self.encoder.encode(ids, train=False)
            out.append(nc.softmax(self._logits(hidden), axis=1).numpy())
        return out

    def predict(self, token_ids: Sequence[int]):
        hidden = self.encoder.encode(token_ids, train=False)
        probs = nc.softmax(self._logits(hidden), axis=1).numpy()
        tag_list = self.tag_list
        ids = probs.argmax(axis=1)
        tags = [tag_list[i] for i in ids]
        scores = [float(probs[pos, i]) for pos, i in enumerate(ids)]
        return _spans_from_tags(tags, scores)
