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
) -> tuple[list, np.ndarray]:
    """Merge per-task head predictions into one flat tag sequence.

    Per token: if every head's argmax is its own O, emit O; otherwise
    adopt the highest-probability non-O argmax across heads (ties by head
    order). Each head gives its tag list and (..., n, width) softmax
    rows. Returns the merged tags as (nested) lists, in which an orphan
    I-X may remain (``tag_decode`` opens a mention there), and the
    (..., n) adopted probabilities (1.0 where O).
    """
    if not head_outputs:
        raise ValueError("combine_heads needs at least one head output")
    shape = head_outputs[0][1].shape[:-1]
    names, score, index = ["O"], np.full(shape, -1.0), np.zeros(shape, dtype=np.int64)
    for tag_list, rows in head_outputs:
        best, prob = rows.argmax(axis=-1), rows.max(axis=-1)
        # a head whose argmax is its own O abstains; a tie keeps the earlier head
        take = (prob > score) & ~np.array([tag == "O" for tag in tag_list])[best]
        score, index = np.where(take, prob, score), np.where(take, best + len(names), index)
        names.extend(tag_list)
    return np.array(names, dtype=object)[index].tolist(), np.where(score < 0.0, 1.0, score)


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


def _spans_from_tags(tags: Sequence[str], scores: np.ndarray):
    """Decoded spans, each scored by the mean of its tokens' scores."""
    return [(i, j, t, float(scores[i - 1 : j].mean())) for i, j, t in tag_decode(tags)]


def _flat_rows(hidden: nc.Tensor, lengths: np.ndarray) -> tuple[nc.Tensor, np.ndarray, int]:
    """A padded batch's (B, n, d) vectors as (B * n, d) token rows, with
    the (B * n,) real-row indicator and n."""
    batch, n, d = hidden.shape
    return nc.reshape(hidden, (batch * n, d)), length_mask(lengths, n).reshape(-1), n


def _gold_block(spans, types: Sequence[str], tag_list: Sequence[str], size: int) -> np.ndarray:
    """One sentence's one-hot gold IOB rows over ``types`` in ``tag_list``
    (O first)."""
    tags = iob_encode(spans, types, size)
    return np.eye(len(tag_list))[[tag_list.index(t) for t in tags]]


def _teacher_rows(dist, size: int, width: int | None = None) -> np.ndarray:
    """A copy of one sentence's teacher rows, checked to be ``size`` rows
    (of ``width`` columns, when given)."""
    rows = np.array(dist, dtype=np.float64)
    if rows.ndim != 2 or len(rows) != size or width not in (None, rows.shape[1]):
        raise nc.ShapeError(f"distilled rows have shape {rows.shape}, expected {size} rows")
    return rows


def _neg_entropy(rows: np.ndarray) -> np.ndarray:
    """Per row, the sum of p log p (0 log 0 = 0): the constant by which
    a row's KL exceeds its cross entropy."""
    return np.where(rows > 0.0, rows * np.log(np.maximum(rows, 1e-300)), 0.0).sum(axis=-1)


def _placed_heads(
    head_logits, hidden: nc.Tensor, lengths: np.ndarray, heads: Sequence, sentences: Sequence,
    alpha: float, beta: float,
) -> nc.Tensor:
    """Sum over the planned heads, each an (index, padding row) pair, of
    one weighted cross entropy over the batch's flattened token rows.
    Each planned sentence holds per head its target rows and KD mask,
    placed at its row offset. KD rows weigh beta, the other real rows
    alpha, padding 0; a head with KD rows adds their constant negative
    entropy."""
    rows, real, n = _flat_rows(hidden, lengths)
    loss: nc.Tensor | None = None
    for h, (idx, pad_row) in enumerate(heads):
        targets = np.tile(pad_row, (len(real), 1))
        kd = np.zeros_like(real)
        for b, sentence in enumerate(sentences):
            block, mask = sentence[h]
            targets[b * n : b * n + len(mask)] = block
            kd[b * n : b * n + len(mask)] = mask
        term = nc.softmax_cross_entropy(
            head_logits(rows, idx), targets, alpha * (real - kd) + beta * kd
        )
        if kd.any():
            term = term + beta * (kd * _neg_entropy(targets)).sum()
        loss = term if loss is None else loss + term
    return loss


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

    def loss_plan(self, sizes, batch_gold, current_types, distilled) -> tuple[list, list]:
        """alpha * cross entropy on heads whose types are current, against
        each sentence's one-hot gold rows; beta * KL against the teacher's
        own-head softmax on the older heads (a sentence's distilled
        labels: one (n, width) array per taught head), as a cross entropy
        against the teacher rows plus their constant negative entropy."""
        current = set(current_types)
        taught = min(len(d) for d in distilled) if distilled is not None else 0
        heads, columns = [], []
        for idx, types in enumerate(self.task_types):
            width = self.weights[idx].shape[1]
            if set(types) <= current:
                tags = head_tag_list(types)
                heads.append((idx, np.eye(width)[0]))
                columns.append([
                    (_gold_block(spans, types, tags, size), np.zeros(size))
                    for spans, size in zip(batch_gold, sizes)
                ])
            elif idx < taught:
                heads.append((idx, np.full(width, 1.0 / width)))
                columns.append([
                    (_teacher_rows(d[idx], size, width), np.ones(size))
                    for d, size in zip(distilled, sizes)
                ])
        if not heads:
            raise ValueError("no head received a training signal for these sentences")
        return heads, list(zip(*columns))

    def _placed_sum(self, hidden, lengths, heads, rows, alpha, beta):
        return _placed_heads(self._head_logits, hidden, lengths, heads, rows, alpha, beta)

    def _softmaxes(self, batch_ids: np.ndarray) -> list[np.ndarray]:
        """Each head's (B, n, width) softmax rows of an equal-length batch."""
        hidden, _ = self._encode(batch_ids)
        return [
            stable_softmax(self._head_logits(hidden, idx).data)
            for idx in range(len(self.task_types))
        ]

    def _probs(self, batch_ids: np.ndarray, types: Sequence[str]) -> list:
        """Per sentence of an equal-length batch, each head's (n, width)
        softmax rows; every head covers registered types only, so all
        heads answer for ``types``."""
        return [list(rows) for rows in zip(*self._softmaxes(batch_ids))]

    def _decode(self, batch_ids: np.ndarray) -> list:
        tag_lists = [head_tag_list(types) for types in self.task_types]
        tags, scores = combine_heads(list(zip(tag_lists, self._softmaxes(batch_ids))))
        return [_spans_from_tags(t, s) for t, s in zip(tags, scores)]


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

    def loss_plan(self, sizes, batch_gold, current_types, distilled) -> tuple[list, list]:
        """One head over the whole tag set. Per sentence: alpha * CE with
        the one-hot gold on rows whose gold is a current entity tag (on
        every row when no teacher exists), beta * KL against the
        teacher's (n, old width) rows, padded to the head's width, on the
        others (CE plus the rows' constant negative entropy)."""
        tags = self.tag_list
        rows = []
        for b, (spans, size) in enumerate(zip(batch_gold, sizes)):
            block = _gold_block(spans, current_types, tags, size)
            kd = np.zeros(size)
            if distilled is not None:
                padded = pad_distilled_distribution(
                    _teacher_rows(distilled[b], size), len(tags), self.pad_constant
                )
                kd = block[:, 0].copy()
                block[kd > 0.0] = padded[kd > 0.0]
            rows.append(((block, kd),))
        return [(0, np.eye(len(tags))[0])], rows

    def _placed_sum(self, hidden, lengths, heads, rows, alpha, beta):
        return _placed_heads(
            lambda flat, _: self._logits(flat), hidden, lengths, heads, rows, alpha, beta
        )

    def _probs(self, batch_ids: Sequence[Sequence[int]], types: Sequence[str]) -> np.ndarray:
        """(B, n, width) softmax rows of an equal-length batch over the
        whole tag set, which covers ``types``."""
        hidden, _ = self._encode(batch_ids)
        return stable_softmax(self._logits(hidden).data)

    def _decode(self, batch_ids: np.ndarray) -> list:
        """Spans of the argmax tags, scored by their probabilities."""
        probs = self._probs(batch_ids, self.types)
        tags = np.array(self.tag_list, dtype=object)[probs.argmax(axis=-1)].tolist()
        return [_spans_from_tags(t, s) for t, s in zip(tags, probs.max(axis=-1))]
