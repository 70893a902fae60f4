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

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from clner import numcore as nc
from clner.encoder import EncoderModel, TransformerEncoder, fan_in_uniform, length_mask
from clner.numcore.tensor import stable_sigmoid

DEFAULT_SPAN_DIM = 50
DEFAULT_THRESHOLD = 0.5
TEACHER_PROB_CLAMP = 1e-7
_HEAD_PARTS = ("start_w", "start_b", "end_w", "end_b")

_TRIU_CACHE: dict[int, np.ndarray] = {}
_TRIU_INDEX: dict[int, tuple[np.ndarray, np.ndarray]] = {}


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
    rows: np.ndarray | None = None,
) -> nc.Tensor:
    """(B, n, d) boundary vectors and T stacked heads -> (B, T, n, n)
    logits: start_t(h_i) . end_t(h_j) / sqrt(d_span), one graph node.
    Weights are (T, d, d_span), biases (T, 1, d_span); ``rows`` picks the
    heads to score (default: all). The span model's layer boundary, which
    the benchmark's layer trace times."""
    return nc.span_scores(hidden, start_w, start_b, end_w, end_b, rows)


class SpanColumns(NamedTuple):
    """A span plan's scored ``types`` and the logit columns of the current
    and the old ones (a slice when the old come first, as growth puts them)."""

    types: tuple[str, ...]
    current: list[int]
    old: list[int] | slice


def plan_objective(
    lengths: Sequence[int], types: Sequence[str], current_types: Sequence[str],
    golds: Sequence[Sequence[tuple[int, int, str]]],
    distilled: Sequence[Mapping[str, np.ndarray]] | None,
) -> tuple[SpanColumns, list]:
    """The span objective's targets for logits over ``types``, checked
    and built once: the shared columns, and per sentence a row of its
    gold cells as a (3, m) array of (column, i, j) and, with old types,
    its teacher probabilities clamped into [1e-7, 1 - 1e-7] as one
    (T_old, n_b, n_b) block in old-column order. Each sentence's gold is
    its (start, end, type) spans, 1-based, of current types; its
    distilled labels map each old type to the teacher's (n_b, n_b)
    probabilities."""
    column = {t: k for k, t in enumerate(types)}
    current = [column[t] for t in current_types]
    old_types = [t for t in types if t not in current_types]
    if old_types and distilled is None:
        raise ValueError(f"distilled labels missing for old types: {sorted(old_types)}")
    rows = []
    for b, (gold, size) in enumerate(zip(golds, lengths)):
        extra = {t for _, _, t in gold} - set(current_types)
        if extra:
            raise ValueError(f"gold spans for non-current types: {sorted(extra)}")
        cells = [(column[t], i - 1, j - 1) for i, j, t in gold]
        for _, i, j in cells:
            if not (0 <= i <= j < size):
                raise ValueError(f"gold span ({i + 1}, {j + 1}) outside a {size}-token sentence")
        block = None
        if old_types:
            labels = distilled[b]
            if set(labels) != set(old_types):
                raise ValueError(
                    f"distilled labels cover {sorted(labels)}, not the old types "
                    f"{sorted(old_types)}"
                )
            for t in old_types:
                if np.shape(labels[t]) != (size, size):
                    raise nc.ShapeError(
                        f"distilled matrix for {t!r} has shape {np.shape(labels[t])}, "
                        f"expected {(size, size)}"
                    )
            block = np.clip(
                [labels[t] for t in old_types], TEACHER_PROB_CLAMP, 1.0 - TEACHER_PROB_CLAMP
            )
        rows.append((np.array(cells, dtype=np.int64).reshape(-1, 3).T, block))
    old = [column[t] for t in old_types]
    if old and old == list(range(len(old))):
        old = slice(0, len(old))  # a basic index places a block without index arrays
    return SpanColumns(tuple(types), current, old), rows


def place_objective(
    logits: nc.Tensor, lengths: np.ndarray, columns: SpanColumns, rows: Sequence,
    alpha: float, beta: float,
) -> nc.Tensor:
    """alpha * BCE over the current columns plus beta * Bernoulli KL over
    the old ones, summed over the read cells (upper triangle within each
    sentence's length) of every sentence of (B, T, n, n) logits, from the
    batch's ``plan_objective`` rows: the gold cells take label 1 and the
    teacher blocks fill the old columns, every other cell 0, in one
    weighted ``bce_with_logits`` call, the cross entropy softplus(z) -
    t*z against a soft target t; the KL adds the placed teacher cells'
    constant negative entropy sum p log p + q log q."""
    current, old = columns.current, columns.old
    owned = triu_mask(logits.shape[-1]) * length_mask(lengths, logits.shape[-1])[:, None, :]
    target = np.zeros(logits.shape)
    weight = np.zeros(logits.shape)
    weight[:, current] = alpha * owned[:, None]
    gold = [cells for cells, _ in rows]
    k, i, j = np.concatenate(gold, axis=1)
    target[np.repeat(np.arange(len(gold)), [cells.shape[1] for cells in gold]), k, i, j] = 1.0
    for b, (_, block) in enumerate(rows):
        if block is not None:
            target[b, old, : block.shape[-1], : block.shape[-1]] = block
    if not old:
        return nc.bce_with_logits(logits, target, weight)
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
    over the upper-triangle cells of the current types, ``gold`` mapping
    each to its (start, end) spans: the span objective with alpha 1 on a
    batch of one."""
    if not current_types:
        raise ValueError("bce_loss needs at least one current type")
    logits, lengths = _one_sentence(matrices, current_types)
    spans = [(i, j, t) for t, pairs in gold.items() for i, j in pairs]
    plan = plan_objective(lengths, current_types, current_types, [spans], None)
    return place_objective(logits, lengths, *plan, 1.0, 0.0)


def kd_loss(
    matrices: Mapping[str, nc.Tensor],
    distilled: Mapping[str, np.ndarray],
    old_types: Sequence[str],
) -> nc.Tensor:
    """Bernoulli KL of one sentence's per-type matrices against its
    teacher probabilities, summed over the upper-triangle cells of the
    old types: the span objective with beta 1 on a batch of one."""
    if not old_types:
        raise ValueError("kd_loss needs at least one old type")
    logits, lengths = _one_sentence(matrices, old_types)
    plan = plan_objective(lengths, old_types, [], [[]], [distilled])
    return place_objective(logits, lengths, *plan, 0.0, 1.0)


def total_loss(bce, kd, alpha: float, beta: float) -> nc.Tensor:
    """Weighted sum alpha*bce + beta*kd; works on tensors or plain floats."""
    if alpha < 0 or beta < 0:
        raise ValueError(f"loss weights must be non-negative, got {alpha}, {beta}")
    return nc.add(nc.mul(bce, alpha), nc.mul(kd, beta))


def _upper(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The upper-triangle cells (i <= j) of (..., n, n) values as (..., m),
    row by row, and each cell's 1-based (start, end) as an (m, 2) array."""
    n = values.shape[-1]
    if n not in _TRIU_INDEX:
        rows, cols = np.triu_indices(n)
        _TRIU_INDEX[n] = (rows * n + cols, np.stack([rows + 1, cols + 1], axis=1))
    flat, spans = _TRIU_INDEX[n]
    return values.reshape(*values.shape[:-2], n * n)[..., flat], spans


def _flat_select(cells, spans, index, probs, types: Sequence[str], threshold: float) -> list:
    """Per sentence of (B, T, m) upper cells, flatten the cells at flat
    positions ``index`` whose ``probs`` are above the threshold: keep the
    highest-scoring span, discard anything whose token range intersects
    an accepted span; ties are broken by (start, end, type order)."""
    batch, n_types, m = cells.shape
    keep = probs > threshold
    b, rest = np.divmod(index[keep], n_types * m)
    t, c = np.divmod(rest, m)
    found: list[list] = [[] for _ in range(batch)]
    for s, cell in zip(b.tolist(), zip((-probs[keep]).tolist(), spans[c].tolist(), t.tolist())):
        found[s].append(cell)
    out = []
    for candidates in found:
        accepted, taken = [], set()  # taken: the tokens of the accepted spans
        for neg, (i, j), col in sorted(candidates):
            if taken.isdisjoint(range(i, j + 1)):
                taken.update(range(i, j + 1))
                accepted.append((i, j, types[col], -neg))
        out.append(accepted)
    return out


def decode_flat(
    prob_matrices: Mapping[str, np.ndarray], threshold: float = DEFAULT_THRESHOLD
) -> list[tuple[int, int, str, float]]:
    """``_flat_select`` of one sentence's per-type (n, n) probabilities;
    the map's iteration order defines type order."""
    if not prob_matrices:
        return []
    cells, spans = _upper(np.array([[*prob_matrices.values()]], dtype=np.float64))
    index = np.flatnonzero(cells > threshold)
    return _flat_select(cells, spans, index, cells.ravel()[index], [*prob_matrices], threshold)[0]


def decode_chunk(logits: np.ndarray, types: Sequence[str], threshold: float) -> list[list]:
    """``decode_flat`` of each sentence of (B, T, n, n) logits, with the
    sigmoid on upper-triangle cells only; it is elementwise, so each has
    its bits in the full matrix. A cell 4 below the threshold's log-odds
    is skipped: its probability cannot pass the threshold, by a margin
    far beyond rounding."""
    cells, spans = _upper(logits)
    index = np.flatnonzero(cells > math.log(threshold / (1.0 - threshold)) - 4.0)
    return _flat_select(cells, spans, index, stable_sigmoid(cells.ravel()[index]), types, threshold)


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

    # -- forward paths -----------------------------------------------------
    def _span_scores(
        self, hidden: nc.Tensor, types: Iterable[str] | None = None
    ) -> tuple[list[str], nc.Tensor]:
        """Score encoded (B, n, d) vectors: the wanted types (default:
        all) and their (B, T, n, n) logits."""
        wanted = list(self.types if types is None else types)
        rows = [self.types.index(t) for t in wanted]
        picked = None if rows == list(range(len(self.types))) else np.array(rows, dtype=np.int64)
        heads = [getattr(self, part) for part in _HEAD_PARTS]
        return wanted, span_logits(hidden, *heads, picked)

    def logits(
        self,
        token_ids: Sequence[int],
        types: Iterable[str] | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> dict[str, nc.Tensor]:
        """Per-type (n, n) logit matrices of one sentence: views of the
        batch-of-one stacked scores."""
        hidden, _ = self._encode([token_ids], train, rng)
        wanted, logits = self._span_scores(hidden, types)
        return {t: logits[0, k] for k, t in enumerate(wanted)}

    def _probs(
        self, batch_ids: Sequence[Sequence[int]], types: Iterable[str]
    ) -> list[dict[str, np.ndarray]]:
        """Per sentence of an equal-length batch (no padding, so no key
        mask): each wanted type's (n, n) sigmoid probabilities."""
        wanted, logits = self._span_scores(self._encode(batch_ids)[0], types)
        return [dict(zip(wanted, p)) for p in stable_sigmoid(logits.data)]

    def loss_plan(self, sizes, batch_gold, current_types, distilled) -> tuple[SpanColumns, list]:
        """``plan_objective`` for alpha * BCE over the current types +
        beta * KL over the old types; a sentence's distilled labels map
        each old type to its (n, n) teacher probabilities. The KD term
        and the old types' heads are left out when no distilled labels
        exist (first step or disabled distillation)."""
        current = set(current_types)
        unknown = current - set(self.types)
        if unknown:
            raise ValueError(f"current types not registered: {sorted(unknown)}")
        use_kd = distilled is not None and not current.issuperset(self.types)
        wanted = [t for t in self.types if t in current or use_kd]
        return plan_objective(
            sizes, wanted, current_types, batch_gold, distilled if use_kd else None
        )

    def _placed_sum(self, hidden, lengths, columns, rows, alpha, beta):
        """``place_objective`` on the scores of the planned types' heads."""
        _, logits = self._span_scores(hidden, columns.types)
        return place_objective(logits, lengths, columns, rows, alpha, beta)

    def _decode(self, batch_ids: np.ndarray) -> list:
        """Each sentence's mutually non-overlapping spans above the
        threshold. The teacher pass keeps ``_probs``' full matrices."""
        _, logits = self._span_scores(self._encode(batch_ids)[0])
        return decode_chunk(logits.data, self.types, self.threshold)

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
            wanted, logits = self._span_scores(self._encode([token_ids])[0], types)
        cells, spans = _upper(logits.data[0])
        probs = stable_sigmoid(cells)
        t, c = np.nonzero(probs > thr)
        found = zip(t.tolist(), spans[c].tolist(), probs[t, c].tolist())
        return [(i, j, wanted[u], p) for u, (i, j), p in found]
