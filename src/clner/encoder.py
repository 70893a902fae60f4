"""Whitespace-token vocabulary and the shared contextual encoder.

The encoder is deliberately small: learned token + position embeddings,
one multi-head scaled-dot-product self-attention layer with a residual
connection and layer normalization, then dropout. One encoder instance is
shared by every task head of a model. Reading (train=False) is safe from
multiple threads; training updates are single-writer.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from clner import numcore as nc

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class Vocab:
    """Token->id map with reserved padding/unknown entries at ids 0/1;
    the given tokens take ids 2, 3, ... in first-occurrence order."""

    def __init__(self, tokens: Iterable[str]):
        self._token_to_id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
        for tok in tokens:
            self._token_to_id.setdefault(tok, len(self._token_to_id))

    pad_id = 0
    unk_id = 1

    def __len__(self) -> int:
        return len(self._token_to_id)

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, self.unk_id)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]


@dataclass
class EncoderConfig:
    d_model: int = 64
    n_heads: int = 4
    max_len: int = 128
    dropout: float = 0.1

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


def pad_batch(batch_ids: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad sentences with the padding id into a (B, n_max) id array;
    returns it with the (B,) true lengths."""
    lengths = np.array([len(ids) for ids in batch_ids], dtype=np.int64)
    if not len(lengths) or lengths.min() == 0:
        raise ValueError("cannot encode an empty sentence")
    ids = np.full((len(lengths), lengths.max()), Vocab.pad_id, dtype=np.int64)
    for row, sent in zip(ids, batch_ids):
        row[: len(sent)] = sent
    return ids, lengths


def length_buckets(batch_ids: Sequence[Sequence[int]]) -> list[list[int]]:
    """Sentence indices grouped by exact length, lengths in first-seen
    order. A group stacks without padding, so it encodes bit for bit as
    its sentences do one at a time; a padded batch does not."""
    groups: dict[int, list[int]] = {}
    for idx, ids in enumerate(batch_ids):
        groups.setdefault(len(ids), []).append(idx)
    return list(groups.values())


def length_mask(lengths: np.ndarray, n: int) -> np.ndarray:
    """(B, n) indicator of real (non-padding) positions."""
    return (np.arange(n)[None, :] < np.asarray(lengths)[:, None]).astype(np.float64)


class TransformerEncoder:
    """Single attention layer producing one contextual vector per token."""

    def __init__(self, vocab_size: int, config: EncoderConfig, rng: np.random.Generator):
        self.config = config
        d = config.d_model
        self.tok_emb = nc.parameter(0.02 * rng.standard_normal((vocab_size, d)))
        self.pos_emb = nc.parameter(0.02 * rng.standard_normal((config.max_len, d)))
        self.w_q = nc.parameter(fan_in_uniform(rng, (d, d)))
        self.b_q = nc.parameter(np.zeros(d))
        self.w_k = nc.parameter(fan_in_uniform(rng, (d, d)))
        self.b_k = nc.parameter(np.zeros(d))
        self.w_v = nc.parameter(fan_in_uniform(rng, (d, d)))
        self.b_v = nc.parameter(np.zeros(d))
        self.w_o = nc.parameter(fan_in_uniform(rng, (d, d)))
        self.b_o = nc.parameter(np.zeros(d))
        self.ln_gain = nc.parameter(np.ones(d))
        self.ln_bias = nc.parameter(np.zeros(d))

    def named_parameters(self) -> dict[str, nc.Tensor]:
        return {
            "encoder.tok_emb": self.tok_emb,
            "encoder.pos_emb": self.pos_emb,
            "encoder.w_q": self.w_q,
            "encoder.b_q": self.b_q,
            "encoder.w_k": self.w_k,
            "encoder.b_k": self.b_k,
            "encoder.w_v": self.w_v,
            "encoder.b_v": self.b_v,
            "encoder.w_o": self.w_o,
            "encoder.b_o": self.b_o,
            "encoder.ln_gain": self.ln_gain,
            "encoder.ln_bias": self.ln_bias,
        }

    def parameters(self) -> list[nc.Tensor]:
        return list(self.named_parameters().values())

    def encode(
        self,
        token_ids,
        train: bool = False,
        rng: np.random.Generator | None = None,
        lengths: Sequence[int] | None = None,
    ) -> nc.Tensor:
        """Token ids -> contextual vectors. A flat id sequence gives
        (n, d_model); a right-padded (B, n) id array gives (B, n, d_model),
        with ``lengths`` the true length of each row (default: all n).
        Padding keys are masked out of attention, so real rows do not
        depend on padding. Deterministic when train is off; train mode
        draws dropout from ``rng`` one sentence at a time, in row order,
        as an (n_i, d_model) block each."""
        ids = np.asarray(token_ids, dtype=np.int64)
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        batch, n = ids.shape
        lengths = np.full(batch, n) if lengths is None else np.asarray(lengths, dtype=np.int64)
        if n == 0 or lengths.min() < 1:
            raise ValueError("cannot encode an empty sentence")
        if lengths.max() > self.config.max_len:
            raise ValueError(
                f"sentence length {lengths.max()} exceeds max_len {self.config.max_len}"
            )
        cfg = self.config
        d, heads = cfg.d_model, cfg.n_heads
        dk = d // heads
        e = nc.gather_rows(self.tok_emb, ids) + self.pos_emb[0:n]

        def split_heads(x: nc.Tensor, axes: tuple[int, ...]) -> nc.Tensor:
            return nc.permute(nc.reshape(x, (batch, n, heads, dk)), axes)

        q = split_heads(nc.matmul(e, self.w_q) + self.b_q, (0, 2, 1, 3))
        k = split_heads(nc.matmul(e, self.w_k) + self.b_k, (0, 2, 3, 1))
        v = split_heads(nc.matmul(e, self.w_v) + self.b_v, (0, 2, 1, 3))
        scores = nc.matmul(q, k) * dk**-0.5
        if lengths.min() < n:
            keys = length_mask(lengths, n)[:, None, None, :]
            scores = scores + np.where(keys > 0.0, 0.0, -np.inf)
        attn = nc.softmax(scores, axis=-1)
        merged = nc.reshape(nc.permute(nc.matmul(attn, v), (0, 2, 1, 3)), (batch, n, d))
        attended = nc.matmul(merged, self.w_o) + self.b_o
        hidden = nc.layer_norm(e + attended, self.ln_gain, self.ln_bias)
        if train and cfg.dropout > 0.0:
            if rng is None:
                raise ValueError("dropout in train mode needs an explicit rng")
            keep = np.zeros((batch, n, d))
            for row, length in zip(keep, lengths):
                row[:length] = rng.random((length, d)) >= cfg.dropout
            hidden = hidden * (keep / (1.0 - cfg.dropout))
        return nc.reshape(hidden, (n, d)) if single else hidden


class EncoderModel:
    """What the span model and the taggers share: an encoder, the
    registered ``types`` and their growth, checkpoints written from
    ``state_arrays`` and restored by ``load_arrays``, the one-sentence
    loss as a batch of one, and graph-free inference with one forward
    pass per sentence length. A subclass defines only its heads
    (``_add_heads``, ``head_named``), its ``batch_loss``, ``_probs`` (an
    equal-length batch -> each sentence's probabilities over the given
    types, which are also the teacher's labels) and ``_decode`` (one
    sentence's probabilities -> its (start, end, type, score) spans)."""

    def __init__(self, encoder: TransformerEncoder):
        self.encoder = encoder
        self.types: tuple[str, ...] = ()

    def grow(self, new_types: Sequence[str], rng: np.random.Generator) -> None:
        """Register new entity types and add their heads; existing head
        parameters stay bit-identical. No types is a no-op."""
        types = self.types + tuple(new_types)
        dup = {t for t in types if types.count(t) > 1}
        if dup:
            raise ValueError(f"entity types repeat or are already registered: {sorted(dup)}")
        if new_types:
            self._add_heads(tuple(new_types), rng)
            self.types = types

    def _encode(
        self, batch_ids: Sequence[Sequence[int]], train: bool = False, rng=None
    ) -> tuple[nc.Tensor, np.ndarray]:
        """Right-pad and encode a batch: (B, n, d) vectors and the (B,)
        true lengths."""
        ids, lengths = pad_batch(batch_ids)
        return self.encoder.encode(ids, train=train, rng=rng, lengths=lengths), lengths

    def _by_length(self, sentences_ids: Sequence[Sequence[int]], run) -> list:
        """``run`` on each equal-length group of the sentences without a
        graph, its per-sentence results put back in input order."""
        out: list = [None] * len(sentences_ids)
        with nc.no_grad():
            for group in length_buckets(sentences_ids):
                for idx, result in zip(group, run([sentences_ids[i] for i in group])):
                    out[idx] = result
        return out

    def predict_many(self, sentences_ids: Sequence[Sequence[int]]) -> list:
        """Decoded spans per sentence; equal to ``predict`` on each."""
        return self._by_length(
            sentences_ids, lambda batch: [self._decode(p) for p in self._probs(batch, self.types)]
        )

    def predict(self, token_ids: Sequence[int]) -> list:
        """Decoded (start, end, type, score) spans of one sentence."""
        return self.predict_many([token_ids])[0]

    def teacher_predict(
        self, sentences_ids: Sequence[Sequence[int]], old_types: Sequence[str]
    ) -> list:
        """One-off teacher pass before growth: each sentence's
        probabilities over the old types, fixed while the student
        trains."""
        return self._by_length(sentences_ids, lambda batch: self._probs(batch, old_types))

    def head_named(self) -> dict[str, nc.Tensor]:
        raise NotImplementedError

    def named_parameters(self) -> dict[str, nc.Tensor]:
        return self.encoder.named_parameters() | self.head_named()

    def encoder_parameters(self) -> list[nc.Tensor]:
        return self.encoder.parameters()

    def head_parameters(self) -> list[nc.Tensor]:
        return list(self.head_named().values())

    def sentence_loss(
        self,
        token_ids: Sequence[int],
        gold_spans: Iterable,
        current_types: Sequence[str],
        distilled,
        alpha: float,
        beta: float,
        train: bool,
        rng: np.random.Generator | None,
    ) -> nc.Tensor:
        """One sentence's loss: ``batch_loss`` on a batch of one, with
        ``distilled`` that sentence's teacher labels or None."""
        return self.batch_loss(
            [token_ids], [gold_spans], current_types,
            None if distilled is None else [distilled], alpha, beta, train, rng,
        )

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameter values under their checkpoint names (not copies)."""
        return {name: p.data for name, p in self.named_parameters().items()}

    def load_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        for name, tensor in params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != tensor.shape:
                raise ValueError(
                    f"checkpoint shape {arr.shape} for {name} does not match "
                    f"model shape {tensor.shape}"
                )
            tensor.data = arr.copy()
